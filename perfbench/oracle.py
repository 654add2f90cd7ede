"""Expected answers, derived without calling the classifier under test.

An input is described by a small spec tuple; the benchmark builds the
algebra from the spec inside the timed op, and this module predicts the
Brauer-Wall class from the spec alone:

* ``("clifford", field, entries)``: signature mod 8 over R, rank mod 2
  over C (the Clifford map from the Witt ring, Atiyah-Bott-Shapiro);
* ``("end", m, n, field)``: a graded matrix algebra, class 0;
* ``("tensor", a, b)``: the group law, class(a) + class(b);
* ``("opposite", a)``: the inverse, -class(a).

The parity invariant is the class mod 2 and the quadratic class is the
class mod 4 over R (mod 2 over C): both are the reductions of the Z/8
(Z/2) class, so they are checked from the same prediction.

Outputs with no closed form here (golden tables, descriptor reports)
are compared against sha256 digests of their CLI output recorded in
``golden.json`` at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())["sha256"]


def order(field: str) -> int:
    return 8 if field == "R" else 2


def spec_field(spec) -> str:
    kind = spec[0]
    if kind == "clifford":
        return spec[1]
    if kind == "end":
        return spec[3]
    return spec_field(spec[1])


def spec_dim(spec) -> int:
    kind = spec[0]
    if kind == "clifford":
        return 1 << len(spec[2])
    if kind == "end":
        return (spec[1] + spec[2]) ** 2
    if kind == "tensor":
        return spec_dim(spec[1]) * spec_dim(spec[2])
    return spec_dim(spec[1])


def expected_class(spec) -> int:
    kind = spec[0]
    n = order(spec_field(spec))
    if kind == "clifford":
        entries = [Fraction(e) for e in spec[2]]
        if spec[1] == "C":
            return len(entries) % n
        return sum(1 if e > 0 else -1 for e in entries) % n
    if kind == "end":
        return 0
    if kind == "tensor":
        return (expected_class(spec[1]) + expected_class(spec[2])) % n
    if kind == "opposite":
        return -expected_class(spec[1]) % n
    raise ValueError(f"unknown spec kind {kind!r}")


def triple_matches(spec, triple, bw) -> bool:
    """Whether ``(parity, q2, ungraded)`` and ``bw`` agree with the spec."""
    want = expected_class(spec)
    q2_mod = 4 if spec_field(spec) == "R" else 2
    return bw == want and triple[0] == want % 2 and triple[1] == want % q2_mod


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_matches(argv, stdout: str) -> bool:
    return GOLDEN.get(" ".join(argv)) == digest(stdout)
