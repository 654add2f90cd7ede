"""End-to-end consistency checks runnable from the command line.

Each check recomputes something the library claims from two independent
directions and compares.  The checks call this module's ``graded_tensor``,
so the suite can prove that they detect breakage: bind a wrong product in
its place and the additivity checks must fail.
"""

from __future__ import annotations

import random
from typing import Callable

from .algebra import end_graded, graded_tensor, opposite, trace_signature
from .clifford import DiagonalForm, clifford, signature_form
from .groups import AbGroup
from .invariants import bw_class, group_order, q2_add, q2_class, witt_to_bw
from .scalars import REAL
from .spaces import (Graph, RealCurve, circle_reports, compute_report,
                     curve_reports, named_examples, surface_reports)


def _check_clifford_periodicity(rng: random.Random) -> None:
    seen: dict[int, int] = {}
    for p in range(7):
        for q in range(7 - p):
            cls = bw_class(clifford(signature_form(p, q)))
            key = (p - q) % 8
            if seen.setdefault(key, cls) != cls:
                raise AssertionError(
                    f"class of Cl({p},{q}) is {cls}, but residue {key} "
                    f"already gave {seen[key]}")
            if cls != key:
                raise AssertionError(f"Cl({p},{q}) -> {cls}, expected {key}")
    if len(seen) != 8:
        raise AssertionError(f"only {len(seen)} of 8 classes realized")


def _check_witt_signatures(rng: random.Random) -> None:
    for _ in range(8):
        entries = [rng.choice((1, -1, 2, -3)) for _ in range(rng.randint(1, 5))]
        form = DiagonalForm(tuple(entries))
        got = witt_to_bw(form)
        if got != form.signature() % 8:
            raise AssertionError(f"{entries}: class {got} != signature mod 8")


def _check_tensor_additivity(rng: random.Random) -> None:
    for _ in range(6):
        p1, q1 = rng.randint(0, 2), rng.randint(0, 1)
        p2, q2 = rng.randint(0, 1), rng.randint(0, 2)
        a, b = clifford(signature_form(p1, q1)), clifford(signature_form(p2, q2))
        got = bw_class(graded_tensor(a, b))
        want = (bw_class(a) + bw_class(b)) % group_order(REAL)
        if got != want:
            raise AssertionError(
                f"Cl({p1},{q1}) (x) Cl({p2},{q2}): class {got}, expected {want}")


def _check_quadratic_values(rng: random.Random) -> None:
    plus = clifford(signature_form(1, 0))
    minus = clifford(signature_form(0, 1))
    triple = (q2_class(plus), q2_class(graded_tensor(plus, plus)),
              q2_class(graded_tensor(plus, minus)))
    if triple != (1, 2, 0):
        raise AssertionError(f"quadratic classes {triple}, expected (1, 2, 0)")
    if q2_add(q2_class(plus), q2_class(plus), REAL) != 2:
        raise AssertionError("quadratic addition is not mod-4 addition")


def _check_opposite_inverts(rng: random.Random) -> None:
    for p, q in ((1, 0), (2, 0), (0, 2), (2, 1)):
        a = clifford(signature_form(p, q))
        got = bw_class(opposite(a))
        want = (-bw_class(a)) % 8
        if got != want:
            raise AssertionError(f"opposite of Cl({p},{q}): {got} != {want}")


def _check_trace_anchors(rng: random.Random) -> None:
    hyperbolic_sig = trace_signature(end_graded(2, 0))
    quaternion_sig = trace_signature(clifford(signature_form(0, 2)))
    if hyperbolic_sig <= 0 or quaternion_sig >= 0:
        raise AssertionError(
            f"trace form signatures {hyperbolic_sig}, {quaternion_sig}: "
            "expected positive for the split algebra, negative for the "
            "quaternions")


def _check_golden_tables(rng: random.Random) -> None:
    circles = {name: str(r.gbr) for name, r in circle_reports().items()}
    want = {"circle-antipodal": "Z/4", "circle-trivial": "Z/8 x Z/2",
            "circle-reflection": "Z/8 x Z/4"}
    if circles != want:
        raise AssertionError(f"circle table {circles} != {want}")
    named = named_examples()
    if str(named["real-projective-plane"].gbr) != "Z/8 x Z/4":
        raise AssertionError("projective plane golden value changed")
    if named["antipodal-4-sphere"].gbr != AbGroup.cyclic(8):
        raise AssertionError("antipodal 4-sphere golden value changed")
    for g in (0, 1, 2):
        for nu in (1, 2, 3):
            a = compute_report(RealCurve(g, nu))
            b = compute_report(Graph(fixed_components=nu, h1_quotient=g))
            if (a.q2, a.rbr, a.gbr) != (b.q2, b.rbr, b.gbr):
                raise AssertionError(f"curve/graph disagree at g={g}, nu={nu}")


def _check_order_identity(rng: random.Random) -> None:
    tables = [circle_reports(), named_examples(), curve_reports(),
              surface_reports()]
    for table in tables:
        for key, report in table.items():
            if report.order_consistent() is False:
                raise AssertionError(f"|gbr| != |rbr| * |q2| at {key!r}")


CHECKS: tuple[tuple[str, Callable[[random.Random], None]], ...] = (
    ("clifford-periodicity", _check_clifford_periodicity),
    ("witt-signatures", _check_witt_signatures),
    ("tensor-additivity", _check_tensor_additivity),
    ("quadratic-values", _check_quadratic_values),
    ("opposite-inverts", _check_opposite_inverts),
    ("trace-anchors", _check_trace_anchors),
    ("golden-tables", _check_golden_tables),
    ("order-identity", _check_order_identity),
)


def run_selftest(seed: int = 0) -> dict:
    """Run every check; report per-check status and an overall verdict.

    ``seed`` feeds the randomized samplers, so a fixed seed makes the
    whole run reproducible.  Checks that sample nothing ignore it.
    """
    results = []
    for name, check in CHECKS:
        try:
            check(random.Random(seed))
        except Exception as exc:  # noqa: BLE001 - a selftest reports, never raises
            results.append({"name": name, "status": "failed",
                            "detail": f"{type(exc).__name__}: {exc}"})
        else:
            results.append({"name": name, "status": "ok"})
    return {"passed": all(r["status"] == "ok" for r in results),
            "checks": results}
