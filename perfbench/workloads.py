"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed schedule of op slots.  The slots (which
family, which field, which dimension) are the same for every seed, so
runs with different seeds do about the same amount of work; the seed
fills them in: diagonal entries and their signs, tensor factors, the
change of basis of the dense inputs, descriptor parameters, and the order
of the ops.  Everything is built here, before any timing; a timed op
only receives what this module made.

A workload is one schedule of ops.  The runner repeats the whole schedule
until the run's time is up, so the mix of a run never depends on where
the clock stopped.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle

WHY = {
    "classify-sparse": (
        "Each op builds a Clifford, graded-matrix, tensor or opposite algebra "
        "and classifies it the way CLI invariants does. GradedAlgebra.mul, "
        "graded_centralizer, nullspace and the trace signature do almost all "
        "the work here on one-term-per-cell tables, which is what the sparse "
        "core targets. is_azumaya never runs."),
    "dense": (
        "The same families at dims 4-32, moved to a seeded homogeneous change "
        "of basis so that every cell is dense and carries denominators. It "
        "drives the same algebra/linalg layers through fill-in and Fraction "
        "growth instead of single-term cells: a sparse-element rewrite should "
        "show no gain here and must not lose."),
    "certify": (
        "Each op runs is_azumaya and validate on Azumaya and known "
        "non-Azumaya inputs. The sandwich matrix, rank_mod_prime and the "
        "cubic associativity loop dominate here, and hat_center is absent; "
        "this is the target of the O(n^3) Azumaya test and of validation at "
        "the boundary."),
    "cli": (
        "Fresh python -m gradedbrauer.cli processes, one at a time. This is "
        "the only workload where interpreter start-up, import, cold "
        "_calibration, argparse, JSON I/O and the spaces/groups calculators "
        "run."),
}

# Diagonal entries come from {+-1, +-2, +-3, +-1/2}.  The magnitudes of a
# rank-r form are fixed (cycling through MAGNITUDES) and the seed picks
# their order and signs: the cost of an op depends strongly on how many
# entries are not +-1, the class only on the signs.
MAGNITUDES = (1, 2, 3, Fraction(1, 2))

# A workload is one schedule of ops that the runner repeats at least three
# times; each op's latency is the median of its repeats, each taken at the
# reference loop's speed (see refloop.py).  So the schedule is short (4-7 s
# on 2 CPUs) and built from four tiers of ops, each tier well apart in cost
# from the next:
#
# * heavy: at most ten of the largest inputs;
# * upper: eight or nine ops of one kind, holding the tail (the 11th-largest
#   latency);
# * middle: eight ops of one kind, holding the median; as many ops lie
#   below it as above it, so the median sits in its middle;
# * small: the rest of the families and small dimensions.
#
# A median or tail taken inside a group of like ops moves less from run to
# run than one taken between unlike ops.


def _mod(name: str):
    return importlib.import_module(f"gradedbrauer.{name}")


@dataclass
class Op:
    """One timed call: ``run`` does the work, ``check`` judges its result.

    ``uses_bw`` marks ops whose answer comes from ``bw_class``, so a check
    with a deliberately wrong ``bw_class`` knows which ops must fail.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    uses_bw: bool


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op]
    launcher: Optional["Launcher"] = None


# ------------------------------------------------------------------ specs

def _form(rng: random.Random, field: str, rank: int):
    entries = [MAGNITUDES[i % len(MAGNITUDES)] for i in range(rank)]
    rng.shuffle(entries)
    return ("clifford", field, tuple(rng.choice((1, -1)) * e for e in entries))


def _tensor(rng: random.Random, field: str, left: int, right: int):
    return ("tensor", _form(rng, field, left), _form(rng, field, right))


def _opposite(rng: random.Random, field: str, rank: int):
    return ("opposite", _form(rng, field, rank))


def _end(m: int, n: int, field: str):
    return ("end", m, n, field)


def build(spec):
    """Build the algebra a spec describes, through the package's API."""
    kind = spec[0]
    if kind == "clifford":
        field = _mod("scalars").field_from_label(spec[1])
        cl = _mod("clifford")
        return cl.clifford(cl.DiagonalForm(spec[2], field))
    alg = _mod("algebra")
    if kind == "end":
        return alg.end_graded(spec[1], spec[2],
                              _mod("scalars").field_from_label(spec[3]))
    if kind == "tensor":
        return alg.graded_tensor(build(spec[1]), build(spec[2]))
    if kind == "opposite":
        return alg.opposite(build(spec[1]))
    raise ValueError(f"unknown spec kind {kind!r}")


def _describe(spec) -> str:
    return f"{spec[0]} {oracle.spec_field(spec)} dim {oracle.spec_dim(spec)}"


# -------------------------------------------------------- classify-sparse

def _classify_op(spec) -> Op:
    def run():
        inv = _mod("invariants")
        a = build(spec)
        triple = inv.invariant_triple(a)
        return triple, inv.bw_class(a)

    return Op(_describe(spec), run,
              lambda out: oracle.triple_matches(spec, *out), True)


def _classify_schedule(rng: random.Random) -> list:
    # heavy: real dim 128
    specs = [_form(rng, "R", 7), _opposite(rng, "R", 7), _tensor(rng, "R", 3, 4)]
    # upper, holding the tail: real Clifford dim 64, about 0.2 s each
    specs += [_form(rng, "R", 6) for _ in range(9)]
    # middle, holding the median: complex Clifford dim 16, about 70 ms each
    specs += [_form(rng, "C", 4) for _ in range(8)]
    # small: dims 2-16, under 25 ms each
    specs += [_form(rng, "R", r) for r in (1, 2, 3, 4)]
    specs += [_form(rng, "C", r) for r in (1, 2, 3)]
    specs += [_end(2, 1, "R"), _end(2, 2, "R"), _tensor(rng, "R", 1, 2),
              _tensor(rng, "C", 1, 1), _opposite(rng, "R", 3)]
    rng.shuffle(specs)
    return [_classify_op(s) for s in specs]


# ------------------------------------------------------------------ dense

def _signed_permutation(m: int, rng: random.Random):
    perm = list(range(m))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(m)]


def unimodular_pair(m: int, rng: random.Random):
    """A dense integer matrix of determinant +-1 and its integer inverse.

    ``M = L R`` with ``L`` (``R``) the lower (upper) triangular all-ones
    matrix, so ``M[i][j] = min(i, j) + 1`` is dense and ``M^-1 = R^-1 L^-1``
    is a product of two bidiagonal matrices.  A seeded signed permutation
    conjugates both, which keeps the entries of ``M`` and ``M^-1`` within
    a fixed size for every seed.
    """
    base = np.array([[min(i, j) + 1 for j in range(m)] for i in range(m)],
                    dtype=object)
    l_inv = np.identity(m, dtype=object) - np.eye(m, k=-1, dtype=int).astype(object)
    r_inv = np.identity(m, dtype=object) - np.eye(m, k=1, dtype=int).astype(object)
    base_inv = r_inv.dot(l_inv)
    perm, signs = _signed_permutation(m, rng)
    u = np.zeros((m, m), dtype=object)
    u_inv = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            s = signs[i] * signs[j]
            u[perm[i], perm[j]] = s * base[i, j]
            u_inv[perm[i], perm[j]] = s * base_inv[i, j]
    if not (u.dot(u_inv) == np.identity(m, dtype=object)).all():
        raise AssertionError("unimodular inverse is wrong")
    return u, u_inv


SCALES = (1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))


def transport(a, rng: random.Random):
    """``a`` on the basis ``g_i = d_i * sum_r U[r][i] e_r``.

    ``U`` is block diagonal on the parity blocks (so the new basis is
    homogeneous), unimodular on each block, and ``d`` is a rational
    diagonal: a fixed multiset of SCALES in seeded order, so that the
    size of the denominators, and with it the cost, is the same for every
    seed.  ``U`` and ``U^-1`` are integral, so the structure constants
    are computed in exact integers (after clearing the denominators of the
    source table) and the transported algebra is exact.
    """
    alg = _mod("algebra")
    n = a.dim
    u = np.zeros((n, n), dtype=object)
    u_inv = np.zeros((n, n), dtype=object)
    for p in (0, 1):
        idx = a.degree_indices(p)
        if not idx:
            continue
        block, block_inv = unimodular_pair(len(idx), rng)
        for x, r in enumerate(idx):
            for y, c in enumerate(idx):
                u[r, c] = block[x, y]
                u_inv[r, c] = block_inv[x, y]
    d = [SCALES[i % len(SCALES)] for i in range(n)]
    rng.shuffle(d)
    complex_field = not a.field.is_real
    parts = ("re", "im") if complex_field else ("re",)
    coeffs = [v for cell in a.table.values() for v in cell.values()]
    coeffs = [getattr(v, p) for v in coeffs for p in parts] if complex_field else coeffs
    den = 1
    for v in coeffs:
        den = den * v.denominator // math.gcd(den, v.denominator)
    moved = {}
    for part in parts:
        c = np.zeros((n, n, n), dtype=object)
        for (i, j), cell in a.table.items():
            for k, v in cell.items():
                c[i, j, k] = int((getattr(v, part) if complex_field else v) * den)
        # Exact in int64: no partial sum can exceed this bound.
        bound = (int(np.abs(u).max()) ** 2 * int(np.abs(c).max())
                 * int(np.abs(u_inv).max()) * n ** 3)
        if bound >= 2 ** 62:
            raise OverflowError("transport would overflow int64")
        u64, c64, inv64 = (x.astype(np.int64) for x in (u, c, u_inv))
        t = np.tensordot(u64, c64, axes=(0, 0))     # [i, b, m]
        t = np.tensordot(t, u64, axes=(1, 0))       # [i, m, j]
        t = np.tensordot(t, inv64, axes=(1, 1))     # [i, j, k]
        moved[part] = t
    gaussian = _mod("scalars").GaussianRational
    re_part = moved["re"].tolist()
    im_part = moved["im"].tolist() if complex_field else None
    table = {}
    for i in range(n):
        for j in range(n):
            cell = {}
            for k in range(n):
                re = re_part[i][j][k]
                im = im_part[i][j][k] if complex_field else 0
                if re or im:
                    scale = Fraction(d[i] * d[j]) / (d[k] * den)
                    cell[k] = gaussian(re * scale, im * scale) if complex_field \
                        else re * scale
            if cell:
                table[(i, j)] = cell
    zero = a.field.zero()
    unit = [sum((u_inv[k, r] * a.unit[r] for r in range(n)), zero) / d[k]
            for k in range(n)]
    return alg.GradedAlgebra(a.field, a.parity, table, unit)


def _dense_op(spec, algebra, certify: bool) -> Op:
    want = oracle.expected_class(spec)

    def run():
        a = copy.copy(algebra)
        bw = _mod("invariants").bw_class(a)
        if not certify:
            return bw, True
        az = _mod("algebra").is_azumaya(a)
        a.validate()
        return bw, az

    label = f"dense {_describe(spec)}" + (" +certify" if certify else "")
    return Op(label, run, lambda out: out == (want, True), True)


def _dense_schedule(rng: random.Random) -> list:
    # (spec, also run is_azumaya and validate).  Certify runs at dims <= 8:
    # real dim 16 took 2.6-3.5 s and complex dim 9 about 1 s, too long to
    # repeat in a run.
    # heavy: complex dim 8 with certify, complex dim 32 classified only
    specs = [(_form(rng, "C", 3), True), (_form(rng, "C", 3), True),
             (_tensor(rng, "C", 1, 2), True), (_opposite(rng, "C", 3), True),
             (_form(rng, "C", 5), False), (_form(rng, "C", 5), False)]
    # upper, holding the tail: real Clifford dim 8 with certify, about 0.15 s
    specs += [(_form(rng, "R", 3), True) for _ in range(8)]
    # middle, holding the median: complex Clifford dim 16 classified only,
    # about 80 ms
    specs += [(_form(rng, "C", 4), False) for _ in range(8)]
    # small: dims 2-16, under 30 ms each
    specs += [(_form(rng, "R", 4), False), (_end(2, 2, "R"), False),
              (_form(rng, "C", 3), False), (_form(rng, "R", 3), False),
              (_tensor(rng, "R", 1, 2), False), (_end(1, 1, "C"), False)]
    specs += [(_form(rng, "R", 1), True), (_form(rng, "R", 2), True),
              (_form(rng, "C", 1), True), (_form(rng, "C", 2), True),
              (_end(1, 1, "R"), True), (_end(1, 1, "C"), True),
              (_tensor(rng, "R", 1, 1), True), (_opposite(rng, "R", 2), True)]
    rng.shuffle(specs)
    return [_dense_op(s, transport(build(s), rng), c) for s, c in specs]


# ---------------------------------------------------------------- certify

def _product(a, b):
    """Direct product ``a x b`` (componentwise), never Azumaya."""
    alg = _mod("algebra")
    n = a.dim
    table = {}
    for (i, j), cell in a.table.items():
        table[(i, j)] = dict(cell)
    for (i, j), cell in b.table.items():
        table[(n + i, n + j)] = {n + k: v for k, v in cell.items()}
    return alg.GradedAlgebra(a.field, a.parity + b.parity, table,
                             list(a.unit) + list(b.unit))


def _upper_triangular(degrees, field):
    """Upper-triangular matrix units ``E_rc`` (``r <= c``), checkerboard graded."""
    alg = _mod("algebra")
    n = len(degrees)
    units = [(r, c) for r in range(n) for c in range(r, n)]
    pos = {rc: i for i, rc in enumerate(units)}
    one = field.one()
    table = {}
    for (r, c), i in pos.items():
        for c2 in range(c, n):
            table[(i, pos[(c, c2)])] = {pos[(r, c2)]: one}
    parity = [degrees[r] ^ degrees[c] for r, c in units]
    unit = [one if r == c else field.zero() for r, c in units]
    return alg.GradedAlgebra(field, parity, table, unit)


def _quadratic(field, odd: bool, square):
    """``k[x]/(x^2 - square)`` with ``x`` odd or even."""
    alg = _mod("algebra")
    one = field.one()
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    if square:
        table[(1, 1)] = {0: field.coerce(square)}
    return alg.GradedAlgebra(field, (0, 1 if odd else 0), table, (one, field.zero()))


def _non_azumaya(rng: random.Random, kind: str, field_label: str):
    field = _mod("scalars").field_from_label(field_label)
    if kind == "kxk":
        return _quadratic(field, False, 1)   # k[x]/(x^2-1) = k x k
    if kind == "dual":
        return _quadratic(field, rng.random() < 0.5, 0)  # k[x]/x^2
    if kind == "quadratic":
        return _quadratic(field, False, -rng.choice((1, 2, 3)))
    if kind == "upper2":
        return _upper_triangular([rng.randint(0, 1) for _ in range(2)], field)
    if kind == "upper3":
        return _upper_triangular([rng.randint(0, 1) for _ in range(3)], field)
    if kind == "axa2":
        a = build(_form(rng, field_label, 1))
        return _product(a, a)
    if kind == "axa4":
        a = build(_form(rng, field_label, 2))
        return _product(a, a)
    if kind == "quad-tensor":
        inner = _quadratic(field, False, -1)
        return _mod("algebra").graded_tensor(inner, build(_form(rng, field_label, 2)))
    raise ValueError(kind)


def _certify_op(label: str, algebra, want: bool) -> Op:
    def run():
        a = copy.copy(algebra)
        az = _mod("algebra").is_azumaya(a)
        a.validate()
        return az

    return Op(label, run, lambda out: out is want, False)


NON_AZUMAYA = (("kxk", "R"), ("dual", "C"), ("quadratic", "R"), ("upper2", "C"),
               ("upper3", "R"), ("axa2", "C"), ("axa4", "R"), ("quad-tensor", "C"))


def _certify_schedule(rng: random.Random) -> list:
    # heavy: dim 64, a 4096 x 4096 sandwich matrix (end_graded; the Clifford
    # algebra of the same dim took 6.4 s, too long to repeat in a run), real
    # dim 32, complex dims 16 and 36
    az = [_end(4, 4, "R"), _form(rng, "R", 5), _tensor(rng, "R", 2, 3),
          _form(rng, "C", 4), _tensor(rng, "C", 2, 2), _end(3, 3, "C")]
    # upper, holding the tail: real Clifford dim 16, about 0.1 s each
    az += [_form(rng, "R", 4) for _ in range(8)]
    # middle, holding the median: real Clifford dim 8, about 13 ms each
    az += [_form(rng, "R", 3) for _ in range(8)]
    # small: dims 2-4 (and six of the non-Azumaya inputs below)
    az += [_form(rng, "R", 1), _form(rng, "R", 2), _form(rng, "C", 1),
           _form(rng, "C", 2), _end(1, 1, "R"), _end(1, 1, "C"),
           _opposite(rng, "R", 2), _tensor(rng, "R", 1, 1)]
    ops = [_certify_op(f"azumaya {_describe(s)}", build(s), True) for s in az]
    # one heavy (quad-tensor), one just above the middle (axa4), six small
    for kind, field in NON_AZUMAYA:
        a = _non_azumaya(rng, kind, field)
        ops.append(_certify_op(f"non-azumaya {kind} {field} dim {a.dim}", a, False))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------------- cli

def child_env(root: Path) -> dict:
    """The environment for a child that imports the package from ``root/src``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


class Launcher:
    """Starts the cli workload's children, one at a time.

    Untraced runs start ``python -m gradedbrauer.cli`` directly.  Setting
    ``spans_dir`` (a traced run) or ``fault`` (the fault check) routes each
    child through ``cli_driver.py`` instead.
    """

    def __init__(self, root: Path, out_dir: Path) -> None:
        self.root = root
        self.out_dir = out_dir
        self.spans_dir: Optional[Path] = None
        self.fault: Optional[str] = None
        self.children = 0
        self.env = child_env(root)

    def command(self, argv: list) -> list:
        if self.spans_dir is None and self.fault is None:
            return [sys.executable, "-m", "gradedbrauer.cli", *argv]
        opts = []
        if self.spans_dir is not None:
            self.children += 1
            opts += ["--spans", str(self.spans_dir / f"child-{self.children}.jsonl")]
        if self.fault is not None:
            opts += ["--fault", self.fault]
        return [sys.executable, str(Path(__file__).with_name("cli_driver.py")),
                *opts, "--", *argv]

    def run(self, argv: list, stdout_path: Optional[Path] = None):
        cmd = self.command(argv)
        if stdout_path is None:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, env=self.env,
                                  cwd=self.root, timeout=150)
            return proc.returncode, proc.stdout.decode()
        with open(stdout_path, "wb") as handle:
            proc = subprocess.run(cmd, stdout=handle, stderr=subprocess.DEVNULL,
                                  env=self.env, cwd=self.root, timeout=150)
        return proc.returncode, None


def _entries_arg(spec) -> str:
    return ",".join(str(e) for e in spec[2])


def _cli_invariants(launcher: Launcher, spec) -> Op:
    argv = ["invariants", "--form=" + _entries_arg(spec), "--field", spec[1]]

    def check(out):
        code, text = out
        if code != 0:
            return False
        doc = json.loads(text)
        return oracle.triple_matches(spec, (doc["parity"], doc["q2"]), doc["bw"])

    return Op(f"cli invariants {_describe(spec)}",
              lambda: launcher.run(argv), check, True)


def _cli_azumaya(launcher: Launcher, spec) -> Op:
    argv = ["azumaya", "--form=" + _entries_arg(spec), "--field", spec[1]]

    def check(out):
        code, text = out
        return code == 0 and json.loads(text) == {"azumaya": True}

    return Op(f"cli azumaya {_describe(spec)}", lambda: launcher.run(argv),
              check, False)


def _cli_golden(launcher: Launcher, argv: list) -> Op:
    def check(out):
        code, text = out
        return code == 0 and oracle.golden_matches(argv, text)

    return Op("cli " + " ".join(argv[:2]), lambda: launcher.run(argv), check,
              False)


def _cli_selftest(launcher: Launcher, seed: int) -> Op:
    argv = ["selftest", "--seed", str(seed)]

    def check(out):
        code, text = out
        return code == 0 and json.loads(text)["passed"] is True

    return Op("cli selftest", lambda: launcher.run(argv), check, True)


def _cli_round_trip(launcher: Launcher, spec, path: Path) -> list:
    """``tensor A B > file`` then ``invariants --algebra file``."""
    left, right = spec[1], spec[2]
    field = left[1]
    write = ["tensor", "form:" + _entries_arg(left), "form:" + _entries_arg(right),
             "--field", field]
    read = ["invariants", "--algebra", str(path), "--field", field]
    dim = oracle.spec_dim(spec)

    def check_write(out):
        if out[0] != 0:
            return False
        doc = json.loads(path.read_text())
        return (doc["dim"] == dim and len(doc["parity"]) == dim
                and len(doc["structure"]) == dim * dim)

    def check_read(out):
        code, text = out
        if code != 0:
            return False
        doc = json.loads(text)
        return oracle.triple_matches(spec, (doc["parity"], doc["q2"]), doc["bw"])

    return [Op(f"cli tensor {_describe(spec)} > file",
               lambda: launcher.run(write, path), check_write, False),
            Op(f"cli invariants --algebra file {_describe(spec)}",
               lambda: launcher.run(read), check_read, True)]


def _cli_schedule(rng: random.Random, launcher: Launcher) -> list:
    # Fifteen children, so the tail percentile is the median (it needs at
    # least ten samples above it); more children would not fit three
    # repeats in a run.  Heavy: selftest and real rank 7 (dim 128).
    ops = [_cli_selftest(launcher, rng.randrange(1000)),
           _cli_invariants(launcher, _form(rng, "R", 7))]
    # about 0.7 s each, mostly the cold real calibration; the JSON read
    # below is of the same kind
    ops += [_cli_invariants(launcher, _form(rng, "R", 1))]
    # small: about the cost of starting the interpreter and importing
    ops += [_cli_invariants(launcher, _form(rng, "C", r)) for r in (1, 3, 5)]
    ops += [_cli_azumaya(launcher, _form(rng, "R", 2)),
            _cli_azumaya(launcher, _form(rng, "C", 3))]
    ops += [_cli_golden(launcher, ["table", t]) for t in rng.sample(
        ["circles", "curves", "surfaces", "named"], 2)]
    ops += [_cli_golden(launcher, argv) for argv in rng.sample(DESCRIPTORS, 3)]
    rng.shuffle(ops)
    path = launcher.out_dir / "tensor.json"
    ops += _cli_round_trip(launcher, _tensor(rng, "R", 1, 3), path)
    return ops


DESCRIPTORS = [
    ["space", "graph", "--nu", str(nu), "--h1quot", str(h)]
    for nu in range(4) for h in range(3) if nu or h
] + [
    ["space", "real-curve", "--genus", str(g), "--nu", str(nu)]
    for g in range(3) for nu in range(4)
] + [
    ["space", "surface", "--genus", str(g), "--nu", str(nu)]
    for g in range(3) for nu in range(4)
] + [
    ["variety", "complex-projective", "--rho", str(r), "--h1", str(h)]
    for r in range(3) for h in range(0, 5, 2)
] + [
    ["variety", "real-projective", "--rho0", str(r), "--h1g", str(h)]
    for r in range(3) for h in range(1, 4)
]

# ------------------------------------------------------------------ entry

def make(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    """Generate every input of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        launcher = Launcher(root, out_dir)
        return Workload(name, WHY[name], _cli_schedule(rng, launcher), launcher)
    maker = {"classify-sparse": _classify_schedule, "dense": _dense_schedule,
             "certify": _certify_schedule}[name]
    return Workload(name, WHY[name], maker(rng))
