from gradedbrauer import selftest
from gradedbrauer.algebra import GradedAlgebra
from gradedbrauer.selftest import CHECKS, run_selftest


def ungraded_tensor(a, b):
    """The tensor product with every Koszul sign erased — a plausible
    implementation mistake that the selftest must catch."""
    parity = tuple(a.parity[i] ^ b.parity[p]
                   for i in range(a.dim) for p in range(b.dim))
    table = {}
    for (i, j), cell in a.table.items():
        for (p, q), cell2 in b.table.items():
            key = (i * b.dim + p, j * b.dim + q)
            entry = table.setdefault(key, {})
            for k, c in cell.items():
                for r, c2 in cell2.items():
                    entry[k * b.dim + r] = entry.get(k * b.dim + r, 0) + c * c2
    return GradedAlgebra(a.field, parity, table)


def test_everything_passes_with_the_real_tensor():
    report = run_selftest()
    assert report["passed"]
    assert [c["status"] for c in report["checks"]] == ["ok"] * len(CHECKS)


def test_deterministic_for_a_fixed_seed():
    assert run_selftest(seed=5) == run_selftest(seed=5)


def test_fault_injection_is_detected(monkeypatch):
    monkeypatch.setattr(selftest, "graded_tensor", ungraded_tensor)
    report = run_selftest()
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if c["status"] == "failed"}
    # the sign error must surface in the group-law checks specifically
    assert "tensor-additivity" in failed or "quadratic-values" in failed
    # and checks that never tensor two algebras stay green
    assert "golden-tables" not in failed
    assert "order-identity" not in failed


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))
