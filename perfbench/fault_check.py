"""Check that the benchmark's oracle catches wrong answers.

Usage, from the root of a checkout::

    python3 perfbench/fault_check.py [--seed N]

Runs each workload's schedule once with a deliberately wrong function bound
wherever the package binds the real one (for ``cli``, inside every child
through ``cli_driver.py``), and asserts the error ratio the oracle must
then report:

* ``bw_class`` answering the class plus one: every ``classify-sparse``
  and ``dense`` op fails (error ratio 1), and on ``cli`` exactly the ops
  answered by ``bw_class`` fail (``invariants`` and ``selftest``);
* ``is_azumaya`` answering the opposite verdict: every ``certify`` op
  fails (error ratio 1).

Exits 0 when every expectation holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CASES = (("classify-sparse", "bw_class"), ("dense", "bw_class"),
         ("certify", "is_azumaya"), ("cli", "bw_class"))


def check(name: str, fault: str, seed: int) -> bool:
    import layertrace
    import run
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, ROOT, out_dir)
    undo: list = []
    if workload.launcher is not None:
        workload.launcher.fault = fault
    else:
        layertrace.inject_fault(fault, undo)
    try:
        samples = run.run_repeats(workload, 0.0, 1)
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)
    failed = [not s.ok for s in samples]
    error_ratio = sum(failed) / len(samples)
    if name == "cli":
        expected = [op.uses_bw for op in workload.ops]
        good = failed == expected and error_ratio > 0
        want = f"{sum(expected)}/{len(expected)} (the bw_class ops)"
    else:
        good = error_ratio == 1.0
        want = "1"
    print(f"{name}: fault {fault}: error_ratio {error_ratio:.4f} over "
          f"{len(samples)} ops, expected {want}: {'ok' if good else 'FAILED'}",
          flush=True)
    return good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradedbrauer" / "__init__.py").is_file():
        print("fault_check: no package sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gradedbrauer as g
    g.bw_class(g.ground_algebra(g.REAL))
    results = [check(name, fault, args.seed) for name, fault in CASES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
