"""Run ``gradedbrauer.cli.main`` in a child process, traced or faulted.

Usage::

    python perfbench/cli_driver.py [--spans FILE] [--fault KIND] -- CLI-ARGS...

With ``--spans`` the import of ``gradedbrauer.cli`` is recorded as the
span ``cli.import``, every layer is wrapped (see ``layertrace.py``), the
CLI's ``json.dump`` is recorded as ``cli.json_dump``, and the spans are
written to FILE when ``main`` returns.  With ``--fault`` a wrong
function is bound first (see ``layertrace.inject_fault``).  The exit code is
the CLI's.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spans = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    fault = opts[opts.index("--fault") + 1] if "--fault" in opts else None
    tracer = layertrace.Tracer() if spans else None
    if tracer:
        idx = tracer.begin("cli.import")
    cli = importlib.import_module("gradedbrauer.cli")
    calibration = importlib.import_module("gradedbrauer.invariants")._calibration
    if tracer:
        tracer.end(idx)
        tracer.install()
        real_json = cli.json
        cli.json = types.SimpleNamespace(
            **{k: getattr(real_json, k) for k in ("dump", "dumps", "load", "loads")})
        cli.json.dump = tracer.wrap("cli.json_dump", real_json.dump)
    if fault:
        layertrace.inject_fault(fault, [])
    misses_before = calibration.cache_info().misses
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if tracer:
            tracer.counters["invariants._calibration.misses"] = (
                calibration.cache_info().misses - misses_before)
            tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
