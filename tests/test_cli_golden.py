"""The descriptor and table commands against recorded output.

``descriptor_golden.json`` holds the exact stdout and exit code of 65
``space``/``variety``/``table`` commands, recorded before the CLI flags
were derived from the descriptor dataclasses: every kind with each
subset of its optional flags, the three table spellings, descriptor
errors, bad group strings and argparse usage errors (exit 2, empty
stdout).  The CLI must keep reproducing them byte for byte.
"""

import json
from pathlib import Path

import pytest

from gradedbrauer.cli import main

GOLDEN = json.loads(Path(__file__).with_name("descriptor_golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_descriptor_command_output_is_unchanged(capsys, record):
    try:
        code = main(list(record["argv"]))
    except SystemExit as exc:
        code = exc.code
    assert (code, capsys.readouterr().out) == (record["code"], record["stdout"])

