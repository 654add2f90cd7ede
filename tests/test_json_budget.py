"""Algebra JSON read within budgets of memory and length.

* ``GradedAlgebra.from_json`` builds the rows straight from the triples:
  no ``(i, j)``-keyed table and no second list of cell dicts before them,
  and it walks a sparse ``structure`` once, every check in that walk.
* The CLI reads at most ``_JSON_CHARS_PER_TERM * MAX_TERMS`` characters
  of algebra JSON, from a file or from stdin, before parsing it, and
  refuses a longer document with exit 2; the largest document the CLI
  writes itself, the rank-10 Clifford table, fits.
"""

import io
import json
import sys
import tracemalloc

from gradedbrauer import cli
from gradedbrauer.algebra import GradedAlgebra, _terms
from gradedbrauer.clifford import clifford, signature_form
from gradedbrauer.cli import main
from gradedbrauer.scalars import COMPLEX, REAL


def test_from_json_holds_no_table_of_cells_before_the_rows():
    """At dim 128 (16,384 one-term triples) reading the rows took a peak
    of 685 traced bytes per triple when a ``{(i, j): {k: value}}`` table
    and a list of cleaned cell dicts came first; the rows alone take 280."""
    doc = json.loads(json.dumps(clifford(signature_form(7, 0)).to_json()))
    tracemalloc.start()
    try:
        read = GradedAlgebra.from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == clifford(signature_form(7, 0))
    assert peak < 400 * len(doc["structure"])


class CountedWalks(list):
    """A ``structure`` list that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_from_json_walks_a_sparse_structure_once():
    """The integer, shape, range, repeat and scalar checks of the triples
    ride in the one loop that builds the rows; a separate pre-check loop
    would walk the triples twice."""
    for field in (REAL, COMPLEX):
        a = clifford(signature_form(2, 1, field))
        doc = a.to_json()
        doc["structure"] = structure = CountedWalks(doc["structure"])
        assert GradedAlgebra.from_json(doc) == a
        assert structure.walks == 1


def small_budget(monkeypatch):
    """Shrink the term budget, so that the CLI reads at most 512 characters."""
    monkeypatch.setattr(cli, "MAX_TERMS", 4)
    return cli._JSON_CHARS_PER_TERM * 4


def refusal(budget):
    return {"type": "ValueError", "message":
            f"JSON input is longer than {budget} characters, the budget of "
            f"{cli._JSON_CHARS_PER_TERM} per structure constant for MAX_TERMS = 4"}


def cl1_json(length):
    """``C<1>`` (4 triples), padded with spaces to ``length`` characters."""
    text = json.dumps(clifford(signature_form(1, 0)).to_json())
    return text + " " * (length - len(text))


def test_a_file_longer_than_the_budget_exits_two(monkeypatch, capsys, tmp_path):
    budget = small_budget(monkeypatch)
    path = tmp_path / "alg.json"
    path.write_text(cl1_json(budget))
    assert main(["invariants", "--algebra", str(path)]) == 0
    capsys.readouterr()
    path.write_text(cl1_json(budget + 1))
    assert main(["invariants", "--algebra", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == refusal(budget)


def test_stdin_longer_than_the_budget_exits_two(monkeypatch, capsys):
    budget = small_budget(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(cl1_json(budget)))
    assert main(["azumaya", "--algebra", "-"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(cl1_json(budget + 1)))
    assert main(["azumaya", "--algebra", "-"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == refusal(budget)


def indented_length(a):
    """``len(json.dumps(a.to_json(), indent=2))``, counted triple by triple
    instead of built.  Triple ``[i, j, k, "c"]`` is ``'    [\\n'``, three
    lines ``'      i,\\n'``, ``'      "c"\\n'`` and ``'    ]'``: 44
    characters and its four items, with ``',\\n'`` between triples and
    ``'\\n'`` and ``'\\n  '`` around them where the empty list has ``[]``."""
    head = json.dumps({**a.to_json(), "structure": []}, indent=2)
    render = a.field.render
    triples = [44 + len(f"{i}{j}{k}{render(c)}") for i, j, k, c in _terms(a.rows)]
    return len(head) + sum(triples) + 2 * (len(triples) - 1) + 4


def test_the_largest_document_the_cli_writes_fits_the_budget():
    small = clifford(signature_form(2, 1))
    assert indented_length(small) == len(json.dumps(small.to_json(), indent=2))
    largest = clifford(signature_form(10, 0))  # rank 10: MAX_TERMS triples
    assert indented_length(largest) <= cli._JSON_CHARS_PER_TERM * cli.MAX_TERMS / 2
