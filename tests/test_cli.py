import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedbrauer import cli
from gradedbrauer.algebra import GradedAlgebra
from gradedbrauer.cli import main
from gradedbrauer.scalars import REAL
from associativity_oracle import unvalidated
from test_trace_group_law import flipped_cl02


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_of_the_generator(capsys):
    code, doc = run(capsys, "invariants", "--form", "1", "--field", "R")
    assert code == 0
    assert doc == {"parity": 1, "q2": 1, "ungraded": 0, "bw": 1}


def test_invariants_opposite_flag(capsys):
    _, doc = run(capsys, "invariants", "--form", "1", "--opposite")
    assert doc["bw"] == 7


def test_clifford_emits_algebra_json(capsys):
    code, doc = run(capsys, "clifford", "--form", "1,-1")
    assert code == 0
    assert doc["dim"] == 4
    assert doc["parity"] == [0, 1, 1, 0]
    assert doc["structure"][0] == [0, 0, 0, "1"]  # triples come sorted
    assert doc["structure"] == sorted(doc["structure"])


def test_tensor_composes_with_stdin(capsys, monkeypatch, tmp_path):
    code, doc = run(capsys, "tensor", "form:1", "form:1")
    assert code == 0
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, inv = run(capsys, "invariants", "--algebra", str(path))
    assert code == 0
    assert inv == {"parity": 0, "q2": 2, "ungraded": 0, "bw": 2}


def test_algebra_shorthand_end_and_ground(capsys):
    code, doc = run(capsys, "azumaya", "--algebra", "end:2,1")
    assert (code, doc) == (0, {"azumaya": True})
    code, doc = run(capsys, "invariants", "--algebra", "ground")
    assert doc["bw"] == 0


def test_centralizer_normal_form(capsys):
    code, doc = run(capsys, "centralizer", "--form", "1,1")
    assert code == 0
    assert doc["dim"] == 2
    assert [1, 1, 0, "-1"] in doc["structure"]


def test_space_graph_example(capsys):
    code, doc = run(capsys, "space", "graph", "--nu", "2", "--h1quot", "0")
    assert code == 0
    assert doc["gbr"]["torsion"] == [4, 8]
    assert doc["rbr"]["torsion"] == [2, 2]
    assert "gbr-graph" in doc["rules"]


def test_space_free_product_group_flag(capsys):
    code, doc = run(capsys, "space", "free-product", "--h0", "1", "--h1", "2",
                    "--h3tors", "4,2")
    assert code == 0
    assert doc["gbr"]["torsion"] == [2, 2, 2, 2, 4]
    assert doc["rbr"]["torsion"] == [2, 4]
    assert doc["wr"]["torsion"] == [2] * 5


def test_variety_real_surface(capsys):
    code, doc = run(capsys, "variety", "real-surface-no-points", "--rho0", "1",
                    "--two-tors-br", "2", "--h1quot-reduced", "1")
    assert code == 0
    assert doc["w"]["extension"]["sub"]["torsion"] == [2, 2]


def test_table_and_space_table_alias(capsys):
    code, doc = run(capsys, "table", "circles")
    assert code == 0
    assert doc["circle-reflection"]["gbr"]["torsion"] == [4, 8]
    code2, doc2 = run(capsys, "space", "--table", "circles")
    assert code2 == 0
    assert doc2 == doc


def test_named_table_has_the_stored_constants(capsys):
    _, doc = run(capsys, "table", "named")
    plane = doc["real-projective-plane"]
    assert plane["wr"]["free_rank"] == 1
    sphere = doc["antipodal-4-sphere"]
    assert sphere["wr"]["extension"]["resolved"]["torsion"] == [8]


def test_selftest_passes(capsys):
    code, doc = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert doc["passed"] is True
    assert all(c["status"] == "ok" for c in doc["checks"])


def test_validation_failures_exit_two(capsys):
    code, doc = run(capsys, "space", "graph", "--nu", "0", "--h1quot", "0")
    assert code == 2
    assert doc["error"]["type"] == "DescriptorError"
    code, doc = run(capsys, "invariants", "--form", "1,0")
    assert code == 2
    code, doc = run(capsys, "invariants", "--algebra", "no-such-file.json")
    assert code == 2
    assert doc["error"]["type"] == "FileNotFoundError"
    with pytest.raises(SystemExit) as excinfo:
        main(["space", "graph"])  # missing required flags: argparse usage error
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_non_azumaya_input_is_a_validation_error(capsys, tmp_path):
    split = {"field": "R", "dim": 2, "parity": [0, 0], "unit": ["1", "1"],
             "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split))
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"]["type"] == "NotAzumayaError"


def upper_triangular_exits_two(capsys, monkeypatch, field):
    upper = {"field": field, "parity": [0, 0, 0], "unit": ["1", "0", "1"],
             "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 1, "1"],
                           [2, 2, 2, "1"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(upper)))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"]["type"] == "NotAzumayaError"
    assert "degenerate" in doc["error"]["message"]


def test_real_algebra_with_a_degenerate_trace_form_exits_two(capsys, monkeypatch):
    """Upper-triangular 2x2 matrices: the center is the ground field, but
    the trace form is degenerate, and ``azumaya`` says false."""
    upper_triangular_exits_two(capsys, monkeypatch, "R")


def test_complex_algebra_with_a_degenerate_trace_form_exits_two(capsys, monkeypatch):
    """The same matrices over C: no sign is read there, but the
    degenerate trace form still refuses the input."""
    upper_triangular_exits_two(capsys, monkeypatch, "C")


def test_internal_key_error_exits_one(capsys, monkeypatch):
    """A KeyError is a bug in this package, not bad input."""
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "_cmd_azumaya", broken)
    code, doc = run(capsys, "azumaya", "--form", "1")
    assert code == 1
    assert doc["error"] == {"type": "KeyError", "message": "'missing'",
                            "internal": True}


def test_usage_error_without_arguments(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_negative_graded_matrix_sizes_exit_two(capsys):
    for command in ("invariants", "azumaya"):
        code, doc = run(capsys, command, "--algebra", "end:-1,2")
        assert code == 2
        assert doc["error"]["type"] == "AlgebraError"


def test_non_object_json_on_stdin_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"


def test_non_object_json_file_exits_two(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"


DEEP = "[" * 100000 + "]" * 100000


def test_deeply_nested_json_on_stdin_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"] == {"type": "ValueError",
                            "message": "JSON input is nested too deeply"}


def test_deeply_nested_json_file_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"] == {"type": "ValueError",
                            "message": "JSON input is nested too deeply"}


def test_recursion_error_past_the_json_parser_exits_one(capsys, monkeypatch):
    """Only the parser's RecursionError is bad input; one raised while
    building the algebra is a bug in this package."""
    def broken(data):
        raise RecursionError("deep")

    monkeypatch.setattr(GradedAlgebra, "from_json", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 1
    assert doc["error"] == {"type": "RecursionError", "message": "deep",
                            "internal": True}


def test_import_loads_no_numpy():
    """Start-up cost: the package itself needs no numpy."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gradedbrauer; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# Run the CLI on the interpreter's argv, keeping its exit code in ``code``.
RUN_CLI = ("import runpy\n"
           "try:\n"
           "    runpy.run_module('gradedbrauer.cli', run_name='__main__')\n"
           "except SystemExit as exc:\n"
           "    code = exc.code\n")
ALGEBRA_STACK = ("gradedbrauer.algebra", "gradedbrauer.clifford", "gradedbrauer.invariants",
                 "gradedbrauer.scalars", "gradedbrauer.linalg", "fractions")
DESCRIPTOR_MODULES = ("gradedbrauer.spaces", "gradedbrauer.groups", "gradedbrauer.selftest",
                      "dataclasses")
VERIFY = ("gradedbrauer.verify",)


def fresh_process(script, *argv, stdin=""):
    """Exit code, stdout, and the modules of the three lists above that
    ``script`` has loaded, in a fresh interpreter on ``argv``."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    report = ("import json, sys\n"
              f"names = {ALGEBRA_STACK + DESCRIPTOR_MODULES + VERIFY!r}\n"
              "print(json.dumps([code, [m for m in names if m in sys.modules]]), file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", "code = 0\n" + script + report, *argv], env=env,
                         input=stdin, capture_output=True, text=True, check=True, timeout=60)
    code, loaded = json.loads(out.stderr.strip().splitlines()[-1])
    return code, out.stdout, loaded


def test_an_algebra_command_imports_no_descriptor_module():
    """Start-up cost: ``invariants`` and ``azumaya`` load the algebra
    layers alone, not the descriptor and table modules or dataclasses."""
    for argv in (["invariants", "--form", "1,-1"], ["azumaya", "--form", "1"]):
        code, out, loaded = fresh_process(RUN_CLI, *argv)
        assert code == 0
        assert json.loads(out) in ({"parity": 0, "q2": 0, "ungraded": 0, "bw": 0},
                                   {"azumaya": True})
        assert not set(loaded) & set(DESCRIPTOR_MODULES)


@pytest.mark.parametrize("argv", [
    ["space", "surface", "--genus", "2", "--nu", "1"],
    ["variety", "complex-projective", "--rho", "1", "--h1", "2"],
    ["table", "circles"],
], ids=["space", "variety", "table"])
def test_a_descriptor_command_imports_no_algebra_module(capsys, argv):
    """Start-up cost: ``space``, ``variety`` and ``table`` load neither
    the algebra layers nor :mod:`fractions`, and print what the CLI
    prints in this process."""
    code, out, loaded = fresh_process(RUN_CLI, *argv)
    assert (code, json.loads(out)) == run(capsys, *argv)
    assert code == 0 and not set(loaded) & set(ALGEBRA_STACK + VERIFY)


@pytest.mark.parametrize("script, argv, want", [
    (RUN_CLI, ["invariants", "--form", "1,1"], {"parity": 0, "q2": 2, "ungraded": 0, "bw": 2}),
    (RUN_CLI, ["azumaya", "--form", "-1", "--field", "C"], {"azumaya": True}),
    (RUN_CLI, ["selftest"], None),
    ("import gradedbrauer as g\n"  # the benchmark's setup child
     "g.bw_class(g.ground_algebra(g.REAL))\n"
     "g.bw_class(g.ground_algebra(g.COMPLEX))\n", [], None),
], ids=["invariants", "azumaya", "selftest", "setup"])
def test_a_library_algebra_loads_no_validation_module(script, argv, want):
    """Algebras built from a form, ``end:`` or ``ground``, and the
    calibration powers, are trusted: the construction checks and
    ``validate`` are never loaded."""
    code, out, loaded = fresh_process(script, *argv)
    assert code == 0 and (want is None or json.loads(out) == want)
    assert "gradedbrauer.verify" not in loaded


def test_an_untrusted_table_loads_the_validation_module_and_is_refused(tmp_path):
    """``invariants --algebra FILE`` and ``GradedAlgebra(...)`` load
    :mod:`gradedbrauer.verify`, and refuse the flipped Cl(0,2) with the
    message of ``validate``."""
    message = "associativity fails on basis triple (1, 1, 2)"
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(unvalidated(REAL, *flipped_cl02(REAL)).to_json()))
    code, out, loaded = fresh_process(RUN_CLI, "invariants", "--algebra", str(path))
    assert (code, json.loads(out)["error"]["message"]) == (2, message)
    assert "gradedbrauer.verify" in loaded
    script = ("import json, sys\n"
              "from gradedbrauer import REAL, AlgebraError, GradedAlgebra\n"
              "doc = json.load(sys.stdin)\n"
              "table = {}\n"
              "for i, j, k, v in doc['structure']:\n"
              "    table.setdefault((i, j), {})[k] = v\n"
              "try:\n"
              "    GradedAlgebra(REAL, doc['parity'], table, doc['unit'])\n"
              "except AlgebraError as exc:\n"
              "    print(exc)\n")
    code, out, loaded = fresh_process(script, stdin=path.read_text())
    assert (code, out.strip()) == (0, message)
    assert "gradedbrauer.verify" in loaded


def test_the_parser_for_an_algebra_command_has_no_descriptor_kinds():
    """Only ``space`` and ``variety`` (or no command named) get the kinds."""
    argv = ["space", "graph", "--nu", "1", "--h1quot", "0"]
    assert cli.build_parser().parse_args(argv).kind == "graph"
    assert cli.build_parser("space").parse_args(argv).kind == "graph"
    with pytest.raises(SystemExit):
        cli.build_parser("invariants").parse_args(argv)


def test_a_descriptor_rank_above_the_budget_is_refused_at_once():
    """``--genus 99999999999`` would ask for that many cyclic factors;
    it is refused before any group is built, with exit code 2."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "gradedbrauer.cli", "space", "surface",
         "--genus", "99999999999", "--nu", "3"],
        env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"] == {
        "type": "DescriptorError",
        "message": "genus stands for 99999999999 cyclic factors, above the "
                   "budget MAX_CYCLICS = 1024"}


@pytest.mark.parametrize("argv", [
    ["space", "complex-curve", "--h1", "{n}"],
    ["variety", "complex-projective", "--rho", "{n}", "--h1", "0"],
    ["space", "free-product", "--h3tors", "{twos}"],
])
def test_descriptor_flags_at_and_above_the_cyclic_budget(capsys, argv):
    from gradedbrauer.spaces import MAX_CYCLICS
    for n, expected in ((MAX_CYCLICS, 0), (MAX_CYCLICS + 1, 2)):
        args = [a.format(n=n, twos=",".join(["2"] * n)) for a in argv]
        code, doc = run(capsys, *args)
        assert code == expected
        if expected:
            assert doc["error"]["type"] == "DescriptorError"
            assert f"stands for {n} cyclic factors" in doc["error"]["message"]


def test_a_prime_torsion_order_is_never_factored():
    """``--h3tors`` with a 19-digit prime: the invariant factors come from
    gcds, so the process does not run a trial division to ~10^9."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    p = 1000000000000000003
    out = subprocess.run(
        [sys.executable, "-m", "gradedbrauer.cli", "space", "free-product",
         "--h3tors", str(p)],
        env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["rbr"]["torsion"] == [p]
    assert doc["gbr"]["torsion"] == [2 * p]
