"""Command-line front end: every computation in, JSON out.

Algebras are passed as compact shorthand (``form:1,-1``, ``end:2,1``,
``ground``, a path to a JSON file, or ``-`` for JSON on stdin), so
commands compose through pipes::

    gradedbrauer tensor form:1 form:1 | gradedbrauer invariants --algebra -

Exit codes: 0 on success, 2 on bad input (with a machine-readable
``{"error": ...}`` document), 1 on internal failure or selftest failure.
A reader that closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import MISSING, fields

from .algebra import (MAX_TERMS, AlgebraError, GradedAlgebra, end_graded,
                      graded_tensor, ground_algebra, hat_center, is_azumaya,
                      opposite)
from .clifford import DiagonalForm, clifford
from .groups import AbGroup
from .invariants import bw_class, invariant_triple
from .scalars import Field, field_from_label
from .selftest import run_selftest
from .spaces import (ComplexCurve, ComplexProjective, ComplexSurfaceWitt,
                     DescriptorError, FreeFourDim, FreeProduct, Graph,
                     RealCurve, RealProjective, RealSurfaceNoPoints,
                     SurfaceWithInvolution, TrivialAction, circle_reports,
                     compute_report, curve_reports, named_examples,
                     surface_reports)


def _parse_form(text: str, field: Field) -> DiagonalForm:
    entries = tuple(field.coerce(part.strip()) for part in text.split(",") if part.strip())
    return DiagonalForm(entries, field)


def _parse_group(text: str) -> AbGroup:
    text = text.strip()
    if text in ("", "0", "1", "triv"):
        return AbGroup.trivial()
    return AbGroup.from_cyclics([int(part) for part in text.split(",")])


# Characters of algebra JSON read per structure constant of the term budget
# MAX_TERMS.  The largest document this CLI writes, the rank-10 Clifford
# table at indent 2, takes 56 per triple (61 with ten-digit fractions).
_JSON_CHARS_PER_TERM = 128


def _load_algebra(source: str, field: Field) -> GradedAlgebra:
    if source.startswith("form:"):
        return clifford(_parse_form(source[5:], field))
    if source.startswith("end:"):
        even, _, odd = source[4:].partition(",")
        return end_graded(int(even), int(odd or 0), field)
    if source == "ground":
        return ground_algebra(field)
    budget = _JSON_CHARS_PER_TERM * MAX_TERMS
    if source == "-":
        text = sys.stdin.read(budget + 1)
    else:
        with open(source, encoding="utf-8") as handle:
            text = handle.read(budget + 1)
    if len(text) > budget:
        raise ValueError(f"JSON input is longer than {budget} characters, the budget "
                         f"of {_JSON_CHARS_PER_TERM} per structure constant for "
                         f"MAX_TERMS = {MAX_TERMS}")
    try:  # json.loads recurses once per level of nesting
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    return GradedAlgebra.from_json(data)


def _algebra_from_args(args) -> GradedAlgebra:
    field = field_from_label(args.field)
    if args.form is not None:
        if args.algebra is not None:
            raise ValueError("pass --form or --algebra, not both")
        return clifford(_parse_form(args.form, field))
    if args.algebra is not None:
        return _load_algebra(args.algebra, field)
    raise ValueError("pass --form or --algebra")


# ---------------------------------------------------------------- handlers

def _cmd_clifford(args):
    field = field_from_label(args.field)
    return clifford(_parse_form(args.form, field)).to_json(), 0


def _cmd_tensor(args):
    field = field_from_label(args.field)
    left = _load_algebra(args.left, field)
    right = _load_algebra(args.right, field)
    return graded_tensor(left, right).to_json(), 0


def _cmd_invariants(args):
    a = _algebra_from_args(args)
    if args.opposite:
        a = opposite(a)
    bw = bw_class(a)
    parity, q2, ungraded = invariant_triple(a)
    return {"parity": parity, "q2": q2, "ungraded": ungraded, "bw": bw}, 0


def _cmd_azumaya(args):
    return {"azumaya": is_azumaya(_algebra_from_args(args))}, 0


def _cmd_centralizer(args):
    return hat_center(_algebra_from_args(args)).to_json(), 0


_TABLES = {
    "circles": lambda: {name: r.to_json() for name, r in circle_reports().items()},
    "curves": lambda: {f"g={g},nu={nu}": r.to_json()
                       for (g, nu), r in curve_reports().items()},
    "surfaces": lambda: {f"g={g},nu={nu}": r.to_json()
                         for (g, nu), r in surface_reports().items()},
    "named": lambda: {name: r.to_json() for name, r in named_examples().items()},
}


def _cmd_table(args):
    return _TABLES[args.name](), 0


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed)
    return report, 0 if report["passed"] else 1


def _descriptor_command(kinds):
    def handler(args):
        if getattr(args, "table", None):
            return _TABLES[args.table](), 0
        if getattr(args, "kind", None) is None:
            raise ValueError("pass a descriptor kind or --table NAME")
        cls = kinds[args.kind]
        # An absent optional flag is None and leaves the field's default.
        values = {f.name: _parse_group(v) if f.type == "AbGroup" else v
                  for f in fields(cls) if (v := getattr(args, f.name)) is not None}
        return compute_report(cls(**values)).to_json(), 0
    return handler


_SPACE_KINDS = {
    "trivial-action": TrivialAction, "free-product": FreeProduct,
    "graph": Graph, "surface": SurfaceWithInvolution, "real-curve": RealCurve,
    "complex-curve": ComplexCurve, "free-4d": FreeFourDim,
}

_VARIETY_KINDS = {
    "complex-projective": ComplexProjective, "real-projective": RealProjective,
    "complex-surface-witt": ComplexSurfaceWitt,
    "real-surface-no-points": RealSurfaceNoPoints,
}

# Descriptor field -> CLI flag, wherever the flag is not the field name.
_FLAG_ALIASES = {
    "bockstein_rank": "bockstein", "h3_torsion": "h3tors",
    "fixed_components": "nu", "fixed_circles": "nu", "real_components": "nu",
    "h1_quotient": "h1quot", "h1_quotient_reduced": "h1quot-reduced",
    "two_torsion_h3": "two-tors-h3", "h3_exponent_at_most_two": "exponent-le-2",
    "divisible_rank": "rho", "lefschetz_rank": "rho0", "real_brauer": "rbr",
    "h1_equivariant": "h1g", "two_torsion_brauer": "two-tors-br",
}


def _add_descriptor_flags(parser: argparse.ArgumentParser, cls: type) -> None:
    """One flag per field of the descriptor dataclass ``cls``."""
    for f in fields(cls):
        flag = "--" + _FLAG_ALIASES.get(f.name, f.name)
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, action="store_true")
        elif f.type == "AbGroup":  # parsed by the handler, so errors get a JSON document
            parser.add_argument(flag, dest=f.name,
                                help="cyclic orders, e.g. 4,2 (empty = trivial)")
        else:
            required = f.default is MISSING and f.default_factory is MISSING
            parser.add_argument(flag, dest=f.name, type=int, required=required)


def _add_algebra_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--form", help="diagonal form entries, e.g. 1,-1,2")
    parser.add_argument("--algebra",
                        help="algebra source: form:..., end:E,O, ground, a "
                             "JSON file path, or - for stdin")
    parser.add_argument("--field", default="R", choices=("R", "C"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedbrauer",
        description="Exact computations of graded Brauer classes at a point "
                    "and closed-form group tables for spaces with involution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clifford", help="Clifford algebra of a diagonal form")
    p.add_argument("--form", required=True)
    p.add_argument("--field", default="R", choices=("R", "C"))
    p.set_defaults(handler=_cmd_clifford)

    p = sub.add_parser("tensor", help="graded tensor product of two algebras")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--field", default="R", choices=("R", "C"))
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("invariants",
                       help="parity, quadratic class, inertia and full class")
    _add_algebra_flags(p)
    p.add_argument("--opposite", action="store_true",
                   help="compute for the graded opposite algebra")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("azumaya", help="test the matrix-like condition")
    _add_algebra_flags(p)
    p.set_defaults(handler=_cmd_azumaya)

    p = sub.add_parser("centralizer",
                       help="rank-2 normal form of the graded center")
    _add_algebra_flags(p)
    p.set_defaults(handler=_cmd_centralizer)

    for name, kinds in (("space", _SPACE_KINDS), ("variety", _VARIETY_KINDS)):
        p = sub.add_parser(name, help=f"group report for a {name} descriptor")
        p.add_argument("--table", choices=tuple(_TABLES),
                       help="print a whole golden table instead")
        kind_sub = p.add_subparsers(dest="kind")
        for kind, cls in kinds.items():
            _add_descriptor_flags(kind_sub.add_parser(kind), cls)
        p.set_defaults(handler=_descriptor_command(kinds))

    p = sub.add_parser("table", help="print a golden table")
    p.add_argument("name", choices=tuple(_TABLES))
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


# A value that starts like a negative scalar: -1, -1/2, -.5, -i.
_NEGATIVE_VALUE = re.compile(r"-[\d./i]")
# The spellings argparse accepts for --form: --f is ambiguous with --field.
_FORM_FLAGS = ("--fo", "--for", "--form")


def _attach_negative_forms(argv: list[str]) -> list[str]:
    """Spell ``--form -1,1`` (or ``--fo -1,1``) as ``--form=-1,1``.

    argparse reads a separate token that starts with ``-`` and is not a
    plain negative number as an option, so a form whose first entry is
    negative would otherwise be a usage error instead of a form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FORM_FLAGS and _NEGATIVE_VALUE.match(token):
            out[-1] = "--form=" + token
        else:
            out.append(token)
    return out


def _emit(document, indent=None) -> None:
    """Write ``document`` as JSON, and a newline, on stdout.

    A reader that closes the pipe early (``| head -1``) is not an error:
    the rest of the output is dropped, and stdout is pointed at devnull
    so that the interpreter's final flush does not fail again.
    """
    try:
        json.dump(document, sys.stdout, indent=indent)
        print()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_forms(argv))
    try:
        if [] in vars(args).values():  # argparse reads "--form=--" as no values
            raise ValueError("an option's value cannot be '--'")
        payload, code = args.handler(args)
    except (AlgebraError, DescriptorError, ValueError, OSError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    except Exception as exc:  # noqa: BLE001 - report, then signal internal failure
        _emit({"error": {"type": type(exc).__name__, "message": str(exc),
                         "internal": True}})
        return 1
    _emit(payload, indent=2)
    return code


if __name__ == "__main__":
    sys.exit(main())
