"""Closed-form group calculators for spaces with involution.

Each descriptor class below captures the cohomological input data of a
family of Z/2-spaces (or real/complex varieties), and
:func:`compute_report` turns a descriptor into an
:class:`InvariantReport` holding whichever of the following groups the
input determines:

``q2``
    the group of graded quadratic algebra classes (rank-2 etale data);
``rbr``
    the Brauer group of ungraded Azumaya bundle classes;
``gbr``
    the graded Brauer group, an extension of ``q2`` by ``rbr``;
``wr``
    the Witt group of symmetric forms on equivariant bundles;
``br``/``bw``/``w``
    the algebraic Brauer, graded Brauer, and Witt groups of a variety,
    which differ from their topological counterparts by divisible or
    elementary 2-group summands.

Fields the input does not determine are ``None``; groups determined
only up to a group extension are :class:`~gradedbrauer.groups.ExtensionDatum`.
Every report carries the kebab-case names of the formula rules it used
(the ``rules`` tuple) and free-form ``notes`` recording hypotheses.

The numerology is rigid: whenever ``q2``, ``rbr`` and ``gbr`` are all
known, ``|gbr| == |rbr| * |q2|`` — :meth:`InvariantReport.order_consistent`
checks it, and the test suite enforces it across every golden table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import singledispatch
from typing import Optional, Union

from .groups import AbGroup, ExtensionDatum

GroupLike = Union[AbGroup, ExtensionDatum, None]


class DescriptorError(ValueError):
    """The descriptor's numbers are inconsistent or out of range."""


def _order_of(g: GroupLike) -> Optional[int]:
    if g is None:
        return None
    return g.order()


@dataclass(frozen=True)
class InvariantReport:
    """Computed groups for one descriptor; ``None`` means undetermined."""

    q2: GroupLike = None
    rbr: GroupLike = None
    gbr: GroupLike = None
    wr: GroupLike = None
    br: GroupLike = None
    bw: GroupLike = None
    w: GroupLike = None
    rules: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def order_consistent(self) -> Optional[bool]:
        """``|gbr| == |rbr| * |q2|`` when all three orders are finite and
        known (extensions count with their forced order); ``None`` when
        any ingredient is missing or infinite."""
        go, ro, qo = _order_of(self.gbr), _order_of(self.rbr), _order_of(self.q2)
        if go is None or ro is None or qo is None:
            return None
        return go == ro * qo

    def to_json(self) -> dict:
        def enc(value):
            if isinstance(value, tuple):
                return list(value)
            return None if value is None else value.to_json()

        return {f.name: enc(getattr(self, f.name)) for f in fields(self)}


# What a descriptor field of each annotated type must hold.
_FIELD_RULES = {
    "int": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    "bool": (lambda v: type(v) is bool, "a bool"),
    "AbGroup": (lambda v: isinstance(v, AbGroup) and v.is_finite(),
                "a finite AbGroup"),
}


class _Descriptor:
    """Base of the descriptor dataclasses: every field is checked against
    its annotation by :data:`_FIELD_RULES` (a bool is not an ``int``),
    then the class's own rules between fields run in ``_check``."""

    def __post_init__(self) -> None:
        for f in fields(self):
            holds, kind = _FIELD_RULES[f.type]
            value = getattr(self, f.name)
            if not holds(value):
                raise DescriptorError(f"{f.name} must be {kind}, got {value!r}")
        self._check()

    def _check(self) -> None:
        """Rules between fields; none unless a subclass overrides this."""


# --------------------------------------------------------------------------
# descriptors: spaces with involution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivialAction(_Descriptor):
    """Connected finite complex with the trivial involution.

    ``b1``/``b2`` are the mod-2 Betti numbers and ``bockstein_rank``
    the rank of the integral Bockstein ``H^1 -> H^2`` (equivalently of
    ``Sq^1`` in these degrees), which controls how many Z/4 summands
    the graded Brauer group acquires.  ``components`` must be 1: the
    closed formulas implemented here are the connected-case statements.
    """

    b1: int
    b2: int
    bockstein_rank: int = 0
    components: int = 1

    def _check(self) -> None:
        if self.components != 1:
            raise DescriptorError(
                "only the connected case is implemented; got "
                f"components={self.components}"
            )
        if self.bockstein_rank > min(self.b1, self.b2):
            raise DescriptorError(
                "bockstein_rank cannot exceed min(b1, b2): the Bockstein "
                "is a map H^1 -> H^2"
            )


@dataclass(frozen=True)
class FreeProduct(_Descriptor):
    """Two copies of a finite complex, swapped by the involution.

    Equivariantly this is ``(two-point free orbit) x Y``; the quotient
    is ``Y`` itself.  ``h0``/``h1`` are mod-2 Betti numbers of ``Y``
    and ``h3_torsion`` is the torsion subgroup of ``H^3(Y; Z)``.
    """

    h0: int = 1
    h1: int = 0
    h3_torsion: AbGroup = field(default_factory=AbGroup.trivial)

    def _check(self) -> None:
        if self.h0 < 1:
            raise DescriptorError("h0 counts components of a nonempty space")


@dataclass(frozen=True)
class Graph(_Descriptor):
    """Connected 1-dimensional complex with involution.

    ``fixed_components`` counts the connected components of the fixed
    set; ``h1_quotient`` is the mod-2 first Betti number of the
    quotient (number of independent loops downstairs).
    """

    fixed_components: int
    h1_quotient: int

    def _check(self) -> None:
        if self.fixed_components == 0 and self.h1_quotient == 0:
            raise DescriptorError(
                "a free involution on a connected graph forces a loop in the "
                "quotient (the orientation class of the double cover), so "
                "fixed_components = 0 requires h1_quotient >= 1"
            )


@dataclass(frozen=True)
class SurfaceWithInvolution(_Descriptor):
    """Closed connected orientable surface with involution.

    ``genus`` is the genus of the surface itself; ``fixed_circles``
    counts the circles of the fixed set (0 for a free involution).
    """

    genus: int
    fixed_circles: int


@dataclass(frozen=True)
class RealCurve(_Descriptor):
    """Smooth projective geometrically irreducible curve over the reals.

    ``genus`` is the genus of the complexified curve; ``real_components``
    counts the circles of the real locus.  (For an actual curve the
    Harnack bound gives ``real_components <= genus + 1``; the closed
    formulas extend formally to all pairs, and the calculator does not
    reject the formal range.)
    """

    genus: int
    real_components: int


@dataclass(frozen=True)
class ComplexCurve(_Descriptor):
    """Connected algebraic curve over the complex numbers; ``h1`` is the
    mod-2 rank of the first etale cohomology (2g for a smooth projective
    curve of genus g, more for an open one)."""

    h1: int


@dataclass(frozen=True)
class FreeFourDim(_Descriptor):
    """Connected complex of dimension at most 4 with a free involution.

    ``h1_quotient`` is the mod-2 first Betti number of the quotient;
    ``h1_quotient_reduced`` is the rank after dividing out the class of
    the twisted line (the double cover's class) — usually one less, but
    supplied, not inferred.  ``two_torsion_h3`` is the rank of the
    2-torsion of the third equivariant integral (twisted) cohomology,
    and ``h3_exponent_at_most_two`` records whether that torsion has
    exponent 2, which is exactly when the Witt group maps isomorphically
    onto the graded Brauer group.
    """

    h1_quotient: int
    h1_quotient_reduced: int
    two_torsion_h3: int = 0
    h3_exponent_at_most_two: bool = False

    def _check(self) -> None:
        if self.h1_quotient_reduced > self.h1_quotient:
            raise DescriptorError(
                "h1_quotient_reduced is a quotient of h1_quotient and cannot "
                "have larger rank"
            )


# --------------------------------------------------------------------------
# descriptors: varieties
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexProjective(_Descriptor):
    """Smooth projective variety over the complex numbers.

    ``h0``/``h1`` are mod-2 Betti numbers of the complex points,
    ``h3_torsion`` the torsion of ``H^3(V(C); Z)``, and
    ``divisible_rank`` the number of ``Q/Z`` summands of the Brauer
    group (``b2`` minus the Neron-Severi rank — arithmetic, not
    topological, data).
    """

    h0: int = field(default=1, kw_only=True)
    h1: int
    divisible_rank: int
    h3_torsion: AbGroup = field(default_factory=AbGroup.trivial)

    def _check(self) -> None:
        if self.h0 < 1:
            raise DescriptorError("h0 counts components of a nonempty variety")


@dataclass(frozen=True)
class RealProjective(_Descriptor):
    """Smooth projective geometrically connected variety over the reals.

    ``lefschetz_rank`` is the Lefschetz number of the real structure
    (the rank of the image of the equivariant cycle class map in
    coherent cohomology),
    ``real_brauer`` the topological Brauer group of the associated
    involution space (supplied, since it is not determined by the other
    two numbers), and ``h1_equivariant`` the mod-2 rank of the first
    equivariant cohomology of the complex points.
    """

    lefschetz_rank: int
    real_brauer: AbGroup = field(default_factory=AbGroup.trivial, kw_only=True)
    h1_equivariant: int

    def _check(self) -> None:
        if self.h1_equivariant < 1:
            raise DescriptorError(
                "h1_equivariant is at least 1: the twisted line class never "
                "vanishes for a variety with an involution"
            )


@dataclass(frozen=True)
class ComplexSurfaceWitt(_Descriptor):
    """Witt-group data of a smooth projective surface over the complex
    numbers: ``h1`` and 2-torsion rank of ``H^3`` of the complex points,
    plus the rank of the divisible part of the Brauer group."""

    divisible_rank: int
    h1: int
    two_torsion_h3: int = 0


@dataclass(frozen=True)
class RealSurfaceNoPoints(_Descriptor):
    """Smooth projective geometrically connected real surface with no
    real points.

    ``two_torsion_brauer`` is the rank of the 2-torsion of the
    algebraic Brauer group, ``lefschetz_rank`` the Lefschetz number of
    the real structure, and ``h1_quotient_reduced`` the reduced mod-2
    rank of the first etale cohomology (the quotient by the twisted
    line class).
    """

    lefschetz_rank: int
    two_torsion_brauer: int
    h1_quotient_reduced: int

    def _check(self) -> None:
        if self.two_torsion_brauer < self.lefschetz_rank:
            raise DescriptorError(
                "the Lefschetz number embeds a (Z/2)^rank into the 2-torsion "
                "of the Brauer group, so two_torsion_brauer >= lefschetz_rank"
            )


# --------------------------------------------------------------------------
# the calculators
# --------------------------------------------------------------------------

def _q2_connected(extra_two_rank: int) -> AbGroup:
    """Q2 of a connected involution space: Z/4 + (Z/2)^extra, the
    nonsplit extension of Z/2 by the first equivariant cohomology."""
    return AbGroup.cyclic(4) + AbGroup.elementary_two(extra_two_rank)


@singledispatch
def compute_report(descriptor) -> InvariantReport:
    """Evaluate the closed-form group formulas for ``descriptor``."""
    raise TypeError(f"no calculator for {type(descriptor).__name__}")


@compute_report.register
def _(d: TrivialAction) -> InvariantReport:
    r = d.bockstein_rank
    gbr = (AbGroup.cyclic(8)
           + AbGroup.from_cyclics([4] * r)
           + AbGroup.elementary_two((d.b1 - r) + (d.b2 - r)))
    return InvariantReport(
        q2=_q2_connected(d.b1),
        rbr=AbGroup.elementary_two(1 + d.b2),
        gbr=gbr,
        rules=("q2-connected-extension", "rbr-trivial-action",
               "gbr-trivial-action-bockstein"),
        notes=("the Bockstein rank counts the Z/4 summands: a twisted line "
               "class a satisfies a + a = bockstein(a)",),
    )


@compute_report.register
def _(d: FreeProduct) -> InvariantReport:
    two_rank = d.h0 + d.h1
    gbr = AbGroup.elementary_two(two_rank) + d.h3_torsion
    wr = None
    rules = ["q2-split-free-product", "rbr-topological-h3",
             "gbr-free-product-splitting"]
    notes = ["the swap of two sheets makes every extension here split"]
    if d.h0 == 1:
        wr = AbGroup.elementary_two(1 + d.h1 + d.h3_torsion.two_torsion_rank())
        rules.append("wr-product-4fold")
        notes.append("wr assumes the swapped factor is connected of CW "
                     "dimension at most 4; it injects into gbr, bijectively "
                     "exactly when h3_torsion has exponent 2")
    return InvariantReport(
        q2=AbGroup.elementary_two(two_rank),
        rbr=d.h3_torsion,
        gbr=gbr,
        wr=wr,
        rules=tuple(rules),
        notes=tuple(notes),
    )


def _surface_style_report(genus: int, nu: int, gbr_rule: str,
                          extra_notes: tuple[str, ...] = ()) -> InvariantReport:
    """The shared formula of graphs, surfaces and real curves: ``nu``
    fixed circles (or real components) on a genus-``genus`` surface."""
    if nu > 0:
        gbr = (AbGroup.cyclic(8) + AbGroup.from_cyclics([4] * (nu - 1))
               + AbGroup.elementary_two(genus))
        q2 = _q2_connected(genus + nu - 1)
    else:
        gbr = _q2_connected(genus)
        q2 = gbr
    return InvariantReport(
        q2=q2,
        rbr=AbGroup.elementary_two(nu),
        gbr=gbr,
        rules=("q2-connected-extension", "rbr-fixed-point-components", gbr_rule),
        notes=extra_notes,
    )


@compute_report.register
def _(d: SurfaceWithInvolution) -> InvariantReport:
    return _surface_style_report(d.genus, d.fixed_circles, "gbr-surface-involution")


@compute_report.register
def _(d: Graph) -> InvariantReport:
    # A free graph is the surface formula one genus down.
    nu, h1 = d.fixed_components, d.h1_quotient
    return _surface_style_report(
        h1 if nu else h1 - 1, nu, "gbr-graph",
        ("restriction to the fixed points detects the Z/8 and Z/4 "
         "summands" if nu else
         "free case: the graded Brauer group is the quadratic group",),
    )


@compute_report.register
def _(d: RealCurve) -> InvariantReport:
    return _surface_style_report(
        d.genus, d.real_components, "gbr-real-curve",
        ("for a projective real curve the algebraic graded Brauer group "
         "maps isomorphically onto the topological one",),
    )


@compute_report.register
def _(d: ComplexCurve) -> InvariantReport:
    two = AbGroup.elementary_two(1 + d.h1)
    return InvariantReport(
        q2=two,
        rbr=AbGroup.trivial(),
        gbr=two,
        rules=("gbr-complex-curve",),
        notes=("over the complex numbers the curve's Brauer group vanishes, "
               "so the graded Brauer group is pure quadratic data",),
    )


@compute_report.register
def _(d: FreeFourDim) -> InvariantReport:
    q2 = _q2_connected(d.h1_quotient_reduced)
    wr = ExtensionDatum(
        sub=AbGroup.elementary_two(d.two_torsion_h3),
        quotient=q2,
        note=("the Witt group injects into the graded Brauer group; the "
              "injection is onto exactly when the twisted H^3 torsion has "
              "exponent 2"
              + (" (which holds here)" if d.h3_exponent_at_most_two else
                 " (not known from this input)")),
    )
    return InvariantReport(
        q2=q2,
        wr=wr,
        rules=("q2-connected-extension", "wr-free-4d-injection"),
        notes=("rbr and gbr need the full twisted H^3, which this "
               "descriptor does not carry",),
    )


@compute_report.register
def _(d: ComplexProjective) -> InvariantReport:
    two_rank = d.h0 + d.h1
    q2 = AbGroup.elementary_two(two_rank)
    gbr = q2 + d.h3_torsion
    bw = gbr + AbGroup.divisible(d.divisible_rank)
    br = d.h3_torsion + AbGroup.divisible(d.divisible_rank)
    wr = w = None
    rules = ["q2-split-free-product", "rbr-topological-h3",
             "gbr-free-product-splitting", "bw-divisible-splitting",
             "br-divisible-summand"]
    notes = ["a complex variety's involution space is a swapped double, "
             "so the topological groups split"]
    if d.h0 == 1:
        wr = AbGroup.elementary_two(1 + d.h1 + d.h3_torsion.two_torsion_rank())
        w = wr + AbGroup.elementary_two(d.divisible_rank)
        rules += ["wr-product-4fold", "witt-two-torsion-splitting"]
        notes.append("wr and w use the surface-dimension hypothesis "
                     "(complex points a connected 4-complex)")
    return InvariantReport(
        q2=q2,
        rbr=d.h3_torsion,
        gbr=gbr,
        wr=wr,
        br=br,
        bw=bw,
        w=w,
        rules=tuple(rules),
        notes=tuple(notes),
    )


@compute_report.register
def _(d: RealProjective) -> InvariantReport:
    q2 = _q2_connected(d.h1_equivariant - 1)
    gbr = ExtensionDatum(
        sub=d.real_brauer,
        quotient=q2,
        note=("known only through the filtration: quadratic classes on top "
              "of Brauer classes; the input does not pin the extension"),
    )
    return InvariantReport(
        q2=q2,
        rbr=d.real_brauer,
        gbr=gbr,
        br=d.real_brauer + AbGroup.divisible(d.lefschetz_rank),
        rules=("q2-connected-extension", "gbr-filtration-only",
               "br-divisible-summand"),
        notes=("bw is an extension of gbr by a divisible group and is left "
               "undetermined here, as gbr itself is",),
    )


@compute_report.register
def _(d: ComplexSurfaceWitt) -> InvariantReport:
    wr = AbGroup.elementary_two(1 + d.h1 + d.two_torsion_h3)
    return InvariantReport(
        q2=AbGroup.elementary_two(1 + d.h1),
        wr=wr,
        w=wr + AbGroup.elementary_two(d.divisible_rank),
        rules=("q2-split-free-product", "wr-product-4fold",
               "witt-two-torsion-splitting"),
        notes=("the algebraic Witt group splits off one Z/2 per divisible "
               "Brauer summand",),
    )


@compute_report.register
def _(d: RealSurfaceNoPoints) -> InvariantReport:
    q2 = _q2_connected(d.h1_quotient_reduced)
    wr = ExtensionDatum(
        sub=AbGroup.elementary_two(d.two_torsion_brauer - d.lefschetz_rank),
        quotient=q2,
        note="the topological Witt group: 2-torsion Brauer classes that "
             "survive the Lefschetz quotient, under rank and discriminant",
    )
    w = ExtensionDatum(
        sub=AbGroup.elementary_two(d.two_torsion_brauer),
        quotient=q2,
        note="rank and discriminant are onto with kernel the 2-torsion of "
             "the Brauer group",
    )
    return InvariantReport(
        q2=q2,
        wr=wr,
        w=w,
        rules=("q2-connected-extension", "witt-rank-disc-sequence",
               "wr-real-surface-extension"),
        notes=("without real points the Witt groups are torsion and sit in "
               "rank-discriminant extensions over the quadratic group",),
    )


# --------------------------------------------------------------------------
# golden tables
# --------------------------------------------------------------------------

def circle_reports() -> dict[str, InvariantReport]:
    """The three involutions on the circle: antipodal (free), trivial,
    and reflection (two fixed points)."""
    return {
        "circle-antipodal": compute_report(Graph(fixed_components=0, h1_quotient=1)),
        "circle-trivial": compute_report(TrivialAction(b1=1, b2=0, bockstein_rank=0)),
        "circle-reflection": compute_report(Graph(fixed_components=2, h1_quotient=0)),
    }


# The (genus, circle count) grid of the curve and surface golden tables.
_GRID = tuple((g, nu) for g in (0, 1, 2) for nu in (0, 1, 2, 3))


def curve_reports() -> dict[tuple[int, int], InvariantReport]:
    """Real-curve reports over the (genus, real circle count) grid."""
    return {(g, nu): compute_report(RealCurve(g, nu)) for g, nu in _GRID}


def surface_reports() -> dict[tuple[int, int], InvariantReport]:
    """Surface-with-involution reports over the (genus, fixed circles) grid."""
    return {(g, nu): compute_report(SurfaceWithInvolution(g, nu)) for g, nu in _GRID}


def named_examples() -> dict[str, InvariantReport]:
    """Fully pinned example spaces, including values that the general
    calculators leave open but that are known for these particular
    inputs (stored here as constants, with notes saying so)."""
    out: dict[str, InvariantReport] = {}

    rp2 = compute_report(TrivialAction(b1=1, b2=1, bockstein_rank=1))
    out["real-projective-plane"] = replace(
        rp2,
        wr=AbGroup(torsion=(4,), free_rank=1),
        notes=rp2.notes + ("wr is a stored constant for this space (an "
                           "infinite group: rank one plus a Z/4)",),
    )

    sphere = compute_report(FreeFourDim(
        h1_quotient=1, h1_quotient_reduced=0, two_torsion_h3=1,
        h3_exponent_at_most_two=True))
    z8 = AbGroup.cyclic(8)
    out["antipodal-4-sphere"] = replace(
        sphere,
        wr=replace(sphere.wr, resolved=z8),
        rbr=AbGroup.cyclic(2),
        gbr=z8,
        notes=sphere.notes + (
            "the 4-sphere with antipodal involution is the 4-skeleton of "
            "the universal free involution, which pins the twisted H^3 to "
            "Z/2 and resolves both extensions to Z/8 (stored constants)",),
    )

    general = compute_report(ComplexProjective(
        h0=1, h1=4, divisible_rank=4, h3_torsion=AbGroup.trivial()))
    out["elliptic-square-general"] = replace(
        general,
        notes=general.notes + ("product of an elliptic curve with itself, "
                               "no complex multiplication: Neron-Severi "
                               "rank 2 of b2 = 6",),
    )
    cm = compute_report(ComplexProjective(
        h0=1, h1=4, divisible_rank=3, h3_torsion=AbGroup.trivial()))
    out["elliptic-square-cm"] = replace(
        cm,
        notes=cm.notes + ("product of an elliptic curve with itself, with "
                          "complex multiplication: Neron-Severi rank 3",),
    )
    return out
