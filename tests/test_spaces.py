from dataclasses import fields

import pytest

from gradedbrauer.groups import AbGroup, ExtensionDatum
from gradedbrauer.spaces import (MAX_CYCLICS, ComplexCurve, ComplexProjective,
                                 ComplexSurfaceWitt, DescriptorError,
                                 FreeFourDim, FreeProduct, Graph, RealCurve,
                                 RealProjective, RealSurfaceNoPoints,
                                 SurfaceWithInvolution, TrivialAction,
                                 circle_reports, compute_report,
                                 curve_reports, named_examples,
                                 surface_reports)

Z = AbGroup.cyclic
two = AbGroup.elementary_two


def group(*cyclics, free=0, divisible=0):
    return (AbGroup.from_cyclics(cyclics) + AbGroup.free(free)
            + AbGroup.divisible(divisible))


# --------------------------------------------------------------- formulas

def test_trivial_action_point():
    r = compute_report(TrivialAction(b1=0, b2=0))
    assert r.q2 == Z(4)
    assert r.rbr == Z(2)
    assert r.gbr == Z(8)
    assert r.order_consistent() is True


def test_trivial_action_general_shape():
    r = compute_report(TrivialAction(b1=3, b2=2, bockstein_rank=2))
    assert r.q2 == Z(4) + two(3)
    assert r.rbr == two(3)
    assert r.gbr == group(8, 4, 4, 2)
    assert r.order_consistent() is True


def test_free_product_splits_everything():
    h3 = group(9, 3)
    r = compute_report(FreeProduct(h0=2, h1=1, h3_torsion=h3))
    assert r.q2 == two(3)
    assert r.rbr == h3
    assert r.gbr == two(3) + h3
    assert r.wr is None  # two components: the Witt formula needs h0 = 1
    assert r.order_consistent() is True


def test_free_product_witt_counts_two_torsion():
    r = compute_report(FreeProduct(h0=1, h1=2, h3_torsion=group(4, 2, 3)))
    assert r.wr == two(1 + 2 + 2)


def test_graph_formulas():
    fixed = compute_report(Graph(fixed_components=3, h1_quotient=2))
    assert fixed.gbr == group(8, 4, 4, 2, 2)
    assert fixed.q2 == Z(4) + two(4)
    assert fixed.rbr == two(3)
    free = compute_report(Graph(fixed_components=0, h1_quotient=2))
    assert free.gbr == free.q2 == Z(4) + two(1)
    assert free.rbr == two(0)
    for r in (fixed, free):
        assert r.order_consistent() is True


def test_surface_and_curve_share_the_closed_form():
    for g in (0, 1, 2):
        for nu in (1, 2, 3):
            surf = compute_report(SurfaceWithInvolution(g, nu))
            curve = compute_report(RealCurve(g, nu))
            graph = compute_report(Graph(fixed_components=nu, h1_quotient=g))
            assert surf.gbr == curve.gbr == graph.gbr
            assert surf.q2 == curve.q2 == graph.q2
            assert surf.rbr == curve.rbr == graph.rbr


def test_free_involution_on_a_surface():
    r = compute_report(SurfaceWithInvolution(genus=3, fixed_circles=0))
    assert r.gbr == r.q2 == Z(4) + two(3)
    assert r.rbr.is_trivial()


def test_complex_curve():
    r = compute_report(ComplexCurve(h1=4))
    assert r.gbr == r.q2 == two(5)
    assert r.rbr.is_trivial()
    assert r.order_consistent() is True


def test_free_four_dim_injection_data():
    r = compute_report(FreeFourDim(h1_quotient=2, h1_quotient_reduced=1,
                                   two_torsion_h3=2))
    assert r.q2 == Z(4) + two(1)
    assert isinstance(r.wr, ExtensionDatum)
    assert r.wr.sub == two(2)
    assert r.wr.quotient == r.q2
    assert not r.wr.is_resolved()
    assert r.gbr is None and r.rbr is None


def test_complex_projective_with_brauer_torsion():
    h3 = group(2, 2)
    r = compute_report(ComplexProjective(h0=1, h1=2, divisible_rank=2,
                                         h3_torsion=h3))
    assert r.q2 == two(3)
    assert r.gbr == two(3) + h3
    assert r.bw == r.gbr + AbGroup.divisible(2)
    assert r.br == h3 + AbGroup.divisible(2)
    assert r.wr == two(1 + 2 + 2)
    assert r.w == r.wr + two(2)
    assert r.order_consistent() is True


def test_complex_projective_rho_zero_collapses_bw_to_gbr():
    r = compute_report(ComplexProjective(h0=1, h1=0, divisible_rank=0))
    assert r.bw == r.gbr
    assert r.w == r.wr


def test_complex_projective_disconnected_drops_witt():
    r = compute_report(ComplexProjective(h0=2, h1=0, divisible_rank=1))
    assert r.wr is None and r.w is None
    assert r.bw is not None


def test_real_projective_reports_extension_only():
    rbr = group(4, 2)
    r = compute_report(RealProjective(lefschetz_rank=1, real_brauer=rbr,
                                      h1_equivariant=3))
    assert r.q2 == Z(4) + two(2)
    assert isinstance(r.gbr, ExtensionDatum)
    assert r.gbr.sub == rbr and r.gbr.quotient == r.q2
    assert r.br == rbr + AbGroup.divisible(1)
    assert r.bw is None
    assert r.order_consistent() is True  # extension order is forced


def test_real_projective_rho_zero_has_plain_brauer():
    rbr = group(2)
    r = compute_report(RealProjective(lefschetz_rank=0, real_brauer=rbr,
                                      h1_equivariant=1))
    assert r.br == rbr


def test_complex_surface_witt_split():
    r = compute_report(ComplexSurfaceWitt(divisible_rank=3, h1=1,
                                          two_torsion_h3=1))
    assert r.q2 == two(2)
    assert r.wr == two(3)
    assert r.w == two(6)


def test_real_surface_no_points_extensions():
    r = compute_report(RealSurfaceNoPoints(lefschetz_rank=1,
                                           two_torsion_brauer=3,
                                           h1_quotient_reduced=2))
    assert r.q2 == Z(4) + two(2)
    assert r.wr.sub == two(2)
    assert r.w.sub == two(3)
    assert r.wr.quotient == r.w.quotient == r.q2
    assert r.w.order() == 8 * 16


def test_elliptic_square_agrees_between_both_descriptor_routes():
    projective = compute_report(ComplexProjective(h0=1, h1=4, divisible_rank=4))
    witt = compute_report(ComplexSurfaceWitt(divisible_rank=4, h1=4,
                                             two_torsion_h3=0))
    assert projective.wr == witt.wr == two(5)
    assert projective.w == witt.w == two(9)
    assert projective.q2 == witt.q2


def test_reports_depend_only_on_the_descriptor_fields():
    a = compute_report(Graph(fixed_components=1, h1_quotient=2))
    b = compute_report(Graph(fixed_components=1, h1_quotient=2))
    assert a == b


# ----------------------------------------------------------------- tables

def test_circle_golden_values():
    reports = circle_reports()
    assert reports["circle-antipodal"].gbr == Z(4)
    assert reports["circle-trivial"].gbr == Z(8) + Z(2)
    assert reports["circle-reflection"].gbr == Z(8) + Z(4)


def test_curve_table_covers_the_grid_and_matches_the_closed_form():
    table = curve_reports()
    assert set(table) == {(g, nu) for g in (0, 1, 2) for nu in (0, 1, 2, 3)}
    assert table[(2, 3)].gbr == group(8, 4, 4, 2, 2)
    assert table[(1, 0)].gbr == Z(4) + two(1)
    for report in table.values():
        assert report.order_consistent() is True


def test_surface_table_order_consistency():
    for report in surface_reports().values():
        assert report.order_consistent() is True


def test_named_golden_values():
    named = named_examples()
    rp2 = named["real-projective-plane"]
    assert rp2.gbr == Z(8) + Z(4)
    assert rp2.wr == AbGroup(torsion=(4,), free_rank=1)
    sphere = named["antipodal-4-sphere"]
    assert sphere.gbr == Z(8)
    assert sphere.wr.resolved == Z(8)
    assert sphere.order_consistent() is True
    general = named["elliptic-square-general"]
    assert general.gbr == two(5)
    assert general.wr == two(5)
    assert general.w == two(9)
    assert general.bw == two(5) + AbGroup.divisible(4)
    cm = named["elliptic-square-cm"]
    assert cm.bw == two(5) + AbGroup.divisible(3)
    assert cm.w == two(8)


def test_every_report_carries_rules():
    for report in (*circle_reports().values(), *named_examples().values()):
        assert report.rules


def test_report_json_shape():
    r = compute_report(Graph(fixed_components=2, h1_quotient=0))
    data = r.to_json()
    assert data["gbr"]["torsion"] == [4, 8]
    assert data["wr"] is None
    assert data["rules"] == list(r.rules)
    ext = compute_report(RealSurfaceNoPoints(0, 1, 0)).to_json()
    assert ext["w"]["extension"]["quotient"]["torsion"] == [4]


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("build", [
    lambda: TrivialAction(b1=1, b2=0, bockstein_rank=1),
    lambda: TrivialAction(b1=1, b2=1, components=0),
    lambda: TrivialAction(b1=-1, b2=0),
    lambda: FreeProduct(h0=0),
    lambda: FreeProduct(h3_torsion=AbGroup.free(1)),
    lambda: Graph(fixed_components=0, h1_quotient=0),
    lambda: FreeFourDim(h1_quotient=1, h1_quotient_reduced=2, two_torsion_h3=0),
    lambda: ComplexProjective(h0=0, h1=0, divisible_rank=0),
    lambda: RealProjective(lefschetz_rank=0, real_brauer=AbGroup.divisible(1),
                           h1_equivariant=1),
    lambda: RealProjective(lefschetz_rank=0, real_brauer=AbGroup.trivial(),
                           h1_equivariant=0),
    lambda: RealSurfaceNoPoints(lefschetz_rank=3, two_torsion_brauer=2,
                                h1_quotient_reduced=0),
    lambda: Graph(fixed_components=True, h1_quotient=1),
    lambda: FreeProduct(h0="1"),
    lambda: FreeFourDim(1, 0, h3_exponent_at_most_two=1),
])
def test_descriptor_validation(build):
    with pytest.raises(DescriptorError):
        build()


DESCRIPTORS = (TrivialAction, FreeProduct, Graph, SurfaceWithInvolution,
               RealCurve, ComplexCurve, FreeFourDim, ComplexProjective,
               RealProjective, ComplexSurfaceWitt, RealSurfaceNoPoints)


@pytest.mark.parametrize("name", [(cls, f.name) for cls in DESCRIPTORS
                                  for f in fields(cls) if f.type == "int"],
                         ids=lambda p: f"{p[0].__name__}.{p[1]}")
def test_every_int_field_is_refused_above_the_cyclic_budget(name):
    cls, field_name = name
    values = {f.name: 0 for f in fields(cls) if f.type == "int"}
    for value in (MAX_CYCLICS, MAX_CYCLICS + 1):
        try:
            cls(**{**values, field_name: value})
        except DescriptorError as exc:
            refused = "MAX_CYCLICS" in str(exc)
        else:
            refused = False
        assert refused == (value > MAX_CYCLICS)
    with pytest.raises(DescriptorError) as exc:
        cls(**{**values, field_name: 99999999999})
    assert str(exc.value) == (f"{field_name} stands for 99999999999 cyclic factors, "
                              f"above the budget MAX_CYCLICS = {MAX_CYCLICS}")


def test_reports_at_the_cyclic_budget():
    assert compute_report(ComplexCurve(h1=MAX_CYCLICS)).q2 == two(1 + MAX_CYCLICS)
    report = compute_report(FreeProduct(h3_torsion=two(MAX_CYCLICS)))
    assert report.rbr == two(MAX_CYCLICS) and report.gbr == two(1 + MAX_CYCLICS)
    with pytest.raises(DescriptorError, match=f"h3_torsion stands for {MAX_CYCLICS + 1} "):
        FreeProduct(h3_torsion=two(MAX_CYCLICS + 1))
    # orders are not limited
    p = 1000000000000000003
    assert compute_report(FreeProduct(h3_torsion=Z(p))).rbr.torsion == (p,)


def test_descriptor_defaults():
    assert ComplexProjective(h1=0, divisible_rank=0).h0 == 1
    assert RealProjective(lefschetz_rank=0, h1_equivariant=1).real_brauer \
        == AbGroup.trivial()
    assert FreeFourDim(h1_quotient=1, h1_quotient_reduced=0).two_torsion_h3 == 0
    assert ComplexSurfaceWitt(divisible_rank=0, h1=0).two_torsion_h3 == 0


def test_unknown_descriptor_type():
    with pytest.raises(TypeError):
        compute_report(object())
