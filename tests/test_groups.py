import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedbrauer import groups
from gradedbrauer.groups import AbGroup, ExtensionDatum, invariant_factors

cyclic_lists = st.lists(st.integers(2, 64), max_size=6)


def test_invariant_factors_classic_example():
    # Z/4 x Z/6 ~ Z/12 x Z/2
    assert invariant_factors([4, 6]) == (2, 12)


def test_invariant_factors_drop_trivial_summands():
    assert invariant_factors([1, 1, 5]) == (5,)
    assert invariant_factors([]) == ()


@given(cyclic_lists)
def test_invariant_factors_preserve_order(orders):
    factors = invariant_factors(orders)
    product = 1
    for n in orders:
        product *= n
    got = 1
    for n in factors:
        got *= n
    assert got == product
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


# Divisors of 2520 = 2^3 3^2 5 7, so that every lcm stays at most 2520.
small_orders = st.lists(st.sampled_from([d for d in range(1, 2521) if 2520 % d == 0]),
                        max_size=8)


@given(small_orders)
def test_invariant_factors_count_the_same_m_torsion(orders):
    """``prod gcd(m, n)`` is the size of the m-torsion of ``+ Z/n``, and
    two finite abelian groups with the same m-torsion sizes for every m
    are isomorphic; the factors also form a chain without a 1."""
    factors = invariant_factors(orders)
    assert all(d > 1 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    top = math.lcm(*orders)
    for m in range(1, top + 1):
        assert (math.prod(math.gcd(m, n) for n in orders)
                == math.prod(math.gcd(m, d) for d in factors))


def whole_chain_fold(orders):
    """The fold without the bisection: every order through every factor."""
    chain = []
    for n in orders:
        for j, d in enumerate(chain):
            g = math.gcd(d, n)
            chain[j], n = g, d // g * n
        chain.append(n)
    return tuple(d for d in chain if d > 1)


def test_invariant_factors_equal_the_whole_chain_fold():
    rng = random.Random(0)
    for _ in range(20000):
        orders = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 5, 25, rng.randint(1, 10**6)])
                  for _ in range(rng.randint(0, 12))]
        assert invariant_factors(orders) == whole_chain_fold(orders), orders
    for _ in range(20):  # long chains with runs of equal factors
        orders = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(300)]
        assert invariant_factors(orders) == whole_chain_fold(orders), orders


def test_invariant_factors_skip_the_dividing_prefix(monkeypatch):
    """A 2 divides every factor of a chain of 2s, and a 4 every factor of a
    chain of 2s and 4s, so ``(Z/2)^1024 + (Z/4)^1024`` in that order needs
    no gcd at all; a 3 after a 2 does, and a 2 after a chain of 4s one."""
    calls = []

    def gcd(a, b):
        calls.append(a)
        return math.gcd(a, b)

    monkeypatch.setattr(groups, "gcd", gcd)
    assert invariant_factors([2] * 1024) == (2,) * 1024
    assert not calls
    orders = [2] * 1024 + [4] * 1024
    assert invariant_factors(orders) == whole_chain_fold(orders) == (2,) * 1024 + (4,) * 1024
    assert not calls
    assert invariant_factors([2, 3]) == (6,)
    assert calls == [2]
    calls.clear()
    orders = [4] * 1024 + [2] * 1024  # each 2 changes one 4 and skips the others
    assert invariant_factors(orders) == whole_chain_fold(orders) == (2,) * 1024 + (4,) * 1024
    assert len(calls) == 1024


@given(cyclic_lists, cyclic_lists)
def test_direct_sum_is_canonical_and_commutative(xs, ys):
    a, b = AbGroup.from_cyclics(xs), AbGroup.from_cyclics(ys)
    assert a + b == b + a
    assert (a + b).torsion == invariant_factors(list(xs) + list(ys))


def test_constructor_rejects_non_divisibility_chains():
    with pytest.raises(ValueError):
        AbGroup(torsion=(4, 2))
    with pytest.raises(ValueError):
        AbGroup(torsion=(1,))


def test_order_and_exponent():
    g = AbGroup.cyclic(8) + AbGroup.elementary_two(2)
    assert g.order() == 32
    assert g.exponent() == 8
    assert AbGroup.free(1).order() is None
    assert AbGroup.divisible(2).order() is None
    assert AbGroup.trivial().order() == 1


def test_two_torsion_rank_counts_even_factors():
    g = AbGroup.from_cyclics([8, 4, 3, 9])
    assert g.two_torsion_rank() == 2
    assert AbGroup.from_cyclics([3, 9]).two_torsion_rank() == 0


def test_pretty_printing():
    assert str(AbGroup.trivial()) == "0"
    assert str(AbGroup.cyclic(8) + AbGroup.cyclic(4)) == "Z/8 x Z/4"
    assert str(AbGroup.free(1) + AbGroup.cyclic(4)) == "Z x Z/4"
    assert str(AbGroup.divisible(2)) == "(Q/Z)^2"


@given(cyclic_lists, st.integers(0, 3), st.integers(0, 3))
def test_json_round_trip(orders, free, divisible):
    g = AbGroup.from_cyclics(orders) + AbGroup.free(free) + AbGroup.divisible(divisible)
    assert AbGroup.from_json(g.to_json()) == g


def test_extension_orders_must_multiply():
    sub, quot = AbGroup.cyclic(2), AbGroup.cyclic(4)
    ext = ExtensionDatum(sub=sub, quotient=quot, resolved=AbGroup.cyclic(8))
    assert ext.order() == 8
    assert ext.is_resolved()
    with pytest.raises(ValueError):
        ExtensionDatum(sub=sub, quotient=quot, resolved=AbGroup.cyclic(4))


def test_unresolved_extension_still_knows_its_order():
    ext = ExtensionDatum(sub=AbGroup.cyclic(2), quotient=AbGroup.cyclic(4))
    assert not ext.is_resolved()
    assert ext.order() == 8
    assert "extension of Z/4 by Z/2" in str(ext)


def test_extension_json_keeps_the_note():
    ext = ExtensionDatum(sub=AbGroup.cyclic(2), quotient=AbGroup.cyclic(4),
                         note="filtration only")
    data = ext.to_json()
    assert data["extension"]["note"] == "filtration only"
    assert data["extension"]["resolved"] is None
