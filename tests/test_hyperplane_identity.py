"""Differential tests of a hyperplane's identity, its primitive integer
normal, against the rational form it replaced (the normal divided by its
first nonzero entry), and a guard that the lattice and rank-2 layers never
read the rational form.
"""

from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrfree.rank2 as rank2_mod
from arrfree.arrangement import Hyperplane, Multiarrangement, _codim2_table
from arrfree.betti import b2_multi
from arrfree.certify import find_locally_heavy_flags
from arrfree.exactalg import vec
from arrfree.fixtures import rank4_flag_example

from conftest import lines, type_b_normals


def ref_canonical(v):
    """The former identity: the rational normal scaled so that its first
    nonzero entry is 1."""
    n = vec(v)
    lead = next(x for x in n if x != 0)
    return tuple(x / lead for x in n)


RATIONALS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
NONZERO = RATIONALS.filter(lambda c: c != 0)


def vectors(size=st.integers(1, 5)):
    return size.flatmap(lambda n: st.lists(RATIONALS, min_size=n, max_size=n)).filter(any)


@settings(max_examples=200, deadline=None)
@given(vectors(), NONZERO)
def test_scaling_gives_the_same_hyperplane(v, c):
    h, g = Hyperplane.from_coeffs(v), Hyperplane.from_coeffs([c * x for x in v])
    assert h == g and hash(h) == hash(g)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_normal_is_the_former_canonical_form(v):
    assert Hyperplane.from_coeffs(v).normal == ref_canonical(v)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_coeffs_are_primitive_with_positive_lead(v):
    coeffs = Hyperplane.from_coeffs(v).coeffs
    assert all(type(x) is int for x in coeffs)
    assert gcd(*coeffs) == 1 and next(x for x in coeffs if x) > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(vectors(st.just(n)), vectors(st.just(n)))))
def test_equality_matches_the_former_canonical_form(pair):
    v, w = pair
    h, g = Hyperplane.from_coeffs(v), Hyperplane.from_coeffs(w)
    assert (h == g) == (ref_canonical(v) == ref_canonical(w))


INT_PAIRS = st.lists(st.integers(-30, 30), min_size=2, max_size=2).filter(any)
INT_FACTORS = st.integers(-9, 9).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(INT_PAIRS, INT_FACTORS), st.tuples(vectors(st.just(2)), NONZERO)))
def test_rank2_instance_rejects_proportional_forms(case):
    # a multiarrangement of lines in two variables refuses proportional
    # forms as one hyperplane given twice
    f, c = case
    with pytest.raises(ValueError, match="^duplicate hyperplane"):
        lines((tuple(f), (1, 0), tuple(c * x for x in f)), (1, 1, 1))


@settings(max_examples=200, deadline=None)
@given(vectors(st.just(2)), vectors(st.just(2)))
def test_rank2_instance_accepts_what_the_former_check_accepted(f, g):
    try:
        lines((tuple(f), tuple(g)), (1, 1))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (ref_canonical(f) != ref_canonical(g))


# ---------------------------------------------------------------------------
# the lattice and rank-2 layers read the integer normal only


def _no_rational_normal(self):
    raise AssertionError("the rational normal was read")


def _clear_caches():
    for cache in (_codim2_table, b2_multi, rank2_mod._min_degree_basis):
        cache.cache_clear()


def test_flag_search_and_b2_read_no_rational_normal():
    b4 = Multiarrangement(4, tuple(Hyperplane.from_coeffs(v) for v in type_b_normals(4)), (1,) * 16)
    # a sweep-mult row: the B3 template at a = 2, m0 = 7
    b3 = tuple(Hyperplane.from_coeffs(v) for v in type_b_normals(3))
    b3_row = Multiarrangement(3, b3, (2, 2, 7, 2, 2, 2, 2, 2, 2))
    inputs = (b4, rank4_flag_example())
    _clear_caches()
    with mock.patch.object(Hyperplane, "normal", property(_no_rational_normal)):
        flags = [find_locally_heavy_flags(a) for a in inputs]
        b2 = b2_multi(b3_row)
    _clear_caches()
    assert flags == [find_locally_heavy_flags(a) for a in inputs]
    assert flags[1], "the rank-4 example has a locally heavy flag"
    assert b2 == b2_multi(b3_row)
