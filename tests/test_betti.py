import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Hyperplane,
    Multiarrangement,
    codim2_flats,
    euler_ziegler_multiplicity,
    is_locally_heavy,
    localization,
    parse,
    rank,
)
from arrfree.betti import b2_away, b2_multi, b2_simple
from arrfree.certify import _rank2_base
from arrfree.fixtures import boolean3, braid3, example_a3, load, rank4_flag_example

from conftest import (
    FIXTURES,
    euler_restriction,
    force_locally_heavy,
    random_multiarrangement,
    random_simple_rank3,
    type_b_normals,
)
from reference import b2_away_local_sum, ref_b2_multi, ref_b2_simple


def test_b2_simple_fixtures():
    assert b2_simple(boolean3()).total == 3
    assert b2_simple(braid3()).total == 11
    assert b2_simple(rank4_flag_example()).total == 36


def test_b2_simple_rejects_multiplicities():
    with pytest.raises(ValueError):
        b2_simple(boolean3((2, 1, 1)))


def test_b2_multi_boolean_234():
    report = b2_multi(boolean3((2, 3, 4)))
    assert report.total == 2 * 3 + 2 * 4 + 3 * 4 == 26
    assert sorted(c for _, c in report.per_flat) == [6, 8, 12]


def test_b2_multi_example1():
    report = b2_multi(example_a3(1, 2))
    assert report.total == 16
    assert sorted(c for _, c in report.per_flat) == [1, 1, 2, 2, 2, 4, 4]


def assert_simple_b2_agrees(a):
    """b2_simple, the sum of |X| - 1 it had of its own, and b2_multi give
    one report: total, flats and exponents."""
    want = ref_b2_simple(a)
    assert b2_simple(a) == want
    assert b2_multi(a) == want


def test_b2_multi_agrees_with_simple():
    rng = random.Random(31)
    for _ in range(12):
        assert_simple_b2_agrees(random_multiarrangement(rng, max_mult=1))


@pytest.mark.parametrize("name", FIXTURES)
def test_simple_b2_reports_agree_on_fixtures(name):
    assert_simple_b2_agrees(load(f"{name}.json").underlying_simple())


@st.composite
def simple_arrangements(draw):
    """Simple arrangements of 1..8 distinct hyperplanes in l = 2..4
    variables, entries -2..2, of any rank."""
    dim = draw(st.integers(2, 4))
    normals = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any), min_size=1, max_size=8))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(v) for v in normals))
    return Multiarrangement(dim, planes, (1,) * len(planes))


@settings(max_examples=100, deadline=None)
@given(simple_arrangements())
def test_simple_b2_reports_agree(a):
    assert_simple_b2_agrees(a)


def test_b2_away_example1_formula():
    for a_ in (1, 2, 3):
        arr = example_a3(a_, 2 * a_)
        k = (3 * a_ // 2) * ((3 * a_ + 1) // 2)
        assert b2_away(arr, 5) == 2 * a_ * a_ + 2 * k


def test_b2_away_boolean():
    assert b2_away(boolean3((2, 3, 4)), 2) == 26 - 4 * 5 == 6


def test_b2_away_simple_is_b2_minus_size():
    a = braid3()
    for i in range(a.size):
        assert b2_away(a, i) == 11 - (6 - 1)


def test_b2_away_local_sum_example1():
    assert b2_away_local_sum(example_a3(1, 2), 5) == 6


def test_b2_away_local_sum_boolean():
    assert b2_away_local_sum(boolean3((2, 3, 4)), 2) == 6


def test_b2_away_local_sum_pencil_is_zero():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1], [1, 1]], "mult": [1, 2, 1, 1]})
    assert b2_away_local_sum(a, 0) == 0


def test_local_sum_identity_for_locally_heavy():
    rng = random.Random(41)
    for _ in range(30):
        a = random_multiarrangement(rng)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        assert b2_away(a, i0) == b2_away_local_sum(a, i0)


def test_restriction_inequality_for_locally_heavy():
    rng = random.Random(43)
    for _ in range(30):
        a = random_multiarrangement(rng)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        r = euler_ziegler_multiplicity(a, i0)
        assert b2_away(a, i0) >= b2_multi(r).total


def test_simple_ziegler_inequality():
    rng = random.Random(47)
    for _ in range(20):
        a = random_simple_rank3(rng)
        for i in range(a.size):
            r = euler_ziegler_multiplicity(a, i)
            assert b2_simple(a).total - (a.size - 1) >= b2_multi(r).total


def test_euler_restriction_inequality_any_hyperplane():
    rng = random.Random(53)
    for _ in range(20):
        a = random_multiarrangement(rng, max_planes=5)
        if rank(a) < 3:
            continue
        for i in range(a.size):
            er = euler_restriction(a, i)
            m0 = a.mult[i]
            assert b2_multi(a).total - m0 * (a.total_mult - m0) >= b2_multi(er).total


def test_euler_restriction_is_euler_ziegler_when_locally_heavy():
    rng = random.Random(59)
    for _ in range(20):
        a = random_multiarrangement(rng)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        assert is_locally_heavy(a, i0)
        er = euler_restriction(a, i0)
        assert er == euler_ziegler_multiplicity(a, i0)


def test_report_totals_match_per_flat():
    rng = random.Random(61)
    for _ in range(10):
        a = random_multiarrangement(rng)
        report = b2_multi(a)
        assert report.total == sum(c for _, c in report.per_flat)
        for (_, c), (d1, d2) in zip(report.per_flat, report.exponents):
            assert c == d1 * d2


# ---------------------------------------------------------------------------
# exponents read off the multiplicities against the projection of every flat


def assert_b2_matches_projection(a):
    """b2_multi equals the projection of every flat, and the rank-2 base
    case on each flat's localization has that flat's exponents."""
    want = ref_b2_multi(a)
    assert b2_multi(a) == want
    for f, exps in zip(codim2_flats(a), want.exponents):
        assert _rank2_base(localization(a, f)).exponents == exps


@st.composite
def b_subarrangements(draw):
    """Rank-3 and rank-4 multiarrangements with multiplicities 1..5: a subset
    of the normals of B_3 or B_4, whose 4-line flats {x, y, x + y, x - y}
    are heavy or not with the drawn multiplicities, plus up to two drawn
    normals."""
    dim = draw(st.integers(3, 4))
    normals = draw(st.lists(st.sampled_from(type_b_normals(dim)), min_size=dim, max_size=3 * dim, unique_by=tuple))
    normals += draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=2))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(v) for v in normals if any(v)))
    mult = draw(st.lists(st.integers(1, 5), min_size=len(planes), max_size=len(planes)))
    a = Multiarrangement(dim, planes, tuple(mult))
    assume(rank(a) == dim)
    return a


@settings(max_examples=60, deadline=None)
@given(b_subarrangements())
def test_b2_multi_matches_projection_of_every_flat(a):
    assert_b2_matches_projection(a)


@pytest.mark.parametrize("name", FIXTURES)
def test_b2_multi_matches_projection_on_fixtures(name):
    a = load(f"{name}.json")
    assert_b2_matches_projection(a)
    assert_b2_matches_projection(Multiarrangement(a.dim, a.hyperplanes, tuple(1 + i % 5 for i in range(a.size))))
