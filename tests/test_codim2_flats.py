"""Differential tests of the codimension-2 flat table against the pairwise
construction it replaced.

The reference spans the normals of every hyperplane pair with a Fraction
RREF and reduces every normal against each span, exactly as `arrangement`
did before the grouping table; it is kept here only as the reference.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Flat,
    Hyperplane,
    Multiarrangement,
    codim2_flats,
    euler_ziegler_multiplicity,
    intersection_lattice,
    is_locally_heavy,
    locally_heavy_indices,
    rank,
    restriction_flats,
)
from arrfree.exactalg import Matrix, linear_change_to_coordinate
from arrfree.fixtures import load

# ---------------------------------------------------------------------------
# the pairwise reference


def _reduce_against(rows, pivots, v):
    w = list(v)
    for row, p in zip(rows, pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return w


def ref_span_flat(a, seed_normals):
    red, pivots = Matrix(seed_normals).rref()
    rows = tuple(red.entries[i] for i in range(len(pivots)))
    members = frozenset(
        k
        for k, h in enumerate(a.hyperplanes)
        if all(x == 0 for x in _reduce_against(rows, pivots, h.normal))
    )
    return Flat(len(rows), members, rows)


def ref_restriction_flats(a, i0):
    flats = {}
    for k in range(a.size):
        if k != i0:
            f = ref_span_flat(a, [a.hyperplanes[i0].normal, a.hyperplanes[k].normal])
            flats.setdefault(f.basis, f)
    return sorted(flats.values(), key=lambda f: f.sorted_members())


def ref_codim2_flats(a):
    flats = {}
    for i, k in itertools.combinations(range(a.size), 2):
        f = ref_span_flat(a, [a.hyperplanes[i].normal, a.hyperplanes[k].normal])
        flats.setdefault(f.basis, f)
    return tuple(sorted(flats.values(), key=lambda f: f.sorted_members()))


def ref_locally_heavy_indices(a):
    out = []
    for i in range(a.size):
        if all(
            a.mult[i] >= sum(a.mult[k] for k in f.members if k != i)
            for f in ref_restriction_flats(a, i)
            if len(f.members) >= 3
        ):
            out.append(i)
    return out


def ref_euler_ziegler(a, i0):
    """(restricted arrangement, trace_members): every normal through the chart."""
    _, tinv = linear_change_to_coordinate(a.hyperplanes[i0].normal)
    groups = {}
    for k in range(a.size):
        if k == i0:
            continue
        alpha = a.hyperplanes[k].normal
        full = tuple(
            sum((alpha[i] * tinv.entries[i][j] for i in range(a.dim)), Fraction(0))
            for j in range(a.dim)
        )
        canon = Hyperplane.from_coeffs(full[1:]).normal
        members, m = groups.get(canon, ([], 0))
        groups[canon] = (members + [k], m + a.mult[k])
    order = sorted(groups, key=lambda c: min(groups[c][0]))
    restricted = Multiarrangement(
        a.dim - 1, tuple(Hyperplane(c) for c in order), tuple(groups[c][1] for c in order)
    )
    return restricted, tuple(frozenset(groups[c][0]) | {i0} for c in order)


def assert_matches_reference(a):
    for i in range(a.size):
        assert restriction_flats(a, i) == ref_restriction_flats(a, i)
        assert restriction_flats(a, a.hyperplanes[i]) == ref_restriction_flats(a, i)
    assert codim2_flats(a) == ref_codim2_flats(a)
    assert intersection_lattice(a, 2)[2] == ref_codim2_flats(a)
    lh = ref_locally_heavy_indices(a)
    assert locally_heavy_indices(a) == lh
    assert [i for i in range(a.size) if is_locally_heavy(a, i)] == lh
    for i in range(a.size):
        r = euler_ziegler_multiplicity(a, i)
        assert (r.arrangement, r.trace_members) == ref_euler_ziegler(a, i)


# ---------------------------------------------------------------------------
# generated arrangements

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])


@st.composite
def arrangements(draw):
    """Rank 3-5 multiarrangements with small integer and rational normals.

    Some are non-essential: one extra coordinate, a fixed linear combination
    of the others, sits at a drawn position, so the normals span a proper
    subspace without a zero column.
    """
    r = draw(st.integers(3, 5))
    n = draw(st.integers(r, 9))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=r, max_size=r), min_size=n, max_size=n))
    if draw(st.booleans()):
        combo = draw(st.lists(ENTRIES, min_size=r, max_size=r))
        pos = draw(st.integers(0, r))
        rows = [row[:pos] + [sum(c * x for c, x in zip(combo, row))] + row[pos:] for row in rows]
    planes = {}
    for row in rows:
        if any(x != 0 for x in row):
            h = Hyperplane.from_coeffs(row)
            planes.setdefault(h.normal, h)
    assume(len(planes) >= 3)
    mult = draw(st.lists(st.integers(1, 6), min_size=len(planes), max_size=len(planes)))
    a = Multiarrangement(len(rows[0]), tuple(planes.values()), tuple(mult))
    assume(rank(a) >= 3)
    return a


@settings(max_examples=80, deadline=None)
@given(arrangements())
def test_flat_table_matches_pairwise_reference(a):
    assert_matches_reference(a)


# ---------------------------------------------------------------------------
# fixtures and reflection arrangements


def _unit(i, dim=4):
    return [int(k == i) for k in range(dim)]


def _reflection(normals, mult=None):
    planes = tuple(Hyperplane.from_coeffs(v) for v in normals)
    return Multiarrangement(4, planes, tuple(mult or [1] * len(planes)))


D4 = [
    [s * x + y for x, y in zip(_unit(i), _unit(j))]
    for i, j in itertools.combinations(range(4), 2)
    for s in (1, -1)
]
B4 = [_unit(i) for i in range(4)] + D4
A4 = [_unit(i) for i in range(4)] + [
    [x - y for x, y in zip(_unit(i), _unit(j))] for i, j in itertools.combinations(range(4), 2)
]

FIXTURES = ["boolean", "boolean_234", "braid", "example1_a1_m0_2", "example52", "generic4", "rank4_flag"]


@pytest.mark.parametrize("name", FIXTURES)
def test_flat_table_matches_reference_on_fixtures(name):
    a = load(f"{name}.json")
    assert_matches_reference(a)
    assert_matches_reference(Multiarrangement(a.dim, a.hyperplanes, tuple(1 + i % 3 for i in range(a.size))))


@pytest.mark.parametrize("normals", [B4, D4, A4], ids=["B4", "D4", "A4"])
def test_flat_table_matches_reference_on_reflection_arrangements(normals):
    assert_matches_reference(_reflection(normals))
    assert_matches_reference(_reflection(normals, [1 + i % 4 for i in range(len(normals))]))
