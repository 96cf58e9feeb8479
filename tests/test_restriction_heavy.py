"""Every Euler-Ziegler restriction read from its parent's row
(`arrangement.restriction_rows`, `Level.restriction`) against the
restrictions themselves, level by level; and the flag walk on those levels,
the prover's and the verifier's walk of a cited flag, against the
restricting, unpruned one it replaced (`reference.ref_flag_search`)."""

import importlib
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Hyperplane,
    Level,
    Multiarrangement,
    _codim2_table,
    codim2_flats,
    euler_ziegler_multiplicity,
    locally_heavy_indices,
    rank,
    restriction_flats,
    restriction_rows,
)
from arrfree.certify import CertifyOptions, Flag, certify, verify_certificate
from arrfree.fixtures import boolean3, braid3, generic4, rank4_flag_example

from reference import ref_flag_search, ref_restriction_rows

# the module, not the `certify` function the package exports under its name
certify_mod = importlib.import_module("arrfree.certify")
arrangement_mod = importlib.import_module("arrfree.arrangement")

SMALL = st.integers(-2, 2)


def _multiarrangement(dim, rows, mult):
    planes = {}
    for row in rows:
        if any(row):
            planes.setdefault(Hyperplane.from_coeffs(row), None)
    return Multiarrangement(dim, tuple(planes), tuple(mult[: len(planes)]))


@st.composite
def arrangements(draw, dims=st.integers(2, 5)):
    """Dimension 2-5 (or as `dims` draws) and multiplicities 1-3: drawn
    normals, plus normals in the span of three drawn vectors, so that
    codim-3 flats with many points are common.  One or two hyperplanes give
    rows with no flat or one.  Some are non-essential: one coordinate is a
    fixed combination of the others."""
    dim = draw(dims)
    vectors = st.lists(SMALL, min_size=dim, max_size=dim)
    rows = draw(st.lists(vectors, min_size=1, max_size=6))
    if draw(st.booleans()):
        base = draw(st.lists(vectors, min_size=3, max_size=3))
        for c in draw(st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=3, max_size=6)):
            rows.append([sum(x * y for x, y in zip(c, col)) for col in zip(*base)])
    if dim >= 3 and draw(st.booleans()):
        combo = draw(st.lists(SMALL, min_size=dim - 1, max_size=dim - 1))
        pos = draw(st.integers(0, dim - 1))
        rows = [r[:pos] + [sum(c * x for c, x in zip(combo, r[:pos] + r[pos + 1 :]))] + r[pos + 1 :] for r in rows]
    mult = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    a = _multiarrangement(dim, rows, mult)
    assume(a.size >= 1)
    return a


def assert_level_is(level, m, depth):
    """The level has m's dimension, multiplicities and codim-2 table, and
    each row's child level equals m's Euler-Ziegler restriction onto that
    row's hyperplane: its multiplicities, member sets, codim-2 flats in
    member order and table rows, and its heavy points; then the same,
    `depth` levels further down, from the child level as the walk builds it
    (a child of dimension >= 4 groups on the residues handed down as its
    normals)."""
    assert level.dim == m.dim and level.mult == m.mult
    assert level.rows == tuple(tuple(f.members for f in row) for row in _codim2_table(m.hyperplanes)[1])
    if m.dim < 2:
        return
    rows = list(restriction_rows(level))
    assert len(rows) == m.size
    for k, row in enumerate(rows):
        r = euler_ziegler_multiplicity(m, k)
        assert row.mult == list(r.mult)
        assert row.heavy == locally_heavy_indices(r)
        assert row.lines == [list(f.sorted_members()) for f in codim2_flats(r)]
        child = level.restriction(k, row)
        traces = [f.members for f in restriction_flats(m, k)]
        assert child.members == tuple(frozenset().union(*(level.members[j] for j in tm)) for tm in traces)
        assert (child.normals is not None) == (child.dim >= 4)
        if depth:
            assert_level_is(child, r, depth - 1)
        else:
            assert child.mult == r.mult
            assert child.rows == tuple(tuple(f.members for f in row) for row in _codim2_table(r.hyperplanes)[1])


@settings(max_examples=300, deadline=None)
@given(arrangements())
def test_restriction_rows_match_the_restrictions(a):
    top = Level.of(a)
    assert top.members == tuple(frozenset({i}) for i in range(a.size))
    assert_level_is(top, a, a.dim)


def assert_rows_are_the_reference(level, depth):
    """The level's rows equal, whole, those of the row step it replaced
    (`reference.ref_restriction_rows`): heavy points, multiplicities, lines
    and residues; then the same on every child level the walk builds from
    them, `depth` levels further down."""
    rows = list(restriction_rows(level))
    assert rows == list(ref_restriction_rows(level))
    if depth and level.dim >= 3:
        for k, row in enumerate(rows):
            assert_rows_are_the_reference(level.restriction(k, row), depth - 1)


@settings(max_examples=300, deadline=None)
@given(arrangements())
def test_restriction_rows_match_the_reference_row_step(a):
    assert_rows_are_the_reference(Level.of(a), a.dim)


@settings(max_examples=40, deadline=None)
@given(arrangements(dims=st.just(6)))
def test_restriction_rows_match_the_reference_row_step_in_dimension_6(a):
    # levels 6, 5 and 4: the dimension-4 level groups its lines on residues
    # handed down twice, by the dimension-6 and the dimension-5 rows
    assert_rows_are_the_reference(Level.of(a), 2)


def test_restriction_rows_match_the_reference_row_step_on_braid_a5():
    # the 15 hyperplanes x_i - x_j of K^6 (rank 5): every row has 10 points,
    # on lines of 2 and 3 points
    normals = [[int(k == i) - int(k == j) for k in range(6)] for i, j in itertools.combinations(range(6), 2)]
    a = Multiarrangement(6, tuple(Hyperplane.from_coeffs(v) for v in normals), (1,) * len(normals))
    top = Level.of(a)
    assert {len(row) for row in top.rows} == {10}
    assert_rows_are_the_reference(top, 2)


def test_restriction_rows_need_a_restriction():
    with pytest.raises(ValueError, match="dimension >= 2"):
        list(restriction_rows(Level.of(Multiarrangement(1, (Hyperplane((1,)),), (1,)))))


@st.composite
def simple_arrangements(draw):
    dim = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(SMALL, min_size=dim, max_size=dim), min_size=dim, max_size=9))
    a = _multiarrangement(dim, rows, [1] * len(rows))
    assume(rank(a) == dim)
    return a


def _tail_mult(tail):
    return None if tail is None else tuple(tail.mult)


def assert_pruned_walk_is_the_reference(a):
    # the walk's flags and their tails, a Level here and a Multiarrangement
    # in the reference, compared by multiplicities; and the walk of each
    # flag's cited chain yields exactly that flag and tail
    top = Level.of(a)
    walked = list(certify_mod._heavy_flags(top))
    ref = ref_flag_search(a, [frozenset({i}) for i in range(a.size)])
    assert [(f, _tail_mult(t)) for f, t in walked] == [(f, _tail_mult(t)) for f, t in ref]
    for f, tail in walked:
        assert list(certify_mod._heavy_flags(top, f.members_chain)) == [(f, tail)]
    return [f for f, _ in walked]


@settings(max_examples=60, deadline=None)
@given(simple_arrangements())
def test_pruned_flag_search_yields_the_reference_flags(a):
    assert_pruned_walk_is_the_reference(a)


@pytest.mark.parametrize("make", [rank4_flag_example, boolean3, braid3, generic4])
def test_pruned_flag_search_on_fixtures(make):
    assert_pruned_walk_is_the_reference(make())


@st.composite
def nonessential_arrangements(draw):
    """Simple, dimension 3-6, rank below the dimension: one coordinate of
    every normal is a fixed combination of the others."""
    dim = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(SMALL, min_size=dim - 1, max_size=dim - 1), min_size=1, max_size=9))
    combo = draw(st.lists(SMALL, min_size=dim - 1, max_size=dim - 1))
    pos = draw(st.integers(0, dim - 1))
    rows = [r[:pos] + [sum(c * x for c, x in zip(combo, r))] + r[pos:] for r in rows]
    a = _multiarrangement(dim, rows, [1] * len(rows))
    assume(a.size >= 1)
    return a


@settings(max_examples=60, deadline=None)
@given(nonessential_arrangements())
def test_flag_walk_on_nonessential_inputs(a):
    # a level of rank 1 has one hyperplane and no point, so no flag reaches
    # the line; certify decides by the other rules, and its verdict
    # re-verifies
    assert rank(a) < a.dim
    assert assert_pruned_walk_is_the_reference(a) == []
    v = certify(a)
    got = verify_certificate(a, v.to_dict())
    assert (got.kind, got.exponents) == (v.kind, v.exponents)


def _reflection(normals):
    return Multiarrangement(4, tuple(Hyperplane.from_coeffs(v) for v in normals), (1,) * len(normals))


def _unit(i, s=0, j=None):
    return [1 if k == i else s if k == j else 0 for k in range(4)]


D4 = [_unit(i, s, j) for i, j in itertools.combinations(range(4), 2) for s in (1, -1)]
B4 = [_unit(i) for i in range(4)] + D4
A4 = [_unit(i) for i in range(4)] + [_unit(i, -1, j) for i, j in itertools.combinations(range(4), 2)]


def _count_restrictions(monkeypatch):
    calls = []
    real = certify_mod.euler_ziegler_multiplicity

    def counted(m, h0):
        calls.append(h0)
        return real(m, h0)

    monkeypatch.setattr(certify_mod, "euler_ziegler_multiplicity", counted)
    return calls


@pytest.mark.parametrize("normals", [D4, B4, A4], ids=["D4", "B4", "A4"])
def test_flag_search_restricts_nowhere_without_a_heavy_restriction(monkeypatch, normals):
    # no restriction of D4, B4 or A4 has a locally heavy hyperplane, so the
    # pruned search decides "no flag" without one Euler-Ziegler restriction
    a = _reflection(normals)
    assert all(not row.heavy for row in restriction_rows(Level.of(a)))
    calls = _count_restrictions(monkeypatch)
    assert certify_mod._attempt_flag(a, CertifyOptions()) == "flag: no locally heavy flag"
    assert calls == []


def test_flag_walk_restricts_nowhere_below_heavy_restrictions(monkeypatch):
    # every restriction of x, y, z, w, x - y, z - w has a locally heavy
    # hyperplane, so a walk that restricts builds all six, yet no flag
    # reaches the line; the walk on the parent's rows decides that without
    # one Euler-Ziegler restriction
    a = _reflection([_unit(0), _unit(1), _unit(2), _unit(3), _unit(0, -1, 1), _unit(2, -1, 3)])
    assert all(row.heavy for row in restriction_rows(Level.of(a)))
    assert list(ref_flag_search(a, [frozenset({i}) for i in range(a.size)])) == []
    calls = _count_restrictions(monkeypatch)
    assert certify_mod._attempt_flag(a, CertifyOptions()) == "flag: no locally heavy flag"
    assert calls == []


def test_rank4_flag_still_certifies_with_its_flag(monkeypatch):
    calls = _count_restrictions(monkeypatch)
    v = certify(rank4_flag_example())
    assert v.kind == "Free" and v.certificate.rule == "FlagEquality"
    assert v.exponents == (1, 3, 3, 3)
    # the walk restricts nowhere, and the least flag is decided from the
    # tail the walk yields with it, with no second walk
    assert calls == []


def test_cited_walk_builds_rows_only_up_to_its_hyperplanes(monkeypatch):
    # on each level above the line, the walk of a cited chain builds rows
    # 0..k, k the index of the cited hyperplane there, and no row past it
    a = rank4_flag_example()
    chain = next(certify_mod._heavy_flags(Level.of(a)))[0].members_chain
    level, wanted, every = Level.of(a), 0, 0
    for members in chain[:-1]:
        k = level.members.index(members)
        wanted, every = wanted + k + 1, every + len(level.members)
        level = level.restriction(k, list(restriction_rows(level))[k])
    assert wanted < every
    built = []
    real = arrangement_mod.RestrictionRow
    monkeypatch.setattr(arrangement_mod, "RestrictionRow", lambda *row: built.append(row) or real(*row))
    certify_mod.certify_flag(a, Flag(chain, (1, 3, 3, 3)))
    assert len(built) == wanted


def test_rank5_flag_walks_through_residue_normals():
    # x1, ..., x5, x4 + x5, x1 - x3, x2 + x3, x3 - x4 - x5: the walk's
    # second level has dimension 4 and groups its lines on the residues
    # that the rank-5 level handed down as normals
    e = [[int(i == k) for k in range(5)] for i in range(5)]
    normals = e + [[0, 0, 0, 1, 1], [1, 0, -1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, -1, -1]]
    a = Multiarrangement(5, tuple(Hyperplane.from_coeffs(v) for v in normals), (1,) * len(normals))
    assert len(assert_pruned_walk_is_the_reference(a)) == 42
    v = certify(a)
    assert (v.kind, v.exponents, v.certificate.rule) == ("Free", (1, 2, 2, 2, 2), "FlagEquality")
