"""Differential tests of the flats against the Fraction-basis construction
they replaced.

The reference spans normals with a Fraction RREF and reduces every normal
against the span's rows, exactly as `arrangement` did when each flat carried
the RREF basis of its span: codimension-2 flats pairwise, higher ones by
extending a lower flat's basis by one normal, and rank-2 projections from
the pivot columns of that basis.  It is kept here only as the reference.
"""

import importlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Flat,
    Hyperplane,
    Multiarrangement,
    codim2_flats,
    essentialize,
    euler_ziegler_multiplicity,
    intersection_lattice,
    is_locally_heavy,
    localization,
    locally_heavy_indices,
    rank,
    restriction_flats,
)
from arrfree.betti import b2_simple
from arrfree.exactalg import Matrix, primitive_row
from arrfree.fixtures import load
from arrfree.rank2 import Rank2Instance, project_to_rank2
from conftest import FIXTURES
from reference import ref_codim2_table, ref_linear_change_to_coordinate, ref_span_lattice

arrangement_mod = importlib.import_module("arrfree.arrangement")
# the module, not the `certify` function the package exports under its name
certify_mod = importlib.import_module("arrfree.certify")
rank2_mod = importlib.import_module("arrfree.rank2")

# ---------------------------------------------------------------------------
# the Fraction-basis reference


def _reduce_against(rows, pivots, v):
    w = list(v)
    for row, p in zip(rows, pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return w


def ref_span(a, seed_normals):
    """The flat cut out by the seed normals and the RREF rows of their span."""
    red, pivots = Matrix(seed_normals).rref()
    rows = tuple(red.entries[i] for i in range(len(pivots)))
    members = frozenset(
        k
        for k, h in enumerate(a.hyperplanes)
        if all(x == 0 for x in _reduce_against(rows, pivots, h.normal))
    )
    return Flat(len(rows), members), rows


def ref_codim2_bases(a):
    """Members of every codim-2 flat -> RREF rows of its span, from every
    hyperplane pair."""
    bases = {}
    for i, k in itertools.combinations(range(a.size), 2):
        f, rows = ref_span(a, [a.hyperplanes[i].normal, a.hyperplanes[k].normal])
        bases.setdefault(f.members, rows)
    return bases


def _flats(codim, members):
    return tuple(Flat(codim, m) for m in sorted(members, key=sorted))


def ref_codim2_flats(a):
    return _flats(2, ref_codim2_bases(a))


def ref_restriction_flats(a, i0):
    return list(_flats(2, [m for m in ref_codim2_bases(a) if i0 in m]))


def ref_lattice(a, max_codim):
    """Each level extends the bases of the level below by one normal and
    keeps the spans that grow by one."""
    levels = {1: {frozenset({i}): ref_span(a, [h.normal])[1] for i, h in enumerate(a.hyperplanes)}}
    if max_codim >= 2:
        levels[2] = ref_codim2_bases(a)
    for r in range(2, max_codim):
        nxt = {}
        for members, rows in levels[r].items():
            for k, h in enumerate(a.hyperplanes):
                if k not in members:
                    g, g_rows = ref_span(a, list(rows) + [h.normal])
                    if g.codim == r + 1:
                        nxt.setdefault(g.members, g_rows)
        levels[r + 1] = nxt
    return {r: _flats(r, level) for r, level in levels.items() if r <= max_codim}


def ref_localization(a, x):
    idx = sorted(x.members)
    span, _ = ref_span(a, [a.hyperplanes[k].normal for k in idx])
    if span != x:
        raise ValueError("not a flat of this arrangement")
    return Multiarrangement(
        a.dim,
        tuple(a.hyperplanes[i] for i in idx),
        tuple(a.mult[i] for i in idx),
        tuple(a.label(i) for i in idx),
    )


def ref_projection(a, members, rows):
    """(forms, mult) of a codim-2 flat, read at the pivot columns of its basis
    off the rational normals whose first nonzero entry is 1."""
    p1, p2 = (next(j for j, c in enumerate(r) if c != 0) for r in rows)
    idx = sorted(members)
    return tuple((a.hyperplanes[k].normal[p1], a.hyperplanes[k].normal[p2]) for k in idx), tuple(a.mult[k] for k in idx)


def same_forms(got, want):
    """Each form of `got` is a positive multiple of the same form of `want`:
    dividing by a positive gcd keeps the sign, so the primitive rows agree."""
    return len(got) == len(want) and all(primitive_row(g) == primitive_row(w) for g, w in zip(got, want))


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
    """(restricted arrangement, member set of each restricted hyperplane):
    every normal through the chart."""
    _, tinv = ref_linear_change_to_coordinate(a.hyperplanes[i0].normal)
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
        a.dim - 1, tuple(Hyperplane.from_coeffs(c) for c in order), tuple(groups[c][1] for c in order)
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
        members = tuple(f.members for f in restriction_flats(a, i))
        assert (euler_ziegler_multiplicity(a, i), members) == ref_euler_ziegler(a, i)


def assert_projections_match_reference(a):
    for members, rows in ref_codim2_bases(a).items():
        inst = project_to_rank2(a, Flat(2, members))
        forms, mult = ref_projection(a, members, rows)
        assert same_forms(inst.forms, forms) and inst.mult == mult
        assert inst.source == tuple(sorted(members))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def assert_lattice_matches_reference(a):
    levels = intersection_lattice(a, a.dim)
    assert levels == ref_lattice(a, a.dim)
    for flats in levels.values():
        for f in flats:
            assert localization(a, f) == ref_localization(a, f)
            # the members less the least one: a flat only when it is closed
            # under the span, which both constructions decide alike
            if len(f.members) > 1:
                sub = Flat(f.codim, f.members - {min(f.members)})
                assert _outcome(localization, a, sub) == _outcome(ref_localization, a, sub)


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


@settings(max_examples=80, deadline=None)
@given(arrangements())
def test_projection_matches_basis_pivots(a):
    assert_projections_match_reference(a)


@settings(max_examples=20, deadline=None)
@given(arrangements())
def test_lattice_and_localization_match_reference(a):
    assert_lattice_matches_reference(a)


@settings(max_examples=60, deadline=None)
@given(arrangements(), st.data())
def test_span_and_localization_match_reference_on_dependent_seeds(a, data):
    # any set of member normals, dependent ones included: the flat of their
    # Fraction span is a flat that localization takes, and the given members
    # name one only when they are closed under the span
    idx = data.draw(st.lists(st.integers(0, a.size - 1), min_size=1, max_size=a.size, unique=True))
    seeds = [a.hyperplanes[k].coeffs for k in idx]
    want, _ = ref_span(a, seeds)
    assert localization(a, want) == ref_localization(a, want)
    given_members = Flat(want.codim, frozenset(idx))
    assert _outcome(localization, a, given_members) == _outcome(ref_localization, a, given_members)


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_lattice_matches_span_construction(a):
    # dependent (non-essential) and rational inputs: the residue grouping
    # finds the flats that spanning and scanning every normal found
    assert intersection_lattice(a, a.dim) == ref_span_lattice(a, a.dim)


def test_localization_refuses_a_member_set_that_is_not_closed():
    # x + y lies in the span of x and y, so {x, y} misses a hyperplane that
    # contains its flat; {x, y, z} misses it too, one level up
    a = Multiarrangement(3, tuple(Hyperplane(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))), (1, 2, 3, 4))
    assert localization(a, Flat(2, frozenset({0, 1, 3}))).mult == (1, 2, 4)
    for members, codim in (({0, 1}, 2), ({1, 3}, 2), ({0, 1, 2}, 3), ({0, 1, 3}, 3), ({0, 2}, 3)):
        with pytest.raises(ValueError, match="not a flat"):
            localization(a, Flat(codim, frozenset(members)))


@st.composite
def rank2_arrangements(draw):
    """Rank-2 multiarrangements in dimension 2 to 4: combinations of two
    independent drawn vectors."""
    dim = draw(st.integers(2, 4))
    base = draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), min_size=2, max_size=2))
    assume(Matrix(base).rank() == 2)
    coeffs = draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=2, max_size=7))
    planes = {}
    for c in coeffs:
        row = [c[0] * x + c[1] * y for x, y in zip(*base)]
        if any(x != 0 for x in row):
            h = Hyperplane.from_coeffs(row)
            planes.setdefault(h.normal, h)
    assume(len(planes) >= 2)
    mult = draw(st.lists(st.integers(1, 6), min_size=len(planes), max_size=len(planes)))
    a = Multiarrangement(dim, tuple(planes.values()), tuple(mult))
    assume(rank(a) == 2)
    return a


def assert_rank2_base_matches_essentialize(a):
    """The projection of the whole rank-2 arrangement is the instance the
    essential arrangement's normals give, and the rank-2 base case projects
    it exactly when the multiplicities do not fix its exponents."""
    ess, _ = essentialize(a)
    want = Rank2Instance(tuple(h.normal for h in ess.hyperplanes), ess.mult)
    got = project_to_rank2(a, Flat(2, frozenset(range(a.size))))
    assert same_forms(got.forms, want.forms) and got.mult == want.mult
    with mock.patch.object(rank2_mod, "project_to_rank2", wraps=project_to_rank2) as spy:
        certify_mod._rank2_base(a)
    assert spy.call_count == (rank2_mod._closed_d1(a.mult) is None)


@settings(max_examples=80, deadline=None)
@given(rank2_arrangements())
def test_rank2_base_instance_matches_essentialize(a):
    assert_rank2_base_matches_essentialize(a)


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


@pytest.mark.parametrize("name", FIXTURES)
def test_flat_table_matches_reference_on_fixtures(name):
    a = load(f"{name}.json")
    assert_matches_reference(a)
    assert_matches_reference(Multiarrangement(a.dim, a.hyperplanes, tuple(1 + i % 3 for i in range(a.size))))


@pytest.mark.parametrize("normals", [B4, D4, A4], ids=["B4", "D4", "A4"])
def test_flat_table_matches_reference_on_reflection_arrangements(normals):
    assert_matches_reference(_reflection(normals))
    assert_matches_reference(_reflection(normals, [1 + i % 4 for i in range(len(normals))]))


@pytest.mark.parametrize("name", FIXTURES)
def test_projection_lattice_localization_match_reference_on_fixtures(name):
    a = load(f"{name}.json")
    assert_projections_match_reference(a)
    assert_lattice_matches_reference(a)


@pytest.mark.parametrize("normals", [B4, D4, A4], ids=["B4", "D4", "A4"])
def test_projection_lattice_localization_match_reference_on_reflection_arrangements(normals):
    a = _reflection(normals, [1 + i % 4 for i in range(len(normals))])
    assert_projections_match_reference(a)
    assert_lattice_matches_reference(a)
    for members in ref_codim2_bases(a):
        assert_rank2_base_matches_essentialize(localization(a, Flat(2, members)))


def test_lattice_matches_span_construction_on_fixtures_and_reflection_arrangements():
    inputs = [load(f"{name}.json") for name in FIXTURES] + [_reflection(n) for n in (B4, D4, A4)]
    # B4 padded by a zero coordinate: its flats of codimension 5 are none
    b4 = inputs[-3]
    inputs.append(Multiarrangement(5, tuple(Hyperplane(h.coeffs + (0,)) for h in b4.hyperplanes), b4.mult))
    for a in inputs:
        assert intersection_lattice(a, a.dim) == ref_span_lattice(a, a.dim)


# ---------------------------------------------------------------------------
# the unordered-pair table build against the ordered-pair reference

SMALL = st.integers(-3, 3)


@st.composite
def pencil_arrangements(draw):
    """Hyperplanes in dimension 1-5, often non-essential: some drawn normals,
    plus pencils of three to five normals in the span of two drawn vectors,
    so that codim-2 flats with four or more members are common."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(SMALL, min_size=dim, max_size=dim)
    rows = draw(st.lists(vectors, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        b0, b1 = draw(vectors), draw(vectors)
        for c0, c1 in draw(st.lists(st.tuples(SMALL, SMALL), min_size=3, max_size=5)):
            rows.append([c0 * x + c1 * y for x, y in zip(b0, b1)])
    planes = dict.fromkeys(Hyperplane.from_coeffs(row) for row in rows if any(row))
    return Multiarrangement(dim, tuple(planes), (1,) * len(planes))


def assert_table_matches_reference(hyperplanes):
    flats, rows = arrangement_mod._codim2_table.__wrapped__(hyperplanes)
    assert (flats, rows) == ref_codim2_table(hyperplanes)
    by_members = {f.members: f for f in flats}
    assert len(by_members) == len(flats)
    for row in rows:
        for f in row:
            assert f is by_members[f.members]


def assert_table_work_is_b2(a):
    """One uncached build reduces sum(|X| - 1) residues over the flats X:
    b2 of the underlying simple arrangement."""
    want = b2_simple(a.underlying_simple()).total
    assert want == sum(len(f.members) - 1 for f in ref_codim2_table(a.hyperplanes)[0])
    with mock.patch.object(arrangement_mod, "primitive_form", wraps=arrangement_mod.primitive_form) as spy:
        arrangement_mod._codim2_table.__wrapped__(a.hyperplanes)
    assert spy.call_count == want


@settings(max_examples=200, deadline=None)
@given(pencil_arrangements())
def test_codim2_table_matches_ordered_pair_reference(a):
    assert_table_matches_reference(a.hyperplanes)


@settings(max_examples=200, deadline=None)
@given(pencil_arrangements())
def test_codim2_table_reduces_b2_residues(a):
    assert_table_work_is_b2(a)


def test_codim2_table_on_fixtures_and_reflection_arrangements():
    inputs = [load(f"{name}.json") for name in FIXTURES] + [_reflection(n) for n in (B4, D4, A4)]
    # B4 padded by a zero coordinate: a non-essential input
    b4 = inputs[-3]
    inputs.append(Multiarrangement(5, tuple(Hyperplane(h.coeffs + (0,)) for h in b4.hyperplanes), b4.mult))
    assert rank(inputs[-1]) == 4
    assert max(len(f.members) for f in codim2_flats(b4)) == 4
    for a in inputs:
        assert_table_matches_reference(a.hyperplanes)
        assert_table_work_is_b2(a)
