"""The locally heavy hyperplanes of every Euler-Ziegler restriction, read from
the parent (`arrangement.restriction_heavy_indices`), against the
restrictions themselves; and the pruned flag search of the prover against
the unpruned one it replaced (`reference.ref_flag_search`)."""

import importlib
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Hyperplane,
    Multiarrangement,
    euler_ziegler_multiplicity,
    locally_heavy_indices,
    rank,
    restriction_heavy_indices,
)
from arrfree.certify import CertifyOptions, certify
from arrfree.fixtures import boolean3, braid3, generic4, rank4_flag_example

from reference import ref_flag_search

# the module, not the `certify` function the package exports under its name
certify_mod = importlib.import_module("arrfree.certify")

SMALL = st.integers(-2, 2)


def _multiarrangement(dim, rows, mult):
    planes = {}
    for row in rows:
        if any(row):
            planes.setdefault(Hyperplane.from_coeffs(row), None)
    return Multiarrangement(dim, tuple(planes), tuple(mult[: len(planes)]))


@st.composite
def arrangements(draw):
    """Dimension 2-5 and multiplicities 1-3: drawn normals, plus normals in
    the span of three drawn vectors, so that codim-3 flats with many points
    are common.  One or two hyperplanes give rows with no flat or one.  Some
    are non-essential: one coordinate is a fixed combination of the others."""
    dim = draw(st.integers(2, 5))
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


@settings(max_examples=300, deadline=None)
@given(arrangements())
def test_restriction_heavy_indices_match_the_restrictions(a):
    got = restriction_heavy_indices(a)
    assert len(got) == a.size
    for i in range(a.size):
        assert got[i] == locally_heavy_indices(euler_ziegler_multiplicity(a, i).arrangement)


def test_restriction_heavy_indices_need_a_restriction():
    with pytest.raises(ValueError, match="dimension >= 2"):
        restriction_heavy_indices(Multiarrangement(1, (Hyperplane((1,)),), (1,)))


@st.composite
def simple_arrangements(draw):
    dim = draw(st.integers(3, 5))
    rows = draw(st.lists(st.lists(SMALL, min_size=dim, max_size=dim), min_size=dim, max_size=9))
    a = _multiarrangement(dim, rows, [1] * len(rows))
    assume(rank(a) == dim)
    return a


def assert_pruned_walk_is_the_reference(a):
    start = [frozenset({i}) for i in range(a.size)]
    assert list(certify_mod._flag_search(a, start)) == list(ref_flag_search(a, start))


@settings(max_examples=60, deadline=None)
@given(simple_arrangements())
def test_pruned_flag_search_yields_the_reference_flags(a):
    assert_pruned_walk_is_the_reference(a)


@pytest.mark.parametrize("make", [rank4_flag_example, boolean3, braid3, generic4])
def test_pruned_flag_search_on_fixtures(make):
    assert_pruned_walk_is_the_reference(make())


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
    assert all(not heavy for heavy in restriction_heavy_indices(a))
    calls = _count_restrictions(monkeypatch)
    assert certify_mod._attempt_flag(a, CertifyOptions()) == "flag: no locally heavy flag"
    assert calls == []


def test_rank4_flag_still_certifies_with_its_flag(monkeypatch):
    calls = _count_restrictions(monkeypatch)
    v = certify(rank4_flag_example())
    assert v.kind == "Free" and v.certificate.rule == "FlagEquality"
    assert v.exponents == (1, 3, 3, 3)
    assert len(calls) == 3  # one restriction per level above the line
