import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arrfree.rank2 as rank2_mod
from arrfree.arrangement import Flat, codim2_flats, parse
from arrfree.dspace import derivation_basis, derivation_dim
from arrfree.fixtures import boolean3, braid3, example_a3
from arrfree.rank2 import (
    Rank2Instance,
    euler_multiplicity_at_flat,
    project_to_rank2,
    rank2_exponents,
)
from conftest import random_multiarrangement
from reference import ref_euler_multiplicity_at_flat, ref_project_to_rank2, ref_rank2_exponents

F = Fraction

X = (F(1), F(0))
Y = (F(0), F(1))
XMY = (F(1), F(-1))


def inst(forms, mult):
    return Rank2Instance(tuple(tuple(F(c) for c in f) for f in forms), tuple(mult))


def _random_forms(rng, count):
    seen = set()
    forms = []
    while len(forms) < count:
        f = (rng.randint(-3, 3), rng.randint(-3, 3))
        if f == (0, 0):
            continue
        lead = next(c for c in f if c != 0)
        canon = tuple(F(c) / lead for c in f)
        if canon in seen:
            continue
        seen.add(canon)
        forms.append(canon)
    return forms


# ---------------------------------------------------------------------------
# projection


def test_project_boolean_flat():
    a = boolean3()
    f = next(f for f in codim2_flats(a) if f.members == frozenset({0, 1}))
    r2 = project_to_rank2(a, f)
    assert set(r2.forms) == {X, Y}


def test_project_braid_triple():
    a = braid3()
    f = next(f for f in codim2_flats(a) if len(f.members) == 3 and 0 in f.members)
    r2 = project_to_rank2(a, f)
    assert len(set(r2.forms)) == 3


def test_project_example1_triple_keeps_multiplicities():
    a = example_a3(2, 4)
    f = next(f for f in codim2_flats(a) if f.members == frozenset({0, 2, 5}))
    r2 = project_to_rank2(a, f)
    assert sorted(r2.mult) == [2, 2, 4]
    assert len(r2.forms) == 3


def test_project_needs_codim2():
    a = boolean3()
    from arrfree.arrangement import intersection_lattice

    f = intersection_lattice(a, 1)[1][0]
    with pytest.raises(ValueError):
        project_to_rank2(a, f)


@pytest.mark.parametrize(
    "hyperplanes, members, codim",
    [
        (None, {0, 9}, 2),
        (None, {-1, 0}, 2),
        (None, {0, 1, 3}, 3),
        (None, {0}, 2),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1]], {0, 1, 2}, 2),
    ],
    ids=[
        "index past the end",
        "negative index",
        "wrong codim",
        "single member",
        "third normal off the plane",
    ],
)
def test_project_rejects_foreign_flat(hyperplanes, members, codim):
    # with the same message as the projection by a Cramer identity
    a = braid3() if hyperplanes is None else parse({"dim": 3, "hyperplanes": hyperplanes, "mult": [1] * 3})
    with pytest.raises(ValueError) as got:
        project_to_rank2(a, Flat(codim, frozenset(members)))
    with pytest.raises(ValueError) as want:
        ref_project_to_rank2(a, Flat(codim, frozenset(members)))
    assert str(got.value) == str(want.value)


def test_project_rejects_part_of_a_flat():
    # braid's flat {0, 1, 3} has exponents (1, 2); its part {0, 1} spans
    # the same plane but is not a flat, and would project to (1, 1)
    a = braid3()
    assert rank2_exponents(project_to_rank2(a, Flat(2, frozenset({0, 1, 3})))) == (1, 2)
    with pytest.raises(ValueError, match="^not a flat of this arrangement$"):
        project_to_rank2(a, Flat(2, frozenset({0, 1})))


@pytest.mark.parametrize("dim", [3, 4])
def test_project_rejects_every_part_of_a_flat(dim):
    # every proper part of at least two members of a flat of 3 or more
    rng = random.Random(100 + dim)
    parts = 0
    for _ in range(20):
        a = random_multiarrangement(rng, dim=dim, max_planes=8, entry=1)
        for f in codim2_flats(a):
            for k in range(2, len(f.members)):
                for part in itertools.combinations(f.sorted_members(), k):
                    with pytest.raises(ValueError, match="^not a flat of this arrangement$"):
                        project_to_rank2(a, Flat(2, frozenset(part)))
                    parts += 1
    assert parts


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_project_matches_the_cramer_reference(dim):
    # every codim-2 flat of random arrangements; entries in -1..1 give
    # flats of 3 and more members, whose further normals the reference
    # checks against the plane, in every dimension
    rng = random.Random(dim)
    members = []
    for _ in range(40):
        a = random_multiarrangement(rng, dim=dim, max_planes=8, entry=1)
        for f in codim2_flats(a):
            assert project_to_rank2(a, f) == ref_project_to_rank2(a, f)
            members.append(len(f.members))
    assert max(members) >= 3


# ---------------------------------------------------------------------------
# exponents


def test_two_forms_exponents_are_multiplicities():
    assert rank2_exponents(inst([X, Y], (3, 5))) == (3, 5)
    assert rank2_exponents(inst([X, XMY], (7, 2))) == (2, 7)


def test_balanced_triple():
    assert rank2_exponents(inst([X, Y, XMY], (2, 2, 2))) == (3, 3)


def test_heavy_triple():
    d = rank2_exponents(inst([X, Y, XMY], (5, 2, 2)))
    assert d == (4, 5)
    assert sorted(d) == sorted((5, 9 - 5))


def test_exponent_sum_is_total_multiplicity():
    rng = random.Random(5)
    for _ in range(25):
        forms = _random_forms(rng, rng.randint(2, 4))
        mult = tuple(rng.randint(1, 4) for _ in forms)
        d1, d2 = rank2_exponents(inst(forms, mult))
        assert d1 + d2 == sum(mult)
        assert 1 <= d1 <= d2


def test_heavy_formula_random():
    rng = random.Random(6)
    for _ in range(50):
        forms = _random_forms(rng, rng.randint(3, 4))
        rest = [rng.randint(1, 4) for _ in forms[1:]]
        m0 = sum(rest) + rng.randint(0, 3)
        i = inst(forms, (m0, *rest))
        assert rank2_exponents(i) == ref_rank2_exponents(i) == tuple(sorted((m0, sum(rest))))


def test_balanced_three_form_random():
    rng = random.Random(8)
    done = 0
    while done < 50:
        forms = _random_forms(rng, 3)
        mult = tuple(rng.randint(1, 4) for _ in range(3))
        if 2 * max(mult) > sum(mult):  # has a heavy form; not the balanced case
            continue
        total = sum(mult)
        i = inst(forms, mult)
        assert rank2_exponents(i) == ref_rank2_exponents(i) == (total // 2, (total + 1) // 2)
        done += 1


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
def test_exponents_invariant_under_gl2(seed, g):
    assume(g[0] * g[3] - g[1] * g[2] != 0)
    rng = random.Random(seed)
    forms = _random_forms(rng, rng.randint(2, 4))
    mult = tuple(rng.randint(1, 3) for _ in forms)
    base = rank2_exponents(inst(forms, mult))
    moved = [(f[0] * g[0] + f[1] * g[2], f[0] * g[1] + f[1] * g[3]) for f in forms]
    assert rank2_exponents(inst(moved, mult)) == base


# ---------------------------------------------------------------------------
# one graded solve against the degree-by-degree search


def _reference_exponents(i):
    """The smallest degree with a nonzero derivation, searched upward."""
    total = i.total_mult
    d1 = next(d for d in range(total // 2 + 1) if derivation_basis(i.forms, i.mult, d))
    return d1, total - d1


# (forms, multiplicities, exponents)
EDGE_CASES = [
    ([X, Y], (3, 5), (3, 5)),  # two forms
    ([X, XMY], (7, 2), (2, 7)),
    ([X, Y, XMY], (7, 2, 2), (4, 7)),  # strictly heavy: |m| - max m is the binding term
    ([X, Y, XMY, (F(1), F(1))], (9, 1, 2, 1), (4, 9)),
    ([X, Y, XMY], (3, 1, 1), (2, 3)),  # 2 max m = |m| + 1: both terms equal
    ([X, Y, XMY], (4, 2, 2), (4, 4)),  # max m = |m|/2 exactly
    ([X, Y, XMY, (F(1), F(2))], (5, 1, 2, 2), (5, 5)),
    ([X, Y, XMY], (2, 2, 2), (3, 3)),  # even |m| with d1 = d2
    ([X, Y, XMY, (F(1), F(1))], (2, 2, 2, 2), (4, 4)),  # B2, constant multiplicity 2
] + [
    ([(F(1), F(k)) for k in range(n - 1)] + [Y], (1,) * n, (1, n - 1))  # simple lines
    for n in range(5, 9)
] + [
    ([X, Y, XMY, (F(1), F(1)), (F(1), F(2))], (3, 2, 2, 1, 1), (4, 5)),  # five lines, none heavy
]


@pytest.mark.parametrize("forms, mult, exps", EDGE_CASES)
def test_one_solve_matches_search_on_edge_cases(forms, mult, exps):
    i = inst(forms, mult)
    assert rank2_exponents(i) == _reference_exponents(i) == exps


_forms_strategy = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda f: f != (0, 0)),
    min_size=2,
    max_size=6,
    unique_by=lambda f: (F(f[0], f[1]) if f[1] else None),
)


@settings(max_examples=20, deadline=None)
@given(_forms_strategy, st.data())
def test_one_solve_matches_search(forms, data):
    mult = data.draw(st.tuples(*[st.integers(1, 12) for _ in forms]))
    i = inst(forms, mult)
    assert rank2_exponents(i) == _reference_exponents(i)


def _fixed_by_multiplicities(mult):
    """A heavy line, three lines, or a simple instance."""
    return 2 * max(mult) >= sum(mult) or len(mult) == 3 or max(mult) == 1


@pytest.mark.parametrize("forms, mult, exps", EDGE_CASES)
def test_exponents_from_one_solve(monkeypatch, forms, mult, exps):
    # no derivation_dim call where the multiplicities fix d1; else one, at
    # ceil(|m|/2) - 1
    degrees = []

    def recording(fs, ms, degree):
        degrees.append(degree)
        return derivation_dim(fs, ms, degree)

    monkeypatch.setattr(rank2_mod, "derivation_dim", recording)
    rank2_mod._min_degree_basis.cache_clear()
    assert rank2_exponents(inst(forms, mult)) == exps
    assert degrees == ([] if _fixed_by_multiplicities(mult) else [(sum(mult) + 1) // 2 - 1])


# ---------------------------------------------------------------------------
# closed forms against the graded solve


@pytest.mark.parametrize(
    "forms", [[X, Y, (F(1), F(1))], [(F(1), F(2)), (F(3), F(-1)), (F(2), F(5))]], ids=["x,y,x+y", "skew"]
)
def test_closed_forms_match_solve_on_three_lines(forms):
    for mult in itertools.product(range(1, 11), repeat=3):
        d1 = rank2_mod._closed_d1(mult)
        assert (d1, sum(mult) - d1) == ref_rank2_exponents(inst(forms, mult))


@settings(max_examples=60, deadline=None)
@given(_forms_strategy, st.sampled_from(["any", "heavy", "boundary", "simple"]), st.data())
def test_closed_forms_match_solve(forms, shape, data):
    rest = data.draw(st.tuples(*[st.integers(1, 6) for _ in forms[1:]]))
    if shape == "heavy":
        top = sum(rest) + data.draw(st.integers(0, 4))
    elif shape == "boundary":  # 2 m_H = |m| exactly
        top = sum(rest)
    else:
        top = data.draw(st.integers(1, 6))
    at = data.draw(st.integers(0, len(rest)))
    mult = (1,) * len(forms) if shape == "simple" else (*rest[:at], top, *rest[at:])
    i = inst(forms, mult)
    d1 = rank2_mod._closed_d1(mult)
    assert (d1 is None) == (not _fixed_by_multiplicities(mult))
    if d1 is not None:
        assert (d1, i.total_mult - d1) == ref_rank2_exponents(i)
    assert rank2_exponents(i) == ref_rank2_exponents(i)


def test_large_multiplicities_need_no_solve(monkeypatch):
    def never(*args):
        raise AssertionError("derivation_dim must not run")

    monkeypatch.setattr(rank2_mod, "derivation_dim", never)
    rank2_mod._min_degree_basis.cache_clear()
    assert rank2_exponents(inst([X, Y, (F(1), F(1))], (400, 400, 400))) == (600, 600)


# ---------------------------------------------------------------------------
# Euler multiplicity


def test_euler_mult_simple_triple():
    assert euler_multiplicity_at_flat(inst([X, Y, XMY], (1, 1, 1)), 0) == 1


def test_euler_mult_heavy_case():
    # hand oracle for x^5 y^2 (x-y)^2: the only degree-4 member is
    # (0, c*y^2(x-y)^2), whose second coefficient is not divisible by x,
    # so m* = 4 = |m| - m0
    assert euler_multiplicity_at_flat(inst([X, Y, XMY], (5, 2, 2)), 0) == 4


def test_euler_mult_heavy_matches_euler_ziegler_value():
    rng = random.Random(9)
    for _ in range(25):
        forms = _random_forms(rng, rng.randint(3, 4))
        rest = [rng.randint(1, 3) for _ in forms[1:]]
        m0 = sum(rest) + rng.randint(0, 2)
        i = inst(forms, (m0, *rest))
        assert euler_multiplicity_at_flat(i, 0) == sum(rest)


def test_euler_mult_in_d1_d2():
    rng = random.Random(10)
    for _ in range(25):
        forms = _random_forms(rng, rng.randint(2, 4))
        mult = tuple(rng.randint(1, 4) for _ in forms)
        i = inst(forms, mult)
        d1, d2 = rank2_exponents(i)
        for h0 in range(len(forms)):
            assert euler_multiplicity_at_flat(i, h0) in (d1, d2)


@settings(max_examples=40, deadline=None)
@given(_forms_strategy, st.data())
def test_euler_mult_matches_polynomial_division_reference(forms, data):
    # integer quotients by the primitive form, against Fraction lex division
    # by the form as given (halved or not)
    mult = data.draw(st.tuples(*[st.integers(1, 6) for _ in forms]))
    scale = data.draw(st.sampled_from([F(1), F(1, 2), F(-3, 2)]))
    i = inst([tuple(scale * c for c in f) for f in forms], mult)
    for h0 in range(len(forms)):
        assert euler_multiplicity_at_flat(i, h0) == ref_euler_multiplicity_at_flat(i, h0)


def test_instance_validation():
    with pytest.raises(ValueError):
        Rank2Instance((X,), (1,))
    with pytest.raises(ValueError):
        Rank2Instance((X, (F(2), F(0))), (1, 1))
    for mult in [(2, -1), (0, 1), (1, F(3, 2)), (True, 1), (1.0, 1)]:
        with pytest.raises(ValueError):
            Rank2Instance((X, Y), mult)
