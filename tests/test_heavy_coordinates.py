"""`derivation_dim` solves in the coordinates of the heaviest forms.

Differential tests against len(`derivation_basis`), which still solves the
full system in the input coordinates, at one degree and (`derivation_dims`)
over a range of degrees from one set-up, and work counts of the reduced
system: sum_i C(d - m_i + l - 1, l - 1) unknowns over the coordinate forms,
and the full system's rows less the rows of those forms.  The coordinates
themselves are compared with the residue-and-Cramer construction that
one elimination replaced (`reference.ref_coordinates`).
"""

from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrfree.dspace as dspace_mod
from arrfree.arrangement import parse_file
from arrfree.dspace import (
    _coordinates,
    _derivation_rows,
    _primitive_forms,
    _reduced_systems,
    derivation_basis,
    derivation_dim,
    derivation_dims,
)
from arrfree.exactalg import Matrix, primitive_form
from arrfree.fixtures import braid3, example52, fixture_path
from arrfree.oracle import hilbert_freeness_test

from reference import ref_coordinates, ref_reduced_systems

F = Fraction

FIXTURES = (
    "boolean.json",
    "boolean_234.json",
    "braid.json",
    "example1_a1_m0_2.json",
    "example52.json",
    "generic4.json",
    "rank4_flag.json",
)

# ---------------------------------------------------------------------------
# references


def ref_kept(forms, mults):
    """Indices of the coordinate forms: in (-mult, index) order, each form
    that raises the rank of those kept, until there are l of them."""
    kept = []
    for k in sorted(range(len(forms)), key=lambda k: (-mults[k], k)):
        if len(kept) < len(forms[0]) and Matrix([forms[j] for j in kept + [k]]).rank() > len(kept):
            kept.append(k)
    return kept


def n_monomials(nvars, degree):
    return comb(degree + nvars - 1, nvars - 1) if degree >= 0 else 0


def assert_work_counts(forms, mults, degrees):
    """The counts at each degree of one `_reduced_systems` call."""
    nvars = len(forms[0])
    kept = ref_kept(forms, mults)
    fs = _primitive_forms(forms, mults)
    coords = _coordinates(fs, mults)[0]
    assert coords[: len(kept)] == [(fs[k], mults[k]) for k in kept]
    assert all(m == 0 and sorted(f) == [0] * (nvars - 1) + [1] for f, m in coords[len(kept) :])
    systems = list(_reduced_systems(forms, mults, degrees))
    assert len(systems) == len(degrees)
    for degree, (rows, ncols) in zip(degrees, systems):
        # the unit vectors that fill up a rank below l have multiplicity 0
        want_cols = sum(n_monomials(nvars, degree - mults[k]) for k in kept)
        want_cols += (nvars - len(kept)) * n_monomials(nvars, degree)
        assert ncols == want_cols
        full = len(_derivation_rows(forms, mults, degree)[0])
        assert len(rows) == full - sum(len(_derivation_rows([forms[k]], [mults[k]], degree)[0]) for k in kept)
        assert all(len(row) == ncols for row in rows)


def outcome(fn, forms, mults, degree):
    try:
        return fn(forms, mults, degree)
    except ValueError:
        return ValueError


# ---------------------------------------------------------------------------
# strategies

_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda t: F(*t)),
)
_scales = st.one_of(st.integers(-3, 3), st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda t: F(*t))).filter(
    bool
)


@st.composite
def systems(draw):
    """Forms in l = 2..4 variables: `rank` combinations of `rank` drawn
    vectors (rank = l half the time, so the forms often have rank below l),
    then up to three more, each a combination or a nonzero multiple of an
    earlier form; multiplicities in 0..degree + 2, so that ties, 0 and
    values above the degree all occur.  A combination may be the zero form,
    which both functions must refuse alike."""
    nvars = draw(st.integers(2, 4))
    degree = draw(st.integers(0, {2: 6, 3: 4, 4: 3}[nvars]))
    rank = draw(st.sampled_from([nvars] * nvars + list(range(1, nvars))))
    vectors = st.lists(_entries, min_size=nvars, max_size=nvars).filter(any)
    gens = draw(st.lists(vectors, min_size=rank, max_size=rank))
    coefficients = st.lists(_entries, min_size=rank, max_size=rank).filter(any)

    def combination():
        cs = draw(coefficients)
        return tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(nvars))

    forms = [combination() for _ in range(rank)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            form, scale = draw(st.sampled_from(forms)), draw(_scales)
            forms.append(tuple(scale * x for x in form))
        else:
            forms.append(combination())
    mults = draw(st.lists(st.integers(0, degree + 2), min_size=len(forms), max_size=len(forms)))
    return forms, mults, degree


CHOSEN = [
    # rank 2 in three variables
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [2, 1, 1], 3),
    # proportional and repeated forms, the heavier copy first and second
    ([(1, 0), (2, 0), (0, 1), (1, 1), (1, 1)], [1, 3, 2, 1, 2], 4),
    # Fraction entries
    ([(F(1, 2), F(1, 3), 0), (0, 1, F(-2, 5)), (1, 1, 1), (F(3, 2), 0, 1)], [2, 2, 1, 1], 3),
    # multiplicity 0 and above the degree
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [0, 5, 1, 2], 3),
    # ties in multiplicity, and a tied form dependent on the two before it
    ([(1, 1, 0), (0, 1, 1), (1, 2, 1), (1, 0, 1), (1, 1, 1)], [2, 2, 2, 2, 2], 4),
    # four variables: A3 in K^4 is rank 3
    ([(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1)], [2, 1, 1, 1, 1, 3], 3),
]


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=250, deadline=None)
@given(systems())
def test_dim_equals_kernel_size_in_heavy_coordinates(system):
    forms, mults, degree = system
    want = outcome(lambda *a: len(derivation_basis(*a)), forms, mults, degree)
    assert outcome(derivation_dim, forms, mults, degree) == want


@pytest.mark.parametrize("forms, mults, degree", CHOSEN)
def test_dim_equals_kernel_size_on_chosen_systems(forms, mults, degree):
    for d in range(-1, degree + 1):
        assert derivation_dim(forms, mults, d) == len(derivation_basis(forms, mults, d))
    degrees = range(-1, degree + 1)
    assert list(derivation_dims(forms, mults, degrees)) == [len(derivation_basis(forms, mults, d)) for d in degrees]


@settings(max_examples=200, deadline=None)
@given(systems())
def test_dims_over_a_degree_range_equal_kernel_sizes(system):
    # one set-up for degrees -1..D; a zero form is refused at every degree
    # that reaches its multiplicity, so then the whole call is refused
    forms, mults, top = system
    degrees = range(-1, top + 1)
    want = [outcome(lambda *a: len(derivation_basis(*a)), forms, mults, d) for d in degrees]
    got = outcome(lambda *a: list(derivation_dims(*a)), forms, mults, degrees)
    assert got == (ValueError if ValueError in want else want)


def test_dims_refuse_a_bad_set_up_before_the_first_degree():
    # degree -1 constrains nothing, but degree 2 reaches the zero form's
    # multiplicity, and the set-up refuses it, so the first next() raises
    dims = derivation_dims([(1, 0), (0, 0)], [1, 1], range(-1, 3))
    with pytest.raises(ValueError, match="zero form"):
        next(dims)
    with pytest.raises(ValueError, match="shape mismatch"):
        next(derivation_dims([(1, 0), (0, 1, 1)], [1, 1], range(3)))


def test_heaviest_independent_forms_are_the_coordinates():
    fs = [(1, 0), (2, 0), (0, 1), (1, 1), (1, 1)]
    coords, others = _coordinates(_primitive_forms(fs, [1, 3, 2, 1, 2]), [1, 3, 2, 1, 2])
    # x (m = 3) and then y (m = 2); the other x is x, and x + y is y_1 + y_2
    assert coords == [([1, 0], 3), ([0, 1], 2)]
    assert others == [([1, 0], 1), ([1, 1], 1), ([1, 1], 2)]
    # a rank-1 set in K^3, pivot in the second column, is filled up with
    # the first and third unit vectors at multiplicity 0
    coords, others = _coordinates([[0, 2, 1], [0, -4, -2]], [1, 4])
    assert coords == [([0, -4, -2], 4), ([1, 0, 0], 0), ([0, 0, 1], 0)]
    assert others == [([-1, 0, 0], 1)]


def up_to_sign(pairs):
    return [(primitive_form(f) if any(f) else tuple(f), m) for f, m in pairs]


@settings(max_examples=250, deadline=None)
@given(systems())
def test_coordinates_match_the_cramer_reference(system):
    # the same coordinate forms, the other forms up to sign (Cramer's
    # numerators carry the sign of the coordinates' determinant), and so
    # the same dimensions
    forms, mults, _ = system
    fs = _primitive_forms(forms, mults)
    coords, others = _coordinates(fs, mults)
    ref_coords, ref_others = ref_coordinates(fs, mults)
    assert coords == ref_coords
    assert up_to_sign(others) == up_to_sign(ref_others)
    degrees = range(6)
    with mock.patch.object(dspace_mod, "_coordinates", ref_coordinates):
        want = outcome(lambda *a: list(derivation_dims(*a)), forms, mults, degrees)
    assert outcome(lambda *a: list(derivation_dims(*a)), forms, mults, degrees) == want


@settings(max_examples=200, deadline=None)
@given(systems())
def test_reduced_system_work_counts(system):
    forms, mults, degree = system
    if any(not any(f) for f in forms):
        return  # a zero form may be refused (ValueError); the differential test covers it
    assert_work_counts(forms, mults, range(-1, degree + 1))


@pytest.mark.parametrize("name", FIXTURES)
def test_reduced_system_work_counts_on_fixtures(name):
    a = parse_file(fixture_path(name))
    forms = [h.coeffs for h in a.hyperplanes]
    assert_work_counts(forms, list(a.mult), range(6))


# ---------------------------------------------------------------------------
# charts whose powers N^e grow with the degree, against charts built up front


def systems_or_error(build, forms, mults, degrees):
    try:
        return list(build(forms, mults, degrees))
    except ValueError as e:
        return str(e)


@st.composite
def integer_systems(draw):
    """1..6 forms in l = 2..4 variables with entries -2..2 (a zero form
    may occur), multiplicities 0..3, and degrees 0..6 in any order, repeats
    allowed."""
    nvars = draw(st.integers(2, 4))
    forms = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars), min_size=1, max_size=6))
    mults = draw(st.lists(st.integers(0, 3), min_size=len(forms), max_size=len(forms)))
    degrees = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    return forms, mults, degrees


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_lazy_charts_give_the_eager_systems(system):
    forms, mults, degrees = system
    assert systems_or_error(_reduced_systems, forms, mults, degrees) == systems_or_error(
        ref_reduced_systems, forms, mults, degrees
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_lazy_charts_give_the_eager_systems_on_fixtures(name):
    a = parse_file(fixture_path(name))
    forms, mults = [h.coeffs for h in a.hyperplanes], list(a.mult)
    for degrees in (range(7), [4, 1, 6, 0, 6]):
        assert list(_reduced_systems(forms, mults, degrees)) == list(ref_reduced_systems(forms, mults, degrees))


def chart_tops(monkeypatch):
    """The top of every call of `dspace`'s linear_powers, as it runs."""
    linear_powers, tops = dspace_mod.linear_powers, []

    def recording(row, top, powers=None):
        tops.append(top)
        return linear_powers(row, top, powers)

    monkeypatch.setattr(dspace_mod, "linear_powers", recording)
    return tops


def test_an_early_stop_builds_no_higher_chart_power(monkeypatch):
    # Example 5.2 is decided at degree 2 of cap 8, and braid at degree 3
    # of cap 8: no chart power above the last degree read is built
    tops = chart_tops(monkeypatch)
    assert hilbert_freeness_test(example52(), degree_cap=8).degree_cap == 2
    assert max(tops) == 2
    tops.clear()
    assert hilbert_freeness_test(braid3(), degree_cap=8).degree_cap == 3
    assert max(tops) == 3
