"""Differential tests of the integer elimination kernel, the integer
derivation systems and the scaled chart against the Fraction code they
replaced.

The references are the rational Gauss-Jordan elimination and its kernel,
the `derivation_basis` that built Fraction rows through the inverse of the
coordinate chart (the greedy one of `reference`) and a Polynomial-valued
substitution (all in `reference`), and the vector-matrix product of a
normal with that inverse, exactly as `exactalg`, `dspace` and
`arrangement` had them before.  The reduced row echelon form is unique, so
every result must be equal, not merely equivalent: an integer kernel
vector over its denominator, or a `derivation_basis` element read as
Fraction polynomials (`reference.polys_from_terms`), equals the
reference's.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree.dspace import derivation_basis
from arrfree.exactalg import (
    Matrix,
    Polynomial,
    _gauss_jordan,
    integer_kernel,
    monomials,
    primitive_row,
    scaled_chart_image,
    substitute_monomials,
    vec,
)
from reference import (
    polys_from_terms,
    ref_derivation_basis,
    ref_linear_change_to_coordinate,
    ref_rank_and_kernel,
    ref_rref,
    ref_substitute_monomials,
)

F = Fraction

# ---------------------------------------------------------------------------
# the Fraction references


def ref_chart_image(form, alpha):
    """alpha times the Fraction chart inverse, as a dense product."""
    _, tinv = ref_linear_change_to_coordinate(form)
    n = len(form)
    return tuple(sum((vec(alpha)[i] * tinv.entries[i][j] for i in range(n)), F(0)) for j in range(n))


# ---------------------------------------------------------------------------
# matrices: rational, wide, tall, zero and rank-deficient

RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 7)),
)


@st.composite
def matrices(draw):
    kind = draw(st.sampled_from(["rational", "wide", "tall", "zero", "deficient"]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if kind == "wide":
        cols = rows + draw(st.integers(1, 4))
    elif kind == "tall":
        rows = cols + draw(st.integers(1, 4))
    if kind == "zero":
        return Matrix([[0] * cols for _ in range(rows)])
    if kind == "deficient":
        # a product through an inner dimension below both sides
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        left = [[draw(RATIONALS) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(RATIONALS) for _ in range(cols)] for _ in range(inner)]
        return Matrix(
            [[sum((l[k] * right[k][j] for k in range(inner)), F(0)) for j in range(cols)] for l in left]
        )
    return Matrix([[draw(RATIONALS) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_and_kernel_match_fraction_reference(m):
    red, pivots = ref_rref(m)
    assert m.rref() == (red, pivots)
    assert m.rank() == len(pivots)
    got_pivots, kernel = integer_kernel([primitive_row(r) for r in m.entries], m.cols)
    assert got_pivots == pivots
    assert [tuple(F(x, den) for x in v) for v, den in kernel] == ref_rank_and_kernel(m)[1]
    # one positive denominator, in lowest terms
    assert all(den > 0 and gcd(den, *v) == 1 for v, den in kernel)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_keeps_rows_primitive(m):
    rows = [primitive_row(r) for r in m.entries]
    pivots = _gauss_jordan(rows, m.cols)
    assert all(gcd(*row) <= 1 for row in rows)
    assert all(not any(row) for row in rows[len(pivots) :])


def test_integer_kernel_of_no_rows_is_the_identity():
    assert integer_kernel([], 2) == ([], [([1, 0], 1), ([0, 1], 1)])


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=100, deadline=None)
@given(m=matrices())
def test_rref_matches_sympy(sympy, m):
    red, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m.entries]).rref()
    ours, our_pivots = m.rref()
    assert our_pivots == list(pivots)
    assert [[F(int(x.p), int(x.q)) for x in red.row(i)] for i in range(m.rows)] == [list(r) for r in ours.entries]


# ---------------------------------------------------------------------------
# substitution and the scaled chart

ENTRIES = st.sampled_from([0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4)])
FORMS = st.integers(1, 4).flatmap(
    lambda n: st.lists(ENTRIES, min_size=n, max_size=n).filter(lambda f: any(x != 0 for x in f))
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), st.data())
def test_substitution_matches_polynomial_reference(nvars, new_n, degree, data):
    images = [data.draw(st.lists(st.integers(-3, 3), min_size=new_n, max_size=new_n)) for _ in range(nvars)]
    if data.draw(st.booleans()):
        images = [[F(x, 2) for x in im] for im in images]
    monos = monomials(nvars, degree)
    table = substitute_monomials(images, monos)
    ref = ref_substitute_monomials(images, monos)
    assert {m: Polynomial(new_n, t) for m, t in table.items()} == ref
    if not any(isinstance(x, F) for im in images for x in im):
        assert all(type(c) is int for t in table.values() for c in t.values())


@settings(max_examples=200, deadline=None)
@given(FORMS, st.data())
def test_scaled_chart_matches_fraction_inverse(form, data):
    alpha = data.draw(st.lists(ENTRIES, min_size=len(form), max_size=len(form)))
    f = vec(form)
    fq = next(x for x in reversed(f) if x != 0)
    assert scaled_chart_image(f, vec(alpha)) == tuple(fq * x for x in ref_chart_image(f, alpha))
    ints = primitive_row(f)
    assert all(type(x) is int for x in scaled_chart_image(ints, primitive_row(vec(alpha))))


# ---------------------------------------------------------------------------
# derivation systems


def assert_derivation_basis_matches_reference(forms, mults, degree):
    basis = derivation_basis(forms, mults, degree)
    assert [polys_from_terms(coeffs, den) for coeffs, den in basis] == ref_derivation_basis(forms, mults, degree)
    for coeffs, den in basis:
        assert den > 0 and gcd(den, *(c for p in coeffs for c in p.values())) == 1
        assert all(type(c) is int for p in coeffs for c in p.values())


@st.composite
def systems(draw):
    nvars = draw(st.integers(2, 3))
    degree = draw(st.integers(0, 6))
    count = draw(st.integers(1, 4))
    forms = [
        draw(st.lists(ENTRIES, min_size=nvars, max_size=nvars).filter(lambda f: any(x != 0 for x in f)))
        for _ in range(count)
    ]
    mults = [draw(st.integers(1, degree + 2)) for _ in forms]
    return forms, mults, degree


@settings(max_examples=150, deadline=None)
@given(systems())
def test_derivation_basis_matches_fraction_reference(system):
    forms, mults, degree = system
    assert_derivation_basis_matches_reference(forms, mults, degree)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("degree", range(7))
def test_derivation_basis_every_chart_index(q, degree):
    # forms whose last nonzero entry sits at q, with non-integral entries,
    # against the braid forms; the multiplicities run past the degree
    lead = [F(3, 2), F(-2, 3), F(5, 7)][: q + 1]
    forms = [lead + [0] * (2 - q), [1, -1, 0], [0, 1, F(-1, 2)], [1, 0, -1]]
    mults = [2, 1, (degree + 3) // 2, degree + 1]
    assert_derivation_basis_matches_reference(forms, mults, degree)
