"""Differential tests of the integer elimination kernel, the integer
derivation systems and the scaled chart against the Fraction code they
replaced.

The references below are the rational Gauss-Jordan `Matrix.rref`, the
`derivation_basis` that built Fraction rows through the inverse of the
coordinate chart (the greedy one of `reference`) and a Polynomial-valued
substitution, and the vector-matrix product of a normal with that inverse,
exactly as `exactalg`, `dspace` and `arrangement` had them before; they are
kept here only as the reference.  The reduced row echelon form is unique, so every result must be
equal, not merely equivalent.
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
    integer_rank_and_kernel,
    monomials,
    primitive_row,
    rank_and_kernel,
    scaled_chart_image,
    substitute_monomials,
    vec,
)
from reference import ref_linear_change_to_coordinate

F = Fraction

# ---------------------------------------------------------------------------
# the Fraction references


def ref_rref(m):
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(rows), pivots


def ref_rank_and_kernel(m):
    red, pivots = ref_rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return len(pivots), basis


def ref_substitute_monomials(images, monos):
    forms = [Polynomial.linear_form(im) for im in images]
    new_n = forms[0].nvars if forms else 0
    powers = {}

    def power(i, k):
        if k == 0:
            return Polynomial.constant(new_n, 1)
        if (i, k) not in powers:
            powers[(i, k)] = power(i, k - 1) * forms[i]
        return powers[(i, k)]

    table = {}
    for mono in monos:
        p = Polynomial.constant(new_n, 1)
        for i, e in enumerate(mono):
            if e:
                p = p * power(i, e)
        table[mono] = p
    return table


def ref_derivation_basis(forms, mults, degree):
    fs = [vec(f) for f in forms]
    nvars = len(fs[0])
    if degree < 0:
        return []
    monos = monomials(nvars, degree)
    nm = len(monos)
    ncols = nvars * nm
    rows = []
    for form, mult in zip(fs, mults):
        if mult > degree:
            for k in range(nm):
                row = [F(0)] * ncols
                for i in range(nvars):
                    row[i * nm + k] = form[i]
                rows.append(row)
            continue
        _, tinv = ref_linear_change_to_coordinate(form)
        table = ref_substitute_monomials(tinv.entries, monos)
        for cm in (m for m in monos if m[0] < mult):
            base = [table[mono].coeff(cm) for mono in monos]
            rows.append([form[i] * base[k] for i in range(nvars) for k in range(nm)])
    if rows:
        _, kernel = ref_rank_and_kernel(Matrix(rows))
    else:
        kernel = [tuple(F(j == k) for j in range(ncols)) for k in range(ncols)]
    return [
        tuple(
            Polynomial(nvars, {monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k] != 0})
            for i in range(nvars)
        )
        for v in kernel
    ]


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
    assert rank_and_kernel(m) == ref_rank_and_kernel(m)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_keeps_rows_primitive(m):
    rows = [primitive_row(r) for r in m.entries]
    pivots = _gauss_jordan(rows, m.cols)
    assert all(gcd(*row) <= 1 for row in rows)
    assert all(not any(row) for row in rows[len(pivots) :])


def test_integer_kernel_of_no_rows_is_the_identity():
    assert integer_rank_and_kernel([], 2) == (0, [(F(1), F(0)), (F(0), F(1))])


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
    assert derivation_basis(forms, mults, degree) == ref_derivation_basis(forms, mults, degree)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("degree", range(7))
def test_derivation_basis_every_chart_index(q, degree):
    # forms whose last nonzero entry sits at q, with non-integral entries,
    # against the braid forms; the multiplicities run past the degree
    lead = [F(3, 2), F(-2, 3), F(5, 7)][: q + 1]
    forms = [lead + [0] * (2 - q), [1, -1, 0], [0, 1, F(-1, 2)], [1, 0, -1]]
    mults = [2, 1, (degree + 3) // 2, degree + 1]
    assert derivation_basis(forms, mults, degree) == ref_derivation_basis(forms, mults, degree)
