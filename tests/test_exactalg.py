import ast
import itertools
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arrfree
from arrfree.exactalg import (
    Matrix,
    Polynomial,
    _term_product,
    _term_quotient,
    monomials,
    integer_kernel,
    poly_matrix_det,
    primitive_form,
    scaled_chart_image,
)

from reference import ref_monomials, ref_primitive_form

F = Fraction


def P(nvars, terms):
    return Polynomial(nvars, {tuple(m): F(c) for m, c in terms.items()})


x2 = P(2, {(1, 0): 1})
y2 = P(2, {(0, 1): 1})


# ---------------------------------------------------------------------------
# integer_kernel


def test_kernel_identity():
    pivots, kernel = integer_kernel([[1, 0], [0, 1]], 2)
    assert pivots == [0, 1] and kernel == []


def test_kernel_one_row():
    pivots, kernel = integer_kernel([[1, -1]], 2)
    assert pivots == [0]
    assert kernel == [([1, 1], 1)]


def test_kernel_denominator_is_lowest_terms():
    # RREF rows (1, 0, 1/2, 1/3) and (0, 1, 3/4, 0): the free columns get
    # (-1/2, -3/4, 1, 0) = (-2, -3, 4, 0)/4 and (-1/3, 0, 0, 1) = (-1, 0, 0, 3)/3
    pivots, kernel = integer_kernel([[6, 0, 3, 2], [0, 4, 3, 0]], 4)
    assert pivots == [0, 1]
    assert kernel == [([-2, -3, 4, 0], 4), ([-1, 0, 0, 3], 3)]


def test_kernel_braid_degree_one_system():
    # brute-force oracle: degree-1 derivations of the six braid forms.
    # unknowns c[i][j] with theta(x_i) = sum_j c[i][j] x_j; membership at a
    # simple hyperplane alpha means theta(alpha) proportional to alpha,
    # encoded by vanishing 2x2 minors against alpha.
    forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    rows = []
    for alpha in forms:
        # theta(alpha)_j = sum_i alpha_i c[i][j]
        for j, k in itertools.combinations(range(3), 2):
            row = [0] * 9
            for i in range(3):
                row[i * 3 + j] += alpha[i] * alpha[k]
                row[i * 3 + k] -= alpha[i] * alpha[j]
            rows.append(row)
    _, kernel = integer_kernel(rows, 9)
    assert len(kernel) == 1
    v, den = kernel[0]
    euler = [int(i == j) for i in range(3) for j in range(3)]
    scale = next(c for c in v if c != 0)
    assert [F(c, scale) for c in v] == euler


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rank_nullity_and_kernel_membership(nrows, ncols, data):
    entries = [
        [data.draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
    ]
    pivots, kernel = integer_kernel([list(row) for row in entries], ncols)
    assert len(pivots) == Matrix(entries).rank() and len(pivots) + len(kernel) == ncols
    for v, den in kernel:
        assert den > 0
        assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in entries)


# ---------------------------------------------------------------------------
# polynomials


def _evaluate(p, point):
    total = F(0)
    for mono, c in p.terms.items():
        for x, e in zip(point, mono):
            c *= F(x) ** e
        total += c
    return total


def test_poly_mul_basic():
    assert x2 * y2 == P(2, {(1, 1): 1})
    diff = x2 - y2
    total = x2 + y2
    assert diff * total == P(2, {(2, 0): 1, (0, 2): -1})


def test_poly_mul_var_mismatch():
    with pytest.raises(ValueError):
        x2 * Polynomial.variable(3, 0)


def test_defining_polynomial_example_product():
    # Q = x (x-y) (x-z) y (y-z) z^2: degree 7; cross-check the expansion by
    # evaluating at points, independently of the convolution code path
    factors = [
        Polynomial.linear_form([1, 0, 0]),
        Polynomial.linear_form([1, -1, 0]),
        Polynomial.linear_form([1, 0, -1]),
        Polynomial.linear_form([0, 1, 0]),
        Polynomial.linear_form([0, 1, -1]),
        Polynomial.linear_form([0, 0, 1]),
        Polynomial.linear_form([0, 0, 1]),
    ]
    q = Polynomial.constant(3, 1)
    for f in factors:
        q = q * f
    assert q.degree() == 7
    assert q.is_homogeneous()
    lead_mono, lead_coeff = q.leading()
    expected_lead = F(1)
    for f in factors:
        expected_lead *= f.leading()[1]
    assert lead_coeff == expected_lead
    for point in [(2, 3, 5), (-1, 4, 7), (F(1, 2), F(1, 3), 1)]:
        direct = F(1)
        for f in factors:
            direct *= _evaluate(f, point)
        assert _evaluate(q, point) == direct


@pytest.mark.parametrize("nvars", range(6))
def test_monomials_equal_the_recursive_list(nvars):
    for degree in range(-2, 10):
        assert monomials(nvars, degree) == ref_monomials(nvars, degree)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_poly_mul_homogeneous_degree_additive(data):
    def hom(deg):
        monos = monomials(2, deg)
        terms = {
            m: data.draw(st.integers(-3, 3)) for m in data.draw(st.permutations(monos))[:2]
        }
        return Polynomial(2, {m: F(c) for m, c in terms.items()})

    a = hom(data.draw(st.integers(0, 3)))
    b = hom(data.draw(st.integers(0, 3)))
    prod = a * b
    assert prod == b * a
    if not a.is_zero() and not b.is_zero():
        assert prod.degree() == a.degree() + b.degree()


def test_divmod_exact_roundtrip():
    f = (x2 - y2) * (x2 + y2) * x2
    g = x2 - y2
    q, r = f.divmod_by(g)
    assert r.is_zero()
    assert q * g == f
    assert not (f + Polynomial.constant(2, 1)).divisible_by(g)


# ---------------------------------------------------------------------------
# polynomial determinants


def _perm_det(grid, nvars):
    """Leibniz-formula oracle, independent of the production code path."""
    n = len(grid)
    total = Polynomial.zero(nvars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.constant(nvars, sign)
        for i in range(n):
            term = term * grid[i][perm[i]]
        total = total + term
    return total


def _ints(p):
    """A Polynomial with integer coefficients as an integer term dict."""
    assert all(c.denominator == 1 for c in p.terms.values())
    return {m: c.numerator for m, c in p.terms.items()}


def _int_grid(grid):
    return [[_ints(p) for p in row] for row in grid]


def test_det_diagonal():
    z4 = P(3, {(0, 0, 4): 1})
    grid = [
        [P(3, {(2, 0, 0): 1}), Polynomial.zero(3), Polynomial.zero(3)],
        [Polynomial.zero(3), P(3, {(0, 3, 0): 1}), Polynomial.zero(3)],
        [Polynomial.zero(3), Polynomial.zero(3), z4],
    ]
    assert poly_matrix_det(_int_grid(grid)) == {(2, 3, 4): 1}


def test_det_saito_two_vars():
    # columns theta_E = (x, y), theta = (x^2, y^2): det = xy^2 - x^2 y
    grid = [[x2, x2 * x2], [y2, y2 * y2]]
    det = poly_matrix_det(_int_grid(grid))
    assert det == {(1, 2): 1, (2, 1): -1}
    minus_xy_xmy = Polynomial.constant(2, -1) * x2 * y2 * (x2 - y2)
    assert det == _ints(minus_xy_xmy)


def test_det_dependent_columns():
    grid = [[x2, x2 * 2], [y2, y2 * 2]]
    assert poly_matrix_det(_int_grid(grid)) == {}


def test_det_non_square():
    with pytest.raises(ValueError):
        poly_matrix_det([[{(1, 0): 1}, {(0, 1): 1}]])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_det_matches_leibniz_oracle(n, data):
    # sizes 4 and 5 take the Bareiss branch, whose divisions must be exact
    monos = monomials(2, 1) + monomials(2, 0)
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for m in data.draw(st.permutations(monos))[:2]:
                c = data.draw(st.integers(-2, 2))
                if c:
                    terms[m] = F(c)
            row.append(Polynomial(2, terms))
        grid.append(row)
    assert poly_matrix_det(_int_grid(grid)) == _ints(_perm_det(grid, 2))


def test_det_bareiss_zero_pivot_swaps_rows():
    # a 4x4 permutation-like matrix with zero leading entries: the pivot
    # search swaps rows, and each swap flips the sign
    x, y = {(1, 0): 1}, {(0, 1): 1}
    grid = [[{}, x, {}, {}], [y, {}, {}, {}], [{}, {}, {}, x], [{}, {}, y, {}]]
    assert poly_matrix_det(grid) == {(2, 2): 1}
    assert poly_matrix_det(grid[:3] + [[{}, {}, {}, {}]]) == {}


# ---------------------------------------------------------------------------
# exact division of integer term dicts


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_term_quotient_matches_lex_division(data):
    monos = monomials(3, 2) + monomials(3, 1)
    def poly():
        return {m: c for m in monos if (c := data.draw(st.integers(-3, 3)))}
    f, g = poly(), poly()
    if not g:
        g = {(1, 0, 0): 1}
    content = gcd(*g.values())  # over Z and over Q agree for a primitive g
    g = {m: c // content for m, c in g.items()}
    gp = Polynomial(3, {m: F(c) for m, c in g.items()})
    prod = _term_product(f, g)
    assert _term_quotient(prod, g) == f
    # prod plus a term outside the ideal: the reference leaves a remainder
    off = dict(prod)
    off[(0, 0, 5)] = off.get((0, 0, 5), 0) + 1
    _, r = Polynomial(3, {m: F(c) for m, c in off.items() if c}).divmod_by(gp)
    assert (_term_quotient({m: c for m, c in off.items() if c}, g) is None) == (not r.is_zero())


def test_term_quotient_refuses_non_integral_quotient_of_non_primitive_divisor():
    # 2x divides x^2 over Q but not over Z: the helper answers for Z[x]
    assert _term_quotient({(2, 0): 1}, {(1, 0): 2}) is None
    assert _term_quotient({(2, 0): 2}, {(1, 0): 2}) == {(1, 0): 1}
    with pytest.raises(ZeroDivisionError):
        _term_quotient({(1, 0): 1}, {})


# ---------------------------------------------------------------------------
# the coordinate chart: images of linear forms, times f_q

UNITS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_change_identity():
    assert [scaled_chart_image([1, 0, 0], e) for e in UNITS] == UNITS


def test_change_permutation():
    images = [scaled_chart_image([0, 1, 0], e) for e in UNITS]
    assert sorted(images) == sorted(UNITS)


def test_change_general_form():
    form = [1, -1, 0]
    assert Matrix([scaled_chart_image(form, e) for e in UNITS]).rank() == 3
    # the form itself is f_q*y_1, here f_q = -1
    assert scaled_chart_image(form, form) == (-1, 0, 0)


def test_change_zero_form():
    with pytest.raises(ValueError):
        scaled_chart_image([0, 0, 0], [1, 0, 0])


# ---------------------------------------------------------------------------
# one number format


FRACTION_CLASSES = {"Matrix", "Polynomial"}


def _fraction_class_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import, attribute or name of Matrix or
    Polynomial in a module's source."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        uses += [(node.lineno, n) for n in names if n in FRACTION_CLASSES]
    return uses


def test_only_exactalg_names_the_fraction_classes():
    # the program decides in ints; Matrix and Polynomial stay in exactalg
    # as the references of the tests, and no other module reaches them
    package = Path(arrfree.__file__).parent
    sources = {p.relative_to(package).as_posix(): p.read_text(encoding="utf-8") for p in package.rglob("*.py")}
    assert _fraction_class_uses(sources.pop("exactalg.py"))
    assert {name: _fraction_class_uses(src) for name, src in sources.items() if _fraction_class_uses(src)} == {}
    assert _fraction_class_uses("from .exactalg import Polynomial as P\nexactalg.Matrix(rows)") == [
        (1, "Polynomial"),
        (2, "Matrix"),
    ]


# ---------------------------------------------------------------------------
# primitive_form against the reference it replaced


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6), st.integers(1, 12), st.sampled_from([1, -1]))
@example([0, 0, 0], 1, 1)
@example([0, -2, 4, 0], 3, 1)
def test_primitive_form_matches_reference(row, scale, sign):
    # the drawn row times a signed scale: gcd 1 and above, either sign first,
    # zeros anywhere (all of them included); a list or a tuple
    row = [sign * scale * x for x in row]
    for given_row in (row, tuple(row)):
        if any(row):
            got = primitive_form(given_row)
            assert got == ref_primitive_form(given_row) and type(got) is tuple
        else:
            for f in (primitive_form, ref_primitive_form):
                with pytest.raises(ValueError, match="zero form"):
                    f(given_row)
