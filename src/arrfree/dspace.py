"""Graded pieces of logarithmic derivation modules, by exact linear algebra.

A derivation theta = sum_i p_i d/dx_i of polynomial degree d belongs to the
module of a list of (linear form, multiplicity) pairs when theta(form) is
divisible by form^mult for every pair.  Divisibility is linearized per form
by a deterministic coordinate change sending the form to the first
coordinate and zeroing every monomial whose first-variable exponent is
below the multiplicity.

The system is built and eliminated in Python ints.  Each form is first
scaled to a primitive integer form F (the same hyperplane, so the same
module).  With q the last index where F is nonzero, the chart is the one
of `exactalg.scaled_chart_image`: y_1 = F(x) and y_{j'} = x_j for j != q.
The substitution is F_q times its inverse, x_j -> F_q*y_{j'} for j != q
and x_q -> y_1 + N with N = -sum_{j != q} F_j*y_{j'}, which is integral.
It multiplies every degree-d image, and so every row of that form, by the
nonzero constant F_q^d, which leaves the kernel unchanged.

Only the chart monomials of y_1-degree below the multiplicity are
constrained, and N has no y_1, so each image is expanded only that far
(`_chart_rows`): x^a -> F_q^(d-a_q) * y'^a' * sum_{k<m} C(a_q, k) * y_1^k *
N^(a_q-k), where a' is a without a_q and y' the chart variables after y_1.

Two front doors share one row builder (`_form_rows`).  `derivation_basis`
solves the full system, l*C(d+l-1, l-1) unknowns in l variables and rows
for every form, in the input coordinates, because its echelon basis is
cited in certificates (`oracle.extract_basis`), as integer term dicts over
one denominator (`exactalg.integer_kernel`).  `derivation_dims` needs
only dimensions, which a linear change of coordinates does not move, so
it solves in the coordinates of l independent forms, chosen heaviest
first.  There each chosen form only drops unknowns, leaving
sum_i C(d-m_i+l-1, l-1), and only the other forms give rows; the rank
comes from the forward pass of the elimination alone
(`exactalg.integer_rank`).  It yields one dimension per degree: the
primitive forms, the coordinates and each other form's chart are built
once, before the first; each degree extends the charts' powers N^e only
up to itself and builds only its monomials, unknowns and rows
(`_reduced_systems`), so a caller that stops early builds nothing for the
degrees it never reads.  `derivation_dim` is
its one-degree case; `derivation_basis` builds everything for its one
degree.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Iterator, Sequence

from .exactalg import (
    Monomial,
    _chart_index,
    integer_kernel,
    integer_rank,
    linear_powers,
    monomials,
    primitive_row,
)


def _chart(
    form: list[int], mult: int, top: int, chart: tuple[int, list[dict]] | None = None
) -> tuple[int, list[dict]] | None:
    """The chart index q of the form and N^e for e = 0..top, as term dicts
    over the chart variables after y_1, indexed by e; None when no degree
    up to top constrains the chart (mult > top).  `chart`, what an earlier
    call returned for the same form, has its powers extended in place up to
    top (`exactalg.linear_powers`), so no power is built twice; when
    mult > top it is returned as it is."""
    if mult > top:
        return chart
    q = _chart_index(form)
    n_form = [-f for j, f in enumerate(form) if j != q]
    return q, linear_powers(n_form, top, chart and chart[1])


def _chart_rows(
    form: list[int], mult: int, chart: tuple[int, list[dict]], monos: list[Monomial], degree: int
) -> list[list[int]]:
    """Coefficient of each constrained chart monomial (y_1-degree below
    mult), in `monos` order, as a row over the unknown coefficients of
    theta(form) on `monos`, the degree-d monomials; `chart` is
    `_chart(form, mult, top)` for some top >= degree."""
    q, npow = chart
    fq = form[q]
    coeff_rows = {cm: [0] * len(monos) for cm in monos if cm[0] < mult}
    for col, mono in enumerate(monos):
        aq = mono[q]
        rest = mono[:q] + mono[q + 1 :]
        scale = fq ** (degree - aq)
        for k in range(min(aq, mult - 1) + 1):
            c = scale * comb(aq, k)
            for nmono, v in npow[aq - k].items():
                coeff_rows[(k, *map(add, rest, nmono))][col] = c * v
    return list(coeff_rows.values())


def _form_rows(
    form: list[int],
    mult: int,
    chart: tuple[int, list[dict]] | None,
    monos: list[Monomial],
    degree: int,
    cols: list[tuple[int, int]],
) -> list[list[int]]:
    """The rows of one form's condition over the unknowns `cols`: the pair
    (i, k) is the coefficient of monos[k] in theta of the i-th coordinate,
    and theta(form) = sum_i form[i] * theta(coordinate i).  `chart` is
    read only when mult <= degree."""
    if mult > degree:
        # theta(form) must vanish identically at this degree
        bases = [[int(j == k) for j in range(len(monos))] for k in range(len(monos))]
    else:
        bases = _chart_rows(form, mult, chart, monos, degree)
    return [[form[i] * base[k] for i, k in cols] for base in bases]


def _primitive_forms(forms: Sequence[Sequence], mults: Sequence[int]) -> list[list[int]]:
    """Each form as its primitive integer row (entries are ints or
    Fractions), after checking that the shapes agree."""
    fs = [primitive_row(f) for f in forms]
    if not fs:
        raise ValueError("need at least one form")
    if any(len(f) != len(fs[0]) for f in fs) or len(mults) != len(fs):
        raise ValueError("shape mismatch")
    return fs


def _derivation_rows(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> tuple[list[list[int]], list[Monomial]]:
    """The integer linear system of the degree-d piece and its monomials:
    unknown i*len(monos) + k is the coefficient of monos[k] in
    theta(x_{i+1}).  A negative degree has no monomials and no rows."""
    fs = _primitive_forms(forms, mults)
    monos = monomials(len(fs[0]), degree)
    cols = [(i, k) for i in range(len(fs[0])) for k in range(len(monos))]
    rows = [
        row
        for form, mult in zip(fs, mults)
        for row in _form_rows(form, mult, _chart(form, mult, degree), monos, degree, cols)
    ]
    return rows, monos


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination, whose divisions are exact."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _coordinates(
    fs: list[list[int]], mults: Sequence[int]
) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
    """The coordinate forms of `derivation_dim`, as (form, mult) pairs, and
    every other form in those coordinates, as (primitive integer form,
    mult) in input order.

    The forms are taken in (-mult, index) order, and each one independent
    of those already kept is kept, until there are l of them.  A form is
    reduced by the residues of the kept forms in the order kept, each
    clearing its pivot (first nonzero entry), and is independent when what
    is left, its residue, is nonzero: a residue is zero at the earlier
    pivots, so a nonzero combination of residues is nonzero at the pivot
    of its first term.  For the same reason the unit vectors at the columns
    with no pivot, with multiplicity 0, complete a rank below l.  A form
    alpha = sum_j b_j*c_j has b_j = det(C with row j replaced by alpha) /
    det(C) (Cramer's rule), so the numerators, made primitive, are alpha in
    the coordinates.
    """
    nvars = len(fs[0])
    kept: list[int] = []
    residues: list[tuple[int, list[int]]] = []
    for k in sorted(range(len(fs)), key=lambda k: (-mults[k], k)):
        if len(kept) == nvars:
            break
        v = fs[k]
        for p, r in residues:
            if v[p]:
                v = [r[p] * a - v[p] * b for a, b in zip(v, r)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            residues.append((p, v))
            kept.append(k)
    pivots = {p for p, _ in residues}
    units = [[int(i == j) for i in range(nvars)] for j in range(nvars) if j not in pivots]
    coords = [(fs[k], mults[k]) for k in kept] + [(u, 0) for u in units]
    c = [f for f, _ in coords]
    others = [
        (primitive_row([_int_det(c[:j] + [fs[k]] + c[j + 1 :]) for j in range(nvars)]), mults[k])
        for k in range(len(fs))
        if k not in kept
    ]
    return coords, others


def _reduced_systems(
    forms: Sequence[Sequence], mults: Sequence[int], degrees: Sequence[int]
) -> Iterator[tuple[list[list[int]], int]]:
    """The system of `derivation_dim` and its number of unknowns, for each
    degree in turn: in the coordinates y_i = c_i(x) of `_coordinates`, the
    unknowns are the coefficients of y^a in theta(y_i) with a_i >= m_i, and
    the rows are those of the non-coordinate forms over them.

    What does not depend on the degree is built once: the primitive forms,
    the coordinates with their Cramer determinants, and each other form's
    chart.  A chart's powers N^e are built only as far as the degree being
    built needs them, e <= degree, and kept for the next one (a form whose
    multiplicity passes the degree needs none yet), so a caller that stops
    at a low degree builds no higher power.  Each degree builds its
    monomials, unknowns and rows.  A zero form that some degree constrains
    has no chart, and is refused before the first degree."""
    fs = _primitive_forms(forms, mults)
    coords, others = _coordinates(fs, mults)
    top = max(degrees, default=-1)
    if any(mult <= top and not any(form) for form, mult in others):
        raise ValueError("zero form")
    charts = [None] * len(others)
    for degree in degrees:
        charts = [_chart(form, mult, degree, chart) for (form, mult), chart in zip(others, charts)]
        monos = monomials(len(fs[0]), degree)
        cols = [(i, k) for i, (_, m) in enumerate(coords) for k, mono in enumerate(monos) if mono[i] >= m]
        rows = [
            row
            for (form, mult), chart in zip(others, charts)
            for row in _form_rows(form, mult, chart, monos, degree, cols)
        ]
        yield rows, len(cols)


def derivation_basis(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> list[tuple[tuple[dict[Monomial, int], ...], int]]:
    """Echelon-normalized basis of the degree-d piece of the module.

    Returns (coefficient tuple (theta(x_1), ..., theta(x_n)) as integer term
    dicts, positive denominator) pairs; deterministic for fixed input order.
    """
    rows, monos = _derivation_rows(forms, mults, degree)
    nvars, nm = len(forms[0]), len(monos)
    _, kernel = integer_kernel(rows, nvars * nm)
    return [
        (tuple({monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k]} for i in range(nvars)), den)
        for v, den in kernel
    ]


def derivation_dims(forms: Sequence[Sequence], mults: Sequence[int], degrees: Sequence[int]) -> Iterator[int]:
    """`derivation_dim` at each of the degrees, in order, as a generator
    over one set-up of the coordinates and charts (`_reduced_systems`).  A
    set-up error is raised before the first dimension; each degree is
    solved only when asked for."""
    for rows, ncols in _reduced_systems(forms, mults, degrees):
        yield ncols - integer_rank(rows, ncols)


def derivation_dim(forms: Sequence[Sequence], mults: Sequence[int], degree: int) -> int:
    """Dimension of the degree-d piece of the module, len(`derivation_basis`).

    It is solved in the coordinates y = C x of l independent forms, chosen
    heaviest first (`_coordinates`).  C is invertible, so x -> C x is an
    automorphism of S that keeps degrees, and theta -> (theta(y_1), ...,
    theta(y_l)) maps the degree-d derivations isomorphically onto l-tuples
    of degree-d polynomials in y.  A form alpha = b C is the polynomial
    b(y) = sum_j b_j y_j, and theta(alpha) = sum_j b_j theta(y_j), so the
    map takes D(A, m)_d onto the tuples (p_1, ..., p_l) with b(y)^m dividing
    sum_j b_j p_j for every form, a space of the same dimension.  There the
    coordinate form c_i = y_i asks only that p_i have no monomial of
    y_i-degree below m_i: it drops those unknowns, leaving
    sum_i C(d-m_i+l-1, l-1) (a term is 0 when m_i > d), and adds no row.
    The rows of the other forms are `_form_rows` over the unknowns kept,
    and the dimension is the unknown count minus their rank.
    `derivation_basis` keeps the full system in the input coordinates,
    because its echelon basis is read there and cited in certificates.
    """
    return next(derivation_dims(forms, mults, (degree,)))
