"""Exact elimination and integer polynomial arithmetic.

Every decision runs in Python ints; Fractions are made only at the edges.
Elimination is one fraction-free kernel of two phases: a forward pass
(`_forward`) that eliminates below each pivot, and a back-reduction that
clears above it.  A rank needs the forward pass only (`integer_rank`); the
kernel (`integer_kernel`) needs both (`_gauss_jordan`).  Every other
module that eliminates calls this kernel: `arrangement` for the echelon
bases of its flats, its blocks and its essentialization, `dspace` for
its heavy coordinates (`_gauss_jordan`) and its graded pieces, and
`rank2` for the pivots of a codim-2 flat's member normals (`_forward`).
Polynomials are integer term dicts {exponent vector: int}
(`linear_powers`, `_term_quotient`).  No other module uses the Fraction
classes `Matrix` and `Polynomial`, nor `poly_matrix_det`, one Bareiss
path over term dicts: the tests keep them as references, and the
benchmark's tracer wraps `Matrix.rref`, `Polynomial.divmod_by` and
`poly_matrix_det`.
Everything in this module is a pure value; same input gives bit-identical
output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense row-major matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [vec(r) for r in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries: tuple[Vec, ...] = tuple(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        rows = [primitive_row(r) for r in self.entries]
        pivots = _gauss_jordan(rows, self.cols)
        zero = [Fraction(0)] * self.cols
        red = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
        return Matrix(red + [zero] * (self.rows - len(pivots))), pivots

    def rank(self) -> int:
        return integer_rank([primitive_row(r) for r in self.entries], self.cols)


def primitive_row(row: Sequence) -> list[int]:
    """The integer multiple of a rational row whose entries have gcd 1; a
    zero row stays zero."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def primitive_form(row: Sequence[int]) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer row whose first nonzero
    entry is positive: every nonzero multiple of the row gives the same
    tuple (a rational row goes through `primitive_row` first)."""
    g = gcd(*row)
    if g == 0:
        raise ValueError("zero form")
    for x in row:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def _pivot(v: Sequence) -> int:
    """The index of the first nonzero entry of v."""
    return next(j for j, x in enumerate(v) if x)


def _clear(rows: list[list[int]], targets: range, r: int, c: int) -> None:
    """Zero column c of the target rows with pivot row r: each row with a
    nonzero entry f there becomes pv*row - f*(row r), divided by its gcd."""
    prow = rows[r]
    pv = prow[c]
    for i in targets:
        f = rows[i][c]
        if f:
            new = [pv * a - f * b for a, b in zip(rows[i], prow)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _forward(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of integer rows, in place.

    Returns the pivot columns p_0 < p_1 < ...; afterwards row r has a
    nonzero entry at p_r and zeros before it and below it, and the rows
    after the last pivot row are zero, so the number of pivots is the rank.
    Only the rows below each pivot row are updated (`_clear`), and every
    row is kept primitive (its entries divided by their gcd) after each
    update, which bounds the growth of the entries.
    """
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _clear(rows, range(r + 1, nrows), r, c)
        pivots.append(c)
        r += 1
    return pivots


def _gauss_jordan(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place:
    `_forward`, then back-reduction.

    Returns the pivot columns p_0 < p_1 < ...; afterwards row r has a
    nonzero entry at p_r and zeros at every other pivot column, and the
    rows after the last pivot row are zero.  Back-reduction clears the
    entries above each pivot, last pivot first, with the same primitive
    update (`_clear`) as the forward pass; a pivot row already has zeros at
    the later pivots, so clearing one column leaves the others cleared.
    Row r divided by its entry at p_r is row r of the reduced row echelon
    form, which is unique, so it equals the rational elimination's.
    """
    pivots = _forward(rows, ncols)
    for r in reversed(range(1, len(pivots))):
        _clear(rows, range(r), r, pivots[r])
    return pivots


def integer_rank(rows: list[list[int]], ncols: int) -> int:
    """Rank of the integer rows (each of length ncols), by the forward pass
    alone; the rows are eliminated in place."""
    return len(_forward(rows, ncols))


def integer_kernel(rows: list[list[int]], ncols: int) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Pivot columns and a reduced-echelon kernel basis of the integer rows
    (each of length ncols), which it eliminates in place: per free column
    f (increasing), integers v over a positive den, where v/den has 1 at f,
    zero at the other free columns and -row[f]/row[p] at the pivot p of
    each row.  den is the lcm of those entries' reduced denominators, so
    v/den is in lowest terms."""
    pivots = _gauss_jordan(rows, ncols)
    pivot_set = set(pivots)
    basis: list[tuple[list[int], int]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(row[f], row[p], p) for row, p in zip(rows, pivots) if row[f]]
        den = lcm(*(abs(q) // gcd(c, q) for c, q, _ in used))
        v = [0] * ncols
        v[f] = den
        for c, q, p in used:
            v[p] = -c * den // q
        basis.append((v, den))
    return pivots, basis


def _chart_index(f: Sequence) -> int:
    q = next((j for j in reversed(range(len(f))) if f[j] != 0), None)
    if q is None:
        raise ValueError("zero form")
    return q


def scaled_chart_image(form: Sequence, alpha: Sequence) -> tuple:
    """The linear form alpha in the chart coordinates y of the form f, times
    f_q, where q is the last index with f_q != 0.

    The chart is y_1 = f(x) and y_{j'} = x_j for every j != q, where j' is
    j + 1 below q and j above it, so the hyperplane f = 0 is {y_1 = 0}.
    Since x_q = (y_1 - sum_{j != q} f_j*y_{j'}) / f_q, the image has y_1
    coefficient alpha_q and y_{j'} coefficient f_q*alpha_j - alpha_q*f_j:
    products of the entries, so integer forms give an integer image.
    """
    q = _chart_index(form)
    fq, aq = form[q], alpha[q]
    return (aq,) + tuple(fq * alpha[j] - aq * form[j] for j in range(len(form)) if j != q)


# ---------------------------------------------------------------------------
# multivariate polynomials

Monomial = tuple[int, ...]


def monomials(nvars: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree, lex-descending: the
    multisets of `degree` variable indices, taken in lex order, count each
    variable's exponent, and the earlier multiset has more of the first
    index where two differ."""
    if degree < 0:
        return []
    out = []
    for picks in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in picks:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def linear_terms(row: Sequence) -> dict[Monomial, object]:
    """The linear form with the given coefficients, as a term dict."""
    n = len(row)
    return {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(row) if c != 0}


class Polynomial:
    """Multivariate polynomial: map from exponent vectors to nonzero Fractions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = frac(c)
                if c == 0:
                    continue
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono}")
                self.terms[tuple(mono)] = c

    # constructors
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: frac(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        mono = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "Polynomial":
        return cls(len(coeffs), linear_terms(vec(coeffs)))

    # predicates
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    # arithmetic
    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = frac(other)
            return Polynomial(self.nvars, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        return Polynomial(self.nvars, _term_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def leading(self) -> tuple[Monomial, Fraction]:
        """Lex-largest term; errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def divmod_by(self, g: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Division by a single divisor under lex order: self = q*g + r."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        gm, gc = g.leading()
        q = Polynomial.zero(self.nvars)
        r_terms: dict[Monomial, Fraction] = {}
        f = self
        while not f.is_zero():
            fm, fc = f.leading()
            diff = tuple(a - b for a, b in zip(fm, gm))
            if all(e >= 0 for e in diff):
                t = Polynomial(self.nvars, {diff: fc / gc})
                q = q + t
                f = f - t * g
            else:
                r_terms[fm] = fc
                f = Polynomial(self.nvars, {m: c for m, c in f.terms.items() if m != fm})
        return q, Polynomial(self.nvars, r_terms)

    def divisible_by(self, g: "Polynomial") -> bool:
        return self.divmod_by(g)[1].is_zero()

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        names = ["x", "y", "z", "w"] + [f"x{i}" for i in range(5, self.nvars + 1)]
        bits = []
        for mono, c in sorted(self.terms.items(), reverse=True):
            mon = "".join(
                f"{names[i]}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            )
            bits.append(f"{c}" + (f"*{mon}" if mon else ""))
        return "Poly(" + " + ".join(bits) + ")"


def _term_product(p: dict[Monomial, object], q: dict[Monomial, object]) -> dict[Monomial, object]:
    """Product of two term dicts {exponent vector: coefficient}, without
    zero coefficients."""
    out: dict[Monomial, object] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def linear_powers(
    row: Sequence[int], top: int, powers: list[dict[Monomial, int]] | None = None
) -> list[dict[Monomial, int]]:
    """The powers 0..top of the linear form with the given coefficients, as
    term dicts {exponent vector: nonzero coefficient}; integer coefficients
    give integer powers.  `powers`, the list of the form's powers 0..k that
    an earlier call returned, is extended in place up to top and returned
    (as it is if k >= top), so a caller that raises top step by step builds
    each power once."""
    form = linear_terms(row)
    if powers is None:
        powers = [{(0,) * len(row): 1}]
    while len(powers) <= top:
        powers.append(_term_product(powers[-1], form))
    return powers


def _term_combination(pairs: Iterable[tuple[int, dict[Monomial, int]]]) -> dict[Monomial, int]:
    """The sum of c*p over the (c, p) pairs of an integer and a term dict,
    without zero coefficients."""
    out: dict[Monomial, int] = {}
    for c, p in pairs:
        if c:
            for m, v in p.items():
                out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def _term_quotient(f: dict[Monomial, int], g: dict[Monomial, int]) -> dict[Monomial, int] | None:
    """f/g for integer term dicts: the quotient if g divides f in Z[x],
    else None.

    Division by the one divisor g in lex order: the lex-largest term of f
    must be an integer multiple t of g's (exponents and coefficient), and f
    becomes f - t*g.  If f = q*g in Z[x], the leading term of f is that of q
    times that of g, and f - t*g = (q - t)*g, so the first term that fails
    proves that g does not divide f in Z[x].  By Gauss's lemma, a primitive
    g (coefficients of gcd 1) that divides f in Q[x] divides it in Z[x], so
    for a primitive g, None also means that g does not divide f over Q.
    All exponent vectors must have one length: then each step leaves only
    terms below the one it removed, so the loop ends.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    gm = max(g)
    gc = g[gm]
    tail = [(m, c) for m, c in g.items() if m != gm]
    f = dict(f)
    q: dict[Monomial, int] = {}
    while f:
        fm = max(f)
        t, r = divmod(f.pop(fm), gc)
        shift = tuple(a - b for a, b in zip(fm, gm))
        if r or min(shift) < 0:
            return None
        q[shift] = t
        for m, c in tail:
            m = tuple(a + b for a, b in zip(shift, m))
            v = f.get(m, 0) - t * c
            if v:
                f[m] = v
            else:
                del f[m]
    return q


def poly_matrix_det(grid: Sequence[Sequence[dict[Monomial, int]]]) -> dict[Monomial, int]:
    """Determinant of a square matrix of integer term dicts, as a term dict,
    by fraction-free Bareiss elimination at every size.  Entry (i, j) after
    step k is a minor of the input, an integer polynomial, times the
    previous pivot, so its division by that pivot (`_term_quotient`) is
    exact in Z[x].  No `src` module calls it (see the module docstring).
    """
    n = len(grid)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in grid):
        raise ValueError("non-square input")
    m = [list(row) for row in grid]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return {}
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _term_combination(
                    ((1, _term_product(m[i][j], m[k][k])), (-1, _term_product(m[i][k], m[k][j])))
                )
                m[i][j] = num if prev is None else _term_quotient(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else {mono: -c for mono, c in det.items()}
