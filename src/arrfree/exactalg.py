"""Exact rational matrices and multivariate polynomial arithmetic.

Scalars are `fractions.Fraction` throughout: always reduced, positive
denominator, no rounding anywhere.  Everything in this module is a pure
value; same input gives bit-identical output.
"""

from __future__ import annotations

from fractions import Fraction
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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def apply(self, v: Sequence) -> Vec:
        w = vec(v)
        if len(w) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((self.entries[i][k] * w[k] for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = [list(r) for r in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])


def rank_and_kernel(m: Matrix) -> tuple[int, list[Vec]]:
    """Rank and a deterministic reduced-echelon kernel basis.

    One basis vector per free column f (increasing): entry 1 at f, zero at
    the other free columns, and -RREF[r][f] at the pivot column of row r.
    """
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return len(pivots), basis


def linear_change_to_coordinate(form: Sequence) -> tuple[Matrix, Matrix]:
    """Invertible T whose first row is the form, plus its inverse.

    In the new coordinates y = T x the functional `form` is y_1, so the
    hyperplane `form = 0` becomes {y_1 = 0}.  With q the last index where
    the form f is nonzero, the rows after the first are the unit vectors
    e_j for every j != q, in increasing j.  The inverse is written down
    directly: for j != q its row j is the unit vector at the index of
    e_j's row in T, and its row q is (1/f_q, -f_j/f_q for each j != q in
    order), since x_q = (y_1 - sum_{j != q} f_j x_j) / f_q.
    """
    f = vec(form)
    n = len(f)
    q = next((j for j in reversed(range(n)) if f[j] != 0), None)
    if q is None:
        raise ValueError("zero form")
    others = [j for j in range(n) if j != q]

    def unit(k: int) -> list[Fraction]:
        return [Fraction(k == c) for c in range(n)]

    inv = [unit(j + 1 if j < q else j) for j in range(n)]
    inv[q] = [1 / f[q]] + [-f[j] / f[q] for j in others]
    return Matrix([f] + [unit(j) for j in others]), Matrix(inv)


# ---------------------------------------------------------------------------
# multivariate polynomials

Monomial = tuple[int, ...]


def monomials(nvars: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree, lex-descending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return out


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
        cs = vec(coeffs)
        n = len(cs)
        return cls(n, {tuple(int(j == i) for j in range(n)): cs[i] for i in range(n) if cs[i] != 0})

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
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

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

    def exact_div(self, g: "Polynomial") -> "Polynomial":
        q, r = self.divmod_by(g)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def divisible_by(self, g: "Polynomial") -> bool:
        return self.divmod_by(g)[1].is_zero()

    def substitute_linear(self, images: Sequence[Sequence]) -> "Polynomial":
        """Substitute x_i -> linear form images[i] (over possibly new variables)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        table = substitute_monomials(images, self.terms)
        out = Polynomial.zero(len(images[0]) if images else 0)
        for mono, c in sorted(self.terms.items()):
            out = out + table[mono] * c
        return out

    def set_var_zero(self, i: int) -> "Polynomial":
        return Polynomial(self.nvars, {m: c for m, c in self.terms.items() if m[i] == 0})

    def drop_var(self, i: int) -> "Polynomial":
        """Remove variable i; every term must have exponent 0 there."""
        if any(m[i] != 0 for m in self.terms):
            raise ValueError("variable still present")
        return Polynomial(self.nvars - 1, {m[:i] + m[i + 1 :]: c for m, c in self.terms.items()})

    def evaluate(self, point: Sequence) -> Fraction:
        p = vec(point)
        if len(p) != self.nvars:
            raise ValueError("wrong point length")
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(p, mono):
                v *= x**e
            total += v
        return total

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


def substitute_monomials(images: Sequence[Sequence], monos: Iterable[Monomial]) -> dict[Monomial, Polynomial]:
    """Image of each monomial under x_i -> linear form images[i], built
    left to right from cached powers of the images."""
    forms = [Polynomial.linear_form(im) for im in images]
    if forms and any(f.nvars != forms[0].nvars for f in forms):
        raise ValueError("images must share variable count")
    new_n = forms[0].nvars if forms else 0
    powers: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, k: int) -> Polynomial:
        if k == 0:
            return Polynomial.constant(new_n, 1)
        got = powers.get((i, k))
        if got is None:
            got = power(i, k - 1) * forms[i]
            powers[(i, k)] = got
        return got

    table: dict[Monomial, Polynomial] = {}
    for mono in monos:
        p = Polynomial.constant(new_n, 1)
        for i, e in enumerate(mono):
            if e:
                p = p * power(i, e)
        table[mono] = p
    return table


def _cofactor_det(grid: list[list[Polynomial]], nvars: int) -> Polynomial:
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = Polynomial.zero(nvars)
    for j in range(n):
        if grid[0][j].is_zero():
            continue
        minor = [[grid[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = grid[0][j] * _cofactor_det(minor, nvars)
        total = total + term if j % 2 == 0 else total - term
    return total


def poly_matrix_det(grid: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix.

    Cofactor expansion up to 3x3; fraction-free Bareiss elimination above
    that (the intermediate divisions are exact by construction).
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("non-square input")
    if n == 0:
        raise ValueError("empty matrix")
    nvars = grid[0][0].nvars
    if any(p.nvars != nvars for row in grid for p in row):
        raise ValueError("variable-count mismatch")
    if n <= 3:
        return _cofactor_det([list(r) for r in grid], nvars)

    m = [list(row) for row in grid]
    sign = 1
    prev = Polynomial.constant(nvars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pr = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pr is None:
                return Polynomial.zero(nvars)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Polynomial.zero(nvars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det
