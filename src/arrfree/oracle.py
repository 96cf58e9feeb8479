"""Brute-force ground truth for the derivation module D(A,m).

Graded dimensions by exact linear solves, Saito determinant checks,
randomized basis extraction, and the Hilbert-function obstruction.  The
randomized part errs on the side of soundness: failures yield
Undetermined, never a nonfreeness claim.

Everything runs in Python ints: a derivation is integer term dicts
{exponent vector: int} over one positive denominator, and Fractions are
made only where a certificate is read or printed.  Saito's criterion
(`saito_check`, `is_log_derivation`) reads the numerators, a positive
multiple of the derivation, and each hyperplane's primitive integer
normal.  By Gauss's lemma a primitive polynomial divides an integer
polynomial over Q exactly when it does over Z, so the exact divisions
(`exactalg._term_quotient`) need no Fraction.  `saito_check` takes only
derivations whose degrees sum to |m|, the degree of Q(A,m), as no other
tuple is a basis.  Saito's lemma (Q(A,m) divides det M(theta) for
members) then leaves det M(theta) = c*Q(A,m) with c an integer, and
`saito_check` reads c != 0 off one integer determinant at a point off
every hyperplane, with no polynomial determinant: `exactalg`'s
`poly_matrix_det` serves only the tests and the benchmark's tracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import comb, gcd, lcm, prod
from operator import mul

from .arrangement import Multiarrangement, ParseError, _entry, rank
from .dspace import derivation_basis, derivation_dims
from .exactalg import (
    Monomial,
    _term_combination,
    _term_quotient,
    linear_powers,
    monomials,
)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _exponents(m) -> tuple[int, ...]:
    if not (isinstance(m, list) and all(map(_is_count, m))):
        raise ParseError(f"bad exponent vector {m!r:.40}")
    return tuple(m)


@dataclass(frozen=True)
class Derivation:
    """theta = sum_i coeffs[i]/den d/dx_i: integer term dicts in nvars =
    len(coeffs) variables, homogeneous of one degree (the zero derivation
    has pdeg -1).  Kept in lowest terms, so equal derivations compare equal."""

    coeffs: tuple[dict[Monomial, int], ...]
    den: int = 1

    def __post_init__(self):
        # every coefficient lives in the ring of nvars variables; the integer
        # term-dict arithmetic of Saito's criterion relies on it
        if any(len(m) != len(self.coeffs) for p in self.coeffs for m in p):
            raise ValueError("coefficients must have one variable per coordinate")
        if len({sum(m) for p in self.coeffs for m, c in p.items() if c}) > 1:
            raise ValueError("coefficients must be homogeneous of one degree")
        g = gcd(self.den, *(c for p in self.coeffs for c in p.values()))
        if g > 1 or not all(all(p.values()) for p in self.coeffs):
            object.__setattr__(self, "coeffs", tuple({m: c // g for m, c in p.items() if c} for p in self.coeffs))
            object.__setattr__(self, "den", self.den // g)

    def __hash__(self) -> int:
        return hash((tuple(tuple(sorted(p.items())) for p in self.coeffs), self.den))

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @property
    def pdeg(self) -> int:
        return max((sum(m) for p in self.coeffs for m in p), default=-1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "coeffs": [
                sorted(([list(m), str(Fraction(c, self.den))] for m, c in p.items()), key=lambda t: t[0])
                for p in self.coeffs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Derivation":
        """nvars and the exponents must be ints that are not bools and are at
        least 0, the coefficients exact numbers (`arrangement._entry`); else
        a ParseError, before any arithmetic."""
        n = data["nvars"]
        if not _is_count(n):
            raise ParseError(f"bad nvars {n!r:.40}")
        rows = [{_exponents(m): _entry(c) for m, c in terms} for terms in data["coeffs"]]
        if len(rows) != n:
            raise ValueError("coefficients must have one variable per coordinate")
        den = lcm(*(c.denominator for row in rows for c in row.values()))
        return cls(tuple({m: c.numerator * (den // c.denominator) for m, c in row.items()} for row in rows), den)


def _normal_powers(a: Multiarrangement) -> list[tuple[list[int], dict]]:
    """Per hyperplane H, its primitive integer normal alpha_H and
    alpha_H^{m(H)} as a term dict.  `Hyperplane.coeffs` is primitive, since
    the constructor refuses any other normal, so it is read as given; a
    product of primitive forms is primitive (Gauss's lemma)."""
    return [(h.coeffs, linear_powers(h.coeffs, m)[m]) for h, m in zip(a.hyperplanes, a.mult)]


def is_log_derivation(a: Multiarrangement, theta: Derivation, powers=None) -> bool:
    """Membership test: theta(alpha_H) divisible by alpha_H^{m(H)} for all H.

    In integers: theta's numerators, a positive multiple of theta, are a
    member exactly when theta is, and alpha_H^{m(H)} is primitive (see the
    module docstring).
    `powers` is `_normal_powers(a)`, passed by a caller that tests several
    derivations against one arrangement."""
    if theta.nvars != a.dim:
        raise ValueError("dimension mismatch")
    for alpha, power in _normal_powers(a) if powers is None else powers:
        image = _term_combination(zip(alpha, theta.coeffs))
        if image and _term_quotient(image, power) is None:
            return False
    return True


def derivation_space_dim(a: Multiarrangement, d: int) -> tuple[int, list[Derivation]]:
    """Dimension and echelon-normalized basis of the degree-d piece."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if a.size == 0:
        # no constraints: the full space of degree-d derivation tuples
        monos = monomials(a.dim, d)
        full = [
            Derivation(tuple({mono: 1} if j == i else {} for j in range(a.dim))) for i in range(a.dim) for mono in monos
        ]
        return len(full), full
    raw = derivation_basis([h.coeffs for h in a.hyperplanes], list(a.mult), d)
    basis = [Derivation(coeffs, den) for coeffs, den in raw]
    return len(basis), basis


@dataclass(frozen=True)
class SaitoResult:
    kind: str  # "Basis" | "Dependent", for degrees summing to |m|
    exponents: tuple[int, ...] | None = None


def _point_off(a: Multiarrangement) -> tuple[list[int], int]:
    """The first point p = (1, t, ..., t^(l-1)), t = 1, 2, ..., off every
    hyperplane, and Q(A,m)(p).  Each alpha_H(p) is a nonzero polynomial of
    degree <= l-1 in t, so only finitely many t fail and the loop ends."""
    for t in count(1):
        point = [t**i for i in range(a.dim)]
        values = [sum(map(mul, h.coeffs, point)) for h in a.hyperplanes]
        if all(values):
            return point, prod(map(pow, values, a.mult))


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free Bareiss
    elimination in place: entry (i, j) after step k is a minor of the
    input, so the division by the previous pivot is exact."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return 0
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for row in rows[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1]


def saito_check(a: Multiarrangement, thetas) -> SaitoResult:
    """Saito's criterion: whether theta_1..theta_l, members of D(A,m) whose
    degrees sum to |m|, are a basis.

    det M(theta) is homogeneous of degree the sum of the degrees, and a
    basis has det M(theta) = c*Q(A,m) with c a nonzero constant, so any
    other degree sum is never a basis: it is refused with a ValueError,
    before the membership test.

    In integer term dicts: each theta's numerators are a positive multiple
    of it, which keeps its membership and multiplies the determinant by a
    nonzero constant only.  Saito's lemma: Q(A,m) divides det M(theta) for
    members of D(A,m), which are re-tested here.  Both are homogeneous of
    degree |m|, and Q(A,m), the product of the primitive normals' powers,
    is primitive, so det M = c*Q with c an integer (Gauss's lemma).  At a
    point p off every hyperplane (`_point_off`) det M(theta)(p) = c*Q(p)
    with Q(p) != 0: theta is a basis exactly when that integer is nonzero.
    The point's determinant not divisible by Q(p) would refute the
    membership test.
    """
    thetas = list(thetas)
    if len(thetas) != a.dim:
        raise ValueError(f"need exactly {a.dim} derivations")
    degrees = [t.pdeg for t in thetas]
    if sum(degrees) != a.total_mult:
        raise ValueError(f"need degrees summing to |m| = {a.total_mult}")
    powers = _normal_powers(a)
    for t in thetas:
        if not is_log_derivation(a, t, powers):
            raise ValueError("derivation outside D(A,m)")
    point, q_at = _point_off(a)
    values: dict[Monomial, int] = {}  # monomial -> its value at the point
    rows = []
    for i in range(a.dim):
        row = []
        for t in thetas:
            s = 0
            for mono, c in t.coeffs[i].items():
                v = values.get(mono)
                if v is None:
                    v = values[mono] = prod(map(pow, point, mono))
                s += c * v
            row.append(s)
        rows.append(row)
    det = _integer_det(rows)
    if det % q_at:
        raise RuntimeError("determinant not divisible by Q(A,m); membership bug")
    if not det:
        return SaitoResult("Dependent")
    return SaitoResult("Basis", exponents=tuple(sorted(degrees)))


# ---------------------------------------------------------------------------
# Hilbert-function freeness test


def default_degree_cap(a: Multiarrangement) -> int:
    return max(1, a.total_mult - rank(a) + 1)


def cap_is_reasonable(dim: int, cap: int) -> bool:
    """Desk-scale guard; rank-3 caps beyond 15 are refused.  Rank 0 has no
    unknowns, so every cap passes."""
    return dim == 0 or dim * comb(cap + dim - 1, dim - 1) <= 3 * comb(17, 2)


MAX_EXPONENT_TUPLES = 10_000


class ExponentTupleOverflow(ValueError):
    """The Hilbert test's desk-scale refusal: more than MAX_EXPONENT_TUPLES
    exponent tuples of length `parts` sum to `total`."""

    def __init__(self, total: int, parts: int):
        super().__init__(f"more than {MAX_EXPONENT_TUPLES} exponent tuples of length {parts} sum to |m| = {total}")


def _nondecreasing_tuples(remaining: int, parts_left: int, minimum: int):
    if parts_left == 1:
        if remaining >= minimum:
            yield (remaining,)
        return
    for first in range(minimum, remaining // parts_left + 1):
        for rest in _nondecreasing_tuples(remaining - first, parts_left - 1, first):
            yield (first,) + rest


def free_module_dim(exps, d: int, nvars: int) -> int:
    return sum(comb(d - e + nvars - 1, nvars - 1) for e in exps if d >= e)


@dataclass(frozen=True)
class HilbertResult:
    """`dims` are the graded dimensions at degrees 0..degree_cap, the
    degree the result cites: for NonFreeProven the first degree that
    leaves no exponent tuple, for FreeProven the degree at which the basis
    was extracted (see `hilbert_freeness_test`), for Undetermined the cap."""

    kind: str  # "FreeProven" | "NonFreeProven" | "Undetermined"
    degree_cap: int
    dims: tuple[int, ...]
    survivors: tuple[tuple[int, ...], ...]
    exponents: tuple[int, ...] | None = None
    basis: tuple[Derivation, ...] | None = None
    seed: int = 0


def extract_basis(
    a: Multiarrangement, exps, seed: int = 0, trials: int = 20
) -> tuple[Derivation, ...] | None:
    """Randomized Saito basis extraction at the given degrees.

    Draws small integer combinations of the degree-slice bases
    (`_combination`); any success is a proof, failure proves nothing.  A
    slice basis is linearly independent, so no drawn combination is zero.
    """
    rng = random.Random(seed)
    bases = {}
    for d in set(exps):
        _, basis = derivation_space_dim(a, d)
        if not basis:
            return None
        bases[d] = basis
    for _ in range(trials):
        thetas = []
        for d in exps:
            coeffs = [rng.randint(-3, 3) for _ in bases[d]]
            if not any(coeffs):
                coeffs[0] = 1
            thetas.append(_combination(coeffs, bases[d]))
        if saito_check(a, thetas).kind == "Basis":
            return tuple(thetas)
    return None


def _combination(coeffs, basis) -> Derivation:
    """sum_j coeffs[j] * basis[j] for integer coeffs, in one pass: each
    coordinate is one integer combination of the numerators, brought over
    the lcm of the basis denominators.  `Derivation` keeps it in lowest
    terms, so it equals any other way of summing."""
    den = lcm(*(t.den for t in basis))
    scaled = [(c * (den // t.den), t.coeffs) for c, t in zip(coeffs, basis) if c]
    nvars = basis[0].nvars
    return Derivation(tuple(_term_combination((c, p[i]) for c, p in scaled) for i in range(nvars)), den)


def hilbert_freeness_test(
    a: Multiarrangement,
    degree_cap: int | None = None,
    seed: int = 0,
    trials: int = 20,
) -> HilbertResult:
    """Match graded dimensions of D(A,m) against all free exponent tuples.

    The tuples are filtered one degree at a time, from one
    `derivation_dims` set-up, and the test stops at the first degree that
    decides it.  The first degree k >= 1 that leaves no tuple proves
    nonfreeness at every cap >= k, and the result cites k.  At the first
    degree k >= max(e) that leaves exactly one tuple e, or at the cap if it
    comes first, a randomized Saito extraction (`extract_basis`, solving
    bases only at e's degrees) is tried once: a basis proves freeness with
    exponents e by itself (Saito's criterion), and the result cites k.  If
    it fails, the filtering goes on to the cap with no second try, since
    the draws depend only on e and the seed; anything not decided by then
    is Undetermined.  The candidates come from one enumeration, cut after
    MAX_EXPONENT_TUPLES + 1 tuples; more than MAX_EXPONENT_TUPLES is an
    `ExponentTupleOverflow`, raised before any solve, which callers report
    as the refusal.
    """
    l = a.dim
    if rank(a) != l:
        raise ValueError("non-essential input; essentialize first")
    cap = degree_cap if degree_cap is not None else default_degree_cap(a)
    if cap < 1:
        raise ValueError("degree cap must be at least 1")
    total = a.total_mult
    survivors = list(islice(_nondecreasing_tuples(total, l, 1), MAX_EXPONENT_TUPLES + 1))
    if len(survivors) > MAX_EXPONENT_TUPLES:
        raise ExponentTupleOverflow(total, l)
    forms, mults = [h.coeffs for h in a.hyperplanes], list(a.mult)
    dims = []
    untried = trials > 0
    for d, dim in enumerate(derivation_dims(forms, mults, range(cap + 1))):
        dims.append(dim)
        survivors = [t for t in survivors if free_module_dim(t, d, l) == dim]
        if not survivors and d >= 1:
            return HilbertResult("NonFreeProven", d, tuple(dims), (), seed=seed)
        if untried and len(survivors) == 1 and (d >= max(survivors[0]) or d == cap):
            untried = False
            exps = survivors[0]
            basis = extract_basis(a, exps, seed=seed, trials=trials)
            if basis is not None:
                return HilbertResult(
                    "FreeProven", d, tuple(dims), tuple(survivors), exponents=exps, basis=basis, seed=seed
                )
    return HilbertResult("Undetermined", cap, tuple(dims), tuple(survivors), seed=seed)
