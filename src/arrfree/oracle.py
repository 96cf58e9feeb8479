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
(`exactalg._term_quotient`) need no Fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .arrangement import Multiarrangement, ParseError, _entry, rank
from .dspace import derivation_basis, derivation_dims
from .exactalg import (
    Monomial,
    _term_combination,
    _term_product,
    _term_quotient,
    linear_terms,
    monomials,
    poly_matrix_det,
    primitive_row,
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

    def scale(self, c: int) -> "Derivation":
        return Derivation(tuple({m: c * v for m, v in p.items()} for p in self.coeffs), self.den)

    def add(self, other: "Derivation") -> "Derivation":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Derivation(tuple(_term_combination(((a, p), (b, q))) for p, q in zip(self.coeffs, other.coeffs)), den)

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
    alpha_H^{m(H)} as a term dict.  The normal is made primitive here, not
    read as primitive from `Hyperplane.coeffs`, since the constructor takes
    any tuple; a product of primitive forms is primitive (Gauss's lemma)."""
    out = []
    for h, m in zip(a.hyperplanes, a.mult):
        alpha = primitive_row(h.coeffs)
        form = linear_terms(alpha)
        power = form
        for _ in range(m - 1):
            power = _term_product(power, form)
        out.append((alpha, power))
    return out


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
    kind: str  # "Basis" | "Dependent" | "DetIsMultiple"
    factor_degree: int | None = None
    exponents: tuple[int, ...] | None = None


def saito_check(a: Multiarrangement, thetas) -> SaitoResult:
    """Compare det M(theta_1..theta_l) with the defining polynomial.

    A nonzero constant quotient certifies a basis; zero means dependence;
    a positive-degree quotient reports its degree.

    In integer term dicts: each theta's numerators are a positive multiple
    of it, which keeps its membership and multiplies the determinant by a
    nonzero constant only.  Q(A,m), the product of the primitive normals' powers, is
    primitive, so by Gauss's lemma it divides the integer determinant over
    Q exactly when it does over Z.
    """
    thetas = list(thetas)
    if len(thetas) != a.dim:
        raise ValueError(f"need exactly {a.dim} derivations")
    powers = _normal_powers(a)
    for t in thetas:
        if not is_log_derivation(a, t, powers):
            raise ValueError("derivation outside D(A,m)")
    det = poly_matrix_det([[t.coeffs[i] for t in thetas] for i in range(a.dim)])
    if not det:
        return SaitoResult("Dependent")
    q = {(0,) * a.dim: 1}
    for _, power in powers:
        q = _term_product(q, power)
    quotient = _term_quotient(det, q)
    if quotient is None:
        raise RuntimeError("determinant not divisible by Q(A,m); membership bug")
    factor_degree = sum(next(iter(quotient)))
    if factor_degree == 0:
        return SaitoResult("Basis", exponents=tuple(sorted(t.pdeg for t in thetas)))
    return SaitoResult("DetIsMultiple", factor_degree=factor_degree)


# ---------------------------------------------------------------------------
# Hilbert-function freeness test


def default_degree_cap(a: Multiarrangement) -> int:
    return max(1, a.total_mult - rank(a) + 1)


def cap_is_reasonable(dim: int, cap: int) -> bool:
    """Desk-scale guard; rank-3 caps beyond 15 are refused."""
    return dim * comb(cap + dim - 1, dim - 1) <= 3 * comb(17, 2)


MAX_EXPONENT_TUPLES = 10_000


def exponent_tuple_count(total: int, parts: int) -> int:
    """The number of `exponent_candidates(total, parts)`, the partitions of
    total into `parts` positive parts, or any number above
    MAX_EXPONENT_TUPLES once the count is known to pass it.

    By dynamic programming over n = 0, 1, ..., total:
    p(n, k) = p(n - 1, k - 1) + p(n - k, k), since a partition either has
    a part 1 or is one of n - k with every part raised by 1.  p(n, k) never
    falls as n grows (raise the largest part), so the table stops at the
    first n whose p(n, parts) passes the bound; with two or more parts that
    happens by n = parts + 2*MAX_EXPONENT_TUPLES, so the work is bounded
    whatever total is.
    """
    if parts < 1 or total < parts:
        return 0
    if parts == 1:
        return 1
    cols = [[1] + [0] * parts]  # cols[n][k] = p(n, k)
    for n in range(1, total + 1):
        cols.append([0] + [cols[n - 1][k - 1] + (cols[n - k][k] if k <= n else 0) for k in range(1, parts + 1)])
        if cols[n][parts] > MAX_EXPONENT_TUPLES:
            break
    return cols[-1][parts]


def exponent_tuple_overflow(total: int, parts: int) -> str | None:
    """Desk-scale guard on the Hilbert test's candidate list: None for at
    most MAX_EXPONENT_TUPLES exponent tuples, else the reason to refuse."""
    if exponent_tuple_count(total, parts) <= MAX_EXPONENT_TUPLES:
        return None
    return f"more than {MAX_EXPONENT_TUPLES} exponent tuples of length {parts} sum to |m| = {total}"


def exponent_candidates(total: int, parts: int) -> list[tuple[int, ...]]:
    """Nondecreasing positive tuples of the given length summing to total."""
    return list(_nondecreasing_tuples(total, parts, 1))


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

    Draws small integer combinations of the degree-slice bases; any success
    is a proof, failure proves nothing.
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
            basis = bases[d]
            combo = None
            coeffs = [rng.randint(-3, 3) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            for c, t in zip(coeffs, basis):
                if c == 0:
                    continue
                part = t.scale(c)
                combo = part if combo is None else combo.add(part)
            if combo is None or combo.is_zero():
                break
            thetas.append(combo)
        if len(thetas) != len(tuple(exps)):
            continue
        if saito_check(a, thetas).kind == "Basis":
            return tuple(thetas)
    return None


def hilbert_freeness_test(
    a: Multiarrangement,
    degree_cap: int | None = None,
    seed: int = 0,
    trials: int = 20,
) -> HilbertResult:
    """Match graded dimensions of D(A,m) against all free exponent tuples.

    No tuple surviving proves nonfreeness.  A unique survivor plus a
    successful randomized Saito extraction proves freeness.  Anything else
    is Undetermined.  The dimensions at degrees 0..cap are ranks, from one
    `derivation_dims` call: the coordinates and charts are set up once, and
    each degree builds and eliminates only its own system.  Bases are
    solved only at the survivor's degrees (`extract_basis`).  More than
    MAX_EXPONENT_TUPLES candidate tuples is a ValueError, raised before any
    solve.
    """
    l = a.dim
    if rank(a) != l:
        raise ValueError("non-essential input; essentialize first")
    cap = degree_cap if degree_cap is not None else default_degree_cap(a)
    if cap < 1:
        raise ValueError("degree cap must be at least 1")
    total = a.total_mult
    overflow = exponent_tuple_overflow(total, l)
    if overflow:
        raise ValueError(overflow)
    forms, mults = [h.coeffs for h in a.hyperplanes], list(a.mult)
    dims = tuple(derivation_dims(forms, mults, range(cap + 1)))
    survivors = tuple(
        t
        for t in exponent_candidates(total, l)
        if all(free_module_dim(t, d, l) == dims[d] for d in range(cap + 1))
    )
    if not survivors:
        return HilbertResult("NonFreeProven", cap, dims, survivors, seed=seed)
    if len(survivors) == 1 and trials > 0:
        exps = survivors[0]
        basis = extract_basis(a, exps, seed=seed, trials=trials)
        if basis is not None:
            return HilbertResult(
                "FreeProven", cap, dims, survivors, exponents=exps, basis=basis, seed=seed
            )
    return HilbertResult("Undetermined", cap, dims, survivors, seed=seed)
