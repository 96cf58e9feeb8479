"""Brute-force ground truth for the derivation module D(A,m).

Graded dimensions by exact linear solves, Saito determinant checks,
randomized basis extraction, and the Hilbert-function obstruction.  The
randomized part errs on the side of soundness: failures yield
Undetermined, never a nonfreeness claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arrangement import Multiarrangement, rank
from .dspace import derivation_basis, derivation_dim
from .exactalg import Polynomial, frac, monomials, poly_matrix_det


@dataclass(frozen=True)
class Derivation:
    """theta = sum_i coeffs[i] d/dx_i with homogeneous coefficients of one
    common degree; the zero derivation has pdeg -1."""

    coeffs: tuple[Polynomial, ...]

    def __post_init__(self):
        degs = {c.degree() for c in self.coeffs if not c.is_zero()}
        if len(degs) > 1 or any(not c.is_homogeneous() for c in self.coeffs):
            raise ValueError("coefficients must be homogeneous of one degree")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @property
    def pdeg(self) -> int:
        return max((c.degree() for c in self.coeffs if not c.is_zero()), default=-1)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply_form(self, form) -> Polynomial:
        out = Polynomial.zero(self.nvars)
        for ci, fi in zip(self.coeffs, form):
            fi = frac(fi)
            if fi != 0:
                out = out + ci * fi
        return out

    def scale(self, c) -> "Derivation":
        return Derivation(tuple(p * c for p in self.coeffs))

    def add(self, other: "Derivation") -> "Derivation":
        return Derivation(tuple(p + q for p, q in zip(self.coeffs, other.coeffs)))

    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "coeffs": [
                sorted(
                    ([list(m), str(c)] for m, c in p.terms.items()),
                    key=lambda t: t[0],
                )
                for p in self.coeffs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Derivation":
        n = data["nvars"]
        coeffs = tuple(
            Polynomial(n, {tuple(m): Fraction(c) for m, c in terms})
            for terms in data["coeffs"]
        )
        return cls(coeffs)


def is_log_derivation(a: Multiarrangement, theta: Derivation) -> bool:
    """Membership test: theta(alpha_H) divisible by alpha_H^{m(H)} for all H.

    alpha_H is the integer normal; a nonzero multiple of it passes or fails
    alike."""
    if theta.nvars != a.dim:
        raise ValueError("dimension mismatch")
    for h, m in zip(a.hyperplanes, a.mult):
        p = theta.apply_form(h.coeffs)
        if p.is_zero():
            continue
        if not p.divisible_by(Polynomial.linear_form(h.coeffs) ** m):
            return False
    return True


def derivation_space_dim(a: Multiarrangement, d: int) -> tuple[int, list[Derivation]]:
    """Dimension and echelon-normalized basis of the degree-d piece."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if a.size == 0:
        # no constraints: the full space of degree-d derivation tuples
        monos = monomials(a.dim, d)
        full = []
        for i in range(a.dim):
            for mono in monos:
                coeffs = [Polynomial.zero(a.dim) for _ in range(a.dim)]
                coeffs[i] = Polynomial(a.dim, {mono: Fraction(1)})
                full.append(Derivation(tuple(coeffs)))
        return len(full), full
    raw = derivation_basis([h.coeffs for h in a.hyperplanes], list(a.mult), d)
    basis = [Derivation(coeffs) for coeffs in raw]
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
    """
    thetas = list(thetas)
    if len(thetas) != a.dim:
        raise ValueError(f"need exactly {a.dim} derivations")
    for t in thetas:
        if not is_log_derivation(a, t):
            raise ValueError("derivation outside D(A,m)")
    grid = [[thetas[j].coeffs[i] for j in range(a.dim)] for i in range(a.dim)]
    det = poly_matrix_det(grid)
    if det.is_zero():
        return SaitoResult("Dependent")
    q, r = det.divmod_by(a.defining_polynomial())
    if not r.is_zero():
        raise RuntimeError("determinant not divisible by Q(A,m); membership bug")
    if q.degree() == 0:
        return SaitoResult("Basis", exponents=tuple(sorted(t.pdeg for t in thetas)))
    return SaitoResult("DetIsMultiple", factor_degree=q.degree())


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
    is Undetermined.  The dimensions are ranks (`derivation_dim`); bases
    are solved only at the survivor's degrees (`extract_basis`).  More than
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
    dims = tuple(derivation_dim(forms, mults, d) for d in range(cap + 1))
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
