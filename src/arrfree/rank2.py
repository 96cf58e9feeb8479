"""Exponents of rank-2 multiarrangements and the Euler multiplicity.

Rank-2 multiarrangements are always free (Ziegler 1989), so one graded
dimension of the derivation module determines the exponents: the smaller
exponent comes from a single exact linear solve at a computed degree (see
`_min_degree_basis`).  No formula table: the heavy and balanced special
cases fall out of the solver and are asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arrangement import Flat, Multiarrangement
from .dspace import derivation_basis
from .exactalg import Polynomial, Vec, vec


@dataclass(frozen=True)
class Rank2Instance:
    """Distinct linear forms in two variables with positive multiplicities."""

    forms: tuple[Vec, ...]
    mult: tuple[int, ...]
    source: tuple[int, ...] = ()  # originating hyperplane indices, when known

    def __post_init__(self):
        if len(self.forms) < 2:
            raise ValueError("rank-2 instance needs at least two forms")
        if len(self.mult) != len(self.forms):
            raise ValueError("one multiplicity per form required")
        for m in self.mult:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicities must be positive ints, got {m!r}")
        seen = set()
        for f in self.forms:
            if len(f) != 2 or all(x == 0 for x in f):
                raise ValueError(f"bad form {f}")
            lead = next(x for x in f if x != 0)
            canon = tuple(x / lead for x in f)
            if canon in seen:
                raise ValueError("proportional forms")
            seen.add(canon)

    @property
    def total_mult(self) -> int:
        return sum(self.mult)


def project_to_rank2(a: Multiarrangement, x: Flat) -> Rank2Instance:
    """Quotient the members of a codim-2 flat down to two variables.

    The flat's RREF basis rows (w1, w2) span the normals of all members, so
    each member normal n is n[p1]*w1 + n[p2]*w2 with p1 < p2 the pivot
    columns; (n[p1], n[p2]) is its projected form.
    """
    if x.codim != 2:
        raise ValueError("flat must have codimension 2")
    rows = x.basis
    pivots = [next(i for i, c in enumerate(r) if c != 0) for r in rows]
    forms = []
    idx = x.sorted_members()
    for k in idx:
        n = a.hyperplanes[k].normal
        forms.append(vec((n[pivots[0]], n[pivots[1]])))
    return Rank2Instance(tuple(forms), tuple(a.mult[k] for k in idx), idx)


# perfbench looks this cache up by name (run.COLD_CACHES, tracing) to clear it
# before each timed operation and to count unique rank-2 instances, so the
# name stays although the function returns d1 only.
@lru_cache(maxsize=4096)
def _min_degree_basis(forms: tuple[Vec, ...], mult: tuple[int, ...]) -> int:
    """The smaller exponent d1, from one graded solve.

    D = D(A, m) is free with exponents d1 <= d2, d1 + d2 = |m|, so
    dim D_d = max(0, d - d1 + 1) + max(0, d - d2 + 1).  Two bounds hold:
    d1 <= floor(|m|/2) <= d2, and d1 <= |m| - max m, witnessed by
    theta_H * prod_{K != H} alpha_K^{m_K} with H the heaviest form and
    theta_H the constant derivation killing alpha_H.  At
    d = min(ceil(|m|/2) - 1, |m| - max m) therefore d1 - 1 <= d < d2, so
    d1 = d + 1 - dim D_d.  Positive multiplicities make d >= 0.
    """
    total = sum(mult)
    d = min((total + 1) // 2 - 1, total - max(mult))
    return d + 1 - len(derivation_basis(forms, mult, d))


def rank2_exponents(inst: Rank2Instance) -> tuple[int, int]:
    """Nondecreasing exponent pair (d1, d2) with d1 + d2 = |m|."""
    d1 = _min_degree_basis(inst.forms, inst.mult)
    return d1, inst.total_mult - d1


def euler_multiplicity_at_flat(inst: Rank2Instance, h0: int) -> int:
    """Euler multiplicity m*: degree of a local basis derivation that is not
    divisible by the distinguished form.

    m* = d1 when some degree-d1 solution lies outside alpha0*Der, else d2.
    """
    if not 0 <= h0 < len(inst.forms):
        raise ValueError("distinguished form index out of range")
    d1, d2 = rank2_exponents(inst)
    alpha0 = Polynomial.linear_form(inst.forms[h0])
    for coeffs in derivation_basis(inst.forms, inst.mult, d1):
        if any(not c.is_zero() and not c.divisible_by(alpha0) for c in coeffs):
            return d1
    return d2
