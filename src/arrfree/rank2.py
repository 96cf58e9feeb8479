"""Exponents of rank-2 multiarrangements and the Euler multiplicity.

Rank-2 multiarrangements are always free (Ziegler 1989), so one graded
dimension of the derivation module determines the exponents: the smaller
exponent comes from the rank of a single exact linear system at a computed
degree (see `_min_degree_basis`).  No formula table: the heavy and balanced special
cases fall out of the solver and are asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arrangement import Flat, Multiarrangement
from .dspace import derivation_basis, derivation_dim
from .exactalg import _pivot, _term_quotient, linear_terms, primitive_form, primitive_row


@dataclass(frozen=True)
class Rank2Instance:
    """Pairwise non-proportional linear forms in two variables, with
    rational (int or Fraction) entries, and positive multiplicities."""

    forms: tuple[tuple, ...]
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
            canon = primitive_form(primitive_row(f))
            if canon in seen:
                raise ValueError("proportional forms")
            seen.add(canon)

    @property
    def total_mult(self) -> int:
        return sum(self.mult)


def project_to_rank2(a: Multiarrangement, x: Flat) -> Rank2Instance:
    """Quotient the members of a codim-2 flat down to two variables.

    The member normals span a plane whose RREF basis (w1, w2) has pivot
    columns p1 < p2, and each member normal n is n[p1]*w1 + n[p2]*w2, so
    (n[p1], n[p2]) is its projected form, read off the integer normals and
    made primitive (`primitive_form`), so that one line always gives the
    same form.  Two member normals u, v give the pivots: the residue
    u[p1]*v - v[p1]*u, with p1 the earlier of their pivots, vanishes up to
    p1 and has pivot p2.  When the pivots of u and v differ, that is the
    later one.  Every further member normal n must lie
    in the span of u and v: with D = u[p1]*v[p2] - u[p2]*v[p1], which is
    nonzero, Cramer's rule gives D*n = s*u + t*v, and a ValueError reports a
    member for which that identity fails.
    """
    if x.codim != 2:
        raise ValueError("flat must have codimension 2")
    idx = x.sorted_members()
    if len(idx) < 2:
        raise ValueError("a codimension-2 flat has at least two members")
    if idx[0] < 0 or idx[-1] >= a.size:
        raise ValueError("flat member out of range")
    normals = [a.hyperplanes[k].coeffs for k in idx]
    u, v = normals[:2]
    p1, p2 = sorted((_pivot(u), _pivot(v)))
    if p1 == p2:
        p2 = next(j for j in range(p1 + 1, len(u)) if u[p1] * v[j] != v[p1] * u[j])
    d = u[p1] * v[p2] - u[p2] * v[p1]
    for n in normals[2:]:
        s, t = n[p1] * v[p2] - n[p2] * v[p1], u[p1] * n[p2] - u[p2] * n[p1]
        if any(d * x != s * y + t * z for x, y, z in zip(n, u, v)):
            raise ValueError("flat members do not span a plane")
    forms = tuple(primitive_form((n[p1], n[p2])) for n in normals)
    return Rank2Instance(forms, tuple(a.mult[k] for k in idx), idx)


# perfbench looks this cache up by name (run.COLD_CACHES, tracing) to clear it
# before each timed operation and to count unique rank-2 instances, so the
# name stays although the function returns d1 only and builds no basis.
@lru_cache(maxsize=4096)
def _min_degree_basis(forms: tuple[tuple, ...], mult: tuple[int, ...]) -> int:
    """The smaller exponent d1, from one graded dimension.

    D = D(A, m) is free with exponents d1 <= d2, d1 + d2 = |m|, so
    dim D_d = max(0, d - d1 + 1) + max(0, d - d2 + 1).  Two bounds hold:
    d1 <= floor(|m|/2) <= d2, and d1 <= |m| - max m, witnessed by
    theta_H * prod_{K != H} alpha_K^{m_K} with H the heaviest form and
    theta_H the constant derivation killing alpha_H.  At
    d = min(ceil(|m|/2) - 1, |m| - max m) therefore d1 - 1 <= d < d2, so
    d1 = d + 1 - dim D_d, and dim D_d is a rank (`derivation_dim`), not a
    basis.  Positive multiplicities make d >= 0.  The forms of an instance
    are pairwise non-proportional, so `derivation_dim` solves in the
    coordinates of the two heaviest forms (the earlier one on a tie): their
    multiplicities m_1 >= m_2 leave (d - m_1 + 1)^+ + (d - m_2 + 1)^+ of the
    2(d + 1) unknowns and add no rows, and only the other forms' rows are
    eliminated.
    """
    total = sum(mult)
    d = min((total + 1) // 2 - 1, total - max(mult))
    return d + 1 - derivation_dim(forms, mult, d)


def rank2_exponents(inst: Rank2Instance) -> tuple[int, int]:
    """Nondecreasing exponent pair (d1, d2) with d1 + d2 = |m|."""
    d1 = _min_degree_basis(inst.forms, inst.mult)
    return d1, inst.total_mult - d1


def euler_multiplicity_at_flat(inst: Rank2Instance, h0: int) -> int:
    """Euler multiplicity m*: degree of a local basis derivation that is not
    divisible by the distinguished form.

    m* = d1 when some degree-d1 solution lies outside alpha0*Der, else d2.
    alpha0 is taken primitive, so by Gauss's lemma it divides an integer
    basis coefficient over Q exactly when it does over Z (`_term_quotient`).
    """
    if not 0 <= h0 < len(inst.forms):
        raise ValueError("distinguished form index out of range")
    d1, d2 = rank2_exponents(inst)
    alpha0 = linear_terms(primitive_row(inst.forms[h0]))
    for coeffs, _ in derivation_basis(inst.forms, inst.mult, d1):
        if any(c and _term_quotient(c, alpha0) is None for c in coeffs):
            return d1
    return d2
