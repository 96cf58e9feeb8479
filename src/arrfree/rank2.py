"""Exponents of rank-2 multiarrangements and the Euler multiplicity.

Rank-2 multiarrangements are always free (Ziegler 1989), so the smaller
exponent d1 determines both.  A rank-2 multiarrangement here is a
`Multiarrangement` of two or more lines in two variables; the one at a
codim-2 flat X is its localization (A_X, m_X), essentialized
(`project_to_rank2`).  Where the multiplicities alone fix d1 (a heavy line,
three lines, or a simple arrangement) it is read off `_closed_d1`;
otherwise it comes from the rank of a single exact linear system at a
computed degree (see `_min_degree_basis`).  `flat_exponents` asks
`_closed_d1` before it localizes and essentializes a codim-2 flat, so only
the flats that need that solve are projected.
"""

from __future__ import annotations

from functools import lru_cache

from .arrangement import Flat, Multiarrangement, _codim2_table, _select, essentialize
from .dspace import derivation_basis, derivation_dim
from .exactalg import _term_quotient, linear_terms


def project_to_rank2(a: Multiarrangement, x: Flat) -> Multiarrangement:
    """(A_X, m_X) of a codim-2 flat x, essentialized to two variables:
    `essentialize` of the members (`arrangement._select`), in member order.

    A ValueError reports any x that is not a codim-2 flat of `a`, an entry
    of row min(x) of the cached table `arrangement._codim2_table`.  The
    check needs no elimination, and it is the one check: past it the
    members' normals span a plane, so the quotient has two variables.
    """
    idx = x.sorted_members()
    if not (idx and 0 <= idx[0] < a.size and x in _codim2_table(a.hyperplanes)[1][idx[0]]):
        raise ValueError("not a flat of this arrangement")
    return essentialize(_select(a, idx))[0]


def _closed_d1(mult: tuple[int, ...]) -> int | None:
    """d1 when the multiplicities alone fix it, else None.

    - Heavy, 2 max m >= |m| (every two-line instance): d1 = |m| - m_H with H
      a heaviest form.  theta_H * prod_{K != H} alpha_K^{m_K}, theta_H the
      constant derivation killing alpha_H = x, has degree |m| - m_H.  Take
      theta = f d/dx + g d/dy in D(A, m) of degree d.  If f != 0, then
      x^{m_H} | f, so d >= m_H >= |m| - m_H.  If f = 0, every other alpha_K
      has a nonzero y-coefficient, so prod_{K != H} alpha_K^{m_K} | g and
      d >= |m| - m_H (Abe-Terao-Wakefield, J. London Math. Soc. 77, 2008).
    - Three lines, none heavy: d1 = floor(|m|/2) (Wakamiko, Tokyo J. Math.
      30, 2007, over characteristic 0, the field here).
    - Simple: the Euler derivation gives d1 <= 1, and no nonzero constant
      derivation kills two independent forms, so d1 = 1.
    """
    total, top = sum(mult), max(mult)
    if 2 * top >= total:
        return total - top
    if len(mult) == 3:
        return total // 2
    if top == 1:
        return 1
    return None


# perfbench looks this cache up by name (run.COLD_CACHES, tracing) to clear it
# before each timed operation and to count unique rank-2 instances, so the
# name stays although the function returns d1 only and builds no basis.
@lru_cache(maxsize=4096)
def _min_degree_basis(forms: tuple[tuple, ...], mult: tuple[int, ...]) -> int:
    """The smaller exponent d1: `_closed_d1`, else one graded dimension.

    D = D(A, m) is free with exponents d1 <= d2, d1 + d2 = |m|, so
    dim D_d = max(0, d - d1 + 1) + max(0, d - d2 + 1), and at
    d = ceil(|m|/2) - 1 >= 0, d1 - 1 <= d < d2 gives d1 = d + 1 - dim D_d,
    a rank (`derivation_dim`), not a basis.  The forms are pairwise
    non-proportional, so `derivation_dim` solves in the coordinates of the
    two heaviest forms and eliminates only the other forms' rows.
    """
    d1 = _closed_d1(mult)
    if d1 is not None:
        return d1
    d = (sum(mult) + 1) // 2 - 1
    return d + 1 - derivation_dim(forms, mult, d)


def _forms(a: Multiarrangement) -> tuple[tuple[int, ...], ...]:
    return tuple(h.coeffs for h in a.hyperplanes)


def rank2_exponents(a: Multiarrangement) -> tuple[int, int]:
    """Nondecreasing exponent pair (d1, d2) with d1 + d2 = |m| of a
    multiarrangement of two or more lines in two variables."""
    if a.dim != 2 or a.size < 2:
        raise ValueError("rank-2 exponents need two or more lines in two variables")
    d1 = _min_degree_basis(_forms(a), a.mult)
    return d1, a.total_mult - d1


def flat_exponents(a: Multiarrangement, x: Flat) -> tuple[int, int]:
    """Local exponents (d1, d2) of a codim-2 flat: `_closed_d1` of its
    members' multiplicities, else `rank2_exponents` of its projection
    (`project_to_rank2`), which only then runs."""
    mult = tuple(a.mult[k] for k in x.members)
    d1 = _closed_d1(mult)
    if d1 is None:
        return rank2_exponents(project_to_rank2(a, x))
    return d1, sum(mult) - d1


def euler_multiplicity_at_flat(a: Multiarrangement, h0: int) -> int:
    """Euler multiplicity m*: degree of a local basis derivation that is not
    divisible by the distinguished form.

    m* = d1 when some degree-d1 solution lies outside alpha0*Der, else d2.
    alpha0, the normal of hyperplane h0, is primitive, so by Gauss's lemma
    it divides an integer basis coefficient over Q exactly when it does over
    Z (`_term_quotient`).
    """
    if not 0 <= h0 < a.size:
        raise ValueError("distinguished form index out of range")
    d1, d2 = rank2_exponents(a)
    alpha0 = linear_terms(a.hyperplanes[h0].coeffs)
    for coeffs, _ in derivation_basis(_forms(a), a.mult, d1):
        if any(c and _term_quotient(c, alpha0) is None for c in coeffs):
            return d1
    return d2
