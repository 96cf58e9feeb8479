"""Exponents of rank-2 multiarrangements and the Euler multiplicity.

Rank-2 multiarrangements are always free (Ziegler 1989), so the smaller
exponent d1 determines both.  Where the multiplicities alone fix d1 (a heavy
line, three lines, or a simple arrangement) it is read off `_closed_d1`;
otherwise it comes from the rank of a single exact linear system at a
computed degree (see `_min_degree_basis`).  `flat_exponents` asks
`_closed_d1` before it projects a codim-2 flat to two variables, so only
the flats that need that solve are projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arrangement import Flat, Multiarrangement
from .dspace import derivation_basis, derivation_dim
from .exactalg import _forward, _term_quotient, linear_terms, primitive_form, primitive_row


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

    As in `arrangement.essentialize`, with p1 < p2 the pivot columns of the
    member normals' forward elimination (`exactalg._forward`), each member
    normal n is n[p1]*w1 + n[p2]*w2 in the RREF basis (w1, w2) of their
    span, so (n[p1], n[p2]) is its projected form, made primitive
    (`primitive_form`), so that one line always gives the same form.  A
    ValueError reports members whose normals do not span a plane.
    """
    if x.codim != 2:
        raise ValueError("flat must have codimension 2")
    idx = x.sorted_members()
    if len(idx) < 2:
        raise ValueError("a codimension-2 flat has at least two members")
    if idx[0] < 0 or idx[-1] >= a.size:
        raise ValueError("flat member out of range")
    normals = [a.hyperplanes[k].coeffs for k in idx]
    pivots = _forward([list(n) for n in normals], a.dim)
    if len(pivots) != 2:
        raise ValueError("flat members do not span a plane")
    p1, p2 = pivots
    forms = tuple(primitive_form((n[p1], n[p2])) for n in normals)
    return Rank2Instance(forms, tuple(a.mult[k] for k in idx), idx)


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


def rank2_exponents(inst: Rank2Instance) -> tuple[int, int]:
    """Nondecreasing exponent pair (d1, d2) with d1 + d2 = |m|."""
    d1 = _min_degree_basis(inst.forms, inst.mult)
    return d1, inst.total_mult - d1


def flat_exponents(a: Multiarrangement, x: Flat) -> tuple[int, int]:
    """Local exponents (d1, d2) of a codim-2 flat: `_closed_d1` of its
    members' multiplicities, else `rank2_exponents` of its projection
    (`project_to_rank2`), which only then runs."""
    mult = tuple(a.mult[k] for k in x.members)
    d1 = _closed_d1(mult)
    if d1 is None:
        return rank2_exponents(project_to_rank2(a, x))
    return d1, sum(mult) - d1


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
