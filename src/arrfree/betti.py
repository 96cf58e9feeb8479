"""Second Betti numbers of simple and multiarrangements.

b2 of a multiarrangement sums the products of local exponents over the
codimension-2 flats; the local exponents come from `flat_exponents`,
which reads them off the flat's multiplicities where they fix them and
projects the flat to rank 2 and solves only where they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arrangement import Hyperplane, Multiarrangement, codim2_flats
from .rank2 import flat_exponents


@dataclass(frozen=True)
class BettiReport:
    total: int
    per_flat: tuple[tuple[tuple[int, ...], int], ...]  # (sorted members, contribution)
    exponents: tuple[tuple[int, int], ...]  # local exponent pair per flat, same order

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "flats": [
                {"members": list(m), "contribution": c, "exponents": list(e)}
                for (m, c), e in zip(self.per_flat, self.exponents)
            ],
        }


def b2_simple(a: Multiarrangement) -> BettiReport:
    """Sum of |A_X| - 1 over codim-2 flats; demands a simple arrangement.
    There `flat_exponents` gives every flat X the exponents (1, |X| - 1)
    (`rank2._closed_d1`), so this is `b2_multi`."""
    if not a.is_simple():
        raise ValueError("b2_simple needs all multiplicities equal to 1")
    return b2_multi(a)


@lru_cache(maxsize=2048)
def b2_multi(a: Multiarrangement) -> BettiReport:
    """Sum of d1*d2 over codim-2 flats, exponents from `flat_exponents`."""
    rows = []
    exps = []
    for f in codim2_flats(a):
        d1, d2 = flat_exponents(a, f)
        rows.append((f.sorted_members(), d1 * d2))
        exps.append((d1, d2))
    return BettiReport(sum(c for _, c in rows), tuple(rows), tuple(exps))


def b2_away(a: Multiarrangement, h: Hyperplane | int) -> int:
    """b2(A,m) - m(H)(|m| - m(H)), the part of b2 away from H."""
    i = a.index_of(h)
    m0 = a.mult[i]
    return b2_multi(a).total - m0 * (a.total_mult - m0)

