"""Multiarrangements, intersection lattices, localizations and restrictions.

A hyperplane is identified by its primitive integer normal: the integer
multiple of its defining form whose entries have gcd 1 and whose first
nonzero entry is positive, so equality of hyperplanes is equality of
integer tuples.  Output still prints the rational normal with its first
nonzero entry scaled to 1 (`Hyperplane.normal`); the lattice machinery and
the restrictions read the integer normal only.  All objects are immutable
values.

A flat is its codimension and the set of hyperplanes containing it; every
criterion reads a flat only through its members and their multiplicities.
The codimension-2 flats -- the elements of each restriction A^H, which local
heaviness, the Euler-Ziegler restriction and b2 all read -- come from one
table per tuple of hyperplanes (`_codim2_table`, lru-cached), in integer
arithmetic: each flat is grouped once, from its least member, over the
unordered pairs not yet on a flat, so a table costs sum(|X| - 1) residues
over its flats X (b2 of the simple arrangement).  Flats of codimension 3 and
more, and the check of a given flat in `localization`, take the integer
kernel of some member normals (`exactalg.integer_kernel`) and collect the
hyperplanes whose normals vanish on it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import (
    Vec,
    _forward,
    _gauss_jordan,
    integer_kernel,
    integer_rank,
    primitive_form,
    primitive_row,
    scaled_chart_image,
    vec,
)

VAR_NAMES = ["x", "y", "z", "w"]


class ParseError(ValueError):
    """Raised for malformed arrangement input."""


def _varname(i: int, dim: int) -> str:
    return VAR_NAMES[i] if dim <= 4 else f"x{i + 1}"


@dataclass(frozen=True, slots=True)
class Hyperplane:
    """A linear hyperplane, identified by its primitive integer normal
    `coeffs` (gcd 1, first nonzero entry positive).  Build one with
    `from_coeffs`; the constructor takes any nonzero `coeffs` as given."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ParseError("zero normal vector")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Hyperplane":
        n = vec(coeffs)
        if not any(n):
            raise ParseError("zero normal vector")
        return cls(primitive_form(primitive_row(n)))

    @property
    def normal(self) -> Vec:
        """The rational normal whose first nonzero entry is 1."""
        lead = next(x for x in self.coeffs if x)
        return tuple(Fraction(x, lead) for x in self.coeffs)

    def form_str(self) -> str:
        normal = self.normal
        dim = len(normal)
        bits = []
        for i, c in enumerate(normal):
            if c == 0:
                continue
            name = _varname(i, dim)
            if not bits:
                bits.append(name if c == 1 else f"{c}{name}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                bits.append(f" {sign} " + (name if mag == 1 else f"{mag}{name}"))
        return "".join(bits)


@dataclass(frozen=True)
class Multiarrangement:
    """An ordered list of distinct hyperplanes with positive multiplicities."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]
    mult: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParseError("dimension must be positive")
        if len(self.mult) != len(self.hyperplanes):
            raise ParseError("one multiplicity per hyperplane required")
        for m in self.mult:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ParseError(f"bad multiplicity {m!r}")
        seen = {}
        for i, h in enumerate(self.hyperplanes):
            if len(h.coeffs) != self.dim:
                raise ParseError("normal length does not match dimension")
            if h in seen:
                raise ParseError(f"duplicate hyperplane at positions {seen[h]} and {i}")
            seen[h] = i
        if self.labels is not None and len(self.labels) != len(self.hyperplanes):
            raise ParseError("one label per hyperplane required")

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    @property
    def total_mult(self) -> int:
        return sum(self.mult)

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.mult)

    def underlying_simple(self) -> "Multiarrangement":
        return Multiarrangement(self.dim, self.hyperplanes, (1,) * self.size, self.labels)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return self.hyperplanes[i].form_str()

    def with_mult(self, i: int, m: int) -> "Multiarrangement":
        if m < 1:
            raise ValueError("multiplicity must stay positive")
        new = list(self.mult)
        new[i] = m
        return Multiarrangement(self.dim, self.hyperplanes, tuple(new), self.labels)

    def index_of(self, h: "Hyperplane | int") -> int:
        if isinstance(h, int):
            if not 0 <= h < self.size:
                raise ValueError(f"hyperplane index {h} out of range")
            return h
        for i, own in enumerate(self.hyperplanes):
            if own == h:
                return i
        raise ValueError(f"hyperplane {h.form_str()} not in arrangement")

    def to_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "hyperplanes": [[str(c) if c.denominator != 1 else c.numerator for c in h.normal] for h in self.hyperplanes],
            "mult": list(self.mult),
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


@dataclass(frozen=True)
class Flat:
    """An intersection subspace, named by its codimension and the indices of
    the hyperplanes containing it."""

    codim: int
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _entry(x) -> Fraction:
    """An exact number of the JSON formats, a hyperplane's normal entry or a
    certificate's derivation coefficient: an integer, or a string "p/q" (or
    "p") of decimal digits.  Bools, floats, decimal and exponent strings are
    refused, so no number is larger than its text."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if not (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ParseError(f'bad rational {x!r:.40}: exact numbers are integers or "p/q" strings')
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ParseError(f"bad rational {x!r:.40}: zero denominator") from None
    except ValueError as e:  # more digits than int() converts
        raise ParseError(f"bad rational {x!r:.40}: {e}") from None


def parse(text: str | dict) -> Multiarrangement:
    """Parse the arrangement JSON schema; duplicates are an error, never merged.

    The multiplicities, and their count against the hyperplanes, are checked
    by the Multiarrangement constructor."""
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
            raise ParseError(f"malformed JSON: {e}") from None
    else:
        data = text
    if not isinstance(data, dict):
        raise ParseError("top-level JSON object expected")
    try:
        dim = data["dim"]
        normals = data["hyperplanes"]
        mult = data["mult"]
    except KeyError as e:
        raise ParseError(f"missing field {e}") from None
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError("dim must be an integer")
    if not isinstance(normals, list) or not isinstance(mult, list):
        raise ParseError("hyperplanes and mult must be lists")
    planes = []
    for row in normals:
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"normal {row} does not have {dim} entries")
        planes.append(Hyperplane.from_coeffs([_entry(x) for x in row]))
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ParseError("labels must be a list of strings")
        labels = tuple(labels)
    return Multiarrangement(dim, tuple(planes), tuple(mult), labels)


def parse_file(path: str) -> Multiarrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# lattice machinery


def _span_flat(a: Multiarrangement, seed_normals: Sequence[Sequence[int]]) -> Flat:
    """The flat cut out by the seed normals.  Their span is the annihilator
    of their kernel, so a hyperplane contains the flat exactly when its
    normal vanishes on every kernel vector; its codimension is the rank."""
    _, kernel = integer_kernel([list(n) for n in seed_normals], a.dim)
    members = frozenset(
        k
        for k, h in enumerate(a.hyperplanes)
        if all(sum(x * y for x, y in zip(h.coeffs, v) if y) == 0 for v, _ in kernel)
    )
    return Flat(a.dim - len(kernel), members)


def rank(a: Multiarrangement) -> int:
    return integer_rank([list(h.coeffs) for h in a.hyperplanes], a.dim)


def _pivot(v: Sequence) -> int:
    return next(j for j, x in enumerate(v) if x != 0)


@lru_cache(maxsize=1024)
def _codim2_table(
    hyperplanes: tuple[Hyperplane, ...],
) -> tuple[tuple[Flat, ...], tuple[tuple[Flat, ...], ...]]:
    """All codimension-2 flats in member order, and per hyperplane i the
    flats that contain i, in member order.

    Each flat is built once, in the row of its least member i, in integers:
    a later normal v is reduced against the normal u of i (pivot p) to
    u[p]*v - v[p]*u, which vanishes at p.  Two hyperplanes lie on one
    codim-2 flat with i exactly when their residues are proportional, so the
    residue's `primitive_form` is the group key.  Each group becomes a flat
    appended to the row of every member.  Distinct flats through i share
    only i, so row i skips the later hyperplanes already on a flat through
    i (built in an earlier row); a build thus reduces sum(|X| - 1) residues
    over the flats X, which is b2 of the simple arrangement.
    Row i holds the flats of earlier rows in the order of their least
    member, then its own groups in the order of their least member after
    i: member order.  Keyed on the hyperplanes alone, so that arrangements
    differing only in multiplicities share one table.
    """
    ints = [h.coeffs for h in hyperplanes]
    flats = []
    rows: list[list[Flat]] = [[] for _ in ints]
    for i, u in enumerate(ints):
        p = _pivot(u)
        done = set().union(*(f.members for f in rows[i]))
        groups: dict[tuple[int, ...], list[int]] = {}
        for k in range(i + 1, len(ints)):
            if k in done:
                continue
            v = ints[k]
            r = [u[p] * y - v[p] * x for x, y in zip(u, v)]
            groups.setdefault(primitive_form(r), [i]).append(k)
        for ks in groups.values():
            f = Flat(2, frozenset(ks))
            flats.append(f)
            for k in ks:
                rows[k].append(f)
    return tuple(flats), tuple(map(tuple, rows))


def intersection_lattice(a: Multiarrangement, max_codim: int) -> dict[int, tuple[Flat, ...]]:
    """Flats of codimension 1..max_codim, each listed once, in member order.

    Codimension 2 comes from the grouping table of `_codim2_table`; each
    higher level spans the member normals of a flat of the level below with
    one hyperplane outside it.  The members of a flat are closed under the
    span, so every such span grows by one; a hyperplane already in a flat
    found from the same lower flat spans that flat again and is skipped.
    """
    if max_codim > a.dim:
        raise ValueError("max_codim exceeds dimension")
    levels: dict[int, tuple[Flat, ...]] = {}
    if max_codim >= 1:
        levels[1] = tuple(Flat(1, frozenset({i})) for i in range(a.size))
    if max_codim >= 2:
        levels[2] = codim2_flats(a)
    for r in range(2, max_codim):
        nxt: dict[frozenset[int], Flat] = {}
        for f in levels[r]:
            seeds = [a.hyperplanes[k].coeffs for k in f.sorted_members()]
            covered = set(f.members)
            for k, h in enumerate(a.hyperplanes):
                if k not in covered:
                    g = _span_flat(a, seeds + [h.coeffs])
                    covered |= g.members
                    nxt.setdefault(g.members, g)
        levels[r + 1] = tuple(sorted(nxt.values(), key=Flat.sorted_members))
    return levels


def codim2_flats(a: Multiarrangement) -> tuple[Flat, ...]:
    """Every codimension-2 flat once, in member order."""
    return _codim2_table(a.hyperplanes)[0]


def localization(a: Multiarrangement, x: Flat) -> Multiarrangement:
    """(A_X, m_X): the members of x with inherited multiplicities.

    Raises ValueError unless x names a flat of a: in-range members that are
    exactly the hyperplanes containing the span of their normals, which has
    codimension x.codim."""
    idx = x.sorted_members()
    if idx and (idx[0] < 0 or idx[-1] >= a.size):
        raise ValueError("not a flat of this arrangement")
    span = _span_flat(a, [a.hyperplanes[k].coeffs for k in idx]) if idx else Flat(0, frozenset())
    if span != x:
        raise ValueError("not a flat of this arrangement")
    return Multiarrangement(
        a.dim,
        tuple(a.hyperplanes[i] for i in idx),
        tuple(a.mult[i] for i in idx),
        tuple(a.label(i) for i in idx),
    )


def restriction_flats(a: Multiarrangement, h0: Hyperplane | int) -> list[Flat]:
    """Codimension-2 flats lying inside h0, i.e. the elements of A^{h0}, in
    member order (row h0 of the grouping table of `_codim2_table`)."""
    return list(_codim2_table(a.hyperplanes)[1][a.index_of(h0)])


@dataclass(frozen=True)
class Restriction:
    """Euler-Ziegler restriction onto the hyperplane h0.

    Restricted hyperplanes live in the coordinates (y_2, ..., y_l) of the
    chart of `exactalg.scaled_chart_image` for the normal of h0, in which
    h0 is {y_1 = 0}.  trace_members[k] is the set of input-arrangement
    indices of hyperplanes containing the k-th restricted hyperplane
    (including h0 itself).
    """

    arrangement: Multiarrangement
    trace_members: tuple[frozenset[int], ...]


def euler_ziegler_multiplicity(a: Multiarrangement, h0: Hyperplane | int) -> Restriction:
    """Restrict onto h0 with multiplicities m(X) = |m_X| - m(h0).

    The value only depends on the multiplicities away from h0, so it is
    unchanged by shifting m(h0).
    """
    i0 = a.index_of(h0)
    if a.dim < 2:
        raise ValueError("restriction needs ambient dimension >= 2")
    normal = a.hyperplanes[i0].coeffs
    flats = _codim2_table(a.hyperplanes)[1][i0]
    planes = []
    for f in flats:
        # the members of a flat through h0 restrict to one hyperplane of h0,
        # so one representative gives its trace: its form in the chart
        # coordinates past y_1, up to the factor f_q that the primitive form
        # drops
        alpha = a.hyperplanes[next(k for k in f.members if k != i0)].coeffs
        planes.append(Hyperplane(primitive_form(scaled_chart_image(normal, alpha)[1:])))
    mults = tuple(sum(a.mult[k] for k in f.members) - a.mult[i0] for f in flats)
    restricted = Multiarrangement(a.dim - 1, tuple(planes), mults)
    return Restriction(restricted, tuple(f.members for f in flats))


def deletion(a: Multiarrangement, h0: Hyperplane | int) -> Multiarrangement:
    """Remove h0 when its multiplicity is 1, else decrement it."""
    i0 = a.index_of(h0)
    if a.mult[i0] == 1:
        keep = [i for i in range(a.size) if i != i0]
        return Multiarrangement(
            a.dim,
            tuple(a.hyperplanes[i] for i in keep),
            tuple(a.mult[i] for i in keep),
            tuple(a.label(i) for i in keep),
        )
    return a.with_mult(i0, a.mult[i0] - 1)


# ---------------------------------------------------------------------------
# reducibility


@dataclass(frozen=True)
class Reducibility:
    blocks: tuple[tuple[int, ...], ...]
    nonessential_dim: int

    @property
    def irreducible(self) -> bool:
        return len(self.blocks) == 1


def reducibility(a: Multiarrangement) -> Reducibility:
    """Finest split of the hyperplanes into groups with independent spans.

    One RREF of the matrix whose columns are the normals: its pivot columns
    are the greedy basis (each normal independent of the ones before it),
    and non-pivot column j holds the coordinates of normal j in that basis.
    Normal j and the basis normals with a nonzero coordinate form its
    fundamental circuit; two hyperplanes land in one block exactly when
    they are linked through such circuits.  A pivot column holds a single
    nonzero entry, in its own row, so it links its hyperplane only to
    itself.  Each row of the integer elimination (`exactalg._gauss_jordan`)
    is a nonzero multiple of the RREF row, with the same nonzero entries.
    """
    parent = list(range(a.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows = [list(col) for col in zip(*(h.coeffs for h in a.hyperplanes))]
    pivots = _gauss_jordan(rows, a.size)
    for row, p in zip(rows, pivots):
        for j, x in enumerate(row):
            if x:
                parent[find(j)] = find(p)
    groups: dict[int, list[int]] = {}
    for i in range(a.size):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0]))
    return Reducibility(blocks, a.dim - len(pivots))


def essentialize(a: Multiarrangement) -> tuple[Multiarrangement, int]:
    """Quotient away the common center; returns the essential arrangement and
    the number of dropped (non-essential) dimensions.

    With p_1 < ... < p_r the pivot columns of the RREF of the normals, the
    unit vectors at the pivots complete the common center to a basis, so
    each normal h maps to (h[p_1], ..., h[p_r]): a vector of the row space
    is its pivot entries times the RREF rows.  The pivots are those of the
    integer forward pass (`exactalg._forward`).
    """
    pivots = _forward([list(h.coeffs) for h in a.hyperplanes], a.dim)
    drop = a.dim - len(pivots)
    if drop == 0:
        return a, 0
    planes = [Hyperplane(primitive_form(tuple(h.coeffs[p] for p in pivots))) for h in a.hyperplanes]
    return Multiarrangement(len(pivots), tuple(planes), a.mult, a.labels), drop


# ---------------------------------------------------------------------------
# local heaviness


def _heavy_in(a: Multiarrangement, i0: int, flats: Sequence[Flat]) -> bool:
    m0 = a.mult[i0]
    return all(m0 >= sum(a.mult[k] for k in f.members) - m0 for f in flats if len(f.members) >= 3)


def is_locally_heavy(a: Multiarrangement, h0: Hyperplane | int) -> bool:
    """Heavy inside every codim-2 localization through h0 with >= 3 members."""
    i0 = a.index_of(h0)
    return _heavy_in(a, i0, _codim2_table(a.hyperplanes)[1][i0])


def locally_heavy_indices(a: Multiarrangement) -> list[int]:
    table = _codim2_table(a.hyperplanes)[1]
    return [i for i in range(a.size) if _heavy_in(a, i, table[i])]
