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

Every flat is found by one step (`_classes`): normals are grouped by their
residues against an echelon basis.  One use of it goes from a flat to the
flats one codimension deeper inside it (`_over`, `_flats_over`): the basis
is the forward elimination of the flat's member normals, and each group of
the other hyperplanes, with the members, is one flat.  That is the one step
behind the levels of `intersection_lattice` from codim 3 on, the check of
`localization` (the members' rank, and no other normal in their span) and
the rank-3 flats that the two-locally-heavy rule tries over the codim-2
flat of a pair.  The codim-2 flats are found by one pair walk over a list
of integer vectors (`_pair_groups`): at each vector x in turn, the later
vectors not yet on a flat with x are grouped by their residues against x,
so each flat is grouped once, from its least member, at a cost of
sum(|X| - 1) residues over its flats X.  One test reads those flats
(`_heavy`): x is locally heavy when 2*m(x) >= |m_X| on every flat X through
x with three or more members.

The input's level walks its normals once per tuple of hyperplanes
(`_codim2_table`, lru-cached), which local heaviness, the Euler-Ziegler
restriction and b2 all read.  The restriction A^H has the codim-2 flats X
through H as hyperplanes, with m^H(X) = |m_X| - m_H, and the codim-3 flats
Y through H as its codim-2 flats, the lines of row H; the members of Y
other than H are split among its X, so their m^H sum to |m_Y| - m_H.  So
every A^H is read off its parent's row H (`restriction_rows`) by the same
walk and the same test one level down: the walk runs over the residues of
the row's points against the normal of H, and each codim-3 flat is grouped
once, in the row of its least member, and handed to the rows of its later
members, which start the walk with its pairs marked.  A `Level` is such a
restriction held as member sets, multiplicities and a codim-2 table, built
from its parent's row; its rows' residues serve as its children's normals,
so the flag walk goes down any number of levels without building a
restricted arrangement (`euler_ziegler_multiplicity`) or a second table.
The rows come one at a time, in index order, so the walk builds a level's
rows only up to the hyperplane it visits.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .exactalg import (
    Vec,
    _forward,
    _gauss_jordan,
    _pivot,
    integer_rank,
    primitive_form,
    primitive_row,
    scaled_chart_image,
)

VAR_NAMES = ["x", "y", "z", "w"]


class ParseError(ValueError):
    """Raised for malformed arrangement input."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _entry(x) -> Fraction:
    """An exact number of the JSON formats, a hyperplane's normal entry or a
    certificate's derivation coefficient: an integer, a Fraction, or a
    string "p/q" (or "p") of decimal digits.  Bools, floats, decimal and
    exponent strings are refused, so no number is larger than its text."""
    if isinstance(x, Fraction):
        return x
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


def _varname(i: int, dim: int) -> str:
    return VAR_NAMES[i] if dim <= 4 else f"x{i + 1}"


@dataclass(frozen=True, slots=True)
class Hyperplane:
    """A linear hyperplane, identified by its primitive integer normal
    `coeffs` (gcd 1, first nonzero entry positive).  Build one from any
    nonzero normal with `from_coeffs`; the constructor refuses every tuple
    but the primitive one, so that equal hyperplanes have equal `coeffs`."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ParseError("zero normal vector")
        if gcd(*self.coeffs) != 1 or next(filter(None, self.coeffs)) < 0:
            raise ParseError(f"normal {self.coeffs} is not primitive: gcd 1 and a positive first nonzero entry needed")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Hyperplane":
        """The hyperplane of a nonzero normal of exact numbers (`_entry`)."""
        n = [_entry(x) for x in coeffs]
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
        planes.append(Hyperplane.from_coeffs(row))
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


def rank(a: Multiarrangement) -> int:
    return integer_rank([list(h.coeffs) for h in a.hyperplanes], a.dim)


def _ones(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _classes(
    basis: Sequence[tuple[int, Sequence[int]]], ints: Sequence[Sequence[int]], idx: Sequence[int]
) -> dict[tuple[int, ...], list[int]]:
    """The indices idx, in order, grouped by the residue of ints[k] against
    an echelon basis of (pivot, row) pairs, each row zero at the earlier
    pivots: v becomes b[p]*v - v[p]*b for each (p, b) in turn.  The residue
    is a nonzero multiple of the one vector of v + span that vanishes at
    every pivot, so it is zero exactly when v lies in the span, and two
    residues are proportional exactly when the normals, each with the
    basis, span one space.  A group's key is the residue's `primitive_form`,
    or () for the zero residue."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for k in idx:
        v = ints[k]
        for p, b in basis:
            c = v[p]
            if c:
                bp = b[p]
                v = [bp * y - c * x for x, y in zip(b, v)]
        key = primitive_form(v) if any(v) else ()
        group = groups.get(key)
        if group is None:
            groups[key] = [k]
        else:
            group.append(k)
    return groups


def _over(a: Multiarrangement, members: frozenset[int]) -> tuple[int, dict[tuple[int, ...], list[int]]]:
    """The rank of the members' normals, and the other hyperplanes grouped
    by their residues against the echelon basis of the members' forward
    elimination (`_classes`): each group, with the members, spans one more
    dimension, and the group () lies in the members' span."""
    ints = [h.coeffs for h in a.hyperplanes]
    rows = [list(ints[k]) for k in sorted(members)]
    basis = list(zip(_forward(rows, a.dim), rows))
    return len(basis), _classes(basis, ints, [k for k in range(a.size) if k not in members])


def _flats_over(a: Multiarrangement, x: Flat) -> list[Flat]:
    """The flats one codimension deeper inside the flat x, in member order:
    x meet H for the hyperplanes H of each group of `_over`.

    No sort is needed.  The groups come in the order of their least members,
    and every flat holds all of x's members, so the sorted member tuples of
    two flats agree up to the least member of the earlier group, where the
    later flat has a larger entry."""
    return [Flat(x.codim + 1, x.members.union(g)) for g in _over(a, x.members)[1].values()]


def _pair_groups(vecs: Sequence[Sequence[int]], paired: list[int]) -> Iterator[list[int]]:
    """The groups [x, *later] of the pair walk over integer vectors: at
    ascending x, the later indices outside the bitmask paired[x] grouped by
    their residues against vecs[x] (`_classes`), so that two of them share a
    group exactly when, with x, their vectors span a plane.  A group of three
    or more sets its later members' bits in `paired`, as two of them share
    no second plane; x needs no mark, since the walk has passed it, and a
    two-member group leaves no pair behind."""
    n = len(vecs)
    for x, u in enumerate(vecs):
        todo = ((1 << n) - (2 << x)) & ~paired[x]
        if not todo:
            continue
        for later in _classes([(_pivot(u), u)], vecs, _ones(todo)).values():
            if len(later) > 1:
                bits = 0
                for z in later:
                    bits |= 1 << z
                for z in later:
                    paired[z] |= bits
            yield [x, *later]


@lru_cache(maxsize=1024)
def _codim2_table(
    hyperplanes: tuple[Hyperplane, ...],
) -> tuple[tuple[Flat, ...], tuple[tuple[Flat, ...], ...]]:
    """All codimension-2 flats in member order, and per hyperplane i the
    flats that contain i, in member order.

    Each flat is one group of the pair walk (`_pair_groups`) over the
    integer normals, built in the row of its least member i: two later
    hyperplanes lie on one codim-2 flat with i exactly when their residues
    against the normal of i are proportional.  Distinct flats through i
    share only i, so the walk skips the pairs already on a flat, and a build
    reduces sum(|X| - 1) residues over the flats X, which is b2 of the
    simple arrangement.  Each group becomes a flat appended to the row of
    every member.  Row i holds the flats of earlier rows in the order of
    their least member, then its own groups in the order of their least
    member after i: member order.  Keyed on the hyperplanes alone, so that
    arrangements differing only in multiplicities share one table.
    """
    ints = [h.coeffs for h in hyperplanes]
    flats = []
    rows: list[list[Flat]] = [[] for _ in ints]
    for members in _pair_groups(ints, [0] * len(ints)):
        f = Flat(2, frozenset(members))
        flats.append(f)
        for k in members:
            rows[k].append(f)
    return tuple(flats), tuple(map(tuple, rows))


def intersection_lattice(a: Multiarrangement, max_codim: int) -> dict[int, tuple[Flat, ...]]:
    """Flats of codimension 1..max_codim, each listed once, in member order.

    Codimension 2 comes from the grouping table of `_codim2_table`.  A
    flat one level up is f meet H for a flat f and a hyperplane H outside
    it, so each level is the union of `_flats_over` its flats at the level
    before, a flat reached from several of them listed once.
    """
    if max_codim > a.dim:
        raise ValueError("max_codim exceeds dimension")
    levels: dict[int, tuple[Flat, ...]] = {}
    if max_codim >= 1:
        levels[1] = tuple(Flat(1, frozenset({i})) for i in range(a.size))
    if max_codim >= 2:
        levels[2] = codim2_flats(a)
    for r in range(2, max_codim):
        nxt = {f for x in levels[r] for f in _flats_over(a, x)}
        levels[r + 1] = tuple(sorted(nxt, key=Flat.sorted_members))
    return levels


def codim2_flats(a: Multiarrangement) -> tuple[Flat, ...]:
    """Every codimension-2 flat once, in member order."""
    return _codim2_table(a.hyperplanes)[0]


def localization(a: Multiarrangement, x: Flat) -> Multiarrangement:
    """(A_X, m_X): the members of x with inherited multiplicities.

    Raises ValueError unless x names a flat of a: in-range members whose
    normals span x.codim dimensions, and no normal outside x in that span
    (the group () of `_over`)."""
    idx = x.sorted_members()
    if idx and (idx[0] < 0 or idx[-1] >= a.size):
        raise ValueError("not a flat of this arrangement")
    r, groups = _over(a, x.members)
    if r != x.codim or () in groups:
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


def euler_ziegler_multiplicity(a: Multiarrangement, h0: Hyperplane | int) -> Multiarrangement:
    """Restrict onto h0 with multiplicities m(X) = |m_X| - m(h0).

    The k-th restricted hyperplane is the k-th flat of
    `restriction_flats(a, h0)`, in the coordinates (y_2, ..., y_l) of the
    chart of `exactalg.scaled_chart_image` for the normal of h0, in which
    h0 is {y_1 = 0}.  The value only depends on the multiplicities away
    from h0, so it is unchanged by shifting m(h0).
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
    return Multiarrangement(a.dim - 1, tuple(planes), mults)


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
    if not a.hyperplanes:
        raise ParseError("no hyperplanes to essentialize: the quotient would have dimension 0")
    pivots = _forward([list(h.coeffs) for h in a.hyperplanes], a.dim)
    drop = a.dim - len(pivots)
    if drop == 0:
        return a, 0
    planes = [Hyperplane(primitive_form(tuple(h.coeffs[p] for p in pivots))) for h in a.hyperplanes]
    return Multiarrangement(len(pivots), tuple(planes), a.mult, a.labels), drop


# ---------------------------------------------------------------------------
# local heaviness


def _heavy(mult: Sequence[int], lines) -> list[int]:
    """The indices x, ascending, with 2*mult[x] >= the sum of mult over
    every line through x with three or more members: the locally heavy
    hyperplanes, when the lines are the codim-2 flats as member sets."""
    ok = [True] * len(mult)
    for on in lines:
        if len(on) >= 3:
            total = sum(mult[x] for x in on)
            for x in on:
                if 2 * mult[x] < total:
                    ok[x] = False
    return [x for x, good in enumerate(ok) if good]


def is_locally_heavy(a: Multiarrangement, h0: Hyperplane | int) -> bool:
    """Heavy inside every codim-2 localization through h0 with >= 3 members."""
    i0 = a.index_of(h0)
    return i0 in _heavy(a.mult, [f.members for f in _codim2_table(a.hyperplanes)[1][i0]])


def locally_heavy_indices(a: Multiarrangement) -> list[int]:
    return _heavy(a.mult, [f.members for f in codim2_flats(a)])


@dataclass(frozen=True)
class Level:
    """One level of iterated Euler-Ziegler restrictions of an input, as the
    flag walk reads it, with no restricted arrangement built: per
    hyperplane, its member set (the input's hyperplanes containing it), its
    multiplicity and its row of the codim-2 table (the codim-2 flats
    through it, as sets of this level's indices, in member order).  At
    dimension >= 4 it also holds integer normals, which only
    `restriction_rows` reads, to group the codim-3 flats; they are the
    input's normals, or residues that a parent of dimension >= 5 handed
    down."""

    dim: int
    members: tuple[frozenset[int], ...]
    mult: tuple[int, ...]
    rows: tuple[tuple[frozenset[int], ...], ...]
    normals: tuple[Sequence[int], ...] | None

    @classmethod
    def of(cls, a: Multiarrangement) -> "Level":
        """The top level: a itself, each hyperplane its own member set."""
        rows = tuple(tuple(f.members for f in row) for row in _codim2_table(a.hyperplanes)[1])
        normals = tuple(h.coeffs for h in a.hyperplanes) if a.dim >= 4 else None
        return cls(a.dim, tuple(frozenset({i}) for i in range(a.size)), a.mult, rows, normals)

    def restriction(self, k: int, row: "RestrictionRow") -> "Level":
        """The level of A^k, the Euler-Ziegler restriction onto hyperplane k,
        from row k (`restriction_rows`): hyperplanes in the order of the
        row's points, as in `euler_ziegler_multiplicity`, and the row's
        lines as the codim-2 table."""
        points = self.rows[k]
        members = tuple(frozenset().union(*(self.members[j] for j in x)) for x in points)
        table: list[list[frozenset[int]]] = [[] for _ in points]
        for on in row.lines:
            y = frozenset(on)
            for x in on:
                table[x].append(y)
        normals = tuple(map(primitive_form, row.residues)) if self.dim >= 5 else None
        return Level(self.dim - 1, members, tuple(row.mult), tuple(map(tuple, table)), normals)


class RestrictionRow(NamedTuple):
    """A^H read from row H of its parent (`restriction_rows`), in the order of
    the row's points: the locally heavy points, the multiplicities
    m^H(X) = |m_X| - m_H, the lines (the codim-2 flats of A^H, each a list
    of points, ascending) in member order, and, at parent dimension >= 4,
    each point's residue against the normal of H."""

    heavy: list[int]
    mult: list[int]
    lines: list[list[int]]
    residues: list[list[int]] | None


def restriction_rows(level: Level) -> Iterator[RestrictionRow]:
    """Per hyperplane H of the level, in index order, its Euler-Ziegler
    restriction A^H as read from row H, without building A^H: the heavy
    points are what `locally_heavy_indices(euler_ziegler_multiplicity(a, H))`
    returns, the multiplicities are that restriction's, and the lines are
    its codim-2 flats.

    The hyperplanes of A^H are the points X of row H, the codim-2 flats
    through H, with m^H(X) = |m_X| - m_H.  Its codim-2 flats are the lines:
    the codim-3 flats Y through H, whose points are the X with H in X
    inside Y.  The members of Y other than H are split among those X, so
    their m^H sum to |m_Y| - m_H, and X is locally heavy in A^H exactly
    when 2*m^H(X) >= |m_Y| - m_H on every line Y through X with >= 3
    points.

    A level of dimension 2 has no lines, and in dimension 3 the points of a
    row all lie on one line, the origin.  From dimension 4 the lines are
    grouped.  A point is represented by the residue of one of its members v
    against the normal u of H (pivot p), u[p]*v - v[p]*u: a representative
    of v modulo u, so points lie on one line exactly when their residues are
    linearly dependent, and the residues are normals of A^H (which
    `Level.restriction` hands down from dimension 5).  The lines are the
    groups of the pair walk over the residues (`_pair_groups`), as the
    input's flats are the groups of the walk over its normals
    (`_codim2_table`), and the heavy points are the input's test (`_heavy`)
    on them.  Each codim-3 flat is grouped once, in the row of its least
    member; the rows of its later members receive it, and mark all its
    points as paired before their walk, so that they skip its pairs.

    One pass over each point's members sums m^H, finds the least member
    other than H (the one whose residue represents the point) and writes
    the point's bit into `where`, one list per level from hyperplane to the
    bit of its point in the current row, written over row by row; a
    received line's points are the union of its members' bits (H's bit is
    cleared, as H is on every point).

    The lines come out in member order.  A received line Y starts at the
    point through its least member j, which precedes the row's own points
    (those whose members are all past H); lines from distinct rows j are
    ordered by j, and two from one row j share only the point X through H
    and j, after which both rows order them by the least member of Y off
    X.  The row's own lines follow, grouped at ascending points x, each
    group's later points ascending.
    """
    if level.dim < 2:
        raise ValueError("restriction needs ambient dimension >= 2")
    ints = level.normals
    mult = level.mult
    size = len(level.rows)
    given: list[list[frozenset[int]]] = [[] for _ in level.rows]  # codim-3 flats grouped in earlier rows
    where = [0] * size  # per hyperplane, the bit of its point in the current row
    grouped = level.dim >= 4
    for i, points in enumerate(level.rows):
        n = len(points)
        if grouped:
            u = ints[i]
            p = _pivot(u)
            up = u[p]
            res = []
        else:
            res = None
        mi = mult[i]
        ms = []
        for x, f in enumerate(points):
            b = 1 << x
            m = -mi
            lo = size
            for k in f:
                m += mult[k]
                where[k] = b
                if k < lo and k != i:
                    lo = k
            ms.append(m)
            if grouped:
                v = ints[lo]
                vp = v[p]
                res.append([up * t - vp * s for s, t in zip(u, v)])
        if grouped:
            where[i] = 0
            paired = [0] * n  # per point, the points known to share a line with it
            lines = []
            for y in given[i]:
                xs = 0
                for k in y:
                    xs |= where[k]
                on = _ones(xs)
                lines.append(on)
                for x in on:
                    paired[x] |= xs
            for on in _pair_groups(res, paired):
                lines.append(on)
                ys = set()
                for z in on:
                    ys |= points[z]
                y = frozenset(ys)
                for j in y:
                    if j > i:
                        given[j].append(y)
        else:
            lines = [list(range(n))] if level.dim == 3 and n >= 2 else []
        # with no lines every point is heavy
        yield RestrictionRow(_heavy(ms, lines) if lines else list(range(n)), ms, lines, res)
