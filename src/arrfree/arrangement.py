"""Multiarrangements, intersection lattices, localizations and restrictions.

Hyperplanes are stored as canonicalized rational normals (first nonzero
entry scaled to 1) so equality of hyperplanes is equality of tuples.  All
objects are immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import Matrix, Vec, linear_change_to_coordinate, vec

VAR_NAMES = ["x", "y", "z", "w"]


class ParseError(ValueError):
    """Raised for malformed arrangement input."""


def _varname(i: int, dim: int) -> str:
    return VAR_NAMES[i] if dim <= 4 else f"x{i + 1}"


@dataclass(frozen=True)
class Hyperplane:
    """A linear hyperplane given by its canonicalized defining form."""

    normal: Vec

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Hyperplane":
        n = vec(coeffs)
        lead = next((x for x in n if x != 0), None)
        if lead is None:
            raise ParseError("zero normal vector")
        return cls(tuple(x / lead for x in n))

    def form_str(self) -> str:
        dim = len(self.normal)
        bits = []
        for i, c in enumerate(self.normal):
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
            if len(h.normal) != self.dim:
                raise ParseError("normal length does not match dimension")
            if h.normal in seen:
                raise ParseError(
                    f"duplicate hyperplane at positions {seen[h.normal]} and {i}"
                )
            seen[h.normal] = i
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

    def normal_matrix(self) -> Matrix:
        return Matrix([h.normal for h in self.hyperplanes])

    def with_mult(self, i: int, m: int) -> "Multiarrangement":
        if m < 1:
            raise ValueError("multiplicity must stay positive")
        new = list(self.mult)
        new[i] = m
        return Multiarrangement(self.dim, self.hyperplanes, tuple(new), self.labels)

    def defining_polynomial(self):
        from .exactalg import Polynomial

        q = Polynomial.constant(self.dim, 1)
        for h, m in zip(self.hyperplanes, self.mult):
            q = q * Polynomial.linear_form(h.normal) ** m
        return q

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
    """An intersection subspace: codimension, containing hyperplanes, and the
    canonical (RREF) basis of the span of their normals."""

    codim: int
    members: frozenset[int]
    basis: tuple[Vec, ...]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def parse(text: str | dict) -> Multiarrangement:
    """Parse the arrangement JSON schema; duplicates are an error, never merged."""
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
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
    if not isinstance(dim, int):
        raise ParseError("dim must be an integer")
    if not isinstance(normals, list) or not isinstance(mult, list):
        raise ParseError("hyperplanes and mult must be lists")
    if len(normals) != len(mult):
        raise ParseError("hyperplanes and mult must have equal length")
    planes = []
    for row in normals:
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"normal {row} does not have {dim} entries")
        try:
            planes.append(Hyperplane.from_coeffs(row))
        except (TypeError, ValueError) as e:
            if isinstance(e, ParseError):
                raise
            raise ParseError(f"bad rational in normal {row}: {e}") from None
    for m in mult:
        if not isinstance(m, int) or m < 1:
            raise ParseError(f"nonpositive multiplicity {m}")
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


def _reduce_against(rows: tuple[Vec, ...], pivots: tuple[int, ...], v: Vec) -> Vec:
    w = list(v)
    for row, p in zip(rows, pivots):
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def _rref_rows(vectors: Sequence[Vec]) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    red, pivots = Matrix(vectors).rref()
    return tuple(red.entries[i] for i in range(len(pivots))), tuple(pivots)


def _span_flat(a: Multiarrangement, seed_normals: Sequence[Vec]) -> Flat:
    rows, pivots = _rref_rows(seed_normals)
    members = frozenset(
        k
        for k, h in enumerate(a.hyperplanes)
        if all(x == 0 for x in _reduce_against(rows, pivots, h.normal))
    )
    return Flat(len(rows), members, rows)


def rank(a: Multiarrangement) -> int:
    if a.size == 0:
        return 0
    return a.normal_matrix().rank()


def intersection_lattice(a: Multiarrangement, max_codim: int) -> dict[int, tuple[Flat, ...]]:
    """Flats of codimension 1..max_codim, each listed once, in member order."""
    if max_codim > a.dim:
        raise ValueError("max_codim exceeds dimension")
    levels: dict[int, tuple[Flat, ...]] = {}
    current: dict[tuple[Vec, ...], Flat] = {}
    for i, h in enumerate(a.hyperplanes):
        f = Flat(1, frozenset({i}), _rref_rows([h.normal])[0])
        current[f.basis] = f
    for r in range(1, max_codim + 1):
        levels[r] = tuple(sorted(current.values(), key=lambda f: f.sorted_members()))
        if r == max_codim:
            break
        nxt: dict[tuple[Vec, ...], Flat] = {}
        for f in levels[r]:
            for k, h in enumerate(a.hyperplanes):
                if k in f.members:
                    continue
                g = _span_flat(a, list(f.basis) + [h.normal])
                if g.codim == r + 1:
                    nxt.setdefault(g.basis, g)
        current = nxt
    return levels


def codim2_flats(a: Multiarrangement) -> tuple[Flat, ...]:
    if a.dim < 2:
        return ()
    return intersection_lattice(a, 2).get(2, ())


def localization(a: Multiarrangement, x: Flat) -> Multiarrangement:
    """(A_X, m_X): the members of x with inherited multiplicities."""
    recomputed = _span_flat(a, x.basis)
    if recomputed.members != x.members or recomputed.codim != x.codim:
        raise ValueError("not a flat of this arrangement")
    idx = x.sorted_members()
    return Multiarrangement(
        a.dim,
        tuple(a.hyperplanes[i] for i in idx),
        tuple(a.mult[i] for i in idx),
        tuple(a.label(i) for i in idx),
    )


def restriction_flats(a: Multiarrangement, h0: Hyperplane | int) -> list[Flat]:
    """Codimension-2 flats lying inside h0, i.e. the elements of A^{h0}."""
    i0 = a.index_of(h0)
    flats: dict[tuple[Vec, ...], Flat] = {}
    for k in range(a.size):
        if k == i0:
            continue
        f = _span_flat(a, [a.hyperplanes[i0].normal, a.hyperplanes[k].normal])
        flats.setdefault(f.basis, f)
    return sorted(flats.values(), key=lambda f: f.sorted_members())


@dataclass(frozen=True)
class Restriction:
    """Euler-Ziegler restriction onto a hyperplane, in an explicit chart.

    The chart is y = T x with the restricted space {y_1 = 0}; restricted
    hyperplanes live in coordinates (y_2, ..., y_l).  trace_members[k] is
    the set of input-arrangement indices of hyperplanes containing the k-th
    restricted hyperplane (including h0 itself).
    """

    arrangement: Multiarrangement
    trace_members: tuple[frozenset[int], ...]
    chart: Matrix
    chart_inv: Matrix
    h0: int


def euler_ziegler_multiplicity(a: Multiarrangement, h0: Hyperplane | int) -> Restriction:
    """Restrict onto h0 with multiplicities m(X) = |m_X| - m(h0).

    The value only depends on the multiplicities away from h0, so it is
    unchanged by shifting m(h0).
    """
    i0 = a.index_of(h0)
    if a.dim < 2:
        raise ValueError("restriction needs ambient dimension >= 2")
    t, tinv = linear_change_to_coordinate(a.hyperplanes[i0].normal)
    groups: dict[Vec, tuple[list[int], int]] = {}
    for k in range(a.size):
        if k == i0:
            continue
        alpha = a.hyperplanes[k].normal
        full = tuple(
            sum((alpha[i] * tinv.entries[i][j] for i in range(a.dim)), Fraction(0))
            for j in range(a.dim)
        )
        trace = full[1:]
        canon = Hyperplane.from_coeffs(trace).normal
        got = groups.get(canon)
        if got is None:
            groups[canon] = ([k], a.mult[k])
        else:
            got[0].append(k)
            groups[canon] = (got[0], got[1] + a.mult[k])
    order = sorted(groups, key=lambda c: min(groups[c][0]))
    planes = tuple(Hyperplane(c) for c in order)
    mults = tuple(groups[c][1] for c in order)
    members = tuple(frozenset(groups[c][0]) | {i0} for c in order)
    restricted = Multiarrangement(a.dim - 1, planes, mults)
    return Restriction(restricted, members, t, tinv, i0)


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


def shifted_mult(a: Multiarrangement, h0: Hyperplane | int, k: int) -> Multiarrangement:
    i0 = a.index_of(h0)
    return a.with_mult(i0, a.mult[i0] + k)


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

    Components are read off the fundamental circuits of the normals with
    respect to a greedy basis; two hyperplanes land in one block exactly
    when they are linked through such circuits.
    """
    n = a.size
    if n == 0:
        return Reducibility((), a.dim)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        parent[find(i)] = find(j)

    basis_idx: list[int] = []
    rows: tuple[Vec, ...] = ()
    pivots: tuple[int, ...] = ()
    for i, h in enumerate(a.hyperplanes):
        rem = _reduce_against(rows, pivots, h.normal)
        if any(x != 0 for x in rem):
            basis_idx.append(i)
            rows, pivots = _rref_rows([*(a.hyperplanes[b].normal for b in basis_idx)])
        else:
            # fundamental circuit: i together with the basis elements whose
            # coefficients in the dependence are nonzero
            bmat = Matrix([a.hyperplanes[b].normal for b in basis_idx]).transpose()
            target = a.hyperplanes[i].normal
            aug = Matrix([list(r) + [t] for r, t in zip(bmat.entries, target)])
            red, piv = aug.rref()
            coeffs = [Fraction(0)] * len(basis_idx)
            for r, p in enumerate(piv):
                coeffs[p] = red.entries[r][len(basis_idx)]
            for b, c in zip(basis_idx, coeffs):
                if c != 0:
                    union(i, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0]))
    return Reducibility(blocks, a.dim - rank(a))


def essentialize(a: Multiarrangement) -> tuple[Multiarrangement, int]:
    """Quotient away the common center; returns the essential arrangement and
    the number of dropped (non-essential) dimensions."""
    r = rank(a)
    drop = a.dim - r
    if drop == 0:
        return a, 0
    from .exactalg import rank_and_kernel

    _, kernel = rank_and_kernel(a.normal_matrix())
    cols: list[Vec] = []
    have = 0
    kernel_mat_cols = [list(v) for v in kernel]
    for i in range(a.dim):
        if have == r:
            break
        e = tuple(Fraction(j == i) for j in range(a.dim))
        cand = Matrix([list(c) for c in cols] + [list(e)] + kernel_mat_cols)
        if cand.rank() > have + len(kernel):
            cols.append(e)
            have += 1
    u = Matrix([[col[i] for col in cols] + [v[i] for v in kernel] for i in range(a.dim)])
    planes = []
    for h in a.hyperplanes:
        image = tuple(
            sum((h.normal[i] * u.entries[i][j] for i in range(a.dim)), Fraction(0))
            for j in range(a.dim)
        )
        assert all(x == 0 for x in image[r:]), "kernel columns must annihilate normals"
        planes.append(Hyperplane.from_coeffs(image[:r]))
    return Multiarrangement(r, tuple(planes), a.mult, a.labels), drop


# ---------------------------------------------------------------------------
# heaviness predicates (the certify module re-exports these)


def is_heavy(a: Multiarrangement, h0: Hyperplane | int) -> bool:
    i0 = a.index_of(h0)
    return a.mult[i0] >= a.total_mult - a.mult[i0]


def is_locally_heavy(a: Multiarrangement, h0: Hyperplane | int) -> bool:
    """Heavy inside every codim-2 localization through h0 with >= 3 members."""
    i0 = a.index_of(h0)
    for f in restriction_flats(a, i0):
        if len(f.members) < 3:
            continue
        others = sum(a.mult[k] for k in f.members if k != i0)
        if a.mult[i0] < others:
            return False
    return True


def locally_heavy_indices(a: Multiarrangement) -> list[int]:
    return [i for i in range(a.size) if is_locally_heavy(a, i)]
