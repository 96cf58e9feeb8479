"""Reference code that tests compare `arrfree` against, and the paper's
statements that the prover never evaluates.

None of this runs in `certify`, `verify_certificate` or the CLI:

* the codim-2 flat table from every ordered pair of normals
  (`ref_codim2_table`), the build that `arrangement._codim2_table`
  replaced with one over the unordered pairs not yet on a flat;
* the lattice that spanned a flat's member normals with each hyperplane
  outside it and scanned every normal against the integer kernel
  (`ref_span_flat`, `ref_span_lattice`), which `arrangement` replaced with
  one grouping of the residues against the flat's span (`_classes`);
* the prover's flag search that restricted onto every candidate
  (`ref_flag_search`, one `_restriction_step` per level), which
  `certify._heavy_flags` replaced with a walk that reads each level from
  its parent's row (`arrangement.restriction_rows`, `arrangement.Level`),
  descends only where the restriction has a locally heavy hyperplane, and
  never restricts; the verifier's walk of a cited flag restricted the same
  way, once per level, until it became that walk with one candidate per
  level;
* the row step that built its bookkeeping afresh for every row
  (`ref_restriction_rows`): a dict from hyperplane to point bit per row, a
  set difference per point, every own line marked as paired and the light
  points in a set, which `arrangement.restriction_rows` replaced with one
  list per level and one pass over each point's members; and
  `primitive_form` with its sign from a generator and a division by a gcd
  of 1 (`ref_primitive_form`);
* local heaviness as a test per hyperplane over its row of the codim-2
  table (`ref_locally_heavy_indices`, `ref_is_locally_heavy`, one
  `_heavy_in` each), which `arrangement._heavy` replaced with one pass over
  the flats that the row step's lines share;
* the rank >= 4 search of the two-locally-heavy rule over the whole codim-3
  level of `intersection_lattice`, keeping the flats that hold both
  hyperplanes of a pair (`ref_nonfree_two_locally_heavy`), which
  `certify.nonfree_two_locally_heavy` replaced with the rank-3 flats over
  the pair's codim-2 flat (`arrangement._flats_over`);
* the recursive list of exponent vectors (`ref_monomials`), which
  `exactalg.monomials` replaced with one over multisets of variables;
* the rational Gauss-Jordan elimination and its kernel (`ref_rref`,
  `ref_rank_and_kernel`), the Polynomial-valued substitution
  (`ref_substitute_monomials`) and the `derivation_basis` that built
  Fraction rows through the inverse of the greedy chart
  (`ref_derivation_basis`), which `exactalg.integer_kernel` and `dspace`
  replaced with integer code;
* the degree-d systems of `dspace.derivation_dims` with every chart's
  powers N^e built up front, up to the largest degree asked for
  (`ref_reduced_systems`), which `dspace._reduced_systems` replaced with
  charts extended only as far as the degree being built;
* the full system of `dspace.derivation_basis` from a builder of its own
  (`ref_full_system`), which `dspace._systems`, the builder of the reduced
  systems too, replaced with every input coordinate at multiplicity 0 and
  every form giving rows;
* `dspace.derivation_basis` on that full system (`ref_full_derivation_basis`),
  which `derivation_basis` replaced with one where each coordinate
  hyperplane +-x_i drops the unknowns of x_i-degree below its largest
  multiplicity and only the other forms give rows;
* the heavy coordinates of `dspace.derivation_dims` by a residue
  reduction and Cramer's rule over Bareiss determinants (`ref_coordinates`,
  `ref_int_det`), and the rank-2 projection whose pivots came from two
  member normals and whose plane was checked by a Cramer identity
  (`ref_project_to_rank2`), which `dspace._coordinates` replaced with the
  elimination of `exactalg._gauss_jordan` and `rank2.project_to_rank2`
  with `arrangement.essentialize` of the flat's members, whose pivots come
  from `exactalg._forward`;
* converters between a `Derivation` (integer term dicts over one
  denominator) and a tuple of Fraction Polynomials
  (`derivation_from_polys`, `polys_from_terms`);
* the pairwise fold of scaled derivations (`ref_combine`), which
  `oracle._combination` replaced with one integer combination per
  coordinate;
* the greedy coordinate chart (`ref_linear_change_to_coordinate`), which
  probes `Matrix.rank()` once per candidate unit vector and inverts by an
  augmented RREF -- the one chart reference of the closed form that
  `exactalg.scaled_chart_image` and `dspace` write down;
* heaviness (`is_heavy`) and the shift of a locally heavy multiplicity
  (`normalize_multiplicity_shift`, criterion C7);
* the away-b2 as a sum of local b2 over the flats off h0
  (`b2_away_local_sum`, criterion C4);
* b2 from the projection and `rank2_exponents` of every codim-2 flat
  (`ref_b2_multi`), which `betti.b2_multi` and `certify._rank2_base`
  replaced with `rank2.flat_exponents`, which projects only the flats whose
  multiplicities do not fix their exponents;
* the b2 of a simple arrangement as its own sum of |X| - 1
  (`ref_b2_simple`), which `betti.b2_simple` replaced with `b2_multi`,
  whose flats all get (1, |X| - 1) from `rank2._closed_d1`;
* Saito's criterion in Fraction polynomials (`ref_saito_check`,
  `ref_is_log_derivation`): theta(alpha) (`apply_form`), the lex
  division, the cofactor determinant and the defining polynomial Q(A,m)
  that `oracle.saito_check` replaced with integer term dicts and then
  with one integer determinant at a point (the reference takes any
  degree sum, and reports Q(A,m) times a polynomial of positive degree as
  `DetIsMultiple`, a sum past |m| that `saito_check` refuses), and the
  divisibility test of `rank2.euler_multiplicity_at_flat`
  (`ref_euler_multiplicity_at_flat`);
* the rank-2 exponents from one graded dimension on every instance
  (`ref_rank2_exponents`), which `rank2._min_degree_basis` replaced with
  the closed forms of `rank2._closed_d1` where the multiplicities fix them;
* the count of exponent tuples by a partition table
  (`ref_exponent_tuple_count`), which `oracle.hilbert_freeness_test`
  replaced with the enumeration `oracle._nondecreasing_tuples`, cut one
  tuple past the bound;
* the whole list of exponent tuples (`exponent_candidates`) and the
  Hilbert test's guard asked on its own (`exponent_tuple_overflow`), a
  walk of the enumeration that the prover, the verifier and the CLI made
  before the test walked it again; they now catch the test's own
  `oracle.ExponentTupleOverflow`;
* the Hilbert test that solved every degree 0..cap before it filtered any
  exponent tuple or tried a basis (`ref_hilbert_freeness_test`), which
  `oracle.hilbert_freeness_test` replaced with a filter per degree that
  stops at the first degree that leaves none, or at the first degree at or
  above its top exponent that leaves one tuple whose basis it extracts;
* the good summand of a Saito basis at a locally heavy hyperplane
  (`good_summand_check`) and the restriction of a derivation that
  annihilates its form (`restrict_derivation`).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, Sequence

from arrfree.arrangement import (
    Flat,
    Hyperplane,
    Level,
    Multiarrangement,
    RestrictionRow,
    _classes,
    _codim2_table,
    _ones,
    codim2_flats,
    euler_ziegler_multiplicity,
    intersection_lattice,
    is_locally_heavy,
    localization,
    locally_heavy_indices,
    rank,
    reducibility,
    restriction_flats,
)
from arrfree.betti import BettiReport
from arrfree.certify import RULE_TWO_LH, CertNode, Flag, Verdict, nonfree_two_locally_heavy
from arrfree.dspace import (
    _chart,
    _coordinates,
    _form_rows,
    _primitive_forms,
    _systems,
    derivation_dim,
    derivation_dims,
)
from arrfree.exactalg import (
    Matrix,
    Monomial,
    Polynomial,
    _pivot,
    _term_combination,
    integer_kernel,
    monomials,
    primitive_form,
    primitive_row,
    vec,
)
from arrfree.oracle import (
    MAX_EXPONENT_TUPLES,
    Derivation,
    HilbertResult,
    SaitoResult,
    default_degree_cap,
    ExponentTupleOverflow,
    _nondecreasing_tuples,
    extract_basis,
    free_module_dim,
    is_log_derivation,
    saito_check,
)
from arrfree.rank2 import project_to_rank2, rank2_exponents

F = Fraction

# ---------------------------------------------------------------------------
# the codim-2 flat table from ordered pairs


def ref_codim2_table(
    hyperplanes: tuple[Hyperplane, ...],
) -> tuple[tuple[Flat, ...], tuple[tuple[Flat, ...], ...]]:
    """All codimension-2 flats in member order, and per hyperplane i the
    flats that contain i, in member order.

    One grouping pass per hyperplane i, in integers: every other normal v is
    reduced against the normal u of i (pivot p) to u[p]*v - v[p]*u, which
    vanishes at p.  Two hyperplanes lie on one codim-2 flat with i exactly
    when their residues are proportional, so the residue's `primitive_form`
    is the group key.
    Groups open in increasing order of their least member other than i,
    which is member order.  A flat is built in the row of its least member
    and shared by its other members' rows.  A build reduces |X|(|X| - 1)
    residues per flat X.
    """
    ints = [h.coeffs for h in hyperplanes]
    built: dict[frozenset[int], Flat] = {}
    rows = []
    for i, u in enumerate(ints):
        p = _pivot(u)
        groups: dict[tuple[int, ...], list[int]] = {}
        for k, v in enumerate(ints):
            if k == i:
                continue
            r = [u[p] * y - v[p] * x for x, y in zip(u, v)]
            groups.setdefault(primitive_form(r), [i]).append(k)
        row = []
        for ks in groups.values():
            members = frozenset(ks)
            if ks[1] > i:
                built[members] = Flat(2, members)
            row.append(built[members])
        rows.append(tuple(row))
    return tuple(built.values()), tuple(rows)


# ---------------------------------------------------------------------------
# the lattice by spans


def ref_span_flat(a: Multiarrangement, seed_normals) -> Flat:
    """The flat cut out by the seed normals.  Their span is the annihilator
    of their kernel, so a hyperplane contains the flat exactly when its
    normal vanishes on every kernel vector; its codimension is the rank."""
    _, kernel = integer_kernel([list(n) for n in seed_normals], a.dim)
    members = frozenset(
        k for k, h in enumerate(a.hyperplanes) if all(sum(x * y for x, y in zip(h.coeffs, v)) == 0 for v, _ in kernel)
    )
    return Flat(a.dim - len(kernel), members)


def ref_span_lattice(a: Multiarrangement, max_codim: int) -> dict[int, tuple[Flat, ...]]:
    """Flats of codimension 1..max_codim in member order: each level above 2
    spans the member normals of a flat of the level below with one
    hyperplane outside it; a hyperplane already in a flat found from the
    same lower flat is skipped."""
    levels = {}
    if max_codim >= 1:
        levels[1] = tuple(Flat(1, frozenset({i})) for i in range(a.size))
    if max_codim >= 2:
        levels[2] = codim2_flats(a)
    for r in range(2, max_codim):
        nxt = {}
        for f in levels[r]:
            seeds = [a.hyperplanes[k].coeffs for k in f.sorted_members()]
            covered = set(f.members)
            for k, h in enumerate(a.hyperplanes):
                if k not in covered:
                    g = ref_span_flat(a, seeds + [h.coeffs])
                    covered |= g.members
                    nxt.setdefault(g.members, g)
        levels[r + 1] = tuple(sorted(nxt.values(), key=Flat.sorted_members))
    return levels


# ---------------------------------------------------------------------------
# exponent vectors


def ref_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, lex-descending: each
    first exponent from the degree down, followed by the vectors of the
    rest."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in ref_monomials(nvars - 1, degree - first))
    return out


# ---------------------------------------------------------------------------
# the greedy coordinate chart


def ref_inverse(m):
    n = m.rows
    aug = Matrix([list(m.entries[i]) + [Fraction(i == j) for j in range(n)] for i in range(n)])
    red, pivots = aug.rref()
    assert pivots == list(range(n)), "singular matrix"
    return Matrix([row[n:] for row in red.entries])


def ref_linear_change_to_coordinate(form):
    """Invertible T whose first row is the form, completed greedily by the
    unit vectors that raise the rank, plus its inverse: in y = T x the
    hyperplane `form = 0` is {y_1 = 0}."""
    f = vec(form)
    n = len(f)
    rows = [f]
    have = 1
    for i in range(n):
        if have == n:
            break
        e = tuple(Fraction(j == i) for j in range(n))
        if Matrix(rows + [e]).rank() > have:
            rows.append(e)
            have += 1
    t = Matrix(rows)
    return t, ref_inverse(t)


def ref_scaled_chart_inverse(form):
    """f_q times the greedy T^-1, with q the last index where the form is
    nonzero: row i is the image of x_i in the chart coordinates."""
    f = vec(form)
    fq = next(x for x in reversed(f) if x != 0)
    _, tinv = ref_linear_change_to_coordinate(f)
    return [tuple(fq * x for x in row) for row in tinv.entries]


# ---------------------------------------------------------------------------
# rational elimination and the Fraction derivation basis


def ref_rref(m):
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(rows), pivots


def ref_rank_and_kernel(m):
    """Rank and the reduced-echelon kernel basis: per free column f, 1 at
    f, zero at the other free columns and -RREF[r][f] at the pivot of row
    r."""
    red, pivots = ref_rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return len(pivots), basis


def ref_substitute_monomials(images, monos):
    forms = [Polynomial.linear_form(im) for im in images]
    new_n = forms[0].nvars if forms else 0
    powers = {}

    def power(i, k):
        if k == 0:
            return Polynomial.constant(new_n, 1)
        if (i, k) not in powers:
            powers[(i, k)] = power(i, k - 1) * forms[i]
        return powers[(i, k)]

    table = {}
    for mono in monos:
        p = Polynomial.constant(new_n, 1)
        for i, e in enumerate(mono):
            if e:
                p = p * power(i, e)
        table[mono] = p
    return table


def ref_derivation_basis(forms, mults, degree):
    """The echelon basis of the degree-d piece as Fraction Polynomial
    tuples, from Fraction rows through the greedy chart's inverse."""
    fs = [vec(f) for f in forms]
    nvars = len(fs[0])
    if degree < 0:
        return []
    monos = monomials(nvars, degree)
    nm = len(monos)
    ncols = nvars * nm
    rows = []
    for form, mult in zip(fs, mults):
        if mult > degree:
            for k in range(nm):
                row = [F(0)] * ncols
                for i in range(nvars):
                    row[i * nm + k] = form[i]
                rows.append(row)
            continue
        _, tinv = ref_linear_change_to_coordinate(form)
        table = ref_substitute_monomials(tinv.entries, monos)
        for cm in (m for m in monos if m[0] < mult):
            base = [table[mono].coeff(cm) for mono in monos]
            rows.append([form[i] * base[k] for i in range(nvars) for k in range(nm)])
    if rows:
        _, kernel = ref_rank_and_kernel(Matrix(rows))
    else:
        kernel = [tuple(F(j == k) for j in range(ncols)) for k in range(ncols)]
    return [
        tuple(
            Polynomial(nvars, {monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k] != 0})
            for i in range(nvars)
        )
        for v in kernel
    ]


def ref_reduced_systems(forms, mults, degrees):
    """`dspace._reduced_systems` as it built every other form's chart with
    N^e up to the largest degree before the first degree."""
    fs = _primitive_forms(forms, mults)
    coords, others = _coordinates(fs, mults)
    top = max(degrees, default=-1)
    charts = [_chart(form, mult, top) for form, mult in others]
    for degree in degrees:
        monos = monomials(len(fs[0]), degree)
        cols = [(i, k) for i, (_, m) in enumerate(coords) for k, mono in enumerate(monos) if mono[i] >= m]
        rows = [
            row
            for (form, mult), chart in zip(others, charts)
            for row in _form_rows(form, mult, chart, monos, degree, cols)
        ]
        yield rows, len(cols)


def ref_full_system(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> tuple[list[list[int]], list[Monomial]]:
    """The integer linear system of the degree-d piece and its monomials:
    unknown i*len(monos) + k is the coefficient of monos[k] in
    theta(x_{i+1}).  A negative degree has no monomials and no rows."""
    fs = _primitive_forms(forms, mults)
    monos = monomials(len(fs[0]), degree)
    cols = [(i, k) for i in range(len(fs[0])) for k in range(len(monos))]
    rows = [
        row
        for form, mult in zip(fs, mults)
        for row in _form_rows(form, mult, _chart(form, mult, degree), monos, degree, cols)
    ]
    return rows, monos


def ref_full_derivation_basis(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> list[tuple[tuple[dict[Monomial, int], ...], int]]:
    """Echelon-normalized basis of the degree-d piece of the module.

    Returns (coefficient tuple (theta(x_1), ..., theta(x_n)) as integer term
    dicts, positive denominator) pairs; deterministic for fixed input order.
    """
    fs = _primitive_forms(forms, mults)
    nvars = len(fs[0])
    rows, monos, cols = next(_systems([0] * nvars, list(zip(fs, mults)), (degree,)))
    ncols = len(cols)
    nm = len(monos)
    _, kernel = integer_kernel(rows, ncols)
    return [
        (tuple({monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k]} for i in range(nvars)), den)
        for v, den in kernel
    ]


# ---------------------------------------------------------------------------
# heavy coordinates by residues and Cramer's rule, and the rank-2 projection
# by a Cramer identity


def ref_int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination, whose divisions are exact."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def ref_coordinates(
    fs: list[list[int]], mults: Sequence[int]
) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
    """The coordinate forms of `derivation_dim`, as (form, mult) pairs, and
    every other form in those coordinates, as (primitive integer form,
    mult) in input order.

    The forms are taken in (-mult, index) order, and each one independent
    of those already kept is kept, until there are l of them.  A form is
    reduced by the residues of the kept forms in the order kept, each
    clearing its pivot (first nonzero entry), and is independent when what
    is left, its residue, is nonzero: a residue is zero at the earlier
    pivots, so a nonzero combination of residues is nonzero at the pivot
    of its first term.  For the same reason the unit vectors at the columns
    with no pivot, with multiplicity 0, complete a rank below l.  A form
    alpha = sum_j b_j*c_j has b_j = det(C with row j replaced by alpha) /
    det(C) (Cramer's rule), so the numerators, made primitive, are alpha in
    the coordinates.
    """
    nvars = len(fs[0])
    kept: list[int] = []
    residues: list[tuple[int, list[int]]] = []
    for k in sorted(range(len(fs)), key=lambda k: (-mults[k], k)):
        if len(kept) == nvars:
            break
        v = fs[k]
        for p, r in residues:
            if v[p]:
                v = [r[p] * a - v[p] * b for a, b in zip(v, r)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            residues.append((p, v))
            kept.append(k)
    pivots = {p for p, _ in residues}
    units = [[int(i == j) for i in range(nvars)] for j in range(nvars) if j not in pivots]
    coords = [(fs[k], mults[k]) for k in kept] + [(u, 0) for u in units]
    c = [f for f, _ in coords]
    others = [
        (primitive_row([ref_int_det(c[:j] + [fs[k]] + c[j + 1 :]) for j in range(nvars)]), mults[k])
        for k in range(len(fs))
        if k not in kept
    ]
    return coords, others


def ref_project_to_rank2(a: Multiarrangement, x: Flat) -> Multiarrangement:
    """Quotient the members of a codim-2 flat down to two variables, with
    their multiplicities.

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
    forms = tuple(Hyperplane(primitive_form((n[p1], n[p2]))) for n in normals)
    return Multiarrangement(2, forms, tuple(a.mult[k] for k in idx))


# ---------------------------------------------------------------------------
# derivations as Fraction polynomials


def polys_from_terms(coeffs, den: int) -> tuple[Polynomial, ...]:
    """Integer term dicts over a positive denominator (a `Derivation`'s
    coeffs and den, or a `derivation_basis` element) as Fraction
    Polynomials."""
    n = len(coeffs)
    return tuple(Polynomial(n, {m: F(c, den) for m, c in p.items()}) for p in coeffs)


def derivation_from_polys(polys) -> Derivation:
    """The Derivation whose coefficients are the given Fraction
    Polynomials, one per coordinate."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return Derivation(tuple({m: c.numerator * (den // c.denominator) for m, c in p.terms.items()} for p in polys), den)


def _scale(t: Derivation, c: int) -> Derivation:
    return Derivation(tuple({m: c * v for m, v in p.items()} for p in t.coeffs), t.den)


def _add(s: Derivation, t: Derivation) -> Derivation:
    den = lcm(s.den, t.den)
    a, b = den // s.den, den // t.den
    return Derivation(tuple(_term_combination(((a, p), (b, q))) for p, q in zip(s.coeffs, t.coeffs)), den)


def ref_combine(coeffs, basis) -> Derivation:
    """sum_j coeffs[j] * basis[j] as `oracle.extract_basis` folded it:
    each nonzero term scaled, then added to the running sum over the lcm
    of the two denominators, one pair at a time; the zero derivation when
    every coefficient is 0."""
    combo = None
    for c, t in zip(coeffs, basis):
        if c == 0:
            continue
        part = _scale(t, c)
        combo = part if combo is None else _add(combo, part)
    return Derivation(({},) * basis[0].nvars) if combo is None else combo


# ---------------------------------------------------------------------------
# the unpruned flag search


def _restriction_step(m: Multiarrangement, members, k: int):
    """Restrict onto hyperplane k of m, composing original-member sets."""
    traces = [f.members for f in restriction_flats(m, k)]
    return euler_ziegler_multiplicity(m, k), [frozenset().union(*(members[j] for j in tm)) for tm in traces]


def ref_flag_search(m: Multiarrangement, members, chain=(), values=(), parent=None):
    """Yield (flag, tail) for every locally heavy flag completing (chain,
    values) at level m, as the prover's walk did before it pruned and read
    its levels from the parent's rows: it restricts onto every candidate,
    all hyperplanes on the first level and the locally heavy ones of the
    restriction below, and visits them in the order of their sorted
    members."""
    candidates = sorted(locally_heavy_indices(m) if chain else range(m.size), key=lambda k: sorted(members[k]))
    for k in candidates:
        chain_k, values_k = chain + (members[k],), values + (m.mult[k],)
        if m.dim == 1:
            yield Flag(chain_k, values_k), parent
        else:
            yield from ref_flag_search(*_restriction_step(m, members, k), chain_k, values_k, m)


# ---------------------------------------------------------------------------
# the row step and the primitive form before their bookkeeping was cut


def ref_primitive_form(row: Sequence[int]) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer row whose first nonzero
    entry is positive: every nonzero multiple of the row gives the same
    tuple (a rational row goes through `primitive_row` first)."""
    g = gcd(*row)
    if g == 0:
        raise ValueError("zero form")
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def ref_restriction_rows(level: Level) -> Iterator[RestrictionRow]:
    """`arrangement.restriction_rows` as it was before its bookkeeping was
    cut: the same rows, the same hand-down of each codim-3 flat from the
    row of its least member, but a dict from hyperplane to point bit built
    for every row, one set difference per point for its least member other
    than H, every own line marked in `paired`, each line's member set a
    union of frozensets, and the light points gathered in a set."""
    if level.dim < 2:
        raise ValueError("restriction needs ambient dimension >= 2")
    ints = level.normals
    mult = level.mult
    given: list[list[frozenset[int]]] = [[] for _ in level.rows]  # codim-3 flats grouped in earlier rows
    for i, points in enumerate(level.rows):
        n = len(points)
        res = None
        if level.dim >= 4:
            u = ints[i]
            p = _pivot(u)
            bit = {k: 1 << x for x, f in enumerate(points) for k in f}
            res = []
            for f in points:
                v = ints[min(f - {i})]
                res.append([u[p] * t - v[p] * s for s, t in zip(u, v)])
            paired = [0] * n  # per point, the points known to share a line with it
            lines = []
            for y in given[i]:
                xs = 0
                for k in y:
                    if k != i:
                        xs |= bit[k]
                on = _ones(xs)
                lines.append(on)
                for x in on:
                    paired[x] |= xs
            for x, w in enumerate(res):
                todo = ((1 << n) - (2 << x)) & ~paired[x]  # the later points not yet on a line with x
                if not todo:
                    continue
                for zs in _classes([(_pivot(w), w)], res, _ones(todo)).values():
                    on = [x, *zs]
                    lines.append(on)
                    xs = 0
                    for z in on:
                        xs |= 1 << z
                    for z in on:
                        paired[z] |= xs
                    y = frozenset().union(*(points[z] for z in on))
                    for j in y:
                        if j > i:
                            given[j].append(y)
        else:
            lines = [list(range(n))] if level.dim == 3 and n >= 2 else []
        ms = [sum(mult[k] for k in f) - mult[i] for f in points]
        light = set()
        for on in lines:
            if len(on) >= 3:
                total = sum(ms[x] for x in on)
                light.update(x for x in on if 2 * ms[x] < total)
        yield RestrictionRow([x for x in range(n) if x not in light], ms, lines, res)


# ---------------------------------------------------------------------------
# local heaviness per hyperplane, before the row step and the input shared
# one test


def _heavy_in(a: Multiarrangement, i0: int, flats: Sequence[Flat]) -> bool:
    m0 = a.mult[i0]
    return all(m0 >= sum(a.mult[k] for k in f.members) - m0 for f in flats if len(f.members) >= 3)


def ref_is_locally_heavy(a: Multiarrangement, h0) -> bool:
    """Heavy inside every codim-2 localization through h0 with >= 3 members."""
    i0 = a.index_of(h0)
    return _heavy_in(a, i0, _codim2_table(a.hyperplanes)[1][i0])


def ref_locally_heavy_indices(a: Multiarrangement) -> list[int]:
    table = _codim2_table(a.hyperplanes)[1]
    return [i for i in range(a.size) if _heavy_in(a, i, table[i])]


# ---------------------------------------------------------------------------
# the two-locally-heavy rule over the whole codim-3 level


def ref_nonfree_two_locally_heavy(a: Multiarrangement) -> Verdict:
    """`certify.nonfree_two_locally_heavy` with its rank >= 4 search over
    every codim-3 flat of the lattice: for each pair of locally heavy
    hyperplanes, the flats that hold both, in member order.  Below rank 4,
    or with fewer than two locally heavy hyperplanes, it is the rule."""
    lh = locally_heavy_indices(a)
    r = rank(a)
    if len(lh) < 2 or r < 4:
        return nonfree_two_locally_heavy(a)
    flats3 = intersection_lattice(a, 3).get(3, ())
    for hi in range(len(lh)):
        for li in range(hi + 1, len(lh)):
            h, l = lh[hi], lh[li]
            for f in flats3:
                if h not in f.members or l not in f.members:
                    continue
                loc = localization(a, f)
                if reducibility(loc).irreducible:
                    node = CertNode(
                        RULE_TWO_LH,
                        {
                            "locally_heavy": [h, l],
                            "flat_members": sorted(f.members),
                        },
                        {"rank": r, "localization_rank": rank(loc)},
                    )
                    return Verdict(
                        "NonFree",
                        witness={"locally_heavy": [h, l], "flat": sorted(f.members)},
                        certificate=node,
                    )
    return Verdict(
        "Inconclusive",
        reason="no essentially irreducible rank-3 flat under two locally heavy hyperplanes",
    )


# ---------------------------------------------------------------------------
# heaviness and multiplicity shifts


def is_heavy(a: Multiarrangement, h0) -> bool:
    i0 = a.index_of(h0)
    return a.mult[i0] >= a.total_mult - a.mult[i0]


def normalize_multiplicity_shift(a: Multiarrangement, h0, k: int) -> Multiarrangement:
    """Shift the multiplicity of a locally heavy hyperplane by k; freeness is
    invariant under such shifts, so this travels between heavy and minimal
    locally heavy forms."""
    i0 = a.index_of(h0)
    if not is_locally_heavy(a, i0):
        raise ValueError(f"{a.label(i0)} is not locally heavy")
    new = a.mult[i0] + k
    if new < 1:
        raise ValueError("shift makes the multiplicity nonpositive")
    shifted = a.with_mult(i0, new)
    if not is_locally_heavy(shifted, i0):
        raise ValueError("shift destroys local heaviness")
    return shifted


# ---------------------------------------------------------------------------
# the away-b2 as a local sum


def b2_away_local_sum(a: Multiarrangement, h0) -> int:
    """Sum of local b2 over the codim-2 flats not contained in h0."""
    i0 = a.index_of(h0)
    total = 0
    for f in codim2_flats(a):
        if i0 in f.members:
            continue
        d1, d2 = rank2_exponents(project_to_rank2(a, f))
        total += d1 * d2
    return total


def ref_b2_multi(a: Multiarrangement) -> BettiReport:
    """`b2_multi` with every codim-2 flat projected to rank 2 and solved by
    `rank2_exponents`."""
    rows = []
    exps = []
    for f in codim2_flats(a):
        d1, d2 = rank2_exponents(project_to_rank2(a, f))
        rows.append((f.sorted_members(), d1 * d2))
        exps.append((d1, d2))
    return BettiReport(sum(c for _, c in rows), tuple(rows), tuple(exps))


def ref_b2_simple(a: Multiarrangement) -> BettiReport:
    """Sum of |A_X| - 1 over codim-2 flats; demands a simple arrangement."""
    if not a.is_simple():
        raise ValueError("b2_simple needs all multiplicities equal to 1")
    rows = []
    exps = []
    for f in codim2_flats(a):
        n = len(f.members)
        rows.append((f.sorted_members(), n - 1))
        exps.append((1, n - 1))
    return BettiReport(sum(c for _, c in rows), tuple(rows), tuple(exps))


# ---------------------------------------------------------------------------
# Saito's criterion in Fraction polynomials


def apply_form(theta: Derivation, form) -> Polynomial:
    """theta(alpha) for the linear form alpha with the given coefficients."""
    out = Polynomial.zero(theta.nvars)
    for ci, fi in zip(polys_from_terms(theta.coeffs, theta.den), vec(form)):
        if fi != 0:
            out = out + ci * fi
    return out


def power(p: Polynomial, k: int) -> Polynomial:
    out = Polynomial.constant(p.nvars, 1)
    for _ in range(k):
        out = out * p
    return out


def ref_defining_polynomial(a: Multiarrangement) -> Polynomial:
    """Q(A,m), the product of the rational normals' powers."""
    q = Polynomial.constant(a.dim, 1)
    for h, m in zip(a.hyperplanes, a.mult):
        q = q * power(Polynomial.linear_form(h.normal), m)
    return q


def ref_poly_matrix_det(grid) -> Polynomial:
    """Determinant of a square matrix of Polynomials, by cofactor expansion
    along the first row at every size."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = Polynomial.zero(grid[0][0].nvars)
    for j in range(n):
        if grid[0][j].is_zero():
            continue
        minor = [[grid[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = grid[0][j] * ref_poly_matrix_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ref_is_log_derivation(a: Multiarrangement, theta: Derivation) -> bool:
    """Membership by lex division of theta(alpha_H) by alpha_H^{m(H)}."""
    if theta.nvars != a.dim:
        raise ValueError("dimension mismatch")
    for h, m in zip(a.hyperplanes, a.mult):
        p = apply_form(theta, h.coeffs)
        if not p.is_zero() and not p.divisible_by(power(Polynomial.linear_form(h.coeffs), m)):
            return False
    return True


@dataclass(frozen=True)
class DetIsMultiple:
    """`ref_saito_check`'s result for members whose determinant is Q(A,m)
    times a polynomial of positive degree `factor_degree`.  Their degrees
    sum past |m|, which `oracle.saito_check` refuses, so its `SaitoResult`
    has no such kind."""

    factor_degree: int
    kind: str = "DetIsMultiple"


def ref_saito_check(a: Multiarrangement, thetas) -> SaitoResult | DetIsMultiple:
    """`oracle.saito_check` in Fraction polynomials."""
    thetas = list(thetas)
    if len(thetas) != a.dim:
        raise ValueError(f"need exactly {a.dim} derivations")
    for t in thetas:
        if not ref_is_log_derivation(a, t):
            raise ValueError("derivation outside D(A,m)")
    columns = [polys_from_terms(t.coeffs, t.den) for t in thetas]
    det = ref_poly_matrix_det([[columns[j][i] for j in range(a.dim)] for i in range(a.dim)])
    if det.is_zero():
        return SaitoResult("Dependent")
    q, r = det.divmod_by(ref_defining_polynomial(a))
    if not r.is_zero():
        raise RuntimeError("determinant not divisible by Q(A,m); membership bug")
    if q.degree() == 0:
        return SaitoResult("Basis", exponents=tuple(sorted(t.pdeg for t in thetas)))
    return DetIsMultiple(factor_degree=q.degree())


def ref_rank2_exponents(a: Multiarrangement) -> tuple[int, int]:
    """(d1, d2) of lines in two variables from dim D_d at
    d = min(ceil(|m|/2) - 1, |m| - max m), the one graded solve that
    `rank2._min_degree_basis` ran on every instance."""
    total = a.total_mult
    d = min((total + 1) // 2 - 1, total - max(a.mult))
    d1 = d + 1 - derivation_dim([h.coeffs for h in a.hyperplanes], a.mult, d)
    return d1, total - d1


def exponent_candidates(total: int, parts: int) -> list[tuple[int, ...]]:
    """Nondecreasing positive tuples of the given length summing to total."""
    return list(_nondecreasing_tuples(total, parts, 1))


def exponent_tuple_overflow(total: int, parts: int) -> str | None:
    """Desk-scale guard on the Hilbert test's candidate list: None for at
    most MAX_EXPONENT_TUPLES exponent tuples, else the reason to refuse.
    Every branch of the enumeration yields, so asking it for one tuple past
    the bound takes bounded work whatever total is."""
    if next(islice(_nondecreasing_tuples(total, parts, 1), MAX_EXPONENT_TUPLES, None), None) is None:
        return None
    return str(ExponentTupleOverflow(total, parts))


def ref_exponent_tuple_count(total: int, parts: int) -> int:
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


def ref_hilbert_freeness_test(
    a: Multiarrangement,
    degree_cap: int | None = None,
    seed: int = 0,
    trials: int = 20,
) -> HilbertResult:
    """`oracle.hilbert_freeness_test` as it solved every degree 0..cap and
    then kept the tuples matching all of them, and tried a basis only
    then; every result cites the cap asked for."""
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


def ref_euler_multiplicity_at_flat(a: Multiarrangement, h0: int) -> int:
    """`rank2.euler_multiplicity_at_flat` on the Fraction basis of the
    rational normals (first nonzero entry 1), by lex division by the
    distinguished one (`Polynomial.divisible_by`)."""
    d1, d2 = rank2_exponents(a)
    alpha0 = Polynomial.linear_form(a.hyperplanes[h0].normal)
    for coeffs in ref_derivation_basis([h.normal for h in a.hyperplanes], a.mult, d1):
        if any(not c.is_zero() and not c.divisible_by(alpha0) for c in coeffs):
            return d1
    return d2


# ---------------------------------------------------------------------------
# derivations at a locally heavy hyperplane


def good_summand_check(a: Multiarrangement, h0, thetas) -> bool:
    """Check for the distinguished basis element at a locally heavy hyperplane.

    Looks for an index j with pdeg m(h0) whose image of the defining form is
    a nonzero constant times alpha0^{m0}; the remaining basis elements are
    then corrected to annihilate alpha0 and re-verified as members.
    """
    thetas = list(thetas)
    i0 = a.index_of(h0)
    if not is_locally_heavy(a, i0):
        raise ValueError("hyperplane is not locally heavy")
    if saito_check(a, thetas).kind != "Basis":
        raise ValueError("given derivations are not a basis")
    m0 = a.mult[i0]
    alpha0 = a.hyperplanes[i0].normal
    a0_pow = power(Polynomial.linear_form(alpha0), m0)
    pivot = None
    for j, t in enumerate(thetas):
        if t.pdeg != m0:
            continue
        p = apply_form(t, alpha0)
        if p.is_zero():
            continue
        q, r = p.divmod_by(a0_pow)
        if r.is_zero() and q.degree() == 0:
            pivot = (j, q.coeff((0,) * a.dim))
            break
    if pivot is None:
        return False
    j, c = pivot
    good = tuple(p * (1 / c) for p in polys_from_terms(thetas[j].coeffs, thetas[j].den))
    for i, t in enumerate(thetas):
        if i == j:
            continue
        qi = apply_form(t, alpha0).divmod_by(a0_pow)[0]  # exact: t is a member
        own = polys_from_terms(t.coeffs, t.den)
        corrected = derivation_from_polys(tuple(p - qi * g for p, g in zip(own, good)))
        if not apply_form(corrected, alpha0).is_zero():
            raise RuntimeError("good-summand correction failed to annihilate alpha0")
        if not is_log_derivation(a, corrected):
            raise RuntimeError("good-summand correction left the module")
    return True


def restrict_derivation(a: Multiarrangement, h0, theta: Derivation) -> Derivation:
    """Push a derivation annihilating alpha0 down to the restriction chart.

    In the chart y = T x of the greedy reference, alpha0 is y_1; the
    restricted coefficients are rows 2.. of T applied to theta, with x
    substituted by T^-1 y and y_1 set to zero.  Membership in the module of
    the Euler-Ziegler restriction is re-verified on the result rather than
    assumed.
    """
    i0 = a.index_of(h0)
    if not is_log_derivation(a, theta):
        raise ValueError("derivation outside D(A,m)")
    if not apply_form(theta, a.hyperplanes[i0].normal).is_zero():
        raise ValueError("derivation does not annihilate the hyperplane form")
    restr = euler_ziegler_multiplicity(a, i0)
    t, tinv = ref_linear_change_to_coordinate(a.hyperplanes[i0].normal)
    coeffs = polys_from_terms(theta.coeffs, theta.den)
    new_coeffs = []
    for i in range(1, a.dim):
        p = Polynomial.zero(a.dim)
        for k in range(a.dim):
            coeff = t.entries[i][k]
            if coeff != 0:
                p = p + coeffs[k] * coeff
        table = ref_substitute_monomials(tinv.entries, p.terms)
        terms = {}
        for mono, c in p.terms.items():
            for m, v in table[mono].terms.items():
                if m[0] == 0:
                    terms[m[1:]] = terms.get(m[1:], 0) + c * v
        new_coeffs.append(Polynomial(a.dim - 1, terms))
    out = derivation_from_polys(new_coeffs)
    if not is_log_derivation(restr, out):
        raise RuntimeError("restricted derivation left the restriction module")
    return out
