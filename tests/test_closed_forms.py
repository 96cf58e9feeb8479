"""Differential tests of the closed-form coordinate chart, essentialization
and reducibility against the greedy constructions they replaced.

The references probe `Matrix.rank()` once per candidate unit vector, invert
the chart by an augmented RREF (`reference.ref_linear_change_to_coordinate`),
and solve one system per dependent normal, exactly as `exactalg` and
`arrangement` did before the closed forms; they are kept only as the
reference.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Hyperplane,
    Multiarrangement,
    Reducibility,
    essentialize,
    rank,
    reducibility,
)
from arrfree.exactalg import Matrix, rank_and_kernel, scaled_chart_image, vec
from arrfree.fixtures import load
from reference import ref_scaled_chart_inverse
from test_codim2_flats import A4, B4, D4, ENTRIES, FIXTURES, _reflection

# ---------------------------------------------------------------------------
# the greedy references


def ref_essentialize(a):
    r = rank(a)
    drop = a.dim - r
    if drop == 0:
        return a, 0
    _, kernel = rank_and_kernel(a.normal_matrix())
    cols = []
    for i in range(a.dim):
        if len(cols) == r:
            break
        e = tuple(Fraction(j == i) for j in range(a.dim))
        if Matrix(cols + [e] + kernel).rank() > len(cols) + len(kernel):
            cols.append(e)
    u = Matrix([[col[i] for col in cols] + [v[i] for v in kernel] for i in range(a.dim)])
    planes = []
    for h in a.hyperplanes:
        image = tuple(
            sum((h.normal[i] * u.entries[i][j] for i in range(a.dim)), Fraction(0))
            for j in range(a.dim)
        )
        assert all(x == 0 for x in image[r:])
        planes.append(Hyperplane.from_coeffs(image[:r]))
    return Multiarrangement(r, tuple(planes), a.mult, a.labels), drop


def _reduce_against(rows, pivots, v):
    w = list(v)
    for row, p in zip(rows, pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return w


def ref_reducibility(a):
    n = a.size
    if n == 0:
        return Reducibility((), a.dim)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    basis_idx = []
    rows, pivots = (), ()
    for i, h in enumerate(a.hyperplanes):
        if any(x != 0 for x in _reduce_against(rows, pivots, h.normal)):
            basis_idx.append(i)
            red, piv = Matrix([a.hyperplanes[b].normal for b in basis_idx]).rref()
            rows, pivots = red.entries[: len(piv)], piv
            continue
        bmat = Matrix([a.hyperplanes[b].normal for b in basis_idx]).transpose()
        aug = Matrix([list(r) + [t] for r, t in zip(bmat.entries, h.normal)])
        red, piv = aug.rref()
        coeffs = [Fraction(0)] * len(basis_idx)
        for r, p in enumerate(piv):
            coeffs[p] = red.entries[r][len(basis_idx)]
        for b, c in zip(basis_idx, coeffs):
            if c != 0:
                parent[find(i)] = find(b)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0]))
    return Reducibility(blocks, a.dim - rank(a))


def assert_chart_matches_reference(form):
    """The closed-form image of each unit vector is its row of f_q times the
    greedy chart's inverse, and the form itself is f_q*y_1."""
    f = vec(form)
    n = len(f)
    units = [tuple(Fraction(i == j) for j in range(n)) for i in range(n)]
    assert [scaled_chart_image(f, e) for e in units] == ref_scaled_chart_inverse(f)
    fq = next(x for x in reversed(f) if x != 0)
    assert scaled_chart_image(f, f) == (fq,) + (0,) * (n - 1)


def assert_matches_reference(a):
    assert reducibility(a) == ref_reducibility(a)
    assert essentialize(a) == ref_essentialize(a)
    for h in a.hyperplanes:
        assert_chart_matches_reference(h.normal)


# ---------------------------------------------------------------------------
# coordinate charts of single forms

FORMS = st.lists(ENTRIES, min_size=1, max_size=7).filter(lambda f: any(x != 0 for x in f))


@settings(max_examples=200, deadline=None)
@given(FORMS)
def test_chart_matches_greedy_reference(form):
    assert_chart_matches_reference(form)


@pytest.mark.parametrize(
    "form",
    [
        [7],
        [Fraction(-2, 3)],
        [5, 0, 0, 0],
        [0, 0, 0, -3],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 0, 0, 1, 0],
        [-1, 0, 2, 0],
        [0, 3, -1, 0, Fraction(3, 2)],
        [2, -2, Fraction(1, 2), -1],
    ],
)
def test_chart_matches_greedy_reference_on_chosen_forms(form):
    assert_chart_matches_reference(form)


# ---------------------------------------------------------------------------
# generated arrangements


@st.composite
def arrangements(draw):
    """Rank 2-5 multiarrangements with small integer and rational normals.

    Half are non-essential through one extra coordinate, a fixed linear
    combination of the others (a zero column when the combination is zero),
    at a drawn position.
    """
    r = draw(st.integers(2, 5))
    n = draw(st.integers(2, 8))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=r, max_size=r), min_size=n, max_size=n))
    if draw(st.booleans()):
        combo = draw(st.lists(ENTRIES, min_size=r, max_size=r))
        pos = draw(st.integers(0, r))
        rows = [row[:pos] + [sum(c * x for c, x in zip(combo, row))] + row[pos:] for row in rows]
    planes = {}
    for row in rows:
        if any(x != 0 for x in row):
            h = Hyperplane.from_coeffs(row)
            planes.setdefault(h.normal, h)
    assume(len(planes) >= 2)
    mult = draw(st.lists(st.integers(1, 6), min_size=len(planes), max_size=len(planes)))
    return Multiarrangement(len(rows[0]), tuple(planes.values()), tuple(mult))


@settings(max_examples=120, deadline=None)
@given(arrangements())
def test_closed_forms_match_greedy_reference(a):
    assert_matches_reference(a)


# ---------------------------------------------------------------------------
# fixtures and reflection arrangements


def _lift(a):
    """a in one more dimension, the new coordinate x_0 - x_last at position 1,
    so that the normals span a proper subspace without a zero column."""
    planes = tuple(
        Hyperplane.from_coeffs(h.normal[:1] + (h.normal[0] - h.normal[-1],) + h.normal[1:])
        for h in a.hyperplanes
    )
    return Multiarrangement(a.dim + 1, planes, a.mult, a.labels)


@pytest.mark.parametrize("name", FIXTURES)
def test_closed_forms_match_reference_on_fixtures(name):
    a = load(f"{name}.json")
    assert_matches_reference(a)
    assert_matches_reference(_lift(a))


@pytest.mark.parametrize("normals", [B4, D4, A4], ids=["B4", "D4", "A4"])
def test_closed_forms_match_reference_on_reflection_arrangements(normals):
    a = _reflection(normals)
    assert_matches_reference(a)
    assert_matches_reference(_lift(a))


def test_reducibility_of_empty_arrangement_matches_reference():
    a = Multiarrangement(3, (), ())
    assert reducibility(a) == ref_reducibility(a) == Reducibility((), 3)
