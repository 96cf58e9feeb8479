"""Differential tests of the rank path: graded dimensions by the forward
elimination pass alone, from rows whose chart images are expanded only
below the multiplicity.

The references are the row builder that expanded every chart image in full
(`reference.ref_substitute_monomials`), through F_q times the inverse of
the greedy chart of `reference`, and then kept the coefficients of y_1-degree below
the multiplicity, exactly as `dspace` had it before, and
len(`derivation_basis`), the kernel the dimension used to be counted from.
The full system comes from `dspace._systems`, the builder of the reduced
systems too, and is also compared with the builder of its own that it
replaced (`reference.ref_full_system`).  Rows must be equal, not merely
equivalent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree.dspace import derivation_basis, derivation_dim
from arrfree.exactalg import (
    Matrix,
    _gauss_jordan,
    integer_rank,
    monomials,
    primitive_row,
    vec,
)
from conftest import full_system
from reference import ref_full_system, ref_scaled_chart_inverse, ref_substitute_monomials

F = Fraction

# ---------------------------------------------------------------------------
# the full-expansion reference


def ref_derivation_rows(forms, mults, degree):
    fs = [vec(f) for f in forms]
    nvars = len(fs[0])
    monos = monomials(nvars, degree)
    nm = len(monos)
    ncols = nvars * nm
    rows = []
    for form, mult in zip(fs, mults):
        form = primitive_row(form)
        if mult > degree:
            for k in range(nm):
                row = [0] * ncols
                for i in range(nvars):
                    row[i * nm + k] = form[i]
                rows.append(row)
            continue
        table = ref_substitute_monomials(ref_scaled_chart_inverse(form), monos)
        coeff_rows = {cm: [0] * nm for cm in monos if cm[0] < mult}
        for k, mono in enumerate(monos):
            for cm, c in table[mono].terms.items():
                if cm[0] < mult:
                    coeff_rows[cm][k] = c
        for base in coeff_rows.values():
            row = []
            for ai in form:
                row.extend(ai * b for b in base)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# strategies

_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda t: F(*t)),
)


@st.composite
def forms_at(draw, nvars):
    """A nonzero form whose last nonzero entry (the chart index q) is at a
    drawn position; the entries before it may be zero or non-integral."""
    q = draw(st.integers(0, nvars - 1))
    head = draw(st.lists(_entries, min_size=q, max_size=q))
    last = draw(_entries.filter(bool))
    return tuple(head) + (last,) + (F(0),) * (nvars - q - 1)


@st.composite
def systems(draw, max_degree=6, max_forms=3):
    nvars = draw(st.integers(2, 4))
    degree = draw(st.integers(0, max_degree))
    forms = draw(st.lists(forms_at(nvars), min_size=1, max_size=max_forms))
    mults = draw(st.lists(st.integers(0, degree + 2), min_size=len(forms), max_size=len(forms)))
    return forms, mults, degree


# ---------------------------------------------------------------------------
# rows and dimensions


@settings(max_examples=150, deadline=None)
@given(systems())
def test_truncated_rows_equal_full_expansion(system):
    forms, mults, degree = system
    rows, monos = full_system(forms, mults, degree)
    assert monos == monomials(len(forms[0]), degree)
    assert rows == ref_derivation_rows(forms, mults, degree)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_one_builder_gives_the_full_system_of_its_own_builder(system):
    # the full system from `dspace._systems`, every coordinate at
    # multiplicity 0, against the builder it had before the reduced
    # systems shared theirs
    forms, mults, degree = system
    assert full_system(forms, mults, degree) == ref_full_system(forms, mults, degree)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_dim_equals_kernel_size(system):
    forms, mults, degree = system
    assert derivation_dim(forms, mults, degree) == len(derivation_basis(forms, mults, degree))


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_every_chart_index_at_degree_six(q):
    # x_q with x_0..x_{q-1} mixed in, at the largest degree drawn above
    form = [F(1, 2), F(0), F(-3)][:q] + [F(2)] + [F(0)] * (3 - q)
    forms = [form, (1, 1, 1, 1)]
    for mult in (1, 3, 6, 8):
        rows, _ = full_system(forms, [mult, 2], 6)
        assert rows == ref_derivation_rows(forms, [mult, 2], 6)
    assert derivation_dim(forms, [3, 2], 6) == len(derivation_basis(forms, [3, 2], 6))


def test_negative_degree_has_no_rows():
    assert full_system([(1, 0), (0, 1)], [1, 1], -1) == ([], [])
    assert derivation_dim([(1, 0), (0, 1)], [1, 1], -1) == 0
    assert derivation_basis([(1, 0), (0, 1)], [1, 1], -1) == []


@pytest.mark.parametrize("forms, mults", [([], []), ([(1, 0)], [1, 2]), ([(1, 0), (1, 0, 1)], [1, 1])])
def test_dim_validates_like_basis(forms, mults):
    for fn in (derivation_dim, derivation_basis):
        with pytest.raises(ValueError):
            fn(forms, mults, 2)


# ---------------------------------------------------------------------------
# the forward pass


def matrices():
    return st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=7)
    )


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_forward_rank_equals_gauss_jordan_pivots(entries):
    m = Matrix(entries)
    rows = [primitive_row(r) for r in m.entries]
    pivots = _gauss_jordan([list(r) for r in rows], m.cols)
    assert integer_rank(rows, m.cols) == len(pivots) == m.rank()


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_forward_rank_equals_sympy_rank(sympy, entries):
    m = Matrix(entries)
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]).rank()
    assert integer_rank([primitive_row(r) for r in m.entries], m.cols) == want


@settings(max_examples=15, deadline=None)
@given(systems(max_degree=3, max_forms=2))
def test_derivation_rank_equals_sympy_rank(sympy, system):
    forms, mults, degree = system
    rows, monos = full_system(forms, mults, degree)
    ncols = len(forms[0]) * len(monos)
    want = sympy.Matrix(rows).rank() if rows else 0
    assert ncols - derivation_dim(forms, mults, degree) == want
