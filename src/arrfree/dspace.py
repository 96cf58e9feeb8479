"""Graded pieces of logarithmic derivation modules, by exact linear algebra.

A derivation theta = sum_i p_i d/dx_i of polynomial degree d belongs to the
module of a list of (linear form, multiplicity) pairs when theta(form) is
divisible by form^mult for every pair.  Divisibility is linearized per form
by a deterministic coordinate change sending the form to the first
coordinate and zeroing every monomial whose first-variable exponent is
below the multiplicity.

The system is built and eliminated in Python ints.  Each form is first
scaled to a primitive integer form F (the same hyperplane, so the same
module).  With q the last index where F is nonzero, the chart is the one
of `exactalg.scaled_chart_image`: y_1 = F(x) and y_{j'} = x_j for j != q.
The substitution is F_q times its inverse, x_j -> F_q*y_{j'} for j != q
and x_q -> y_1 + N with N = -sum_{j != q} F_j*y_{j'}, which is integral.
It multiplies every degree-d image, and so every row of that form, by the
nonzero constant F_q^d, which leaves the kernel unchanged.

Only the chart monomials of y_1-degree below the multiplicity are
constrained, and N has no y_1, so each image is expanded only that far
(`_chart_rows`): x^a -> F_q^(d-a_q) * y'^a' * sum_{k<m} C(a_q, k) * y_1^k *
N^(a_q-k), where a' is a without a_q and y' the chart variables after y_1.

One row builder (`_derivation_rows`) serves two front doors:
`derivation_basis` eliminates the rows to a kernel and returns it, and
`derivation_dim` needs only their rank, which the forward pass of the
elimination gives (`exactalg.integer_rank`).
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exactalg import (
    Monomial,
    Polynomial,
    _chart_index,
    integer_rank,
    integer_rank_and_kernel,
    monomials,
    primitive_row,
    substitute_monomials,
)


def _chart_rows(form: list[int], mult: int, monos: list[Monomial], degree: int) -> list[list[int]]:
    """Coefficient of each constrained chart monomial (y_1-degree below
    mult), in `monos` order, as a row over the unknown coefficients of
    theta(form) on `monos`, the degree-d monomials."""
    q = _chart_index(form)
    fq = form[q]
    # npow[(e,)] is N^e over the chart variables after y_1
    n_form = [-f for j, f in enumerate(form) if j != q]
    npow = substitute_monomials([n_form], [(e,) for e in range(degree + 1)])
    coeff_rows = {cm: [0] * len(monos) for cm in monos if cm[0] < mult}
    for col, mono in enumerate(monos):
        aq = mono[q]
        rest = mono[:q] + mono[q + 1 :]
        scale = fq ** (degree - aq)
        for k in range(min(aq, mult - 1) + 1):
            c = scale * comb(aq, k)
            for nmono, v in npow[(aq - k,)].items():
                coeff_rows[(k,) + tuple(a + b for a, b in zip(rest, nmono))][col] = c * v
    return list(coeff_rows.values())


def _derivation_rows(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> tuple[list[list[int]], list[Monomial]]:
    """The integer linear system of the degree-d piece and its monomials:
    unknown i*len(monos) + k is the coefficient of monos[k] in
    theta(x_{i+1}).  A negative degree has no monomials and no rows.  Form
    entries are ints or Fractions, and each form is read as its primitive
    integer row."""
    fs = [primitive_row(f) for f in forms]
    if not fs:
        raise ValueError("need at least one form")
    nvars = len(fs[0])
    if any(len(f) != nvars for f in fs) or len(mults) != len(fs):
        raise ValueError("shape mismatch")
    monos = monomials(nvars, degree)
    nm = len(monos)
    ncols = nvars * nm
    rows: list[list[int]] = []
    for form, mult in zip(fs, mults):
        if mult > degree:
            # theta(form) must vanish identically at this degree
            for k in range(nm):
                row = [0] * ncols
                for i in range(nvars):
                    row[i * nm + k] = form[i]
                rows.append(row)
            continue
        rows.extend([ai * b for ai in form for b in base] for base in _chart_rows(form, mult, monos, degree))
    return rows, monos


def derivation_basis(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> list[tuple[Polynomial, ...]]:
    """Echelon-normalized basis of the degree-d piece of the module.

    Returns coefficient tuples (theta(x_1), ..., theta(x_n)); deterministic
    for fixed input order.
    """
    rows, monos = _derivation_rows(forms, mults, degree)
    nvars, nm = len(forms[0]), len(monos)
    _, kernel = integer_rank_and_kernel(rows, nvars * nm)
    basis = []
    for v in kernel:
        coeffs = tuple(
            Polynomial(nvars, {monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k] != 0})
            for i in range(nvars)
        )
        basis.append(coeffs)
    return basis


def derivation_dim(forms: Sequence[Sequence], mults: Sequence[int], degree: int) -> int:
    """Dimension of the degree-d piece of the module: the number of unknowns
    minus the rank of `derivation_basis`'s system, without its kernel."""
    rows, monos = _derivation_rows(forms, mults, degree)
    ncols = len(forms[0]) * len(monos)
    return ncols - integer_rank(rows, ncols)
