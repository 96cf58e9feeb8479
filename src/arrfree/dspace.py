"""Graded pieces of logarithmic derivation modules, by exact linear algebra.

A derivation theta = sum_i p_i d/dx_i of polynomial degree d belongs to the
module of a list of (linear form, multiplicity) pairs when theta(form) is
divisible by form^mult for every pair.  Divisibility is linearized per form
by a deterministic coordinate change sending the form to the first
coordinate and zeroing every monomial whose first-variable exponent is
below the multiplicity.

The system is built and eliminated in Python ints.  Each form is first
scaled to a primitive integer form F (the same hyperplane, so the same
module).  With q the last index where F is nonzero, the chart is the
F_q-scaled inverse of `linear_change_to_coordinate`, x_j -> F_q*y_{j'} for
j != q and x_q -> y_1 - sum_{j != q} F_j*y_{j'} (`scaled_chart_inverse`),
which is integral.  It multiplies every degree-d image, and so every row of
that form, by the nonzero constant F_q^d, which leaves the kernel unchanged.
"""

from __future__ import annotations

from typing import Sequence

from .exactalg import (
    Polynomial,
    integer_rank_and_kernel,
    monomials,
    primitive_row,
    scaled_chart_inverse,
    substitute_monomials,
    vec,
)


def derivation_basis(
    forms: Sequence[Sequence], mults: Sequence[int], degree: int
) -> list[tuple[Polynomial, ...]]:
    """Echelon-normalized basis of the degree-d piece of the module.

    Returns coefficient tuples (theta(x_1), ..., theta(x_n)); deterministic
    for fixed input order.
    """
    fs = [vec(f) for f in forms]
    if not fs:
        raise ValueError("need at least one form")
    nvars = len(fs[0])
    if any(len(f) != nvars for f in fs) or len(mults) != len(fs):
        raise ValueError("shape mismatch")
    if degree < 0:
        return []

    monos = monomials(nvars, degree)
    nm = len(monos)
    ncols = nvars * nm
    rows: list[list[int]] = []

    for form, mult in zip(fs, mults):
        form = primitive_row(form)
        if mult > degree:
            # theta(form) must vanish identically at this degree
            for k in range(nm):
                row = [0] * ncols
                for i in range(nvars):
                    row[i * nm + k] = form[i]
                rows.append(row)
            continue
        table = substitute_monomials(scaled_chart_inverse(form), monos)
        # coefficient of each constrained chart monomial, as a functional of
        # the unknown coefficients of theta(form)
        coeff_rows = {cm: [0] * nm for cm in monos if cm[0] < mult}
        for k, mono in enumerate(monos):
            for cm, c in table[mono].items():
                if cm[0] < mult:
                    coeff_rows[cm][k] = c
        for base in coeff_rows.values():
            row = []
            for ai in form:
                row.extend(ai * b for b in base)
            rows.append(row)

    _, kernel = integer_rank_and_kernel(rows, ncols)
    basis = []
    for v in kernel:
        coeffs = tuple(
            Polynomial(nvars, {monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k] != 0})
            for i in range(nvars)
        )
        basis.append(coeffs)
    return basis
