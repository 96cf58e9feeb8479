"""Graded pieces of logarithmic derivation modules, by exact linear algebra.

A derivation theta = sum_i p_i d/dx_i of polynomial degree d belongs to the
module of a list of (linear form, multiplicity) pairs when theta(form) is
divisible by form^mult for every pair.  Divisibility is linearized per form
by a deterministic coordinate change sending the form to the first
coordinate and zeroing every monomial whose first-variable exponent is
below the multiplicity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactalg import (
    Matrix,
    Polynomial,
    Vec,
    linear_change_to_coordinate,
    monomials,
    rank_and_kernel,
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
    midx = {m: k for k, m in enumerate(monos)}
    nm = len(monos)
    ncols = nvars * nm
    rows: list[list[Fraction]] = []

    for form, mult in zip(fs, mults):
        if mult > degree:
            # theta(form) must vanish identically at this degree
            for k in range(nm):
                row = [Fraction(0)] * ncols
                for i in range(nvars):
                    if form[i] != 0:
                        row[i * nm + k] = form[i]
                rows.append(row)
            continue
        _, tinv = linear_change_to_coordinate(form)
        table = substitute_monomials(tinv.entries, monos)
        constrained = [m for m in monos if m[0] < mult]
        # coefficient of each constrained chart monomial, as a functional of
        # the unknown coefficients of theta(form)
        coeff_rows = {cm: [Fraction(0)] * nm for cm in constrained}
        for mono, k in midx.items():
            image = table[mono]
            for cm in constrained:
                c = image.coeff(cm)
                if c != 0:
                    coeff_rows[cm][k] = c
        for cm in constrained:
            base = coeff_rows[cm]
            row = [Fraction(0)] * ncols
            for i in range(nvars):
                if form[i] == 0:
                    continue
                ai = form[i]
                off = i * nm
                for k in range(nm):
                    if base[k] != 0:
                        row[off + k] = ai * base[k]
            rows.append(row)

    if not rows:
        kernel: list[Vec] = [
            tuple(Fraction(j == k) for j in range(ncols)) for k in range(ncols)
        ]
    else:
        _, kernel = rank_and_kernel(Matrix(rows))

    basis = []
    for v in kernel:
        coeffs = tuple(
            Polynomial(nvars, {monos[k]: v[i * nm + k] for k in range(nm) if v[i * nm + k] != 0})
            for i in range(nvars)
        )
        basis.append(coeffs)
    return basis
