"""Saito's criterion in integer term dicts (`oracle.saito_check`,
`oracle.is_log_derivation`) against the Fraction-polynomial reference
(`reference.ref_saito_check`, `reference.ref_is_log_derivation`).
Rational multiples and perturbations of a derivation are made in Fraction
polynomials and read back (`reference.polys_from_terms`,
`reference.derivation_from_polys`)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import Hyperplane, Multiarrangement, rank
from arrfree.exactalg import Polynomial
from arrfree.oracle import Derivation, SaitoResult, derivation_space_dim, is_log_derivation, saito_check

from reference import derivation_from_polys, polys_from_terms, ref_is_log_derivation, ref_saito_check

F = Fraction


def _outcome(check, a, thetas):
    """The SaitoResult of a check, or the message of its ValueError."""
    try:
        return check(a, thetas)
    except ValueError as e:
        return f"ValueError: {e}"


def _agree(a, thetas):
    """Both checks give the same result or refuse with the same message;
    returns the result."""
    for t in thetas:
        assert is_log_derivation(a, t) == ref_is_log_derivation(a, t)
    out = _outcome(saito_check, a, thetas)
    assert out == _outcome(ref_saito_check, a, thetas)
    return out


def _times(theta: Derivation, factor) -> Derivation:
    """theta times a rational number or a Polynomial."""
    return derivation_from_polys(tuple(p * factor for p in polys_from_terms(theta.coeffs, theta.den)))


def _times_variable(theta: Derivation, k: int) -> Derivation:
    return _times(theta, Polynomial.variable(theta.nvars, k))


@st.composite
def arrangements(draw):
    """Rank-2..4 multiarrangements with entries in {-1, 0, 1} and m <= 2,
    and their copy in which the hyperplane of largest multiplicity is built
    directly from a non-primitive multiple of its normal."""
    dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-1, 1)] * dim).filter(any)
    raw = draw(st.lists(vec, min_size=dim, max_size=dim + 1))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(v) for v in raw))
    mult = tuple(draw(st.integers(1, 2)) for _ in planes)
    a = Multiarrangement(dim, planes, mult)
    assume(rank(a) == dim)
    i = max(range(len(planes)), key=lambda k: mult[k])
    factor = draw(st.sampled_from((-3, -1, 2, 6)))
    scaled = Hyperplane(tuple(factor * c for c in planes[i].coeffs))
    b = Multiarrangement(dim, planes[:i] + (scaled,) + planes[i + 1 :], mult)
    return a, b


@settings(max_examples=30, deadline=None)
@given(arrangements(), st.data())
def test_integer_saito_matches_fraction_reference(ab, data):
    a, b = ab
    top = 2 if a.dim == 4 else 3
    pools = {d: derivation_space_dim(a, d)[1] for d in range(top + 1)}
    degrees = [d for d, basis in pools.items() if basis]
    assume(degrees)
    thetas = []
    for _ in range(a.dim):
        basis = pools[data.draw(st.sampled_from(degrees))]
        coeffs = [data.draw(st.integers(-2, 2)) for _ in basis]
        coeffs[0] = coeffs[0] or 1
        combo = Derivation(({},) * a.dim)
        for c, t in zip(coeffs, basis):
            combo = combo.add(t.scale(c))
        assume(not combo.is_zero())
        thetas.append(_times(combo, F(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5)))))

    # members: the non-primitive copy of a hyperplane cuts out the same module
    res = _agree(a, thetas)
    assert isinstance(res, SaitoResult)
    assert _agree(b, thetas) == res

    # Dependent: theta_2 a multiple of theta_1
    dependent = [thetas[0], _times(thetas[0], F(-2, 3))] + thetas[2:]
    assert _agree(a, dependent) == SaitoResult("Dependent")

    if res.kind != "Dependent":
        # D(A,m) is a module: x_k * theta_1 is a member, and det gains x_k
        k = data.draw(st.integers(0, a.dim - 1))
        multiple = [_times_variable(thetas[0], k)] + thetas[1:]
        extra = res.factor_degree or 0
        assert _agree(a, multiple) == SaitoResult("DetIsMultiple", factor_degree=extra + 1)
        assert _agree(b, multiple) == SaitoResult("DetIsMultiple", factor_degree=extra + 1)

    # a non-member, or a member again: one coefficient perturbed by a monomial
    j = data.draw(st.integers(0, a.dim - 1))
    i = data.draw(st.integers(0, a.dim - 1))
    t = thetas[j]
    mono = tuple(t.pdeg if k == (i + 1) % a.dim else 0 for k in range(a.dim))
    bump = Polynomial(a.dim, {mono: F(1, 7)})
    perturbed = derivation_from_polys(
        tuple(p + bump if k == i else p for k, p in enumerate(polys_from_terms(t.coeffs, t.den)))
    )
    out = _agree(a, thetas[:j] + [perturbed] + thetas[j + 1 :])
    if not is_log_derivation(a, perturbed):
        assert out == "ValueError: derivation outside D(A,m)"
    assert _agree(b, thetas[:j] + [perturbed] + thetas[j + 1 :]) == out


def test_non_primitive_normal_keeps_members():
    # (x)^2 (2y)^2: with 2y taken on trust, y^2 d_y would fail the
    # division of 2y^2 by 4y^2 in Z[x]; the primitive normal y passes it
    planes = (Hyperplane((1, 0)), Hyperplane((0, 2)))
    a = Multiarrangement(2, planes, (2, 2))
    thetas = [Derivation(({(2, 0): 1}, {})), Derivation(({}, {(0, 2): 1}))]
    assert all(is_log_derivation(a, t) for t in thetas)
    assert saito_check(a, thetas) == ref_saito_check(a, thetas) == SaitoResult("Basis", exponents=(2, 2))


# ---------------------------------------------------------------------------
# rank 4: the Bareiss branch of the determinant


def _a4():
    """A4 = {x_i} and {x_i - x_j} in K^4, with theta_k = sum_i x_i^k d_i."""
    forms = [tuple(int(j == i) for j in range(4)) for i in range(4)]
    forms += [tuple(int(k == i) - int(k == j) for k in range(4)) for i in range(4) for j in range(i + 1, 4)]
    a = Multiarrangement(4, tuple(Hyperplane.from_coeffs(f) for f in forms), (1,) * len(forms))
    thetas = [Derivation(tuple({tuple(k * int(j == i) for j in range(4)): 1} for i in range(4))) for k in range(1, 5)]
    return a, thetas


def test_a4_power_sums_are_a_basis():
    a, thetas = _a4()
    res = saito_check(a, thetas)
    assert res == SaitoResult("Basis", exponents=(1, 2, 3, 4))
    assert ref_saito_check(a, thetas) == res


def test_a4_dependent():
    a, thetas = _a4()
    swapped = thetas[:3] + [_times_variable(thetas[2], 0)]
    assert saito_check(a, swapped) == ref_saito_check(a, swapped) == SaitoResult("Dependent")


def test_a4_det_is_multiple():
    a, thetas = _a4()
    raised = [_times_variable(thetas[0], 0)] + thetas[1:]
    res = saito_check(a, raised)
    assert res == SaitoResult("DetIsMultiple", factor_degree=1)
    assert ref_saito_check(a, raised) == res


def test_a4_rejects_non_member():
    a, thetas = _a4()
    shifted = Derivation(thetas[0].coeffs[1:] + thetas[0].coeffs[:1])  # x_2 d_1 + ...: not tangent to x_1
    assert not is_log_derivation(a, shifted)
    with pytest.raises(ValueError, match="outside D"):
        saito_check(a, [shifted] + thetas[1:])
