"""Saito's criterion in integer term dicts (`oracle.saito_check`,
`oracle.is_log_derivation`) against the Fraction-polynomial reference
(`reference.ref_saito_check`, `reference.ref_is_log_derivation`).
Rational multiples and perturbations of a derivation are made in Fraction
polynomials and read back (`reference.polys_from_terms`,
`reference.derivation_from_polys`).  Degree sums equal to |m| are decided
at one point off every hyperplane (`oracle._point_off`); `saito_check`
refuses the others, and the reference, which expands the determinant,
finds no basis there."""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arrfree.oracle as oracle_mod
from arrfree.arrangement import Hyperplane, Multiarrangement, ParseError, rank
from arrfree.exactalg import Polynomial
from arrfree.fixtures import boolean3, braid3
from arrfree.oracle import Derivation, SaitoResult, _point_off, derivation_space_dim, is_log_derivation, saito_check

from reference import (
    DetIsMultiple,
    derivation_from_polys,
    polys_from_terms,
    ref_combine,
    ref_is_log_derivation,
    ref_saito_check,
)

F = Fraction


def _result(check, a, thetas):
    """The result of a check, or the type and message of its error."""
    try:
        return check(a, thetas)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def _agree(a, thetas):
    """Both membership tests agree on each theta.  Where the degrees sum to
    |m|, both checks give the same result or error; elsewhere
    `saito_check` refuses the degree sum, and the reference finds no basis.
    Returns the reference's outcome."""
    for t in thetas:
        assert is_log_derivation(a, t) == ref_is_log_derivation(a, t)
    got = _result(saito_check, a, thetas)
    ref = _result(ref_saito_check, a, thetas)
    if sum(t.pdeg for t in thetas) == a.total_mult:
        assert got == ref
    else:
        assert got == ("ValueError", f"need degrees summing to |m| = {a.total_mult}")
        assert getattr(ref, "kind", None) != "Basis"
    return ref


def _times(theta: Derivation, factor) -> Derivation:
    """theta times a rational number or a Polynomial."""
    return derivation_from_polys(tuple(p * factor for p in polys_from_terms(theta.coeffs, theta.den)))


def _times_variable(theta: Derivation, k: int) -> Derivation:
    return _times(theta, Polynomial.variable(theta.nvars, k))


@st.composite
def arrangements(draw):
    """Rank-2..4 multiarrangements with entries in {-1, 0, 1} and m <= 2,
    and a non-primitive multiple of the normal of the hyperplane of largest
    multiplicity, with that hyperplane's index."""
    dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-1, 1)] * dim).filter(any)
    raw = draw(st.lists(vec, min_size=dim, max_size=dim + 1))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(v) for v in raw))
    mult = tuple(draw(st.integers(1, 2)) for _ in planes)
    a = Multiarrangement(dim, planes, mult)
    assume(rank(a) == dim)
    i = max(range(len(planes)), key=lambda k: mult[k])
    factor = draw(st.sampled_from((-3, -1, 2, 6)))
    return a, tuple(factor * c for c in planes[i].coeffs), i


@settings(max_examples=30, deadline=None)
@given(arrangements(), st.data())
def test_integer_saito_matches_fraction_reference(drawn, data):
    a, scaled, i = drawn
    # the constructor refuses a non-primitive normal, which `from_coeffs`
    # takes to the same hyperplane, so every hyperplane reaches Saito's
    # criterion as its primitive normal
    with pytest.raises(ParseError, match="not primitive"):
        Hyperplane(scaled)
    assert Hyperplane.from_coeffs(scaled) == a.hyperplanes[i]
    top = 2 if a.dim == 4 else 3
    pools = {d: derivation_space_dim(a, d)[1] for d in range(top + 1)}
    degrees = [d for d, basis in pools.items() if basis]
    assume(degrees)
    thetas = []
    for _ in range(a.dim):
        basis = pools[data.draw(st.sampled_from(degrees))]
        coeffs = [data.draw(st.integers(-2, 2)) for _ in basis]
        coeffs[0] = coeffs[0] or 1
        combo = ref_combine(coeffs, basis)
        assume(not combo.is_zero())
        thetas.append(_times(combo, F(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5)))))

    res = _agree(a, thetas)
    assert isinstance(res, (SaitoResult, DetIsMultiple))

    # Dependent: theta_2 a multiple of theta_1
    dependent = [thetas[0], _times(thetas[0], F(-2, 3))] + thetas[2:]
    assert _agree(a, dependent) == SaitoResult("Dependent")

    if res.kind != "Dependent":
        # D(A,m) is a module: x_k * theta_1 is a member, and det gains x_k.
        # Its degrees sum past |m|, so `saito_check` refuses it, and the
        # reference finds a multiple of Q(A,m), no basis
        k = data.draw(st.integers(0, a.dim - 1))
        multiple = [_times_variable(thetas[0], k)] + thetas[1:]
        assert sum(t.pdeg for t in multiple) > a.total_mult
        extra = getattr(res, "factor_degree", 0)
        assert _agree(a, multiple) == DetIsMultiple(factor_degree=extra + 1)

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
        assert out == ("ValueError", "derivation outside D(A,m)")


def test_non_primitive_normal_keeps_members():
    # (x)^2 (2y)^2: with 2y taken on trust, y^2 d_y would fail the
    # division of 2y^2 by 4y^2 in Z[x].  The constructor refuses 2y, and
    # `from_coeffs` takes it to the primitive normal y, which passes it
    with pytest.raises(ParseError, match="not primitive"):
        Hyperplane((0, 2))
    planes = (Hyperplane((1, 0)), Hyperplane.from_coeffs((0, 2)))
    assert planes[1] == Hyperplane((0, 1))
    a = Multiarrangement(2, planes, (2, 2))
    thetas = [Derivation(({(2, 0): 1}, {})), Derivation(({}, {(0, 2): 1}))]
    assert all(is_log_derivation(a, t) for t in thetas)
    assert saito_check(a, thetas) == ref_saito_check(a, thetas) == SaitoResult("Basis", exponents=(2, 2))


# ---------------------------------------------------------------------------
# rank 4: A4 and its power sums


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
    # x_1*theta_1 with the other power sums: members whose determinant is
    # x_1*Q(A,m), of degree |m| + 1 = 11, so no basis.  The degree sum is
    # refused before anything else; the determinant at the point alone,
    # x_1*Q(p) != 0, would call them a basis
    a, thetas = _a4()
    raised = [_times_variable(thetas[0], 0)] + thetas[1:]
    assert all(is_log_derivation(a, t) for t in raised)
    with pytest.raises(ValueError, match=r"^need degrees summing to \|m\| = 10$"):
        saito_check(a, raised)
    assert ref_saito_check(a, raised) == DetIsMultiple(factor_degree=1)


def test_a4_rejects_non_member():
    a, thetas = _a4()
    shifted = Derivation(thetas[0].coeffs[1:] + thetas[0].coeffs[:1])  # x_2 d_1 + ...: not tangent to x_1
    assert not is_log_derivation(a, shifted)
    with pytest.raises(ValueError, match="outside D"):
        saito_check(a, [shifted] + thetas[1:])


# ---------------------------------------------------------------------------
# the point test: degrees summing to |m|


def _member(data, basis) -> Derivation:
    """A nonzero rational multiple of a nonzero combination of a slice
    basis, which is linearly independent."""
    coeffs = [data.draw(st.integers(-2, 2)) for _ in basis]
    coeffs[0] = coeffs[0] or 1
    factor = F(data.draw(st.sampled_from((-3, -1, 1, 4))), data.draw(st.integers(1, 5)))
    return _times(ref_combine(coeffs, basis), factor)


@settings(max_examples=150, deadline=None)
@given(arrangements(), st.booleans(), st.data())
def test_point_test_matches_fraction_reference(drawn, equal, data):
    """Members at degrees summing to |m| (`equal`) or not, then one theta
    repeated and one made proportional to another, then one coefficient
    bumped.  Where the degrees sum to |m|, the kind, exponents and refusal
    agree with the Fraction reference; elsewhere `saito_check` refuses the
    degree sum and the reference finds no basis (`_agree`)."""
    a = drawn[0]
    top = 2 if a.dim == 4 else 3
    pools = {d: basis for d in range(top + 1) if (basis := derivation_space_dim(a, d)[1])}
    fits = [t for t in product(pools, repeat=a.dim) if (sum(t) == a.total_mult) == equal]
    assume(fits)
    degrees = data.draw(st.sampled_from(fits))
    thetas = [_member(data, pools[d]) for d in degrees]

    res = _agree(a, thetas)
    if equal:
        assert res in (SaitoResult("Dependent"), SaitoResult("Basis", exponents=tuple(sorted(degrees))))

    i, j = data.draw(st.permutations(range(a.dim)))[:2]
    factor = F(data.draw(st.sampled_from((-3, -1, 2))), data.draw(st.integers(1, 3)))
    for copy in (thetas[i], _times(thetas[i], factor)):
        variant = thetas[:j] + [copy] + thetas[j + 1 :]
        assert _agree(a, variant) == SaitoResult("Dependent")

    # theta_j's coefficient k plus a monomial of its degree: mostly a
    # non-member, refused alike
    k = data.draw(st.integers(0, a.dim - 1))
    t = thetas[j]
    mono = tuple(t.pdeg if v == (k + 1) % a.dim else 0 for v in range(a.dim))
    bump = Polynomial(a.dim, {mono: F(1, 7)})
    bumped = derivation_from_polys(
        tuple(p + bump if v == k else p for v, p in enumerate(polys_from_terms(t.coeffs, t.den)))
    )
    _agree(a, thetas[:j] + [bumped] + thetas[j + 1 :])


def test_point_lies_off_every_hyperplane():
    # (1, 1, 1) lies on x - y, so the braid arrangement and A4 take t = 2
    a4, _ = _a4()
    for a, point in ((boolean3((2, 3, 4)), [1, 1, 1]), (braid3(), [1, 2, 4]), (a4, [1, 2, 4, 8])):
        got, q_at = _point_off(a)
        assert got == point
        values = [sum(c * x for c, x in zip(h.coeffs, point)) for h in a.hyperplanes]
        assert all(values)
        assert q_at == prod(v**m for v, m in zip(values, a.mult))


def test_point_guard_refutes_a_non_member():
    # d_x, d_y, z^3 d_z are not tangent to x - y, y - z, x - z, whose Q is
    # -6 at (1, 2, 4), while det M = z^3 is 64 there; with the membership
    # test made to accept them, the point's determinant refutes it
    planes = tuple(Hyperplane.from_coeffs(v) for v in ((1, -1, 0), (1, 0, -1), (0, 1, -1)))
    a = Multiarrangement(3, planes, (1, 1, 1))
    one = {(0, 0, 0): 1}
    thetas = [Derivation((one, {}, {})), Derivation(({}, one, {})), Derivation(({}, {}, {(0, 0, 3): 1}))]
    assert sum(t.pdeg for t in thetas) == a.total_mult
    assert not any(is_log_derivation(a, t) for t in thetas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "is_log_derivation", lambda *args: True)
        with pytest.raises(RuntimeError, match="membership bug"):
            saito_check(a, thetas)
