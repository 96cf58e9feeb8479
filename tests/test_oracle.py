import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from arrfree.arrangement import (
    euler_ziegler_multiplicity,
    is_locally_heavy,
    parse,
    reducibility,
)
from arrfree.exactalg import Polynomial
from arrfree.fixtures import boolean3, braid3, example52, example_a3
import arrfree.dspace as dspace_mod
import arrfree.oracle as oracle_mod
from arrfree.oracle import (
    MAX_EXPONENT_TUPLES,
    Derivation,
    derivation_space_dim,
    exponent_candidates,
    exponent_tuple_count,
    exponent_tuple_overflow,
    extract_basis,
    hilbert_freeness_test,
    is_log_derivation,
    saito_check,
)
from arrfree.rank2 import euler_multiplicity_at_flat, project_to_rank2

from conftest import cyclic_garbage, force_locally_heavy, random_multiarrangement
from reference import (
    apply_form,
    derivation_from_polys,
    polys_from_terms,
    good_summand_check,
    ref_defining_polynomial,
    ref_poly_matrix_det,
    restrict_derivation,
)

F = Fraction
Z3 = Polynomial.zero(3)


def mono3(e, c=1):
    return Polynomial(3, {tuple(e): F(c)})


def euler(n):
    return derivation_from_polys(tuple(Polynomial.variable(n, i) for i in range(n)))


# ---------------------------------------------------------------------------
# graded dimensions


def test_dims_boolean_k2_degree1():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1]})
    dim, basis = derivation_space_dim(a, 1)
    assert dim == 2
    for t in basis:
        assert is_log_derivation(a, t)


def test_dims_x2y3_degree2():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [2, 3]})
    dim, basis = derivation_space_dim(a, 2)
    assert dim == 1
    (t,) = basis
    assert polys_from_terms(t.coeffs, t.den) == (Polynomial(2, {(2, 0): F(1)}), Polynomial.zero(2))


def test_dims_low_degrees_vanish_for_irreducible_nonsimple():
    e = example52()
    assert derivation_space_dim(e, 0)[0] == 0
    assert derivation_space_dim(e, 1)[0] == 0


def test_dims_braid_degree1_is_euler():
    dim, basis = derivation_space_dim(braid3(), 1)
    assert dim == 1
    (t,) = basis
    polys = polys_from_terms(t.coeffs, t.den)
    scale = next(c for p in polys for c in p.terms.values() if c != 0)
    scaled = derivation_from_polys(tuple(p * (F(1) / scale) for p in polys))
    assert scaled == euler(3)


def test_dims_monotone_under_multiplicity_increase():
    rng = random.Random(71)
    for _ in range(8):
        a = random_multiarrangement(rng, max_planes=4, max_mult=2)
        i = rng.randrange(a.size)
        bigger = a.with_mult(i, a.mult[i] + 1)
        for d in range(0, 4):
            assert derivation_space_dim(bigger, d)[0] <= derivation_space_dim(a, d)[0]


def _cited_derivations(tree):
    """Every entry of a "derivations" list in a JSON tree."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from value if key == "derivations" else _cited_derivations(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _cited_derivations(value)


def test_golden_derivations_round_trip():
    # integer numerators over one denominator print the bytes they were read from
    cited = [
        d
        for path in sorted((Path(__file__).parent / "golden").glob("*.oracle.json"))
        for d in _cited_derivations(json.loads(path.read_text(encoding="utf-8")))
    ]
    assert len(cited) == 3  # braid.oracle.json's Saito basis
    for d in cited:
        assert Derivation.from_dict(d).to_dict() == d


def test_derivation_is_kept_in_lowest_terms():
    # x/2 d/dx + y/3 d/dy: numerators (3x, 2y) over 6, however it is built
    t = Derivation(({(1, 0): 3}, {(0, 1): 2}), 6)
    same = Derivation(({(1, 0): 12}, {(0, 1): 8, (1, 0): 0}), 24)
    assert same == t and hash(same) == hash(t)
    assert (t.coeffs, t.den) == (({(1, 0): 3}, {(0, 1): 2}), 6)
    assert t.scale(2).add(t.scale(-1)) == t
    assert t.scale(0) == Derivation(({}, {})) and t.scale(0).den == 1
    assert t.to_dict() == {"nvars": 2, "coeffs": [[[[1, 0], "1/2"]], [[[0, 1], "1/3"]]]}


# ---------------------------------------------------------------------------
# Saito checks


def test_saito_boolean_diagonal_basis():
    a = boolean3((2, 3, 4))
    thetas = [
        derivation_from_polys((mono3((2, 0, 0)), Z3, Z3)),
        derivation_from_polys((Z3, mono3((0, 3, 0)), Z3)),
        derivation_from_polys((Z3, Z3, mono3((0, 0, 4)))),
    ]
    res = saito_check(a, thetas)
    assert res.kind == "Basis" and res.exponents == (2, 3, 4)


def test_saito_rank2_simple_basis():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1]], "mult": [1, 1, 1]})
    theta_e = euler(2)
    theta = derivation_from_polys((Polynomial(2, {(2, 0): F(1)}), Polynomial(2, {(0, 2): F(1)})))
    res = saito_check(a, [theta_e, theta])
    assert res.kind == "Basis" and res.exponents == (1, 2)


def test_saito_dependent():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1]], "mult": [1, 1, 1]})
    theta_e = euler(2)
    x_theta = derivation_from_polys(
        (
            Polynomial(2, {(2, 0): F(1)}),
            Polynomial(2, {(1, 1): F(1)}),
        )
    )  # x * theta_E
    assert saito_check(a, [theta_e, x_theta]).kind == "Dependent"


def test_saito_det_is_multiple():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1]})
    t1 = derivation_from_polys((Polynomial(2, {(2, 0): F(1)}), Z := Polynomial.zero(2)))
    t2 = derivation_from_polys((Z, Polynomial.variable(2, 1)))
    res = saito_check(a, [t1, t2])
    assert res.kind == "DetIsMultiple" and res.factor_degree == 1


def test_saito_rejects_non_member():
    a = boolean3((2, 3, 4))
    bad = euler(3)  # degree-1 cannot satisfy multiplicity 2
    with pytest.raises(ValueError):
        saito_check(a, [bad, bad, bad])


def test_saito_rejects_wrong_count():
    with pytest.raises(ValueError):
        saito_check(boolean3(), [euler(3)])


def test_saito_basis_degrees_sum_to_total_multiplicity():
    for a in (boolean3((2, 3, 4)), braid3()):
        res = hilbert_freeness_test(a)
        assert res.kind == "FreeProven"
        assert sum(t.pdeg for t in res.basis) == a.total_mult
        assert saito_check(a, list(res.basis)).kind == "Basis"


def test_any_members_det_divisible_by_q():
    rng = random.Random(73)
    a = example_a3(1, 2)
    q = ref_defining_polynomial(a)
    pools = {d: derivation_space_dim(a, d)[1] for d in (3, 4)}
    for _ in range(5):
        thetas = []
        for d in (3, 3, 4):
            basis = pools[d]
            combo = None
            for t in basis:
                c = rng.randint(-2, 2)
                if c == 0:
                    continue
                part = t.scale(c)
                combo = part if combo is None else combo.add(part)
            if combo is None:
                combo = basis[0]
            thetas.append(combo)
        columns = [polys_from_terms(t.coeffs, t.den) for t in thetas]
        grid = [[columns[j][i] for j in range(3)] for i in range(3)]
        det = ref_poly_matrix_det(grid)
        if det.is_zero():
            continue
        _, r = det.divmod_by(q)
        assert r.is_zero()


# ---------------------------------------------------------------------------
# Hilbert freeness test


def test_hilbert_boolean_234():
    res = hilbert_freeness_test(boolean3((2, 3, 4)), degree_cap=9)
    assert res.kind == "FreeProven" and res.exponents == (2, 3, 4)


def test_hilbert_example52_obstruction():
    res = hilbert_freeness_test(example52(), degree_cap=8)
    assert res.kind == "NonFreeProven"
    assert res.survivors == ()


def test_hilbert_braid():
    res = hilbert_freeness_test(braid3())
    assert res.kind == "FreeProven" and res.exponents == (1, 2, 3)


def test_hilbert_requires_essential():
    a = parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0]], "mult": [1, 1]})
    with pytest.raises(ValueError):
        hilbert_freeness_test(a)


@pytest.mark.parametrize("parts", range(1, 6))
def test_exponent_tuple_count_matches_the_list(parts):
    for total in range(0, 31):
        assert exponent_tuple_count(total, parts) == len(exponent_candidates(total, parts))


def test_exponent_tuple_bound_is_exact():
    # p(n, 3) is the integer nearest n^2/12; n = 346 is the last one within the bound
    assert exponent_tuple_count(346, 3) == 9976 <= MAX_EXPONENT_TUPLES
    assert exponent_tuple_overflow(346, 3) is None
    assert exponent_tuple_count(347, 3) == 10034
    assert exponent_tuple_overflow(347, 3) == "more than 10000 exponent tuples of length 3 sum to |m| = 347"


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_exponent_tuple_count_stops_early_on_huge_totals(parts):
    # the table stops once the count passes the limit, whatever |m| is
    got = exponent_tuple_count(10**12, parts)
    assert got == 1 if parts == 1 else got > MAX_EXPONENT_TUPLES


def test_hilbert_refuses_too_many_exponent_tuples_before_any_solve(monkeypatch):
    # x, y, z, x + y + z with every m = 400: p(1600, 3) = 213,334 tuples
    def never(*args, **kwargs):
        raise AssertionError("no graded dimension may be solved")

    monkeypatch.setattr(oracle_mod, "derivation_dims", never)
    a = parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "mult": [400] * 4})
    with pytest.raises(ValueError, match="more than 10000 exponent tuples of length 3 sum to"):
        hilbert_freeness_test(a, degree_cap=2)


@pytest.mark.parametrize("cap", [1, 4, 8])
def test_hilbert_sets_up_the_coordinates_once(monkeypatch, cap):
    # the graded dimensions at degrees 0..cap share one set-up
    coordinates, calls = dspace_mod._coordinates, []

    def counting(*args):
        calls.append(args)
        return coordinates(*args)

    monkeypatch.setattr(dspace_mod, "_coordinates", counting)
    res = hilbert_freeness_test(example52(), degree_cap=cap)
    assert len(res.dims) == cap + 1
    assert len(calls) == 1


def test_exponent_candidates_leave_no_cycles():
    assert exponent_candidates(12, 3)
    assert cyclic_garbage(lambda: exponent_candidates(12, 3)) == []


def test_hilbert_never_contradicts_certify():
    from arrfree.certify import certify

    rng = random.Random(79)
    for _ in range(6):
        a = random_multiarrangement(rng, max_planes=4, max_mult=2)
        from arrfree.arrangement import rank

        if rank(a) != 3 or a.total_mult > 9:
            continue
        v = certify(a)
        res = hilbert_freeness_test(a, seed=1)
        if v.kind == "Free":
            assert res.kind in ("FreeProven", "Undetermined")
            if res.kind == "FreeProven":
                assert res.exponents == v.exponents
        if v.kind == "NonFree":
            assert res.kind in ("NonFreeProven", "Undetermined")


# ---------------------------------------------------------------------------
# good summand and derivation restriction


def test_good_summand_boolean():
    a = boolean3((2, 3, 4))
    res = hilbert_freeness_test(a)
    assert good_summand_check(a, 2, list(res.basis))


def test_good_summand_example1():
    a = example_a3(1, 3)
    res = hilbert_freeness_test(a, seed=2)
    assert res.kind == "FreeProven"
    assert good_summand_check(a, 5, list(res.basis))


def test_good_summand_rank2_heavy():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1]], "mult": [5, 2, 2]})
    basis = extract_basis(a, (4, 5), seed=3)
    assert basis is not None
    assert good_summand_check(a, 0, list(basis))


def test_good_summand_preconditions():
    a = boolean3((2, 3, 4))
    res = hilbert_freeness_test(a)
    thetas = list(res.basis)
    with pytest.raises(ValueError):
        good_summand_check(braid3(), 0, thetas)  # wrong arrangement: not members


def test_restrict_derivation_boolean():
    a = boolean3((2, 3, 4))
    theta = derivation_from_polys((mono3((2, 0, 0)), Z3, Z3))
    out = restrict_derivation(a, 2, theta)
    assert out.pdeg == 2
    r = euler_ziegler_multiplicity(a, 2)
    assert is_log_derivation(r.arrangement, out)


def test_restrict_derivation_zero():
    a = boolean3((2, 3, 4))
    theta = derivation_from_polys((Z3, Z3, Z3))
    out = restrict_derivation(a, 2, theta)
    assert out.is_zero()


def test_restrict_derivation_example1_degree2():
    a = example_a3(1, 2)
    alpha_z = a.hyperplanes[5].normal
    _, basis = derivation_space_dim(a, 2)
    killed = [t for t in basis if apply_form(t, alpha_z).is_zero()]
    assert killed  # the good complement in degree 2 annihilates z
    r = euler_ziegler_multiplicity(a, 5)
    for t in killed:
        out = restrict_derivation(a, 5, t)
        assert is_log_derivation(r.arrangement, out)


def test_restrict_derivation_requires_annihilation():
    a = boolean3((2, 3, 4))
    theta = derivation_from_polys((Z3, Z3, mono3((0, 0, 4))))
    with pytest.raises(ValueError):
        restrict_derivation(a, 2, theta)


# ---------------------------------------------------------------------------
# Euler multiplicity against the restriction multiplicities


def test_euler_multiplicity_matches_euler_ziegler_when_locally_heavy():
    rng = random.Random(83)
    cases = 0
    while cases < 12:
        a = random_multiarrangement(rng, max_planes=5)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        assert is_locally_heavy(a, i0)
        r = euler_ziegler_multiplicity(a, i0)
        from arrfree.arrangement import restriction_flats

        flats = {f.members: f for f in restriction_flats(a, i0)}
        for k, mem in enumerate(r.trace_members):
            inst = project_to_rank2(a, flats[mem])
            mstar = euler_multiplicity_at_flat(inst, inst.source.index(i0))
            assert mstar == r.arrangement.mult[k]
        cases += 1


def test_minimal_degree_two_for_irreducible_nonsimple():
    rng = random.Random(89)
    done = 0
    while done < 10:
        a = random_multiarrangement(rng, max_planes=5, max_mult=3)
        from arrfree.arrangement import rank

        if rank(a) != 3 or not reducibility(a).irreducible or a.is_simple():
            continue
        assert derivation_space_dim(a, 0)[0] == 0
        assert derivation_space_dim(a, 1)[0] == 0
        done += 1
