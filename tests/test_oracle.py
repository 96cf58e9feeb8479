import functools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import (
    Hyperplane,
    Multiarrangement,
    essentialize,
    euler_ziegler_multiplicity,
    is_locally_heavy,
    parse,
    rank,
    reducibility,
)
from arrfree.exactalg import Polynomial
from arrfree.fixtures import boolean3, braid3, example52, example_a3, load
import arrfree.dspace as dspace_mod
import arrfree.oracle as oracle_mod
from arrfree.oracle import (
    MAX_EXPONENT_TUPLES,
    Derivation,
    _combination,
    derivation_space_dim,
    extract_basis,
    free_module_dim,
    hilbert_freeness_test,
    is_log_derivation,
    saito_check,
)
from arrfree.rank2 import euler_multiplicity_at_flat, project_to_rank2

from conftest import cyclic_garbage, force_locally_heavy, random_multiarrangement
from reference import (
    DetIsMultiple,
    apply_form,
    derivation_from_polys,
    exponent_candidates,
    polys_from_terms,
    good_summand_check,
    ref_defining_polynomial,
    ref_exponent_tuple_count,
    ref_hilbert_freeness_test,
    ref_combine,
    ref_poly_matrix_det,
    ref_saito_check,
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
    for combine in (ref_combine, _combination):
        assert combine([2, -1], [t, t]) == t
        assert combine([0], [t]) == Derivation(({}, {})) and combine([0], [t]).den == 1
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
    # x^2 d_x and y d_y are members whose determinant x^2*y is Q = xy times
    # x: degrees summing to 3 = |m| + 1 make no basis, and are refused
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1]})
    t1 = derivation_from_polys((Polynomial(2, {(2, 0): F(1)}), Z := Polynomial.zero(2)))
    t2 = derivation_from_polys((Z, Polynomial.variable(2, 1)))
    with pytest.raises(ValueError, match=r"^need degrees summing to \|m\| = 2$"):
        saito_check(a, [t1, t2])
    assert ref_saito_check(a, [t1, t2]) == DetIsMultiple(factor_degree=1)


def test_saito_rejects_non_member():
    a = boolean3((2, 3, 4))
    # y^3 d_x: x^2 does not divide y^3; three of degree 3 sum to |m| = 9
    bad = derivation_from_polys((mono3((0, 3, 0)), Z3, Z3))
    with pytest.raises(ValueError, match="outside D"):
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
            combo = ref_combine([rng.randint(-2, 2) for _ in basis], basis)
            if combo.is_zero():
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


class Solved(Exception):
    """Raised in place of the first graded solve: the Hilbert test got past its guard."""


def _solved(*args, **kwargs):
    raise Solved


def _coordinate_arrangement(parts, total):
    # the coordinate hyperplanes of rank `parts`, with |m| = total split evenly
    normals = [[int(i == j) for j in range(parts)] for i in range(parts)]
    mult = [total // parts + (i < total % parts) for i in range(parts)]
    return parse({"dim": parts, "hyperplanes": normals, "mult": mult})


@pytest.mark.parametrize("parts", range(1, 6))
def test_exponent_tuple_count_matches_the_list(monkeypatch, parts):
    # the partition table that the enumeration replaced, and the Hilbert
    # test's own guard, with the bound lowered to 10: p(n, 2), p(n, 3) and
    # p(n, 5) each meet it exactly for some n <= 30, and every count crosses it
    bound = 10
    monkeypatch.setattr(oracle_mod, "MAX_EXPONENT_TUPLES", bound)
    monkeypatch.setattr(oracle_mod, "derivation_dims", _solved)
    for total in range(0, 31):
        count = ref_exponent_tuple_count(total, parts)
        assert count == len(exponent_candidates(total, parts))
        if total < parts:
            continue
        a = _coordinate_arrangement(parts, total)
        if count <= bound:
            with pytest.raises(Solved):
                hilbert_freeness_test(a, degree_cap=2)
        else:
            with pytest.raises(oracle_mod.ExponentTupleOverflow) as e:
                hilbert_freeness_test(a, degree_cap=2)
            assert str(e.value) == f"more than {bound} exponent tuples of length {parts} sum to |m| = {total}"


def test_exponent_tuple_bound_is_exact():
    # p(n, 3) is the integer nearest n^2/12; n = 346 is the last one within the bound
    assert ref_exponent_tuple_count(346, 3) == len(exponent_candidates(346, 3)) == 9976 <= MAX_EXPONENT_TUPLES
    assert ref_exponent_tuple_count(347, 3) == len(exponent_candidates(347, 3)) == 10034
    # p(n, 2) = floor(n/2) meets the bound itself: 10000 tuples pass, 10001 do not
    assert ref_exponent_tuple_count(20001, 2) == MAX_EXPONENT_TUPLES
    assert ref_exponent_tuple_count(20002, 2) == MAX_EXPONENT_TUPLES + 1


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_exponent_tuple_count_stops_early_on_huge_totals(monkeypatch, parts):
    # the Hilbert test's enumeration stops one tuple past the limit, whatever |m| is
    monkeypatch.setattr(oracle_mod, "derivation_dims", _solved)
    a = _coordinate_arrangement(parts, 10**12)
    start = time.perf_counter()
    with pytest.raises(Solved if parts == 1 else oracle_mod.ExponentTupleOverflow) as e:
        hilbert_freeness_test(a, degree_cap=2)
    assert time.perf_counter() - start < 0.5
    if parts > 1:
        assert str(e.value) == f"more than 10000 exponent tuples of length {parts} sum to |m| = {10**12}"
    count = ref_exponent_tuple_count(10**12, parts)
    assert count == 1 if parts == 1 else count > MAX_EXPONENT_TUPLES


@pytest.mark.parametrize(
    "normals, total, refused",
    [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 346, False),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 347, True),
        ([[1, 0], [0, 1], [1, 1]], 20001, False),
        ([[1, 0], [0, 1], [1, 1]], 20002, True),
    ],
)
def test_hilbert_refuses_past_the_bound_before_any_solve(tmp_path, capsys, monkeypatch, normals, total, refused):
    # the Hilbert test's ExponentTupleOverflow, the prover's reason, the
    # verifier's CertificateError and the CLI's exit 3 and message, each
    # from one walk of the enumeration; within the bound the first solve is
    # reached
    from arrfree.certify import CertificateError, CertifyOptions, certify, verify_certificate
    from arrfree.cli import EXIT_CAP, main

    top_walks = []
    walk = oracle_mod._nondecreasing_tuples

    def counting(remaining, parts_left, minimum):
        if parts_left == len(normals[0]):
            top_walks.append(remaining)
        return walk(remaining, parts_left, minimum)

    monkeypatch.setattr(oracle_mod, "derivation_dims", _solved)
    monkeypatch.setattr(oracle_mod, "_nondecreasing_tuples", counting)
    n, dim = len(normals), len(normals[0])
    mult = [total // n + (i < total % n) for i in range(n)]
    data = {"dim": dim, "hyperplanes": normals, "mult": mult}
    a = parse(data)
    assert a.total_mult == total
    p = tmp_path / "a.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    message = f"more than 10000 exponent tuples of length {dim} sum to |m| = {total}"
    node = {"rule": "HilbertObstruction", "inputs": {"degree_cap": 2, "essentialized_from_dim": None}, "numbers": {}}
    opts = CertifyOptions(use_oracle=True, oracle_cap=2, only_rule="oracle")
    cli = ["oracle", str(p), "--hilbert", "--cap", "2", "--json"]
    if refused:
        with pytest.raises(oracle_mod.ExponentTupleOverflow) as e:
            hilbert_freeness_test(a, degree_cap=2)
        assert str(e.value) == message
        v = certify(a, opts)
        assert (v.kind, v.reason) == ("Inconclusive", f"oracle: {message}")
        with pytest.raises(CertificateError) as e:
            verify_certificate(a, {"kind": "NonFree", "certificate": node})
        assert str(e.value) == message
        capsys.readouterr()
        assert main(cli) == EXIT_CAP == 3
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}; the Hilbert test would list every one\n")
    else:
        with pytest.raises(Solved):
            hilbert_freeness_test(a, degree_cap=2)
        with pytest.raises(Solved):
            certify(a, opts)
        with pytest.raises(Solved):
            verify_certificate(a, {"kind": "NonFree", "certificate": node})
        with pytest.raises(Solved):
            main(cli)
    assert top_walks == [total] * 4


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
    assert len(calls) == 1
    if cap == 1:
        assert len(res.dims) == cap + 1
    else:
        # no exponent tuple survives degree 2, so the test stops there
        assert res.degree_cap == 2 and res.dims == (0, 0, 0)


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
    assert is_log_derivation(euler_ziegler_multiplicity(a, 2), out)


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
        assert is_log_derivation(r, out)


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

        for k, flat in enumerate(restriction_flats(a, i0)):
            inst = project_to_rank2(a, flat)
            mstar = euler_multiplicity_at_flat(inst, inst.source.index(i0))
            assert mstar == r.mult[k]
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


def test_early_stopping_hilbert_test_leaves_no_cycles():
    # the stop abandons a suspended derivation_dims generator
    assert hilbert_freeness_test(example52(), degree_cap=8).degree_cap == 2
    assert cyclic_garbage(lambda: hilbert_freeness_test(example52(), degree_cap=8)) == []


# ---------------------------------------------------------------------------
# the early stop against the full-cap test it replaced


def surviving(a, dims, k):
    """The exponent tuples whose free-module dimensions match dims at
    degrees 0..k."""
    l = a.dim
    return [
        t for t in exponent_candidates(a.total_mult, l) if all(free_module_dim(t, d, l) == dims[d] for d in range(k + 1))
    ]


def assert_stops_where_the_reference_decides(a, cap):
    got, want = hilbert_freeness_test(a, degree_cap=cap), ref_hilbert_freeness_test(a, degree_cap=cap)
    assert got.kind == want.kind
    if got.kind == "Undetermined":
        assert got == want
        return
    k = got.degree_cap
    assert got.dims == want.dims[: k + 1]
    if got.kind == "FreeProven":
        assert (got.exponents, got.survivors, got.basis, got.seed) == (want.exponents, want.survivors, want.basis, want.seed)
        # the least degree at or above the top exponent whose dims leave one
        # tuple, or the cap when the cap comes first
        top = max(got.exponents)
        assert k == next((d for d in range(top, cap + 1) if len(surviving(a, want.dims, d)) == 1), cap)
        assert k <= cap
        return
    assert 1 <= k <= cap and got.survivors == ()
    # minimal: some tuple matches every degree below k (degree 0 alone
    # never decides, and k = 1 is the least degree cited)
    assert k == 1 or surviving(a, want.dims, k - 1)


@st.composite
def small_essential_rank3(draw):
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), min_size=4, max_size=5))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(r) for r in rows if any(r)))
    assume(len(planes) >= 4)
    a = Multiarrangement(3, planes, tuple(draw(st.lists(st.integers(1, 3), min_size=len(planes), max_size=len(planes)))))
    assume(rank(a) == 3)
    return a


@settings(max_examples=150, deadline=None)
@given(small_essential_rank3(), st.integers(1, 6))
def test_hilbert_early_stop_matches_the_full_cap_test(a, cap):
    assert_stops_where_the_reference_decides(a, cap)


FIXTURE_NAMES = (
    "boolean.json",
    "boolean_234.json",
    "braid.json",
    "example1_a1_m0_2.json",
    "example52.json",
    "generic4.json",
    "rank4_flag.json",
)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_hilbert_early_stop_matches_the_full_cap_test_on_fixtures(name):
    a, _ = essentialize(load(name))
    for cap in range(1, 9):
        assert_stops_where_the_reference_decides(a, cap)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_hilbert_extracts_a_basis_at_most_once(monkeypatch, name):
    extract, calls = oracle_mod.extract_basis, []

    def counting(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    monkeypatch.setattr(oracle_mod, "extract_basis", counting)
    a, _ = essentialize(load(name))
    for cap in range(1, 9):
        calls.clear()
        res = hilbert_freeness_test(a, degree_cap=cap)
        assert len(calls) == 1 if res.kind == "FreeProven" else len(calls) <= 1
        if name in ("example52.json", "generic4.json"):
            assert not calls


def test_hilbert_cites_the_degree_of_the_extraction():
    # braid (exponents 1, 2, 3) and rank4_flag (1, 3, 3, 3) leave one tuple
    # by degree 3, so the default caps 4 and 7 are never reached
    res = hilbert_freeness_test(braid3())
    assert (res.kind, res.degree_cap, res.dims) == ("FreeProven", 3, (0, 1, 4, 10))
    res = hilbert_freeness_test(essentialize(load("rank4_flag.json"))[0])
    assert (res.kind, res.exponents, res.degree_cap, res.dims) == ("FreeProven", (1, 3, 3, 3), 3, (0, 1, 4, 13))


def test_a_failed_extraction_is_not_tried_again(monkeypatch):
    # braid leaves one tuple from degree 1 on; with no basis found at
    # degree 3 the test filters on to the cap and is Undetermined there
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(oracle_mod, "extract_basis", failing)
    res = hilbert_freeness_test(braid3(), degree_cap=6)
    assert (res.kind, res.degree_cap, res.survivors) == ("Undetermined", 6, ((1, 2, 3),))
    assert res.dims == ref_hilbert_freeness_test(braid3(), degree_cap=6).dims
    assert len(calls) == 1


@functools.cache
def degree_piece_bases():
    """The nonempty bases of the essentialized fixtures' degree pieces at
    degrees 0..4."""
    pieces = (derivation_space_dim(essentialize(load(name))[0], d)[1] for name in FIXTURE_NAMES for d in range(5))
    return [basis for basis in pieces if basis]


@st.composite
def derivation_bases(draw):
    """A fixture's degree-piece basis, each element divided by a drawn
    integer so that the denominators differ."""
    basis = draw(st.sampled_from(degree_piece_bases()))
    return [Derivation(t.coeffs, t.den * draw(st.integers(1, 6))) for t in basis]


@settings(max_examples=100, deadline=None)
@given(derivation_bases(), st.data())
def test_one_pass_combination_equals_the_fold(basis, data):
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    got, want = _combination(coeffs, basis), ref_combine(coeffs, basis)
    assert got == want and got.den == want.den
    assert got.to_dict() == want.to_dict()
