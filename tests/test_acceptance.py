"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.
"""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

from arrfree.arrangement import (
    euler_ziegler_multiplicity,
    is_locally_heavy,
    rank,
    reducibility,
)
from arrfree.betti import b2_away, b2_multi, b2_simple
from arrfree.certify import CertifyOptions, certify, find_locally_heavy_flags
from arrfree.cli import main
from arrfree.fixtures import (
    boolean3,
    example52,
    example_a3,
    generic4,
    rank4_flag_example,
)
from arrfree.oracle import derivation_space_dim, extract_basis, hilbert_freeness_test, saito_check
from arrfree.rank2 import Rank2Instance, rank2_exponents

from conftest import force_locally_heavy, random_multiarrangement, random_simple_rank3
from reference import b2_away_local_sum, normalize_multiplicity_shift, ref_rank2_exponents


def _report(num: int, name: str, ok: bool):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_c1_example1_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for a_ in (1, 2, 3):
        for m0 in (2 * a_, 2 * a_ + 1, 2 * a_ + 2):
            arr = example_a3(a_, m0)
            path = tmp_path / f"ex1_{a_}_{m0}.json"
            path.write_text(json.dumps(arr.to_dict()), encoding="utf-8")
            code = main(["certify", str(path), "--cert", str(tmp_path / "c.json")])
            capsys.readouterr()
            payload = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
            if a_ == 1:
                ok &= code == 0 and payload["kind"] == "Free"
                ok &= payload["exponents"] == sorted([m0, 2, 3])
            else:
                ok &= code == 10 and payload["kind"] == "NonFree"
            k = (3 * a_ // 2) * ((3 * a_ + 1) // 2)
            away = b2_away(arr, 5)
            ok &= away == 2 * a_ * a_ + 2 * k
            restr = euler_ziegler_multiplicity(arr, 5)
            ok &= b2_multi(restr).total == (5 * a_ // 2) * ((5 * a_ + 1) // 2)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, f"Example 1 boundary, {elapsed:.2f}s", ok)


def test_c2_rank4_flag_example():
    t0 = time.perf_counter()
    a = rank4_flag_example()
    ok = b2_simple(a).total == 36
    flags = find_locally_heavy_flags(a)
    target = (
        frozenset({9}),
        frozenset({6, 7, 8, 9}),
        frozenset({3, 4, 5, 6, 7, 8, 9}),
        frozenset(range(10)),
    )
    ok &= any(f.members_chain == target for f in flags)
    v = certify(a)
    ok &= v.kind == "Free" and v.exponents == (1, 3, 3, 3)
    ok &= v.certificate.numbers["flag_rhs"] == 36
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    _report(2, f"rank-4 flag example, {elapsed:.2f}s", ok)


def test_c3_example52():
    t0 = time.perf_counter()
    e = example52()
    lh = {e.label(i) for i in range(e.size) if is_locally_heavy(e, i)}
    ok = lh == {"x-y", "z"}
    v = certify(e, CertifyOptions(only_rule="two-locally-heavy"))
    ok &= v.kind == "NonFree" and v.certificate.rule == "TwoLocallyHeavy"
    res = hilbert_freeness_test(e, degree_cap=8)
    ok &= res.kind == "NonFreeProven"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(3, f"Example 5.2 nonfreeness, {elapsed:.2f}s", ok)


def test_c4_locally_heavy_inequality_suite():
    rng = random.Random(2024)
    checked = 0
    ok = True
    while checked < 200:
        a = random_multiarrangement(rng, dim=3, max_planes=6, max_mult=4, entry=2)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        away = b2_away(a, i0)
        restr = euler_ziegler_multiplicity(a, i0)
        ok &= away >= b2_multi(restr).total
        ok &= away == b2_away_local_sum(a, i0)
        if not ok:
            break
        checked += 1
    _report(4, f"locally heavy inequality suite, {checked} cases", ok and checked >= 200)


def test_c5_simple_arrangement_suite():
    rng = random.Random(2025)
    checked = 0
    ok = True
    while checked < 100:
        a = random_simple_rank3(rng)
        b2 = b2_simple(a).total
        for i in range(a.size):
            restr = euler_ziegler_multiplicity(a, i)
            ok &= b2 - (a.size - 1) >= b2_multi(restr).total
        if not ok:
            break
        checked += 1
    _report(5, f"simple Ziegler inequality suite, {checked} cases", ok and checked >= 100)


def test_c6_oracle_concordance():
    ok = True
    free_fixtures = [
        boolean3(),
        boolean3((2, 3, 4)),
        example_a3(1, 2),
        example_a3(1, 3),
        example_a3(1, 4),
        rank4_flag_example(),
    ]
    for a in free_fixtures:
        v = certify(a)
        ok &= v.kind == "Free"
        basis = extract_basis(a, v.exponents, seed=5)
        ok &= basis is not None
        if basis is not None:
            res = saito_check(a, list(basis))
            ok &= res.kind == "Basis" and res.exponents == v.exponents
    nonfree_in_reach = [example52(), generic4()]
    for a in nonfree_in_reach:
        assert a.dim == 3 and a.total_mult <= 12
        ok &= certify(a).kind == "NonFree"
        res = hilbert_freeness_test(a, seed=5)
        ok &= res.kind in ("NonFreeProven", "Undetermined")
    _report(6, "oracle concordance on fixtures", ok)


def test_c7_shift_invariance():
    ok = True
    cases = [(example_a3(1, 3), 5), (boolean3((2, 3, 4)), 2)]
    for base, i0 in cases:
        base_v = certify(base)
        ok &= base_v.kind == "Free"
        m0 = base.mult[i0]
        for k in (-1, 0, 1, 2, 5):
            try:
                shifted = normalize_multiplicity_shift(base, i0, k)
            except ValueError:
                continue  # illegal shift, skipped per criterion
            v = certify(shifted)
            ok &= v.kind == base_v.kind
            want = Counter(base_v.exponents)
            want[m0] -= 1
            want[m0 + k] += 1
            ok &= Counter(v.exponents) == +want
    # the sub-minimal shift really is illegal for Example 1
    try:
        normalize_multiplicity_shift(example_a3(1, 2), 5, -1)
        ok = False
    except ValueError:
        pass
    _report(7, "shift invariance", ok)


def test_c8_rank2_solver_suite():
    rng = random.Random(99)
    ok = True

    def forms2(count):
        seen, out = set(), []
        while len(out) < count:
            f = (rng.randint(-3, 3), rng.randint(-3, 3))
            if f == (0, 0):
                continue
            lead = next(c for c in f if c)
            canon = (Fraction(f[0], lead), Fraction(f[1], lead))
            if canon in seen:
                continue
            seen.add(canon)
            out.append(canon)
        return tuple(out)

    # the closed forms that rank2_exponents returns, against the graded solve
    # every two-form instance: exponents are the multiplicities
    for m1, m2 in itertools.product(range(1, 7), repeat=2):
        inst = Rank2Instance(forms2(2), (m1, m2))
        ok &= rank2_exponents(inst) == ref_rank2_exponents(inst) == tuple(sorted((m1, m2)))

    # 50 random heavy instances
    for _ in range(50):
        fs = forms2(rng.randint(3, 4))
        rest = [rng.randint(1, 4) for _ in fs[1:]]
        m0 = sum(rest) + rng.randint(0, 3)
        inst = Rank2Instance(fs, (m0, *rest))
        ok &= rank2_exponents(inst) == ref_rank2_exponents(inst) == tuple(sorted((m0, sum(rest))))

    # 50 random balanced three-form instances
    done = 0
    while done < 50:
        fs = forms2(3)
        mult = tuple(rng.randint(1, 4) for _ in range(3))
        if 2 * max(mult) > sum(mult):
            continue
        total = sum(mult)
        inst = Rank2Instance(fs, mult)
        ok &= rank2_exponents(inst) == ref_rank2_exponents(inst) == (total // 2, (total + 1) // 2)
        done += 1
    _report(8, "rank-2 solver suite", ok)


def test_c9_minimal_degree_bound():
    rng = random.Random(101)
    checked = 0
    ok = True
    while checked < 50:
        a = random_multiarrangement(rng, dim=3, max_planes=6, max_mult=3)
        if rank(a) != 3 or not reducibility(a).irreducible:
            continue
        if a.is_simple():
            i = rng.randrange(a.size)
            a = a.with_mult(i, 2)
        ok &= derivation_space_dim(a, 0)[0] == 0
        ok &= derivation_space_dim(a, 1)[0] == 0
        if not ok:
            break
        checked += 1
    _report(9, f"minimal degree bound, {checked} cases", ok and checked >= 50)
