import copy
import importlib
import json
import random
import re
import sys
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arrfree.arrangement as arrangement_mod
import arrfree.rank2 as rank2_mod
from arrfree.arrangement import (
    Hyperplane,
    Multiarrangement,
    _flats_over,
    codim2_flats,
    euler_ziegler_multiplicity,
    intersection_lattice,
    is_locally_heavy,
    locally_heavy_indices,
    parse,
    rank,
    restriction_flats,
)
from arrfree.betti import b2_multi
from arrfree.certify import (
    RECHECKS,
    CertificateError,
    CertifyOptions,
    Flag,
    certify,
    certify_flag,
    certify_locally_heavy,
    find_locally_heavy_flags,
    is_generic_hyperplane,
    nonfree_generic,
    nonfree_two_locally_heavy,
    verify_certificate,
)
from arrfree.fixtures import (
    boolean3,
    braid3,
    example52,
    example_a3,
    generic4,
    load,
    rank4_flag_example,
)

from conftest import FIXTURES, cyclic_garbage, force_locally_heavy, random_multiarrangement, type_b_normals
from reference import (
    is_heavy,
    normalize_multiplicity_shift,
    ref_hilbert_freeness_test,
    ref_nonfree_two_locally_heavy,
    ref_span_lattice,
)

# the module, not the `certify` function of the same name
certify_mod = importlib.import_module("arrfree.certify")


# ---------------------------------------------------------------------------
# predicates


def test_is_heavy():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1]], "mult": [5, 2, 2]})
    assert is_heavy(a, 0)
    assert not is_heavy(example_a3(1, 2), 5)  # 2 < 5
    single = parse({"dim": 2, "hyperplanes": [[1, 0]], "mult": [3]})
    assert is_heavy(single, 0)


def test_is_locally_heavy():
    for a_ in (1, 2):
        for m0 in (2 * a_, 2 * a_ + 1):
            assert is_locally_heavy(example_a3(a_, m0), 5)
    assert not is_locally_heavy(example_a3(1, 1), 5)
    br = braid3()
    assert not any(is_locally_heavy(br, i) for i in range(br.size))
    e = example52()
    assert is_locally_heavy(e, 1) and is_locally_heavy(e, 5)


def test_is_generic_hyperplane():
    assert is_generic_hyperplane(boolean3(), 2)
    assert not is_generic_hyperplane(braid3(), 2)
    g = generic4()
    assert all(is_generic_hyperplane(g, i) for i in range(4))
    with pytest.raises(ValueError):
        is_generic_hyperplane(boolean3((2, 1, 1)), 0)


# ---------------------------------------------------------------------------
# flags


def test_flag_search_rank4_contains_paper_flag():
    a = rank4_flag_example()
    flags = find_locally_heavy_flags(a)
    assert flags
    target_chain = (
        frozenset({9}),  # w
        frozenset({6, 7, 8, 9}),  # w, z, z+w, z-w
        frozenset({3, 4, 5, 6, 7, 8, 9}),  # everything with no x
        frozenset(range(10)),
    )
    match = [f for f in flags if f.members_chain == target_chain]
    assert match and match[0].values == (1, 3, 3, 3)


def test_flag_search_braid_empty():
    assert find_locally_heavy_flags(braid3()) == []


def test_flag_search_leaves_no_cycles():
    a = rank4_flag_example()
    assert find_locally_heavy_flags(a)
    assert cyclic_garbage(lambda: find_locally_heavy_flags(a)) == []


def test_flag_search_boolean_all_ones():
    flags = find_locally_heavy_flags(boolean3())
    assert flags
    assert all(f.values == (1, 1, 1) for f in flags)


def _flag_key(f):
    return tuple(tuple(sorted(m)) for m in f.members_chain)


def ref_flags(a):
    """Every locally heavy flag by a depth-first search in index order, then
    sorted by key, as `find_locally_heavy_flags` listed them before it
    visited children in key order."""
    flags = []

    def walk(m, members, chain, values):
        candidates = range(m.size) if not chain else locally_heavy_indices(m)
        for k in candidates:
            c, v = chain + (members[k],), values + (m.mult[k],)
            if m.dim == 1:
                flags.append(Flag(c, v))
                continue
            traces = [f.members for f in restriction_flats(m, k)]
            below = [frozenset().union(*(members[j] for j in tm)) for tm in traces]
            walk(euler_ziegler_multiplicity(m, k), below, c, v)

    walk(a, [frozenset({i}) for i in range(a.size)], (), ())
    return sorted(flags, key=_flag_key)


def assert_flags_in_key_order(a):
    flags = find_locally_heavy_flags(a)
    assert flags == ref_flags(a)
    assert [_flag_key(f) for f in flags] == sorted({_flag_key(f) for f in flags})
    got = certify_mod._attempt_flag(a, CertifyOptions())
    assert got == (certify_flag(a, flags[0]) if flags else "flag: no locally heavy flag")


@st.composite
def simple_arrangements(draw):
    dim = draw(st.integers(3, 4))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=dim, max_size=8))
    planes = {Hyperplane.from_coeffs(r): None for r in rows if any(r)}
    a = Multiarrangement(dim, tuple(planes), (1,) * len(planes))
    assume(rank(a) == dim)
    return a


@settings(max_examples=60, deadline=None)
@given(simple_arrangements())
def test_flag_listing_is_in_key_order_and_certify_takes_the_first(a):
    assert_flags_in_key_order(a)


@pytest.mark.parametrize("make", [rank4_flag_example, boolean3, braid3, generic4])
def test_flag_listing_in_key_order_on_fixtures(make):
    assert_flags_in_key_order(make())


def test_flag_search_rejects_multiarrangement():
    with pytest.raises(ValueError):
        find_locally_heavy_flags(example_a3(1, 2))


def test_certify_flag_rank4():
    a = rank4_flag_example()
    v = certify_flag(a, find_locally_heavy_flags(a)[0])
    assert v.kind == "Free" and v.exponents == (1, 3, 3, 3)
    assert v.certificate.numbers["b2"] == 36
    assert v.certificate.numbers["flag_rhs"] == 36


def test_certify_flag_boolean():
    a = boolean3()
    v = certify_flag(a, find_locally_heavy_flags(a)[0])
    assert v.kind == "Free" and v.exponents == (1, 1, 1)
    assert v.certificate.numbers["b2"] == 3 == v.certificate.numbers["flag_rhs"]


def split_arrangement():
    """x, y, x - y, z: a rank-2 block and a line."""
    return parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, 1]], "mult": [1] * 4})


def test_certify_flag_split_arrangement():
    a = split_arrangement()
    flags = find_locally_heavy_flags(a)
    start_x = [f for f in flags if f.members_chain[0] == frozenset({0})]
    assert start_x
    v = certify_flag(a, start_x[0])
    assert v.kind == "Free" and v.exponents == (1, 1, 2)
    assert v.certificate.numbers["b2"] == 5 == v.certificate.numbers["flag_rhs"]


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 7), st.data())
def test_flag_telescope_is_the_tail_and_level_zero(l, data):
    # the away-quantity telescope that certify_flag asserted before holds,
    # on arbitrary values and level b2s with the rank-2 tail right, exactly
    # when level 0's b2 is lhs, the check that replaces it
    v = data.draw(st.lists(st.integers(1, 6), min_size=l, max_size=l))
    level_b2 = data.draw(st.lists(st.integers(0, 80), min_size=l - 2, max_size=l - 2)) + [v[l - 2] * v[l - 1]]
    lhs = data.draw(st.one_of(st.just(level_b2[0]), st.integers(0, 80)))
    rhs = sum(v[i] * v[j] for i in range(l) for j in range(i + 1, l))
    totals = [sum(v[i:]) for i in range(l)]
    away = [level_b2[i] - v[i] * (totals[i] - v[i]) for i in range(l - 2)]
    telescope = sum(away) == sum(level_b2[1 : l - 2]) + lhs - rhs + level_b2[l - 2]
    assert telescope == (level_b2[0] == lhs)


def test_certify_flag_invalid():
    a = boolean3()
    bad = Flag(
        (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})),
        (1, 2, 1),
    )
    with pytest.raises(ValueError):
        certify_flag(a, bad)


def test_flag_with_a_level_not_locally_heavy_is_refused():
    # braid3 restricted onto x: {x, y, x-y} has value 2 against 2 + 1 from
    # {x, z, x-z} and {x, y-z}, so it is not locally heavy there
    a = braid3()
    flag = Flag((frozenset({0}), frozenset({0, 1, 3}), frozenset(range(6))), (1, 2, 3))
    with pytest.raises(ValueError, match="not locally heavy"):
        certify_flag(a, flag)
    node = {"rule": "FlagEquality", "inputs": {"flag": flag.to_dict()}, "numbers": {"b2": 11, "flag_rhs": 11, "level_values": [1, 2, 3]}}
    with pytest.raises(CertificateError, match="not locally heavy"):
        verify_certificate(a, {"kind": "Free", "exponents": [1, 2, 3], "certificate": node})


def _cited_flag_mutations(a, payload):
    """The payload with its FlagEquality node's cited flag changed at one
    level: the member set replaced by each other member set met at that
    level (the member sets of the flats of that codimension), or the value
    moved by one."""
    flag = payload["certificate"]["inputs"]["flag"]
    lattice = intersection_lattice(a, a.dim)
    for d, members in enumerate(flag["members_chain"]):
        for other in lattice[d + 1]:
            if sorted(other.members) != members:
                yield "members_chain", d, sorted(other.members)
        for step in (-1, 1):
            yield "values", d, flag["values"][d] + step


@pytest.mark.parametrize("make", [rank4_flag_example, boolean3, split_arrangement])
def test_cited_flag_mutations_are_refused_or_re_derive(make):
    # the walk of a cited chain refuses a level it cannot follow with a
    # ValueError, which the verifier reports; no StopIteration,
    # RuntimeError or IndexError comes out of the generator
    a = make()
    v = certify(a)
    assert v.certificate.rule == "FlagEquality"
    payload = v.to_dict()
    refused = 0
    for field, d, new in _cited_flag_mutations(a, payload):
        bad = copy.deepcopy(payload)
        bad["certificate"]["inputs"]["flag"][field][d] = new
        try:
            got = verify_certificate(a, bad)
        except CertificateError as e:
            assert e.__cause__ is None or type(e.__cause__) is ValueError, (field, d, new, e)
            refused += 1
            continue
        assert (got.kind, got.exponents) == (v.kind, v.exponents), (field, d, new)
    assert refused


def test_a_flag_that_is_not_the_least_re_verifies():
    # the paper's flag of rank4_flag_example: the verifier walks the chain a
    # node cites, whichever flag the prover would have found
    a = rank4_flag_example()
    flag = Flag(
        (frozenset({9}), frozenset({6, 7, 8, 9}), frozenset({3, 4, 5, 6, 7, 8, 9}), frozenset(range(10))),
        (1, 3, 3, 3),
    )
    assert find_locally_heavy_flags(a)[0] != flag
    node = {"rule": "FlagEquality", "inputs": {"flag": flag.to_dict()}, "numbers": {"b2": 36, "flag_rhs": 36, "level_values": [1, 3, 3, 3]}}
    v = verify_certificate(a, {"kind": "Free", "exponents": [1, 3, 3, 3], "certificate": node})
    assert (v.kind, v.exponents, v.certificate.to_dict()) == ("Free", (1, 3, 3, 3), node | {"children": []})


# ---------------------------------------------------------------------------
# locally heavy recursion


def test_certify_locally_heavy_example1_free():
    v = certify_locally_heavy(example_a3(1, 3), 5)
    assert v.kind == "Free"
    assert v.exponents == (2, 3, 3)
    n = v.certificate.numbers
    assert n["away_b2"] == 6 == n["restriction_b2"]


def test_certify_locally_heavy_example1_nonfree():
    v = certify_locally_heavy(example_a3(2, 4), 5)
    assert v.kind == "NonFree"
    assert v.witness["away_b2"] == 26 and v.witness["restriction_b2"] == 25


def test_certify_locally_heavy_boolean():
    v = certify_locally_heavy(boolean3((2, 3, 4)), 2)
    assert v.kind == "Free" and v.exponents == (2, 3, 4)
    n = v.certificate.numbers
    assert n["away_b2"] == 6 == n["restriction_b2"]


def test_certify_locally_heavy_requires_predicate():
    with pytest.raises(ValueError):
        certify_locally_heavy(example_a3(1, 1), 5)


def test_flag_and_locally_heavy_agree():
    # simple arrangements where both routes apply must agree
    cases = [
        boolean3(),
        split_arrangement(),
    ]
    for a in cases:
        flags = find_locally_heavy_flags(a)
        lh = [i for i in range(a.size) if is_locally_heavy(a, i)]
        assert flags and lh
        v1 = certify_flag(a, flags[0])
        v2 = certify_locally_heavy(a, lh[0])
        assert v1.kind == v2.kind == "Free"
        assert v1.exponents == v2.exponents


# ---------------------------------------------------------------------------
# shifts


def test_shift_legal():
    s = normalize_multiplicity_shift(example_a3(1, 2), 5, 3)
    assert s.mult[5] == 5


def test_shift_destroys_local_heaviness():
    with pytest.raises(ValueError):
        normalize_multiplicity_shift(example_a3(1, 2), 5, -1)


def test_shift_boolean_down():
    s = normalize_multiplicity_shift(boolean3((2, 3, 4)), 2, -2)
    assert s.mult == (2, 3, 2)


def test_shift_nonpositive():
    with pytest.raises(ValueError):
        normalize_multiplicity_shift(boolean3((2, 3, 4)), 2, -4)


def test_shift_invariance_of_verdicts():
    base = example_a3(1, 3)
    base_v = certify(base)
    for k in (-1, 0, 1, 2, 5):
        s = normalize_multiplicity_shift(base, 5, k)
        v = certify(s)
        assert v.kind == base_v.kind == "Free"
        others = sorted(set(base_v.exponents) - {3}) if k else None
        assert sorted(v.exponents) == sorted((3 + k, 2, 3))
        del others


# ---------------------------------------------------------------------------
# nonfreeness rules


def test_nonfree_generic_any_multiplicity():
    g = generic4()
    rng = random.Random(3)
    for _ in range(5):
        m = tuple(rng.randint(1, 4) for _ in range(4))
        a = parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "mult": list(m)})
        v = nonfree_generic(a, 0)
        assert v.kind == "NonFree"
    assert nonfree_generic(g, 3).kind == "NonFree"


def test_nonfree_generic_braid_inconclusive():
    for i in range(6):
        assert nonfree_generic(braid3(), i).kind == "Inconclusive"


def test_nonfree_generic_reducible_inconclusive():
    a = parse(
        {"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, 1]], "mult": [1] * 4}
    )
    assert is_generic_hyperplane(a, 3)
    assert nonfree_generic(a, 3).kind == "Inconclusive"


def test_two_locally_heavy_example52():
    v = nonfree_two_locally_heavy(example52())
    assert v.kind == "NonFree"
    assert v.certificate.rule == "TwoLocallyHeavy"


def test_two_locally_heavy_reducible_inconclusive():
    a = parse(
        {"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, 1]], "mult": [3, 1, 2, 5]}
    )
    assert is_locally_heavy(a, 0) and is_locally_heavy(a, 3)
    assert nonfree_two_locally_heavy(a).kind == "Inconclusive"


def test_two_locally_heavy_rank4_embedding():
    a = parse(
        {
            "dim": 4,
            "hyperplanes": [
                [1, 0, 0, 0],
                [1, -1, 0, 0],
                [1, 0, -1, 0],
                [0, 1, 0, 0],
                [0, 1, -1, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
            "mult": [1, 2, 1, 1, 1, 2, 1],
        }
    )
    assert rank(a) == 4
    v = nonfree_two_locally_heavy(a)
    assert v.kind == "NonFree"
    assert set(v.witness["flat"]) == {0, 1, 2, 3, 4, 5}


def test_two_locally_heavy_rank4_needs_an_irreducible_rank3_flat():
    # x, y, z, w: every hyperplane is locally heavy, and every rank-3 flat
    # under two of them is reducible, so the rank >= 4 branch finds no
    # witness; the input is free, as the whole rule table proves
    a = parse({"dim": 4, "hyperplanes": [[int(i == k) for k in range(4)] for i in range(4)], "mult": [1] * 4})
    assert locally_heavy_indices(a) == [0, 1, 2, 3]
    v = certify(a, CertifyOptions(only_rule="two-locally-heavy"))
    assert (v.kind, v.reason) == (
        "Inconclusive",
        "two-locally-heavy: no essentially irreducible rank-3 flat under two locally heavy hyperplanes",
    )
    assert certify(a).kind == "Free"


def _localizations_per_flat(a):
    """`nonfree_two_locally_heavy`'s verdict, how many times it localized
    at each flat, by member set, and how many times each function called
    `arrangement._over`, the elimination over a flat's members."""
    calls, over_callers = Counter(), Counter()
    real_select, real_over = certify_mod._select, arrangement_mod._over

    def counted(b, idx):
        calls[frozenset(idx)] += 1
        return real_select(b, idx)

    def traced(b, members):
        over_callers[sys._getframe(1).f_code.co_name] += 1
        return real_over(b, members)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_mod, "_select", counted)
        mp.setattr(arrangement_mod, "_over", traced)
        return nonfree_two_locally_heavy(a), calls, over_callers


@st.composite
def two_locally_heavy_arrangements(draw):
    """Rank-4 and rank-5 multiarrangements, normals with entries -1..1, with
    at least two locally heavy hyperplanes."""
    dim = draw(st.integers(4, 5))
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim), min_size=dim, max_size=9))
    planes = tuple({Hyperplane.from_coeffs(r): None for r in rows if any(r)})
    mult = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=len(planes), max_size=len(planes)))
    a = Multiarrangement(dim, planes, tuple(mult))
    assume(rank(a) == dim and len(locally_heavy_indices(a)) >= 2)
    return a


@settings(max_examples=300, deadline=None)
@given(two_locally_heavy_arrangements())
def test_two_locally_heavy_matches_the_whole_level_search(a):
    v, calls, over_callers = _localizations_per_flat(a)
    assert v.to_dict() == ref_nonfree_two_locally_heavy(a).to_dict()
    # a flat rejected for one pair is not localized again for another, and
    # no localization eliminates again over the flat `_flats_over` built
    assert max(calls.values(), default=0) <= 1
    assert set(over_callers) <= {"_flats_over"}
    if v.decisive:
        assert verify_certificate(a, v.to_dict()).to_dict() == v.to_dict()
    # the rank-3 flats over each codim-2 flat are those of the lattice
    # spanned afresh, in the member order of its level
    flats3 = ref_span_lattice(a, 3)[3]
    for x in codim2_flats(a):
        assert _flats_over(a, x) == [f for f in flats3 if x.members <= f.members]


def test_two_locally_heavy_localizes_each_flat_once():
    # x, y, z, w: every pair's rank-3 flats are the {h, l, k}, each shared
    # by three pairs; every one is reducible, and each is localized once.
    # The flats come from `_flats_over`, once per pair's codim-2 flat, and
    # their localizations eliminate nothing again
    a = parse({"dim": 4, "hyperplanes": [[int(i == k) for k in range(4)] for i in range(4)], "mult": [1] * 4})
    v, calls, over_callers = _localizations_per_flat(a)
    assert v.kind == "Inconclusive"
    assert calls == {frozenset(f): 1 for f in combinations(range(4), 3)}
    assert over_callers == {"_flats_over": 6}


def test_two_locally_heavy_needs_two():
    # like nonfree_generic, a failed hypothesis is Inconclusive, not an error
    v = nonfree_two_locally_heavy(braid3())
    assert v.kind == "Inconclusive" and v.reason == "fewer than two locally heavy hyperplanes"


# ---------------------------------------------------------------------------
# dispatch


def test_certify_dispatch_fixtures():
    assert certify(boolean3()).kind == "Free"
    assert certify(example_a3(1, 2)).kind == "Free"
    assert certify(example_a3(2, 4)).kind == "NonFree"
    assert certify(example52()).kind == "NonFree"
    assert certify(braid3()).kind == "Inconclusive"


def test_certify_rank2_input():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, -1]], "mult": [2, 2, 2]})
    v = certify(a)
    assert v.kind == "Free" and v.exponents == (3, 3)
    assert v.certificate.rule == "Rank2Base"


def test_certify_only_rule_isolation():
    e = example52()
    v = certify(e, CertifyOptions(only_rule="two-locally-heavy"))
    assert v.kind == "NonFree" and v.certificate.rule == "TwoLocallyHeavy"
    v = certify(e, CertifyOptions(only_rule="generic"))
    assert v.kind == "Inconclusive"
    v = certify(braid3(), CertifyOptions(only_rule="oracle", use_oracle=True))
    assert v.kind == "Free" and v.exponents == (1, 2, 3)


def test_certify_rejects_an_unknown_only_rule():
    names = ", ".join(name for name, _, _ in certify_mod.RULES)
    with pytest.raises(ValueError, match=re.escape(f"dispatch names are {names}")):
        certify(example52(), CertifyOptions(only_rule="two_locally_heavy"))


def test_oracle_alone_on_no_hyperplanes_is_inconclusive():
    # there is no essential quotient to test; essentialize raised ParseError
    v = certify(Multiarrangement(3, (), ()), CertifyOptions(use_oracle=True, only_rule="oracle"))
    assert v.kind == "Inconclusive" and v.reason == "oracle: no hyperplanes to test"


def test_free_exponents_sum_to_total_multiplicity():
    for a in (boolean3(), boolean3((2, 3, 4)), example_a3(1, 2), example_a3(1, 5), rank4_flag_example()):
        v = certify(a)
        assert v.kind == "Free"
        assert sum(v.exponents) == a.total_mult


@pytest.mark.parametrize("forged", [(1, 3), (3,)])
def test_free_invariant_rejects_forged_exponents(monkeypatch, forged):
    # boolean (x, y) with m = (1, 2): the rank-2 exponents are forged to
    # not sum to |m| = 3, or to be not rank-many
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 2]})
    monkeypatch.setattr(certify_mod, "flat_exponents", lambda a, x: forged)
    with pytest.raises(AssertionError, match="rank-many"):
        certify(a)
    forged_verdict = certify_mod._dispatch(a, CertifyOptions(), certify_mod.RULES)
    assert forged_verdict.kind == "Free" and forged_verdict.exponents == forged
    with pytest.raises(CertificateError, match="summing to 3"):
        verify_certificate(a, forged_verdict.to_dict())


def test_oracle_default_cap_bounded(monkeypatch):
    # braid3 with every multiplicity 8 is undecided by the rules; the
    # default cap |m| - rank + 1 = 46 is refused before any solve
    import arrfree.oracle as oracle_mod

    def never(*args, **kwargs):
        raise AssertionError("hilbert_freeness_test must not run")

    monkeypatch.setattr(oracle_mod, "hilbert_freeness_test", never)
    b = braid3()
    a = b.__class__(b.dim, b.hyperplanes, (8,) * b.size, b.labels)
    v = certify(a, CertifyOptions(use_oracle=True))
    assert v.kind == "Inconclusive"
    assert "oracle: default degree cap 46 is out of range" in v.reason


def _four_planes_at_400():
    # x, y, z, x + y + z with every m = 400: p(1600, 3) = 213,334 exponent tuples
    return parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], "mult": [400] * 4})


def test_four_planes_at_400_need_no_graded_solve(monkeypatch):
    # every rank-2 exponent here is closed-form, for the prover and the verifier
    def never(*args):
        raise AssertionError("derivation_dim must not run")

    monkeypatch.setattr(rank2_mod, "derivation_dim", never)
    rank2_mod._min_degree_basis.cache_clear()
    b2_multi.cache_clear()
    a = _four_planes_at_400()
    v = certify(a)
    assert v.kind == "NonFree" and v.certificate.rule == "LocallyHeavyRestriction"
    assert v.witness["away_b2"] == 480000 and v.witness["restriction_b2"] == 360000
    assert verify_certificate(a, json.loads(json.dumps(v.to_dict()))).kind == "NonFree"


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_need_no_rank2_projection(monkeypatch, name):
    # the multiplicities fix the exponents of every codim-2 flat of every
    # fixture and of every restriction the prover recurses into
    def never(*args):
        raise AssertionError("project_to_rank2 must not run")

    monkeypatch.setattr(rank2_mod, "project_to_rank2", never)
    b2_multi.cache_clear()
    a = load(f"{name}.json")
    b2_multi(a)
    v = certify(a)
    assert verify_certificate(a, json.loads(json.dumps(v.to_dict()))).kind == v.kind


def test_b3_at_two_projects_its_three_four_line_flats(monkeypatch):
    # m = 2 on B_3: two-line flats are heavy, three-line flats are closed-form,
    # and only the 4-line flats {x, y, x+y, x-y} and its images need a solve
    projected = []
    real = rank2_mod.project_to_rank2

    def project(a, x):
        projected.append(x.sorted_members())
        return real(a, x)

    monkeypatch.setattr(rank2_mod, "project_to_rank2", project)
    b2_multi.cache_clear()
    report = b2_multi(parse({"dim": 3, "hyperplanes": type_b_normals(3), "mult": [2] * 9}))
    four_line = [m for m, _ in report.per_flat if len(m) == 4]
    assert len(four_line) == 3 and sorted(projected) == sorted(four_line)
    assert report.total == 108  # e_2(6, 6, 6), Terao's constant multiplicity theorem


def _hilbert_must_not_run(monkeypatch):
    # the Hilbert test refuses its candidate list before it solves a degree
    import arrfree.oracle as oracle_mod

    def never(*args, **kwargs):
        raise AssertionError("no graded dimension may be solved")

    monkeypatch.setattr(oracle_mod, "derivation_dims", never)


def test_oracle_exponent_tuples_bounded(monkeypatch):
    # degree cap 2 is in range, but the candidate list is refused before any solve
    _hilbert_must_not_run(monkeypatch)
    v = certify(_four_planes_at_400(), CertifyOptions(use_oracle=True, oracle_cap=2, only_rule="oracle"))
    assert v.kind == "Inconclusive"
    assert v.reason == "oracle: more than 10000 exponent tuples of length 3 sum to |m| = 1600"


def test_verifier_refuses_too_many_exponent_tuples(monkeypatch):
    _hilbert_must_not_run(monkeypatch)
    node = {"rule": "HilbertObstruction", "inputs": {"degree_cap": 2, "essentialized_from_dim": None}, "numbers": {}}
    with pytest.raises(CertificateError, match="more than 10000 exponent tuples"):
        verify_certificate(_four_planes_at_400(), {"kind": "NonFree", "certificate": node})


def test_verifier_refuses_an_out_of_range_cap_before_any_solve(monkeypatch):
    # a HilbertObstruction node citing cap 30 on Example 5.2 (rank 3) is
    # refused by the cap check, before the Hilbert test solves any degree
    a = example52()
    payload = certify(a, CertifyOptions(use_oracle=True, only_rule="oracle")).to_dict()
    assert payload["certificate"]["rule"] == "HilbertObstruction"
    payload["certificate"]["inputs"]["degree_cap"] = 30
    _hilbert_must_not_run(monkeypatch)
    with pytest.raises(CertificateError, match="degree cap 30 is out of range"):
        verify_certificate(a, payload)


def test_verifier_refuses_a_hilbert_obstruction_past_its_stopping_degree():
    # before the test stopped early, certify cited the default cap 6 and the
    # dims up to it; the re-run stops at degree 2, so that node differs
    a = example52()
    full = ref_hilbert_freeness_test(a)
    assert (full.kind, full.degree_cap, len(full.dims)) == ("NonFreeProven", 6, 7)
    payload = certify(a, CertifyOptions(use_oracle=True, only_rule="oracle")).to_dict()
    node = payload["certificate"]
    assert node["rule"] == "HilbertObstruction"
    assert (node["inputs"]["degree_cap"], node["numbers"]["graded_dims"]) == (2, [0, 0, 0])
    verify_certificate(a, payload)
    node["inputs"]["degree_cap"] = full.degree_cap
    node["numbers"]["graded_dims"] = payload["witness"]["graded_dims"] = list(full.dims)
    with pytest.raises(CertificateError):
        verify_certificate(a, payload)


def test_verdict_kind_validation():
    from arrfree.certify import Verdict

    with pytest.raises(ValueError):
        Verdict("Maybe")


# ---------------------------------------------------------------------------
# certificates


def _roundtrip(a):
    v = certify(a, CertifyOptions(use_oracle=True))
    payload = json.loads(json.dumps(v.to_dict(), sort_keys=True))
    v2 = verify_certificate(a, payload)
    assert v2.kind == v.kind
    if v.kind == "Free":
        assert v2.exponents == v.exponents
    return v, payload


def test_certificate_roundtrip_fixtures():
    for a in (
        boolean3(),
        boolean3((2, 3, 4)),
        example_a3(1, 2),
        example_a3(2, 4),
        example52(),
        rank4_flag_example(),
        braid3(),
    ):
        _roundtrip(a)


def test_certificate_tamper_detected():
    a = example_a3(1, 2)
    v, payload = _roundtrip(a)
    payload["certificate"]["numbers"]["away_b2"] += 1
    with pytest.raises(CertificateError):
        verify_certificate(a, payload)


def test_certificate_wrong_kind_detected():
    a = example_a3(1, 2)
    v, payload = _roundtrip(a)
    payload["kind"] = "NonFree"
    with pytest.raises(CertificateError):
        verify_certificate(a, payload)


def _malformed(name):
    """An (arrangement, payload) pair that must not verify: a malformed
    payload, an out-of-range oracle cap, a node whose cited numbers or
    inputs differ from the re-derived ones, or a proof by a rule the prover
    never emits."""
    a = example_a3(1, 2)
    payload = certify(a).to_dict()  # proved by LocallyHeavyRestriction
    node = payload["certificate"]
    if name == "h0 out of range":
        node["inputs"]["h0"] = 99
    elif name == "h0 not an index":
        node["inputs"]["h0"] = "x"
    elif name == "certificate is a list":
        payload["certificate"] = []
    elif name == "rule missing":
        del node["rule"]
    elif name == "payload is a list":
        payload = []
    elif name == "flag missing":
        a = boolean3()
        payload = certify(a).to_dict()  # proved by FlagEquality
        del payload["certificate"]["inputs"]["flag"]
    elif name in ("cap below 1", "cap too large"):
        node = {"rule": "HilbertObstruction", "inputs": {"degree_cap": 0 if name == "cap below 1" else 30}, "numbers": {}}
        a, payload = example52(), {"kind": "NonFree", "certificate": node}
    elif name == "forged addition-deletion":
        # Example 5.2 is NonFree; this node once verified it as Free (1, 2, 2)
        node = {
            "rule": "AdditionDeletion",
            "inputs": {"known": {"deletion": [1, 1, 2], "restriction": [1, 2]}},
            "numbers": {"inferred": "full", "exponents": [1, 2, 2]},
        }
        a, payload = example52(), {"kind": "Free", "exponents": [1, 2, 2], "certificate": node}
    elif name in ("generic rank", "generic h_form"):
        a = generic4()
        payload = certify(a, CertifyOptions(only_rule="generic")).to_dict()
        node = payload["certificate"]
        if name == "generic rank":
            node["numbers"]["rank"] = 99
        else:
            node["inputs"]["h_form"] = "junk"
    elif name in ("two-locally-heavy rank", "two-locally-heavy indices"):
        a = example52()
        payload = certify(a, CertifyOptions(only_rule="two-locally-heavy")).to_dict()
        node = payload["certificate"]
        if name == "two-locally-heavy rank":
            node["numbers"]["rank"] = 99
        else:
            node["inputs"]["locally_heavy"] = [0, 0]
    elif name == "forged multiplicity shift":
        # example_a3(1, 2) has exponents (2, 2, 3); this node once verified (2, 3, 4)
        inner = certify(normalize_multiplicity_shift(a, 5, 2))
        node = {"rule": "MultiplicityShift", "inputs": {"h0": 5, "k": 2}, "numbers": {}, "children": [inner.certificate.to_dict()]}
        payload = {"kind": "Free", "exponents": list(inner.exponents), "certificate": node}
    return a, payload


@pytest.mark.parametrize(
    "name",
    [
        "h0 out of range",
        "h0 not an index",
        "flag missing",
        "certificate is a list",
        "rule missing",
        "payload is a list",
        "cap below 1",
        "cap too large",
        "forged addition-deletion",
        "forged multiplicity shift",
        "generic rank",
        "generic h_form",
        "two-locally-heavy rank",
        "two-locally-heavy indices",
    ],
)
def test_verifier_rejects_with_certificate_error(name):
    a, payload = _malformed(name)
    with pytest.raises(CertificateError):
        verify_certificate(a, json.loads(json.dumps(payload)))


EMITTED_RULES = (
    "Rank2Base",
    "FlagEquality",
    "LocallyHeavyRestriction",
    "GenericTotallyNonfree",
    "TwoLocallyHeavy",
    "SaitoBasis",
    "HilbertObstruction",
)
FIXTURES = (
    "boolean.json",
    "boolean_234.json",
    "braid.json",
    "example1_a1_m0_2.json",
    "example52.json",
    "generic4.json",
    "rank4_flag.json",
)
# Example 5.2 through the oracle rule alone: no fixture's certificate
# reaches HilbertObstruction otherwise
ORACLE_ONLY = "example52.json, oracle only"
_PAYLOADS: dict = {}


def _decisive_payload(name):
    """The fixture, its certified verdict and that verdict's JSON payload."""
    if name not in _PAYLOADS:
        a = load(name.split(",")[0])
        v = certify(a, CertifyOptions(use_oracle=True, only_rule="oracle" if name == ORACLE_ONLY else None))
        assert v.decisive
        _PAYLOADS[name] = (a, v, json.loads(json.dumps(v.to_dict())))
    return _PAYLOADS[name]


def _node_rules(node):
    yield node.rule
    for child in node.children:
        yield from _node_rules(child)


def test_verifier_rejects_deep_payload_with_certificate_error():
    # deeper than the interpreter's recursion limit; JSON text cannot nest
    # this deep, but an in-memory payload can
    node = {"rule": "Rank2Base", "inputs": {}, "numbers": {}, "children": []}
    for _ in range(5000):
        node = {"rule": "Rank2Base", "inputs": {}, "numbers": {}, "children": [node]}
    with pytest.raises(CertificateError, match="RecursionError"):
        verify_certificate(boolean3(), {"kind": "Free", "certificate": node})


def test_rechecks_cover_exactly_the_emitted_rules():
    assert set(RECHECKS) == set(EMITTED_RULES)
    for name in FIXTURES:
        _, verdict, _ = _decisive_payload(name)
        assert set(_node_rules(verdict.certificate)) <= set(RECHECKS)


# (input, --only-rule, oracle on, verdict kind, certificate rule of the top node)
ONE_RULE_CASES = (
    ("rank4_flag.json", "flag", False, "Free", "FlagEquality"),
    ("example52.json", "two-locally-heavy", False, "NonFree", "TwoLocallyHeavy"),
    ("generic4.json", "generic", False, "NonFree", "GenericTotallyNonfree"),
    ("example1_a1_m0_2.json", "locally-heavy", False, "Free", "LocallyHeavyRestriction"),
    ("example52.json", "oracle", True, "NonFree", "HilbertObstruction"),
    ("braid.json", "oracle", True, "Free", "SaitoBasis"),
    ("boolean_234.json", "oracle", True, "Free", "SaitoBasis"),
    ({"dim": 2, "hyperplanes": [[1, 0], [0, 1], [1, 1], [1, -1]], "mult": [2, 3, 1, 2]},
     "rank2", False, "Free", "Rank2Base"),
)


def test_one_rule_cases_cover_every_record():
    assert {case[1] for case in ONE_RULE_CASES} == set(certify_mod.DISPATCH_ORDER)
    assert {case[4] for case in ONE_RULE_CASES} == set(EMITTED_RULES)
    assert len(set(certify_mod.DISPATCH_ORDER)) == len(certify_mod.RULES)


@pytest.mark.parametrize("source, only_rule, use_oracle, kind, node_rule", ONE_RULE_CASES)
def test_a_rule_emits_the_certificate_rules_of_its_record(source, only_rule, use_oracle, kind, node_rule):
    a = parse(source) if isinstance(source, dict) else load(source)
    v = certify(a, CertifyOptions(use_oracle=use_oracle, only_rule=only_rule))
    (rechecks,) = [rechecks for name, _, rechecks in certify_mod.RULES if name == only_rule]
    assert v.kind == kind and v.certificate.rule == node_rule and node_rule in rechecks
    assert verify_certificate(a, json.loads(json.dumps(v.to_dict()))).to_dict() == v.to_dict()


@st.composite
def small_rank3_multiarrangements(draw):
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=6))
    planes = tuple(dict.fromkeys(Hyperplane.from_coeffs(r) for r in rows if any(r)))
    mult = draw(st.lists(st.integers(1, 3), min_size=len(planes), max_size=len(planes)))
    a = Multiarrangement(3, planes, tuple(mult))
    assume(rank(a) == 3)
    return a


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_rank3_multiarrangements(), st.sampled_from(FIXTURES).map(load)),
    st.booleans(),
    st.sampled_from([None, 0, 1, 2, 8, 15, 16, 17]),
    st.sampled_from((None,) + certify_mod.DISPATCH_ORDER),
)
def test_every_decisive_verdict_re_verifies(a, use_oracle, oracle_cap, only_rule):
    # an oracle cap the verifier would refuse is refused by the prover too,
    # as an Inconclusive reason rather than an exception
    v = certify(a, CertifyOptions(use_oracle=use_oracle, oracle_cap=oracle_cap, only_rule=only_rule))
    if v.decisive:
        assert verify_certificate(a, v.to_dict()).to_dict() == v.to_dict()


def test_saito_recheck_bounds_degrees_before_polynomial_work(monkeypatch):
    # boolean3 has |m| = 3: three degree-2 derivations, or two derivations,
    # cannot be a Saito basis, and are refused before saito_check runs
    import arrfree.oracle as oracle_mod

    def never(*args, **kwargs):
        raise AssertionError("saito_check must not run")

    monkeypatch.setattr(oracle_mod, "saito_check", never)

    def derivation(i, degree):  # x_i^degree d/dx_i
        mono = [degree if j == i else 0 for j in range(3)]
        return {"nvars": 3, "coeffs": [[[mono, "1"]] if j == i else [] for j in range(3)]}

    for degrees in ([2, 2, 2], [1, 2]):
        node = {
            "rule": "SaitoBasis",
            "inputs": {"derivations": [derivation(i, d) for i, d in enumerate(degrees)], "essentialized_from_dim": None},
            "numbers": {"exponents": degrees, "seed": 0},
        }
        payload = {"kind": "Free", "exponents": degrees, "certificate": node}
        with pytest.raises(CertificateError, match="degrees summing to 3"):
            verify_certificate(boolean3(), payload)


def test_saito_recheck_refuses_coefficients_in_another_ring():
    # x, y, z, y + z in K^3 (|m| = 4) with a cited theta_2 = x d/dy whose
    # coefficients claim one variable: the payload's nvars must match the
    # number of coordinates, or the integer division by y + z never ends
    a = Multiarrangement(3, tuple(Hyperplane.from_coeffs(r) for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1])), (1, 1, 1, 1))
    thetas = [
        {"nvars": 3, "coeffs": [[[[1, 0, 0], "1"]], [], []]},
        {"nvars": 1, "coeffs": [[], [[[1], "1"]], []]},
        {"nvars": 3, "coeffs": [[], [], [[[0, 1, 1], "1"], [[0, 0, 2], "1"]]]},
    ]
    node = {
        "rule": "SaitoBasis",
        "inputs": {"derivations": thetas, "essentialized_from_dim": None},
        "numbers": {"exponents": [1, 1, 2], "seed": 0},
    }
    with pytest.raises(CertificateError, match="one variable per coordinate"):
        verify_certificate(a, {"kind": "Free", "exponents": [1, 1, 2], "certificate": node})


@pytest.mark.parametrize(
    "bad, reason",
    [("1/0", "zero denominator"), ("1e4000000", "exact numbers are"), (1.5, "exact numbers are"), (True, "exact numbers are")],
)
def test_saito_recheck_reads_coefficients_as_exact_numbers(bad, reason):
    # boolean.json's oracle certificate is a SaitoBasis node; each bad
    # coefficient is refused by the reader of the arrangement parser, before
    # any arithmetic, and an exponent string costs no more than its text
    a = load("boolean.json")
    payload = certify(a, CertifyOptions(use_oracle=True, only_rule="oracle")).to_dict()
    assert payload["certificate"]["rule"] == "SaitoBasis"
    payload["certificate"]["inputs"]["derivations"][0]["coeffs"][0][0][1] = bad
    start = time.perf_counter()
    with pytest.raises(CertificateError, match=f"ParseError: bad rational .*{reason}"):
        verify_certificate(a, payload)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "field, bad",
    [
        ("exponent", True),
        ("exponent", 1.0),
        ("exponent", "1"),
        ("exponent", -1),
        ("nvars", True),
        ("nvars", 3.0),
        ("nvars", "3"),
        ("nvars", -3),
    ],
)
def test_saito_recheck_reads_exponents_and_nvars_as_counts(monkeypatch, field, bad):
    # an exponent, and nvars, must be an int that is not a bool and is at
    # least 0; [true, 0, 0] equals [1, 0, 0] as a Python tuple, so it is
    # refused by type, before any Saito work
    import arrfree.oracle as oracle_mod

    a = load("boolean.json")
    payload = certify(a, CertifyOptions(use_oracle=True, only_rule="oracle")).to_dict()
    theta = payload["certificate"]["inputs"]["derivations"][0]
    assert theta["nvars"] == 3 and theta["coeffs"][0][0][0] == [1, 0, 0]
    if field == "exponent":
        theta["coeffs"][0][0][0] = [bad, 0, 0]
    else:
        theta["nvars"] = bad

    def never(*args, **kwargs):
        raise AssertionError("saito_check must not run")

    monkeypatch.setattr(oracle_mod, "saito_check", never)
    with pytest.raises(CertificateError, match=f"ParseError: bad {'exponent vector' if field == 'exponent' else 'nvars'}"):
        verify_certificate(a, payload)


def _slots(tree, path=()):
    """(path, value) of every value below the root of a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _slots(value, path + (key,))


def _mutations(payload):
    """(kind, path, value) of every single mutation that applies to the payload."""
    for path, value in _slots(payload):
        key = path[-1]
        if isinstance(key, str):
            yield "delete", path, value
            yield "rename", path, value
        if isinstance(value, int) and not isinstance(value, bool):
            yield "perturb", path, value
        if key == "rule":
            yield "swap rule", path, value
        if key == "children" and value:
            yield "child", path, value
        yield "wrong type", path, value


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FIXTURES + (ORACLE_ONLY,)), st.data())
def test_verifier_mutation_fuzz(name, data):
    # a mutated payload either fails to verify or re-derives the same verdict
    a, verdict, payload = _decisive_payload(name)
    mutated = copy.deepcopy(payload)
    targets: dict = {}
    for kind, path, value in _mutations(mutated):
        targets.setdefault(kind, []).append((path, value))
    kind = data.draw(st.sampled_from(sorted(targets)))
    path, value = data.draw(st.sampled_from(targets[kind]))
    holder = mutated
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    if kind == "delete":
        del holder[key]
    elif kind == "rename":
        holder[key + "_renamed"] = holder.pop(key)
    elif kind == "perturb":
        holder[key] = value + data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    elif kind == "swap rule":
        holder[key] = data.draw(st.sampled_from([r for r in EMITTED_RULES if r != value]))
    elif kind == "child":
        j = data.draw(st.integers(0, len(value) - 1))
        if data.draw(st.booleans()):
            del value[j]
        else:
            value.insert(j, copy.deepcopy(value[j]))
    else:
        # a zero denominator and an exponent string replace strings too, so
        # that they reach the derivation coefficients of a SaitoBasis node
        wrong = (None, True, 7, "x", "1/0", "1e4000000", [], {})
        holder[key] = data.draw(
            st.sampled_from([w for w in wrong if type(w) is not type(value) or (isinstance(w, str) and w != value)])
        )
    try:
        got = verify_certificate(a, mutated)
    except CertificateError:
        return
    assert (got.kind, got.exponents) == (verdict.kind, verdict.exponents)
    # and the mutated payload claims no more than what re-derives
    assert mutated["kind"] == got.kind
    if mutated.get("exponents") is not None:
        assert mutated["exponents"] == list(got.exponents)


# ---------------------------------------------------------------------------
# randomized coherence


def test_locally_heavy_verdicts_match_two_lh_rule():
    # when the locally-heavy route proves NonFree on an irreducible rank-3
    # input with two locally heavy hyperplanes, the two-lh rule must agree
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        a = random_multiarrangement(rng, max_planes=5)
        i0 = rng.randrange(a.size)
        a = force_locally_heavy(a, i0, rng)
        lh = [i for i in range(a.size) if is_locally_heavy(a, i)]
        if len(lh) < 2 or rank(a) != 3:
            continue
        from arrfree.arrangement import reducibility

        if not reducibility(a).irreducible:
            continue
        v1 = nonfree_two_locally_heavy(a)
        assert v1.kind == "NonFree"
        v2 = certify_locally_heavy(a, i0)
        assert v2.kind in ("NonFree", "Inconclusive")
        checked += 1
