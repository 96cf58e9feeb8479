import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from arrfree.arrangement import (
    Flat,
    Hyperplane,
    Multiarrangement,
    ParseError,
    codim2_flats,
    deletion,
    essentialize,
    euler_ziegler_multiplicity,
    intersection_lattice,
    localization,
    parse,
    rank,
    reducibility,
    restriction_flats,
)
from arrfree.certify import certify
from arrfree.fixtures import boolean3, braid3, example52, example_a3, generic4, load, rank4_flag_example

from conftest import random_multiarrangement

F = Fraction


# ---------------------------------------------------------------------------
# parsing


def test_parse_boolean2():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1]})
    assert a.size == 2 and a.total_mult == 2


def test_parse_canonicalizes_scaling():
    a = parse({"dim": 3, "hyperplanes": [[2, -2, 0]], "mult": [1]})
    assert a.hyperplanes[0].normal == (F(1), F(-1), F(0))


def test_parse_example1():
    a = example_a3(1, 2)
    assert a.size == 6
    assert a.total_mult == 7


def test_parse_rational_strings():
    a = parse({"dim": 2, "hyperplanes": [["1/2", 1]], "mult": [3]})
    assert a.hyperplanes[0].normal == (F(1), F(2))  # canonicalized
    assert a.hyperplanes[0].coeffs == (1, 2)
    b = parse({"dim": 3, "hyperplanes": [["-3/4", "+2", "0/5"]], "mult": [1]})
    assert b.hyperplanes[0].coeffs == (3, -8, 0)


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        {"dim": 2, "hyperplanes": [[0, 0]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[1, 0], [2, 0]], "mult": [1, 1]},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": [0]},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": [1, 2]},
        {"dim": 2, "hyperplanes": [[1, 0, 0]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": []},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": [True]},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": ["2"]},
        {"dim": 2, "hyperplanes": [[1, 0]], "mult": [-1]},
        {"dim": True, "hyperplanes": [[1]], "mult": [1]},
        # normal entries are integers or "p/q" strings only
        {"dim": 2, "hyperplanes": [["1/0", 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[True, 0]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[False, 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [["1.5", 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [["1e400", 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [["1e999999999", 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[1.5, 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [[" 1", 1]], "mult": [1]},
        {"dim": 2, "hyperplanes": [["1" * 5000, 1]], "mult": [1]},
        '{"dim": 1, "hyperplanes": [[' + "1" * 5000 + ']], "mult": [1]}',
    ],
)
def test_parse_rejects(payload):
    with pytest.raises(ParseError):
        parse(payload)


@pytest.mark.parametrize(
    "build, name",
    [
        (boolean3, "boolean.json"),
        (lambda: boolean3((2, 3, 4)), "boolean_234.json"),
        (braid3, "braid.json"),
        (lambda: example_a3(1, 2), "example1_a1_m0_2.json"),
        (example52, "example52.json"),
        (lambda: example_a3(1, 2).with_mult(1, 2), "example52.json"),
        (generic4, "generic4.json"),
        (rank4_flag_example, "rank4_flag.json"),
    ],
)
def test_fixture_builders_equal_their_files(build, name):
    assert build() == load(name)


@pytest.mark.parametrize("coeffs", [(0, 0), (0, 0, 0), ()])
def test_hyperplane_refuses_a_zero_normal(coeffs):
    # the constructor takes coeffs as given, but never a zero normal, so
    # certify cannot meet one
    with pytest.raises(ParseError, match="zero normal vector"):
        Hyperplane(coeffs)
    with pytest.raises(ParseError, match="zero normal vector"):
        certify(Multiarrangement(2, (Hyperplane((1, 0)), Hyperplane(coeffs)), (1, 1)))


@pytest.mark.parametrize("coeffs", [(2, 0, 0), (0, 2, -4), (-1, 0), (0, -1, 1), (-2, 4)])
def test_hyperplane_refuses_a_non_primitive_normal(coeffs):
    # a normal with gcd > 1 or a negative lead names a hyperplane that has
    # another tuple, so equal hyperplanes would compare unequal
    with pytest.raises(ParseError, match="not primitive"):
        Hyperplane(coeffs)
    h = Hyperplane.from_coeffs(coeffs)
    assert h.coeffs != coeffs and Hyperplane(h.coeffs) == h


def test_from_coeffs_refuses_an_exponent_string_before_expanding_it():
    # read through Fraction(str), "1e40000000" built 10**40000000
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exact numbers are"):
        Hyperplane.from_coeffs(["1e40000000", 1])
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bad", ["1.5", "1e3", True])
def test_from_coeffs_refuses_what_the_parser_refuses(bad):
    # one reader of exact numbers (`_entry`) for the parser and from_coeffs
    with pytest.raises(ParseError, match="exact numbers are"):
        Hyperplane.from_coeffs([bad, 1])


def test_a_scaled_copy_is_refused_not_taken_for_a_second_hyperplane():
    # x and 2x: accepted as two hyperplanes, certify met a zero form
    with pytest.raises(ParseError, match="not primitive"):
        Multiarrangement(
            3,
            (Hyperplane((1, 0, 0)), Hyperplane((2, 0, 0)), Hyperplane((0, 1, 0)), Hyperplane((0, 0, 1))),
            (1, 1, 1, 1),
        )
    with pytest.raises(ParseError, match="duplicate"):
        Multiarrangement(3, tuple(Hyperplane.from_coeffs(v) for v in ((1, 0, 0), (2, 0, 0), (0, 1, 0))), (1, 1, 1))


def test_a_negative_lead_is_refused_not_taken_for_a_second_hyperplane():
    # x and -x: accepted as two hyperplanes, certify raised StopIteration
    with pytest.raises(ParseError, match="not primitive"):
        Multiarrangement(2, (Hyperplane((1, 0)), Hyperplane((-1, 0)), Hyperplane((0, 1))), (1, 1, 1))
    with pytest.raises(ParseError, match="duplicate"):
        Multiarrangement(2, tuple(Hyperplane.from_coeffs(v) for v in ((1, 0), (-1, 0), (0, 1))), (1, 1, 1))


def test_duplicates_not_merged():
    # same hyperplane twice, even with different scale, is a modeling error
    with pytest.raises(ParseError, match="duplicate"):
        parse({"dim": 3, "hyperplanes": [[1, -1, 0], [-2, 2, 0]], "mult": [1, 2]})


# ---------------------------------------------------------------------------
# lattice


def test_lattice_boolean():
    flats = codim2_flats(boolean3())
    assert len(flats) == 3
    assert all(len(f.members) == 2 for f in flats)


def test_lattice_braid():
    flats = codim2_flats(braid3())
    sizes = sorted(len(f.members) for f in flats)
    assert sizes == [2, 2, 2, 3, 3, 3, 3]


def test_lattice_rank4_example():
    flats = codim2_flats(rank4_flag_example())
    sizes = sorted(len(f.members) for f in flats)
    assert len(flats) == 28
    assert sizes.count(2) == 21 and sizes.count(3) == 6 and sizes.count(4) == 1


def test_lattice_max_codim_guard():
    with pytest.raises(ValueError):
        intersection_lattice(boolean3(), 4)


def test_pair_counting_invariant():
    rng = random.Random(7)
    for _ in range(20):
        a = random_multiarrangement(rng)
        flats = codim2_flats(a)
        assert sum(comb(len(f.members), 2) for f in flats) == comb(a.size, 2)
        # every unordered pair appears in exactly one codim-2 flat
        seen = set()
        for f in flats:
            for pair in {(i, j) for i in f.members for j in f.members if i < j}:
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == comb(a.size, 2)


# ---------------------------------------------------------------------------
# localization / restriction


def test_localization_boolean():
    a = boolean3((2, 3, 4))
    f = next(f for f in codim2_flats(a) if f.members == frozenset({0, 1}))
    loc = localization(a, f)
    assert loc.size == 2 and loc.mult == (2, 3) and loc.dim == 3


def test_localization_example1_triple():
    a = example_a3(1, 2)
    # x, x-z, z meet in the flat through the y-axis
    f = next(f for f in codim2_flats(a) if f.members == frozenset({0, 2, 5}))
    loc = localization(a, f)
    assert loc.mult == (1, 1, 2)
    assert {h.normal for h in loc.hyperplanes} == {
        (F(1), F(0), F(0)),
        (F(1), F(0), F(-1)),
        (F(0), F(0), F(1)),
    }


def test_localization_codim1():
    a = braid3()
    f = intersection_lattice(a, 1)[1][0]
    loc = localization(a, f)
    assert loc.size == 1


def test_localization_foreign_flat():
    a = braid3()
    f = codim2_flats(boolean3((2, 3, 4)).with_mult(0, 1))[0]
    foreign = codim2_flats(parse({"dim": 3, "hyperplanes": [[1, 1, 1], [1, 2, 3]], "mult": [1, 1]}))[0]
    with pytest.raises(ValueError):
        localization(a, foreign)
    del f


# braid3: x, y, z, x-y, x-z, y-z; {0, 1} is not closed, since x-y lies in
# the span of x and y
FOREIGN_FLATS = {
    "index past the end": Flat(2, frozenset({0, 9})),
    "negative index": Flat(2, frozenset({-1, 0})),
    "wrong codim": Flat(3, frozenset({0, 1, 3})),
    "not closed": Flat(2, frozenset({0, 1})),
    "single member": Flat(2, frozenset({0})),
}


@pytest.mark.parametrize("flat", FOREIGN_FLATS.values(), ids=FOREIGN_FLATS.keys())
def test_localization_rejects_foreign_flat(flat):
    with pytest.raises(ValueError):
        localization(braid3(), flat)


def test_localization_of_the_whole_space_is_empty():
    loc = localization(braid3(), Flat(0, frozenset()))
    assert loc.size == 0 and loc.dim == 3


def test_restriction_flats_boolean():
    a = boolean3()
    flats = restriction_flats(a, 2)
    assert [f.sorted_members() for f in flats] == [(0, 2), (1, 2)]


def test_restriction_flats_example1():
    a = example_a3(1, 2)
    flats = restriction_flats(a, 5)  # z
    members = sorted(f.sorted_members() for f in flats)
    assert members == [(0, 2, 5), (1, 5), (3, 4, 5)]


def test_restriction_flats_braid():
    a = braid3()
    flats = restriction_flats(a, 3)  # x-y
    members = sorted(f.sorted_members() for f in flats)
    assert members == [(0, 1, 3), (2, 3), (3, 4, 5)]


def _restriction_profile(r):
    return sorted(zip((h.normal for h in r.hyperplanes), r.mult))


def test_euler_ziegler_example1():
    for a_ in (1, 2):
        arr = example_a3(a_, 2 * a_)
        r = euler_ziegler_multiplicity(arr, 5)
        # Q of the restriction is x^{2a} y^{2a} (x-y)^a
        assert sorted(r.mult) == sorted([2 * a_, 2 * a_, a_])
        assert r.dim == 2
        assert sum(r.mult) == arr.total_mult - arr.mult[5]


def test_euler_ziegler_boolean():
    r = euler_ziegler_multiplicity(boolean3((2, 3, 4)), 2)
    assert _restriction_profile(r) == sorted([((F(1), F(0)), 2), ((F(0), F(1)), 3)])


def test_euler_ziegler_braid_simple():
    r = euler_ziegler_multiplicity(braid3(), 3)  # x-y
    assert sorted(r.mult) == [1, 2, 2]


def test_euler_ziegler_independent_of_h0_multiplicity():
    rng = random.Random(11)
    for _ in range(15):
        a = random_multiarrangement(rng)
        i0 = rng.randrange(a.size)
        r1 = euler_ziegler_multiplicity(a, i0)
        r2 = euler_ziegler_multiplicity(a.with_mult(i0, a.mult[i0] + 3), i0)
        assert r1 == r2
        assert all(m >= 1 for m in r1.mult)


def test_euler_ziegler_members_include_h0():
    a = example_a3(1, 2)
    assert all(5 in f.members for f in restriction_flats(a, 5))


# ---------------------------------------------------------------------------
# deletion


def test_deletion_removes_simple():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [1, 1]})
    d = deletion(a, 0)
    assert d.size == 1 and d.hyperplanes[0].normal == (F(0), F(1))


def test_deletion_decrements():
    a = parse({"dim": 2, "hyperplanes": [[1, 0], [0, 1]], "mult": [2, 3]})
    d = deletion(a, 0)
    assert d.mult == (1, 3)


def test_deletion_example1():
    a = example_a3(1, 3)
    d = deletion(a, 5)
    assert d.mult == (1, 1, 1, 1, 1, 2)
    assert d.total_mult == a.total_mult - 1


def test_selection_keeps_the_members_labels():
    # both paths of deletion, and localization, carry the labels of the
    # hyperplanes they keep; of an unlabeled input they carry none, and
    # serialize without them
    a = braid3()
    assert deletion(a, 1).labels == ("x", "z", "x-y", "x-z", "y-z")
    assert deletion(a.with_mult(1, 2), 1).labels == a.labels
    assert localization(a, Flat(2, frozenset({1, 2, 5}))).labels == ("y", "z", "y-z")
    a = parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], "mult": [1, 2, 1, 1]})
    for b in (deletion(a, 0), deletion(a, 1), localization(a, Flat(2, frozenset({0, 1, 3})))):
        assert b.labels is None and "labels" not in b.to_dict()


def test_deletion_readdition_identity():
    a = boolean3((2, 3, 4))
    d = deletion(a, 2)
    assert d.with_mult(2, d.mult[2] + 1) == a
    s = braid3()
    d = deletion(s, 4)
    back = Multiarrangement(
        d.dim,
        d.hyperplanes[:4] + (s.hyperplanes[4],) + d.hyperplanes[4:],
        d.mult[:4] + (1,) + d.mult[4:],
        d.labels[:4] + (s.labels[4],) + d.labels[4:],
    )
    assert back == s


def test_deletion_foreign_hyperplane():
    with pytest.raises(ValueError):
        deletion(braid3(), Hyperplane.from_coeffs([1, 1, 1]))


# ---------------------------------------------------------------------------
# reducibility / rank / essentialization


def test_reducibility_coordinate_split():
    a = parse(
        {"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, 1]], "mult": [1] * 4}
    )
    red = reducibility(a)
    assert red.blocks == ((0, 1, 2), (3,))
    assert red.nonessential_dim == 0


def test_reducibility_braid_irreducible():
    red = reducibility(braid3())
    assert red.irreducible


def test_reducibility_nonessential():
    a = parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0]], "mult": [1, 1]})
    red = reducibility(a)
    assert red.blocks == ((0,), (1,))
    assert red.nonessential_dim == 1


def test_reducibility_block_rank_additivity():
    rng = random.Random(23)
    for _ in range(20):
        a = random_multiarrangement(rng)
        red = reducibility(a)
        total = 0
        for block in red.blocks:
            sub = Multiarrangement(
                a.dim,
                tuple(a.hyperplanes[i] for i in block),
                tuple(a.mult[i] for i in block),
            )
            total += rank(sub)
        assert total == rank(a)


def test_rank_examples():
    assert rank(boolean3()) == 3
    assert rank(parse({"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0]], "mult": [1, 1]})) == 2
    assert rank(example52()) == 3


def test_essentialize():
    a = parse({"dim": 4, "hyperplanes": [[1, 0, 0, 0], [0, 1, 0, 0], [1, -1, 0, 0]], "mult": [1, 2, 1]})
    ess, dropped = essentialize(a)
    assert dropped == 2 and ess.dim == 2 and rank(ess) == 2
    assert ess.mult == a.mult


def test_to_dict_roundtrip():
    a = example_a3(2, 5)
    assert parse(json.loads(json.dumps(a.to_dict()))) == a
