"""Seeded inputs, operations and reference checks of the three workloads.

Every workload turns each of a list of seeds into a list of `Case`s: the
same inputs in another presentation (hyperplane order, and on the panels
also coordinates).  A case's `run` is one timed operation; it calls
arrfree through module attributes looked up at call time, so that the
tracer's rebinding applies to it.  Program caches are cleared before the
first case of each `group`: a sweep is one group (rows share warm caches,
as in one `arrfree sweep` call), every other case is a group of its own
(one `arrfree certify` or `arrfree oracle` call).
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

# The lattice-rank4 and oracle-hilbert inputs are fixed panels of
# arrangements drawn once from this seed.  The workload seed draws a fresh
# coordinate system (a signed permutation) and hyperplane order for every
# member, so that each seed runs different inputs with the same intersection
# lattices: the same work and the same decided share, whatever the seed.
PANEL_SEED = 190602188

ORACLE_CAP = 4
EXAMPLE52_CAP = 8

ORACLE_KINDS = {"FreeProven": "Free", "NonFreeProven": "NonFree", "Undetermined": "Inconclusive"}


@dataclass(frozen=True)
class Case:
    key: str  # stable name of the input within its workload
    group: str
    run: Callable[[], tuple]  # () -> (Multiarrangement, Verdict | HilbertResult)
    expect: tuple | None = None  # closed-form ("Free", exponents) or ("NonFree", None)


class Api:
    """arrfree's modules, imported from the checkout's sources."""

    def __init__(self):
        for name in ("arrangement", "betti", "certify", "fixtures", "oracle"):
            setattr(self, name, importlib.import_module(f"arrfree.{name}"))

    def caches(self) -> list:
        """Every lru cache of the program (b2_multi, _min_degree_basis, ...)."""
        found = {}
        for name, mod in sorted(sys.modules.items()):
            if name == "arrfree" or name.startswith("arrfree."):
                for value in vars(mod).values():
                    if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                        found[id(value)] = value
        return list(found.values())


def summary(result) -> dict:
    """Verdict kind (Free / NonFree / Inconclusive) and Free exponents."""
    kind = ORACLE_KINDS.get(result.kind, result.kind)
    exps = result.exponents if kind == "Free" else None
    return {"kind": kind, "exponents": list(exps) if exps is not None else None}


# ---------------------------------------------------------------------------
# presentations


def _coordinate_change(rng: random.Random, dim: int):
    """A random signed permutation of the coordinates."""
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: [s * v[p] for p, s in zip(perm, signs)]


def _present(rng: random.Random, normals, mult) -> dict:
    """The arrangement in a random coordinate system and hyperplane order."""
    change = _coordinate_change(rng, len(normals[0]))
    order = list(range(len(normals)))
    rng.shuffle(order)
    return {
        "dim": len(normals[0]),
        "hyperplanes": [change(normals[i]) for i in order],
        "mult": [mult[i] for i in order],
    }


def type_b_normals(n: int) -> list[list[int]]:
    """The n coordinate hyperplanes followed by x_i - x_j, x_i + x_j (i < j)."""
    out = [[int(i == k) for k in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for s in (-1, 1):
            out.append([1 if k == i else s if k == j else 0 for k in range(n)])
    return out


def e2(exps) -> int:
    return sum(x * y for x, y in itertools.combinations(exps, 2))


# ---------------------------------------------------------------------------
# sweep-mult: multiplicity sweeps over two templates, as `arrfree sweep` runs them


B3_TEMPLATE = {
    "dim": 3,
    "hyperplanes": type_b_normals(3),
    "mult": ["a", "a", "m0", "a", "a", "a", "a", "a", "a"],
    "require": ["m0 >= 3*a"],
}


def _sweep_row(api, cli, template: dict, params: dict):
    """One sweep row: evaluate the template at params, parse, certify.

    A copy of the row loop of `arrfree.cli.cmd_sweep`, so that every row is
    timed on its own.  It certifies with the options `arrfree sweep` uses by
    default (no oracle, no degree cap, seed 0).  It differs in three ways:
    a row that violates a `require` rule or has a non-integral multiplicity
    raises (and so counts as failed) where cmd_sweep reports it as
    rejected; it evaluates no expression parameters (the templates have
    none); and it builds no output row.  A change to cmd_sweep's own loop
    does not show here; a change to certify or below does.
    """
    env = {name: Fraction(value) for name, value in params.items()}
    for rule in template.get("require", []):
        if not cli.eval_expr(rule, env):
            raise ValueError(f"row {params} violates {rule!r}")
    mult = []
    for m in template["mult"]:
        value = m if isinstance(m, int) else cli.eval_expr(m, env)
        if Fraction(value).denominator != 1:
            raise ValueError(f"non-integral multiplicity {value}")
        mult.append(int(value))
    spec = {k: v for k, v in template.items() if k in ("dim", "hyperplanes", "labels")}
    spec["mult"] = mult
    a = api.arrangement.parse(spec)
    return a, api.certify.certify(a, api.certify.CertifyOptions(use_oracle=False, oracle_cap=None, seed=0))


def _shuffle_template(rng: random.Random, template: dict) -> dict:
    """The template with its hyperplanes in a random order.

    Unlike the other workloads, the sweeps keep the template's coordinates:
    a signed permutation of them changes the rank-2 work of a grid by up to
    a third (Σ rows·cols of the eliminations), while the order changes it
    by about 2%.
    """
    order = list(range(len(template["hyperplanes"])))
    rng.shuffle(order)
    return {
        "dim": template["dim"],
        "hyperplanes": [template["hyperplanes"][i] for i in order],
        "mult": [template["mult"][i] for i in order],
        "require": list(template["require"]),
    }


def sweep_mult(api: Api, seeds: list) -> list[list[Case]]:
    """A3 (`example1_template`, m0 >= 2a) and B3 (heavy z, m0 >= 3a) grids.

    For every a, the grid holds the boundary row m0 = floor*a and the rows
    m0 = floor*a + 1 and + 4, so that |m| runs from 7 to 48.  Each seed
    draws each template's hyperplane order.
    """
    cli = importlib.import_module("arrfree.cli")
    with open(api.fixtures.fixture_path("example1_template.json"), encoding="utf-8") as fh:
        a3 = json.load(fh)
    variants = []
    for seed in seeds:
        rng = random.Random(seed)
        cases = []
        for family, template, a_values, floor in (
            ("A3", a3, range(1, 7), 2),
            ("B3", B3_TEMPLATE, range(1, 5), 3),
        ):
            shown = _shuffle_template(rng, template)
            for a in a_values:
                for m0 in (floor * a + k for k in (0, 1, 4)):
                    params = {"a": a, "m0": m0}
                    expect = None
                    if family == "A3":
                        # acceptance criterion C1: free with exponents (m0, 2, 3) iff a = 1
                        expect = ("Free", sorted([m0, 2, 3])) if a == 1 else ("NonFree", None)
                    run = partial(_sweep_row, api, cli, shown, params)
                    cases.append(Case(f"{family} a={a} m0={m0}", family, run, expect))
        variants.append(cases)
    return variants


# ---------------------------------------------------------------------------
# lattice-rank4 and oracle-hilbert: fixed panels in seeded presentations


def _presented(api, seeds: list, panel) -> list[list[Case]]:
    """Per seed, one case per panel entry (key, normals, mult, expect, run),
    each input in a coordinate system and hyperplane order drawn from the
    seed."""
    variants = []
    for seed in seeds:
        rng = random.Random(seed)
        cases = []
        for key, normals, mult, expect, run in panel:
            a = api.arrangement.parse(_present(rng, normals, mult))
            cases.append(Case(key, key, partial(run, api, a), expect))
        variants.append(cases)
    return variants


def _certify_case(api, a):
    return a, api.certify.certify(a, api.certify.CertifyOptions())


def lattice_rank4(api: Api, seeds: list) -> list[list[Case]]:
    """certify on subsets of the 16 B4 hyperplanes (five of each size
    8..13), plus D4, essential A4, B4 and the `rank4_flag` fixture."""
    b4 = type_b_normals(4)
    a4 = [[int(i == k) for k in range(4)] for i in range(4)] + [
        [1 if k == i else -1 if k == j else 0 for k in range(4)]
        for i, j in itertools.combinations(range(4), 2)
    ]
    flag = [list(map(int, h.normal)) for h in api.fixtures.rank4_flag_example().hyperplanes]
    panel = []
    prng = random.Random(PANEL_SEED)
    seen = set()
    for k in range(8, 14):
        made = 0
        while made < 5:
            sub = tuple(sorted(prng.sample(range(16), k)))
            normals = [b4[i] for i in sub]
            if sub in seen or api.arrangement.rank(_parse(api, normals, [1] * k)) < 4:
                continue
            seen.add(sub)
            made += 1
            panel.append((f"B4 subset k={k} #{made}", normals, None))
    # reflection arrangements are free with their Coxeter exponents
    panel += [
        ("D4", b4[4:], ("Free", [1, 3, 3, 5])),
        ("A4", a4, ("Free", [1, 2, 3, 4])),
        ("B4", b4, ("Free", [1, 3, 5, 7])),
        ("rank4_flag", flag, ("Free", [1, 3, 3, 3])),
    ]
    return _presented(api, seeds, [(key, n, [1] * len(n), expect, _certify_case) for key, n, expect in panel])


def _parse(api, normals, mult):
    return api.arrangement.parse({"dim": len(normals[0]), "hyperplanes": normals, "mult": mult})


def _hilbert_case(api, a, cap=ORACLE_CAP):
    return a, api.oracle.hilbert_freeness_test(a, degree_cap=cap)


def oracle_hilbert(api: Api, seeds: list) -> list[list[Case]]:
    """hilbert_freeness_test at degree cap ORACLE_CAP on essential rank-3
    multiarrangements with 4 or 5 hyperplanes, normal entries in {-1, 0, 1}
    and multiplicities 1 or 2 (four per hyperplane count and number of
    doubled hyperplanes); plus Example 5.2 at cap EXAMPLE52_CAP."""
    normals = [list(v) for v in itertools.product((0, 1, -1), repeat=3) if any(v) and next(x for x in v if x) == 1]
    panel = []
    prng = random.Random(PANEL_SEED)
    seen = set()
    for n in (4, 5):
        for doubled in range(n + 1):
            made = 0
            while made < 4:
                picked = prng.sample(normals, n)
                twice = set(prng.sample(range(n), doubled))
                mult = [2 if i in twice else 1 for i in range(n)]
                ident = frozenset((tuple(v), m) for v, m in zip(picked, mult))
                if ident in seen or api.arrangement.rank(_parse(api, picked, mult)) < 3:
                    continue
                seen.add(ident)
                made += 1
                panel.append((f"n={n} doubled={doubled} #{made}", picked, mult, None, _hilbert_case))
    ex52 = api.fixtures.example52()
    # Example 5.2 is nonfree (two locally heavy hyperplanes, irreducible rank 3)
    panel.append(
        (
            "example52",
            [list(map(int, h.normal)) for h in ex52.hyperplanes],
            list(ex52.mult),
            ("NonFree", None),
            partial(_hilbert_case, cap=EXAMPLE52_CAP),
        )
    )
    return _presented(api, seeds, panel)


WORKLOADS = {
    "sweep-mult": sweep_mult,
    "lattice-rank4": lattice_rank4,
    "oracle-hilbert": oracle_hilbert,
}


# ---------------------------------------------------------------------------
# checks


def check_outcome(api: Api, case: Case, a, got: dict) -> list[str]:
    """Problems with one operation's summarized result; [] when it passes.

    Inconclusive is never a problem.  Free must have rank-many exponents
    summing to |m| with b2 = e2(exponents) (a free multiarrangement has
    characteristic polynomial prod(t - d_i)), and decisive results must
    agree with the case's closed form.
    """
    problems = []
    if got["kind"] == "Free":
        exps = got["exponents"]
        if len(exps) != api.arrangement.rank(a):
            problems.append(f"{len(exps)} exponents for rank {api.arrangement.rank(a)}")
        if sum(exps) != a.total_mult:
            problems.append(f"exponents sum to {sum(exps)}, |m| = {a.total_mult}")
        b2 = api.betti.b2_multi(a).total
        if b2 != e2(exps):
            problems.append(f"b2 = {b2} but e2(exponents) = {e2(exps)}")
    if case.expect is not None and got["kind"] != "Inconclusive":
        kind, exps = case.expect
        if got["kind"] != kind or (kind == "Free" and sorted(got["exponents"]) != exps):
            problems.append(f"closed form says {kind} {exps}, got {got}")
    return problems


def contradiction(x: dict, y: dict) -> bool:
    """Two decisive summaries that disagree on the kind or the exponents."""
    if "Inconclusive" in (x["kind"], y["kind"]):
        return False
    return x != y
