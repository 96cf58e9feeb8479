"""Freeness and nonfreeness certification with machine-checkable proof trees.

Every rule is one record of the table RULES, in dispatch order: its
dispatch name, its attempt, and the re-derivation of each certificate rule
it emits.  The same table, in the same order, certifies the input and every
Euler-Ziegler restriction the locally-heavy rule recurses into.  Verdicts
are three-valued; the engine never guesses where no rule applies.

The verifier keeps no second copy of the rules: RECHECKS, read off RULES,
maps each certificate rule to the function that proved it, which re-derives
the node from the arrangement and the choices the node cites (a flag, a
hyperplane, a Saito basis, a degree cap); the re-derived node must equal
the cited one.  Flags have one walk (`_heavy_flags`): the prover decides
the first flag it yields, and the verifier walks the chain a node cites,
with one candidate per level, and decides that flag by the same
`_flag_verdict`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from . import oracle
from .arrangement import (
    Flat,
    Hyperplane,
    Level,
    Multiarrangement,
    _flats_over,
    _select,
    essentialize,
    euler_ziegler_multiplicity,
    is_locally_heavy,
    locally_heavy_indices,
    rank,
    reducibility,
    restriction_flats,
    restriction_rows,
)
from .betti import b2_away, b2_multi, b2_simple
from .rank2 import _closed_d1, flat_exponents

RULE_RANK2 = "Rank2Base"
RULE_LOCALLY_HEAVY = "LocallyHeavyRestriction"
RULE_FLAG = "FlagEquality"
RULE_GENERIC = "GenericTotallyNonfree"
RULE_TWO_LH = "TwoLocallyHeavy"
RULE_SAITO = "SaitoBasis"
RULE_HILBERT = "HilbertObstruction"


class CertificateError(ValueError):
    """A certificate failed re-verification."""


@dataclass(frozen=True)
class CertNode:
    rule: str
    inputs: dict
    numbers: dict
    children: tuple["CertNode", ...] = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "inputs": self.inputs,
            "numbers": self.numbers,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CertNode":
        return cls(
            data["rule"],
            dict(data.get("inputs", {})),
            dict(data.get("numbers", {})),
            tuple(cls.from_dict(c) for c in data.get("children", [])),
        )


@dataclass(frozen=True)
class Verdict:
    kind: str  # "Free" | "NonFree" | "Inconclusive"
    exponents: tuple[int, ...] | None = None
    witness: dict | None = None
    reason: str | None = None
    certificate: CertNode | None = None

    def __post_init__(self):
        if self.kind not in ("Free", "NonFree", "Inconclusive"):
            raise ValueError(f"bad verdict kind {self.kind}")

    @property
    def decisive(self) -> bool:
        return self.kind != "Inconclusive"

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.exponents is not None:
            out["exponents"] = list(self.exponents)
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        out["certificate"] = self.certificate.to_dict() if self.certificate else None
        return out


@dataclass(frozen=True)
class CertifyOptions:
    use_oracle: bool = False
    oracle_cap: int | None = None
    seed: int = 0
    only_rule: str | None = None


@dataclass(frozen=True)
class Flag:
    """Chain X_1 > X_2 > ... > X_l, each given by the set of hyperplanes
    containing it, with the per-level restriction multiplicities; the
    leading value is 1 by convention."""

    members_chain: tuple[frozenset[int], ...]
    values: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "members_chain": [sorted(m) for m in self.members_chain],
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Flag":
        return cls(
            tuple(frozenset(m) for m in data["members_chain"]),
            tuple(data["values"]),
        )


def is_generic_hyperplane(a: Multiarrangement, h: Hyperplane | int) -> bool:
    """All codim-2 flats inside h have exactly two members; simple input only."""
    if not a.is_simple():
        raise ValueError("generic hyperplanes are defined for simple arrangements")
    i = a.index_of(h)
    return all(len(f.members) == 2 for f in restriction_flats(a, i))


# ---------------------------------------------------------------------------
# flag search


def find_locally_heavy_flags(a: Multiarrangement) -> list[Flag]:
    """All full flags whose restriction steps are locally heavy, in key
    order: by the sorted members of each level, level by level.

    The prover's walk (`_heavy_flags`), in full: the first flat ranges over
    all hyperplanes, and each later flat over the locally heavy hyperplanes
    of the iterated Euler-Ziegler restriction, each level read from its
    parent's row (`arrangement.restriction_rows`).
    """
    if not a.is_simple():
        raise ValueError("flag search needs a simple arrangement")
    return [f for f, _ in _heavy_flags(Level.of(a))]


def _heavy_flags(
    level: Level,
    cited: Sequence[frozenset[int]] | None = None,
    chain: tuple[frozenset[int], ...] = (),
    values: tuple[int, ...] = (),
    heavy: Sequence[int] | None = None,
    parent: Level | None = None,
):
    """Yield (flag, tail) for every locally heavy flag completing the
    partial flag (chain, values) at `level`, whose candidates are `heavy`
    (all hyperplanes on the first level); `tail` is the flag's rank-2 level
    (None on a line).  The prover walks every candidate and takes the first
    flag, the least.

    With a `cited` chain of member sets, one per level of a full flag, each
    level has one candidate, the hyperplane whose member set is cited, and
    the walk yields that flag alone.  It raises ValueError when no
    hyperplane of a level has the cited member set, or when, below the
    first level, that hyperplane is not among its parent row's heavy
    points.  The verifier re-walks a certificate's flag this way, so the
    prover and the verifier read a flag by one walk.

    One row step (`restriction_rows`) reads every restriction of the level
    in turn: its locally heavy hyperplanes, multiplicities and codim-2
    table.  The walk builds the child level from row k alone
    (`Level.restriction`), so it never restricts, and reads the rows only
    up to the candidate it visits.  The prover descends into hyperplane k
    only when that restriction has a locally heavy hyperplane; a level
    without a candidate yields nothing, so pruning keeps every flag and its
    order.

    Candidates are visited in index order, so that rows are read in their
    order, and index order is key order: the member sets of a level share
    one part S (the walked hyperplane's member set; nothing on the first
    level), so their key order is the order of their least input indices
    off S, and that order is index order.  On the first level member set k
    is {k}.  Below hyperplane H, the child's hyperplanes are the points of
    row H in member order; two points share only H, so they come in the
    order of their least members j != H.  A point's least input index off
    H's member set is that of j, by the order one level up, so it goes up
    with j.  Distinct hyperplanes of a level have distinct member sets, so
    the first flag is the least."""
    if cited is None:
        candidates = range(len(level.mult)) if heavy is None else heavy
    else:
        want = cited[len(chain)]
        k = next((k for k, m in enumerate(level.members) if m == want), None)
        if k is None:
            raise ValueError("flag level does not match a restriction hyperplane")
        if heavy is not None and k not in heavy:
            raise ValueError("flag level is not locally heavy")
        candidates = (k,)
    if level.dim == 1:
        for k in candidates:
            yield Flag(chain + (level.members[k],), values + (level.mult[k],)), parent
        return
    rows = enumerate(restriction_rows(level))
    for k in candidates:
        row = next(row for i, row in rows if i == k)
        if row.heavy or cited is not None:
            chain_k, values_k = chain + (level.members[k],), values + (level.mult[k],)
            yield from _heavy_flags(level.restriction(k, row), cited, chain_k, values_k, row.heavy, level)


def certify_flag(a: Multiarrangement, f: Flag) -> Verdict:
    """Decide freeness of a simple arrangement from a locally heavy flag,
    walked along its cited chain only (`_heavy_flags`); its values must be
    the restriction multiplicities met on the way."""
    if not a.is_simple():
        raise ValueError("flags are defined for simple arrangements")
    if len(f.members_chain) != a.dim or len(f.values) != a.dim:
        raise ValueError("flag has wrong length")
    walked, tail = next(_heavy_flags(Level.of(a), f.members_chain))
    if walked.values != f.values:
        raise ValueError("flag level multiplicity mismatch")
    return _flag_verdict(a, walked, tail)


def _flag_verdict(a: Multiarrangement, f: Flag, tail: Level | None) -> Verdict:
    """Both sides of the flag equality are computed exactly: equality proves
    freeness with exponents (1, v_1, ..., v_{l-1}); inequality disproves it.
    `tail` is the flag's rank-2 level, whose b2 is d1*d2 with d1 + d2 = |m|;
    the flag's hyperplane there is heavy, so `_closed_d1` fixes d1."""
    v = f.values
    l = a.dim
    lhs = b2_simple(a).total
    rhs = sum(v[i] * v[j] for i in range(l) for j in range(i + 1, l))

    # The away-quantities b2(level i) - v[i]*(v[i+1] + ... + v[l-1]) of the
    # levels above the rank-2 tail telescope.  The middle levels cancel and
    # rhs = sum_i v[i]*(v[i+1] + ... + v[l-1]), so the telescope holds
    # exactly when the tail's b2 is v[l-2]*v[l-1] and level 0's is lhs.
    # Level 0 is simple, so lhs is its `b2_multi`, which reads every flat's
    # exponents (1, |X| - 1) off its multiplicities and projects no flat.
    if l >= 3:
        d1 = _closed_d1(tail.mult)
        assert d1 * (sum(tail.mult) - d1) == v[l - 2] * v[l - 1], "rank-2 tail must have the flag exponents"

    inputs = {"flag": f.to_dict()}
    numbers = {"b2": lhs, "flag_rhs": rhs, "level_values": list(v)}
    node = CertNode(RULE_FLAG, inputs, numbers)
    if lhs == rhs:
        return Verdict("Free", tuple(sorted(v)), certificate=node)
    return Verdict("NonFree", witness={"b2": lhs, "flag_rhs": rhs}, certificate=node)


# ---------------------------------------------------------------------------
# locally heavy recursion


def _rank2_base(a: Multiarrangement) -> Verdict:
    r = rank(a)
    if r > 2:
        raise ValueError("rank-2 base case needs rank <= 2")
    if r == 0:
        exps: tuple[int, ...] = ()
    elif r == 1:
        exps = (a.total_mult,)
    else:
        exps = flat_exponents(a, Flat(2, frozenset(range(a.size))))
    node = CertNode(
        RULE_RANK2,
        {"arrangement": a.to_dict()},
        {"rank": r, "exponents": list(exps)},
    )
    return Verdict("Free", exps, certificate=node)


def certify_locally_heavy(
    a: Multiarrangement,
    h0: Hyperplane | int,
    opts: CertifyOptions = CertifyOptions(),
    *,
    decide: Callable[[Multiarrangement], Verdict] | None = None,
) -> Verdict:
    """Apply the restriction criterion at a locally heavy hyperplane.

    Freeness is equivalent to the Euler-Ziegler restriction being free with
    the away-b2 equal to the restriction's b2.  `decide` settles the
    restriction; by default it is the whole rule table, in the same order as
    the input (`opts.only_rule` does not apply below the top level).
    """
    i0 = a.index_of(h0)
    if not is_locally_heavy(a, i0):
        raise ValueError(f"hyperplane {a.label(i0)} is not locally heavy")
    restr = euler_ziegler_multiplicity(a, i0)
    away, rb2 = b2_away(a, i0), b2_multi(restr).total
    assert away >= rb2, "away-b2 inequality violated"
    inputs = {
        "h0": i0,
        "h0_form": a.hyperplanes[i0].form_str(),
        "restriction": restr.to_dict(),
    }
    numbers = {"m0": a.mult[i0], "away_b2": away, "restriction_b2": rb2}
    if away != rb2:
        node = CertNode(RULE_LOCALLY_HEAVY, inputs, numbers)
        return Verdict(
            "NonFree",
            witness={"away_b2": away, "restriction_b2": rb2, "h0": i0},
            certificate=node,
        )
    sub = decide(restr) if decide else _dispatch(restr, opts, RULES)
    node = CertNode(
        RULE_LOCALLY_HEAVY,
        inputs,
        numbers,
        (sub.certificate,) if sub.certificate else (),
    )
    if sub.kind == "Free":
        exps = tuple(sorted((numbers["m0"],) + tuple(sub.exponents)))
        return Verdict("Free", exps, certificate=node)
    if sub.kind == "NonFree":
        return Verdict(
            "NonFree",
            witness={"restriction_nonfree": sub.witness or {}, "h0": i0},
            certificate=node,
        )
    return Verdict(
        "Inconclusive",
        reason=f"restriction undecided: {sub.reason}",
        certificate=node,
    )


# ---------------------------------------------------------------------------
# nonfreeness rules


def nonfree_generic(a: Multiarrangement, h: Hyperplane | int) -> Verdict:
    """An irreducible arrangement of rank > 2 with a generic hyperplane is
    totally nonfree, so the given multiarrangement is nonfree."""
    s = a.underlying_simple()
    i = a.index_of(h)
    r = rank(s)
    if r <= 2:
        return Verdict("Inconclusive", reason="rank must exceed 2 for the generic rule")
    if not is_generic_hyperplane(s, i):
        return Verdict("Inconclusive", reason=f"{a.label(i)} is not generic")
    red = reducibility(s)
    if not red.irreducible:
        return Verdict("Inconclusive", reason="arrangement is reducible")
    node = CertNode(
        RULE_GENERIC,
        {"h": i, "h_form": a.hyperplanes[i].form_str()},
        {"rank": r, "blocks": len(red.blocks)},
    )
    return Verdict("NonFree", witness={"generic_hyperplane": i}, certificate=node)


def nonfree_two_locally_heavy(a: Multiarrangement) -> Verdict:
    """Nonfreeness from two locally heavy hyperplanes.

    Rank 3: irreducible implies nonfree (the reducible case is free but no
    exponents are derived here, so it stays inconclusive).  Rank > 3: look
    for a rank-3 flat under both hyperplanes whose localization is
    irreducible apart from its non-essential part.  Those flats are the
    rank-3 flats over the codim-2 flat that holds both (`_flats_over`), and
    each pair tries them in member order, skipping a flat that an earlier
    pair rejected: whether a flat qualifies does not depend on the pair.
    """
    lh = locally_heavy_indices(a)
    if len(lh) < 2:
        return Verdict("Inconclusive", reason="fewer than two locally heavy hyperplanes")
    r = rank(a)
    if r < 3:
        return Verdict("Inconclusive", reason="rank below 3")
    if r == 3:
        red = reducibility(a)
        if red.irreducible:
            node = CertNode(
                RULE_TWO_LH,
                {"locally_heavy": lh[:2]},
                {"rank": 3, "blocks": 1},
            )
            return Verdict("NonFree", witness={"locally_heavy": lh[:2]}, certificate=node)
        return Verdict(
            "Inconclusive",
            reason="reducible rank-3 case: rule only proves nonfreeness",
        )
    tried = set()  # member sets of the flats tried so far, all rejected
    for h, l in combinations(lh, 2):
        x = next(f for f in restriction_flats(a, h) if l in f.members)
        for f in _flats_over(a, x):
            if f.members in tried:
                continue
            tried.add(f.members)
            # `_flats_over` built f, so f needs no check as a flat
            # (`localization`'s), and its member normals have rank f.codim
            loc = _select(a, f.sorted_members())
            if reducibility(loc).irreducible:
                node = CertNode(
                    RULE_TWO_LH,
                    {
                        "locally_heavy": [h, l],
                        "flat_members": sorted(f.members),
                    },
                    {"rank": r, "localization_rank": f.codim},
                )
                return Verdict(
                    "NonFree",
                    witness={"locally_heavy": [h, l], "flat": sorted(f.members)},
                    certificate=node,
                )
    return Verdict(
        "Inconclusive",
        reason="no essentially irreducible rank-3 flat under two locally heavy hyperplanes",
    )


# ---------------------------------------------------------------------------
# the rule table: each rule's attempt returns a decisive verdict, or else why
# it did not decide (None when it has nothing to say).  The attempts call the
# rule functions through this module's globals, so that a rebinding is seen.


def _attempt_rank2(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    return _rank2_base(a) if rank(a) <= 2 else None


def _attempt_flag(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    if not a.is_simple():
        return "flag: input not simple"
    # the least flag and its tail, as the verifier's walk of its chain yields them
    found = next(_heavy_flags(Level.of(a)), None)
    return _flag_verdict(a, *found) if found is not None else "flag: no locally heavy flag"


def _attempt_locally_heavy(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    reasons = []
    for i in sorted(locally_heavy_indices(a), key=lambda i: (-a.mult[i], i)):
        v = certify_locally_heavy(a, i, opts)
        if v.decisive:
            return v
        reasons.append(f"locally-heavy[{a.label(i)}]: {v.reason}")
    return "; ".join(reasons) or "locally-heavy: no locally heavy hyperplane"


def _attempt_generic(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    # rank and irreducibility do not depend on the hyperplane, so the first
    # generic hyperplane is a witness if any is
    s = a.underlying_simple()
    i = next((i for i in range(a.size) if is_generic_hyperplane(s, i)), None)
    if i is not None:
        v = nonfree_generic(a, i)
        if v.decisive:
            return v
    return "generic: no irreducible generic-hyperplane witness"


def _attempt_two_locally_heavy(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    v = nonfree_two_locally_heavy(a)
    return v if v.decisive else f"two-locally-heavy: {v.reason}"


def _saito_verdict(a: Multiarrangement, dropped, basis, exponents, seed) -> Verdict:
    inputs = {"derivations": [t.to_dict() for t in basis], "essentialized_from_dim": a.dim if dropped else None}
    node = CertNode(RULE_SAITO, inputs, {"exponents": list(exponents), "seed": seed})
    return Verdict("Free", tuple(exponents), certificate=node)


def _hilbert_verdict(a: Multiarrangement, dropped, res) -> Verdict:
    inputs = {"degree_cap": res.degree_cap, "essentialized_from_dim": a.dim if dropped else None}
    node = CertNode(RULE_HILBERT, inputs, {"graded_dims": list(res.dims), "total_mult": a.total_mult})
    return Verdict("NonFree", witness={"graded_dims": list(res.dims)}, certificate=node)


def _cap_refusal(dim: int, cap: int, name: str = "degree cap") -> str | None:
    """Why the Hilbert test in `dim` variables at this degree cap is refused
    before it lists any exponent tuple, or None; the prover and the
    verifier both ask.  Too many tuples is the test's own refusal
    (`oracle.ExponentTupleOverflow`)."""
    if cap < 1 or not oracle.cap_is_reasonable(dim, cap):
        return f"{name} {cap} is out of range"
    return None


def _attempt_oracle(a: Multiarrangement, opts: CertifyOptions) -> Verdict | str | None:
    if not opts.use_oracle:
        return None
    if not a.hyperplanes:
        # no essential quotient to test; the rank-2 base case decides this
        return "oracle: no hyperplanes to test"
    ess, dropped = essentialize(a)
    default = opts.oracle_cap is None
    cap = oracle.default_degree_cap(ess) if default else opts.oracle_cap
    refusal = _cap_refusal(ess.dim, cap, "default degree cap" if default else "degree cap")
    if refusal:
        return f"oracle: {refusal}"
    try:
        res = oracle.hilbert_freeness_test(ess, degree_cap=cap, seed=opts.seed)
    except oracle.ExponentTupleOverflow as e:
        return f"oracle: {e}"
    if res.kind == "FreeProven":
        return _saito_verdict(a, dropped, res.basis, res.exponents, opts.seed)
    if res.kind == "NonFreeProven":
        return _hilbert_verdict(a, dropped, res)
    return "oracle: undetermined"


def _recheck_locally_heavy(a: Multiarrangement, node: CertNode) -> Verdict:
    # the restriction is decided by re-verifying the node's one child
    return certify_locally_heavy(a, node.inputs["h0"], decide=lambda r: _reverify_node(r, node.children[0]))


def _recheck_saito(a: Multiarrangement, node: CertNode) -> Verdict:
    ess, dropped = essentialize(a)
    thetas = [oracle.Derivation.from_dict(d) for d in node.inputs["derivations"]]
    # Saito's criterion needs deg det = |m|, so a basis of dim derivations
    # has degrees summing to |m|; refused here as a CertificateError,
    # before `saito_check`, which would refuse it with a ValueError
    if len(thetas) != ess.dim or sum(t.pdeg for t in thetas) != ess.total_mult:
        raise CertificateError(f"need {ess.dim} derivations with degrees summing to {ess.total_mult}")
    res = oracle.saito_check(ess, thetas)
    if res.kind != "Basis":
        raise CertificateError("cited derivations are not a basis")
    return _saito_verdict(a, dropped, thetas, res.exponents, node.numbers["seed"])


def _recheck_hilbert(a: Multiarrangement, node: CertNode) -> Verdict:
    ess, dropped = essentialize(a)
    cap = node.inputs["degree_cap"]
    refusal = _cap_refusal(ess.dim, cap)
    if refusal:
        raise CertificateError(refusal)
    try:
        res = oracle.hilbert_freeness_test(ess, degree_cap=cap, seed=0, trials=0)
    except oracle.ExponentTupleOverflow as e:
        raise CertificateError(str(e)) from None
    if res.kind != "NonFreeProven":
        raise CertificateError("Hilbert obstruction does not re-verify")
    return _hilbert_verdict(a, dropped, res)


# A record: (dispatch name, attempt, {certificate rule it emits: re-derivation})
RULES = (
    ("rank2", _attempt_rank2, {RULE_RANK2: lambda a, node: _rank2_base(a)}),
    ("flag", _attempt_flag, {RULE_FLAG: lambda a, node: certify_flag(a, Flag.from_dict(node.inputs["flag"]))}),
    ("locally-heavy", _attempt_locally_heavy, {RULE_LOCALLY_HEAVY: _recheck_locally_heavy}),
    ("generic", _attempt_generic, {RULE_GENERIC: lambda a, node: nonfree_generic(a, node.inputs["h"])}),
    ("two-locally-heavy", _attempt_two_locally_heavy, {RULE_TWO_LH: lambda a, node: nonfree_two_locally_heavy(a)}),
    ("oracle", _attempt_oracle, {RULE_SAITO: _recheck_saito, RULE_HILBERT: _recheck_hilbert}),
)
DISPATCH_ORDER = tuple(name for name, _, _ in RULES)
RECHECKS = {rule: recheck for _, _, rechecks in RULES for rule, recheck in rechecks.items()}


def _dispatch(a: Multiarrangement, opts: CertifyOptions, rules: Sequence) -> Verdict:
    reasons = []
    for _, attempt, _ in rules:
        got = attempt(a, opts)
        if isinstance(got, Verdict):
            return got
        if got:
            reasons.append(got)
    return Verdict("Inconclusive", reason="; ".join(reasons) or "no applicable rule")


def _free_exponents_fit(a: Multiarrangement, exps: Sequence[int]) -> bool:
    """A free multiarrangement has rank-many exponents summing to |m|."""
    return len(exps) == rank(a) and sum(exps) == a.total_mult


def certify(a: Multiarrangement, opts: CertifyOptions = CertifyOptions()) -> Verdict:
    """Run the rules in dispatch order; first decision wins.  `opts.only_rule`
    keeps only the named rule, at this level only; it must be a dispatch
    name, else ValueError."""
    if opts.only_rule not in (None, *DISPATCH_ORDER):
        raise ValueError(f"unknown rule {opts.only_rule!r}; dispatch names are {', '.join(DISPATCH_ORDER)}")
    v = _dispatch(a, opts, [r for r in RULES if opts.only_rule in (None, r[0])])
    assert v.kind != "Free" or _free_exponents_fit(a, v.exponents), (
        f"Free exponents {v.exponents} are not rank-many or do not sum to |m|"
    )
    return v


# ---------------------------------------------------------------------------
# certificate re-verification


def _as_json(node: CertNode) -> str:
    return json.dumps(node.to_dict(), sort_keys=True)


def _reverify_node(a: Multiarrangement, node: CertNode) -> Verdict:
    if node.rule not in RECHECKS:
        raise CertificateError(f"unknown certificate rule {node.rule}")
    v = RECHECKS[node.rule](a, node)
    if v.certificate is None or _as_json(v.certificate) != _as_json(node):
        raise CertificateError(f"{node.rule} node does not re-derive from the arrangement")
    return v


def verify_certificate(a: Multiarrangement, payload: dict) -> Verdict:
    """Re-verify a certificate JSON payload against an arrangement.

    Re-derives every node with the rule that proved it and returns the
    re-derived verdict; raises CertificateError when a re-derived node
    differs from the cited one in any rule, input, number or child, when a
    re-derived Free verdict does not have rank-many exponents summing to
    |m|, or when the payload is malformed.
    """
    try:
        kind = payload.get("kind")
        cert = payload.get("certificate")
        if kind == "Inconclusive":
            return Verdict("Inconclusive", reason=payload.get("reason"))
        if cert is None:
            raise CertificateError("decisive verdict without certificate")
        v = _reverify_node(a, CertNode.from_dict(cert))
        if v.kind != kind:
            raise CertificateError(f"certificate yields {v.kind}, payload says {kind}")
        if kind == "Free":
            if not _free_exponents_fit(a, v.exponents):
                raise CertificateError(
                    f"re-derived exponents {list(v.exponents)} are not "
                    f"{rank(a)} numbers summing to {a.total_mult}"
                )
            if payload.get("exponents") is not None and list(v.exponents) != list(payload["exponents"]):
                raise CertificateError("exponents do not re-verify")
        return v
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, RecursionError) as e:
        raise CertificateError(f"malformed certificate: {type(e).__name__}: {e}") from e
