"""Command-line surface: lattice, b2, certify, sweep, oracle.

Exit codes: 0 success / Free verdict, 10 NonFree, 20 Inconclusive,
2 parse or usage errors (an oracle degree cap below 1, a negative
`oracle --degree`, a sweep grid of more than MAX_SWEEP_ROWS rows, an
ARRFREE_SEED that is not an integer),
3 oversized oracle degree cap or `oracle --degree`, or more than
oracle.MAX_EXPONENT_TUPLES exponent tuples for `oracle --hilbert`.
JSON output is deterministic for fixed input and seed.
"""

from __future__ import annotations

import argparse
import ast
import io
import itertools
import json
import operator
import os
import sys
import time
from fractions import Fraction
from math import prod

from . import oracle as oracle_mod
from .arrangement import (
    Multiarrangement,
    ParseError,
    essentialize,
    intersection_lattice,
    parse,
    rank,
)
from .betti import b2_multi
from .certify import DISPATCH_ORDER, CertifyOptions, Verdict, certify
from .dspace import derivation_dim

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NONFREE = 10
EXIT_INCONCLUSIVE = 20

MAX_SWEEP_ROWS = 10_000

CERT_FORMAT = "arrfree-certificate/1"


def _read(path: str) -> tuple[str, bytes]:
    """The input file's text and the bytes it decodes from, read once, so
    that a command parses and hashes the same bytes: a file rewritten while
    a command runs cannot get an `input_digest` of bytes it never read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # UTF-8 with universal newlines, as a text-mode open reads the file
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read(), raw


def _digest(raw: bytes) -> str:
    # imported here: loading hashlib (OpenSSL) adds about 3 MB to the peak
    # RSS of every process that imports this module
    import hashlib

    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cap_too_large(cap: int | None, dim: int, least: int = 1) -> bool:
    """Reject an oracle degree cap below `least`; report one too large for
    the rank."""
    if cap is None:
        return False
    if cap < least:
        raise ParseError(f"degree cap must be at least {least}, got {cap}")
    if oracle_mod.cap_is_reasonable(dim, cap):
        return False
    print(
        f"error: degree cap {cap} too large for rank {dim}; this would be a very large exact solve",
        file=sys.stderr,
    )
    return True


def _default_seed() -> int:
    raw = os.environ.get("ARRFREE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"ARRFREE_SEED must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# safe template expressions for sweeps

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: lambda x, y: Fraction(x // y),  # Fraction // Fraction is an int
    ast.Mod: operator.mod,
}
_CMPOPS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def eval_expr(expr: str, env: dict[str, Fraction]):
    """Evaluate integer arithmetic / comparisons over named parameters.

    `and` and `or` short-circuit from left to right, as in Python, so
    `a == 0 or 4 // a >= 2` is true at a = 0; their value is a bool, as is a
    comparison's.  Arithmetic reads a bool as 0 or 1 and yields a Fraction."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise ValueError(f"bad expression {expr!r}") from None
    return _eval_node(tree.body, env, expr)


def _eval_node(n, env: dict[str, Fraction], expr: str):
    if isinstance(n, ast.Constant) and isinstance(n.value, int):
        return Fraction(n.value)
    if isinstance(n, ast.Name):
        if n.id not in env:
            raise ValueError(f"unknown parameter {n.id!r} in {expr!r}")
        return env[n.id]
    if isinstance(n, ast.BinOp) and type(n.op) in _BINOPS:
        try:
            return _BINOPS[type(n.op)](_operand(n.left, env, expr), _operand(n.right, env, expr))
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {expr!r}") from None
    if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
        v = _operand(n.operand, env, expr)
        return -v if isinstance(n.op, ast.USub) else v
    if isinstance(n, ast.Compare):
        left = _eval_node(n.left, env, expr)
        for op, comp in zip(n.ops, n.comparators):
            if type(op) not in _CMPOPS:
                raise ValueError(f"unsupported comparison in {expr!r}")
            right = _eval_node(comp, env, expr)
            if not _CMPOPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(n, ast.BoolOp):
        # `or` stops at the first true operand, `and` at the first false one
        stop = isinstance(n.op, ast.Or)
        for v in n.values:
            if bool(_eval_node(v, env, expr)) == stop:
                return stop
        return not stop
    raise ValueError(f"unsupported expression {expr!r}")


def _operand(n, env: dict[str, Fraction], expr: str) -> Fraction:
    """An operand of arithmetic, as a Fraction: a comparison's bool counts
    as 0 or 1, and no int or float comes out of the operators."""
    v = _eval_node(n, env, expr)
    return v if isinstance(v, Fraction) else Fraction(v)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Fraction):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lattice(args) -> int:
    text, raw = _read(args.file)
    a = parse(text)
    max_codim = args.max_codim if args.max_codim is not None else min(3, a.dim)
    if not 1 <= max_codim <= a.dim:
        print(f"error: --max-codim {max_codim} is not between 1 and dimension {a.dim}", file=sys.stderr)
        return EXIT_PARSE
    levels = intersection_lattice(a, max_codim)
    if args.json:
        _emit_json(
            {
                "command": "lattice",
                "input_digest": _digest(raw),
                "max_codim": max_codim,
                "levels": {
                    str(r): [
                        {
                            "members": list(f.sorted_members()),
                            "labels": [a.label(i) for i in f.sorted_members()],
                        }
                        for f in flats
                    ]
                    for r, flats in levels.items()
                },
            }
        )
        return EXIT_OK
    for r in sorted(levels):
        flats = levels[r]
        print(f"codim {r}: {len(flats)} flat(s)")
        for f in flats:
            names = ", ".join(a.label(i) for i in f.sorted_members())
            print(f"  {{{names}}}")
    return EXIT_OK


def cmd_b2(args) -> int:
    text, raw = _read(args.file)
    a = parse(text)
    report = b2_multi(a)
    if args.json:
        _emit_json(
            {
                "command": "b2",
                "input_digest": _digest(raw),
                "b2": report.to_dict(),
            }
        )
        return EXIT_OK
    print(f"b2 = {report.total}")
    for (members, contrib), exps in zip(report.per_flat, report.exponents):
        names = ", ".join(a.label(i) for i in members)
        print(f"  {{{names}}}: exponents {exps[0]},{exps[1]} -> {contrib}")
    return EXIT_OK


def _verdict_exit(v: Verdict) -> int:
    return {"Free": EXIT_OK, "NonFree": EXIT_NONFREE, "Inconclusive": EXIT_INCONCLUSIVE}[v.kind]


def _certificate_payload(v: Verdict, seed: int, digest: str) -> dict:
    payload = v.to_dict()
    payload["header"] = {
        "format": CERT_FORMAT,
        "dispatch_order": list(DISPATCH_ORDER),
        "seed": seed,
        "input_digest": digest,
    }
    return payload


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    text, raw = _read(args.file)
    a = parse(text)
    # certify and the verifier check the cap against the essentialized
    # dimension, which is the rank
    if args.oracle and _cap_too_large(args.max_degree, rank(a)):
        return EXIT_CAP
    seed = args.seed if args.seed is not None else _default_seed()
    opts = CertifyOptions(
        use_oracle=args.oracle,
        oracle_cap=args.max_degree,
        seed=seed,
        only_rule=args.only_rule,
    )
    v = certify(a, opts)
    digest = _digest(raw)
    payload = _certificate_payload(v, seed, digest)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.json:
        # timing is deliberately absent here: JSON output is byte-identical
        # for a fixed input and seed
        _emit_json({"command": "certify", "input_digest": digest, "seed": seed, "verdict": payload})
    else:
        print(f"verdict: {v.kind}")
        if v.exponents is not None:
            print("exponents:", " ".join(str(e) for e in v.exponents))
        if v.witness:
            print("witness:", json.dumps(v.witness, sort_keys=True))
        if v.reason:
            print("reason:", v.reason)
        if v.certificate:
            print("rule:", v.certificate.rule)
        if args.cert:
            print("certificate:", args.cert)
        print(f"time: {1000 * (time.perf_counter() - t0):.0f} ms")
    return _verdict_exit(v)


def _parse_param(spec: str) -> tuple[str, object]:
    if "=" not in spec:
        raise ParseError(f"--param needs NAME=SPEC, got {spec!r}")
    name, rhs = spec.split("=", 1)
    name = name.strip()
    rhs = rhs.strip()
    if not name.isidentifier():
        raise ParseError(f"bad parameter name {name!r}")
    if ".." in rhs:
        lo, hi = rhs.split("..", 1)
        try:
            return name, range(int(lo), int(hi) + 1)
        except ValueError:
            raise ParseError(f"--param bounds must be integers, got {rhs!r}") from None
    try:
        return name, range(int(rhs), int(rhs) + 1)
    except ValueError:
        return name, rhs  # expression in earlier parameters


def _list_of(value, types: tuple) -> bool:
    """A JSON list whose entries all have one of the types (never a bool)."""
    return isinstance(value, list) and all(isinstance(x, types) and not isinstance(x, bool) for x in value)


def cmd_sweep(args) -> int:
    text, raw = _read(args.file)
    try:
        template = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e}") from None
    if not isinstance(template, dict) or "mult" not in template:
        raise ParseError("sweep template must be an arrangement object with a mult list")
    if not _list_of(template["mult"], (int, str)):
        raise ParseError("sweep template mult must be a list of integers and expression strings")
    require = template.get("require", [])
    if not _list_of(require, (str,)):
        raise ParseError("sweep template require must be a list of expression strings")
    # the arrangement with every multiplicity 1; rows replace only mult
    base = parse({**template, "mult": [1] * len(template["mult"])})
    params = [_parse_param(s) for s in args.param or []]
    names = [n for n, _ in params]
    for n in names:
        if names.count(n) > 1:
            raise ParseError(f"--param {n} is given more than once")
    grid = [(n, v) for n, v in params if isinstance(v, range)]
    exprs = [(n, v) for n, v in params if not isinstance(v, range)]
    if not grid:
        raise ParseError("sweep needs at least one ranged --param NAME=LO..HI")
    # from the bounds, since len() of a range past sys.maxsize overflows
    size = prod(max(0, v.stop - v.start) for _, v in grid)
    if size > MAX_SWEEP_ROWS:
        raise ParseError(f"sweep grid has {size} rows; the limit is {MAX_SWEEP_ROWS}")
    if args.oracle and _cap_too_large(args.max_degree, rank(base)):
        return EXIT_CAP
    seed = args.seed if args.seed is not None else _default_seed()
    opts = CertifyOptions(use_oracle=args.oracle, oracle_cap=args.max_degree, seed=seed)

    rows = []
    for combo in itertools.product(*(v for _, v in grid)):
        env = {n: Fraction(val) for (n, _), val in zip(grid, combo)}
        row: dict = {"params": {n: int(env[n]) for n, _ in grid}}
        try:
            for n, expr in exprs:
                env[n] = eval_expr(expr, env)
                row["params"][n] = _as_int(env[n], f"parameter {n}")
            rejected = next((r for r in require if not eval_expr(r, env)), None)
            if rejected is not None:
                row["status"] = "rejected"
                row["note"] = f"violates {rejected!r}"
                rows.append(row)
                continue
            mult = tuple(
                m if isinstance(m, int) else _as_int(eval_expr(m, env), "multiplicity")
                for m in template["mult"]
            )
            a = Multiarrangement(base.dim, base.hyperplanes, mult, base.labels)
        except (ParseError, ValueError) as e:
            row["status"] = "rejected"
            row["note"] = str(e)
            rows.append(row)
            continue
        v = certify(a, opts)
        row["status"] = "ok"
        row["verdict"] = v.kind
        if v.exponents is not None:
            row["exponents"] = list(v.exponents)
        if v.witness:
            row["witness"] = v.witness
        rows.append(row)

    if args.json:
        _emit_json(
            {
                "command": "sweep",
                "input_digest": _digest(raw),
                "seed": seed,
                "rows": rows,
            }
        )
        return EXIT_OK
    for row in rows:
        ps = " ".join(f"{k}={v}" for k, v in row["params"].items())
        if row["status"] == "rejected":
            print(f"{ps}: rejected ({row['note']})")
        else:
            extra = ""
            if "exponents" in row:
                extra = " exp (" + ",".join(str(e) for e in row["exponents"]) + ")"
            print(f"{ps}: {row['verdict']}{extra}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    text, raw = _read(args.file)
    a = parse(text)
    dropped = 0
    if rank(a) != a.dim:
        if not args.essentialize:
            print(
                "error: arrangement is not essential; pass --essentialize",
                file=sys.stderr,
            )
            return EXIT_PARSE
        a, dropped = essentialize(a)
    seed = args.seed if args.seed is not None else _default_seed()
    out: dict = {
        "command": "oracle",
        "input_digest": _digest(raw),
        "seed": seed,
        "nonessential_dims": dropped,
    }
    if args.degree is not None:
        if _cap_too_large(args.degree, a.dim, least=0):
            return EXIT_CAP
        dim = derivation_dim([h.coeffs for h in a.hyperplanes], list(a.mult), args.degree)
        out["degree"] = args.degree
        out["dimension"] = dim
        if args.json:
            _emit_json(out)
        else:
            if dropped:
                print(f"(essentialized: {dropped} non-essential dimension(s) dropped)")
            print(f"dim D(A,m)_{args.degree} = {dim}")
        return EXIT_OK
    cap = args.cap if args.cap is not None else oracle_mod.default_degree_cap(a)
    if _cap_too_large(cap, a.dim):
        return EXIT_CAP
    try:
        res = oracle_mod.hilbert_freeness_test(a, degree_cap=cap, seed=seed)
    except oracle_mod.ExponentTupleOverflow as e:
        print(f"error: {e}; the Hilbert test would list every one", file=sys.stderr)
        return EXIT_CAP
    out["hilbert"] = {
        "kind": res.kind,
        "degree_cap": res.degree_cap,
        "graded_dims": list(res.dims),
        "surviving_tuples": [list(t) for t in res.survivors],
    }
    if res.exponents is not None:
        out["hilbert"]["exponents"] = list(res.exponents)
    if args.json:
        _emit_json(out)
    else:
        if dropped:
            print(f"(essentialized: {dropped} non-essential dimension(s) dropped)")
        print(f"graded dims up to {res.degree_cap}: {list(res.dims)}")
        print(f"surviving exponent tuples: {[list(t) for t in res.survivors]}")
        print(f"result: {res.kind}" + (f" {list(res.exponents)}" if res.exponents else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arrfree",
        description="Exact invariants and freeness certificates for hyperplane multiarrangements",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="intersection lattice up to a codimension")
    lat.add_argument("file")
    lat.add_argument("--max-codim", type=int, default=None)
    lat.add_argument("--json", action="store_true")
    lat.set_defaults(func=cmd_lattice)

    b2p = sub.add_parser("b2", help="second Betti number with per-flat breakdown")
    b2p.add_argument("file")
    b2p.add_argument("--json", action="store_true")
    b2p.set_defaults(func=cmd_b2)

    cer = sub.add_parser("certify", help="freeness / nonfreeness certification")
    cer.add_argument("file")
    cer.add_argument("--oracle", action="store_true", help="enable the brute-force fallback")
    cer.add_argument("--seed", type=int, default=None)
    cer.add_argument("--max-degree", type=int, default=None, help="oracle degree cap")
    cer.add_argument("--only-rule", choices=DISPATCH_ORDER, default=None)
    cer.add_argument("--cert", metavar="PATH", help="write the certificate JSON here")
    cer.add_argument("--json", action="store_true")
    cer.set_defaults(func=cmd_certify)

    sw = sub.add_parser("sweep", help="certify a parameterized template over a grid")
    sw.add_argument("file")
    sw.add_argument("--param", action="append", metavar="NAME=SPEC")
    sw.add_argument("--oracle", action="store_true")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--max-degree", type=int, default=None)
    sw.add_argument("--json", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    orc = sub.add_parser("oracle", help="graded dimensions of D(A,m) and the Hilbert test")
    orc.add_argument("file")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int, default=None)
    group.add_argument("--hilbert", action="store_true")
    orc.add_argument("--cap", type=int, default=None)
    orc.add_argument("--seed", type=int, default=None)
    orc.add_argument("--essentialize", action="store_true")
    orc.add_argument("--json", action="store_true")
    orc.set_defaults(func=cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
