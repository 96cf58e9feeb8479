"""Span tracing of arrfree's module boundaries, installed from outside.

The tracer wraps the public functions named in LAYERS.  Modules such as
`betti`, `certify` and `oracle` import their helpers with `from .x import y`,
so a wrapper is rebound under every name in every loaded `arrfree` module
that refers to the original; methods (`Matrix.rref`,
`Polynomial.divmod_by`) are wrapped on their class.  `uninstall` puts every
original back.

Spans live in memory as [name, start, end, parent, op] lists: `parent` is
the index of the enclosing span (-1 for a root), and `op` identifies the
benchmark operation the span belongs to.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> functions traced in that layer; "Class.method" wraps on the class
LAYERS = {
    "exactalg": ("Matrix.rref", "Polynomial.divmod_by", "poly_matrix_det"),
    "dspace": ("derivation_basis",),
    "rank2": ("rank2_exponents",),
    "arrangement": (
        "restriction_flats",
        "intersection_lattice",
        "locally_heavy_indices",
        "euler_ziegler_multiplicity",
        "reducibility",
    ),
    "betti": ("b2_multi", "b2_simple"),
    "certify": (
        "certify",
        "certify_locally_heavy",
        "find_locally_heavy_flags",
        "nonfree_generic",
        "nonfree_two_locally_heavy",
        "verify_certificate",
    ),
    "oracle": (
        "hilbert_freeness_test",
        "derivation_space_dim",
        "extract_basis",
        "saito_check",
        "is_log_derivation",
    ),
}

ROOT = "bench"  # name prefix of the benchmark's own root spans


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.rsplit('.', 1)[-1]}"


def _cert_shape(node) -> tuple[int, int]:
    """(node count, depth) of a certificate tree."""
    if node is None:
        return 0, 0
    count, depth = 1, 0
    for child in node.children:
        c, d = _cert_shape(child)
        count += c
        depth = max(depth, d)
    return count, depth + 1


class Tracer:
    """Collects spans and work counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = None

    # -- spans -------------------------------------------------------------

    @contextmanager
    def root(self, kind: str, op):
        """A root span around one benchmark operation."""
        self.op = op
        rec = self._open(f"{ROOT}.{kind}")
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, before=None, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before is not None else None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, kwargs, result, state)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = _hooks()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "arrfree" or n.startswith("arrfree.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"arrfree.{layer}")
            for qual in names:
                name = span_name(layer, qual)
                before, after = hooks.get(name, (None, None))
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(name, orig, before, after))
                    continue
                orig = getattr(home, qual)
                wrapped = self._wrap(name, orig, before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _hooks() -> dict:
    """Per-function work counters: name -> (before(), after(counts, args, kwargs, result, state))."""
    from math import comb

    betti = importlib.import_module("arrfree.betti")
    rank2 = importlib.import_module("arrfree.rank2")
    b2_cache = betti.b2_multi
    solve_cache = rank2._min_degree_basis

    def rref(counts, args, kwargs, result, state):
        m = args[0]
        counts["exactalg.rref.cells"] += m.rows * m.cols
        counts["exactalg.rref.max_cols"] = max(counts["exactalg.rref.max_cols"], m.cols)

    def derivation_basis(counts, args, kwargs, result, state):
        forms, degree = args[0], args[2]
        nvars = len(forms[0])
        if degree >= 0:
            counts["dspace.derivation_basis.unknowns"] += nvars * comb(degree + nvars - 1, nvars - 1)
        if not result:
            counts["dspace.derivation_basis.empty"] += 1

    def rank2_exponents(counts, args, kwargs, result, state):
        counts["rank2.rank2_exponents.unique_instances"] += solve_cache.cache_info().misses - state

    def restriction_flats(counts, args, kwargs, result, state):
        counts["arrangement.restriction_flats.pair_spans"] += args[0].size - 1

    def b2_multi(counts, args, kwargs, result, state):
        if b2_cache.cache_info().misses > state:
            counts["betti.b2_multi.misses"] += 1
            counts["betti.b2_multi.flats_summed"] += len(result.per_flat)

    def certify(counts, args, kwargs, result, state):
        nodes, depth = _cert_shape(result.certificate)
        counts["certify.cert_nodes"] += nodes
        counts["certify.cert_depth_max"] = max(counts["certify.cert_depth_max"], depth)

    def flags(counts, args, kwargs, result, state):
        counts["certify.find_locally_heavy_flags.flags_found"] += len(result)

    def space_dim(counts, args, kwargs, result, state):
        d = kwargs["d"] if "d" in kwargs else args[1]
        counts["oracle.derivation_space_dim.max_degree"] = max(counts["oracle.derivation_space_dim.max_degree"], d)

    def saito(counts, args, kwargs, result, state):
        if result.kind == "Basis":
            counts["oracle.saito_check.bases"] += 1

    return {
        "exactalg.rref": (None, rref),
        "dspace.derivation_basis": (None, derivation_basis),
        "rank2.rank2_exponents": (lambda: solve_cache.cache_info().misses, rank2_exponents),
        "arrangement.restriction_flats": (None, restriction_flats),
        "betti.b2_multi": (lambda: b2_cache.cache_info().misses, b2_multi),
        "certify.certify": (None, certify),
        "certify.find_locally_heavy_flags": (None, flags),
        "oracle.derivation_space_dim": (None, space_dim),
        "oracle.saito_check": (None, saito),
    }


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer) -> dict[str, float]:
    """Counts, self times, derived ratios and layer shares of one traced round.

    Layer shares are taken over the spans under `bench.op` roots only, as a
    fraction of the summed root durations.
    """
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = defaultdict(int, tracer.counts)
    layer_of = {span_name(layer, q): layer for layer, names in LAYERS.items() for q in names}
    layer_self: dict[str, float] = defaultdict(float)
    op_total = 0.0
    degree_solves = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name.startswith(ROOT):
            if name == f"{ROOT}.op":
                op_total += end - start
            continue
        out[name + ".self_s"] += own[i]
        if op is not None and op[0] == "op":
            layer_self[layer_of[name]] += own[i]
        if name == "dspace.derivation_basis" and parent >= 0 and spans[parent][0] == "rank2.rank2_exponents":
            degree_solves += 1
    out["rank2.rank2_exponents.degree_solves"] = degree_solves

    calls = out["betti.b2_multi.calls"]
    out["betti.b2_multi.hit_ratio"] = (calls - out["betti.b2_multi.misses"]) / calls if calls else 0.0
    saito_calls = out["oracle.saito_check.calls"]
    out["oracle.saito_check.basis_ratio"] = out["oracle.saito_check.bases"] / saito_calls if saito_calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.op_share"] = layer_self[layer] / op_total if op_total else 0.0
    return out
