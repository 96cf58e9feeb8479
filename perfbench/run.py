#!/usr/bin/env python3
"""The arrfree benchmark.

    python3 perfbench/run.py --workload sweep-mult --seed 0 --seconds 30 --trace 0

Runs one workload in this process, single-threaded, as a closed loop with
one caller that waits for each result.  arrfree is imported from `src/` of
the checkout that holds this file; without it the run fails.

* `--trace 0` repeats, for `--seconds` and until MIN_EXECUTIONS operations
  have run, a pass over the workload's operations (starting from cold
  program caches) followed by a round that re-verifies the certificates of
  the decisive verdicts, each from cold caches.  It prints the END_TO_END
  metrics.
* `--trace 1` alternates untraced and traced passes (the traced one followed
  by a traced verify round), at least twice, and prints the PER_LAYER
  metrics: counts from the first traced round, self times and shares as
  medians over the rounds, and the tracing overhead of the traced passes
  against the untraced ones.  The spans of the first
  traced round go to `perfbench/out/`.

Times are scaled for the host's speed.  This host's CPU swings between two
speeds about 1.8x apart, for seconds to minutes at a time, so raw times of
one run differ from the next by up to 40%.  A short fixed loop (probe_ms)
runs before and after every timed execution, and the execution's time is
scaled by PROBE_NOMINAL_MS over the mean of the two.  Raw figures are
printed and written out too.

Every operation's output is checked (see workloads.check_outcome, plus the
committed reference of the default seed); the last line of stdout is
{"correct", "attempted", "failed", "metrics"} as JSON.

Other entry points: `--write-spec` rewrites BENCHMARK.json from the tables
below, `--write-reference` rewrites the committed reference of a workload
at the default seed, and `--setup-probe` is the child process that times
one set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
RUN_SECONDS = 30
MIN_EXECUTIONS = 110  # so that at least ten executions lie beyond the 90th percentile
HARD_LIMIT_S = 120  # no run measures longer, whatever MIN_EXECUTIONS asks
# Every timed execution is scaled by PROBE_NOMINAL_MS over the mean time of
# the probe_ms() runs just before and just after it: metrics read as times on
# a host where the probe takes PROBE_NOMINAL_MS (about the fast state of the
# 2-vCPU VM this was written on).
PROBE_NOMINAL_MS = 2.5
SETUP_SAMPLES = 5
# lru caches that Bench must find, so that cold() clears them before every
# timed group; set-up must leave every cache empty.
COLD_CACHES = {"b2_multi", "_min_degree_basis"}
# Untimed passes cycle through this many presentations of the inputs (see
# workloads.py), so that one run's figures do not hang on one presentation;
# traced runs use the first only, so that their counts repeat.
VARIANTS = 4

WORKLOAD_WHY = {
    "sweep-mult": "rank-2 path (rank2 -> dspace -> exactalg) on many small eliminations; rows share rank-2 instances via the b2_multi cache",
    "lattice-rank4": "lattice layer (restriction_flats) on distinct simple rank-4 arrangements that share nothing; rank-2 work is negligible",
    "oracle-hilbert": "Hilbert/Saito oracle: exact elimination on few large systems, the other matrix shape of the sweep-mult kernel",
}

# name, unit, better, bound
END_TO_END = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("verify_p50_ms", "ms", "lower", 0.25),
    ("decided_frac", "fraction", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]


def _layer_metrics():
    out = [
        ("exactalg.rref.calls", "count", "lower"),
        ("exactalg.rref.cells", "count", "lower"),
        ("exactalg.rref.max_cols", "count", "lower"),
        ("exactalg.rref.self_s", "s", "lower"),
        ("exactalg.poly_matrix_det.calls", "count", "lower"),
        ("exactalg.poly_matrix_det.self_s", "s", "lower"),
        ("exactalg.divmod_by.calls", "count", "lower"),
        ("exactalg.divmod_by.self_s", "s", "lower"),
        ("dspace.derivation_basis.calls", "count", "lower"),
        ("dspace.derivation_basis.unknowns", "count", "lower"),
        ("dspace.derivation_basis.empty", "count", "lower"),
        ("dspace.derivation_basis.self_s", "s", "lower"),
        ("rank2.rank2_exponents.calls", "count", "lower"),
        ("rank2.rank2_exponents.unique_instances", "count", "lower"),
        ("rank2.rank2_exponents.degree_solves", "count", "lower"),
        ("rank2.rank2_exponents.self_s", "s", "lower"),
        ("arrangement.restriction_flats.calls", "count", "lower"),
        ("arrangement.restriction_flats.pair_spans", "count", "lower"),
        ("arrangement.restriction_flats.self_s", "s", "lower"),
    ]
    for fn in ("intersection_lattice", "locally_heavy_indices", "euler_ziegler_multiplicity", "reducibility"):
        out += [(f"arrangement.{fn}.calls", "count", "lower"), (f"arrangement.{fn}.self_s", "s", "lower")]
    out += [
        ("betti.b2_multi.calls", "count", "lower"),
        ("betti.b2_multi.misses", "count", "lower"),
        ("betti.b2_multi.hit_ratio", "fraction", "higher"),
        ("betti.b2_multi.flats_summed", "count", "lower"),
        ("betti.b2_multi.self_s", "s", "lower"),
        ("betti.b2_simple.calls", "count", "lower"),
        ("certify.certify.calls", "count", "lower"),
        ("certify.certify.self_s", "s", "lower"),
        ("certify.certify_locally_heavy.calls", "count", "lower"),
        ("certify.certify_locally_heavy.self_s", "s", "lower"),
        ("certify.find_locally_heavy_flags.calls", "count", "lower"),
        ("certify.find_locally_heavy_flags.flags_found", "count", "lower"),
        ("certify.find_locally_heavy_flags.self_s", "s", "lower"),
        ("certify.nonfree_generic.calls", "count", "lower"),
        ("certify.nonfree_two_locally_heavy.calls", "count", "lower"),
        ("certify.nonfree_two_locally_heavy.self_s", "s", "lower"),
        ("certify.cert_nodes", "count", "lower"),
        ("certify.cert_depth_max", "count", "lower"),
        ("certify.verify_certificate.calls", "count", "lower"),
        ("certify.verify_certificate.self_s", "s", "lower"),
        ("oracle.hilbert_freeness_test.calls", "count", "lower"),
        ("oracle.hilbert_freeness_test.self_s", "s", "lower"),
        ("oracle.derivation_space_dim.calls", "count", "lower"),
        ("oracle.derivation_space_dim.max_degree", "count", "lower"),
        ("oracle.derivation_space_dim.self_s", "s", "lower"),
        ("oracle.extract_basis.calls", "count", "lower"),
        ("oracle.extract_basis.self_s", "s", "lower"),
        ("oracle.saito_check.calls", "count", "lower"),
        ("oracle.saito_check.basis_ratio", "fraction", "higher"),
        ("oracle.is_log_derivation.calls", "count", "lower"),
    ]
    for layer in ("exactalg", "dspace", "rank2", "arrangement", "betti", "certify", "oracle"):
        out.append((f"{layer}.op_share", "fraction", "lower"))
    out += [("trace.overhead_pct", "%", "lower"), ("host.ref_loop_ms", "ms", "lower")]
    return out


PER_LAYER = _layer_metrics()


def is_timing(name: str) -> bool:
    """Per-layer metrics that are times (medians over rounds), not counts."""
    return name.endswith((".self_s", ".op_share")) or name.startswith(("trace.", "host."))


# ---------------------------------------------------------------------------
# loading


def load_program():
    """Import arrfree from the checkout's sources, and nowhere else."""
    if not (SRC / "arrfree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arrfree sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arrfree

    if Path(arrfree.__file__).resolve().parent != SRC / "arrfree":
        sys.exit(f"perfbench: imported arrfree from {arrfree.__file__}, not from {SRC}")
    return workloads.Api()


def set_up(workload: str, seed: int):
    """The program and VARIANTS presentations of the workload's cases; the
    first is the seed's own, the one the reference pins."""
    api = load_program()
    seeds = [seed] + [f"{seed}.{k}" for k in range(1, VARIANTS)]
    return api, workloads.WORKLOADS[workload](api, seeds)


def probe_ms(iterations: int = 500) -> float:
    """A fixed loop of small-Fraction arithmetic, the same on every commit."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc = (acc + Fraction(i % 13, i % 7 + 1) * Fraction(3, 11)) % 17
    return (perf_counter() - t0) * 1000


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times (import plus input generation) of fresh processes,
    scaled like every other time.

    One unrecorded child goes first, so that byte-code compilation of a
    fresh checkout does not count.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes


@dataclass
class Outcome:
    seconds: float  # as measured
    scale: float  # PROBE_NOMINAL_MS over the mean of the probes on either side
    arrangement: object = None
    result: object = None
    error: str | None = None
    summary: dict | None = None  # workloads.summary(result), kept by strip()

    def __post_init__(self):
        if self.result is not None:
            self.summary = workloads.summary(self.result)

    @property
    def ms(self) -> float:
        """The execution's time on the reference host, in ms."""
        return self.seconds * self.scale * 1000

    def strip(self) -> None:
        """Drop the parsed input and the full result (certificate trees,
        Saito bases), so that a run's memory does not grow with the number
        of passes it makes."""
        self.arrangement = self.result = None


class Bench:
    def __init__(self, api, variants):
        self.api = api
        self.variants = variants
        self.cases = variants[0]
        self.caches = api.caches()
        self.hygiene = [f"no lru cache {name} found to clear" for name in COLD_CACHES - {c.__name__ for c in self.caches}]
        for c in self.caches:
            info = c.cache_info()
            if info.hits or info.misses or info.currsize:
                self.hygiene.append(f"{c.__name__} not cold after set-up: {info}")
        self.last_probe = probe_ms()

    def cold(self) -> None:
        for c in self.caches:
            c.cache_clear()

    def timed(self, fn, span) -> Outcome:
        """One execution of fn, between two host probes; a failed execution
        is recorded, not fatal."""
        before = self.last_probe
        t0 = perf_counter()
        try:
            with span:
                a, result = fn()
            error = None
        except Exception as e:
            a, result, error = None, None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        self.last_probe = probe_ms()
        return Outcome(dt, 2 * PROBE_NOMINAL_MS / (before + self.last_probe), a, result, error)

    def run_pass(self, variant: int = 0, tracer=None) -> list[Outcome]:
        outcomes = []
        group = None
        self.last_probe = probe_ms()
        for i, case in enumerate(self.variants[variant % len(self.variants)]):
            if case.group != group:
                group = case.group
                self.cold()
            outcomes.append(self.timed(case.run, tracer.root("op", ("op", i)) if tracer else nullcontext()))
        return outcomes

    def payloads(self, outcomes: list[Outcome]) -> list[tuple[int, object, str, dict]]:
        """(case index, arrangement, serialized payload, summary) of every
        decisive certify verdict."""
        out = []
        for i, o in enumerate(outcomes):
            if o.error is None and o.result.kind in ("Free", "NonFree"):
                out.append((i, o.arrangement, json.dumps(o.result.to_dict()), o.summary))
        return out

    def verify_round(self, payloads, tracer=None) -> list[Outcome]:
        """verify_certificate on every payload, each from cold caches."""
        outcomes = []
        self.last_probe = probe_ms()
        for n, (i, a, text, want) in enumerate(payloads):
            payload = json.loads(text)
            self.cold()
            run = lambda: (a, self.api.certify.verify_certificate(a, payload))  # noqa: E731
            o = self.timed(run, tracer.root("verify", ("verify", n)) if tracer else nullcontext())
            if o.error is None and o.summary != want:
                o.error = f"re-verified as {o.summary}, certified {want}"
            outcomes.append(o)
        return outcomes


# ---------------------------------------------------------------------------
# checks


def certify_side(bench: Bench, outcomes: list[Outcome]) -> list[Outcome]:
    """The certify verdicts whose certificates the verify phase re-checks.

    When the operation is the oracle, certify runs here, untimed, on the
    same inputs, and its verdicts are also checked against the oracle's.
    """
    verdict = bench.api.certify.Verdict
    if all(o.error is not None or isinstance(o.result, verdict) for o in outcomes):
        return outcomes
    side = []
    for o in outcomes:
        if o.error is not None:
            side.append(o)
            continue
        bench.cold()
        side.append(Outcome(0.0, 1.0, o.arrangement, bench.api.certify.certify(o.arrangement)))
    return side


def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(bench: Bench, first: list[Outcome], side: list[Outcome]) -> dict[int, str]:
    """Failed case indices of one pass, with the reasons."""
    failed: dict[int, str] = {}
    for i, (case, o) in enumerate(zip(bench.cases, first)):
        if o.error is not None:
            failed[i] = o.error
            continue
        got = o.summary
        found = workloads.check_outcome(bench.api, case, o.arrangement, got)
        if side is not first and side[i].error is None:
            other = side[i].summary
            found += workloads.check_outcome(bench.api, case, o.arrangement, other)
            if workloads.contradiction(got, other):
                found.append(f"oracle says {got}, certify says {other}")
        if found:
            failed[i] = "; ".join(found)
    return failed


def check_reference(bench: Bench, ref: dict, first: list[Outcome], side: list[Outcome]) -> tuple[dict[int, str], list[str]]:
    """Decisive verdicts that contradict the committed reference, and
    problems with the reference itself (it must list the same inputs)."""
    rows = ref["cases"]
    if [r["key"] for r in rows] != [c.key for c in bench.cases]:
        return {}, ["reference cases differ from the generated ones"]
    failed, problems = {}, []
    for i, (row, o, s) in enumerate(zip(rows, first, side)):
        if o.error is not None:
            continue
        if row["input"] != o.arrangement.to_dict():
            problems.append(f"reference input of {row['key']} differs")
            continue
        pairs = [(row["verdict"], o)] + ([(row["certify"], s)] if "certify" in row and s.error is None else [])
        for want, got in pairs:
            if workloads.contradiction(want, got.summary):
                failed[i] = f"reference says {want}, got {got.summary}"
    return failed, problems


def count_failures(bench: Bench, passes: list[list[Outcome]], failed: dict[int, str]) -> tuple[int, int]:
    """(attempted, failed) over every operation of every pass; an operation
    fails when its case failed the checks or its output differs from the
    first pass's."""
    first = [o.summary for o in passes[0]]
    attempted = bad = 0
    for outcomes in passes:
        for i, o in enumerate(outcomes):
            attempted += 1
            if i in failed or o.error is not None or o.summary != first[i]:
                bad += 1
    return attempted, bad


# ---------------------------------------------------------------------------
# runs


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    start = perf_counter()
    passes: list[list[Outcome]] = []
    rounds: list[list[Outcome]] = []
    payloads = {}  # per presentation, from its first pass
    while (
        sum(map(len, passes)) < MIN_EXECUTIONS or perf_counter() - start < seconds
    ) and perf_counter() - start < HARD_LIMIT_S:
        variant = len(passes) % VARIANTS
        passes.append(bench.run_pass(variant))
        if variant not in payloads:
            payloads[variant] = bench.payloads(certify_side(bench, passes[-1]))
        if payloads[variant]:
            rounds.append(bench.verify_round(payloads[variant]))
            for o in rounds[-1]:
                o.strip()
        if len(passes) > 1:  # the checks read the first pass in full
            for o in passes[-1]:
                o.strip()

    ops = [o.ms for p in passes for o in p]
    verifies = [o for r in rounds for o in r]
    p90 = statistics.quantiles(ops, n=10)[-1]
    decided = sum(o.error is None and o.summary["kind"] != "Inconclusive" for o in passes[0])
    metrics = {
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": p90,
        "ops_per_s": 1000 * len(ops) / sum(ops),
        "verify_p50_ms": statistics.median(o.ms for o in verifies) if verifies else 0.0,
        "decided_frac": decided / len(bench.cases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = [o.seconds * 1000 for p in passes for o in p]
    info = {
        "passes": len(passes),
        "executions": len(ops),
        "executions_beyond_p90": sum(x > p90 for x in ops),
        "verifications": len(verifies),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[-1],
        "raw_ops_per_s": 1000 * len(raw) / sum(raw),
        "median_scale": statistics.median(o.scale for p in passes for o in p),
        "measured_s": perf_counter() - start,
    }
    return metrics, {"passes": passes, "verifies": verifies, "info": info}


def run_traced(bench: Bench, seconds: float, out_path: Path) -> tuple[dict, dict]:
    start = perf_counter()
    rounds = []
    passes = []
    verifies: list[Outcome] = []
    untraced, traced = [], []
    # an unrecorded warm-up pass, so that the first untraced pass does not
    # also pay for the interpreter's own warm-up
    passes.append(bench.run_pass())
    payloads = bench.payloads(certify_side(bench, passes[0]))
    while (len(rounds) < 2 or perf_counter() - start < seconds) and perf_counter() - start < HARD_LIMIT_S:
        untraced.append(bench.run_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(bench.run_pass(tracer=tracer))
            verifies += bench.verify_round(payloads, tracer)
        finally:
            tracer.uninstall()
        if not rounds:
            tracer.write(out_path)
        rounds.append(tracing.summarize(tracer))
    passes += untraced + traced

    metrics = {}
    unsteady = []
    for name, _, _ in PER_LAYER:
        if is_timing(name):
            metrics[name] = statistics.median(r.get(name, 0) for r in rounds)
        else:
            metrics[name] = rounds[0].get(name, 0)
            if any(r.get(name, 0) != metrics[name] for r in rounds[1:]):
                unsteady.append(name)
    total = lambda ps: sum(o.ms for p in ps for o in p)  # noqa: E731
    metrics["trace.overhead_pct"] = (total(traced) / total(untraced) - 1) * 100
    info = {
        "rounds": len(rounds),
        "counts_differ_between_rounds": unsteady,
        "spans": str(out_path.relative_to(ROOT)),
        "measured_s": perf_counter() - start,
    }
    return metrics, {"passes": passes, "verifies": verifies, "info": info}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_program()
    host_before = [probe_ms(5000) for _ in range(3)]
    setup = setup_samples(workload, seed) if not trace else []
    bench = Bench(*set_up(workload, seed))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, record = run_traced(bench, seconds, OUT / f"{stem}.spans.jsonl")
    else:
        metrics, record = run_untraced(bench, seconds)
        metrics["setup_s"] = statistics.median(setup)

    passes = record["passes"]
    side = certify_side(bench, passes[0])
    failed = check_pass(bench, passes[0], side)
    problems = []
    if seed == DEFAULT_SEED:
        ref = load_reference(workload)
        if ref is None:
            problems.append(f"no committed reference for {workload}")
        else:
            ref_failed, ref_problems = check_reference(bench, ref, passes[0], side)
            failed = {**ref_failed, **failed}
            problems += ref_problems
    attempted, bad = count_failures(bench, passes, failed)
    bad_verifies = [o for o in record["verifies"] if o.error is not None]
    attempted += len(record["verifies"])
    bad += len(bad_verifies)
    problems += bench.hygiene
    problems += [f"counts differ between traced rounds: {n}" for n in record["info"].get("counts_differ_between_rounds", [])]
    host = host_before + [probe_ms(5000) for _ in range(3)]
    if trace:
        metrics["host.ref_loop_ms"] = statistics.median(host)

    table = PER_LAYER if trace else END_TO_END
    units = {m[0]: m[1] for m in table}
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, unit, better, *_ in table:
        print(f"  {name:48s} {metrics[name]:>14.6g} {unit:8s} ({better} is better)")
    if not trace:
        print(f"  {'host.ref_loop_ms':48s} {statistics.median(host):>14.6g} ms       (host speed probe, before and after)")
    print(f"  {'fail_frac':48s} {bad / attempted:>14.6g} fraction ({bad} of {attempted} operations)")
    for key, value in record["info"].items():
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    for i, why in sorted(failed.items()):
        print(f"  FAILED {bench.cases[i].key}: {why}")
    for o in bad_verifies:
        print(f"  FAILED verification: {o.error}")
    for p in problems:
        print(f"  PROBLEM {p}")

    result = {
        "correct": bad == 0 and not problems,
        "attempted": attempted,
        "failed": bad,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {**result, "info": record["info"], "host_ref_loop_ms": host, "setup_samples_s": setup, "problems": problems},
            fh,
            indent=2,
        )
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# maintenance entry points


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_spec() -> None:
    with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(spec(), fh, indent=2)
        fh.write("\n")


def write_reference(workload: str) -> int:
    bench = Bench(*set_up(workload, DEFAULT_SEED))
    cases = bench.cases
    first = bench.run_pass()
    side = certify_side(bench, first)
    failed = check_pass(bench, first, side)
    if failed:
        for i, why in failed.items():
            print(f"FAILED {cases[i].key}: {why}", file=sys.stderr)
        return 1
    rows = []
    for case, o, s in zip(cases, first, side):
        row = {"key": case.key, "input": o.arrangement.to_dict(), "verdict": o.summary}
        if s is not o:
            row["certify"] = s.summary
        rows.append(row)
    REFERENCE.mkdir(exist_ok=True)
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    with open(REFERENCE / f"{workload}.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": "{workload}", "seed": {DEFAULT_SEED}, "cases": [\n{lines}\n]}}\n')
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    p.add_argument("--write-reference", action="store_true", help="rewrite the workload's committed reference")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        probe_ms()  # warm-up
        before = probe_ms()
        t0 = perf_counter()
        set_up(args.workload, args.seed)
        dt = perf_counter() - t0
        print(dt * 2 * PROBE_NOMINAL_MS / (before + probe_ms()))
        return 0
    if args.write_reference:
        return write_reference(args.workload)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
