"""cirlab wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify|execute|optimize --seed N \
        --seconds S --trace 0|1

Set-up imports cirlab from ./src and builds one seeded round of jobs with
their known answers; it is repeated SETUP_REPEATS times and `setup_s` is the
median. With --trace 0 the round is run back to back, whole rounds only and
at least MIN_ROUNDS of them, until about S seconds of op time have passed,
and the end-to-end metrics are printed. Every op starts from a collected
heap. Times are reported in reference seconds (see hostspeed.py): a fixed
piece of reference work is timed between ops, and op times are scaled by
how fast it ran, which takes the changing speed of a shared host out of
them. With --trace 1 each op of the round runs twice, untraced and under the
span tracer in alternating order; the per-layer metrics come from the
traced runs, in wall seconds, and `trace.overhead_ratio` compares the two.
Every op is checked against its known answer. The semantic counts of every
round must repeat exactly, within the run and across runs of the same code
and seed.

The load generator is one thread in one process: IR threads are simulated,
and the benchmark host has few cores. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
from tracer import HOT_METHODS, Tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_ROUNDS = 2  # every op is timed at least twice in a run
CIRLAB_MODULES = ("corpus", "parser", "validate", "passes", "interp", "scheduler", "pca", "ck", "ir")
PASSES = (  # per-pass metric names, as listed in BENCHMARK.json
    "pea_atomic", "lock_coarsen", "atomic_coalesce", "handle_simplify",
    "guard_motion", "loop_vectorize", "dup_simulate",
)
#: failures that are known defects of cirlab at the time the benchmark was
#: written: they count in `failed` like any other, but do not make the run
#: incorrect. A fix makes them pass; remove the entry then.
KNOWN_DEFECTS = {
    "bounded:": "a state ceiling on the original discards its partial results, "
                "so check_refinement reports a false `violates`",
}


class SetupError(Exception):
    pass


def import_cirlab() -> SimpleNamespace:
    """A fresh import of cirlab from ./src, modules by short name."""
    if not (SRC / "cirlab" / "__init__.py").is_file():
        raise SetupError(f"no cirlab sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cirlab" or m.startswith("cirlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cirlab")
    if Path(pkg.__file__).resolve().parent != SRC / "cirlab":
        raise SetupError(f"imported cirlab from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cirlab.{m}") for m in CIRLAB_MODULES})


def setup(workload: str, seed: int):
    """(cirlab modules, jobs, median wall set-up time, median in reference seconds)"""
    def build():
        cl = import_cirlab()
        return cl, WORKLOADS[workload](cl, seed)

    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (cl, jobs), dt, dt_ref = hostspeed.normalised(build, hostspeed.EXPONENTS[workload])
        wall.append(dt)
        ref.append(dt_ref)
    # the jobs live for the whole run: keep them out of every later collection
    gc.collect()
    gc.freeze()
    return cl, jobs, statistics.median(wall), statistics.median(ref)


def run_op(job, tracer=None, op_id=None):
    # every op starts from a collected heap, so the collections inside it
    # depend on its own allocations, not on what earlier ops left behind
    gc.collect()
    t0 = perf_counter()
    try:
        if tracer is None:
            out = job.op()
        else:
            tracer.op = op_id
            out = tracer.span("op", job.op)
    except Exception as e:  # an op that raises is a failed op, not a failed run
        out = Outcome(False, f"raised {type(e).__name__}: {e}")
    return perf_counter() - t0, out


def run_round(jobs, norm):
    """(wall latencies, outcomes, summed counts) of one pass over the jobs."""
    lat, outs, counts = [], [], Counter()
    for job in jobs:
        dt, out = run_op(job)
        norm.add(dt)
        lat.append(dt)
        outs.append(out)
        counts.update(out.counts)
    return lat, outs, counts


# -- determinism of the semantic counts ---------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "cirlab", HERE):
        for f in sorted(base.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, rounds: list[Counter]) -> list[str]:
    """Errors if the counts differ between rounds or from an earlier run."""
    errors = []
    first = dict(sorted(rounds[0].items()))
    for i, c in enumerate(rounds[1:], start=2):
        if dict(sorted(c.items())) != first:
            errors.append(f"round {i} counts differ from round 1")
    path = OUT / "counts" / f"{workload}-seed{seed}-{code_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for k in sorted(set(earlier) | set(first)):
            if earlier.get(k) != first.get(k):
                errors.append(f"{k}: {first.get(k)} now, {earlier.get(k)} in an earlier run")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, indent=1))
    return errors


# -- reporting ----------------------------------------------------------------


def report_failures(jobs, outcomes) -> tuple[int, bool]:
    """Print each failed op; (failed count, True if every failure is known)."""
    failed, all_known = 0, True
    seen = set()
    for i, out in enumerate(outcomes):
        if out.ok:
            continue
        failed += 1
        job = jobs[i % len(jobs)]
        known = next((why for prefix, why in KNOWN_DEFECTS.items()
                      if job.name.startswith(prefix)), None)
        all_known = all_known and known is not None
        if job.name not in seen:
            seen.add(job.name)
            tag = f"KNOWN DEFECT ({known})" if known else "FAILED"
            print(f"{tag}: op {i} {job.name}: {out.note}")
    return failed, all_known


def metric(out: dict, name: str, value, unit: str, note: str = "") -> None:
    out[name] = {"value": value, "unit": unit}
    print(f"  {name:36s} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def untraced(workload, seed, seconds, cl, jobs, setup_wall, setup_s):
    norm = hostspeed.Normaliser(hostspeed.EXPONENTS[workload])
    lat, outcomes, rounds = [], [], []
    while True:  # whole rounds, ending as close to `seconds` of op time as they allow
        l, o, c = run_round(jobs, norm)
        lat += l
        outcomes += o
        rounds.append(c)
        elapsed = sum(lat)
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
    ref = norm.times()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_determinism(workload, seed, rounds)
    failed, all_known = report_failures(jobs, outcomes)
    n = len(lat)
    deciles = statistics.quantiles(ref, n=10, method="inclusive")
    wall_deciles = statistics.quantiles(lat, n=10, method="inclusive")
    ref_time = statistics.median(norm.samples)
    print(f"{workload}: {n} ops in {len(rounds)} round(s) of {len(jobs)}, {elapsed:.2f} s of op time; "
          f"reference work took {ref_time * 1000:.2f} ms (median of {len(norm.samples)}), "
          f"{hostspeed.REF_S * 1000:.0f} ms on the reference host")
    m = {}
    metric(m, "setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups; {setup_wall:.4g} s wall")
    metric(m, "ops_per_s", n / sum(ref), "1/s", f"n={n}; {n / elapsed:.4g}/s wall")
    metric(m, "op_s.p50", deciles[4], "s", f"n={n}; {wall_deciles[4]:.4g} s wall")
    metric(m, "op_s.p90", deciles[8], "s",
           f"n={n}, {sum(x > deciles[8] for x in ref)} beyond; {wall_deciles[8]:.4g} s wall")
    metric(m, "peak_rss_mb", rss_mb, "MB")
    print(f"  {'failed_frac':36s} {failed / n:>14.6g} ratio  {failed}/{n}")
    checks = sum(c["scheduler.checks"] for c in rounds)
    if checks:
        decided = sum(c["scheduler.decided"] for c in rounds)
        print(f"  {'decided_frac':36s} {decided / checks:>14.6g} ratio  {decided}/{checks}")
    for e in errors:
        print(f"ERROR: semantic counts not deterministic: {e}")
    return {"correct": all_known and not errors, "attempted": n, "failed": failed, "metrics": m}


def traced(workload, seed, cl, jobs):
    # each op runs untraced and traced back to back, alternating which goes
    # first, so drift in machine speed cancels out of the overhead ratio
    tracer = Tracer(cl)
    t_plain = t_traced = 0.0
    outcomes, counts_plain, counts = [], Counter(), Counter()
    for i, job in enumerate(jobs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    dt, out = run_op(job, tracer, i)
                finally:
                    tracer.uninstall()
                t_traced += dt
                counts.update(out.counts)
            else:
                dt, out = run_op(job)
                t_plain += dt
                counts_plain.update(out.counts)
            outcomes.append(out)
    errors = check_determinism(workload, seed, [counts_plain, counts])
    failed, all_known = report_failures([j for j in jobs for _ in (0, 1)], outcomes)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")

    spans = tracer.totals()  # missing names read as zero
    calls = lambda name: spans[name][0]
    total = lambda name: spans[name][1]
    self_s = lambda name: spans[name][2]
    hot = {f"interp.Machine.{h}": tracer.hot.get(f"interp.Machine.{h}", [0, 0.0])
           for h in HOT_METHODS}
    ratio = lambda a, b: a / b if b else 0.0
    shares = {
        "scheduler": self_s("scheduler.enumerate_results") + self_s("scheduler.check_refinement"),
        "interp.clone_canon": hot["interp.Machine.clone"][1] + hot["interp.Machine.canon_key"][1],
        "interp.step": hot["interp.Machine.step"][1],
        "interp.run": self_s("interp.run"),
        "frontend": self_s("parser.parse") + self_s("validate.validate") + self_s("ir.print_program"),
        "passes": sum(self_s(f"passes.{p}") for p in PASSES),
        "pca_ck": self_s("pca.fit_metrics") + self_s("ck.compute_ck"),
        "harness": self_s("op"),
    }

    print(f"{workload}: {len(jobs)} ops, each untraced and traced; {len(tracer.spans)} spans; "
          f"{t_plain:.2f} s untraced, {t_traced:.2f} s traced")
    for name in tracer.missing:
        print(f"MISSING: {name} does not exist; its metrics read 0")
    m = {}
    states = counts["scheduler.states"]
    keys = hot["interp.Machine.canon_key"][0]
    metric(m, "scheduler.states", states, "count")
    metric(m, "scheduler.states_per_s", ratio(states, total("scheduler.enumerate_results")), "1/s")
    metric(m, "scheduler.memo_hit_ratio", 1 - states / keys if keys else 0.0, "ratio")
    metric(m, "scheduler.exhausted_frac",
           ratio(counts["scheduler.exhausted"], counts["scheduler.result_sets"]), "ratio")
    metric(m, "scheduler.decided_frac",
           ratio(counts["scheduler.decided"], counts["scheduler.checks"]), "ratio",
           f"{counts['scheduler.decided']}/{counts['scheduler.checks']}")
    metric(m, "scheduler.traces", counts["scheduler.traces"], "count")
    for fn in ("enumerate_results", "check_refinement"):
        metric(m, f"scheduler.{fn}.calls", calls(f"scheduler.{fn}"), "count")
        metric(m, f"scheduler.{fn}.self_s", self_s(f"scheduler.{fn}"), "s")
    for name, (n_calls, t) in hot.items():
        metric(m, f"{name}.calls", n_calls, "count")
        metric(m, f"{name}.total_s", t, "s")
    metric(m, "interp.run.calls", calls("interp.run"), "count")
    metric(m, "interp.run.self_s", self_s("interp.run"), "s")
    metric(m, "interp.steps_per_s", ratio(counts["interp.steps"], total("interp.run")), "1/s")
    metric(m, "interp.steps", counts["interp.steps"], "count")
    metric(m, "interp.refcycles", counts["interp.refcycles"], "count")
    metric(m, "parser.parse.calls", calls("parser.parse"), "count")
    metric(m, "parser.parse.self_s", self_s("parser.parse"), "s")
    metric(m, "parser.instrs_per_s", ratio(counts["parser.instrs"], self_s("parser.parse")), "1/s")
    metric(m, "validate.validate.calls", calls("validate.validate"), "count")
    metric(m, "validate.validate.self_s", self_s("validate.validate"), "s")
    metric(m, "ir.print_program.self_s", self_s("ir.print_program"), "s")
    for p in PASSES:
        metric(m, f"passes.{p}.self_s", self_s(f"passes.{p}"), "s")
        metric(m, f"passes.{p}.rewrites", counts[f"passes.{p}.rewrites"], "count")
        metric(m, f"passes.{p}.instrs_out", counts[f"passes.{p}.instrs_out"], "count")
    metric(m, "pca.fit_metrics.calls", calls("pca.fit_metrics"), "count")
    metric(m, "pca.fit_metrics.self_s", self_s("pca.fit_metrics"), "s")
    metric(m, "ck.compute_ck.self_s", self_s("ck.compute_ck"), "s")
    for name, t in shares.items():
        metric(m, f"share.{name}", ratio(t, total("op")), "ratio", "of traced op time")
    metric(m, "trace.overhead_ratio", ratio(t_traced, t_plain), "ratio")
    metric(m, "trace.spans", len(tracer.spans), "count")
    for e in errors:
        print(f"ERROR: semantic counts not deterministic: {e}")
    return {"correct": all_known and not errors, "attempted": 2 * len(jobs), "failed": failed,
            "metrics": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "execute", "optimize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cl, jobs, setup_wall, setup_s = setup(args.workload, args.seed)
    except (SetupError, ImportError) as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(args.workload, args.seed, cl, jobs)
    else:
        result = untraced(args.workload, args.seed, args.seconds, cl, jobs, setup_wall, setup_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
