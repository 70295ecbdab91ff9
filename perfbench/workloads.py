"""The three workloads: seeded jobs, their known answers, and the op bodies.

A workload's `build(cl, seed)` returns one round of jobs. Each job is one op:
a callable that calls cirlab, checks the outcome against a known answer, and
returns an `Outcome`. `cl` holds the cirlab modules; ops look functions up on
those modules at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import csv
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import programs as P

DATASET = Path(__file__).resolve().parent.parent / "src" / "cirlab" / "data" / "benchmark_metrics.csv"


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    counts: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Job:
    name: str
    op: Callable[[], Outcome]


# -- verify: one op is one check_refinement call ----------------------------

VERIFY_FUZZ_JOBS = 180  # generated-program checks per round; op_s.p50 falls among them
# thread-body lengths of generated programs, cycled: state counts depend on
# them most, so a fixed cycle keeps the cost of a round alike across seeds
GEN_LENGTHS = tuple((a, 13 - a) for a in range(3, 11))
CAS_PAIRS = 24  # contended CAS jobs; p90 falls in the middle of this cluster of equal ops
BOUNDED_MAX_STATES = 14_540  # the original hits this ceiling, the transformed does not


def _verify_job(cl, name, orig, trans, budget, expect, witness_ok=None, max_states=2_000_000):
    """expect: "refines", "violates" or "not-violates".

    For "violates", `witness_ok(events)` says whether the original could
    print `events`; a true violation's witness must be one it could not.
    """

    def op() -> Outcome:
        v = cl.scheduler.check_refinement(orig, trans, step_budget=budget, max_states=max_states)
        sides = (v.original, v.transformed)
        counts = Counter({
            "scheduler.states": v.states_explored,
            "scheduler.traces": sum(len(s.traces) for s in sides),
            "scheduler.result_sets": 2,
            "scheduler.exhausted": sum(s.exhausted for s in sides),
            "scheduler.checks": 1,
            "scheduler.decided": int(v.kind in ("refines", "violates")),
        })
        got = v.kind if v.witness is None else f"{v.kind} {v.witness}"
        if expect == "not-violates":
            ok = v.kind != "violates"
        elif expect == "violates":
            ok = v.kind == "violates" and not witness_ok(v.witness.events)
        else:
            ok = v.kind == expect
        return Outcome(ok, "" if ok else f"expected {expect}, got {got}", counts)

    return Job(name, op)


def build_verify(cl, seed: int) -> list[Job]:
    rng = random.Random(f"verify:{seed}")
    parse, run_pass, names = cl.parser.parse, cl.passes.run_pass, cl.passes.PASS_NAMES
    chunk2 = cl.passes.PassOptions(chunk=2)
    jobs = []
    # the test_13 sweep: corpus small variants x every pass that rewrites them
    for e in cl.corpus.corpus():
        for name in names:
            small2, rep = run_pass(e.small, name, chunk2)
            if rep.rewrites:
                jobs.append(_verify_job(cl, f"sweep:{e.name}/{name}", e.small, small2,
                                        e.small_budget, "refines"))
    # the bounded search: a false `violates` here is the ceiling defect
    coarsen = cl.corpus.corpus_entry("coarsen-mini")
    small2, _ = run_pass(coarsen.small, "lock_coarsen", chunk2)
    jobs.append(_verify_job(cl, f"bounded:coarsen-mini/lock_coarsen@{BOUNDED_MAX_STATES}",
                            coarsen.small, small2, coarsen.small_budget, "not-violates",
                            max_states=BOUNDED_MAX_STATES))
    # scaled contention: every k in [2, 5] once, seeded coarsening chunk
    for k in range(2, 6):
        chunk = rng.choice((2, 3))
        p = parse(cl.corpus.coarsen_loop(k, threads=2))
        p2, _ = run_pass(p, "lock_coarsen", cl.passes.PassOptions(chunk=chunk))
        jobs.append(_verify_job(cl, f"lock2:k={k}/chunk={chunk}", p, p2, 400, "refines"))
    p = parse(cl.corpus.coarsen_loop(1, threads=3))
    p2, _ = run_pass(p, "lock_coarsen", chunk2)
    jobs.append(_verify_job(cl, "lock3:k=1/chunk=2", p, p2, 400, "refines"))
    for _ in range(CAS_PAIRS):
        start = rng.randint(-1000, 1000)
        p = parse(cl.corpus.coalesce_mini(start, contended=True))
        p2, _ = run_pass(p, "atomic_coalesce")
        jobs.append(_verify_job(cl, f"cas:start={start}", p, p2, 600, "refines"))
    # unsound mutants
    text = cl.corpus.racing_outputs()
    jobs.append(_verify_job(cl, "mutant:racing-outputs+output99", parse(text),
                            parse(P.inject_output(text)), 100, "violates",
                            lambda ev: sorted(ev) == [1, 2]))
    text = cl.corpus.coarsen_loop(2, threads=2)
    jobs.append(_verify_job(cl, "mutant:lock2-k=2-unlocked", parse(text),
                            parse(P.drop_lock(text)), 400, "violates",
                            lambda ev: P.lock_loop_ok(ev, 2, 2)))
    start = rng.randint(-1000, 1000)
    text = cl.corpus.coalesce_mini(start, contended=True)
    jobs.append(_verify_job(cl, f"mutant:cas-as-write:start={start}", parse(text),
                            parse(P.cas_to_write(text)), 600, "violates",
                            lambda ev: len(ev) == 1 and ev[0] in P.coalesce_allowed(start)))
    # generated two-thread programs x every pass that rewrites them
    fuzz, n = [], 0
    while len(fuzz) < VERIFY_FUZZ_JOBS:
        gen_seed = rng.randrange(1 << 30)
        p = parse(P.generated_program(random.Random(gen_seed), GEN_LENGTHS[n % len(GEN_LENGTHS)]))
        n += 1
        for name in names:
            p2, rep = run_pass(p, name)
            if rep.rewrites and len(fuzz) < VERIFY_FUZZ_JOBS:
                fuzz.append(_verify_job(cl, f"gen:{gen_seed}/{name}", p, p2, 3000, "refines"))
    jobs += fuzz
    rng.shuffle(jobs)
    return jobs


# -- execute: one op is one interp.run of a scaled corpus program -----------

EXECUTE_DRAWS = 2  # scale draws per (program, before/after, schedule) per round
MIN_STEPS, MAX_STEPS = 2_000, 60_000
STRATA_STRIDE = 17  # coprime to the 40 slots of a round
TARGET_JITTER = 0.02


def _execute_families(rng):
    """(label, draw(scale) -> (builder, args, check), steps per unit of scale
    before and after the corpus passes, schedules, corpus passes)."""

    def lock(threads):
        return lambda k: ("coarsen_loop", (k, threads), lambda ev: P.lock_loop_ok(ev, k, threads))

    def kmeans(n):
        return "fj_kmeans_mini", (n,), lambda ev: ev == (P.kmeans_sum(n),)

    def guard(n):
        return "guard_bounds_loop", (n, n + rng.randint(1, 1000)), lambda ev: ev == (1,)

    def vec(n):
        sa, sb = rng.randrange(65536), rng.randrange(65536)
        want = P.vec_add_outputs(n, sa, sb)
        return "vec_add", (n, sa, sb), lambda ev: ev == want

    def hist(n):
        want = P.histogram_outputs(n)
        return "handle_histogram", (n,), lambda ev: ev == want

    def multi(threads):
        seq = ",".join(str(rng.randint(1, threads)) for _ in range(rng.randint(3, 6)))
        return "rr:1", f"rr:{rng.randint(2, 7)}", f"explicit:{seq}"

    return [
        ("lock1", lock(1), (10, 12.16), ("rr:1",), ("lock_coarsen",)),
        ("lock2", lock(2), (20, 24.32), multi(2), ("lock_coarsen",)),
        ("lock3", lock(3), (30, 36.48), multi(3)[:2], ("lock_coarsen",)),
        ("kmeans", kmeans, (15, 17.16), ("rr:1",), ("lock_coarsen",)),
        ("guard", guard, (12, 8), ("rr:1",), ("guard_motion",)),
        ("vec", vec, (42, 33), ("rr:1",), ("guard_motion", "loop_vectorize")),
        ("hist", hist, (30, 30), ("rr:1",), ("handle_simplify",)),
    ]


def build_execute(cl, seed: int) -> list[Job]:
    rng = random.Random(f"execute:{seed}")
    slots = []
    for label, draw, per_unit, schedules, passes in _execute_families(rng):
        for sched in schedules:
            for after in (False, True):
                slots += [(label, draw, per_unit, sched, passes, after)] * EXECUTE_DRAWS
    # log-uniform step targets, one per stratum, dealt to the slots by a fixed
    # stride so that each family spans the range; the seed moves each target
    # within +-TARGET_JITTER. Every seed runs about the same step counts on
    # the same families, so op costs, and their quantiles, hardly move.
    jobs = []
    for j, (label, draw, per_unit, sched, passes, after) in enumerate(slots):
        s = j * STRATA_STRIDE % len(slots)
        target = MIN_STEPS * (MAX_STEPS / MIN_STEPS) ** ((s + 0.5) / len(slots))
        target *= 1 + rng.uniform(-TARGET_JITTER, TARGET_JITTER)
        scale = max(1, round(target / per_unit[after]))
        builder, args, check = draw(scale)
        program = cl.parser.parse(getattr(cl.corpus, builder)(*args))
        if after:
            program, _ = cl.passes.pipeline(program, list(passes))
        name = f"{label}:{scale}/{sched}/{'after' if after else 'before'}"
        jobs.append(Job(name, _execute_op(cl, program, sched, check)))
    rng.shuffle(jobs)
    return jobs


def _execute_op(cl, program, schedule, check):
    def op() -> Outcome:
        r = cl.interp.run(program, schedule)
        counts = Counter({"interp.steps": r.steps, "interp.refcycles": r.metrics.refcycles})
        ok = r.trace.status == "terminated" and check(r.trace.events)
        return Outcome(ok, "" if ok else f"unexpected result {r.trace}", counts)

    return op


# -- optimize: one op sends a seeded draw of programs through the front end --

OPTIMIZE_OPS = 40  # ops per round
# programs per op, log-spaced from 2 to 32: op costs spread smoothly, so a
# shift in machine speed moves the latency quantiles instead of making them
# jump between clusters of equal-cost ops
OPTIMIZE_SIZES = tuple(round(2 * 16 ** (j / (OPTIMIZE_OPS - 1))) for j in range(OPTIMIZE_OPS))
EXCLUDED_ROWS = 3  # dataset rows left out of each refit


def _builder_draws(rng):
    """One call of every corpus builder, with random parameters."""
    return [
        ("pea_cas_listing",), ("pea_pub_mini",),
        ("coarsen_loop", rng.randint(1, 500), rng.randint(1, 4)),
        ("fj_kmeans_mini", rng.randint(1, 500)),
        ("coalesce_mini", rng.randint(-1000, 1000), rng.random() < 0.5),
        ("rng_double_cas", rng.randint(-1000, 1000)),
        ("handle_histogram", rng.randint(1, 500)),
        ("guard_bounds_loop", rng.randint(1, 500), rng.randint(500, 1000)),
        ("vec_add", rng.randint(1, 64), rng.randrange(65536), rng.randrange(65536)),
        ("dup_diamond", rng.random() < 0.5),
        ("racing_outputs",), ("racing_increment",), ("park_handoff",), ("waitnotify_flag",),
    ]


def read_dataset() -> tuple[list[str], np.ndarray]:
    """The shipped metric table, read with the csv module alone."""
    with DATASET.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return [r[0] for r in rows[1:]], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def build_optimize(cl, seed: int) -> list[Job]:
    rng = random.Random(f"optimize:{seed}")
    names, values = read_dataset()
    matrix = cl.pca.read_metrics_csv(DATASET.read_text())
    jobs = []
    for i, size in enumerate(OPTIMIZE_SIZES):
        # one program in eight is generated; the rest take the builders in
        # turn, each call with fresh random parameters. Starting at builder
        # i keeps each op's code size, and so its cost, alike across seeds.
        generated = size // 8
        draws = [d for _ in range(3) for d in _builder_draws(rng)]
        first = i % (len(draws) // 3)
        texts = [getattr(cl.corpus, b)(*args) for b, *args in draws[first:first + size - generated]]
        texts += [P.generated_program(rng) for _ in range(generated)]
        while True:
            excluded = set(rng.sample(names, EXCLUDED_ROWS))
            kept = values[[j for j, n in enumerate(names) if n not in excluded]]
            if (kept.std(axis=0, ddof=1) > 0).all():
                break
        expected = np.linalg.eigvalsh(np.corrcoef(kept, rowvar=False))[::-1]
        jobs.append(Job(f"draw{i}:{size}-programs:exclude={','.join(sorted(excluded))}",
                        _optimize_op(cl, texts, matrix, excluded, expected)))
    rng.shuffle(jobs)
    return jobs


def _optimize_op(cl, texts, matrix, excluded, expected_eigs):
    classes = [re.findall(r"^class (\w+)", t, re.M) for t in texts]

    def op() -> Outcome:
        counts = Counter()
        bad = []
        for text, want_classes in zip(texts, classes):
            p = cl.parser.parse(text)
            counts["parser.instrs"] += 2 * sum(f.instr_count() for f in p.functions)
            if cl.validate.validate(p):
                bad.append("input does not validate")
            out = p
            for name in cl.passes.PASS_NAMES:  # chained, so later passes see earlier rewrites
                out, rep = cl.passes.run_pass(out, name)
                counts[f"passes.{name}.rewrites"] += rep.rewrites
                counts[f"passes.{name}.instrs_out"] += sum(f.instr_count() for f in out.functions)
                if cl.validate.validate(out):
                    bad.append(f"{name} output does not validate")
                if cl.passes.run_pass(out, name)[0] != out:
                    bad.append(f"{name} is not idempotent")
            if cl.parser.parse(cl.ir.print_program(p)) != p:
                bad.append("print_program/parse round trip changed the program")
            if [m.name for m in cl.ck.compute_ck(p).classes] != want_classes:
                bad.append("ck metrics do not cover the declared classes")
        model = cl.pca.fit_metrics(matrix.without_rows(excluded))
        if not np.allclose(model.eigenvalues, expected_eigs, rtol=1e-9, atol=1e-9):
            bad.append("pca eigenvalues differ from numpy's eigvalsh")
        return Outcome(not bad, "; ".join(bad), counts)

    return op


WORKLOADS = {"verify": build_verify, "execute": build_execute, "optimize": build_optimize}
