"""Cross-cutting invariants: every corpus program against every pass."""

import pytest

from cirlab.corpus import corpus
from cirlab.interp import run
from cirlab.ir import Function, print_program
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, PassOptions, UnknownPassError, pipeline, run_pass
from cirlab.scheduler import check_refinement
from cirlab.validate import validate


def monitor_balance(f: Function) -> list[str]:
    """Problems with monitorenter/monitorexit nesting depth along paths.

    Propagates the total lock depth through the CFG and reports blocks whose
    predecessors disagree, paths that go negative, and returns at depth > 0.
    """
    problems: list[str] = []
    depth_in: dict[str, int] = {f.entry.name: 0}
    bmap = f.block_map()
    work = [f.entry.name]
    while work:
        name = work.pop()
        d = depth_in[name]
        b = bmap[name]
        for i in b.instrs:
            if i.op == "monitorenter":
                d += 1
            elif i.op == "monitorexit":
                d -= 1
                if d < 0:
                    problems.append(f"{f.name}/{name}: monitorexit without matching enter")
                    d = 0
        if not b.term.targets() and d != 0:
            problems.append(f"{f.name}/{name}: returns while holding {d} monitor(s)")
        for t in b.term.targets():
            if t in depth_in:
                if depth_in[t] != d:
                    problems.append(f"{f.name}/{t}: inconsistent monitor depth at merge")
            else:
                depth_in[t] = d
                work.append(t)
    return problems


OPTS = PassOptions(chunk=2)  # small chunk so coarsening fires on tiny variants
ENTRIES = corpus()


def counter(result, name: str) -> int:
    if hasattr(result.metrics, name):
        return getattr(result.metrics, name)
    return result.op_counts[name]


def test_empty_pipeline_is_identity():
    p = ENTRIES[0].program
    p2, reports = pipeline(p, [])
    assert p2 == p
    assert reports == []


def test_unknown_pass_name_rejected():
    with pytest.raises(UnknownPassError):
        pipeline(ENTRIES[0].program, ["inline_everything"])


def test_pipeline_reports_concatenate():
    entry = next(e for e in ENTRIES if e.name == "rng-double-cas")
    p2, reports = pipeline(entry.program, ["pea_atomic", "atomic_coalesce"])
    assert [r.name for r in reports] == ["pea_atomic", "atomic_coalesce"]
    assert all(r.rewrites > 0 for r in reports)


def test_vectorize_depends_on_guard_motion():
    entry = next(e for e in ENTRIES if e.name == "vec-add")
    with_gm, reports = pipeline(entry.program, ["guard_motion", "loop_vectorize"])
    assert reports[1].rewrites == 1
    without, reports2 = pipeline(entry.program, ["loop_vectorize"])
    assert reports2[0].rewrites == 0
    assert any(reason == "guard-present" for _, reason in reports2[0].skips)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_every_pass_is_idempotent_on_corpus(entry):
    for name in PASS_NAMES:
        once, _ = run_pass(entry.program, name, OPTS)
        twice, report = run_pass(once, name, OPTS)
        assert twice == once, (entry.name, name)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_transformed_corpus_validates_and_balances_monitors(entry):
    for name in PASS_NAMES:
        p2, _ = run_pass(entry.program, name, OPTS)
        assert validate(p2) == [], (entry.name, name)
        for f in p2.functions:
            assert monitor_balance(f) == [], (entry.name, name, f.name)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_single_thread_traces_identical(entry):
    if len(entry.program.threads) != 1:
        pytest.skip("multi-threaded entry")
    base = run(entry.program, "rr:1", budget=2_000_000)
    for name in PASS_NAMES:
        p2, _ = run_pass(entry.program, name, OPTS)
        after = run(p2, "rr:1", budget=2_000_000)
        assert after.trace == base.trace, (entry.name, name)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_refinement_never_violates(entry):
    for name in PASS_NAMES:
        small2, report = run_pass(entry.small, name, OPTS)
        if report.rewrites == 0:
            continue
        verdict = check_refinement(entry.small, small2, step_budget=entry.small_budget)
        assert verdict.kind in ("refines", "bounded-ok"), (entry.name, name, verdict)
        assert verdict.kind != "violates"


@pytest.mark.parametrize(
    "entry", [e for e in ENTRIES if e.passes], ids=lambda e: e.name
)
def test_target_metric_strictly_improves(entry):
    before = run(entry.program, "rr:1", budget=2_000_000)
    p2, reports = pipeline(entry.program, list(entry.passes))
    assert sum(r.rewrites for r in reports) > 0, entry.name
    after = run(p2, "rr:1", budget=2_000_000)
    for metric in entry.improves:
        assert counter(after, metric) < counter(before, metric), (entry.name, metric)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_roundtrip_through_printer(entry):
    assert parse(print_program(entry.program)) == entry.program


def test_full_pipeline_on_every_entry_stays_sound():
    # the whole pass stack applied to everything, in one fixed order
    order = list(PASS_NAMES)
    for entry in ENTRIES:
        p2, _ = pipeline(entry.program, order, OPTS)
        assert validate(p2) == [], entry.name
        if len(entry.program.threads) == 1:
            a = run(entry.program, "rr:1", budget=2_000_000)
            b = run(p2, "rr:1", budget=2_000_000)
            assert a.trace == b.trace, entry.name
