import pytest

from cirlab import corpus
from cirlab.bench import bench, compare
from cirlab.parser import parse


def test_coarsening_lowers_cost():
    p = parse(corpus.fj_kmeans_mini(100))
    assert bench(p, passes=("lock_coarsen",)) < bench(p)


def test_compare_reports_positive_impact_and_significance():
    p = parse(corpus.fj_kmeans_mini(100))
    r = compare(p, passes=("lock_coarsen",), toggle="lock_coarsen", name="fj-kmeans-mini")
    assert r.on_cost < r.off_cost
    assert r.impact_pct > 0
    d = r.to_dict()
    assert set(d) == {"benchmark", "passesOn", "passesOff", "onCost", "offCost", "impactPct"}
    assert d["benchmark"] == "fj-kmeans-mini"
    assert d["passesOff"] == []


def test_zero_rewrite_toggle_gives_identical_samples():
    # dup_simulate never fires on the coalesce program
    p = parse(corpus.coalesce_mini(5))
    r = compare(p, passes=("atomic_coalesce", "dup_simulate"), toggle="dup_simulate")
    assert r.on_cost == r.off_cost
    assert r.impact_pct == 0.0


def test_compare_validates_toggle():
    p = parse(corpus.coalesce_mini(5))
    with pytest.raises(ValueError):
        compare(p, passes=("atomic_coalesce",), toggle="lock_coarsen")


def test_bench_propagates_run_failure():
    text = "fn main() {\nb0:\n  br b0\n}\nthread main()"
    with pytest.raises(RuntimeError, match="step-budget-exhausted"):
        bench(parse(text), budget=100)


def test_corpus_contains_required_entries():
    names = {e.name for e in corpus.corpus()}
    assert len(names) >= 10
    assert {"pea-cas-mini", "coarsen-mini", "coalesce-mini", "fj-kmeans-mini",
            "handle-histogram", "guard-bounds-loop", "vec-add", "dup-diamond",
            "racing-outputs", "racing-increment"} <= names


def test_corpus_programs_validate_and_terminate():
    from cirlab.interp import run
    from cirlab.validate import validate

    for e in corpus.corpus():
        assert validate(e.program) == [], e.name
        r = run(e.program, "rr:1", budget=2_000_000)
        assert r.trace.status == "terminated", (e.name, r.trace)
        assert validate(e.small) == [], e.name
        assert run(e.small, "rr:1").trace.status == "terminated", e.name
