import argparse
import importlib.resources
import json
from dataclasses import replace

import pytest

from cirlab import cli, passes
from cirlab.cli import main
from cirlab.corpus import coarsen_loop, corpus_entry, racing_outputs, vec_add
from cirlab.ir import ThreadDecl, print_program
from cirlab.passes import PassOptions, run_pass


METRICS_CSV = importlib.resources.files("cirlab") / "data" / "benchmark_metrics.csv"


@pytest.fixture
def cir_file(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    return write


def test_run_corpus_program(capsys):
    assert main(["run", "corpus:racing-outputs"]) == 0
    out = capsys.readouterr().out
    assert "terminated" in out


def test_run_json(capsys):
    assert main(["run", "corpus:pea-pub-mini", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "terminated"
    assert data["events"] == [1]


def test_run_unknown_corpus_program_is_an_error_line(capsys):
    assert main(["run", "corpus:no-such-program"]) == 1
    assert capsys.readouterr().err.strip() == "error: no corpus program named 'no-such-program'"


def test_run_json_of_a_deopt_names_its_reason(capsys, cir_file):
    f = cir_file("deopt.cir", "fn main() {\nb0:\n  one = const 1\n  output one\n"
                              "  f = const false\n  guard f, bounds\n  ret\n}\nthread main()")
    assert main(["run", f, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert (data["events"], data["status"], data["reason"]) == ([1], "deopt", "bounds")


def test_run_explicit_schedule(capsys, cir_file):
    f = cir_file("race.cir", racing_outputs())
    assert main(["run", f, "--schedule", "explicit:2,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["events"] == [2, 1]


@pytest.mark.parametrize("cmd", ["run", "profile"])
@pytest.mark.parametrize("schedule", ["explicit:", "explicit:1,,2", "explicit:0,-3,9",
                                      "rr:x", "rr:0", "foo"])
def test_bad_schedule_is_an_error_line(capsys, cmd, schedule):
    assert main([cmd, "corpus:racing-outputs", "--schedule", schedule]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: bad schedule {schedule!r} (use rr:k with k >= 1, or explicit:t1,t2,...)"]


@pytest.mark.parametrize("args, message", [
    (["run", "--budget", "-5"], "step budget must be at least 1, got -5"),
    (["check", "corpus:racing-outputs", "--budget", "0"], "step budget must be at least 1, got 0"),
    (["check", "corpus:racing-outputs", "--max-states", "-1"],
     "state ceiling must be at least 1, got -1"),
    (["check", "corpus:racing-outputs", "--max-states", "0"],
     "state ceiling must be at least 1, got 0"),
    (["run", "--schedule", "explicit:1,9"], "schedule names thread 9, but the program has 2 thread(s)"),
], ids=["run-budget", "check-budget", "max-states-negative", "max-states-zero",
        "schedule-thread"])
def test_bound_out_of_range_is_an_error_line(capsys, args, message):
    assert main([args[0], "corpus:racing-outputs"] + args[1:]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("cmd", [["run"], ["profile"], ["check", "{f}"],
                                 ["compare", "--passes", "lock_coarsen", "--toggle", "lock_coarsen"]])
def test_dynamic_fault_is_an_error_line(capsys, cir_file, cmd):
    f = cir_file("div.cir", "fn main() {\nb0:\n  z = const 0\n  v = binop div, z, z\n  ret\n}\n"
                            "thread main()")
    assert main([cmd[0], f] + [a.format(f=f) for a in cmd[1:]]) == 1
    assert capsys.readouterr().err.strip() == "error: binop div: division by zero"


RACY_DIVISOR = """
class G { fields x; }
fn a() {
e:
  g = classref G
  z = const 0
  putfield g, x, z
  ret
}
fn b() {
e:
  g = classref G
  one = const 1
  putfield g, x, one
  v = getfield g, x
  output v
  ret
}
thread a()
thread b()
"""


@pytest.mark.xfail(strict=True, reason="a fault ends the search with an error, not a path "
                                       "with status `fault` (ROADMAP item 1)")
def test_check_reports_a_fault_the_original_cannot_produce_as_a_violation(cir_file, capsys):
    # `b` divides by what it read back, which is 0 when `a` stores in between
    original = cir_file("racy.cir", RACY_DIVISOR)
    transformed = cir_file("racy-div.cir", RACY_DIVISOR.replace(
        "  output v\n", "  q = binop div, one, v\n  output q\n"))
    assert main(["check", original, transformed]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "violates"
    assert verdict["witness"]["status"] == "fault"


def two_monitors(one: str, two: str) -> str:
    """Two threads that take monitors `A` and `B` in the orders `one` and `two`."""
    def fn(name: str, body: str) -> str:
        return f"fn {name}() {{\ne:\n  a = classref A\n  b = classref B\n{body}  ret\n}}\n"

    return ("class A { fields x; }\nclass B { fields x; }\n"
            + fn("one", one) + fn("two", two) + "thread one()\nthread two()\n")


# one region after the other, or one nested in the other
A_THEN_B = "  monitorenter a\n  monitorexit a\n  monitorenter b\n  monitorexit b\n"
B_THEN_A = "  monitorenter b\n  monitorexit b\n  monitorenter a\n  monitorexit a\n"
A_HOLDS_B = "  monitorenter a\n  monitorenter b\n  monitorexit b\n  monitorexit a\n"
B_HOLDS_A = "  monitorenter b\n  monitorenter a\n  monitorexit a\n  monitorexit b\n"


def test_check_reports_a_deadlock_the_original_cannot_reach_as_a_violation(cir_file, capsys):
    original = cir_file("apart.cir", two_monitors(A_THEN_B, B_THEN_A))
    nested = cir_file("nested.cir", two_monitors(A_HOLDS_B, B_HOLDS_A))
    assert main(["check", original, nested]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "violates"
    assert verdict["witness"] == {"events": [], "status": "deadlock"}
    assert verdict["original"]["exhausted"] and verdict["transformed"]["exhausted"]


@pytest.mark.parametrize("transformed", [(A_HOLDS_B, B_HOLDS_A), (B_HOLDS_A, A_HOLDS_B),
                                         (A_THEN_B, B_THEN_A)],
                         ids=["same", "swapped", "apart"])
def test_check_accepts_a_deadlock_the_original_can_reach(cir_file, capsys, transformed):
    original = cir_file("nested.cir", two_monitors(A_HOLDS_B, B_HOLDS_A))
    assert main(["check", original, cir_file("t.cir", two_monitors(*transformed))]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "refines"


def test_profile_emits_metric_columns(capsys, cir_file):
    f = cir_file("loop.cir", coarsen_loop(10))
    assert main(["profile", f]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[0].split(",")
    assert header == ["benchmark", "synch", "wait", "notify", "atomic", "park",
                      "cpu", "cachemiss", "object", "array", "method", "idynamic",
                      "refcycles"]
    row = out[1].split(",")
    assert row[1] == "10"  # synch
    assert row[6] == "" == row[7]  # cpu and cachemiss are never synthesized


def test_optimize_roundtrip(tmp_path, cir_file, capsys):
    f = cir_file("loop.cir", coarsen_loop(100))
    out = tmp_path / "out.cir"
    report = tmp_path / "report.json"
    rc = main(["optimize", f, "--passes", "lock_coarsen", "--chunk", "32",
               "-o", str(out), "--report", str(report)])
    assert rc == 0
    reports = json.loads(report.read_text())
    assert reports[0]["pass"] == "lock_coarsen"
    assert reports[0]["rewrites"] == 1
    assert main(["run", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["events"] == [100]


def test_optimize_unknown_pass(capsys):
    rc = main(["optimize", "corpus:vec-add", "--passes", "nonsense"])
    assert rc == 1
    assert "unknown pass" in capsys.readouterr().err


def test_optimize_rejects_a_pass_output_that_fails_validate(monkeypatch, tmp_path, capsys):
    def broken(program, options, report):
        report.rewrites += 1
        return replace(program, threads=program.threads + (ThreadDecl("nowhere"),
                                                           ThreadDecl("elsewhere")))

    monkeypatch.setitem(passes._registry(), "dup_simulate", broken)
    out = tmp_path / "out.cir"
    rc = main(["optimize", "corpus:coarsen-mini", "--passes", "lock_coarsen,dup_simulate",
               "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: dup_simulate: thread: unknown entry function 'nowhere'",
        "error: dup_simulate: thread: unknown entry function 'elsewhere'"]
    assert not out.exists()


def test_check_refines_and_violates(tmp_path, cir_file, capsys):
    before = cir_file("r.cir", racing_outputs())
    same = cir_file("same.cir", racing_outputs())
    assert main(["check", before, same, "--budget", "200"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "refines"

    bad = cir_file("bad.cir", racing_outputs().replace(
        "fn second() {\ne:\n", "fn second() {\ne:\n  w = const 99\n  output w\n"))
    assert main(["check", before, bad, "--budget", "200"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "violates"
    assert 99 in verdict["witness"]["events"]


def test_check_json_reports_each_side(cir_file, capsys):
    f = cir_file("r.cir", racing_outputs())
    assert main(["check", f, f, "--budget", "200"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert set(verdict) == {"verdict", "statesExplored", "original", "transformed"}
    sides = [verdict["original"], verdict["transformed"]]
    for side in sides:
        assert set(side) == {"states", "memoHits", "exhausted", "ceilingHit", "traces", "seconds"}
        assert side["exhausted"] is True and side["memoHits"] > 0
        assert side["seconds"] >= 0
    assert verdict["statesExplored"] == sum(side["states"] for side in sides)


def test_check_json_says_which_bound_cut_a_side(cir_file, capsys):
    # the contended original takes 29 states, its coalesced form 20
    small = corpus_entry("coalesce-mini").small
    coalesced, _ = run_pass(small, "atomic_coalesce", PassOptions(chunk=2))
    before = cir_file("before.cir", print_program(small))
    after = cir_file("after.cir", print_program(coalesced))
    assert main(["check", before, after, "--budget", "600", "--max-states", "24"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "bounded-ok"
    orig, trans = verdict["original"], verdict["transformed"]
    assert orig["exhausted"] is False and orig["ceilingHit"] is True
    assert trans["exhausted"] is True and trans["ceilingHit"] is False

    assert main(["check", before, after, "--budget", "10"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    for side in (verdict["original"], verdict["transformed"]):
        assert side["exhausted"] is False and side["ceilingHit"] is False


@pytest.mark.parametrize("budget", [["--budget", "400"], []])
def test_check_json_counts_the_traces_each_side_found(cir_file, capsys, budget):
    # checked in reverse: the coarsened program finishes its first trace within
    # 10 states and the uncoarsened one needs 16, so a ceiling of 12 cuts the
    # transformed side's search before it finishes any trace
    small = corpus_entry("coarsen-mini").small
    coarsened, _ = run_pass(small, "lock_coarsen", PassOptions(chunk=2))
    before = cir_file("before.cir", print_program(coarsened))
    after = cir_file("after.cir", print_program(small))
    assert main(["check", before, after, "--max-states", "12", *budget]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "bounded-ok"
    assert verdict["original"]["traces"] == 1
    assert verdict["transformed"]["traces"] == 0
    assert verdict["transformed"]["ceilingHit"] is True


def test_check_has_no_preemption_bound(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "corpus:racing-outputs", "corpus:racing-outputs", "--preemptions", "1"])
    assert e.value.code == 2
    assert "unrecognized arguments: --preemptions 1" in capsys.readouterr().err


def test_check_too_many_threads_is_an_error_line(cir_file, capsys):
    f = cir_file("seven.cir", "fn t() {\ne:\n  ret\n}\n" + "thread t()\n" * 7)
    assert main(["check", f, f]) == 1
    assert capsys.readouterr().err.strip() == "error: enumeration supports at most 6 threads"


def test_compare(capsys, cir_file):
    f = cir_file("loop.cir", coarsen_loop(50))
    rc = main(["compare", f, "--passes", "lock_coarsen", "--toggle", "lock_coarsen",
               "--chunk", "8"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["onCost"] < rep["offCost"]
    assert rep["impactPct"] > 0

    assert main(["compare", "corpus:coarsen-mini", "--passes", "lock_coarsen",
                 "--toggle", "lock_coarsen"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["onCost"], rep["offCost"]) == (101, 152)
    assert rep["impactPct"] == (152 - 101) / 101 * 100


def test_compare_toggle_outside_the_pass_set_is_an_error_line(capsys):
    assert main(["compare", "corpus:coarsen-mini", "--passes", "lock_coarsen",
                 "--toggle", "pea_atomic"]) == 1
    assert (capsys.readouterr().err.strip()
            == "error: toggled pass 'pea_atomic' is not in the pass set")


@pytest.mark.parametrize("argv", [["bench", "corpus:vec-add"],
                                  ["--json", "run", "corpus:vec-add"],
                                  ["--csv", "run", "corpus:vec-add"],
                                  ["run", "corpus:vec-add", "--profile"],
                                  ["compare", "corpus:vec-add", "--passes", "loop_vectorize",
                                   "--toggle", "loop_vectorize", "--warmup", "0"],
                                  ["compare", "corpus:vec-add", "--passes", "loop_vectorize",
                                   "--toggle", "loop_vectorize", "--winsor", "0.1"]],
                         ids=["bench", "global-json", "global-csv", "run-profile",
                              "compare-warmup", "compare-winsor"])
def test_removed_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["optimize", "corpus:coarsen-mini", "--passes", "lock_coarsen", "--chunk", "0"],
     "chunk size must be >= 1"),
    (["optimize", "corpus:vec-add", "--passes", "loop_vectorize", "--width", "1"],
     "vector width must be >= 2"),
], ids=["chunk", "width"])
def test_optimize_bad_knob_is_an_error_line(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_pca_on_package_dataset(tmp_path, capsys):
    text = METRICS_CSV.read_text()
    src = tmp_path / "metrics.csv"
    src.write_text(text)
    prefix = str(tmp_path / "out_")
    rc = main(["pca", str(src), "--exclude", "tradebeans,actors,scimark.monte_carlo",
               "--components", "4", "--out-prefix", prefix])
    assert rc == 0
    loadings = (tmp_path / "out_loadings.csv").read_text().strip().splitlines()
    assert len(loadings) == 12  # header + 11 metrics
    variance = (tmp_path / "out_variance.csv").read_text()
    assert "PC1" in variance
    scores = (tmp_path / "out_scores.csv").read_text().strip().splitlines()
    assert len(scores) == 1 + 65


@pytest.mark.parametrize("components", [99, -2, 0])
def test_pca_component_count_out_of_range_is_an_error_line(tmp_path, capsys, components):
    assert main(["pca", str(METRICS_CSV), "--components", str(components)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"error: component count {components} out of range 1..11"


PARK_PAIR = """
fn sleeper() {
e:
  park
  v = const 1
  output v
  ret
}
fn waker() {
e:
  one = const 1
  unpark one
  ret
}
thread sleeper()
thread waker()
"""


def test_pca_with_profile_output(tmp_path, capsys, cir_file):
    # profile a diverse program set, stack the rows, normalize by refcycles
    from cirlab.corpus import handle_histogram, rng_double_cas, waitnotify_flag

    programs = (
        ("locks", coarsen_loop(10)),
        ("arrays", vec_add(8)),
        ("handles", handle_histogram(3)),
        ("atomics", rng_double_cas(5)),
        ("signals", waitnotify_flag()),
        ("parking", PARK_PAIR),
    )
    rows = []
    for name, text in programs:
        f = cir_file(f"{name}.cir", text)
        assert main(["profile", f]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0]
        rows.append(name + "," + out[1].split(",", 1)[1])
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert main(["pca", str(csv_path), "--ref", "refcycles"]) == 0
    out = capsys.readouterr().out
    assert "PC1 metric" in out


def test_pca_ref_notes_each_rejected_row(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("benchmark,a,b,refcycles\nx,1,4,10\ny,2,5,0\nz,3,7,20\nw,4,1,30\n")
    prefix = str(tmp_path / "out_")
    assert main(["pca", str(csv_path), "--ref", "refcycles", "--out-prefix", prefix]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["note: row 'y' rejected: nonpositive refcycles"]
    scores = (tmp_path / "out_scores.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in scores[1:]] == ["x", "z", "w"]


@pytest.mark.parametrize("exclude", ["y,z", "x,y,z"])
def test_pca_too_few_rows_is_one_error_line(tmp_path, capsys, recwarn, exclude):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("benchmark,a,b\nx,1,4\ny,2,5\nz,3,7\n")
    assert main(["pca", str(csv_path), "--exclude", exclude]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: need at least two observations"]
    assert [str(w.message) for w in recwarn] == []


def test_pca_on_an_unreadable_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["pca", str(missing)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"]


def test_ck_csv(capsys):
    assert main(["ck", "corpus:dup-diamond"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("class,WMC")
    assert "sum," in out


def test_ck_output_file(tmp_path, capsys):
    out = tmp_path / "ck.csv"
    assert main(["ck", "corpus:dup-diamond", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["ck", "corpus:dup-diamond"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_stats_welch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1\n2\n3\n")
    b.write_text("2\n3\n4\n")
    assert main(["stats", "welch", str(a), str(b)]) == 0
    r = json.loads(capsys.readouterr().out)
    assert abs(r["t"] + 1.2247) < 1e-3
    assert abs(r["p"] - 0.2872) < 1e-3


@pytest.mark.parametrize("test, a, message", [
    ("welch", "1\nx\n3\n", "{a}: bad sample 'x'"),
    ("ttest", "1\n2\n3\n", "unknown statistic 'ttest' (only 'welch')"),
    ("welch", "value\n1\n", "both samples need at least two values"),
], ids=["bad-sample", "unknown-statistic", "too-few-values"])
def test_stats_error_is_an_error_line(tmp_path, capsys, test, a, message):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    a_path.write_text(a)
    b_path.write_text("2\n3\n4\n")
    assert main(["stats", test, str(a_path), str(b_path)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: " + message.format(a=a_path)]


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cir"
    f.write_text("fn main() {\nb0:\n  v = const\n  ret\n}\nthread main()")
    assert main(["run", str(f)]) == 1
    assert "error" in capsys.readouterr().err


def test_validation_diagnostics_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cir"
    f.write_text("fn main() {\nb0:\n  v = const 1\n  v = const 2\n  ret\n}\nthread main()")
    assert main(["run", str(f)]) == 1
    assert "defined more than once" in capsys.readouterr().err


# a small valid input for every subcommand; {a} and {b} are sample files
EVERY_SUBCOMMAND = {
    "run": ["corpus:racing-outputs"],
    "profile": ["corpus:racing-outputs"],
    "optimize": ["corpus:coarsen-mini", "--passes", "lock_coarsen"],
    "check": ["corpus:racing-outputs", "corpus:racing-outputs"],
    "compare": ["corpus:coarsen-mini", "--passes", "lock_coarsen", "--toggle", "lock_coarsen"],
    "pca": [str(METRICS_CSV)],
    "ck": ["corpus:dup-diamond"],
    "stats": ["welch", "{a}", "{b}"],
}


def test_every_option_is_read(monkeypatch, tmp_path, capsys):
    # each subcommand reads every argument its parser defines, so no option
    # is accepted and then ignored
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    build = cli.build_parser

    def recording_parser():
        parser = build()
        parse_args = parser.parse_args

        def parse_and_record(argv):
            args = parse_args(argv, namespace=RecordingNamespace())
            reads.clear()  # argparse's own reads while parsing do not count
            return args

        parser.parse_args = parse_and_record
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    (tmp_path / "a.csv").write_text("1\n2\n3\n")
    (tmp_path / "b.csv").write_text("2\n3\n4\n")
    top = build()
    (subparsers,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        assert command in EVERY_SUBCOMMAND, f"no input for {command}"
        dests = {a.dest for a in top._actions + sub._actions
                 if a.dest not in (argparse.SUPPRESS, "help", "command")}
        argv = [a.format(a=tmp_path / "a.csv", b=tmp_path / "b.csv")
                for a in EVERY_SUBCOMMAND[command]]
        assert main([command, *argv]) == 0, command
        assert dests - reads == set(), command
    assert set(EVERY_SUBCOMMAND) == set(subparsers.choices)
