import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cirlab.corpus import coarsen_loop, corpus, corpus_entry, guard_bounds_loop
from cirlab.interp import Explicit, Machine, ResultTrace, run
from cirlab.parser import parse
from cirlab.passes import PassOptions, run_pass
from cirlab.scheduler import check_refinement, enumerate_results
from blocked_programs import WOKEN_ENTERS_HELD
from callgraph_gen import gen_callgraph_program
from test_fuzz import gen_program
from test_reduction import reference

ROOT = Path(__file__).resolve().parent.parent

RACING_OUTPUTS = """
fn t1() {
e:
  v = const 1
  output v
  ret
}
fn t2() {
e:
  v = const 2
  output v
  ret
}
thread t1()
thread t2()
"""

RACING_INCREMENT = """
class G { fields n; }
fn inc() {
e:
  g = classref G
  v = getfield g, n
  one = const 1
  v2 = binop add, v, one
  putfield g, n, v2
  ret
}
fn incout() {
e:
  g = classref G
  v = getfield g, n
  one = const 1
  v2 = binop add, v, one
  putfield g, n, v2
  r = getfield g, n
  output r
  ret
}
thread inc()
thread incout()
"""


def traces(rs):
    return {(t.events, t.status) for t in rs.traces}


def test_single_thread_singleton():
    p = parse("fn main() {\nb0:\n  v = const 7\n  output v\n  ret\n}\nthread main()")
    rs = enumerate_results(p)
    assert rs.exhausted
    assert traces(rs) == {((7,), "terminated")}


def test_two_racing_outputs():
    rs = enumerate_results(parse(RACING_OUTPUTS))
    assert rs.exhausted
    assert traces(rs) == {((1, 2), "terminated"), ((2, 1), "terminated")}


def test_lost_update_race():
    rs = enumerate_results(parse(RACING_INCREMENT))
    assert rs.exhausted
    assert traces(rs) == {((1,), "terminated"), ((2,), "terminated")}


def test_random_explicit_schedules_cover_result_set():
    rng = random.Random(1234)
    for text in (RACING_OUTPUTS, RACING_INCREMENT):
        p = parse(text)
        rs = enumerate_results(p)
        sampled = set()
        n_threads = len(p.threads)
        for _ in range(1000):
            seq = tuple(rng.randint(1, n_threads) for _ in range(40))
            r = run(p, Explicit(seq))
            sampled.add(r.trace)
        assert sampled == rs.traces


def test_budget_marks_non_exhausted():
    p = parse("fn main() {\nb0:\n  br b0\n}\nthread main()")
    rs = enumerate_results(p, step_budget=30)
    assert not rs.exhausted
    assert any(t.status == "step-budget-exhausted" for t in rs.traces)


def test_state_ceiling_marks_non_exhausted():
    rs = enumerate_results(parse(RACING_INCREMENT), max_states=3)
    assert not rs.exhausted
    assert 0 <= rs.states_explored <= 3


def test_state_ceiling_keeps_partial_results():
    # the full search takes 12 states; within the first 5 it finds only [2]
    full = enumerate_results(parse(RACING_INCREMENT))
    partial = enumerate_results(parse(RACING_INCREMENT), max_states=5)
    assert not partial.exhausted
    assert partial.states_explored <= 5
    assert partial.traces and partial.traces < full.traces


def test_trace_missing_from_partial_original_is_inconclusive():
    # the original (12 states) can output 1, but not within the first 5 states it explores
    outputs_one = parse("fn t() {\ne:\n  v = const 1\n  output v\n  ret\n}\nthread t()")
    v = check_refinement(parse(RACING_INCREMENT), outputs_one, max_states=5)
    assert v.kind == "inconclusive"
    assert v.witness is not None and v.witness.events == (1,)


def test_state_ceiling_on_corpus_original_is_not_a_violation():
    # the original (29 states) hits the ceiling, the coalesced program (20) does not
    e = corpus_entry("coalesce-mini")
    coalesced, _ = run_pass(e.small, "atomic_coalesce", PassOptions(chunk=2))
    v = check_refinement(e.small, coalesced, step_budget=e.small_budget, max_states=24)
    assert not v.original.exhausted and v.original.traces
    assert v.transformed.exhausted
    assert v.kind == "bounded-ok"


def test_wait_notify_enumerates_to_single_result():
    text = """
    class S { fields ready, data; }
    fn waiter() {
    e:
      s = classref S
      monitorenter s
      br chk()
    chk():
      f = getfield s, ready
      one = const 1
      done = binop eq, f, one
      condbr done, fin(), slp()
    slp():
      wait s
      br chk()
    fin():
      d = getfield s, data
      monitorexit s
      output d
      ret
    }
    fn setter() {
    e:
      s = classref S
      v = const 42
      one = const 1
      monitorenter s
      putfield s, data, v
      putfield s, ready, one
      notify s
      monitorexit s
      ret
    }
    thread waiter()
    thread setter()
    """
    rs = enumerate_results(parse(text))
    assert rs.exhausted
    assert traces(rs) == {((42,), "terminated")}


def test_a_woken_waiter_waits_for_the_monitor_its_next_instruction_enters():
    # when the notifier runs first, its notify is lost and the waiter deadlocks
    p = parse(WOKEN_ENTERS_HELD)
    assert traces(enumerate_results(p, 200)) == {((2, 1), "terminated"), ((2,), "deadlock")}
    assert run(p, "rr:1").trace == ResultTrace((2, 1), "terminated", None)


def test_identity_refines():
    p = parse(RACING_OUTPUTS)
    v = check_refinement(p, p)
    assert v.kind == "refines"


def test_extra_output_violates():
    p = parse(RACING_OUTPUTS)
    bad = parse(RACING_OUTPUTS.replace("fn t2() {\ne:\n", "fn t2() {\ne:\n  w = const 99\n  output w\n"))
    v = check_refinement(p, bad)
    assert v.kind == "violates"
    assert v.witness is not None
    assert 99 in v.witness.events


def test_fewer_results_still_refines():
    # transformed is deterministic: always outputs 1 then 2
    orig = parse(RACING_OUTPUTS)
    det = parse(
        """
        fn t1() {
        e:
          v = const 1
          output v
          w = const 2
          output w
          ret
        }
        fn t2() {
        e:
          ret
        }
        thread t1()
        thread t2()
        """
    )
    assert check_refinement(orig, det).kind == "refines"


def test_bounded_verdict_when_not_exhausted():
    p = parse(RACING_INCREMENT)
    v = check_refinement(p, p, step_budget=10)
    assert v.kind == "bounded-ok"


def test_too_many_threads_rejected():
    text = "fn t() {\ne:\n  ret\n}\n" + "\n".join(["thread t()"] * 7)
    with pytest.raises(ValueError):
        enumerate_results(parse(text))
    rs = enumerate_results(parse(text.rsplit("\n", 1)[0]))  # six threads
    assert rs.exhausted and rs.traces == {ResultTrace((), "terminated")}


def test_mutual_refinement_implies_equal_result_sets():
    # swapping the two thread declarations permutes ids but not the result set
    swapped = """
    fn t1() {
    e:
      v = const 1
      output v
      ret
    }
    fn t2() {
    e:
      v = const 2
      output v
      ret
    }
    thread t2()
    thread t1()
    """
    a, b = parse(RACING_OUTPUTS), parse(swapped)
    ab, ba = check_refinement(a, b), check_refinement(b, a)
    assert ab.kind == "refines" and ba.kind == "refines"
    assert ab.original.traces == ab.transformed.traces


# each program's second thread ends in SPIN, so its tail, once the first
# thread is done, is long enough for a step budget to cut inside it
SPIN = """
  s0 = const 0
  s5 = const 5
  br spin(s0)
spin(si):
  s1 = const 1
  sj = binop add, si, s1
  again = binop lt, sj, s5
  condbr again, spin(sj), spun()
spun():
"""

# the second park has no thread left to unpark it
PARKS_ALONE = """
class G { fields n; }
fn waker() {
e:
  g = classref G
  one = const 1
  putfield g, n, one
  two = const 2
  unpark two
  ret
}
fn sleeper() {
e:
  g = classref G
  v = getfield g, n
  output v
  park
%s  park
  ret
}
thread waker()
thread sleeper()
""" % SPIN

# a waiter that starts after the setter has notified waits alone
WAITS_ALONE = """
class S { fields ready; }
fn waiter() {
e:
  s = classref S
  monitorenter s
  f = getfield s, ready
  output f
%s  wait s
  monitorexit s
  ret
}
fn setter() {
e:
  s = classref S
  one = const 1
  monitorenter s
  putfield s, ready, one
  notify s
  monitorexit s
  ret
}
thread waiter()
thread setter()
""" % SPIN

# once the setter returns, the notified waiter is left to reacquire the monitor
NOTIFIED_REACQUIRES = """
class S { fields ready; }
fn waiter() {
e:
  s = classref S
  monitorenter s
  br chk()
chk():
  f = getfield s, ready
  one = const 1
  go = binop eq, f, one
  condbr go, fin(), slp()
slp():
  wait s
  br chk()
fin():
%s  output f
  monitorexit s
  ret
}
fn setter() {
e:
  s = classref S
  one = const 1
  monitorenter s
  putfield s, ready, one
  notify s
  monitorexit s
  ret
}
thread waiter()
thread setter()
""" % SPIN

# the guard fails only when the writer ran before the read
DEOPTS_ALONE = """
class G { fields n; }
fn writer() {
e:
  g = classref G
  one = const 1
  putfield g, n, one
  ret
}
fn reader() {
e:
  g = classref G
  v = getfield g, n
  output v
%s  one = const 1
  ok = binop lt, v, one
  guard ok, late
  ret
}
thread writer()
thread reader()
""" % SPIN


def keeps_the_cut_contract(p, budget) -> bool:
    """Check `enumerate_results` against `reference` as the `scheduler` docstring
    states for a search the step budget may cut; returns the `exhausted` flag."""
    ref, ref_exhausted = reference(p, budget)
    rs = enumerate_results(p, budget)
    assert rs.exhausted == ref_exhausted
    for status in ("terminated", "deadlock"):
        assert {t for t in rs.traces if t.status == status} == \
            {t for t in ref if t.status == status}
    assert rs.traces <= ref
    return rs.exhausted


@pytest.mark.parametrize("text", [PARKS_ALONE, WAITS_ALONE, NOTIFIED_REACQUIRES, DEOPTS_ALONE],
                         ids=["parks", "waits", "reacquires", "deopts"])
def test_last_thread_alone_matches_reference(text):
    p = parse(text)
    ref, ref_exhausted = reference(p, 200)
    rs = enumerate_results(p, 200)
    assert ref_exhausted and rs.exhausted and rs.traces == ref
    # thread 1 runs first and ends, then thread 2 runs alone: cut anywhere up to its end
    steps = run(p, Explicit((1,))).steps
    exhausted = [keeps_the_cut_contract(p, budget) for budget in range(1, steps + 1)]
    assert not exhausted[steps - 4]  # 3 steps short of the end


def test_last_thread_alone_covers_each_ending():
    def statuses(text):
        return {(t.status, t.reason) for t in enumerate_results(parse(text), 200).traces}

    assert statuses(PARKS_ALONE) == {("deadlock", None)}
    assert statuses(WAITS_ALONE) == {("deadlock", None), ("terminated", None)}
    assert statuses(NOTIFIED_REACQUIRES) == {("terminated", None)}
    assert statuses(DEOPTS_ALONE) == {("deopt", "late"), ("terminated", None)}


def test_single_thread_program_is_one_state():
    p = parse(guard_bounds_loop(8000, 16000))
    rs = enumerate_results(p, step_budget=200_000)
    assert rs.exhausted and rs.states_explored == 1 and rs.memo_hits == 0
    assert rs.traces == {run(p, budget=200_000).trace}


def test_memo_reuses_a_subtree_only_where_its_longest_path_fits():
    # a subtree that ends within the budget at a shallow depth can be cut at a
    # deeper one; reusing it there claimed exhausted=True at budgets 29 to 38
    e = corpus_entry("coalesce-mini")
    flags = {keeps_the_cut_contract(e.small, budget) for budget in range(3, 40)}
    assert flags == {False, True}


# the worker reads n, then takes 11 local steps (pure ops, two calls and their
# returns, a branch) that the search steps as one edge, up to a monitorenter
# that deadlocks if the writer parked while it held the monitor
LOCAL_RUN = """
class G { fields n; }
fn add3(x) {
e:
  three = const 3
  y = binop add, x, three
  ret y
}
fn worker() {
e:
  g = classref G
  a = getfield g, n
  b = call add3(a)
  c = binop mul, b, b
  d = call add3(c)
  br f(d)
f(x):
  e2 = binop sub, x, a
  monitorenter g
  monitorexit g
  output e2
  two = const 2
  unpark two
  ret
}
fn writer() {
e:
  g = classref G
  one = const 1
  putfield g, n, one
  monitorenter g
  park
  monitorexit g
  ret
}
thread worker()
thread writer()
"""


def test_local_step_chains_keep_the_contract_at_every_cut():
    p = parse(LOCAL_RUN)
    full = run(p, Explicit((1,))).steps  # every schedule that terminates runs as many
    flags = [keeps_the_cut_contract(p, budget) for budget in range(1, full + 1)]
    assert flags[-1] and not any(flags[:-1])


def test_only_states_where_a_choice_is_left_are_keyed(monkeypatch):
    # an edge runs on through the local steps that follow it, of any thread,
    # so a keyed state with two or more live threads has no enabled thread
    # whose next step is local; the last thread's tail is keyed where it starts
    choices, local = [], []
    canon_key = Machine.canon_key

    def spy(m):
        if m.live > 1:
            enabled = m.enabled_threads()
            choices.append(len(enabled))
            local.extend(tid for tid in enabled if m.next_is_local(tid))
        return canon_key(m)

    monkeypatch.setattr(Machine, "canon_key", spy)
    programs = [(e.small, e.small_budget) for e in corpus()]
    programs += [(parse(gen_program(s)), 3000) for s in range(20)]
    for program, budget in programs:
        for b in (budget, 40):
            enumerate_results(program, b)
    assert local == [] and max(choices) > 1


@pytest.mark.parametrize("program, budget, states, traces", [
    (parse(RACING_INCREMENT), 10_000, 12, 2),
    (corpus_entry("coalesce-mini").small, corpus_entry("coalesce-mini").small_budget, 29, 3),
    (parse(coarsen_loop(1, threads=4)), 50, 49, 12),  # cut by the budget
], ids=["racing-increment", "coalesce-mini", "coarsen_loop(1,4)"])
def test_states_keyed(program, budget, states, traces):
    rs = enumerate_results(program, budget)
    assert (rs.states_explored, len(rs.traces)) == (states, traces)


def trace_digest(traces) -> str:
    """The first 16 hex digits of the SHA-256 of the sorted traces, as
    `tools/search_sweep.py` prints it."""
    ordered = sorted(traces, key=lambda t: (t.events, t.status, t.reason or ""))
    return hashlib.sha256(repr([(t.events, t.status, t.reason) for t in ordered])
                          .encode()).hexdigest()[:16]


# the counts and digests of searches the step budget cuts, as the search that
# memoized no cut state gave them: in 0.1 to 9 s each, and at budget 60 it did
# not finish in 60 s; a state's cut entries make each take a few milliseconds
@pytest.mark.parametrize("text, budget, states, traces, digest", [
    (coarsen_loop(1, threads=4), 46, 29, 6, "cf06cb3a2fbf6571"),
    (coarsen_loop(1, threads=4), 50, 49, 12, "9f501587098de41b"),
    (coarsen_loop(1, threads=4), 54, 70, 12, "9f501587098de41b"),
    (coarsen_loop(1, threads=4), 60, 166, 36, "ef05988ea894d5c2"),
    (gen_callgraph_program(3), 400, 163, 652, "8669440c6ccf8a63"),
], ids=["coarsen_loop(1,4)@46", "coarsen_loop(1,4)@50", "coarsen_loop(1,4)@54",
        "coarsen_loop(1,4)@60", "callgraph3@400"])
def test_a_cut_search_reuses_cut_states(text, budget, states, traces, digest):
    rs = enumerate_results(parse(text), budget)
    assert not rs.exhausted and rs.memo_hits > 0
    assert (rs.states_explored, len(rs.traces), trace_digest(rs.traces)) == (states, traces, digest)


def test_a_search_with_cut_entries_keeps_the_cut_contract():
    assert not keeps_the_cut_contract(parse(gen_callgraph_program(3)), 400)


def test_search_sweep_matches_its_golden_output():
    # every search's states, memo hits, trace count and digest, and every
    # pass output's verdict: a change that moves one edits
    # `tests/data/search_sweep.txt` and says why each line moved
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "search_sweep.py")],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True).stdout
    golden = (ROOT / "tests" / "data" / "search_sweep.txt").read_text()
    assert out.splitlines() == golden.splitlines()


#: the SHA-256 of `tools/pass_sweep.py`'s output (10,208 lines, too big to
#: commit): a change that moves a line updates it and says why the line moved
PASS_SWEEP_SHA256 = "c04814816bfa541a72a769a20e30ea437116dbbf9d44dfb4911056d2a1412d32"


def test_pass_sweep_matches_its_golden_digest():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "pass_sweep.py")],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, check=True).stdout
    digest = hashlib.sha256(out).hexdigest()
    assert digest == PASS_SWEEP_SHA256, (
        "tools/pass_sweep.py output moved: diff it against the parent commit's output "
        "(PYTHONPATH=<checkout>/src python tools/pass_sweep.py) and explain each moved line")
