import random

import pytest

from cirlab.corpus import corpus_entry
from cirlab.interp import Explicit, run
from cirlab.parser import parse
from cirlab.passes import PassOptions, run_pass
from cirlab.scheduler import check_refinement, enumerate_results

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
    full = enumerate_results(parse(RACING_INCREMENT))
    partial = enumerate_results(parse(RACING_INCREMENT), max_states=20)
    assert not partial.exhausted
    assert partial.states_explored <= 20
    assert partial.traces and partial.traces < full.traces


def test_trace_missing_from_partial_original_is_inconclusive():
    # the original can output 1, but not within the first 20 states it explores
    outputs_one = parse("fn t() {\ne:\n  v = const 1\n  output v\n  ret\n}\nthread t()")
    v = check_refinement(parse(RACING_INCREMENT), outputs_one, max_states=20)
    assert v.kind == "inconclusive"
    assert v.witness is not None and v.witness.events == (1,)


def test_state_ceiling_on_corpus_original_is_not_a_violation():
    # the original (172 states) hits the ceiling, the coalesced program (130) does not
    e = corpus_entry("coalesce-mini")
    coalesced, _ = run_pass(e.small, "atomic_coalesce", PassOptions(chunk=2))
    v = check_refinement(e.small, coalesced, step_budget=e.small_budget, max_states=150)
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
    text = "fn t() {\ne:\n  ret\n}\n" + "\n".join(["thread t()"] * 5)
    with pytest.raises(ValueError):
        enumerate_results(parse(text))


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
