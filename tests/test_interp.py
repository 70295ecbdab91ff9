import copy
import gc
import random
import re
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from cirlab.corpus import (coarsen_loop, corpus, fj_kmeans_mini, guard_bounds_loop,
                           racing_outputs, vec_add, waitnotify_flag)
from cirlab.interp import (DONE, RUN, UNBOUNDED, Explicit, HObj, InterpreterError, Machine,
                           ResultTrace, RoundRobin, cost_model, parse_schedule, run)
from cirlab import interp, ir, passes
from cirlab.cfg import natural_loops
from cirlab.parser import parse
from cirlab.ir import Block, Br, Function, Instr, Program, Ret, ThreadDecl
from cirlab.scheduler import check_refinement, enumerate_results
from blocked_programs import WOKEN_ENTERS_HELD
from callgraph_gen import gen_callgraph_program
from test_fuzz import gen_program


MONITOR_BLOCKS = """
    class L { fields done; }
    fn holder() {
    e:
      g = classref L
      monitorenter g
      one = const 1
      output one
      monitorexit g
      ret
    }
    fn contender() {
    e:
      g = classref L
      monitorenter g
      two = const 2
      output two
      monitorexit g
      ret
    }
    thread holder()
    thread contender()
"""
# tries to run T2 right after T1 acquires; T2 stays blocked
MONITOR_BLOCKS_SCHEDULE = "explicit:1,1,2,2,2,1,1,1,2,2,2,2"

WAIT_NOTIFY = """
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
WAIT_NOTIFY_SCHEDULES = ("rr:1", "rr:5", "explicit:2,2,2,2,2,2,2,2,2,1", "explicit:1,2")

UNPARK_PERMIT = """
    fn main() {
    b0:
      me = const 1
      unpark me
      unpark me
      park
      park
      ret
    }
    fn other() {
    e:
      one = const 1
      unpark one
      ret
    }
    thread main()
    thread other()
"""
# double unpark banks only one permit: first park consumes it, second parks
UNPARK_PERMIT_SCHEDULE = "explicit:1,1,1,1,1,2,2,2,1"


def test_single_thread_two_outputs():
    p = parse("fn main() {\nb0:\n  a = const 1\n  b = const 2\n  output a\n  output b\n  ret\n}\nthread main()")
    r = run(p)
    assert r.trace.events == (1, 2)
    assert r.trace.status == "terminated"


def test_two_threads_explicit_schedule():
    text = """
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
    p = parse(text)
    assert run(p, "explicit:1,2").trace.events == (1, 2)
    assert run(p, "explicit:2,1").trace.events == (2, 1)
    # T1 runs its whole body before T2 gets a turn
    assert run(p, "rr:3").trace.events == (1, 2)


def test_uncontended_cas():
    text = """
    class Box { fields v; }
    fn main() {
    b0:
      o = new Box
      five = const 5
      nine = const 9
      putfield o, v, five
      ok = cas o, v, five, nine
      r = getfield o, v
      output r
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.trace.events == (9,)
    assert r.metrics.atomic == 1


def test_failed_cas_leaves_value():
    text = """
    class Box { fields v; }
    fn main() {
    b0:
      o = new Box
      one = const 1
      two = const 2
      ok = cas o, v, one, two
      r = getfield o, v
      output r
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.trace.events == (0,)  # fields start at 0; expect=1 fails


def test_cost_model_table():
    assert cost_model(ir.binop("d", "add", "a", "b")) == 1
    assert cost_model(ir.cas("d", "o", "f", "e", "n")) == 8
    assert cost_model(ir.monitor("monitorenter", "o")) == 8
    assert cost_model(ir.monitor("wait", "o")) == 8
    assert cost_model(ir.new("d", "C")) == 4
    assert cost_model(ir.call("d", "f")) == 2
    assert cost_model(ir.vbinop("add", "c", "a", "b", "i", 4)) == 4
    assert cost_model(ir.output("v")) == 1


def test_metrics_mapping():
    text = """
    class C { fields f; methods m=work; }
    fn work(self) {
    e:
      z = const 0
      ret z
    }
    fn noop(x) {
    e:
      ret x
    }
    fn main() {
    b0:
      o = new C
      n = const 3
      a = newarray n
      monitorenter o
      monitorexit o
      z = const 0
      one = const 1
      c1 = cas o, f, z, one
      r1 = callvirtual o.m()
      h = handleconst noop
      r2 = callhandle h(one)
      r3 = call noop(one)
      park
      two = const 2
      unpark two
      output one
      ret
    }
    fn other() {
    e:
      one2 = const 1
      unpark one2
      ret
    }
    thread main()
    thread other()
    """
    r = run(parse(text), "rr:100")
    m = r.metrics
    assert m.synch == 1
    assert m.atomic == 1
    assert m.object == 1
    assert m.array == 1
    assert m.method == 2  # callvirtual + callhandle; plain call not counted
    assert m.idynamic == 1
    assert m.park == 1
    assert m.refcycles >= r.steps


def test_metric_conservation_against_op_log():
    text = """
    class C { methods m=work; }
    fn work(self) {
    e:
      z = const 0
      ret z
    }
    fn main() {
    b0:
      o = new C
      r1 = callvirtual o.m()
      h = handleconst work
      r2 = callhandle h(o)
      output r2
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.metrics.method == r.op_counts["callvirtual"] + r.op_counts["callhandle"]
    assert r.metrics.refcycles >= sum(r.op_counts.values())


def test_reentrant_monitor():
    text = """
    class L { }
    fn main() {
    b0:
      g = classref L
      monitorenter g
      monitorenter g
      monitorexit g
      monitorexit g
      one = const 1
      output one
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.trace.status == "terminated"
    assert r.metrics.synch == 2


def test_monitor_blocks_other_thread():
    r = run(parse(MONITOR_BLOCKS), MONITOR_BLOCKS_SCHEDULE)
    assert r.trace.events == (1, 2)
    assert r.trace.status == "terminated"


def test_wait_notify_flag_protocol():
    p = parse(WAIT_NOTIFY)
    for sched in WAIT_NOTIFY_SCHEDULES:
        r = run(p, sched)
        assert r.trace.events == (42,), sched
        assert r.trace.status == "terminated"
    r = run(p, "rr:1")
    assert r.metrics.wait == 1
    assert r.metrics.notify == 1


def test_wait_without_monitor_fails_run():
    text = """
    class S { }
    fn main() {
    b0:
      s = classref S
      wait s
      ret
    }
    thread main()
    """
    with pytest.raises(InterpreterError, match="monitor not owned"):
        run(parse(text))


def test_unpark_banks_single_permit():
    r = run(parse(UNPARK_PERMIT), UNPARK_PERMIT_SCHEDULE)
    assert r.trace.status == "terminated"
    assert r.metrics.park == 2


def test_deadlock_detection():
    text = """
    class S { }
    fn main() {
    b0:
      s = classref S
      monitorenter s
      wait s
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.trace.status == "deadlock"


def test_guard_deopt():
    text = """
    fn main() {
    b0:
      one = const 1
      output one
      zero = const 0
      c = binop lt, one, zero
      guard c, bounds
      two = const 2
      output two
      ret
    }
    thread main()
    """
    r = run(parse(text))
    assert r.trace.status == "deopt"
    assert r.trace.reason == "bounds"
    assert r.trace.events == (1,)


def test_budget_exhaustion():
    text = """
    fn main() {
    b0:
      br b0
    }
    thread main()
    """
    r = run(parse(text), budget=50)
    assert r.trace.status == "step-budget-exhausted"
    assert r.steps == 50


def test_determinism():
    text = """
    class G { fields n; }
    fn worker(k) {
    e:
      g = classref G
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop lt, i, k
      condbr c, body(i), done()
    body(j):
      one = const 1
      v = getfield g, n
      v2 = binop add, v, one
      putfield g, n, v2
      j2 = binop add, j, one
      br loop(j2)
    done():
      r = getfield g, n
      output r
      ret
    }
    thread worker(3)
    thread worker(4)
    """
    p = parse(text)
    a = run(p, "rr:2")
    b = run(p, "rr:2")
    assert a.trace == b.trace
    assert a.metrics == b.metrics
    assert a.steps == b.steps


def test_virtual_dispatch_uses_dynamic_class():
    text = """
    class A { methods m=a_m; }
    class B extends A { methods m=b_m; }
    fn a_m(self) {
    e:
      v = const 1
      ret v
    }
    fn b_m(self) {
    e:
      v = const 2
      ret v
    }
    fn main() {
    b0:
      o = new B
      r = callvirtual o.m()
      output r
      ret
    }
    thread main()
    """
    assert run(parse(text)).trace.events == (2,)


def test_vbinop_semantics():
    text = """
    fn main() {
    b0:
      n = const 4
      a = newarray n
      b = newarray n
      c = newarray n
      zero = const 0
      one = const 1
      two = const 2
      arraystore a, zero, one
      arraystore a, one, two
      arraystore b, zero, two
      arraystore b, one, two
      vbinop add, c, a, b, zero, 4
      r0 = arrayload c, zero
      r1 = arrayload c, one
      r2 = arrayload c, two
      output r0
      output r1
      output r2
      ret
    }
    thread main()
    """
    assert run(parse(text)).trace.events == (3, 4, 0)


def test_division_semantics_truncate_toward_zero():
    text = """
    fn main() {
    b0:
      a = const -7
      b = const 2
      q = binop div, a, b
      m = binop mod, a, b
      output q
      output m
      ret
    }
    thread main()
    """
    assert run(parse(text)).trace.events == (-3, -1)


# Once only one thread is live, `run` steps it without asking the schedule.
# These pin what that thread can still run into on its own, and that the
# schedule enumerator, which shares `run`'s stop rule, ends where `run` does.

def _result(r):
    return str(r.trace), r.steps, r.metrics.refcycles


def _search_finds(p, *runs):
    rs = enumerate_results(p)
    return rs.exhausted and {r.trace for r in runs} <= rs.traces


def test_monitor_held_by_a_finished_thread_deadlocks_the_last_thread():
    text = """
    class L { }
    fn holder() {
    e:
      g = classref L
      monitorenter g
      ret
    }
    fn contender() {
    e:
      g = classref L
      one = const 1
      two = const 2
      three = const 3
      monitorenter g
      output one
      monitorexit g
      ret
    }
    thread holder()
    thread contender()
    """
    p = parse(text)
    # the holder returns still owning L; the contender is alone when it reaches it
    held = run(p, "rr:1")
    assert _result(held) == ("[] deadlock", 7, 14)
    # the contender takes L first; the holder is alone once it is free again
    freed = run(p, "explicit:2,2,2,1")
    assert _result(freed) == ("[1] terminated", 11, 32)
    assert _search_finds(p, held, freed)


def test_last_thread_parking_without_a_permit_deadlocks():
    text = """
    fn parker() {
    e:
      one = const 1
      output one
      two = const 2
      output two
      park
      ret
    }
    fn idle() {
    e:
      ret
    }
    thread parker()
    thread idle()
    """
    r = run(parse(text))
    assert _result(r) == ("[1, 2] deadlock", 6, 13)
    assert _search_finds(parse(text), r)


def test_last_thread_waiting_deadlocks():
    text = """
    class S { }
    fn waiter() {
    e:
      s = classref S
      monitorenter s
      one = const 1
      output one
      wait s
      output one
      ret
    }
    fn idle() {
    e:
      ret
    }
    thread waiter()
    thread idle()
    """
    r = run(parse(text))
    assert _result(r) == ("[1] deadlock", 6, 20)
    assert _search_finds(parse(text), r)


@pytest.mark.parametrize("budget, want", [
    (5, ("[1, 3] step-budget-exhausted", 5, 5)),
    (6, ("[1, 3] step-budget-exhausted", 6, 6)),  # the step where thread 2 ends
    (7, ("[1, 3, 2] step-budget-exhausted", 7, 7)),
    (8, ("[1, 3, 2] terminated", 8, 8)),
])
def test_budget_runs_out_around_the_switch_to_one_thread(budget, want):
    text = """
    fn first() {
    e:
      one = const 1
      output one
      two = const 2
      output two
      ret
    }
    fn second() {
    e:
      three = const 3
      output three
      ret
    }
    thread first()
    thread second()
    """
    assert _result(run(parse(text), "rr:1", budget)) == want


def test_failing_guard_on_the_last_thread_deopts():
    text = """
    fn guarded() {
    e:
      one = const 1
      output one
      f = const false
      guard f, bounds
      output one
      ret
    }
    fn idle() {
    e:
      ret
    }
    thread guarded()
    thread idle()
    """
    r = run(parse(text))
    assert _result(r) == ("[1] deopt(bounds)", 5, 5)
    assert r.op_counts["guard"] == 1 and r.op_counts["output"] == 1
    assert _search_finds(parse(text), r)


def test_notified_last_thread_reacquires_its_monitor_first():
    # the notifier ends right after its notify, so the waiter is the last live
    # thread and must take its monitor back before it runs on alone
    p = parse(waitnotify_flag())
    r = run(p, "explicit:1,2,2")
    assert _result(r) == ("[42] terminated", 26, 68)
    assert _search_finds(p, r)


# `run` keeps the enabled set across the steps that cannot change it. The
# reference below is the loop without that: it asks `schedulable` and the
# schedule before every step, and must agree with `run` on every pick.

DIFF_BUDGET = 20_000


def pick(policy, enabled: list[int]) -> int:
    """One pick of `policy`: a fresh grant, then its first step committed."""
    tid, _ = policy.regrant(0, 0, enabled)
    policy.regrant(tid, 1, enabled)
    return tid


class Logged:
    """A schedule of one-step grants that logs each pick: the enabled list it
    saw, and its choice. `run` asks for a grant right before the step it
    grants, so the grant may pick then."""

    def __init__(self, spec: str):
        self.policy, self.log = parse_schedule(spec), []

    def regrant(self, tid: int, k: int, enabled: list[int]) -> tuple[int, int]:
        choice = pick(self.policy, enabled)
        self.log.append((tuple(enabled), choice))
        return choice, 1


def _observed(trace, steps, refcycles, op_counts, picks):
    return trace, steps, refcycles, +Counter(op_counts), picks


def reference_run(program, spec: str, budget: int = DIFF_BUDGET):
    """(what `run` reports plus its picks, Counter of the explicit picks with two
    or more threads live that fell back because the wanted thread was blocked
    or finished). `Machine.step` counts only steps, so the op counts and cost
    are those of the entry each step takes, counted here."""
    policy = parse_schedule(spec)
    m = Machine(program)
    picks, fallbacks, counts, cost = [], Counter(), Counter(), 0
    try:
        while enabled := m.schedulable(budget):
            want = policy.seq[policy._ptr % len(policy.seq)] if isinstance(policy, Explicit) else 0
            choice = pick(policy, enabled)
            if m.live > 1:  # `run` asks the schedule only then
                picks.append((tuple(enabled), choice))
                if want and want not in enabled:
                    fallbacks["finished" if m.threads[want - 1].status is DONE else "blocked"] += 1
            fr = m.threads[choice - 1].frames[-1]
            instr = fr.code[fr.idx][1]
            m.step(choice)
            if isinstance(instr, Instr):
                counts[instr.op] += 1
                cost += cost_model(instr)
            else:  # a terminator costs 1 and counts no op
                cost += 1
    except InterpreterError as e:
        return ("InterpreterError", str(e)), fallbacks
    trace = ResultTrace(tuple(m.events), m.status, m.reason)
    return _observed(trace, m.steps, cost, counts, picks), fallbacks


def fast_run(program, spec: str, budget: int = DIFF_BUDGET):
    policy = Logged(spec)
    try:
        r = run(program, policy, budget)
    except InterpreterError as e:
        return "InterpreterError", str(e)
    return _observed(r.trace, r.steps, r.metrics.refcycles, r.op_counts, policy.log)


def _multi_thread_programs():
    for e in corpus():
        for label, p in ((e.name, e.program), (f"{e.name}/small", e.small)):
            if p is not None and len(p.threads) > 1:
                yield label, p
    yield "coarsen_loop(6, 3)", parse(coarsen_loop(6, threads=3))
    for seed in range(50):
        yield f"fuzz/{seed}", parse(gen_program(seed))
    yield "monitor-blocks", parse(MONITOR_BLOCKS)
    yield "wait-notify", parse(WAIT_NOTIFY)
    yield "unpark-permit", parse(UNPARK_PERMIT)
    yield "woken-enters-held", parse(WOKEN_ENTERS_HELD)


MULTI_THREAD_PROGRAMS = dict(_multi_thread_programs())
# the waker unparks the sleeper and runs on, which must not hide the sleeper
MULTI_THREAD_PROGRAMS["unpark-wakes"] = parse("""
    fn sleeper() {
    e:
      park
      one = const 1
      output one
      ret
    }
    fn waker() {
    e:
      me = const 1
      unpark me
      two = const 2
      output two
      output two
      ret
    }
    thread sleeper()
    thread waker()
""")
# a failed guard ends the run while the other thread is still live
MULTI_THREAD_PROGRAMS["deopt-shared"] = parse("""
    fn guarded() {
    e:
      one = const 1
      output one
      f = const false
      guard f, bounds
      output one
      ret
    }
    fn spinner() {
    e:
      two = const 2
      output two
      output two
      output two
      ret
    }
    thread guarded()
    thread spinner()
""")
# the holder re-enters the monitor it owns while the contender's pure steps lead it
# to a monitorenter that blocks until the holder's second exit
MULTI_THREAD_PROGRAMS["reentrant-contended"] = parse("""
    class L { fields n; }
    fn holder() {
    e:
      g = classref L
      monitorenter g
      monitorenter g
      one = const 1
      output one
      monitorexit g
      monitorexit g
      ret
    }
    fn contender() {
    e:
      g = classref L
      two = const 2
      four = binop add, two, two
      six = binop add, four, two
      monitorenter g
      output six
      monitorexit g
      ret
    }
    thread holder()
    thread contender()
""")

# each thread enters and leaves a monitor of its own, so under `rr:7` a grant
# runs on across both monitor ops: the enabled set they might change stands
MULTI_THREAD_PROGRAMS["own-monitors"] = parse("""
    class A { fields n; }
    class B { fields n; }
    fn first() {
    e:
      a = classref A
      one = const 1
      monitorenter a
      output one
      monitorexit a
      monitorenter a
      monitorexit a
      output one
      ret
    }
    fn second() {
    e:
      b = classref B
      two = const 2
      three = const 3
      monitorenter b
      output two
      monitorexit b
      output three
      ret
    }
    thread first()
    thread second()
""")


def diff_schedules(program) -> tuple[str, ...]:
    """`rr:1`, `rr:3`, `rr:7`, and an explicit schedule that mostly wants the
    last thread, which then often blocks or finishes while others are live."""
    n = len(program.threads)
    favour_last = ",".join(map(str, [n, n, n, *range(1, n)]))
    return "rr:1", "rr:3", "rr:7", f"explicit:{favour_last}"


@pytest.mark.parametrize("label", MULTI_THREAD_PROGRAMS)
def test_run_matches_the_step_by_step_reference(label):
    p = MULTI_THREAD_PROGRAMS[label]
    for spec in diff_schedules(p):
        assert fast_run(p, spec) == reference_run(p, spec)[0], spec


def test_explicit_reference_picks_hit_blocked_and_finished_threads():
    fallbacks = Counter()
    for p in MULTI_THREAD_PROGRAMS.values():
        fallbacks += reference_run(p, diff_schedules(p)[-1])[1]
    assert fallbacks["blocked"] > 0 and fallbacks["finished"] > 0, fallbacks


@pytest.mark.parametrize("text, specs", [
    (MONITOR_BLOCKS, (MONITOR_BLOCKS_SCHEDULE,)),
    (WAIT_NOTIFY, WAIT_NOTIFY_SCHEDULES),
    (UNPARK_PERMIT, (UNPARK_PERMIT_SCHEDULE,)),
    (waitnotify_flag(), ("explicit:1,2,2",)),  # the waiter reacquires its monitor alone
], ids=["monitor-blocks", "wait-notify", "unpark-permit", "reacquire"])
def test_run_matches_the_reference_under_the_schedules_of_the_tests_above(text, specs):
    p = parse(text)
    for spec in specs:
        assert fast_run(p, spec) == reference_run(p, spec)[0], spec


def test_run_matches_the_reference_at_every_budget():
    # one thread live from the start, two threads sharing, a waiter that
    # reacquires, and a contended loop whose real grants span compiled runs
    for text in (coarsen_loop(2, threads=1), MONITOR_BLOCKS, waitnotify_flag(),
                 coarsen_loop(3, threads=2)):
        p = parse(text)
        for spec in (*diff_schedules(p), "rr:2"):
            full = run(p, spec).steps
            for budget in range(1, full + 1):
                assert fast_run(p, spec, budget) == reference_run(p, spec, budget)[0], \
                    (text, spec, budget)
                # one-step grants never cut a real grant or a compiled run
                assert _reported(p, spec, budget) == _stepped(p, spec, budget), \
                    (text, spec, budget)


def _main(*instrs: Instr, params=(), term=Ret(None), blocks=(), threads=("main",), fns=()):
    """A program whose `main` runs `instrs` in its entry block, then `term`."""
    main = Function("main", params, (Block("b0", (), instrs, term), *blocks))
    return Program((), (main, *fns), tuple(ThreadDecl(t) for t in threads))


_HELPER = Function("helper", ("x",), (Block("e", (), (), Ret(None)),))

#: programs that fail `validate`, each with one of its diagnostics; before the
#: gate some raised KeyError, TypeError or InterpreterError, and the last ran,
#: and before `validate` checked operand counts, `output-without-operand`
#: raised IndexError
INVALID_PROGRAMS = {
    "use-before-def": (_main(ir.output("x")), "fn main/b0: use of 'x' before definition"),
    "new-unknown-class": (_main(ir.new("o", "Nope")), "fn main: unknown class 'Nope'"),
    "classref-unknown-class": (_main(Instr("classref", dest="g", cls="Nope")),
                               "fn main: unknown class 'Nope'"),
    "thread-too-few-args": (_main(ir.output("x"), params=("x",)),
                            "thread: main takes 1 params, got 0 args"),
    "unknown-thread-fn": (_main(threads=("main", "nope")),
                          "thread: unknown entry function 'nope'"),
    "branch-to-missing-block": (_main(term=Br("nowhere")),
                                "fn main: branch to unknown block 'nowhere'"),
    "unknown-call-target": (_main(ir.call(None, "nope")), "fn main: unknown function 'nope'"),
    "unknown-binop-kind": (_main(ir.const("a", 2), ir.binop("b", "pow", "a", "a")),
                           "fn main/b0: unknown binop kind 'pow'"),
    "bad-call-in-unreached-block": (
        _main(blocks=(Block("dead", (), (ir.call(None, "helper"),), Ret(None)),), fns=(_HELPER,)),
        "fn main/dead: call passes 0 args, helper takes 1"),
    "output-without-operand": (_main(Instr("output")), "fn main/b0: output takes 1 operand, got 0"),
}


@pytest.mark.parametrize("program, diagnostic", INVALID_PROGRAMS.values(), ids=INVALID_PROGRAMS)
def test_a_program_that_fails_validate_is_refused(program, diagnostic):
    ok = _main(ir.const("one", 1), ir.output("one"))
    message = f"invalid program: .*{re.escape(diagnostic)}"
    for attempt in (lambda: run(program), lambda: enumerate_results(program),
                    lambda: check_refinement(ok, program), lambda: check_refinement(program, ok)):
        with pytest.raises(ValueError, match=message):
            attempt()


def test_a_run_or_a_search_derives_the_program_tables_once(monkeypatch):
    built = Counter()

    def counted(name):
        real = getattr(interp, name)
        monkeypatch.setattr(interp, name, lambda *a: built.update([name]) or real(*a))

    counted("_decode")  # each function's, asked once per `_Code`
    counted("_reach_table")  # `_Code.reach`
    counted("_thread_groups")  # `_Code.keying`
    program = parse(coarsen_loop(1, threads=2))
    m = Machine(program)
    clone = m.clone()
    assert clone.code is m.code
    assert Machine(program).code is m.code  # one `_Code` per program
    # state only, in one order, so that clones share `__init__`'s instance dict keys
    assert list(vars(m)) == list(vars(clone)) == [
        "code", "heap", "monitors", "threads", "live", "events", "steps", "status", "reason"]
    run(program, "rr:1")
    assert built == {"_decode": len(program.functions)}
    enumerate_results(program)
    expected = {"_decode": len(program.functions), "_reach_table": 1, "_thread_groups": 1}
    assert built == expected
    # liveness is kept once, in the shape `canon_key` reads (`_live_names`)
    assert not any(key.endswith("cfg.liveness") for f in program.functions for key in vars(f))
    # the same program run or searched again derives nothing again
    run(program, "rr:1")
    enumerate_results(program)
    check_refinement(program, program)
    assert built == expected
    # a pass output that leaves a function as it was shares its entry lists
    p = parse(vec_add())
    q, _ = passes.run_pass(p, "guard_motion")
    assert q.fn_map()["fill"] is p.fn_map()["fill"]
    assert Machine(q).code.entries["fill"] is Machine(p).code.entries["fill"]
    assert Machine(q).code.entries["main"] is not Machine(p).code.entries["main"]


@pytest.mark.parametrize("use", [lambda p: run(p, "rr:1"), enumerate_results], ids=["run", "search"])
def test_a_program_run_or_searched_is_freed_without_the_cycle_collector(use):
    # the program keeps its `_Code` (`ir.memo`), so a `_Code` that kept the
    # program made a cycle, which only the cycle collector frees
    gc.disable()
    try:
        program = parse(coarsen_loop(1, threads=2))
        use(program)
        ref = weakref.ref(program)
        del program
        assert ref() is None
    finally:
        gc.enable()


# -- schedule grants and compiled runs ----------------------------------------


@pytest.mark.parametrize("make, message", [
    (lambda: RoundRobin(0), "round-robin quantum must be an int of at least 1, got 0"),
    (lambda: RoundRobin(-3), "round-robin quantum must be an int of at least 1, got -3"),
    (lambda: RoundRobin(2.5), "round-robin quantum must be an int of at least 1, got 2.5"),
    (lambda: Explicit(()), "an explicit schedule needs at least one thread id"),
    (lambda: Explicit((0,)), "thread ids start at 1, got 0"),
    (lambda: Explicit((2, -1)), "thread ids start at 1, got -1"),
    (lambda: RoundRobin(True), "round-robin quantum must be an int of at least 1, got True"),
    (lambda: Explicit((True, 2)), "thread ids must be ints, got (True, 2)"),
    (lambda: Explicit((1.0, 2)), "thread ids must be ints, got (1.0, 2)"),
], ids=["rr:0", "rr:-3", "rr:2.5", "explicit:", "explicit:0", "explicit:2,-1", "rr:True",
        "explicit:True,2", "explicit:1.0,2"])
def test_a_schedule_policy_refuses_settings_no_schedule_has(make, message):
    # `run` took the zero and negative settings silently, and `Explicit(())`
    # failed in `max()`; `regrant`'s `% quantum` would turn a zero quantum into
    # ZeroDivisionError, and a grant of 2.5 steps would never run out. `True`
    # ran as 1, and `Explicit((1.0, 2))` failed in `run` indexing a list
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def _policy_states(seed: int, count: int):
    """Random `RoundRobin` and `Explicit` states, each with a sorted enabled set."""
    rng = random.Random(seed)
    for _ in range(count):
        enabled = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
        if rng.random() < 0.5:
            q = rng.randint(1, 5)
            yield RoundRobin(q, rng.randint(0, 6), rng.randint(0, q + 1)), enabled
        else:
            seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 6)))
            yield Explicit(seq, rng.randint(0, 20)), enabled


def _classic_pick(policy, enabled: list[int]) -> int:
    """One pick by the rules as `run` applied them one step at a time, written
    apart from the policies' own code."""
    if isinstance(policy, Explicit):
        want = policy.seq[policy._ptr % len(policy.seq)]
        policy._ptr += 1
        return want if want in enabled else enabled[0]
    if policy._left <= 0 or policy._cur not in enabled:
        later = [i for i in enabled if i > policy._cur]
        policy._cur, policy._left = (later or enabled)[0], policy.quantum
    policy._left -= 1
    return policy._cur


@pytest.mark.parametrize("seed", range(4))
def test_a_grant_is_that_many_picks_and_take_is_that_many_picks(seed):
    for policy, enabled in _policy_states(seed, 300):
        before = copy.deepcopy(policy)
        tid, n = policy.regrant(0, 0, enabled)
        assert policy == before, "a grant that commits no picks changed the state"
        # an unbounded grant is checked past several quanta, or cycles of `seq`
        checked = n if n < UNBOUNDED else 20
        for k in range(1, checked + 1):
            classic, picked, taken = (copy.deepcopy(before) for _ in range(3))
            want = [_classic_pick(classic, enabled) for _ in range(k)]
            assert [pick(picked, enabled) for _ in range(k)] == want == [tid] * k, (before, k)
            taken.regrant(tid, k, enabled)
            assert taken == picked == classic, (before, enabled, k)
        if n < UNBOUNDED:  # and the grant is the longest such run
            after = copy.deepcopy(before)
            after.regrant(tid, n, enabled)
            assert _classic_pick(after, enabled) != tid, (before, enabled)


@pytest.mark.parametrize("policy", [RoundRobin(1), RoundRobin(3, 2, 1), Explicit((1, 2, 2)),
                                    Explicit((2, 1), 5)],
                         ids=["rr:1", "rr:3-in-a-quantum", "explicit:1,2,2", "explicit:2,1-at-5"])
def test_a_run_leaves_its_schedule_object_as_it_was(policy):
    # `run` stepped the caller's object, so a second run with it went on from
    # where the first left off: `RoundRobin(1)` gave `[1, 2]`, then `[2, 1]`
    p = parse(racing_outputs())
    before = copy.deepcopy(policy)
    traces = {run(p, policy).trace for _ in range(2)}
    assert policy == before
    assert traces == {run(p, copy.deepcopy(before)).trace}


def test_a_multi_thread_run_asks_the_schedule_once_per_grant(monkeypatch):
    # the loop keeps the enabled set across the steps that cannot change it and
    # recomputes it, asking `_blocker` only where a thread may be blocked, only
    # after a step that could; before, `schedulable` rebuilt the whole set
    # after every monitor op, which came to 5 `enabled` calls per monitor op here
    p = parse(coarsen_loop(200, threads=3))
    picks = reference_run(p, "rr:3")[0][4]
    # a grant holds while both the enabled set and the thread picked stand
    grants = sum(1 for j, choice in enumerate(picks) if j == 0 or choice != picks[j - 1])
    calls = Counter()

    def counted(cls, name):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a: calls.update([name]) or real(*a))

    counted(Machine, "schedulable")
    counted(Machine, "_blocker")
    counted(RoundRobin, "regrant")
    r = run(p, "rr:3")
    monitor_ops = r.op_counts["monitorenter"] + r.op_counts["monitorexit"]
    assert calls["schedulable"] <= 2
    assert calls["regrant"] == grants
    assert calls["_blocker"] < 2 * monitor_ops, (calls, monitor_ops)


def _reported(program, spec, budget: int):
    """What `run` reports (trace, steps, cost, op counts), or its fault."""
    try:
        r = run(program, spec, budget)
    except InterpreterError as e:
        return "InterpreterError", str(e)
    return r.trace, r.steps, r.metrics.refcycles, +Counter(r.op_counts)


def _stepped(program, spec, budget: int):
    """The same from the one-step-at-a-time reference."""
    out = reference_run(program, spec, budget)[0]
    return out if out[0] == "InterpreterError" else out[:4]


@pytest.mark.parametrize("label", MULTI_THREAD_PROGRAMS)
def test_run_with_the_real_policies_matches_the_reference(label):
    # `Logged` makes `run` take one-step grants; these budgets cut real
    # grants and compiled runs in the middle
    p = MULTI_THREAD_PROGRAMS[label]
    for spec in (*diff_schedules(p), "rr:2"):
        for budget in (7, 23, 101, DIFF_BUDGET):
            assert _reported(p, spec, budget) == _stepped(p, spec, budget), (spec, budget)


def _single_thread_loops():
    yield "guard_bounds_loop", parse(guard_bounds_loop(9, 7))
    yield "fj_kmeans_mini", parse(fj_kmeans_mini(6))
    vec = parse(vec_add(11, 5, 9))
    yield "vec_add", vec
    vectorized, _ = passes.pipeline(vec, ["guard_motion", "loop_vectorize"])
    assert any(i.op == "vbinop" for f in vectorized.functions for b in f.blocks for i in b.instrs)
    yield "vec_add/loop_vectorize", vectorized
    yield "coarsen_loop(5, 1)", parse(coarsen_loop(5, threads=1))
    yield "wrapping-arithmetic-and-int-bool-equality", parse("""
        fn main() {
        entry:
          zero = const 0
          three = const 3
          br loop(zero, three)
        loop(i, x):
          big = const 6148914691236517205
          y = binop mul, x, big
          z = binop add, y, big
          w = binop sub, z, big
          one = const 1
          yes = const true
          same = binop eq, one, yes
          condbr same, done(x), next(i, w)
        next(j, v):
          one2 = const 1
          i2 = binop add, j, one2
          ten = const 10
          c = binop lt, i2, ten
          condbr c, loop(i2, v), done(v)
        done(r):
          output r
          ret
        }
        thread main()
    """)


SINGLE_THREAD_LOOPS = dict(_single_thread_loops())


@pytest.mark.parametrize("label", SINGLE_THREAD_LOOPS)
def test_compiled_runs_match_single_steps_at_every_budget(label):
    p = SINGLE_THREAD_LOOPS[label]
    assert any(e[4] is not None for f in p.functions
               for entries in interp._decode(f).values() for e in entries)
    for budget in (*range(1, 61), DIFF_BUDGET):
        assert _reported(p, "rr:1", budget) == _stepped(p, "rr:1", budget), budget


#: loops whose compiled run meets a fault on a later trip: each must raise the
#: handler's own error, as a step-by-step run does
FAULTING_LOOPS = {
    "division-by-a-counter-reaching-zero": ("""
        fn main() {
        entry:
          three = const 3
          zero = const 0
          br loop(three)
        loop(i):
          hundred = const 100
          q = binop div, hundred, i
          one = const 1
          j = binop sub, i, one
          c = binop le, zero, j
          condbr c, loop(j), done()
        done():
          ret
        }
        thread main()
    """, "binop div: division by zero"),
    "getfield-on-an-int": ("""
        class Box { fields v; }
        fn main() {
        entry:
          b = new Box
          three = const 3
          br loop(three, b)
        loop(i, o):
          v = getfield o, v
          one = const 1
          j = binop sub, i, one
          br loop(j, j)
        }
        thread main()
    """, "getfield: not a reference"),
    "putfield-of-a-missing-field": ("""
        class Box { fields v; }
        class Tag { fields w; }
        fn main() {
        entry:
          b = new Box
          t = new Tag
          three = const 3
          br loop(three, b, t)
        loop(i, o, other):
          one = const 1
          putfield o, v, one
          j = binop sub, i, one
          br loop(j, other, o)
        }
        thread main()
    """, "putfield: class Tag has no field 'v'"),
    "condbr-on-an-int": ("""
        fn main() {
        entry:
          three = const 3
          t = const true
          br loop(three, t)
        loop(i, c):
          one = const 1
          j = binop sub, i, one
          condbr c, loop(j, j), done()
        done():
          ret
        }
        thread main()
    """, "condbr: condition is not a boolean"),
}


@pytest.mark.parametrize("label", FAULTING_LOOPS)
def test_a_fault_inside_a_compiled_run_is_the_handlers_own(label):
    text, message = FAULTING_LOOPS[label]
    p = parse(text)
    assert interp._decode(p.functions[0])["loop"][0][4] is not None
    with pytest.raises(InterpreterError, match=f"^{re.escape(message)}$"):
        run(p)
    assert _stepped(p, "rr:1", DIFF_BUDGET) == ("InterpreterError", message)


#: loops whose generated single step of a monitor op meets a fault on a later
#: trip; it too must raise the handler's own error
FAULTING_STEPS = {
    "monitorenter-of-an-int": ("""
        class Box { fields v; }
        fn main() {
        entry:
          b = new Box
          three = const 3
          br loop(three, b)
        loop(i, o):
          monitorenter o
          monitorexit o
          one = const 1
          j = binop sub, i, one
          br loop(j, j)
        }
        thread main()
    """, "monitorenter: not a reference"),
    "monitorexit-of-a-monitor-never-entered": ("""
        class Box { fields v; }
        fn main() {
        entry:
          b = new Box
          three = const 3
          br loop(three, b, b)
        loop(i, o, x):
          monitorenter o
          monitorexit x
          one = const 1
          j = binop sub, i, one
          n = new Box
          br loop(j, o, n)
        }
        thread main()
    """, "monitorexit: monitor not owned"),
    "monitorexit-of-a-monitor-already-left": ("""
        class Box { fields v; }
        fn main() {
        entry:
          b = new Box
          three = const 3
          br loop(three, b, b)
        loop(i, o, x):
          monitorenter o
          monitorexit x
          one = const 1
          j = binop sub, i, one
          n = new Box
          br loop(j, n, o)
        }
        thread main()
    """, "monitorexit: monitor not owned"),
}

#: a thread that never ends, so that a thread beside it under `rr:1` takes
#: every step as a one-step grant of its own
SPIN = """
    fn spin() {
    e:
      zero = const 0
      br l(zero)
    l(i):
      one = const 1
      j = binop add, i, one
      br l(j)
    }
"""


@pytest.mark.parametrize("label", {**FAULTING_LOOPS, **FAULTING_STEPS})
def test_a_fault_in_a_one_step_grant_is_the_handlers_own(label):
    # a failed inline check of a generated single step takes the hand-written
    # handler, never the step itself again
    text, message = {**FAULTING_LOOPS, **FAULTING_STEPS}[label]
    p = parse(text.replace("thread main()", f"{SPIN}\nthread main()\nthread spin()"))
    with pytest.raises(InterpreterError, match=f"^{re.escape(message)}$"):
        run(p, "rr:1")
    assert _stepped(p, "rr:1", DIFF_BUDGET) == ("InterpreterError", message)


def _step_programs():
    for e in corpus():
        yield e.name, e.program
        yield f"{e.name}/small", e.small
    yield from SINGLE_THREAD_LOOPS.items()
    for label, (text, _) in {**FAULTING_LOOPS, **FAULTING_STEPS}.items():
        yield label, parse(text)
    for seed in range(10):
        yield f"callgraph/{seed}", parse(gen_callgraph_program(seed))


STEP_PROGRAMS = dict(_step_programs())
STEP_BUDGET = 3_000


def _typed(values) -> list:
    """`values` with each value's type beside it, since `1 == True`."""
    return [(type(v), v) for v in values]


def _after_step(m: Machine, tid: int, handler) -> tuple | str:
    """What a step of thread `tid` through `handler` leaves of `m` (every
    frame's position and locals, the heap cells with their owners, the
    monitors), or its fault: a dynamic one, or the assertion that stops a
    thread from entering a monitor another one holds."""
    t = m.threads[tid - 1]
    fr = t.frames[-1]
    instr = fr.code[fr.idx][1]
    fr.idx += 1
    try:
        handler(m, t, fr, instr)
    except (InterpreterError, AssertionError) as e:
        return f"{type(e).__name__}: {e}"
    frames = [(f.fn, f.block, f.idx, sorted(f.locals), _typed(f.locals.values()))
              for u in m.threads for f in u.frames]
    heap = [(type(h), h.owner, *((h.cls, list(h.fields), _typed(h.fields.values()))
                                 if type(h) is HObj else (_typed(h.elems),))) for h in m.heap]
    monitors = {oid: (mon.owner, mon.count, mon.waitset) for oid, mon in m.monitors.items()}
    return frames, heap, monitors


@pytest.mark.parametrize("label", STEP_PROGRAMS)
def test_each_generated_single_step_does_what_its_handler_does(label):
    # `reference_run` and `_stepped` step through the same decoded entries, so
    # a wrong template would be wrong in both; here, at each state that `rr:1`
    # and `rr:2` pass through, each running thread whose next entry has a
    # generated step takes it on one clone and the hand-written handler on
    # another, a thread blocked on a monitor too. Every entry of a `_STEP_OPS`
    # op in a loop block has one, which the decode put in its handler slot
    p = STEP_PROGRAMS[label]
    generated = set()
    for f in p.functions:
        in_loop = set().union(*[loop.blocks for loop in natural_loops(f)])
        generated |= {(f.name, b.name, j) for b in f.blocks if b.name in in_loop
                      for j, i in enumerate(b.instrs) if i.op in interp._STEP_OPS}
    checked = set()
    for spec in ("rr:1", "rr:2"):
        policy, m = parse_schedule(spec), Machine(p)
        try:
            while enabled := m.schedulable(STEP_BUDGET):
                for t in m.threads:
                    if t.status is not RUN:
                        continue
                    fr = t.frames[-1]
                    if (key := (fr.fn, fr.block, fr.idx)) not in generated:
                        continue
                    step, instr = fr.code[fr.idx][:2]
                    assert step.__code__.co_filename == "<compiled runs>", key
                    assert (_after_step(m.clone(), t.tid, step)
                            == _after_step(m.clone(), t.tid, interp._handler(instr))), (spec, key)
                    checked.add(key)
                m.step(pick(policy, enabled))
        except InterpreterError:
            pass  # the faulting loops end so, and the step before was compared
    assert checked == set(generated)


# one straight-line program per `InterpreterError` a single instruction raises
# outside a compiled run, with its message
FAULTING_INSTRS = {
    "binop-on-a-bool": ("""
        fn main() {
        entry:
          t = const true
          one = const 1
          x = binop add, t, one
          output x
          ret
        }
        thread main()
    """, "binop add: expected ints"),
    "callhandle-with-too-few-args": ("""
        fn two(a, b) {
        e:
          ret a
        }
        fn main() {
        e:
          one = const 1
          h = handleconst two
          r = callhandle h(one)
          output r
          ret
        }
        thread main()
    """, "call: two takes 2 args, got 1"),
    "newarray-of-negative-length": ("""
        fn main() {
        e:
          n = const -1
          a = newarray n
          ret
        }
        thread main()
    """, "newarray: negative length"),
    "monitorenter-on-an-int": ("""
        fn main() {
        e:
          n = const 1
          monitorenter n
          ret
        }
        thread main()
    """, "monitorenter: not a reference"),
    "unpark-of-no-thread": ("""
        fn main() {
        e:
          n = const 2
          unpark n
          ret
        }
        thread main()
    """, "unpark: no thread 2"),
    "guard-on-an-int": ("""
        fn main() {
        e:
          n = const 1
          guard n, never
          ret
        }
        thread main()
    """, "guard: condition is not a boolean"),
    "instanceof-on-an-int": ("""
        class C { }
        fn main() {
        e:
          n = const 1
          t = instanceof n, C
          ret
        }
        thread main()
    """, "instanceof: not a reference"),
    "callvirtual-of-a-missing-method": ("""
        class C { }
        class D { methods get=d_get; }
        fn d_get(self) {
        e:
          ret self
        }
        fn main() {
        e:
          o = new C
          r = callvirtual o.get()
          ret
        }
        thread main()
    """, "callvirtual: C has no method 'get'"),
    "callhandle-on-an-int": ("""
        fn main() {
        e:
          n = const 1
          r = callhandle n()
          ret
        }
        thread main()
    """, "callhandle: not a handle"),
    "vbinop-past-the-end": ("""
        fn main() {
        e:
          n = const 4
          a = newarray n
          two = const 2
          vbinop add, a, a, a, two, 4
          ret
        }
        thread main()
    """, "vbinop: lane out of bounds"),
    "ret-without-a-value-to-a-destination": ("""
        fn nothing() {
        e:
          ret
        }
        fn main() {
        e:
          r = call nothing()
          ret
        }
        thread main()
    """, "nothing returned no value to a destination"),
}


@pytest.mark.parametrize("label", FAULTING_INSTRS)
def test_each_instruction_fault_has_one_message(label):
    text, message = FAULTING_INSTRS[label]
    p = parse(text)
    with pytest.raises(InterpreterError, match=f"^{re.escape(message)}$"):
        run(p)
    assert _stepped(p, "rr:1", DIFF_BUDGET) == ("InterpreterError", message)


def test_a_function_shared_by_two_programs_reads_each_programs_singletons():
    first = parse("""
        class A { fields n; }
        class B { fields n; }
        fn bump(k) {
        entry:
          zero = const 0
          br loop(zero)
        loop(i):
          g = classref B
          v = getfield g, n
          one = const 1
          v2 = binop add, v, one
          putfield g, n, v2
          i2 = binop add, i, one
          c = binop lt, i2, k
          condbr c, loop(i2), done()
        done():
          ret
        }
        fn main() {
        e:
          three = const 3
          call bump(three)
          a = classref A
          b = classref B
          x = getfield a, n
          y = getfield b, n
          output x
          output y
          ret
        }
        thread main()
    """)
    second = replace(first, classes=first.classes[::-1])  # B is heap cell 0 here, A in `first`
    assert all(f is g for f, g in zip(first.functions, second.functions))
    assert run(first).trace.events == run(second).trace.events == (0, 3)


def test_a_branch_hands_over_all_its_args_at_once():
    # the back edge swaps `a` and `b`; the `output` just before it keeps the
    # edge out of any compiled run, so the decoded branch handler takes it
    p = parse("""
        fn main() {
        entry:
          one = const 1
          two = const 2
          zero = const 0
          br loop(one, two, zero)
        loop(a, b, n):
          k = const 1
          n2 = binop add, n, k
          three = const 3
          c = binop lt, n2, three
          output a
          condbr c, loop(b, a, n2), done()
        done():
          ret
        }
        thread main()
    """)
    assert interp._decode(p.functions[0])["loop"][5][4] is None
    assert run(p).trace.events == (1, 2, 1)


def test_functions_equal_but_for_an_int_and_a_bool_constant_run_their_own_code():
    text = """
        fn main() {
        entry:
          zero = const 0
          br loop(zero)
        loop(i):
          go = const %s
          one = const 1
          i2 = binop add, i, one
          condbr go, done(), loop(i2)
        done():
          ret
        }
        thread main()
    """
    boolean, integer = parse(text % "true"), parse(text % "1")
    assert boolean.functions == integer.functions  # as 1 == True
    assert run(boolean).trace.status == "terminated"
    with pytest.raises(InterpreterError, match="condbr: condition is not a boolean"):
        run(integer)


PUBLISH_LOOP = """
    class G { fields last; }
    class Box { fields v; }
    fn main(n) {
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      o = new Box
      g = classref G
      putfield g, last, o
      one = const 1
      i2 = binop add, i, one
      c = binop lt, i2, n
      condbr c, loop(i2), done()
    done():
      ret
    }
    thread main(4)
    thread main(5)
"""


@pytest.mark.parametrize("spec", ["rr:1", "rr:7"])
def test_a_compiled_store_into_a_shared_cell_shares_the_cell_it_stores(spec):
    # the store keeps the ownership invariant the search relies on
    p = parse(PUBLISH_LOOP)
    assert interp._decode(p.functions[0])["loop"][1][4] is not None
    fast, slow = Machine(p), Machine(p)
    fast._drive(DIFF_BUDGET, parse_schedule(spec))
    policy = parse_schedule(spec)
    while enabled := slow.schedulable(DIFF_BUDGET):
        slow.step(pick(policy, enabled))
    owners = [h.owner for h in fast.heap]
    assert owners == [h.owner for h in slow.heap] == [0] * (2 + 4 + 5)  # singletons, boxes
