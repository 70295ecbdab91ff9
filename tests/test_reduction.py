"""Differential gate for the enumerator's state-space reduction.

`reference` is a plain depth-first search over every enabled thread, with no
reduction. It memoizes on the full machine state (every local, dead or live,
and the heap in allocation order) and is exact under a step budget: a state
whose every path ends is reused only where its longest path fits the budget
left, and a state the budget cut is memoized per budget left.
`enumerate_results` must match it as the `scheduler` docstring states.
A last test checks, in every reachable state, the ownership invariant that
lets steps on thread-local heap cells count as local.
"""

import pickle
import sys

import pytest

from cirlab.corpus import corpus, corpus_entry, private_boxes, publish_pair
from cirlab.interp import HObj, InterpreterError, Machine, Ref, ResultTrace
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, PassOptions, run_pass
from cirlab.scheduler import enumerate_results
from test_fuzz import gen_program

FUZZ_SEEDS = 40
PUBLISHING_STORES = ("putfield", "cas", "arraystore")


def full_key(m: Machine) -> bytes:
    """Every part of the machine state a later step can read, pickled.

    Unpickling gives the state back, so equal keys mean equal states.
    """
    return pickle.dumps((
        [(t.status, t.wait_obj, t.saved_count, t.permit,
          [(f.fn, f.block, f.idx, f.ret_dest, sorted(f.locals.items())) for f in t.frames])
         for t in m.threads],
        [(h.cls, h.fields) if isinstance(h, HObj) else h.elems for h in m.heap],
        sorted((oid, mon.owner, mon.count, mon.waitset) for oid, mon in m.monitors.items()),
    ))


def reference(program, budget: int) -> tuple[frozenset[ResultTrace], bool]:
    """(the result set over every schedule, True iff no path hit the budget)."""
    done = {}  # full key -> (suffixes, longest path); every path from the state ends
    cut = {}  # (full key, budget left) -> suffixes of a search the budget cut

    def explore(m, rem):
        """(suffixes, longest path length, or None if the budget cut a path)."""
        if m.status is not None:
            return frozenset({((), m.status, m.reason)}), 0
        enabled = m.enabled_threads()
        if not enabled:
            return frozenset({((), "deadlock" if m.alive() else "terminated", None)}), 0
        if rem <= 0:
            return frozenset({((), "step-budget-exhausted", None)}), None
        key = full_key(m)
        hit = done.get(key)
        if hit is not None and hit[1] <= rem:
            return hit
        if (key, rem) in cut:
            return cut[key, rem], None
        out = set()
        height = 0
        for k, tid in enumerate(enabled):
            child = m.clone() if k < len(enabled) - 1 else m
            emitted = tuple(child.step(tid))
            suffixes, h = explore(child, rem - 1)
            height = None if h is None or height is None else max(height, h + 1)
            out.update((emitted + ev, status, reason) for ev, status, reason in suffixes)
        out = frozenset(out)
        if height is None:
            cut[key, rem] = out
        else:
            done[key] = out, height
        return out, height

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, budget + 500))
    try:
        suffixes, height = explore(Machine(program), budget)
    finally:
        sys.setrecursionlimit(old_limit)
    return frozenset(ResultTrace(*s) for s in suffixes), height is not None


# x, read before the write, is live through block m only because block f
# prints it; a state key that drops it merges the states behind [0, 1] and [1, 1]
STALE_READ = """
class G { fields n; }
fn reader() {
e:
  g = classref G
  a = getfield g, n
  br m(a)
m(x):
  b = getfield g, n
  br f()
f():
  output x
  output b
  ret
}
fn writer() {
e:
  g = classref G
  one = const 1
  putfield g, n, one
  ret
}
thread reader()
thread writer()
"""

# a notified waiter's reacquire races the notifier's second monitorenter;
# only that race prints [2, 1], and only an edge argument carries `waited`
REACQUIRE_RACE = """
class S { fields ready; }
fn waiter() {
e:
  s = classref S
  zero = const 0
  monitorenter s
  br chk(zero)
chk(w):
  f = getfield s, ready
  one = const 1
  go = binop eq, f, one
  condbr go, fin(w), slp()
slp():
  wait s
  br chk(one)
fin(waited):
  output waited
  monitorexit s
  ret
}
fn notifier() {
e:
  s = classref S
  one = const 1
  monitorenter s
  putfield s, ready, one
  notify s
  monitorexit s
  monitorenter s
  two = const 2
  output two
  monitorexit s
  ret
}
thread waiter()
thread notifier()
"""

# an output conflicts with another thread's guard: run first, it would hide
# the deopt trace [], where the guard fails before anything is printed
OUTPUT_THEN_DEOPT = """
fn out1() {
e:
  one = const 1
  output one
  ret
}
fn fail() {
e:
  f = const false
  guard f, boom
  ret
}
thread out1()
thread fail()
"""

# looper writes G.x only after its loop, so G.x stays in its reach until then;
# its reads of G.y conflict with other's write until that write is done
LATE_WRITE = """
class G { fields x, y; }
fn looper(n) {
e:
  g = classref G
  zero = const 0
  br l(zero, zero)
l(i, last):
  v = getfield g, y
  one = const 1
  i2 = binop add, i, one
  more = binop lt, i2, n
  condbr more, l(i2, v), w(v)
w(seen):
  putfield g, x, seen
  ret
}
fn other() {
e:
  g = classref G
  a = getfield g, x
  one = const 1
  putfield g, y, one
  b = getfield g, x
  output a
  output b
  ret
}
thread looper(3)
thread other()
"""

# G.x is written by a callee and at each level of a recursion; both threads print
CALLEE_WRITES = """
class G { fields x; }
fn set(v) {
e:
  g = classref G
  putfield g, x, v
  ret
}
fn rec(n) {
e:
  zero = const 0
  done = binop le, n, zero
  condbr done, base(), down()
base():
  g = classref G
  v = getfield g, x
  output v
  ret
down():
  one = const 1
  m = binop sub, n, one
  call rec(m)
  call set(n)
  ret
}
fn caller() {
e:
  g = classref G
  v = getfield g, x
  output v
  seven = const 7
  call set(seven)
  w = getfield g, x
  output w
  ret
}
thread caller()
thread rec(2)
"""

# an unknown callee may access anything, so no step of the reader that touches
# G.x commutes with the other thread's frame while it can still reach the call
UNKNOWN_CALLEE = """
class G { fields x; methods bump=bump; }
fn bump(self) {
e:
  v = getfield self, x
  one = const 1
  v2 = binop add, v, one
  putfield self, x, v2
  ret v2
}
fn reader() {
e:
  g = classref G
  a = getfield g, x
  output a
  b = getfield g, x
  output b
  ret
}
fn caller() {
e:
  g = classref G
  h = handleconst bump
%s
  output r
  ret
}
thread reader()
thread caller()
"""

# writer publishes an array through G.a, then sets G.ready; the reader loads
# and stores elements only once it sees G.ready
SHARED_ARRAY = """
class G { fields a, ready; }
fn writer() {
e:
  g = classref G
  zero = const 0
  one = const 1
  two = const 2
  five = const 5
  arr = newarray two
  arraystore arr, zero, five
  putfield g, a, arr
  putfield g, ready, one
  six = const 6
  arraystore arr, zero, six
  v = arrayload arr, one
  output v
  ret
}
fn reader() {
e:
  g = classref G
  r = getfield g, ready
  one = const 1
  ok = binop eq, r, one
  condbr ok, go(), no()
go():
  arr = getfield g, a
  zero = const 0
  v = arrayload arr, zero
  arraystore arr, one, v
  output v
  ret
no():
  ret
}
thread writer()
thread reader()
"""

# `early` prints once and then only writes G.x, so the other threads' outputs
# stop conflicting with it; `late` reads G.x, which `early` writes in its loop
EARLY_OUTPUT = """
class G { fields x; }
fn early(n) {
e:
  g = classref G
  one = const 1
  output one
  zero = const 0
  br l(zero)
l(i):
  putfield g, x, i
  k = const 1
  i2 = binop add, i, k
  more = binop lt, i2, n
  condbr more, l(i2), fin()
fin():
  ret
}
fn late() {
e:
  two = const 2
  output two
  g = classref G
  v = getfield g, x
  output v
  ret
}
fn once() {
e:
  three = const 3
  output three
  ret
}
thread early(3)
thread late()
thread once()
"""

LOOKAHEAD_PROGRAMS = (("output-then-deopt", OUTPUT_THEN_DEOPT), ("late-write", LATE_WRITE),
                      ("callee-writes", CALLEE_WRITES),
                      ("callvirtual", UNKNOWN_CALLEE % "  r = callvirtual g.bump()"),
                      ("callhandle", UNKNOWN_CALLEE % "  r = callhandle h(g)"),
                      ("shared-array", SHARED_ARRAY), ("early-output", EARLY_OUTPUT))


def _cases():
    """(id, program, step budget, budgets that cut it): corpus small variants,
    the programs above, one `publish_pair` per publishing store and
    generated programs, each followed by the output of every pass that
    rewrites it.

    Generated programs are cut at 4 and 8 steps only: at 12 and 16 their
    budget-cut searches, each a tree search, take 0.05 to 0.8 s apiece.
    """
    sources = [(e.name, e.small, e.small_budget, PassOptions(chunk=2), (4, 8, 12, 16))
               for e in corpus()]
    sources += [(name, parse(text), 200, PassOptions(), (4, 8, 12, 16))
                for name, text in (("stale-read", STALE_READ), ("reacquire-race", REACQUIRE_RACE),
                                   *LOOKAHEAD_PROGRAMS)]
    sources += [(f"publish-{store}", parse(publish_pair(store)), 200, PassOptions(),
                 (12, 16, 20, 24)) for store in PUBLISHING_STORES]
    sources += [(f"gen{s}", parse(gen_program(s)), 3000, PassOptions(), (4, 8))
                for s in range(FUZZ_SEEDS)]
    for name, program, budget, options, cuts in sources:
        yield pytest.param(program, budget, cuts, id=name)
        for pass_name in PASS_NAMES:
            out, report = run_pass(program, pass_name, options)
            if report.rewrites:
                yield pytest.param(out, budget, cuts, id=f"{name}/{pass_name}")


CASES = list(_cases())


def _by_status(traces, status):
    return {t for t in traces if t.status == status}


@pytest.mark.parametrize("program, budget, cuts", CASES)
def test_exhausted_search_matches_reference(program, budget, cuts):
    ref, ref_exhausted = reference(program, budget)
    assert ref_exhausted
    rs = enumerate_results(program, budget)
    assert rs.exhausted and rs.traces == ref


@pytest.mark.parametrize("program, budget, cuts", CASES)
def test_budget_cut_search_keeps_the_contract(program, budget, cuts):
    for cut in cuts:
        ref, ref_exhausted = reference(program, cut)
        rs = enumerate_results(program, cut)
        assert rs.exhausted == ref_exhausted
        for status in ("terminated", "deadlock"):
            assert _by_status(rs.traces, status) == _by_status(ref, status)
        assert rs.traces <= ref


SPIN_THEN_DEOPT = """
fn spin(n) {
e:
  zero = const 0
  br l(zero)
l(i):
  one = const 1
  i2 = binop add, i, one
  more = binop lt, i2, n
  condbr more, l(i2), x()
x():
  ret
}
fn fail() {
e:
  f = const false
  guard f, boom
  ret
}
thread spin(%d)
thread fail()
"""


def test_local_steps_can_push_a_deopt_past_the_budget():
    # the spinning thread's steps are all local, so they run first: within 20
    # steps the reduced search never reaches the failing guard
    deopt = ResultTrace((), "deopt", "boom")
    program = parse(SPIN_THEN_DEOPT % 100)
    assert deopt in reference(program, 20)[0]
    assert deopt not in enumerate_results(program, 20).traces
    program = parse(SPIN_THEN_DEOPT % 3)
    assert enumerate_results(program, 100).traces == reference(program, 100)[0]


def test_coarsen_mini_enumerates_far_fewer_states():
    e = corpus_entry("coarsen-mini")
    rs = enumerate_results(e.small, e.small_budget)
    assert rs.exhausted and rs.states_explored < 2_500  # 20,394 without reduction
    assert rs.memo_hits > 0


LOCALITY = """
class C { fields f; }
class G { fields n; }
fn main() {
e:
  zero = const 0
  two = const 2
  t = const true
  o = new C
  a = newarray two
  g = classref G
%s
  ret
}
thread main()
"""


@pytest.mark.parametrize("step, local", [
    ("v = getfield o, f", True),
    ("v = getfield a, f", False),  # an array, not an object
    ("v = getfield o, n", False),  # C has no field n
    ("c = cas o, n, zero, two", False),
    ("putfield zero, f, two", False),  # not a reference
    ("v = getfield g, n", True),  # a shared cell no other thread can reach
    ("putfield g, f, two", False),
    ("v = arrayload a, zero", True),
    ("v = arrayload o, zero", False),  # an object, not an array
    ("arraystore a, two, zero", False),  # out of range
    ("v = arrayload a, t", False),  # a bool index
    ("output two", True),
    ("output t", False),  # not an int
])
def test_a_step_that_can_raise_is_not_local(step, local):
    m = Machine(parse(LOCALITY % step))
    for _ in range(6):
        m.step(1)
    assert m.next_is_local(1) is local
    if not local:
        with pytest.raises(InterpreterError):
            m.step(1)


def _reach_violations(m: Machine) -> list[tuple[str, int, int]]:
    """(root, cell, owner) for each cell reachable from a root that its owner
    forbids: the singletons may reach only shared cells, and thread u's frames
    only shared cells and cells u owns."""
    roots = [("singletons", 0, list(m.singletons.values()))]
    roots += [(f"thread {t.tid}", t.tid, [v for f in t.frames for v in f.locals.values()])
              for t in m.threads]
    bad = []
    for name, tid, values in roots:
        seen = set()
        todo = [v.i for v in values if isinstance(v, Ref)]
        while todo:
            i = todo.pop()
            if i in seen:
                continue
            seen.add(i)
            h = m.heap[i]
            if h.owner not in (0, tid):
                bad.append((name, i, h.owner))
            todo += [v.i for v in (h.fields.values() if isinstance(h, HObj) else h.elems)
                     if isinstance(v, Ref)]
    return bad


OWNERSHIP_PROGRAMS = (
    [pytest.param(gen_program(s), id=f"gen{s}") for s in range(FUZZ_SEEDS)]
    + [pytest.param(publish_pair(s), id=f"publish-{s}") for s in PUBLISHING_STORES]
    + [pytest.param(private_boxes(2), id="private-boxes")])


@pytest.mark.parametrize("text", OWNERSHIP_PROGRAMS)
def test_owned_cells_are_out_of_other_threads_reach(text):
    # the ownership invariant `Machine.next_is_local` relies on, in every
    # state over every schedule, owner bits included in the state
    todo, seen, owned = [Machine(parse(text))], set(), 0
    while todo:
        m = todo.pop()
        key = full_key(m), tuple(h.owner for h in m.heap)
        if key in seen:
            continue
        seen.add(key)
        assert _reach_violations(m) == []
        owned += any(h.owner for h in m.heap)
        for tid in m.schedulable(3000):
            child = m.clone()
            child.step(tid)
            todo.append(child)
    assert owned or " new " not in text  # a program that allocates holds a local cell
