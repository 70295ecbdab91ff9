"""Differential gate for the enumerator's state-space reduction.

`reference` is a plain depth-first search over every enabled thread, with no
reduction. It memoizes on the full machine state (every local, dead or live,
and the heap in allocation order) and is exact under a step budget: a state
whose every path ends is reused only where its longest path fits the budget
left, and a state the budget cut is memoized per budget left.
`enumerate_results` must match it as the `scheduler` docstring states.
Programs with identical threads check the symmetry reduction of
`Machine.canon_key` against it too, and against the search with tid-order
keys. A last test checks, in every reachable state, the ownership invariant
that lets steps on thread-local heap cells count as local.
"""

import pickle
import re
import sys

import pytest

from cirlab import interp
from cirlab.corpus import coarsen_loop, corpus, corpus_entry, private_boxes, publish_pair
from cirlab.interp import HObj, InterpreterError, Machine, Ref, ResultTrace
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, PassOptions, run_pass
from cirlab.scheduler import enumerate_results
from blocked_programs import BLOCKED_PROGRAMS
from test_fuzz import gen_program

FUZZ_SEEDS = 40
PUBLISHING_STORES = ("putfield", "cas", "arraystore")


def full_key(m: Machine) -> bytes:
    """Every part of the machine state a later step can read, pickled.

    Unpickling gives the state back, so equal keys mean equal states.
    """
    return pickle.dumps((
        [(t.status, t.wait_obj, t.saved_count, t.permit,
          [(f.fn, f.block, f.idx, sorted(f.locals.items())) for f in t.frames])
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
            before = len(child.events)
            child.step(tid)
            emitted = tuple(child.events[before:])
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

# two identical threads take a monitor in turn and wait on it, the first at
# site a and the second at site b; a third wakes them once with the op filled
# in, and a woken thread prints its site. `notify` wakes the lower tid, so
# with it only a schedule where thread 2 waits first prints [20] with thread
# 1 left waiting
WAIT_SITES = """
class S { fields n; }
fn waiter() {
e:
  s = classref S
  monitorenter s
  k = getfield s, n
  one = const 1
  k2 = binop add, k, one
  putfield s, n, k2
  zero = const 0
  first = binop eq, k, zero
  condbr first, a(), b()
a():
  wait s
  ten = const 10
  output ten
  monitorexit s
  ret
b():
  wait s
  twenty = const 20
  output twenty
  monitorexit s
  ret
}
fn waker() {
e:
  s = classref S
  monitorenter s
  %s s
  monitorexit s
  ret
}
thread waiter()
thread waiter()
thread waker()
"""

# two identical threads bump G.n; the one that read 0 parks and then prints
# 10, the other unparks thread 1 and prints 20. Only a schedule where thread 2
# reads 0 first prints [20] with a thread left parked
PARK_FIRST = """
class G { fields n; }
fn w() {
e:
  g = classref G
  k = getfield g, n
  one = const 1
  k2 = binop add, k, one
  putfield g, n, k2
  zero = const 0
  first = binop eq, k, zero
  condbr first, sleep(), wake()
sleep():
  park
  ten = const 10
  output ten
  ret
wake():
  unpark one
  twenty = const 20
  output twenty
  ret
}
thread w()
thread w()
"""

# identical threads that each put what they read of G.n in a box of their
# own, then race to publish it: until then the box is only in a thread's frames
RACING_BOXES = """
class G { fields slot, n; }
class Box { fields v; }
fn w() {
e:
  g = classref G
  k = getfield g, n
  b = new Box
  putfield b, v, k
  one = const 1
  putfield g, n, one
  zero = const 0
  ok = cas g, slot, zero, b
  p = getfield g, slot
  x = getfield p, v
  output x
  ret
}
thread w()
thread w()
"""

# identical threads whose live locals hold a null, a bool and a handle, which
# the key holds as they are, around a racy increment of G.n
SCALAR_LOCALS = """
class G { fields n; }
fn bump(x) {
e:
  one = const 1
  y = binop add, x, one
  ret y
}
fn w() {
e:
  nothing = const null
  flag = const true
  h = handleconst bump
  g = classref G
  v = getfield g, n
  v2 = callhandle h(v)
  putfield g, n, v2
  t = instanceof nothing, G
  guard flag, never
  output v2
  ret
}
thread w()
thread w()
thread w()
"""

# identical threads, grouped unless the program reads tids (`notify`, `unpark`)
SYMMETRY_PROGRAMS = (("racing-boxes", RACING_BOXES), ("wait-sites-notify", WAIT_SITES % "notify"),
                     ("wait-sites-notifyall", WAIT_SITES % "notifyall"), ("park-first", PARK_FIRST),
                     ("scalar-locals", SCALAR_LOCALS))

# three threads with different loop counts take G in turn and print their tag
# inside it: while one holds G, the others, blocked on its `monitorenter`, are
# out of its reach, so its accesses to G.n and its output are local
LOCK_LOOP3 = """
class G { fields n; }
fn worker(iters, tag) {
e:
  zero = const 0
  one = const 1
  g = classref G
  br loop(zero)
loop(i):
  c = binop lt, i, iters
  condbr c, body(i), done()
body(i2):
  monitorenter g
  v = getfield g, n
  v2 = binop add, v, one
  putfield g, n, v2
  output tag
  monitorexit g
  i3 = binop add, i2, one
  br loop(i3)
done():
  ret
}
thread worker(2, 1)
thread worker(1, 2)
thread worker(1, 3)
"""

# the notifier goes on writing and printing S.n inside S after it wakes the
# waiter, which is then to take S back (`REACQUIRE`); a third thread waits
# to enter S
HELD_WAIT = """
class S { fields ready, n; }
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
  v = getfield s, n
  output v
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
  two = const 2
  putfield s, n, two
  v = getfield s, n
  output v
  monitorexit s
  ret
}
fn bumper() {
e:
  s = classref S
  monitorenter s
  v = getfield s, n
  ten = const 10
  v2 = binop add, v, ten
  putfield s, n, v2
  monitorexit s
  output v2
  ret
}
thread waiter()
thread notifier()
thread bumper()
"""


def _cases():
    """(id, program, step budget, budgets that cut it): corpus small variants,
    the programs above and those of `blocked_programs`, one `publish_pair`
    per publishing store and generated programs, each followed by the
    output of every pass that rewrites it.

    Generated programs are cut at 4 and 8 steps only: at 12 and 16 their
    budget-cut searches, each a tree search, take 0.05 to 0.8 s apiece. Of the
    `coarsen_loop` programs with identical threads only (1, 3) is here: the
    reference takes 24 s for (2, 3) and 170 s for (1, 4).
    """
    sources = [(e.name, e.small, e.small_budget, PassOptions(chunk=2), (4, 8, 12, 16))
               for e in corpus()]
    sources += [(name, parse(text), 200, PassOptions(), (4, 8, 12, 16))
                for name, text in (("stale-read", STALE_READ), ("reacquire-race", REACQUIRE_RACE),
                                   *LOOKAHEAD_PROGRAMS, *SYMMETRY_PROGRAMS)]
    sources.append(("coarsen_loop(1,3)", parse(coarsen_loop(1, threads=3)), 400,
                    PassOptions(chunk=2), (16, 20, 24, 30)))
    sources += [("lock-loop3", parse(LOCK_LOOP3), 200, PassOptions(chunk=2), (16, 20, 24, 30)),
                ("held-wait", parse(HELD_WAIT), 200, PassOptions(), (12, 16, 20, 24))]
    sources += [(name, parse(text), 200, PassOptions(), (12, 16, 20, 24))
                for name, text in BLOCKED_PROGRAMS]
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


def test_identical_threads_match_the_tid_order_search(monkeypatch):
    program = parse(coarsen_loop(1, threads=4))
    assert (interp._thread_groups(program.threads, interp._code(program).op_counts)
            == ((1, 2, 3, 4),))
    budgets = (400, 34, 38, 42)
    grouped = [enumerate_results(program, b) for b in budgets]
    monkeypatch.setattr(interp, "_thread_groups", lambda threads, ops: ((1,), (2,), (3,), (4,)))
    # a copy of its own, since the program keeps the groups its search derived
    twin = parse(coarsen_loop(1, threads=4))
    tid_order = [enumerate_results(twin, b) for b in budgets]
    assert ([(rs.traces, rs.exhausted) for rs in grouped]
            == [(rs.traces, rs.exhausted) for rs in tid_order])
    assert grouped[0].states_explored * 10 < tid_order[0].states_explored  # 535 and 8,575


@pytest.mark.parametrize("text, steps, monitor", [
    (coarsen_loop(1, threads=2), 6, lambda tid: (tid, [])),  # holds the monitor
    (WAIT_SITES % "notifyall", 10, lambda tid: (None, [tid])),  # waits on it
], ids=["owner", "waitset"])
def test_a_state_and_its_mirror_share_a_key(text, steps, monitor):
    # thread 1 runs ahead in one machine, thread 2 in the other: the two
    # states differ only by swapping the threads, monitor included
    machines = [Machine(parse(text)), Machine(parse(text))]
    for tid, m in enumerate(machines, 1):
        for _ in range(steps):
            m.step(tid)
        [mon] = m.monitors.values()
        assert (mon.owner, mon.waitset) == monitor(tid)
    assert machines[0].canon_key() == machines[1].canon_key()


def test_a_box_only_a_thread_holds_is_keyed_by_its_contents():
    def key_after(turns):
        m = Machine(parse(RACING_BOXES))
        for tid, steps in turns:
            for _ in range(steps):
                m.step(tid)
        return m.canon_key()

    # both threads just wrote G.n and hold boxes (0, 0) or (0, 1): the thread
    # parts tie, and only the boxes they refer to tell the states apart
    assert key_after([(1, 5), (2, 5), (1, 1), (2, 1)]) != key_after([(1, 6), (2, 6)])


@pytest.mark.parametrize("text", [WAIT_SITES % "notify", PARK_FIRST], ids=["notify", "unpark"])
def test_programs_that_read_tids_keep_tid_order(text):
    # only a schedule where thread 2 goes first prints [20] with a thread left
    # blocked, so it must not share a key with its image where thread 1 goes
    # first; CASES checks these programs against `reference`
    program = parse(text)
    assert (interp._thread_groups(program.threads, interp._code(program).op_counts)
            == tuple(zip(range(1, len(program.threads) + 1))))
    assert ResultTrace((20,), "deadlock") in enumerate_results(program, 200).traces


def test_threads_with_different_args_are_never_grouped():
    loop = coarsen_loop(1, threads=0)
    pair = parse(loop + "thread worker(1)\nthread worker(true)\n")
    assert interp._thread_groups(pair.threads, interp._code(pair).op_counts) == ((1,), (2,))
    program = parse(loop + "thread worker(1)\nthread worker(0)\nthread worker(1)\n")
    assert interp._thread_groups(program.threads, interp._code(program).op_counts) == ((1, 3), (2,))
    ref, ref_exhausted = reference(program, 400)
    rs = enumerate_results(program, 400)
    assert ref_exhausted and rs.exhausted and rs.traces == ref


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


CELL_OPERANDS = """
class C { fields f; }
class D { fields x; }
class G { fields f; }
fn main() {
e:
  nul = const null
  zero = const 0
  two = const 2
  minus = const -1
  t = const true
  o = new C
  d = new D
  a = newarray two
  g = classref G
  s = newarray two
  putfield g, f, s
  %s
  ret
}
fn idle() {
e:
  ret
}
thread main()
thread idle()
"""

#: each cell op, with `{r}` its reference and `{k}` its index
CELL_STEPS = {"getfield": "v = getfield {r}, f", "putfield": "putfield {r}, f, two",
              "cas": "c = cas {r}, f, zero, two", "arrayload": "v = arrayload {r}, {k}",
              "arraystore": "arraystore {r}, {k}, two"}

#: (reference, index) per operand; a field op takes those whose index is `zero`
OPERANDS = {"null": ("nul", "zero"), "int": ("two", "zero"), "object": ("o", "zero"),
            "array": ("a", "zero"), "object-without-the-field": ("d", "zero"),
            "shared-object": ("g", "zero"), "shared-array": ("s", "zero"),
            "index-minus-one": ("a", "minus"), "index-at-the-length": ("a", "two"),
            "bool-index": ("a", "t")}


@pytest.mark.parametrize("op, ref, index", [
    pytest.param(op, ref, index, id=f"{op}-{name}") for op in CELL_STEPS
    for name, (ref, index) in OPERANDS.items() if op.startswith("array") or index == "zero"])
def test_the_look_ahead_calls_a_cell_op_local_only_where_its_step_does_not_raise(op, ref, index):
    # the owned cells `o` and `a` and the shared ones `g` and `s`, which thread
    # 2 never reaches, are the valid operands
    array = op.startswith("array")
    valid = (ref, index) in (("a", "zero"), ("s", "zero")) if array else ref in ("o", "g")
    m = Machine(parse(CELL_OPERANDS % CELL_STEPS[op].format(r=ref, k=index)))
    for _ in range(11):
        m.step(1)
    assert m.next_is_local(1) is valid
    try:
        m.clone().step(1)
    except InterpreterError:
        assert not valid
    else:
        assert valid


#: the labels each step conflicts with, written out per op in a spelling of
#: their own, independent of `interp._ACCESS` and its rule: `{f}` is the step's
#: field, `ar`/`aw` an array read/write, `out` an output and `stop` a guard
CONFLICT_TABLE = {"getfield": {"w.{f}", "top"}, "putfield": {"r.{f}", "w.{f}", "top"},
                  "cas": {"r.{f}", "w.{f}", "top"}, "arrayload": {"aw", "top"},
                  "arraystore": {"ar", "aw", "top"}, "output": {"out", "stop", "top"}}

#: each op's own labels in the same spelling; a `call` has none of its own
LABEL_TABLE = {"getfield": {"r.{f}"}, "putfield": {"w.{f}"}, "cas": {"r.{f}", "w.{f}"},
               "arrayload": {"ar"}, "arraystore": {"aw"}, "vbinop": {"ar", "aw"},
               "output": {"out"}, "guard": {"stop"}, "callvirtual": {"top"},
               "callhandle": {"top"}, "call": set()}

#: fields named like a label or a place, so that a name never makes a conflict
LABEL_FIELDS = ("f", "g", "out", "top", "stop", "ar", "aw", "trace", "array")


def _accesses(ops) -> list[tuple[str, str | None]]:
    """(op, field) for each op of `ops`, one per field of `LABEL_FIELDS` for a
    field op."""
    return [(op, f) for op in ops
            for f in (LABEL_FIELDS if op in ("getfield", "putfield", "cas") else (None,))]


def test_the_conflict_rule_matches_an_independent_table():
    for place in (interp.ARRAY, interp.TRACE):  # no field can be named so
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", place) is None, place
    for a, f in _accesses(CONFLICT_TABLE):
        conflicts = {x.format(f=f) for x in CONFLICT_TABLE[a]}
        for b, g in _accesses(LABEL_TABLE):
            want = not conflicts.isdisjoint(x.format(f=g) for x in LABEL_TABLE[b])
            got = not interp._conflicts(a, f).isdisjoint(interp._labels(b, g))
            assert got == want, (a, f, b, g)


OUT_FIELD = """
class G { fields out; }
fn reader() {
e:
  g = classref G
  v = getfield g, out
  ret
}
fn writer() {
e:
  one = const 1
  output one
  ret
}
thread reader()
thread writer()
"""


def test_a_field_named_out_does_not_conflict_with_an_output():
    m = Machine(parse(OUT_FIELD))
    m.step(1)
    m.step(2)
    assert m.next_is_local(1) and m.next_is_local(2)


def _reach_violations(m: Machine) -> list[tuple[str, int, int]]:
    """(root, cell, owner) for each cell reachable from a root that its owner
    forbids: the singletons may reach only shared cells, and thread u's frames
    only shared cells and cells u owns."""
    roots = [("singletons", 0, list(m.code.singletons.values()))]
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
