"""Small-step interpreter for one thread schedule.

Execution is sequentially consistent: one instruction of one thread runs per
step, and every instruction (including CAS) is atomic. A thread whose next
action cannot proceed (monitor held elsewhere, empty park permit, waiting)
is simply not enabled; it re-executes nothing while blocked.

Runtime values are 64-bit signed ints, bools, heap references, null, and
function handles. Fields and array elements start at integer 0. A `Machine`
raises ValueError for a program that fails `validate` (memoized, so checked
once per program), so every name, block, callee and operator kind resolves.
InterpreterError is only a dynamic fault of a valid program (type confusion,
e.g. getfield on an int, bounds, division, monitor misuse) and fails the run;
a failed guard instead ends the whole trace with a deopt status.

A run counts executed opcodes and a deterministic cost in "reference
cycle" units per `cost_model`; `ir.OPCODES` gives each opcode's cost and the
workload metric it counts toward, from which `run` builds the metric vector.

A `Machine` holds only execution state. All it derives from its program is
one `_Code`, which it builds and its clones share, so it lives for one `run`
or one search: each block decoded to a list of `(handler, instr, cost, op)`
entries, so a step is one index and one call, and the tables the handlers
and the search read. One loop, `Machine._advance`, steps the decoded code in
batches, and one driver, `Machine._drive`, runs it until
`Machine.schedulable`, the stop rule of `run` and of the schedule enumerator,
stops the machine; `run` and the enumerator's last-thread tail both call
`_drive`. The driver asks the schedule to pick a thread only while two or
more are live; the last one runs alone. A batch keeps the enabled set
`schedulable` gave and hands back, so that `schedulable` is asked again, only
after a step that could change that set: a `monitorenter`, `monitorexit`,
`wait`, `notify`, `notifyall` or `unpark` while another thread is live, a
step that reacquires a monitor, a step after which the stepping thread is not
`RUN` or its next `monitorenter` is blocked, and a step that stops the
machine or uses up the step budget. Any other step changes no monitor and no
other thread's status, so every thread stays as enabled as it was.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .ir import INT_MAX, OPCODES, PURE_OPS, Br, CondBr, Function, Instr, Program, Ret, memo
from .validate import validate


class InterpreterError(Exception):
    """A dynamic fault of a valid program (type confusion, monitor misuse,
    bounds, division); see the module docstring."""


@dataclass(frozen=True)
class Ref:
    i: int


@dataclass(frozen=True)
class Handle:
    fn: str


Value = int | bool | None | Ref | Handle


@dataclass(frozen=True)
class ResultTrace:
    """The externally observable result: output events plus how the run ended."""

    events: tuple[int, ...]
    status: str  # terminated | deopt | step-budget-exhausted | deadlock
    reason: str | None = None  # deopt reason tag

    def __str__(self) -> str:
        tail = f"({self.reason})" if self.reason else ""
        return f"[{', '.join(map(str, self.events))}] {self.status}{tail}"


@dataclass
class MetricVector:
    """Per-run dynamic metric counts; cpu/cachemiss are ingest-only and stay None."""

    synch: int = 0
    wait: int = 0
    notify: int = 0
    atomic: int = 0
    park: int = 0
    object: int = 0
    array: int = 0
    method: int = 0
    idynamic: int = 0
    refcycles: int = 0
    cpu: float | None = None
    cachemiss: float | None = None

    COLUMNS = ("synch", "wait", "notify", "atomic", "park", "cpu", "cachemiss",
               "object", "array", "method", "idynamic")

    def row(self) -> list[str]:
        cells = [getattr(self, c) for c in self.COLUMNS] + [self.refcycles]
        return ["" if v is None else str(v) for v in cells]


def cost_model(instr: Instr) -> int:
    """Cost units per instruction; the stand-in for hardware reference cycles."""
    return instr.width or OPCODES[instr.op].cost


def _wrap(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v > INT_MAX else v


def _int(v: Value, what: str) -> int:
    if type(v) is not int:  # a bool is not an int value
        raise InterpreterError(f"{what}: expected int")
    return v


def _values_equal(a: Value, b: Value) -> bool:
    return type(a) is type(b) and a == b  # an int never equals a bool


def _quot(a: int, b: int, kind: str) -> int:
    """a / b truncated toward zero."""
    if b == 0:
        raise InterpreterError(f"binop {kind}: division by zero")
    return -(-a // b) if (a < 0) != (b < 0) else a // b


_INT_OPS = {
    "add": lambda a, b: _wrap(a + b), "sub": lambda a, b: _wrap(a - b),
    "mul": lambda a, b: _wrap(a * b), "div": lambda a, b: _wrap(_quot(a, b, "div")),
    "mod": lambda a, b: _wrap(a - _quot(a, b, "mod") * b), "lt": operator.lt, "le": operator.le,
}


def _binop_fn(kind: str):
    """The function computing binop `kind`, with its type checks."""
    if kind == "eq":
        return _values_equal
    op = _INT_OPS[kind]

    def f(a: Value, b: Value) -> Value:
        if type(a) is not int or type(b) is not int:
            raise InterpreterError(f"binop {kind}: expected ints")
        return op(a, b)

    return f


class HObj:
    """An object; `owner` is the tid of the one thread that can reach it, or 0
    once any other thread may (see `Machine._publish`)."""

    __slots__ = ("cls", "fields", "owner")

    def __init__(self, cls: str, fields: dict[str, Value], owner: int):
        self.cls, self.fields, self.owner = cls, fields, owner


class HArr:
    """An array; `owner` as for `HObj`."""

    __slots__ = ("elems", "owner")

    def __init__(self, elems: list[Value], owner: int):
        self.elems, self.owner = elems, owner


class Monitor:
    __slots__ = ("owner", "count", "waitset")

    def __init__(self, owner: int | None = None, count: int = 0, waitset: list[int] | None = None):
        self.owner, self.count, self.waitset = owner, count, [] if waitset is None else waitset


class Frame:
    """An activation; `code` is the decoded entry list of block `block`."""

    __slots__ = ("fn", "block", "code", "locals", "ret_dest", "idx")

    def __init__(self, fn: str, block: str, code: list, locals_: dict[str, Value],
                 ret_dest: str | None, idx: int = 0):
        self.fn, self.block, self.code = fn, block, code
        self.idx, self.locals, self.ret_dest = idx, locals_, ret_dest


# thread status values; "run" also covers threads gated on a held monitor,
# which are detected by peeking at their next instruction
RUN, WAITING, REACQUIRE, PARKED, DONE = "run", "waiting", "reacquire", "parked", "done"

#: opcodes whose step commutes with every step of every other thread: it reads
#: and writes only the running thread's own frames, or allocates a cell that
#: only that thread can reach, whose heap number `canon_key` renumbers away
_LOCAL_OPS = PURE_OPS | {"call", "new", "newarray"}

#: opcodes whose step reads or writes the heap cell its operand 0 refers to,
#: and no other shared state; local when the running thread owns that cell, or
#: when no other thread may still make a conflicting access to it
_CELL_OPS = frozenset({"getfield", "putfield", "cas", "arrayload", "arraystore"})

#: opcodes of `_CELL_OPS` that index an array; the rest name a field
_ARRAY_OPS = frozenset({"arrayload", "arraystore"})

#: look-ahead labels (see `_reach_table`) besides the field accesses ("r", field)
#: and ("w", field): an array read or write, an output, a guard, and an unknown callee
AR, AW, OUT, STOP, TOP = "ar", "aw", "out", "stop", "top"

_OP_LABELS = {"arrayload": (AR,), "arraystore": (AW,), "vbinop": (AR, AW), "output": (OUT,),
              "guard": (STOP,), "callvirtual": (TOP,), "callhandle": (TOP,)}

#: the labels another thread's reach must not hold for a step on a shared cell,
#: or an output, to count as local (see `Machine.next_is_local`)
_CONFLICTS = {"arrayload": (AW, TOP), "arraystore": (AR, AW, TOP), "output": (OUT, STOP, TOP)}

#: opcodes whose step can change whether another thread is enabled: they take,
#: free or hand over a monitor, or wake a waiting or parked thread
_SYNC_OPS = frozenset({"monitorenter", "monitorexit", "wait", "notify", "notifyall", "unpark"})

#: opcodes whose step depends on thread ids: `unpark` takes one, and `notify`
#: wakes the waiting thread with the lowest (`notifyall` wakes them all)
_TID_OPS = frozenset({"notify", "unpark"})

_UNSET = object()  # `canon_key`'s stand-in for a live name not yet assigned
_HIDDEN = ("r",)  # `canon_key`'s stand-in for a reference in a thread's sort key


class ThreadState:
    __slots__ = ("tid", "frames", "status", "wait_obj", "saved_count", "permit")

    def __init__(self, tid: int, frames: list[Frame], status: str = RUN,
                 wait_obj: int | None = None, saved_count: int = 0, permit: bool = False):
        self.tid, self.frames, self.status = tid, frames, status
        self.wait_obj, self.saved_count, self.permit = wait_obj, saved_count, permit


def _binop(i: Instr):
    """The handler of binop `i`: a closure over its function and operands."""
    f, d, (x, y) = _binop_fn(i.kind), i.dest, i.args

    def h(m, t, fr, i):
        env = fr.locals
        env[d] = f(env[x], env[y])

    return h


def _branch(term: Br | CondBr, blocks: dict, code: dict):
    """The handler of branch `term`: a closure over (target, params, entry list,
    args) per edge."""
    edges = [(target, blocks[target].params, code[target], args) for target, args in term.edges()]
    then, other, cond = edges[0], edges[-1], getattr(term, "cond", None)

    def h(m, t, fr, i):
        env = fr.locals
        if cond is None:
            target, params, entries, args = then
        else:
            c = env[cond]
            if c is not True and c is not False:
                raise InterpreterError("condbr: condition is not a boolean")
            target, params, entries, args = then if c else other
        env.update(zip(params, [env[a] for a in args]))
        fr.block, fr.code, fr.idx = target, entries, 0

    return h


def _labels(i: Instr) -> tuple:
    """The look-ahead labels of `i` itself; a `call` adds its callee's."""
    if i.op == "getfield":
        return (("r", i.field),)
    if i.op == "putfield":
        return (("w", i.field),)
    if i.op == "cas":
        return (("r", i.field), ("w", i.field))
    return _OP_LABELS.get(i.op, ())


def _reach_table(fns: dict[str, Function]) -> dict[str, dict[str, list[frozenset]]]:
    """fn -> block -> for each index, the labels a frame there may still produce,
    its callees' included; the last index is the terminator's.

    A static over-approximation: a fixpoint of each block's entry set over the
    branches and the call graph. A `ret` adds nothing, since the caller's frame
    holds the rest of its code. Equal sets are one object.
    """
    entry_key = {name: (name, f.entry.name) for name, f in fns.items()}
    parts = {}  # (fn, block) -> (own labels, callee entry keys, successor keys)
    for name, f in fns.items():
        for b in f.blocks:
            parts[name, b.name] = (
                {x for i in b.instrs for x in _labels(i)},
                [entry_key[i.fn] for i in b.instrs if i.op == "call"],
                [(name, t) for t in b.term.targets()])
    entry = dict.fromkeys(parts, frozenset())
    changed = True
    while changed:
        changed = False
        for key, (own, calls, succs) in parts.items():
            s = frozenset(own.union(*[entry[k] for k in calls], *[entry[k] for k in succs]))
            if s != entry[key]:
                entry[key], changed = s, True
    interned: dict[frozenset, frozenset] = {}
    table: dict[str, dict[str, list[frozenset]]] = {}
    for name, f in fns.items():
        blocks = table[name] = {}
        for b in f.blocks:
            acc = frozenset().union(*[entry[k] for k in parts[name, b.name][2]])
            points = [interned.setdefault(acc, acc)]
            for i in reversed(b.instrs):
                extra = set(_labels(i))
                if i.op == "call":
                    extra |= entry[entry_key[i.fn]]
                if not extra <= acc:
                    acc = acc | extra
                points.append(interned.setdefault(acc, acc))
            blocks[b.name] = points[::-1]
    return table


@memo
def _live_names(f: Function) -> dict[str, tuple[tuple[str, ...], ...]]:
    """Block -> the names live before each instruction index (`cfg.liveness`),
    each in name order; `Machine.canon_key` keys a frame by them."""
    from .cfg import liveness  # on first use, as in `validate._def_before_use`
    return {b: tuple(tuple(sorted(names)) for names in points) for b, points in liveness(f).items()}


def _thread_groups(p: Program) -> tuple[int, ...] | None:
    """Each thread's group number, or None when `Machine.canon_key` keeps
    threads in tid order.

    Threads declared with the same function and the same literal args (`1`
    and `true` differ) form one group. None when no group has two threads,
    or when an instruction of the program depends on thread ids (`_TID_OPS`).
    """
    numbers: dict = {}
    groups = tuple(numbers.setdefault((d.fn, tuple((type(a), a) for a in d.args)), len(numbers))
                   for d in p.threads)
    if len(numbers) == len(groups) or any(
            i.op in _TID_OPS for f in p.functions for b in f.blocks for i in b.instrs):
        return None
    return groups


class _Code:
    """All a `Machine` derives from its valid `program`, shared by its clones.

    Each block decodes to a list of (handler, instr, cost, op) entries,
    terminator last: a step moves `frame.idx` past an entry and calls
    `handler(machine, thread, frame, instr)`, an `_op_<opcode>` method or a
    `_binop` or `_branch` closure. `callees` maps fn -> (params, entry block,
    entry list), `vtable` (class, selector) -> fn, `ancestry` and `field_order`
    a class to its ancestors and fields, `singletons` to its singleton (heap
    cell k for the k-th class), and `op_counts` each opcode of the program to
    0. Only the search reads `reach` and `keying`.
    """

    def __init__(self, program: Program):
        p = self.program = program
        fns = self.fns = p.fn_map()
        self.field_order = {c.name: tuple(p.declared_fields(c.name)) for c in p.classes}
        self.singletons = {c.name: Ref(k) for k, c in enumerate(p.classes)}
        self.ancestry = {c.name: frozenset(p.ancestry(c.name)) for c in p.classes}
        self.vtable = {(c, sel): p.resolve_method(c, sel)
                       for c in self.ancestry for d in p.classes for sel, _ in d.methods}
        blocks = {name: f.block_map() for name, f in fns.items()}
        code = {name: {b: [] for b in bm} for name, bm in blocks.items()}
        self.callees = {name: (f.params, f.entry.name, code[name][f.entry.name])
                        for name, f in fns.items()}
        self.op_counts: dict[str, int] = {}
        for name, bm in blocks.items():
            for b in bm.values():
                entries = code[name][b.name]
                for i in b.instrs:
                    op = sys.intern(i.op)
                    self.op_counts[op] = 0
                    handler = _binop(i) if op == "binop" else getattr(Machine, f"_op_{op}")
                    entries.append((handler, i, cost_model(i), op))
                term = (Machine._op_ret if isinstance(b.term, Ret)
                        else _branch(b.term, blocks[name], code[name]))
                entries.append((term, b.term, 1, None))

    @cached_property
    def reach(self) -> dict[str, dict[str, list[frozenset]]]:
        """`_reach_table` of the program, for `Machine._reached`."""
        return _reach_table(self.fns)

    @cached_property
    def keying(self) -> tuple:
        """What `Machine.canon_key` reads besides the state: the singletons'
        renumbering (heap index -> ("r", number), by class name), fn -> block ->
        the live names at each index (`_live_names`), the thread groups
        (`_thread_groups`), and the identity map of tids."""
        seed = {self.singletons[n].i: ("r", c) for c, n in enumerate(sorted(self.singletons))}
        live = {name: _live_names(f) for name, f in self.fns.items()}
        ident = {tid: tid for tid in (None, *range(1, len(self.program.threads) + 1))}
        return seed, live, _thread_groups(self.program), ident


class Machine:
    """Mutable execution state for one run; confine each instance to one driver."""

    def __init__(self, program: Program):
        diagnostics = validate(program)
        if diagnostics:
            raise ValueError(f"invalid program: {'; '.join(map(str, diagnostics))}")
        code = self.code = _Code(program)
        self.heap: list[HObj | HArr] = [HObj(cls, dict.fromkeys(code.field_order[cls], 0), 0)
                                        for cls in code.singletons]
        self.monitors: dict[int, Monitor] = {}
        self.op_counts = code.op_counts.copy()
        self.threads: list[ThreadState] = []
        for n, decl in enumerate(program.threads, start=1):
            params, block, entries = code.callees[decl.fn]
            frame = Frame(decl.fn, block, entries, dict(zip(params, decl.args)), None)
            self.threads.append(ThreadState(n, [frame]))
        self.live = len(self.threads)  # threads not DONE
        self.events: list[int] = []
        self.cost = self.steps = 0
        self.status: str | None = None  # set once terminal
        self.reason: str | None = None

    # -- heap -------------------------------------------------------------

    def _publish(self, r: Ref) -> None:
        """A store just put `r` into a shared cell: mark the cell `r` refers to,
        and every cell it reaches, shared. Keeps the ownership invariant (see
        `next_is_local`); a shared cell reaches only shared cells, so the walk
        stops at them."""
        heap, todo = self.heap, [r.i]
        while todo:
            h = heap[todo.pop()]
            if h.owner:
                h.owner = 0
                todo += [x.i for x in (h.fields.values() if type(h) is HObj else h.elems)
                         if type(x) is Ref]

    def _deref(self, v: Value, what: str, kind: type) -> HObj | HArr:
        """The heap cell `v` refers to, which must be a `kind` (HObj or HArr)."""
        if not isinstance(v, Ref):
            raise InterpreterError(f"{what}: {'null' if v is None else 'not a'} reference")
        h = self.heap[v.i]
        if not isinstance(h, kind):
            found = "an array, not an object" if kind is HObj else "an object, not an array"
            raise InterpreterError(f"{what}: reference is {found}")
        return h

    def _obj(self, v: Value, fld: str, what: str) -> HObj:
        """Object `v`, which must have field `fld`."""
        o = self._deref(v, what, HObj)
        if fld not in o.fields:
            raise InterpreterError(f"{what}: class {o.cls} has no field {fld!r}")
        return o

    def _index(self, env: dict[str, Value], i: Instr) -> tuple[HArr, int]:
        """(array operand 0, the in-bounds int operand 1)."""
        a = self._deref(env[i.args[0]], i.op, HArr)
        k = _int(env[i.args[1]], i.op)
        if not 0 <= k < len(a.elems):
            raise InterpreterError(f"{i.op}: index out of bounds")
        return a, k

    def _monitor(self, oid: int) -> Monitor:
        m = self.monitors.get(oid)
        if m is None:
            m = self.monitors[oid] = Monitor()
        return m

    def _push(self, t: ThreadState, env: dict[str, Value], fname: str, args: tuple[str, ...],
              dest: str | None) -> None:
        """Call `fname` with the values of `args` in `env`."""
        vals = [env[a] for a in args]
        params, block, entries = self.code.callees[fname]
        if len(vals) != len(params):
            raise InterpreterError(f"call: {fname} takes {len(params)} args, got {len(vals)}")
        t.frames.append(Frame(fname, block, entries, dict(zip(params, vals)), dest))

    def _owned(self, t: ThreadState, v: Value, what: str) -> Monitor:
        mon = self.monitors.get(v.i) if isinstance(v, Ref) else None
        if mon is None or mon.owner != t.tid:
            raise InterpreterError(f"{what}: monitor not owned")
        return mon

    # -- scheduling -------------------------------------------------------

    def alive(self) -> bool:
        return self.live > 0

    def enabled(self, tid: int) -> bool:
        t = self.threads[tid - 1]
        if t.status is REACQUIRE:
            m = self.monitors.get(t.wait_obj)  # type: ignore[arg-type]
            return m is None or m.owner is None
        if t.status is not RUN:
            return False
        fr = t.frames[-1]
        handler, instr, _, _ = fr.code[fr.idx]
        if handler is not Machine._op_monitorenter:
            return True
        obj = fr.locals.get(instr.args[0])
        m = self.monitors.get(obj.i) if isinstance(obj, Ref) else None
        return m is None or m.owner in (None, tid)

    def enabled_threads(self) -> list[int]:
        return [t.tid for t in self.threads if self.enabled(t.tid)]

    def schedulable(self, budget: int) -> list[int]:
        """The threads that may step next, or [] once the run has stopped.

        The stop rule of `run` and of the schedule enumerator: a machine
        stops when it is already terminal, when no thread is enabled
        (`deadlock`, or `terminated` once none is live), or when it has run
        `budget` steps (`step-budget-exhausted`); [] sets `status`.
        """
        if self.status is not None:
            return []
        enabled = self.enabled_threads()
        if not enabled:
            self.status = "deadlock" if self.live else "terminated"
        elif self.steps >= budget:
            self.status = "step-budget-exhausted"
            return []
        return enabled

    def next_is_local(self, tid: int) -> bool:
        """True iff thread `tid`'s next step commutes with every step the other
        threads can take before `tid` steps again.

        Such a step is a pure op, a call, a branch, a return to a caller, a
        `new` or `newarray`, or one of these, when it cannot raise:

        - a `getfield`, `putfield`, `cas`, `arrayload` or `arraystore` on a
          cell whose `owner` is `tid`;
        - the same on a shared cell, when no frame of another thread may
          still make a conflicting access (`_reached`): a `getfield` of f
          conflicts with a write of f, a `putfield` or `cas` of f with a read
          or write of f, an `arrayload` with an array write, an `arraystore`
          with an array read or write;
        - an `output`, when no other thread may still output or run a
          `guard`, whose deopt would end the trace without it.

        An unknown callee (`callvirtual`, `callhandle`) conflicts with all of
        them; the `scheduler` docstring tabulates these conflict sets. A cell
        op cannot raise when its reference is to a cell of the right kind,
        with the field or the in-range int index it names; an `output` cannot
        when its value is an int. A `binop` counts as pure even where it may
        divide by zero: a fault raises out of the whole search, and making it
        a result that ends one path, for which such a step must not count as
        local either, is left to a later change. A return from the last
        frame is not local, since `unpark` reads the DONE it sets.

        Ownership invariant: a cell owned by thread t is referenced only from
        t's frames and from other cells t owns. A cell starts owned by the
        thread that allocates it (singletons start shared), and a store of a
        reference into a shared cell shares the cell stored and all it
        reaches (`_publish`); no other step puts a reference where another
        thread can read it. So no other thread can reach t's cell without a
        step of t, and an allocation commutes with other threads' steps up to
        heap numbering. `canon_key` leaves `owner` out: the bit only decides
        which orders the search may skip, never a result, so states that
        differ only in it have the same result set.
        """
        t = self.threads[tid - 1]
        if t.status is not RUN:
            return False
        fr = t.frames[-1]
        handler, instr, _, op = fr.code[fr.idx]
        if op is None:
            return handler is not Machine._op_ret or len(t.frames) > 1
        if op in _LOCAL_OPS:
            return True
        env = fr.locals
        if op == "output":
            return type(env.get(instr.args[0])) is int and not self._reached(tid, _CONFLICTS[op])
        if op not in _CELL_OPS:
            return False
        v = env.get(instr.args[0])
        if type(v) is not Ref:
            return False
        h = self.heap[v.i]
        if op in _ARRAY_OPS:
            k = env.get(instr.args[1])
            if type(h) is not HArr or type(k) is not int or not 0 <= k < len(h.elems):
                return False
            conflict = _CONFLICTS[op]
        else:
            if type(h) is not HObj or instr.field not in h.fields:
                return False
            write = ("w", instr.field)
            conflict = (write, TOP) if op == "getfield" else (("r", instr.field), write, TOP)
        return h.owner == tid or not self._reached(tid, conflict)

    def _reached(self, tid: int, conflict: tuple) -> bool:
        """True iff a frame of another thread may still produce a label in `conflict`."""
        table = self.code.reach
        for u in self.threads:
            if u.tid != tid:
                for f in u.frames:
                    if not table[f.fn][f.block][f.idx].isdisjoint(conflict):
                        return True
        return False

    # -- execution --------------------------------------------------------

    def step(self, tid: int) -> list[int]:
        """Run one instruction of thread `tid`; returns outputs it emitted."""
        if self.status is not None:
            raise InterpreterError("machine already terminal")
        before = len(self.events)
        self._step(self.threads[tid - 1])
        return self.events[before:]

    def _step(self, t: ThreadState) -> None:
        if t.status is REACQUIRE:
            m = self._monitor(t.wait_obj)  # type: ignore[arg-type]
            assert m.owner is None
            m.owner, m.count = t.tid, t.saved_count
            t.status, t.wait_obj, t.saved_count = RUN, None, 0
        self.steps += 1
        fr = t.frames[-1]
        handler, instr, cost, op = fr.code[fr.idx]
        fr.idx += 1
        if op is not None:
            self.op_counts[op] += 1
        handler(self, t, fr, instr)
        self.cost += cost

    def _advance(self, t: ThreadState, budget: int, pick=None, enabled=None) -> None:
        """`_step` `t`, an enabled thread, then `t` again or, given `pick`, the thread
        `pick(enabled)` chooses, while no step could change `enabled`, the set
        `schedulable` gave. Hands back after a sync op while another thread is live,
        after a step that leaves its thread not `RUN` or before a blocked
        `monitorenter`, and at `budget` or once the machine stops; the status is
        `schedulable`'s to set. A thread in `REACQUIRE` takes one step and hands back."""
        if t.status is REACQUIRE:
            self._step(t)
            return
        threads, counts, enter = self.threads, self.op_counts, Machine._op_monitorenter
        shared = self.live > 1
        steps, cost = self.steps, self.cost
        fr = t.frames[-1]
        handler, instr, c, op = fr.code[fr.idx]
        while True:
            steps += 1
            cost += c
            fr.idx += 1
            if op is not None:
                counts[op] += 1
            handler(self, t, fr, instr)
            if (shared and op in _SYNC_OPS or t.status is not RUN or steps >= budget
                    or self.status is not None):
                break
            fr = t.frames[-1]
            handler, instr, c, op = fr.code[fr.idx]
            if handler is enter and not self.enabled(t.tid):
                break
            if pick is not None and (u := threads[pick(enabled) - 1]) is not t:
                t = u
                if t.status is REACQUIRE:
                    self.steps, self.cost = steps, cost
                    self._step(t)
                    return
                fr = t.frames[-1]
                handler, instr, c, op = fr.code[fr.idx]
        self.steps, self.cost = steps, cost

    def _drive(self, budget: int, pick=None) -> None:
        """`_advance` until `schedulable` stops the machine, asking `pick` for the
        thread to step while two or more threads are live."""
        while enabled := self.schedulable(budget):
            if self.live > 1:
                self._advance(self.threads[pick(enabled) - 1], budget, pick, enabled)
            else:
                self._advance(self.threads[enabled[0] - 1], budget)

    # -- opcode handlers (see `_Code`) -----------------------------------

    def _op_const(self, t, fr, i):
        fr.locals[i.dest] = i.value

    def _op_classref(self, t, fr, i):
        fr.locals[i.dest] = self.code.singletons[i.cls]

    def _op_new(self, t, fr, i):
        fr.locals[i.dest] = Ref(len(self.heap))
        self.heap.append(HObj(i.cls, dict.fromkeys(self.code.field_order[i.cls], 0), t.tid))

    def _op_newarray(self, t, fr, i):
        n = _int(fr.locals[i.args[0]], "newarray")
        if n < 0:
            raise InterpreterError("newarray: negative length")
        fr.locals[i.dest] = Ref(len(self.heap))
        self.heap.append(HArr([0] * n, t.tid))

    def _op_getfield(self, t, fr, i):
        fr.locals[i.dest] = self._obj(fr.locals[i.args[0]], i.field, "getfield").fields[i.field]

    def _op_putfield(self, t, fr, i):
        o, v = self._obj(fr.locals[i.args[0]], i.field, "putfield"), fr.locals[i.args[1]]
        o.fields[i.field] = v
        if not o.owner and type(v) is Ref:
            self._publish(v)

    def _op_arrayload(self, t, fr, i):
        a, k = self._index(fr.locals, i)
        fr.locals[i.dest] = a.elems[k]

    def _op_arraystore(self, t, fr, i):
        a, k = self._index(fr.locals, i)
        a.elems[k] = v = fr.locals[i.args[2]]
        if not a.owner and type(v) is Ref:
            self._publish(v)

    def _op_cas(self, t, fr, i):
        env, (obj, expect, new) = fr.locals, i.args
        o = self._obj(env[obj], i.field, "cas")
        ok = _values_equal(o.fields[i.field], env[expect])
        if ok:
            o.fields[i.field] = v = env[new]
            if not o.owner and type(v) is Ref:
                self._publish(v)
        env[i.dest] = ok

    def _op_monitorenter(self, t, fr, i):
        r = fr.locals[i.args[0]]
        if not isinstance(r, Ref):
            raise InterpreterError("monitorenter: not a reference")
        m = self._monitor(r.i)
        assert m.owner in (None, t.tid), "scheduled a blocked thread"
        m.owner, m.count = t.tid, m.count + 1

    def _op_monitorexit(self, t, fr, i):
        m = self._owned(t, fr.locals[i.args[0]], "monitorexit")
        m.count -= 1
        if m.count == 0:
            m.owner = None

    def _op_wait(self, t, fr, i):
        r = fr.locals[i.args[0]]
        m = self._owned(t, r, "wait")
        t.saved_count, m.owner, m.count = m.count, None, 0
        m.waitset.append(t.tid)
        t.wait_obj, t.status = r.i, WAITING

    def _op_notify(self, t, fr, i):
        m = self._owned(t, fr.locals[i.args[0]], i.op)
        woken = sorted(m.waitset)
        for w in woken if i.op == "notifyall" else woken[:1]:
            m.waitset.remove(w)
            self.threads[w - 1].status = REACQUIRE

    _op_notifyall = _op_notify

    def _op_park(self, t, fr, i):
        if not t.permit:
            t.status = PARKED
        t.permit = False

    def _op_unpark(self, t, fr, i):
        target = _int(fr.locals[i.args[0]], "unpark")
        if not 1 <= target <= len(self.threads):
            raise InterpreterError(f"unpark: no thread {target}")
        tt = self.threads[target - 1]
        if tt.status is PARKED:
            tt.status = RUN
        elif tt.status is not DONE:
            tt.permit = True

    def _op_guard(self, t, fr, i):
        c = fr.locals[i.args[0]]
        if c is not True:
            if c is not False:
                raise InterpreterError("guard: condition is not a boolean")
            self.status, self.reason = "deopt", i.reason

    def _op_instanceof(self, t, fr, i):
        v = fr.locals[i.args[0]]
        if v is not None and not isinstance(v, Ref):
            raise InterpreterError("instanceof: not a reference")
        o = self.heap[v.i] if v is not None else None
        fr.locals[i.dest] = isinstance(o, HObj) and i.cls in self.code.ancestry[o.cls]

    def _op_handleconst(self, t, fr, i):
        fr.locals[i.dest] = Handle(i.fn)

    def _op_call(self, t, fr, i):
        self._push(t, fr.locals, i.fn, i.args, i.dest)

    def _op_callvirtual(self, t, fr, i):
        o = self._deref(fr.locals[i.args[0]], "callvirtual", HObj)
        fname = self.code.vtable.get((o.cls, i.method))
        if fname is None:
            raise InterpreterError(f"callvirtual: {o.cls} has no method {i.method!r}")
        self._push(t, fr.locals, fname, i.args, i.dest)

    def _op_callhandle(self, t, fr, i):
        h = fr.locals[i.args[0]]
        if not isinstance(h, Handle):
            raise InterpreterError("callhandle: not a handle")
        self._push(t, fr.locals, h.fn, i.args[1:], i.dest)

    def _op_output(self, t, fr, i):
        self.events.append(_int(fr.locals[i.args[0]], "output"))

    def _op_vbinop(self, t, fr, i):
        env, (dx, ax, bx, ox), w = fr.locals, i.args, i.width
        d, a, b = (self._deref(env[x], "vbinop", HArr).elems for x in (dx, ax, bx))
        off = _int(env[ox], "vbinop")
        if off < 0 or off + w > min(len(d), len(a), len(b)):
            raise InterpreterError("vbinop: lane out of bounds")
        d[off:off + w] = map(_binop_fn(i.kind), a[off:off + w], b[off:off + w])

    def _op_ret(self, t, fr, i):
        value = fr.locals[i.value] if i.value is not None else None
        t.frames.pop()
        if not t.frames:
            t.status = DONE
            self.live -= 1
            if not self.live:
                self.status = "terminated"
        elif fr.ret_dest is not None:
            if i.value is None:
                raise InterpreterError(f"{fr.fn} returned no value to a destination")
            t.frames[-1].locals[fr.ret_dest] = value

    # -- cloning and canonicalization (used by the schedule enumerator) ----

    def clone(self) -> "Machine":
        """A copy to step on its own, sharing `code`. Its `events` start empty:
        the enumerator, the one caller, reads only what each step emits, so
        copying them would cost a list copy per search edge for nothing."""
        # attributes in `__init__`'s order, so that clones keep its key-sharing
        # instance dict (reading `__dict__` would give that up)
        m = Machine.__new__(Machine)
        m.code = self.code
        m.heap = [HObj(h.cls, dict(h.fields), h.owner) if isinstance(h, HObj)
                  else HArr(list(h.elems), h.owner) for h in self.heap]
        m.monitors = {oid: Monitor(mon.owner, mon.count, list(mon.waitset))
                      for oid, mon in self.monitors.items()}
        m.op_counts = self.op_counts.copy()
        m.threads = []
        for t in self.threads:
            fs = [Frame(f.fn, f.block, f.code, dict(f.locals), f.ret_dest, f.idx) for f in t.frames]
            m.threads.append(ThreadState(t.tid, fs, t.status, t.wait_obj, t.saved_count, t.permit))
        m.live, m.events = self.live, []
        m.cost, m.steps, m.status, m.reason = self.cost, self.steps, self.status, self.reason
        return m

    def canon_key(self):
        """Schedule-independent state fingerprint.

        Heap references are renumbered in deterministic encounter order
        (singletons first, by class name, then the threads' frames, then the
        object graph they reach), so states that differ only in allocation
        numbering compare equal. A frame keys only the locals live at its
        position (`cfg.liveness`), in name order, with None for a live name
        not yet assigned (a caller's pending call destination), so states
        that differ only in dead values compare equal too. Emitted events,
        op counts, cost, step counts and `status` (the search keys only
        machines that have not stopped) are deliberately excluded.

        Threads declared with the same function and the same literal args
        form a group (`_thread_groups`). A result names no thread, so a state
        and its image under a permutation of a group's threads have the same
        result set (symmetry reduction: Emerson & Sistla, *Symmetry and model
        checking*, FMSD 1996; Ip & Dill, *Better verification through
        symmetry*, FMSD 1996). So the key lists threads by group, and within
        a group by the hash of a sort key: the thread's part with each
        reference that is not a singleton's hidden, ties in tid order. (A
        hash orders parts whose slots hold different types, an int in one
        and a tuple in another, which comparing the parts would not.) Only
        then are references renumbered, in that thread order, and each
        monitor's owner and waiters are named by their rank in it. A thread
        part with no hidden reference is already its final encoding. Equal
        keys still mean states equal up to a permutation within groups, so
        the order of the parts decides only which such states merge, and a
        tie between different parts costs a merge, never soundness. This
        needs that no step reads a tid: a program with `notify`, which wakes
        the lowest waiting tid, or `unpark`, which takes one, keeps tid order,
        as does one without a group of two; `notifyall` is fine.

        Cell owners (`HObj.owner`, `HArr.owner`) are tids too. They stay out
        of the key and are not permuted: they only decide which orders the
        search skips, and a memo entry is the exact result set of its state,
        so two states that differ only in ownership may share it.
        """
        seed, live, groups, rank = self.code.keying
        renum = seed.copy()  # heap index -> ("r", number)
        queue = list(seed)

        def cv(v: Value):  # callers pass ints through themselves
            if type(v) is Ref:
                c = renum.get(v.i)
                if c is None:
                    c = renum[v.i] = ("r", len(renum))
                    queue.append(v.i)
                return c
            if type(v) is Handle:
                return ("h", v.fn)
            if type(v) is bool:
                return ("b", v)
            if v is None:
                return ("n",)
            return None  # _UNSET

        def part(t: ThreadState, cv) -> tuple:
            frames = []
            for f in t.frames:
                get, vals = f.locals.get, []
                for k in live[f.fn][f.block][f.idx]:
                    v = get(k, _UNSET)
                    vals.append(v if type(v) is int else cv(v))
                frames.append((f.fn, f.block, f.idx, f.ret_dest, tuple(vals)))
            return (t.status, None if t.wait_obj is None else cv(Ref(t.wait_obj)),
                    t.saved_count, t.permit, tuple(frames))

        threads = self.threads
        if groups is None:
            tparts = [part(t, cv) for t in threads]
        else:
            hidden: list[Ref] = []

            def hide(v: Value):  # `cv`, with a reference that is not a singleton's hidden
                if type(v) is Ref:
                    c = seed.get(v.i)
                    if c is None:
                        hidden.append(v)
                        return _HIDDEN
                    return c
                return cv(v)

            drafts = []
            for t, g in zip(threads, groups):
                n = len(hidden)
                enc = part(t, hide)
                drafts.append((g, hash(enc), t.tid, enc if len(hidden) == n else None))
            drafts.sort()  # the tids differ, so the parts are never compared
            tparts = [enc if enc is not None else part(threads[tid - 1], cv)
                      for _, _, tid, enc in drafts]
            rank = {tid: r for r, (_, _, tid, _) in enumerate(drafts, 1)}
            rank[None] = None
        hparts = []
        heap, monitors, field_order = self.heap, self.monitors, self.code.field_order
        qi = 0
        while qi < len(queue):
            oid = queue[qi]
            qi += 1
            h, vals = heap[oid], []
            if type(h) is HObj:
                fields = h.fields
                for name in field_order[h.cls]:
                    v = fields[name]
                    vals.append(v if type(v) is int else cv(v))
                hparts.append(("O", h.cls, tuple(vals)))
            else:
                for v in h.elems:
                    vals.append(v if type(v) is int else cv(v))
                hparts.append(("A", tuple(vals)))
            mon = monitors.get(oid)
            if mon is not None and (mon.owner is not None or mon.waitset):
                hparts.append(("M", rank[mon.owner], mon.count,
                               tuple(sorted([rank[w] for w in mon.waitset]))))
        return tuple(tparts), tuple(hparts)


@dataclass
class RoundRobin:
    """Run each enabled thread for up to `quantum` consecutive steps."""

    quantum: int = 1
    _cur: int = 0
    _left: int = 0

    def pick(self, enabled: list[int]) -> int:
        """The next thread; `enabled` is sorted, as `Machine.schedulable` gives it."""
        if self._left <= 0 or self._cur not in enabled:
            for i in enabled:  # the first thread after the current one, else the lowest
                if i > self._cur:
                    break
            else:
                i = enabled[0]
            self._cur, self._left = i, self.quantum
        self._left -= 1
        return self._cur


@dataclass
class Explicit:
    """Cycle through an explicit thread-id sequence.

    When the scheduled thread is not enabled, the lowest-id enabled thread
    runs instead, which keeps every explicit schedule executable and maps it
    onto some sequence of legal choices.
    """

    seq: tuple[int, ...]
    _ptr: int = 0

    def pick(self, enabled: list[int]) -> int:
        want = self.seq[self._ptr % len(self.seq)]
        self._ptr += 1
        return want if want in enabled else enabled[0]  # sorted


def parse_schedule(spec: str) -> RoundRobin | Explicit:
    """Parse "rr:k" (k >= 1) or "explicit:t1,t2,..." (each t >= 1) schedules."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "rr" and int(rest) >= 1:
            return RoundRobin(int(rest))
        seq = tuple(int(x) for x in rest.split(",")) if kind == "explicit" else ()
        if seq and min(seq) >= 1:
            return Explicit(seq)
    except ValueError:
        pass
    raise ValueError(f"bad schedule {spec!r} (use rr:k with k >= 1, or explicit:t1,t2,...)")


@dataclass
class RunResult:
    trace: ResultTrace
    metrics: MetricVector
    op_counts: Counter
    steps: int


def run(program: Program, schedule: RoundRobin | Explicit | str = "rr:1",
        budget: int = 1_000_000) -> RunResult:
    """Execute `program` deterministically under one schedule policy.

    Thread count never grows, so once one thread is left it runs alone: the
    policy could pick no other.
    """
    if budget < 1:
        raise ValueError(f"step budget must be at least 1, got {budget}")
    policy = parse_schedule(schedule) if isinstance(schedule, str) else schedule
    if isinstance(policy, Explicit) and max(policy.seq) > len(program.threads):
        raise ValueError(f"schedule names thread {max(policy.seq)}, "
                         f"but the program has {len(program.threads)} thread(s)")
    m = Machine(program)
    m._drive(budget, policy.pick)
    trace = ResultTrace(tuple(m.events), m.status, m.reason)
    metrics = MetricVector(refcycles=m.cost)
    op_counts = Counter({op: n for op, n in m.op_counts.items() if n})
    for op, n in op_counts.items():
        column = OPCODES[op].metric
        if column is not None:
            setattr(metrics, column, getattr(metrics, column) + n)
    return RunResult(trace, metrics, op_counts, m.steps)
