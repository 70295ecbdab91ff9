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
`Machine._drive`, the loop that `run` steps through, counts both in locals
and returns them, so the profile is kept in one place and a `Machine` (and
each clone the search makes) carries none of it.

A `Machine` holds only execution state: heap, monitors, threads and their
frames, events and the step count. All it derives from its program is
one `_Code`, kept per `Program` (`ir.memo`) and shared, never mutated, by
every machine of that program and their clones: each block decoded to a list
of `(handler, instr, cost, op, run)` entries, kept per `Function`
(`_decode`), so a step is one index and one call, and the tables the
handlers and the search read. So a program run or searched again derives
nothing again, and its code lives as long as it does. One loop,
`Machine._drive`, steps the decoded code for `run` and for the enumerator's
last-thread tail. It asks `Machine.schedulable`, the stop rule of `run` and
of the enumerator, twice: for the enabled set at the start, and to set the
status at the end: it alone sets `terminated`, `deadlock` and the budget
status, and only a guard's deopt sets one inside a step. It asks the
schedule only while two or more threads are live; the last one runs alone.
It asks for a grant, not a pick, so a thread that keeps the schedule's
choice costs one question per run of steps, not one per step. A schedule
policy is any object with one method, `regrant(tid, k, enabled)`: it commits
the k picks of thread `tid` that its last grant allowed (k = 0 commits
nothing), then returns the grant for `enabled`, (tid, n), which says that
its next n picks, one per step, are all tid. `enabled` is sorted, as
`schedulable` gives it. `RoundRobin` and `Explicit` grant the longest such
run, `UNBOUNDED` when one thread is enabled. The loop keeps the enabled set
and recomputes it only after a step that could change it: a `monitorenter`,
`monitorexit`, `wait`, `notify`, `notifyall` or `unpark` while another
thread is live, a reacquire, and a step after which the stepping thread is
not `RUN` or its next `monitorenter` is blocked. Any other step changes no
monitor and no other thread's status, so every thread stays as enabled as it
was. So a thread that comes to a blocked `monitorenter` just leaves the set,
and after the other steps the recompute asks `Machine._blocker` only of the
threads that are not `RUN` or are about to enter a monitor, since every
other thread is enabled. A set that changed gets a new grant; a grant goes
on across a monitor op that leaves the set as it was.

Inside natural loops the code is generated (superoperators: Proebsting,
POPL 1995; Ertl & Gregg, JILP 2003). `_decode` turns each stretch of
ops that cannot block, emit, stop the machine or change frames into one
generated Python function, a compiled run, which `_drive` takes where a
grant and the budget leave room for all its steps. A run is the `run` of
the entry where it starts. It also gives each loop-block entry of a
`_RUN_OPS` op or a monitor op a generated single step, which is that
entry's handler: a thread on a one-step grant, as under `rr:1` with two
threads enabled, takes one call per step there. All generated code
re-checks what each handler checks and falls back to the hand-written
handler where a check fails, so every fault comes from the handler. Each
source is compiled once (`_load`).
`Machine.step` takes one instruction at a time and counts only the step:
the search steps with it, `_drive` takes a reacquire with it (and counts
that entry's op and cost itself), and the tests compare `run` against it.
"""

from __future__ import annotations

import copy
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ir import (INT_MAX, INT_MIN, OPCODES, PURE_OPS, Br, CondBr, Function, Instr, Program, Ret,
                 memo, values_equal)
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
        return values_equal
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
    """An activation; `code` is the decoded entry list of block `block`. A
    callee's return destination is the `dest` of its caller's call, the entry
    before the caller's `idx` (`_op_ret`)."""

    __slots__ = ("fn", "block", "code", "locals", "idx")

    def __init__(self, fn: str, block: str, code: list, locals_: dict[str, Value], idx: int = 0):
        self.fn, self.block, self.code = fn, block, code
        self.idx, self.locals = idx, locals_


# thread status values; "run" and "reacquire" also cover threads gated on a
# held monitor, which `Machine._blocker` finds
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

#: the places besides fields: every array element, and the trace, which an
#: output extends and a guard's deopt ends; neither is an identifier, as a
#: field's name is. TOP labels an unknown callee, which may access any place
ARRAY, TRACE, TOP = "[]", "<trace>", "top"

#: each op's access to shared state, the one source of the look-ahead labels
#: (`_labels`) and the conflict sets (`_conflicts`): it reads ("r"), writes ("w")
#: or both ("rw") one place, None for the field the instruction names, or TOP
_ACCESS = {"getfield": ("r", None), "putfield": ("w", None), "cas": ("rw", None),
           "arrayload": ("r", ARRAY), "arraystore": ("w", ARRAY), "vbinop": ("rw", ARRAY),
           "output": ("w", TRACE), "guard": ("w", TRACE),
           "callvirtual": (TOP, None), "callhandle": (TOP, None)}

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
    args, getter of the args' values when there are two or more) per edge."""
    edges = [(target, blocks[target].params, code[target], args,
              operator.itemgetter(*args) if len(args) > 1 else None)
             for target, args in term.edges()]
    then, other, cond = edges[0], edges[-1], getattr(term, "cond", None)

    def h(m, t, fr, i):
        env = fr.locals
        if cond is None:
            target, params, entries, args, get = then
        else:
            c = env[cond]
            if c is not True and c is not False:
                raise InterpreterError("condbr: condition is not a boolean")
            target, params, entries, args, get = then if c else other
        if len(args) == 1:  # ten times as fast as the general move below
            env[params[0]] = env[args[0]]
        elif args:
            env.update(zip(params, get(env)))
        fr.block, fr.code, fr.idx = target, entries, 0

    return h


def _handler(i: Instr):
    """The hand-written handler of instruction `i`: its `_binop` closure or
    its `_op_<opcode>` method."""
    return _binop(i) if i.op == "binop" else getattr(Machine, f"_op_{i.op}")


#: the opcodes a compiled run executes inline (see `_decode`), besides
#: a `br` or `condbr`: none of them stops the machine, emits, blocks, touches a
#: monitor or another thread, or pushes or pops a frame
_RUN_OPS = frozenset({"const", "classref", "binop", "getfield", "putfield", "arrayload",
                      "arraystore"})

#: the opcodes whose entries in a loop block get a generated single step (see
#: `_decode`): those of `_RUN_OPS`, and the two monitor ops, which
#: every trip of an unrewritten lock loop runs as a one-step grant of its own
_STEP_OPS = _RUN_OPS | {"monitorenter", "monitorexit"}

#: `monitorenter` as `_decode` interns each op, so that `is` finds it
_ENTER = sys.intern("monitorenter")


def _slow(m, t, fr, j: int) -> None:
    """Step entry `j` of `fr`'s block as `Machine.step` does, through the
    hand-written handler of its op (`_handler`), or its branch handler; the
    way out of generated code when an inline check fails, so that every
    fault and its message come from the handler. Not through the entry's
    own handler: that may be the generated single step that called it."""
    fr.idx = j + 1
    handler, instr, _, op, _ = fr.code[j]
    (handler if op is None else _handler(instr))(m, t, fr, instr)


def _checked(cond: str, body: list[str], j: int) -> list[str]:
    """Lines running `body` when `cond` holds, else `_slow` at entry `j`."""
    return [f"if {cond}:", *["    " + s for s in body], "else:", f"    _slow(m, t, fr, {j})"]


def _instr_lines(j: int, i: Instr) -> list[str]:
    """Lines executing entry `j`, instruction `i` (`_STEP_OPS`), with its
    handler's checks inline: int operands and the wrap of a binop, a
    reference to an object with the field or to an array with the index,
    `_publish` after a store into a shared cell, and a monitor that `t` may
    enter or owns."""
    a = [f"env[{x!r}]" for x in i.args]
    d = f"env[{i.dest!r}]"
    if i.op in ("monitorenter", "monitorexit"):  # a monitor not made yet takes `_slow`
        lines = [f"v = {a[0]}"]
        cond = "type(v) is Ref and (o := m.monitors.get(v.i)) is not None and "
        if i.op == "monitorenter":
            return lines + _checked(cond + "(o.owner is None or o.owner == t.tid)",
                                    ["o.owner = t.tid", "o.count += 1"], j)
        return lines + _checked(cond + "o.owner == t.tid",
                                ["o.count -= 1", "if not o.count:", "    o.owner = None"], j)
    if i.op == "const":
        return [f"{d} = {i.value!r}"]
    if i.op == "classref":
        return [f"{d} = m.code.singletons[{i.cls!r}]"]
    if i.op == "binop":
        lines, ints = [f"a = {a[0]}", f"b = {a[1]}"], "type(a) is int and type(b) is int"
        if i.kind == "eq":
            return lines + [f"{d} = type(a) is type(b) and a == b"]  # `ir.values_equal`
        if i.kind in ("lt", "le"):
            body = [f"{d} = a {'<' if i.kind == 'lt' else '<='} b"]
        elif i.kind in ("div", "mod"):
            ints, body = f"{ints} and b", [f"{d} = _INT_OPS[{i.kind!r}](a, b)"]
        else:
            sym = {"add": "+", "sub": "-", "mul": "*"}[i.kind]
            body = [f"r = a {sym} b", f"{d} = r if {INT_MIN} <= r <= {INT_MAX} else _wrap(r)"]
        return lines + _checked(ints, body, j)
    lines = [f"v = {a[0]}"]
    if i.op in _ARRAY_OPS:
        lines.append(f"k = {a[1]}")
        cond = ("type(v) is Ref and type(o := heap[v.i]) is HArr"
                " and type(k) is int and 0 <= k < len(o.elems)")
        body = [f"{d} = o.elems[k]" if i.op == "arrayload" else f"o.elems[k] = w = {a[2]}"]
    else:
        cond = f"type(v) is Ref and type(o := heap[v.i]) is HObj and {i.field!r} in o.fields"
        cell = f"o.fields[{i.field!r}]"
        body = [f"{d} = {cell}" if i.op == "getfield" else f"{cell} = w = {a[1]}"]
    if i.op in ("putfield", "arraystore"):
        body += ["if not o.owner and type(w) is Ref:", "    m._publish(w)"]
    return lines + _checked(cond, body, j)


def _branch_lines(f: Function, term: Br | CondBr, j: int) -> list[str]:
    """Lines taking branch `term`, entry `j`, as its `_branch` handler does."""
    blocks = f.block_map()

    def edge(target: str, args: tuple[str, ...]) -> list[str]:
        params, lines = blocks[target].params, []
        if params:
            lines.append(f"{', '.join(f'env[{p!r}]' for p in params)} = "
                         f"{', '.join(f'env[{a!r}]' for a in args)}")
        return lines + [f"fr.block = {target!r}",
                        f"fr.code = m.code.entries[{f.name!r}][{target!r}]", "fr.idx = 0"]

    if isinstance(term, Br):
        return edge(term.target, term.args)
    (then, then_args), (other, other_args) = term.edges()
    return [f"c = env[{term.cond!r}]",
            "if c is True:", *["    " + s for s in edge(then, then_args)],
            "elif c is False:", *["    " + s for s in edge(other, other_args)],
            "else:", f"    _slow(m, t, fr, {j})"]


@lru_cache(maxsize=256)
def _load(src: str) -> dict:
    """The namespace that generated source `src` defines. Kept for recent
    sources: a compile costs a few milliseconds, as much as a short run saves,
    and programs parsed from the same text have equal functions, so equal
    sources. The source, not the `Function`, is the key: functions that
    differ only in `const 1` and `const true` compare equal."""
    scope = {"Ref": Ref, "HObj": HObj, "HArr": HArr, "_wrap": _wrap, "_slow": _slow,
             "_INT_OPS": _INT_OPS}
    exec(compile(src, "<compiled runs>", "exec"), scope)
    return scope


@memo
def _decode(f: Function) -> dict[str, list[tuple]]:
    """Block -> its entry list, (handler, instr, cost, op, run) per
    instruction and the terminator last: a step moves `frame.idx` past an
    entry and calls `handler(machine, thread, frame, instr)`. `op` is the
    interned opcode, None for the terminator, and `run` the compiled run
    starting there, (`run(machine, thread, frame, counts)`, its steps, its
    cost), or None. `handler` is the entry's generated single step where it
    has one, else its hand-written handler (`_handler`), or a `_branch`
    closure or `_op_ret` for the terminator. So `op`, not `handler`, says
    what an entry does.

    Only blocks inside a natural loop are compiled: a program runs most of
    its steps there, and a straight-line program, which runs each entry
    once or a few times, would pay more to compile than it saves. Each
    entry there whose op is in `_STEP_OPS` gets a single step, a function
    with its handler's signature that runs `_instr_lines`; where a thread
    holds a one-step grant, as under `rr:1` with two threads enabled, every
    step takes it. A run starts at index 0 or right after an op outside
    `_RUN_OPS`, takes the longest stretch of `_RUN_OPS` from there and, when
    the stretch reaches the block's `br` or `condbr`, that too, and counts
    only with two steps or more. It adds its own op counts to `counts`,
    `_drive`'s, and `_drive` adds its steps and cost. The generated source
    embeds every IR name with `repr` and reads the branch targets' entry
    lists and the singletons from `machine.code`, and a `_branch` closure
    holds entry lists of `f` only, so the decode depends on `f` alone:
    passes share a `Function` between programs, whose classes differ. So it
    is kept per `Function` (`ir.memo`), and `_load` compiles each source
    once.
    """
    from .cfg import natural_loops  # on first use, as `_live_names` takes `liveness`
    in_loop = set().union(*[loop.blocks for loop in natural_loops(f)])
    src, sizes = [], {}  # (block index, start) -> (steps, cost) of each run
    for bi, b in enumerate(f.blocks):
        if b.name not in in_loop:
            continue
        ops = [i.op for i in b.instrs]
        for j, i in enumerate(b.instrs):
            if i.op in _STEP_OPS:
                body = ["env = fr.locals", *(["heap = m.heap"] if i.op in _CELL_OPS else []),
                        *_instr_lines(j, i)]
                src += [f"def _step_{bi}_{j}(m, t, fr, i):", *["    " + s for s in body]]
        for start in range(len(ops) + 1):
            if start and ops[start - 1] in _RUN_OPS:
                continue
            end = start
            while end < len(ops) and ops[end] in _RUN_OPS:
                end += 1
            branch = end == len(ops) and not isinstance(b.term, Ret)
            if end - start + branch < 2:
                continue
            body = ["env = fr.locals"]
            if any(op in _CELL_OPS for op in ops[start:end]):
                body.append("heap = m.heap")
            for j in range(start, end):
                body += _instr_lines(j, b.instrs[j])
            body += _branch_lines(f, b.term, end) if branch else [f"fr.idx = {end}"]
            body += [f"counts[{op!r}] += {n}" for op, n in Counter(ops[start:end]).items()]
            src += [f"def _run_{bi}_{start}(m, t, fr, counts):", *["    " + s for s in body]]
            cost = sum(cost_model(i) for i in b.instrs[start:end]) + branch
            sizes[bi, start] = (end - start + branch, cost)
    scope = _load("\n".join(src)) if src else {}
    blocks, code = f.block_map(), {b.name: [] for b in f.blocks}
    for bi, b in enumerate(f.blocks):
        entries = code[b.name]
        for j, i in enumerate(b.instrs):
            r = sizes.get((bi, j))
            entries.append((scope.get(f"_step_{bi}_{j}") or _handler(i), i, cost_model(i),
                            sys.intern(i.op), r and (scope[f"_run_{bi}_{j}"], *r)))
        term = Machine._op_ret if isinstance(b.term, Ret) else _branch(b.term, blocks, code)
        entries.append((term, b.term, 1, None, None))  # no run starts at a terminator
    return code


@lru_cache(maxsize=None)
def _labels(op: str, field: str | None) -> tuple:
    """The look-ahead labels of an `op` on `field` itself: (mode, place) for
    each mode of its `_ACCESS`, or TOP; a `call` adds its callee's. Equal
    labels are one object."""
    mode, place = _ACCESS.get(op, ("", None))
    return (TOP,) if mode is TOP else tuple((m, place or field) for m in mode)


@lru_cache(maxsize=None)
def _conflicts(op: str, field: str | None) -> frozenset:
    """The labels the step of an `op` on `field`, an output or a cell op,
    conflicts with, by the one rule: a write of any place it accesses, a read
    of any place it writes, and TOP. One set per (op, field)."""
    labels = _labels(op, field)
    return frozenset([TOP, *[("w", p) for _, p in labels],
                      *[("r", p) for m, p in labels if m == "w"]])


def _reach_table(fns: dict[str, Function]) -> dict[str, dict[str, list[frozenset]]]:
    """fn -> block -> for each index, the labels a frame there may still produce,
    its callees' included; the last index is the terminator's.

    A static over-approximation: a block's entry set is its own labels and
    those of every block that `cfg.closure` reaches from it over branch edges
    and call edges, which lead to callee entry blocks. A `ret` adds nothing,
    since the caller's frame holds the rest of its code. Equal sets are one
    object.
    """
    from .cfg import closure  # on first use, as in `_live_names`
    entry_key = {name: (name, f.entry.name) for name, f in fns.items()}
    own, edges = {}, {}  # (fn, block) -> its labels; -> callee entry and successor keys
    for name, f in fns.items():
        for b in f.blocks:
            own[name, b.name] = {x for i in b.instrs for x in _labels(i.op, i.field)}
            edges[name, b.name] = ([entry_key[i.fn] for i in b.instrs if i.op == "call"]
                                   + [(name, t) for t in b.term.targets()])
    entry = {key: frozenset(own[key].union(*[own[k] for k in reached]))
             for key, reached in closure(edges).items()}
    interned: dict[frozenset, frozenset] = {}
    table: dict[str, dict[str, list[frozenset]]] = {}
    for name, f in fns.items():
        blocks = table[name] = {}
        for b in f.blocks:
            acc = frozenset().union(*[entry[name, t] for t in b.term.targets()])
            points = [interned.setdefault(acc, acc)]
            for i in reversed(b.instrs):
                extra = set(_labels(i.op, i.field))
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


def _thread_groups(threads, ops) -> tuple[tuple[int, ...], ...]:
    """The thread groups of `Machine.canon_key`, for thread declarations
    `threads` and the program's opcodes `ops`, each a tuple of tids, in the
    order the key lists them: by their lowest tid.

    Threads declared with the same function and the same literal args (`1`
    and `true` differ) form one group. When an instruction of the program
    depends on thread ids (`_TID_OPS`), every thread is a group of its own,
    which is tid order.
    """
    if not _TID_OPS.isdisjoint(ops):
        return tuple((tid,) for tid in range(1, len(threads) + 1))
    groups: dict = {}
    for tid, d in enumerate(threads, 1):
        groups.setdefault((d.fn, tuple((type(a), a) for a in d.args)), []).append(tid)
    return tuple(map(tuple, groups.values()))


class _Code:
    """All a `Machine` derives from program `p`, or ValueError if `p` fails
    `validate`; one per program (`_code`), shared by all its machines and
    never mutated.

    `entries` maps fn -> block -> entry list (`_decode`), `callees` fn ->
    (params, entry block, entry list), `vtable` (class, selector) -> fn,
    `ancestry` and `field_order` a class to its ancestors and fields,
    `singletons` to its singleton (heap cell k for the k-th class), and
    `op_counts` each opcode of the program to 0: `_drive` counts a run's
    profile in a copy of it, and `keying` reads its keys. Only `_drive`
    reads an entry's `run`, and only the search reads `reach` and `keying`
    (and `threads`, for `keying`).
    """

    def __init__(self, p: Program):
        if diagnostics := validate(p):
            raise ValueError(f"invalid program: {'; '.join(map(str, diagnostics))}")
        self.threads = p.threads  # not `p`, which keeps this `_Code` (`_code`)
        fns = self.fns = p.fn_map()
        self.field_order = {c.name: tuple(p.declared_fields(c.name)) for c in p.classes}
        self.singletons = {c.name: Ref(k) for k, c in enumerate(p.classes)}
        self.ancestry = {c.name: frozenset(p.ancestry(c.name)) for c in p.classes}
        self.vtable = {(c, sel): p.resolve_method(c, sel)
                       for c in self.ancestry for d in p.classes for sel, _ in d.methods}
        code = self.entries = {name: _decode(f) for name, f in fns.items()}
        self.callees = {name: (f.params, f.entry.name, code[name][f.entry.name])
                        for name, f in fns.items()}
        self.op_counts = dict.fromkeys((i.op for f in fns.values() for b in f.blocks
                                        for i in b.instrs), 0)

    @cached_property
    def reach(self) -> dict[str, dict[str, list[frozenset]]]:
        """`_reach_table` of the program, for `Machine._reached`."""
        return _reach_table(self.fns)

    @cached_property
    def keying(self) -> tuple:
        """What `Machine.canon_key` reads besides the state: the singletons'
        renumbering (heap index -> ("r", number), by class name), fn -> block ->
        the live names at each index (`_live_names`), and the thread groups
        (`_thread_groups`)."""
        seed = {self.singletons[n].i: ("r", c) for c, n in enumerate(sorted(self.singletons))}
        live = {name: _live_names(f) for name, f in self.fns.items()}
        return seed, live, _thread_groups(self.threads, self.op_counts)


#: the `_Code` of a program, built once per `Program` (`ir.memo`)
_code = memo(_Code)


class Machine:
    """Mutable execution state for one run; confine each instance to one driver."""

    def __init__(self, program: Program):
        code = self.code = _code(program)
        self.heap: list[HObj | HArr] = [HObj(cls, dict.fromkeys(code.field_order[cls], 0), 0)
                                        for cls in code.singletons]
        self.monitors: dict[int, Monitor] = {}
        self.threads: list[ThreadState] = []
        for n, decl in enumerate(program.threads, start=1):
            params, block, entries = code.callees[decl.fn]
            frame = Frame(decl.fn, block, entries, dict(zip(params, decl.args)))
            self.threads.append(ThreadState(n, [frame]))
        self.live = len(self.threads)  # threads not DONE
        self.events: list[int] = []
        self.steps = 0
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

    def _cell(self, env: dict[str, Value], i: Instr) -> tuple[HObj | HArr, dict | list, str | int]:
        """(cell, its slots, key) that cell op `i` (`_CELL_OPS`) reads or
        writes, `slots[key]`, or the step's fault: an object with the field
        `i` names, or an array with the in-bounds int index of operand 1.
        The handlers step through it, and `next_is_local` asks it whether
        the step would raise."""
        if i.op in _ARRAY_OPS:
            a = self._deref(env[i.args[0]], i.op, HArr)
            k = _int(env[i.args[1]], i.op)
            if not 0 <= k < len(a.elems):
                raise InterpreterError(f"{i.op}: index out of bounds")
            return a, a.elems, k
        o = self._deref(env[i.args[0]], i.op, HObj)
        if i.field not in o.fields:
            raise InterpreterError(f"{i.op}: class {o.cls} has no field {i.field!r}")
        return o, o.fields, i.field

    def _monitor(self, oid: int) -> Monitor:
        m = self.monitors.get(oid)
        if m is None:
            m = self.monitors[oid] = Monitor()
        return m

    def _push(self, t: ThreadState, env: dict[str, Value], fname: str,
              args: tuple[str, ...]) -> None:
        """Call `fname` with the values of `args` in `env`. Only the call
        handlers push, once the caller's `idx` is past the call, which is
        where `_op_ret` finds the destination."""
        vals = [env[a] for a in args]
        params, block, entries = self.code.callees[fname]
        if len(vals) != len(params):
            raise InterpreterError(f"call: {fname} takes {len(params)} args, got {len(vals)}")
        t.frames.append(Frame(fname, block, entries, dict(zip(params, vals))))

    def _owned(self, t: ThreadState, v: Value, what: str) -> Monitor:
        mon = self.monitors.get(v.i) if isinstance(v, Ref) else None
        if mon is None or mon.owner != t.tid:
            raise InterpreterError(f"{what}: monitor not owned")
        return mon

    # -- scheduling -------------------------------------------------------

    def alive(self) -> bool:
        return self.live > 0

    def _blocker(self, t: ThreadState) -> int | None:
        """The tid of a thread that must step before `t` (one with frames)
        can, or None.

        That is the owner of the monitor `t` waits on (`wait_obj`): only it
        can notify `t` or hand the monitor back. Otherwise it is the owner,
        other than `t`, of the monitor that `t`'s next `monitorenter` names,
        since a woken thread takes its monitor back and runs its next
        instruction in one step (`step`). Only the owner frees a monitor, so
        this holds whether `t` runs, waits, is woken or is parked.
        `enabled_threads` and `_drive` read it, and so does `_reached`, as
        the dynamic half of a lock-guarded look-ahead (Stoller & Cohen,
        TACAS 2003).
        """
        if t.wait_obj is not None:
            owner = self.monitors[t.wait_obj].owner
            if owner is not None:
                return owner
        fr = t.frames[-1]
        _, instr, _, op, _ = fr.code[fr.idx]
        if op is _ENTER:
            r = fr.locals.get(instr.args[0])
            m = self.monitors.get(r.i) if type(r) is Ref else None
            if m is not None and m.owner != t.tid:
                return m.owner
        return None

    def enabled_threads(self) -> list[int]:
        """The threads that may step next: `RUN` or `REACQUIRE`, and no
        `_blocker`. Asks `_blocker` only of the threads that are not `RUN` or
        are about to enter a monitor: every other thread is enabled."""
        enabled, blocker = [], self._blocker
        for t in self.threads:  # a loop: a list comprehension costs a call here
            if t.status is RUN:
                fr = t.frames[-1]
                if fr.code[fr.idx][3] is not _ENTER or blocker(t) is None:
                    enabled.append(t.tid)
            elif t.status is REACQUIRE and blocker(t) is None:
                enabled.append(t.tid)
        return enabled

    def schedulable(self, budget: int) -> list[int]:
        """The threads that may step next, or [] once the run has stopped.

        The stop rule of `run` and of the schedule enumerator: a machine stops
        when it is already terminal, when no thread is enabled (`deadlock`, or
        `terminated` once none is live), or when it has run `budget` steps
        (`step-budget-exhausted`); [] sets `status`, and no step sets these.
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
        - the same on a shared cell, or an `output`, when no frame of another
          thread may still produce a label of its conflict set (`_reached`).

        "Still" means before `tid` steps again: a thread whose `_blocker` is
        `tid` cannot step before then, so `_reached` leaves its frames out.

        The conflict set follows from the op's access (`_ACCESS`) by one
        rule (`_conflicts`); a `guard` writes the trace, as an output does,
        since its deopt would end the trace without the output. Whether a
        cell op raises is `_cell`'s one rule, which its handler steps
        through too: the step's cell, or its fault. An `output` cannot raise
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
        handler, instr, _, op, _ = fr.code[fr.idx]
        if op is None:
            return handler is not Machine._op_ret or len(t.frames) > 1
        if op in _LOCAL_OPS:
            return True
        if op == "output":
            if type(fr.locals.get(instr.args[0])) is not int:
                return False
        elif op in _CELL_OPS:
            try:
                if self._cell(fr.locals, instr)[0].owner == tid:
                    return True
            except InterpreterError:
                return False  # the step raises it
        else:
            return False
        return not self._reached(tid, _conflicts(op, instr.field))

    def _reached(self, tid: int, conflict: frozenset) -> bool:
        """True iff a frame of another thread may still produce a label in
        `conflict` before `tid` steps again: a thread whose `_blocker` is
        `tid` is out of reach.
        """
        table = self.code.reach
        for u in self.threads:
            if u.tid != tid:
                for f in u.frames:
                    if not table[f.fn][f.block][f.idx].isdisjoint(conflict):
                        if self._blocker(u) != tid:
                            return True
                        break
        return False

    # -- execution --------------------------------------------------------

    def step(self, tid: int) -> None:
        """Run one instruction of enabled thread `tid`; what it outputs goes to
        `events`. It counts `steps` only: op counts and cost are `_drive`'s."""
        if self.status is not None:
            raise InterpreterError("machine already terminal")
        t = self.threads[tid - 1]
        if t.status is REACQUIRE:
            m = self._monitor(t.wait_obj)  # type: ignore[arg-type]
            assert m.owner is None
            m.owner, m.count = t.tid, t.saved_count
            t.status, t.wait_obj, t.saved_count = RUN, None, 0
        self.steps += 1
        fr = t.frames[-1]
        handler, instr, _, _, _ = fr.code[fr.idx]
        fr.idx += 1
        handler(self, t, fr, instr)

    def _drive(self, budget: int, policy=None) -> tuple[dict[str, int], int]:
        """Step the machine until it stops (see the module docstring), let
        `schedulable` set its status, and return the profile of the steps it
        took: (op -> count, over the program's opcodes, cost). It is the one
        place that counts them. While two or more threads are live, each
        thread runs for the steps `policy.regrant` grants it; the last live
        thread runs alone, so the search's tails, which start with one, pass
        no policy. The picks of the last grant are never committed: `run`
        gives each run its own copy of the policy. Where an entry carries a
        compiled run (see `_decode`) that fits both the grant left and the
        budget, one call takes all its steps: none of its ops can change the
        enabled set, so it stops where that many single steps would.
        """
        enabled = self.schedulable(budget)
        threads, counts, cost = self.threads, self.code.op_counts.copy(), 0
        blocker, enter = self._blocker, _ENTER
        steps = self.steps
        tid, start = 0, steps  # no grant yet, so nothing to commit
        shared = self.live > 1
        ask = policy.regrant if shared else None
        while enabled:  # one grant per pass
            if ask is not None:
                tid, n = ask(tid, steps - start, enabled)
            else:
                tid, n = enabled[0], UNBOUNDED
            start, until = steps, steps + n
            stop = until if until < budget else budget  # no compiled run may pass it
            t = threads[tid - 1]
            while True:  # steps of `t` while the set stands
                if t.status is REACQUIRE:  # takes its monitor back, and one step
                    fr = t.frames[-1]
                    _, _, c, op, _ = fr.code[fr.idx]
                    self.steps = steps
                    self.step(tid)
                    steps = self.steps
                    cost += c
                    if op is not None:
                        counts[op] += 1
                else:
                    fr = t.frames[-1]
                    handler, instr, c, op, r = fr.code[fr.idx]
                    while steps != until:
                        if r is not None and steps + r[1] <= stop:
                            r[0](self, t, fr, counts)
                            steps += r[1]
                            cost += r[2]
                        else:
                            steps += 1
                            cost += c
                            fr.idx += 1
                            if op is not None:
                                counts[op] += 1
                            handler(self, t, fr, instr)
                            if (shared and op in _SYNC_OPS or t.status is not RUN
                                    or self.status is not None):
                                break
                        if steps >= budget:
                            break
                        fr = t.frames[-1]
                        handler, instr, c, op, r = fr.code[fr.idx]
                        if op is enter and blocker(t) is not None:
                            # only `t` left the set: none of its steps since the
                            # set was made could change another thread
                            enabled.remove(tid)
                            until = steps  # so the grant ends here
                    else:
                        break  # the grant is used up
                if self.status is not None or steps >= budget:
                    enabled = None
                    break
                now = self.enabled_threads()
                if now != enabled:
                    enabled = now
                    if self.live == 1:  # the last live thread runs alone
                        shared, ask = False, None
                    break
        self.steps = steps
        self.schedulable(budget)
        return counts, cost

    # -- opcode handlers (see `_decode`) ---------------------------------

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
        _, slots, key = self._cell(fr.locals, i)
        fr.locals[i.dest] = slots[key]

    _op_arrayload = _op_getfield

    def _op_putfield(self, t, fr, i):
        h, slots, key = self._cell(fr.locals, i)
        slots[key] = v = fr.locals[i.args[-1]]
        if not h.owner and type(v) is Ref:
            self._publish(v)

    _op_arraystore = _op_putfield

    def _op_cas(self, t, fr, i):
        env, (_, expect, new) = fr.locals, i.args
        o, fields, fld = self._cell(env, i)
        ok = values_equal(fields[fld], env[expect])
        if ok:
            fields[fld] = v = env[new]
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
        self._push(t, fr.locals, i.fn, i.args)

    def _op_callvirtual(self, t, fr, i):
        o = self._deref(fr.locals[i.args[0]], "callvirtual", HObj)
        fname = self.code.vtable.get((o.cls, i.method))
        if fname is None:
            raise InterpreterError(f"callvirtual: {o.cls} has no method {i.method!r}")
        self._push(t, fr.locals, fname, i.args)

    def _op_callhandle(self, t, fr, i):
        h = fr.locals[i.args[0]]
        if not isinstance(h, Handle):
            raise InterpreterError("callhandle: not a handle")
        self._push(t, fr.locals, h.fn, i.args[1:])

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
        else:
            caller = t.frames[-1]
            dest = caller.code[caller.idx - 1][1].dest  # of the call (`_push`)
            if dest is not None:
                if i.value is None:
                    raise InterpreterError(f"{fr.fn} returned no value to a destination")
                caller.locals[dest] = value

    # -- cloning and canonicalization (used by the schedule enumerator) ----

    def clone(self) -> "Machine":
        """A copy to step on its own, sharing `code`. Its `events` start empty:
        the enumerator, the one caller, reads only what each edge emits, so
        copying them would cost a list copy per search edge for nothing. A
        machine holds no op counts or cost to copy: `_drive` keeps those."""
        # attributes in `__init__`'s order, so that clones keep its key-sharing
        # instance dict (reading `__dict__` would give that up)
        m = Machine.__new__(Machine)
        m.code = self.code
        m.heap = [HObj(h.cls, dict(h.fields), h.owner) if isinstance(h, HObj)
                  else HArr(list(h.elems), h.owner) for h in self.heap]
        m.monitors = {oid: Monitor(mon.owner, mon.count, list(mon.waitset))
                      for oid, mon in self.monitors.items()}
        m.threads = []
        for t in self.threads:
            fs = [Frame(f.fn, f.block, f.code, dict(f.locals), f.idx) for f in t.frames]
            m.threads.append(ThreadState(t.tid, fs, t.status, t.wait_obj, t.saved_count, t.permit))
        m.live, m.events = self.live, []
        m.steps, m.status, m.reason = self.steps, self.status, self.reason
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
        step counts and `status` (the search keys only machines that have not
        stopped) are deliberately excluded; a machine holds no op counts or
        cost (`_drive` keeps them), and a frame's return destination is its
        caller's call, which the caller's (fn, block, idx) already keys.

        Threads declared with the same function and the same literal args
        form a group (`_thread_groups`). A result names no thread, so a state
        and its image under a permutation of a group's threads have the same
        result set (symmetry reduction: Emerson & Sistla, *Symmetry and model
        checking*, FMSD 1996; Ip & Dill, *Better verification through
        symmetry*, FMSD 1996). So the key lists threads group by group, and
        names each monitor's owner and waiters by their rank in that order.
        A group of one thread is encoded as it is. A larger one is drafted
        first, each part with every reference but a singleton's hidden, and
        sorted by the drafts' hashes, ties in tid order (a hash orders parts
        whose slots hold different types, which comparing them would not);
        only then are its references renumbered, in that order, and a draft
        that hid none is already final. Equal keys still mean states equal
        up to a permutation within groups, so the order of the parts decides
        only which such states merge, and a tie between different parts
        costs a merge, never soundness. This needs that no step reads a tid:
        in a program with `notify`, which wakes the lowest waiting tid, or
        `unpark`, which takes one, each thread is a group of its own, which
        is tid order; `notifyall` is fine.

        Cell owners (`HObj.owner`, `HArr.owner`) are tids too. They stay out
        of the key and are not permuted: they only decide which orders the
        search skips, and a memo entry is the exact result set of its state,
        so two states that differ only in ownership may share it.
        """
        seed, live, groups = self.code.keying
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
                frames.append((f.fn, f.block, f.idx, tuple(vals)))
            return (t.status, None if t.wait_obj is None else cv(Ref(t.wait_obj)),
                    t.saved_count, t.permit, tuple(frames))

        threads, tparts = self.threads, []
        order = [None]  # None, then the tids in the key's order: a tid's index is its rank
        for group in groups:
            if len(group) == 1:
                tparts.append(part(threads[group[0] - 1], cv))
                order += group
                continue
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
            for tid in group:
                n = len(hidden)
                enc = part(threads[tid - 1], hide)
                drafts.append((hash(enc), tid, enc if len(hidden) == n else None))
            drafts.sort()  # the tids differ, so the parts are never compared
            for _, tid, enc in drafts:
                tparts.append(enc if enc is not None else part(threads[tid - 1], cv))
                order.append(tid)
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
                hparts.append(("M", mon.owner and order.index(mon.owner), mon.count,
                               tuple(sorted([order.index(w) for w in mon.waitset]))))
        return tuple(tparts), tuple(hparts)


#: a grant with no end: with one thread enabled, every pick returns it
UNBOUNDED = sys.maxsize


@dataclass(slots=True)
class RoundRobin:
    """Run each enabled thread for up to `quantum` consecutive steps."""

    quantum: int = 1
    _cur: int = 0
    _left: int = 0

    def __post_init__(self):
        if type(self.quantum) is not int or self.quantum < 1:  # a bool is an int too
            raise ValueError(f"round-robin quantum must be an int of at least 1, "
                             f"got {self.quantum!r}")

    def regrant(self, tid: int, k: int, enabled: list[int]) -> tuple[int, int]:
        if k:  # the grant of `tid` held the picks it had left, else a fresh quantum
            left = self._left if self._left > 0 and self._cur == tid else self.quantum
            self._cur = tid
            # past its quantum a lone enabled thread is chosen afresh and runs on
            self._left = left - k if k <= left else (left - k) % self.quantum
        if len(enabled) == 1:
            return enabled[0], UNBOUNDED
        cur = self._cur
        if self._left > 0 and cur in enabled:
            return cur, self._left
        for i in enabled:  # the first thread after the current one, else the lowest
            if i > cur:
                return i, self.quantum
        return enabled[0], self.quantum


@dataclass(slots=True)
class Explicit:
    """Cycle through an explicit thread-id sequence.

    When the scheduled thread is not enabled, the lowest-id enabled thread
    runs instead, which keeps every explicit schedule executable and maps it
    onto some sequence of legal choices.
    """

    seq: tuple[int, ...]
    _ptr: int = 0

    def __post_init__(self):
        if not self.seq:
            raise ValueError("an explicit schedule needs at least one thread id")
        if any(type(t) is not int for t in self.seq):
            raise ValueError(f"thread ids must be ints, got {self.seq!r}")
        if min(self.seq) < 1:
            raise ValueError(f"thread ids start at 1, got {min(self.seq)}")

    def regrant(self, tid: int, k: int, enabled: list[int]) -> tuple[int, int]:
        self._ptr += k
        seq, size, lowest = self.seq, len(self.seq), enabled[0]  # sorted
        ptr = self._ptr % size
        tid = seq[ptr]
        if tid not in enabled:
            tid = lowest
        n = 1
        while n < size:
            want = seq[(ptr + n) % size]
            if (want if want in enabled else lowest) != tid:
                return tid, n
            n += 1
        return tid, UNBOUNDED


def parse_schedule(spec: str) -> RoundRobin | Explicit:
    """Parse "rr:k" (k >= 1) or "explicit:t1,t2,..." (each t >= 1) schedules."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "rr":
            return RoundRobin(int(rest))
        if kind == "explicit":
            return Explicit(tuple(int(x) for x in rest.split(",")))
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
    policy could pick no other. `schedule` is an `rr:`/`explicit:` spec or a
    schedule policy (see the module docstring). The run steps a copy of it,
    so the same object gives the same run every time.
    """
    if budget < 1:
        raise ValueError(f"step budget must be at least 1, got {budget}")
    policy = parse_schedule(schedule) if isinstance(schedule, str) else schedule
    if isinstance(policy, Explicit) and max(policy.seq) > len(program.threads):
        raise ValueError(f"schedule names thread {max(policy.seq)}, "
                         f"but the program has {len(program.threads)} thread(s)")
    m = Machine(program)
    counts, cost = m._drive(budget, copy.copy(policy))
    trace = ResultTrace(tuple(m.events), m.status, m.reason)
    metrics = MetricVector(refcycles=cost)
    op_counts = Counter({op: n for op, n in counts.items() if n})
    for op, n in op_counts.items():
        column = OPCODES[op].metric
        if column is not None:
            setattr(metrics, column, getattr(metrics, column) + n)
    return RunResult(trace, metrics, op_counts, m.steps)
