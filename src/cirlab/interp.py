"""Small-step interpreter for one thread schedule.

Execution is sequentially consistent: one instruction of one thread runs per
step, and every instruction (including CAS) is atomic. A thread whose next
action cannot proceed (monitor held elsewhere, empty park permit, waiting)
is simply not enabled; it re-executes nothing while blocked.

Runtime values are 64-bit signed ints, bools, heap references, null, and
function handles. Fields and array elements start at integer 0. Dynamic
type confusion (e.g. getfield on an int) raises InterpreterError and fails
the run; a failed guard instead ends the whole trace with a deopt status.

A run counts executed opcodes and a deterministic cost in "reference
cycle" units per `cost_model`; `ir.OPCODES` gives each opcode's cost and the
workload metric it counts toward, from which `run` builds the metric vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .ir import INT_MAX, OPCODES, PURE_OPS, Br, CondBr, Instr, Program, Ret


class InterpreterError(Exception):
    """A dynamic fault (type confusion, monitor misuse, bounds, division)."""


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
        out = []
        for c in self.COLUMNS:
            v = getattr(self, c)
            out.append("" if v is None else str(v))
        out.append(str(self.refcycles))
        return out


def cost_model(instr: Instr) -> int:
    """Cost units per instruction; the stand-in for hardware reference cycles."""
    return instr.width or OPCODES[instr.op].cost


def _wrap(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v > INT_MAX else v


def _is_int(v: Value) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _values_equal(a: Value, b: Value) -> bool:
    if _is_int(a) and _is_int(b):
        return a == b
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    if isinstance(a, Ref) and isinstance(b, Ref):
        return a.i == b.i
    if isinstance(a, Handle) and isinstance(b, Handle):
        return a.fn == b.fn
    return a is None and b is None


class HObj:
    __slots__ = ("cls", "fields")

    def __init__(self, cls: str, fields: dict[str, Value]):
        self.cls = cls
        self.fields = fields


class HArr:
    __slots__ = ("elems",)

    def __init__(self, elems: list[Value]):
        self.elems = elems


class Monitor:
    __slots__ = ("owner", "count", "waitset")

    def __init__(self):
        self.owner: int | None = None
        self.count = 0
        self.waitset: list[int] = []


class Frame:
    __slots__ = ("fn", "block", "idx", "locals", "ret_dest")

    def __init__(self, fn: str, block: str, locals_: dict[str, Value], ret_dest: str | None):
        self.fn = fn
        self.block = block
        self.idx = 0
        self.locals = locals_
        self.ret_dest = ret_dest


# thread status values; "run" also covers threads gated on a held monitor,
# which are detected by peeking at their next instruction
RUN, WAITING, REACQUIRE, PARKED, DONE = "run", "waiting", "reacquire", "parked", "done"

#: opcodes whose step reads and writes only the running thread's own frames
_LOCAL_OPS = PURE_OPS | {"call"}


class ThreadState:
    __slots__ = ("tid", "frames", "status", "wait_obj", "saved_count", "permit")

    def __init__(self, tid: int):
        self.tid = tid
        self.frames: list[Frame] = []
        self.status = RUN
        self.wait_obj: int | None = None
        self.saved_count = 0
        self.permit = False


class Machine:
    """Mutable execution state for one run; confine each instance to one driver."""

    def __init__(self, program: Program):
        self.program = program
        self.fns = program.fn_map()
        self._field_order = {
            c.name: tuple(program.declared_fields(c.name)) for c in program.classes
        }
        self.heap: list[HObj | HArr] = []
        self.monitors: dict[int, Monitor] = {}
        self.singletons: dict[str, Ref] = {}
        for c in program.classes:
            self.singletons[c.name] = self._alloc_obj(c.name)
        self.threads: list[ThreadState] = []
        for n, t in enumerate(program.threads, start=1):
            ts = ThreadState(n)
            fn = self.fns[t.fn]
            ts.frames.append(Frame(fn.name, fn.entry.name, dict(zip(fn.params, t.args)), None))
            self.threads.append(ts)
        self.events: list[int] = []
        self.op_counts: Counter[str] = Counter()
        self.cost = 0
        self.steps = 0
        self.status: str | None = None  # set once terminal
        self.reason: str | None = None
        self._blocks = {f.name: f.block_map() for f in program.functions}
        # fn -> block -> live names per instruction index, filled by canon_key
        self._live: dict[str, dict[str, tuple[tuple[str, ...], ...]]] = {}

    # -- heap -------------------------------------------------------------

    def _alloc_obj(self, cls: str) -> Ref:
        fields = {f: 0 for f in self._field_order[cls]}
        self.heap.append(HObj(cls, fields))
        return Ref(len(self.heap) - 1)

    def _alloc_arr(self, n: int) -> Ref:
        self.heap.append(HArr([0] * n))
        return Ref(len(self.heap) - 1)

    def _obj(self, v: Value, what: str) -> HObj:
        if not isinstance(v, Ref):
            if v is None:
                raise InterpreterError(f"{what}: null reference")
            raise InterpreterError(f"{what}: not a reference")
        h = self.heap[v.i]
        if not isinstance(h, HObj):
            raise InterpreterError(f"{what}: reference is an array, not an object")
        return h

    def _arr(self, v: Value, what: str) -> HArr:
        if not isinstance(v, Ref):
            if v is None:
                raise InterpreterError(f"{what}: null reference")
            raise InterpreterError(f"{what}: not a reference")
        h = self.heap[v.i]
        if not isinstance(h, HArr):
            raise InterpreterError(f"{what}: reference is an object, not an array")
        return h

    def _check_field(self, h: HObj, fld: str, what: str) -> None:
        if fld not in h.fields:
            raise InterpreterError(f"{what}: class {h.cls} has no field {fld!r}")

    def _monitor(self, oid: int) -> Monitor:
        m = self.monitors.get(oid)
        if m is None:
            m = self.monitors[oid] = Monitor()
        return m

    # -- scheduling -------------------------------------------------------

    def alive(self) -> bool:
        return any(t.status != DONE for t in self.threads)

    def enabled(self, tid: int) -> bool:
        t = self.threads[tid - 1]
        if t.status == DONE or t.status == WAITING:
            return False
        if t.status == PARKED:
            return False
        if t.status == REACQUIRE:
            m = self.monitors.get(t.wait_obj)  # type: ignore[arg-type]
            return m is None or m.owner is None
        instr = self._next_instr(t)
        if isinstance(instr, Instr) and instr.op == "monitorenter":
            obj = t.frames[-1].locals.get(instr.args[0])
            if isinstance(obj, Ref):
                m = self.monitors.get(obj.i)
                if m is not None and m.owner not in (None, tid):
                    return False
        return True

    def enabled_threads(self) -> list[int]:
        return [t.tid for t in self.threads if self.enabled(t.tid)]

    def next_is_local(self, tid: int) -> bool:
        """True iff thread `tid`'s next step touches only its own frames.

        Such a step commutes with every step of every other thread: a pure
        op, a call, a branch, or a return to a caller. A return from the
        last frame is not local, since `unpark` reads the DONE it sets.
        """
        t = self.threads[tid - 1]
        if t.status != RUN:
            return False
        instr = self._next_instr(t)
        if isinstance(instr, Instr):
            return instr.op in _LOCAL_OPS
        return not isinstance(instr, Ret) or len(t.frames) > 1

    def _next_instr(self, t: ThreadState) -> Instr | Br | CondBr | Ret:
        fr = t.frames[-1]
        block = self._blocks[fr.fn][fr.block]
        if fr.idx < len(block.instrs):
            return block.instrs[fr.idx]
        return block.term

    def check_deadlock(self) -> None:
        if self.status is None and self.alive() and not self.enabled_threads():
            self.status = "deadlock"

    # -- execution --------------------------------------------------------

    def step(self, tid: int) -> list[int]:
        """Run one instruction of thread `tid`; returns outputs it emitted."""
        if self.status is not None:
            raise InterpreterError("machine already terminal")
        t = self.threads[tid - 1]
        if t.status == REACQUIRE:
            m = self._monitor(t.wait_obj)  # type: ignore[arg-type]
            assert m.owner is None
            m.owner = tid
            m.count = t.saved_count
            t.status = RUN
            t.wait_obj = None
            t.saved_count = 0
        before = len(self.events)
        self.steps += 1
        instr = self._next_instr(t)
        if isinstance(instr, Instr):
            self.op_counts[instr.op] += 1
            self._exec(t, instr)
            self.cost += cost_model(instr)
        else:
            self.cost += 1
            self._exec_term(t, instr)
        if self.status is None and all(th.status == DONE for th in self.threads):
            self.status = "terminated"
        return self.events[before:]

    def _exec(self, t: ThreadState, i: Instr) -> None:
        fr = t.frames[-1]
        env = fr.locals
        op = i.op

        def val(name: str) -> Value:
            return env[name]

        def intval(name: str, what: str) -> int:
            v = env[name]
            if not _is_int(v):
                raise InterpreterError(f"{what}: expected int")
            return v

        advance = True
        if op == "const":
            env[i.dest] = i.value
        elif op == "classref":
            env[i.dest] = self.singletons[i.cls]
        elif op == "binop":
            env[i.dest] = self._binop(i.kind, val(i.args[0]), val(i.args[1]))
        elif op == "new":
            env[i.dest] = self._alloc_obj(i.cls)
        elif op == "newarray":
            n = intval(i.args[0], "newarray")
            if n < 0:
                raise InterpreterError("newarray: negative length")
            env[i.dest] = self._alloc_arr(n)
        elif op == "getfield":
            h = self._obj(val(i.args[0]), "getfield")
            self._check_field(h, i.field, "getfield")
            env[i.dest] = h.fields[i.field]
        elif op == "putfield":
            h = self._obj(val(i.args[0]), "putfield")
            self._check_field(h, i.field, "putfield")
            h.fields[i.field] = val(i.args[1])
        elif op == "arrayload":
            a = self._arr(val(i.args[0]), "arrayload")
            idx = intval(i.args[1], "arrayload")
            if not 0 <= idx < len(a.elems):
                raise InterpreterError("arrayload: index out of bounds")
            env[i.dest] = a.elems[idx]
        elif op == "arraystore":
            a = self._arr(val(i.args[0]), "arraystore")
            idx = intval(i.args[1], "arraystore")
            if not 0 <= idx < len(a.elems):
                raise InterpreterError("arraystore: index out of bounds")
            a.elems[idx] = val(i.args[2])
        elif op == "cas":
            h = self._obj(val(i.args[0]), "cas")
            self._check_field(h, i.field, "cas")
            ok = _values_equal(h.fields[i.field], val(i.args[1]))
            if ok:
                h.fields[i.field] = val(i.args[2])
            env[i.dest] = ok
        elif op == "monitorenter":
            r = val(i.args[0])
            if not isinstance(r, Ref):
                raise InterpreterError("monitorenter: not a reference")
            m = self._monitor(r.i)
            assert m.owner in (None, t.tid), "scheduled a blocked thread"
            m.owner = t.tid
            m.count += 1
        elif op == "monitorexit":
            r = val(i.args[0])
            m = self.monitors.get(r.i) if isinstance(r, Ref) else None
            if m is None or m.owner != t.tid:
                raise InterpreterError("monitorexit: monitor not owned")
            m.count -= 1
            if m.count == 0:
                m.owner = None
        elif op == "wait":
            r = val(i.args[0])
            m = self.monitors.get(r.i) if isinstance(r, Ref) else None
            if m is None or m.owner != t.tid:
                raise InterpreterError("wait: monitor not owned")
            t.saved_count = m.count
            m.owner = None
            m.count = 0
            m.waitset.append(t.tid)
            t.wait_obj = r.i
            t.status = WAITING
        elif op in ("notify", "notifyall"):
            r = val(i.args[0])
            m = self.monitors.get(r.i) if isinstance(r, Ref) else None
            if m is None or m.owner != t.tid:
                raise InterpreterError(f"{op}: monitor not owned")
            if m.waitset:
                woken = sorted(m.waitset) if op == "notifyall" else [min(m.waitset)]
                for w in woken:
                    m.waitset.remove(w)
                    self.threads[w - 1].status = REACQUIRE
        elif op == "park":
            if t.permit:
                t.permit = False
            else:
                t.status = PARKED
        elif op == "unpark":
            target = intval(i.args[0], "unpark")
            if not 1 <= target <= len(self.threads):
                raise InterpreterError(f"unpark: no thread {target}")
            tt = self.threads[target - 1]
            if tt.status == PARKED:
                tt.status = RUN
            elif tt.status != DONE:
                tt.permit = True
        elif op == "guard":
            c = val(i.args[0])
            if not isinstance(c, bool):
                raise InterpreterError("guard: condition is not a boolean")
            if not c:
                self.status = "deopt"
                self.reason = i.reason
        elif op == "instanceof":
            v = val(i.args[0])
            if v is None:
                env[i.dest] = False
            elif isinstance(v, Ref):
                h = self.heap[v.i]
                env[i.dest] = isinstance(h, HObj) and i.cls in self.program.ancestry(h.cls)
            else:
                raise InterpreterError("instanceof: not a reference")
        elif op == "call":
            self._push(t, i.fn, [val(a) for a in i.args], i.dest)
            advance = False
        elif op == "callvirtual":
            h = self._obj(val(i.args[0]), "callvirtual")
            target = self.program.resolve_method(h.cls, i.method)
            if target is None:
                raise InterpreterError(f"callvirtual: {h.cls} has no method {i.method!r}")
            self._push(t, target, [val(a) for a in i.args], i.dest)
            advance = False
        elif op == "handleconst":
            env[i.dest] = Handle(i.fn)
        elif op == "callhandle":
            h = val(i.args[0])
            if not isinstance(h, Handle):
                raise InterpreterError("callhandle: not a handle")
            self._push(t, h.fn, [val(a) for a in i.args[1:]], i.dest)
            advance = False
        elif op == "output":
            v = val(i.args[0])
            if not _is_int(v):
                raise InterpreterError("output: expected int")
            self.events.append(v)
        elif op == "vbinop":
            d = self._arr(val(i.args[0]), "vbinop")
            a = self._arr(val(i.args[1]), "vbinop")
            b = self._arr(val(i.args[2]), "vbinop")
            off = intval(i.args[3], "vbinop")
            w = i.width or 0
            if off < 0 or off + w > len(d.elems) or off + w > len(a.elems) or off + w > len(b.elems):
                raise InterpreterError("vbinop: lane out of bounds")
            for k in range(off, off + w):
                d.elems[k] = self._binop(i.kind, a.elems[k], b.elems[k])
        else:
            raise InterpreterError(f"unknown opcode {op!r}")
        if advance:
            fr.idx += 1

    def _push(self, t: ThreadState, fname: str, args: list[Value], dest: str | None) -> None:
        fn = self.fns.get(fname)
        if fn is None:
            raise InterpreterError(f"call: unknown function {fname!r}")
        if len(args) != len(fn.params):
            raise InterpreterError(f"call: {fname} takes {len(fn.params)} args, got {len(args)}")
        t.frames[-1].idx += 1  # resume after the call
        nf = Frame(fn.name, fn.entry.name, dict(zip(fn.params, args)), dest)
        t.frames.append(nf)

    def _binop(self, kind: str, a: Value, b: Value) -> Value:
        if kind == "eq":
            return _values_equal(a, b)
        if not (_is_int(a) and _is_int(b)):
            raise InterpreterError(f"binop {kind}: expected ints")
        if kind == "add":
            return _wrap(a + b)
        if kind == "sub":
            return _wrap(a - b)
        if kind == "mul":
            return _wrap(a * b)
        if kind == "div":
            if b == 0:
                raise InterpreterError("binop div: division by zero")
            return _wrap(-(-a // b) if (a < 0) != (b < 0) else a // b)
        if kind == "mod":
            if b == 0:
                raise InterpreterError("binop mod: division by zero")
            q = -(-a // b) if (a < 0) != (b < 0) else a // b
            return _wrap(a - q * b)
        if kind == "lt":
            return a < b
        if kind == "le":
            return a <= b
        raise InterpreterError(f"unknown binop {kind!r}")

    def _exec_term(self, t: ThreadState, term: Br | CondBr | Ret) -> None:
        fr = t.frames[-1]
        if isinstance(term, Ret):
            value = fr.locals[term.value] if term.value is not None else None
            has_value = term.value is not None
            dest = fr.ret_dest
            t.frames.pop()
            if not t.frames:
                t.status = DONE
                return
            if dest is not None:
                if not has_value:
                    raise InterpreterError(f"{fr.fn} returned no value to a destination")
                t.frames[-1].locals[dest] = value
            return
        if isinstance(term, Br):
            target, args = term.target, term.args
        else:
            c = fr.locals[term.cond]
            if not isinstance(c, bool):
                raise InterpreterError("condbr: condition is not a boolean")
            target, args = (
                (term.then_target, term.then_args) if c else (term.else_target, term.else_args)
            )
        block = self._blocks[fr.fn][target]
        fr.locals.update(zip(block.params, [fr.locals[a] for a in args]))
        fr.block = target
        fr.idx = 0

    # -- cloning and canonicalization (used by the schedule enumerator) ----

    def clone(self) -> "Machine":
        m = Machine.__new__(Machine)
        m.program = self.program
        m.fns = self.fns
        m.heap = [
            HObj(h.cls, dict(h.fields)) if isinstance(h, HObj) else HArr(list(h.elems))
            for h in self.heap
        ]
        m.monitors = {}
        for oid, mon in self.monitors.items():
            c = Monitor()
            c.owner, c.count, c.waitset = mon.owner, mon.count, list(mon.waitset)
            m.monitors[oid] = c
        m.singletons = self.singletons
        m.threads = []
        for t in self.threads:
            nt = ThreadState(t.tid)
            nt.status, nt.wait_obj, nt.saved_count, nt.permit = (
                t.status, t.wait_obj, t.saved_count, t.permit,
            )
            for frm in t.frames:
                nf = Frame(frm.fn, frm.block, dict(frm.locals), frm.ret_dest)
                nf.idx = frm.idx
                nt.frames.append(nf)
            m.threads.append(nt)
        m.events = list(self.events)
        m.op_counts = self.op_counts.copy()
        m.cost = self.cost
        m.steps = self.steps
        m.status = self.status
        m.reason = self.reason
        m._field_order = self._field_order
        m._blocks = self._blocks
        m._live = self._live
        return m

    def _live_names(self, f: Frame) -> tuple[str, ...]:
        by_block = self._live.get(f.fn)
        if by_block is None:
            from .cfg import liveness  # not at import time: `run` never needs it

            by_block = self._live[f.fn] = {
                b: tuple(tuple(sorted(names)) for names in points)
                for b, points in liveness(self.fns[f.fn]).items()
            }
        return by_block[f.block][f.idx]

    def canon_key(self):
        """Schedule-independent state fingerprint.

        Heap references are renumbered in deterministic encounter order
        (thread roots first, then reachable object graph), so states that
        differ only in allocation numbering compare equal. A frame keys only
        the locals live at its position (`cfg.liveness`), in name order, with
        None for a live name not yet assigned (a caller's pending call
        destination), so states that differ only in dead values compare
        equal too. Emitted events, op counts, cost, and step counts are
        deliberately excluded.
        """
        renum: dict[int, int] = {}
        queue: list[int] = []

        def cv(v: Value):
            if isinstance(v, Ref):
                c = renum.get(v.i)
                if c is None:
                    c = renum[v.i] = len(renum)
                    queue.append(v.i)
                return ("r", c)
            if isinstance(v, Handle):
                return ("h", v.fn)
            if isinstance(v, bool):
                return ("b", v)
            if v is None:
                return ("n",)
            return v

        roots = []
        for name in sorted(self.singletons):
            roots.append(cv(self.singletons[name]))
        tparts = []
        for t in self.threads:
            frames = tuple(
                (
                    f.fn, f.block, f.idx, f.ret_dest,
                    tuple(cv(f.locals[k]) if k in f.locals else None for k in self._live_names(f)),
                )
                for f in t.frames
            )
            tparts.append(
                (t.status, cv(Ref(t.wait_obj)) if t.wait_obj is not None else None,
                 t.saved_count, t.permit, frames)
            )
        hparts = []
        qi = 0
        while qi < len(queue):
            oid = queue[qi]
            qi += 1
            h = self.heap[oid]
            if isinstance(h, HObj):
                hparts.append(("O", h.cls, tuple(cv(h.fields[f]) for f in self._field_order[h.cls])))
            else:
                hparts.append(("A", tuple(cv(e) for e in h.elems)))
            mon = self.monitors.get(oid)
            if mon is not None and (mon.owner is not None or mon.waitset):
                hparts.append(("M", mon.owner, mon.count, tuple(sorted(mon.waitset))))
        return (tuple(roots), tuple(tparts), tuple(hparts), self.status)


@dataclass
class RoundRobin:
    """Run each enabled thread for up to `quantum` consecutive steps."""

    quantum: int = 1
    _cur: int = 0
    _left: int = 0

    def pick(self, enabled: list[int]) -> int:
        if self._cur not in enabled or self._left <= 0:
            later = [i for i in enabled if i > self._cur]
            self._cur = min(later) if later else min(enabled)
            self._left = self.quantum
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
        return want if want in enabled else min(enabled)


def parse_schedule(spec: str) -> RoundRobin | Explicit:
    """Parse "rr:k" (k >= 1) or "explicit:1,2,..." schedule descriptions."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "rr" and int(rest) >= 1:
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


def run(
    program: Program,
    schedule: RoundRobin | Explicit | str = "rr:1",
    budget: int = 1_000_000,
) -> RunResult:
    """Execute `program` deterministically under one schedule policy."""
    policy = parse_schedule(schedule) if isinstance(schedule, str) else schedule
    m = Machine(program)
    while m.status is None:
        enabled = m.enabled_threads()
        if not enabled:
            m.check_deadlock()
            break
        if m.steps >= budget:
            m.status = "step-budget-exhausted"
            break
        m.step(policy.pick(enabled))
    status = m.status or "terminated"
    trace = ResultTrace(tuple(m.events), status, m.reason)
    metrics = MetricVector(refcycles=m.cost)
    for op, n in m.op_counts.items():
        column = OPCODES[op].metric
        if column is not None:
            setattr(metrics, column, getattr(metrics, column) + n)
    return RunResult(trace, metrics, m.op_counts, m.steps)
