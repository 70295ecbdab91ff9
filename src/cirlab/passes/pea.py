"""Partial escape analysis that understands atomic operations.

Heap allocation of an object is postponed until a reference to it can be
seen by other code: until then the object lives as compiler state (a
"virtual" object holding a value name per written field). Reads fold into
renames, writes update the virtual state, and a CAS against a virtual field
folds when the comparison is statically decidable: the result becomes a
boolean constant and the scalar state is updated on success. When a
reference finally escapes (returned, stored to real memory, passed to a
call, used as a monitor, ...), the object is materialized at that point
with plain field writes of its current values.

Virtual state must agree wherever control flow merges. A merge that would
combine different states for the same allocation (the loop-carried case)
aborts that allocation: it is blacklisted and the function re-analyzed, so
the pass degrades gracefully instead of inserting merge-point phis.
"""

from __future__ import annotations

from dataclasses import replace

from .. import ir
from ..cfg import def_index, dominates, dominators, reachable_rpo
from ..ir import Block, Function, Instr, NameGen, Program
from . import PassOptions, PassReport
from .util import remove_dead_pure


class _Conflict(Exception):
    def __init__(self, alloc: str):
        self.alloc = alloc


def _copy_state(state: dict) -> dict:
    return {
        k: ("virt", v[1], dict(v[2])) if v[0] == "virt" else v
        for k, v in state.items()
    }


class _FnPea:
    """Per-function analysis and rewrite driver."""

    def __init__(self, program: Program, f: Function):
        self.program = program
        self.f = f
        self.idom, _ = dominators(f)
        self.order = reachable_rpo(f)
        self.bmap = f.block_map()
        self.defs = def_index(f)
        self.defblock: dict[str, str] = {}
        for b in f.blocks:
            for i in b.instrs:
                if i.op == "new" and i.dest is not None:
                    self.defblock[i.dest] = b.name
        self.blacklist: set[str] = set()
        # populated by the collection replay
        self.rename: dict[str, str] = {}
        self.matpoints: dict[str, list[tuple[str, int, int]]] = {}
        self.matnames: dict[tuple[str, int, int], str] = {}
        self.counts = {"virtualized": 0, "materialized": 0, "cas_folded": 0,
                       "reads_folded": 0, "writes_folded": 0, "instanceof_folded": 0}

    # -- operand resolution -------------------------------------------------

    def res(self, name: str) -> str:
        while name in self.rename:
            name = self.rename[name]
        return name

    def use(self, name: str, state: dict) -> str:
        n = self.res(name)
        st = state.get(n)
        if st is not None and st[0] == "esc":
            return st[1]
        return n

    def virt(self, name: str, state: dict):
        n = self.res(name)
        st = state.get(n)
        return n if st is not None and st[0] == "virt" else None

    def _static_eq(self, a: str, b: str) -> bool | None:
        if a == b:
            return True
        da, db = self.defs.get(a), self.defs.get(b)
        if da is not None and db is not None and da.op == "const" and db.op == "const":
            return da.value == db.value
        return None

    # -- one-block transfer -------------------------------------------------

    def transfer(self, bname: str, state: dict, emit: list[Instr] | None, collect: bool):
        """Simulate block `bname` from `state`, optionally emitting rewritten code.

        collect=True records rename and materialization decisions; the
        converged analysis is replayed once in that mode, then once emitting.
        """
        b = self.bmap[bname]
        seq = 0

        def mat(alloc: str, idx: int) -> str:
            nonlocal seq
            st = state[alloc]
            point = (bname, idx, seq)
            seq += 1
            if collect:
                self.matpoints.setdefault(alloc, []).append(point)
                self.counts["materialized"] += 1
            name = self.matnames.get(point, f"{alloc}@{bname}:{idx}:{point[2]}")
            cls, fields = st[1], st[2]
            state[alloc] = ("esc", name)
            order = [fl for fl in self.program.declared_fields(cls) if fl in fields]
            for fl in order:
                v = self.res(fields[fl])
                if state.get(v, ("",))[0] == "virt":
                    mat(v, idx)
            if emit is not None:
                emit.append(ir.new(name, cls))
                for fl in order:
                    emit.append(ir.putfield(name, fl, self.use(fields[fl], state)))
            return name

        def escape_operands(names: tuple[str, ...], idx: int) -> None:
            for n in names:
                v = self.virt(n, state)
                if v is not None:
                    mat(v, idx)

        def emit_renamed(i: Instr) -> None:
            if emit is not None:
                emit.append(replace(i, args=tuple(self.use(a, state) for a in i.args)))

        for idx, i in enumerate(b.instrs):
            op = i.op
            if op == "new" and i.dest is not None and i.dest not in self.blacklist:
                state[i.dest] = ("virt", i.cls, {})
                if collect:
                    self.counts["virtualized"] += 1
                continue
            if op == "putfield":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    state[ov][2][i.field] = self.use(i.args[1], state)
                    if collect:
                        self.counts["writes_folded"] += 1
                    continue
                escape_operands((i.args[1],), idx)
                emit_renamed(i)
                continue
            if op == "getfield":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    fields = state[ov][2]
                    if i.field in fields:
                        if collect:
                            self.rename[i.dest] = fields[i.field]
                            self.counts["reads_folded"] += 1
                        continue
                    mat(ov, idx)  # reading a never-written field: give up here
                emit_renamed(i)
                continue
            if op == "cas":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    fields = state[ov][2]
                    folded = False
                    if i.field in fields:
                        cur = fields[i.field]
                        eq = self._static_eq(self.use(cur, state), self.use(i.args[1], state))
                        if eq is not None:
                            if eq:
                                fields[i.field] = self.use(i.args[2], state)
                            if emit is not None:
                                emit.append(ir.const(i.dest, eq))
                            if collect:
                                self.counts["cas_folded"] += 1
                            folded = True
                    if folded:
                        continue
                    mat(ov, idx)
                escape_operands((i.args[1], i.args[2]), idx)
                emit_renamed(i)
                continue
            if op == "instanceof":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    verdict = i.cls in self.program.ancestry(state[ov][1])
                    if emit is not None:
                        emit.append(ir.const(i.dest, verdict))
                    if collect:
                        self.counts["instanceof_folded"] += 1
                    continue
                emit_renamed(i)
                continue
            # every other use of a virtual reference publishes it
            escape_operands(i.args, idx)
            emit_renamed(i)

        escape_operands(b.term.uses(), len(b.instrs))
        term = b.term.rename({a: self.use(a, state) for a in b.term.uses()})
        return state, term

    # -- whole-function driver ----------------------------------------------

    def analyze(self) -> dict[str, dict]:
        """Iterate transfer until block entry states converge; may raise _Conflict."""
        entry: dict[str, dict] = {self.order[0]: {}}
        for _ in range(2 * len(self.order) + 3):
            changed = False
            for bname in self.order:
                if bname not in entry:
                    continue
                st, _ = self.transfer(bname, _copy_state(entry[bname]), None, False)
                for succ in self.bmap[bname].term.targets():
                    merged = self._merge(entry.get(succ), st, succ)
                    if entry.get(succ) != merged:
                        entry[succ] = merged
                        changed = True
            if not changed:
                return entry
        # non-convergence: drop an arbitrary remaining allocation and retry
        remaining = sorted(set(self.defblock) - self.blacklist)
        raise _Conflict(remaining[0])

    def _merge(self, into: dict | None, frm: dict, mergeblock: str) -> dict:
        if into is None:
            return _copy_state(frm)
        out = {}
        for k in set(into) | set(frm):
            a, b = into.get(k), frm.get(k)
            if a is not None and a == b:
                out[k] = a
                continue
            defb = self.defblock.get(k, mergeblock)
            if defb != mergeblock and dominates(self.idom, defb, mergeblock):
                raise _Conflict(k)
            # definition does not dominate the merge: the value is dead here
        return _copy_state(out)

    def run(self) -> Function:
        while True:
            try:
                entry_states = self.analyze()
                break
            except _Conflict as c:
                self.blacklist.add(c.alloc)
        # replay 1: collect renames and materialization points
        for bname in self.order:
            self.transfer(bname, _copy_state(entry_states[bname]), None, True)
        gen = NameGen(self.f.defined_names())
        for alloc, points in self.matpoints.items():
            if len(points) == 1:
                self.matnames[points[0]] = alloc
            else:
                for n, pt in enumerate(points, start=1):
                    self.matnames[pt] = gen.fresh(f"{alloc}_m{n}")
        # replay 2: emit the rewritten blocks
        new_blocks = []
        for b in self.f.blocks:
            if b.name not in self.order:
                new_blocks.append(b)
                continue
            emitted: list[Instr] = []
            _, term = self.transfer(b.name, _copy_state(entry_states[b.name]), emitted, False)
            new_blocks.append(Block(b.name, b.params, tuple(emitted), term))
        return Function(self.f.name, self.f.params, tuple(new_blocks))


def pea_atomic(p: Program, options: PassOptions, report: PassReport) -> Program:
    """Scalar-replace non-escaping allocations, folding CAS on virtual fields."""
    new_fns = []
    for f in p.functions:
        if not any(i.op == "new" for b in f.blocks for i in b.instrs):
            new_fns.append(f)
            continue
        pea = _FnPea(p, f)
        nf = pea.run()
        c = pea.counts
        if sum(c.values()) > 0:
            nf = remove_dead_pure(nf)
        if nf == f:
            new_fns.append(f)
            continue
        eliminated = c["virtualized"] - len(pea.matpoints)
        report.rewrites += sum(c.values())
        report.note(
            f.name,
            f"allocations eliminated {eliminated}, delayed {len(pea.matpoints)}, "
            f"cas folded {c['cas_folded']}, reads folded {c['reads_folded']}, "
            f"writes folded {c['writes_folded']}",
        )
        new_fns.append(nf)
    return replace(p, functions=tuple(new_fns))
