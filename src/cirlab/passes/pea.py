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

The analysis is the rewrite: each sweep over the blocks simulates every
block and writes its code, and the code of the sweep whose entry states
no longer change is the output. Until that sweep ends, a materialized
object is named `<alloc>@<block>:<idx>:<seq>`, which no program can use;
the pass then gives it the allocation's own name, or `<alloc>_m<n>` when
it is materialized at more than one point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from .. import ir
from ..cfg import def_index, dominates, dominators, reachable_rpo
from ..ir import Block, Function, Instr, NameGen, Program, Terminator
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
        # what one sweep decided; `analyze` resets them before each sweep
        self.rename: dict[str, str] = {}
        self.matpoints: dict[str, list[str]] = {}
        self.counts: Counter = Counter()

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

    def transfer(self, bname: str, state: dict) -> tuple[list[Instr], Terminator]:
        """Simulate block `bname` from `state`; returns its rewritten code.

        `state` is updated to the block's exit state. Folded reads go into
        `rename`, and each materialization into `counts` and `matpoints`
        under the placeholder name `<alloc>@<block>:<idx>:<seq>`, which
        the returned code also uses; `run` gives the placeholders their
        final names.
        """
        b = self.bmap[bname]
        out: list[Instr] = []
        seq = 0

        def mat(alloc: str, idx: int) -> None:
            nonlocal seq
            _, cls, fields = state[alloc]
            name = f"{alloc}@{bname}:{idx}:{seq}"
            seq += 1
            self.matpoints.setdefault(alloc, []).append(name)
            self.counts["materialized"] += 1
            state[alloc] = ("esc", name)
            out.append(ir.new(name, cls))  # before its fields, which may point back
            order = [fl for fl in self.program.declared_fields(cls) if fl in fields]
            for fl in order:
                v = self.res(fields[fl])
                if state.get(v, ("",))[0] == "virt":
                    mat(v, idx)
            out.extend(ir.putfield(name, fl, self.use(fields[fl], state)) for fl in order)

        def escape_operands(names: tuple[str, ...], idx: int) -> None:
            for n in names:
                v = self.virt(n, state)
                if v is not None:
                    mat(v, idx)

        def emit_renamed(i: Instr) -> None:
            out.append(i.rename({a: u for a in i.args if (u := self.use(a, state)) != a}))

        for idx, i in enumerate(b.instrs):
            op = i.op
            if op == "new" and i.dest is not None and i.dest not in self.blacklist:
                state[i.dest] = ("virt", i.cls, {})
                self.counts["virtualized"] += 1
                continue
            if op == "putfield":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    state[ov][2][i.field] = self.use(i.args[1], state)
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
                    eq = None
                    if i.field in fields:
                        eq = self._static_eq(self.use(fields[i.field], state),
                                             self.use(i.args[1], state))
                    if eq is not None:
                        if eq:
                            fields[i.field] = self.use(i.args[2], state)
                        out.append(ir.const(i.dest, eq))
                        self.counts["cas_folded"] += 1
                        continue
                    mat(ov, idx)
                escape_operands((i.args[1], i.args[2]), idx)
                emit_renamed(i)
                continue
            if op == "instanceof":
                ov = self.virt(i.args[0], state)
                if ov is not None:
                    out.append(ir.const(i.dest, i.cls in self.program.ancestry(state[ov][1])))
                    self.counts["instanceof_folded"] += 1
                    continue
                emit_renamed(i)
                continue
            # every other use of a virtual reference publishes it
            escape_operands(i.args, idx)
            emit_renamed(i)

        escape_operands(b.term.uses(), len(b.instrs))
        return out, b.term.rename({a: self.use(a, state) for a in b.term.uses()})

    # -- whole-function driver ----------------------------------------------

    def analyze(self) -> dict[str, tuple[list[Instr], Terminator]]:
        """Sweep transfer until block entry states converge; may raise _Conflict.

        Returns each reachable block's code from the converged sweep, whose
        renames, counts and materialization points are the ones kept.
        """
        entry: dict[str, dict] = {self.order[0]: {}}
        for _ in range(2 * len(self.order) + 3):
            self.rename, self.matpoints, self.counts = {}, {}, Counter()
            code = {}
            changed = False
            for bname in self.order:
                if bname not in entry:
                    continue
                st = _copy_state(entry[bname])
                code[bname] = self.transfer(bname, st)
                for succ in self.bmap[bname].term.targets():
                    merged = self._merge(entry.get(succ), st, succ)
                    if entry.get(succ) != merged:
                        entry[succ] = merged
                        changed = True
            if not changed:
                return code
        # non-convergence: drop an arbitrary remaining allocation and retry
        remaining = sorted(set(self.defblock) - self.blacklist)
        raise _Conflict(remaining[0])

    def _merge(self, into: dict | None, frm: dict, mergeblock: str) -> dict:
        if into is None:
            return _copy_state(frm)
        out = {}
        for k in into | frm:  # in state order: the first conflict found is blacklisted
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
                code = self.analyze()
                break
            except _Conflict as c:
                self.blacklist.add(c.alloc)
        # one materialization keeps the allocation's name; several get fresh ones
        gen = NameGen(self.f.defined_names())
        names: dict[str, str] = {}
        for alloc, points in self.matpoints.items():
            for n, point in enumerate(points, start=1):
                names[point] = alloc if len(points) == 1 else gen.fresh(f"{alloc}_m{n}")
        blocks = []
        for b in self.f.blocks:
            if b.name in code:
                instrs, term = code[b.name]
                b = Block(b.name, b.params, tuple(_named(i, names) for i in instrs),
                          term.rename(names))
            blocks.append(b)
        return Function(self.f.name, self.f.params, tuple(blocks))


def _named(i: Instr, names: dict[str, str]) -> Instr:
    i = i.rename(names)
    return replace(i, dest=names[i.dest]) if i.dest in names else i


def _pea_fn(p: Program, f: Function, report: PassReport) -> Function:
    """`f` rewritten and without dead pure instructions, or `f` itself if that
    changes nothing."""
    if not any(i.op == "new" for b in f.blocks for i in b.instrs):
        return f
    pea = _FnPea(p, f)
    nf = pea.run()
    c = pea.counts
    if sum(c.values()) == 0 or (nf := remove_dead_pure(nf)) == f:
        return f
    eliminated = c["virtualized"] - len(pea.matpoints)
    report.rewrites += sum(c.values())
    report.note(
        f.name,
        f"allocations eliminated {eliminated}, delayed {len(pea.matpoints)}, "
        f"cas folded {c['cas_folded']}, reads folded {c['reads_folded']}, "
        f"writes folded {c['writes_folded']}",
    )
    return nf


def pea_atomic(p: Program, options: PassOptions, report: PassReport) -> Program:
    """Scalar-replace non-escaping allocations, folding CAS on virtual fields."""
    return replace(p, functions=tuple(_pea_fn(p, f, report) for f in p.functions))
