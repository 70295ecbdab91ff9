"""Atomic-operation coalescing: fuse adjacent CAS retry loops.

Two consecutive canonical retry loops on the same location

    L1: v1 = getfield o, f; <pure f1>; ok1 = cas o, f, v1, nv1
        condbr ok1, L2, L1
    L2: v2 = getfield o, f; <pure f2>; ok2 = cas o, f, v2, nv2
        condbr ok2, cont, L2

become one loop whose update is the composition: the intermediate value is
never observable in a schedule where no other thread runs between the two
CAS instructions, so installing f2(f1(v)) directly is indistinguishable.
Both update computations must be referentially transparent (no heap access,
no allocation, no concurrency operations, calls only to pure functions).
The second loop reads no name the first defines: the fused loop computes
the second update before the CAS that defines ok1, and reads v1 again on
every retry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cfg import predecessors
from ..ir import Block, CondBr, Function, Instr, Program
from . import PassOptions, PassReport
from .purity import is_pure, pure_functions
from .util import rewrite_functions, splice


@dataclass
class _RetryLoop:
    obj: str
    field: str
    read_dest: str  # v
    segment: tuple[Instr, ...]
    cas: Instr  # ok = cas obj, field, v, nv
    success_target: str
    success_args: tuple[str, ...]


def _match_retry_loop(b: Block, pure_fns: frozenset[str]) -> _RetryLoop | str:
    """The retry loop `b`, or why not; "shape" when `b` is no CAS retry loop."""
    t = b.term
    if (len(b.instrs) < 2 or b.instrs[0].op != "getfield" or b.instrs[-1].op != "cas"
            or not isinstance(t, CondBr) or t.cond != b.instrs[-1].dest
            or t.else_target != b.name or t.then_target == b.name):
        return "shape"
    read, cas = b.instrs[0], b.instrs[-1]
    if b.params or t.else_args:
        return "loop carries values"
    if cas.args[0] != read.args[0] or cas.field != read.field:
        return "read and cas disagree on the location"
    if cas.args[1] != read.dest:
        return "cas expectation is not the loop read"
    segment = b.instrs[1:-1]
    if not all(is_pure(i, pure_fns) for i in segment):
        return "impure update"
    return _RetryLoop(read.args[0], read.field, read.dest, segment, cas,
                      t.then_target, t.then_args)


def _fuse_in_fn(f: Function, pure_fns: frozenset[str], report: PassReport) -> Function | None:
    preds = predecessors(f)
    bmap = f.block_map()
    for b in f.blocks:
        first = _match_retry_loop(b, pure_fns)
        if first == "shape":
            continue
        nxt = bmap.get(b.term.then_target)
        second = "shape" if nxt is None else _match_retry_loop(nxt, pure_fns)
        if second == "shape":  # not a pair of retry loops
            continue
        where = f"{f.name}/{b.name}+{nxt.name}"
        if any(w == f"{f.name}/{nxt.name}+{b.name}" for w, _ in report.skips):
            continue  # the same two loops, already reported in the other order
        if isinstance(first, str) or isinstance(second, str):
            report.skip(where, first if isinstance(first, str) else second)
            continue
        if (second.obj, second.field) != (first.obj, first.field):
            report.skip(where, "retry loops target different locations")
            continue
        if sorted(preds[nxt.name]) != sorted({b.name, nxt.name}):
            report.skip(where, "second loop has other entries")
            continue
        if first.success_args or second.success_target in (b.name, nxt.name):
            report.skip(where, "irregular control flow between loops")
            continue
        defined = b.defined_names()
        if any(not defined.isdisjoint(i.uses()) for i in (*nxt.instrs, nxt.term)):
            report.skip(where, "second loop reads a first-loop value")
            continue

        # fused update: second segment consumes the first segment's result
        nv1 = first.cas.args[2]
        nv2 = second.cas.args[2]
        rename = {second.read_dest: nv1}
        fused_segment = first.segment + tuple(i.rename(rename) for i in second.segment)
        fused_cas = replace(first.cas, args=(first.obj, first.read_dest,
                                             rename.get(nv2, nv2)))
        fused = Block(
            b.name, (),
            (b.instrs[0],) + fused_segment + (fused_cas,),
            CondBr(first.cas.dest, second.success_target,
                   tuple(rename.get(a, a) for a in second.success_args),
                   b.name, ()),
        )
        # the second loop's names live on: its read maps to the first update's
        # result and its cas flag to the fused flag
        global_rename = {second.read_dest: nv1, second.cas.dest: first.cas.dest}
        renamed = Function(f.name, f.params, tuple(
            Block(blk.name, blk.params, tuple(i.rename(global_rename) for i in blk.instrs),
                  blk.term.rename(global_rename))
            for blk in f.blocks))
        report.note(f.name, f"fused retry loops {b.name} and {nxt.name} on .{first.field}")
        report.rewrites += 1
        return splice(renamed, {b.name: (fused,), nxt.name: ()})
    return None


def atomic_coalesce(p: Program, options: PassOptions, report: PassReport) -> Program:
    pure_fns = pure_functions(p)
    return rewrite_functions(p, lambda f: _fuse_in_fn(f, pure_fns, report))
