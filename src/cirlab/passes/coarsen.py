"""Loop-wide lock coarsening: tile the iteration space into C-sized chunks.

A loop of the shape

    header:  <condition>; condbr c, body, exit
    body:    monitorenter m; ...region...; monitorexit m; <tail>; br header

is rewritten so the monitor is acquired once per chunk: an outer loop keeps
the original condition, an inner loop runs up to C iterations of the body
(plus the condition between them) while holding the lock, and a release
block gives the monitor up between chunks. A C-sized chunk executes the
monitor pair once, so an N-iteration loop performs ceil(N/C) acquisitions.

The modulo check on the chunk counter is replaced by a down-counter, which
is observationally identical and cheaper.

Legality: the monitor object is loop-invariant and neither the condition
nor the region may block (no other monitor operations, no wait/notify/park,
calls only to functions proved free of them). The body reads no name the
header defines: the inner loop runs a renamed copy of the header, so such a
read would see the chunk's first trip.
"""

from __future__ import annotations

from .. import ir
from ..cfg import while_loops
from ..ir import Block, Br, CondBr, Function, NameGen, Program
from . import PassOptions, PassReport
from .purity import blocker, blocking_free_functions
from .util import copy_instrs, rewrite_functions, splice


def _first_blocker(instrs, blocking_free: frozenset[str]) -> str | None:
    return next(filter(None, (blocker(i, blocking_free) for i in instrs)), None)


def _coarsen_fn(f: Function, chunk: int, report: PassReport,
                blocking_free: frozenset[str]) -> Function | None:
    for wl in while_loops(f):
        where = f"{f.name}/{wl.header.name}"
        if not wl.two_block:
            continue
        body = f.block_map()[wl.body_target]
        if not body.instrs or body.instrs[0].op != "monitorenter":
            continue
        monitor = body.instrs[0].args[0]
        exits = [k for k, i in enumerate(body.instrs) if i.op == "monitorexit"]
        if len(exits) != 1 or body.instrs[exits[0]].args[0] != monitor:
            report.skip(where, "unbalanced monitor region")
            continue
        region = body.instrs[1:exits[0]]
        tail = body.instrs[exits[0] + 1:]
        reason = _first_blocker(region + tail, blocking_free)
        if reason is None:
            reason = _first_blocker(wl.header.instrs, blocking_free) and "condition may block"
        if reason is not None:
            report.skip(where, reason)
            continue
        if monitor in wl.loop_defs:
            report.skip(where, "monitor object is not loop-invariant")
            continue
        defined = wl.header.defined_names()
        if any(not defined.isdisjoint(i.uses()) for i in (*region, *tail, body.term)):
            report.skip(where, "body reads a header value")
            continue
        if not isinstance(body.term, Br):  # the inner loop has no edge for a second exit
            report.skip(where, "body has a second exit")
            continue

        gen = NameGen.for_function(f)
        header = wl.header
        acq = gen.fresh(f"{body.name}_acquire")
        inner = gen.fresh(f"{body.name}_locked")
        icond = gen.fresh(f"{header.name}_locked")
        rel = gen.fresh(f"{body.name}_release")

        acq_params = tuple(gen.fresh(f"{q}_a") for q in body.params)
        kc = gen.fresh("chunk_left")
        k_param = gen.fresh("chunk_k")
        kone = gen.fresh("chunk_one")
        kdec = gen.fresh("chunk_dec")
        kzero = gen.fresh("chunk_zero")
        kdone = gen.fresh("chunk_done")
        ic_params = tuple(gen.fresh(f"{q}_c") for q in header.params)
        ic_k = gen.fresh("chunk_kc")
        rel_params = tuple(gen.fresh(f"{q}_r") for q in header.params)

        # values the body passes back to the header (the next loop state)
        back_args = body.term.args

        new_header = Block(
            header.name, header.params, header.instrs,
            CondBr(wl.cond, acq, wl.body_args, wl.exit_target, wl.exit_args),
        )
        acq_blk = Block(
            acq, acq_params,
            (ir.monitor("monitorenter", monitor), ir.const(kc, chunk)),
            Br(inner, acq_params + (kc,)),
        )
        inner_blk = Block(
            inner, body.params + (k_param,),
            region + tail + (
                ir.const(kone, 1),
                ir.binop(kdec, "sub", k_param, kone),
                ir.const(kzero, 0),
                ir.binop(kdone, "eq", kdec, kzero),
            ),
            CondBr(kdone, rel, back_args, icond, back_args + (kdec,)),
        )
        ic_rename = dict(zip(header.params, ic_params))
        ic_instrs = copy_instrs(header.instrs, ic_rename, gen, "_c")
        ic_body_args = tuple(ic_rename.get(a, a) for a in wl.body_args)
        icond_blk = Block(
            icond, ic_params + (ic_k,), ic_instrs,
            CondBr(ic_rename.get(wl.cond, wl.cond), inner, ic_body_args + (ic_k,), rel, ic_params),
        )
        rel_blk = Block(
            rel, rel_params,
            (ir.monitor("monitorexit", monitor),),
            Br(header.name, rel_params),
        )
        report.note(f.name, f"coarsened loop at {header.name} with chunk {chunk}")
        report.rewrites += 1
        return splice(f, {header.name: (new_header,),
                          body.name: (acq_blk, inner_blk, icond_blk, rel_blk)})
    return None


def lock_coarsen(p: Program, options: PassOptions, report: PassReport) -> Program:
    chunk = options.chunk
    if chunk < 1:
        raise ValueError("chunk size must be >= 1")
    blocking_free = blocking_free_functions(p)
    return rewrite_functions(p, lambda f: _coarsen_fn(f, chunk, report, blocking_free))
