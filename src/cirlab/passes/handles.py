"""Method-handle simplification: constant handles become direct calls,
then small direct callees are inlined bottom-up.

A callhandle whose handle operand traces back to a handleconst (directly or
through block arguments that agree on every path) is rewritten to a direct
call of the target. Direct calls are then inlined callee-first, subject to
a size budget and a no-recursion rule, which is what lets later passes see
through the lambda plumbing.
"""

from __future__ import annotations

from dataclasses import replace

from ..cfg import call_reach, flow_params
from ..ir import Block, Br, Function, Instr, NameGen, Program, Ret
from . import PassOptions, PassReport
from .util import copy_instrs, remove_dead_pure, splice


def _known_handles(f: Function) -> dict[str, str]:
    """Value name -> function, for names that are handle constants on all paths."""
    consts = {i.dest: i.fn for b in f.blocks for i in b.instrs if i.op == "handleconst"}
    return flow_params(f, consts, [q for b in f.blocks for q in b.params])


def _devirtualize(f: Function, fn_names: set[str], report: PassReport) -> Function:
    known = _known_handles(f)
    blocks = []
    count = 0
    for b in f.blocks:
        instrs = []
        for i in b.instrs:
            if i.op == "callhandle" and known.get(i.args[0]) in fn_names:
                instrs.append(Instr("call", dest=i.dest, fn=known[i.args[0]], args=i.args[1:]))
                count += 1
            else:
                instrs.append(i)
        blocks.append(Block(b.name, b.params, tuple(instrs), b.term))
    if count:
        report.note(f.name, f"devirtualized {count} handle callsite(s)")
        report.rewrites += count
    return Function(f.name, f.params, tuple(blocks)) if count else f


def _inline_site(f: Function, callee: Function, bname: str, idx: int) -> Function:
    gen = NameGen.for_function(f)
    bmap = f.block_map()
    b = bmap[bname]
    site = b.instrs[idx]
    # every callee value is renamed up front: blocks may use values defined in
    # blocks listed after them
    rename = dict(zip(callee.params, site.args))
    for cb in callee.blocks:
        for name in cb.params + tuple(i.dest for i in cb.instrs if i.dest is not None):
            rename[name] = gen.fresh(name)
    bnames = {cb.name: gen.fresh(f"{callee.name}_{cb.name}") for cb in callee.blocks}
    cont = gen.fresh(f"{bname}_ret")

    inlined: list[Block] = []
    for cb in callee.blocks:
        instrs = copy_instrs(cb.instrs, rename, gen)
        term = cb.term.rename(rename).retarget(bnames)
        if isinstance(term, Ret):  # returns continue after the call site
            term = Br(cont, term.uses() if site.dest is not None else ())
        inlined.append(Block(bnames[cb.name], tuple(rename[q] for q in cb.params), instrs, term))

    head = Block(b.name, b.params, b.instrs[:idx], Br(bnames[callee.entry.name], ()))
    cont_params = (site.dest,) if site.dest is not None else ()
    cont_blk = Block(cont, cont_params, b.instrs[idx + 1:], b.term)

    return splice(f, {bname: (head, *inlined, cont_blk)})


def _inline_all(p: Program, budget: int, report: PassReport) -> Program:
    reach = call_reach(p)
    fns = {f.name: f for f in p.functions}
    # callee first: a callee that is not recursive reaches strictly fewer
    # functions than any caller, which reaches it and all it reaches
    for name in sorted(fns, key=lambda n: len(reach[n])):
        f = fns[name]
        inlined_here = 0
        while True:
            site = None
            for b in f.blocks:
                for idx, i in enumerate(b.instrs):
                    if i.op != "call" or i.fn in reach[i.fn]:  # recursive
                        continue
                    callee = fns[i.fn]
                    if callee.instr_count() > budget:
                        continue
                    if i.dest is not None and any(
                        isinstance(cb.term, Ret) and cb.term.value is None
                        for cb in callee.blocks
                    ):
                        continue  # callee may return no value
                    site = (b.name, idx, callee)
                    break
                if site:
                    break
            if site is None:
                break
            f = _inline_site(f, site[2], site[0], site[1])
            inlined_here += 1
        if inlined_here:
            f = remove_dead_pure(f)
            fns[name] = f
            report.note(name, f"inlined {inlined_here} callsite(s)")
            report.rewrites += inlined_here
    return replace(p, functions=tuple(fns[f.name] for f in p.functions))


def handle_simplify(p: Program, options: PassOptions, report: PassReport) -> Program:
    fn_names = {f.name for f in p.functions}
    devirted = tuple(_devirtualize(f, fn_names, report) for f in p.functions)
    new_p = _inline_all(replace(p, functions=devirted), options.inline_budget, report)
    if not report.rewrites:
        return p  # which `run_pass` would return anyway
    # handle constants left dangling by the rewrite disappear with their uses,
    # and every function loses its dead pure instructions; `_inline_all`
    # already cleaned each function it inlined into
    return replace(new_p, functions=tuple(
        remove_dead_pure(f) if f is d else f for f, d in zip(new_p.functions, devirted)))
