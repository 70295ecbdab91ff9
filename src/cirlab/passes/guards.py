"""Speculative guard motion: hoist guards out of loops.

Two shapes are hoisted, both landing in a guard block that runs once before
the loop:

* loop-invariant conditions (the condition, or a short pure chain computing
  it from invariants) move verbatim;
* inequalities over the loop's induction variable are rewritten to endpoint
  form: with i running upward by 1, ``guard(i < X)`` holds on every
  iteration iff it holds at the last value, so a single ``guard(last < X)``
  replaces N dynamic checks (and symmetrically against the initial value
  for lower bounds).

The guard block is only entered when the loop itself will run: the
preheader evaluates the loop condition on the initial values and bypasses
the guards otherwise, so an empty loop cannot deoptimize. A hoisted guard
implies every in-loop check it replaced; the transformed program may
deoptimize more often (the guarded branch may never have been taken), never
less.
"""

from __future__ import annotations

from .. import ir
from ..cfg import def_index, find_induction_var, while_loops
from ..ir import Block, Br, CondBr, Function, Instr, NameGen, Program
from . import PassOptions, PassReport
from .purity import is_pure
from .util import copy_instrs, rewrite_functions

_HEADER_OK = frozenset({"const", "classref", "binop", "instanceof", "getfield", "arrayload"})
_MAX_CHAIN = 8


def _invariant_chain(name: str, loop_defs: frozenset[str],
                     defs: dict[str, Instr]) -> list[Instr] | None:
    """Instrs (in emit order) recomputing `name` from loop-invariant values."""
    if name not in loop_defs:
        return []
    i = defs.get(name)
    # a chain holds no calls, not even pure ones
    if i is None or not is_pure(i, ()) or (i.op == "binop" and i.kind in ("div", "mod")):
        return None
    chain: list[Instr] = []
    for a in i.args:
        sub = _invariant_chain(a, loop_defs, defs)
        if sub is None:
            return None
        chain.extend(x for x in sub if x not in chain)
    chain.append(i)
    return chain if len(chain) <= _MAX_CHAIN else None


def _endpoint_form(cond: Instr, iv_aliases: frozenset[str], loop_defs: frozenset[str]):
    """(kind, lhs_is_iv, other) for a hoistable induction inequality."""
    if cond.op != "binop" or cond.kind not in ("lt", "le"):
        return None
    a, b = cond.args
    if a in iv_aliases and b not in loop_defs:
        return (cond.kind, True, b)  # iv < X: hardest at the last value
    if b in iv_aliases and a not in loop_defs:
        return (cond.kind, False, a)  # X < iv: hardest at the initial value
    return None


def _hoist_one(f: Function, report: PassReport) -> Function | None:
    defs = def_index(f)
    bmap = f.block_map()
    for wl in while_loops(f):
        loop, loop_defs = wl.loop, wl.loop_defs
        where = f"{f.name}/{loop.header}"
        if any(i.op not in _HEADER_OK for i in wl.header.instrs):
            report.skip(where, "loop condition has side effects")
            continue
        iv = find_induction_var(f, wl)
        aliases = iv.aliases if iv is not None else frozenset()

        plans = []  # (block, idx, kind, payload)
        for bn in sorted(loop.blocks):
            for idx, i in enumerate(bmap[bn].instrs):
                if i.op != "guard":
                    continue
                chain = _invariant_chain(i.args[0], loop_defs, defs)
                if chain is not None:
                    plans.append((bn, idx, "invariant", (chain, i)))
                    continue
                cond_def = defs.get(i.args[0])
                form = _endpoint_form(cond_def, aliases, loop_defs) if (
                    cond_def is not None and iv is not None) else None
                if form is not None:
                    plans.append((bn, idx, "induction", (form, i)))
                else:
                    report.skip(f"{where}@{bn}:{i.args[0]}",
                                "guard depends on loop-varying values")
        if not plans:
            continue

        gen = NameGen.for_function(f)
        header = wl.header
        pre = gen.fresh(f"{header.name}_pre")
        gblk = gen.fresh(f"{header.name}_guards")
        pre_params = tuple(gen.fresh(f"{q}_p") for q in header.params)
        g_params = tuple(gen.fresh(f"{q}_g") for q in header.params)

        pre_rename = dict(zip(header.params, pre_params))
        pre_instrs = copy_instrs(header.instrs, pre_rename, gen, "_p")
        pre_blk = Block(
            pre, pre_params, pre_instrs,
            CondBr(pre_rename.get(wl.cond, wl.cond), gblk, pre_params, header.name, pre_params),
        )

        g_instrs: list[Instr] = []
        iv_init = dict(zip(header.params, g_params)).get(iv.param) if iv else None
        for bn, idx, kind, payload in plans:
            if kind == "invariant":
                chain, g = payload
                rename: dict[str, str] = {}
                g_instrs.extend(copy_instrs(chain, rename, gen, "_h"))
                g_instrs.append(ir.guard(rename.get(g.args[0], g.args[0]), g.reason))
            else:
                (cmp_kind, lhs_is_iv, other), g = payload
                if lhs_is_iv:
                    if iv.cmp == "lt":
                        one = gen.fresh("hoist_one")
                        last = gen.fresh("hoist_last")
                        g_instrs.append(ir.const(one, 1))
                        g_instrs.append(ir.binop(last, "sub", iv.limit, one))
                    else:
                        last = iv.limit
                    cond_name = gen.fresh("hoist_cmp")
                    g_instrs.append(ir.binop(cond_name, cmp_kind, last, other))
                else:
                    cond_name = gen.fresh("hoist_cmp")
                    g_instrs.append(ir.binop(cond_name, cmp_kind, other, iv_init))
                g_instrs.append(ir.guard(cond_name, g.reason))
        g_blk = Block(gblk, g_params, tuple(g_instrs), Br(header.name, g_params))

        to_remove = {(bn, idx) for bn, idx, _, _ in plans}
        blocks = []
        for b in f.blocks:
            if b.name == header.name:
                blocks += (pre_blk, g_blk, b)
            elif b.name in loop.blocks:
                kept = tuple(i for idx, i in enumerate(b.instrs) if (b.name, idx) not in to_remove)
                blocks.append(Block(b.name, b.params, kept, b.term))
            else:  # entry edges now run through the preheader
                blocks.append(Block(b.name, b.params, b.instrs, b.term.retarget({header.name: pre})))
        report.note(f.name, f"hoisted {len(plans)} guard(s) out of loop at {loop.header}")
        report.rewrites += len(plans)
        return Function(f.name, f.params, tuple(blocks))
    return None


def guard_motion(p: Program, options: PassOptions, report: PassReport) -> Program:
    return rewrite_functions(p, lambda f: _hoist_one(f, report))
