"""Dominance-based duplication: copy merge-block code into predecessors
when a check in the merge is already decided by a dominating branch.

For each merge block, every predecessor collects the branch facts that hold
on its incoming path (boolean names known true/false, and instanceof tests
it is dominated by). The merge is duplicated into the predecessors only if
at least one check dies in at least one copy (the benefit gate): a decided
instanceof becomes a boolean constant and a decided conditional branch
becomes a direct jump. Copies where nothing is known keep the check. A
merge whose params or results are used in a later block is skipped: the
copies rename them, and threading them on as block params is not done.
"""

from __future__ import annotations

from .. import ir
from ..cfg import def_index, dominates, dominators, predecessors, reachable_rpo
from ..ir import Block, Br, CondBr, Function, NameGen, Program
from . import PassOptions, PassReport
from .util import copy_instrs, rewrite_functions

_MAX_ROUNDS = 20


def _edge_facts(f: Function, idom, preds, defs, pred: str
                ) -> tuple[dict[str, bool], dict[tuple, bool]]:
    """Facts holding at `pred`: boolean names and (operand, class) instanceof keys.

    A branch fact is only sound when every arrival at `pred` comes through
    the branch edge itself: the taken target must dominate `pred` AND have
    the branching block as its unique predecessor (edge dominance), else a
    side entry into the target could reach `pred` after the other arm ran
    last.
    """
    name_facts: dict[str, bool] = {}
    inst_facts: dict[tuple, bool] = {}
    bmap = f.block_map()
    cur = pred
    while cur is not None:
        b = bmap[cur]
        t = b.term
        if isinstance(t, CondBr) and t.then_target != t.else_target:
            for target, val in ((t.then_target, True), (t.else_target, False)):
                if preds[target] == (cur,) and dominates(idom, target, pred):
                    name_facts.setdefault(t.cond, val)
                    d = defs.get(t.cond)
                    if d is not None and d.op == "instanceof":
                        inst_facts.setdefault((d.args[0], d.cls), val)
        cur = idom.get(cur)
    return name_facts, inst_facts


def _fold_count(block: Block, subst: dict[str, str],
                name_facts: dict[str, bool], inst_facts: dict[tuple, bool]) -> int:
    """How many checks would die if `block` were duplicated under these facts."""
    known = dict(name_facts)
    count = 0
    for i in block.instrs:
        if i.op == "instanceof":
            operand = subst.get(i.args[0], i.args[0])
            if (operand, i.cls) in inst_facts:
                known[i.dest] = inst_facts[(operand, i.cls)]
                count += 1
    t = block.term
    if isinstance(t, CondBr):
        cond = subst.get(t.cond, t.cond)
        if cond in known or t.cond in known:
            count += 1
    return count


def _duplicate(f: Function, merge: Block, pred_name: str, subst: dict[str, str],
               name_facts, inst_facts, gen: NameGen) -> Block:
    bmap = f.block_map()
    pred = bmap[pred_name]
    rename = dict(subst)
    known = dict(name_facts)
    instrs = list(pred.instrs)
    for i in copy_instrs(merge.instrs, rename, gen):
        if i.op == "instanceof" and (i.args[0], i.cls) in inst_facts:
            known[i.dest] = inst_facts[(i.args[0], i.cls)]
            i = ir.const(i.dest, known[i.dest])
        instrs.append(i)
    term = merge.term.rename(rename)
    if isinstance(term, CondBr) and term.cond in known:
        term = (
            Br(term.then_target, term.then_args)
            if known[term.cond]
            else Br(term.else_target, term.else_args)
        )
    return Block(pred.name, pred.params, tuple(instrs), term)


def _prune_unreachable(f: Function) -> Function:
    live = set(reachable_rpo(f))
    return Function(f.name, f.params, tuple(b for b in f.blocks if b.name in live))


def _used_elsewhere(f: Function, merge: Block) -> bool:
    """True iff a block other than `merge` uses one of its params or results.

    The copies in the predecessors define them under fresh names, so such a
    use would be left dangling once `merge` is pruned.
    """
    defined = {*merge.params, *(i.dest for i in merge.instrs if i.dest is not None)}
    return any(not defined.isdisjoint(i.uses())
               for b in f.blocks if b is not merge for i in (*b.instrs, b.term))


def _dup_once(f: Function, report: PassReport) -> Function | None:
    idom, _ = dominators(f)
    preds = predecessors(f)
    defs = def_index(f)
    bmap = f.block_map()
    for name in reachable_rpo(f):
        merge = bmap[name]
        ps = preds[name]
        if len(ps) < 2 or name == f.entry.name:
            continue
        if any(dominates(idom, name, q) for q in ps):
            continue  # loop header: duplicating would rewrite the backedge
        if not all(isinstance(bmap[q].term, Br) for q in ps):
            continue
        facts = {}
        total = 0
        for q in ps:
            nf, inf = _edge_facts(f, idom, preds, defs, q)
            subst = dict(zip(merge.params, bmap[q].term.args))
            facts[q] = (nf, inf, subst)
            total += _fold_count(merge, subst, nf, inf)
        if total == 0:
            continue
        if _used_elsewhere(f, merge):
            report.skip(f"{f.name}/{name}", "merge defines values used after it")
            continue
        gen = NameGen.for_function(f)
        new_blocks = []
        for b in f.blocks:
            if b.name in ps:
                nf, inf, subst = facts[b.name]
                new_blocks.append(_duplicate(f, merge, b.name, subst, nf, inf, gen))
            else:
                new_blocks.append(b)
        nf2 = _prune_unreachable(Function(f.name, f.params, tuple(new_blocks)))
        report.note(f.name, f"duplicated merge {name} into {len(ps)} predecessor(s), "
                            f"eliminated {total} check(s)")
        report.rewrites += total
        return nf2
    return None


def dup_simulate(p: Program, options: PassOptions, report: PassReport) -> Program:
    return rewrite_functions(p, lambda f: _dup_once(f, report), rounds=_MAX_ROUNDS)
