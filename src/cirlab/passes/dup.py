"""Dominance-based duplication: copy merge-block code into predecessors
when a check in the merge is already decided by a dominating branch.

For each merge block, every predecessor collects the branch facts that hold
on its incoming path (boolean names known true/false, and instanceof tests
it is dominated by). The merge is duplicated into the predecessors only if
at least one check dies in at least one copy (the benefit gate): a decided
instanceof becomes a boolean constant and a decided conditional branch
becomes a direct jump. Each edge gets one fold plan (`_fold_plan`), which
the gate counts and the copy applies, so the gate counts exactly the checks
the copies fold. Copies where nothing is known keep the check. A
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


def _fold_plan(merge: Block, subst: dict[str, str], name_facts: dict[str, bool],
               inst_facts: dict[tuple, bool]) -> dict[str | CondBr, bool]:
    """The checks a copy of `merge` folds on an edge with these facts, each
    mapped to its value: the dest of each decided instanceof, and the merge's
    terminator when it is a condbr on a decided condition. `subst` maps the
    merge's params to the edge's args. The gate counts the plan, and
    `_duplicate` applies it."""
    plan: dict[str | CondBr, bool] = {}
    for i in merge.instrs:
        if i.op == "instanceof":
            key = (subst.get(i.args[0], i.args[0]), i.cls)
            if key in inst_facts:
                plan[i.dest] = inst_facts[key]
    t = merge.term
    if isinstance(t, CondBr):
        value = plan.get(t.cond, name_facts.get(subst.get(t.cond, t.cond)))
        if value is not None:
            plan[t] = value
    return plan


def _duplicate(pred: Block, merge: Block, subst: dict[str, str],
               plan: dict[str | CondBr, bool], gen: NameGen) -> Block:
    """`pred` running a copy of `merge` instead of its jump there, with the
    checks of `plan` folded: an instanceof to its constant, a condbr to the
    jump it takes."""
    rename = dict(subst)
    copies = copy_instrs(merge.instrs, rename, gen)
    instrs = [ir.const(c.dest, plan[i.dest]) if i.dest in plan else c
              for i, c in zip(merge.instrs, copies)]
    term = merge.term.rename(rename)
    if merge.term in plan:
        term = Br(*term.edges()[0 if plan[merge.term] else 1])
    return Block(pred.name, pred.params, (*pred.instrs, *instrs), term)


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
        plans = {}
        for q in ps:
            nf, inf = _edge_facts(f, idom, preds, defs, q)
            subst = dict(zip(merge.params, bmap[q].term.args))
            plans[q] = subst, _fold_plan(merge, subst, nf, inf)
        total = sum(len(plan) for _, plan in plans.values())
        if total == 0:
            continue
        if _used_elsewhere(f, merge):
            report.skip(f"{f.name}/{name}", "merge defines values used after it")
            continue
        gen = NameGen.for_function(f)
        new_blocks = [_duplicate(b, merge, *plans[b.name], gen) if b.name in plans else b
                      for b in f.blocks]
        nf2 = _prune_unreachable(Function(f.name, f.params, tuple(new_blocks)))
        report.note(f.name, f"duplicated merge {name} into {len(ps)} predecessor(s), "
                            f"eliminated {total} check(s)")
        report.rewrites += total
        return nf2
    return None


def dup_simulate(p: Program, options: PassOptions, report: PassReport) -> Program:
    return rewrite_functions(p, lambda f: _dup_once(f, report), rounds=_MAX_ROUNDS)
