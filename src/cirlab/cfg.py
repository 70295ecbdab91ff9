"""Control-flow analyses: dominators, natural loops, a while-loop matcher,
block-parameter flow, and the Program-level call graph.

The dominator computation is the classic iterative scheme over a reverse
postorder; unreachable blocks are excluded from the result and reported
alongside it.

`closure` gives what chains of edges reach; the Program-level `call_reach`
is its closure over direct calls. `flow_params` carries name facts into
block parameters. `call_reach` and the per-function analyses but
`liveness` are memoized (`ir.memo`): each is computed once per `Function` or
`Program` object, and every caller shares the result, so none may mutate it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .ir import Block, CondBr, Function, Instr, Program, memo, values_equal


def closure(edges: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    """Node -> the nodes it reaches along one or more edges.

    A node reaches itself only on a cycle. Every node that is a key or a
    target of `edges` gets an entry; one with no edges reaches nothing.
    """
    out = {}
    for n in set(edges).union(*edges.values()):
        seen: set[str] = set()
        stack = list(edges.get(n, ()))
        while stack:
            m = stack.pop()
            if m not in seen:
                seen.add(m)
                stack.extend(edges.get(m, ()))
        out[n] = frozenset(seen)
    return out


@memo
def call_reach(p: Program) -> dict[str, frozenset[str]]:
    """Function name -> the functions a chain of direct `call`s from it reaches.

    A function is recursive iff it reaches itself. Callees the program does
    not define are entries too, reaching nothing.
    """
    return closure({f.name: [i.fn for b in f.blocks for i in b.instrs if i.op == "call"]
                    for f in p.functions})


@memo
def predecessors(f: Function) -> dict[str, tuple[str, ...]]:
    preds: dict[str, list[str]] = {b.name: [] for b in f.blocks}
    for b in f.blocks:
        for t in b.term.targets():
            if t in preds:
                preds[t].append(b.name)
    return {name: tuple(ps) for name, ps in preds.items()}


@memo
def def_index(f: Function) -> dict[str, Instr]:
    """Value name -> the instruction defining it."""
    out: dict[str, Instr] = {}
    for b in f.blocks:
        for i in b.instrs:
            if i.dest is not None:
                out[i.dest] = i
    return out


def liveness(f: Function) -> dict[str, tuple[frozenset[str], ...]]:
    """Block name -> the names live before each instruction index.

    Entry `len(instrs)` is the terminator's. A block's live-out is its
    successors' live-in minus their params, plus the edge arguments. Not
    memoized: its one reader, `interp._live_names`, memoizes the shape it
    keys by, so a `Function` keeps one copy of its liveness, not two.
    """
    bmap = f.block_map()
    live_in: dict[str, frozenset[str]] = {b.name: frozenset() for b in f.blocks}
    out: dict[str, tuple[frozenset[str], ...]] = {}
    changed = True
    while changed:
        changed = False
        for b in reversed(f.blocks):
            live = set(b.term.uses())
            for t in b.term.targets():
                if t in bmap:
                    live |= live_in[t].difference(bmap[t].params)
            points = [frozenset(live)]
            for i in reversed(b.instrs):
                live.discard(i.dest)
                live.update(i.uses())
                points.append(frozenset(live))
            points.reverse()
            out[b.name] = tuple(points)
            if points[0] != live_in[b.name]:
                live_in[b.name] = points[0]
                changed = True
    return out


@memo
def reachable_rpo(f: Function) -> tuple[str, ...]:
    """Blocks reachable from the entry, in reverse postorder.

    Branch targets missing from the function are skipped, so unresolved
    programs can be walked too.
    """
    bmap = f.block_map()
    seen: set[str] = set()
    order: list[str] = []
    stack: list[tuple[str, bool]] = [(f.entry.name, False)]
    while stack:
        name, expanded = stack.pop()
        if expanded:
            order.append(name)
            continue
        if name in seen or name not in bmap:
            continue
        seen.add(name)
        stack.append((name, True))
        for t in reversed(bmap[name].term.targets()):
            if t not in seen:
                stack.append((t, False))
    order.reverse()
    return tuple(order)


@memo
def dominators(f: Function) -> tuple[dict[str, str | None], tuple[str, ...]]:
    """(immediate-dominator map, unreachable block names).

    The entry block maps to None; unreachable blocks are absent from the map.
    """
    order = reachable_rpo(f)
    index = {name: i for i, name in enumerate(order)}
    unreachable = tuple(b.name for b in f.blocks if b.name not in index)
    preds = predecessors(f)
    idom: dict[str, str | None] = {order[0]: None}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for name in order[1:]:
            new_idom = None
            for p in preds[name]:
                if p in idom:
                    new_idom = p if new_idom is None else intersect(p, new_idom)
            if new_idom is not None and idom.get(name) != new_idom:
                idom[name] = new_idom
                changed = True
    idom[order[0]] = None
    return idom, unreachable


def dominates(idom: dict[str, str | None], a: str, b: str) -> bool:
    """True iff block `a` dominates block `b` (reflexive)."""
    cur: str | None = b
    while cur is not None:
        if cur == a:
            return True
        cur = idom.get(cur)
    return False


@dataclass(frozen=True)
class Loop:
    header: str
    latches: tuple[str, ...]  # in-loop blocks with an edge back to the header
    blocks: frozenset[str]


@memo
def natural_loops(f: Function) -> tuple[Loop, ...]:
    idom, _ = dominators(f)
    preds = predecessors(f)
    by_header: dict[str, set[str]] = {}
    latches: dict[str, set[str]] = {}
    for b in f.blocks:
        if b.name not in idom:
            continue
        for t in b.term.targets():
            if t in idom and dominates(idom, t, b.name):
                body = {t}
                stack = [b.name]
                while stack:
                    n = stack.pop()
                    if n in body:
                        continue
                    body.add(n)
                    stack.extend(q for q in preds[n] if q in idom)
                by_header.setdefault(t, set()).update(body)
                latches.setdefault(t, set()).add(b.name)
    return tuple(
        Loop(h, tuple(sorted(latches[h])), frozenset(body))
        for h, body in sorted(by_header.items())
    )


@dataclass(frozen=True)
class WhileLoop:
    """A loop in canonical while shape.

    The header evaluates straight-line instructions ending in a condbr whose
    then-edge stays in the loop and whose else-edge leaves it; one latch
    branches back to the header.
    """

    loop: Loop
    header: Block
    cond: str
    body_target: str
    body_args: tuple[str, ...]
    exit_target: str
    exit_args: tuple[str, ...]
    latch: str
    loop_defs: frozenset[str]  # values defined inside the loop
    two_block: bool  # the body is one block, entered only from the header, that is the latch


@memo
def while_loops(f: Function) -> tuple[WhileLoop, ...]:
    """The natural loops of `f` that have the canonical while shape."""
    return tuple(filter(None, (match_while_loop(f, loop) for loop in natural_loops(f))))


def match_while_loop(f: Function, loop: Loop) -> WhileLoop | None:
    bmap = f.block_map()
    header = bmap[loop.header]
    if not isinstance(header.term, CondBr):
        return None
    t = header.term
    if t.then_target in loop.blocks and t.else_target not in loop.blocks:
        body_target, body_args = t.then_target, t.then_args
        exit_target, exit_args = t.else_target, t.else_args
    else:
        return None
    if len(loop.latches) != 1:
        return None
    preds = predecessors(f)
    loop_defs = frozenset().union(*(bmap[n].defined_names() for n in loop.blocks))
    two_block = (
        loop.blocks == {loop.header, body_target} and loop.latches[0] == body_target
        and preds[body_target] == (loop.header,)
    )
    return WhileLoop(
        loop, header, t.cond, body_target, body_args, exit_target, exit_args,
        loop.latches[0], loop_defs, two_block,
    )


@memo
def param_args(f: Function) -> dict[str, frozenset[str]]:
    """Block parameter -> the argument names its incoming edges pass.

    Parameters of blocks that no edge enters are absent.
    """
    bmap = f.block_map()
    flows: dict[str, set[str]] = {}
    for b in f.blocks:
        for target, args in b.term.edges():
            if target in bmap:
                for param, a in zip(bmap[target].params, args):
                    flows.setdefault(param, set()).add(a)
    return {param: frozenset(args) for param, args in flows.items()}


def flow_params(f: Function, known: Mapping[str, object],
                params: Iterable[str]) -> dict[str, object]:
    """`known` (name -> fact), extended to a fixpoint to each of `params`
    whose incoming arguments all carry one known fact.

    A parameter no edge enters gets no fact, nor does one whose arguments
    wait on it around a cycle (a least fixpoint).
    """
    flows = param_args(f)
    out = dict(known)
    todo = [q for q in params if q in flows]
    changed = True
    while changed:
        changed = False
        for q in todo:
            args = flows[q]
            if q not in out and out.keys() >= args and len(facts := {out[a] for a in args}) == 1:
                out[q], = facts
                changed = True
    return out


def iv_aliases(f: Function, loop_blocks: frozenset[str], header: str, iv_param: str) -> set[str]:
    """Block params inside the loop that always carry the current IV value.

    Edges into the header cross the iteration boundary, so header params are
    never derived; everything else in the loop runs once per iteration.
    """
    bmap = f.block_map()
    copies = [q for n in loop_blocks - {header} for q in bmap[n].params]
    return set(flow_params(f, {iv_param: True}, copies))


@dataclass(frozen=True)
class InductionVar:
    """Header parameter stepped by +1 through the latch, bounded by the header cond."""

    param: str
    limit: str  # loop-invariant bound value
    cmp: str  # "lt" or "le": loop runs while param <cmp> limit
    aliases: frozenset[str]  # in-loop copies of the current IV value


def find_induction_var(f: Function, wl: WhileLoop) -> InductionVar | None:
    header = wl.header
    cond_def = next((i for i in header.instrs if i.dest == wl.cond), None)
    if cond_def is None or cond_def.op != "binop" or cond_def.kind not in ("lt", "le"):
        return None
    iv, limit = cond_def.args
    if iv not in header.params:
        return None
    if limit in wl.loop_defs:
        return None
    # the latch must feed the parameter back as <current value> + 1
    bmap = f.block_map()
    latch = bmap[wl.latch]
    if latch.term.targets() != (wl.header.name,):
        return None
    aliases = iv_aliases(f, wl.loop.blocks, wl.header.name, iv)
    pos = header.params.index(iv)
    back = latch.term.args[pos]  # type: ignore[union-attr]
    defs = def_index(f)
    inc = defs.get(back)
    if inc is None or inc.op != "binop" or inc.kind != "add":
        return None
    a, b = inc.args
    one = defs.get(b)
    if a not in aliases or one is None or one.op != "const" or not values_equal(one.value, 1):
        return None
    return InductionVar(iv, limit, cond_def.kind, frozenset(aliases))
