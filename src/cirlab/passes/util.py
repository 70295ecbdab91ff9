"""Shared rewrite helpers for the optimization passes."""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import replace
from itertools import count, islice

from ..ir import PURE_OPS, Block, Function, Instr, NameGen, Program


def use_counts(f: Function) -> Counter:
    uses: Counter = Counter()
    for b in f.blocks:
        for i in b.instrs:
            uses.update(i.uses())
        uses.update(b.term.uses())
    return uses


def copy_instrs(instrs, rename: dict[str, str], gen: NameGen,
                suffix: str = "") -> tuple[Instr, ...]:
    """Copies of `instrs` with operands renamed through `rename`.

    Each result gets the fresh name `<dest><suffix>`, recorded in `rename`
    so later copies read it; a result already in `rename` keeps its entry.
    """
    out = []
    for i in instrs:
        copy = i.rename(rename)
        if i.dest is not None:
            if i.dest not in rename:
                rename[i.dest] = gen.fresh(i.dest + suffix)
            copy = replace(copy, dest=rename[i.dest])
        out.append(copy)
    return tuple(out)


def remove_dead_pure(f: Function) -> Function:
    """Delete side-effect-free instructions whose results are never used."""
    while True:
        uses = use_counts(f)
        blocks = []
        removed = 0
        for b in f.blocks:
            kept = tuple(
                i
                for i in b.instrs
                if not (i.op in PURE_OPS and i.dest is not None and uses[i.dest] == 0)
            )
            removed += len(b.instrs) - len(kept)
            blocks.append(Block(b.name, b.params, kept, b.term) if kept != b.instrs else b)
        if removed == 0:
            return f
        f = Function(f.name, f.params, tuple(blocks))


def static_op_count(p: Program, op: str) -> int:
    return sum(1 for f in p.functions for b in f.blocks for i in b.instrs if i.op == op)


def rewrite_functions(p: Program, step: Callable[[Function], Function | None],
                      rounds: int | None = None) -> Program:
    """Apply `step` to each function of `p` until it returns None.

    `step(f)` returns the function with one more site rewritten, or None
    when nothing is left; `rounds` bounds how often it is applied to one
    function. A function that changed loses its dead pure instructions.
    """
    fns = []
    for f in p.functions:
        new = f
        for _ in islice(count(), rounds):
            stepped = step(new)
            if stepped is None:
                break
            new = stepped
        fns.append(f if new is f else remove_dead_pure(new))
    return replace(p, functions=tuple(fns))


def splice(f: Function, blocks: dict[str, tuple[Block, ...]]) -> Function:
    """`f` with each block named in `blocks` replaced by the blocks it maps to."""
    return Function(f.name, f.params,
                    tuple(nb for b in f.blocks for nb in blocks.get(b.name, (b,))))
