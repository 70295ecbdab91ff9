"""Conservative syntactic purity and blocking-freedom for functions.

A pure function computes only over its arguments: constants, arithmetic,
comparisons, instanceof, and calls to functions already proved pure. Any
heap access, allocation, concurrency primitive, output, guard, or virtual /
handle call makes it impure. A function passes when neither it nor any
function a chain of its calls reaches (the Program-level `cfg.call_reach`)
holds an instruction that fails with every defined function taken as
passing: the greatest fixpoint over the call graph, so mutually recursive
pure helpers are accepted.

`is_pure` and `blocker` judge one instruction; the passes that move or
merge code use them directly.
"""

from __future__ import annotations

from ..cfg import call_reach
from ..ir import Instr, Program


def is_pure(i: Instr, pure_fns) -> bool:
    """A constant, arithmetic, instanceof, or a call of a function in `pure_fns`."""
    if i.op == "call":
        return i.fn in pure_fns
    return i.op in ("const", "binop", "instanceof")


def blocker(i: Instr, blocking_free) -> str | None:
    """Why `i` may block or synchronize, or None; calls of `blocking_free` are safe."""
    if i.op in ("wait", "notify", "notifyall", "park", "unpark"):
        return "blocking op in region"
    if i.op in ("monitorenter", "monitorexit"):
        return "nested monitor op in region"
    if i.op == "call" and i.fn not in blocking_free:
        return "call may block"
    if i.op in ("callvirtual", "callhandle"):
        return "dynamic call may block"
    return None


def _fix(p: Program, ok_instr) -> frozenset[str]:
    """The largest set of functions whose instructions all pass `ok_instr(i, set)`."""
    names = frozenset(f.name for f in p.functions)
    bad = {f.name for f in p.functions
           if not all(ok_instr(i, names) for b in f.blocks for i in b.instrs)}
    if not bad:
        return names
    reach = call_reach(p)
    return frozenset(n for n in names if n not in bad and bad.isdisjoint(reach[n]))


def pure_functions(p: Program) -> frozenset[str]:
    return _fix(p, is_pure)


def blocking_free_functions(p: Program) -> frozenset[str]:
    """Functions that can never touch a monitor, wait, notify, or park."""
    return _fix(p, lambda i, ok: blocker(i, ok) is None)
