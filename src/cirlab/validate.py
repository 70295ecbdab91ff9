"""Structural validation: name resolution plus the IR's shape invariants.

`validate` returns a list of diagnostics (empty means the program is well
formed). Resolution checks are split out because the parser also runs them.
A use is defined when its definition dominates it (`cfg.dominators`), the
SSA rule. A name defined more than once is reported as such, and its uses
are checked against the first definition met in reverse postorder only, so
they may be reported as uses before definition too. The diagnostics of a
`Program`, and the per-function dataflow checks, are computed once per
object (`ir.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import OPCODES, Br, CondBr, Function, Program, Ret, memo


@dataclass(frozen=True)
class Diagnostic:
    where: str  # "class A", "fn main", "fn main/b0", ...
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def _d(where: str, message: str) -> Diagnostic:
    return Diagnostic(where, message)


def resolution_diagnostics(p: Program) -> list[Diagnostic]:
    """Unresolved classes, functions, fields, methods, blocks, and thread entries."""
    out: list[Diagnostic] = []
    classes = {c.name for c in p.classes}
    functions = {f.name for f in p.functions}
    all_fields = {f for c in p.classes for f in c.fields}
    all_selectors = {sel for c in p.classes for sel, _ in c.methods}

    for c in p.classes:
        if c.superclass is not None and c.superclass not in classes:
            out.append(_d(f"class {c.name}", f"unknown superclass {c.superclass!r}"))
        for sel, fname in c.methods:
            if fname not in functions:
                out.append(_d(f"class {c.name}", f"method {sel!r} names unknown function {fname!r}"))

    for f in p.functions:
        blocks = {b.name for b in f.blocks}
        where = f"fn {f.name}"
        for b in f.blocks:
            for i in b.instrs:
                spec = OPCODES.get(i.op)
                if spec is None:
                    out.append(_d(where, f"unknown opcode {i.op!r}"))
                    continue
                slots = spec.slots
                if "cls" in slots and i.cls not in classes:
                    out.append(_d(where, f"unknown class {i.cls!r}"))
                if "field" in slots and i.field not in all_fields:
                    out.append(_d(where, f"field {i.field!r} is not declared by any class"))
                if "fn" in slots and i.fn not in functions:
                    out.append(_d(where, f"unknown function {i.fn!r}"))
                if "method" in slots and i.method not in all_selectors:
                    out.append(_d(where, f"method {i.method!r} is not declared by any class"))
            for t in b.term.targets():
                if t not in blocks:
                    out.append(_d(where, f"branch to unknown block {t!r}"))

    for t in p.threads:
        if t.fn not in functions:
            out.append(_d("thread", f"unknown entry function {t.fn!r}"))

    return out


def _superclass_cycles(p: Program) -> list[Diagnostic]:
    out = []
    cmap = p.class_map()
    reported: set[str] = set()
    for c in p.classes:
        if c.name in reported:
            continue
        seen = {c.name}
        cur = c.superclass
        while cur is not None and cur in cmap:
            if cur in seen:
                out.append(_d(f"class {c.name}", "superclass chain contains a cycle"))
                reported.update(seen)
                break
            seen.add(cur)
            cur = cmap[cur].superclass
    return out


def _class_diagnostics(p: Program) -> list[Diagnostic]:
    out = []
    names = set()
    for c in p.classes:
        if c.name in names:
            out.append(_d(f"class {c.name}", "duplicate class name"))
        names.add(c.name)
        if len(set(c.fields)) != len(c.fields):
            out.append(_d(f"class {c.name}", "duplicate field names"))
    cycles = _superclass_cycles(p)
    out.extend(cycles)
    if not cycles:
        cmap = p.class_map()
        for c in p.classes:
            if c.superclass is None or c.superclass not in cmap:
                continue
            inherited = set()
            cur = c.superclass
            while cur in cmap:  # an undeclared class is reported by resolution
                inherited.update(cmap[cur].fields)
                cur = cmap[cur].superclass
            for f in c.fields:
                if f in inherited:
                    out.append(_d(f"class {c.name}", f"redeclares superclass field {f!r}"))
    return out


@memo
def _defined_once(f: Function) -> tuple[Diagnostic, ...]:
    out = []
    seen: set[str] = set()
    for name in f.params:
        if name in seen:
            out.append(_d(f"fn {f.name}", f"value {name!r} defined more than once"))
        seen.add(name)
    for b in f.blocks:
        for name in b.params:
            if name in seen:
                out.append(_d(f"fn {f.name}/{b.name}", f"value {name!r} defined more than once"))
            seen.add(name)
        for i in b.instrs:
            if i.dest is None:
                continue
            if i.dest in seen:
                out.append(_d(f"fn {f.name}/{b.name}", f"value {i.dest!r} defined more than once"))
            seen.add(i.dest)
    return tuple(out)


@memo
def _def_before_use(f: Function) -> tuple[Diagnostic, ...]:
    """Every use must be dominated by its definition: the SSA rule.

    A name's home is the block that defines it: the entry for a function
    param, its own block for a block param or an instruction result. Blocks
    are walked in reverse postorder, which reaches every dominator of a block
    first, and a home is recorded where the walk meets its definition; so a
    use is defined when its name has a home by then that dominates the use's
    block. A name defined more than once keeps its first home. Unreachable
    blocks are skipped (reported separately).
    """
    # imported on first use: the parser imports this module, and start-up need
    # not pay for setting up cfg's loop dataclasses
    from .cfg import dominates, dominators, reachable_rpo

    idom, _ = dominators(f)
    home = dict.fromkeys(f.params, f.entry.name)

    def undefined(uses: tuple[str, ...], block: str) -> list[Diagnostic]:
        return [_d(f"fn {f.name}/{block}", f"use of {u!r} before definition")
                for u in uses if u not in home or not dominates(idom, home[u], block)]

    out: list[Diagnostic] = []
    bmap = f.block_map()
    for name in reachable_rpo(f):
        b = bmap[name]
        for q in b.params:
            home.setdefault(q, name)
        for i in b.instrs:
            out.extend(undefined(i.uses(), name))
            if i.dest is not None:
                home.setdefault(i.dest, name)
        out.extend(undefined(b.term.uses(), name))
    return tuple(out)


def _fn_diagnostics(p: Program, f: Function) -> list[Diagnostic]:
    if not f.blocks:
        return [_d(f"fn {f.name}", "function has no blocks"), *_defined_once(f)]
    out = []
    names = set()
    for b in f.blocks:
        if b.name in names:
            out.append(_d(f"fn {f.name}", f"duplicate block label {b.name!r}"))
        names.add(b.name)
    if f.entry.params:
        out.append(_d(f"fn {f.name}", "entry block must not take parameters"))
    bmap = f.block_map()
    fmap = p.fn_map()
    for b in f.blocks:
        for i in b.instrs:
            if i.op == "vbinop" and (i.width is None or i.width < 2):
                out.append(_d(f"fn {f.name}/{b.name}", "vbinop width must be >= 2"))
            if i.op == "call" and i.fn in fmap and len(i.args) != len(fmap[i.fn].params):
                out.append(
                    _d(
                        f"fn {f.name}/{b.name}",
                        f"call passes {len(i.args)} args, {i.fn} takes {len(fmap[i.fn].params)}",
                    )
                )
        if not isinstance(b.term, (Br, CondBr, Ret)):
            out.append(_d(f"fn {f.name}/{b.name}", "block has no terminator"))
            continue
        for target, args in b.term.edges():
            if target in bmap and len(args) != len(bmap[target].params):
                out.append(
                    _d(
                        f"fn {f.name}/{b.name}",
                        f"branch to {target!r} passes {len(args)} args, "
                        f"block takes {len(bmap[target].params)}",
                    )
                )
    out.extend(_defined_once(f))
    out.extend(_def_before_use(f))
    return out


def validate(p: Program) -> list[Diagnostic]:
    """All invariant violations; empty list means valid."""
    return list(_diagnostics(p))


@memo
def _diagnostics(p: Program) -> tuple[Diagnostic, ...]:
    out = resolution_diagnostics(p)
    out.extend(_class_diagnostics(p))
    fn_names = set()
    for f in p.functions:
        if f.name in fn_names:
            out.append(_d(f"fn {f.name}", "duplicate function name"))
        fn_names.add(f.name)
        out.extend(_fn_diagnostics(p, f))
    if not p.threads:
        out.append(_d("program", "thread list is empty"))
    fmap = p.fn_map()
    for t in p.threads:
        if t.fn in fmap and len(t.args) != len(fmap[t.fn].params):
            out.append(
                _d("thread", f"{t.fn} takes {len(fmap[t.fn].params)} params, got {len(t.args)} args")
            )
    return tuple(out)
