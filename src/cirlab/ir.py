"""Core IR: a miniature concurrent, object-oriented intermediate representation.

Programs are immutable. A program is a set of class definitions, a set of
functions in single-assignment form (block parameters instead of phi nodes),
and a non-empty list of threads started concurrently at program start.

Values at runtime are 64-bit signed integers, booleans, heap references,
null, and function handles. There are no floats, strings, or exceptions;
a failed guard is the only non-return exit.

Cross-thread state lives behind ``classref C``, which yields the per-class
singleton object (the moral equivalent of static fields); thread arguments
themselves are literals.

Pure analyses of a `Function` or a `Program` (its block and function maps,
the `cfg` analyses, `validate`) are computed once per object through `memo`:
the object is frozen and every field is a tuple, so a result stays valid for
as long as the object exists. `memo` keeps the result in the instance
`__dict__`, which dataclass `==`, `hash`, `repr` and `replace` never read,
since they see only the fields. Every caller of a memoized analysis shares
its result, so none may mutate it; results are tuples and frozensets where a
list or a set is not needed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import wraps

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

BINOPS = ("add", "sub", "mul", "div", "mod", "lt", "le", "eq")
VBINOPS = ("add", "sub", "mul")
#: the operator kinds each opcode with a `kind` slot accepts
KINDS = {"binop": BINOPS, "vbinop": VBINOPS}


def memo(fn: Callable) -> Callable:
    """`fn(obj)`, computed once per `obj` and kept in `obj.__dict__`.

    Only for a pure function of a frozen IR object; see the module docstring.
    """
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(obj):
        d = obj.__dict__
        try:
            return d[key]
        except KeyError:
            out = d[key] = fn(obj)
            return out

    return cached


@dataclass(frozen=True)
class OpSpec:
    """One opcode's facts, apart from what it does (that is `interp`'s job).

    dest: True = a destination is required, False = none, None = optional.
    syntax: the operands after the opcode as space-separated slots. `v` is
      one value operand and `args` a comma-separated list of them; both fill
      `Instr.args` in order. `lit` fills `Instr.value`; `cls`, `field`, `fn`,
      `method`, `kind`, `reason` and `width` fill the attribute of that name.
      Any other slot is punctuation.
    cost: reference-cycle units per execution; a `vbinop` costs its width.
    metric: the `MetricVector` column each execution counts toward.
    """

    dest: bool | None
    syntax: str
    cost: int = 1
    metric: str | None = None
    slots: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.syntax.split()))


OPCODES = {
    "const": OpSpec(True, "lit"),
    "classref": OpSpec(True, "cls"),
    "binop": OpSpec(True, "kind , v , v"),
    "new": OpSpec(True, "cls", 4, "object"),
    "newarray": OpSpec(True, "v", 4, "array"),
    "getfield": OpSpec(True, "v , field"),
    "putfield": OpSpec(False, "v , field , v"),
    "arrayload": OpSpec(True, "v , v"),
    "arraystore": OpSpec(False, "v , v , v"),
    "cas": OpSpec(True, "v , field , v , v", 8, "atomic"),
    "monitorenter": OpSpec(False, "v", 8, "synch"),
    "monitorexit": OpSpec(False, "v", 8),
    "wait": OpSpec(False, "v", 8, "wait"),
    "notify": OpSpec(False, "v", 8, "notify"),
    "notifyall": OpSpec(False, "v", 8, "notify"),
    "park": OpSpec(False, "", 8, "park"),
    "unpark": OpSpec(False, "v", 8),
    "guard": OpSpec(False, "v , reason"),
    "instanceof": OpSpec(True, "v , cls"),
    "call": OpSpec(None, "fn ( args )", 2),
    "callvirtual": OpSpec(None, "v . method ( args )", 2, "method"),
    "handleconst": OpSpec(True, "fn", 1, "idynamic"),
    "callhandle": OpSpec(None, "v ( args )", 2, "method"),
    "output": OpSpec(False, "v"),
    "vbinop": OpSpec(False, "kind , v , v , v , v , width", 2),
}

#: opcodes with no heap or concurrency effects; safe to delete when unused
PURE_OPS = frozenset({"const", "classref", "binop", "instanceof", "handleconst"})


@dataclass(frozen=True)
class Instr:
    """One non-terminator instruction.

    ``args`` are value-name operands in positional order; the remaining
    fields are immediates, set when the opcode's syntax names them in
    `OPCODES` and None otherwise.
    """

    op: str
    dest: str | None = None
    args: tuple[str, ...] = ()
    value: int | bool | None = None  # the `lit` slot; None encodes null
    cls: str | None = None
    field: str | None = None
    kind: str | None = None  # operator
    fn: str | None = None
    method: str | None = None  # selector
    reason: str | None = None  # deopt reason tag
    width: int | None = None  # lane count

    def uses(self) -> tuple[str, ...]:
        return self.args

    def rename(self, mapping: dict[str, str]) -> "Instr":
        if not any(a in mapping for a in self.args):
            return self
        return replace(self, args=tuple(mapping.get(a, a) for a in self.args))


@dataclass(frozen=True)
class Br:
    target: str
    args: tuple[str, ...] = ()

    def uses(self) -> tuple[str, ...]:
        return self.args

    def targets(self) -> tuple[str, ...]:
        return (self.target,)

    def edges(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(target, block arguments) for each outgoing edge."""
        return ((self.target, self.args),)

    def rename(self, mapping: dict[str, str]) -> "Br":
        return Br(self.target, tuple(mapping.get(a, a) for a in self.args))

    def retarget(self, labels: dict[str, str]) -> "Br":
        """This branch with each target label mapped through `labels`."""
        return Br(labels.get(self.target, self.target), self.args)


@dataclass(frozen=True)
class CondBr:
    cond: str
    then_target: str
    then_args: tuple[str, ...] = ()
    else_target: str = ""
    else_args: tuple[str, ...] = ()

    def uses(self) -> tuple[str, ...]:
        return (self.cond,) + self.then_args + self.else_args

    def targets(self) -> tuple[str, ...]:
        return (self.then_target, self.else_target)

    def edges(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return ((self.then_target, self.then_args), (self.else_target, self.else_args))

    def rename(self, mapping: dict[str, str]) -> "CondBr":
        return CondBr(
            mapping.get(self.cond, self.cond),
            self.then_target,
            tuple(mapping.get(a, a) for a in self.then_args),
            self.else_target,
            tuple(mapping.get(a, a) for a in self.else_args),
        )

    def retarget(self, labels: dict[str, str]) -> "CondBr":
        return CondBr(self.cond, labels.get(self.then_target, self.then_target), self.then_args,
                      labels.get(self.else_target, self.else_target), self.else_args)


@dataclass(frozen=True)
class Ret:
    value: str | None = None

    def uses(self) -> tuple[str, ...]:
        return (self.value,) if self.value is not None else ()

    def targets(self) -> tuple[str, ...]:
        return ()

    def edges(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return ()

    def rename(self, mapping: dict[str, str]) -> "Ret":
        if self.value is None:
            return self
        return Ret(mapping.get(self.value, self.value))

    def retarget(self, labels: dict[str, str]) -> "Ret":
        return self


Terminator = Br | CondBr | Ret


@dataclass(frozen=True)
class Block:
    name: str
    params: tuple[str, ...]
    instrs: tuple[Instr, ...]
    term: Terminator

    def defined_names(self) -> set[str]:
        """Block parameters plus instruction results."""
        names = set(self.params)
        names.update(i.dest for i in self.instrs if i.dest is not None)
        return names


@dataclass(frozen=True)
class Function:
    """A function body; the first block is the entry and takes no params."""

    name: str
    params: tuple[str, ...]
    blocks: tuple[Block, ...]

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    @memo
    def block_map(self) -> dict[str, Block]:
        return {b.name: b for b in self.blocks}

    def defined_names(self) -> set[str]:
        names = set(self.params)
        for b in self.blocks:
            names |= b.defined_names()
        return names

    @memo
    def instr_count(self) -> int:
        return sum(len(b.instrs) + 1 for b in self.blocks)


@dataclass(frozen=True)
class ClassDef:
    """A guest class: ordered fields plus (selector, function) method entries."""

    name: str
    superclass: str | None = None
    fields: tuple[str, ...] = ()
    methods: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ThreadDecl:
    fn: str
    args: tuple[int | bool | None, ...] = ()


@dataclass(frozen=True)
class Program:
    classes: tuple[ClassDef, ...]
    functions: tuple[Function, ...]
    threads: tuple[ThreadDecl, ...]

    @memo
    def class_map(self) -> dict[str, ClassDef]:
        return {c.name: c for c in self.classes}

    @memo
    def fn_map(self) -> dict[str, Function]:
        return {f.name: f for f in self.functions}

    def ancestry(self, cls: str) -> list[str]:
        """Class chain from `cls` up to its root, inclusive."""
        cmap = self.class_map()
        chain = []
        cur: str | None = cls
        while cur is not None:
            chain.append(cur)
            cur = cmap[cur].superclass
        return chain

    def declared_fields(self, cls: str) -> list[str]:
        """All fields visible on an instance of `cls`, root first."""
        out: list[str] = []
        for c in reversed(self.ancestry(cls)):
            out.extend(self.class_map()[c].fields)
        return out

    def resolve_method(self, cls: str, selector: str) -> str | None:
        """Dynamic dispatch: nearest class in the chain declaring `selector`."""
        for c in self.ancestry(cls):
            for sel, fname in self.class_map()[c].methods:
                if sel == selector:
                    return fname
        return None

    def with_function(self, fn: Function) -> "Program":
        fns = tuple(fn if f.name == fn.name else f for f in self.functions)
        return replace(self, functions=fns)


class NameGen:
    """Deterministic fresh-name source; reuses a base name when free."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    @classmethod
    def for_function(cls, f: Function) -> "NameGen":
        """Fresh names that clash with no value or block label of `f`."""
        return cls(f.defined_names() | {b.name for b in f.blocks})

    def fresh(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        i = 2
        while f"{base}_{i}" in self.taken:
            i += 1
        name = f"{base}_{i}"
        self.taken.add(name)
        return name


# -- convenience constructors used by passes and tests -----------------------


def const(dest: str, value: int | bool | None) -> Instr:
    return Instr("const", dest=dest, value=value)


def binop(dest: str, kind: str, a: str, b: str) -> Instr:
    return Instr("binop", dest=dest, kind=kind, args=(a, b))


def new(dest: str, cls: str) -> Instr:
    return Instr("new", dest=dest, cls=cls)


def newarray(dest: str, length: str) -> Instr:
    return Instr("newarray", dest=dest, args=(length,))


def putfield(obj: str, fld: str, val: str) -> Instr:
    return Instr("putfield", args=(obj, val), field=fld)


def cas(dest: str, obj: str, fld: str, expect: str, newv: str) -> Instr:
    return Instr("cas", dest=dest, args=(obj, expect, newv), field=fld)


def guard(cond: str, reason: str) -> Instr:
    return Instr("guard", args=(cond,), reason=reason)


def call(dest: str | None, fn: str, args: tuple[str, ...] = ()) -> Instr:
    return Instr("call", dest=dest, fn=fn, args=args)


def output(val: str) -> Instr:
    return Instr("output", args=(val,))


def vbinop(kind: str, dst: str, a: str, b: str, offset: str, width: int) -> Instr:
    return Instr("vbinop", kind=kind, args=(dst, a, b, offset), width=width)


def monitor(op: str, obj: str) -> Instr:
    return Instr(op, args=(obj,))


# -- canonical printer --------------------------------------------------------


def _lit(v: int | bool | None) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _edge(target: str, args: tuple[str, ...]) -> str:
    return f"{target}({', '.join(args)})" if args else target


def format_instr(i: Instr) -> str:
    spec = OPCODES.get(i.op)
    if spec is None:
        raise ValueError(f"unknown opcode {i.op!r}")
    args = iter(i.args)
    parts = []
    for slot in spec.slots:
        if slot == "v":
            parts.append(next(args))
        elif slot == ",":
            parts.append(", ")
        elif slot == "args":
            parts.append(", ".join(args))
        elif slot == "lit":
            parts.append(_lit(i.value))
        elif slot in "().":
            parts.append(slot)
        else:
            parts.append(str(getattr(i, slot)))
    lhs = f"{i.dest} = " if i.dest is not None else ""
    return f"{lhs}{i.op} {''.join(parts)}" if parts else f"{lhs}{i.op}"


def format_term(t: Terminator) -> str:
    if isinstance(t, Br):
        return f"br {_edge(t.target, t.args)}"
    if isinstance(t, CondBr):
        return (
            f"condbr {t.cond}, {_edge(t.then_target, t.then_args)}, "
            f"{_edge(t.else_target, t.else_args)}"
        )
    if isinstance(t, Ret):
        return f"ret {t.value}" if t.value is not None else "ret"
    raise ValueError(f"unknown terminator {t!r}")


def print_program(p: Program) -> str:
    """Canonical text form; `parse(print_program(p))` is structurally `p`."""
    out: list[str] = []
    for c in p.classes:
        head = f"class {c.name}"
        if c.superclass:
            head += f" extends {c.superclass}"
        items = []
        if c.fields:
            items.append(f"fields {', '.join(c.fields)};")
        if c.methods:
            ms = ", ".join(fn if sel == fn else f"{sel}={fn}" for sel, fn in c.methods)
            items.append(f"methods {ms};")
        body = " ".join(items)
        out.append(f"{head} {{ {body} }}" if body else f"{head} {{ }}")
    if p.classes:
        out.append("")
    for f in p.functions:
        out.append(f"fn {f.name}({', '.join(f.params)}) {{")
        for b in f.blocks:
            label = f"{b.name}({', '.join(b.params)})" if b.params else b.name
            out.append(f"{label}:")
            for i in b.instrs:
                out.append(f"  {format_instr(i)}")
            out.append(f"  {format_term(b.term)}")
        out.append("}")
        out.append("")
    for t in p.threads:
        out.append(f"thread {t.fn}({', '.join(_lit(a) for a in t.args)})")
    return "\n".join(out) + "\n"
