"""Parser for the textual ".cir" form of the IR.

Grammar sketch::

    class Name [extends Super] { [fields f1, f2;] [methods sel=fn, fn2;] }
    fn name(p1, p2) {
    label(v1, v2):
      instr
      ...
      terminator
    ...
    }
    thread name(lit, ...)

Lexical rules: a token is a decimal integer (``-`` only as its sign), an ASCII
identifier or one of ``(){},;:=.``, and tokens are separated by spaces, tabs
and newlines. A newline matters only after ``ret``, which takes its value from
its own line. Comments run from ``//`` to end of line and may hold any
character. Any other character, a carriage return too, is an unexpected
character, and the first one in the text is reported before any syntax error.

The lexer works a line at a time: it cuts a line at ``//``, searches it once
for an unexpected character and takes its tokens with one ``findall``. A token
is a plain string, kept with a parallel list of line numbers. The column of a
token is worked out only when an error is raised there, by scanning its line
again; a tab counts as one column, and the end of input sits just past the end
of the last line.

Parsing also resolves names (classes, functions, fields, blocks); an
unresolved name is reported as an error even though the text is grammatically
fine.
"""

from __future__ import annotations

import re
from itertools import chain, count, repeat

from . import ir
from .ir import Block, Br, ClassDef, CondBr, Function, Instr, Program, Ret, ThreadDecl

KEYWORDS = frozenset(
    {
        "class", "extends", "fields", "methods", "fn", "thread",
        "true", "false", "null",
        "br", "condbr", "ret",
    }
    | set(ir.OPCODES)
)

#: one token, after the spaces and tabs before it (taking them in the match
#: makes `findall` about twice as fast as failing at each of them)
_TOKEN = re.compile(r"[ \t]*([A-Za-z_][A-Za-z0-9_]*|[(){},;:=.]|-?\d+)")
#: a character other than a blank, digit, ASCII letter, `_` or punctuation,
#: or a `-` not before a digit; comments are cut off first. The leading class
#: lets `search` skip ahead, twice as fast as a leading `-(?!\d)|` branch.
_BAD = re.compile(r"[^ \t\dA-Za-z_(){},;:=.](?!(?<=-)\d)")
_LITERALS = {"true": True, "false": False, "null": None}
_PUNCT = frozenset(",().")
#: syntax slots (see `ir.OpSpec`) holding one name, with what to call it
_NAMED = {"v": "name", "cls": "class name", "field": "field name", "fn": "function name",
          "method": "method name"}
_TERMINATORS = frozenset({"br", "condbr", "ret"})


def _plan(slots: tuple[str, ...]) -> tuple[tuple[str, str | None, str | None], ...]:
    """Each syntax slot that is not punctuation, with what to call the name it
    holds (None if it holds something else) and the punctuation after it."""
    steps = []
    for s in slots:
        if s not in _PUNCT:
            steps.append([s, _NAMED.get(s), None])
        elif steps and steps[-1][2] is None:
            steps[-1][2] = s
        else:
            raise ValueError(f"syntax {' '.join(slots)!r}: punctuation must follow another slot,"
                             " one at a time")
    return tuple(map(tuple, steps))


#: per opcode: whether it takes a destination, and its `_plan`
_PLANS = {op: (spec.dest, _plan(spec.slots)) for op, spec in ir.OPCODES.items()}


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class UnresolvedNameError(Exception):
    """A grammatically valid program referenced an undeclared name."""


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        code = [line.partition("//")[0] for line in self.lines] if "//" in text else self.lines
        bad = list(map(_BAD.search, code))
        if any(bad):
            n, m = next((n, m) for n, m in enumerate(bad, 1) if m)
            raise ParseError(f"unexpected character {m.group()!r}", n, m.start() + 1)
        found = list(map(_TOKEN.findall, code))
        self.toks = [*chain.from_iterable(found), ""]  # "" is the end of input
        #: the line of each token
        self.where = [*chain.from_iterable(map(repeat, count(1), map(len, found))), len(found)]
        self.i = 0

    def error(self, msg: str, i: int | None = None) -> ParseError:
        """`msg` at token `i`, by default the current one."""
        i = self.i if i is None else i
        n = self.where[i]
        line = self.lines[n - 1]
        if i == len(self.toks) - 1:
            return ParseError(msg, n, len(line) + 1)
        starts = [m.start(1) for m in _TOKEN.finditer(line.partition("//")[0])]
        return ParseError(msg, n, starts[i - self.where.index(n)] + 1)

    def expected(self, what: str, i: int | None = None) -> ParseError:
        t = self.toks[self.i if i is None else i]
        return self.error(f"expected {what}, found {t or 'end of input'!r}", i)

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.expected(repr(text))
        self.i += 1

    def take(self, text: str) -> bool:
        """Step over the current token if it is `text`."""
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def name(self, what: str = "name") -> str:
        t = self.toks[self.i]
        if t in KEYWORDS or not t.isidentifier():
            raise self.expected(what)
        self.i += 1
        return t

    def namelist(self) -> list[str]:
        names = [self.name()]
        while self.take(","):
            names.append(self.name())
        return names

    def params(self) -> tuple[str, ...]:
        """An optional parenthesised name list."""
        if not self.take("("):
            return ()
        names = () if self.toks[self.i] == ")" else tuple(self.namelist())
        self.expect(")")
        return names

    # -- top level ------------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        functions: list[Function] = []
        threads: list[ThreadDecl] = []
        while True:
            t = self.toks[self.i]
            if not t:
                break
            if t == "class":
                classes.append(self.classdef())
            elif t == "fn":
                functions.append(self.fndef())
            elif t == "thread":
                threads.append(self.threaddecl())
            else:
                raise self.error("expected 'class', 'fn', or 'thread'")
        return Program(tuple(classes), tuple(functions), tuple(threads))

    def classdef(self) -> ClassDef:
        self.expect("class")
        name = self.name("class name")
        superclass = self.name("superclass name") if self.take("extends") else None
        self.expect("{")
        fields: tuple[str, ...] = ()
        methods: list[tuple[str, str]] = []
        while not self.take("}"):
            if self.take("fields"):
                fields = tuple(self.namelist())
            elif self.take("methods"):
                while True:
                    sel = self.name("method name")
                    methods.append((sel, self.name("function name") if self.take("=") else sel))
                    if not self.take(","):
                        break
            else:
                raise self.error("expected 'fields', 'methods', or '}'")
            self.expect(";")
        return ClassDef(name, superclass, fields, tuple(methods))

    def threaddecl(self) -> ThreadDecl:
        self.expect("thread")
        fname = self.name("function name")
        self.expect("(")
        args: list[int | bool | None] = []
        if self.toks[self.i] != ")":
            args.append(self.literal())
            while self.take(","):
                args.append(self.literal())
        self.expect(")")
        return ThreadDecl(fname, tuple(args))

    def literal(self) -> int | bool | None:
        t = self.toks[self.i]
        if t in _LITERALS:
            value = _LITERALS[t]
        elif t[:1] == "-" or t[:1].isdecimal():
            value = int(t)
        else:
            raise self.error("expected literal")
        self.i += 1
        return value

    # -- functions --------------------------------------------------------

    def fndef(self) -> Function:
        self.expect("fn")
        name = self.name("function name")
        self.expect("(")
        params = () if self.toks[self.i] == ")" else tuple(self.namelist())
        self.expect(")")
        self.expect("{")
        blocks: list[Block] = []
        while not self.take("}"):
            blocks.append(self.block())
        if not blocks:
            raise self.error(f"function {name!r} has no blocks")
        return Function(name, params, tuple(blocks))

    def block(self) -> Block:
        label = self.name("block label")
        params = self.params()
        self.expect(":")
        toks, i = self.toks, self.i
        instrs: list[Instr] = []
        while True:
            op = toks[i]
            dest = None
            if op not in KEYWORDS and op.isidentifier():
                dest = op
                if toks[i + 1] != "=":
                    raise self.expected("'='", i + 1)
                i += 2
                op = toks[i]
            elif op in _TERMINATORS:
                self.i = i
                return Block(label, params, tuple(instrs), self.terminator())
            elif not op or op == "}":
                raise self.error("block ended without a terminator", i)
            if op not in _PLANS:
                raise self.error(f"unknown instruction {op!r}", i)
            needs_dest, plan = _PLANS[op]
            if (dest is None) is needs_dest:  # needs_dest is None when either will do
                raise self.error(f"{op} requires a destination" if needs_dest
                                 else f"{op} takes no destination", i)
            i += 1
            args: list[str] = []
            imm: dict[str, object] = {}
            for slot, what, sep in plan:
                t = toks[i]
                if what:  # one name
                    if t in KEYWORDS or not t.isidentifier():
                        raise self.expected(what, i)
                    if slot == "v":
                        args.append(t)
                    else:
                        imm[slot] = t
                    i += 1
                elif slot == "args":
                    if t != ")":
                        self.i = i
                        args += self.namelist()
                        i = self.i
                elif slot == "lit":
                    self.i = i
                    imm["value"] = self.literal()
                    i += 1
                elif slot == "kind":
                    if not t.isidentifier():
                        raise self.expected(f"{op} kind", i)
                    if t not in ir.KINDS[op]:  # reported at the token after it
                        raise self.error(f"unknown {op} kind {t!r}", i + 1)
                    imm["kind"] = t
                    i += 1
                elif slot == "reason":
                    if not t.isidentifier():
                        raise self.expected("reason tag", i)
                    imm["reason"] = t
                    i += 1
                else:  # width
                    if not (t[:1] == "-" or t[:1].isdecimal()):
                        raise self.error(f"expected {op} width", i)
                    imm["width"] = int(t)
                    i += 1
                if sep:
                    if toks[i] != sep:
                        raise self.expected(repr(sep), i)
                    i += 1
            instrs.append(Instr(op, dest, tuple(args), **imm))

    def edge(self) -> tuple[str, tuple[str, ...]]:
        return self.name("block label"), self.params()

    def terminator(self):
        t = self.toks[self.i]
        self.i += 1
        if t == "br":
            return Br(*self.edge())
        if t == "condbr":
            cond = self.name("condition value")
            self.expect(",")
            t1, a1 = self.edge()
            self.expect(",")
            return CondBr(cond, t1, a1, *self.edge())
        i, t = self.i, self.toks[self.i]  # `ret` takes a value from its own line only
        if self.where[i] != self.where[i - 1] or t in KEYWORDS or not t.isidentifier():
            return Ret(None)
        self.i += 1
        return Ret(t)


def parse(text: str) -> Program:
    """Parse .cir text; raises ParseError / UnresolvedNameError."""
    p = _Parser(text).program()
    from .validate import resolution_diagnostics

    problems = resolution_diagnostics(p)
    if problems:
        raise UnresolvedNameError("; ".join(str(d) for d in problems))
    return p
