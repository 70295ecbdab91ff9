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

Integers are decimal, comments run from ``//`` to end of line. Parsing also
resolves names (classes, functions, fields, blocks); an unresolved name is
reported as an error even though the text is grammatically fine.
"""

from __future__ import annotations

import re

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

#: syntax slots (see `ir.OpSpec`) naming a declared entity, with what to call it
_NAMED = {"cls": "class name", "field": "field name", "fn": "function name",
          "method": "method name"}
_PUNCT = frozenset(",().")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(){},;:=.])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class UnresolvedNameError(Exception):
    """A grammatically valid program referenced an undeclared name."""


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - line_start + 1)
        elif kind != "ws" and kind != "comment":
            toks.append(_Tok(kind, m.group(), line, m.start() - line_start + 1))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise self.error(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.next().text

    def name(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise self.error(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.next().text

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- top level ------------------------------------------------------

    def program(self) -> Program:
        classes: list[ClassDef] = []
        functions: list[Function] = []
        threads: list[ThreadDecl] = []
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.text == "class":
                classes.append(self.classdef())
            elif t.text == "fn":
                functions.append(self.fndef())
            elif t.text == "thread":
                threads.append(self.threaddecl())
            else:
                raise self.error("expected 'class', 'fn', or 'thread'")
        return Program(tuple(classes), tuple(functions), tuple(threads))

    def classdef(self) -> ClassDef:
        self.expect("class")
        name = self.name("class name")
        superclass = None
        if self.at("extends"):
            self.next()
            superclass = self.name("superclass name")
        self.expect("{")
        fields: tuple[str, ...] = ()
        methods: list[tuple[str, str]] = []
        while not self.at("}"):
            if self.at("fields"):
                self.next()
                fields = tuple(self.namelist())
                self.expect(";")
            elif self.at("methods"):
                self.next()
                while True:
                    sel = self.name("method name")
                    if self.at("="):
                        self.next()
                        fname = self.name("function name")
                    else:
                        fname = sel
                    methods.append((sel, fname))
                    if not self.at(","):
                        break
                    self.next()
                self.expect(";")
            else:
                raise self.error("expected 'fields', 'methods', or '}'")
        self.expect("}")
        return ClassDef(name, superclass, fields, tuple(methods))

    def namelist(self) -> list[str]:
        names = [self.name()]
        while self.at(","):
            self.next()
            names.append(self.name())
        return names

    def threaddecl(self) -> ThreadDecl:
        self.expect("thread")
        fname = self.name("function name")
        self.expect("(")
        args: list[int | bool | None] = []
        if not self.at(")"):
            while True:
                args.append(self.literal())
                if not self.at(","):
                    break
                self.next()
        self.expect(")")
        return ThreadDecl(fname, tuple(args))

    def literal(self) -> int | bool | None:
        t = self.peek()
        if t.kind == "int":
            return int(self.next().text)
        if t.text == "true":
            self.next()
            return True
        if t.text == "false":
            self.next()
            return False
        if t.text == "null":
            self.next()
            return None
        raise self.error("expected literal")

    # -- functions --------------------------------------------------------

    def fndef(self) -> Function:
        self.expect("fn")
        name = self.name("function name")
        self.expect("(")
        params: list[str] = []
        if not self.at(")"):
            params = self.namelist()
        self.expect(")")
        self.expect("{")
        blocks: list[Block] = []
        while not self.at("}"):
            blocks.append(self.block())
        self.expect("}")
        if not blocks:
            raise self.error(f"function {name!r} has no blocks")
        return Function(name, tuple(params), tuple(blocks))

    def block(self) -> Block:
        label = self.name("block label")
        params: list[str] = []
        if self.at("("):
            self.next()
            if not self.at(")"):
                params = self.namelist()
            self.expect(")")
        self.expect(":")
        instrs: list[Instr] = []
        term = None
        while term is None:
            t = self.peek()
            if t.text in ("br", "condbr", "ret"):
                term = self.terminator()
            elif t.kind == "eof" or t.text == "}":
                raise self.error("block ended without a terminator")
            else:
                instrs.append(self.instr())
        return Block(label, tuple(params), tuple(instrs), term)

    def edge(self) -> tuple[str, tuple[str, ...]]:
        target = self.name("block label")
        args: list[str] = []
        if self.at("("):
            self.next()
            if not self.at(")"):
                args = self.namelist()
            self.expect(")")
        return target, tuple(args)

    def terminator(self):
        t = self.next()
        if t.text == "br":
            target, args = self.edge()
            return Br(target, args)
        if t.text == "condbr":
            cond = self.name("condition value")
            self.expect(",")
            t1, a1 = self.edge()
            self.expect(",")
            t2, a2 = self.edge()
            return CondBr(cond, t1, a1, t2, a2)
        if t.text == "ret":
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text not in KEYWORDS and nxt.line == t.line:
                return Ret(self.name())
            return Ret(None)
        raise ParseError("expected terminator", t.line, t.col)

    def instr(self) -> Instr:
        t = self.peek()
        dest = None
        if t.kind == "ident" and t.text not in KEYWORDS:
            dest = self.next().text
            self.expect("=")
        op_tok = self.next()
        op = op_tok.text
        spec = ir.OPCODES.get(op)
        if spec is None:
            raise ParseError(f"unknown instruction {op!r}", op_tok.line, op_tok.col)
        if spec.dest is True and dest is None:
            raise ParseError(f"{op} requires a destination", op_tok.line, op_tok.col)
        if spec.dest is False and dest is not None:
            raise ParseError(f"{op} takes no destination", op_tok.line, op_tok.col)
        return self._instr_body(op, spec.slots, dest)

    def _instr_body(self, op: str, slots: tuple[str, ...], dest: str | None) -> Instr:
        args: list[str] = []
        imm: dict[str, object] = {}
        for slot in slots:
            if slot == "v":
                args.append(self.name())
            elif slot in _PUNCT:
                self.expect(slot)
            elif slot in _NAMED:
                imm[slot] = self.name(_NAMED[slot])
            elif slot == "args":
                if not self.at(")"):
                    args.extend(self.namelist())
            elif slot == "lit":
                imm["value"] = self.literal()
            elif slot == "kind":
                kind = imm["kind"] = self.ident(f"{op} kind")
                if kind not in ir.KINDS[op]:
                    raise self.error(f"unknown {op} kind {kind!r}")
            elif slot == "reason":
                imm["reason"] = self.ident("reason tag")
            else:  # width
                if self.peek().kind != "int":
                    raise self.error(f"expected {op} width")
                imm["width"] = int(self.next().text)
        return Instr(op, dest, tuple(args), **imm)


def parse(text: str) -> Program:
    """Parse .cir text; raises ParseError / UnresolvedNameError."""
    p = _Parser(text).program()
    from .validate import resolution_diagnostics

    problems = resolution_diagnostics(p)
    if problems:
        raise UnresolvedNameError("; ".join(str(d) for d in problems))
    return p
