from dataclasses import replace

import pytest

from hypothesis import given, settings, strategies as st

from cirlab.corpus import corpus
from cirlab.ir import Block, Br, ClassDef, Function, Program, Ret, ThreadDecl
from cirlab import ir
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, run_pass
from cirlab.validate import validate
from test_cfg import draw_cfg, simple_paths
from test_fuzz import gen_program


def test_valid_program_no_diagnostics():
    p = parse("fn main() {\nb0:\n  v = const 1\n  output v\n  ret\n}\nthread main()")
    assert validate(p) == []


def test_class_cycle():
    p = Program(
        classes=(ClassDef("A", "B"), ClassDef("B", "A")),
        functions=(Function("main", (), (Block("b0", (), (), Ret(None)),)),),
        threads=(ThreadDecl("main"),),
    )
    msgs = [d.message for d in validate(p)]
    assert any("cycle" in m for m in msgs)


def test_field_redeclaration():
    p = Program(
        classes=(ClassDef("A", None, ("x",)), ClassDef("B", "A", ("x",))),
        functions=(Function("main", (), (Block("b0", (), (), Ret(None)),)),),
        threads=(ThreadDecl("main"),),
    )
    msgs = [d.message for d in validate(p)]
    assert any("redeclares" in m for m in msgs)


def test_branch_arity_mismatch():
    f = Function(
        "main", (),
        (
            Block("b0", (), (), Br("b1", ())),
            Block("b1", ("x",), (), Ret(None)),
        ),
    )
    p = Program((), (f,), (ThreadDecl("main"),))
    msgs = [d.message for d in validate(p)]
    assert any("passes 0 args" in m for m in msgs)


def test_use_before_def_on_one_path():
    text = """
    fn main(n) {
    b0:
      zero = const 0
      c = binop lt, zero, n
      condbr c, yes(), merge()
    yes():
      v = const 5
      br merge()
    merge():
      output v
      ret
    }
    thread main(1)
    """
    p = parse(text)
    msgs = [d.message for d in validate(p)]
    assert any("use of 'v' before definition" in m for m in msgs)
    # each call returns a list of its own, so a caller that edits one leaves
    # the next call's answer alone
    validate(p).clear()
    assert [d.message for d in validate(p)] == msgs


def use_before_def_oracle(f: Function) -> list[str]:
    """Each use that some simple path from the entry reaches before its
    definition runs, for a function that defines each name at most once."""
    home = {q: (f.entry.name, -1) for q in f.params}
    for b in f.blocks:
        home.update({i.dest: (b.name, k) for k, i in enumerate(b.instrs) if i.dest})
    paths = simple_paths(f)
    out = []
    for b in f.blocks:
        reaching = [path for path in paths if path[-1] == b.name]
        for k, uses in enumerate([i.uses() for i in b.instrs] + [b.term.uses()]):
            for u in uses:
                hb, hk = home.get(u, (None, 0))
                if not all(hb in path[:-1] or (hb == b.name and hk < k) for path in reaching):
                    out.append(f"fn {f.name}/{b.name}: use of {u!r} before definition")
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_use_before_def_matches_a_path_oracle(data):
    f = draw_cfg(data, min_blocks=3, min_succ=1)
    names = ["v0", "v1", "v2", "v3"]
    # the block defining each name: each is defined once, but "v3" nowhere
    home = {v: data.draw(st.integers(0, len(f.blocks) - 1)) for v in names[:3]}
    uses = st.sampled_from(names + ["c"])  # "c" is the function param
    blocks = []
    for bi, b in enumerate(f.blocks):
        instrs = [ir.output(u) for u in data.draw(st.lists(uses, max_size=4))]
        for v in names:
            if home.get(v) == bi:
                use = data.draw(st.none() | uses)
                instrs.insert(data.draw(st.integers(0, len(instrs))),
                              ir.binop(v, "add", use, use) if use else ir.const(v, 0))
        term = b.term
        if isinstance(term, Ret):
            term = Ret(data.draw(st.none() | uses))
        blocks.append(Block(b.name, b.params, tuple(instrs), term))
    f = replace(f, blocks=tuple(blocks))
    p = Program((), (f,), (ThreadDecl(f.name, (True,)),))
    found = [str(d) for d in validate(p) if "before definition" in d.message]
    assert sorted(found) == sorted(use_before_def_oracle(f))


def test_double_definition():
    text = """
    fn main() {
    b0:
      v = const 1
      v = const 2
      output v
      ret
    }
    thread main()
    """
    msgs = [d.message for d in validate(parse(text))]
    assert any("defined more than once" in m for m in msgs)


def test_empty_thread_list():
    p = Program((), (Function("main", (), (Block("b0", (), (), Ret(None)),)),), ())
    msgs = [d.message for d in validate(p)]
    assert any("thread list is empty" in m for m in msgs)


def test_vbinop_width():
    f = Function(
        "main", (),
        (
            Block(
                "b0", (),
                (
                    ir.const("n", 4),
                    ir.newarray("a", "n"),
                    ir.const("z", 0),
                    ir.vbinop("add", "a", "a", "a", "z", 1),
                ),
                Ret(None),
            ),
        ),
    )
    p = Program((), (f,), (ThreadDecl("main"),))
    msgs = [d.message for d in validate(p)]
    assert any("width" in m for m in msgs)


def test_branch_to_unknown_block_is_a_diagnostic():
    # built directly: the parser would reject the unresolved label itself
    p = Program(
        (),
        (Function("main", (), (Block("b0", (), (), Br("nowhere")),)),),
        (ThreadDecl("main"),),
    )
    messages = [d.message for d in validate(p)]
    assert "branch to unknown block 'nowhere'" in messages


def test_unknown_opcode_is_a_diagnostic():
    f = Function("main", (), (Block("b0", (), (ir.Instr("bogus"),), Ret(None)),))
    p = Program((), (f,), (ThreadDecl("main"),))
    assert "unknown opcode 'bogus'" in [d.message for d in validate(p)]


def test_unknown_operator_kind_is_a_diagnostic():
    # built directly: the parser would reject the kind itself
    f = Function("main", (), (Block("b0", (), (
        ir.const("n", 4), ir.newarray("a", "n"), ir.const("z", 0),
        ir.binop("p", "pow", "n", "n"), ir.vbinop("div", "a", "a", "a", "z", 2)), Ret(None)),))
    p = Program((), (f,), (ThreadDecl("main"),))
    assert [str(d) for d in validate(p)] == ["fn main/b0: unknown binop kind 'pow'",
                                             "fn main/b0: unknown vbinop kind 'div'"]


def test_each_pass_twice_on_one_program_object():
    # the second run reads the analyses the first one left on the same objects
    inputs = [e.program for e in corpus()] + [parse(gen_program(seed)) for seed in range(50)]
    for p in inputs:
        for name in PASS_NAMES:
            out, report = run_pass(p, name)
            again, report_again = run_pass(p, name)
            assert again == out and report_again == report, name
            assert validate(out) == validate(again) == []
            p = out


def test_undeclared_grandparent_is_reported_not_raised():
    # built directly: the parser would reject the unknown superclass itself
    p = Program(
        classes=(ClassDef("A", "B", ("x",)), ClassDef("B", "Z", ("y",))),
        functions=(Function("main", (), (Block("b0", (), (), Ret(None)),)),),
        threads=(ThreadDecl("main"),),
    )
    assert [str(d) for d in validate(p)] == ["class B: unknown superclass 'Z'"]


def test_function_without_blocks_is_reported_not_raised():
    p = Program(
        (),
        (Function("main", (), (Block("b0", (), (), Ret(None)),)), Function("empty", ("x",), ())),
        (ThreadDecl("main"),),
    )
    assert [str(d) for d in validate(p)] == ["fn empty: function has no blocks"]


def test_block_without_terminator_is_a_diagnostic():
    p = Program((), (Function("main", (), (Block("b0", (), (), None),)),), (ThreadDecl("main"),))
    assert [str(d) for d in validate(p)] == ["fn main/b0: block has no terminator"]


def _main(*instrs: ir.Instr) -> Program:
    return Program((), (Function("main", (), (Block("b0", (), instrs, Ret(None)),)),),
                   (ThreadDecl("main"),))


#: one program per operand shape of `ir.OPCODES`: a required destination,
#: none allowed, an optional one, a `v` slot that is exactly one operand, and
#: an `args` slot that takes any number of them
OPERAND_SHAPES = {
    "binop-without-dest": (ir.Instr("binop", None, ("x", "x"), kind="add"),
                           ["binop requires a destination"]),
    "output-with-dest": (ir.Instr("output", "y", ("x",)), ["output takes no destination"]),
    "call-without-dest": (ir.call(None, "main"), []),
    "call-with-dest": (ir.call("y", "main"), []),
    "output-without-operand": (ir.Instr("output"), ["output takes 1 operand, got 0"]),
    "binop-with-one-operand": (ir.Instr("binop", "y", ("x",), kind="add"),
                               ["binop takes 2 operands, got 1"]),
    "park-with-an-operand": (ir.Instr("park", args=("x",)), ["park takes 0 operands, got 1"]),
    "callhandle-without-handle": (ir.Instr("callhandle", "y"),
                                  ["callhandle takes at least 1 operand, got 0"]),
    "callhandle-with-two-args": (ir.Instr("callhandle", "y", ("x", "x", "x")), []),
}


@pytest.mark.parametrize("instr, messages", OPERAND_SHAPES.values(), ids=OPERAND_SHAPES)
def test_operand_shapes_follow_the_opcode_table(instr, messages):
    p = _main(ir.const("x", 1), instr)
    assert [str(d) for d in validate(p)] == [f"fn main/b0: {m}" for m in messages]


def _fn(name: str = "main", params: tuple[str, ...] = (), *blocks: Block) -> Function:
    return Function(name, params, blocks or (Block("b0", (), (), Ret(None)),))


#: one program per diagnostic the other tests do not reach, built directly
#: since the parser refuses most of them itself, with every diagnostic it gets
DIAGNOSTIC_SITES = {
    "method-names-unknown-function": (
        Program((ClassDef("A", methods=(("m", "nofn"),)),), (_fn(),), (ThreadDecl("main"),)),
        ["class A: method 'm' names unknown function 'nofn'"]),
    "method-declared-by-no-class": (
        _main(ir.const("x", 1), ir.Instr("callvirtual", "y", ("x",), method="m")),
        ["fn main: method 'm' is not declared by any class"]),
    "duplicate-class-name": (
        Program((ClassDef("A"), ClassDef("A")), (_fn(),), (ThreadDecl("main"),)),
        ["class A: duplicate class name"]),
    "duplicate-field-names": (
        Program((ClassDef("A", fields=("x", "x")),), (_fn(),), (ThreadDecl("main"),)),
        ["class A: duplicate field names"]),
    "function-param-defined-twice": (
        Program((), (_fn("main", ("a", "a")),), (ThreadDecl("main", (1, 2)),)),
        ["fn main: value 'a' defined more than once"]),
    "block-param-defined-twice": (
        Program((), (_fn("main", ("a",), Block("b0", (), (), Br("b1", ("a", "a"))),
                         Block("b1", ("q", "q"), (), Ret(None))),), (ThreadDecl("main", (1,)),)),
        ["fn main/b1: value 'q' defined more than once"]),
    "duplicate-block-label": (
        Program((), (_fn("main", (), Block("b0", (), (), Br("b1")), Block("b1", (), (), Ret(None)),
                         Block("b1", (), (), Ret(None))),), (ThreadDecl("main"),)),
        ["fn main: duplicate block label 'b1'"]),
    "entry-block-with-params": (
        Program((), (_fn("main", (), Block("b0", ("q",), (), Ret(None))),), (ThreadDecl("main"),)),
        ["fn main: entry block must not take parameters"]),
    "duplicate-function-name": (
        Program((), (_fn(), _fn()), (ThreadDecl("main"),)),
        ["fn main: duplicate function name"]),
}


@pytest.mark.parametrize("p, messages", DIAGNOSTIC_SITES.values(), ids=DIAGNOSTIC_SITES)
def test_each_diagnostic_site_is_reached(p, messages):
    assert [str(d) for d in validate(p)] == messages
