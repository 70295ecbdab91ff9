from cirlab.corpus import corpus
from cirlab.ir import Block, Br, ClassDef, Function, Program, Ret, ThreadDecl
from cirlab import ir
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, run_pass
from cirlab.validate import validate
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
