import pytest

from cirlab import ir
from cirlab.parser import ParseError, UnresolvedNameError, parse
from cirlab.ir import print_program

MINI = """
fn main() {
b0:
  v = const 7
  output v
  ret
}

thread main()
"""


def test_minimal_program():
    p = parse(MINI)
    assert len(p.functions) == 1
    assert len(p.threads) == 1
    assert p.functions[0].blocks[0].instrs[0].op == "const"


def test_pea_listing_shape():
    text = """
    class A { fields x; }
    class B { fields y; }
    fn make() {
    b0:
      v = const 10
      v2 = const 20
      v3 = const 30
      o = new A
      putfield o, x, v
      b = new B
      putfield b, y, v2
      c1 = cas o, x, v, b
      t = getfield o, x
      c2 = cas t, y, v2, v3
      r = getfield o, x
      ret r
    }
    thread make()
    """
    p = parse(text)
    assert {c.name for c in p.classes} == {"A", "B"}
    assert p.class_map()["A"].fields == ("x",)


def test_roundtrip_is_identity():
    p = parse(MINI)
    assert parse(print_program(p)) == p


def test_roundtrip_rich_program():
    text = """
    class A { fields x, y; methods get=a_get; }
    class B extends A { fields z; }
    fn a_get(self) {
    e:
      v = getfield self, x
      ret v
    }
    fn main(n) {
    b0:
      zero = const 0
      o = new B
      h = handleconst a_get
      r = callhandle h(o)
      r2 = callvirtual o.get()
      t = instanceof o, A
      condbr t, yes(r), no()
    yes(k):
      arr = newarray n
      vbinop add, arr, arr, arr, zero, 2
      output k
      ret
    no():
      guard t, impossible
      ret
    }
    thread main(4)
    """
    p = parse(text)
    assert parse(print_program(p)) == p


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as e:
        parse("fn main() {\nb0:\n  v = const\n  ret\n}\nthread main()")
    assert e.value.line == 4


def test_unresolved_field():
    text = """
    class A { fields x; }
    fn main() {
    b0:
      o = new A
      zero = const 0
      putfield o, nope, zero
      ret
    }
    thread main()
    """
    with pytest.raises(UnresolvedNameError, match="nope"):
        parse(text)


def test_unresolved_function():
    with pytest.raises(UnresolvedNameError):
        parse("fn main() {\nb0:\n  r = call ghost()\n  ret\n}\nthread main()")


def test_comments_and_negative_ints():
    p = parse("// a file\nfn main() {\nb0: // entry\n  v = const -3\n  output v\n  ret\n}\nthread main()")
    assert p.functions[0].blocks[0].instrs[0].value == -3


def test_thread_literals():
    p = parse(MINI.replace("thread main()", "thread main()") + "\n")
    assert p.threads[0].args == ()
    p2 = parse("fn f(a, b, c) {\nb0:\n  ret\n}\nthread f(1, true, null)")
    assert p2.threads[0].args == (1, True, None)


EVERY_OPCODE = """
class A { fields x; methods get=a_get; }
fn a_get(self) {
e:
  v = getfield self, x
  ret v
}
fn side() {
e:
  ret
}
fn main(n) {
b0:
  zero = const 0
  nil = const null
  yes = const true
  g = classref A
  o = new A
  putfield o, x, zero
  ok = cas o, x, zero, n
  monitorenter g
  wait g
  notify g
  notifyall g
  monitorexit g
  park
  unpark n
  arr = newarray n
  arraystore arr, zero, n
  el = arrayload arr, zero
  s = binop add, el, n
  t = instanceof o, A
  guard t, never
  r = call a_get(o)
  call side()
  r2 = callvirtual o.get()
  callvirtual o.get()
  h = handleconst a_get
  r3 = callhandle h(o)
  callhandle h(o)
  vbinop mul, arr, arr, arr, zero, 2
  output s
  ret
}
thread main(1)
"""


def test_every_opcode_roundtrips_and_instr_errors_are_pinned():
    p = parse(EVERY_OPCODE)
    assert parse(print_program(p)) == p
    instrs = [i for f in p.functions for b in f.blocks for i in b.instrs]
    assert {i.op for i in instrs} == set(ir.OPCODES)
    assert {i.dest is None for i in instrs if i.op == "call"} == {True, False}

    errors = (
        ("x = putfield a, f, a", "putfield takes no destination", 7),
        ("getfield a, f", "getfield requires a destination", 3),
        ("x = binop pow, a, a", "unknown binop kind 'pow'", 16),
        ("vbinop add, a, a, a, a, a", "expected vbinop width", 27),
    )
    for line, msg, col in errors:
        with pytest.raises(ParseError) as e:
            parse(f"fn main(a) {{\nb0:\n  {line}\n  ret\n}}\nthread main(1)")
        assert (e.value.msg, e.value.line, e.value.col) == (msg, 3, col), line
