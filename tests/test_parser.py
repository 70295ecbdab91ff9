import importlib
import random
import re

import pytest
from test_fuzz import gen_program
from test_pea import gen_multiblock_program

from cirlab import ir
from cirlab.corpus import corpus
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
        ("x = binop pow, a, a", "unknown binop kind 'pow'", 13),
        ("vbinop pow, a, a, a, a, 4", "unknown vbinop kind 'pow'", 10),
        ("vbinop add, a, a, a, a, a", "expected vbinop width", 27),
    )
    for line, msg, col in errors:
        with pytest.raises(ParseError) as e:
            parse(f"fn main(a) {{\nb0:\n  {line}\n  ret\n}}\nthread main(1)")
        assert (e.value.msg, e.value.line, e.value.col) == (msg, 3, col), line


_HEAD, _TAIL = "fn main(a) {\nb0:\n", "\n  ret\n}\nthread main(1)"

#: (input, (msg, line, col)), or None where the input is accepted
ERROR_CONTRACT = (
    (_HEAD + "  x = const 1 @ 2" + _TAIL, ("unexpected character '@'", 3, 15)),
    ("// bad ¡@\r é / -\n" + _HEAD + "  x = const 1 // @\r" + _TAIL, None),
    (_HEAD + "  x = const -" + _TAIL, ("unexpected character '-'", 3, 13)),
    ("fn main(a) {\r\nb0:\n  ret\n}\nthread main(1)", ("unexpected character '\\r'", 1, 13)),
    (_HEAD + "\tx = putfield a, f, a" + _TAIL, ("putfield takes no destination", 3, 6)),
    (_HEAD + "  x = const 1", ("block ended without a terminator", 3, 14)),
    (_HEAD + "  x = const 1\n\t \n", ("block ended without a terminator", 5, 1)),
    (_HEAD + "  x =", ("unknown instruction ''", 3, 6)),
    (_HEAD + "  ret\n}\nthread main(", ("expected literal", 5, 13)),
    (_HEAD + "  ret\n}\nthread main( // 1)", ("expected literal", 5, 19)),
    (_HEAD + "  x = frob a" + _TAIL, ("unknown instruction 'frob'", 3, 7)),
    ("fn main(", ("expected name, found 'end of input'", 1, 9)),
    # `ret` takes a value only from its own line: here `a` is the next label
    (_HEAD + "  ret\n  a\n}\nthread main(1)", ("expected ':', found '}'", 5, 1)),
    (_HEAD + "  ret a\n  b\n}\nthread main(1)", ("expected ':', found '}'", 5, 1)),
    # the first bad character is reported, even after a syntax error
    ("fn main( {\nb0:\n  ret ? \n}", ("unexpected character '?'", 3, 7)),
    # digits are ASCII, as names are: `int` would read these as 34
    (_HEAD + "  v = const \u0663\u0664" + _TAIL, ("unexpected character '\u0663'", 3, 13)),
    ("bogus main()", ("expected 'class', 'fn', or 'thread'", 1, 1)),
    ("class C { bogus; }\n" + _HEAD + "  ret\n}\nthread main(1)",
     ("expected 'fields', 'methods', or '}'", 1, 11)),
    # reported at the function's name
    ("fn main() {\n}\nthread main()", ("function 'main' has no blocks", 1, 4)),
    (_HEAD + "  x const 1" + _TAIL, ("expected '=', found 'const'", 3, 5)),
    (_HEAD + "  x = getfield 1, f" + _TAIL, ("expected name, found '1'", 3, 16)),
    (_HEAD + "  x = binop 1, a, a" + _TAIL, ("expected binop kind, found '1'", 3, 13)),
    (_HEAD + "  guard a, 1" + _TAIL, ("expected reason tag, found '1'", 3, 12)),
    (_HEAD + "  x = binop add a, a" + _TAIL, ("expected ',', found 'a'", 3, 17)),
)


@pytest.mark.parametrize("text, want", ERROR_CONTRACT)
def test_error_contract(text, want):
    if want is None:
        parse(text)
        return
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.msg, e.value.line, e.value.col) == want


_TOKEN = re.compile(r"-?\d+|\w+|\S")
_PUNCT = frozenset("(){},;:=.")
_SPACES = (" ", "\t", "  ", " \t ")
_BREAKS = ("\n", "\n\n", "\n \t\n", " // a comment, ¡even @ \r and \\!\n", "\t//\n\n")


def relaid(text: str, rng: random.Random) -> str:
    """`text` (as printed, so without comments) with a random layout: each gap
    between two tokens gets spaces, tabs, newlines, blank lines or comments.
    A `ret` and what follows it stay on one line, or on two, as they were."""
    out, at = [], 0
    for m in _TOKEN.finditer(text):
        if not out:
            gaps = ("",)
        elif out[-1] == "ret":
            gaps = _BREAKS if "\n" in text[at:m.start()] else _SPACES
        elif rng.random() < 0.3:
            gaps = _BREAKS
        elif rng.random() < 0.2 and (out[-1] in _PUNCT or m[0] in _PUNCT):
            gaps = ("",)  # no space is needed next to punctuation
        else:
            gaps = _SPACES
        out += (rng.choice(gaps), m[0])
        at = m.end()
    return rng.choice(("", "\n\n", "// head\n")) + "".join(out) + rng.choice(("", "\n", " // tail"))


def test_layout_between_tokens_does_not_matter():
    programs = [p for e in corpus() for p in (e.program, e.small)]
    programs += [parse(gen_program(seed)) for seed in range(150)]
    programs += [parse(gen_multiblock_program(seed)) for seed in range(150)]
    rng = random.Random(23)
    for p in programs:
        text = relaid(print_program(p), rng)
        assert parse(text) == p, text


def test_names_are_resolved_once_per_program(monkeypatch):
    validate = importlib.import_module("cirlab.validate")  # `cirlab.validate` is the function
    resolve = validate.resolution_diagnostics.__wrapped__  # memoized (`ir.memo`)
    calls = []

    def counted(p):
        calls.append(p)
        return resolve(p)

    monkeypatch.setattr(validate, "resolution_diagnostics", ir.memo(counted))
    p = parse(MINI)
    assert validate.validate(p) == []
    assert calls == [p]

