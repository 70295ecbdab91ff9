from cirlab import corpus
from cirlab.interp import run
from cirlab.parser import parse
from cirlab.passes import PassOptions, run_pass
from cirlab.passes.util import static_op_count
from cirlab.validate import validate


def test_constant_handle_becomes_direct_call_and_inlines():
    text = """
    fn double(x) {
    e:
      two = const 2
      r = binop mul, x, two
      ret r
    }
    fn main(v) {
    b0:
      h = handleconst double
      r = callhandle h(v)
      output r
      ret
    }
    thread main(21)
    """
    p = parse(text)
    p2, report = run_pass(p, "handle_simplify")
    assert validate(p2) == []
    assert static_op_count(p2, "callhandle") == 0
    assert static_op_count(p2, "call") == 0  # inlined away
    assert static_op_count(p2, "handleconst") == 0  # dead after the rewrite
    assert run(p).trace == run(p2).trace


def test_histogram_corpus_all_five_sites():
    p = parse(corpus.handle_histogram(4))
    p2, report = run_pass(p, "handle_simplify")
    assert validate(p2) == []
    assert static_op_count(p, "callhandle") == 5
    assert static_op_count(p2, "callhandle") == 0
    assert static_op_count(p2, "call") == 0
    devirt = sum("devirtualized" in m for msgs in report.details.values() for m in msgs)
    assert devirt == 1  # one function carried all five sites
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    iters = 4
    assert before.metrics.method == 5 * iters
    assert after.metrics.method == 0
    assert before.metrics.method - after.metrics.method >= 5 * iters


def test_handle_through_block_params():
    text = """
    fn inc(x) {
    e:
      one = const 1
      r = binop add, x, one
      ret r
    }
    fn main(sel) {
    b0:
      h = handleconst inc
      one = const 1
      c = binop eq, sel, one
      condbr c, a(h), b(h)
    a(h1):
      br join(h1)
    b(h2):
      br join(h2)
    join(h3):
      five = const 5
      r = callhandle h3(five)
      output r
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, _ = run_pass(p, "handle_simplify")
    assert static_op_count(p2, "callhandle") == 0
    assert run(p).trace == run(p2).trace


def test_heap_loaded_handle_unchanged():
    text = """
    class Holder { fields h; }
    fn inc(x) {
    e:
      one = const 1
      r = binop add, x, one
      ret r
    }
    fn main(v) {
    b0:
      box = new Holder
      h = handleconst inc
      putfield box, h, h
      h2 = getfield box, h
      r = callhandle h2(v)
      output r
      ret
    }
    thread main(5)
    """
    p = parse(text)
    p2, report = run_pass(p, "handle_simplify")
    assert static_op_count(p2, "callhandle") == 1
    assert run(p).trace == run(p2).trace


def test_inline_budget_respected():
    body = "\n".join(f"  v{k} = binop add, x, x" for k in range(50))
    text = f"""
    fn big(x) {{
    e:
{body}
      ret v49
    }}
    fn main(v) {{
    b0:
      r = call big(v)
      output r
      ret
    }}
    thread main(3)
    """
    p = parse(text)
    p2, _ = run_pass(p, "handle_simplify", PassOptions(inline_budget=40))
    assert static_op_count(p2, "call") == 1  # too big to inline
    p3, _ = run_pass(p, "handle_simplify", PassOptions(inline_budget=100))
    assert static_op_count(p3, "call") == 0


def test_recursion_not_inlined():
    text = """
    fn fact(n) {
    b0:
      one = const 1
      c = binop le, n, one
      condbr c, base(), rec()
    base():
      ret one
    rec():
      m = binop sub, n, one
      sub = call fact(m)
      r = binop mul, n, sub
      ret r
    }
    fn main() {
    b0:
      five = const 5
      r = call fact(five)
      output r
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, _ = run_pass(p, "handle_simplify")
    assert static_op_count(p2, "call") == 2  # both callsites survive
    assert run(p2).trace.events == (120,)


def test_nested_inlining_bottom_up():
    text = """
    fn leaf(x) {
    e:
      one = const 1
      r = binop add, x, one
      ret r
    }
    fn mid(x) {
    e:
      a = call leaf(x)
      b = call leaf(a)
      ret b
    }
    fn main(v) {
    b0:
      r = call mid(v)
      output r
      ret
    }
    thread main(10)
    """
    p = parse(text)
    p2, _ = run_pass(p, "handle_simplify")
    assert static_op_count(p2, "call") == 0
    assert run(p2).trace.events == (12,)
    assert run(p).trace == run(p2).trace


def test_idempotent():
    p1, _ = run_pass(parse(corpus.handle_histogram(4)), "handle_simplify")
    p2, report = run_pass(p1, "handle_simplify")
    assert report.rewrites == 0
    assert p1 == p2


def test_virtual_calls_untouched():
    text = """
    class C { methods m=work; }
    fn work(self) {
    e:
      v = const 9
      ret v
    }
    fn main() {
    b0:
      o = new C
      r = callvirtual o.m()
      output r
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, report = run_pass(p, "handle_simplify")
    assert report.rewrites == 0
    assert p2 == p


def test_handle_through_disagreeing_block_params_unchanged():
    # the two paths pass different handles: the join cannot name one callee
    text = """
    fn inc(x) {
    e:
      one = const 1
      r = binop add, x, one
      ret r
    }
    fn dec(x) {
    e:
      one = const 1
      r = binop sub, x, one
      ret r
    }
    fn main(sel) {
    b0:
      h = handleconst inc
      k = handleconst dec
      one = const 1
      c = binop eq, sel, one
      condbr c, a(h), b(k)
    a(h1):
      br join(h1)
    b(h2):
      br join(h2)
    join(h3):
      five = const 5
      r = callhandle h3(five)
      output r
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "handle_simplify")
    assert report.rewrites == 0
    assert p2 == p
    assert static_op_count(p2, "callhandle") == 1


def test_handle_carried_around_a_loop_stays_dynamic():
    # the header parameter also receives itself on the back edge
    text = """
    fn inc(x) {
    e:
      one = const 1
      r = binop add, x, one
      ret r
    }
    fn main(n) {
    b0:
      h = handleconst inc
      zero = const 0
      br loop(zero, h)
    loop(i, hl):
      c = binop lt, i, n
      condbr c, body(), done()
    body():
      i2 = callhandle hl(i)
      br loop(i2, hl)
    done():
      output i
      ret
    }
    thread main(3)
    """
    p = parse(text)
    p2, report = run_pass(p, "handle_simplify")
    assert static_op_count(p2, "callhandle") == 1
    assert run(p).trace == run(p2).trace
