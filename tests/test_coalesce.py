import random

import pytest

from cirlab import corpus
from cirlab.interp import run
from cirlab.parser import parse
from cirlab.passes import run_pass
from cirlab.passes.util import static_op_count
from cirlab.scheduler import check_refinement
from cirlab.validate import validate


def test_static_cas_sites_halve():
    p = parse(corpus.coalesce_mini(5))
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 1
    assert validate(p2) == []
    assert static_op_count(p, "cas") == 2
    assert static_op_count(p2, "cas") == 1


def test_uncontended_run_executes_one_cas():
    p = parse(corpus.coalesce_mini(5))
    p2, _ = run_pass(p, "atomic_coalesce")
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert before.trace.events == ((5 + 1) * 2,)
    assert before.metrics.atomic == 2
    assert after.metrics.atomic == 1


def test_fused_update_is_composition_on_random_inputs():
    rng = random.Random(99)
    for _ in range(100):
        v = rng.randrange(-10**6, 10**6)
        p2, _ = run_pass(parse(corpus.coalesce_mini(v)), "atomic_coalesce")
        assert run(p2).trace.events == ((v + 1) * 2,)


def test_contended_refinement():
    p = parse(corpus.coalesce_mini(5, contended=True))
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 1
    verdict = check_refinement(p, p2, step_budget=600)
    assert verdict.kind == "refines"


def test_impure_update_skipped():
    text = """
    class Cell { fields x, y; }
    fn main(v0) {
    entry:
      g = classref Cell
      putfield g, x, v0
      br L1()
    L1():
      v = getfield g, x
      one = const 1
      nv = binop add, v, one
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, x
      other = getfield g, y
      nw = binop add, w, other
      ok2 = cas g, x, w, nw
      condbr ok2, fin(), L2()
    fin():
      r = getfield g, x
      output r
      ret
    }
    thread main(5)
    """
    p = parse(text)
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0
    assert p2 == p
    assert any("impure update" in reason for _, reason in report.skips)


def test_different_locations_skipped():
    text = """
    class Cell { fields x, y; }
    fn main(v0) {
    entry:
      g = classref Cell
      putfield g, x, v0
      putfield g, y, v0
      br L1()
    L1():
      v = getfield g, x
      one = const 1
      nv = binop add, v, one
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, y
      two = const 2
      nw = binop mul, w, two
      ok2 = cas g, y, w, nw
      condbr ok2, fin(), L2()
    fin():
      r = getfield g, x
      output r
      ret
    }
    thread main(3)
    """
    p2, report = run_pass(parse(text), "atomic_coalesce")
    assert report.rewrites == 0


def test_skipped_pair_is_reported_once():
    # the fusion in main makes the pass look at apart's pair again
    text = """
    fn apart() {
    entry:
      g = classref Cell
      br L1()
    L1():
      v = getfield g, x
      one = const 1
      nv = binop add, v, one
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, y
      nw = binop add, w, one
      ok2 = cas g, y, w, nw
      condbr ok2, fin(), L2()
    fin():
      ret
    }
    """ + corpus.coalesce_mini(5).replace("fields x;", "fields x, y;")
    p = parse(text)
    assert validate(p) == []
    _, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 1
    assert report.skips == [("apart/L1+L2", "retry loops target different locations")]


def test_pure_helper_call_in_update_is_allowed():
    text = """
    class Cell { fields x; }
    fn plus3(v) {
    e:
      k = const 3
      r = binop add, v, k
      ret r
    }
    fn main(v0) {
    entry:
      g = classref Cell
      putfield g, x, v0
      br L1()
    L1():
      v = getfield g, x
      nv = call plus3(v)
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, x
      two = const 2
      nw = binop mul, w, two
      ok2 = cas g, x, w, nw
      condbr ok2, fin(), L2()
    fin():
      r = getfield g, x
      output r
      ret
    }
    thread main(4)
    """
    p = parse(text)
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 1
    assert run(p).trace == run(p2).trace
    assert run(p2).trace.events == ((4 + 3) * 2,)


def test_idempotent():
    p1, _ = run_pass(parse(corpus.coalesce_mini(5)), "atomic_coalesce")
    p2, report = run_pass(p1, "atomic_coalesce")
    assert report.rewrites == 0
    assert p1 == p2


def test_triple_loop_fuses_twice():
    text = """
    class Cell { fields x; }
    fn main(v0) {
    entry:
      g = classref Cell
      putfield g, x, v0
      br L1()
    L1():
      v = getfield g, x
      one = const 1
      nv = binop add, v, one
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, x
      two = const 2
      nw = binop mul, w, two
      ok2 = cas g, x, w, nw
      condbr ok2, L3(), L2()
    L3():
      u = getfield g, x
      seven = const 7
      nu = binop sub, u, seven
      ok3 = cas g, x, u, nu
      condbr ok3, fin(), L3()
    fin():
      r = getfield g, x
      output r
      ret
    }
    thread main(5)
    """
    p = parse(text)
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 2
    assert static_op_count(p2, "cas") == 1
    assert run(p).trace == run(p2).trace
    assert run(p2).trace.events == ((5 + 1) * 2 - 7,)


def test_impure_helper_call_in_update_is_skipped():
    # the second update calls a helper that reads the heap
    text = """
    class Cell { fields x, y; }
    fn plus_y(v) {
    e:
      g = classref Cell
      k = getfield g, y
      r = binop add, v, k
      ret r
    }
    fn main(v0) {
    entry:
      g = classref Cell
      putfield g, x, v0
      br L1()
    L1():
      v = getfield g, x
      two = const 2
      nv = binop mul, v, two
      ok = cas g, x, v, nv
      condbr ok, L2(), L1()
    L2():
      w = getfield g, x
      nw = call plus_y(w)
      ok2 = cas g, x, w, nw
      condbr ok2, fin(), L2()
    fin():
      r = getfield g, x
      output r
      ret
    }
    thread main(4)
    """
    p = parse(text)
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("main/L1+L2", "impure update")]


def _retry_pair(l1_update: str, l1_params: str) -> str:
    """Two retry loops on Cell.x; only the first loop's update and parameters vary."""
    return f"""
    class Cell {{ fields x, y; }}
    fn plus_y(v) {{
    e:
      g = classref Cell
      k = getfield g, y
      r = binop add, v, k
      ret r
    }}
    fn main(v0) {{
    entry:
      g = classref Cell
      putfield g, x, v0
      br L1({l1_params and "v0"})
    L1({l1_params}):
      v = getfield g, x
      {l1_update}
      ok = cas g, x, v, nv
      condbr ok, L2(), L1({l1_params})
    L2():
      w = getfield g, x
      nw = binop add, w, w
      ok2 = cas g, x, w, nw
      condbr ok2, fin(), L2()
    fin():
      r = getfield g, x
      output r
      ret
    }}
    thread main(4)
    """


@pytest.mark.parametrize("l1_update, l1_params, reason", [
    ("nv = call plus_y(v)", "", "impure update"),
    ("nv = binop add, v, c", "c", "loop carries values"),
], ids=["impure-first-update", "first-loop-carries-values"])
def test_first_loop_reason_is_reported_for_the_pair(l1_update, l1_params, reason):
    p = parse(_retry_pair(l1_update, l1_params))
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("main/L1+L2", reason)]


def test_plain_blocks_with_parameters_are_not_reported():
    p = parse("""
    class Cell { fields x; }
    fn main(v0) {
    entry:
      g = classref Cell
      br A(v0)
    A(a):
      putfield g, x, a
      br B(a)
    B(b):
      v = getfield g, x
      ok = cas g, x, v, b
      condbr ok, C(b), B(b)
    C(c):
      output c
      ret
    }
    thread main(4)
    """)
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0 and report.skips == []


_PAIR = """
class Cell { fields x, y; }
fn main(v0) {
entry:
  g = classref Cell
  putfield g, x, v0
  zero = const 0
  %s
L1():
  v = getfield g, x
  one = const 1
  nv = binop add, v, one
  ok = cas g, x, v, nv
  condbr ok, L2(), L1()
L2():
  w = getfield g, %s
  same = binop add, w, zero
  two = const 2
  nw = binop mul, w, two
  ok2 = cas g, x, %s, nw
  condbr ok2, %s(), L2()
fin():
  r = getfield g, x
  output r
  ret
}
thread main(5)
"""


@pytest.mark.parametrize("entry, read, expect, then, skips", [
    ("br L1()", "y", "w", "fin", [("main/L1+L2", "read and cas disagree on the location")]),
    ("br L1()", "x", "same", "fin", [("main/L1+L2", "cas expectation is not the loop read")]),
    ("c = binop lt, v0, zero\n  condbr c, L2(), L1()", "x", "w", "fin",
     [("main/L1+L2", "second loop has other entries")]),
    # L2 leaving to L1 also makes (L2, L1) a pair: the same two loops, reported once
    ("br L1()", "x", "w", "L1", [("main/L1+L2", "irregular control flow between loops")]),
], ids=["location", "expectation", "other-entries", "irregular"])
def test_each_pair_shape_is_a_skip_reason(entry, read, expect, then, skips):
    p = parse(_PAIR % (entry, read, expect, then))
    assert validate(p) == []
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == skips


# the fused loop computes the second update before the cas that defines `ok`,
# and reads `v` and computes `nv` again on every retry
@pytest.mark.parametrize("operand", ["ok", "v", "nv"])
def test_second_loop_reading_a_first_loop_value_is_skipped(operand):
    p = parse(corpus.coalesce_mini(5, contended=True)
              .replace("nw = binop mul, w, two", f"nw = binop mul, {operand}, two"))
    assert validate(p) == []
    p2, report = run_pass(p, "atomic_coalesce")
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("main/L1+L2", "second loop reads a first-loop value")]
