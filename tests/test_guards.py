import random

from cirlab import corpus
from cirlab.interp import run
from cirlab.parser import parse
from cirlab.passes import run_pass
from cirlab.passes.util import static_op_count
from cirlab.scheduler import check_refinement
from cirlab.validate import validate


def test_guard_executions_drop_to_hoisted_count():
    p = parse(corpus.guard_bounds_loop(1000, 2000))
    p2, report = run_pass(p, "guard_motion")
    assert validate(p2) == []
    assert report.rewrites == 2
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert before.op_counts["guard"] == 2000
    assert after.op_counts["guard"] <= 3
    reduction = 1 - after.op_counts["guard"] / before.op_counts["guard"]
    assert reduction >= 0.99


def test_empty_loop_bypasses_hoisted_guards():
    # lim < n would fail the hoisted bound check, but the loop never runs
    p2, _ = run_pass(parse(corpus.guard_bounds_loop(0, -5)), "guard_motion")
    r = run(p2)
    assert r.trace.status == "terminated"
    assert r.op_counts["guard"] == 0


def test_failing_bound_deopts_in_both():
    orig = parse(corpus.guard_bounds_loop(10, 3))
    moved, _ = run_pass(orig, "guard_motion")
    assert run(orig).trace.status == "deopt"
    assert run(moved).trace.status == "deopt"
    assert run(moved).trace.reason == "bounds"


def test_guard_implication_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(-3, 40)
        lim = rng.randint(-3, 40)
        orig = parse(corpus.guard_bounds_loop(n, lim))
        moved, _ = run_pass(orig, "guard_motion")
        transformed = run(moved)
        if transformed.trace.status != "deopt":
            original = run(orig)
            assert original.trace.status != "deopt", (n, lim)
            assert original.trace == transformed.trace, (n, lim)


def test_loop_invariant_guard_hoisted():
    text = """
    fn main(n, flag) {
    entry:
      zero = const 0
      fine = binop le, zero, flag
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      guard fine, speculation
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      w = const 1
      output w
      ret
    }
    thread main(50, 3)
    """
    p = parse(text)
    p2, report = run_pass(p, "guard_motion")
    assert report.rewrites == 1
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert before.op_counts["guard"] == 50
    assert after.op_counts["guard"] == 1


def test_loop_varying_guard_skipped():
    text = """
    class G { fields v; }
    fn main(n) {
    entry:
      zero = const 0
      g = classref G
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      x = getfield g, v
      ok = binop le, x, i2
      guard ok, heapcheck
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      w = const 1
      output w
      ret
    }
    thread main(5)
    """
    p = parse(text)
    p2, report = run_pass(p, "guard_motion")
    assert report.rewrites == 0
    assert p2 == p
    assert any("loop-varying" in reason for _, reason in report.skips)


def test_lower_bound_form():
    # guard(lo <= i): hardest at the initial value
    text = """
    fn main(n, lo) {
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      ok = binop le, lo, i2
      guard ok, lower
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      w = const 1
      output w
      ret
    }
    thread main(9, 0)
    """
    p = parse(text)
    p2, _ = run_pass(p, "guard_motion")
    assert run(p).trace == run(p2).trace
    assert run(p2).op_counts["guard"] == 1
    # lo > 0 must deopt in both versions
    bad = parse(text.replace("thread main(9, 0)", "thread main(9, 4)"))
    bad2, _ = run_pass(bad, "guard_motion")
    assert run(bad).trace.status == "deopt"
    assert run(bad2).trace.status == "deopt"


def test_idempotent():
    p1, _ = run_pass(parse(corpus.guard_bounds_loop(100, 200)), "guard_motion")
    p2, report = run_pass(p1, "guard_motion")
    assert report.rewrites == 0
    assert p1 == p2


def test_static_guards_remain_in_program():
    p = parse(corpus.guard_bounds_loop(10, 20))
    p2, _ = run_pass(p, "guard_motion")
    assert static_op_count(p2, "guard") == 2  # moved, not dropped


def test_skipped_guard_is_reported_once():
    # hoisting the invariant guard shifts the varying one's index; the
    # pass looks at the loop again and must not report it a second time
    text = """
    class G { fields v; }
    fn main(n, flag) {
    entry:
      zero = const 0
      fine = binop le, zero, flag
      g = classref G
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      guard fine, speculation
      x = getfield g, v
      w = binop le, x, i2
      guard w, heapcheck
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      output zero
      ret
    }
    thread main(5, 3)
    """
    p2, report = run_pass(parse(text), "guard_motion")
    assert report.rewrites == 1
    assert validate(p2) == []
    assert report.skips == [("main/loop@body:w", "guard depends on loop-varying values")]


def _refines_single_thread(p, p2):
    assert run(p).trace == run(p2).trace
    assert check_refinement(p, p2).kind == "refines"


def test_in_loop_chain_of_invariants_hoisted():
    # `ok` is computed inside the loop, but only from invariants
    text = """
    fn main(n, flag) {
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      five = const 5
      d = binop sub, flag, five
      ok = binop le, zero, d
      guard ok, speculation
      output i2
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      ret
    }
    thread main(4, 7)
    """
    p = parse(text)
    p2, report = run_pass(p, "guard_motion")
    assert validate(p2) == []
    assert report.rewrites == 1
    assert report.skips == []
    _refines_single_thread(p, p2)
    assert (run(p).op_counts["guard"], run(p2).op_counts["guard"]) == (4, 1)
    bad = parse(text.replace("thread main(4, 7)", "thread main(4, 2)"))
    bad2, _ = run_pass(bad, "guard_motion")
    assert run(bad).trace.status == run(bad2).trace.status == "deopt"


def test_chain_longer_than_the_limit_is_skipped():
    # one, a0..a8 and ok: eleven instructions, three past `_MAX_CHAIN`; an
    # equality on the induction variable has no endpoint form either
    adds = "\n".join(f"      a{k} = binop add, a{k - 1}, one" for k in range(1, 9))
    text = f"""
    fn main(n, flag) {{
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop lt, i, n
      condbr c, body(i), done()
    body(i2):
      one = const 1
      a0 = binop add, flag, one
{adds}
      ok = binop le, zero, a8
      guard ok, speculation
      same = binop eq, i2, i2
      guard same, never
      output i2
      i3 = binop add, i2, one
      br loop(i3)
    done():
      ret
    }}
    thread main(3, 1)
    """
    p = parse(text)
    p2, report = run_pass(p, "guard_motion")
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("main/loop@body:ok", "guard depends on loop-varying values"),
                            ("main/loop@body:same", "guard depends on loop-varying values")]


def test_endpoint_guards_in_an_le_loop():
    # i runs 0..n inclusive: `lo < i` is hardest at 0, `i < hi` at n itself
    text = """
    fn main(n, lo, hi) {
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop le, i, n
      condbr c, body(i), done()
    body(i2):
      above = binop lt, lo, i2
      guard above, lower
      below = binop lt, i2, hi
      guard below, upper
      output i2
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      ret
    }
    thread main(5, -1, 6)
    """
    p = parse(text)
    p2, report = run_pass(p, "guard_motion")
    assert validate(p2) == []
    assert report.rewrites == 2
    _refines_single_thread(p, p2)
    assert run(p2).op_counts["guard"] == 2
    for args, reason in (("5, 0, 6", "lower"), ("5, -1, 5", "upper")):
        bad = parse(text.replace("thread main(5, -1, 6)", f"thread main({args})"))
        bad2, _ = run_pass(bad, "guard_motion")
        assert run(bad).trace.status == run(bad2).trace.status == "deopt"
        assert run(bad2).trace.reason == reason
