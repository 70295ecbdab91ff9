import math

import pytest

from cirlab import corpus
from cirlab.interp import run
from cirlab.ir import print_program
from cirlab.parser import parse
from cirlab.passes import PassOptions, run_pass
from cirlab.scheduler import check_refinement
from cirlab.validate import validate
from test_pipeline import monitor_balance


def _coarsen(text, chunk):
    p = parse(text)
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=chunk))
    return p, p2, report


def test_monitorenter_count_n100_c32():
    p, p2, report = _coarsen(corpus.coarsen_loop(100), 32)
    assert report.rewrites == 1
    assert validate(p2) == []
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert before.metrics.synch == 100
    assert after.metrics.synch == math.ceil(100 / 32) == 4


def test_monitorenter_count_exact_multiple():
    _, p2, _ = _coarsen(corpus.coarsen_loop(64), 32)
    assert run(p2).metrics.synch == 2


def test_various_n_c_counts():
    for n, c in ((1, 32), (0, 4), (7, 2), (33, 32), (5, 1)):
        p, p2, _ = _coarsen(corpus.coarsen_loop(n), c)
        assert run(p).trace == run(p2).trace, (n, c)
        assert run(p2).metrics.synch == math.ceil(n / c), (n, c)


def test_cost_improves():
    p, p2, _ = _coarsen(corpus.coarsen_loop(100), 32)
    assert run(p2).metrics.refcycles < run(p).metrics.refcycles


def test_contended_refinement_small():
    p = parse(corpus.coarsen_loop(6, threads=2))
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 1
    verdict = check_refinement(p, p2, step_budget=400)
    assert verdict.kind == "refines"


def test_wait_in_region_skipped():
    text = """
    class L { fields n; }
    fn main(iters) {
    entry:
      zero = const 0
      g = classref L
      br loop(zero)
    loop(i):
      c = binop lt, i, iters
      condbr c, body(i), done()
    body(i2):
      monitorenter g
      wait g
      monitorexit g
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      z = const 0
      output z
      ret
    }
    thread main(2)
    """
    p = parse(text)
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 0
    assert p2 == p
    assert any("blocking op in region" in reason for _, reason in report.skips)


def test_skipped_loop_is_reported_once():
    # loops are visited by header name; the rewrite of l2 makes the pass
    # look at l1 again
    text = """
    class L { fields n; }
    fn main(iters) {
    entry:
      zero = const 0
      g = classref L
      br l1(zero)
    l1(i):
      c = binop lt, i, iters
      condbr c, wbody(i), mid()
    wbody(i2):
      monitorenter g
      wait g
      monitorexit g
      one = const 1
      i3 = binop add, i2, one
      br l1(i3)
    mid():
      br l2(zero)
    l2(j):
      d = binop lt, j, iters
      condbr d, lbody(j), done()
    lbody(j2):
      monitorenter g
      monitorexit g
      one2 = const 1
      j3 = binop add, j2, one2
      br l2(j3)
    done():
      output zero
      ret
    }
    thread main(2)
    """
    _, p2, report = _coarsen(text, 2)
    assert report.rewrites == 1
    assert validate(p2) == []
    assert report.skips == [("main/l1", "blocking op in region")]


def test_non_invariant_monitor_skipped():
    text = """
    class L { fields n; }
    fn main(iters) {
    entry:
      zero = const 0
      br loop(zero)
    loop(i):
      c = binop lt, i, iters
      condbr c, body(i), done()
    body(i2):
      g = classref L
      monitorenter g
      monitorexit g
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    done():
      z = const 0
      output z
      ret
    }
    thread main(2)
    """
    # classref inside the body: first instruction is not the monitorenter
    p = parse(text)
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 0


def test_monitor_balance_preserved():
    _, p2, _ = _coarsen(corpus.coarsen_loop(10), 3)
    for f in p2.functions:
        assert monitor_balance(f) == []


def test_idempotent():
    _, p2, _ = _coarsen(corpus.coarsen_loop(20), 4)
    p3, report = run_pass(p2, "lock_coarsen", PassOptions(chunk=4))
    assert report.rewrites == 0
    assert p3 == p2


def test_fj_kmeans_mini_improves():
    p = parse(corpus.fj_kmeans_mini(100))
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=32))
    assert report.rewrites == 1
    assert run(p).trace == run(p2).trace
    assert run(p2).metrics.synch == 4
    assert run(p2).metrics.refcycles < run(p).metrics.refcycles


_BLOCKER_LOOP = """
class L { fields n; }
fn locker(x) {
e:
  h = classref L
  monitorenter h
  monitorexit h
  ret x
}
fn inc(x) {
e:
  one = const 1
  r = binop add, x, one
  ret r
}
fn main(iters) {
entry:
  zero = const 0
  g = classref L
  hd = handleconst inc
  br loop(zero)
loop(i):
  %s
  c = binop lt, i, iters
  condbr c, body(i), done()
body(i2):
  monitorenter g
  %s
  monitorexit g
  one = const 1
  i3 = binop add, i2, one
  br loop(i3)
done():
  output zero
  ret
}
thread main(2)
"""


@pytest.mark.parametrize("header, region, reason", [
    ("", "monitorenter hd", "nested monitor op in region"),
    ("", "y = call locker(i2)", "call may block"),
    ("", "y = call inc(i2)", None),
    ("", "y = callhandle hd(i2)", "dynamic call may block"),
    ("y = call locker(i)", "", "condition may block"),
    ("y = callhandle hd(i)", "", "condition may block"),
])
def test_each_blocker_is_a_skip_reason(header, region, reason):
    _, p2, report = _coarsen(_BLOCKER_LOOP % (header, region), 2)
    if reason is None:  # a call to a blocking-free function does not block
        assert report.rewrites == 1 and report.skips == []
    else:
        assert report.rewrites == 0
        assert report.skips == [("main/loop", reason)]


_REGION_LOOP = """
class L { fields n; }
fn main(iters) {
entry:
  zero = const 0
  br loop(zero)
loop(i):
  g = classref L
  c = binop lt, i, iters
  condbr c, body(i), done()
body(i2):
  monitorenter g
  monitorexit g
  %s
  one = const 1
  i3 = binop add, i2, one
  br loop(i3)
done():
  output zero
  ret
}
thread main(2)
"""


# `g` is defined in the loop header, so a balanced region is skipped for that
@pytest.mark.parametrize("tail, reason", [
    ("monitorenter g\n  monitorexit g", "unbalanced monitor region"),
    ("", "monitor object is not loop-invariant"),
], ids=["two-exits", "monitor-defined-in-the-loop"])
def test_each_region_shape_is_a_skip_reason(tail, reason):
    p = parse(_REGION_LOOP % tail)
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("main/loop", reason)]


# the inner loop runs a renamed copy of the header, so a body reading the
# header's `i` read the chunk's first trip: with the region's read, the
# coarsened program printed [5, 5] where the original prints [6, 6] (rr:1)
@pytest.mark.parametrize("old, new", [
    ("v2 = binop add, v, one", "v2 = binop add, i, one"),
    ("i3 = binop add, i2, one", "i3 = binop add, i, one"),
], ids=["region", "tail"])
def test_body_reading_a_header_value_is_skipped(old, new):
    text = print_program(corpus.corpus_entry("coarsen-mini").small)
    p = parse(text.replace(old, new))
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("worker/loop", "body reads a header value")]


# the inner loop's only way out of a trip is its release or the renamed
# header, so a body that may also leave the loop has nowhere to go: the
# rewrite branched to the release block without the loop state, and to the
# inner loop's header without the chunk counter, and failed `validate`
def test_body_with_a_second_exit_is_skipped():
    text = corpus.coarsen_loop(6).replace(
        "  br loop(i3)", "  d = binop lt, i3, iters\n  condbr d, loop(i3), done()")
    p = parse(text)
    assert validate(p) == [] and run(p).trace.events == (6,)
    p2, report = run_pass(p, "lock_coarsen", PassOptions(chunk=2))
    assert report.rewrites == 0
    assert p2 == p
    assert report.skips == [("worker/loop", "body has a second exit")]
