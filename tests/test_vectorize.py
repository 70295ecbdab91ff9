import random

import pytest

from cirlab import corpus
from cirlab.interp import run
from cirlab.parser import parse
from cirlab.passes import PassOptions, pipeline, run_pass
from cirlab.validate import validate


def _vectorized(n, **kw):
    p = parse(corpus.vec_add(n, **kw))
    p2, reports = pipeline(p, ["guard_motion", "loop_vectorize"], PassOptions(width=4))
    return p, p2, reports


def test_n8_w4_two_vbinops_no_scalar_loads():
    p, p2, reports = _vectorized(8)
    assert validate(p2) == []
    assert reports[1].rewrites == 1
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert after.op_counts["vbinop"] == 2
    assert after.op_counts["arrayload"] - 8 == 0  # only the dump loop loads
    assert before.op_counts["arrayload"] == 8 * 2 + 8


def test_n10_w4_remainder_runs_twice():
    p, p2, _ = _vectorized(10)
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert after.op_counts["vbinop"] == 2
    # 2 remainder iterations load a[i] and b[i] once each; dump loads 10
    assert after.op_counts["arrayload"] == 2 * 2 + 10


def test_guard_present_skip_without_guard_motion():
    p = parse(corpus.vec_add(8))
    p2, report = run_pass(p, "loop_vectorize", PassOptions(width=4))
    assert report.rewrites == 0
    assert p2 == p
    assert any(reason == "guard-present" for _, reason in report.skips)


def test_outputs_bitwise_equal_randomized():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(0, 64)
        sa, sb = rng.randint(1, 10**6), rng.randint(1, 10**6)
        p, p2, _ = _vectorized(n, seed_a=sa, seed_b=sb)
        assert run(p).trace == run(p2).trace, (n, sa, sb)


def test_alias_unknown_skipped():
    text = """
    fn main(n, a) {
    entry:
      c = newarray n
      zero = const 0
      br loop(zero)
    loop(i):
      cc = binop lt, i, n
      condbr cc, body(i), fin()
    body(i2):
      av = arrayload a, i2
      bv = arrayload a, i2
      s = binop add, av, bv
      arraystore c, i2, s
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    fin():
      ret
    }
    thread main(4, null)
    """
    p = parse(text)
    p2, report = run_pass(p, "loop_vectorize", PassOptions(width=4))
    assert report.rewrites == 0
    assert any(reason == "alias-unknown" for _, reason in report.skips)


def test_store_aliases_load_skipped():
    # c is the same allocation as a: allocation-site disjointness fails
    text = """
    fn main(n) {
    entry:
      a = newarray n
      b = newarray n
      zero = const 0
      br loop(zero)
    loop(i):
      cc = binop lt, i, n
      condbr cc, body(i), fin()
    body(i2):
      av = arrayload a, i2
      bv = arrayload b, i2
      s = binop add, av, bv
      arraystore a, i2, s
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    fin():
      ret
    }
    thread main(4)
    """
    p2, report = run_pass(parse(text), "loop_vectorize", PassOptions(width=4))
    assert report.rewrites == 0
    assert any(reason == "alias-unknown" for _, reason in report.skips)


def test_cost_improves():
    p, p2, _ = _vectorized(32)
    assert run(p2).metrics.refcycles < run(p).metrics.refcycles


def test_idempotent():
    _, p2, _ = _vectorized(8)
    p3, report = run_pass(p2, "loop_vectorize", PassOptions(width=4))
    assert report.rewrites == 0
    assert p3 == p2
    assert any(reason == "already vectorized" for _, reason in report.skips)


def test_vbinop_static_width():
    _, p2, _ = _vectorized(8)
    vb = [i for f in p2.functions for b in f.blocks for i in b.instrs if i.op == "vbinop"]
    assert len(vb) == 1
    assert vb[0].width == 4


#: bodies of a countable loop that `loop_vectorize` rejects for their shape
SHAPES = {
    "one-load": ("av = arrayload a, i2", "s = binop add, av, av", "arraystore c, i2, s"),
    "no-elementwise-binop": ("av = arrayload a, i2", "bv = arrayload b, i2",
                             "s = binop add, av, av", "arraystore c, i2, s"),
    "stores-a-load": ("av = arrayload a, i2", "bv = arrayload b, i2",
                      "s = binop add, av, bv", "arraystore c, i2, av"),
}


@pytest.mark.parametrize("body", SHAPES.values(), ids=SHAPES)
def test_a_shape_rejection_records_no_skip(body):
    lines = "\n".join(f"      {line}" for line in body)
    p = parse(f"""
    fn main(n) {{
    entry:
      a = newarray n
      b = newarray n
      c = newarray n
      zero = const 0
      br loop(zero)
    loop(i):
      cc = binop lt, i, n
      condbr cc, body(i), fin()
    body(i2):
{lines}
      one = const 1
      i3 = binop add, i2, one
      br loop(i3)
    fin():
      ret
    }}
    thread main(8)
    """)
    assert validate(p) == []
    p2, report = run_pass(p, "loop_vectorize", PassOptions(width=4))
    assert report.rewrites == 0 and report.skips == [] and p2 == p
