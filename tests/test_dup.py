from cirlab import corpus
from cirlab.interp import run
from cirlab.parser import parse
from cirlab.passes import run_pass
from cirlab.passes.util import static_op_count
from cirlab.validate import validate


def test_instanceof_diamond_drops_dynamic_check():
    p = parse(corpus.dup_diamond(True))
    p2, report = run_pass(p, "dup_simulate")
    assert validate(p2) == []
    assert report.rewrites > 0
    before, after = run(p), run(p2)
    assert before.trace == after.trace
    assert before.op_counts["instanceof"] == 2
    assert after.op_counts["instanceof"] == 1


def test_transformed_shape_matches_fused_branches():
    p = parse(corpus.dup_diamond(True))
    p2, _ = run_pass(p, "dup_simulate")
    # one static check remains and both arms run without re-testing
    assert static_op_count(p2, "instanceof") == 1
    assert run(p2).trace.events == (10, 30, 0)
    neg = parse(corpus.dup_diamond(False))
    neg2, _ = run_pass(neg, "dup_simulate")
    assert run(neg2).trace.events == (20, 0)
    assert run(neg2).op_counts["instanceof"] == 1


def test_merge_without_eliminable_check_unchanged():
    text = """
    fn fa() {
    e:
      v = const 1
      output v
      ret
    }
    fn main(sel) {
    entry:
      one = const 1
      c = binop eq, sel, one
      condbr c, a(), b()
    a():
      br join()
    b():
      br join()
    join():
      call fa()
      z = const 0
      output z
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "dup_simulate")
    assert report.rewrites == 0
    assert p2 == p


def test_boolean_recheck_across_merge():
    # the same boolean drives both branches: the second test dies in the copies
    text = """
    fn main(sel) {
    entry:
      one = const 1
      c = binop eq, sel, one
      condbr c, a(), b()
    a():
      ten = const 10
      output ten
      br join()
    b():
      twenty = const 20
      output twenty
      br join()
    join():
      condbr c, yes(), no()
    yes():
      one2 = const 1
      output one2
      ret
    no():
      zero = const 0
      output zero
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "dup_simulate")
    assert validate(p2) == []
    assert report.rewrites > 0
    for sel in (0, 1):
        a = parse(text.replace("thread main(1)", f"thread main({sel})"))
        b, _ = run_pass(a, "dup_simulate")
        assert run(a).trace == run(b).trace


def test_one_sided_elimination_still_duplicates():
    # only paths through mkc know the check's outcome; the copy in `other`
    # keeps it
    text = """
    class C { }
    class D { }
    fn main(sel) {
    entry:
      one = const 1
      c0 = binop eq, sel, one
      condbr c0, mkc(), other()
    mkc():
      x = new C
      t = instanceof x, C
      condbr t, viac(), bad()
    viac():
      br merge(x)
    bad():
      br merge(x)
    other():
      y = new D
      br merge(y)
    merge(obj):
      t2 = instanceof obj, C
      condbr t2, isc(), isd()
    isc():
      a = const 1
      output a
      ret
    isd():
      b = const 2
      output b
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "dup_simulate")
    assert validate(p2) == []
    assert report.rewrites > 0
    # the copies reached from mkc fold their check; the copy in `other` keeps it
    assert static_op_count(p2, "instanceof") == 2
    for sel, expected in ((0, (2,)), (1, (1,))):
        a = parse(text.replace("thread main(1)", f"thread main({sel})"))
        b, _ = run_pass(a, "dup_simulate")
        assert run(a).trace == run(b).trace
        assert run(b).trace.events == expected
        assert run(b).op_counts["instanceof"] == 1


def test_idempotent():
    p1, _ = run_pass(parse(corpus.dup_diamond(True)), "dup_simulate")
    p2, report = run_pass(p1, "dup_simulate")
    assert report.rewrites == 0
    assert p1 == p2


def test_side_entry_into_branch_target_blocks_fact():
    # X jumps into the true-side block from the false side, so "c is true"
    # does NOT hold everywhere the true side dominates; no check may fold
    text = """
    fn main(sel, alt) {
    entry:
      one = const 1
      c = binop eq, sel, one
      d = binop eq, alt, one
      condbr c, tside(), fside()
    fside():
      br x()
    x():
      br tside()
    tside():
      condbr d, a(), b()
    a():
      br m()
    b():
      br m()
    m():
      condbr c, yes(), no()
    yes():
      v1 = const 1
      output v1
      ret
    no():
      v2 = const 2
      output v2
      ret
    }
    thread main(0, 1)
    """
    p = parse(text)
    p2, report = run_pass(p, "dup_simulate")
    assert report.rewrites == 0
    for sel in (0, 1):
        src = text.replace("thread main(0, 1)", f"thread main({sel}, 1)")
        a, b = parse(src), run_pass(parse(src), "dup_simulate")[0]
        assert run(a).trace == run(b).trace, sel


def test_merge_whose_values_are_used_after_it_is_skipped():
    # the copies of `join` would define `k` and `v` under fresh names, and
    # pruning `join` would leave the uses in `yes` and `no` dangling
    text = """
    fn main(sel) {
    entry:
      one = const 1
      c = binop eq, sel, one
      condbr c, a(), b()
    a():
      br join(one)
    b():
      br join(sel)
    join(v):
      k = const 5
      condbr c, yes(), no()
    yes():
      output k
      ret
    no():
      output v
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "dup_simulate")
    assert report.rewrites == 0 and p2 is p
    assert report.skips == [("main/join", "merge defines values used after it")]
