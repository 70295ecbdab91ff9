from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cirlab import cfg, interp
from cirlab.cfg import (
    dominators, dominates, liveness, match_while_loop, natural_loops, while_loops,
)
from cirlab.corpus import corpus, corpus_entry
from cirlab.ir import Block, Br, CondBr, Function, Ret, print_program
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, run_pass
from cirlab.validate import validate
from test_fuzz import gen_program


def _fn_from_edges(n_blocks: int, edges: dict[int, tuple[int, ...]]) -> Function:
    """Build a function whose CFG is given by successor lists (block 0 = entry)."""
    blocks = []
    for i in range(n_blocks):
        succ = edges.get(i, ())
        if len(succ) == 0:
            term = Ret(None)
        elif len(succ) == 1:
            term = Br(f"b{succ[0]}")
        else:
            blocks_cond = Block(
                f"b{i}", (), (), CondBr("c", f"b{succ[0]}", (), f"b{succ[1]}", ())
            )
            blocks.append(blocks_cond)
            continue
        blocks.append(Block(f"b{i}", (), (), term))
    return Function("f", ("c",), tuple(blocks))


def draw_cfg(data, min_blocks: int = 1, min_succ: int = 0) -> Function:
    """A random CFG of `min_blocks` to 8 blocks, each with `min_succ` to 2
    successors; the last block may have none."""
    n = data.draw(st.integers(min_value=min_blocks, max_value=8))
    edges = {}
    for i in range(n):
        k = data.draw(st.integers(min_value=min_succ if i < n - 1 else 0, max_value=2))
        if k:
            succ = data.draw(
                st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
            )
            edges[i] = tuple(succ)
    return _fn_from_edges(n, edges)


def simple_paths(f: Function) -> list[tuple[str, ...]]:
    """Every path from the entry that repeats no block, its prefixes included."""
    bmap = f.block_map()

    def paths(frm: str, seen: tuple[str, ...]):
        if frm in seen:
            return
        seen = seen + (frm,)
        yield seen
        for t in bmap[frm].term.targets():
            yield from paths(t, seen)

    return list(paths(f.entry.name, ()))


def brute_force_dominators(f: Function) -> dict[str, set[str]]:
    """dom(b) = blocks on every path from entry to b, by path enumeration."""
    bmap = f.block_map()
    all_paths = simple_paths(f)
    doms: dict[str, set[str]] = {}
    for b in bmap:
        simple = [set(p) for p in all_paths if p[-1] == b]
        if simple:
            doms[b] = set.intersection(*simple)
    return doms


def check_against_oracle(f: Function):
    idom, unreachable = dominators(f)
    oracle = brute_force_dominators(f)
    assert set(idom) == set(oracle)
    for b in idom:
        for a in oracle:
            assert dominates(idom, a, b) == (a in oracle[b]), (a, b)
    # idom is the unique closest strict dominator
    for b, d in idom.items():
        if d is not None:
            strict = oracle[b] - {b}
            assert d in strict
            assert all(x in oracle[d] for x in strict)


def test_straight_line():
    f = _fn_from_edges(3, {0: (1,), 1: (2,)})
    idom, _ = dominators(f)
    assert idom == {"b0": None, "b1": "b0", "b2": "b1"}


def test_diamond():
    f = _fn_from_edges(4, {0: (1, 2), 1: (3,), 2: (3,)})
    idom, _ = dominators(f)
    assert idom["b3"] == "b0"


def test_diamond_with_tail():
    # b0 -> {b1, b2}; b1 -> b3; b2 -> b3; b3 -> b4
    f = _fn_from_edges(5, {0: (1, 2), 1: (3,), 2: (3,), 3: (4,)})
    idom, _ = dominators(f)
    assert idom["b4"] == "b3"
    check_against_oracle(f)


def test_unreachable_blocks_reported():
    f = _fn_from_edges(3, {0: (1,)})  # b2 unreachable
    idom, unreachable = dominators(f)
    assert unreachable == ("b2",)
    assert "b2" not in idom


def test_dominators_match_brute_force_on_corpus_cfgs():
    from cirlab.corpus import corpus

    checked = 0
    for entry in corpus():
        for f in entry.program.functions:
            if len(f.blocks) <= 8:
                check_against_oracle(f)
                checked += 1
    assert checked > 10


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dominators_match_brute_force(data):
    check_against_oracle(draw_cfg(data))


LOOP = """
fn main(n) {
b0:
  zero = const 0
  br loop(zero)
loop(i):
  c = binop lt, i, n
  condbr c, body(), done()
body():
  one = const 1
  i2 = binop add, i, one
  br loop(i2)
done():
  ret
}
thread main(3)
"""


def test_natural_loop_and_while_match():
    f = parse(LOOP).fn_map()["main"]
    loops = natural_loops(f)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.header == "loop"
    assert loop.blocks == frozenset({"loop", "body"})
    wl = match_while_loop(f, loop)
    assert wl is not None
    assert wl.body_target == "body"
    assert wl.exit_target == "done"
    assert wl.latch == "body"
    assert wl.two_block
    assert wl.loop_defs == {"i", "c", "one", "i2"}
    assert list(while_loops(f)) == [wl]


def test_liveness_on_loop():
    # a header param is live at index 0; an edge argument is live at the
    # terminator, and the successor's other live names flow back through it
    assert liveness(parse(LOOP).fn_map()["main"]) == {
        "b0": ({"n"}, {"zero", "n"}),
        "loop": ({"i", "n"}, {"c", "i", "n"}),
        "body": ({"i", "n"}, {"i", "one", "n"}, {"i2", "n"}),
        "done": (set(),),
    }


def test_while_loops_on_corpus_loop():
    f = corpus_entry("guard-bounds-loop").program.fn_map()["main"]
    (wl,) = while_loops(f)
    assert (wl.header.name, wl.body_target, wl.latch, wl.exit_target) == (
        "loop", "body", "skip", "done")
    assert not wl.two_block  # the body spans three blocks
    assert wl.loop_defs == {"i", "c", "i2", "taken", "i3", "g1", "g2", "i4", "one", "i5"}


def test_induction_var():
    from cirlab.cfg import find_induction_var

    f = parse(LOOP).fn_map()["main"]
    wl = match_while_loop(f, natural_loops(f)[0])
    iv = find_induction_var(f, wl)
    assert iv is not None
    assert iv.param == "i"
    assert iv.limit == "n"
    assert iv.cmp == "lt"


def test_iv_aliases_follow_in_loop_copies_only():
    from cirlab.cfg import iv_aliases

    # k receives n on every edge, but through the header: it is a new
    # iteration's value, so it never counts as a copy
    f = parse("""
    fn main(n) {
    b0:
      zero = const 0
      br loop(zero, n)
    loop(i, k):
      c = binop lt, i, n
      condbr c, body(i, n), done()
    body(i2, m):
      br tail(i2)
    tail(i4):
      one = const 1
      i3 = binop add, i4, one
      br loop(i3, n)
    done():
      ret
    }
    thread main(3)
    """).fn_map()["main"]
    (loop,) = natural_loops(f)
    assert iv_aliases(f, loop.blocks, "loop", "i") == {"i", "i2", "i4"}
    assert iv_aliases(f, loop.blocks, "loop", "n") == {"n", "m"}


#: every memoized analysis of a function whose result compares by value;
#: `interp._live_names` is the memoized form of `cfg.liveness`
ANALYSES = (
    cfg.predecessors, cfg.reachable_rpo, cfg.dominators, cfg.natural_loops, cfg.while_loops,
    interp._live_names, cfg.param_args, cfg.def_index, Function.block_map, Function.instr_count,
)


def _pass_chain(p):
    """`p` and the output of each pass in turn, all computed before any is inspected."""
    progs = [p]
    for name in PASS_NAMES:
        progs.append(run_pass(progs[-1], name)[0])
    return progs


def test_memoized_analyses_equal_those_of_a_fresh_parse():
    # the passes run before anything is compared, so a pass that mutated an
    # analysis it read would leave a memo that a fresh parse does not have
    inputs = [e.program for e in corpus()] + [parse(gen_program(seed)) for seed in range(50)]
    for p in inputs:
        for q in _pass_chain(p):
            fresh = parse(print_program(q))
            assert fresh == q
            assert validate(q) == validate(fresh)
            assert q.fn_map() == fresh.fn_map() and q.class_map() == fresh.class_map()
            for f, g in zip(q.functions, fresh.functions, strict=True):
                for analysis in ANALYSES:
                    assert analysis(f) == analysis(g), (analysis.__name__, f.name)


def test_analyses_leave_eq_hash_and_repr_alone():
    for entry in corpus():
        p = entry.program
        q = parse(print_program(p))
        nodes = (q, *q.functions)
        before = [(hash(n), repr(n)) for n in nodes]
        validate(q)
        for f in q.functions:
            for analysis in ANALYSES:
                analysis(f)
        assert [(hash(n), repr(n)) for n in nodes] == before
        assert q == p and hash(q) == hash(p)
        assert all(replace(f) == f for f in q.functions)


def test_natural_loops_ignore_an_unreachable_block_that_branches_to_a_header():
    f = _fn_from_edges(5, {0: (1,), 1: (2, 3), 2: (1,), 4: (1,)})  # b4 unreachable
    assert natural_loops(f) == (cfg.Loop("b1", ("b2",), frozenset({"b1", "b2"})),)


@pytest.mark.parametrize("guard", ["", "g = binop lt, i2, n\n  guard g, bounds\n  "],
                         ids=["vec-add", "guarded"])
def test_a_bool_step_is_not_an_induction_step(guard):
    # `binop add` of an int and a bool faults, so the loop never steps by 1:
    # neither `loop_vectorize` nor `guard_motion` may rely on its counter
    p = parse(f"""
fn main(n) {{
entry:
  a = newarray n
  b = newarray n
  c = newarray n
  zero = const 0
  t = const true
  br loop(zero)
loop(i):
  cc = binop lt, i, n
  condbr cc, body(i), fin()
body(i2):
  {guard}av = arrayload a, i2
  bv = arrayload b, i2
  s = binop add, av, bv
  arraystore c, i2, s
  i3 = binop add, i2, t
  br loop(i3)
fin():
  ret
}}
thread main(8)
""")
    assert validate(p) == []
    f = p.fn_map()["main"]
    assert [cfg.find_induction_var(f, wl) for wl in while_loops(f)] == [None]
    for name in ("loop_vectorize", "guard_motion"):
        p2, report = run_pass(p, name)
        assert report.rewrites == 0 and p2 == p, name


def _counting_loop(header: str, body: str) -> str:
    """A function counting from 0 with loop header `loop(i)` and body block
    `body`, each given by its instructions and terminator."""
    return f"""
fn main(n) {{
b0:
  zero = const 0
  br loop(zero)
loop(i):
  {header}
body():
  {body}
done():
  ret
}}
thread main(3)
"""


#: loops a pass must leave alone, by the test that rejects them: `while` where
#: `match_while_loop` does, `iv` where only `find_induction_var` does
REJECTED_LOOPS = {
    "header-ends-in-br": ("while", _counting_loop(
        "br body()",
        "one = const 1\n  i2 = binop add, i, one\n  c = binop lt, i2, n\n"
        "  condbr c, loop(i2), done()")),
    "two-latches": ("while", _counting_loop(
        "c = binop lt, i, n\n  condbr c, body(), done()",
        "one = const 1\n  i2 = binop add, i, one\n  two = const 2\n  d = binop lt, i, two\n"
        "  condbr d, a(), a2()\na():\n  br loop(i2)\na2():\n  br loop(i2)")),
    "test-by-eq": ("iv", _counting_loop(
        "k = binop lt, i, n\n  t = const true\n  c = binop eq, k, t\n  condbr c, body(), done()",
        "one = const 1\n  i2 = binop add, i, one\n  br loop(i2)")),
    "latch-leaves-the-loop": ("iv", _counting_loop(
        "c = binop lt, i, n\n  condbr c, body(), done()",
        "one = const 1\n  i2 = binop add, i, one\n  seven = const 7\n"
        "  d = binop lt, i2, seven\n  condbr d, loop(i2), done()")),
}


@pytest.mark.parametrize("rejects, text", REJECTED_LOOPS.values(), ids=REJECTED_LOOPS)
def test_a_loop_outside_the_counted_shape_is_rejected(rejects, text):
    p = parse(text)
    assert validate(p) == []
    f = p.fn_map()["main"]
    (loop,) = natural_loops(f)
    assert loop.header == "loop"
    if rejects == "while":
        assert match_while_loop(f, loop) is None and while_loops(f) == ()
    else:
        (wl,) = while_loops(f)
        assert cfg.find_induction_var(f, wl) is None
