import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import cirlab
from cirlab.interp import run
from cirlab.ir import format_instr, print_program
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, pipeline, run_pass
from cirlab.passes.util import static_op_count
from cirlab.scheduler import check_refinement
from cirlab.validate import validate

# transliteration of the allocate-then-CAS-twice pattern:
#   o = new A(v); CAS(o.x, v, new B(v2)); CAS(o.x.y, v2, v3); return o.x
PEA_CAS = """
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

fn main() {
b0:
  r = call make()
  out = getfield r, y
  output out
  ret
}

thread main()
"""

PEA_PUB = """
class Box { fields val; }

fn main() {
b0:
  z = const 0
  one = const 1
  bx = new Box
  putfield bx, val, z
  ok = cas bx, val, z, one
  r = getfield bx, val
  output r
  ret
}

thread main()
"""


def test_golden_listing_reduces_to_single_b_allocation():
    p = parse(PEA_CAS)
    p2, report = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    make = p2.fn_map()["make"]
    news = [i for b in make.blocks for i in b.instrs if i.op == "new"]
    assert len(news) == 1
    assert news[0].cls == "B"
    assert static_op_count(p2, "cas") == 0
    # the surviving body is: const v3, new B, putfield y=v3, ret
    assert make.instr_count() == 4
    assert run(p).trace == run(p2).trace
    assert report.rewrites > 0


def test_pub_mini_removes_allocation_and_cas():
    p = parse(PEA_PUB)
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert static_op_count(p2, "new") == 0
    assert static_op_count(p2, "cas") == 0
    before, after = run(p), run(p2)
    assert before.trace == after.trace == after.trace
    assert before.metrics.atomic == 1
    assert after.metrics.atomic == 0
    assert before.metrics.object == 1
    assert after.metrics.object == 0


def test_allocation_immediately_returned_is_unchanged():
    text = """
    class A { fields x; }
    fn make() {
    b0:
      o = new A
      ret o
    }
    fn main() {
    b0:
      r = call make()
      z = const 0
      output z
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, _ = run_pass(p, "pea_atomic")
    assert p2.fn_map()["make"] == p.fn_map()["make"]


def test_allocation_is_sunk_to_escape_point():
    text = """
    class A { fields x; }
    fn make(v) {
    b0:
      o = new A
      putfield o, x, v
      k = const 3
      ret o
    }
    fn main() {
    b0:
      five = const 5
      r = call make(five)
      out = getfield r, x
      output out
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert run(p).trace == run(p2).trace
    make = p2.fn_map()["make"]
    ops = [i.op for i in make.blocks[0].instrs]
    # allocation moved to just before the return, initialized by a plain write
    assert ops[-2:] == ["new", "putfield"]


def test_loop_carried_virtual_state_is_left_alone():
    # retry loop on a local object: folding would need merge-point state
    text = """
    class Cell { fields x; }
    fn main(v0) {
    b0:
      c = new Cell
      putfield c, x, v0
      br L()
    L():
      v = getfield c, x
      one = const 1
      nv = binop add, v, one
      ok = cas c, x, v, nv
      condbr ok, done(), L()
    done():
      r = getfield c, x
      output r
      ret
    }
    thread main(5)
    """
    p = parse(text)
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert run(p).trace == run(p2).trace == run(p2).trace
    assert run(p2).trace.events == (6,)


def test_escape_through_branch_then_merge_is_conservative():
    text = """
    class A { fields x; }
    fn sink(o) {
    e:
      z = const 0
      ret z
    }
    fn main(sel) {
    b0:
      one = const 1
      o = new A
      c = binop eq, sel, one
      condbr c, esc(), keep()
    esc():
      r = call sink(o)
      br merge()
    keep():
      br merge()
    merge():
      t = getfield o, x
      output t
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    for sel in (0, 1):
        src = text.replace("thread main(1)", f"thread main({sel})")
        a, b = parse(src), run_pass(parse(src), "pea_atomic")[0]
        assert run(a).trace == run(b).trace


def test_idempotent_on_golden_programs():
    for text in (PEA_CAS, PEA_PUB):
        p1, _ = run_pass(parse(text), "pea_atomic")
        p2, rep2 = run_pass(p1, "pea_atomic")
        assert p1 == p2


def test_object_published_on_both_returning_arms_gets_one_name_per_point():
    text = """
    class A { fields x; }
    class G { fields ref; }
    fn main(sel) {
    b0:
      o = new A
      five = const 5
      putfield o, x, five
      one = const 1
      c = binop eq, sel, one
      condbr c, left(), right()
    left():
      g = classref G
      putfield g, ref, o
      r = getfield g, ref
      v = getfield r, x
      output v
      ret
    right():
      g2 = classref G
      putfield g2, ref, o
      ret
    }
    thread main(1)
    """
    p = parse(text)
    p2, report = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    blocks = p2.fn_map()["main"].block_map()
    assert [format_instr(i) for i in blocks["left"].instrs[1:4]] == [
        "o_m2 = new A", "putfield o_m2, x, five", "putfield g, ref, o_m2"]
    assert [format_instr(i) for i in blocks["right"].instrs[1:4]] == [
        "o_m1 = new A", "putfield o_m1, x, five", "putfield g2, ref, o_m1"]
    assert report.details["main"] == [
        "allocations eliminated 0, delayed 1, cas folded 0, reads folded 0, writes folded 1"]
    assert run(p2).trace == run(p).trace
    assert run(p2).trace.events == (5,)


def test_instanceof_on_a_virtual_object_folds_to_a_constant():
    text = """
    class A { fields x; }
    class B extends A { fields y; }
    class C { fields z; }
    fn main() {
    b0:
      o = new B
      t = instanceof o, A
      f = instanceof o, C
      condbr t, other(), no()
    other():
      condbr f, no(), yes()
    yes():
      one = const 1
      output one
      ret
    no():
      zero = const 0
      output zero
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, report = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert [format_instr(i) for i in p2.fn_map()["main"].blocks[0].instrs] == [
        "t = const true", "f = const false"]
    assert report.rewrites == 3  # one virtualized, two folded
    assert run(p2).trace == run(p).trace
    assert run(p2).trace.events == (1,)


# a read folded from a virtual field is published in b0; b1 writes the object
FOLDED_READ_PUBLISHED = """
class A { fields x; }
class B { fields y; }
class G { fields ref; }
fn main() {
b0:
  o = new A
  b = new B
  putfield o, x, b
  t = getfield o, x
  g = classref G
  putfield g, ref, t
  br b1()
b1:
  seven = const 7
  putfield b, y, seven
  g2 = classref G
  r = getfield g2, ref
  v = getfield r, y
  output v
  ret
}
thread main()
"""

# the same without A: b escapes in b0 and is written again in b1
PUBLISHED_THEN_WRITTEN = """
class B { fields y; }
class G { fields ref; }
fn main() {
b0:
  b = new B
  g = classref G
  putfield g, ref, b
  br b1()
b1:
  seven = const 7
  putfield b, y, seven
  g2 = classref G
  r = getfield g2, ref
  v = getfield r, y
  output v
  ret
}
thread main()
"""


def test_read_folded_in_one_block_escapes_before_a_later_block_writes():
    p = parse(FOLDED_READ_PUBLISHED)
    p2, report = run_pass(p, "pea_atomic")
    assert report.rewrites > 0
    assert validate(p2) == []
    assert run(p).trace.events == run(p2).trace.events == (7,)
    assert check_refinement(p, p2).kind == "refines"


def test_object_escaped_in_an_earlier_block_keeps_its_name():
    p = parse(PUBLISHED_THEN_WRITTEN)
    p2, report = run_pass(p, "pea_atomic")
    assert report.rewrites > 0
    assert validate(p2) == []
    text = print_program(p2)
    assert "@" not in text
    assert parse(text) == p2
    assert run(p2).trace.events == (7,)


def test_virtual_objects_pointing_at_each_other_are_allocated_before_linked():
    text = """
    class Box { fields w, n; }
    class G { fields ref; }
    fn main() {
    b0:
      one = const 1
      two = const 2
      a = new Box
      b = new Box
      putfield a, n, one
      putfield b, n, two
      putfield a, w, b
      putfield b, w, a
      g = classref G
      putfield g, ref, a
      r = getfield g, ref
      s = getfield r, w
      t = getfield s, w
      sn = getfield s, n
      tn = getfield t, n
      output sn
      output tn
      ret
    }
    thread main()
    """
    p = parse(text)
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert [format_instr(i) for i in p2.fn_map()["main"].blocks[0].instrs[3:9]] == [
        "a = new Box", "b = new Box", "putfield b, w, a", "putfield b, n, two",
        "putfield a, w, b", "putfield a, n, one"]
    assert run(p).trace.events == run(p2).trace.events == (2, 1)


GEN_HEADER = """
class Box { fields v, nx; }
class G { fields ref; }

fn sink(o) {
e:
  x = getfield o, v
  ret x
}
"""


def gen_multiblock_program(seed: int) -> str:
    """A single-thread program of block chains and diamonds over local boxes.

    It allocates boxes, writes ints and boxes into their fields (sometimes
    linking two boxes both ways), reads and CASes them, tests them with
    `instanceof`, publishes them to `G.ref` and passes them to `sink`.
    Every `Box` gets its int field `v` written where it is allocated, and
    `nx` is read only from a box whose `nx` a dominating block wrote, so
    the program never faults. A name defined in a diamond arm is used only
    in that arm; a merge block may take one int or box parameter. `G.ref`
    starts as a published box, and the last block reads back whatever box
    it holds by then.
    """
    rng = random.Random(seed)
    lines = ["fn main(seed) {", "b0:", "  g0 = classref G", "  init = new Box",
             "  putfield init, v, seed", "  putfield g0, ref, init"]
    n = 0

    def fresh(prefix: str) -> str:
        nonlocal n
        n += 1
        return f"{prefix}{n}"

    def stmt(ints: list, objs: list, linked: set, conds: list) -> None:
        roll = rng.random()
        o = rng.choice(objs[-2:] if rng.random() < 0.7 else objs)
        if roll < 0.12:
            c = fresh("c")
            lines.append(f"  {c} = const {rng.randint(-9, 9)}")
            ints.append(c)
        elif roll < 0.27:
            b = fresh("o")
            lines.extend([f"  {b} = new Box", f"  putfield {b}, v, {rng.choice(ints)}"])
            if rng.random() < 0.3:  # link it and `o` both ways: a cycle
                lines.extend([f"  putfield {b}, nx, {o}", f"  putfield {o}, nx, {b}"])
                linked.update((b, o))
            objs.append(b)
        elif roll < 0.37:
            lines.append(f"  putfield {o}, v, {rng.choice(ints)}")
        elif roll < 0.46:
            lines.append(f"  putfield {o}, nx, {rng.choice(objs[-2:])}")
            linked.add(o)
        elif roll < 0.58:
            r = fresh("r")
            lines.append(f"  {r} = getfield {o}, v")
            ints.append(r)
        elif roll < 0.64 and o in linked:
            q = fresh("q")
            lines.append(f"  {q} = getfield {o}, nx")
            objs.append(q)
        elif roll < 0.72:
            ok = fresh("ok")
            lines.append(f"  {ok} = cas {o}, v, {rng.choice(ints)}, {rng.choice(ints)}")
            conds.append(ok)
        elif roll < 0.76 and o in linked:
            ok = fresh("ok")
            lines.append(f"  {ok} = cas {o}, nx, {rng.choice(objs)}, {rng.choice(objs)}")
            conds.append(ok)
        elif roll < 0.78:
            t = fresh("t")
            lines.append(f"  {t} = instanceof {o}, Box")
            conds.append(t)
        elif roll < 0.85:
            g = fresh("g")
            lines.extend([f"  {g} = classref G", f"  putfield {g}, ref, {o}"])
        elif roll < 0.91:
            s = fresh("s")
            lines.extend([f"  {s} = call sink({o})", f"  output {s}"])
        else:
            lines.append(f"  output {rng.choice(ints)}")

    def stmts(ints: list, objs: list, linked: set, conds: list, k: int) -> None:
        for _ in range(k):
            stmt(ints, objs, linked, conds)

    def segments(ints: list, objs: list, linked: set, conds: list, depth: int) -> None:
        for _ in range(rng.randint(1, 3)):
            if depth > 1 or rng.random() < 0.4:  # a chain edge
                nxt = fresh("L")
                lines.extend([f"  br {nxt}()", f"{nxt}():"])
                stmts(ints, objs, linked, conds, rng.randint(0, 4))
                continue
            if conds and rng.random() < 0.6:
                c = rng.choice(conds)
            else:
                c = fresh("lt")
                lines.append(f"  {c} = binop lt, {rng.choice(ints)}, {rng.choice(ints)}")
            left, right, merge = fresh("T"), fresh("F"), fresh("M")
            param_kind = rng.choice((None, None, "int", "obj"))
            param = fresh("m") if param_kind else None
            lines.append(f"  condbr {c}, {left}(), {right}()")
            for arm in (left, right):
                arm_ints, arm_objs, arm_linked = list(ints), list(objs), set(linked)
                lines.append(f"{arm}():")
                stmts(arm_ints, arm_objs, arm_linked, list(conds), rng.randint(0, 4))
                if rng.random() < 0.3:
                    segments(arm_ints, arm_objs, arm_linked, list(conds), depth + 1)
                arg = ""
                if param_kind:
                    arg = rng.choice(arm_ints if param_kind == "int" else arm_objs)
                lines.append(f"  br {merge}({arg})")
            lines.append(f"{merge}({param or ''}):")
            if param_kind:
                (ints if param_kind == "int" else objs).append(param)
            stmts(ints, objs, linked, conds, rng.randint(0, 3))

    ints, objs, linked, conds = ["seed"], ["init"], set(), []
    stmts(ints, objs, linked, conds, rng.randint(1, 5))
    segments(ints, objs, linked, conds, 0)
    lines += ["  gr = classref G", "  back = getfield gr, ref", "  bv = getfield back, v",
              "  output bv", "  ret", "}"]
    return "\n".join([GEN_HEADER, *lines, f"thread main({rng.randint(-3, 3)})"])


@cache
def _multiblock_input(seed: int):
    """The multi-block program of `seed`, checked valid, and its trace."""
    p = parse(gen_multiblock_program(seed))
    assert validate(p) == [], seed
    return p, run(p).trace


@pytest.mark.parametrize("names", [(n,) for n in PASS_NAMES] + [PASS_NAMES],
                         ids=[*PASS_NAMES, "pipeline"])
def test_multiblock_programs_keep_their_output(names):
    rewritten = 0
    for seed in range(200):
        p, trace = _multiblock_input(seed)
        p2, reports = pipeline(p, names)
        rewritten += any(r.rewrites for r in reports)
        assert validate(p2) == [], seed
        assert parse(print_program(p2)) == p2, seed
        assert run(p2).trace == trace, seed
    if names == ("pea_atomic",):
        assert rewritten >= 150  # the generator must exercise the pass


def test_output_does_not_depend_on_string_hashing():
    # two allocations of this program conflict at the same merge; which one
    # is blacklisted first must not follow the order of a set of names
    script = ("import sys\n"
              "from cirlab.ir import print_program\n"
              "from cirlab.parser import parse\n"
              "from cirlab.passes import run_pass\n"
              "print(print_program(run_pass(parse(sys.stdin.read()), 'pea_atomic')[0]))\n")
    src = str(Path(cirlab.__file__).resolve().parent.parent)
    outputs = {
        subprocess.run([sys.executable, "-c", script], input=gen_multiblock_program(49),
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(h)},
                       capture_output=True, text=True, check=True).stdout
        for h in range(4)
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("stored, expected", [("1", "true"), ("0", "false")])
def test_a_cas_of_a_virtual_object_never_finds_an_int_equal_to_a_bool(stored, expected):
    # the interpreter's `cas` compares as `ir.values_equal`, where Python's
    # `1 == True` and `0 == False` do not hold, so this CAS fails
    p = parse(f"""
class Box {{ fields v; }}
fn main() {{
b0:
  bx = new Box
  s = const {stored}
  putfield bx, v, s
  e = const {expected}
  two = const 2
  ok = cas bx, v, e, two
  r = getfield bx, v
  output r
  ret
}}
thread main()
""")
    p2, _ = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert run(p).trace.events == run(p2).trace.events == (int(stored),)
    assert check_refinement(p, p2).kind == "refines"


def test_reading_a_never_written_field_materializes_the_virtual_object():
    p = parse("""
class Box { fields v, w; }
fn main() {
b0:
  bx = new Box
  one = const 1
  putfield bx, w, one
  r = getfield bx, v
  output r
  ret
}
thread main()
""")
    p2, report = run_pass(p, "pea_atomic")
    assert validate(p2) == []
    assert report.details["main"] == [
        "allocations eliminated 0, delayed 1, cas folded 0, reads folded 0, writes folded 1"]
    assert static_op_count(p2, "new") == static_op_count(p2, "getfield") == 1
    assert run(p2).trace.events == (0,)
    assert check_refinement(p, p2).kind == "refines"
