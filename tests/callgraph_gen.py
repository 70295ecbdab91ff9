"""A seeded generator of call-graph programs, for the passes that read the
call graph and for `tools/pass_sweep.py`.

Each program has three to six helpers `h0`.. and two threads. A helper
takes a value and a depth, does one pure, impure (reads the shared cell,
writes its `y` or outputs) or blocking (a monitor region) step, and calls
up to two other helpers: a later one straight away (a call chain), an
earlier one or itself only while its depth is above zero, passing the depth
down by one (self and mutual recursion that always ends). Each thread calls
a helper through a handle constant carried through block parameters that
agree or disagree, may run two adjacent CAS retry loops and a counted
monitor loop that call helpers, and may carry a handle around a loop. All
monitor regions lock the one shared cell, so no schedule deadlocks.
"""

import random

HEADER = "class Cell { fields x, y; }\n"


class _Names:
    def __init__(self):
        self.n = 0

    def __call__(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"


def _helper(rng: random.Random, i: int, count: int) -> str:
    fresh = _Names()
    lines = [f"fn h{i}(a, d) {{", "e:"]
    kind = rng.choice(("pure", "pure", "read", "write", "output", "blocking"))
    r = fresh("r")
    if kind == "pure":
        k = fresh("k")
        lines += [f"  {k} = const {rng.randint(1, 5)}",
                  f"  {r} = binop {rng.choice(('add', 'sub'))}, a, {k}"]
    else:
        g = fresh("g")
        lines.append(f"  {g} = classref Cell")
        if kind == "read":
            v = fresh("v")
            lines += [f"  {v} = getfield {g}, {rng.choice('xy')}", f"  {r} = binop add, a, {v}"]
        elif kind == "blocking":
            v = fresh("v")
            lines += [f"  monitorenter {g}", f"  {v} = getfield {g}, x", f"  monitorexit {g}",
                      f"  {r} = binop sub, a, {v}"]
        else:
            k = fresh("k")
            lines += [f"  {k} = const 1", f"  {r} = binop add, a, {k}"]
            # a retry loop on x that calls a helper writing x would never succeed
            lines.append(f"  putfield {g}, y, {r}" if kind == "write" else f"  output {r}")
    callees = rng.sample(range(count), rng.choice((0, 1, 1, 2)))
    for j in sorted(c for c in callees if c > i):  # a call chain
        r2 = fresh("r")
        lines.append(f"  {r2} = call h{j}({r}, d)")
        r = r2
    back = [c for c in callees if c <= i]
    if not back:
        lines += [f"  ret {r}", "}"]
        return "\n".join(lines)
    zero, more, one, d2, r2 = (fresh(p) for p in ("zero", "more", "one", "d", "r"))
    lines += [f"  {zero} = const 0", f"  {more} = binop lt, {zero}, d",
              f"  condbr {more}, rec(), base()",
              "rec():", f"  {one} = const 1", f"  {d2} = binop sub, d, {one}",
              f"  {r2} = call h{back[0]}({r}, {d2})", f"  ret {r2}",
              "base():", f"  ret {r}", "}"]
    return "\n".join(lines)


def _thread(rng: random.Random, name: str, count: int) -> str:
    fresh = _Names()
    helper = lambda: f"h{rng.randrange(count)}"  # noqa: E731
    g, zero, d = "g", "zero", "d"
    lines = [f"fn {name}(seed) {{", "entry:", f"  {g} = classref Cell", f"  {zero} = const 0",
             f"  {d} = const {rng.randint(0, 2)}"]

    # a handle constant through block parameters that agree, or may not
    h1, h2, lim, c = fresh("h"), fresh("h"), fresh("lim"), fresh("c")
    p, q, hh, v = fresh("p"), fresh("q"), fresh("hh"), fresh("v")
    other = h1 if rng.random() < 0.6 else h2
    lines += [f"  {h1} = handleconst {helper()}", f"  {h2} = handleconst {helper()}",
              f"  {lim} = const {rng.randint(0, 5)}", f"  {c} = binop lt, seed, {lim}",
              f"  condbr {c}, left({h1}), right({other})",
              f"left({p}):", f"  br join({p})",
              f"right({q}):", f"  br join({q})",
              f"join({hh}):", f"  {v} = callhandle {hh}(seed, {d})", f"  output {v}"]
    if rng.random() < 0.7:  # two adjacent CAS retry loops on the cell
        lines.append("  br cas1()")
        for loop, after in (("cas1", "cas2"), ("cas2", "cas_done")):
            r, n, ok = fresh("r"), fresh("n"), fresh("ok")
            lines += [f"{loop}():", f"  {r} = getfield {g}, x",
                      f"  {n} = call {helper()}({r}, {d})",
                      f"  {ok} = cas {g}, x, {r}, {n}", f"  condbr {ok}, {after}(), {loop}()"]
        lines.append("cas_done():")
    if rng.random() < 0.7:  # a counted loop around a monitor region
        iters, i, i2, i3, one = fresh("iters"), fresh("i"), fresh("i"), fresh("i"), fresh("one")
        r, w, c2 = fresh("r"), fresh("w"), fresh("c")
        lines += [f"  {iters} = const {rng.randint(1, 3)}", f"  br mloop({zero})",
                  f"mloop({i}):", f"  {c2} = binop lt, {i}, {iters}",
                  f"  condbr {c2}, mbody({i}), mdone()",
                  f"mbody({i2}):", f"  monitorenter {g}", f"  {r} = getfield {g}, x",
                  f"  {w} = call {helper()}({r}, {d})", f"  putfield {g}, x, {w}",
                  f"  monitorexit {g}", f"  {one} = const 1", f"  {i3} = binop add, {i2}, {one}",
                  f"  br mloop({i3})", "mdone():"]
    if rng.random() < 0.3:  # a handle carried around a loop stays dynamic
        j, j2, j3, hl, hb, one, c3, two, u = (fresh(x) for x in (
            "j", "j", "j", "hl", "hb", "one", "c", "two", "u"))
        lines += [f"  {two} = const 2", f"  br hloop({zero}, {h1})",
                  f"hloop({j}, {hl}):", f"  {c3} = binop lt, {j}, {two}",
                  f"  condbr {c3}, hbody({j}, {hl}), hdone()",
                  f"hbody({j2}, {hb}):", f"  {u} = callhandle {hb}({j2}, {zero})", f"  output {u}",
                  f"  {one} = const 1", f"  {j3} = binop add, {j2}, {one}",
                  f"  br hloop({j3}, {hb})", "hdone():"]
    out = fresh("out")
    lines += [f"  {out} = getfield {g}, x", f"  output {out}", "  ret", "}"]
    return "\n".join(lines)


def gen_callgraph_program(seed: int) -> str:
    rng = random.Random(seed)
    count = rng.randint(3, 6)
    return "\n".join(
        [HEADER]
        + [_helper(rng, i, count) for i in range(count)]
        + [_thread(rng, "t0", count), _thread(rng, "t1", count),
           f"thread t0({rng.randint(0, 5)})", f"thread t1({rng.randint(0, 5)})"]
    )
