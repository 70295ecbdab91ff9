"""Built-in benchmark corpus.

Each entry carries a small validated program, the passes it exercises, the
dynamic counter that pass should improve, and a reduced "small" variant
whose schedule space is exhaustively enumerable for refinement checking.

Counters name either a workload metric (synch, atomic, method, object, ...)
or a raw opcode execution count (guard, instanceof, arrayload).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Program
from .parser import parse


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    program: Program
    passes: tuple[str, ...]
    improves: tuple[str, ...]  # counters expected to strictly drop
    small: Program  # exhaustively enumerable variant
    small_budget: int = 4000
    description: str = ""


# -- builders for the parameterized programs --------------------------------


def pea_cas_listing() -> str:
    return """
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


def pea_pub_mini() -> str:
    return """
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


def coarsen_loop(iters: int, threads: int = 1) -> str:
    decls = "\n".join(f"thread worker({iters})" for _ in range(threads))
    return f"""
class Tally {{ fields n; }}

fn worker(iters) {{
entry:
  zero = const 0
  g = classref Tally
  br loop(zero)
loop(i):
  c = binop lt, i, iters
  condbr c, body(i), done()
body(i2):
  monitorenter g
  one = const 1
  v = getfield g, n
  v2 = binop add, v, one
  putfield g, n, v2
  monitorexit g
  i3 = binop add, i2, one
  br loop(i3)
done():
  r = getfield g, n
  output r
  ret
}}

{decls}
"""


def fj_kmeans_mini(points: int = 100) -> str:
    """Lock-heavy accumulation loop: each point folds into a shared sum under
    the collection lock, like parallel k-means assignment updates."""
    return f"""
class Centroid {{ fields acc, cnt; }}

fn accumulate(npoints) {{
entry:
  zero = const 0
  g = classref Centroid
  br loop(zero)
loop(i):
  c = binop lt, i, npoints
  condbr c, body(i), done()
body(i2):
  monitorenter g
  three = const 3
  contrib = binop mul, i2, three
  one = const 1
  a = getfield g, acc
  a2 = binop add, a, contrib
  putfield g, acc, a2
  k = getfield g, cnt
  k2 = binop add, k, one
  putfield g, cnt, k2
  monitorexit g
  i3 = binop add, i2, one
  br loop(i3)
done():
  r = getfield g, acc
  output r
  ret
}}

thread accumulate({points})
"""


def coalesce_mini(start: int = 5, contended: bool = False) -> str:
    second = """
fn bump() {
e:
  g = classref Cell
  br B()
B():
  w = getfield g, x
  hundred = const 100
  nw = binop add, w, hundred
  okb = cas g, x, w, nw
  condbr okb, done(), B()
done():
  ret
}
"""
    threads = "thread main({})\n".format(start)
    if contended:
        threads += "thread bump()\n"
    return f"""
class Cell {{ fields x; }}

fn main(v0) {{
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
  condbr ok2, fin(), L2()
fin():
  r = getfield g, x
  output r
  ret
}}
{second if contended else ""}
{threads}
"""


def rng_double_cas(seed: int = 7) -> str:
    """Shared generator advanced by two fused-able retry loops, plus a local
    scratch object whose CAS disappears entirely under escape analysis."""
    return f"""
class Gen {{ fields s; }}
class Scratch {{ fields v; }}

fn main(seed) {{
entry:
  g = classref Gen
  putfield g, s, seed
  t = new Scratch
  zero = const 0
  putfield t, v, zero
  five = const 5
  okt = cas t, v, zero, five
  br L1()
L1():
  v = getfield g, s
  one = const 1
  nv = binop add, v, one
  ok = cas g, s, v, nv
  condbr ok, L2(), L1()
L2():
  w = getfield g, s
  two = const 2
  nw = binop mul, w, two
  ok2 = cas g, s, w, nw
  condbr ok2, fin(), L2()
fin():
  a = getfield g, s
  b = getfield t, v
  r = binop add, a, b
  output r
  ret
}}

thread main({seed})
"""


def handle_histogram(iters: int = 4) -> str:
    """Five constant-handle callsites map each value onto a bucket before the
    histogram update; all five become direct calls and inline away."""
    return f"""
fn add3(x) {{
e:
  k = const 3
  r = binop add, x, k
  ret r
}}
fn dbl(x) {{
e:
  k = const 2
  r = binop mul, x, k
  ret r
}}
fn dec(x) {{
e:
  k = const 1
  r = binop sub, x, k
  ret r
}}

fn main(iters) {{
entry:
  ten = const 10
  hist = newarray ten
  h1 = handleconst add3
  h2 = handleconst dbl
  h3 = handleconst dec
  zero = const 0
  br loop(zero)
loop(i):
  c = binop lt, i, iters
  condbr c, body(i), dump(zero)
body(i2):
  a = callhandle h1(i2)
  b = callhandle h2(a)
  d = callhandle h3(b)
  e2 = callhandle h1(d)
  f2 = callhandle h2(e2)
  ten2 = const 10
  bucket = binop mod, f2, ten2
  cnt = arrayload hist, bucket
  one = const 1
  cnt2 = binop add, cnt, one
  arraystore hist, bucket, cnt2
  i3 = binop add, i2, one
  br loop(i3)
dump(j):
  ten3 = const 10
  dc = binop lt, j, ten3
  condbr dc, dbody(j), fin()
dbody(j2):
  cv = arrayload hist, j2
  output cv
  done = const 1
  j3 = binop add, j2, done
  br dump(j3)
fin():
  ret
}}

thread main({iters})
"""


def guard_bounds_loop(n: int = 1000, lim: int = 2000) -> str:
    return f"""
fn main(n, lim) {{
entry:
  zero = const 0
  br loop(zero)
loop(i):
  c = binop lt, i, n
  condbr c, body(i), done()
body(i2):
  taken = binop le, zero, i2
  condbr taken, checked(i2), skip(i2)
checked(i3):
  g1 = binop le, zero, i3
  guard g1, lower
  g2 = binop lt, i3, lim
  guard g2, bounds
  br skip(i3)
skip(i4):
  one = const 1
  i5 = binop add, i4, one
  br loop(i5)
done():
  witness = const 1
  output witness
  ret
}}

thread main({n}, {lim})
"""


def vec_add(n: int = 8, seed_a: int = 11, seed_b: int = 23) -> str:
    """Elementwise c[i] = a[i] + b[i] with in-loop bounds guards; arrays are
    filled by a small in-program congruential generator so any (seed, n)
    pair gives a fresh input without changing the program size."""
    return f"""
fn fill(arr, n, seed) {{
entry:
  zero = const 0
  br floop(zero, seed)
floop(i, x):
  c = binop lt, i, n
  condbr c, fbody(i, x), fdone()
fbody(i2, x2):
  mula = const 1103515245
  adda = const 12345
  m = const 65536
  t = binop mul, x2, mula
  t2 = binop add, t, adda
  t3 = binop mod, t2, m
  arraystore arr, i2, t3
  one = const 1
  i3 = binop add, i2, one
  br floop(i3, t3)
fdone():
  z = const 0
  ret z
}}

fn main(n, sa, sb) {{
entry:
  a = newarray n
  b = newarray n
  c = newarray n
  r1 = call fill(a, n, sa)
  r2 = call fill(b, n, sb)
  zero = const 0
  br loop(zero)
loop(i):
  cc = binop lt, i, n
  condbr cc, body(i), dump(zero)
body(i2):
  inb = binop lt, i2, n
  guard inb, bounds
  av = arrayload a, i2
  bv = arrayload b, i2
  s = binop add, av, bv
  arraystore c, i2, s
  one = const 1
  i3 = binop add, i2, one
  br loop(i3)
dump(j):
  dc = binop lt, j, n
  condbr dc, dbody(j), fin()
dbody(j2):
  v = arrayload c, j2
  output v
  done = const 1
  j3 = binop add, j2, done
  br dump(j3)
fin():
  ret
}}

thread main({n}, {seed_a}, {seed_b})
"""


def dup_diamond(select_c: bool = True) -> str:
    return f"""
class C {{ }}
class D {{ }}

fn fa() {{
e:
  v = const 10
  output v
  ret
}}
fn fb() {{
e:
  v = const 20
  output v
  ret
}}
fn fc() {{
e:
  v = const 30
  output v
  ret
}}

fn main(sel) {{
entry:
  one = const 1
  isc = binop eq, sel, one
  condbr isc, mkc(), mkd()
mkc():
  o1 = new C
  br dispatch(o1)
mkd():
  o2 = new D
  br dispatch(o2)
dispatch(x):
  t = instanceof x, C
  condbr t, onc(), ond()
onc():
  call fa()
  br again()
ond():
  call fb()
  br again()
again():
  t2 = instanceof x, C
  condbr t2, onc2(), fin()
onc2():
  call fc()
  br fin()
fin():
  z = const 0
  output z
  ret
}}

thread main({1 if select_c else 0})
"""


def racing_outputs() -> str:
    return """
fn first() {
e:
  v = const 1
  output v
  ret
}
fn second() {
e:
  v = const 2
  output v
  ret
}
thread first()
thread second()
"""


def racing_increment() -> str:
    return """
class G { fields n; }
fn inc() {
e:
  g = classref G
  v = getfield g, n
  one = const 1
  v2 = binop add, v, one
  putfield g, n, v2
  ret
}
fn incout() {
e:
  g = classref G
  v = getfield g, n
  one = const 1
  v2 = binop add, v, one
  putfield g, n, v2
  r = getfield g, n
  output r
  ret
}
thread inc()
thread incout()
"""


def park_handoff() -> str:
    """Permit banking makes this terminate under every schedule: an early
    unpark is remembered, a late one releases the parked thread."""
    return """
class Mail { fields v; }
fn sleeper() {
e:
  m = classref Mail
  seven = const 7
  putfield m, v, seven
  park
  r = getfield m, v
  output r
  ret
}
fn waker() {
e:
  one = const 1
  unpark one
  ret
}
thread sleeper()
thread waker()
"""


def waitnotify_flag() -> str:
    return """
class Sync { fields ready, data; }
fn waiter() {
e:
  s = classref Sync
  monitorenter s
  br chk()
chk():
  f = getfield s, ready
  one = const 1
  done = binop eq, f, one
  condbr done, fin(), slp()
slp():
  wait s
  br chk()
fin():
  d = getfield s, data
  monitorexit s
  output d
  ret
}
fn setter() {
e:
  s = classref Sync
  v = const 42
  one = const 1
  monitorenter s
  putfield s, data, v
  putfield s, ready, one
  notify s
  monitorexit s
  ret
}
thread waiter()
thread setter()
"""


#: publish_pair's publishing step, per store: b reaches `G.ref`, or slot 0 of
#: the array at `G.arr`, which the writer shares first
_PUBLISH = {
    "putfield": "  putfield g, ref, b",
    "cas": "  ok = cas g, ref, zero, b",
    "arraystore": "  a = newarray one\n  putfield g, arr, a\n  arraystore a, zero, b",
}
#: publish_pair's reader, up to `br look(r)` with the box at G.ref (or G.arr[0])
_FETCH = {
    "putfield": "  r = getfield g, ref\n  br look(r)",
    "cas": "  r = getfield g, ref\n  br look(r)",
    "arraystore": ("  a = getfield g, arr\n  na = binop eq, a, zero\n  condbr na, none(), arr()\n"
                   "arr():\n  r = arrayload a, zero\n  br look(r)"),
}


def publish_pair(store: str) -> str:
    """A writer links box c under box b, publishes b with one `store` (putfield,
    cas or arraystore), then writes c; a reader prints c.v through G.ref (or
    G.arr[0]), or -1 before the publication. Only a reader that runs between the
    publication and the last write prints 1, so a search that takes that write
    for a step on a thread-local cell misses the trace [1]."""
    return f"""
class G {{ fields ref, arr; }}
class Box {{ fields v, next; }}
fn writer() {{
e:
  g = classref G
  zero = const 0
  one = const 1
  b = new Box
  c = new Box
  putfield c, v, one
  putfield b, next, c
{_PUBLISH[store]}
  two = const 2
  putfield c, v, two
  ret
}}
fn reader() {{
e:
  g = classref G
  zero = const 0
{_FETCH[store]}
look(p):
  np = binop eq, p, zero
  condbr np, none(), some()
some():
  n = getfield p, next
  x = getfield n, v
  output x
  ret
none():
  m = const -1
  output m
  ret
}}
thread writer()
thread reader()
"""


def private_boxes(iters: int, threads: int = 2) -> str:
    """Threads that each update a box and an array only they can reach, `iters`
    times, then add what they hold to a shared total, unlocked, and print it."""
    decls = "\n".join(f"thread worker({k})" for k in range(1, threads + 1))
    return f"""
class Total {{ fields n; }}
class Box {{ fields v; }}

fn worker(k) {{
e:
  s = classref Total
  zero = const 0
  one = const 1
  two = const 2
  iters = const {iters}
  b = new Box
  a = newarray two
  br loop(zero)
loop(i):
  x = getfield b, v
  y = binop add, x, k
  putfield b, v, y
  y2 = binop add, y, i
  ok = cas b, v, y, y2
  slot = binop mod, i, two
  arraystore a, slot, y2
  w = arrayload a, zero
  i2 = binop add, i, one
  more = binop lt, i2, iters
  condbr more, loop(i2), done(w)
done(last):
  t = getfield b, v
  old = getfield s, n
  sum = binop add, old, t
  sum2 = binop add, sum, last
  putfield s, n, sum2
  output sum2
  ret
}}

{decls}
"""


def corpus() -> list[CorpusEntry]:
    """The named corpus; every program validates and terminates under rr:1."""
    return [
        CorpusEntry(
            "pea-cas-mini", parse(pea_cas_listing()),
            passes=("pea_atomic",), improves=("atomic", "object"),
            small=parse(pea_cas_listing()),
            description="allocate-then-CAS-twice pattern; collapses to one allocation",
        ),
        CorpusEntry(
            "pea-pub-mini", parse(pea_pub_mini()),
            passes=("pea_atomic",), improves=("atomic", "object"),
            small=parse(pea_pub_mini()),
            description="local box with a single CAS and no escape",
        ),
        CorpusEntry(
            "coarsen-mini", parse(coarsen_loop(6)),
            passes=("lock_coarsen",), improves=("synch",),
            small=parse(coarsen_loop(6, threads=2)), small_budget=400,
            description="synchronized-collection loop; lock per iteration",
        ),
        CorpusEntry(
            "fj-kmeans-mini", parse(fj_kmeans_mini(100)),
            passes=("lock_coarsen",), improves=("synch",),
            small=parse(fj_kmeans_mini(5)),
            description="lock-heavy accumulation; the coarsening showcase",
        ),
        CorpusEntry(
            "coalesce-mini", parse(coalesce_mini(5)),
            passes=("atomic_coalesce",), improves=("atomic",),
            small=parse(coalesce_mini(5, contended=True)), small_budget=600,
            description="two adjacent CAS retry loops on one location",
        ),
        CorpusEntry(
            "rng-double-cas", parse(rng_double_cas(7)),
            passes=("pea_atomic", "atomic_coalesce"), improves=("atomic",),
            small=parse(rng_double_cas(7)),
            description="shared generator retry loops plus a scalar-replaceable scratch object",
        ),
        CorpusEntry(
            "handle-histogram", parse(handle_histogram(4)),
            passes=("handle_simplify",), improves=("method",),
            small=parse(handle_histogram(2)),
            description="histogram body mapping values through five constant handles",
        ),
        CorpusEntry(
            "guard-bounds-loop", parse(guard_bounds_loop(1000, 2000)),
            passes=("guard_motion",), improves=("guard",),
            small=parse(guard_bounds_loop(4, 10)),
            description="bounds guards under an always-taken branch inside a loop",
        ),
        CorpusEntry(
            "vec-add", parse(vec_add(8)),
            passes=("guard_motion", "loop_vectorize"), improves=("arrayload",),
            small=parse(vec_add(4)),
            description="elementwise array sum gated by in-loop bounds guards",
        ),
        CorpusEntry(
            "dup-diamond", parse(dup_diamond(True)),
            passes=("dup_simulate",), improves=("instanceof",),
            small=parse(dup_diamond(True)),
            description="repeated instanceof checks across a control-flow merge",
        ),
        CorpusEntry(
            "racing-outputs", parse(racing_outputs()),
            passes=(), improves=(),
            small=parse(racing_outputs()), small_budget=100,
            description="two unsynchronized outputs; the checker self-test",
        ),
        CorpusEntry(
            "racing-increment", parse(racing_increment()),
            passes=(), improves=(),
            small=parse(racing_increment()), small_budget=200,
            description="classic lost-update race on a shared counter",
        ),
        CorpusEntry(
            "waitnotify-flag", parse(waitnotify_flag()),
            passes=(), improves=(),
            small=parse(waitnotify_flag()), small_budget=400,
            description="missed-signal-safe wait/notify handshake",
        ),
        CorpusEntry(
            "park-handoff", parse(park_handoff()),
            passes=(), improves=(),
            small=parse(park_handoff()), small_budget=200,
            description="park/unpark handoff with permit banking",
        ),
    ]


def corpus_entry(name: str) -> CorpusEntry:
    for e in corpus():
        if e.name == name:
            return e
    raise KeyError(f"no corpus program named {name!r}")
