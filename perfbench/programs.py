"""Program sources and known answers for the benchmark workloads.

Everything here is plain Python over program text and builder parameters.
The expected answers never call cirlab, so a defect in the code under test
cannot also hide in its own oracle.
"""

from __future__ import annotations

import random

# -- generated two-thread programs ------------------------------------------
#
# Straight-line thread bodies over two shared fields, a thread-local box that
# escape analysis may scalar-replace, and balanced monitor sections. Every
# schedule of such a program terminates, so each sound pass must refine it.

_GEN_HEADER = """
class Shared { fields x, y; }
class Box { fields v; }

fn sink(o) {
e:
  z = const 0
  ret z
}
"""


def _gen_thread(rng: random.Random, name: str, length: int) -> str:
    lines = [f"fn {name}(seed) {{", "e:", "  g = classref Shared"]
    ints = ["seed"]
    box = None
    box_val = None  # a name known to hold the box's current value
    locked = False
    for n in range(length):
        roll = rng.random()
        fld = rng.choice(("x", "y"))
        if roll < 0.14:
            lines.append(f"  c{n} = const {rng.randint(-9, 9)}")
            ints.append(f"c{n}")
        elif roll < 0.30:
            lines.append(f"  r{n} = getfield g, {fld}")
            ints.append(f"r{n}")
        elif roll < 0.44:
            lines.append(f"  putfield g, {fld}, {rng.choice(ints)}")
        elif roll < 0.56:
            lines.append(f"  ok{n} = cas g, {fld}, {rng.choice(ints)}, {rng.choice(ints)}")
        elif roll < 0.66:
            lines.append(f"  output {rng.choice(ints)}")
        elif roll < 0.78 and box is None:
            box, box_val = f"b{n}", rng.choice(ints)
            lines += [f"  {box} = new Box", f"  putfield {box}, v, {box_val}"]
        elif roll < 0.86 and box is not None:
            act = rng.random()
            if act < 0.4 and box_val is not None:
                new_val = rng.choice(ints)
                lines.append(f"  ok{n} = cas {box}, v, {box_val}, {new_val}")
                box_val = new_val
            elif act < 0.8:
                lines.append(f"  t{n} = getfield {box}, v")
                ints.append(f"t{n}")
            else:
                lines.append(f"  s{n} = call sink({box})")
                box_val = None
        elif roll < 0.93 and not locked:
            lines.append("  monitorenter g")
            locked = True
        elif locked:
            lines.append("  monitorexit g")
            locked = False
    if locked:
        lines.append("  monitorexit g")
    lines.append(f"  ret {box}" if box is not None and rng.random() < 0.5 else "  ret")
    lines.append("}")
    return "\n".join(lines)


def generated_program(rng: random.Random, lengths: tuple[int, int] | None = None) -> str:
    """A valid, fault-free two-thread program drawn from `rng`.

    `lengths` fixes how many statements each thread body draws; by default
    each is uniform in [3, 12].
    """
    a, b = lengths or (rng.randint(3, 12), rng.randint(3, 12))
    return "\n".join([
        _GEN_HEADER,
        _gen_thread(rng, "alpha", a),
        _gen_thread(rng, "beta", b),
        f"thread alpha({rng.randint(0, 5)})",
        f"thread beta({rng.randint(0, 5)})",
    ])


# -- unsound rewrites whose refinement check must answer `violates` ---------


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"mutation site {old!r} not unique in program text")
    return text.replace(old, new)


def inject_output(text: str) -> str:
    """The first thread gains an extra `output 99` (the racing-outputs self-test)."""
    return _replace_once(text, "  v = const 1\n  output v\n",
                         "  v = const 1\n  output v\n  bug99 = const 99\n  output bug99\n")


def drop_lock(text: str) -> str:
    """Remove the one monitorenter/monitorexit pair around the loop body."""
    text = _replace_once(text, "  monitorenter g\n", "")
    return _replace_once(text, "  monitorexit g\n", "")


def cas_to_write(text: str) -> str:
    """Turn the contending thread's CAS retry into a plain read-then-write."""
    return _replace_once(text, "  okb = cas g, x, w, nw\n",
                         "  putfield g, x, nw\n  okb = binop eq, w, w\n")


# -- expected outputs, computed from builder parameters ---------------------


def lock_loop_ok(events: tuple[int, ...], iters: int, threads: int) -> bool:
    """Each thread prints the counter once after its own `iters` increments.

    Under any schedule every print is at least `iters`, none exceeds the
    total, and the thread making the last increment prints the total.
    """
    total = threads * iters
    return (len(events) == threads and max(events) == total
            and all(iters <= e <= total for e in events))


def kmeans_sum(points: int) -> int:
    return 3 * points * (points - 1) // 2


def _lcg(seed: int, n: int) -> list[int]:
    out, x = [], seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 65536
        out.append(x)
    return out


def vec_add_outputs(n: int, seed_a: int, seed_b: int) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(_lcg(seed_a, n), _lcg(seed_b, n)))


def histogram_outputs(iters: int) -> tuple[int, ...]:
    """Buckets of f = 2*(2*(i + 3) - 1 + 3) mod 10 over i < iters."""
    hist = [0] * 10
    for i in range(iters):
        hist[(2 * (2 * (i + 3) - 1 + 3)) % 10] += 1
    return tuple(hist)


def coalesce_allowed(start: int) -> set[int]:
    """Outputs of contended coalesce-mini: the +100 lands before, between or after."""
    return {2 * (start + 100 + 1), 2 * (start + 1) + 100, 2 * (start + 1)}
