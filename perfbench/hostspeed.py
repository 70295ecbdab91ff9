"""Host-speed calibration: a fixed reference workload timed between ops.

The benchmark host is a share of a machine whose other tenants change how
fast it runs, by up to 1.6x over seconds to minutes. That change moves every
wall-clock figure alike, so the run times a fixed piece of pure-Python work
(`reference_work`) between its ops and reports op times in *reference
seconds*: wall seconds scaled by (REF_S / time the reference work took
around that op) ** exponent, with the workload's exponent from EXPONENTS.
On a host where the reference work takes REF_S, reference seconds are wall
seconds.

The reference work imitates the three layers the workloads stress (cloning
and hashing explored states, an opcode dispatch loop, tokenising text), plus
a table too big for the fast caches, because the exploring workload is bound
by memory more than the others. It shares no code with cirlab, so a change
to cirlab cannot move it. It runs with the garbage collector paused, so that
the size of the heap the op left behind does not leak into it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: time of one `reference_work()` on the reference host, in seconds
REF_S = 0.025
#: take a calibration sample once this much op time has passed since the last
SAMPLE_EVERY_S = 0.25
#: op time moves as (reference time) ** exponent when the host changes speed.
#: The execute and optimize ops move with the reference work; verify ops,
#: which are bound by memory more, move less (see README.md).
EXPONENTS = {"verify": 0.7, "execute": 1.0, "optimize": 1.0}

_EXPECTED = None  # checksum of the first call; every later call must repeat it


class _State:
    __slots__ = ("pcs", "regs", "heap")

    def __init__(self, pcs, regs, heap):
        self.pcs, self.regs, self.heap = pcs, regs, heap

    def clone(self) -> "_State":
        return _State(list(self.pcs), dict(self.regs), [dict(o) for o in self.heap])

    def key(self):
        return (tuple(self.pcs), tuple(sorted(self.regs.items())),
                tuple(tuple(sorted(o.items())) for o in self.heap))


def _explore(steps: int) -> int:
    """Depth-first walk of two threads of `steps` steps updating shared slots."""
    start = _State([0, 0], {f"r{i}": i for i in range(6)}, [{"x": i, "y": -i} for i in range(6)])
    seen, stack = set(), [start]
    while stack:
        s = stack.pop()
        for t in (0, 1):
            if s.pcs[t] >= steps:
                continue
            c = s.clone()
            c.pcs[t] += 1
            slot = c.heap[(c.pcs[t] * (t + 2)) % 6]
            slot["x" if t else "y"] += c.regs[f"r{c.pcs[t] % 6}"]
            k = c.key()
            if k not in seen:
                seen.add(k)
                stack.append(c)
    return len(seen)


_CODE = (("const", "a", 1), ("const", "n", 0), ("add", "n", "a"), ("mul", "b", "n"),
         ("mod", "b", 7), ("add", "s", "b"), ("lt", "c", "n"), ("jmpif", "c", 2), ("ret", "s"))


def _interpret(limit: int) -> int:
    """An opcode dispatch loop over a dict of registers."""
    regs = {"a": 0, "b": 0, "c": 0, "n": 0, "s": 0}
    pc = 0
    while True:
        op, dst, src = _CODE[pc] if len(_CODE[pc]) == 3 else (*_CODE[pc], None)
        pc += 1
        if op == "const":
            regs[dst] = src
        elif op == "add":
            regs[dst] = regs[dst] + regs[src]
        elif op == "mul":
            regs[dst] = regs["n"] * regs[src]
        elif op == "mod":
            regs[dst] = regs[dst] % src
        elif op == "lt":
            regs[dst] = regs["n"] < limit
        elif op == "jmpif":
            if regs[dst]:
                pc = src
        else:
            return regs[dst]


_TEXT = "\n".join(f"  v{i} = binop add, v{i - 1}, c{i % 5}  ; line {i}" for i in range(1, 60))


def _tokenise(rounds: int) -> int:
    """Split and classify the words of a fixed listing."""
    total = 0
    for _ in range(rounds):
        for line in _TEXT.splitlines():
            code = line.split(";", 1)[0].strip()
            dst, rhs = (p.strip() for p in code.split("=", 1))
            opname, _, args = rhs.partition(" ")
            ops = tuple(a.strip() for a in args.split(","))
            total += len(dst) + len(opname) + sum(a.startswith("v") for a in ops)
    return total


def _table(entries: int) -> int:
    """Fill a dict larger than the fast caches, then read it at random."""
    table = {(i, i % 97, "f"): [i, -i] for i in range(entries)}
    keys = list(table)
    x, total = 1, 0
    for _ in range(entries):
        x = (x * 1103515245 + 12345) % 2147483648
        total += table[keys[x % entries]][0]
    return total


def reference_work() -> tuple[int, int, int, int]:
    return _explore(14), _interpret(3000), _tokenise(12), _table(8000)


def sample() -> float:
    """Seconds one `reference_work()` takes now."""
    global _EXPECTED
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out = reference_work()
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if _EXPECTED is None:
        _EXPECTED = out
    elif out != _EXPECTED:
        raise RuntimeError(f"reference work gave {out}, not {_EXPECTED}")
    return dt


class Normaliser:
    """Converts op wall times to reference seconds as the run goes.

    Ops are timed in batches of at least SAMPLE_EVERY_S of op time, with one
    sample of the reference work between batches. A batch is scaled by the
    mean of the NEIGHBOURS samples on each side of it, so that one disturbed
    sample moves few ops.
    """

    NEIGHBOURS = 3

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.samples = [sample()]  # samples[b] precedes batches[b]
        self.batches: list[list[float]] = [[]]

    def add(self, dt: float) -> None:
        self.batches[-1].append(dt)
        if sum(self.batches[-1]) >= SAMPLE_EVERY_S:
            self.samples.append(sample())
            self.batches.append([])

    def times(self) -> list[float]:
        """Every op time added so far, in reference seconds, in order."""
        if self.batches[-1]:
            self.samples.append(sample())
            self.batches.append([])
        k = self.NEIGHBOURS
        out = []
        for b, batch in enumerate(self.batches[:-1]):
            before = self.samples[max(0, b + 1 - k):b + 1]
            after = self.samples[b + 1:b + 1 + k]
            scale = host_scale((statistics.fmean(before) + statistics.fmean(after)) / 2,
                               self.exponent)
            out += [dt * scale for dt in batch]
        return out


def normalised(fn, exponent: float):
    """(fn(), its wall time, its time in reference seconds)."""
    before = sample() + sample()
    t0 = perf_counter()
    out = fn()
    dt = perf_counter() - t0
    after = sample() + sample()
    return out, dt, dt * host_scale((before + after) / 4, exponent)


def host_scale(ref_time: float, exponent: float) -> float:
    """Factor from wall seconds to reference seconds, given the reference work's time."""
    return (REF_S / ref_time) ** exponent
