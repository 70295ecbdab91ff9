"""Benchmark harness: the cost of one run, and on/off pass comparison.

"Time" is the interpreter's deterministic cost-unit counter, not wall
clock, so one run under a fixed schedule policy gives the exact cost and
results are reproducible in CI. Warm-up and replicated runs answer
wall-clock noise, which a cost counter does not have; samples measured
outside cirlab go to `stats.welch_t` and `stats.winsorize`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interp import run
from .ir import Program
from .passes import PassOptions, pipeline


def bench(
    program: Program,
    passes: tuple[str, ...] = (),
    options: PassOptions = PassOptions(),
    schedule: str = "rr:1",
    budget: int = 5_000_000,
) -> int:
    """The cost of one run of `program` after `passes`."""
    if passes:
        program, _ = pipeline(program, list(passes), options)
    r = run(program, schedule, budget)
    if r.trace.status != "terminated":
        raise RuntimeError(f"run ended with {r.trace.status}")
    return r.metrics.refcycles


@dataclass(frozen=True)
class BenchReport:
    """On/off comparison for one toggled pass.

    Positive impact means the optimization speeds execution up: the cost
    with the pass disabled exceeds the cost with it enabled.
    """

    benchmark: str
    passes_on: tuple[str, ...]
    passes_off: tuple[str, ...]
    on_cost: int
    off_cost: int
    impact_pct: float

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "passesOn": list(self.passes_on),
            "passesOff": list(self.passes_off),
            "onCost": self.on_cost,
            "offCost": self.off_cost,
            "impactPct": self.impact_pct,
        }


def compare(
    program: Program,
    passes: tuple[str, ...],
    toggle: str,
    options: PassOptions = PassOptions(),
    schedule: str = "rr:1",
    name: str = "program",
) -> BenchReport:
    """Cost of `passes` against the same set with `toggle` disabled."""
    if toggle not in passes:
        raise ValueError(f"toggled pass {toggle!r} is not in the pass set")
    off = tuple(q for q in passes if q != toggle)
    on_cost = bench(program, passes, options, schedule)
    off_cost = bench(program, off, options, schedule)
    return BenchReport(name, passes, off, on_cost, off_cost,
                       (off_cost - on_cost) / on_cost * 100.0)
