"""Optimization passes: pure Program -> (Program, PassReport) rewrites."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache


@dataclass
class PassReport:
    """What a pass did: total rewrites, per-function notes, and skip reasons.

    Each skipped site is recorded once, with its first reason. `run_pass`
    returns the input program itself when rewrites == 0.
    """

    name: str
    rewrites: int = 0
    details: dict[str, list[str]] = field(default_factory=dict)
    skips: list[tuple[str, str]] = field(default_factory=list)
    before_instrs: int = 0
    after_instrs: int = 0

    def note(self, fn: str, message: str) -> None:
        self.details.setdefault(fn, []).append(message)

    def skip(self, where: str, reason: str) -> None:
        if all(w != where for w, _ in self.skips):
            self.skips.append((where, reason))

    def to_dict(self) -> dict:
        return {
            "pass": self.name,
            "rewrites": self.rewrites,
            "details": self.details,
            "skips": [{"where": w, "reason": r} for w, r in self.skips],
            "beforeInstrs": self.before_instrs,
            "afterInstrs": self.after_instrs,
        }


@dataclass(frozen=True)
class PassOptions:
    chunk: int = 32  # lock-coarsening tile size C
    width: int = 4  # vectorization lane count W
    inline_budget: int = 40  # max callee instruction count for inlining


class UnknownPassError(Exception):
    pass


@cache
def _registry():
    # imported on first use, because the pass modules import this one
    from .pea import pea_atomic
    from .coarsen import lock_coarsen
    from .coalesce import atomic_coalesce
    from .handles import handle_simplify
    from .guards import guard_motion
    from .vectorize import loop_vectorize
    from .dup import dup_simulate

    passes = (pea_atomic, lock_coarsen, atomic_coalesce, handle_simplify,
              guard_motion, loop_vectorize, dup_simulate)
    return {p.__name__: p for p in passes}


PASS_NAMES = (
    "pea_atomic", "lock_coarsen", "atomic_coalesce", "handle_simplify",
    "guard_motion", "loop_vectorize", "dup_simulate",
)


def run_pass(program, name: str, options: PassOptions = PassOptions()):
    """Apply one pass; returns (program, report).

    Each pass is a function (program, options, report) -> program that
    counts its rewrites in the report. When it counts none, the input
    program itself is returned.
    """
    rewrite = _registry().get(name)
    if rewrite is None:
        raise UnknownPassError(f"unknown pass {name!r}; available: {', '.join(PASS_NAMES)}")
    report = PassReport(name, before_instrs=_instr_count(program))
    new_p = rewrite(program, options, report)
    if report.rewrites == 0:
        new_p = program
    report.after_instrs = _instr_count(new_p)
    return new_p, report


def _instr_count(program) -> int:
    return sum(f.instr_count() for f in program.functions)


def pipeline(program, names, options: PassOptions = PassOptions()):
    """Apply passes left to right; returns (program, reports)."""
    reports = []
    for name in names:
        program, report = run_pass(program, name, options)
        reports.append(report)
    return program, reports
