"""Exhaustive thread-interleaving exploration and the refinement check.

`enumerate_results` walks runnable-thread choices depth-first, memoizing the
set of trace suffixes producible from each canonical machine state, so
interleavings that converge on the same state are explored once. The result
is the set R of observable results (output sequence + termination status).

Without a preemption bound, a state where some enabled thread's next step is
local (`Machine.next_is_local`) expands only the lowest such thread: an ample
set of one (Godefroid, *Partial-Order Methods*, LNCS 1032, 1996). A local
step commutes with every step of every other thread, so the orders it skips
reach the same results. The contract against the unreduced search:

- a fully enumerated search (`exhausted`) gives exactly the same traces;
- a search cut by the step budget gives the same `terminated` and `deadlock`
  traces and the same `exhausted` flag, but its `deopt` and
  `step-budget-exhausted` traces can be strict subsets: local steps run
  first, so they can push a failing guard, or a prefix, past the budget.

Verdicts cannot change, since `check_refinement` compares only terminated
traces. Preemption-bounded searches keep full branching.

`check_refinement` decides whether a transformed program can only produce
results the original could: every terminated trace of the transformed
program must appear in the original's set. Deopt traces are excluded here;
guard soundness is covered separately by the guard-implication property.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .interp import Machine, ResultTrace
from .ir import Program

#: suffix entry: (events-tuple, status, reason)
_Suffix = tuple[tuple[int, ...], str, str | None]


@dataclass(frozen=True)
class ResultSet:
    """The set R over all schedules; `exhausted` means enumeration completed.

    When `exhausted` is False (step budget or state ceiling hit, or the
    preemption bound ruled out a context switch) `traces` holds the results
    found within the bounds, and any subset claim is only "bounded", never
    proved. `memo_hits` counts the states whose results came from the memo
    instead of being explored again.
    """

    traces: frozenset[ResultTrace]
    exhausted: bool
    states_explored: int
    memo_hits: int

    def terminated(self) -> frozenset[ResultTrace]:
        return frozenset(t for t in self.traces if t.status == "terminated")


class _Explorer:
    def __init__(self, preemption_bound: int | None, max_states: int):
        self.pbound = preemption_bound
        self.max_states = max_states
        self.memo: dict[object, frozenset[_Suffix]] = {}
        self.seen: set[object] = set()
        self.states = 0  # distinct canonical states expanded
        self.memo_hits = 0
        self.ceiling_hit = False
        self.bound_hit = False  # the preemption bound removed a choice

    def explore(self, m: Machine, rem: int, last: int, preempts: int
                ) -> tuple[frozenset[_Suffix], bool]:
        """(suffix set from this state, True iff no path hit the step budget or ceiling).

        Once the state ceiling is hit no state is expanded further, so the
        suffix sets returned from then on hold only what was already found.
        """
        if m.status is not None:
            return frozenset({((), m.status, m.reason)}), True
        enabled = m.enabled_threads()
        if not enabled:
            status = "deadlock" if m.alive() else "terminated"
            return frozenset({((), status, None)}), True
        if rem <= 0:
            return frozenset({((), "step-budget-exhausted", None)}), False
        if self.ceiling_hit:
            return frozenset(), False

        key = (m.canon_key(), last, preempts) if self.pbound is not None else m.canon_key()
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit, True
        if key not in self.seen:
            if self.states >= self.max_states:
                self.ceiling_hit = True
                return frozenset(), False
            self.states += 1
            self.seen.add(key)

        choices = enabled
        if self.pbound is None:
            if len(enabled) > 1:  # an ample set of one; see the module docstring
                local = next((tid for tid in enabled if m.next_is_local(tid)), None)
                if local is not None:
                    choices = [local]
        elif last in enabled and preempts >= self.pbound:
            choices = [last]
            self.bound_hit = self.bound_hit or len(enabled) > 1

        out: set[_Suffix] = set()
        complete = True
        for tid in choices:
            child = m.clone()
            emitted = tuple(child.step(tid))
            p2 = preempts
            if self.pbound is not None and last != 0 and tid != last and last in enabled:
                p2 += 1
            suffixes, ok = self.explore(child, rem - 1, tid, p2)
            complete = complete and ok
            for ev, status, reason in suffixes:
                out.add((emitted + ev, status, reason))
        result = frozenset(out)
        if complete:
            self.memo[key] = result
        return result, complete


def enumerate_results(
    program: Program,
    step_budget: int = 10_000,
    preemption_bound: int | None = None,
    max_states: int = 2_000_000,
) -> ResultSet:
    """Compute R(program) by DFS over all schedules, up to the given bounds.

    The result is `exhausted` only if no path hit the step budget or the
    state ceiling and the preemption bound removed no choice.
    """
    if len(program.threads) > 4:
        raise ValueError("enumeration supports at most 4 threads")
    if step_budget < 1:
        raise ValueError(f"step budget must be at least 1, got {step_budget}")
    if max_states < 1:
        raise ValueError(f"state ceiling must be at least 1, got {max_states}")
    if preemption_bound is not None and preemption_bound < 0:
        raise ValueError(f"preemption bound must be at least 0, got {preemption_bound}")
    ex = _Explorer(preemption_bound, max_states)
    m = Machine(program)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, step_budget + 500))
    try:
        suffixes, complete = ex.explore(m, step_budget, 0, 0)
    finally:
        sys.setrecursionlimit(old_limit)
    traces = frozenset(ResultTrace(ev, status, reason) for ev, status, reason in suffixes)
    return ResultSet(traces, complete and not ex.bound_hit, ex.states, ex.memo_hits)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a refinement check.

    kind is "refines" (proved under full enumeration), "bounded-ok" (no
    violation found, but one side was not exhaustively enumerated),
    "violates" (witness holds a transformed-program trace the fully
    enumerated original cannot produce), or "inconclusive" (witness holds a
    transformed-program trace the original's partial enumeration did not
    produce).
    """

    kind: str
    witness: ResultTrace | None = None
    states_explored: int = 0
    original: ResultSet | None = None
    transformed: ResultSet | None = None


def check_refinement(
    original: Program,
    transformed: Program,
    step_budget: int = 10_000,
    preemption_bound: int | None = None,
    max_states: int = 2_000_000,
) -> Verdict:
    """Check that every terminated result of `transformed` is one of `original`'s."""
    r_orig = enumerate_results(original, step_budget, preemption_bound, max_states)
    r_new = enumerate_results(transformed, step_budget, preemption_bound, max_states)
    states = r_orig.states_explored + r_new.states_explored
    allowed = r_orig.traces
    for t in sorted(r_new.terminated(), key=lambda t: (t.events, t.status)):
        if t not in allowed:
            kind = "violates" if r_orig.exhausted else "inconclusive"
            return Verdict(kind, t, states, r_orig, r_new)
    if r_orig.exhausted and r_new.exhausted:
        return Verdict("refines", None, states, r_orig, r_new)
    return Verdict("bounded-ok", None, states, r_orig, r_new)
