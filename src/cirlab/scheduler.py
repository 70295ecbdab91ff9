"""Exhaustive thread-interleaving exploration and the refinement check.

`enumerate_results` walks runnable-thread choices depth-first, memoizing the
set of trace suffixes producible from each canonical machine state, so
interleavings that converge on the same state are explored once. The result
is the set R of observable results (output sequence + termination status).
A path ends where `interp.run` would stop (`Machine.schedulable`). The key
leaves out the step count, so one rule says when a state's memo record
answers a visit with `budget - steps` left. Once every path from the state
has ended, the record holds its suffixes and the longest path below it,
reused only where that path fits the budget left: a subtree that finished at
a shallow depth can be cut at a deeper one. A search from the state that the
step budget cut is stored by the budget it had left, and reused at exactly
that budget left: the local runs, `schedulable` and the tail all stop at the
same absolute budget, so a cut state's suffixes depend only on its key and
the budget left. A result found after the state ceiling was hit is partial
and is never stored.

Threads declared with the same function and the same literal args form a
group, and the key (`Machine.canon_key`) lists each group's threads in a
canonical order instead of by tid, naming each monitor's owner and waiters
by rank in that order: a result names no thread, so a state and its image
under a permutation within groups have the same result set, and the same
longest path, and share one memo entry (symmetry reduction: Emerson &
Sistla, FMSD 1996; Ip & Dill, FMSD 1996). Two ops read tids: `notify` wakes
the lowest waiting tid, and `unpark` takes one. In a program with either,
each thread is a group of its own: tid order. `notifyall` is fine.
Cell owners are tids too (see below); they stay out of the key and are not
permuted, since a memo entry is the exact result set of its state, whatever
its owners.

Once one thread is live, no choice is left: the tail runs to the end through
the stepping loop `interp.run` uses (`Machine._drive`), and the whole tail
counts as one state, memoized like any other, so a tail that many
interleavings reach is not run again from each. The loop stops at
`steps >= budget` and when the thread stops running or its next
`monitorenter` is blocked, and `Machine.schedulable` sets the status there,
so the step-budget contract below is the same as for a search that steps the
last thread one state at a time.

A state where some enabled thread's next step is local
(`Machine.next_is_local`) expands only that thread: an ample set of one
(Godefroid, *Partial-Order Methods*, LNCS 1032, 1996). A local step
commutes with every step the other threads can take before its thread steps
again, so the orders it skips reach the same results. Local steps are the
pure ops, calls, branches, returns to a caller, allocations (`new`,
`newarray`: `canon_key` renumbers references by reachability, so allocation
order is invisible), field, CAS and array accesses to a heap cell the
stepping thread owns, and the accesses and outputs that the static
look-ahead below admits. Each cell records its owner, the allocating thread,
until a store of a reference to it, or to a cell that reaches it, into a
shared cell makes it shared; so a cell a thread owns is referenced only from
that thread's frames and other cells it owns, and no other thread can touch
it without a step of its owner first. `canon_key` leaves the owner out: it
only decides which orders are skipped, and a memo entry is the exact result
set of its state, so two states that differ only in ownership may share one.

The look-ahead is the stubborn-set condition with a static reach (Valmari,
*Stubborn sets for reduced state space generation*, LNCS 483, 1990;
Godefroid, ch. 4). A table (`interp._reach_table`) gives for each
(function, block, index) the labels a frame there may still produce,
callees included: ("r", f) and ("w", f) for reads and writes of field f
(`cas` both), `ar` and `aw` for array reads and writes (`vbinop` both),
`out` for `output`, `stop` for `guard`, and `top` for `callvirtual` and
`callhandle`, whose callee is unknown. A step on a shared cell, or an
output, is local when no frame of another live thread reaches a label of
its conflict set; a thread that cannot step before the stepping thread does
is left out (`Machine._blocker` states when):

    getfield f                 {("w", f), top}
    putfield f, cas f          {("r", f), ("w", f), top}
    arrayload                  {aw, top}
    arraystore                 {ar, aw, top}
    output                     {out, stop, top}

An output conflicts with a guard because a deopt ends the trace: run first,
the output would hide the trace that deopts before it. A cell op or output
that may raise is never local (see `Machine.next_is_local`); for a cell op,
`Machine._cell`, which its handler steps through too, is the one rule.

An edge is one call of `_Explorer.explore`: it steps its thread, runs on,
then prefixes. It runs on through all the local steps that follow, of any
thread, while the budget allows: it tries the thread that just stepped
first, then the others in tid order, and keys only the state where no
enabled thread's next step is local, so a choice is left. Each state inside
the run expands one thread whose next step is local, an ample set of one;
the run only leaves those states unkeyed (one transaction in the sense of
Lipton, *Reduction*, CACM 1975). What the step and the run output, the
edge's emission, goes before each suffix of the state the edge ends at. A
local step takes or frees no monitor, wakes or blocks no other thread, and
cannot stop the machine or end a thread (a guard and a return from a
thread's last frame are never local), so `schedulable` is asked once
before the run and once after it, and inside it only the budget is
checked. Each keyed state is one recursive call, so the recursion is no
deeper than the budget. The contract against the unreduced search, which
holds as written:

- a fully enumerated search (`exhausted`) gives exactly the same traces;
- a search cut by the step budget gives the same `terminated` and `deadlock`
  traces and the same `exhausted` flag, but its `deopt` and
  `step-budget-exhausted` traces can be strict subsets: local steps,
  outputs among them, run first, so they can push a failing guard, or a
  prefix, past the budget.

Verdicts cannot change, since `check_refinement` compares only the
`terminated` and `deadlock` traces, which a cut search keeps exactly.

`check_refinement` decides whether a transformed program can only produce
results the original could: every `terminated` or `deadlock` trace of the
transformed program must appear in the original's set. Deopt and cut traces
end early and are not compared yet; guard soundness is covered separately
by the guard-implication property.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .interp import Machine, ResultTrace
from .ir import Program

#: suffix entry: (events-tuple, status, reason)
_Suffix = tuple[tuple[int, ...], str, str | None]

#: the most threads a search takes. The state ceiling bounds states, not the
#: result sets, which grow with each thread: six copies of `coarsen_loop(1)`
#: give 16,807 results in 3,521 states and about 2 s, seven give 262,144 in
#: 12,582 states and 37 s (Python 3.11, one core of a Xeon)
MAX_THREADS = 6


@dataclass(frozen=True)
class ResultSet:
    """The set R over all schedules; `exhausted` means enumeration completed.

    When `exhausted` is False (a path hit the step budget, or the search hit
    the state ceiling, which `ceiling_hit` tells apart) `traces` holds the
    results found within the bounds, and any subset claim is only "bounded",
    never proved. `states_explored` counts the distinct states keyed: those
    where a choice is left, and where the last live thread's tail starts.
    `memo_hits` counts the states whose results came from the memo instead
    of being explored again, and `seconds` is the search's wall time.
    """

    traces: frozenset[ResultTrace]
    exhausted: bool
    states_explored: int
    memo_hits: int
    ceiling_hit: bool
    seconds: float


class _Record:
    """What the search knows of one keyed state.

    `done` is (suffixes, longest path) once every path from the state has
    ended, else None. `cuts` maps a budget left to the suffixes of a search
    from the state that the step budget cut; it is made on the first cut
    stored, so a state no budget cuts pays nothing for it.
    """

    __slots__ = ("done", "cuts")

    def __init__(self):
        self.done: tuple[frozenset[_Suffix], int] | None = None
        self.cuts: dict[int, frozenset[_Suffix]] | None = None


class _Explorer:
    """One search: its bounds, and a table from each canonical state keyed to
    its `_Record`, so the table's size is the count of states explored.

    A record answers a visit with `budget - steps` left from `done` where its
    longest path fits, else from `cuts[budget - steps]`; either is a memo hit.
    """

    def __init__(self, step_budget: int, max_states: int):
        self.budget = step_budget
        self.max_states = max_states
        self.table: dict[object, _Record] = {}
        self.memo_hits = 0
        self.ceiling_hit = False

    def explore(self, m: Machine, tid: int = 0) -> tuple[frozenset[_Suffix], int | None]:
        """(the suffix set of the edge that steps thread `tid` of `m`, what it
        emitted first in each, and the most steps at which a path from it
        ended, or None if the step budget or the ceiling cut a path).

        The edge steps `tid` (0: no step, for the initial machine), then runs
        on through the local steps that follow, of any thread, trying `tid`
        first and then the others in tid order, and keys only the state where
        no enabled thread's next step is local. Once the state ceiling is hit
        no state is expanded further, so the suffix sets returned from then on
        hold only what was already found. `m` is the caller's to give up: the
        edge, its last choice and the last thread's tail step it in place.
        """
        budget = self.budget
        if tid:
            m.step(tid)
        enabled = m.schedulable(budget)
        if enabled and m.live > 1:  # run on through the local steps that follow
            before, local, step = m.steps, m.next_is_local, m.step
            while m.steps < budget:
                if not (tid and local(tid)):
                    for u in enabled:
                        if u != tid and local(u):
                            tid = u
                            break
                    else:
                        break
                step(tid)
            if m.steps != before:
                enabled = m.schedulable(budget)
        emitted = tuple(m.events)  # what the edge emitted, its local steps included
        if not enabled:
            end = None if m.status == "step-budget-exhausted" else m.steps
            return frozenset({(emitted, m.status, m.reason)}), end
        if self.ceiling_hit:
            return frozenset(), None

        m.events.clear()  # so the keyed state's suffixes start empty
        key = m.canon_key()
        start = m.steps
        left = budget - start
        record = self.table.get(key)
        if record is None:
            if len(self.table) >= self.max_states:
                self.ceiling_hit = True
                return frozenset(), None
            self.table[key] = record = _Record()
        else:
            done, cuts = record.done, record.cuts
            if done is not None and done[1] <= left:  # its longest path fits
                self.memo_hits += 1
                return _prefixed(emitted, done[0]), start + done[1]
            cut = None if cuts is None else cuts.get(left)
            if cut is not None:
                self.memo_hits += 1
                return _prefixed(emitted, cut), None

        if m.live == 1:  # the last live thread runs alone, as in `interp.run`
            m._drive(budget)
            result = frozenset({(tuple(m.events), m.status, m.reason)})
            end = None if m.status == "step-budget-exhausted" else m.steps
        else:  # no enabled thread's next step is local: each is a choice
            out: set[_Suffix] | frozenset[_Suffix] = set()
            end = start
            last = enabled[-1]
            for tid in enabled:
                suffixes, child_end = self.explore(m if tid == last else m.clone(), tid)
                end = None if end is None or child_end is None else max(end, child_end)
                if len(enabled) == 1:  # this state's set is the child's
                    out = suffixes
                else:
                    out |= suffixes
            result = frozenset(out)  # no copy when `out` is the child's frozenset
        if end is not None:
            record.done = result, end - start
        elif not self.ceiling_hit:  # after the ceiling a result is partial
            if record.cuts is None:
                record.cuts = {}
            record.cuts[left] = result
        return _prefixed(emitted, result), end


def _prefixed(events: tuple[int, ...], suffixes: frozenset[_Suffix]) -> frozenset[_Suffix]:
    """`suffixes`, each with `events` put before its own."""
    if not events:
        return suffixes
    return frozenset([(events + ev, status, reason) for ev, status, reason in suffixes])


def enumerate_results(
    program: Program,
    step_budget: int = 10_000,
    max_states: int = 2_000_000,
) -> ResultSet:
    """Compute R(program) by DFS over all schedules, up to the given bounds.

    The result is `exhausted` only if no path hit the step budget or the
    state ceiling.
    """
    if len(program.threads) > MAX_THREADS:
        raise ValueError(f"enumeration supports at most {MAX_THREADS} threads")
    if step_budget < 1:
        raise ValueError(f"step budget must be at least 1, got {step_budget}")
    if max_states < 1:
        raise ValueError(f"state ceiling must be at least 1, got {max_states}")
    start = time.perf_counter()
    ex = _Explorer(step_budget, max_states)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, step_budget + 500))
    try:
        suffixes, end = ex.explore(Machine(program))
    finally:
        sys.setrecursionlimit(old_limit)
    traces = frozenset(ResultTrace(*s) for s in suffixes)
    return ResultSet(traces, end is not None, len(ex.table), ex.memo_hits, ex.ceiling_hit,
                     time.perf_counter() - start)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a refinement check.

    Only the transformed program's `terminated` and `deadlock` traces are
    compared, each against the original's traces, exactly. kind is
    "refines" (every such trace is the original's, proved under full
    enumeration of both), "bounded-ok" (no violation found, but one side was
    not exhaustively enumerated), "violates" (witness holds such a trace the
    fully enumerated original cannot produce), or "inconclusive" (witness
    holds such a trace the original's partial enumeration did not produce).
    """

    kind: str
    witness: ResultTrace | None
    original: ResultSet
    transformed: ResultSet

    @property
    def states_explored(self) -> int:
        return self.original.states_explored + self.transformed.states_explored


def check_refinement(
    original: Program,
    transformed: Program,
    step_budget: int = 10_000,
    max_states: int = 2_000_000,
) -> Verdict:
    """Check that every `terminated` or `deadlock` result of `transformed` is
    one of `original`'s: a pass that adds a deadlock is as unsound as one
    that adds an output sequence."""
    r_orig = enumerate_results(original, step_budget, max_states)
    r_new = enumerate_results(transformed, step_budget, max_states)
    allowed = r_orig.traces
    for t in sorted(r_new.traces, key=lambda t: (t.events, t.status)):
        if t.status in ("terminated", "deadlock") and t not in allowed:
            kind = "violates" if r_orig.exhausted else "inconclusive"
            return Verdict(kind, t, r_orig, r_new)
    if r_orig.exhausted and r_new.exhausted:
        return Verdict("refines", None, r_orig, r_new)
    return Verdict("bounded-ok", None, r_orig, r_new)
