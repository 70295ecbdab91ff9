"""Fingerprint every schedule search, for comparing two versions of cirlab.

Enumerates each corpus small variant and `publish_pair` for each publishing
store and, at chunk=2, each pass output that rewrites one of them; each at
its small budget, at budget 40, and at the small budget with a 24-state
ceiling. Then a small variant at a cut budget where reusing a memo entry
without checking that its longest path fits the budget left claimed a
finished search, searches that the step budget cuts deep below many states
(`coarsen_loop(1, threads=4)` at budgets 46, 50 and 54, and
`tests/callgraph_gen.py` seed 3 at budget 400), and a few larger programs
at the default bounds:
contention loops, one single-thread loop, threads that each update a box
and an array only they can reach (`private_boxes`), two identical waiters
woken by `notify` (which keeps tid-order state keys) or by `notifyall`
(whose identical threads share states), and the programs of
`tests/blocked_programs.py`, where a thread waits for another to step:

- `woken-enters-held`: a woken waiter whose next instruction enters a
  monitor the notifier holds;
- `waiting-on-held`: a waiter on the monitor its notifier holds while the
  notifier writes a field the waiter reads;
- `parked-on-held`: a parked thread whose next instruction enters a
  monitor the unparking thread holds.

Prints one line per search: a label, `states_explored`, `memo_hits`,
`exhausted`, the trace count and the SHA-256 of the sorted traces; for a
pass output, a second line with the `check_refinement` verdict against its
input and the witness. Run it against two checkouts and diff the outputs:

    PYTHONPATH=src python tools/search_sweep.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/search_sweep.py > before.txt
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from cirlab.corpus import (coalesce_mini, coarsen_loop, corpus, corpus_entry,  # noqa: E402
                           guard_bounds_loop, private_boxes, publish_pair, waitnotify_flag)
from cirlab.parser import parse  # noqa: E402
from cirlab.passes import PASS_NAMES, PassOptions, run_pass  # noqa: E402
from cirlab.scheduler import check_refinement, enumerate_results  # noqa: E402
from tests.blocked_programs import BLOCKED_PROGRAMS  # noqa: E402
from tests.callgraph_gen import gen_callgraph_program  # noqa: E402

CUT_BUDGET = 40  # cuts most small variants' searches short
CEILING = 24  # cuts the coarsen-mini original and its lock_coarsen output, and the
# contended coalesce-mini original (29 states), not its coalesced output (20)
TWO_WAITERS = waitnotify_flag().replace("thread waiter()", "thread waiter()\nthread waiter()")
LARGER = (("coarsen_loop(4,2)", coarsen_loop(4, threads=2)),
          ("coarsen_loop(8,2)", coarsen_loop(8, threads=2)),
          ("coarsen_loop(2,3)", coarsen_loop(2, threads=3)),
          ("coarsen_loop(4,3)", coarsen_loop(4, threads=3)),
          ("coarsen_loop(2,4)", coarsen_loop(2, threads=4)),
          ("waitnotify_flag(2 waiters,notify)", TWO_WAITERS),
          ("waitnotify_flag(2 waiters,notifyall)", TWO_WAITERS.replace("notify s", "notifyall s")),
          ("coalesce_mini(5,contended)", coalesce_mini(5, contended=True)),
          ("guard_bounds_loop(200,400)", guard_bounds_loop(200, 400)),
          ("private_boxes(3,2)", private_boxes(3)),
          ("private_boxes(8,2)", private_boxes(8)),
          ("private_boxes(3,3)", private_boxes(3, threads=3)),
          *BLOCKED_PROGRAMS)


def search_line(program, **bounds) -> str:
    rs = enumerate_results(program, **bounds)
    ordered = sorted(rs.traces, key=lambda t: (t.events, t.status, t.reason or ""))
    digest = hashlib.sha256(repr([(t.events, t.status, t.reason) for t in ordered]).encode())
    return (f"states={rs.states_explored} memo_hits={rs.memo_hits} exhausted={rs.exhausted} "
            f"traces={len(rs.traces)} sha={digest.hexdigest()[:16]}")


def sources():
    """(label, program, small budget)."""
    for e in corpus():
        yield f"{e.name}/small", e.small, e.small_budget
    for store in ("putfield", "cas", "arraystore"):
        yield f"publish_pair({store})", parse(publish_pair(store)), 200


def cases():
    """(label, program, its input program or None, small budget)."""
    for label, program, budget in sources():
        yield label, program, None, budget
        for name in PASS_NAMES:
            out, report = run_pass(program, name, PassOptions(chunk=2))
            if report.rewrites:
                yield f"{label}/{name}", out, program, budget


def main() -> None:
    for label, program, original, budget in cases():
        for config, bounds in ((f"budget={budget}", {"step_budget": budget}),
                               (f"budget={CUT_BUDGET}", {"step_budget": CUT_BUDGET}),
                               (f"budget={budget},max_states={CEILING}",
                                {"step_budget": budget, "max_states": CEILING})):
            print(label, config, search_line(program, **bounds))
            if original is not None:
                v = check_refinement(original, program, **bounds)
                print(label, config, f"verdict={v.kind} states={v.states_explored} "
                                     f"witness={v.witness}")
    # a cut budget at which a memo entry reused past the budget claimed a finished search
    print("coalesce-mini/small budget=33",
          search_line(corpus_entry("coalesce-mini").small, step_budget=33))
    for budget in (46, 50, 54):
        print(f"coarsen_loop(1,4) budget={budget}",
              search_line(parse(coarsen_loop(1, threads=4)), step_budget=budget))
    print("callgraph_gen(3) budget=400",
          search_line(parse(gen_callgraph_program(3)), step_budget=400))
    for label, text in LARGER:
        print(label, "default", search_line(parse(text)))


if __name__ == "__main__":
    main()
