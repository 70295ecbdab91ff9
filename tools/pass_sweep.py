"""Fingerprint every pass's output, for comparing two versions of cirlab.

Runs each pass, at the default options and at chunk=2, and the full
pipeline over every corpus program, its small variant, the fuzz
generator's programs for seeds 0-199, the multi-block generator's
programs of `tests/test_pea.py` for seeds 0-99 and the call-graph
generator's programs of `tests/callgraph_gen.py` for seeds 0-49. Prints one line per case:
a label and the SHA-256 of the printed output program, the JSON of every
report, and the output program's runs within a fixed step budget (events,
status, reason, metric row, sorted op counts and steps, or the message of the
InterpreterError it raised). Every program runs under `rr:1`; a program
with more than one thread also runs under `rr:3` and `explicit:2,1,1`, the
last of which falls back to the lowest enabled thread whenever its pick is
blocked or finished. Each program with more than one thread gets one more
line, labelled `cut`: the SHA-256 of its `rr:2` run with the step budget cut
to half the steps of its `rr:1` run, so that most such runs stop while two
threads are live. An output that fails `validate` stops the sweep: `run`
raises ValueError for it, which, unlike an InterpreterError, is not caught.
Run it against two checkouts and diff the outputs:

    PYTHONPATH=src python tools/pass_sweep.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/pass_sweep.py > before.txt
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from cirlab.corpus import corpus  # noqa: E402
from cirlab.interp import InterpreterError, run  # noqa: E402
from cirlab.ir import print_program  # noqa: E402
from cirlab.parser import parse  # noqa: E402
from cirlab.passes import PASS_NAMES, PassOptions, pipeline, run_pass  # noqa: E402
from tests.callgraph_gen import gen_callgraph_program  # noqa: E402
from tests.test_fuzz import gen_program  # noqa: E402
from tests.test_pea import gen_multiblock_program  # noqa: E402


RUN_BUDGET = 20_000  # steps per run; longer runs end step-budget-exhausted
MULTI_THREAD_SCHEDULES = ("rr:3", "explicit:2,1,1")


def run_summary(program, schedule: str, budget: int = RUN_BUDGET) -> tuple[str, int]:
    """The summary of one run, and its steps (`budget` if it raised)."""
    try:
        r = run(program, schedule, budget)
    except InterpreterError as e:
        return f"InterpreterError: {e}", budget
    t = r.trace
    return repr((t.events, t.status, t.reason, r.metrics.row(),
                 sorted(r.op_counts.items()), r.steps)), r.steps


def cut_fingerprint(program) -> str:
    """The SHA-256 of the `rr:2` run cut at half the steps of the `rr:1` run."""
    steps = run_summary(program, "rr:1")[1]
    return hashlib.sha256(run_summary(program, "rr:2", max(1, steps // 2))[0].encode()).hexdigest()


def fingerprint(program, reports) -> str:
    h = hashlib.sha256(print_program(program).encode())
    for r in reports:
        h.update(json.dumps(r.to_dict(), sort_keys=True).encode())
    schedules = ("rr:1",) + (MULTI_THREAD_SCHEDULES if len(program.threads) > 1 else ())
    for schedule in schedules:
        h.update(run_summary(program, schedule)[0].encode())
    return h.hexdigest()


def cases():
    for e in corpus():
        yield e.name, e.program
        yield f"{e.name}/small", e.small
    for seed in range(200):
        yield f"fuzz/{seed}", parse(gen_program(seed))
    for seed in range(100):
        yield f"pea/{seed}", parse(gen_multiblock_program(seed))
    for seed in range(50):
        yield f"callgraph/{seed}", parse(gen_callgraph_program(seed))


def print_case(label: str, out, reports) -> None:
    print(label, fingerprint(out, reports))
    if len(out.threads) > 1:
        print(label, "cut", cut_fingerprint(out))


def main() -> None:
    for label, program in cases():
        for opt_label, options in (("default", PassOptions()), ("chunk2", PassOptions(chunk=2))):
            for name in PASS_NAMES:
                out, report = run_pass(program, name, options)
                print_case(f"{label} {opt_label} {name}", out, [report])
            out, reports = pipeline(program, PASS_NAMES, options)
            print_case(f"{label} {opt_label} pipeline", out, reports)


if __name__ == "__main__":
    main()
