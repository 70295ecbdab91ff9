"""Command-line interface.

Subcommands: run, profile, optimize, check, compare, pca, ck, stats.
Program arguments accept either a .cir path or corpus:<name> for a built-in
benchmark. Every option changes what its subcommand prints or writes. Exit
codes: 0 success, 1 diagnostics/errors, 2 refinement violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .bench import compare
from .ck import compute_ck
from .interp import InterpreterError, MetricVector, RunResult, run
from .ir import print_program
from .parser import ParseError, UnresolvedNameError, parse
from .passes import PASS_NAMES, PassOptions, pipeline
from .pca import (
    PcaError,
    normalize,
    pca_fit,
    read_metrics_csv,
    render_loadings_csv,
    render_scores_csv,
    render_variance_csv,
    standardize,
)
from .scheduler import check_refinement
from .stats import SampleSet, StatsError, welch_t
from .validate import validate


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def load_program(spec: str):
    if spec.startswith("corpus:"):
        try:
            return corpus_mod.corpus_entry(spec[len("corpus:"):]).program
        except KeyError as e:
            raise CliError(str(e.args[0]))
    try:
        text = Path(spec).read_text()
    except OSError as e:
        raise CliError(f"cannot read {spec}: {e}")
    try:
        program = parse(text)
    except (ParseError, UnresolvedNameError) as e:
        raise CliError(f"{spec}: {e}")
    problems = validate(program)
    if problems:
        raise CliError("\n".join(f"{spec}: {d}" for d in problems))
    return program


def _parse_passes(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    for n in names:
        if n not in PASS_NAMES:
            raise CliError(f"unknown pass {n!r}; available: {', '.join(PASS_NAMES)}")
    return names


def _pass_options(args) -> PassOptions:
    return PassOptions(
        chunk=args.chunk, width=args.width, inline_budget=args.inline_budget
    )


def _run(args) -> RunResult:
    program = load_program(args.program)
    try:
        return run(program, args.schedule, args.budget)
    except ValueError as e:
        raise CliError(str(e))


def cmd_run(args) -> int:
    result = _run(args)
    if args.json:
        out = {
            "events": list(result.trace.events),
            "status": result.trace.status,
            "steps": result.steps,
            "cost": result.metrics.refcycles,
        }
        if result.trace.reason:
            out["reason"] = result.trace.reason
        print(json.dumps(out, indent=2))
    else:
        print(f"trace: {result.trace}")
        print(f"steps: {result.steps}  cost: {result.metrics.refcycles}")
    return 0 if result.trace.status == "terminated" else 1


def cmd_profile(args) -> int:
    result = _run(args)
    print(",".join(["benchmark", *MetricVector.COLUMNS, "refcycles"]))
    print(",".join(["program", *result.metrics.row()]))
    return 0 if result.trace.status == "terminated" else 1


def cmd_optimize(args) -> int:
    program = load_program(args.program)
    names = _parse_passes(args.passes)
    try:
        optimized, reports = pipeline(program, names, _pass_options(args))
    except ValueError as e:  # a pass knob out of range
        raise CliError(str(e))
    text = print_program(optimized)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        )
    return 0


def cmd_check(args) -> int:
    before = load_program(args.before)
    after = load_program(args.after)
    try:
        verdict = check_refinement(before, after, step_budget=args.budget,
                                   max_states=args.max_states)
    except ValueError as e:  # a bound out of range, or more threads than supported
        raise CliError(str(e))
    out = {"verdict": verdict.kind, "statesExplored": verdict.states_explored}
    for side, rs in (("original", verdict.original), ("transformed", verdict.transformed)):
        out[side] = {"states": rs.states_explored, "memoHits": rs.memo_hits,
                     "exhausted": rs.exhausted, "ceilingHit": rs.ceiling_hit,
                     "traces": len(rs.traces), "seconds": round(rs.seconds, 6)}
    if verdict.witness is not None:
        out["witness"] = {
            "events": list(verdict.witness.events),
            "status": verdict.witness.status,
        }
    print(json.dumps(out, indent=2))
    return 2 if verdict.kind == "violates" else 0


def cmd_compare(args) -> int:
    program = load_program(args.program)
    passes = tuple(_parse_passes(args.passes))
    try:
        report = compare(
            program, passes, args.toggle, _pass_options(args), args.schedule,
            name=args.program,
        )
    except (RuntimeError, ValueError) as e:
        raise CliError(str(e))
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_pca(args) -> int:
    try:
        text = Path(args.metrics).read_text()
    except OSError as e:
        raise CliError(f"cannot read {args.metrics}: {e}")
    try:
        m = read_metrics_csv(text)
        ingested = m.diagnostics
        for d in ingested:
            print(f"note: {d}", file=sys.stderr)
        if args.exclude:
            m = m.without_rows({s.strip() for s in args.exclude.split(",")})
        skip = {s.strip() for s in args.skip.split(",") if s.strip()}
        if args.ref:
            m = normalize(m, args.ref, skip)
        for d in m.diagnostics[len(ingested):]:  # rows that --ref rejected
            print(f"note: {d}", file=sys.stderr)
        y, means, stds = standardize(m)
        model = pca_fit(y, m.cols, means, stds)
        j = model.k if args.components is None else args.components
        loadings = render_loadings_csv(model, j)
    except PcaError as e:
        raise CliError(str(e))
    prefix = args.out_prefix
    scores = render_scores_csv(model, m.rows)
    variance = render_variance_csv(model)
    if prefix:
        Path(f"{prefix}loadings.csv").write_text(loadings)
        Path(f"{prefix}scores.csv").write_text(scores)
        Path(f"{prefix}variance.csv").write_text(variance)
        print(f"wrote {prefix}loadings.csv, {prefix}scores.csv, {prefix}variance.csv")
    else:
        print(loadings)
        print(scores)
        print(variance, end="")
    return 0


def cmd_ck(args) -> int:
    program = load_program(args.program)
    text = compute_ck(program, transitive=args.transitive).to_csv()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_samples(path: str) -> SampleSet:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    values = []
    for ln in lines:
        ln = ln.split(",")[-1].strip()
        if not ln or ln.lower() in ("cost", "value"):
            continue
        try:
            values.append(float(ln))
        except ValueError:
            raise CliError(f"{path}: bad sample {ln!r}")
    return SampleSet(tuple(values), label=path)


def cmd_stats(args) -> int:
    if args.test != "welch":
        raise CliError(f"unknown statistic {args.test!r} (only 'welch')")
    try:
        r = welch_t(_read_samples(args.a), _read_samples(args.b))
    except StatsError as e:
        raise CliError(str(e))
    print(json.dumps({"t": r.t, "df": r.df, "p": r.p, "degenerate": r.degenerate}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cirlab",
        description="concurrency-aware optimization laboratory for a miniature IR",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_schedule(p):
        p.add_argument("--schedule", default="rr:1", help="rr:k or explicit:t1,t2,...")
        p.add_argument("--budget", type=int, default=1_000_000, help="max interpreter steps")

    defaults = PassOptions()

    def add_pass_knobs(p):
        p.add_argument("--chunk", type=int, default=defaults.chunk, help="lock-coarsening chunk size")
        p.add_argument("--width", type=int, default=defaults.width, help="vector width")
        p.add_argument("--inline-budget", type=int, default=defaults.inline_budget,
                       help="max callee size for inlining")

    p = sub.add_parser("run", help="execute a program under one schedule")
    p.add_argument("program")
    add_schedule(p)
    p.add_argument("--json", action="store_true", help="print the run as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("profile", help="run and emit dynamic metrics as CSV")
    p.add_argument("program")
    add_schedule(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("optimize", help="apply passes and print/write the result")
    p.add_argument("program")
    p.add_argument("--passes", required=True, help="comma-separated pass names")
    add_pass_knobs(p)
    p.add_argument("-o", "--output", help="write the optimized program here")
    p.add_argument("--report", help="write pass reports as JSON here")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("check", help="refinement-check two programs")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--budget", type=int, default=10_000, help="max steps per schedule")
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compare", help="impact of toggling one pass off")
    p.add_argument("program")
    p.add_argument("--passes", required=True)
    p.add_argument("--toggle", required=True, help="pass to disable in the off run")
    add_pass_knobs(p)
    p.add_argument("--schedule", default="rr:1")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("pca", help="normalize, standardize, and decompose a metric CSV")
    p.add_argument("metrics")
    p.add_argument("--ref", default=None, help="reference-cost column to normalize by")
    p.add_argument("--skip", default="cpu", help="columns exempt from normalization")
    p.add_argument("--exclude", default="", help="benchmark rows to drop")
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--out-prefix", default="", help="write CSVs with this path prefix")
    p.set_defaults(fn=cmd_pca)

    p = sub.add_parser("ck", help="class-complexity metrics for a program")
    p.add_argument("program")
    p.add_argument("--transitive", action="store_true",
                   help="close the response set over direct calls")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_ck)

    p = sub.add_parser("stats", help="ad-hoc statistics over sample files")
    p.add_argument("test", help="welch")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_stats)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InterpreterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
