"""The shared call-graph and block-parameter analyses (`cfg.closure`,
`cfg.call_reach`, `cfg.flow_params`), what the passes and the search's
look-ahead table derive from them, each against a definition written out by
brute force, and the programs of `callgraph_gen` through every pass."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cirlab
from callgraph_gen import gen_callgraph_program
from cirlab.cfg import call_reach, closure, flow_params
from cirlab.corpus import corpus
from cirlab.interp import Machine, run
from cirlab.ir import Block, Br, CondBr, Function, Instr, Program, Ret, ThreadDecl
from cirlab.parser import parse
from cirlab.passes import PASS_NAMES, PassOptions, run_pass
from cirlab.passes.purity import blocker, blocking_free_functions, is_pure, pure_functions
from cirlab.scheduler import check_refinement
from cirlab.validate import validate

ROOT = Path(__file__).resolve().parent.parent


def dfs_reach(edges: dict, n) -> set:
    """The nodes one or more edges from `n`, by a depth-first walk of its own."""
    seen: set = set()

    def walk(m):
        for t in edges.get(m, ()):
            if t not in seen:
                seen.add(t)
                walk(t)

    walk(n)
    return seen


#: the look-ahead labels of an opcode besides field reads and writes: reads and
#: writes of every array element ("[]") and of the trace ("<trace>"), and "top"
OP_LABELS = {"arrayload": {("r", "[]")}, "arraystore": {("w", "[]")},
             "vbinop": {("r", "[]"), ("w", "[]")}, "output": {("w", "<trace>")},
             "guard": {("w", "<trace>")}, "callvirtual": {"top"}, "callhandle": {"top"}}


def dfs_labels(p: Program, fn: str, block: str, idx: int) -> set:
    """The look-ahead labels a frame at (`fn`, `block`, `idx`) may still
    produce, by a depth-first walk of its own: the rest of the block, callee
    bodies included, then every successor."""
    fns = p.fn_map()
    labels: set = set()
    seen: set = set()

    def enter(f: str, b: str):
        if (f, b) not in seen:
            seen.add((f, b))
            walk(f, b, 0)

    def walk(f: str, b: str, start: int):
        blk = fns[f].block_map()[b]
        for i in blk.instrs[start:]:
            if i.op in ("getfield", "cas"):
                labels.add(("r", i.field))
            if i.op in ("putfield", "cas"):
                labels.add(("w", i.field))
            labels.update(OP_LABELS.get(i.op, ()))
            if i.op == "call":
                enter(i.fn, fns[i.fn].entry.name)
        for t in blk.term.targets():
            enter(f, t)

    walk(fn, block, idx)
    return labels


def random_edges(rng: random.Random) -> dict[str, list[str]]:
    """Successor lists over up to 7 nodes, with self-loops and cycles, and
    targets (`u0`, `u1`) that have no list of their own."""
    nodes = [f"n{k}" for k in range(rng.randint(0, 7))]
    targets = nodes + ["u0", "u1"]
    return {n: [rng.choice(targets) for _ in range(rng.randint(0, 3))] for n in nodes}


def random_program(rng: random.Random) -> Program:
    """Functions with random straight-line bodies: pure ops, a field read, a
    monitor op, an output, handle calls and calls of defined or undefined
    functions (`ext`), so neither validity nor termination holds."""
    names = [f"f{k}" for k in range(rng.randint(1, 6))]
    fns = []
    for name in names:
        instrs = []
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.45:
                instrs.append(Instr("call", dest="r", fn=rng.choice(names + ["ext"])))
            elif roll < 0.7:
                instrs.append(Instr(rng.choice(("const", "binop", "instanceof")), dest="v"))
            else:
                instrs.append(Instr(rng.choice(("getfield", "monitorenter", "output",
                                                "callhandle"))))
        fns.append(Function(name, (), (Block("e", (), tuple(instrs), Ret()),)))
    return Program((), tuple(fns), (ThreadDecl(names[0]),))


def call_edges(p: Program) -> dict[str, list[str]]:
    return {f.name: [i.fn for b in f.blocks for i in b.instrs if i.op == "call"]
            for f in p.functions}


def test_closure_matches_a_walk_per_node():
    for seed in range(300):
        edges = random_edges(random.Random(seed))
        reach = closure(edges)
        nodes = set(edges).union(*edges.values())
        assert set(reach) == nodes, seed
        for n in nodes:
            assert reach[n] == dfs_reach(edges, n), (seed, n)


def test_call_reach_matches_a_walk_per_function():
    programs = [random_program(random.Random(seed)) for seed in range(200)]
    programs += [parse(gen_callgraph_program(seed)) for seed in range(50)]
    for k, p in enumerate(programs):
        edges = call_edges(p)
        reach = call_reach(p)
        for f in p.functions:
            assert reach[f.name] == dfs_reach(edges, f.name), (k, f.name)
        if any(i.fn == "ext" for f in p.functions for b in f.blocks for i in b.instrs):
            assert reach["ext"] == frozenset(), k  # an undefined callee reaches nothing


def test_the_look_ahead_table_is_exactly_what_a_walk_reaches():
    programs = [p for e in corpus() for p in (e.program, e.small)]
    programs += [parse(gen_callgraph_program(seed)) for seed in range(50)]
    for k, p in enumerate(programs):
        reach = Machine(p).code.reach
        for f in p.functions:
            for b in f.blocks:
                points = reach[f.name][b.name]
                assert len(points) == len(b.instrs) + 1, (k, f.name, b.name)
                for idx, labels in enumerate(points):
                    assert labels == dfs_labels(p, f.name, b.name, idx), (k, f.name, b.name, idx)


def derive(flows: dict[str, set[str]], known: dict, listed: set[str], name: str,
           path: tuple[str, ...] = ()):
    """The fact `name` carries, or None: a known name carries its own, and a
    listed parameter the one fact all its arguments carry, derived without
    going round a cycle of parameters."""
    if name in known:
        return known[name]
    if name in path or name not in listed or not flows.get(name):
        return None
    facts = {derive(flows, known, listed, a, path + (name,)) for a in flows[name]}
    return facts.pop() if len(facts) == 1 and None not in facts else None


def random_flow_function(rng: random.Random) -> tuple[Function, dict[str, set[str]]]:
    """A function of up to 6 blocks whose edges pass constants, parameters
    or unknown names to block parameters, and those flows written out; a
    block no edge enters keeps parameters with no incoming edge."""
    n = rng.randint(1, 6)
    params = {k: tuple(f"p{k}_{j}" for j in range(rng.randint(0, 2))) for k in range(n)}
    pool = ["c0", "c1", "c2", "u"] + [q for qs in params.values() for q in qs]
    flows: dict[str, set[str]] = {}

    def edge(k: int) -> tuple[str, tuple[str, ...]]:
        t = rng.randrange(n)
        args = tuple(rng.choice(pool) for _ in params[t])
        for q, a in zip(params[t], args):
            flows.setdefault(q, set()).add(a)
        return f"b{t}", args

    blocks = []
    for k in range(n):
        roll = rng.random()
        if roll < 0.2:
            term = Ret()
        elif roll < 0.6:
            term = Br(*edge(k))
        else:
            (t1, a1), (t2, a2) = edge(k), edge(k)
            term = CondBr("c0", t1, a1, t2, a2)
        blocks.append(Block(f"b{k}", params[k], (), term))
    return Function("f", (), tuple(blocks)), flows


def test_flow_params_matches_a_derivation_per_parameter():
    known = {"c0": "A", "c1": "B", "c2": "A"}
    for seed in range(400):
        rng = random.Random(seed)
        f, flows = random_flow_function(rng)
        all_params = [q for b in f.blocks for q in b.params]
        listed = {q for q in all_params if rng.random() < 0.8}
        out = flow_params(f, known, sorted(listed))
        expected = dict(known)
        for q in all_params:
            fact = derive(flows, known, listed, q)
            if fact is not None:
                expected[q] = fact
        assert out == expected, seed


def greatest_fixpoint(p: Program, ok_instr) -> frozenset[str]:
    """Drop every function with an instruction that fails against the
    functions still kept, until none is dropped."""
    ok = {f.name for f in p.functions}
    while True:
        bad = {f.name for f in p.functions if f.name in ok
               and not all(ok_instr(i, ok) for b in f.blocks for i in b.instrs)}
        if not bad:
            return frozenset(ok)
        ok -= bad


def on_a_cycle(edges: dict[str, list[str]], n: str) -> bool:
    """Whether some path of calls from `n` comes back to it, by trying every
    path that repeats no function."""
    def paths(m: str, seen: frozenset) -> bool:
        return any(t == n or (t not in seen and paths(t, seen | {t})) for t in edges.get(m, ()))

    return paths(n, frozenset({n}))


def test_purity_recursion_and_inline_order_match_their_definitions():
    programs = [random_program(random.Random(seed)) for seed in range(200)]
    programs += [parse(gen_callgraph_program(seed)) for seed in range(50)]
    for k, p in enumerate(programs):
        assert pure_functions(p) == greatest_fixpoint(p, is_pure), k
        assert blocking_free_functions(p) == greatest_fixpoint(
            p, lambda i, ok: blocker(i, ok) is None), k
        edges = call_edges(p)
        reach = call_reach(p)
        recursive = {f.name for f in p.functions if f.name in reach[f.name]}
        assert recursive == {f.name for f in p.functions if on_a_cycle(edges, f.name)}, k
        # `handle_simplify` inlines in this order: every function after each
        # function it calls that is not recursive, so callees are done first
        order = sorted((f.name for f in p.functions), key=lambda n: len(reach[n]))
        at = {name: i for i, name in enumerate(order)}
        for caller, callees in edges.items():
            for callee in callees:
                if callee in at and callee not in recursive:
                    assert at[callee] < at[caller], (k, caller, callee)


def test_generated_call_graph_programs_are_valid_terminate_and_pass_validate():
    rewritten = {name: 0 for name in PASS_NAMES}
    for seed in range(50):
        p = parse(gen_callgraph_program(seed))
        assert validate(p) == [], seed
        assert run(p, "rr:1", budget=20_000).trace.status == "terminated", seed
        assert run(p, "rr:3", budget=20_000).trace.status == "terminated", seed
        for name in PASS_NAMES:
            p2, report = run_pass(p, name, PassOptions(chunk=2))
            assert validate(p2) == [], (seed, name)
            rewritten[name] += bool(report.rewrites)
    # the generator must reach the passes that read the call graph
    assert min(rewritten[n] for n in ("handle_simplify", "lock_coarsen", "atomic_coalesce")) >= 5


# a pass that rewrites a seed's program must refine it; the step budget cuts
# seeds 3, 4 and 10. Seeds 2 and 5 are left out: flattening their 45k and
# 105k traces into the result sets takes 3 to 7 s
@pytest.mark.parametrize("seed, kind", [
    (0, "refines"), (1, "refines"), (3, "bounded-ok"), (4, "bounded-ok"),
    (6, "refines"), (8, "refines"), (9, "refines"), (10, "bounded-ok"),
])
def test_passes_refine_generated_call_graph_programs(seed, kind):
    p = parse(gen_callgraph_program(seed))
    verdicts = {}
    for name in PASS_NAMES:
        out, report = run_pass(p, name, PassOptions(chunk=2))
        if report.rewrites:
            verdicts[name] = check_refinement(p, out, step_budget=400, max_states=3_000).kind
    assert verdicts and set(verdicts.values()) == {kind}, verdicts


def test_importing_what_perfbench_imports_leaves_cfg_unloaded():
    # `cfg` loads on the first analysis that needs it, not at import, so the
    # set-up that perfbench times does not pay for it
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    modules = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "CIRLAB_MODULES" for t in node.targets))
    script = ("import importlib, sys\n"
              "import cirlab\n"
              f"for m in {modules!r}:\n"
              "    importlib.import_module('cirlab.' + m)\n"
              "print('cirlab.cfg' in sys.modules)\n")
    src = str(Path(cirlab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
