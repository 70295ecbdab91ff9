"""Chidamber & Kemerer class metrics over a program's class model.

Mapping onto this IR:

* WMC counts declared methods (unit complexity per method).
* DIT is the distance to the hierarchy root; roots sit at depth 0 since
  there is no implicit universal superclass here.
* NOC counts immediate subclasses.
* CBO counts other classes a class touches through allocation, instanceof,
  calls that land in their declared methods, field accesses resolvable to a
  unique declaring class, or inheritance. Parameters are untyped in this
  IR, so signature-based coupling contributes nothing.
* RFC is the response set: own methods plus the functions their bodies
  invoke. The classic direct-call form is the default; transitive=True
  adds every function a chain of those calls reaches (`cfg.closure`).
* LCOM is max(0, P - Q) over method pairs, where P pairs share no accessed
  field and Q pairs share at least one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations

from .ir import OPCODES, Function, Program


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    wmc: int
    dit: int
    noc: int
    cbo: int
    rfc: int
    lcom: int


@dataclass(frozen=True)
class CkReport:
    classes: tuple[ClassMetrics, ...]

    METRICS = ("wmc", "dit", "noc", "cbo", "rfc", "lcom")

    def sums(self) -> dict[str, int]:
        return {m: sum(getattr(c, m) for c in self.classes) for m in self.METRICS}

    def means(self) -> dict[str, float]:
        n = len(self.classes) or 1
        return {m: s / n for m, s in self.sums().items()}

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class", "WMC", "DIT", "NOC", "CBO", "RFC", "LCOM"])
        for c in self.classes:
            w.writerow([c.name, c.wmc, c.dit, c.noc, c.cbo, c.rfc, c.lcom])
        sums, means = self.sums(), self.means()
        w.writerow(["sum"] + [sums[m] for m in self.METRICS])
        w.writerow(["mean"] + [f"{means[m]:.2f}" for m in self.METRICS])
        return buf.getvalue()


def _operands(fn: Function, slot: str) -> set[str]:
    """The `slot` immediates (an `ir.OpSpec` syntax slot) of every instruction in `fn`."""
    return {getattr(i, slot) for b in fn.blocks for i in b.instrs if slot in OPCODES[i.op].slots}


def compute_ck(p: Program, transitive: bool = False) -> CkReport:
    fmap = p.fn_map()
    cmap = p.class_map()
    selector_targets: dict[str, set[str]] = {}
    method_owner: dict[str, str] = {}
    for c in p.classes:
        for sel, fname in c.methods:
            selector_targets.setdefault(sel, set()).add(fname)
            method_owner.setdefault(fname, c.name)
    field_owner: dict[str, set[str]] = {}
    for c in p.classes:
        for fl in c.fields:
            field_owner.setdefault(fl, set()).add(c.name)

    def resolve_calls(fn: Function) -> set[str]:
        """Functions `fn` invokes directly; a selector resolves to every declaring class."""
        out = _operands(fn, "fn")
        for sel in _operands(fn, "method"):
            out |= selector_targets.get(sel, set())
        return out

    if transitive:
        # imported on first use, as `validate` does: importing `ck` need not load `cfg`
        from .cfg import closure
        reach = closure({fname: resolve_calls(fn) for fname, fn in fmap.items()})

    metrics = []
    for c in p.classes:
        own_methods = [fname for _, fname in c.methods if fname in fmap]
        wmc = len(c.methods)
        dit = len(p.ancestry(c.name)) - 1
        noc = sum(1 for d in p.classes if d.superclass == c.name)

        coupled: set[str] = set()
        if c.superclass is not None:
            coupled.add(c.superclass)
        response: set[str] = set(own_methods)
        for fname in own_methods:
            fn = fmap[fname]
            coupled.update(_operands(fn, "cls"))
            called = resolve_calls(fn)
            response.update(called)
            for target in called:
                if target in method_owner:
                    coupled.add(method_owner[target])
            for fl in _operands(fn, "field"):
                owners = field_owner.get(fl, set())
                if len(owners) == 1:
                    coupled.add(next(iter(owners)))
        coupled.discard(c.name)
        cbo = len(coupled)

        if transitive:
            response = response.union(*(reach[fname] for fname in response))
        rfc = len(response)

        visible = set(p.declared_fields(c.name))
        used = {m: _operands(fmap[m], "field") & visible for m in own_methods}
        p_pairs = q_pairs = 0
        for m1, m2 in combinations(sorted(own_methods), 2):
            if used[m1] & used[m2]:
                q_pairs += 1
            else:
                p_pairs += 1
        lcom = max(0, p_pairs - q_pairs)

        metrics.append(ClassMetrics(c.name, wmc, dit, noc, cbo, rfc, lcom))
    return CkReport(tuple(metrics))
