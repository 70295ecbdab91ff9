"""In-memory span tracer that wraps cirlab's public functions from outside.

Spans (name, start, end, parent, op) are recorded around calls into each
module. The hot `Machine` methods are only aggregated (calls and summed
time), because a span per interpreter step would swamp the run. Time spent in
child spans and in hot methods is subtracted from the enclosing span to give
its self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: (module attribute on `cl`, function name) wrapped with one span per call
SPANNED = (
    ("parser", "parse"), ("validate", "validate"), ("passes", "run_pass"),
    ("ir", "print_program"), ("interp", "run"), ("scheduler", "enumerate_results"),
    ("scheduler", "check_refinement"), ("pca", "fit_metrics"), ("ck", "compute_ck"),
)
HOT_METHODS = ("step", "clone", "canon_key")


class Tracer:
    def __init__(self, cl):
        self.cl = cl
        self.spans: list[list] = []  # [name, start, end, parent, op, child_time]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}  # "interp.Machine.<m>" -> [calls, total_s]
        self.missing: set[str] = set()
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers --------------------------------

    def install(self) -> None:
        """Wrap the functions; totals keep accumulating across installs."""
        for mod_name, fn_name in SPANNED:
            mod = getattr(self.cl, mod_name)
            fn = getattr(mod, fn_name)
            if fn_name == "run_pass":
                wrapper = self._spanned(fn, lambda a, kw: f"passes.{a[1] if len(a) > 1 else kw['name']}")
            else:
                label = f"{mod_name}.{fn_name}"
                wrapper = self._spanned(fn, lambda a, kw, label=label: label)
            self._patch(mod, fn_name, wrapper)
        machine = self.cl.interp.Machine
        for meth in HOT_METHODS:
            name = f"interp.Machine.{meth}"
            fn = machine.__dict__.get(meth)
            if fn is None:
                self.missing.add(name)
                continue
            self._patch(machine, meth, self._aggregated(fn, self.hot.setdefault(name, [0, 0.0])))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name_of):
        def wrapper(*args, **kwargs):
            return self.span(name_of(args, kwargs), fn, *args, **kwargs)

        return wrapper

    def _aggregated(self, fn, agg):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            d = perf_counter() - t0
            agg[0] += 1
            agg[1] += d
            if stack:
                spans[stack[-1]][5] += d
            return out

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`, nested under the open span."""
        parent = self.stack[-1] if self.stack else None
        rec = [name, 0.0, 0.0, parent, self.op, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
            if parent is not None:
                self.spans[parent][5] += rec[2] - rec[1]

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """span name -> [calls, total_s, self_s]"""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _parent, _op, child in self.spans:
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "self_s": end - start - child}) + "\n")
            for name, (calls, total) in self.hot.items():
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_s": total}) + "\n")
