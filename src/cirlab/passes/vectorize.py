"""Loop vectorization for elementwise array loops.

A countable loop whose body is exactly ``c[i] = a[i] op b[i]`` with stride-1
index steps by W lanes using a single vector operation, followed by a scalar
remainder loop for the final N mod W elements. Eligibility is conservative:

* a, b, c trace to three distinct allocation sites in the same function
  (alias freedom), there is no cross-iteration dependence to respect;
* the body contains no guard (bounds checks must have been hoisted first,
  which is why disabling guard motion starves this pass) and nothing else.

The vector and scalar paths compute identical values, so outputs are
bit-equal to the scalar execution.
"""

from __future__ import annotations

from .. import ir
from ..cfg import def_index, find_induction_var, while_loops
from ..ir import Block, Br, CondBr, Function, Instr, NameGen, Program
from . import PassOptions, PassReport
from .util import copy_instrs, rewrite_functions, splice


def _match_body(body: Block, iv_names: frozenset[str], defs) -> tuple | str:
    """Returns (a, b, c, op, store, inc_dest) or a skip reason.

    `iv_names` holds every name carrying the current induction value (the
    header param and its in-loop copies); all indices must come from it.
    """
    if any(i.op == "guard" for i in body.instrs):
        return "guard-present"
    loads: list[Instr] = []
    stores: list[Instr] = []
    binops: list[Instr] = []
    for i in body.instrs:
        if i.op == "arrayload" and i.args[1] in iv_names:
            loads.append(i)
        elif i.op == "arraystore" and i.args[1] in iv_names:
            stores.append(i)
        elif i.op == "binop" and i.kind in ir.VBINOPS:
            binops.append(i)
        elif i.op == "const":
            pass
        else:
            return "shape"
    if len(loads) != 2 or len(stores) != 1 or len(binops) != 2:
        return "shape"
    load_dests = {i.dest for i in loads}
    elementwise = [i for i in binops if set(i.args) == load_dests]
    if len(elementwise) != 1:
        return "shape"
    compute = elementwise[0]
    inc = next((i for i in binops if i is not compute), None)
    if inc is None or inc.kind != "add" or inc.args[0] not in iv_names:
        return "shape"
    one = defs.get(inc.args[1])
    if one is None or one.op != "const" or one.value != 1:
        return "shape"
    store = stores[0]
    if store.args[2] != compute.dest:
        return "shape"
    a = loads[0] if loads[0].dest == compute.args[0] else loads[1]
    b = loads[1] if a is loads[0] else loads[0]
    return (a.args[0], b.args[0], store.args[0], compute.kind, store, inc.dest)


def _vectorize_fn(f: Function, width: int, report: PassReport) -> Function | None:
    defs = def_index(f)
    for wl in while_loops(f):
        header = wl.header
        where = f"{f.name}/{header.name}"
        if not wl.two_block:
            continue
        if len(header.params) != 1 or len(header.instrs) != 1:
            continue
        cond = header.instrs[0]
        if cond.op != "binop" or cond.kind != "lt" or cond.dest != wl.cond:
            continue
        iv = find_induction_var(f, wl)
        if iv is None:
            continue
        body = f.block_map()[wl.body_target]
        m = _match_body(body, iv.aliases, defs)
        if isinstance(m, str):
            if m != "shape":
                report.skip(where, m)
            continue
        a_arr, b_arr, c_arr, op, store, inc_dest = m
        allocated = all(
            defs.get(name) is not None and defs[name].op == "newarray"
            for name in (a_arr, b_arr, c_arr)
        )
        if not allocated or len({a_arr, b_arr, c_arr}) != 3:
            report.skip(where, "alias-unknown")
            continue
        vectorized_already = any(
            i.op == "vbinop" and i.args[0] == c_arr for blk in f.blocks for i in blk.instrs
        )
        if vectorized_already:
            report.skip(where, "already vectorized")
            continue

        gen = NameGen.for_function(f)
        limit = iv.limit
        ivp = iv.param
        wc = gen.fresh("vec_w")
        iw = gen.fresh("vec_end")
        cm = gen.fresh("vec_fit")
        wb = gen.fresh("vec_step")
        rem_hdr = gen.fresh(f"{header.name}_rem")
        rem_body = gen.fresh(f"{body.name}_rem")
        rem_iv = gen.fresh(f"{ivp}_rem")

        new_header = Block(
            header.name, header.params,
            (
                ir.const(wc, width),
                ir.binop(iw, "add", ivp, wc),
                ir.binop(cm, "le", iw, limit),
            ),
            CondBr(cm, body.name, (), rem_hdr, (ivp,)),
        )
        vec_body = Block(
            body.name, (),
            (
                ir.vbinop(op, c_arr, a_arr, b_arr, ivp, width),
                ir.const(wb, width),
                ir.binop(inc_dest, "add", ivp, wb),
            ),
            Br(header.name, (inc_dest,)),
        )
        rrename = {ivp: rem_iv, cond.dest: gen.fresh(f"{cond.dest}_rem")}
        for q in body.params:
            rrename[q] = gen.fresh(f"{q}_rem")
        rem_header = Block(
            rem_hdr, (rem_iv,),
            copy_instrs((cond,), rrename, gen),
            CondBr(rrename[cond.dest], rem_body,
                   tuple(rrename.get(x, x) for x in wl.body_args),
                   wl.exit_target, tuple(rrename.get(x, x) for x in wl.exit_args)),
        )
        body_instrs = copy_instrs(body.instrs, rrename, gen, "_rem")
        rem_blk = Block(rem_body, tuple(rrename[q] for q in body.params),
                        body_instrs, Br(rem_hdr, (rrename[inc_dest],)))
        report.note(f.name, f"vectorized loop at {header.name} (width {width})")
        report.rewrites += 1
        return splice(f, {header.name: (new_header,),
                          body.name: (vec_body, rem_header, rem_blk)})
    return None


def loop_vectorize(p: Program, options: PassOptions, report: PassReport) -> Program:
    width = options.width
    if width < 2:
        raise ValueError("vector width must be >= 2")
    return rewrite_functions(p, lambda f: _vectorize_fn(f, width, report))
