"""C99 code generation: one body renderer for every C program.

:func:`kernel_functions` renders one instance's ``deriv``, ``outvals``,
``sync`` and ``step`` over its state, parameter and held rows.  Every C
program is those functions plus a driver:

* ``generate_c(diagram)`` — a standalone translation unit whose
  ``int main(void)`` runs RK4 and prints the recorded columns as CSV
  (``%.9g``), one row before every step and a final row at ``t_end``;
* :func:`render_batch_kernel` — the N-instance shared object of the
  ``native-batch`` backend;
* :func:`repro.core.backend.native.render_c_kernel` — the scalar
  ``native-c`` shared object.

Every C loop here and in :mod:`repro.core.backend.native` is rendered by
:meth:`~repro.codegen.common.CLang.fixed_step_loop`, the fixed-step loop
contract of :mod:`repro.core.loop`, and every expression comes from the
emitters of :mod:`repro.codegen.common`.  So a generated program prints
the interpreter's records, sampled blocks included, when it is built as
the native kernels are, with ``-ffp-contract=off``: gcc may otherwise
fuse a multiply-add into an FMA on a target that has one, which changes
results in the last ulp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.common import (
    C_LIBM_DECLARATIONS, CLang, LoweredModel, kernel_tables, lower,
)
from repro.dataflow.diagram import Diagram


def generate_c(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    default_h: float = 1e-3,
    t_end: float = 10.0,
    opt_level: int = 0,
    opt_config=None,
) -> str:
    """Generate a standalone C99 simulation program for ``diagram``:
    the RK4 :func:`kernel_functions` of its plan and a ``main`` that
    runs them through the fixed-step loop."""
    lang = CLang()
    model = lower(
        diagram, lang, records, opt_level=opt_level, opt_config=opt_config,
    )
    tables = kernel_tables(model)

    def listed(values) -> str:
        return ", ".join(lang.literal(float(v)) for v in values) or "0.0"

    n_rec = len(model.records)
    header = ",".join(["t", *(label for label, __ in model.records)])
    fmt = ",".join(["%.9g"] * (1 + n_rec))
    args = ", ".join(["t", *(f"vals[{i}]" for i in range(n_rec))])
    row = "x, P, held"
    out: List[str] = [
        "/* Auto-generated by repro.codegen.cgen -- do not edit.",
        f" * Source diagram: {model.name}",
        f" * States: {', '.join(model.state_names) or '(none)'}",
        " */",
        "#include <math.h>",
        "#include <stdio.h>",
        "",
        *kernel_functions(tables, "rk4", "model_", static=True),
        f"static const double initial_state[] = "
        f"{{{listed(model.initial_state)}}};",
        "",
        "int main(void)",
        "{",
        "    /* every parameter is a literal of the source */",
        "    const double* P = NULL;",
        *(
            f"    const double {name} = {lang.literal(value)};"
            for name, value in tables["held"]
        ),
        "    double held[] = {"
        f"{', '.join(name for name, __ in tables['held']) or '0.0'}}};",
        "    double x[NXS], vals[RECN];",
        "    int i;",
        "    for (i = 0; i < NX; i++) x[i] = initial_state[i];",
        f"    double t = 0.0, h = {default_h!r};",
        f"    const double t_end = {t_end!r};",
        "    const long record_every = 1;",
        "    long step = 0;",
        f'    printf("%s\\n", "{header}");',
        *lang.fixed_step_loop(
            sync=[f"model_sync(t, {row});"],
            advance=[f"t = model_step(t, hh, {row});"],
            record=[
                f"model_outvals(t, {row}, vals);",
                f'printf("{fmt}\\n", {args});',
            ],
            cold=None,
        ),
        "    return 0;",
        "}",
    ]
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# the kernel functions every C program is built from
# ----------------------------------------------------------------------
#: solver stages of one kernel step over the state row ``x``; the
#: arithmetic (order + grouping) replicates :mod:`repro.solvers.fixed`
#: exactly, so kernel trajectories stay bitwise against the interpreter
_STAGES: Dict[str, Tuple[str, ...]] = {
    "euler": (
        "{deriv}(t, x, P, held, k1);",
        "for (i = 0; i < NX; i++) x[i] = x[i] + hh * k1[i];",
    ),
    "heun": (
        "{deriv}(t, x, P, held, k1);",
        "for (i = 0; i < NX; i++) xs[i] = x[i] + hh * k1[i];",
        "{deriv}(t + hh, xs, P, held, k2);",
        "for (i = 0; i < NX; i++)"
        " x[i] = x[i] + (hh / 2.0) * (k1[i] + k2[i]);",
    ),
    "rk4": (
        "{deriv}(t, x, P, held, k1);",
        "for (i = 0; i < NX; i++) xs[i] = x[i] + (hh / 2.0) * k1[i];",
        "{deriv}(t + hh / 2.0, xs, P, held, k2);",
        "for (i = 0; i < NX; i++) xs[i] = x[i] + (hh / 2.0) * k2[i];",
        "{deriv}(t + hh / 2.0, xs, P, held, k3);",
        "for (i = 0; i < NX; i++) xs[i] = x[i] + hh * k3[i];",
        "{deriv}(t + hh, xs, P, held, k4);",
        "for (i = 0; i < NX; i++)",
        "    x[i] = x[i] + (hh / 6.0)"
        " * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);",
    ),
}


def kernel_functions(
    tables, solver_name: str, prefix: str, static: bool,
) -> List[str]:
    """One instance's C functions over its state row ``x``, parameter
    row ``P`` and held row ``held``: ``<prefix>deriv``, ``outvals``,
    ``sync`` and ``step`` (which returns ``t + hh``), plus the ``NX``,
    ``NXS``, ``NREC`` and ``RECN`` sizes they use.

    ``tables`` are :func:`~repro.codegen.common.kernel_tables`.
    Signals are plain ``const double`` locals, declared in plan order
    (a valid declaration order: only non-feedthrough consumers sit
    before their producers, and those never read the signal in their
    output expression).  ``static`` keeps the functions file-local: out
    of a shared object's exports, or private to a standalone program.
    """
    if solver_name not in _STAGES:
        raise ValueError(
            f"no kernel solver stages for {solver_name!r} "
            f"(have {sorted(_STAGES)})"
        )
    held_names = [name for name, __ in tables["held"]]
    n_states = tables["n_states"]
    n_rec = len(tables["record_exprs"])
    decl = "static " if static else ""
    out: List[str] = [
        f"#define NX {n_states}",
        f"#define NXS {max(1, n_states)}",
        f"#define NREC {n_rec}",
        f"#define RECN {max(1, n_rec)}",
        "",
    ]

    def emit_signals(mutable_held: bool) -> None:
        qualifier = "double" if mutable_held else "const double"
        for i, held in enumerate(held_names):
            out.append(f"    {qualifier} {held} = held[{i}];")
        for line in tables["output_lines"]:
            var, __, expr = line.partition(" = ")
            out.append(f"    const double {var} = {expr};")

    out.append(f"{decl}void {prefix}deriv(double t, const double* x,")
    out.append("    const double* P, const double* held, double* dx)")
    out.append("{")
    out.append("    int i;")
    out.append("    (void)t; (void)x; (void)P; (void)held;")
    emit_signals(mutable_held=False)
    out.append("    for (i = 0; i < NX; i++) dx[i] = 0.0;")
    for index, expr in tables["derivs"]:
        out.append(f"    dx[{index}] = {expr};")
    out.append("}")
    out.append("")

    out.append(f"{decl}void {prefix}outvals(double t, const double* x,")
    out.append("    const double* P, const double* held, double* rec)")
    out.append("{")
    out.append("    (void)t; (void)x; (void)P; (void)held; (void)rec;")
    emit_signals(mutable_held=False)
    for i, expr in enumerate(tables["record_exprs"]):
        out.append(f"    rec[{i}] = {expr};")
    out.append("}")
    out.append("")

    out.append(f"{decl}void {prefix}sync(double t, const double* x,")
    out.append("    const double* P, double* held)")
    out.append("{")
    out.append("    (void)t; (void)x; (void)P; (void)held;")
    if tables["sync_rows"]:
        emit_signals(mutable_held=True)
        for indent, line in tables["sync_rows"]:
            out.append(f"    {'    ' * indent}{line}")
        for i, held in enumerate(held_names):
            out.append(f"    held[{i}] = {held};")
    out.append("}")
    out.append("")

    out.append(f"{decl}double {prefix}step(double t, double hh, double* x,")
    out.append("    const double* P, double* held)")
    out.append("{")
    out.append("    double k1[NXS], k2[NXS], k3[NXS], k4[NXS], xs[NXS];")
    out.append("    int i;")
    out.append("    (void)k2; (void)k3; (void)k4; (void)xs; (void)held;")
    for line in _STAGES[solver_name]:
        out.append(f"    {line.format(deriv=prefix + 'deriv')}")
    out.append("    return t + hh;")
    out.append("}")
    out.append("")
    return out


def render_batch_kernel(
    model: LoweredModel, solver_name: str, n_params: int
) -> str:
    """A shared-object C translation unit integrating N instances.

    The data layout is one contiguous row per instance (``X[n][NXS]``,
    ``P[n][NPS]``, ``H[n][NHS]``) so a shard is a pointer offset, not a
    copy; the instance loop is the *inner* loop of every batch driver,
    which is the auto-vectorizable shape.  The per-instance functions
    (:func:`kernel_functions`) take the row pointers named exactly
    ``x`` / ``P`` / ``held``, so the emitted expressions (``x[i]``,
    ``P[j]``, held locals) are valid verbatim — no textual rewriting.

    ``model`` must be lowered with
    :class:`~repro.codegen.common.CBatchLang`: swept parameters stay
    ``P[j]`` symbols, so one instance's arithmetic is exactly the scalar
    native kernel's — bitwise vs ``simulate_sequential``.

    The batch-size ``n`` is a *runtime* argument of ``batch_run``;
    nothing per-N is baked into the source, so one artifact serves any
    instance count.  Records are written label-major, into the caller's
    run-long buffer: record ``k`` of label ``i`` for row ``r`` lands at
    ``rec[i * label_stride + k * rec_stride + r]``, so each label's rows
    form one C-contiguous ``(records, n)`` block.
    """
    tables = kernel_tables(model)
    n_held = len(tables["held"])
    out: List[str] = [
        "/* Auto-generated by repro.codegen.cgen (batch) -- do not edit.",
        f" * Source model: {model.name}",
        f" * Solver: {solver_name}",
        " */",
        *C_LIBM_DECLARATIONS,
        "",
        f"#define NP {n_params}",
        f"#define NPS {max(1, n_params)}",
        f"#define NH {n_held}",
        f"#define NHS {max(1, n_held)}",
        *kernel_functions(tables, solver_name, "inst_", static=True),
    ]

    # the whole-run driver and the one export: the loop contract with a
    # chunk cut (max_steps > 0 caps minor steps per call), so Python-side
    # chunking and checkpoint/resume carry over bitwise; every hook runs
    # its per-instance helper over the n rows
    row = "XB + r * NXS, PB + r * NPS, HB + r * NHS"

    def each_row(call: str) -> List[str]:
        return ["for (r = 0; r < n; r++)", f"    {call};"]

    out.append("long batch_run(double t, double t_end, double h,")
    out.append("               long record_every, long step,")
    out.append("               long max_steps, int cold, long n,")
    out.append("               double* XB, const double* PB, double* HB,")
    out.append("               double* rec_t, int write_t,")
    out.append("               double* rec, long rec_stride,")
    out.append("               long label_stride, long cap,")
    out.append("               double* t_out, long* step_out,")
    out.append("               int* done_out)")
    out.append("{")
    out.append("    long nrec = 0, taken = 0, r, i;")
    out.append("    double vals[RECN];")
    out.extend(CLang().fixed_step_loop(
        sync=each_row(f"inst_sync(t, {row})"),
        advance=[*each_row(f"inst_step(t, hh, {row})"), "t = t + hh;"],
        record=[
            "if (nrec >= cap) return -1;",
            "if (write_t) rec_t[nrec] = t;",
            "for (r = 0; r < n; r++) {",
            f"    inst_outvals(t, {row}, vals);",
            "    for (i = 0; i < NREC; i++)",
            "        rec[i * label_stride + nrec * rec_stride + r]"
            " = vals[i];",
            "}",
            "nrec += 1;",
        ],
        cut=[
            "*t_out = t;",
            "*step_out = step;",
            "*done_out = 0;",
            "return nrec;",
        ],
    ))
    out.append("    *t_out = t;")
    out.append("    *step_out = step;")
    out.append("    *done_out = 1;")
    out.append("    return nrec;")
    out.append("}")
    return "\n".join(out) + "\n"
