"""C99 code generation.

``generate_c(diagram)`` returns a single self-contained translation unit:

* ``static void outputs(double t, const double *x, double *sig)``
* ``static void rhs(double t, const double *x, double *dx)``
* ``static void sync_step(double t, const double *x)`` (sampled blocks)
* ``int main(void)`` — an RK4 run printing the recorded columns as CSV
  (``%.9g``), one row before every step and a final row at ``t_end``.

The module also renders the shared-object kernels of the native
backends: :func:`kernel_functions` (one instance's deriv, outvals, sync
and step over its state, parameter and held rows, shared by the scalar
``native-c`` kernel and the N-instance batch kernel) and
:func:`render_batch_kernel`.  Every C loop here and in
:mod:`repro.core.backend.native` is rendered by
:meth:`~repro.codegen.common.CLang.fixed_step_loop`, the fixed-step loop
contract of :mod:`repro.core.loop`.  The C and Python backends share
every expression through :mod:`repro.codegen.common`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codegen.common import (
    C_LIBM_DECLARATIONS, CLang, LoweredModel, lower,
)
from repro.dataflow.diagram import Diagram


def _signal_substituter(
    signals: Sequence[str], signal_index: Dict[str, int]
) -> Callable[[str], str]:
    """A ``text -> text`` rewriter mapping whole signal identifiers to
    their ``sig[i]`` slots.  Word-boundary anchored and single-pass, so
    identifiers that embed (or are embedded in) a signal name are never
    corrupted."""
    if not signals:
        return lambda text: text
    pattern = re.compile(
        r"\b(?:" + "|".join(
            re.escape(name)
            for name in sorted(signals, key=len, reverse=True)
        ) + r")\b"
    )

    def fix(text: str) -> str:
        return pattern.sub(
            lambda m: f"sig[{signal_index[m.group(0)]}]", text
        )

    return fix


def generate_c(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    default_h: float = 1e-3,
    t_end: float = 10.0,
    opt_level: int = 0,
    opt_config=None,
) -> str:
    """Generate a standalone C99 simulation program for ``diagram``."""
    model = lower(
        diagram, CLang(), records,
        opt_level=opt_level, opt_config=opt_config,
    )
    return _render(model, default_h, t_end)


# ----------------------------------------------------------------------
# the shared-object kernels (the native-c and native-batch backends)
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

    ``tables`` are :func:`~repro.core.backend.pykernel.kernel_tables`.
    Signals are plain ``const double`` locals, declared in plan order
    (a valid declaration order: only non-feedthrough consumers sit
    before their producers, and those never read the signal in their
    output expression).  ``static`` keeps the functions out of the
    shared object's exports.
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
    ``P[j]`` symbols and sampled blocks carry the statement-level sync
    replicas, so one instance's arithmetic is exactly the scalar native
    kernel's — bitwise vs ``simulate_sequential``.

    The batch-size ``n`` is a *runtime* argument of ``batch_run``;
    nothing per-N is baked into the source, so one artifact serves any
    instance count.  Records are written label-major, into the caller's
    run-long buffer: record ``k`` of label ``i`` for row ``r`` lands at
    ``rec[i * label_stride + k * rec_stride + r]``, so each label's rows
    form one C-contiguous ``(records, n)`` block.
    """
    from repro.core.backend.pykernel import kernel_tables

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


def _render(model: LoweredModel, default_h: float, t_end: float) -> str:
    lang = CLang()
    n_states = len(model.initial_state)
    held_decls: List[str] = []
    for node in model.plan.nodes:
        for name, value in model.code[node.index].held_vars:
            held_decls.append(
                f"static double {name} = {lang.literal(float(value))};"
            )

    signals = sorted({
        line.split(" = ")[0]
        for node in model.plan.nodes
        for line in model.code[node.index].output_lines
    })
    signal_index = {name: i for i, name in enumerate(signals)}

    # one pass, whole identifiers only: sequential str.replace corrupts
    # any identifier that merely *embeds* a signal name (e.g. a held
    # register h_xv_a_held containing the signal v_a_held); \b anchors
    # make a match start/end at identifier boundaries, and the single
    # pass means replacements never rescan each other's output
    fix = _signal_substituter(signals, signal_index)

    out: List[str] = []
    out.append("/* Auto-generated by repro.codegen.cgen -- do not edit.")
    out.append(f" * Source diagram: {model.name}")
    out.append(f" * States: {', '.join(model.state_names) or '(none)'}")
    out.append(" */")
    out.append("#include <math.h>")
    out.append("#include <stdio.h>")
    out.append("")
    out.append(f"#define N_STATES {n_states}")
    out.append(f"#define N_SIGNALS {len(signals)}")
    out.append("")
    init = ", ".join(
        lang.literal(float(v)) for v in model.initial_state
    ) or "0.0"
    out.append(f"static const double initial_state[] = {{{init}}};")
    out.extend(held_decls)
    out.append("")
    out.append("static void outputs(double t, const double *x, double *sig)")
    out.append("{")
    out.append("    (void)t; (void)x;")
    for node in model.plan.nodes:
        for line in model.code[node.index].output_lines:
            var, __, expr = line.partition(" = ")
            out.append(f"    sig[{signal_index[var]}] = {fix(expr)};")
    out.append("}")
    out.append("")
    out.append("static void rhs(double t, const double *x, double *dx)")
    out.append("{")
    out.append("    double sig[N_SIGNALS > 0 ? N_SIGNALS : 1];")
    out.append("    outputs(t, x, sig);")
    out.append("    (void)sig;")
    deriv_index = 0
    for node in model.plan.nodes:
        for expr in model.code[node.index].deriv_exprs:
            out.append(f"    dx[{deriv_index}] = {fix(expr)};")
            deriv_index += 1
    out.append("}")
    out.append("")
    out.append("static void sync_step(double t, const double *x)")
    out.append("{")
    out.append("    double sig[N_SIGNALS > 0 ? N_SIGNALS : 1];")
    out.append("    outputs(t, x, sig);")
    out.append("    (void)sig; (void)t; (void)x;")
    for node in model.plan.nodes:
        for line in model.code[node.index].sync_lines:
            var, __, expr = line.partition(" = ")
            out.append(f"    {var} = {fix(expr)};")
    out.append("}")
    out.append("")
    out.append("int main(void)")
    out.append("{")
    out.append("    double x[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double k1[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double k2[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double k3[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double k4[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double xt[N_STATES > 0 ? N_STATES : 1];")
    out.append("    double sig[N_SIGNALS > 0 ? N_SIGNALS : 1];")
    out.append("    int i;")
    out.append("    for (i = 0; i < N_STATES; i++) x[i] = initial_state[i];")
    out.append(f"    double t = 0.0, h = {default_h!r};")
    out.append(f"    const double t_end = {t_end!r};")
    out.append("    const long record_every = 1;")
    out.append("    long step = 0;")
    header = ",".join(["t"] + [label for label, __ in model.records])
    out.append(f'    printf("%s\\n", "{header}");')
    fmt = ",".join(["%.9g"] * (1 + len(model.records)))
    args = ", ".join(
        ["t"] + [f"sig[{signal_index[signal]}]"
                 for __, signal in model.records]
    )
    each = "for (i = 0; i < N_STATES; i++)"
    out.extend(lang.fixed_step_loop(
        sync=["sync_step(t, x);"],
        advance=[
            "rhs(t, x, k1);",
            f"{each} xt[i] = x[i] + hh / 2.0 * k1[i];",
            "rhs(t + hh / 2.0, xt, k2);",
            f"{each} xt[i] = x[i] + hh / 2.0 * k2[i];",
            "rhs(t + hh / 2.0, xt, k3);",
            f"{each} xt[i] = x[i] + hh * k3[i];",
            "rhs(t + hh, xt, k4);",
            each,
            "    x[i] += hh / 6.0 * "
            "(k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);",
            "t += hh;",
        ],
        record=["outputs(t, x, sig);", f'printf("{fmt}\\n", {args});'],
        cold=None,
    ))
    out.append("    return 0;")
    out.append("}")
    return "\n".join(out) + "\n"
