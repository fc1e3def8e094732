"""Python code generation: one body renderer for every Python program.

:func:`render_python_kernel` renders a lowered plan as one flat module —
signal locals, the derivative vector, the statement replica of
``SampledBlock.on_sync`` and a solver-specialised step — behind a
``_build(held)`` factory.  The ``compiled-python`` backend
(:mod:`repro.core.backend.pykernel`) ``exec``s it in process.

``generate_python(diagram)`` returns that module, rendered for RK4, plus
a ``simulate`` loop; the result is a standalone module (stdlib-only:
``math``) exposing::

    simulate(t_end, h=..., record_every=1) -> dict
        {"t": [...], "<block.port>": [...], ...}

Because the module must not import :mod:`repro`, ``simulate`` is a
self-contained copy of the fixed-step loop contract
(:mod:`repro.core.loop`), rendered with the contract's epsilon.  Its
records are the ``compiled-python`` backend's, and so the interpreter's,
bitwise, sampled blocks included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.common import LoweredModel, PyLang, kernel_tables, lower
from repro.core import loop
from repro.dataflow.diagram import Diagram

#: solver-stage statements for the generated ``one_step``; each replays
#: the matching :mod:`repro.solvers.fixed` method element-wise with the
#: same operation order and grouping, so results are bitwise identical
_STAGES: Dict[str, Tuple[str, ...]] = {
    "euler": (
        "k1 = deriv(t, x, held)",
        "x = [xi + hh * ki for xi, ki in zip(x, k1)]",
    ),
    "heun": (
        "k1 = deriv(t, x, held)",
        "k2 = deriv(t + hh, [xi + hh * ki for xi, ki in zip(x, k1)], held)",
        "x = [xi + (hh / 2.0) * (a + b) for xi, a, b in zip(x, k1, k2)]",
    ),
    "rk4": (
        "k1 = deriv(t, x, held)",
        "k2 = deriv(t + hh / 2.0,"
        " [xi + (hh / 2.0) * ki for xi, ki in zip(x, k1)], held)",
        "k3 = deriv(t + hh / 2.0,"
        " [xi + (hh / 2.0) * ki for xi, ki in zip(x, k2)], held)",
        "k4 = deriv(t + hh, [xi + hh * ki for xi, ki in zip(x, k3)], held)",
        "x = [xi + (hh / 6.0) * (a + 2.0 * b + 2.0 * c + d)"
        " for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]",
    ),
}


def render_python_kernel(model: LoweredModel, solver_name: str) -> str:
    """The kernel module source for ``model``: a ``_build(held)``
    factory whose ``outvals``, ``sync`` and ``one_step`` close over the
    held-register list and have the signatures
    :func:`repro.core.loop.run` calls."""
    tables = kernel_tables(model)
    held_names = [name for name, __ in tables["held"]]
    w: List[str] = [
        '"""Auto-generated by repro.codegen.pygen -- do not edit."""',
        "import math",
        "",
        "",
        "def _build(held):",
    ]

    def emit_signals(indent: str) -> None:
        for i, name in enumerate(held_names):
            w.append(f"{indent}{name} = held[{i}]")
        for line in tables["output_lines"]:
            w.append(f"{indent}{line}")

    w.append("    def deriv(t, x, held):")
    emit_signals("        ")
    w.append(f"        d = [0.0] * {tables['n_states']}")
    for index, expr in tables["derivs"]:
        w.append(f"        d[{index}] = {expr}")
    w.append("        return d")
    w.append("")

    w.append("    def outvals(t, x):")
    emit_signals("        ")
    row = ", ".join(tables["record_exprs"])
    w.append(f"        return ({row}{',' if row else ''})")
    w.append("")

    w.append("    def sync(t, x):")
    if tables["sync_rows"]:
        emit_signals("        ")
        for indent, line in tables["sync_rows"]:
            w.append(f"        {'    ' * indent}{line}")
        for i, name in enumerate(held_names):
            w.append(f"        held[{i}] = {name}")
    else:
        w.append("        pass")
    w.append("")

    w.append("    def one_step(t, x, hh):")
    for line in _STAGES[solver_name]:
        w.append(f"        {line}")
    w.append("        return t + hh, x")
    w.append("")
    w.append("    return deriv, outvals, sync, one_step")
    return "\n".join(w) + "\n"


def generate_python(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    default_h: float = 1e-3,
    opt_level: int = 0,
    opt_config=None,
) -> str:
    """Generate a standalone Python simulation module for ``diagram``:
    the RK4 kernel of :func:`render_python_kernel` and its ``simulate``
    loop."""
    lang = PyLang()
    model = lower(
        diagram, lang, records, opt_level=opt_level, opt_config=opt_config,
    )

    def listed(values) -> str:
        return ", ".join(lang.literal(float(v)) for v in values)

    held = [value for __, value in kernel_tables(model)["held"]]
    labels = ["t", *(label for label, __ in model.records)]
    return render_python_kernel(model, "rk4") + "\n".join([
        "",
        "",
        f"# Source diagram: {model.name}",
        f"INITIAL_STATE = [{listed(model.initial_state)}]",
        f"INITIAL_HELD = [{listed(held)}]",
        f"STATE_NAMES = {model.state_names!r}",
        f"LABELS = {labels!r}",
        "",
        "",
        f"def simulate(t_end, h={default_h!r}, record_every=1):",
        '    """Integrate the diagram with RK4; returns recorded series."""',
        "    __, outvals, sync, one_step = _build(list(INITIAL_HELD))",
        "    out = {label: [] for label in LABELS}",
        "    columns = [out[label] for label in LABELS]",
        "",
        "    def record(t, x):",
        "        for column, value in zip(columns, (t, *outvals(t, x))):",
        "            column.append(value)",
        "",
        "    t, x, step = 0.0, list(INITIAL_STATE), 0",
        "    sync(t, x)",
        f"    while t < t_end - {loop.EPS!r}:",
        "        hh = min(h, t_end - t)",
        "        if step % record_every == 0:",
        "            record(t, x)",
        "        t, x = one_step(t, x, hh)",
        "        step += 1",
        "        sync(t, x)",
        "    record(t, x)",
        "    return out",
        "",
        "",
        'if __name__ == "__main__":',
        "    result = simulate(1.0)",
        '    print("t_final =", result["t"][-1])',
        "",
    ])
