"""Python code generation.

``generate_python(diagram)`` returns the source of a standalone module
(stdlib-only: ``math``) exposing::

    simulate(t_end, h=..., record_every=1) -> dict
        {"t": [...], "<block.port>": [...], ...}

The generated integrator is classic RK4 over the flattened network, with
sampled-block held variables updated once per step — mirroring the
library's streamer-thread semantics closely enough that bench S3's
round-trip comparison passes at RK4 accuracy.  Because the module must
not import :mod:`repro`, its loop is the one self-contained copy of the
fixed-step loop contract (:mod:`repro.core.loop`), rendered with the
contract's epsilon.
"""

from __future__ import annotations

from typing import List, Optional

from repro.codegen.common import LoweredModel, PyLang, lower
from repro.core import loop
from repro.dataflow.diagram import Diagram


def generate_python(
    diagram: Diagram,
    records: Optional[List[str]] = None,
    default_h: float = 1e-3,
    opt_level: int = 0,
    opt_config=None,
) -> str:
    """Generate a standalone Python simulation module for ``diagram``."""
    model = lower(
        diagram, PyLang(), records,
        opt_level=opt_level, opt_config=opt_config,
    )
    return _render(model, default_h)


def _render(model: LoweredModel, default_h: float) -> str:
    lang = PyLang()
    output_lines: List[str] = []
    deriv_lines: List[str] = []
    held_inits: List[str] = []
    held_names: List[str] = []
    sync_lines: List[str] = []
    deriv_index = 0
    for node in model.plan.nodes:
        block_code = model.code[node.index]
        output_lines.extend(block_code.output_lines)
        for name, value in block_code.held_vars:
            held_inits.append(f"{name} = {lang.literal(float(value))}")
            held_names.append(name)
        sync_lines.extend(block_code.sync_lines)
        for expr in block_code.deriv_exprs:
            deriv_lines.append(f"dx[{deriv_index}] = {expr}")
            deriv_index += 1

    signals = sorted({line.split(" = ")[0] for line in output_lines})
    sig_dict = ", ".join(f"{s!r}: {s}" for s in signals)
    unpack = [f"{s} = sig[{s!r}]" for s in signals]

    w = _Writer()
    w.line('"""Auto-generated by repro.codegen.pygen -- do not edit.')
    w.line("")
    w.line(f"Source diagram: {model.name}")
    w.line(f"States: {model.state_names}")
    w.line('"""')
    w.line("")
    w.line("import math")
    w.line("")
    w.line("")
    initial = ", ".join(lang.literal(float(v)) for v in model.initial_state)
    w.line(f"INITIAL_STATE = [{initial}]")
    w.line(f"STATE_NAMES = {model.state_names!r}")
    w.line("")
    w.line("")
    w.line(f"def simulate(t_end, h={default_h!r}, record_every=1):")
    with w.indent():
        w.line('"""Integrate the diagram with RK4; returns recorded series."""')
        w.line("x = list(INITIAL_STATE)")
        w.line("t = 0.0")
        keys = ['"t": []'] + [f"{label!r}: []" for label, __ in model.records]
        w.line(f"out = {{{', '.join(keys)}}}")
        for init in held_inits:
            w.line(init)
        w.line("")
        w.line("def outputs(t, x):")
        with w.indent():
            w.line("# topological evaluation of all block outputs")
            for line in output_lines:
                w.line(line)
            w.line(f"return {{{sig_dict}}}")
        w.line("")
        w.line("def rhs(t, x):")
        with w.indent():
            w.line("sig = outputs(t, x)")
            for line in unpack:
                w.line(line)
            w.line(f"dx = [0.0] * {len(model.initial_state)}")
            for line in deriv_lines:
                w.line(line)
            w.line("return dx")
        w.line("")
        w.line("def sync(t, x):")
        with w.indent():
            if held_names:
                w.line(f"nonlocal {', '.join(held_names)}")
            if sync_lines:
                w.line("sig = outputs(t, x)")
                for line in unpack:
                    w.line(line)
                for line in sync_lines:
                    w.line(line)
            if not held_names and not sync_lines:
                w.line("pass")
        w.line("")
        w.line("step = 0")
        w.line("sync(t, x)")
        w.line(f"while t < t_end - {loop.EPS!r}:")
        with w.indent():
            w.line("hh = min(h, t_end - t)")
            w.line("sig = outputs(t, x)")
            w.line("if step % record_every == 0:")
            with w.indent():
                w.line('out["t"].append(t)')
                for label, signal in model.records:
                    w.line(f"out[{label!r}].append(sig[{signal!r}])")
            w.line("# RK4 step")
            w.line("k1 = rhs(t, x)")
            w.line("k2 = rhs(t + hh / 2.0, "
                   "[xi + hh / 2.0 * ki for xi, ki in zip(x, k1)])")
            w.line("k3 = rhs(t + hh / 2.0, "
                   "[xi + hh / 2.0 * ki for xi, ki in zip(x, k2)])")
            w.line("k4 = rhs(t + hh, "
                   "[xi + hh * ki for xi, ki in zip(x, k3)])")
            w.line("x = [xi + hh / 6.0 * (a + 2.0 * b + 2.0 * c + d)")
            w.line("     for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]")
            w.line("t += hh")
            w.line("step += 1")
            w.line("sync(t, x)")
        w.line("sig = outputs(t, x)")
        w.line('out["t"].append(t)')
        for label, signal in model.records:
            w.line(f"out[{label!r}].append(sig[{signal!r}])")
        w.line("return out")
    w.line("")
    w.line("")
    w.line('if __name__ == "__main__":')
    with w.indent():
        w.line("result = simulate(1.0)")
        w.line('print("t_final =", result["t"][-1])')
    return w.render()


class _Writer:
    """Tiny indentation-aware line writer."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._level = 0

    def line(self, text: str) -> None:
        if text:
            self._lines.append("    " * self._level + text)
        else:
            self._lines.append("")

    def indent(self) -> "_WriterIndent":
        return _WriterIndent(self)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


class _WriterIndent:
    def __init__(self, writer: _Writer) -> None:
        self._writer = writer

    def __enter__(self) -> None:
        self._writer._level += 1

    def __exit__(self, *exc) -> None:
        self._writer._level -= 1
