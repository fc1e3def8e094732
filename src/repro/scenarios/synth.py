"""Seeded model synthesis: the generator layer of the campaign engine.

Every synthesiser here is a pure function of its ``seed`` — the only
randomness is a private ``random.Random(seed)`` — so any generated
model can be rebuilt bit-for-bit from the integer that named it.  That
is the property the whole campaign rig leans on: a failing scenario is
*replayable* from its seed alone (``python -m repro.scenarios replay
--seed <s>``), with no serialized model artefact to ship around.

Four families:

* :func:`synth_dag` — random acyclic diagrams over the emitter-
  supported block grammar (moved here from ``repro.core.opt.synth``,
  which keeps a deprecation alias).  ``sampled=True`` mixes in
  zero-order holds and unit delays.
* :func:`synth_feedback` — the same DAG grammar plus seeded feedback
  loops, each broken by a non-feedthrough block (integrator or lag) so
  the diagram stays legal under W12/STR001.
* :func:`synth_plant` — a parameterised PID-over-plant control family
  with deliberately foldable, fusable, CSE-able and dead substructure,
  so a single scenario exercises every optimizer pass and the synthetic
  ``FoldedBlock``/``FusedChain`` opcodes.
* :func:`synth_multirate` / :func:`synth_control_model` — seeded
  :class:`~repro.core.model.HybridModel` instances (two-rate threads,
  probed feedback loops) for the determinism and fault-injection
  scenario kinds, which run through the hybrid scheduler rather than a
  compiled plan.
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = [
    "synth_control_model",
    "synth_dag",
    "synth_feedback",
    "synth_multirate",
    "synth_plant",
]


def _dag_body(
    rng: random.Random,
    d,
    blocks: int,
    sampled: bool,
) -> List[str]:
    """The shared random-DAG grammar: sources plus ``blocks`` ops.

    Factored out of :func:`synth_dag` *without changing its draw
    sequence* — the same seed still yields the identical diagram the
    backend-parity suites were written against — so the feedback family
    can reuse the grammar before appending its loop structures.
    """
    from repro.dataflow import (
        Abs, Bias, Constant, FirstOrderLag, Gain, Integrator, Saturation,
        Sine, Step, Sum, UnitDelay, ZeroOrderHold,
    )

    outs: List[str] = []

    def param() -> float:
        return round(rng.uniform(-2.0, 2.0), 6)

    for i in range(max(2, blocks // 4)):
        kind = rng.choice(("const", "sine", "step"))
        name = f"src{i}"
        if kind == "const":
            d.add(Constant(name, value=param()))
        elif kind == "sine":
            d.add(Sine(name, amplitude=abs(param()) + 0.1,
                       freq=abs(param()) + 0.2, phase=param()))
        else:
            d.add(Step(name, amplitude=param(),
                       t_step=round(abs(rng.uniform(0.0, 0.3)), 6)))
        outs.append(f"{name}.out")

    kinds = ["gain", "bias", "sum", "abs", "sat", "integ", "lag"]
    if sampled:
        kinds += ["zoh", "delay"]
    for i in range(blocks):
        kind = rng.choice(kinds)
        name = f"n{i}"
        src = rng.choice(outs)
        if kind == "gain":
            d.add(Gain(name, k=param()))
            d.connect(src, f"{name}.in")
        elif kind == "bias":
            d.add(Bias(name, bias=param()))
            d.connect(src, f"{name}.in")
        elif kind == "sum":
            arity = rng.choice((2, 3))
            signs = "".join(rng.choice("+-") for __ in range(arity))
            d.add(Sum(name, signs=signs))
            d.connect(src, f"{name}.in1")
            for slot in range(2, arity + 1):
                d.connect(rng.choice(outs), f"{name}.in{slot}")
        elif kind == "abs":
            d.add(Abs(name))
            d.connect(src, f"{name}.in")
        elif kind == "sat":
            d.add(Saturation(name, lower=min(param(), -0.1),
                             upper=abs(param()) + 0.1))
            d.connect(src, f"{name}.in")
        elif kind == "integ":
            d.add(Integrator(name, y0=param()))
            d.connect(src, f"{name}.in")
        elif kind == "lag":
            d.add(FirstOrderLag(name, tau=abs(param()) + 0.2, y0=param()))
            d.connect(src, f"{name}.in")
        elif kind == "zoh":
            d.add(ZeroOrderHold(name, ts=rng.choice((0.05, 0.07, 0.11))))
            d.connect(src, f"{name}.in")
        else:
            d.add(UnitDelay(name, ts=rng.choice((0.05, 0.09, 0.13)),
                            y0=param()))
            d.connect(src, f"{name}.in")
        outs.append(f"{name}.out")
    return outs


def synth_dag(
    seed: int,
    blocks: int = 12,
    sampled: bool = False,
    scope_channels: int = 3,
):
    """A deterministic random block diagram for differential testing.

    Seeded by ``random.Random(seed)`` only — the same seed always yields
    the same diagram with the same parameters, so backend-parity suites
    can fan structurally diverse DAGs through every registered execution
    backend and assert bitwise-identical traces against the interpreter.
    The generated diagram is acyclic (every consumer reads strictly
    earlier producers), uses only emitter-supported block types, and
    ends in one Scope recording ``scope_channels`` interior signals —
    giving every backend identical default record labels.  With
    ``sampled=True`` the mix includes zero-order holds and unit delays
    (the statement-replica sync path); otherwise the DAG is purely
    continuous.
    """
    from repro.dataflow import Scope
    from repro.dataflow.diagram import Diagram

    rng = random.Random(seed)
    d = Diagram(f"synth{seed}")
    outs = _dag_body(rng, d, blocks, sampled)

    channels = min(scope_channels, len(outs))
    d.add(Scope("scope", channels=channels))
    # record the newest signals — they transitively exercise the most
    # of the DAG — and keep everything upstream live under the optimizer
    for index, src in enumerate(outs[-channels:]):
        d.connect(src, f"scope.in{index + 1}")
    return d


def synth_feedback(
    seed: int,
    blocks: int = 10,
    loops: int = 2,
    scope_channels: int = 3,
):
    """A continuous DAG with ``loops`` seeded feedback loops.

    Each loop is an error Sum -> controller Gain -> non-feedthrough
    plant (Integrator or FirstOrderLag) whose output closes back onto
    the Sum's second slot — the one topology the forward DAG grammar of
    :func:`synth_dag` cannot produce, and the one that exercises the
    plan's feedback-edge classification in every backend.  The loops
    are legal by construction: every cycle passes through a
    non-feedthrough block, so W12/STR001 stay silent.
    """
    from repro.dataflow import FirstOrderLag, Gain, Integrator, Scope, Sum
    from repro.dataflow.diagram import Diagram

    rng = random.Random(seed)
    d = Diagram(f"fb{seed}")
    outs = _dag_body(rng, d, blocks, sampled=False)

    loop_outs: List[str] = []
    for i in range(max(1, loops)):
        drive = rng.choice(outs)
        err = Sum(f"fberr{i}", signs="+-")
        ctrl = Gain(f"fbg{i}", k=round(rng.uniform(0.2, 1.5), 6))
        if rng.random() < 0.5:
            plant = Integrator(
                f"fbp{i}", y0=round(rng.uniform(-0.5, 0.5), 6)
            )
        else:
            plant = FirstOrderLag(
                f"fbp{i}",
                tau=round(rng.uniform(0.3, 1.2), 6),
                y0=round(rng.uniform(-0.5, 0.5), 6),
            )
        d.add(err)
        d.add(ctrl)
        d.add(plant)
        d.connect(drive, f"fberr{i}.in1")
        d.connect(f"fbp{i}.out", f"fberr{i}.in2")   # the feedback edge
        d.connect(f"fberr{i}.out", f"fbg{i}.in")
        d.connect(f"fbg{i}.out", f"fbp{i}.in")
        loop_outs.append(f"fbp{i}.out")

    channels = min(max(scope_channels, 1), len(loop_outs))
    d.add(Scope("scope", channels=channels))
    for index, src in enumerate(loop_outs[-channels:]):
        d.connect(src, f"scope.in{index + 1}")
    return d


def synth_plant(seed: int):
    """A parameterised PID-over-plant family with optimizer bait.

    The control core is Step reference -> Sum error -> PID ->
    Saturation -> plant (second-order or first-order lag, seeded) with
    the plant output fed back.  Around it, three deliberate
    substructures guarantee that *one* scenario of this family drives
    every optimizer pass and both synthetic opcodes:

    * a constant-fed trim chain (Constant -> Gain -> Bias) into the
      error Sum — constant-folded at O1 (``FoldedBlock``);
    * a measurement chain (Gain -> Bias -> Gain) off the plant output —
      fused at O1 (``FusedChain``);
    * two *identical* Gain taps off the plant output, combined by an
      unrecorded Sum — merged by CSE (recorded pads are protected from
      CSE rewiring, so the taps themselves must stay unobserved);
    * one dangling Gain tap nothing reads — removed by DCE.
    """
    from repro.dataflow import (
        PID, Bias, Constant, FirstOrderLag, Gain, Saturation, Scope,
        SecondOrderSystem, Step, Sum,
    )
    from repro.dataflow.diagram import Diagram

    rng = random.Random(seed)

    def p(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 6)

    d = Diagram(f"plant{seed}")
    d.add(Step("ref", amplitude=p(0.5, 2.0), t_step=p(0.0, 0.1)))
    d.add(Sum("err", signs="+-+"))
    d.add(PID(
        "pid", kp=p(1.0, 6.0), ki=p(0.0, 3.0), tf=p(0.2, 0.8),
        u_min=-p(5.0, 12.0), u_max=p(5.0, 12.0),
    ))
    d.add(Saturation("act", lower=-p(4.0, 10.0), upper=p(4.0, 10.0)))
    if rng.random() < 0.6:
        d.add(SecondOrderSystem(
            "plant", omega=p(1.5, 5.0), zeta=p(0.3, 1.1),
        ))
    else:
        d.add(FirstOrderLag("plant", tau=p(0.2, 1.0)))
    d.connect("ref.out", "err.in1")
    d.connect("plant.out", "err.in2")
    d.connect("err.out", "pid.in")
    d.connect("pid.out", "act.in")
    d.connect("act.out", "plant.in")

    # constant-fed trim chain: folded into one literal at O1
    d.add(Constant("trim", value=p(-0.3, 0.3)))
    d.add(Gain("trimg", k=p(0.5, 1.5)))
    d.add(Bias("trimb", bias=p(-0.2, 0.2)))
    d.connect("trim.out", "trimg.in")
    d.connect("trimg.out", "trimb.in")
    d.connect("trimb.out", "err.in3")

    # linear measurement chain: fused into one node at O1
    k_meas = p(0.8, 1.2)
    d.add(Gain("m1", k=k_meas))
    d.add(Bias("m2", bias=p(-0.1, 0.1)))
    d.add(Gain("m3", k=p(0.9, 1.1)))
    d.connect("plant.out", "m1.in")
    d.connect("m1.out", "m2.in")
    d.connect("m2.out", "m3.in")

    # two identical taps: CSE merges them; one dangling tap: DCE
    # removes it.  The taps feed an (unrecorded) Sum rather than the
    # scope directly — observed pads are excluded from CSE.
    k_tap = p(1.5, 2.5)
    d.add(Gain("tap_a", k=k_tap))
    d.add(Gain("tap_b", k=k_tap))
    d.add(Gain("dangle", k=p(0.1, 0.9)))
    d.add(Sum("tapsum", signs="++"))
    d.connect("plant.out", "tap_a.in")
    d.connect("plant.out", "tap_b.in")
    d.connect("plant.out", "dangle.in")
    d.connect("tap_a.out", "tapsum.in1")
    d.connect("tap_b.out", "tapsum.in2")

    d.add(Scope("scope", channels=3))
    d.connect("plant.out", "scope.in1")
    d.connect("m3.out", "scope.in2")
    d.connect("tapsum.out", "scope.in3")
    return d


def synth_control_model(seed: int, probes: int = 2):
    """A seeded single-thread :class:`HybridModel` feedback loop.

    The fault-injection scenario kind runs this through
    :class:`~repro.service.jobs.SingleRunJob` twice — once uninterrupted
    and once with an injected crash plus checkpoint/resume — and asserts
    the recovered run lands on exactly the same final probe values.
    """
    from repro.core.model import HybridModel
    from repro.dataflow import FirstOrderLag, Gain, Integrator, Step, Sum

    rng = random.Random(seed)
    model = HybridModel(f"ctl{seed}")
    ref = model.add_streamer(Step(
        "ref", amplitude=round(rng.uniform(0.5, 2.0), 6),
    ))
    err = model.add_streamer(Sum("err", signs="+-"))
    ctrl = model.add_streamer(Gain(
        "ctrl", k=round(rng.uniform(0.5, 3.0), 6),
    ))
    if rng.random() < 0.5:
        plant = model.add_streamer(Integrator("plant"))
    else:
        plant = model.add_streamer(FirstOrderLag(
            "plant", tau=round(rng.uniform(0.3, 1.0), 6),
        ))
    model.add_flow(ref.dport("out"), err.dport("in1"))
    model.add_flow(plant.dport("out"), err.dport("in2"))
    model.add_flow(err.dport("out"), ctrl.dport("in"))
    model.add_flow(ctrl.dport("out"), plant.dport("in"))
    model.add_probe("y", plant.dport("out"))
    if probes > 1:
        model.add_probe("u", ctrl.dport("out"))
    return model


def synth_multirate(seed: int, feedthrough: Optional[bool] = None):
    """A seeded two-rate :class:`HybridModel` (fast + default thread).

    A source and lag run on a fast thread; an integrator consumes the
    lag across the thread boundary on the default thread.  With
    ``feedthrough=True`` (or a seeded coin flip when ``None``) a
    direct-feedthrough Gain also reads across the boundary, which the
    static checker flags as THR001 — deliberate, so campaign lint
    coverage includes the thread rules on *runnable* models, not just
    the defect menu.
    """
    from repro.core.model import HybridModel
    from repro.dataflow import FirstOrderLag, Gain, Integrator, Sine

    rng = random.Random(seed)
    if feedthrough is None:
        feedthrough = rng.random() < 0.5
    model = HybridModel(f"mr{seed}")
    fast = model.create_thread(
        "fast",
        solver=rng.choice(("rk4", "heun")),
        h=rng.choice((2e-4, 5e-4)),
    )
    src = model.add_streamer(Sine(
        "src",
        amplitude=round(rng.uniform(0.5, 2.0), 6),
        freq=round(rng.uniform(0.5, 3.0), 6),
    ), thread=fast)
    lag = model.add_streamer(FirstOrderLag(
        "lag", tau=round(rng.uniform(0.05, 0.4), 6),
    ), thread=fast)
    integ = model.add_streamer(Integrator("slow"))
    model.add_flow(src.dport("out"), lag.dport("in"))
    model.add_flow(lag.dport("out"), integ.dport("in"))
    model.add_probe("fast_y", lag.dport("out"))
    model.add_probe("slow_y", integ.dport("out"))
    if feedthrough:
        tap = model.add_streamer(Gain(
            "tap", k=round(rng.uniform(0.5, 2.0), 6),
        ))
        model.add_flow(lag.dport("out"), tap.dport("in"))
        model.add_probe("tap_y", tap.dport("out"))
    return model
