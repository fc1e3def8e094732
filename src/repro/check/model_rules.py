"""The W well-formedness rules (DESIGN.md §5), as registry rules.

These are the structural laws extracted from §2 of the paper.
:meth:`HybridModel.validate <repro.core.model.HybridModel.validate>`
runs this family (``select={"W", "STR001"}``) before every run.  W9 and
W11 hold by construction and have no rule; W12, no algebraic loops, is
enforced by the strict flatten at build time and reported statically by
STR001 (:mod:`repro.check.plan_rules`).  Rules whose facts exist only on
a full :class:`~repro.core.model.HybridModel` (capsule DPorts, SPort
bridges, thread ownership) skip silently on other targets.
"""

from __future__ import annotations

from typing import List

from repro.core.streamer import Streamer
from repro.umlrt.capsule import Capsule

from repro.check.context import CheckContext
from repro.check.registry import DEFAULT_REGISTRY as REG

rule = REG.rule


def _all_streamers(ctx: CheckContext) -> List[Streamer]:
    """Every streamer in the checked tree (tolerates W6 violations)."""
    out: List[Streamer] = []

    def walk(streamer: Streamer) -> None:
        out.append(streamer)
        for sub in streamer.subs.values():
            if isinstance(sub, Streamer):
                walk(sub)

    tops = (
        ctx.model.streamers if ctx.model is not None
        else (ctx.network.tops if ctx.network is not None else [])
    )
    for top in tops:
        walk(top)
    return out


def _all_flows(ctx: CheckContext):
    flows = []
    if ctx.model is not None:
        flows.extend(ctx.model.flows)
    elif ctx.network is not None:
        flows.extend(ctx.network.extra_flows)
    for streamer in _all_streamers(ctx):
        flows.extend(streamer.flows)
    return flows


def _all_relays(ctx: CheckContext):
    relays = []
    if ctx.model is not None:
        relays.extend(ctx.model.relays.values())
    for streamer in _all_streamers(ctx):
        relays.extend(streamer.relays.values())
    return relays


@rule("W1", "flow-type subset connections", "model", "error",
      "paper §2: a flow may only connect a source whose flow type is a "
      "subset of the target's")
def check_flow_types(ctx: CheckContext) -> None:
    for flow in _all_flows(ctx):
        if not flow.source.flow_type.subset_of(flow.target.flow_type):
            ctx.emit(
                repr(flow),
                f"source flow type {flow.source.flow_type.name!r} is not "
                f"a subset of target {flow.target.flow_type.name!r}",
                obj=flow,
            )


@rule("W2", "relay duplication discipline", "model", "error",
      "paper §2: a relay consumes exactly one flow and generates "
      "exactly two")
def check_relays(ctx: CheckContext) -> None:
    flows = _all_flows(ctx)
    for relay in _all_relays(ctx):
        incoming = sum(1 for f in flows if f.target is relay.input)
        out_a = sum(1 for f in flows if f.source is relay.out_a)
        out_b = sum(1 for f in flows if f.source is relay.out_b)
        if incoming != 1:
            ctx.emit(
                relay.name,
                f"relay needs exactly one incoming flow, found {incoming}",
                obj=relay,
            )
        if out_a != 1 or out_b != 1:
            ctx.emit(
                relay.name,
                "relay must generate exactly two flows "
                f"(out_a: {out_a}, out_b: {out_b})",
                obj=relay,
            )


@rule("W3", "port bindings complete", "model", "error",
      "paper §2: every DPort carries a flow type, every SPort a "
      "protocol role")
def check_port_bindings(ctx: CheckContext) -> None:
    for streamer in _all_streamers(ctx):
        for dport in streamer.dports.values():
            if dport.flow_type is None:  # defensive; ctor already rejects
                ctx.emit(
                    dport.qualified_name, "DPort without flow type",
                    obj=dport,
                )
        for sport in streamer.sports.values():
            if sport.role is None:
                ctx.emit(
                    sport.qualified_name, "SPort without protocol role",
                    obj=sport,
                )


@rule("W4", "streamer behaviour is equations", "model", "error",
      "paper §2: streamer behaviour must be a solver computing "
      "equations, never a state machine")
def check_behaviour_kinds(ctx: CheckContext) -> None:
    for streamer in _all_streamers(ctx):
        if getattr(streamer, "behaviour", None) is not None:
            ctx.emit(
                streamer.path(),
                "streamer carries a state machine; streamer behaviour "
                "must be a solver computing equations",
                obj=streamer,
            )


@rule("W5", "capsule DPorts are relay-only", "model", "error",
      "paper §2: capsules process no data; their DPorts only relay")
def check_capsule_dports(ctx: CheckContext) -> None:
    if ctx.model is None:
        return
    for (capsule_name, port_name), dport in ctx.model.capsule_dports.items():
        if not dport.relay_only:
            ctx.emit(
                f"{capsule_name}.{port_name}",
                "capsule DPorts must be relay-only; capsules process no "
                "data",
                obj=dport,
            )


@rule("W6", "streamers never contain capsules", "model", "error",
      "paper §2 / Figure 2: containment is capsule→streamer, never the "
      "reverse")
def check_containment(ctx: CheckContext) -> None:
    for streamer in _all_streamers(ctx):
        for sub in streamer.subs.values():
            if isinstance(sub, Capsule):
                ctx.emit(
                    streamer.path(),
                    f"streamer contains capsule {sub.instance_name!r}; "
                    "streamers never contain capsules",
                    obj=streamer,
                )


@rule("W7", "SPorts are bridged", "model", "warning",
      "paper §2: an SPort exists to exchange signals with a capsule "
      "port; an unbridged one is dead weight")
def check_sport_bridges(ctx: CheckContext) -> None:
    if ctx.model is None:
        return
    for streamer, sport in ctx.model.all_sports():
        if not sport.connected:
            ctx.emit(
                sport.qualified_name,
                "SPort is not connected to any capsule port",
                obj=streamer,
            )


@rule("W8", "single drivers and connectivity", "model", "warning",
      "paper §2: every IN DPort has at most one driver; undriven "
      "inputs hold their initial value")
def check_network(ctx: CheckContext) -> None:
    if ctx.network_error is not None:
        # flattening failed outright: a double driver or a pad cycle
        ctx.emit(ctx.subject, str(ctx.network_error), severity="error")
        return
    if ctx.unconnected_inputs is None:
        return
    for port in ctx.unconnected_inputs:
        ctx.emit(
            port.qualified_name,
            "IN DPort has no driver; it will hold its initial value",
            obj=port.owner,
        )


@rule("W10", "thread partition is sound", "model", "warning",
      "paper §2: capsules and streamers are assigned to different "
      "threads; each streamer to exactly one")
def check_threads(ctx: CheckContext) -> None:
    if ctx.model is None:
        return
    for top in ctx.model.streamers:
        if top.thread is None:
            ctx.emit(
                top.path(),
                "top streamer not yet assigned to a thread; the default "
                "thread will adopt it at build time",
                obj=top,
            )
    seen = {}
    for thread in ctx.model.threads:
        for streamer in thread.streamers:
            if id(streamer) in seen:
                ctx.emit(
                    streamer.path(),
                    f"streamer on two threads: {seen[id(streamer)]} and "
                    f"{thread.name}",
                    severity="error",
                    obj=streamer,
                )
            seen[id(streamer)] = thread.name
