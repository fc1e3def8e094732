"""The shared fact tables the rules analyse.

``run_checks`` accepts several target shapes — a :class:`~repro.core.
model.HybridModel`, a :class:`~repro.dataflow.diagram.Diagram` (or any
composite streamer), a compiled :class:`~repro.core.plan.ExecutionPlan`,
or a bare :class:`~repro.umlrt.statemachine.StateMachine`.  This module
normalises them all into one :class:`CheckContext`: leaves, resolved
edges, observer edges, algebraic cycles, the thread partition, probed
pads and the attached state machines.  Rules then read those tables and
never care which surface the model arrived through.

Models are flattened with ``FlatNetwork(strict=False)`` so a model
containing an algebraic loop — the very defect STR001 exists to report —
still produces an analysable network instead of an exception.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dport import DPort
from repro.core.network import FlatNetwork, NetworkError, ResolvedEdge
from repro.core.plan import ExecutionPlan
from repro.core.streamer import Streamer
from repro.umlrt.capsule import Capsule
from repro.umlrt.statemachine import StateMachine

from repro.check.diagnostics import Diagnostic, FixIt
from repro.check.registry import CheckConfig, Rule, suppressed_codes


class CheckTargetError(TypeError):
    """Raised when run_checks receives an object it cannot analyse."""


class CheckContext:
    """Normalised view of one check target plus the diagnostic sink."""

    def __init__(self, config: CheckConfig, subject: str) -> None:
        self.config = config
        self.subject = subject
        self.model = None  # HybridModel, when the target carries one
        self.network: Optional[FlatNetwork] = None
        self.plan: Optional[ExecutionPlan] = None
        #: NetworkError raised while flattening (double driver, pad
        #: cycle); when set, the graph tables below are empty
        self.network_error: Optional[NetworkError] = None
        self.leaves: List[Streamer] = []
        self.edges: List[ResolvedEdge] = []
        self.observer_edges: List[ResolvedEdge] = []
        self.cycles: List[List[Streamer]] = []
        #: None = unknown (plan targets carry no connectivity gaps)
        self.unconnected_inputs: Optional[List[DPort]] = None
        #: id(leaf) -> thread name ("" when unpartitioned)
        self.thread_name: Dict[int, str] = {}
        #: id(DPort) -> True for pads read by probes
        self.probed_ids: Set[int] = set()
        #: (subject prefix, machine, owning capsule or None)
        self.machines: List[
            Tuple[str, StateMachine, Optional[Capsule]]
        ] = []
        self.diagnostics: List[Diagnostic] = []
        self._rule: Optional[Rule] = None

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(
        self,
        subject: str,
        message: str,
        severity: Optional[str] = None,
        obj: Any = None,
        fixit: Optional[FixIt] = None,
        details: Optional[dict] = None,
        code: Optional[str] = None,
    ) -> Optional[Diagnostic]:
        """Record one finding for the currently running rule.

        Returns the diagnostic, or None when it was suppressed — either
        by an inline ``lint_suppress`` marker on ``obj`` (or the model)
        or by a config suppression pattern.
        """
        assert self._rule is not None, "emit() outside a rule"
        rule = self._rule
        final_code = code or rule.code
        if obj is not None and final_code in suppressed_codes(obj):
            return None
        if self.model is not None and final_code in suppressed_codes(
            self.model
        ):
            return None
        if self.config.suppressed(final_code, subject):
            return None
        final = self.config.effective_severity(
            final_code, severity or rule.severity
        )
        diagnostic = Diagnostic(
            final_code, final, subject, message,
            fixit=fixit, details=details,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    # ------------------------------------------------------------------
    # graph helpers shared by several rules
    # ------------------------------------------------------------------
    def in_edges_of(self, leaf: Streamer) -> List[ResolvedEdge]:
        return [e for e in self.edges if e.dst_leaf is leaf]

    def port_is_read(self, port: DPort) -> bool:
        """True if anything downstream consumes or observes this pad."""
        if id(port) in self.probed_ids:
            return True
        for edge in self.edges:
            if edge.src_port is port:
                return True
        for edge in self.observer_edges:
            if edge.src_port is port or edge.dst_port is port:
                return True
        return False


def _thread_names_from_model(model) -> Dict[int, str]:
    """Map every leaf to the thread of its top-level ancestor."""
    top_thread: Dict[int, str] = {}
    for thread in model.threads:
        for top in thread.streamers:
            top_thread[id(top)] = thread.name
    names: Dict[int, str] = {}
    for top in model.streamers:
        name = top_thread.get(id(top), "")
        for leaf in top.leaves():
            names[id(leaf)] = name
    return names


def _collect_machines(model) -> List[Tuple[str, StateMachine, Capsule]]:
    machines: List[Tuple[str, StateMachine, Capsule]] = []
    seen: Set[int] = set()

    def walk(capsule: Capsule) -> None:
        if id(capsule) in seen:
            return
        seen.add(id(capsule))
        if capsule.behaviour is not None:
            machines.append(
                (capsule.instance_name, capsule.behaviour, capsule)
            )
        for part in capsule.parts.values():
            if part.instance is not None:
                walk(part.instance)

    for top in model.rts.tops:
        walk(top)
    return machines


def _fill_from_network(ctx: CheckContext, network: FlatNetwork) -> None:
    ctx.network = network
    ctx.leaves = list(network.leaves)
    ctx.edges = list(network.edges)
    ctx.observer_edges = list(network.observer_edges)
    ctx.cycles = [list(cycle) for cycle in network.algebraic_cycles]
    ctx.unconnected_inputs = list(network.unconnected_inputs)


def _cycles_from_edges(
    leaves: List[Streamer], edges: List[ResolvedEdge]
) -> List[List[Streamer]]:
    """Recompute delay-free cycles from a resolved edge table.

    Plans carry no recorded cycles (a strict network rejects them at
    flatten time), so the plan path re-derives them the same way the
    network does: Kahn over the feedthrough-constraint subgraph, then
    one concrete cycle per leftover strongly connected component.
    """
    successors: Dict[int, List[Streamer]] = {id(l): [] for l in leaves}
    indegree: Dict[int, int] = {id(l): 0 for l in leaves}
    cycles: List[List[Streamer]] = []
    constrained: Set[Tuple[int, int]] = set()
    self_looped: Set[int] = set()
    for edge in edges:
        if not edge.dst_leaf.direct_feedthrough:
            continue
        if edge.src_leaf is edge.dst_leaf:
            if id(edge.dst_leaf) not in self_looped:
                self_looped.add(id(edge.dst_leaf))
                cycles.append([edge.dst_leaf])
            continue
        key = (id(edge.src_leaf), id(edge.dst_leaf))
        if key in constrained:
            continue
        constrained.add(key)
        successors[id(edge.src_leaf)].append(edge.dst_leaf)
        indegree[id(edge.dst_leaf)] += 1
    ready = [leaf for leaf in leaves if indegree[id(leaf)] == 0]
    done: Set[int] = set()
    while ready:
        leaf = ready.pop()
        done.add(id(leaf))
        for child in successors[id(leaf)]:
            indegree[id(child)] -= 1
            if indegree[id(child)] == 0:
                ready.append(child)
    stuck = [leaf for leaf in leaves if id(leaf) not in done]
    if stuck:
        cycles.extend(FlatNetwork._find_cycles(stuck, successors))
    return cycles


def _fill_from_plan(ctx: CheckContext, plan: ExecutionPlan) -> None:
    ctx.plan = plan
    ctx.leaves = [node.leaf for node in plan.nodes]
    ctx.edges = [
        edge.resolved for edge in plan.edges if not edge.is_observer
    ]
    ctx.observer_edges = [
        edge.resolved for edge in plan.edges if edge.is_observer
    ]
    ctx.cycles = _cycles_from_edges(ctx.leaves, ctx.edges)
    ctx.unconnected_inputs = None  # a plan records no connectivity gaps
    ctx.thread_name = {
        id(node.leaf): f"thread{node.thread_index}" for node in plan.nodes
    }


def build_context(target: Any, config: CheckConfig) -> CheckContext:
    """Normalise any supported target into a :class:`CheckContext`."""
    from repro.core.model import HybridModel  # local: avoid import cycle

    if isinstance(target, HybridModel):
        ctx = CheckContext(config, target.name)
        ctx.model = target
        ctx.machines = list(_collect_machines(target))
        for probe in target.probes.values():
            source = getattr(probe, "source", None)
            if isinstance(source, DPort):
                ctx.probed_ids.add(id(source))
        # flattening assumes streamers never contain capsules (W6); the
        # model rule reports the violation, the graph analyses skip
        contains_capsule = any(
            isinstance(sub, Capsule)
            for top in target.streamers
            for streamer in _walk_streamers(top)
            for sub in streamer.subs.values()
        )
        if target.streamers and not contains_capsule:
            try:
                network = FlatNetwork(
                    target.streamers, target.flows, strict=False,
                )
            except NetworkError as exc:
                ctx.network_error = exc
            else:
                _fill_from_network(ctx, network)
                ctx.thread_name = _thread_names_from_model(target)
        return ctx

    if isinstance(target, Streamer):
        ctx = CheckContext(config, target.path())
        if hasattr(target, "finalise") and not getattr(
            target, "_finalised", True
        ):
            target.finalise()
        try:
            network = FlatNetwork([target], strict=False)
        except NetworkError as exc:
            ctx.network_error = exc
        else:
            _fill_from_network(ctx, network)
            ctx.thread_name = {id(leaf): "" for leaf in ctx.leaves}
        return ctx

    if isinstance(target, ExecutionPlan):
        ctx = CheckContext(config, f"plan:{target.fingerprint()[:12]}")
        _fill_from_plan(ctx, target)
        return ctx

    if isinstance(target, StateMachine):
        ctx = CheckContext(config, target.name)
        ctx.machines = [(target.name, target, None)]
        return ctx

    raise CheckTargetError(
        f"cannot check {type(target).__name__}: expected HybridModel, "
        "Diagram/Streamer, ExecutionPlan or StateMachine"
    )


def _walk_streamers(streamer: Streamer):
    yield streamer
    for sub in streamer.subs.values():
        if isinstance(sub, Streamer):
            yield from _walk_streamers(sub)
