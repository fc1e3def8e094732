"""ExecutionPlan: the compiled intermediate representation of a network.

Flattening a streamer tree (:class:`~repro.core.network.FlatNetwork`)
answers *what* the dataflow graph is; the :class:`ExecutionPlan` answers
*how to run it*.  It is the single plan representation shared by every
execution backend:

* the **interpreter** (:meth:`ExecutionPlan.evaluate` /
  :meth:`ExecutionPlan.rhs`) used by the hybrid scheduler and the solver
  layer;
* the **batch backend** (:mod:`repro.core.batch`), which compiles the
  plan into one vectorised NumPy program integrating N instances at once;
* the **code generators** (:mod:`repro.codegen`), which emit standalone
  Python/C from the node and edge tables instead of re-walking the tree.

The IR is a set of immutable tables:

``nodes``
    One :class:`PlanNode` per behavioural leaf, in evaluation order, with
    its state-vector slice ``[lo, hi)``, topological ``stage`` and thread
    partition index.
``edges``
    One :class:`PlanEdge` per resolved leaf-to-leaf dependency (plus
    observer edges), with ``crosses_thread`` and ``is_feedback`` flags
    precomputed, wrapping the :class:`~repro.core.network.ResolvedEdge`
    that carries the original pad path.
``stages``
    Node indices grouped by dataflow depth: nodes within one stage have
    no forward dependency on each other, so a stage is the unit a
    parallel backend may fan out.
``guards``
    The lifted zero-crossing guard table (:class:`PlanGuard`).

Thread partitioning: :meth:`thread_plan` derives the per-thread sub-plan
(the thread's own nodes, in-thread edges only) used between
synchronisation points; cross-thread edges are simply *absent* from the
view, so the receiving pads stay frozen during a slice, which is exactly
the paper's threads-plus-channels sampling semantics.  All views share
one :class:`PlanCounters`, so analysis counters aggregate across threads.

Identity: :meth:`ExecutionPlan.fingerprint` hashes the tables into the
key every plan cache and snapshot uses.  The hash is the interpreter's
built-in SHA-256 (:mod:`repro._digest`): the same digest
:func:`hashlib.sha256` gives, without loading OpenSSL into every
process that keys a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro._digest import sha256
from repro.core.network import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import FlatNetwork, ResolvedEdge
    from repro.core.opt import OptConfig, OptReport
    from repro.core.streamer import Streamer


@dataclass(frozen=True)
class PlanNode:
    """One behavioural leaf in the node table."""

    index: int
    leaf: "Streamer"
    #: state-vector slice ``state[lo:hi]`` owned by this leaf
    lo: int
    hi: int
    #: dataflow depth: 1 + max stage of forward producers (0 for sources)
    stage: int
    #: thread partition index (0 when the plan is unpartitioned)
    thread_index: int
    direct_feedthrough: bool
    #: indices into the edge table of the edges feeding this node
    in_edges: Tuple[int, ...]

    @property
    def n_states(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanNode({self.index}, {self.leaf.path()!r}, "
            f"states=[{self.lo}:{self.hi}], stage={self.stage}, "
            f"thread={self.thread_index})"
        )


@dataclass(frozen=True)
class PlanEdge:
    """One resolved dependency in the edge table."""

    index: int
    #: node index of the producer
    src: int
    #: node index of the consumer (== ``src`` for observer edges)
    dst: int
    #: the flattened pad path (propagation + per-flow statistics)
    resolved: "ResolvedEdge"
    #: True if producer and consumer live on different streamer threads;
    #: such edges are sampled only at sync points (frozen during slices)
    crosses_thread: bool
    #: True if the producer sits at/after the consumer in evaluation
    #: order, requiring the second propagation pass
    is_feedback: bool
    #: True for edges ending at observer pads (no consumer leaf)
    is_observer: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = "".join(
            flag for flag, on in (
                ("x", self.crosses_thread),
                ("f", self.is_feedback),
                ("o", self.is_observer),
            ) if on
        )
        return f"PlanEdge({self.src}->{self.dst}{' ' + flags if flags else ''})"


@dataclass(frozen=True)
class PlanGuard:
    """One lifted zero-crossing guard in the guard table."""

    index: int
    #: node index of the owning leaf
    node: int
    leaf: "Streamer"
    #: position in the leaf's ``zero_crossings()`` return value
    slot: int
    name: str
    qualified_name: str


class PlanCounters:
    """Mutable analysis counters shared by a plan and all its views."""

    __slots__ = ("evaluations",)

    def __init__(self) -> None:
        #: number of network evaluations (port refreshes / RHS calls)
        self.evaluations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanCounters(evaluations={self.evaluations})"


def default_records(
    leaves: Iterable["Streamer"],
) -> List[Tuple[str, Any]]:
    """The record set when a caller names none: every Scope input of
    ``leaves``, in their order, as ``("<scope>.<port>", port)`` pairs."""
    return [
        (f"{leaf.name}.{port.name}", port)
        for leaf in leaves
        if type(leaf).__name__ == "Scope"
        for port in leaf.dports.values()
    ]


class ExecutionPlan:
    """The immutable compiled execution form of a flat network.

    Build one with :meth:`compile` (or let
    :meth:`repro.core.network.FlatNetwork.plan` cache one for you); derive
    per-thread views with :meth:`thread_plan`.  The structural tables are
    tuples of frozen rows; only the shared :class:`PlanCounters` and the
    pad/flow statistics inside the referenced runtime objects mutate.
    """

    def __init__(
        self,
        nodes: Sequence[PlanNode],
        edges: Sequence[PlanEdge],
        guards: Sequence[PlanGuard],
        state_size: int,
        n_threads: int,
        counters: Optional[PlanCounters] = None,
        opt_config: Optional["OptConfig"] = None,
        opt_report: Optional["OptReport"] = None,
    ) -> None:
        self.nodes: Tuple[PlanNode, ...] = tuple(nodes)
        self.edges: Tuple[PlanEdge, ...] = tuple(edges)
        self.guards: Tuple[PlanGuard, ...] = tuple(guards)
        self.state_size = state_size
        self.n_threads = n_threads
        self.counters = counters if counters is not None else PlanCounters()
        #: optimizer configuration this plan was compiled under (None for
        #: an unoptimized O0 plan) and the rewrite report, if any
        self.opt_config = opt_config
        self.opt_report = opt_report
        stages: Dict[int, List[int]] = {}
        for node in self.nodes:
            stages.setdefault(node.stage, []).append(node.index)
        #: node indices grouped by stage, shallowest first
        self.stages: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(stages[depth]) for depth in sorted(stages)
        )
        self._node_of: Dict[int, PlanNode] = {
            id(node.leaf): node for node in self.nodes
        }
        edge_by_index = {edge.index: edge for edge in self.edges}
        # hot-path caches: flat tuples the interpreter walks per call
        self._schedule: Tuple[
            Tuple["Streamer", Tuple["ResolvedEdge", ...], int, int], ...
        ] = tuple(
            (
                node.leaf,
                tuple(
                    edge_by_index[i].resolved
                    for i in node.in_edges
                    if i in edge_by_index
                ),
                node.lo,
                node.hi,
            )
            for node in self.nodes
        )
        self._feedback: Tuple["ResolvedEdge", ...] = tuple(
            edge.resolved for edge in self.edges
            if edge.is_feedback and not edge.is_observer
        )
        self._observers: Tuple["ResolvedEdge", ...] = tuple(
            edge.resolved for edge in self.edges if edge.is_observer
        )
        self._stateful: Tuple[Tuple["Streamer", int, int], ...] = tuple(
            (node.leaf, node.lo, node.hi)
            for node in self.nodes if node.hi > node.lo
        )
        self._thread_views: Dict[int, "ExecutionPlan"] = {}

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        network: "FlatNetwork",
        leaf_threads: Optional[Mapping[int, int]] = None,
        counters: Optional[PlanCounters] = None,
        opt_level: int = 0,
        opt_config: Optional["OptConfig"] = None,
        protect: Sequence[Any] = (),
    ) -> "ExecutionPlan":
        """Compile ``network`` into an ExecutionPlan.

        ``leaf_threads`` maps ``id(leaf)`` to a thread partition index;
        omitted leaves (or a missing mapping) land on partition 0.  Node
        order is the network's deterministic topological order, so the
        interpreter reproduces the legacy evaluation sequence bit for
        bit.  ``counters`` lets a caller carry analysis counters across
        recompilations (e.g. re-partitioning an already-used network).

        ``opt_level`` / ``opt_config`` select the optimizer pipeline
        (:mod:`repro.core.opt`) run over the freshly compiled plan; at
        the default O0 the plan is the literal graph.  ``protect`` lists
        pads (probe sources) the optimizer must leave untouched.
        """
        order = list(network.order)
        position = {id(leaf): i for i, leaf in enumerate(order)}
        threads = dict(leaf_threads or {})
        n_threads = (max(threads.values()) + 1) if threads else 1

        # edge table ----------------------------------------------------
        edges: List[PlanEdge] = []
        in_edges_of: Dict[int, List[int]] = {id(leaf): [] for leaf in order}
        for resolved in network.edges:
            src_pos = position.get(id(resolved.src_leaf))
            dst_pos = position.get(id(resolved.dst_leaf))
            if src_pos is None or dst_pos is None:  # pragma: no cover
                raise NetworkError(
                    f"edge {resolved!r} references a leaf outside the "
                    "network order"
                )
            index = len(edges)
            edges.append(PlanEdge(
                index=index,
                src=src_pos,
                dst=dst_pos,
                resolved=resolved,
                crosses_thread=(
                    threads.get(id(resolved.src_leaf), 0)
                    != threads.get(id(resolved.dst_leaf), 0)
                ),
                is_feedback=src_pos >= dst_pos,
                is_observer=False,
            ))
            in_edges_of[id(resolved.dst_leaf)].append(index)
        for resolved in network.observer_edges:
            src_pos = position[id(resolved.src_leaf)]
            edges.append(PlanEdge(
                index=len(edges),
                src=src_pos,
                dst=src_pos,
                resolved=resolved,
                crosses_thread=False,
                is_feedback=False,
                is_observer=True,
            ))

        # node table with stages ---------------------------------------
        stage_of: Dict[int, int] = {}
        nodes: List[PlanNode] = []
        for pos, leaf in enumerate(order):
            stage = 0
            for edge_index in in_edges_of[id(leaf)]:
                edge = edges[edge_index]
                if edge.src < pos:  # forward producer: inputs fresh
                    stage = max(stage, stage_of[edge.src] + 1)
            stage_of[pos] = stage
            lo, hi = network.state_slice(leaf)
            nodes.append(PlanNode(
                index=pos,
                leaf=leaf,
                lo=lo,
                hi=hi,
                stage=stage,
                thread_index=threads.get(id(leaf), 0),
                direct_feedthrough=bool(leaf.direct_feedthrough),
                in_edges=tuple(in_edges_of[id(leaf)]),
            ))

        # guard table ---------------------------------------------------
        guards: List[PlanGuard] = []
        for node in nodes:
            for slot, name in enumerate(node.leaf.zero_crossing_names):
                guards.append(PlanGuard(
                    index=len(guards),
                    node=node.index,
                    leaf=node.leaf,
                    slot=slot,
                    name=name,
                    qualified_name=f"{node.leaf.path()}:{name}",
                ))

        plan = cls(nodes, edges, guards, network.state_size, n_threads,
                   counters=counters)
        config = opt_config
        if config is None and opt_level:
            from repro.core.opt import OptConfig

            config = OptConfig.from_level(opt_level)
        if config is not None and config.is_active:
            from repro.core.opt import PlanOptimizer

            plan = PlanOptimizer(config).run(plan, protect=protect)
        return plan

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def thread_plan(self, thread_index: int) -> "ExecutionPlan":
        """The cached sub-plan for one thread partition.

        The view keeps only the thread's own nodes, the in-thread edges
        (cross-thread edges are excluded, so their receiving pads hold
        the last sampled value during a slice) and the observer edges
        rooted in the thread.  Guard localisation happens on the full
        plan at sync points, so views carry no guards.  The full
        ``state_size`` is retained: views integrate the shared global
        state vector, writing only their own slices.
        """
        view = self._thread_views.get(thread_index)
        if view is None:
            keep = {
                node.index for node in self.nodes
                if node.thread_index == thread_index
            }
            nodes = [node for node in self.nodes if node.index in keep]
            edges = [
                edge for edge in self.edges
                if (edge.is_observer and edge.src in keep)
                or (not edge.is_observer
                    and not edge.crosses_thread
                    and edge.src in keep and edge.dst in keep)
            ]
            kept_edges = {edge.index for edge in edges}
            nodes = [
                PlanNode(
                    index=node.index,
                    leaf=node.leaf,
                    lo=node.lo,
                    hi=node.hi,
                    stage=node.stage,
                    thread_index=node.thread_index,
                    direct_feedthrough=node.direct_feedthrough,
                    in_edges=tuple(
                        i for i in node.in_edges if i in kept_edges
                    ),
                )
                for node in nodes
            ]
            view = ExecutionPlan(
                nodes, edges, (), self.state_size, self.n_threads,
                counters=self.counters,
                opt_config=self.opt_config,
                opt_report=self.opt_report,
            )
            self._thread_views[thread_index] = view
        return view

    def node_of(self, leaf: "Streamer") -> PlanNode:
        """The node table row for ``leaf``."""
        node = self._node_of.get(id(leaf))
        if node is None:
            raise NetworkError(
                f"leaf {leaf.path()} is not part of this execution plan"
            )
        return node

    # ------------------------------------------------------------------
    # interpretation (the hot loop)
    # ------------------------------------------------------------------
    def evaluate(self, t: float, state: np.ndarray) -> None:
        """Refresh every DPort covered by this plan at ``(t, state)``.

        Propagation schedule: each node's in-edges, then its outputs, in
        node order; feedback edges and observer edges in a second pass.
        """
        self.counters.evaluations += 1
        for leaf, pre_edges, lo, hi in self._schedule:
            for edge in pre_edges:
                edge.propagate()
            leaf.compute_outputs(t, state[lo:hi])
        for edge in self._feedback:
            edge.propagate()
        for edge in self._observers:
            edge.propagate()

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Combined ODE right-hand side over the global state vector."""
        self.evaluate(t, state)
        dstate = np.zeros(self.state_size, dtype=float)
        for leaf, lo, hi in self._stateful:
            deriv = np.asarray(leaf.derivatives(t, state[lo:hi]), dtype=float)
            if deriv.shape != (hi - lo,):
                raise NetworkError(
                    f"{leaf.path()}.derivatives() returned shape "
                    f"{deriv.shape}, expected ({hi - lo},)"
                )
            dstate[lo:hi] = deriv
        return dstate

    def guard_values(
        self,
        t: float,
        state: np.ndarray,
        guards: Optional[Sequence[PlanGuard]] = None,
    ) -> List[float]:
        """Evaluate guards at ``(t, state)`` (ports assumed fresh)."""
        chosen = self.guards if guards is None else guards
        values: List[float] = []
        cache: Dict[int, Sequence[float]] = {}
        for guard in chosen:
            if id(guard.leaf) not in cache:
                node = self.node_of(guard.leaf)
                cache[id(guard.leaf)] = list(
                    guard.leaf.zero_crossings(t, state[node.lo:node.hi])
                )
            leaf_values = cache[id(guard.leaf)]
            if guard.slot >= len(leaf_values):
                raise NetworkError(
                    f"{guard.leaf.path()} declared "
                    f"{len(guard.leaf.zero_crossing_names)} guard names "
                    f"but zero_crossings() returned {len(leaf_values)} "
                    "values"
                )
            values.append(float(leaf_values[guard.slot]))
        return values

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(
        self,
        extra: Optional[Mapping[str, Any]] = None,
        include_param_values: bool = True,
    ) -> str:
        """A stable content hash of the compiled plan.

        Two plans fingerprint identically iff they describe the same
        computation: same leaves (by path, type and parameter values, in
        the same evaluation order with the same state slices, stages and
        thread partitions), same edges (by pad path endpoints and
        cross-thread/feedback/observer classification) and same lifted
        guards.  Object identities and memory addresses never enter the
        hash, so two independently built but structurally identical
        diagrams collide — which is exactly what a content-addressed
        plan cache (:mod:`repro.service.cache`) wants.

        ``extra`` folds caller context that lives outside the plan into
        the key — solver binding, step size, record lists, sweep paths —
        so one structural plan can key several compiled artefacts.

        The hash is recomputed on every call (never memoised): block
        parameters are mutable, and a parameter edit *must* change the
        fingerprint so stale cache entries die by key mismatch rather
        than by explicit invalidation.

        ``include_param_values=False`` hashes parameter *keys* but not
        their values.  The snapshot codec (:mod:`repro.resilience`) uses
        this form: parameters are runtime state that legitimately
        changes mid-run (and is restored from the snapshot), so only the
        structural identity of the plan may gate a restore.  Compiled-
        artefact caches must keep the default — for them a parameter
        value *is* part of the artefact.
        """
        digest = sha256()

        def feed(*parts: Any) -> None:
            digest.update(
                "\x1f".join(str(part) for part in parts).encode("utf-8")
            )
            digest.update(b"\x1e")

        feed("plan", self.state_size, self.n_threads)
        for node in self.nodes:
            feed(
                "node", node.index, node.leaf.path(),
                type(node.leaf).__name__, node.lo, node.hi, node.stage,
                node.thread_index, int(node.direct_feedthrough),
            )
            for key in sorted(node.leaf.params):
                if include_param_values:
                    feed("param", key, repr(node.leaf.params[key]))
                else:
                    feed("param", key)
        for edge in self.edges:
            feed(
                "edge", edge.src, edge.dst,
                edge.resolved.src_port.qualified_name,
                edge.resolved.dst_port.qualified_name,
                len(edge.resolved.path),
                int(edge.crosses_thread), int(edge.is_feedback),
                int(edge.is_observer),
            )
        for guard in self.guards:
            feed("guard", guard.node, guard.slot, guard.qualified_name)
        # the optimizer configuration is part of the plan's identity: an
        # O0 and an O2 compile of the same model must never share cache
        # entries, even when the passes happened to rewrite nothing
        if self.opt_config is not None and self.opt_config.is_active:
            feed("opt", self.opt_config.cache_token())
        for key in sorted(extra or {}):
            feed("extra", key, repr(extra[key]))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "edges": sum(1 for e in self.edges if not e.is_observer),
            "observer_edges": len(self._observers),
            "feedback_edges": len(self._feedback),
            "cross_thread_edges": sum(
                1 for e in self.edges if e.crosses_thread
            ),
            "stages": len(self.stages),
            "states": self.state_size,
            "guards": len(self.guards),
            "threads": self.n_threads,
            "evaluations": self.counters.evaluations,
        }

    def describe(self) -> str:
        """A human-readable dump of the tables (debugging aid)."""
        lines = [f"ExecutionPlan: {self.stats()}"]
        by_index = {node.index: node for node in self.nodes}
        for stage_index, stage in enumerate(self.stages):
            lines.append(f"stage {stage_index}:")
            for node_index in stage:
                lines.append(f"  {by_index[node_index]!r}")
        for edge in self.edges:
            lines.append(f"  {edge!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan(nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, stages={len(self.stages)}, "
            f"states={self.state_size}, threads={self.n_threads})"
        )
