"""Flattening the streamer hierarchy into an executable dataflow network.

The hybrid scheduler does not interpret the streamer tree directly.  At
build time it flattens:

1. every *leaf* streamer becomes a network node with a continuous-state
   slice in one global state vector;
2. every chain ``leaf OUT → (flows / relays / boundary DPorts / capsule
   relay DPorts)* → leaf IN`` is resolved into one :class:`ResolvedEdge`
   remembering the full pad path (so per-flow statistics stay live);
3. leaves are topologically ordered; only *direct-feedthrough* consumers
   impose ordering constraints, and a feedthrough cycle is rejected as an
   algebraic loop (rule W12);
4. each leaf's zero-crossing guards are lifted into network-level guards.

The network exposes the combined right-hand side ``rhs(t, Y)`` any solver
from :mod:`repro.solvers` can integrate — this is precisely where the
paper's "solver ... computing equations" plugs in.

Multi-thread execution: each leaf belongs to the :class:`~repro.core.thread.
StreamerThread` of its top-level streamer.  Edges within one thread are
propagated at every solver stage; edges crossing threads are sampled only
at synchronisation points (the receiving pad holds the last sampled value),
which reproduces the paper's threads-plus-channels architecture for data.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.dport import DPort
from repro.core.flow import Flow, Relay
from repro.core.streamer import Streamer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import ExecutionPlan


class NetworkError(Exception):
    """Raised for unresolvable or ill-formed dataflow networks."""


class ResolvedEdge:
    """A leaf-to-leaf dataflow dependency with its original pad path."""

    def __init__(
        self,
        src_leaf: Streamer,
        src_port: DPort,
        dst_leaf: Streamer,
        dst_port: DPort,
        path: Sequence[object],
    ) -> None:
        self.src_leaf = src_leaf
        self.src_port = src_port
        self.dst_leaf = dst_leaf
        self.dst_port = dst_port
        #: alternating Flow/Relay objects along the chain, in order
        self.path = list(path)

    def propagate(self) -> None:
        """Push the current source value down the whole pad chain."""
        for hop in self.path:
            hop.propagate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResolvedEdge({self.src_port.qualified_name} => "
            f"{self.dst_port.qualified_name}, hops={len(self.path)})"
        )


class NetworkGuard:
    """A lifted zero-crossing guard of one leaf."""

    def __init__(self, leaf: Streamer, index: int, name: str) -> None:
        self.leaf = leaf
        self.index = index
        self.name = name

    @property
    def qualified_name(self) -> str:
        return f"{self.leaf.path()}:{self.name}"


class FlatNetwork:
    """The flattened, executable form of a set of top-level streamers."""

    def __init__(
        self,
        tops: Sequence[Streamer],
        extra_flows: Sequence[Flow] = (),
        *,
        strict: bool = True,
    ) -> None:
        if not tops:
            raise NetworkError("no streamers to flatten")
        self.tops = list(tops)
        self.extra_flows = list(extra_flows)
        #: strict (the scheduler path) rejects algebraic loops outright;
        #: non-strict (the static checker) records each delay-free cycle
        #: in :attr:`algebraic_cycles` and keeps the network analysable —
        #: stuck leaves are appended to the order, which is fine for
        #: inspection but must never be integrated.
        self.strict = strict
        self.algebraic_cycles: List[List[Streamer]] = []
        self.leaves: List[Streamer] = []
        for top in self.tops:
            self.leaves.extend(top.leaves())
        self._leaf_ids = {id(leaf) for leaf in self.leaves}
        self.edges: List[ResolvedEdge] = []
        #: edges ending at observer pads (boundary OUT DPorts, dangling
        #: relay pads): no consumer leaf, but kept fresh for probes
        self.observer_edges: List[ResolvedEdge] = []
        self._in_edges: Dict[int, List[ResolvedEdge]] = {}
        self.unconnected_inputs: List[DPort] = []
        self.order: List[Streamer] = []
        self.guards: List[NetworkGuard] = []
        self._offsets: Dict[int, Tuple[int, int]] = {}
        self.state_size = 0
        self._plan: Optional["ExecutionPlan"] = None
        #: optimized plans, keyed by (opt cache token, protected pad ids)
        self._opt_plans: Dict[Tuple, "ExecutionPlan"] = {}
        self._resolve_edges()
        self._topological_order()
        self._assign_state_slices()
        self._collect_guards()

    # ------------------------------------------------------------------
    # flattening
    # ------------------------------------------------------------------
    def _resolve_edges(self) -> None:
        flows: List[Flow] = list(self.extra_flows)
        for top in self.tops:
            flows.extend(top.all_flows())
        # index flows by their source pad for forward walking
        by_source: Dict[int, List[Flow]] = {}
        for flow in flows:
            by_source.setdefault(id(flow.source), []).append(flow)

        drivers: Dict[int, ResolvedEdge] = {}
        for leaf in self.leaves:
            for port in leaf.dports.values():
                if port.is_out and not port.relay_only:
                    self._walk_from(leaf, port, port, [], by_source, drivers,
                                    set())
        # record driver edges and detect unconnected leaf inputs (W8 info)
        for leaf in self.leaves:
            for port in leaf.dports.values():
                if port.is_in and not port.relay_only:
                    edge = drivers.get(id(port))
                    if edge is None:
                        self.unconnected_inputs.append(port)
                    else:
                        self.edges.append(edge)
                        self._in_edges.setdefault(id(leaf), []).append(edge)

    def _walk_from(
        self,
        src_leaf: Streamer,
        src_port: DPort,
        pad: DPort,
        path: List[object],
        by_source: Dict[int, List[Flow]],
        drivers: Dict[int, ResolvedEdge],
        visited: Set[int],
    ) -> None:
        """DFS from a leaf OUT pad through flows/relays/boundaries."""
        if id(pad) in visited:
            raise NetworkError(
                f"flow cycle through pad {pad.qualified_name} "
                "(relay or boundary loop)"
            )
        visited = visited | {id(pad)}
        for flow in by_source.get(id(pad), []):
            target = flow.target
            new_path = path + [flow]
            owner = target.owner
            if isinstance(owner, Relay):
                relay = owner
                relay_path = new_path + [relay]
                for out_pad in (relay.out_a, relay.out_b):
                    self._walk_from(
                        src_leaf, src_port, out_pad, relay_path,
                        by_source, drivers, visited,
                    )
            elif isinstance(owner, Streamer) and id(owner) in self._leaf_ids \
                    and target.is_in and not target.relay_only:
                existing = drivers.get(id(target))
                if existing is not None and existing.src_port is not src_port:
                    raise NetworkError(
                        f"DPort {target.qualified_name} has two drivers "
                        f"(W8): {existing.src_port.qualified_name} and "
                        f"{src_port.qualified_name}"
                    )
                drivers[id(target)] = ResolvedEdge(
                    src_leaf, src_port, owner, target, new_path
                )
            else:
                # boundary DPort of a composite, or a capsule relay DPort:
                # transparent pad, keep walking.
                if not by_source.get(id(target)):
                    # dead end: an observer pad (e.g. an exposed boundary
                    # OUT read by a probe) — keep it refreshed anyway
                    self.observer_edges.append(ResolvedEdge(
                        src_leaf, src_port, src_leaf, target, new_path
                    ))
                else:
                    self._walk_from(
                        src_leaf, src_port, target, new_path,
                        by_source, drivers, visited,
                    )

    # ------------------------------------------------------------------
    # ordering (W12)
    # ------------------------------------------------------------------
    def _topological_order(self) -> None:
        indegree: Dict[int, int] = {id(leaf): 0 for leaf in self.leaves}
        successors: Dict[int, List[Streamer]] = {
            id(leaf): [] for leaf in self.leaves
        }
        constrained = set()
        self_looped = set()
        for edge in self.edges:
            if not edge.dst_leaf.direct_feedthrough:
                continue
            if edge.src_leaf is edge.dst_leaf:
                if self.strict:
                    raise NetworkError(
                        f"algebraic self-loop (W12) at "
                        f"{edge.dst_leaf.path()}"
                    )
                if id(edge.dst_leaf) not in self_looped:
                    self_looped.add(id(edge.dst_leaf))
                    self.algebraic_cycles.append([edge.dst_leaf])
                continue
            key = (id(edge.src_leaf), id(edge.dst_leaf))
            if key in constrained:
                continue
            constrained.add(key)
            indegree[id(edge.dst_leaf)] += 1
            successors[id(edge.src_leaf)].append(edge.dst_leaf)

        # deterministic Kahn: stable by construction order of self.leaves
        ready = [leaf for leaf in self.leaves if indegree[id(leaf)] == 0]
        order: List[Streamer] = []
        while ready:
            leaf = ready.pop(0)
            order.append(leaf)
            for nxt in successors[id(leaf)]:
                indegree[id(nxt)] -= 1
                if indegree[id(nxt)] == 0:
                    ready.append(nxt)
        if len(order) != len(self.leaves):
            stuck_leaves = [
                leaf for leaf in self.leaves if indegree[id(leaf)] > 0
            ]
            if self.strict:
                stuck = sorted(leaf.path() for leaf in stuck_leaves)
                raise NetworkError(
                    f"algebraic loop (W12) among direct-feedthrough "
                    f"streamers: {', '.join(stuck)}"
                )
            self.algebraic_cycles.extend(
                self._find_cycles(stuck_leaves, successors)
            )
            order.extend(stuck_leaves)
        self.order = order

    @staticmethod
    def _find_cycles(
        stuck: List[Streamer],
        successors: Dict[int, List[Streamer]],
    ) -> List[List[Streamer]]:
        """One representative cycle per strongly connected component of
        the feedthrough-constraint subgraph spanned by ``stuck``.

        Static: the checker reuses it to recover cycles from an
        :class:`~repro.core.plan.ExecutionPlan` edge table.
        """
        stuck_ids = {id(leaf) for leaf in stuck}
        index_of: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[Streamer] = []
        sccs: List[List[Streamer]] = []
        counter = [0]

        def strongconnect(leaf: Streamer) -> None:
            # iterative Tarjan (explicit stack; models can be deep)
            work = [(leaf, iter(successors[id(leaf)]))]
            index_of[id(leaf)] = lowlink[id(leaf)] = counter[0]
            counter[0] += 1
            stack.append(leaf)
            on_stack.add(id(leaf))
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if id(child) not in stuck_ids:
                        continue
                    if id(child) not in index_of:
                        index_of[id(child)] = lowlink[id(child)] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(id(child))
                        work.append((child, iter(successors[id(child)])))
                        advanced = True
                        break
                    if id(child) in on_stack:
                        lowlink[id(node)] = min(
                            lowlink[id(node)], index_of[id(child)]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[id(parent)] = min(
                        lowlink[id(parent)], lowlink[id(node)]
                    )
                if lowlink[id(node)] == index_of[id(node)]:
                    component: List[Streamer] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(id(member))
                        component.append(member)
                        if member is node:
                            break
                    if len(component) > 1:
                        sccs.append(component)

        for leaf in stuck:
            if id(leaf) not in index_of:
                strongconnect(leaf)

        cycles: List[List[Streamer]] = []
        for component in sccs:
            member_ids = {id(member) for member in component}
            # walk successors inside the component until a node repeats:
            # that suffix is one concrete cycle through the SCC
            path = [component[0]]
            seen = {id(component[0]): 0}
            while True:
                nxt = next(
                    child for child in successors[id(path[-1])]
                    if id(child) in member_ids
                )
                if id(nxt) in seen:
                    cycles.append(path[seen[id(nxt)]:])
                    break
                seen[id(nxt)] = len(path)
                path.append(nxt)
        return cycles

    # ------------------------------------------------------------------
    # state vector layout
    # ------------------------------------------------------------------
    def _assign_state_slices(self) -> None:
        offset = 0
        for leaf in self.order:
            n = int(leaf.state_size)
            if n < 0:
                raise NetworkError(
                    f"negative state_size on {leaf.path()}"
                )
            self._offsets[id(leaf)] = (offset, offset + n)
            offset += n
        self.state_size = offset

    def _collect_guards(self) -> None:
        for leaf in self.order:
            for index, name in enumerate(leaf.zero_crossing_names):
                self.guards.append(NetworkGuard(leaf, index, name))

    def state_slice(self, leaf: Streamer) -> Tuple[int, int]:
        return self._offsets[id(leaf)]

    def initial_state(self) -> np.ndarray:
        y0 = np.zeros(self.state_size, dtype=float)
        for leaf in self.order:
            lo, hi = self._offsets[id(leaf)]
            if hi > lo:
                init = np.asarray(leaf.initial_state(), dtype=float)
                if init.shape != (hi - lo,):
                    raise NetworkError(
                        f"{leaf.path()}.initial_state() returned shape "
                        f"{init.shape}, expected ({hi - lo},)"
                    )
                y0[lo:hi] = init
        return y0

    # ------------------------------------------------------------------
    # the execution plan (compiled IR)
    # ------------------------------------------------------------------
    def in_edges(self, leaf: Streamer) -> List[ResolvedEdge]:
        """The resolved edges feeding ``leaf`` (empty if none)."""
        return list(self._in_edges.get(id(leaf), []))

    def plan(
        self,
        opt_level: int = 0,
        opt_config=None,
        protect: Sequence[DPort] = (),
    ) -> "ExecutionPlan":
        """The cached :class:`~repro.core.plan.ExecutionPlan` for this
        network (compiled on first use, single-partition).

        ``opt_level`` / ``opt_config`` select the optimizer pipeline
        (:mod:`repro.core.opt`); optimized plans are cached separately
        per configuration, so requesting O2 never disturbs the O0 plan
        the thin ``evaluate``/``rhs`` wrappers use.  ``protect`` lists
        pads the optimizer must leave untouched (probe sources).
        """
        from repro.core.plan import ExecutionPlan

        config = None
        if opt_config is not None or opt_level:
            from repro.core.opt import resolve_config

            config = resolve_config(opt_level, opt_config)
        if config is None or not config.is_active:
            if self._plan is None:
                self._plan = ExecutionPlan.compile(self)
            return self._plan
        key = (
            config.cache_token(),
            tuple(sorted(id(pad) for pad in protect)),
        )
        cached = self._opt_plans.get(key)
        if cached is None:
            counters = (
                self._plan.counters if self._plan is not None else None
            )
            cached = ExecutionPlan.compile(
                self, counters=counters, opt_config=config,
                protect=protect,
            )
            self._opt_plans[key] = cached
        return cached

    def bind_threads(
        self,
        leaf_threads: Mapping[int, int],
        opt_level: int = 0,
        opt_config=None,
        protect: Sequence[DPort] = (),
    ) -> "ExecutionPlan":
        """Recompile the plan with a thread partition.

        ``leaf_threads`` maps ``id(leaf)`` to a thread index; the new
        plan replaces the cached one (carrying the analysis counters
        over) and is returned.  The scheduler calls this once at build
        time, then derives per-thread views with
        :meth:`~repro.core.plan.ExecutionPlan.thread_plan`.  The
        optimizer arguments mirror :meth:`plan`; the optimized plan
        becomes *the* cached plan, so ``evaluate``/``rhs`` run it too.
        """
        from repro.core.plan import ExecutionPlan

        counters = self._plan.counters if self._plan is not None else None
        self._plan = ExecutionPlan.compile(
            self, leaf_threads, counters=counters,
            opt_level=opt_level, opt_config=opt_config, protect=protect,
        )
        return self._plan

    @property
    def rhs_evaluations(self) -> int:
        """Network evaluations so far (aggregated across thread views)."""
        return self.plan().counters.evaluations

    # ------------------------------------------------------------------
    # evaluation (thin wrappers over the plan)
    # ------------------------------------------------------------------
    def evaluate(self, t: float, state: np.ndarray) -> None:
        """Refresh all DPort values for the given global state vector."""
        self.plan().evaluate(t, state)

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """The combined ODE right-hand side over the global state vector."""
        return self.plan().rhs(t, state)

    def guard_values(
        self, t: float, state: np.ndarray, guards: Sequence[NetworkGuard]
    ) -> List[float]:
        """Evaluate the given guards at ``(t, state)`` (ports assumed fresh)."""
        values: List[float] = []
        cache: Dict[int, Sequence[float]] = {}
        for guard in guards:
            if id(guard.leaf) not in cache:
                lo, hi = self._offsets[id(guard.leaf)]
                cache[id(guard.leaf)] = list(
                    guard.leaf.zero_crossings(t, state[lo:hi])
                )
            leaf_values = cache[id(guard.leaf)]
            if guard.index >= len(leaf_values):
                raise NetworkError(
                    f"{guard.leaf.path()} declared "
                    f"{len(guard.leaf.zero_crossing_names)} guard names but "
                    f"zero_crossings() returned {len(leaf_values)} values"
                )
            values.append(float(leaf_values[guard.index]))
        return values

    # ------------------------------------------------------------------
    # statistics (benchmark C1 inputs)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "leaves": len(self.leaves),
            "edges": len(self.edges),
            "states": self.state_size,
            "guards": len(self.guards),
            "unconnected_inputs": len(self.unconnected_inputs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"FlatNetwork(leaves={s['leaves']}, edges={s['edges']}, "
            f"states={s['states']})"
        )
