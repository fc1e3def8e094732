"""The hybrid scheduler: interleaving capsule and streamer threads.

This is the runtime realisation of the paper's architecture: event-driven
capsules and time-continuous streamers live on different threads and meet
only at *synchronisation points*, every ``sync_interval`` time units (the
major step).  One major step proceeds as:

1. **Continuous phase** — every streamer thread integrates its partition
   of the flat network from ``t`` to ``t + sync`` with its own solver and
   minor step; cross-thread dataflow pads stay frozen.
2. **Zero-crossing scan** — guards are compared before/after the slice;
   crossings are localised on linearly interpolated states.  With
   ``event_restart=True`` (default) the major step is truncated at the
   first crossing so the discrete world reacts at the right time; with
   ``False`` events are reported but integration keeps the full slice
   (cheaper, coarser — ablated in bench S2).
3. **Discrete phase** — the UML-RT runtime catches up to the sync time:
   due timers fire, queued messages dispatch under RTC.  Streamer signals
   queued via SPorts are injected (streamer → capsule), then capsule
   messages that arrived on SPort bridges are drained into
   ``handle_signal`` (capsule → streamer).
4. **Sync hooks** — discrete-time blocks run ``on_sync``; parameter
   changes take effect; probes record.

Determinism: with the default cooperative backend, everything above is
sequential and ordered; with ``real_threads=True`` only phase 1 runs on OS
threads, and its writes are data-disjoint by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.core import loop
from repro.core.dport import DPort
from repro.core.network import FlatNetwork
from repro.core.thread import RealThreadPool, StreamerThread
from repro.solvers.events import EventSpec, ZeroCrossingDetector

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import HybridModel
    from repro.core.plan import ExecutionPlan, PlanGuard


class HybridError(Exception):
    """Raised on scheduler misconfiguration."""


class HybridScheduler:
    """Coordinates the discrete and continuous worlds of a HybridModel."""

    def __init__(
        self,
        model: "HybridModel",
        sync_interval: float = 0.01,
        event_restart: bool = True,
        real_threads: bool = False,
        dense_events: bool = True,
        opt_level: int = 0,
        opt_config=None,
        backend: Optional[str] = None,
    ) -> None:
        if sync_interval <= 0:
            raise HybridError(
                f"non-positive sync interval: {sync_interval}"
            )
        self.model = model
        self.sync_interval = sync_interval
        self.event_restart = event_restart
        self.real_threads = real_threads
        #: optimizer pipeline applied when compiling the plan (probed
        #: pads are automatically protected from rewrites)
        self.opt_level = opt_level
        self.opt_config = opt_config
        #: requested execution backend for the continuous phase
        #: (``None``/"interpreter": the plan interpreter; "compiled-python"
        #: or "native-c": a derivative kernel compiled through
        #: :mod:`repro.core.backend`).  Binding is best-effort — when the
        #: model is ineligible (multiple active threads, zero-crossing
        #: guards, capsules, unsupported blocks) the scheduler falls back
        #: to the interpreter and reports why in ``stats()["backend"]``.
        self.backend = backend
        self._backend_program = None
        self._backend_fingerprint: Optional[str] = None
        self._backend_info: Dict[str, Optional[str]] = {
            "requested": backend or "interpreter",
            "effective": "interpreter",
            "reason": "interpreter is the default execution backend",
        }
        #: localise crossings on a cubic Hermite interpolant (two extra
        #: RHS evaluations per event-bearing slice) instead of a secant
        self.dense_events = dense_events
        self.network: Optional[FlatNetwork] = None
        #: the compiled, thread-partitioned execution plan (set by build)
        self.plan: Optional["ExecutionPlan"] = None
        self.state: Optional[np.ndarray] = None
        self._detector: Optional[ZeroCrossingDetector] = None
        self._guards: List["PlanGuard"] = []
        self._pool: Optional[RealThreadPool] = None
        self.major_steps = 0
        self.events_fired = 0
        self.signals_to_streamers = 0
        self.signals_to_capsules = 0
        self._built = False
        #: optional observer called with the reached time after every
        #: major step.  Purely passive — it cannot change stepping — so
        #: an observed run is numerically identical to an unobserved
        #: one; the service layer uses it to stream progress and to
        #: honour cancellation/deadlines mid-run (an exception raised
        #: here aborts :meth:`run` cleanly between major steps).
        self.on_major_step: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Flatten the streamer world and prime both runtimes."""
        if self._built:
            return
        self._built = True
        model = self.model
        if model.streamers:
            self.network = FlatNetwork(model.streamers, model.flows)
            for thread in model.threads:
                thread.leaves = []
            thread_index = {
                id(thread): i for i, thread in enumerate(model.threads)
            }
            leaf_threads: Dict[int, int] = {}
            for leaf in self.network.leaves:
                thread = self._thread_of(leaf)
                thread.leaves.append(leaf)
                leaf_threads[id(leaf)] = thread_index[id(thread)]
            # compile the thread-partitioned execution plan and hand each
            # thread its view (own nodes, in-thread edges only); probed
            # pads are protected so the optimizer never rewires them
            protect = [
                probe.source for probe in model.probes.values()
                if isinstance(getattr(probe, "source", None), DPort)
            ]
            self.plan = self.network.bind_threads(
                leaf_threads,
                opt_level=self.opt_level,
                opt_config=self.opt_config,
                protect=protect,
            )
            for i, thread in enumerate(model.threads):
                thread.plan = self.plan.thread_plan(i)
            self.state = self.network.initial_state()
            self._guards = list(self.plan.guards)
            if self._guards:
                specs = [
                    EventSpec(guard.qualified_name, self._guard_fn(guard))
                    for guard in self._guards
                ]
                self._detector = ZeroCrossingDetector(specs)
            if self.real_threads:
                self._pool = RealThreadPool(model.threads)
            self._bind_backend()
        if not model.rts.started:
            model.rts.start()

    def _thread_of(self, leaf) -> StreamerThread:
        node = leaf
        while node.parent is not None:
            node = node.parent
        if node.thread is None:
            self.model.default_thread.assign(node)
        return node.thread

    def _guard_fn(self, guard: "PlanGuard") -> Callable:
        plan = self.plan

        def fn(t: float, y: np.ndarray) -> float:
            # guards may read DPorts fed by time-varying sources, so the
            # network must be evaluated at the probe point — otherwise
            # bisection sees port values frozen at the slice end and
            # mislocalises input-driven crossings to the slice start
            plan.evaluate(t, y)
            return plan.guard_values(t, y, [guard])[0]

        return fn

    # ------------------------------------------------------------------
    # execution backends (continuous-phase derivative kernel)
    # ------------------------------------------------------------------
    def _backend_ineligible(self) -> Optional[str]:
        """Why this model cannot run a compiled derivative kernel, or
        ``None`` when every gate passes.

        The kernel reads block parameters once per bind (the native
        kernel's parameter vector, the Python kernel's literals),
        replaces only the derivative evaluation (``plan.rhs``) and reads
        sample/hold registers back from the live blocks before every
        call — so it is sound exactly when nothing outside the gated
        surface can change the maths mid-slice.
        """
        if self.plan is None or not self.plan.nodes:
            return "model has no continuous plan nodes"
        active = [
            thread for thread in self.model.threads
            if thread.plan is not None and thread.plan.nodes
        ]
        if len(active) != 1:
            return (
                f"{len(active)} active streamer threads; the kernel "
                "replaces one whole-plan derivative"
            )
        if self._guards:
            return "zero-crossing guards require the plan interpreter"
        if self.model.rts.capsule_count():
            return (
                "capsules may reconfigure streamer parameters mid-run; "
                "kernels read their parameters once per bind"
            )
        return None

    def _bind_backend(self) -> None:
        """Try to compile the requested backend's derivative kernel and
        install it as the active thread's rhs override."""
        requested = self.backend or "interpreter"
        self._backend_info = {
            "requested": requested,
            "effective": "interpreter",
            "reason": "interpreter is the default execution backend",
        }
        self._backend_program = None
        for thread in self.model.threads:
            thread.rhs_override = None
        if requested == "interpreter":
            return
        from repro.core.backend import (
            BackendError, CompileRequest, fallback_chain, get_backend,
        )
        from repro.codegen.common import CodegenError

        try:
            chain = fallback_chain(requested)
        except BackendError as exc:
            self._backend_info["reason"] = str(exc)
            return
        reason = self._backend_ineligible()
        if reason is not None:
            self._backend_info["reason"] = reason
            return
        active = next(
            thread for thread in self.model.threads
            if thread.plan is not None and thread.plan.nodes
        )
        # the kernel's solver loop is unused (the thread's own
        # SolverBinding keeps stepping); only the deriv entry point is
        # bridged, so any solver — adaptive included — gets the fast rhs
        request = CompileRequest(
            network=self.network, plan=self.plan, solver="rk4",
            h=active.h,
        )
        program = None
        for name in chain:
            if name == "interpreter":
                break  # native interpreter path beats a wrapped one
            try:
                program = get_backend(name).compile(request)
                break
            except (BackendError, CodegenError) as exc:
                self._backend_info["reason"] = str(exc)
        if program is None:
            return
        counters = self.plan.counters

        def kernel_rhs(t: float, y: np.ndarray) -> np.ndarray:
            # live sampled blocks own the sample/hold registers (the
            # scheduler's sync hooks advance them); mirror them into the
            # kernel so mid-slice derivatives see the interpreter's view
            program.refresh_held_from_blocks()
            counters.evaluations += 1
            return program.rhs(t, y)

        active.rhs_override = kernel_rhs
        self._backend_program = program
        self._backend_fingerprint = self.plan.fingerprint()
        self._backend_info["effective"] = program.backend
        if program.backend == requested:
            self._backend_info["reason"] = None
        # on a demotion the reason keeps the failed rung's message

    def _recheck_backend(self) -> None:
        """Rebind the kernel if block parameters changed since compile.

        Parameters enter the plan fingerprint, so any mutation between
        ``run`` calls (a caller re-tuning a gain, a t=0 configuration
        hook) is caught here and binds a kernel with the new values.
        The native kernel takes them as data, so a re-tune that keeps
        the structure reuses its compiled artifact instead of running
        the compiler; mutating parameters *mid-run* is excluded by the
        eligibility gates.
        """
        if self._backend_program is None:
            return
        if self.plan.fingerprint() != self._backend_fingerprint:
            self._bind_backend()

    @property
    def backend_info(self) -> Dict[str, Optional[str]]:
        """``{"requested", "effective", "reason"}`` for the bound
        execution backend (``reason`` is ``None`` when no fallback)."""
        return dict(self._backend_info)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def initialise(self) -> None:
        """Run the t=0 discrete phase so capsules can configure streamers."""
        self.build()
        if self.network is not None:
            self.network.evaluate(self.model.time.raw, self.state)
            if self._detector is not None:
                self._detector.reset(self.model.time.raw, self.state)
        self._discrete_phase(self.model.time.raw)
        self._sync_hooks(self.model.time.raw)
        self.model.record(self.model.time.now)

    def run(self, t_end: float) -> None:
        """Advance the whole model to continuous time ``t_end``."""
        if not self._built:
            self.initialise()
        self._recheck_backend()
        time = self.model.time
        while time.raw < t_end - loop.EPS:
            t0 = time.raw
            t1 = min(t0 + self.sync_interval, t_end)
            t_reached = self._continuous_phase(t0, t1)
            time.advance_to(t_reached)
            self._discrete_phase(t_reached)
            self._sync_hooks(t_reached)
            self.model.record(time.now)
            self.major_steps += 1
            if self.on_major_step is not None:
                self.on_major_step(time.raw)

    # -- phase 1: continuous -------------------------------------------
    def _continuous_phase(self, t0: float, t1: float) -> float:
        if self.network is None:
            return t1
        y0 = self.state.copy()
        if self._pool is not None:
            self._pool.run_slices(self.state, t0, t1)
        else:
            for thread in self.model.threads:
                thread.integrate_slice(self.state, t0, t1)
        self.network.evaluate(t1, self.state)
        if self._detector is None:
            return t1

        interp_box = {}

        def make_interpolator():
            if not self.dense_events:
                return None
            if "interp" not in interp_box:
                from repro.solvers.interpolate import CubicHermite

                plan = self.plan
                f0 = plan.rhs(t0, y0)
                y1 = self.state.copy()
                f1 = plan.rhs(t1, y1)
                try:
                    interp_box["interp"] = CubicHermite(
                        t0, y0, f0, t1, y1, f1
                    )
                except ValueError:
                    interp_box["interp"] = None
            return interp_box["interp"]

        occurrences = self._detector.check_step(
            t0, y0, t1, self.state, make_interpolator=make_interpolator
        )
        if not occurrences:
            # guard probing may have evaluated the network at interior
            # points; restore the slice-end view
            self.network.evaluate(t1, self.state)
            return t1
        if self.event_restart:
            first = occurrences[0]
            if first.t - t0 <= 1e-12 * max(1.0, abs(t0)):
                # crossing pinned at the slice start: deliver without
                # truncating, otherwise the major step could never advance
                self._deliver_events(occurrences)
                return t1
            # roll the state back to the interpolated event point
            interp = interp_box.get("interp")
            if interp is not None:
                self.state[:] = interp(first.t)
            else:
                span = t1 - t0
                alpha = 0.0 if span <= 0 else (first.t - t0) / span
                self.state[:] = (1.0 - alpha) * y0 + alpha * self.state
            self.network.evaluate(first.t, self.state)
            self._detector.reset(first.t, self.state)
            fired = [occ for occ in occurrences if occ.t <= first.t]
            self._deliver_events(fired)
            return first.t
        self._deliver_events(occurrences)
        self.network.evaluate(t1, self.state)  # undo bisection probing
        return t1

    def _deliver_events(self, occurrences) -> None:
        for occ in occurrences:
            self.events_fired += 1
            guard = next(
                g for g in self._guards
                if g.qualified_name == occ.spec.name
            )
            guard.leaf.on_zero_crossing(guard.name, occ.t, occ.direction)

    # -- phase 3: discrete ----------------------------------------------
    def _discrete_phase(self, t: float) -> None:
        rts = self.model.rts
        rts.advance_to(t)
        # streamer -> capsule: flush SPort outbound queues through bridges
        for bridge in self.model.bridges:
            self.signals_to_capsules += bridge.flush_outbound()
        rts.drain()
        # capsule -> streamer: drain bridge channels into handle_signal
        for streamer, sport in self.model.all_sports():
            for message in sport.drain_inbound():
                self.signals_to_streamers += 1
                streamer.handle_signal(sport.name, message)

    # -- phase 4: sync hooks ---------------------------------------------
    def _sync_hooks(self, t: float) -> None:
        if self.network is None:
            return
        for leaf in self.network.order:
            reset = leaf.consume_state_reset()
            if reset is not None:
                lo, hi = self.network.state_slice(leaf)
                self.state[lo:hi] = reset
            leaf.on_sync(t)
        # parameter/discrete-state changes take effect immediately
        self.network.evaluate(t, self.state)
        if self._detector is not None:
            self._detector.reset(t, self.state)

    # ------------------------------------------------------------------
    # checkpointing hooks (resilience layer)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Scheduler-owned state for the snapshot codec: the clock, the
        flat state vector and the step/event counters.  Only meaningful
        at a major-step boundary (the codec enforces quiescence)."""
        return {
            "t": self.model.time.raw,
            "state": None if self.state is None else self.state.copy(),
            "major_steps": self.major_steps,
            "events_fired": self.events_fired,
            "signals_to_streamers": self.signals_to_streamers,
            "signals_to_capsules": self.signals_to_capsules,
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Overlay state captured by :meth:`snapshot_state`.

        :meth:`build` must have run first (the codec drives this).  The
        network is re-evaluated and the zero-crossing detector re-armed
        at the restored point — exactly what ``_sync_hooks`` does every
        major step, so the detector state after restore is bitwise what
        it was when the snapshot was taken.
        """
        if not self._built:
            raise HybridError("restore_state requires build() first")
        t = float(snapshot["t"])
        vec = snapshot.get("state")
        if vec is not None:
            if self.state is None or self.state.shape != np.shape(vec):
                raise HybridError(
                    "snapshot state vector shape "
                    f"{np.shape(vec)} does not match the built network "
                    f"({None if self.state is None else self.state.shape})"
                )
            self.state[:] = np.asarray(vec, dtype=float)
        self.major_steps = int(snapshot.get("major_steps", 0))
        self.events_fired = int(snapshot.get("events_fired", 0))
        self.signals_to_streamers = int(
            snapshot.get("signals_to_streamers", 0)
        )
        self.signals_to_capsules = int(
            snapshot.get("signals_to_capsules", 0)
        )
        self.model.time.advance_to(t)
        self.model.rts.now = max(self.model.rts.now, t)
        if self.network is not None:
            self.network.evaluate(t, self.state)
            if self._detector is not None:
                self._detector.reset(t, self.state)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "major_steps": self.major_steps,
            "events_fired": self.events_fired,
            "signals_to_streamers": self.signals_to_streamers,
            "signals_to_capsules": self.signals_to_capsules,
            "messages_dispatched": self.model.rts.total_dispatched,
        }
        out["backend"] = self.backend_info
        if self.network is not None:
            out["rhs_evaluations"] = self.network.rhs_evaluations
            out["minor_steps"] = sum(
                thread.minor_steps for thread in self.model.threads
            )
        return out
