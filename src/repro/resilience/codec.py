"""Snapshot codec: versioned serialization of in-flight simulation state.

A snapshot is taken at a major-step boundary — the only instant where the
hybrid world is quiescent: controller queues are drained, streamer signal
exchange has happened, and the continuous state sits exactly on the sync
grid.  The codec never pickles live objects; every subsystem exposes an
explicit extraction hook (``snapshot_state`` / ``restore_state`` and
friends) returning plain data, and the codec assembles those parts into a
:class:`Snapshot` keyed to the model's
:meth:`~repro.core.plan.ExecutionPlan.fingerprint` (a capsule-only
model, which has no plan, hashes its capsule topology instead, with the
same built-in SHA-256, :mod:`repro._digest`).

What is captured
----------------
* the scheduler clock, flat state vector and step/event counters;
* per-thread solver bindings (minor step, adaptive-step ``h``, solver
  internals such as the RK45 FSAL slot and PI error history);
* the UML-RT side: state-machine configurations (active state, history,
  deferred messages), pending timers (by value, never by handle), bridge
  channels and SPort queues, runtime counters;
* per-leaf streamer ``params``, pending state resets and declared
  ``extra_state`` (sample clocks, delay lines, difference histories);
* probe trajectories, so a resumed run's recorded history matches an
  uninterrupted one sample for sample.

What is *not* captured: the model structure itself (rebuilt from the same
factory on restore — the fingerprint check enforces it really is the
same), live ``TimerHandle`` references user code stashed, and OS-thread
state (threads are reconstructed, not thawed).

Exactness: float64 arrays travel as raw little-endian bytes (base64);
scalars rely on Python's shortest-repr float round-trip.  Restoring a
fixed-step run therefore continues *bitwise identically*; adaptive runs
are bitwise too because the controller history and FSAL cache are part of
the snapshot.

Versioning rules: ``SNAPSHOT_VERSION`` bumps on any change to the payload
schema; a decoder never guesses across versions
(:class:`SnapshotVersionError`), and a snapshot never restores onto a
plan with a different fingerprint (:class:`FingerprintMismatchError` —
raised before any state is touched, so a failed restore caches nothing).
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from repro._digest import sha256
from repro.solvers.history import Trajectory
from repro.umlrt.signal import Message, Priority

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hybrid import HybridScheduler

#: bump on ANY payload schema change; decoders never guess across versions
SNAPSHOT_VERSION = 1

#: container magic; the header line is ``REPROSNAP <version> <crc32> <len>``
MAGIC = b"REPROSNAP"


class SnapshotError(Exception):
    """Base class for snapshot capture/restore failures."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible codec version."""


class SnapshotCorruptError(SnapshotError):
    """The container failed its magic/CRC/schema integrity checks."""


class FingerprintMismatchError(SnapshotError):
    """The snapshot belongs to a different execution plan.

    Raised before any state is overlaid — a mismatched restore leaves the
    target scheduler exactly as it was and caches nothing.
    """


@dataclass
class Snapshot:
    """One captured simulation state, ready to encode or restore."""

    version: int
    #: plan fingerprint (plus scheduler knobs) this state belongs to
    fingerprint: str
    #: logical time of the capture point
    t: float
    #: major steps completed at the capture point (minor steps for batch)
    step: int
    kind: str = "hybrid"
    payload: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# value encoding: plain JSON plus typed markers
# ----------------------------------------------------------------------
def _encode_value(obj: Any, path: str) -> Any:
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, float):
        return obj  # json repr is shortest round-trip: bitwise exact
    if isinstance(obj, Message):
        return {"__msg__": {
            "signal": obj.signal,
            "data": _encode_value(obj.data, f"{path}.data"),
            "priority": int(obj.priority),
            "timestamp": obj.timestamp,
            "port": getattr(obj.port, "name", None),
        }}
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {"__nd__": base64.b64encode(arr.tobytes()).decode("ascii"),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape)}
    if isinstance(obj, tuple):
        return {"__tup__": [
            _encode_value(v, f"{path}[{i}]") for i, v in enumerate(obj)
        ]}
    if isinstance(obj, list):
        return [_encode_value(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise SnapshotError(
                    f"non-string mapping key {key!r} at {path}"
                )
            if key.startswith("__") and key.endswith("__"):
                raise SnapshotError(
                    f"reserved marker-like key {key!r} at {path}"
                )
            out[key] = _encode_value(value, f"{path}.{key}")
        return out
    raise SnapshotError(
        f"cannot snapshot object of type {type(obj).__name__} at {path}; "
        "extraction hooks must return plain data "
        "(numbers, strings, lists, dicts, tuples, ndarrays, Messages)"
    )


def _decode_value(obj: Any) -> Any:
    if isinstance(obj, list):
        return [_decode_value(v) for v in obj]
    if isinstance(obj, dict):
        if "__nd__" in obj:
            raw = base64.b64decode(obj["__nd__"])
            return np.frombuffer(
                raw, dtype=np.dtype(obj["dtype"])
            ).reshape(obj["shape"]).copy()
        if "__tup__" in obj:
            return tuple(_decode_value(v) for v in obj["__tup__"])
        if "__msg__" in obj:
            fields = obj["__msg__"]
            return Message(
                signal=fields["signal"],
                data=_decode_value(fields["data"]),
                priority=Priority(fields["priority"]),
                timestamp=fields["timestamp"],
                port=fields["port"],  # a name; resolved by the restorer
            )
        return {key: _decode_value(value) for key, value in obj.items()}
    return obj


# ----------------------------------------------------------------------
# container framing
# ----------------------------------------------------------------------
def encode_blob(doc: Dict[str, Any]) -> bytes:
    """Frame a plain document as ``header + JSON body`` with a CRC32."""
    body = json.dumps(
        _encode_value(doc, "$"), sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    header = b"%s %d %d %d\n" % (
        MAGIC, SNAPSHOT_VERSION, zlib.crc32(body), len(body),
    )
    return header + body


def decode_blob(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_blob`, with integrity checks."""
    newline = data.find(b"\n")
    if newline < 0 or not data.startswith(MAGIC + b" "):
        raise SnapshotCorruptError("missing snapshot magic header")
    parts = data[:newline].split()
    if len(parts) != 4:
        raise SnapshotCorruptError("malformed snapshot header")
    try:
        version, crc, length = (int(p) for p in parts[1:])
    except ValueError as exc:
        raise SnapshotCorruptError("malformed snapshot header") from exc
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    body = data[newline + 1:]
    if len(body) != length:
        raise SnapshotCorruptError(
            f"snapshot body truncated: {len(body)} of {length} bytes"
        )
    if zlib.crc32(body) != crc:
        raise SnapshotCorruptError("snapshot CRC mismatch")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"snapshot body unreadable: {exc}") from exc
    decoded = _decode_value(doc)
    if not isinstance(decoded, dict):
        raise SnapshotCorruptError("snapshot body is not a document")
    return decoded


def encode_snapshot(snapshot: Snapshot) -> bytes:
    return encode_blob({
        "version": snapshot.version,
        "fingerprint": snapshot.fingerprint,
        "t": snapshot.t,
        "step": snapshot.step,
        "kind": snapshot.kind,
        "payload": snapshot.payload,
    })


def decode_snapshot(data: bytes) -> Snapshot:
    doc = decode_blob(data)
    for key in ("version", "fingerprint", "t", "step", "kind", "payload"):
        if key not in doc:
            raise SnapshotCorruptError(f"snapshot document missing {key!r}")
    if doc["version"] != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot schema version {doc['version']} != supported "
            f"{SNAPSHOT_VERSION}"
        )
    if not isinstance(doc["payload"], dict):
        raise SnapshotCorruptError("snapshot payload is not a mapping")
    return Snapshot(
        version=int(doc["version"]),
        fingerprint=str(doc["fingerprint"]),
        t=float(doc["t"]),
        step=int(doc["step"]),
        kind=str(doc["kind"]),
        payload=doc["payload"],
    )


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
class SnapshotCodec:
    """Capture/restore a :class:`~repro.core.hybrid.HybridScheduler`."""

    # -- fingerprinting -------------------------------------------------
    def fingerprint(self, scheduler: "HybridScheduler") -> str:
        """The plan fingerprint extended with the scheduler knobs that
        shape the trajectory; capsule-only models hash their discrete
        topology instead."""
        extra = {
            "snapshot.sync_interval": scheduler.sync_interval,
            "snapshot.event_restart": scheduler.event_restart,
            "snapshot.dense_events": scheduler.dense_events,
        }
        if scheduler.plan is not None:
            # param values are runtime state (restored from the payload),
            # so only the structural identity of the plan gates a restore
            return scheduler.plan.fingerprint(
                extra=extra, include_param_values=False,
            )
        rts = scheduler.model.rts
        digest = sha256()
        digest.update(repr(sorted(extra.items())).encode())
        digest.update(scheduler.model.name.encode())
        for capsule in sorted(
            rts._capsules.values(), key=lambda c: c.instance_name
        ):
            digest.update(
                f"{capsule.instance_name}:{type(capsule).__name__}".encode()
            )
        return f"capsule-only:{digest.hexdigest()}"

    # -- capture --------------------------------------------------------
    def capture(self, scheduler: "HybridScheduler") -> Snapshot:
        """Extract a restorable snapshot at a major-step boundary."""
        if not scheduler._built:
            raise SnapshotError(
                "capture requires a built scheduler (inside a run)"
            )
        model = scheduler.model
        rts = model.rts
        busy = [c.name for c in rts.controllers if not c.idle]
        if busy:
            raise SnapshotError(
                "capture requires a quiescent discrete world; "
                f"controllers with pending messages: {busy} "
                "(snapshots are only valid at major-step boundaries)"
            )
        payload: Dict[str, Any] = {
            "scheduler": scheduler.snapshot_state(),
            "time": {"advancements": model.time.advancements},
            "rts": {
                "now": rts.now,
                "total_dispatched": rts.total_dispatched,
                "messages_to_dead": rts.messages_to_dead,
                "controllers": {
                    c.name: {
                        "dispatched": c.dispatched,
                        "enqueued": c.enqueued,
                        "stale_dropped": c.stale_dropped,
                    }
                    for c in rts.controllers
                },
            },
            "timing": rts.timing.snapshot_pending(),
            "machines": {
                capsule.instance_name: capsule.behaviour.snapshot_config()
                for capsule in sorted(
                    rts._capsules.values(), key=lambda c: c.instance_name
                )
                if capsule.behaviour is not None
            },
            "channels": {
                bridge.instance_name: bridge.to_streamer.snapshot_state()
                for bridge in model.bridges
            },
            "sports": {
                f"{leaf.path()}::{sport.name}": {
                    "outbound": list(sport.outbound),
                    "sent": sport.sent,
                    "received": sport.received,
                }
                for leaf, sport in model.all_sports()
            },
            "threads": {
                thread.name: {
                    "h": thread.h,
                    "minor_steps": thread.minor_steps,
                    "steps_taken": thread.binding.steps_taken,
                    "time_integrated": thread.binding.time_integrated,
                    "swaps": thread.binding.swaps,
                    "solver": thread.binding.solver.snapshot_state(),
                }
                for thread in model.threads
            },
            "leaves": self._capture_leaves(scheduler),
            "probes": {
                name: {
                    "times": probe.trajectory.times,
                    "states": probe.trajectory.states,
                }
                for name, probe in model.probes.items()
            },
        }
        return Snapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=self.fingerprint(scheduler),
            t=model.time.raw,
            step=scheduler.major_steps,
            kind="hybrid",
            payload=payload,
        )

    @staticmethod
    def _capture_leaves(scheduler: "HybridScheduler") -> Dict[str, Any]:
        if scheduler.network is None:
            return {}
        out: Dict[str, Any] = {}
        for leaf in scheduler.network.order:
            reset = leaf._state_reset
            out[leaf.path()] = {
                "params": dict(leaf.params),
                "reset": None if reset is None else reset.copy(),
                "extra": leaf.extra_state(),
            }
        return out

    # -- byte round trip ------------------------------------------------
    def encode(self, snapshot: Snapshot) -> bytes:
        return encode_snapshot(snapshot)

    def decode(self, data: bytes) -> Snapshot:
        return decode_snapshot(data)

    # -- restore --------------------------------------------------------
    def restore(
        self, scheduler: "HybridScheduler", snapshot: Snapshot
    ) -> None:
        """Overlay ``snapshot`` onto a freshly built model.

        The target model must come from the same factory as the captured
        one: the plan fingerprint (plus scheduler knobs) is compared
        *before* anything is touched and a mismatch raises
        :class:`FingerprintMismatchError` without overlaying any state.

        The restore protocol erases start transients: ``build()`` runs
        the capsules' entry actions (which queue messages and may start
        timers), then every controller queue and the timer calendar are
        cleared and the snapshot state is overlaid — so the rebuilt
        world ends up exactly where the captured one was, and
        ``scheduler.run`` continues without re-running ``initialise``.
        """
        if snapshot.version != SNAPSHOT_VERSION:
            raise SnapshotVersionError(
                f"snapshot version {snapshot.version} != supported "
                f"{SNAPSHOT_VERSION}"
            )
        if snapshot.kind != "hybrid":
            raise SnapshotError(
                f"cannot restore a {snapshot.kind!r} snapshot onto a "
                "hybrid scheduler"
            )
        scheduler.build()
        expected = self.fingerprint(scheduler)
        if snapshot.fingerprint != expected:
            raise FingerprintMismatchError(
                "snapshot belongs to a different plan: snapshot "
                f"fingerprint {snapshot.fingerprint[:16]}... != target "
                f"{expected[:16]}...; nothing was restored"
            )
        payload = snapshot.payload
        model = scheduler.model
        rts = model.rts

        # erase start transients queued by build()/start()
        for controller in rts.controllers:
            controller.clear_queue()

        rts_state = payload.get("rts", {})
        rts.now = float(rts_state.get("now", 0.0))
        rts.total_dispatched = int(rts_state.get("total_dispatched", 0))
        rts.messages_to_dead = int(rts_state.get("messages_to_dead", 0))
        for name, counters in rts_state.get("controllers", {}).items():
            controller = next(
                (c for c in rts.controllers if c.name == name), None
            )
            if controller is None:
                raise SnapshotError(
                    f"snapshot references unknown controller {name!r}"
                )
            controller.dispatched = int(counters.get("dispatched", 0))
            controller.enqueued = int(counters.get("enqueued", 0))
            controller.stale_dropped = int(counters.get("stale_dropped", 0))

        capsules = {
            capsule.instance_name: capsule
            for capsule in rts._capsules.values()
        }

        def resolve_capsule(instance_name: str):
            try:
                return capsules[instance_name]
            except KeyError:
                raise SnapshotError(
                    "snapshot references unknown capsule "
                    f"{instance_name!r}"
                ) from None

        for instance_name, config in payload.get("machines", {}).items():
            capsule = resolve_capsule(instance_name)
            if capsule.behaviour is None:
                raise SnapshotError(
                    f"capsule {instance_name!r} has no state machine to "
                    "restore"
                )
            capsule.behaviour.restore_config(
                self._resolve_message_ports(config, capsule)
            )

        rts.timing.restore_pending(
            payload.get("timing", {"timers": []}), resolve_capsule,
        )

        bridges = {bridge.instance_name: bridge for bridge in model.bridges}
        for name, channel_state in payload.get("channels", {}).items():
            bridge = bridges.get(name)
            if bridge is None:
                raise SnapshotError(
                    f"snapshot references unknown bridge {name!r}"
                )
            channel_state = dict(channel_state)
            channel_state["items"] = [
                self._rebind_port(item, bridge)
                for item in channel_state.get("items", ())
            ]
            bridge.to_streamer.restore_state(channel_state)

        sports = {
            f"{leaf.path()}::{sport.name}": sport
            for leaf, sport in model.all_sports()
        }
        for name, sport_state in payload.get("sports", {}).items():
            sport = sports.get(name)
            if sport is None:
                raise SnapshotError(
                    f"snapshot references unknown SPort {name!r}"
                )
            sport.outbound[:] = list(sport_state.get("outbound", ()))
            sport.sent = int(sport_state.get("sent", 0))
            sport.received = int(sport_state.get("received", 0))

        threads = {thread.name: thread for thread in model.threads}
        for name, thread_state in payload.get("threads", {}).items():
            thread = threads.get(name)
            if thread is None:
                raise SnapshotError(
                    f"snapshot references unknown streamer thread {name!r}"
                )
            thread.h = float(thread_state.get("h", thread.h))
            thread.minor_steps = int(thread_state.get("minor_steps", 0))
            thread.binding.steps_taken = int(
                thread_state.get("steps_taken", 0)
            )
            thread.binding.time_integrated = float(
                thread_state.get("time_integrated", 0.0)
            )
            thread.binding.swaps = int(thread_state.get("swaps", 0))
            thread.binding.solver.restore_state(
                thread_state.get("solver", {})
            )

        if scheduler.network is not None:
            leaves = {
                leaf.path(): leaf for leaf in scheduler.network.order
            }
            for path, leaf_state in payload.get("leaves", {}).items():
                leaf = leaves.get(path)
                if leaf is None:
                    raise SnapshotError(
                        f"snapshot references unknown streamer {path!r}"
                    )
                leaf.params.clear()
                leaf.params.update(leaf_state.get("params", {}))
                reset = leaf_state.get("reset")
                leaf._state_reset = (
                    None if reset is None
                    else np.asarray(reset, dtype=float)
                )
                leaf.restore_extra_state(dict(leaf_state.get("extra", {})))

        for name, recorded in payload.get("probes", {}).items():
            probe = model.probes.get(name)
            if probe is None:
                raise SnapshotError(
                    f"snapshot references unknown probe {name!r}"
                )
            trajectory = Trajectory(labels=probe.trajectory.labels)
            states = np.asarray(recorded.get("states"))
            for t, row in zip(recorded.get("times", ()), states):
                trajectory.append(float(t), row)
            probe.trajectory = trajectory

        # last: clock, state vector, network re-evaluation, detector re-arm
        scheduler.restore_state(payload["scheduler"])
        model.time.advancements = int(
            payload.get("time", {}).get(
                "advancements", model.time.advancements,
            )
        )

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _resolve_message_ports(config: Dict[str, Any], capsule) -> Dict[str, Any]:
        out = dict(config)
        for key in ("deferred", "recalled"):
            out[key] = [
                SnapshotCodec._rebind_port(message, capsule)
                for message in out.get(key, ())
            ]
        return out

    @staticmethod
    def _rebind_port(item: Any, capsule) -> Any:
        """Resolve a decoded message's port *name* against ``capsule``."""
        if isinstance(item, Message) and isinstance(item.port, str):
            try:
                item.port = capsule.port(item.port)
            except Exception:
                item.port = None
        return item


def corrupt_bytes(data: bytes, offset: int) -> bytes:
    """Flip one byte of ``data`` (fault-injection helper; the CRC check
    in :func:`decode_blob` must catch the result)."""
    if not data:
        return data
    offset %= len(data)
    flipped = bytes([data[offset] ^ 0xFF])
    return data[:offset] + flipped + data[offset + 1:]
