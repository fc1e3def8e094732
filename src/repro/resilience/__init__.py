"""Resilience layer: checkpointing, crash-safe resume, fault injection.

Long batch sweeps and hardware-in-the-loop soak runs die for boring
reasons — preempted workers, full disks, flaky nodes — and a cold
restart throws away hours of integration.  This package makes in-flight
simulation state a first-class, durable artefact:

* :mod:`~repro.resilience.codec` — versioned, schema-checked snapshots
  of a running hybrid simulation, assembled from explicit per-subsystem
  extraction hooks (never blind pickling) and keyed to the execution
  plan's content fingerprint;
* :mod:`~repro.resilience.checkpoint` — periodic atomic checkpoints
  into a bounded spool directory, with CRC-verified recovery;
* :mod:`~repro.resilience.faults` — seeded, reproducible fault plans
  (crash, divergence, preemption, checkpoint corruption) that drive the
  job engine's retry path through real restore-and-resume cycles.

The headline guarantee, proven by ``tests/resilience``: a fixed-step run
killed mid-flight and resumed from its latest checkpoint is *bitwise
identical* to one that never crashed.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.checkpoint": (
        "CHECKPOINT_SUFFIX", "CheckpointError", "CheckpointManager",
    ),
    "repro.resilience.codec": (
        "SNAPSHOT_VERSION", "FingerprintMismatchError", "Snapshot",
        "SnapshotCodec", "SnapshotCorruptError", "SnapshotError",
        "SnapshotVersionError", "corrupt_bytes", "decode_blob",
        "decode_snapshot", "encode_blob", "encode_snapshot",
    ),
    "repro.resilience.faults": (
        "FaultInjector", "FaultRecord", "InjectedCrash",
        "InjectedDivergence", "InjectedFault", "InjectedPreemption",
        "PlannedFault",
    ),
})

if TYPE_CHECKING:
    from repro.resilience.checkpoint import (
        CHECKPOINT_SUFFIX,
        CheckpointError,
        CheckpointManager,
    )
    from repro.resilience.codec import (
        SNAPSHOT_VERSION,
        FingerprintMismatchError,
        Snapshot,
        SnapshotCodec,
        SnapshotCorruptError,
        SnapshotError,
        SnapshotVersionError,
        corrupt_bytes,
        decode_blob,
        decode_snapshot,
        encode_blob,
        encode_snapshot,
    )
    from repro.resilience.faults import (
        FaultInjector,
        FaultRecord,
        InjectedCrash,
        InjectedDivergence,
        InjectedFault,
        InjectedPreemption,
        PlannedFault,
    )
