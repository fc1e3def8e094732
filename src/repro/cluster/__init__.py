"""repro.cluster — sharded multi-worker simulation service.

A :class:`WorkerPool` of OS processes executes the service's job specs
behind work-stealing deques; a filesystem :class:`ArtifactStore` gives
every worker the same content-addressed view of checkpoints and
compiled artifacts (which is what makes live job migration after a
worker SIGKILL bitwise-safe); :class:`ClusterHTTPServer` and
:class:`ClusterClient` put the whole thing behind a stdlib HTTP API.

See ``python -m repro.cluster --help`` for the CLI, and DESIGN.md §12
for the architecture.  The names below load on use, so a worker process
importing :mod:`repro.cluster.worker` never imports the HTTP front-end,
the client or the pool.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.client": ("ClusterClient", "ClusterClientError"),
    "repro.cluster.http": (
        "ClusterHTTPServer", "json_safe", "summarise_result",
    ),
    "repro.cluster.pool": ("ClusterConfig", "ClusterJobHandle", "WorkerPool"),
    "repro.cluster.requests": (
        "ClusterError", "ClusterJobRequest", "ClusterRejected",
        "register_model", "registered_models", "resolve_model",
    ),
    "repro.cluster.store": (
        "ArtifactCorruptError", "ArtifactStore", "ArtifactStoreError",
        "decode_artifact", "encode_artifact",
    ),
})

if TYPE_CHECKING:
    from repro.cluster.client import ClusterClient, ClusterClientError
    from repro.cluster.http import (
        ClusterHTTPServer, json_safe, summarise_result,
    )
    from repro.cluster.pool import (
        ClusterConfig, ClusterJobHandle, WorkerPool,
    )
    from repro.cluster.requests import (
        ClusterError, ClusterJobRequest, ClusterRejected, register_model,
        registered_models, resolve_model,
    )
    from repro.cluster.store import (
        ArtifactCorruptError, ArtifactStore, ArtifactStoreError,
        decode_artifact, encode_artifact,
    )
