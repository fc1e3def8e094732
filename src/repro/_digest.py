"""SHA-256 for content keys, without OpenSSL.

The library hashes content to name things: plan fingerprints
(:meth:`~repro.core.plan.ExecutionPlan.fingerprint`), native artifact
names (:func:`~repro.core.backend.native.content_key`) and snapshot
identities (:meth:`~repro.resilience.codec.SnapshotCodec.fingerprint`).
None of these keys has a security role.  :mod:`hashlib` would compute
them, but importing it loads ``_hashlib`` and, through it, OpenSSL's
``libcrypto`` (about 3.3 MB resident on Linux x86-64) into every
process that computes a key, each cluster worker among them.

CPython ships its own SHA-256 as well: ``_sha2`` from 3.12, ``_sha256``
on 3.9-3.11.  Its digests are the standard ones, byte for byte, so no
key depends on which implementation computed it.  It costs about six
times more per byte than OpenSSL's: about 0.1 ms more on the key of a 24 KB kernel source, and
nothing measurable on a plan fingerprint, whose cost is building the
strings it hashes.

:data:`sha256` is bound once, at import, by the chain :mod:`random`
uses for its ``sha512``: the built-in module when it exists,
:func:`hashlib.sha256` only on an interpreter built without it.
"""

from __future__ import annotations

__all__ = ["sha256"]

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
