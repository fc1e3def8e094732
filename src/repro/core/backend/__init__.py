"""Execution backends: one registry, one uniform program surface.

Importing this package registers the five built-in backends
(``interpreter``, ``compiled-python``, ``native-c``, ``batch``,
``native-batch``).  See :mod:`repro.core.backend.base` for the contract
the fallback-ladder resolver :func:`compile_program` and the background
build starter :func:`prefetch`.
"""

from repro.core.backend.base import (
    BackendError,
    BackendProgram,
    BackendUnavailable,
    CompileRequest,
    ExecutionBackend,
    FALLBACKS,
    KERNEL_SOLVERS,
    KERNEL_VERSION,
    ProgramResult,
    available_backends,
    compile_program,
    fallback_chain,
    get_backend,
    prefetch,
    register_backend,
)
from repro.core.backend.interpreter import (
    InterpreterBackend, InterpreterProgram,
)
from repro.core.backend.pykernel import PyKernelBackend, PyKernelProgram
from repro.core.backend.native import (
    NativeBackend, NativeProgram, default_cache_dir, has_c_compiler,
)
from repro.core.backend.batchentry import BatchBackend, BatchProgramAdapter
from repro.core.backend.nativebatch import (
    NativeBatchAdapter, NativeBatchBackend, NativeBatchKernel,
    default_shards, shard_bounds,
)

__all__ = [
    "BackendError",
    "BackendProgram",
    "BackendUnavailable",
    "BatchBackend",
    "BatchProgramAdapter",
    "CompileRequest",
    "ExecutionBackend",
    "FALLBACKS",
    "InterpreterBackend",
    "InterpreterProgram",
    "KERNEL_SOLVERS",
    "KERNEL_VERSION",
    "NativeBackend",
    "NativeBatchAdapter",
    "NativeBatchBackend",
    "NativeBatchKernel",
    "NativeProgram",
    "ProgramResult",
    "PyKernelBackend",
    "PyKernelProgram",
    "available_backends",
    "compile_program",
    "default_cache_dir",
    "default_shards",
    "fallback_chain",
    "get_backend",
    "has_c_compiler",
    "prefetch",
    "register_backend",
    "shard_bounds",
]
