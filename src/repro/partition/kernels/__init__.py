"""Pluggable backends for the streaming-assignment inner loop.

Importing this package registers every backend importable in the
current environment:

``scalar``
    The original per-vertex NumPy loop — the bit-exact reference.
``incremental``
    Same semantics, O(1)/vertex penalty maintenance and a
    delta-updated neighbour counter; ~4× faster at the paper's ``k``.
``buffered``
    Chunked vectorised CSR gather with exact intra-chunk fixups;
    fastest pure-NumPy backend (~5×) and the default.
``numba``
    JIT-compiled incremental loop; registered only when numba is
    installed, otherwise ``get_kernel("numba")`` falls back to the
    ``auto`` default (``buffered``) with a one-time warning and a
    ``kernels.numba_fallbacks`` telemetry increment.
``parallel``
    Worker-process chunk scoring over shared memory with exact in-order
    resolution (:mod:`repro.parallel`); honours ``jobs=``/``REPRO_JOBS``
    and degrades to ``buffered`` at ``jobs=1``.

``get_kernel("auto")`` — the default everywhere a ``kernel=`` knob is
exposed — picks ``numba`` when available and ``buffered`` otherwise;
all shipped backends produce identical assignments, so the knob trades
throughput only (see ``tests/partition/test_kernels.py``).
"""

from repro.partition.kernels.base import (
    KERNEL_CHOICES,
    KernelBackend,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_kernel_name,
)
from repro.partition.kernels import scalar as _scalar  # noqa: F401 (registers)
from repro.partition.kernels import incremental as _incremental  # noqa: F401
from repro.partition.kernels import buffered as _buffered  # noqa: F401
from repro.partition.kernels import numba_backend as _numba_backend  # noqa: F401
from repro.partition.kernels import parallel_backend as _parallel_backend  # noqa: F401
from repro.partition.kernels.numba_backend import HAVE_NUMBA

__all__ = [
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_kernel_name",
    "HAVE_NUMBA",
]
