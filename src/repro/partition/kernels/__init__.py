"""Pluggable backends for Eq. 2's streaming loop (Fennel, BPart phase 1).

Importing this package registers every backend:

``scalar``
    The original per-vertex NumPy loop — the bit-exact reference.
``incremental``
    Same semantics, O(1)/vertex penalty maintenance and a
    delta-updated neighbour counter; ~4× faster at the paper's ``k``.
``buffered``
    One call per block a pass into a compiled C loop (``_fennel.c``) over
    rows in place; jumps between shards go in gathered chunks. Default.
``parallel``
    Worker-process chunk scoring over shared memory with exact in-order
    resolution (:mod:`repro.parallel`); honours ``jobs=``/``REPRO_JOBS``
    and degrades to ``buffered`` at ``jobs=1``.

``get_kernel("auto")`` — the default everywhere a ``kernel=`` knob is
exposed — is ``buffered``; all shipped backends produce identical
assignments, so the knob trades throughput only (see ``tests/partition/test_kernels.py``).

The registry dispatches that one rule. LDG (``scalar.ldg_scalar`` spec,
``buffered.ldg_buffered`` running loop) and the dynamic partitioner's
single decision (``scalar.single_scalar`` spec,
``incremental.single_incremental`` running step) live beside the Fennel
loops they mirror and are imported directly by their one caller.
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
from repro.partition.kernels import parallel_backend as _parallel_backend  # noqa: F401

__all__ = [
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_kernel_name",
]
