"""Kernel registry for the streaming-assignment inner loop.

Fennel and BPart's phase 1 bottom out in the same sequential inner
loop: pop the next vertex off the stream, measure its overlap with each
part, apply a balance term, assign, update the loads. The loop is
inherently sequential — each assignment feeds the next score — but *how*
the body is computed is an implementation detail, and the fastest
implementation depends on the workload shape. This module owns the
dispatch.

A backend is one entry point, ``fennel`` — the additive-penalty loop of
Eq. 2 shared by Fennel and BPart's partitioning phase:
``S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^{γ−1}``. It is the only rule the
registry dispatches: LDG and the dynamic partitioner's one-decision step
each keep a ``*_scalar`` spec next to ``fennel_scalar`` and one loop that
runs (``ldg_buffered``, ``single_incremental``), called directly.

Backends register themselves at import time (see
:mod:`repro.partition.kernels`); :func:`get_kernel` resolves a name —
including ``"auto"`` — to a :class:`KernelBackend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_kernel_name",
    "pow_like_numpy",
]

#: Names accepted by ``kernel=`` knobs. ``auto`` resolves to
#: ``buffered``, the fastest bit-exact backend; ``parallel`` fans chunk
#: scoring over worker processes and itself degrades to ``buffered`` at
#: ``jobs=1``.
KERNEL_CHOICES = ("auto", "scalar", "incremental", "buffered", "parallel")


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of Eq. 2's streaming loop.

    ``fennel`` mutates the ``parts`` and ``loads`` arrays it is handed.
    Every backend is bit-exact with the ``scalar`` reference
    (``tests/partition/test_kernels.py``).
    """

    name: str
    fennel: Callable[..., None]


_REGISTRY: dict[str, KernelBackend] = {}


def register_kernel(backend: KernelBackend) -> None:
    """Register ``backend`` under its (lowercased) name."""
    _REGISTRY[backend.name.lower()] = backend


def available_kernels() -> list[str]:
    """Sorted names of the backends actually importable in this process."""
    return sorted(_REGISTRY)


def get_kernel(name: str | None = "auto") -> KernelBackend:
    """Resolve a kernel name to a registered backend.

    ``"auto"`` (or ``None``) is ``buffered`` — bit-exact with
    ``scalar``, so the default never changes results.
    """
    key = (name or "auto").lower()
    if key == "auto":
        key = "buffered"
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown streaming kernel {name!r}; choose from {KERNEL_CHOICES}"
        )
    return _REGISTRY[key]


def resolve_kernel_name(name: str | None, jobs: int | None = None) -> str:
    """Pin a ``kernel=`` knob to the concrete backend that will run.

    Like :func:`get_kernel` but jobs-aware: with ``kernel="auto"`` and a
    requested/ambient worker count above 1 (``jobs=`` beats
    ``$REPRO_JOBS``), the ``parallel`` backend is selected so
    multi-core runs engage the fan-out by default. An explicit
    non-parallel kernel name is always respected — it runs in-process
    regardless of ``jobs`` (all backends are bit-exact, so either way
    the output is identical).
    """
    key = (name or "auto").lower()
    if key == "auto":
        from repro.parallel import resolve_jobs

        if resolve_jobs(jobs) > 1:
            return "parallel"
    return get_kernel(key).name


def pow_like_numpy(base: float, exp: float) -> float:
    """``base ** exp`` with :func:`numpy.power`'s edge-case semantics.

    Python's ``0.0 ** -0.5`` raises while ``np.power`` returns ``inf``;
    the pure-Python kernels must match the vectorised reference exactly,
    including at a zero load with ``γ < 1``. For normal positive bases
    both route to the platform ``pow``, so results are bit-identical.
    """
    if base == 0.0:
        if exp > 0.0:
            return 0.0
        if exp == 0.0:
            return 1.0
        return math.inf
    if base < 0.0 and not float(exp).is_integer():
        return math.nan
    return base**exp
