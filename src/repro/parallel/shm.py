"""Shared-memory array transport for the parallel execution layer.

Workers receive large read-mostly NumPy arrays (CSR adjacency, stream
permutations, part vectors) through POSIX shared memory instead of
pickled pipe payloads: the parent copies each array into a
``multiprocessing.shared_memory`` segment once, and every worker maps
the same pages — task messages then carry only a tiny
:class:`SharedArrayToken` naming the segment.

Ownership contract (see DESIGN.md §14): the **parent** owns every
segment's lifetime — it creates, closes and unlinks; workers only
attach.  ``spawn`` children inherit the parent's resource-tracker
process, whose registry is a name *set*, so a worker's attach-time
registration collapses into the parent's and the segment is unlinked
exactly once, by the parent.  (On topologies where a child runs its own
tracker, a worker exit may unlink the name early — mapped pages survive
an unlink, and :meth:`SharedArrayPool.close` tolerates the resulting
``FileNotFoundError``, so this degrades to cosmetics, not corruption.)

Segments are created with the data copied in, never zero-copy views of
the caller's array: the caller stays free to mutate or free its copy,
and the shared pages have a single well-defined writer (the parent)
for the few arrays that *are* mutated mid-run (the kernel's part
vector, Gemini's active mask).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import telemetry

__all__ = [
    "SharedArrayPool",
    "SharedArrayToken",
    "attach_array",
    "shm_available",
]


class SharedArrayToken(NamedTuple):
    """Picklable handle naming one shared segment (pipe-message sized)."""

    name: str
    dtype: str
    shape: tuple[int, ...]


_SHM_PROBE: bool | None = None


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (probed once).

    Sandboxes without ``/dev/shm`` (or with it mounted noexec/full) make
    segment creation raise; the parallel layer then degrades to the
    serial in-process path rather than erroring.
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=8)
            seg.close()
            seg.unlink()
            _SHM_PROBE = True
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE


class SharedArrayPool:
    """Parent-side registry of shared segments, one per array.

    ``share(key, array)`` copies ``array`` into a fresh segment and
    returns its token; ``array(key)`` returns the parent's mapped view
    (writable — this is how the kernel publishes resolved part ids to
    workers).  ``close()`` unlinks everything; the pool is also a
    context manager so segments never outlive the operation that
    created them.
    """

    def __init__(self) -> None:
        self._segments: dict[str, tuple[object, np.ndarray, SharedArrayToken]] = {}

    def share(self, key: str, array: np.ndarray) -> SharedArrayToken:
        from multiprocessing import shared_memory

        if key in self._segments:
            raise KeyError(f"array {key!r} already shared")
        src = np.ascontiguousarray(array)
        seg = shared_memory.SharedMemory(create=True, size=max(1, src.nbytes))
        view = np.ndarray(src.shape, dtype=src.dtype, buffer=seg.buf)
        view[...] = src
        token = SharedArrayToken(seg.name, src.dtype.str, tuple(src.shape))
        self._segments[key] = (seg, view, token)
        if telemetry.enabled():
            telemetry.active().counter("parallel.bytes_shared").inc(int(src.nbytes))
        return token

    def array(self, key: str) -> np.ndarray:
        return self._segments[key][1]

    def token(self, key: str) -> SharedArrayToken:
        return self._segments[key][2]

    def close(self) -> None:
        for seg, _view, _token in self._segments.values():
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - cleanup
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()


def attach_array(token: SharedArrayToken, cache: dict) -> np.ndarray:
    """Worker-side: map the segment behind ``token`` and return a view.

    ``cache`` is the worker's session dict — segments attach once per
    worker and stay mapped until the worker exits, so repeated tasks
    over the same arrays cost nothing.  Unlinking is the parent's job
    (see the module docstring's ownership contract).
    """
    segs = cache.setdefault("_shm_segments", {})
    cached = segs.get(token.name)
    if cached is None:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=token.name)
        segs[token.name] = cached = seg
    return np.ndarray(token.shape, dtype=np.dtype(token.dtype), buffer=cached.buf)
