"""Deployment bundles: what each machine actually receives.

After partitioning, a real distributed deployment ships to machine
``i`` its local subgraph plus the routing metadata needed to address
remote neighbours. :func:`export_partition_bundles` materialises those
per-machine ``.npz`` files; :func:`load_partition_bundle` reads one
back. The format is self-describing and versioned so bundles survive
library upgrades.

Bundle contents (one ``.npz`` per part):

- ``indptr`` / ``indices`` — the *local* CSR over relabelled vertices,
  including boundary arcs whose targets are remote (encoded as
  ``num_local + remote_index``);
- ``global_ids`` — local id → original vertex id;
- ``remote_ids`` — remote index → original vertex id of the ghost;
- ``remote_parts`` — remote index → owning machine;
- ``meta`` — format version, part id, part count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError, PartitionError
from repro.partition.assignment import PartitionAssignment

__all__ = ["PartitionBundle", "export_partition_bundles", "load_partition_bundle"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PartitionBundle:
    """One machine's share of a partitioned graph, deployment-ready.

    Local vertices are ``0 .. num_local-1``; a neighbour id ``>=
    num_local`` refers to ghost ``remote_ids[id - num_local]`` owned by
    ``remote_parts[id - num_local]``.
    """

    part: int
    num_parts: int
    indptr: np.ndarray
    indices: np.ndarray
    global_ids: np.ndarray
    remote_ids: np.ndarray
    remote_parts: np.ndarray

    @property
    def num_local(self) -> int:
        return self.global_ids.size

    @property
    def num_ghosts(self) -> int:
        return self.remote_ids.size

    @property
    def num_arcs(self) -> int:
        return self.indices.size


def export_partition_bundles(
    assignment: PartitionAssignment, directory: str | os.PathLike
) -> list[Path]:
    """Write one bundle per part into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph = assignment.graph
    parts = assignment.parts.astype(np.int64)
    k = assignment.num_parts
    indptr, indices = graph.indptr, graph.indices
    paths: list[Path] = []

    for p in range(k):
        local_ids = np.nonzero(parts == p)[0].astype(np.int64)
        local_of = np.full(graph.num_vertices, -1, dtype=np.int64)
        local_of[local_ids] = np.arange(local_ids.size)

        # Gather all arcs of local vertices.
        counts = (indptr[local_ids + 1] - indptr[local_ids]).astype(np.int64)
        new_indptr = np.zeros(local_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        targets = (
            np.concatenate([indices[indptr[v] : indptr[v + 1]] for v in local_ids])
            if counts.sum()
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64)

        remote_mask = parts[targets] != p if targets.size else np.empty(0, dtype=bool)
        remote_globals = np.unique(targets[remote_mask]) if targets.size else np.empty(0, dtype=np.int64)
        ghost_of = np.full(graph.num_vertices, -1, dtype=np.int64)
        ghost_of[remote_globals] = np.arange(remote_globals.size)

        new_indices = np.where(
            remote_mask,
            local_ids.size + ghost_of[targets],
            local_of[targets],
        ).astype(np.int64) if targets.size else np.empty(0, dtype=np.int64)

        path = directory / f"part-{p:04d}.npz"
        np.savez_compressed(
            path,
            indptr=new_indptr,
            indices=new_indices,
            global_ids=local_ids,
            remote_ids=remote_globals,
            remote_parts=parts[remote_globals] if remote_globals.size else np.empty(0, dtype=np.int64),
            meta=np.array([_FORMAT_VERSION, p, k], dtype=np.int64),
        )
        paths.append(path)
    return paths


def load_partition_bundle(path: str | os.PathLike) -> PartitionBundle:
    """Load one bundle written by :func:`export_partition_bundles`."""
    with np.load(path) as data:
        try:
            meta = data["meta"]
            if meta[0] != _FORMAT_VERSION:
                raise GraphFormatError(
                    f"{path}: bundle format version {meta[0]} unsupported"
                )
            bundle = PartitionBundle(
                part=int(meta[1]),
                num_parts=int(meta[2]),
                indptr=data["indptr"],
                indices=data["indices"],
                global_ids=data["global_ids"],
                remote_ids=data["remote_ids"],
                remote_parts=data["remote_parts"],
            )
        except KeyError as exc:
            raise GraphFormatError(f"{path}: missing array {exc}") from exc
    if bundle.indptr[-1] != bundle.indices.size:
        raise PartitionError(f"{path}: corrupt bundle (indptr/indices mismatch)")
    return bundle
