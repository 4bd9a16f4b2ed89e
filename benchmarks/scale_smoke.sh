#!/usr/bin/env bash
# The scale-smoke drill: 2^19 vertices (d̄≈64) under a hard 1 GiB address-space cap.
#  1. The sharded sweep must fit: BPart streams 32 shards (about 140 MB of CSR) in natural
#     order, each read in place through a one-shard block table from the 8-map LRU.
#  2. The same graph built dense must die of MemoryError under the same cap, so the cap
#     binds and the shards are what make the sweep fit.
# The in-process parity control runs in both steps: all five partitioners must be
# bit-identical on a dense control graph and its spilled twin.
# Measured on 2 cores of a 2.1 GHz Xeon: the sharded cell peaks at 200 MB RSS for a
# 140 MB CSR (build 8.8 s, partition 0.47 s); the dense cells peak at 1615 / 1477 MB RSS
# uncapped (incremental / buffered).
# Run from the repository root: bash benchmarks/scale_smoke.sh
set -euo pipefail
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
ulimit -v 1048576
python -m repro.cli scale --scales 19 --avg-degree 64 --shard-size 16384 --mode sharded
dense="$(mktemp)"
trap 'rm -f "$dense"' EXIT
if python -m repro.cli scale --scales 19 --avg-degree 64 --mode dense >"$dense" 2>&1; then
  cat "$dense"
  echo "dense build unexpectedly fit under the cap" >&2
  exit 1
fi
cat "$dense"
grep -q "MemoryError" "$dense" || { echo "dense build failed, but not of MemoryError" >&2; exit 1; }
echo "scale smoke ok: sharded fits, dense dies of MemoryError"
