#!/usr/bin/env bash
# The e2e-smoke drill: benchmarks/e2e's own tests, each of its six workloads at smoke size,
# and the shard write path against the dense build. It invokes the benchmark and never
# edits it.
#  - The workloads' checks: every kernel agrees on the assignment and sharded BPart equals
#    the dense control; BPart waits less at barriers than Chunk-V and PageRank/CC agree
#    across the two partitions; arrivals = completed + shed, reports round-trip, K=2
#    availability >= K=1 under the same chaos plan and the replication factor is restored.
#  - The write path: add_edges + finalize of partition_sharded over graph.dense_build_s,
#    the dense build of the same edge stream in the same run (5 reps), so the ratio does
#    not depend on the box. It catches a return to a per-vertex writer. Measured on 2 cores
#    of a 2.1 GHz Xeon, 5 runs each: the block-wise writer reads 1.9-3.1x, and the same
#    tree with finalize's dedup planted back as a per-vertex np.unique loop 6.9-14.5x.
#    WRITE_BOUND sits between the two. (It was 1.5 until the dense build got 6x faster:
#    the writer did not slow down, its denominator moved.)
# Run from the repository root: bash benchmarks/e2e_smoke.sh
set -euo pipefail
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
WRITE_BOUND=4.5
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
python -m pytest benchmarks/e2e -q
for workload in partition_dense partition_sharded analytics_bsp \
    serve_light_k1 serve_loaded_k1 serve_k2_chaos; do
  python benchmarks/e2e/run.py --smoke --workload "$workload" --out "$out/$workload.json"
done
python benchmarks/e2e/run.py --smoke --reps 5 --workload partition_sharded --trace 1 \
  --out "$out/layers.json" | tail -n 1 >"$out/layers.line"
python -c '
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
write = m["graph.sharded.add_edges_s"]["value"] + m["graph.sharded.finalize_s"]["value"]
ratio = write / m["graph.dense_build_s"]["value"]
print(f"shard write path: {write:.4f} s, {ratio:.2f}x the dense build (bound {sys.argv[2]}x)")
sys.exit(ratio > float(sys.argv[2]))
' "$out/layers.line" "$WRITE_BOUND"
echo "e2e smoke ok"
