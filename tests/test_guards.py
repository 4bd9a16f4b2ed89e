"""Repository guards a builder can run (CI's ``lint`` job only calls this file).

One home per protocol (DESIGN.md §9): the compact JSON form and the
document digest live in ``utils/canon.py`` — the other sha256 users hash
arrays or bytes, not documents — there is no second timer, and the edge
intake and the keys → rows canonicaliser live in ``graph/builder.py``.
Serving steps its ≤ ``batch_max`` walkers itself; KnightKing's vectorised
stepper stays with KnightKing. Serving seeds each walk batch from a
per-machine state table, never one ``derive_rng`` per batch. The kernel registry dispatches Fennel's
rule only. One cluster class runs the BSP superstep, faults included.
On a dense graph node2vec's arc test is one ``searchsorted`` and no
``take_arcs`` gather, the Gemini census sort is not stable, and traffic
is counted per machine pair, never built from pair arrays.
Fennel's rule decides each chunk in one compiled call, not a Python loop,
and a serving batch's reads are accounted by one compiled call too: no
Python merge of its demand rows, no ``OrderedDict`` LRU. The generators
draw weighted endpoints through one compiled sampler, never
``choice(…, p=…)``. Only ``utils/native.py`` loads a C library, sets
``argtypes`` or takes an array's address.
``src/`` (``.py`` and ``.c``) has no numba path and does not grow back past
the ceiling.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]

#: ``find src -name '*.py' -o -name '*.c' | xargs cat | wc -l`` may not exceed this.
SRC_LINE_CEILING = 20351

SHA256_HOMES = {
    f"src/repro/{name}.py"
    for name in (
        "utils/canon", "graph/csr", "partition/assignment",
        "serving/workload", "resilience/policy", "bench/scale",
    )
}


def _grep(pattern: str, *roots: str, glob: str = "*") -> list[str]:
    """``path:line`` for every text line under ``roots`` that matches, like ``grep -rnE``."""
    hits = []
    for root in roots:
        for path in sorted((ROOT / root).rglob(glob)):
            if not path.is_file() or "__pycache__" in path.parts or path == HERE:
                continue
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except UnicodeDecodeError:
                continue
            rel = path.relative_to(ROOT).as_posix()
            hits += [f"{rel}:{n}" for n, line in enumerate(lines, 1) if re.search(pattern, line)]
    return hits


def test_canonical_json_has_one_home():
    hits = _grep(r"separators=", "src/repro", glob="*.py")
    assert [h for h in hits if not h.startswith("src/repro/utils/canon.py:")] == []


def test_document_digests_have_one_home():
    hits = _grep(r"hashlib\.sha256\(", "src/repro", glob="*.py")
    assert [h for h in hits if h.split(":")[0] not in SHA256_HOMES] == []


def test_no_second_timer():
    assert _grep(r"WallClock|utils.timing", "src", "tests", "examples", "benchmarks", "docs") == []


def test_edges_to_rows_has_one_home():
    # The adjacent-dedup idiom marks the canonicaliser, the message the intake.
    for pattern in (r"np\.not_equal\(", "negative vertex id in edge list"):
        hits = _grep(pattern, "src/repro/graph", glob="*.py")
        assert len(hits) == 1 and hits[0].startswith("src/repro/graph/builder.py:"), hits
    hits = _grep("argsort", "src/repro/graph", glob="*.py")
    assert [h for h in hits if h.split(":")[0].endswith(("/builder.py", "/csr.py"))] == []


def test_serving_steps_walkers_itself():
    assert _grep(r"uniform_neighbor", "src/repro/serving") == []


def test_kernel_registry_dispatches_one_rule():
    # LDG and the dynamic step: a spec and the one loop that runs, called directly.
    kernels = "src/repro/partition/kernels/"
    homes = {"ldg_": ["buffered.py", "scalar.py"], "single_": ["incremental.py", "scalar.py"]}
    for prefix, files in homes.items():
        hits = _grep(rf"^\s*def {prefix}", "src", glob="*.py")
        assert [h.split(":")[0] for h in hits] == [kernels + f for f in files], hits
    assert _grep(r"^\s+(ldg|single|exact)\b.*:", kernels, glob="base.py") == []
    for caller in ("ldg.py", "dynamic.py"):
        assert _grep(r"get_kernel|resolve_kernel_name", "src/repro/partition", glob=caller) == []


def test_one_bsp_cluster():
    assert len(_grep(r"^\s*def superstep\b", "src/repro/cluster", glob="*.py")) == 1
    # the deleted wrapper's name, spelt so that this line does not match
    assert _grep("FaultAware" "Cluster", "src", "tests", "examples", "docs") == []


def test_engine_bookkeeping_is_compiled(monkeypatch):
    # Imported here: CI's lint job runs this file without the numeric stack.
    np = pytest.importorskip("numpy")
    graph = pytest.importorskip("repro.graph")
    superstep = pytest.importorskip("repro.engines.superstep")
    from repro.cluster import BSPCluster
    from repro.engines.gemini import GeminiEngine, PageRank
    from repro.engines.gemini.engine import _build_census
    from repro.engines.knightking import DeepWalk, WalkEngine, arcs_exist
    from repro.partition import PartitionAssignment

    g = graph.chung_lu(300, 6.0, rng=1)
    parts = np.arange(g.num_vertices) % 4
    native, calls = superstep.native, []
    real = native.call

    def recording(name, *args):  # the one call path, naming each function called
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(native, "call", recording)
    queries = np.arange(1000) % g.num_vertices
    with monkeypatch.context() as patch:  # no sorting and no gathers around the calls
        for name in ("argsort", "searchsorted"):
            patch.setattr(np, name, lambda *a, name=name, **kw: pytest.fail(f"np.{name}"))
        patch.setattr(type(g), "take_arcs", lambda *a: pytest.fail("take_arcs"))
        arcs_exist(g, queries, queries[::-1].copy())
        assert calls == ["arcs_sorted"]
        _build_census(g, parts, 4)
        assert calls[1:] == ["census_scan", "census_scan", "census_group"]
    calls.clear()
    GeminiEngine(BSPCluster(4)).run(g, PartitionAssignment(g, parts, 4), PageRank(3))
    assert calls[3:] == ["census_push"] * 3
    calls.clear()
    WalkEngine(BSPCluster(4), mode="greedy").run(g, PartitionAssignment(g, parts, 4),
                                                 DeepWalk(), max_steps=2)
    assert set(calls) == {"walk_live", "uniform_slots", "walk_apply"}
    assert _grep(r"arc_keys", "src") == []
    assert _grep(r"argsort|reduceat|def _advance", "src/repro/engines", glob="engine.py") == []
    assert _grep(r"from_pairs", "src") == []


def test_serving_walks_seed_from_a_table(monkeypatch):
    # Imported here: CI's lint job runs this file without the numeric stack.
    np = pytest.importorskip("numpy")
    graph = pytest.importorskip("repro.graph")
    simulator = pytest.importorskip("repro.serving.simulator")
    from repro.partition import PartitionAssignment
    from repro.serving import WorkloadSpec

    # named in prose only: never imported or called
    assert _grep(r"derive_rng\(|import.*derive_rng", "src/repro/serving", glob="simulator.py") == []
    g = graph.chung_lu(300, 6.0, rng=1)
    assignment = PartitionAssignment(g, np.arange(g.num_vertices) % 4, 4)
    trace = WorkloadSpec(users=100, duration=1.0, rate=4000.0, walk_frac=1.0, seed=1).generate(g)
    builds, real = [], simulator.seed_states
    monkeypatch.setattr(simulator, "seed_states", lambda i, *a: builds.append(1) or real(i, *a))
    batches = simulator.ServingSimulator(assignment, seed=1).run(trace).batches
    assert batches.sum() > 3000  # every batch is a walk batch
    doublings = max(0, int(batches.max() - 1).bit_length() - 10)
    assert 0 < len(builds) <= 4 * (1 + doublings)


def test_one_module_knows_the_c_abi():
    # utils/native.py's table is the one place that loads a library, declares
    # signatures or hands an array's address to C
    hits = _grep(r"ctypes\.CDLL|argtypes|\.ctypes\.data|native\.load\(|buffer_info", "src")
    assert [h for h in hits if not h.startswith("src/repro/utils/native.py:")] == []


def test_no_numba_in_src():
    assert _grep(r"numba", "src") == []


def test_src_does_not_grow_back():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "src").rglob("*.c")]
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines"


def test_fennel_decision_is_compiled():
    # fennel_buffered gathers and calls the C resolver once per chunk; no Python
    # loop over the parts (or over a chunk's vertices) is left in it.
    path = ROOT / "src/repro/partition/kernels/buffered.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "fennel_buffered")
    loops = [ast.unparse(n.iter) for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
    assert sorted(loops) == ["gather(chunk)", "range(0, parts.shape[0], chunk_size)",
                             "range(passes)"], loops
    assert (path.parent / "_fennel.c").is_file()


def test_serving_reads_are_one_compiled_call():
    # serve_batch merges nothing itself: one serve_reads call per batch; the
    # cache keeps its LRU in arrays and loops over no blocks in Python.
    serving = ROOT / "src/repro/serving"
    tree = ast.parse((serving / "simulator.py").read_text(encoding="utf-8"))
    fn = next(n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "serve_batch")
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
    assert [ast.unparse(n.args[0]) for n in calls if ast.unparse(n.func) == "native.call"] == [
        "'serve_reads'"]
    calls = [ast.unparse(n.func) for n in calls]
    assert "dict" not in calls and not [
        n for n in ast.walk(fn) if isinstance(n, (ast.Dict, ast.DictComp))
        or isinstance(n, ast.Name) and n.id == "touched"
    ]
    assert _grep("OrderedDict", "src/repro/serving") == []
    cache = ast.parse((serving / "cache.py").read_text(encoding="utf-8"))
    loops = [ast.unparse(n.iter) for n in ast.walk(cache)
             if isinstance(n, (ast.For, ast.comprehension))]
    assert sorted(loops) == ["('work', 'reads', 'fetched')", "(np.int32, np.int32, np.uint8)",
                             "self._links", "zip(('edges', 'remote', 'ptr', 'block', 'count', "
                             "'parts'), (*demand, parts), _RUN_DTYPES)"], loops
    assert not [n for n in ast.walk(cache) if isinstance(n, ast.While)]
    assert (serving / "_serve.c").is_file()


def test_weighted_draws_go_through_the_sampler():
    # every weighted endpoint draw under graph/ is _endpoints (graph/_sample.c);
    # no Generator.choice with p= is left there
    graph = ROOT / "src/repro/graph"
    weighted = [
        f"{path.name}:{node.lineno}"
        for path in sorted(graph.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("choice")
        and any(k.arg == "p" for k in node.keywords)
    ]
    assert weighted == []
    assert (graph / "_sample.c").is_file()
