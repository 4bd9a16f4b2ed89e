"""Repository guards a builder can run (CI's ``lint`` job only calls this file).

One home per protocol (DESIGN.md §9): the compact JSON form and the
document digest live in ``utils/canon.py`` — the other sha256 users hash
arrays or bytes, not documents — no region is timed twice, and the edge
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
``argtypes`` or takes an array's address. Every C reader of a graph takes its
block table: no chunk gather and no per-block loop around ``native.call``, and
``utils/_graph.h`` holds the one block lookup and the one uniform step rule.
``src/`` (``.py``, ``.c`` and ``.h``) has no numba path and does not grow back past
the ceiling. Every CI check is a command a builder runs the same way: no heredoc.
No module under ``src/``, ``tests/`` or ``benchmarks/`` imports a name it never reads,
assigns a local it never reads or binds a name again before reading it (ruff's F401,
F841 and F811, mirrored by AST so that they run without ruff).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]

#: ``find src -name '*.py' -o -name '*.c' | xargs cat | wc -l`` may not exceed this.
SRC_LINE_CEILING = 19349

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
    # the one timer times what no span covers: a whole experiment
    assert [h.split(":")[0] for h in _grep(r"\.timer\(", "src", glob="*.py")] == [
        "src/repro/bench/runner.py"]


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
        superstep.census_build(g, parts, 4)
        assert calls[1:] == ["census_scan", "census_scan", "census_group"]
    calls.clear()
    GeminiEngine(BSPCluster(4)).run(g, PartitionAssignment(g, parts, 4), PageRank(3))
    assert calls[3:] == ["census_push"] * 3
    calls.clear()
    WalkEngine(BSPCluster(4), mode="greedy").run(g, PartitionAssignment(g, parts, 4),
                                                 DeepWalk(), max_steps=2)
    assert set(calls) == {"walk_live", "uniform_step", "walk_apply"}
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
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "src").rglob("*.[ch]")]
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    assert lines <= SRC_LINE_CEILING, f"src/ is {lines} lines"


def _unused_imports(path: Path) -> list[str]:
    """``path:line name`` for each import whose name nothing in the file reads."""
    text = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(text), text.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # a quoted annotation reads the names inside it
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            for c in ast.walk(note) if note else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    try:
                        read |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                                 if isinstance(n, ast.Name)}
                    except SyntaxError:
                        pass
        if isinstance(node, ast.Assign) and "__all__" in map(ast.unparse, node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    rel = path.relative_to(ROOT).as_posix()
    return [
        f"{rel}:{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        and "# noqa" not in lines[node.lineno - 1]
        for name in ((a.asname or a.name.split(".")[0]) for a in node.names)
        if name not in read
    ]


def _lint_paths(init: bool = False) -> list[Path]:
    return [p for root in ("src", "tests", "benchmarks") for p in sorted((ROOT / root).rglob("*.py"))
            if init or p.name != "__init__.py"]


def test_no_unused_imports():
    # ruff's F401 (the lint job's first rule) for module- and function-level imports,
    # by AST alone so that it runs under --noconftest without ruff installed
    assert [hit for p in _lint_paths() for hit in _unused_imports(p)] == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope``'s body that are not inside a nested function,
    class or comprehension."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_locals(path: Path) -> list[str]:
    """``path:line name`` for each local a function assigns and never reads (ruff's F841):
    plain ``name =``, ``with … as name`` and ``except … as name``; parameters, tuple
    targets and ``_``-prefixed names are not checked, as ruff does not check them."""
    rel, hits = path.relative_to(ROOT).as_posix(), []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, (ast.Load, ast.Del))}
        if "locals" in read:
            continue
        shared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [(node.target.id, node.lineno)] if isinstance(node.target, ast.Name) else []
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                targets = [(node.optional_vars.id, node.optional_vars.lineno)]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                targets = [(node.name, node.lineno)]
            else:
                continue
            hits += [f"{rel}:{line} {name}" for name, line in targets
                     if name not in read and name not in shared and not name.startswith("_")]
    return hits


def test_no_unused_locals():
    # ruff's F841 (the lint job's third rule), by AST alone like the F401 check above
    assert [hit for p in _lint_paths(init=True) for hit in _unused_locals(p)] == []


def _redefined_unused(path: Path) -> list[str]:
    """``path:line name`` for each import, function or class that an import, function
    or class of the same body binds again before anything reads it (ruff's F811).
    Only a body's own statements count, not the branches of an ``if`` or ``try``."""
    rel, hits = path.relative_to(ROOT).as_posix(), []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for scope in ast.walk(tree):
        body = getattr(scope, "body", None)
        if not isinstance(body, list) or isinstance(scope, (ast.If, ast.Try, ast.For,
                                                            ast.While, ast.With)):
            continue
        reads = [(n.lineno, n.id) for n in ast.walk(scope)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        reads += [(n.lineno, n.value) for n in ast.walk(scope)  # __all__ entries
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        bound: dict[str, ast.stmt] = {}
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                continue
            first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
            for name in names:
                prev = bound.get(name)
                overload = prev is not None and any(
                    ast.unparse(d).endswith("overload") for d in getattr(prev, "decorator_list", []))
                if prev is not None and not overload and not any(
                        n == name and prev.lineno <= line <= stmt.lineno for line, n in reads):
                    hits.append(f"{rel}:{first} {name}")
                bound[name] = stmt
    return hits


def test_no_redefined_unused_names():
    # ruff's F811 (the lint job's second rule), by AST alone like the F401 check above
    assert [hit for p in _lint_paths(init=True) for hit in _redefined_unused(p)] == []


def test_fennel_decision_is_compiled():
    # fennel_buffered calls the C loop once a run of the graph's tables (one a pass on a dense
    # graph, at most one a shard on shards), on rows read in place whatever the stream order;
    # no Python loop over the parts (or over the stream's vertices) and no gather is left in it.
    path = ROOT / "src/repro/partition/kernels/buffered.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "fennel_buffered")
    loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert [ast.unparse(n.iter) for n in loops] == ["range(passes)", "graph.tables(stream)"]
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and ast.unparse(n.func) == "native.call"]
    assert len(calls) == 1 and calls[0] in ast.walk(loops[1])
    assert ast.unparse(calls[0].args[1]) == "table" and "gather" not in ast.unparse(fn)
    assert (path.parent / "_fennel.c").is_file()


def test_add_edges_buckets_in_c():
    # ShardedCSRBuilder.add_edges buckets a batch with one bucket_arcs call: no argsort or
    # fancy gather of the arcs is left in it
    tree = ast.parse((ROOT / "src/repro/graph/sharded.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ShardedCSRBuilder")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "add_edges")
    source = ast.unparse(fn)
    assert "argsort" not in source and "sort(" not in source
    calls = [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Call)
             and ast.unparse(n.func) == "native.call"]
    assert len(calls) == 1 and calls[0].startswith("native.call('bucket_arcs'")


def test_extraction_is_compiled():
    # extract_subgraph makes one induce_rows call through the graph's block table: no loop
    # over blocks, member rows or arcs
    tree = ast.parse((ROOT / "src/repro/graph/subgraph.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "extract_subgraph")
    assert not [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert "native.call('induce_rows', graph.table" in ast.unparse(fn)


def test_one_block_table_per_graph():
    # every C reader takes the graph's block table: no chunk gather, stream runs or per-block
    # dispatch loop around native.call is left in src/, and utils/_graph.h holds the one
    # block lookup and the one uniform step rule, included by every C file
    assert _grep(r"gather_block|shard_runs|_GATHER_CHUNK_ARCS|_dense_gather|uniform_slots",
                 "src") == []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(loop, ast.For) and "iter_blocks()" in ast.unparse(loop.iter):
                assert "native.call" not in ast.unparse(loop), f"{path}:{loop.lineno}"
    header = "src/repro/utils/_graph.h"
    for name in ("graph_block", "graph_row", "uniform_arc"):
        assert [h.split(":")[0] for h in _grep(rf"^static inline .*\b{name}\(", "src")] == [header]
    sources = sorted((ROOT / "src").rglob("*.c"))
    assert len(sources) == 4 and all('#include "' in p.read_text() and "utils/_graph.h" in
                                     p.read_text() for p in sources)
    assert _grep(r"rows_1", "src", glob="*.c") == []  # the table row's layout: the header's


def test_serving_reads_are_one_compiled_call():
    # serve_batch steps no walker, merges nothing and costs nothing itself: one
    # serve_batch call per batch, and no loop at all; the cache keeps its LRU in
    # arrays and loops over no blocks in Python.
    serving = ROOT / "src/repro/serving"
    tree = ast.parse((serving / "simulator.py").read_text(encoding="utf-8"))
    fn = next(n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "serve_batch")
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
    assert [ast.unparse(n.args[0]) for n in calls if ast.unparse(n.func) == "native.call"] == [
        "'serve_batch'"]
    calls = [ast.unparse(n.func) for n in calls]
    assert "dict" not in calls and not [
        n for n in ast.walk(fn) if isinstance(n, (ast.Dict, ast.DictComp))
        or isinstance(n, ast.Name) and n.id == "touched"
    ]
    assert not [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(fn)}
    assert not names & {"take_arcs", "rng_from_state", "compute_seconds", "request_cost"}
    assert _grep(r"rng_from_state", "src") == []
    assert _grep("OrderedDict", "src/repro/serving") == []
    cache = ast.parse((serving / "cache.py").read_text(encoding="utf-8"))
    loops = [ast.unparse(n.iter) for n in ast.walk(cache)
             if isinstance(n, (ast.For, ast.comprehension))]
    assert sorted(loops) == ["('work', 'reads', 'fetched', 'walked', 'seconds')",
                             "(np.int32, np.int32, np.uint8)",
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


def test_every_ci_check_runs_here():
    # no heredoc: each run is pytest, a script under benchmarks/ or the benchmark itself
    # (plus the lint job's ruff and each job's pip install), so a builder runs it as CI does
    text = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert "<<" not in text and len(lines) < 250
    jobs = lines[lines.index("jobs:"):]
    assert len([line for line in jobs if re.fullmatch(r"  [a-z0-9-]+:", line)]) <= 5
    runs = [lines[i + 1].strip() if m[1] == ">-" else m[1]  # a folded run is one command
            for i, line in enumerate(lines) if (m := re.fullmatch(r"\s+run: (.*)", line))]
    allowed = ("python -m pytest ", "bash benchmarks/", "python benchmarks/e2e/run.py ",
               "ruff check ", "python -m pip install ")
    assert runs and [r for r in runs if not r.startswith(allowed)] == []
    scripts = [r.split()[1] for r in runs if r.startswith("bash ")]
    assert scripts and all((ROOT / s).is_file() for s in scripts), scripts
