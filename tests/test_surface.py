"""The reachability rule of DESIGN.md §3 as a test: every module under
``src/repro`` is imported — re-exports resolved, ``__init__`` files not
counted as callers — on a chain that starts at the CLI, ``repro.bench``,
``benchmarks/`` or ``examples/``, or registers a name those places use."""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTSIDE = [p for d in ("benchmarks", "examples") for p in sorted((ROOT / d).rglob("*.py"))]

#: module → the role that keeps it although nothing above imports or names it.
EXEMPT = {"repro.partition.kernels.scalar": "executable spec every other kernel is tested against"}


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


FILES = {_dotted(p): p for p in (SRC / "repro").rglob("*.py")}
PACKAGES = {m for m, p in FILES.items() if p.name == "__init__.py"}
MODULES = set(FILES) - PACKAGES


@functools.cache
def _provider(module: str, name: str) -> frozenset[str]:
    """The module ``from module import name`` is after (through package re-exports)."""
    if f"{module}.{name}" in FILES:
        return frozenset({f"{module}.{name}"} & MODULES)
    if module in PACKAGES:
        for node in ast.parse(FILES[module].read_text()).body:
            for alias in node.names if isinstance(node, ast.ImportFrom) else ():
                if (alias.asname or alias.name) == name:
                    return _provider(node.module, alias.name)
    return frozenset({module} & MODULES)


def _imports(path: Path) -> set[str]:
    tree, found, packages = ast.parse(path.read_text()), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names} & MODULES
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                found |= _provider(node.module, a.name)
                if f"{node.module}.{a.name}" in PACKAGES:
                    packages[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):  # ``from repro import graph`` … ``graph.twitter_like(…)``
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in packages:
            found |= _provider(packages[node.value.id], node.attr)
    return found


def test_every_module_is_reached():
    roots = {m for m in MODULES if m.startswith(("repro.bench.", "repro.cli", "repro.__main__"))}
    todo = roots | {m for p in OUTSIDE for m in _imports(p)}
    reached: set[str] = set()
    while todo:
        module = todo.pop()
        reached.add(module)
        todo |= _imports(FILES[module]) - reached
    named = "\n".join(p.read_text() for p in [*map(FILES.get, sorted(roots)), *OUTSIDE])
    unreached = {}
    for module in sorted(MODULES - reached - set(EXEMPT)):
        names = re.findall(r'\bregister_\w+\(\s*"([^"]+)"', FILES[module].read_text())
        if not any(f'"{name}"' in named for name in names):
            unreached[module] = names
    assert not unreached, f"reached only by their own tests (module: registered names): {unreached}"
    assert set(EXEMPT) <= MODULES
