"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import pytest

from repro.graph import (
    chung_lu,
    complete_graph,
    from_edges,
    grid_graph,
    path_graph,
    ring_graph,
    social_graph,
    star_graph,
)


@pytest.fixture(autouse=True)
def _hermetic_artifact_cache(tmp_path, monkeypatch):
    """Keep the artifact store out of ~/.cache during tests.

    Every test gets a private cache dir and a fresh store, so cached
    partitions never leak between tests (or into the user's real cache).
    """
    from repro.bench import artifacts

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))
    artifacts.reset_store()
    yield
    artifacts.reset_store()


@pytest.fixture(autouse=True)
def _hermetic_telemetry():
    """Telemetry starts disabled and empty for every test.

    Tests that enable collection (or record into the shared registry)
    never leak series into their neighbours.
    """
    from repro import telemetry

    telemetry.set_enabled(False)
    telemetry.reset()
    yield
    telemetry.set_enabled(False)
    telemetry.reset()


@pytest.fixture(autouse=True)
def _hermetic_chaos(monkeypatch):
    """No chaos plan leaks between tests (module global or $REPRO_CHAOS)."""
    from repro.resilience import chaos

    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.install_plan(None)
    yield
    chaos.install_plan(None)


@pytest.fixture
def triangle():
    """K3: the smallest graph with a cycle."""
    return from_edges([0, 1, 2], [1, 2, 0])


@pytest.fixture
def two_components():
    """A triangle plus a disjoint edge (5 vertices, 2 components)."""
    return from_edges([0, 1, 2, 3], [1, 2, 0, 4], num_vertices=5)


@pytest.fixture
def ring64():
    return ring_graph(64)


@pytest.fixture
def path10():
    return path_graph(10)


@pytest.fixture
def star16():
    return star_graph(16)


@pytest.fixture
def grid8x8():
    return grid_graph(8, 8)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def powerlaw_small():
    """~2k-vertex scale-free graph, the workhorse integration fixture."""
    return chung_lu(2000, 12.0, 2.3, rng=123)


@pytest.fixture
def social_small():
    """Social-style graph (degree-id correlation + locality)."""
    return social_graph(1500, 10.0, 2.3, locality=0.3, rng=7)


@pytest.fixture
def isolated_vertices():
    """Graph with trailing isolated vertices (edge cases for streams)."""
    return from_edges([0, 1], [1, 2], num_vertices=6)
