"""Unit tests for the dataset stand-ins."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.graph import DATASETS, friendster_like, livejournal_like, load_dataset, twitter_like
from repro.graph.stats import gini


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_average_degree_matches_paper(self, name):
        spec = DATASETS[name]
        g = load_dataset(name, scale=0.5, seed=0)
        assert g.avg_degree == pytest.approx(spec.avg_degree, rel=0.2)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_scale_free(self, name):
        g = load_dataset(name, scale=0.5, seed=0)
        assert gini(g.degrees) > 0.35

    def test_scale_changes_size(self):
        small = load_dataset("twitter", scale=0.25, seed=0)
        big = load_dataset("twitter", scale=0.5, seed=0)
        assert big.num_vertices == 2 * small.num_vertices

    def test_memoised(self):
        a = load_dataset("twitter", scale=0.25, seed=0)
        b = load_dataset("twitter", scale=0.25, seed=0)
        assert a is b

    def test_seed_changes_graph(self):
        a = load_dataset("twitter", scale=0.25, seed=0)
        b = load_dataset("twitter", scale=0.25, seed=1)
        assert a != b

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("orkut")

    def test_helpers_match_registry(self):
        assert livejournal_like(0.25, 0) is load_dataset("livejournal", 0.25, 0)
        assert twitter_like(0.25, 0) is load_dataset("twitter", 0.25, 0)
        assert friendster_like(0.25, 0) is load_dataset("friendster", 0.25, 0)

    def test_relative_sizes(self):
        lj = livejournal_like(0.5, 0)
        fs = friendster_like(0.5, 0)
        assert fs.num_vertices > lj.num_vertices
        assert fs.avg_degree > lj.avg_degree


def test_generate_is_spanned_with_the_sampler_build_inside():
    from repro.utils import native

    native.library.cache_clear()
    native._checked.cache_clear()
    try:
        telemetry.set_enabled(True)
        DATASETS["livejournal"].generate(0.02, 1)
        spans = [(s["name"], s["args"]) for s in telemetry.registry().spans]
    finally:
        native.library.cache_clear()
        native._checked.cache_clear()
    # the build span closes first: it nests inside the first generate
    assert spans == [("graph.kernels.build", {"cached": False}),
                     ("graph.generate", {"dataset": "livejournal", "n": 320})]
