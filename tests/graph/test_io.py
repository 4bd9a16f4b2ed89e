"""Unit tests for graph IO round-trips."""

from __future__ import annotations

import pytest

from repro.errors import GraphFormatError
from repro.graph import chung_lu, read_edge_list, write_edge_list


@pytest.fixture
def sample():
    return chung_lu(200, 6.0, rng=11)


class TestEdgeList:
    def test_roundtrip(self, sample, tmp_path):
        p = tmp_path / "g.txt"
        write_edge_list(sample, p)
        assert read_edge_list(p) == sample

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n\n0 1\n1 2\n")
        g = read_edge_list(p)
        assert g.num_undirected_edges == 2

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

    def test_non_integer(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

class TestGzip:
    def test_gz_roundtrip(self, sample, tmp_path):
        p = tmp_path / "g.txt.gz"
        write_edge_list(sample, p)
        assert read_edge_list(p) == sample

    def test_gz_actually_compressed(self, sample, tmp_path):
        import gzip

        p = tmp_path / "g.txt.gz"
        write_edge_list(sample, p)
        with open(p, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # gzip magic
        with gzip.open(p, "rt") as fh:
            assert fh.readline().startswith("#")
