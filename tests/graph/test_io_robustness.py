"""Robustness tests for the edge-list reader: malformed and truncated input."""

from __future__ import annotations

import gzip

import pytest

from repro.errors import GraphFormatError
from repro.graph.io import read_edge_list


def _write(tmp_path, name, text):
    path = tmp_path / name
    if name.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


class TestEdgeListOnError:
    BAD = "# comment\n0 1\nnot numbers\n1 2\n3\n-1 4\n2 0\n"

    def test_raise_mode_reports_path_and_lineno(self, tmp_path):
        path = _write(tmp_path, "bad.txt", self.BAD)
        with pytest.raises(GraphFormatError, match=rf"{path}:3: non-integer"):
            read_edge_list(path)

    def test_negative_id_raises_with_lineno(self, tmp_path):
        path = _write(tmp_path, "neg.txt", "0 1\n-2 3\n")
        with pytest.raises(GraphFormatError, match=r":2: negative vertex id"):
            read_edge_list(path)

    def test_gzip_round_trip_clean(self, tmp_path):
        path = _write(tmp_path, "ok.txt.gz", "0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_undirected_edges == 2

    def test_truncated_gzip_raise_mode(self, tmp_path):
        full = _write(tmp_path, "full.txt.gz", "0 1\n" * 500)
        cut = tmp_path / "cut.txt.gz"
        cut.write_bytes(full.read_bytes()[:-10])
        with pytest.raises(GraphFormatError, match="unreadable input"):
            read_edge_list(cut)
