"""Robustness tests for the edge-list reader: malformed and truncated input."""

from __future__ import annotations

import gzip

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.io import ParseIssue, read_edge_list


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

    def test_skip_mode_drops_bad_lines(self, tmp_path):
        telemetry.set_enabled(True)
        path = _write(tmp_path, "bad.txt", self.BAD)
        g = read_edge_list(path, on_error="skip")
        assert g.num_undirected_edges == 3  # 0-1, 1-2, 2-0 survive
        reg = telemetry.registry()
        assert reg.counter("graph.io.malformed_lines", mode="skip").value == 3

    def test_collect_mode_reports_what_was_dropped(self, tmp_path):
        path = _write(tmp_path, "bad.txt", self.BAD)
        issues: list[ParseIssue] = []
        g = read_edge_list(path, on_error="collect", errors=issues)
        assert g.num_undirected_edges == 3
        assert [i.lineno for i in issues] == [3, 5, 6]
        assert "non-integer" in issues[0].message
        assert "expected 'u v'" in issues[1].message
        assert "negative vertex id" in issues[2].message
        assert str(issues[0]).startswith(f"{path}:3:")

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

    def test_truncated_gzip_skip_mode_keeps_prefix(self, tmp_path):
        lines = "".join(f"{i} {i + 1}\n" for i in range(500))
        full = _write(tmp_path, "full.txt.gz", lines)
        cut = tmp_path / "cut.txt.gz"
        raw = full.read_bytes()
        cut.write_bytes(raw[: len(raw) // 2])
        issues: list[ParseIssue] = []
        g = read_edge_list(cut, on_error="collect", errors=issues)
        assert 0 < g.num_undirected_edges < 500  # the readable prefix
        assert len(issues) == 1
        assert "unreadable input" in issues[0].message

    def test_invalid_mode_rejected(self, tmp_path):
        path = _write(tmp_path, "ok.txt", "0 1\n")
        with pytest.raises(ConfigurationError, match="on_error"):
            read_edge_list(path, on_error="ignore")

    def test_collect_requires_errors_list(self, tmp_path):
        path = _write(tmp_path, "ok.txt", "0 1\n")
        with pytest.raises(ConfigurationError, match="errors"):
            read_edge_list(path, on_error="collect")
