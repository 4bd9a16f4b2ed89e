"""Tests for the CLI subcommands."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import _SUBCOMMANDS, main


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    # argparse %-formats every help string when it renders: a bare "%" raises
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out


class TestBenchCommand:
    def test_default_lists(self, capsys):
        assert main([]) == 0
        assert "fig14" in capsys.readouterr().out

    def test_explicit_bench_subcommand(self, capsys):
        assert main(["bench", "fig08", "--scale", "0.05"]) == 0
        assert "fig08" in capsys.readouterr().out


class TestBenchResilienceFlags:
    def test_journal_and_resume(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        args = ["bench", "fig08", "--scale", "0.05", "--seed", "3",
                "--journal", str(journal)]
        assert main(args) == 0
        assert journal.exists()
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out
        assert "fig08" in out

    def test_chaos_plan_inline_json(self, capsys, tmp_path):
        from repro.bench.runner import WORKER_CHAOS_SITE
        from repro.resilience import ChaosPlan, ChaosRule

        plan = ChaosPlan(
            rules=[ChaosRule(site=WORKER_CHAOS_SITE, kind="kill", max_fires=1)]
        )
        code = main(
            ["bench", "fig08", "--scale", "0.05", "--seed", "3",
             "--jobs", "2", "--retries", "2",
             "--journal", str(tmp_path / "j.jsonl"),
             "--chaos", plan.to_json()]
        )
        assert code == 0
        assert "fig08" in capsys.readouterr().out

    def test_chaos_plan_from_file(self, capsys, tmp_path):
        from repro.resilience import ChaosPlan

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(ChaosPlan().to_json(), encoding="utf-8")
        code = main(
            ["bench", "fig08", "--scale", "0.05",
             "--journal", str(tmp_path / "j.jsonl"),
             "--chaos", str(plan_file)]
        )
        assert code == 0


class TestInfoCommand:
    def test_all_datasets(self, capsys):
        assert main(["info", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("livejournal", "twitter", "friendster"):
            assert name in out

    def test_single_dataset(self, capsys):
        assert main(["info", "--dataset", "twitter", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out
        assert "livejournal" not in out


class TestPartitionCommand:
    def test_dataset_partition(self, capsys, tmp_path):
        out_file = tmp_path / "parts.npy"
        code = main(
            [
                "partition",
                "--dataset",
                "twitter",
                "--algo",
                "bpart",
                "--parts",
                "4",
                "--scale",
                "0.05",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        parts = np.load(out_file)
        assert parts.min() >= 0 and parts.max() < 4
        assert "bias(V)" in capsys.readouterr().out

    def test_edge_list_partition(self, capsys, tmp_path):
        from repro.graph import chung_lu, write_edge_list

        g = chung_lu(200, 6.0, rng=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        code = main(["partition", "--graph", str(path), "--algo", "hash", "--parts", "2"])
        assert code == 0

    @pytest.mark.parametrize("kernel", ["scalar", "incremental", "buffered", "auto"])
    def test_kernel_knob(self, capsys, tmp_path, kernel):
        from repro.graph import chung_lu, write_edge_list

        g = chung_lu(200, 6.0, rng=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        out_file = tmp_path / f"parts_{kernel}.npy"
        code = main(
            [
                "partition", "--graph", str(path), "--algo", "fennel",
                "--parts", "4", "--kernel", kernel, "--out", str(out_file),
            ]
        )
        assert code == 0
        assert np.load(out_file).shape == (200,)

    def test_kernel_knob_identical_across_backends(self, capsys, tmp_path):
        from repro.graph import chung_lu, write_edge_list

        g = chung_lu(200, 6.0, rng=1)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        outs = {}
        for kernel in ("scalar", "buffered"):
            out_file = tmp_path / f"{kernel}.npy"
            assert main(
                [
                    "partition", "--graph", str(path), "--algo", "bpart",
                    "--parts", "4", "--kernel", kernel, "--out", str(out_file),
                ]
            ) == 0
            outs[kernel] = np.load(out_file)
        assert np.array_equal(outs["scalar"], outs["buffered"])

    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["partition", "--algo", "bpart"])


class TestConfigurationErrorsExitTwo:
    """A bad ``--plan``/``--chaos``/``--graph`` is one ``error:`` line and exit 2,
    not a traceback — and never a silently empty plan (each typo exited 0 before)."""

    TRACE = ["trace", "--dataset", "twitter", "--algo", "hash", "--parts", "4", "--scale", "0.05"]
    SERVE = ["serve", "--dataset", "livejournal", "--scale", "0.05", "--duration", "0.05",
             "--algos", "hash"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (TRACE + ["--plan", '{"crashs":[{"machine":1,"superstep":1}]}'], "'crashs' in fault plan"),
            (TRACE + ["--plan", '{"crashes":[{"machine":1,"superstep":1,"sperstep":9}]}'], "'sperstep'"),
            (TRACE + ["--plan", '{"format":"fault-plan/v9"}'], "format 'fault-plan/v9'"),
            (TRACE + ["--plan", '{"crashes":'], "invalid fault plan JSON"),
            (TRACE + ["--plan", "[1,2]"], "neither an existing file nor a JSON object"),
            (TRACE + ["--plan", "no/such/plan.json"], "'no/such/plan.json' is neither"),
            (SERVE + ["--chaos", '{"rules":[{"site":"serving.machine","kind":"exception","rte":0.5}]}'],
             "'rte' in chaos plan rule"),
            (["bench", "fig08", "--scale", "0.05", "--chaos", '{"rulez":[]}'], "'rulez' in chaos plan"),
            # fault windows that can never open
            (TRACE + ["--plan", '{"degraded_links":[{"src":0,"dst":1,"duration":0}]}'],
             "degraded link duration must be positive or null, got 0"),
            (TRACE + ["--plan", '{"degraded_links":[{"src":0,"dst":1,"duration":-2}]}'],
             "degraded link duration must be positive or null, got -2"),
            (TRACE + ["--plan", '{"degraded_links":[{"src":0,"dst":1,"start":-1}]}'],
             "degraded link start must be >= 0, got -1"),
            (TRACE + ["--plan", '{"stragglers":[{"machine":0,"start":-4,"duration":2}]}'],
             "straggler start must be >= 0, got -4"),
            # the whole line, newline included
            (TRACE + ["--plan", '{"crashs":[]}'], "error: unknown key 'crashs' in fault plan\n"),
        ],
    )
    def test_one_error_line_and_exit_two(self, capsys, tmp_path, argv, named):
        out = tmp_path / "out.json"
        assert main(argv + (["--out", str(out)] if argv[0] != "bench" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            (None, "cannot read --graph"),
            ("0 1\nx 2\n", "g.txt:2: non-integer vertex id"),
            ("", "cannot split 0 vertices into 4 parts"),
        ],
        ids=["missing", "malformed", "empty"],
    )
    def test_bad_graph_file_is_one_error_line(self, capsys, tmp_path, content, named):
        graph, out = tmp_path / "g.txt", tmp_path / "p.npy"
        if content is not None:
            graph.write_text(content, encoding="utf-8")
        assert main(["partition", "--graph", str(graph), "--parts", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    SMALL = ["--dataset", "livejournal", "--scale", "0.05"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["partition", "--algo", "hash", "--kernel", "scalar"], "hash takes no --kernel"),
            (["partition", "--algo", "ldg", "--jobs", "2"], "ldg takes no --jobs"),
            (["metrics", "--app", "nope"], "unknown app 'nope'; choose from ppr,"),
            (["trace", "--app", "nope"], "unknown app 'nope'; choose from ppr,"),
        ],
        ids=["hash-kernel", "ldg-jobs", "metrics-app", "trace-app"],
    )
    def test_rejected_before_any_graph_is_loaded(self, capsys, argv, error):
        # a flag the algorithm does not take used to be dropped silently, and
        # `metrics` partitioned the whole graph before it looked at --app
        assert main(argv + self.SMALL) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_plan_file_is_checked_like_inline_json(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"recovry": "restart"}', encoding="utf-8")
        assert main(self.TRACE + ["--plan", str(plan), "--out", str(tmp_path / "t.json")]) == 2
        assert "unknown key 'recovry' in fault plan" in capsys.readouterr().err

    def test_partial_plan_still_runs(self, capsys, tmp_path):
        argv = self.TRACE + ["--plan", '{"crashes":[{"machine":1,"superstep":1}]}']
        assert main(argv + ["--out", str(tmp_path / "t.json")]) == 0
        assert "faults: 1 crash(es)" in capsys.readouterr().out
