"""Tests for the machine-checkable claims suite."""

from __future__ import annotations

from repro.bench import ExperimentConfig, all_claims, check_claims
from repro.bench.claims import Claim


class TestClaims:
    def test_nine_claims_registered(self):
        claims = all_claims()
        assert len(claims) == 9
        assert [c.claim_id for c in claims] == [f"C{i}" for i in range(1, 10)]

    def test_all_hold_at_moderate_scale(self):
        results = check_claims(ExperimentConfig(scale=0.3, seed=1))
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(r.render() for r in failed)

    def test_render_format(self):
        results = check_claims(
            ExperimentConfig(scale=0.1, seed=2),
            claims=[all_claims()[2]],  # the cheap hash-cut claim
        )
        out = results[0].render()
        assert out.startswith("[PASS]") or out.startswith("[FAIL]")
        assert "Table 3" in out

    def test_crashing_check_becomes_failure(self):
        def boom(config):
            raise RuntimeError("nope")

        claim = Claim("CX", "always crashes", "test", boom)
        results = check_claims(ExperimentConfig(scale=0.05), claims=[claim])
        assert not results[0].passed
        assert "RuntimeError" in results[0].evidence

    def test_cli_validate(self, capsys):
        from repro.cli import main

        code = main(["validate", "--scale", "0.3", "--seed", "1"])
        out = capsys.readouterr().out
        assert "claims hold" in out
        assert code == 0
