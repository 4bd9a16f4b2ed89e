"""Unit tests for the BSP timing ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import TimingLedger
from repro.errors import ConfigurationError, SimulationError


class TestIterationTiming:
    def test_duration_is_slowest_machine(self):
        ledger = TimingLedger(3)
        it = ledger.record(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5]))
        assert it.duration == pytest.approx(3.5)
        assert np.allclose(it.wait, [2.0, 1.0, 0.0])

    def test_wait_nonnegative(self):
        ledger = TimingLedger(4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            it = ledger.record(rng.random(4), rng.random(4))
            assert (it.wait >= -1e-12).all()


class TestLedger:
    def test_total_runtime_sums_durations(self):
        ledger = TimingLedger(2)
        ledger.record(np.array([1.0, 2.0]), np.zeros(2))
        ledger.record(np.array([3.0, 1.0]), np.zeros(2))
        assert ledger.total_runtime == pytest.approx(5.0)

    def test_waiting_ratio_balanced_is_zero(self):
        ledger = TimingLedger(4)
        ledger.record(np.full(4, 2.0), np.zeros(4))
        assert ledger.waiting_ratio == pytest.approx(0.0)

    def test_waiting_ratio_single_worker(self):
        ledger = TimingLedger(4)
        ledger.record(np.array([4.0, 0.0, 0.0, 0.0]), np.zeros(4))
        # three machines wait the whole superstep → 3/4
        assert ledger.waiting_ratio == pytest.approx(0.75)

    def test_waiting_ratio_bounds(self):
        ledger = TimingLedger(5)
        rng = np.random.default_rng(1)
        for _ in range(5):
            ledger.record(rng.random(5), rng.random(5))
        assert 0.0 <= ledger.waiting_ratio < 1.0

    def test_empty_ledger(self):
        ledger = TimingLedger(2)
        assert ledger.total_runtime == 0.0
        assert ledger.waiting_ratio == 0.0
        assert ledger.compute_matrix.shape == (0, 2)

    def test_matrices_shape(self):
        ledger = TimingLedger(3)
        for _ in range(4):
            ledger.record(np.ones(3), np.ones(3))
        assert ledger.compute_matrix.shape == (4, 3)
        assert ledger.comm_matrix.shape == (4, 3)
        assert ledger.wait_matrix.shape == (4, 3)

    def test_shape_validation(self):
        ledger = TimingLedger(3)
        with pytest.raises(SimulationError):
            ledger.record(np.ones(2), np.ones(3))

    def test_negative_rejected(self):
        ledger = TimingLedger(2)
        with pytest.raises(SimulationError):
            ledger.record(np.array([-1.0, 0.0]), np.zeros(2))

    def test_invalid_machine_count(self):
        with pytest.raises(SimulationError):
            TimingLedger(0)

    def test_repr(self):
        ledger = TimingLedger(2)
        assert "machines=2" in repr(ledger)


class TestActiveMasks:
    def test_inactive_machines_set_no_barrier(self):
        ledger = TimingLedger(3)
        it = ledger.record(
            np.array([1.0, 9.0, 2.0]),
            np.zeros(3),
            active=np.array([True, False, True]),
        )
        # The dead machine's 9.0 does not stretch the superstep.
        assert it.duration == pytest.approx(2.0)
        assert np.allclose(it.wait, [1.0, 0.0, 0.0])
        assert it.num_active == 2

    def test_waiting_ratio_counts_active_time_only(self):
        ledger = TimingLedger(2)
        ledger.record(
            np.array([2.0, 0.0]), np.zeros(2), active=np.array([True, False])
        )
        # One active machine, zero wait → perfectly "balanced".
        assert ledger.waiting_ratio == pytest.approx(0.0)

    def test_unmasked_path_matches_legacy_formula(self):
        ledger = TimingLedger(4)
        rng = np.random.default_rng(5)
        for _ in range(6):
            ledger.record(rng.random(4), rng.random(4))
        assert not ledger.has_active_masks
        expected = ledger.total_wait / (4 * ledger.total_runtime)
        assert ledger.waiting_ratio == expected  # exact, not approx

    def test_all_dead_mask_rejected(self):
        ledger = TimingLedger(2)
        with pytest.raises(SimulationError):
            ledger.record(np.ones(2), np.zeros(2), active=np.zeros(2, dtype=bool))

    def test_waiting_ratio_from_tail(self):
        ledger = TimingLedger(2)
        ledger.record(np.array([5.0, 0.0]), np.zeros(2))  # very unbalanced
        ledger.record(np.array([1.0, 1.0]), np.zeros(2))  # balanced
        assert ledger.waiting_ratio_from(1) == pytest.approx(0.0)
        assert ledger.waiting_ratio_from(0) == pytest.approx(ledger.waiting_ratio)


class TestEventsAndJson:
    def _ledger(self):
        ledger = TimingLedger(3)
        ledger.record(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
        ledger.add_event("straggler", machine=1, factor=2.5)
        ledger.record(
            np.array([1.0, 0.0, 1.0]),
            np.zeros(3),
            active=np.array([True, False, True]),
        )
        ledger.add_event("crash", superstep=1, machine=1, strategy="redistribute")
        return ledger

    def test_add_event_defaults_to_latest_iteration(self):
        ledger = self._ledger()
        assert ledger.events[0].superstep == 0
        assert ledger.events[0].detail == {"factor": 2.5}

    def test_json_round_trip_is_byte_identical(self):
        ledger = self._ledger()
        text = ledger.to_json()
        again = TimingLedger.from_json(text)
        assert again.to_json() == text
        assert again.num_machines == 3
        assert again.total_runtime == ledger.total_runtime
        assert again.waiting_ratio == ledger.waiting_ratio
        assert [e.kind for e in again.events] == ["straggler", "crash"]
        assert again.iterations[1].active is not None
        assert not again.iterations[1].active[1]

    def test_maskless_ledger_round_trips_without_masks(self):
        ledger = TimingLedger(2)
        ledger.record(np.ones(2), np.zeros(2))
        again = TimingLedger.from_json(ledger.to_json())
        assert not again.has_active_masks
        assert again.to_json() == ledger.to_json()

    def test_from_json_rejects_other_payloads(self):
        with pytest.raises(ConfigurationError, match="format"):
            TimingLedger.from_json('{"format": "not-a-ledger"}')
