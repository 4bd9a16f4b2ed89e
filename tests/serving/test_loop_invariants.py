"""Event-loop invariants under generated chaos plans, K in {1, 2, 3}.

The seeded drills in ``test_replicated_serving.py`` pin what a handful
of hand-written plans do; these properties hold for *every* plan at the
four serving sites — including plans that crash every machine at once or
drop every heartbeat while arrivals are due.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import social_graph
from repro.partition.base import get_partitioner
from repro.resilience import ChaosPlan, ChaosRule, install_plan
from repro.serving import (
    SITE_CACHE,
    SITE_HEARTBEAT_DROP,
    SITE_MACHINE,
    SITE_REPLICA_CRASH,
    ServingConfig,
    ServingSimulator,
    WorkloadSpec,
)

_REPLICA_SITES = {SITE_REPLICA_CRASH, SITE_HEARTBEAT_DROP}

# Keys are "m{machine}:b{batch}" at the batch sites and "m{machine}:h{tick}"
# at the replica sites, so these filters select everything, one machine,
# or one machine x tick (batch) prefix.
_RULES = st.builds(
    ChaosRule,
    site=st.sampled_from(
        [SITE_MACHINE, SITE_CACHE, SITE_REPLICA_CRASH, SITE_HEARTBEAT_DROP]
    ),
    kind=st.sampled_from(["exception", "ioerror"]),
    rate=st.sampled_from([0.02, 0.1, 0.4, 1.0]),
    match=st.sampled_from(["", "m0:", "m1:", "m2:h3", "m3:h7", ":h5"]),
)
_PLANS = st.builds(
    ChaosPlan,
    seed=st.integers(0, 2**16),
    rules=st.lists(_RULES, max_size=4).map(tuple),
)


@pytest.fixture(scope="module")
def graph():
    return social_graph(600, 8.0, 2.2, rng=5)


@pytest.fixture(scope="module")
def assignment(graph):
    return get_partitioner("bpart", seed=0).partition(graph, 4).assignment


@pytest.fixture(scope="module")
def trace(graph):
    # 0.3 s = 15 heartbeat ticks of arrivals, ~10 queries per machine per tick
    return WorkloadSpec(users=200, duration=0.3, rate=2500.0, seed=4).generate(graph)


def _down_windows(result):
    """Per machine, the (dead, healthy-again) intervals of the ledger."""
    windows, died = [], {}
    for time, m, _old, new, _cause in result.health_ledger:
        if new == "dead":
            died[m] = time
        elif new == "healthy" and m in died:
            windows.append((m, died.pop(m), time))
    assert not died, "a machine died and never came back"
    return windows


@settings(max_examples=40, deadline=None)
@given(
    plan=_PLANS,
    factor=st.sampled_from([1, 2, 3]),
    hedge_after=st.sampled_from([0.0, 0.0002]),
    queue_limit=st.sampled_from([4, 64]),
)
def test_loop_invariants(assignment, trace, plan, factor, hedge_after, queue_limit):
    config = ServingConfig(
        replication_factor=factor, hedge_after=hedge_after, queue_limit=queue_limit
    )
    install_plan(plan)
    try:
        result = ServingSimulator(assignment, config, seed=2).run(trace)  # terminates
    finally:
        install_plan(None)

    # every arrival ends exactly one way: a latency or a shed mark
    answered = np.isfinite(result.latency)
    assert not (answered & result.shed).any()
    assert int(answered.sum()) + int(result.shed.sum()) == trace.num_queries
    assert result.completed == int(answered.sum())
    assert (result.latency[answered] > 0).all()

    # admissions cover completions, and every hedge is one more admission
    admitted = int(result.queries.sum())
    assert admitted >= result.completed + result.hedges
    assert 0 <= result.hedge_wins <= result.hedges
    if factor == 1:
        assert result.hedges == 0
        if not _REPLICA_SITES & {rule.site for rule in plan.rules}:
            assert admitted == result.completed
            assert result.health_ledger == []
            assert result.replicated == (hedge_after > 0.0)  # report format only

    # a fenced machine completes nothing until it is readmitted (ledger
    # times are rounded to 1e-9, completions rebuilt from two floats)
    completion = trace.times + result.latency
    for m, dead, healthy in _down_windows(result):
        mine = answered & (result.machine_of_query == m)
        inside = mine & (completion > dead + 1e-8) & (completion < healthy - 1e-8)
        assert not inside.any()

    # the run only ends with every machine back and every death recovered
    assert result.restored
    deaths = sum(1 for row in result.health_ledger if row[3] == "dead")
    assert len(result.recovery_seconds) == deaths
    assert result.crashes <= deaths  # a crash always surfaces as a death
    if factor > 1 and result.crashes == 0 and result.heartbeat_drops == 0:
        assert result.unavailable_shed == 0
