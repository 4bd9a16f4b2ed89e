"""Canonical documents: pinned bytes, strict parsers, round-trips.

``tests/data/canon_digests.json`` was recorded on the commit *before*
``repro.utils.canon`` existed, from the literal ``to_json()`` bytes of
one fixed sample per document kind, so the first test proves that
folding every hand-rolled ``json.dumps`` + sha256 block into one module
moved no byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import (
    CheckpointPolicy,
    Crash,
    DegradedLink,
    FaultPlan,
    Straggler,
)
from repro.cluster.ledger import TimingLedger
from repro.errors import ConfigurationError
from repro.partition.repartition.ledger import RepartitionLedger
from repro.partition.repartition.scenario import ChurnScenario
from repro.resilience.chaos import ChaosPlan, ChaosRule
from repro.serving import ServingConfig, ServingReport, WorkloadSpec
from repro.serving.replication import ReplicaPlan
from repro.serving.simulator import ServingResult
from repro.telemetry import MetricsRegistry, to_json as telemetry_to_json
from repro.utils import canon

ROOT = Path(__file__).parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "canon_digests.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# One fixed sample per document kind
# ----------------------------------------------------------------------
def workload_spec() -> WorkloadSpec:
    return WorkloadSpec(users=150, duration=0.3, rate=800.0, locality=0.5, khop=1, seed=6)


def serving_config_k1() -> ServingConfig:
    return ServingConfig(queue_limit=32, cache_blocks=16, slowdown_factor=2.5)


def serving_config_k2() -> ServingConfig:
    return ServingConfig(replication_factor=2, hedge_after=0.004, slo_seconds=0.03)


def serving_result() -> ServingResult:
    return ServingResult(
        num_machines=2,
        duration=0.5,
        latency=np.array([0.001, 0.004, np.nan, 0.002]),
        shed=np.array([False, False, True, False]),
        kind=np.array([0, 1, 0, 0], dtype=np.uint8),
        machine_of_query=np.array([0, 1, 1, 0], dtype=np.int64),
        queries=np.array([2, 1], dtype=np.int64),
        shed_per_machine=np.array([0, 1], dtype=np.int64),
        batches=np.array([2, 1], dtype=np.int64),
        degraded_batches=np.array([0, 1], dtype=np.int64),
        cache_flushes=np.array([0, 0], dtype=np.int64),
        busy_seconds=np.array([0.003, 0.004]),
        messages=np.array([5, 7], dtype=np.int64),
        cache_stats={"hits": 9, "misses": 3, "hit_rate": 0.75},
        makespan=0.504,
        replicated=True,
        replication_factor=2,
        plan_digest="ab" * 32,
        slo_seconds=0.03,
        crashes=1,
        redispatched=1,
        hedges=2,
        hedge_wins=1,
        rereplication_bytes=4096,
        rereplication_transfers=1,
        health_ledger=[[0.1, 1, "healthy", "suspect", "missed"]],
        health_transitions={"healthy->suspect": 1},
        recovery_seconds=[0.1234567891234],
        state_seconds=[{"healthy": 0.5}, {"healthy": 0.4, "suspect": 0.1}],
    )


def serving_report() -> ServingReport:
    report = ServingReport(
        workload_spec(),
        serving_config_k2(),
        dataset="livejournal",
        num_parts=2,
        chaos="seed=3 rules=1",
    )
    report.add("bpart", serving_result())
    return report


def replica_plan() -> ReplicaPlan:
    return ReplicaPlan(
        num_machines=3,
        replication_factor=2,
        holders=((0, 2), (1, 0), (2, 1)),
        hosted_v=(70, 60, 50),
        hosted_e=(700, 650, 610),
    )


def fault_plan() -> FaultPlan:
    return FaultPlan(
        crashes=(Crash(machine=1, superstep=3),),
        stragglers=(Straggler(machine=0, start=1, duration=2, factor=3.0),),
        degraded_links=(DegradedLink(src=0, dst=2, start=1, bandwidth_scale=0.25),),
        checkpoint=CheckpointPolicy(interval=2),
        recovery="restart",
        seed=5,
    )


def chaos_plan() -> ChaosPlan:
    return ChaosPlan(
        seed=11,
        rules=(
            ChaosRule(site="artifacts.load", kind="ioerror", rate=0.5, max_fires=2),
            ChaosRule(site="serving.machine", kind="exception", match="m1:"),
        ),
    )


def timing_ledger() -> TimingLedger:
    ledger = TimingLedger(3, overlap=True)
    ledger.record(np.array([0.1, 0.2, 0.3]), np.array([0.01, 0.02, 0.03]))
    ledger.record(
        np.array([0.2, 0.0, 0.1]),
        np.array([0.02, 0.0, 0.01]),
        active=np.array([True, False, True]),
    )
    ledger.add_event("crash", machine=1, seconds=0.25, strategy="restart")
    ledger.record(np.array([0.3, 0.1, 0.2]), np.array([0.03, 0.01, 0.02]))
    return ledger


def repartition_ledger() -> RepartitionLedger:
    ledger = RepartitionLedger(
        num_parts=4,
        seed=3,
        config={"drift_threshold": 0.1, "epoch_budget": 50},
        scenario=churn_scenario().to_dict(),
    )
    ledger.add_epoch({"epoch": 0, "migrations": 12, "gain": 0.5, "cut_before": 0.31})
    ledger.add_epoch({"epoch": 1, "migrations": 3, "gain": 0.125, "ari": None})
    return ledger


def churn_scenario() -> ChurnScenario:
    return ChurnScenario(num_vertices=400, num_groups=4, churn_events=50, drift=0.1, seed=9)


def telemetry_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("partition.runs", algo="bpart").inc(2)
    reg.gauge("partition.combine.bias", layer=1).set(0.125)
    reg.histogram("cluster.barrier_wait").observe(0.02)
    reg.timer("partition.run_seconds", algo="bpart").add(1.5)  # never in the default export
    return reg


#: document kind → sha256 of the sample's canonical text (or its own ``digest()``).
SAMPLES = {
    "workload/v1": lambda: _sha(workload_spec().to_json()),
    "serving/v1 K=1": lambda: serving_config_k1().digest(),
    "serving/v1 K=2": lambda: serving_config_k2().digest(),
    "serving-report/v1": lambda: _sha(serving_report().to_json()),
    "replica-plan/v1": lambda: _sha(replica_plan().to_json()),
    "fault-plan/v1": lambda: _sha(fault_plan().to_json()),
    "chaos-plan/v1": lambda: _sha(chaos_plan().to_json()),
    "timing-ledger/v1": lambda: _sha(timing_ledger().to_json()),
    "repartition-epoch/v1": lambda: _sha(repartition_ledger().to_json()),
    "churn-scenario": lambda: churn_scenario().digest(),
    "telemetry/v1": lambda: _sha(telemetry_to_json(telemetry_registry())),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_bytes_match_the_parent_commit(name):
    assert SAMPLES[name]() == PINNED[name]


def test_every_pinned_document_has_a_sample():
    assert set(PINNED) == set(SAMPLES)


@pytest.mark.parametrize(
    "sample", [workload_spec, serving_report, replica_plan, fault_plan], ids=lambda f: f.__name__
)
def test_digest_is_the_sha256_of_to_json(sample):
    assert sample().digest() == _sha(sample().to_json())


def test_canon_is_the_one_form():
    doc = {"b": [1, 2.5, None], "a": {"z": True, "y": "é"}}
    assert canon.dumps(doc) == '{"a":{"y":"\\u00e9","z":true},"b":[1,2.5,null]}'
    assert canon.digest(doc) == _sha(canon.dumps(doc))
    assert canon.null_if_nan(float("nan")) is None and canon.null_if_nan(2) == 2.0


# ----------------------------------------------------------------------
# Strict parsers: one fixture, eight documents
# ----------------------------------------------------------------------
def _document(parse, sample, tag_key, nested=(), *, program_written=True, dump=None, omits=()):
    """One parser under test: ``nested`` is the path to an inner object,
    ``program_written`` says no key may be omitted (the program is the only
    writer) except the blocks ``to_dict`` itself ``omits`` at their defaults."""
    dump = dump or (lambda x: x.to_json())
    return SimpleNamespace(
        parse=parse,
        dump=dump,
        text=lambda: dump(sample()),
        tag_key=tag_key,
        nested=nested,
        program_written=program_written,
        omits=omits,
    )


DOCUMENTS = {
    "workload/v1": _document(WorkloadSpec.from_json, workload_spec, "schema"),
    "serving/v1": _document(
        lambda text: ServingConfig.from_dict(canon.loads(text, "serving config")),
        serving_config_k2,
        "schema",
        ("cost",),
        dump=lambda config: canon.dumps(config.to_dict()),
        omits=("replication",),
    ),
    "serving-report/v1": _document(
        ServingReport.from_json, serving_report, "schema", ("entries", "bpart", "replication")
    ),
    "replica-plan/v1": _document(ReplicaPlan.from_json, replica_plan, "schema"),
    "timing-ledger/v1": _document(TimingLedger.from_json, timing_ledger, "format", ("events", 0)),
    "repartition-epoch/v1": _document(RepartitionLedger.from_json, repartition_ledger, "schema"),
    "fault-plan/v1": _document(
        FaultPlan.from_json, fault_plan, "format", ("stragglers", 0), program_written=False
    ),
    "chaos-plan/v1": _document(
        ChaosPlan.from_json, chaos_plan, "format", ("rules", 0), program_written=False
    ),
}


@pytest.fixture(params=sorted(DOCUMENTS))
def document(request):
    spec = DOCUMENTS[request.param]
    spec.doc = json.loads(spec.text())  # a fresh copy the test may mutate
    return spec


def _reject(document, doc, named: str) -> None:
    with pytest.raises(ConfigurationError, match=named):
        document.parse(json.dumps(doc))


class TestStrictParsers:
    def test_sample_round_trips(self, document):
        text = document.text()
        assert document.dump(document.parse(text)) == text

    def test_unknown_top_level_key(self, document):
        _reject(document, {**document.doc, "bogus_key": 1}, "'bogus_key'")

    @pytest.mark.parametrize(
        "document", sorted(k for k, d in DOCUMENTS.items() if d.nested), indirect=True
    )
    def test_unknown_nested_key(self, document):
        inner = document.doc
        for step in document.nested:
            inner = inner[step]
        inner["sperstep"] = 9
        _reject(document, document.doc, "'sperstep'")

    def test_wrong_tag(self, document):
        _reject(document, {**document.doc, document.tag_key: "other/v9"}, document.tag_key)

    @pytest.mark.parametrize("text", ["[1,2]", '"plan"', "3", "null"])
    def test_non_object(self, document, text):
        with pytest.raises(ConfigurationError, match="JSON object"):
            document.parse(text)

    @pytest.mark.parametrize("text", ["", "not json", '{"a":'])
    def test_invalid_json(self, document, text):
        with pytest.raises(ConfigurationError, match="invalid .* JSON"):
            document.parse(text)

    def test_missing_key(self, document):
        """Only the two hand-written inputs may omit a key (tag included)."""
        for key in document.doc:
            doc = {k: v for k, v in document.doc.items() if k != key}
            if document.program_written and key not in document.omits:
                _reject(document, doc, f"'{key}'")
            else:
                document.parse(json.dumps(doc))


class TestTyposAreErrors:
    """Each of these loaded without complaint before the parsers were strict."""

    @pytest.mark.parametrize("key", ["crashs", "recovry", "checkpoints"])
    def test_fault_plan_top_level(self, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            FaultPlan.from_json(json.dumps({key: []}))

    def test_fault_plan_nested(self):
        with pytest.raises(ConfigurationError, match="'sperstep'"):
            FaultPlan.from_json('{"crashes":[{"machine":1,"superstep":3,"sperstep":9}]}')
        with pytest.raises(ConfigurationError, match="'intervl'"):
            FaultPlan.from_json('{"checkpoint":{"intervl":2}}')
        with pytest.raises(ConfigurationError, match="'superstep'"):
            FaultPlan.from_json('{"crashes":[{"machine":1}]}')  # no default to fall back on

    def test_chaos_plan(self):
        with pytest.raises(ConfigurationError, match="'rulez'"):
            ChaosPlan.from_json('{"rulez":[{"site":"artifacts.load","kind":"ioerror"}]}')
        with pytest.raises(ConfigurationError, match="'rte'"):
            ChaosPlan.from_json('{"rules":[{"site":"artifacts.load","kind":"ioerror","rte":0.5}]}')
        with pytest.raises(ConfigurationError, match="'kind'"):
            ChaosPlan.from_json('{"rules":[{"site":"artifacts.load"}]}')

    def test_repartition_ledger_digest_is_required_and_verified(self):
        doc = json.loads(repartition_ledger().to_json())
        with pytest.raises(ConfigurationError, match="'digest'"):
            RepartitionLedger.from_json(json.dumps({k: v for k, v in doc.items() if k != "digest"}))
        for tampered in ({"seed": 4}, {"total_migrations": 99}, {"digest": "0" * 64}):
            with pytest.raises(ConfigurationError, match="mismatch"):
                RepartitionLedger.from_json(json.dumps({**doc, **tampered}))

    def test_serving_report_entry_keys_and_digests(self):
        doc = json.loads(serving_report().to_json())
        with pytest.raises(ConfigurationError, match="mismatch"):
            ServingReport.from_json(json.dumps({**doc, "config_digest": "0" * 64}))
        del doc["entries"]["bpart"]["latency_p99"]
        with pytest.raises(ConfigurationError, match="'latency_p99'"):
            ServingReport.from_json(json.dumps(doc))

    def test_entry_keys_are_what_summary_writes(self):
        from repro.serving import report

        summary = serving_result().summary()
        assert set(summary) == set(report._ENTRY_KEYS) | set(report._ENTRY_REPLICATED_KEYS)
        assert set(summary["replication"]) == set(report._ENTRY_REPLICATION_KEYS)


# ----------------------------------------------------------------------
# Hand-written plans keep loading
# ----------------------------------------------------------------------
def _json_objects(text: str):
    """Every top-level JSON object embedded in ``text`` (docs, plan files)."""
    decoder = json.JSONDecoder()
    at = text.find("{")
    while at != -1:
        try:
            obj, end = decoder.raw_decode(text, at)
        except json.JSONDecodeError:
            at = text.find("{", at + 1)
            continue
        yield obj
        at = text.find("{", end)


@pytest.mark.parametrize(
    "path, fault_plans, chaos_plans",
    [
        ("docs/simulator.md", 1, 0),
        ("docs/resilience.md", 0, 1),
        ("docs/serving.md", 0, 2),
        ("tests/data/plans", 1, 3),
    ],
)
def test_every_plan_in_docs_and_ci_still_loads(path, fault_plans, chaos_plans):
    files = sorted((ROOT / path).glob("*.json")) if (ROOT / path).is_dir() else [ROOT / path]
    objects = [o for f in files for o in _json_objects(f.read_text()) if isinstance(o, dict)]
    faults = [o for o in objects if "crashes" in o or o.get("format") == "fault-plan/v1"]
    chaos = [o for o in objects if "rules" in o]
    assert len(faults) >= fault_plans and len(chaos) >= chaos_plans  # the scan finds them
    for doc in faults:
        assert FaultPlan.from_json(json.dumps(doc)).to_dict()["format"] == "fault-plan/v1"
    for doc in chaos:
        assert ChaosPlan.from_json(json.dumps(doc)).rules


def test_partial_hand_written_plans_use_the_documented_defaults():
    plan = FaultPlan.from_json('{"stragglers":[{"machine":0,"start":1}],"degraded_links":[{"src":0,"dst":1}]}')
    assert plan.stragglers == (Straggler(machine=0, start=1, duration=1, factor=2.0),)
    assert plan.degraded_links == (DegradedLink(src=0, dst=1),)
    assert (plan.recovery, plan.seed, plan.checkpoint.interval) == ("redistribute", 0, 0)
    rule = ChaosPlan.from_json('{"rules":[{"site":"artifacts.load","kind":"ioerror"}]}').rules[0]
    assert rule == ChaosRule(site="artifacts.load", kind="ioerror")


# ----------------------------------------------------------------------
# Round trips over generated documents
# ----------------------------------------------------------------------
_unit = st.floats(0.0, 1.0, allow_nan=False)
_pos = st.floats(0.001, 100.0, allow_nan=False)
_small = st.integers(0, 9)

workload_specs = st.builds(
    WorkloadSpec,
    users=st.integers(1, 10**6),
    duration=_pos,
    rate=_pos,
    zipf_s=_pos,
    locality=_unit,
    window_frac=_pos,
    walk_frac=_unit,
    khop=st.sampled_from([1, 2]),
    khop_cap=st.integers(1, 512),
    walk_steps=st.integers(1, 64),
    seed=st.integers(0, 2**63 - 1),
)
serving_configs = st.builds(
    ServingConfig,
    queue_limit=st.integers(1, 10**4),
    batch_max=st.integers(1, 64),
    slowdown_factor=st.floats(1.0, 16.0),
    replication_factor=st.integers(1, 4),
    hedge_after=st.floats(0.0, 1.0),
    slo_seconds=_pos,
)
fault_plans = st.builds(
    FaultPlan,
    crashes=st.lists(st.builds(Crash, machine=_small, superstep=_small), max_size=4, unique_by=lambda c: c.machine).map(tuple),
    stragglers=st.lists(
        st.builds(Straggler, machine=_small, start=_small, duration=st.integers(1, 5), factor=_pos),
        max_size=3,
    ).map(tuple),
    degraded_links=st.lists(
        st.builds(
            DegradedLink,
            src=st.integers(0, 4),
            dst=st.integers(5, 9),
            start=_small,
            duration=st.none() | st.integers(1, 5),
            bandwidth_scale=_pos,
            latency_scale=_pos,
        ),
        max_size=3,
    ).map(tuple),
    checkpoint=st.builds(CheckpointPolicy, interval=_small),
    recovery=st.sampled_from(["restart", "redistribute"]),
    seed=st.integers(0, 2**31),
)
chaos_plans = st.builds(
    ChaosPlan,
    seed=st.integers(0, 2**31),
    rules=st.lists(
        st.builds(
            ChaosRule,
            site=st.sampled_from(["artifacts.load", "artifacts.store", "serving.machine"]),
            kind=st.sampled_from(["exception", "ioerror", "corrupt", "hang", "kill"]),
            rate=_unit,
            match=st.text(max_size=5),
            max_fires=st.integers(1, 5),
            hang_seconds=_pos,
        ),
        max_size=4,
    ).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(workload_specs, fault_plans, chaos_plans))
def test_from_json_of_to_json_is_the_identity(x):
    text = x.to_json()
    again = type(x).from_json(text)
    assert again == x and again.to_json() == text


@settings(max_examples=40, deadline=None)
@given(serving_configs)
def test_serving_config_round_trip(config):
    again = ServingConfig.from_dict(json.loads(canon.dumps(config.to_dict())))
    assert again == config and again.digest() == config.digest()
