"""Round-trip tests for the JSON codecs, plus hypothesis properties:
specs survive JSON losslessly and the cache fingerprint is injective
over field perturbations."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments import serialize
from repro.experiments.harness import RunResult, RunSpec, expected_config_type, run_single
from repro.experiments.runner import spec_fingerprint
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.membership.messages import (
    MembershipAck,
    MembershipGossip,
    MembershipPing,
    MembershipPingReq,
)
from repro.net.messages import (
    Addr,
    ExcessReport,
    GrantAck,
    MembershipUpdate,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import NetworkStats


def json_round_trip(data):
    """Force the dict through actual JSON text, as the cache does."""
    return json.loads(json.dumps(data))


# -- configs and fault plans -------------------------------------------------


class TestConfigCodec:
    @pytest.mark.parametrize(
        "config",
        [
            ManagerConfig(),
            ManagerConfig(period_s=0.5, epsilon_w=7.0, overhead_factor=0.0),
            PenelopeConfig(rate=0.25),
            SlurmConfig(server_service_time_s=(8e-5, 1e-4), rate_scheme="scale-aware"),
            HaSlurmConfig(),
        ],
    )
    def test_round_trip(self, config):
        decoded = serialize.decode(ManagerConfig, json_round_trip(serialize.encode(config)))
        assert type(decoded) is type(config)
        assert decoded == config

    def test_unregistered_type_rejected(self):
        class Rogue(ManagerConfig):
            pass

        with pytest.raises(TypeError):
            serialize.encode(Rogue())


class TestMessageCodec:
    MESSAGES = [
        PowerRequest(
            src=Addr(1, "decider"), dst=Addr(2, "pool"),
            urgent=True, alpha=5.0, iteration=3,
        ),
        PowerGrant(
            src=Addr(2, "pool"), dst=Addr(1, "decider"),
            delta=4.5, reply_to=17, urgent=True,
        ),
        GrantAck(
            src=Addr(1, "decider"), dst=Addr(2, "pool"), reply_to=9, delta=4.5
        ),
        ExcessReport(src=Addr(3, "decider"), dst=Addr(0, "server"), delta=2.0),
        ReleaseDirective(
            src=Addr(0, "server"), dst=Addr(3, "decider"), on_behalf_of=7
        ),
        MembershipPing(src=Addr(1, "membership"), dst=Addr(2, "membership")),
        MembershipPingReq(
            src=Addr(1, "membership"), dst=Addr(2, "membership"), target=5
        ),
        MembershipAck(
            src=Addr(2, "membership"), dst=Addr(1, "membership"),
            subject=4, incarnation=2, reply_to=11,
        ),
        MembershipGossip(
            src=Addr(1, "membership"), dst=Addr(2, "membership"),
            gossip=(
                MembershipUpdate(node=4, status="suspect", incarnation=2),
                MembershipUpdate(node=9, status="alive", incarnation=0),
            ),
        ),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.kind)
    def test_round_trip_stamped(self, message):
        stamped = message.stamped(12.5)
        decoded = serialize.decode(Message, json_round_trip(serialize.encode(stamped)))
        assert type(decoded) is type(stamped)
        assert decoded == stamped

    def test_msg_id_survives_the_boundary(self):
        # Request/reply correlation must work across processes, so the
        # decoder never draws a fresh id.
        message = self.MESSAGES[0]
        decoded = serialize.decode(Message, serialize.encode(message))
        assert decoded.msg_id == message.msg_id

    def test_unstamped_nan_becomes_null_and_back(self):
        # NaN is not strict JSON; the unstamped sentinel maps to null and
        # decodes back to nan (field-wise check: nan != nan).
        message = PowerRequest(src=Addr(1, "decider"), dst=Addr(2, "pool"))
        data = serialize.encode(message)
        assert data["fields"]["send_time"] is None
        decoded = serialize.decode(Message, json_round_trip(data))
        assert math.isnan(decoded.send_time)

    def test_addr_and_gossip_decode_to_native_types(self):
        decoded = serialize.decode(Message, json_round_trip(serialize.encode(self.MESSAGES[-1])))
        assert isinstance(decoded.src, Addr)
        assert isinstance(decoded.gossip[0], MembershipUpdate)

    def test_unregistered_type_rejected(self):
        class RogueMessage(Message):
            pass

        rogue = RogueMessage(src=Addr(1, "x"), dst=Addr(2, "y"))
        with pytest.raises(TypeError):
            serialize.encode(rogue)

    def test_codec_covers_every_declared_message_type(self):
        # The runtime twin of lint rule R9's codec check.
        import repro.membership.messages as membership_messages
        import repro.net.messages as net_messages

        declared = {
            cls.__name__
            for module in (net_messages, membership_messages)
            for cls in vars(module).values()
            if isinstance(cls, type)
            and issubclass(cls, Message)
            and cls is not Message
        }
        assert set(serialize.MESSAGE_TYPES) == declared


class TestFaultPlanCodec:
    def test_round_trip(self):
        plan = (
            FaultPlan()
            .kill(3, 12.5)
            .kill(0, 1.0)
            .partition([1, 2], at_time_s=5.0, heal_after_s=9.0)
        )
        decoded = serialize.decode(FaultPlan, json_round_trip(serialize.encode(plan)))
        assert decoded == plan

    def test_empty_plan(self):
        decoded = serialize.decode(FaultPlan, json_round_trip(serialize.encode(FaultPlan())))
        assert decoded.node_kills == []
        assert decoded.partitions == []

    def test_chaos_fields_round_trip(self):
        plan = (
            FaultPlan()
            .kill(2, 4.0)
            .restart(2, 9.0)
            .flap([1, 3], at_time_s=6.0, down_s=0.5, up_s=1.5, cycles=3)
            .loss_burst(0.25, at_time_s=10.0, duration_s=2.0)
        )
        decoded = serialize.decode(FaultPlan, json_round_trip(serialize.encode(plan)))
        assert decoded == plan
        assert decoded.restarts == [(2, 9.0)]
        assert decoded.flaps == [((1, 3), 6.0, 0.5, 1.5, 3)]
        assert decoded.loss_bursts == [(0.25, 10.0, 2.0)]

    def test_legacy_plan_dict_without_chaos_fields_decodes(self):
        # Cached results written before restarts/flaps/bursts existed
        # carry only kills and partitions; the decoder defaults the rest.
        legacy = {
            "node_kills": [[1, 5.0]],
            "partitions": [[[0, 2], 3.0, 4.0]],
        }
        decoded = serialize.decode(FaultPlan, legacy)
        assert decoded.node_kills == [(1, 5.0)]
        assert decoded.partitions == [((0, 2), 3.0, 4.0)]
        assert decoded.restarts == []
        assert decoded.flaps == []
        assert decoded.loss_bursts == []


# -- full results ------------------------------------------------------------


@pytest.fixture(scope="module")
def faulty_penelope_result():
    """A run exercising every RunResult field: manager config, fault plan,
    cap recording, an unfinished node and nonzero counters."""
    return run_single(
        RunSpec(
            "penelope",
            ("EP", "DC"),
            70.0,
            n_clients=4,
            workload_scale=0.1,
            manager_config=PenelopeConfig(rate=0.3),
            fault_plan=FaultPlan().kill(0, 1.0),
            record_caps=True,
        )
    )


@pytest.fixture(scope="module")
def slurm_result():
    """A centralized run: network by_kind traffic and turnaround samples."""
    return run_single(
        RunSpec("slurm", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.1)
    )


class TestResultCodec:
    @pytest.fixture(params=["faulty_penelope_result", "slurm_result"])
    def result(self, request):
        return request.getfixturevalue(request.param)

    def test_reserializes_byte_identically(self, result):
        data = json_round_trip(serialize.encode(result))
        decoded = serialize.decode(RunResult, data)
        assert serialize.canonical_json(
            serialize.encode(decoded)
        ) == serialize.canonical_json(serialize.encode(result))

    def test_scalar_fields(self, result):
        decoded = serialize.decode(RunResult, json_round_trip(serialize.encode(result)))
        assert decoded.spec == result.spec or (
            # fault plans compare by identity on RunSpec; compare content
            serialize.encode(decoded.spec)
            == serialize.encode(result.spec)
        )
        assert decoded.runtime_s == result.runtime_s
        assert decoded.finish_times == result.finish_times
        assert all(isinstance(node, int) for node in decoded.finish_times)
        assert decoded.unfinished == result.unfinished
        assert isinstance(decoded.unfinished, tuple)

    def test_recorder_events(self, result):
        decoded = serialize.decode(RunResult, json_round_trip(serialize.encode(result)))
        assert decoded.recorder.transactions == result.recorder.transactions
        assert decoded.recorder.turnarounds == result.recorder.turnarounds
        assert decoded.recorder.caps == result.recorder.caps
        assert decoded.recorder.counters == result.recorder.counters
        assert decoded.recorder._record_caps == result.recorder._record_caps

    def test_recorder_samples_round_trip(self, result):
        recorder = result.recorder
        from repro.instrumentation import LedgerSample

        with_samples = serialize.decode(
            MetricsRecorder,
            json_round_trip(serialize.encode(recorder))
        )
        assert with_samples.samples == recorder.samples
        # And a recorder that actually holds samples (the auditor's view).
        recorder2 = serialize.decode(MetricsRecorder, json_round_trip(serialize.encode(recorder)))
        recorder2.sample(1.0, "ledger.residual_w", 0.0)
        recorder2.sample(2.0, "ledger.escrow_w", 12.5)
        decoded = serialize.decode(MetricsRecorder, json_round_trip(serialize.encode(recorder2)))
        assert decoded.samples == [
            LedgerSample(time=1.0, name="ledger.residual_w", value=0.0),
            LedgerSample(time=2.0, name="ledger.escrow_w", value=12.5),
        ]

    def test_legacy_recorder_dict_without_samples_decodes(self, result):
        data = json_round_trip(serialize.encode(result.recorder))
        del data["samples"]  # pre-auditor cache entries lack the key
        decoded = serialize.decode(MetricsRecorder, data)
        assert decoded.samples == []
        assert decoded.counters == result.recorder.counters

    def test_budget_audit(self, result):
        decoded = serialize.decode(BudgetAudit, json_round_trip(serialize.encode(result.audit)))
        assert decoded == result.audit

    def test_network_stats(self, result):
        decoded = serialize.decode(NetworkStats, json_round_trip(serialize.encode(result.network)))
        assert decoded == result.network
        assert decoded.by_kind == result.network.by_kind

    def test_faulty_run_really_exercises_the_optional_fields(
        self, faulty_penelope_result
    ):
        assert faulty_penelope_result.unfinished == (0,)
        assert faulty_penelope_result.recorder.caps  # record_caps=True
        assert faulty_penelope_result.recorder.counters


# -- hypothesis properties ---------------------------------------------------

APPS = ("EP", "DC", "CG", "LU", "FT", "MG")

spec_strategy = st.builds(
    RunSpec,
    manager=st.sampled_from(("fair", "penelope", "slurm")),
    pair=st.tuples(st.sampled_from(APPS), st.sampled_from(APPS)),
    cap_w_per_socket=st.floats(min_value=1.0, max_value=200.0),
    n_clients=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    workload_scale=st.floats(min_value=0.01, max_value=4.0),
    record_caps=st.booleans(),
    time_limit_s=st.floats(min_value=1.0, max_value=1e7),
)

#: One perturbation per RunSpec field; each must change the fingerprint.
FIELD_PERTURBATIONS = [
    ("manager", lambda s: "slurm" if s.manager != "slurm" else "fair"),
    (
        "pair",
        lambda s: (s.pair[1], s.pair[0]) if s.pair[0] != s.pair[1] else ("SP", "UA"),
    ),
    ("cap_w_per_socket", lambda s: s.cap_w_per_socket + 1.0),
    ("n_clients", lambda s: s.n_clients + 1),
    ("seed", lambda s: s.seed + 1),
    ("workload_scale", lambda s: s.workload_scale * 2.0),
    ("manager_config", lambda s: expected_config_type(s.manager)(epsilon_w=123.0)),
    ("fault_plan", lambda s: FaultPlan().kill(0, 1.0)),
    ("record_caps", lambda s: not s.record_caps),
    ("time_limit_s", lambda s: s.time_limit_s + 1.0),
]


class TestSpecProperties:
    @settings(max_examples=80, deadline=None)
    @given(spec=spec_strategy)
    def test_spec_round_trips_through_json(self, spec):
        assert (
            serialize.decode(RunSpec, json_round_trip(serialize.encode(spec)))
            == spec
        )

    @settings(max_examples=150, deadline=None)
    @given(
        spec=spec_strategy,
        choice=st.integers(min_value=0, max_value=len(FIELD_PERTURBATIONS) - 1),
    )
    def test_fingerprint_injective_over_field_perturbations(self, spec, choice):
        field, perturb = FIELD_PERTURBATIONS[choice]
        mutated = replace(spec, **{field: perturb(spec)})
        assume(serialize.encode(mutated) != serialize.encode(spec))
        assert spec_fingerprint(mutated) != spec_fingerprint(spec)

    @settings(max_examples=50, deadline=None)
    @given(spec=spec_strategy)
    def test_fingerprint_is_stable(self, spec):
        decoded = serialize.decode(RunSpec, json_round_trip(serialize.encode(spec)))
        assert spec_fingerprint(decoded) == spec_fingerprint(spec)


class TestNetworkStatsBackCompat:
    def test_legacy_merged_dead_counter_decodes(self):
        stats = NetworkStats(sent=9, delivered=5, dropped_dead_src=2)
        legacy = serialize.encode(stats)
        del legacy["dropped_dead_src"]
        del legacy["dropped_dead_dst"]
        legacy["dropped_dead"] = 2
        decoded = serialize.decode(NetworkStats, legacy)
        assert decoded.dropped_dead_src == 2
        assert decoded.dropped_dead_dst == 0
        assert decoded.dropped_dead == 2
        assert decoded.dropped == 2

    def test_split_counters_round_trip(self):
        stats = NetworkStats(
            sent=10, delivered=5, dropped_dead_src=2, dropped_dead_dst=3
        )
        decoded = serialize.decode(NetworkStats, json_round_trip(serialize.encode(stats)))
        assert decoded == stats
        assert decoded.dropped_dead == 5


class TestCompatTable:
    """The one table of byte-compatibility rules stays in sync with the
    classes it names (it is keyed by class name, so a rename or a dropped
    field would otherwise fail silently)."""

    @staticmethod
    def _classes():
        from repro.experiments.chaos import ChaosResult, ChaosSpec
        from repro.instrumentation import (
            CapSample,
            LedgerSample,
            TransactionEvent,
            TurnaroundSample,
        )

        return {
            cls.__name__: cls
            for cls in (
                TransactionEvent,
                TurnaroundSample,
                CapSample,
                LedgerSample,
                Addr,
                MembershipUpdate,
                Message,
                FaultPlan,
                NetworkStats,
                ChaosSpec,
                ChaosResult,
            )
        }

    def test_every_entry_names_a_codec_class(self):
        assert set(serialize.COMPAT) == set(self._classes())

    def test_named_fields_exist_and_late_ones_have_defaults(self):
        for name, compat in serialize.COMPAT.items():
            cls = self._classes()[name]
            if compat.row:
                continue
            fields = {f.name: f for f in dataclasses.fields(cls)}
            for field_name in compat.late:
                field = fields[field_name]
                assert (
                    field.default is not dataclasses.MISSING
                    or field.default_factory is not dataclasses.MISSING
                ), (name, field_name)
            for field_name in compat.nan_as_null:
                assert field_name in fields

    def test_absent_keys_decode_to_field_defaults(self):
        from repro.experiments.chaos import ChaosSpec

        assert serialize.decode(ChaosSpec, {}) == ChaosSpec()
        assert serialize.decode(NetworkStats, {}) == NetworkStats()
        assert serialize.decode(FaultPlan, {}) == FaultPlan()

    def test_unknown_keys_are_rejected(self):
        # Repro files are hand-editable: a misspelt key must not be
        # silently dropped.
        from repro.experiments.chaos import ChaosSpec

        with pytest.raises(TypeError):
            serialize.decode(ChaosSpec, {"n_client": 4})
