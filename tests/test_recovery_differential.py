"""Differential recovery suite: crashed runs byte-match clean runs.

The fault-tolerance headline: a multi-process run whose workers are
SIGKILLed (or hung, or pipe-dropped) at seeded windows must produce a
delivery log and traffic counters *byte-identical* to an uninterrupted
single-process run of the same seeded workload — through checkpoint
restore + respawn, and through the degraded survivor-adoption rung.
Also pinned here: checkpointing itself never perturbs the run (same
log, zero added mail bytes), recovery disabled is exactly the pre-PR
engine, and the escalation modes ('fail', exhausted 'respawn') raise
typed errors instead of diverging silently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel import (
    LocalShardGroup,
    ParallelConservativeEngine,
    RecoveryExhaustedError,
    WorkerCrashError,
)
from repro.engine.recovery import RecoveryConfig
from repro.experiments.shard import (
    chain_spec,
    delivery_log_bytes,
    merge_collected,
    run_reference,
)
from repro.faults.plan import FaultPlan, ProcessFault, ProcessFaultKind
from repro.partition.rebalance import RebalanceConfig

NUM_NODES = 8
LATENCY_S = 1e-4
PACKETS = 40
UNTIL = 0.05  # ~500 barrier windows
ASSIGN2 = np.array([0, 0, 0, 0, 1, 1, 1, 1])
ASSIGN4 = np.array([0, 0, 1, 1, 2, 2, 3, 3])


def _spec():
    return chain_spec(num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=PACKETS)


def _mp(spec, procs, assignment, num_lps, recovery=None,
        start_method="fork", window_timeout_s=120.0):
    engine = ParallelConservativeEngine(
        assignment, num_lps, LATENCY_S, procs=procs,
        start_method=start_method, window_timeout_s=window_timeout_s,
        recovery=recovery,
    )
    return engine.run_scenario(spec, until=UNTIL)


def _assert_matches(result, ref):
    merged = merge_collected(result.collected)
    assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
    assert merged["counters"] == ref["counters"]
    assert merged["node_packets"] == ref["node_packets"]
    return merged


@pytest.fixture(scope="module")
def ref2():
    return run_reference(_spec(), ASSIGN2, 2, LATENCY_S, UNTIL)[1]


@pytest.fixture(scope="module")
def ref4():
    return run_reference(_spec(), ASSIGN4, 4, LATENCY_S, UNTIL)[1]


class TestCheckpointingIsFree:
    def test_checkpointing_on_is_invisible_without_faults(self, ref2):
        plain = _mp(_spec(), 2, ASSIGN2, 2)
        ckpt = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(checkpoint_every_n_windows=64),
        )
        _assert_matches(ckpt, ref2)
        # Checkpoints ride the control plane, never barrier mail.
        assert ckpt.total_mail_bytes == plain.total_mail_bytes
        assert ckpt.recovery is not None
        assert ckpt.recovery["checkpoints_taken"] > 0
        assert ckpt.recovery["checkpoint_bytes"] > 0
        assert ckpt.recovery["detections"] == 0
        assert ckpt.recovery["respawns"] == 0

    def test_recovery_disabled_is_exactly_the_plain_engine(self, ref2):
        result = _mp(_spec(), 2, ASSIGN2, 2, recovery=None)
        _assert_matches(result, ref2)
        assert result.recovery is None

    def test_recovery_and_rebalance_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ParallelConservativeEngine(
                ASSIGN2, 2, LATENCY_S, procs=2,
                rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
            )
        with pytest.raises(ValueError):
            LocalShardGroup(
                ASSIGN2, 2, LATENCY_S, procs=2,
                rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
            )


class TestRespawnByteIdentity:
    def test_random_kills_2procs_fork(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=2, seed=3)
        assert len(plan) == 2
        result = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["detections"] == 2
        assert result.recovery["respawns"] == 2
        assert result.recovery["adoptions"] == 0

    def test_random_kills_4procs_fork(self, ref4):
        plan = FaultPlan.random_kills(480, 4, kills=2, seed=5)
        result = _mp(
            _spec(), 4, ASSIGN4, 4,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref4)
        assert result.recovery["respawns"] == len(plan)

    def test_random_kills_2procs_spawn(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=1, seed=7)
        result = _mp(
            _spec(), 2, ASSIGN2, 2, start_method="spawn",
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=32, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["respawns"] == 1

    def test_after_send_and_pipe_drop_kills(self, ref2):
        # after_send exercises the partially-collected-barrier path (the
        # window message is already in the pipe buffer when the worker
        # dies); the pipe drop surfaces as EOF instead of a dead PID.
        plan = FaultPlan.from_faults([
            ProcessFault(40, 1, ProcessFaultKind.SIGKILL, incarnation=0,
                         after_send=True),
            ProcessFault(200, 1, ProcessFaultKind.PIPE_DROP, incarnation=1),
        ])
        result = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["detections"] == 2
        assert result.recovery["respawns"] == 2

    def test_hang_is_detected_and_respawned(self, ref2):
        plan = FaultPlan.from_faults([
            ProcessFault(100, 1, ProcessFaultKind.HANG)
        ])
        result = _mp(
            _spec(), 2, ASSIGN2, 2, window_timeout_s=1.5,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["respawns"] == 1

    def test_crashed_run_is_repeatable(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=1, seed=11)
        cfg = RecoveryConfig(checkpoint_every_n_windows=16, fault_plan=plan)
        first = _mp(_spec(), 2, ASSIGN2, 2, recovery=cfg)
        second = _mp(_spec(), 2, ASSIGN2, 2, recovery=cfg)
        a, b = merge_collected(first.collected), merge_collected(second.collected)
        assert delivery_log_bytes(a) == delivery_log_bytes(b)
        assert first.recovery["respawns"] == second.recovery["respawns"]
        _assert_matches(first, ref2)


class TestDegradedAdoption:
    def test_adoption_4procs_byte_identical(self, ref4):
        # Shard 2 dies twice with a budget of one respawn: the second
        # loss exhausts the budget and a survivor adopts its LPs after a
        # global rollback to the commit cut.
        plan = FaultPlan.from_faults([
            ProcessFault(120, 2, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(240, 2, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        result = _mp(
            _spec(), 4, ASSIGN4, 4,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, max_respawns=1,
                on_worker_loss="adopt", fault_plan=plan,
            ),
        )
        _assert_matches(result, ref4)
        assert result.recovery["adoptions"] == 1
        assert result.recovery["dead_shards"] == [2]
        # The dead shard's LPs moved to a survivor.
        assert result.shards[2] == []
        adopted = [lp for part in result.shards for lp in part]
        assert sorted(adopted) == [0, 1, 2, 3]

    def test_fail_mode_raises_on_first_loss(self):
        plan = FaultPlan.from_faults([
            ProcessFault(50, 1, ProcessFaultKind.SIGKILL)
        ])
        with pytest.raises(WorkerCrashError):
            _mp(
                _spec(), 2, ASSIGN2, 2,
                recovery=RecoveryConfig(
                    checkpoint_every_n_windows=16, on_worker_loss="fail",
                    fault_plan=plan,
                ),
            )

    def test_exhausted_respawn_budget_raises_typed_error(self):
        plan = FaultPlan.from_faults([
            ProcessFault(50, 1, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(80, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        with pytest.raises(RecoveryExhaustedError):
            _mp(
                _spec(), 2, ASSIGN2, 2,
                recovery=RecoveryConfig(
                    checkpoint_every_n_windows=16, max_respawns=1,
                    on_worker_loss="respawn", fault_plan=plan,
                ),
            )


class TestLocalGroupParity:
    """The in-process group replays the same ladder deterministically."""

    def test_local_respawn_byte_identity(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=2, seed=3)
        group = LocalShardGroup(
            ASSIGN2, 2, LATENCY_S, procs=2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        result = group.run_scenario(_spec(), until=UNTIL)
        _assert_matches(result, ref2)
        assert result.recovery["respawns"] == 2

    def test_local_adoption_byte_identity(self, ref2):
        plan = FaultPlan.from_faults([
            ProcessFault(120, 1, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(240, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        group = LocalShardGroup(
            ASSIGN2, 2, LATENCY_S, procs=2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, max_respawns=1,
                on_worker_loss="adopt", fault_plan=plan,
            ),
        )
        result = group.run_scenario(_spec(), until=UNTIL)
        _assert_matches(result, ref2)
        assert result.recovery["adoptions"] == 1
        assert result.shards[1] == []


_fault = st.builds(
    ProcessFault,
    window=st.integers(0, 499),
    shard=st.integers(0, 3),
    kind=st.sampled_from(list(ProcessFaultKind)),
    incarnation=st.integers(0, 2),
    after_send=st.booleans(),
)


class TestFuzzedFaultPlans:
    """Drawn fault plans through the real controller, in-process.

    Every run either matches the uninterrupted reference or raises the
    documented typed error: `WorkerCrashError` exactly when
    ``on_worker_loss="fail"`` meets a fault that fires, and
    `RecoveryExhaustedError` only when some shard is planned to die
    more often than ``max_respawns`` allows.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        procs=st.integers(2, 4),
        faults=st.lists(_fault, min_size=1, max_size=3),
        cadence=st.integers(1, 48),
        max_respawns=st.integers(0, 2),
        mode=st.sampled_from(["respawn", "adopt", "fail"]),
    )
    def test_recovers_or_raises_typed(
        self, ref4, procs, faults, cadence, max_respawns, mode
    ):
        faults = [pf for pf in faults if pf.shard < procs] or [
            ProcessFault(faults[0].window, procs - 1, faults[0].kind)
        ]
        group = LocalShardGroup(
            ASSIGN4, 4, LATENCY_S, procs=procs,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=cadence,
                max_respawns=max_respawns,
                on_worker_loss=mode,
                backoff_base_s=0.0,
                fault_plan=FaultPlan.from_faults(faults),
            ),
        )
        per_shard = [sum(pf.shard == s for pf in faults) for s in range(procs)]
        fires_first = any(pf.incarnation == 0 for pf in faults)
        try:
            result = group.run_scenario(_spec(), until=UNTIL)
        except WorkerCrashError:
            assert mode == "fail" and fires_first
            return
        except RecoveryExhaustedError:
            assert mode != "fail" and max(per_shard) > max_respawns
            return
        assert not (mode == "fail" and fires_first)
        merged = _assert_matches(result, ref4)
        assert merged["events_executed"] == ref4["events_executed"]
        rec = result.recovery
        assert rec["respawns"] + rec["adoptions"] == rec["detections"]
        assert rec["detections"] <= len(faults)
        assert len(rec["dead_shards"]) == rec["adoptions"]


class TestRespawnAfterAdoption:
    """A respawn after a degraded adoption routes by the new placement.

    Shard 2 is adopted by shard 0, then shard 3 dies and respawns: its
    mail to LP 2 must reach the adopter, not the dead shard.
    """

    PLAN = FaultPlan.from_faults([
        ProcessFault(20, 2, ProcessFaultKind.SIGKILL, incarnation=0),
        ProcessFault(40, 2, ProcessFaultKind.SIGKILL, incarnation=1),
        ProcessFault(60, 3, ProcessFaultKind.SIGKILL, incarnation=0),
    ])

    def _config(self):
        return RecoveryConfig(
            checkpoint_every_n_windows=8, max_respawns=1,
            on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=self.PLAN,
        )

    def test_fork_byte_identity(self, ref4):
        result = _mp(_spec(), 4, ASSIGN4, 4, recovery=self._config())
        _assert_matches(result, ref4)
        assert result.recovery["adoptions"] == 1
        assert result.recovery["respawns"] == 2
        assert result.shards == [[0, 2], [1], [], [3]]

    def test_in_process_byte_identity(self, ref4):
        group = LocalShardGroup(ASSIGN4, 4, LATENCY_S, procs=4, recovery=self._config())
        result = group.run_scenario(_spec(), until=UNTIL)
        _assert_matches(result, ref4)
        assert result.recovery["respawns"] == 2


class TestTwoAdoptions:
    """Each adopted shard stands in with its own committed blob.

    Shard 2 is adopted at the start, shard 1 three windows later; the
    merged result must count each dead shard's pre-adoption sums once.
    A second loss before any commit since the first adoption is the
    documented typed failure, not a silent loss of the adopted LPs.
    """

    def _group(self, cadence, first_window, second_window):
        plan = FaultPlan.from_faults([
            ProcessFault(first_window, 2, ProcessFaultKind.SIGKILL),
            ProcessFault(second_window, 1, ProcessFaultKind.SIGKILL),
        ])
        return LocalShardGroup(
            ASSIGN4, 4, LATENCY_S, procs=4,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=cadence, max_respawns=0,
                on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=plan,
            ),
        )

    def test_byte_identity(self, ref4):
        group = self._group(cadence=1, first_window=0, second_window=3)
        result = group.run_scenario(_spec(), until=UNTIL)
        _assert_matches(result, ref4)
        assert result.recovery["adoptions"] == 2
        assert result.recovery["dead_shards"] == [1, 2]

    def test_loss_before_next_commit_raises(self):
        group = self._group(cadence=16, first_window=20, second_window=30)
        with pytest.raises(RecoveryExhaustedError, match="before the next"):
            group.run_scenario(_spec(), until=UNTIL)
