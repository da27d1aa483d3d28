"""The benchmark workloads, driven through the public API of ``repro``.

Each workload splits a run into three parts that ``run.py``
times separately:

* ``setup()`` builds the inputs (topology, forwarding plane, workload
  installation, traffic profile, scenario spec) and returns a state;
* ``run(state)`` is the timed part, the work a user waits for;
* ``check(state, raw)`` compares the output with an oracle and returns
  the run's deterministic fingerprint, or raises :class:`CheckFailed`.

The seed drives the traffic (host split, HTTP arrivals, application
placement, UDP packet draws). The single-AS topology and the
partitioner's own seed stay fixed, so every seed runs on the paper's
same small-scale network and the run-to-run spread measures the
program, not a different network size (a topology seed moves the
planner's wall by up to 40%).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.partition_check import validate_partition
from repro.core.approaches import Approach, build_weighted_graph
from repro.core.evaluate import evaluate_partition
from repro.core.mapping import MappingPipeline, run_profiling_simulation
from repro.engine.kernel import SimKernel
from repro.engine.parallel import (
    LocalShardGroup,
    ParallelConservativeEngine,
    ShardEngine,
    shard_lps,
)
from repro.engine.recovery import RecoveryConfig
from repro.experiments import install_workload
from repro.experiments.config import SCALES
from repro.experiments.parallel import calibrated_cluster, predict_from_windows
from repro.experiments.runner import cluster_for_scale
from repro.experiments.shard import (
    build_udp_scenario,
    delivery_log_bytes,
    merge_collected,
    run_reference,
    udp_spec,
)
from repro.faults import FaultPlan, ProcessFault, ProcessFaultKind
from repro.netsim.simulator import NetworkSimulator
from repro.online.agent import Agent
from repro.routing.fib import ForwardingPlane
from repro.topology import generate_flat_network
from repro.topology.models import Network, NodeKind

#: The paper's Fig-6 network at the ``small`` scale: 400 routers, 300 hosts.
SCALE = SCALES["small"]
#: Fixed topology and partitioner seeds (see the module docstring).
TOPOLOGY_SEED = 0
PARTITION_SEED = 0
#: Every multi-process workload runs two workers under ``fork``.
PROCS = 2
START_METHOD = "fork"
#: Per-barrier patience; a hung worker fails the run instead of the bench.
WINDOW_TIMEOUT_S = 30.0


class CheckFailed(Exception):
    """A run's output disagreed with its oracle or with an earlier run."""


def digest(*parts: Any) -> str:
    """Short sha256 over the ``repr`` of ``parts`` (arrays by their bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


@dataclass
class Timed:
    """The value returned by a timed call, its wall-clock seconds and start."""

    value: Any
    seconds: float
    start: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.seconds


def timed(fn, *args, **kwargs) -> Timed:
    """Call ``fn`` and measure it with ``time.perf_counter``."""
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return Timed(value, time.perf_counter() - t0, t0)


def keep_going(start: float, last: float, seconds: float) -> bool:
    """Whether another rep lasting ``last`` seconds still fits in ``seconds``."""
    return time.perf_counter() - start + last <= seconds


class Workload:
    """Base class; see the module docstring for the three-part contract."""

    name = ""
    #: True when ``run`` consumes its state, so every rep sets up afresh.
    single_use = False
    #: Unit of ``work_per_s`` for this workload.
    work_unit = ""
    #: True when ``twin()`` re-runs the workload through a recording path.
    has_twin = False
    #: True when the timed run stays in this process, so that its wall can
    #: be restated at reference host speed (see ``hostspeed``).
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def setup(self) -> Any:
        raise NotImplementedError

    def setup_fingerprint(self, state: Any) -> Any:
        """Deterministic summary of a set-up; must repeat exactly."""
        return None

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, raw: Any) -> dict:
        raise NotImplementedError

    def work(self, fingerprint: dict) -> int:
        """Units of work one run completed (the ``work_per_s`` numerator)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# seq_single_as: the online scenario on the sequential kernel
# ----------------------------------------------------------------------
@dataclass
class SeqState:
    net: Network
    kernel: SimKernel
    sim: NetworkSimulator
    handles: Any
    senders: list
    layer_s: dict


class SeqSingleAs(Workload):
    """Fig-6: ScaLapack via the online Agent plus HTTP, on ``SimKernel``."""

    name = "seq_single_as"
    single_use = True
    work_unit = "events"
    has_twin = True

    def __init__(self, seed: int, duration_s: float | None = None) -> None:
        super().__init__(seed)
        self.duration_s = (
            SCALE.profile_duration_s if duration_s is None else float(duration_s)
        )

    def setup(self, record: bool = False) -> SeqState:
        gen = timed(
            generate_flat_network,
            num_routers=SCALE.flat_routers,
            num_hosts=SCALE.flat_hosts,
            seed=TOPOLOGY_SEED,
        )
        net = gen.value
        fib = timed(ForwardingPlane, net)
        t0 = time.perf_counter()
        kernel = SimKernel(record_trace=record)
        sim = NetworkSimulator(net, fib.value, kernel, record_transmissions=record)
        senders: list = []
        register = sim.register_tcp_endpoint

        def keep_senders(flow_id, node, endpoint, role):
            if role == "snd":
                senders.append(endpoint)
            register(flow_id, node, endpoint, role)

        sim.register_tcp_endpoint = keep_senders
        handles = install_workload(
            sim, Agent(sim), net, "scalapack", SCALE, self.seed,
            duration_s=self.duration_s,
        )
        install_s = time.perf_counter() - t0
        return SeqState(
            net, kernel, sim, handles, senders,
            {
                "topology.generate_s": gen.seconds,
                "routing.fib.build_s": fib.seconds,
                "netsim.install_s": install_s,
            },
        )

    def run(self, state: SeqState) -> int:
        return state.kernel.run(until=self.duration_s)

    def check(self, state: SeqState, raw: int) -> dict:
        sim = state.sim
        counters = sim.counters.as_dict()
        hops = int(sim.link_packets().sum())
        segments = sum(s.stats.segments_sent for s in state.senders)
        acked = sum(s.highest_ack for s in state.senders)
        fp = {
            "events": int(state.kernel.events_executed),
            "counters": counters,
            "hops": hops,
            "tcp_flows": len(state.senders),
            "tcp_segments_sent": int(segments),
            "tcp_segments_acked": int(acked),
            "http_responses": int(state.handles.http.stats.responses_completed),
            "apps_finished": bool(state.handles.apps_finished),
        }
        if raw != fp["events"]:
            raise CheckFailed(f"kernel.run returned {raw}, counted {fp['events']}")
        if counters["delivered"] > counters["sent"]:
            raise CheckFailed(f"more packets delivered than sent: {counters}")
        if state.kernel.record_trace:
            # The recording twin counts every event and hop a second way.
            times, _nodes = state.kernel.trace()
            if len(times) != fp["events"]:
                raise CheckFailed(
                    f"event trace holds {len(times)} events, kernel counted "
                    f"{fp['events']}"
                )
            tx_times, _f, _t = sim.transmissions()
            fp["recorded_transmissions"] = int(len(tx_times))
        return fp

    def work(self, fingerprint: dict) -> int:
        return fingerprint["events"]

    def twin(self) -> dict:
        """One untimed run with event and hop recording on.

        The kernel's event trace and the simulator's transmission log
        count the same run a second way; the returned counts must equal
        every timed run's.
        """
        state = self.setup(record=True)
        fp = self.check(state, self.run(state))
        recorded = fp.pop("recorded_transmissions")
        if recorded != fp["hops"]:
            raise CheckFailed(
                f"transmission log holds {recorded} hops, links carried {fp['hops']}"
            )
        return fp


# ----------------------------------------------------------------------
# plan_single_as: HPROF and HTOP mappings of the same network
# ----------------------------------------------------------------------
PLAN_APPROACHES = (Approach.HPROF, Approach.HTOP)


@dataclass
class PlanState:
    net: Network
    profile: Any
    layer_s: dict


class PlanSingleAs(Workload):
    """HPROF and HTOP onto the scale's 12 engines via ``MappingPipeline``."""

    name = "plan_single_as"
    work_unit = "Tmll candidates"

    def setup(self) -> PlanState:
        gen = timed(
            generate_flat_network,
            num_routers=SCALE.flat_routers,
            num_hosts=SCALE.flat_hosts,
            seed=TOPOLOGY_SEED,
        )
        net = gen.value
        fib = timed(ForwardingPlane, net)

        def install(sim, agent):
            install_workload(
                sim, agent, net, "scalapack", SCALE, self.seed,
                duration_s=SCALE.profile_duration_s,
            )

        prof = timed(
            run_profiling_simulation, net, fib.value, install,
            SCALE.profile_duration_s,
        )
        return PlanState(
            net, prof.value,
            {
                "topology.generate_s": gen.seconds,
                "routing.fib.build_s": fib.seconds,
                "profilers.profile_s": prof.seconds,
            },
        )

    def setup_fingerprint(self, state: PlanState) -> Any:
        p = state.profile
        return digest(p.node_events, p.link_packets, p.link_bytes)

    def pipeline(self, state: PlanState) -> MappingPipeline:
        return MappingPipeline(
            state.net, SCALE.num_engines, cluster_for_scale(SCALE), PARTITION_SEED
        )

    def graph(self, state: PlanState, approach: Approach):
        profile = state.profile if approach.uses_profile else None
        return build_weighted_graph(state.net, approach, profile)

    def run(self, state: PlanState) -> dict:
        pipeline = self.pipeline(state)
        return {
            a: pipeline.run(a, state.profile if a.uses_profile else None)
            for a in PLAN_APPROACHES
        }

    def check(self, state: PlanState, raw: dict) -> dict:
        fp = {}
        sync_cost_s = self.pipeline(state).sync_cost_s
        for approach, mapping in raw.items():
            graph = self.graph(state, approach)
            validate_partition(graph, mapping.assignment, mapping.num_engines)
            again = evaluate_partition(
                graph, mapping.assignment, mapping.num_engines, sync_cost_s
            )
            if again.efficiency != mapping.evaluation.efficiency:
                raise CheckFailed(
                    f"{approach.value}: re-evaluated E={again.efficiency!r} but "
                    f"the pipeline reported {mapping.evaluation.efficiency!r}"
                )
            ev = mapping.evaluation
            fp[approach.value] = {
                "efficiency": float(ev.efficiency),
                "mll_ms": float(mapping.achieved_mll_ms),
                "imbalance": float(ev.predicted_imbalance),
                "edge_cut": float(ev.edge_cut),
                "candidates": len(mapping.sweep),
                "assignment": digest(mapping.assignment),
            }
        return fp

    def work(self, fingerprint: dict) -> int:
        return sum(fingerprint[a.value]["candidates"] for a in PLAN_APPROACHES)


# ----------------------------------------------------------------------
# mp_chain_recover: the bench chain on real processes
# ----------------------------------------------------------------------
CHAIN_NODES = 48
CHAIN_LPS = 4
#: Hop latency and lookahead: every packet crosses a barrier per hop.
CHAIN_LATENCY_S = 1e-3


def chain_network(num_nodes: int, latency_s: float) -> Network:
    """A line of routers, one link per neighbour pair."""
    net = Network()
    for _ in range(num_nodes):
        net.add_node(NodeKind.ROUTER)
    for u in range(num_nodes - 1):
        net.add_link(u, u + 1, 1e9, latency_s, 1 << 26)
    return net


@dataclass
class ChainState:
    spec: Any
    assignment: np.ndarray


@dataclass
class Oracle:
    """The single-process ``ConservativeEngine`` run of the same spec."""

    digest: str
    counters: dict
    events: int
    wall_s: float


class MpChain(Workload):
    """The 48-node UDP chain on 4 LPs over ``ParallelConservativeEngine``.

    The plain mp run: the base of ``mp_chain_recover`` and the run whose
    window spans its traced session splits. It is not a workload of its
    own, so that three workloads fit longer, steadier runs into the
    benchmark's time budget.
    """

    name = "mp_chain"
    work_unit = "events"
    in_process = False

    def __init__(
        self, seed: int, duration_s: float = 1.0, packets: int = 15_000
    ) -> None:
        super().__init__(seed)
        self.duration_s = float(duration_s)
        self.packets = int(packets)
        self.oracle: Oracle | None = None

    def recovery(self) -> RecoveryConfig | None:
        """The recovery config of this workload's runs (none: plain mp)."""
        return None

    def setup(self) -> ChainState:
        net = chain_network(CHAIN_NODES, CHAIN_LATENCY_S)
        spec = udp_spec(
            net, self.duration_s, packets=self.packets, seed=self.seed,
            record_deliveries=True,
        )
        assignment = np.repeat(
            np.arange(CHAIN_LPS, dtype=np.int64), CHAIN_NODES // CHAIN_LPS
        )
        return ChainState(spec, assignment)

    def setup_fingerprint(self, state: ChainState) -> Any:
        return digest(sorted(state.spec.params.items()))

    def reference(self, state: ChainState) -> Oracle:
        """Run (once) and keep the oracle; its wall is in no end-to-end metric."""
        if self.oracle is None:
            run = timed(
                run_reference, state.spec, state.assignment, CHAIN_LPS,
                CHAIN_LATENCY_S, self.duration_s,
            )
            engine, collected = run.value
            self.oracle = Oracle(
                digest=log_digest(collected),
                counters=dict(collected["counters"]),
                events=int(engine.events_executed),
                wall_s=run.seconds,
            )
        return self.oracle

    def run(self, state: ChainState):
        return self.run_with(state, self.recovery())

    def run_with(self, state: ChainState, recovery: RecoveryConfig | None):
        """One mp run of the spec; returns ``(engine, ParallelRunResult)``."""
        engine = ParallelConservativeEngine(
            state.assignment, CHAIN_LPS, CHAIN_LATENCY_S, procs=PROCS,
            start_method=START_METHOD, window_timeout_s=WINDOW_TIMEOUT_S,
            recovery=recovery,
        )
        return engine, engine.run_scenario(state.spec, until=self.duration_s)

    def check(self, state: ChainState, raw) -> dict:
        engine, result = raw
        oracle = self.reference(state)
        merged = merge_collected(result.collected)
        got = log_digest(merged)
        if got != oracle.digest:
            raise CheckFailed(
                f"delivery-log digest {got} differs from the oracle's "
                f"{oracle.digest}"
            )
        if merged["counters"] != oracle.counters:
            raise CheckFailed(
                f"counters {merged['counters']} differ from the oracle's "
                f"{oracle.counters}"
            )
        if result.events_executed != oracle.events:
            raise CheckFailed(
                f"{result.events_executed} events, oracle ran {oracle.events}"
            )
        fp = {
            "events": int(result.events_executed),
            "windows": len(result.window_stats),
            "mail_bytes": int(result.total_mail_bytes),
            "worker_events": [int(v) for v in result.worker_events],
            "digest": got,
        }
        if result.recovery is not None:
            rec = result.recovery
            fp["recovery"] = {
                key: rec[key]
                for key in (
                    "checkpoints_taken", "checkpoint_bytes", "detections",
                    "respawns", "windows_replayed",
                )
            }
        return fp

    def work(self, fingerprint: dict) -> int:
        return fingerprint["events"]

    # -- extra runs of the traced session ------------------------------
    def shard_build_s(self, state: ChainState) -> float:
        """Wall of one in-process build of shard 0.

        This is the replicated scenario build every worker repeats at
        start-up, inside the timed run.
        """
        shard = ShardEngine(
            state.assignment, CHAIN_LPS, CHAIN_LATENCY_S, shard_lps(CHAIN_LPS, PROCS)[0],
            shard_id=0, num_shards=PROCS,
        )
        return timed(build_udp_scenario, shard, state.spec.params).seconds

    def shard_group_wall(self, state: ChainState) -> float:
        """Wall of the same spec on a 2-shard in-process ``LocalShardGroup``."""
        group = LocalShardGroup(
            state.assignment, CHAIN_LPS, CHAIN_LATENCY_S, procs=PROCS
        )
        run = timed(group.run_scenario, state.spec, until=self.duration_s)
        if log_digest(merge_collected(run.value.collected)) != self.reference(state).digest:
            raise CheckFailed("LocalShardGroup delivery log differs from the oracle's")
        return run.seconds

    def predicted_wall_s(self, engine, result, oracle: Oracle) -> float:
        """The calibrated cost model's wall for the recorded windows."""
        cluster = calibrated_cluster(PROCS, oracle.wall_s, oracle.events)
        return predict_from_windows(
            result.window_stats, CHAIN_LPS, cluster, shards=engine.shards
        ).total_s


#: The mid-run crash: worker 1 SIGKILLs itself at the start of this window.
KILL_WINDOW = 500
CHECKPOINT_EVERY = 8


class MpChainRecover(MpChain):
    """``mp_chain`` with barrier checkpoints and one SIGKILL of worker 1."""

    name = "mp_chain_recover"

    def kill_plan(self) -> FaultPlan:
        window = min(KILL_WINDOW, int(round(self.duration_s / CHAIN_LATENCY_S)) // 2)
        return FaultPlan.from_faults(
            [ProcessFault(window, 1, ProcessFaultKind.SIGKILL)]
        )

    def recovery(self, kill: bool = True) -> RecoveryConfig:
        return RecoveryConfig(
            checkpoint_every_n_windows=CHECKPOINT_EVERY,
            fault_plan=self.kill_plan() if kill else None,
        )

    def check(self, state: ChainState, raw) -> dict:
        fp = super().check(state, raw)
        engine, result = raw
        if engine.recovery is None:
            return fp
        rec = fp["recovery"]
        plan = engine.recovery.fault_plan
        kills = 0 if plan is None else len(plan)
        if rec["detections"] != kills or rec["respawns"] != kills:
            raise CheckFailed(
                f"expected {kills} detection and respawn, got {rec['detections']} "
                f"and {rec['respawns']}"
            )
        if result.recovery["dead_shards"]:
            raise CheckFailed(f"shards ended dead: {result.recovery['dead_shards']}")
        return fp


def log_digest(collected: dict) -> str:
    """sha256 of the canonical delivery log (cursor stripped)."""
    return hashlib.sha256(delivery_log_bytes(collected)).hexdigest()


WORKLOADS = {w.name: w for w in (SeqSingleAs, PlanSingleAs, MpChainRecover)}
