"""Traced sessions: the per-layer metrics of each workload.

Each session runs the workload untraced and traced, requires the runs
to agree on every deterministic count, and returns the per-layer
metrics. Layers a workload bypasses report 0, which is the prediction
for any change to them. The ledger's module entries plus
``unattributed_s`` add up exactly to ``traced_wall_s``; the session
prints them as a waterfall.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ledger import (
    MODULES,
    SPAN_PARTS,
    pipe_send_spans,
    profile_call,
    span_ledger,
    waterfall,
)
from repro.obs.trace import traced_run
from workloads import (
    PLAN_APPROACHES,
    CheckFailed,
    MpChain,
    MpChainRecover,
    PlanSingleAs,
    SeqSingleAs,
    Timed,
    keep_going,
    timed,
)

#: Sub-module self times reported by the cProfile ledgers.
SEQ_SUBS = (
    "engine.kernel", "engine.calqueue", "engine.events", "netsim.simulator",
    "netsim.link", "netsim.tcp", "netsim.app", "routing.fib",
)
PLAN_SUBS = (
    "partition.graph", "partition.coarsen", "partition.initial",
    "partition.refine", "partition.kway", "core.hierarchical", "core.evaluate",
)

#: Every per-layer metric a session can report; bypassed layers read 0.
PER_LAYER = (
    ["traced_wall_s", "trace_overhead", "unattributed_s"]
    + [f"{m}.self_s" for m in MODULES]
    + [f"{s}.self_s" for s in SEQ_SUBS + PLAN_SUBS]
    + [
        "engine.kernel.events", "netsim.hops", "routing.fib.lookups",
        "netsim.tcp.goodput_ratio", "topology.generate_s",
        "routing.fib.build_s", "netsim.install_s",
        "core.weights.build_s", "core.hierarchical.candidates",
        "partition.kway.calls", "profilers.profile_s",
        "hprof.efficiency", "hprof.mll_ms", "hprof.imbalance",
        "htop.efficiency", "htop.mll_ms", "htop.imbalance",
        *SPAN_PARTS,
        "engine.parallel.window_p50_ms", "engine.parallel.window_p99_ms",
        "experiments.shard.build_s",
        "serialization.mail_bytes", "engine.parallel.windows",
        "engine.parallel.shard_events_imbalance",
        "engine.parallel.speedup_vs_ref", "engine.shard_tax",
        "engine.costmodel.gap",
        "engine.recovery.checkpoints", "engine.recovery.checkpoint_bytes",
        "engine.recovery.detections", "engine.recovery.respawns",
        "engine.recovery.windows_replayed", "engine.recovery.checkpoint_s",
        "engine.recovery.recover_s",
    ]
)


#: The ledger's remainder may be at most this share of the traced wall.
MAX_UNATTRIBUTED = 0.05


def check_ledger(metrics: dict) -> None:
    """Fail a session whose ``unattributed_s`` is negative or over the target."""
    left, wall = metrics["unattributed_s"], metrics["traced_wall_s"]
    if not -1e-9 * wall <= left <= MAX_UNATTRIBUTED * wall:
        raise CheckFailed(
            f"unattributed_s {left:.6f} s is outside [0, {MAX_UNATTRIBUTED:.0%}] "
            f"of the traced wall {wall:.6f} s"
        )


def session(wl, seconds: float, tally) -> dict:
    """Traced sessions until ``seconds`` run out; the median-wall one reports.

    Every session must reproduce the first session's counts exactly and
    pass :func:`check_ledger`.
    """
    one = {
        SeqSingleAs: seq_session,
        PlanSingleAs: plan_session,
        MpChainRecover: mp_session,
    }[type(wl)]

    def checked() -> dict:
        out = one(wl, tally)
        check_ledger(out["metrics"])
        return out

    done: list[dict] = []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        out = tally.attempt(f"traced session {i}", checked)
        if out is not None:
            done.append(out)
        i += 1
        if not keep_going(start, time.perf_counter() - t0, seconds):
            break
    if not done:
        return {}
    done.sort(key=lambda out: out["metrics"]["traced_wall_s"])
    chosen = done[(len(done) - 1) // 2]
    print(chosen["waterfall"])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(chosen["metrics"])
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def _ledger_metrics(ledger: dict, wall_s: float, untraced_s: float) -> dict:
    out = dict(ledger)
    out["traced_wall_s"] = wall_s
    out["trace_overhead"] = wall_s / untraced_s
    return out


def _parts(ledger: dict) -> dict:
    parts = {f"{m}.self_s": ledger[f"{m}.self_s"] for m in MODULES}
    parts["unattributed_s"] = ledger["unattributed_s"]
    return parts


def _print_setup(layer_s: dict) -> str:
    return "  set-up (feeds setup_s): " + ", ".join(
        f"{k} {v:.3f} s" for k, v in layer_s.items()
    )


# ----------------------------------------------------------------------
def seq_session(wl: SeqSingleAs, tally) -> dict:
    state = wl.setup()
    untraced = timed(wl.run, state)
    tally.same("run", wl.check(state, untraced.value))
    state = wl.setup()
    value, prof = profile_call(lambda: wl.run(state))
    fp = wl.check(state, value)
    tally.same("run", fp)
    ledger = prof.ledger(SEQ_SUBS)
    metrics = _ledger_metrics(ledger, prof.wall_s, untraced.seconds)
    metrics.update(state.layer_s)
    metrics.update({
        "engine.kernel.events": fp["events"],
        "netsim.hops": fp["hops"],
        "routing.fib.lookups": prof.calls("routing.fib", "next_hop"),
        "netsim.tcp.goodput_ratio": (
            fp["tcp_segments_acked"] / fp["tcp_segments_sent"]
            if fp["tcp_segments_sent"] else 0.0
        ),
    })
    subs = {f"{s}.self_s": ledger[f"{s}.self_s"] for s in SEQ_SUBS}
    text = waterfall(wl.name, prof.wall_s, _parts(ledger), subs,
                     metrics["trace_overhead"])
    return {"metrics": metrics, "waterfall": text + "\n" + _print_setup(state.layer_s)}


def plan_session(wl: PlanSingleAs, tally) -> dict:
    state = wl.setup()
    tally.same("setup", wl.setup_fingerprint(state))
    untraced = timed(wl.run, state)
    tally.same("run", wl.check(state, untraced.value))
    value, prof = profile_call(lambda: wl.run(state))
    fp = wl.check(state, value)
    tally.same("run", fp)
    ledger = prof.ledger(PLAN_SUBS)
    metrics = _ledger_metrics(ledger, prof.wall_s, untraced.seconds)
    metrics.update(state.layer_s)
    metrics["core.weights.build_s"] = sum(
        timed(wl.graph, state, a).seconds for a in PLAN_APPROACHES
    )
    metrics["core.hierarchical.candidates"] = wl.work(fp)
    metrics["partition.kway.calls"] = prof.calls("partition.kway", "partition_kway")
    for approach in PLAN_APPROACHES:
        key = approach.value.lower()
        for field in ("efficiency", "mll_ms", "imbalance"):
            metrics[f"{key}.{field}"] = fp[approach.value][field]
    subs = {f"{s}.self_s": ledger[f"{s}.self_s"] for s in PLAN_SUBS}
    text = waterfall(wl.name, prof.wall_s, _parts(ledger), subs,
                     metrics["trace_overhead"])
    return {"metrics": metrics, "waterfall": text + "\n" + _print_setup(state.layer_s)}


# ----------------------------------------------------------------------
#: Trace ring size per channel in the mp workers: room for every window
#: and send span, while the per-event channel keeps only its tail, so the
#: trace snapshot a worker ships at the end stays small.
TRACE_CAPACITY = 4096

#: The mp ledger's time entries, all under the engine or serialization module.
MP_SUBS = SPAN_PARTS + ("engine.recovery.checkpoint_s", "engine.recovery.recover_s")


def _traced_mp(wl: MpChain, state, recovery):
    """One traced mp run; returns ``(timed run, call start, call end)``."""
    with traced_run(capacity=TRACE_CAPACITY), pipe_send_spans():
        t0 = time.perf_counter()
        value = wl.run_with(state, recovery)
        t1 = time.perf_counter()
    return Timed(value, t1 - t0), t0, t1


#: Interleaved repeats of the traced recovery runs; the medians keep one
#: slow run on a noisy host from turning a priced difference negative.
RECOVERY_REPS = 3


def _median_run(runs: list):
    """The run with the median wall (the lower middle of an even count)."""
    return sorted(runs, key=lambda run: run[0].seconds)[(len(runs) - 1) // 2]


def mp_session(wl: MpChain, tally) -> dict:
    """Window spans of a traced run plus the runs that price the rest.

    On ``mp_chain_recover`` the ledger prices checkpointing and recovery
    by difference of median traced walls (``RECOVERY_REPS`` interleaved
    runs each): checkpointing-on minus plain, and with-kill minus
    checkpointing-on. The traced wall it adds up to is then the median
    with-kill run's.
    """
    state = wl.setup()
    oracle = wl.reference(state)
    # The ROADMAP's mp_measured and the cost-model gap are about the plain
    # mp run, without checkpoints.
    plain_untraced = timed(wl.run_with, state, None)
    engine, result = plain_untraced.value
    tally.same("run.plain", wl.check(state, plain_untraced.value))

    recover = isinstance(wl, MpChainRecover)
    configs = {"plain": None}
    if recover:
        configs.update(ckpt=wl.recovery(kill=False), kill=wl.recovery())
    runs: dict[str, list] = {name: [] for name in configs}
    untraced = []
    for _ in range(RECOVERY_REPS if recover else 1):
        if recover:
            untraced.append(timed(wl.run, state))
            tally.same("run.kill", wl.check(state, untraced[-1].value))
        for name, recovery in configs.items():
            run = _traced_mp(wl, state, recovery)
            tally.same(f"run.{name}", wl.check(state, run[0].value))
            runs[name].append(run)
    if not recover:
        untraced = [plain_untraced]

    plain, t0, t1 = _median_run(runs["plain"])
    spans = span_ledger(plain.value[1], t0, t1)
    metrics = dict(spans)
    metrics["experiments.shard.build_s"] = wl.shard_build_s(state)
    wall = {name: _median_run(r)[0].seconds for name, r in runs.items()}
    traced_wall = wall["plain"]
    if recover:
        metrics["engine.recovery.checkpoint_s"] = wall["ckpt"] - wall["plain"]
        metrics["engine.recovery.recover_s"] = wall["kill"] - wall["ckpt"]
        traced_wall = wall["kill"]
        rec = untraced[0].value[1].recovery
        for key, name in (
            ("checkpoints_taken", "checkpoints"), ("checkpoint_bytes", "checkpoint_bytes"),
            ("detections", "detections"), ("respawns", "respawns"),
            ("windows_replayed", "windows_replayed"),
        ):
            metrics[f"engine.recovery.{name}"] = rec[key]
    untraced_wall = statistics.median(run.seconds for run in untraced)

    subs = {k: metrics[k] for k in MP_SUBS if k in metrics}
    ledger = {f"{m}.self_s": 0.0 for m in MODULES}
    for name, seconds in subs.items():
        ledger[f"{name.split('.')[0]}.self_s"] += seconds
    ledger["unattributed_s"] = traced_wall - sum(ledger.values())
    metrics.update(_ledger_metrics(ledger, traced_wall, untraced_wall))

    worker_events = np.asarray(result.worker_events, dtype=np.float64)
    metrics.update({
        "serialization.mail_bytes": result.total_mail_bytes,
        "engine.parallel.windows": len(result.window_stats),
        "engine.parallel.shard_events_imbalance": float(
            worker_events.max() / worker_events.mean()
        ),
        "engine.parallel.speedup_vs_ref": oracle.wall_s / plain_untraced.seconds,
        "engine.shard_tax": wl.shard_group_wall(state) / oracle.wall_s,
        "engine.costmodel.gap": plain_untraced.seconds / wl.predicted_wall_s(
            engine, result, oracle
        ),
    })
    text = waterfall(wl.name, traced_wall, _parts(ledger), subs,
                     metrics["trace_overhead"])
    extra = (
        f"  window wall p50 {spans['engine.parallel.window_p50_ms']:.3f} ms, "
        f"p99 {spans['engine.parallel.window_p99_ms']:.3f} ms; oracle "
        f"{oracle.wall_s:.3f} s, untraced plain mp {plain_untraced.seconds:.3f} s; "
        f"one shard-0 build {metrics['experiments.shard.build_s']:.3f} s "
        f"(each worker's, inside outside_windows_s)"
    )
    return {
        "metrics": metrics,
        "waterfall": text + "\n" + extra,
    }
