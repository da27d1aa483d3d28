"""Checks of the benchmark's own accounting, on small workload sizes.

Run from the repository root with::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from workloads import CheckFailed, MpChain, SeqSingleAs  # noqa: E402


def small_chain() -> MpChain:
    return MpChain(seed=3, duration_s=0.04, packets=200)


def test_tampered_digest_counts_as_failed_run():
    wl = small_chain()
    wl.reference(wl.setup())
    wl.oracle = replace(wl.oracle, digest="0" * 64)
    tally = run.Tally()
    metrics = run.measure(wl, seconds=0.5, tally=tally)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted
    assert all("CheckFailed" in f and "digest" in f for f in tally.failures)
    assert metrics == {}


def test_untampered_chain_passes_and_repeats():
    wl = small_chain()
    tally = run.Tally()
    metrics = run.measure(wl, seconds=0.5, tally=tally)
    assert tally.failed == 0 and tally.attempted >= 2
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_in_process_workload_is_probed_throughout():
    wl = SeqSingleAs(seed=1, duration_s=0.3)
    tally = run.Tally()
    metrics = run.measure(wl, seconds=2.0, tally=tally)
    assert tally.failed == 0 and tally.attempted >= 2
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
    assert metrics["work_per_s"] > 0


def test_ref_seconds_scales_each_gap_and_skips_the_probes():
    speed = hostspeed.HostSpeed()
    speed.starts, speed.ends = [1.0, 2.0], [1.001, 2.002]
    speed.durations = [0.001, 0.002]
    ref = hostspeed.REF_PROBE_S
    # Before the first probe at its speed, between the probes at their
    # mean speed, after the last probe at its speed.
    expected = 0.5 * ref / 0.001 + 0.999 * ref / 0.0015 + 0.498 * ref / 0.002
    assert speed.ref_seconds(0.5, 2.5) == pytest.approx(expected)
    assert speed.ref_seconds(1.0002, 1.0008) == 0.0
    assert speed.ref_seconds(1.5, 1.6) == pytest.approx(0.1 * ref / 0.0015)


def test_probing_restores_the_alarm_handler():
    before = hostspeed.signal.getsignal(hostspeed.signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed.probing():
        t0 = hostspeed.time.perf_counter()
        while hostspeed.time.perf_counter() - t0 < 0.1:
            pass
    assert len(speed.durations) >= 4
    assert speed.starts == sorted(speed.starts)
    assert hostspeed.signal.getsignal(hostspeed.signal.SIGALRM) is before
    assert hostspeed.signal.getitimer(hostspeed.signal.ITIMER_REAL) == (0.0, 0.0)


def test_determinism_guard_fails_the_run_not_the_bench():
    tally = run.Tally()
    tally.attempt("first", lambda: tally.same("events", 402_514))
    tally.attempt("second", lambda: tally.same("events", 402_515))
    assert (tally.attempted, tally.failed) == (2, 1)
    with pytest.raises(CheckFailed):
        tally.same("events", 1)


@pytest.mark.parametrize("session", [traced.seq_session, traced.mp_session])
def test_ledger_adds_up_to_the_traced_wall(session):
    wl = (
        SeqSingleAs(seed=1, duration_s=0.3)
        if session is traced.seq_session
        else small_chain()
    )
    tally = run.Tally()
    out = session(wl, tally)
    m = out["metrics"]
    parts = sum(m[f"{mod}.self_s"] for mod in traced.MODULES) + m["unattributed_s"]
    assert parts == pytest.approx(m["traced_wall_s"], rel=1e-9)
    assert 0.0 <= m["unattributed_s"] <= traced.MAX_UNATTRIBUTED * m["traced_wall_s"]
    assert set(m) <= set(traced.PER_LAYER)
    assert tally.failed == 0


@pytest.mark.parametrize("left", [-0.01, 0.06])
def test_unattributed_outside_the_target_fails_the_session(left):
    tally = run.Tally()
    metrics = {"unattributed_s": left, "traced_wall_s": 1.0}
    tally.attempt("session", lambda: traced.check_ledger(metrics))
    tally.attempt("session", lambda: traced.check_ledger({**metrics, "unattributed_s": 0.04}))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "unattributed_s" in tally.failures[0]
