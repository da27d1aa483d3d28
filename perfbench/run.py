"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seq_single_as --seed 0 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off:
set-up time, the timed part's wall and work done per second, each the
median over the reps that fit in ``--seconds`` and restated at a
reference host speed (see ``hostspeed``; the walls of the multi-process
workload stay plain wall seconds), and the peak RSS of the set-up and
the first timed run. ``--trace 1``
runs the traced session instead and reports the per-layer ledger, whose
entries plus ``unattributed_s`` add up to the traced wall, and prints it
as a waterfall.

Every rep checks its output against an oracle and against the first
rep (the determinism guard). A rep that raises, hits the mp window
timeout or fails a check counts in ``failed`` and the run goes on. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostspeed import REF_PROBE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"

#: A fresh rep sets up at least once, then again until SETUP_SHARE of the
#: previous rep's wall is spent (at most SETUP_MAX_REPS times), so the
#: set-up samples spread over the whole measuring time like the walls do.
SETUP_SHARE = 0.1
SETUP_MAX_REPS = 1000


# ----------------------------------------------------------------------
# failure accounting and the determinism guard
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed runs of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first: dict[str, object] = {}

    def attempt(self, label: str, fn):
        """Run ``fn``; a failure is counted and logged, never raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed run must not end the bench
            traceback.print_exc(file=sys.stderr)
            self._fail(label, exc)
        return None

    def _fail(self, label: str, exc: Exception) -> None:
        self.failed += 1
        msg = f"{label}: {type(exc).__name__}: {exc}"
        self.failures.append(msg)
        print(f"FAILED {msg}", file=sys.stderr)

    def same(self, key: str, value) -> None:
        """The determinism guard: ``value`` must equal the first one seen."""
        from workloads import CheckFailed

        first = self._first.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key} changed between runs: {first!r} -> {value!r}")


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# end-to-end measurement (tracing off)
# ----------------------------------------------------------------------
def measure(wl, seconds: float, tally: Tally) -> dict:
    """Median set-up, wall and work rate over the reps that fit in ``seconds``.

    Every time is in reference seconds (see ``hostspeed``): the host's
    speed is probed throughout the set-ups, and throughout the timed runs
    of a workload that runs in this process. The runs of a multi-process
    workload are not probed, and their walls are plain wall seconds.

    ``peak_rss_mb`` is read once, right after the first timed run and
    before its check, so the oracle and twin runs of the checks (and
    workers forked from a heap that holds them) are not in it.
    """
    from workloads import keep_going, timed

    speed = HostSpeed()
    setups: list[tuple[float, float]] = []
    runs: list[tuple[float, float, int]] = []
    walls: list[float] = []
    peak: list[float] = []

    def set_up():
        t = timed(wl.setup)
        setups.append((t.start, t.end))
        tally.same("setup", wl.setup_fingerprint(t.value))
        return t.value

    state = None

    def rep(fresh: bool):
        nonlocal state
        if fresh or state is None:
            budget = SETUP_SHARE * (walls[-1] if walls else 0.0)
            with nullcontext() if wl.in_process else speed.probing():
                spent = time.perf_counter()
                state = set_up()
                n = 1
                while time.perf_counter() - spent < budget and n < SETUP_MAX_REPS:
                    state = set_up()
                    n += 1
        # Garbage left by the set-ups and the previous rep is collected
        # here, not inside the timed part.
        gc.collect()
        run = timed(wl.run, state)
        if not peak:
            peak.append(peak_rss_mb())
        fp = wl.check(state, run.value)
        tally.same("run", fp)
        walls.append(run.seconds)
        runs.append((run.start, run.end, wl.work(fp)))

    start = time.perf_counter()
    fresh = True
    full = 0.0
    i = 0
    with speed.probing() if wl.in_process else nullcontext():
        while True:
            t0 = time.perf_counter()
            tally.attempt(f"rep {i}", lambda: rep(fresh))
            i += 1
            if fresh:
                full = time.perf_counter() - t0
            # A rep sets up afresh while a whole rep still fits. When only
            # a run fits and the run does not consume its state, one more
            # run on the last state takes the time left, so that a slow
            # set-up (plan_single_as) does not cost the wall median a sample.
            if keep_going(start, full, seconds):
                fresh = True
            elif not wl.single_use and walls and keep_going(start, walls[-1], seconds):
                fresh = False
            else:
                break
    if wl.has_twin:
        tally.attempt("twin", lambda: tally.same("run", wl.twin()))
    if not runs:
        return {}
    ref_walls = [
        speed.ref_seconds(a, b) if wl.in_process else b - a for a, b, _ in runs
    ]
    print(f"host probe median {speed.probe_ms():.4f} ms over "
          f"{len(speed.durations)} probes (reference {1e3 * REF_PROBE_S:g} ms)")
    print("rep walls " + " ".join(f"{w:.4f}" for w in ref_walls)
          + (" ref s" if wl.in_process else " s"))
    return {
        "setup_s": statistics.median(speed.ref_seconds(a, b) for a, b in setups),
        "wall_s": statistics.median(ref_walls),
        "work_per_s": statistics.median(
            work / wall for (_, _, work), wall in zip(runs, ref_walls)
        ),
        "peak_rss_mb": peak[0],
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts without ``.git``."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(wl, args) -> dict:
    from workloads import PROCS, START_METHOD, MpChain

    nproc = os.cpu_count() or 1
    procs = PROCS if isinstance(wl, MpChain) else 1
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "start_method": START_METHOD if procs > 1 else None,
        "procs": procs,
        "work_unit": wl.work_unit,
        "oversubscribed": procs > nproc,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SPEC_FILE.is_file() and (ROOT / "src" / "repro" / "__init__.py").is_file()):
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    prov = provenance(wl, args)
    print("provenance " + json.dumps(prov))
    if prov["oversubscribed"]:
        print(f"WARNING procs={prov['procs']} exceeds nproc={prov['nproc']}")

    tally = Tally()
    if args.trace:
        metrics = traced.session(wl, args.seconds, tally)
        declared = spec["per_layer"]
    else:
        metrics = measure(wl, args.seconds, tally)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}
    for name, m in out.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"metric failed_runs = {tally.failed}/{tally.attempted} runs")
    correct = bool(out) and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
