"""Per-layer time ledgers: a traced wall split into named ``repro`` layers.

Two sources feed a ledger, both read from outside the program:

* :func:`profile_call` runs a callable under ``cProfile`` and charges each
  function's own time to the ``repro`` module it lives in. Time in a
  builtin, the standard library or numpy goes to the nearest ``repro``
  caller, split over its callers in proportion to the time each call
  edge carried. Shares of the profiled time are scaled to the traced
  wall, so ``cProfile``'s own cost inflates the wall (reported as
  ``trace_overhead``) but not any one layer's share.
* The multi-process workloads read the per-window spans the mp backend
  records when its tracer is on (``MeasuredWindowRecord``).

A ledger maps layer names to seconds. Its entries plus ``unattributed_s``
add up exactly to the traced wall; sub-module entries (``netsim.link``)
break a module entry (``netsim``) down further and are not summed again.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path

from repro.obs.trace import get_tracer

#: The repository's top-level modules, in the order the waterfall prints.
MODULES = (
    "topology", "routing", "netsim", "online", "engine", "serialization",
    "partition", "core", "profilers", "experiments", "obs",
)

#: Layer -> end-to-end metric map and per-workload notes.
LAYER_MAP = json.loads(
    (Path(__file__).resolve().parent / "layer_map.json").read_text()
)

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep


def repro_module(filename: str) -> str | None:
    """``netsim.link`` for ``.../src/repro/netsim/link.py``; None outside repro.

    Sub-packages stop at the package (``netsim/app/http.py`` is
    ``netsim.app``); a package's ``__init__`` counts as the package.
    """
    at = filename.find(_SRC_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_SRC_MARK):].removesuffix(".py").split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts[:2]) if parts else None


class Profiled:
    """A ``cProfile`` run reduced to per-module own time and call counts."""

    def __init__(self, stats: dict, wall_s: float) -> None:
        self.wall_s = wall_s
        self._stats = stats
        self.own: dict[str, float] = {}
        self.unattributed = 0.0
        memo: dict = {}
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            owners = self._owners(func, memo, set())
            for module, share in owners.items():
                self.own[module] = self.own.get(module, 0.0) + tt * share
            if not owners:
                self.unattributed += tt
        self.total = sum(self.own.values()) + self.unattributed

    def _owners(self, func, memo: dict, active: set) -> dict[str, float]:
        """Share of ``func``'s own time that each repro module is charged."""
        if func in memo:
            return memo[func]
        module = repro_module(func[0])
        if module is not None:
            memo[func] = {module: 1.0}
            return memo[func]
        if func in active:
            return {}
        active.add(func)
        callers = self._stats[func][4]
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            # Calls too short to time: split evenly by call count instead.
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0 or caller not in self._stats:
                continue
            for mod, share in self._owners(caller, memo, active).items():
                out[mod] = out.get(mod, 0.0) + share * weight / total
        active.discard(func)
        memo[func] = out
        return out

    def calls(self, module: str, funcname: str) -> int:
        """Primitive call count of ``module``'s function ``funcname``."""
        return sum(
            nc
            for (filename, _line, name), (_cc, nc, *_rest) in self._stats.items()
            if name == funcname and repro_module(filename) == module
        )

    def ledger(self, sub_layers: tuple[str, ...]) -> dict[str, float]:
        """Seconds per layer, scaled so entries + unattributed = wall."""
        scale = self.wall_s / self.total if self.total > 0 else 0.0
        out = {}
        for top in MODULES:
            out[f"{top}.self_s"] = scale * sum(
                s for m, s in self.own.items() if m.split(".")[0] == top
            )
        for sub in sub_layers:
            out[f"{sub}.self_s"] = scale * self.own.get(sub, 0.0)
        # Time charged to repro modules outside MODULES (cluster, metrics)
        # is reported with the unattributed remainder.
        out["unattributed_s"] = self.wall_s - sum(
            out[f"{top}.self_s"] for top in MODULES
        )
        return out


def profile_call(fn):
    """Run ``fn()`` under ``cProfile``; returns ``(value, Profiled)``."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        value = fn()
    finally:
        prof.disable()
    wall_s = time.perf_counter() - t0
    return value, Profiled(pstats.Stats(prof).stats, wall_s)


#: Span kind of a timed ``Connection.send`` (see :func:`pipe_send_spans`).
PIPE_SEND = "bench.pipe_send"


@contextmanager
def pipe_send_spans():
    """Record every ``Connection.send`` as a span in the sender's tracer.

    Installed in the controller before the workers fork, so each worker
    inherits it and records the pipe sends its window spans leave out.
    The trace snapshot a worker ships with its result carries them back.
    """
    original = Connection.send

    def send(self, obj):
        tracer = get_tracer()
        token = tracer.span_begin()
        original(self, obj)
        tracer.span_end(token, PIPE_SEND)

    Connection.send = send
    try:
        yield
    finally:
        Connection.send = original


def span_ledger(result, start_s: float, end_s: float) -> dict[str, float]:
    """Per-worker span totals of an mp run called at ``start_s``, back at ``end_s``.

    Each worker spends every window executing, encoding mail, sending it,
    waiting at the barrier and decoding; the time before its first window
    and after its last (start-up, replicated build, collection, teardown)
    is ``outside_windows_s``. All are means over the workers, so with the
    unspanned remainder inside windows they add up to the wall. Also
    returns per-window wall quantiles (max over workers).
    """
    snaps = result.trace_snapshots
    windows = len(result.window_stats)
    out = dict.fromkeys(SPAN_PARTS, 0.0)
    per_window: dict[int, float] = {}
    for snap in snaps:
        recs = sorted(snap.measured, key=lambda r: r.window_index)
        sends = sorted(
            (sp for sp in snap.spans if sp.kind == PIPE_SEND), key=lambda sp: sp.start_s
        )
        if len(recs) != windows or len(sends) != windows:
            raise ValueError(
                f"worker recorded {len(recs)} window spans and {len(sends)} sends "
                f"for {windows} windows (trace ring too small?)"
            )
        first, last = recs[0], recs[-1]
        phase_start = sends[0].start_s - first.execute_s - first.mail_encode_s
        phase_end = sends[-1].end_s + last.barrier_wait_s + last.mail_decode_s
        out["engine.parallel.execute_s"] += sum(r.execute_s for r in recs)
        out["serialization.mail_encode_s"] += sum(r.mail_encode_s for r in recs)
        out["engine.parallel.pipe_send_s"] += sum(sp.elapsed_s for sp in sends)
        out["engine.parallel.barrier_wait_s"] += sum(r.barrier_wait_s for r in recs)
        out["serialization.mail_decode_s"] += sum(r.mail_decode_s for r in recs)
        out["engine.parallel.outside_windows_s"] += (
            phase_start - start_s + end_s - phase_end
        )
        for r, sp in zip(recs, sends):
            wall = r.total_s + sp.elapsed_s
            per_window[r.window_index] = max(per_window.get(r.window_index, 0.0), wall)
    out = {k: v / len(snaps) for k, v in out.items()}
    walls = sorted(per_window.values())
    out["engine.parallel.window_p50_ms"] = 1e3 * quantile(walls, 0.50)
    out["engine.parallel.window_p99_ms"] = 1e3 * quantile(walls, 0.99)
    return out


#: The span entries that are parts of the wall, in window order.
SPAN_PARTS = (
    "engine.parallel.outside_windows_s",
    "engine.parallel.execute_s",
    "serialization.mail_encode_s",
    "engine.parallel.pipe_send_s",
    "engine.parallel.barrier_wait_s",
    "serialization.mail_decode_s",
)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    idx = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[idx]


def waterfall(workload: str, wall_s: float, parts: dict[str, float],
              sub_parts: dict[str, float], overhead: float) -> str:
    """The traced run's ledger as text: layer, seconds, share, metric fed.

    ``parts`` must add up to ``wall_s`` together with ``unattributed_s``;
    ``sub_parts`` are indented under the module they break down.
    """
    feeds = LAYER_MAP["feeds"]
    lines = [
        f"waterfall {workload}: traced wall {wall_s:.3f} s "
        f"(trace_overhead {overhead:.2f}x of the untraced wall)",
        f"  {'layer':<40} {'self s':>9} {'share':>7}  feeds",
    ]
    for name, seconds in parts.items():
        lines.append(_row(name, seconds, wall_s, feeds))
        prefix = name.removesuffix(".self_s") + "."
        for sub, sub_s in sub_parts.items():
            if sub.startswith(prefix):
                lines.append(_row("  " + sub, sub_s, wall_s, feeds))
    total = sum(parts.values())
    lines.append(f"  {'sum of layers':<40} {total:>9.3f} {100 * total / wall_s:>6.1f}%")
    return "\n".join(lines)


def _row(name: str, seconds: float, wall_s: float, feeds: dict) -> str:
    key = name.strip()
    return (
        f"  {name:<40} {seconds:>9.3f} {100 * seconds / wall_s:>6.1f}%  "
        f"{feeds.get(key, '')}"
    )
