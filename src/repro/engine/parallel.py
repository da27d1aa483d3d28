"""Multi-process conservative backend: real parallelism, same bytes.

:class:`ParallelConservativeEngine` executes the barrier-window protocol
of :class:`~repro.engine.conservative.ConservativeEngine` across real OS
processes. LPs are sharded over workers (contiguous split, so the
partitioner's locality survives); every worker replays the *identical*
scenario construction, keeps only the events of the LPs it owns, runs
each window with the existing per-LP kernels, and exchanges cross-shard
mail at the barrier — batched per window and serialized through
:mod:`repro.serialization`. There are no null messages: the window
length equals the lookahead, so a barrier per window is sufficient for
causality (the MaSSF/DaSSF composite-synchronization special case where
every channel's lookahead is the global MLL).

Byte-identity with the single-process engine comes from three rules:

1. **Deterministic tiebreak keys.** The global ``seq`` counter cannot
   exist across processes, so events carry ``(epoch, lane, counter)``
   tuples: ``epoch`` is 0 during setup and ``window_index + 1`` during
   execution, ``lane`` is the scheduling LP (0 for setup and control),
   and ``counter`` is a per-worker monotone int. Within one destination
   queue this lexicographic order reproduces the single-process
   ``(time, seq)`` order exactly: phases execute sequentially in the
   single-process engine (setup, then window 0 LP 0, window 0 LP 1, …),
   every ``(epoch >= 1, lane)`` phase has a single producing worker, and
   setup counters align across workers because construction is replayed
   identically everywhere.

2. **Replicated control plane.** Events targeting ``node == -1`` (fault
   injections, other control work) run on LP 0. The worker owning LP 0
   executes them interleaved with LP 0's traffic, exactly like the
   single-process engine; every other worker *replays* them from a
   replica queue before each window, so control-plane mutations (link
   state, forwarding tables, loss probabilities) are visible to all LPs
   with the same window granularity as the sequential schedule, where
   LP 0 runs first in every window. Replica replay discards events it
   would schedule onto real nodes — the owner already emits those as
   mail — so nothing is ever delivered twice.

3. **Shared boundary arithmetic.** Window boundaries come from
   :func:`repro.engine.windows.iter_windows` in every process, so the
   lookahead fence is the identical float everywhere.

What does *not* shard: scenarios whose construction cannot be replayed
per-process (live sockets, the online wrapper layer's process-wide
listener table) and cross-shard event cancellation (all cancellations
in the codebase are LP-local timers). This mirrors the feasibility
boundary reported for distributed BGP simulation — shared mutable
routing/daemon state is the hard part, packet-mediated traffic shards
cleanly (see PAPERS.md).
"""

from __future__ import annotations

import bisect
import importlib
import multiprocessing as mp
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..obs import names as obs_names
from ..obs.distributed import (
    RegistrySnapshot,
    TraceSnapshot,
    configure_worker_observability,
    worker_obs_config,
)
from ..obs.registry import get_registry
from ..obs.timers import Stopwatch
from ..obs.trace import get_tracer
from .calqueue import make_queue
from .conservative import LookaheadViolation
from .events import Event
from .recovery import CheckpointStore, RecoveryExhaustedError, checkpoint_digest
from .windows import WINDOW_EPSILON_FRACTION, WindowStats, iter_windows

__all__ = [
    "ParallelBackendError",
    "WorkerCrashError",
    "ParallelWorkerError",
    "MailOrderError",
    "UnregisteredHandlerError",
    "RecoveryExhaustedError",
    "ScenarioSpec",
    "ShardScenario",
    "ShardEngine",
    "LocalShardGroup",
    "ParallelRunResult",
    "ParallelConservativeEngine",
    "shard_lps",
    "validate_mail_batch",
]


# ----------------------------------------------------------------------
# Typed failure modes
# ----------------------------------------------------------------------
class ParallelBackendError(RuntimeError):
    """Base class for multi-process backend failures."""


class WorkerCrashError(ParallelBackendError):
    """A worker process died or stopped responding at a barrier."""


class ParallelWorkerError(ParallelBackendError):
    """A worker raised; carries the remote traceback text."""

    def __init__(self, shard_id: int, remote_traceback: str) -> None:
        super().__init__(
            f"worker {shard_id} failed remotely:\n{remote_traceback}"
        )
        self.shard_id = shard_id
        self.remote_traceback = remote_traceback


class MailOrderError(ParallelBackendError):
    """Barrier mail arrived behind the barrier time (sender bug)."""


class UnregisteredHandlerError(ParallelBackendError):
    """A cross-shard event's handler has no registered wire name."""


#: Bucket bounds of the per-worker barrier-wait histogram (seconds).
_BARRIER_WAIT_BOUNDS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


# ----------------------------------------------------------------------
# Scenario contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe every worker replays identically.

    ``builder`` names a module-level function as ``"pkg.module:func"``;
    it is called as ``builder(engine, params)`` and must return a
    :class:`ShardScenario`. Builders must be deterministic pure
    functions of ``params`` — any divergence between workers breaks the
    key-alignment argument in the module docstring.
    """

    builder: str
    params: dict = field(default_factory=dict)


@dataclass
class ShardScenario:
    """What a scenario builder hands back to the backend.

    ``handlers`` maps wire names to the bound methods that may cross a
    process boundary inside mail (resolved by name on the receiving
    shard — code objects never travel). ``collect`` is called after the
    last window and must return a picklable result for the controller.

    ``capture_lp`` / ``restore_lp`` are the optional migration hooks the
    online re-balancer uses: ``capture_lp(lp)`` returns a picklable blob
    of the LP's *dynamic* scenario state (link busy horizons, RNG
    states of exclusively-owned links — never counters, never
    control-replicated state), and ``restore_lp(lp, blob)`` applies it
    on the adopting shard. Scenarios without the hooks simply cannot be
    rebalanced mid-run.

    ``capture_shard`` / ``restore_shard`` are the optional checkpoint
    hooks fault-tolerant recovery uses: ``capture_shard()`` returns a
    picklable blob of the *whole* shard's scenario state at a barrier,
    and ``restore_shard(blob)`` applies it onto a freshly rebuilt shard.
    Scenarios without them still checkpoint engine state (pending
    events, clocks, tiebreak counters) but restore with pristine
    scenario dynamics.
    """

    handlers: dict[str, Callable[..., Any]]
    collect: Callable[[], Any] | None = None
    capture_lp: Callable[[int], Any] | None = None
    restore_lp: Callable[[int, Any], None] | None = None
    capture_shard: Callable[[], Any] | None = None
    restore_shard: Callable[[Any], None] | None = None


def shard_lps(num_lps: int, procs: int) -> list[list[int]]:
    """Contiguous LP -> shard split (preserves partitioner locality)."""
    if procs < 1:
        raise ValueError("procs must be >= 1")
    return [part.tolist() for part in np.array_split(np.arange(num_lps), procs)]


def validate_mail_batch(
    items: Sequence[tuple], barrier_time: float, lookahead: float, strict: bool = True
) -> int:
    """Receiver-side causality gate over one window's decoded mail.

    Every item must land at or after the barrier (within the shared
    relative epsilon) — anything earlier means the sender broke the
    lookahead contract and in-window execution order is already lost.
    Returns the violation count; raises :class:`MailOrderError` when
    ``strict``.
    """
    eps = WINDOW_EPSILON_FRACTION * lookahead
    violations = 0
    for item in items:
        time = item[2]
        if time < barrier_time - eps:
            violations += 1
            if strict:
                raise MailOrderError(
                    f"mail event at t={time:.9f} arrives behind the barrier "
                    f"at {barrier_time:.9f} (lookahead {lookahead:.9f}); "
                    "out-of-order cross-shard delivery"
                )
    return violations


# ----------------------------------------------------------------------
# Per-shard engine
# ----------------------------------------------------------------------
class ShardEngine:
    """One worker's view of the conservative engine: the LPs it owns.

    Implements the same scheduler protocol as ``ConservativeEngine``
    (``schedule_at`` / ``schedule`` / ``current_time`` /
    ``next_barrier_time`` / ``lp_of``) so the packet simulator, fault
    injector, and applications run unchanged. Events carry ``(epoch,
    lane, counter)`` tiebreak keys instead of the process-global ``seq``
    (see the module docstring for why the order is identical).
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        owned_lps: Sequence[int],
        strict: bool = True,
        queue: str = "adaptive",
        shard_id: int = 0,
        num_shards: int = 1,
    ) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self.shard_id = int(shard_id)
        self.num_shards = max(int(num_shards), 1)
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= num_lps
        ):
            raise ValueError("assignment references an LP out of range")
        self.num_lps = int(num_lps)
        self.lookahead = float(lookahead)
        self.strict = strict
        owned = sorted(int(lp) for lp in owned_lps)
        if any(lp < 0 or lp >= self.num_lps for lp in owned):
            raise ValueError("owned LP out of range")
        self.owned_lps = owned
        self._local_index = np.full(self.num_lps, -1, dtype=np.int64)
        for i, lp in enumerate(owned):
            self._local_index[lp] = i
        #: True when this shard owns LP 0 and therefore runs the real
        #: control plane (other shards replay a replica of it).
        self.has_control = bool(owned) and owned[0] == 0
        self._queue_kind = queue
        self._queues = [make_queue(queue) for _ in owned]
        self._control_queue = None if self.has_control else make_queue(queue)
        # Cross-LP mail between two LPs of the *same* shard still waits
        # for the barrier, mirroring the single-process mailboxes.
        self._local_mail: list[list[Event]] = [[] for _ in owned]
        self._outbound: list[tuple[int, Event]] = []

        self.now: float = 0.0
        self._window_end: float = 0.0
        self._current_lp: int | None = None
        self._lp_now: float = 0.0
        self._in_replica_control = False
        self._phase_setup = True
        # (epoch, lane, counter) key state: epoch 0 = setup, epoch w+1 =
        # window w; lane = scheduling LP; one monotone counter per
        # worker. The counter also advances for events a replay
        # discards, keeping kept-event keys aligned across workers.
        self._epoch = 0
        self._lane = 0
        self._kcount = 0

        self.events_executed = 0
        self.lookahead_violations = 0
        self.events_this_window = np.zeros(self.num_lps, dtype=np.int64)
        self.remote_this_window = np.zeros(self.num_lps, dtype=np.int64)
        # Cross-SHARD sends only (the subset of remote sends that hit
        # the mail pipes). Placement-aware by construction — after an LP
        # migrates, its mail to its new shard-mates stops counting. The
        # re-balancer's cost model consumes this column; obs keeps the
        # placement-independent cross-LP count above.
        self.xshard_this_window = np.zeros(self.num_lps, dtype=np.int64)

        # Observability hook points, resolved once here (the registry
        # contract: name lookups at construction, guarded writes after).
        # Engine-level instruments mirror ConservativeEngine exactly —
        # each shard records its owned columns, so worker snapshots
        # merged by repro.obs.distributed sum to the single-process
        # values. parallel.* instruments are per-worker (shard-labeled
        # by this engine's shard_id / the worker-events index).
        reg = get_registry()
        self._obs = reg
        self._obs_events = reg.counter(obs_names.ENGINE_EVENTS)
        self._obs_violations = reg.counter(obs_names.ENGINE_LOOKAHEAD_VIOLATIONS)
        self._obs_lp_events = reg.vector_counter(
            obs_names.ENGINE_LP_EVENTS, self.num_lps
        )
        self._obs_lp_remote = reg.vector_counter(
            obs_names.ENGINE_LP_REMOTE_SENDS, self.num_lps
        )
        self._obs_barrier = reg.timer(obs_names.ENGINE_BARRIER_WAIT)
        self._obs_worker_events = reg.vector_counter(
            obs_names.PARALLEL_WORKER_EVENTS, self.num_shards
        )
        self._obs_barrier_hist = reg.histogram(
            obs_names.PARALLEL_BARRIER_WAIT, _BARRIER_WAIT_BOUNDS
        )
        self._obs_mail_bytes = reg.counter(obs_names.PARALLEL_MAIL_BYTES)
        self._obs_window_execute = reg.timer(obs_names.PARALLEL_WINDOW_EXECUTE)
        self._obs_mail_encode = reg.timer(obs_names.PARALLEL_MAIL_ENCODE)
        self._obs_mail_decode = reg.timer(obs_names.PARALLEL_MAIL_DECODE)
        self._trace = get_tracer()

    # -- scheduler protocol -------------------------------------------
    @property
    def current_time(self) -> float:
        """Simulated time within the executing LP (barrier otherwise)."""
        if self._current_lp is not None or self._in_replica_control:
            return self._lp_now
        return self.now

    @property
    def next_barrier_time(self) -> float:
        """End of the current synchronization window."""
        if self._current_lp is not None or self._in_replica_control:
            return self._window_end
        return self.now

    @property
    def execution_cursor(self) -> tuple[int, int]:
        """(epoch, lane) of the executing phase — the global merge key.

        Per-shard logs tagged with this cursor concatenate into the
        exact single-process order under a stable sort: phases run
        sequentially there (setup, then window by window, LP by LP
        inside each window) and each ``(epoch, lane)`` phase executes
        entirely on one shard.
        """
        return (self._epoch, self._lane)

    def lp_of(self, node: int) -> int:
        """The LP owning ``node`` (engine-internal events run on LP 0)."""
        return 0 if node < 0 else int(self.assignment[node])

    def _next_key(self) -> tuple[int, int, int]:
        self._kcount += 1
        return (self._epoch, self._lane, self._kcount)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` on the LP owning ``node``.

        Same causality floors as the single-process engine. The fate of
        the event depends on the phase: during setup everything is
        replayed everywhere and only owned-LP (plus control) events are
        kept; during replica control replay only follow-up *control*
        events are kept; during window execution, off-LP events go to
        the local mailbox or the cross-shard outbound batch.
        """
        executing = self._current_lp is not None or self._in_replica_control
        if not executing:
            if time < self.now:
                raise ValueError("cannot schedule into the past")
        elif time < self._lp_now:
            raise ValueError(
                f"cannot schedule into the executing LP's past "
                f"(t={time:.9f} < LP-local now {self._lp_now:.9f})"
            )
        target_lp = self.lp_of(node)
        ev = Event(time, self._next_key(), fn, args, node)
        local = int(self._local_index[target_lp])
        if self._in_replica_control:
            if node < 0 and self._control_queue is not None:
                self._control_queue.push_event(ev)
            elif local >= 0:
                # A control handler scheduling directly onto an owned
                # node would also run on the owner's shard — delivering
                # here too would execute it twice.
                raise ParallelBackendError(
                    "control replay scheduled onto a real node; control "
                    "handlers must only mutate control-plane state"
                )
            return ev
        if self._current_lp is None:
            # Setup (or barrier-time) scheduling: replicated replay.
            if local >= 0:
                self._queues[local].push_event(ev)
            elif node < 0 and self._control_queue is not None:
                self._control_queue.push_event(ev)
            elif not self._phase_setup:
                raise ParallelBackendError(
                    "cannot schedule onto an unowned LP at a barrier; "
                    "cross-shard events must originate from executing events"
                )
            return ev
        if target_lp == self._current_lp:
            self._queues[local].push_event(ev)
            return ev
        # Cross-LP send during window execution: lookahead fence, then
        # local mailbox (same shard) or outbound mail (other shard).
        if time < self._window_end - WINDOW_EPSILON_FRACTION * self.lookahead:
            self.lookahead_violations += 1
            self._obs_violations.inc()
            if self.strict:
                raise LookaheadViolation(
                    f"cross-LP event at t={time:.9f} lands inside the current "
                    f"window ending at {self._window_end:.9f} "
                    f"(lookahead {self.lookahead:.9f})"
                )
        self.remote_this_window[self._current_lp] += 1
        if local >= 0:
            self._local_mail[local].append(ev)
        else:
            self.xshard_this_window[self._current_lp] += 1
            self._outbound.append((target_lp, ev))
        if self._trace.enabled:
            self._trace.edge(self._current_lp, target_lp, self._lp_now, time)
        return ev

    def schedule(
        self, delay: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule relative to the executing LP's current time."""
        return self.schedule_at(self.current_time + delay, fn, node=node, args=args)

    # -- lifecycle -----------------------------------------------------
    def seal_setup(self) -> None:
        """End the replicated-construction phase; windows may now run."""
        self._phase_setup = False

    def run_window(self, window_index: int, window_end: float) -> int:
        """Execute one synchronization window over the owned LPs.

        Returns the number of events executed (owned LPs only; replica
        control replay is not counted — the owner counts it). Cross-LP
        mail produced during the window waits in the local mailboxes
        (delivered here at the end, like the single-process barrier) or
        in the outbound batch (``drain_outbound``).
        """
        if self._phase_setup:
            raise ParallelBackendError("seal_setup() must run before windows")
        self._epoch = window_index + 1
        self._window_end = window_end
        self.events_this_window[:] = 0
        self.remote_this_window[:] = 0
        self.xshard_this_window[:] = 0
        if self._control_queue is not None:
            self._run_replica_control(window_end)
        executed = 0
        for i, lp in enumerate(self.owned_lps):
            self._current_lp = lp
            self._lane = lp
            n = self._run_lp_queue(i, window_end)
            self.events_this_window[lp] = n
            executed += n
        self._current_lp = None
        self._lane = 0
        barrier_token = self._obs_barrier.start()
        for i, mail in enumerate(self._local_mail):
            for ev in mail:
                self._queues[i].push_event(ev)
            mail.clear()
        self._obs_barrier.stop(barrier_token)
        if self._obs.enabled:
            self._obs_events.inc(int(executed))
            self._obs_lp_events.add_array(self.events_this_window)
            self._obs_lp_remote.add_array(self.remote_this_window)
            self._obs_worker_events.inc(self.shard_id, float(executed))
        if self._trace.enabled:
            self._trace.window(
                window_index,
                self.now,
                window_end,
                self.events_this_window,
                self.remote_this_window,
            )
        self.now = window_end
        self.events_executed += executed
        return executed

    def _run_replica_control(self, window_end: float) -> None:
        # Pre-window replay of the control plane: equivalent to the
        # sequential schedule, where LP 0 (including all control events)
        # runs before every other LP within each window.
        self._in_replica_control = True
        self._lane = 0
        queue = self._control_queue
        while True:
            ev = queue.pop_until(window_end)
            if ev is None:
                break
            self._lp_now = ev.time
            ev.fn(*ev.args)
        self._in_replica_control = False

    def _run_lp_queue(self, local: int, window_end: float) -> int:
        queue = self._queues[local]
        tracer = self._trace
        executed = 0
        while True:
            ev = queue.pop_until(window_end)
            if ev is None:
                break
            self._lp_now = ev.time
            ev.fn(*ev.args)
            executed += 1
            if tracer.enabled:
                tracer.event(ev.time, ev.node)
        return executed

    # -- mail ----------------------------------------------------------
    def drain_outbound(self) -> list[tuple[int, Event]]:
        """Remove and return this window's live cross-shard mail."""
        out = [(lp, ev) for lp, ev in self._outbound if not ev.cancelled]
        self._outbound.clear()
        return out

    def push_remote(self, target_lp: int, ev: Event) -> None:
        """Enqueue a decoded mail event onto an owned LP's queue."""
        local = int(self._local_index[target_lp])
        if local < 0:
            raise ParallelBackendError(
                f"mail for LP {target_lp} routed to a shard that does not own it"
            )
        self._queues[local].push_event(ev)

    @property
    def pending(self) -> int:
        """Live events across owned queues, mailboxes, and outbound."""
        queued = sum(len(q) for q in self._queues)
        mailed = sum(len(m) for m in self._local_mail)
        return queued + mailed + len(self._outbound)

    # -- barrier-time LP migration (online re-partitioning) ------------
    def _reindex_owned(self) -> None:
        self._local_index[:] = -1
        for i, lp in enumerate(self.owned_lps):
            self._local_index[lp] = i

    def release_lp(self, lp: int) -> list[Event]:
        """Disown ``lp`` at a barrier; returns its still-pending events.

        Only callable between windows (at the barrier, after mail
        delivery), when the LP's mailbox is empty and every pending
        event lies at or beyond the barrier. The events keep their
        original ``(epoch, lane, counter)`` keys — migration moves the
        queue, it never re-keys, which is what preserves the global
        merge order. LP 0 never migrates: control-plane ownership is
        structural (``has_control``), not load.
        """
        if lp == 0:
            raise ParallelBackendError(
                "LP 0 owns the control plane and cannot migrate"
            )
        local = int(self._local_index[lp])
        if local < 0:
            raise ParallelBackendError(
                f"cannot release LP {lp}: this shard does not own it"
            )
        if self._current_lp is not None or self._phase_setup:
            raise ParallelBackendError(
                "LP migration is only legal at a barrier"
            )
        if self._local_mail[local]:
            raise ParallelBackendError(
                f"cannot release LP {lp} with undelivered local mail"
            )
        queue = self._queues[local]
        events: list[Event] = []
        while True:
            ev = queue.pop_until(float("inf"))
            if ev is None:
                break
            if not ev.cancelled:
                events.append(ev)
        del self.owned_lps[local]
        del self._queues[local]
        del self._local_mail[local]
        self._reindex_owned()
        return events

    def adopt_lp(self, lp: int, events: Sequence[Event]) -> None:
        """Take ownership of ``lp`` at a barrier with its pending events.

        The inverse of :meth:`release_lp` on the destination shard.
        ``owned_lps`` stays sorted, so within-window LP execution order
        remains ascending — the same order the single-process engine
        interleaves them in.
        """
        if int(self._local_index[lp]) >= 0:
            raise ParallelBackendError(
                f"cannot adopt LP {lp}: this shard already owns it"
            )
        if self._current_lp is not None or self._phase_setup:
            raise ParallelBackendError(
                "LP migration is only legal at a barrier"
            )
        pos = int(np.searchsorted(np.asarray(self.owned_lps), lp))
        self.owned_lps.insert(pos, int(lp))
        self._queues.insert(pos, make_queue(self._queue_kind))
        self._local_mail.insert(pos, [])
        self._reindex_owned()
        for ev in events:
            self._queues[pos].push_event(ev)

    # -- measured observability ----------------------------------------
    def observe_window_walls(
        self,
        window_index: int,
        executed: int,
        execute_s: float,
        barrier_wait_s: float,
        mail_encode_s: float,
        mail_decode_s: float,
        mail_bytes: int,
    ) -> None:
        """Record one window's *measured* wall-clock decomposition.

        Called by :class:`ShardWorker` with externally measured spans
        (the worker owns the stopwatches so the barrier wait includes
        the pipe round-trip, which the engine cannot see). Feeds the
        per-worker ``parallel.*`` instruments and the tracer's measured
        channel; every write is guarded, so an unobserved run records
        nothing.
        """
        if self._obs.enabled:
            self._obs_window_execute.add(execute_s)
            self._obs_barrier_hist.observe(barrier_wait_s)
            self._obs_mail_encode.add(mail_encode_s)
            self._obs_mail_decode.add(mail_decode_s)
            self._obs_mail_bytes.inc(float(mail_bytes))
        self._trace.measured_window(
            window_index,
            self.shard_id,
            execute_s,
            barrier_wait_s,
            mail_encode_s,
            mail_decode_s,
            executed,
            mail_bytes,
        )


# ----------------------------------------------------------------------
# Shard-side protocol steps
# ----------------------------------------------------------------------
def _resolve_builder(path: str) -> Callable[..., ShardScenario]:
    module_name, _, fn_name = path.partition(":")
    if not module_name or not fn_name:
        raise ParallelBackendError(
            f"builder {path!r} must be 'package.module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ParallelBackendError(
            f"builder {path!r}: cannot import its module ({exc})"
        ) from exc
    fn = getattr(module, fn_name, None)
    if fn is None:
        raise ParallelBackendError(f"builder {path!r} not found")
    return fn


def _build_shard(
    engine: ShardEngine, spec: ScenarioSpec
) -> tuple[ShardScenario, dict[Any, str], dict[str, Callable[..., Any]]]:
    """Run the scenario builder and index its wire handlers both ways."""
    scenario = _resolve_builder(spec.builder)(engine, spec.params)
    name_to_fn = dict(scenario.handlers)
    fn_to_name = {}
    for name in sorted(name_to_fn):
        fn_to_name[name_to_fn[name]] = name
    engine.seal_setup()
    return scenario, fn_to_name, name_to_fn


def _wire_name(fn: Callable[..., Any], fn_to_name: dict[Any, str], what: str) -> str:
    """The registered wire name of handler ``fn`` (``what`` ships it)."""
    name = fn_to_name.get(fn)
    if name is None:
        raise UnregisteredHandlerError(
            f"handler {fn!r} is not registered for cross-process {what}; "
            "add it to the scenario's handlers dict"
        )
    return name


def _wire_event(
    item: Sequence, name_to_fn: dict[str, Callable[..., Any]], what: str
) -> Event:
    """Rebuild an event from its ``(node, time, key, handler, args)`` tuple."""
    node, ev_time, key, handler, args = item
    fn = name_to_fn.get(handler)
    if fn is None:
        raise UnregisteredHandlerError(
            f"{what} references unknown handler {handler!r}; sender and "
            "receiver scenarios disagree"
        )
    return Event(ev_time, tuple(key), fn, tuple(args), node)


def _encode_outbound(
    engine: ShardEngine,
    shard_of: Sequence[int],
    fn_to_name: dict[Any, str],
    procs: int,
) -> list[bytes]:
    """Batch and serialize one window's cross-shard mail per destination."""
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    buckets: list[list[tuple]] = [[] for _ in range(procs)]
    for target_lp, ev in engine.drain_outbound():
        buckets[int(shard_of[target_lp])].append(
            (int(target_lp), int(ev.node), ev.time, ev.seq,
             _wire_name(ev.fn, fn_to_name, "mail"), ev.args)
        )
    return [ser.encode_mail_batch(b) if b else b"" for b in buckets]


def _deliver_encoded_mail(
    engine: ShardEngine,
    payloads: Sequence[bytes],
    barrier_time: float,
    name_to_fn: dict[str, Callable[..., Any]],
) -> None:
    """Decode, validate, and enqueue one window's inbound mail."""
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    items: list[tuple] = []
    for payload in payloads:
        if payload:
            items.extend(ser.decode_mail_batch(payload))
    engine.lookahead_violations += validate_mail_batch(
        items, barrier_time, engine.lookahead, strict=engine.strict
    )
    for item in items:
        engine.push_remote(item[0], _wire_event(item[1:], name_to_fn, "mail"))


# ----------------------------------------------------------------------
# LP migration wire helpers (online re-partitioning)
# ----------------------------------------------------------------------
def _encode_lp_migration(
    engine: ShardEngine,
    scenario: ShardScenario,
    fn_to_name: dict[Callable, str],
    lp: int,
) -> bytes:
    """Release ``lp`` from ``engine`` and pack it for the control plane.

    The payload carries the LP's still-pending events (re-encoded by
    handler wire name, keeping their original ``(epoch, lane, counter)``
    keys) plus the scenario's opaque ``capture_lp`` state blob. It rides
    the controller pipes via :func:`repro.serialization.encode_migration`
    — never barrier mail, so mail bytes and mail ordering are untouched.
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    items = [
        (int(lp), int(ev.node), ev.time, ev.seq,
         _wire_name(ev.fn, fn_to_name, "LP migration"), ev.args)
        for ev in engine.release_lp(lp)
    ]
    state = scenario.capture_lp(lp) if scenario.capture_lp is not None else None
    return ser.encode_migration({"lp": int(lp), "events": items, "state": state})


def _install_lp_migration(
    engine: ShardEngine,
    scenario: ShardScenario,
    name_to_fn: dict[str, Callable],
    payload_bytes: bytes,
) -> int:
    """Adopt a migrated LP from its wire payload; returns payload size."""
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    payload = ser.decode_migration(payload_bytes)
    lp = int(payload["lp"])
    engine.adopt_lp(
        lp,
        [
            _wire_event(item[1:], name_to_fn, "migration payload")
            for item in payload["events"]
        ],
    )
    if scenario.restore_lp is not None and payload.get("state") is not None:
        scenario.restore_lp(lp, payload["state"])
    return len(payload_bytes)


#: bucket bounds of the blame-concentration histogram — shared between
#: eager registration and per-migration recording (histograms only
#: merge across identical bounds)
_CONCENTRATION_BOUNDS = (0.25, 0.5, 0.75, 0.9, 1.0)


def _record_migration_obs(decision, state_bytes: int) -> None:
    """Controller-side rebalance instruments + trace record (obs-gated)."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter(obs_names.REBALANCE_MIGRATIONS).inc()
    reg.counter(obs_names.REBALANCE_STATE_BYTES).inc(float(state_bytes))
    reg.histogram(
        obs_names.REBALANCE_CONCENTRATION, _CONCENTRATION_BOUNDS
    ).observe(float(decision.concentration))
    get_tracer().migration(
        decision.window_index,
        decision.lp,
        decision.src_shard,
        decision.dst_shard,
        decision.concentration,
        decision.predicted_gain_s,
        state_bytes,
    )


def _record_rebalance_counters(rebalancer, prev: tuple[int, int]) -> tuple[int, int]:
    """Flush trigger/candidate-count deltas into registry counters."""
    reg = get_registry()
    triggers, scored = rebalancer.triggers, rebalancer.candidates_scored
    if reg.enabled:
        if triggers > prev[0]:
            reg.counter(obs_names.REBALANCE_TRIGGERS).inc(float(triggers - prev[0]))
        if scored > prev[1]:
            reg.counter(obs_names.REBALANCE_CANDIDATES).inc(float(scored - prev[1]))
    return triggers, scored


# ----------------------------------------------------------------------
# Checkpoint / recovery helpers (fault-tolerant execution)
# ----------------------------------------------------------------------
class _AdoptionNeeded(Exception):
    """Internal: respawns exhausted, degrade by adopting the dead shard."""

    def __init__(self, shard_id: int):
        super().__init__(f"shard {shard_id} needs adoption")
        self.shard_id = int(shard_id)


def _snapshot_queue_items(queue, fn_to_name: dict[Any, str]) -> list[tuple]:
    """Non-destructively list one queue's live events by wire name.

    Entries come back in canonical ``(time, key)`` order so the encoded
    checkpoint (and therefore its digest) is independent of the queue
    backend's internal layout.
    """
    entries = queue.drain_entries()
    queue.extend_entries(entries)
    live = [e for e in entries if not e[2].cancelled]
    live.sort(key=lambda e: (e[0], e[1]))
    return [
        (int(ev.node), ev.time, tuple(ev.seq),
         _wire_name(ev.fn, fn_to_name, "checkpoints"), ev.args)
        for _time, _key, ev in live
    ]


def _capture_engine_state(
    engine: ShardEngine, fn_to_name: dict[Any, str]
) -> dict[str, Any]:
    """Snapshot the shard engine's dynamic state at an empty barrier."""
    if engine._outbound or any(engine._local_mail):
        raise ParallelBackendError(
            "checkpoint capture requires an empty barrier "
            "(undelivered mail is pending)"
        )
    queues = {
        int(lp): _snapshot_queue_items(engine._queues[i], fn_to_name)
        for i, lp in enumerate(engine.owned_lps)
    }
    control = (
        _snapshot_queue_items(engine._control_queue, fn_to_name)
        if engine._control_queue is not None
        else None
    )
    return {
        "now": float(engine.now),
        "kcount": int(engine._kcount),
        "events_executed": int(engine.events_executed),
        "lookahead_violations": int(engine.lookahead_violations),
        "owned_lps": [int(lp) for lp in engine.owned_lps],
        "queues": queues,
        "control": control,
    }


def _restore_engine_state(
    engine: ShardEngine,
    state: dict[str, Any],
    name_to_fn: dict[str, Callable[..., Any]],
) -> None:
    """Overwrite a freshly built shard engine with checkpointed state."""
    if [int(lp) for lp in engine.owned_lps] != list(state["owned_lps"]):
        raise ParallelBackendError(
            "checkpoint owned-LP set does not match the rebuilt engine"
        )

    def _reload(queue, items):
        queue.drain_entries()
        for item in items:
            queue.push_event(_wire_event(item, name_to_fn, "checkpoint"))

    for i, lp in enumerate(engine.owned_lps):
        _reload(engine._queues[i], state["queues"][int(lp)])
    if engine._control_queue is not None:
        _reload(engine._control_queue, state["control"] or [])
    engine.now = float(state["now"])
    engine._kcount = int(state["kcount"])
    engine.events_executed = int(state["events_executed"])
    engine.lookahead_violations = int(state["lookahead_violations"])


def _encode_worker_checkpoint(
    engine: ShardEngine,
    scenario: ShardScenario,
    fn_to_name: dict[Any, str],
    window_index: int,
    mail_bytes: int,
) -> bytes:
    """Pack one shard's full barrier state into a checkpoint blob.

    The whole payload goes through a single pickle so aliasing among
    events and packets survives the round trip exactly.
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    payload = {
        "shard_id": int(engine.shard_id),
        "window_index": int(window_index),
        "owned_lps": [int(lp) for lp in engine.owned_lps],
        "engine": _capture_engine_state(engine, fn_to_name),
        "shard_state": (
            scenario.capture_shard() if scenario.capture_shard is not None else None
        ),
        "acc": {"mail_bytes": int(mail_bytes)},
    }
    return ser.encode_checkpoint(payload)


def _restore_shard_from_blob(
    blob: bytes,
    assignment,
    num_lps: int,
    lookahead: float,
    spec: ScenarioSpec,
    strict: bool,
    queue: str,
    procs: int,
):
    """Rebuild a shard from a checkpoint: fresh setup replay + restore.

    Returns ``(engine, scenario, fn_to_name, name_to_fn, payload)``.
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    payload = ser.decode_checkpoint(blob)
    engine = ShardEngine(
        assignment,
        num_lps,
        lookahead,
        payload["owned_lps"],
        strict=strict,
        queue=queue,
        shard_id=int(payload["shard_id"]),
        num_shards=procs,
    )
    scenario, fn_to_name, name_to_fn = _build_shard(engine, spec)
    _restore_engine_state(engine, payload["engine"], name_to_fn)
    if scenario.restore_shard is not None and payload.get("shard_state") is not None:
        scenario.restore_shard(payload["shard_state"])
    return engine, scenario, fn_to_name, name_to_fn, payload


def _adoption_installs(dead_blob: bytes) -> dict[int, bytes]:
    """Turn a dead shard's checkpoint into per-LP migration payloads.

    Reuses the re-partitioning wire format (`encode_migration`), so the
    adopting survivor installs the orphaned LPs with the exact same code
    path a planned migration uses. The dead shard's replica control
    queue is *not* shipped — every survivor replays the identical
    control schedule already.
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    payload = ser.decode_checkpoint(dead_blob)
    engine_state = payload["engine"]
    shard_state = payload.get("shard_state") or {}
    lp_states = shard_state.get("lp", {})
    installs: dict[int, bytes] = {}
    for lp in engine_state["owned_lps"]:
        lp = int(lp)
        items = [
            (lp, node, ev_time, key, handler, args)
            for node, ev_time, key, handler, args in engine_state["queues"][lp]
        ]
        installs[lp] = ser.encode_migration(
            {"lp": lp, "events": items, "state": lp_states.get(lp)}
        )
    return installs


def _synthesize_dead_result(blob: bytes | None) -> dict[str, Any]:
    """Stand-in `done` result for an adopted (dead) shard.

    Its partial sums come from the last committed checkpoint; the
    adopter re-accumulates everything after the commit point, so the
    merged totals still match an uninterrupted run. With no commit yet
    the dead shard contributes nothing (the survivors recompute the
    whole run from window 0).
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    if blob is None:
        return {
            "collect": None,
            "events_executed": 0,
            "lookahead_violations": 0,
            "barrier_wait_s": 0.0,
            "mail_bytes": 0,
        }
    payload = ser.decode_checkpoint(blob)
    engine_state = payload["engine"]
    shard_state = payload.get("shard_state") or {}
    return {
        "collect": shard_state.get("collect"),
        "events_executed": int(engine_state["events_executed"]),
        "lookahead_violations": int(engine_state["lookahead_violations"]),
        "barrier_wait_s": 0.0,
        "mail_bytes": int(payload["acc"]["mail_bytes"]),
    }


def _record_recovery_obs(kind: str, window_index: int, shard_id: int, **detail) -> None:
    """Controller-side recovery instruments + trace record (obs-gated)."""
    reg = get_registry()
    if reg.enabled:
        if kind == "checkpoint":
            reg.counter(obs_names.RECOVERY_CHECKPOINTS).inc()
            reg.counter(obs_names.RECOVERY_CHECKPOINT_BYTES).inc(
                float(detail.get("nbytes", 0))
            )
        elif kind == "detect":
            reg.counter(obs_names.RECOVERY_DETECTIONS).inc()
        elif kind == "respawn":
            reg.counter(obs_names.RECOVERY_RESPAWNS).inc()
            reg.counter(obs_names.RECOVERY_REPLAYED).inc(
                float(detail.get("replayed", 0))
            )
        elif kind == "adopt":
            reg.counter(obs_names.RECOVERY_ADOPTIONS).inc()
    get_tracer().recovery_step(window_index, shard_id, kind, **detail)


def _worker_lost(
    shard_id: int, what: str, exitcode: int | None, hung: bool = False
) -> WorkerCrashError:
    """Build a typed `WorkerCrashError` carrying shard/exit diagnostics."""
    state = "process still alive: hang suspected" if hung else f"exitcode {exitcode}"
    err = WorkerCrashError(f"worker {shard_id} {what} ({state})")
    err.shard_id = shard_id
    err.exitcode = exitcode
    err.hung = hung
    return err


class _PlannedFault(Exception):
    """A fault-plan entry fired: the worker dies here, as ``kind`` says."""

    def __init__(self, kind) -> None:
        super().__init__(kind)
        self.kind = kind


def _check_message(msg: tuple, sender: str, kind: str, window: int | None = None):
    """The barrier protocol's one desync check; returns ``msg``."""
    if msg[0] != kind or (window is not None and msg[1] != window):
        expected = kind if window is None else f"{kind} {window}"
        raise ParallelBackendError(
            f"barrier protocol desync: {sender} sent {msg[:2]!r}, "
            f"expected {expected}"
        )
    return msg


# ----------------------------------------------------------------------
# Worker: one shard's side of the barrier protocol
# ----------------------------------------------------------------------
class ShardWorker:
    """One shard's side of the barrier protocol, advanced by messages.

    :meth:`start` builds (or restores) the shard and runs until the
    worker first needs the controller; :meth:`handle` consumes one
    controller message and runs until the next. Replies leave through
    ``send``. A transport drives the worker: a pipe loop in a worker
    process (:func:`_worker_main`) or direct calls in the controller's
    process (:class:`_InProcessTransport`) — the protocol is this one
    class either way.

    Per window the worker sends ``("window", w, payloads, events_col,
    remote_col, xshard_col)`` and then expects ``("mail", w,
    payloads)`` carrying everyone's mail for it.

    When the config carries an ``obs`` stanza the worker enables its
    own process-global registry/tracer, measures per-window wall-clock
    spans, and appends a registry + trace snapshot to the ``done``
    result (with ``incremental`` on, also a per-window registry delta as
    a seventh element of each window tuple). With obs off, none of that
    code runs and every message is byte-identical to a build without
    the observability layer — mail adds zero bytes.

    When the config carries a ``rebalance`` stanza the mail message
    grows a fourth element — ``None`` or a migration plan ``[(lp, src,
    dst), ...]`` decided by the controller. On a plan, the worker first
    delivers its mail (routed by the *old* placement, so inbound events
    land in the departing LP's queue before extraction), then updates
    its local ``shard_of``, sends ``("migrate", w, {lp: payload})`` for
    LPs it releases (empty dict otherwise), and expects ``("install",
    w, {lp: payload})`` carrying LPs it adopts. Payload bytes ride
    these control messages only — never barrier mail. With ``source ==
    "measured"`` the worker additionally appends its measured execute
    seconds as the *last* element of every window message (measured
    regardless of obs, since the controller's blame needs it).

    When the config carries a ``recovery`` stanza the worker sends
    ``("ckpt", w, digest, blob)`` after the mail round of every cadence
    window, raises :class:`_PlannedFault` where its slice of the fault
    plan says the worker dies (the transport carries the death out), and
    understands two extra inbound shapes: a config ``resume`` block
    (restore from a checkpoint blob, then privately replay
    controller-retained mail up to the crash frontier) and a
    ``("rollback", c, blob, installs, shard_of)`` message in place of
    mail (restore to the committed window ``c`` and rejoin at ``c + 1``
    — the degraded-adoption path). Checkpoint bytes ride these control
    messages only, never barrier mail, and with the stanza absent every
    wire message is byte-identical to a build without recovery.
    """

    def __init__(self, config: dict[str, Any], send: Callable[[tuple], None]) -> None:
        self.config = config
        self._send = send
        self.shard_id = int(config["shard_id"])
        obs_cfg = config.get("obs")
        self.obs_on = configure_worker_observability(obs_cfg)
        self.incremental = self.obs_on and bool(obs_cfg.get("incremental"))
        rec_cfg = config.get("recovery") or {}
        #: checkpoint cadence in windows; 0 means recovery is off
        self.ckpt_every = int(rec_cfg.get("checkpoint_every_n_windows", 0))
        plan = rec_cfg.get("fault_plan")
        self.faults = plan.for_shard(self.shard_id) if plan is not None else ()
        self.incarnation = int(config.get("incarnation", 0))
        rb_cfg = config.get("rebalance") or {}
        self.rb_measured = rb_cfg.get("source") == "measured"
        self.measure_exec = self.obs_on or self.rb_measured
        self.shard_of = list(config["shard_of"])
        self.boundaries = list(
            iter_windows(0.0, config["lookahead"], config["until"])
        )
        self.label = f"worker-{self.shard_id}"
        self.barrier_wait_s = 0.0
        self.obs_bytes = 0
        self.mail_bytes = 0
        self.next_w = 0
        self.finished = False
        self._expect = ("mail", -1)
        self._clock = Stopwatch()
        self._waiting = Stopwatch()
        self._prev_snap = None
        # Spans of the window in flight, recorded once its round ends.
        self._spans: tuple = ()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Build or restore the shard, replay, and report the first window."""
        from .. import serialization as ser  # deferred: serialization -> core -> engine

        resume = self.config.get("resume") or {}
        if resume.get("checkpoint") is not None:
            self._restore(resume["checkpoint"])
        else:
            self._build(self.config["owned_lps"])
        if self.incremental:
            self._prev_snap = RegistrySnapshot.capture(
                shard_id=self.shard_id, label=self.label
            )
        if resume.get("replay"):
            # Private replay after a respawn: re-run the crashed windows
            # from controller-retained mail. Regenerated outbound mail is
            # counted (the totals must match an uninterrupted run) but
            # discarded — the live recipients consumed the originals.
            for rw, inbound in ser.decode_replay_buffer(resume["replay"]):
                rw = int(rw)
                self._maybe_fire_fault(rw, after_send=False)
                _rw, _rs, rend = self.boundaries[rw]
                self.engine.run_window(rw, rend)
                payloads = self._encode_outbound()
                self.mail_bytes += sum(len(p) for p in payloads)
                self._maybe_fire_fault(rw, after_send=True)
                _deliver_encoded_mail(self.engine, inbound, rend, self.name_to_fn)
                self.next_w = rw + 1
        self._run_next_window()

    def handle(self, msg: tuple) -> None:
        """Consume one controller message and run until the next one."""
        kind, w = self._expect
        if kind == "mail":
            wait_s = self._waiting.elapsed()
            self.barrier_wait_s += wait_s
            if self.ckpt_every and msg[0] == "rollback":
                self._rollback(msg)
                self._run_next_window()
                return
        _check_message(msg, "controller", kind, w)
        if kind == "install":
            self._install(msg[2])
            self._end_round(w)
            return
        if self.obs_on:
            self._clock.restart()
        _deliver_encoded_mail(
            self.engine, msg[2], self.boundaries[w][2], self.name_to_fn
        )
        self._spans += (wait_s, self._clock.elapsed() if self.obs_on else 0.0)
        plan = msg[3] if len(msg) > 3 else None  # rebalancing runs only
        if plan:
            outgoing: dict[int, bytes] = {}
            for lp, src, dst in plan:
                lp = int(lp)
                if int(src) == self.shard_id:
                    outgoing[lp] = _encode_lp_migration(
                        self.engine, self.scenario, self.fn_to_name, lp
                    )
                self.shard_of[lp] = int(dst)
            self._send(("migrate", w, outgoing))
            self._expect = ("install", w)
            return
        self._end_round(w)

    # -- protocol steps --------------------------------------------------
    def _build(self, owned: Sequence[int]) -> None:
        c = self.config
        self.engine = ShardEngine(
            c["assignment"],
            c["num_lps"],
            c["lookahead"],
            owned,
            strict=c["strict"],
            queue=c["queue"],
            shard_id=self.shard_id,
            num_shards=c["procs"],
        )
        self.scenario, self.fn_to_name, self.name_to_fn = _build_shard(
            self.engine, c["spec"]
        )
        self.mail_bytes = 0
        self.next_w = 0

    def _restore(self, blob: bytes) -> None:
        c = self.config
        self.engine, self.scenario, self.fn_to_name, self.name_to_fn, payload = (
            _restore_shard_from_blob(
                blob,
                c["assignment"],
                c["num_lps"],
                c["lookahead"],
                c["spec"],
                c["strict"],
                c["queue"],
                c["procs"],
            )
        )
        self.mail_bytes = int(payload["acc"]["mail_bytes"])
        self.next_w = int(payload["window_index"]) + 1

    def _rollback(self, msg: tuple) -> None:
        # ("rollback", c, blob, installs, shard_of): a sibling died and
        # respawns are exhausted — every survivor rewinds to the
        # committed checkpoint window c, the adopter additionally
        # installs the dead shard's LPs.
        _kind, _c, blob, installs, shard_of = msg
        if blob is not None:
            self._restore(blob)
        else:
            # Nothing committed yet: restart from window 0 with the
            # post-adoption placement (the adopter owns the dead shard's
            # LPs from setup — there is no state to install).
            self._build(
                [lp for lp, s in enumerate(shard_of) if int(s) == self.shard_id]
            )
        self._install(installs)
        self.shard_of = [int(s) for s in shard_of]

    def _install(self, payloads: dict[int, bytes]) -> None:
        """Adopt migrated LPs from their wire payloads, in LP order."""
        for lp in sorted(payloads):
            _install_lp_migration(
                self.engine, self.scenario, self.name_to_fn, payloads[lp]
            )

    def _encode_outbound(self) -> list[bytes]:
        return _encode_outbound(
            self.engine, self.shard_of, self.fn_to_name, self.config["procs"]
        )

    def _maybe_fire_fault(self, window_index: int, after_send: bool) -> None:
        for pf in self.faults:
            if (
                pf.window == window_index
                and pf.incarnation == self.incarnation
                and bool(pf.after_send) == after_send
            ):
                raise _PlannedFault(pf.kind)

    def _run_next_window(self) -> None:
        """Run and report the next window, or report the finished shard."""
        if self.next_w >= len(self.boundaries):
            self._finish()
            return
        w, _start, end = self.boundaries[self.next_w]
        self._maybe_fire_fault(w, after_send=False)
        clock = self._clock
        if self.measure_exec:
            clock.restart()
        executed = self.engine.run_window(w, end)
        execute_s = clock.elapsed() if self.measure_exec else 0.0
        if self.obs_on:
            clock.restart()
        payloads = self._encode_outbound()
        encode_s = clock.elapsed() if self.obs_on else 0.0
        window_mail = sum(len(p) for p in payloads)
        self.mail_bytes += window_mail
        self._spans = (executed, execute_s, encode_s, window_mail)
        message = (
            "window",
            w,
            payloads,
            self.engine.events_this_window.tolist(),
            self.engine.remote_this_window.tolist(),
            self.engine.xshard_this_window.tolist(),
        )
        if self.incremental:
            # deferred: serialization -> core -> engine
            from .. import serialization as ser

            snap = RegistrySnapshot.capture(shard_id=self.shard_id, label=self.label)
            delta = ser.encode_snapshot(snap.diff(self._prev_snap))
            self._prev_snap = snap
            self.obs_bytes += len(delta)
            message = message + (delta,)
        if self.rb_measured:
            message = message + (execute_s,)
        self._send(message)
        self._maybe_fire_fault(w, after_send=True)
        self._expect = ("mail", w)
        self._waiting.restart()

    def _end_round(self, w: int) -> None:
        """Close window ``w``'s barrier round, then run the next window."""
        if self.ckpt_every and (w + 1) % self.ckpt_every == 0:
            blob = _encode_worker_checkpoint(
                self.engine, self.scenario, self.fn_to_name, w, self.mail_bytes
            )
            self._send(("ckpt", w, checkpoint_digest(blob), blob))
        if self.obs_on:
            executed, execute_s, encode_s, window_mail, wait_s, decode_s = self._spans
            self.engine.observe_window_walls(
                w, executed, execute_s, wait_s, encode_s, decode_s, window_mail
            )
        self.next_w = w + 1
        self._run_next_window()

    def _finish(self) -> None:
        from .. import serialization as ser  # deferred: serialization -> core -> engine

        collect = self.scenario.collect
        result = {
            "collect": collect() if collect is not None else None,
            "events_executed": int(self.engine.events_executed),
            "lookahead_violations": int(self.engine.lookahead_violations),
            "barrier_wait_s": self.barrier_wait_s,
            "mail_bytes": self.mail_bytes,
        }
        if self.obs_on:
            result["obs_bytes"] = self.obs_bytes
            result["obs"] = {
                "registry": RegistrySnapshot.capture(
                    shard_id=self.shard_id, label=self.label
                ),
                "trace": TraceSnapshot.capture(
                    shard_id=self.shard_id, label=self.label
                ),
            }
        self.finished = True
        self._send(("done", ser.encode_payload(result)))


# ----------------------------------------------------------------------
# Transports: how controller and workers exchange protocol messages
# ----------------------------------------------------------------------
def _fire_process_fault(conn, kind) -> None:
    """Execute one injected process-level fault (worker process side)."""
    from ..faults.plan import ProcessFaultKind  # deferred: faults -> engine

    if kind is ProcessFaultKind.SIGKILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind is ProcessFaultKind.HANG:
        while True:  # pragma: no cover - reaped by the controller
            time.sleep(3600.0)
    else:  # pipe drop: vanish without a goodbye on the wire
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        os._exit(1)


def _worker_main(conn, config_bytes: bytes, inherited: Sequence = ()) -> None:
    """Worker process entry: drive a :class:`ShardWorker` over ``conn``.

    ``inherited`` holds the controller-side pipe ends a forked child
    inherits; they are closed first, so the controller closing its end
    (or dying) is an EOF here and the worker exits instead of waiting
    forever. Failures surface as ``("error", traceback_text)`` so the
    controller can raise a typed error instead of deadlocking at the
    barrier.
    """
    from .. import serialization as ser  # deferred: serialization -> core -> engine

    for other in inherited:
        other.close()
    try:
        worker = ShardWorker(ser.decode_payload(config_bytes), conn.send)
        worker.start()
        while not worker.finished:
            worker.handle(conn.recv())
        conn.close()
    except _PlannedFault as fault:
        _fire_process_fault(conn, fault.kind)
    except BaseException:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", traceback.format_exc()))
            conn.close()
        except (BrokenPipeError, OSError):  # pragma: no cover - dead pipe
            pass


class _PipeTransport:
    """Workers in OS processes, one duplex ``mp.Pipe`` each."""

    def __init__(self, start_method: str, window_timeout_s: float) -> None:
        self._ctx = mp.get_context(start_method)
        self.window_timeout_s = window_timeout_s
        #: shard -> (controller-side pipe end, worker process)
        self._workers: dict[int, tuple[Any, Any]] = {}

    def spawn(self, shard_id: int, config_bytes: bytes) -> None:
        """Start a worker process for ``shard_id``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A forked child holds copies of every controller-side end open
        # at fork time, its own included; it closes them on entry.
        inherited = (
            (*(conn for conn, _ in self._workers.values()), parent_conn)
            if self._ctx.get_start_method() == "fork"
            else ()
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, config_bytes, inherited),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[shard_id] = (parent_conn, proc)

    def _lost(self, shard_id: int, what: str, hung: bool = False) -> WorkerCrashError:
        proc = self._workers[shard_id][1]
        if proc.exitcode is None and not hung:
            # An EOF can surface before the dead child is reaped, in which
            # case exitcode still reads None; give the reap a moment.
            proc.join(0.5)
        return _worker_lost(shard_id, what, proc.exitcode, hung=hung)

    def send(self, shard_id: int, msg: tuple) -> None:
        """Send one message; a vanished worker is a `WorkerCrashError`."""
        try:
            self._workers[shard_id][0].send(msg)
        except (BrokenPipeError, OSError):
            raise self._lost(shard_id, "dropped its pipe") from None

    def recv(self, shard_id: int) -> tuple:
        """Receive one message; crashes and hangs become typed errors.

        The raised :class:`WorkerCrashError` carries ``shard_id``,
        ``exitcode`` and ``hung`` attributes so the recovery layer can
        tell a dead process (detected on the next 50 ms liveness tick,
        long before the window timeout) from one that is alive but
        silent past ``window_timeout_s``.
        """
        conn, proc = self._workers[shard_id]
        waited = Stopwatch()
        while True:
            try:
                ready = conn.poll(0.05)
            except (OSError, EOFError):
                # A worker killed with unread mail in its receive buffer
                # resets the socket pair (Linux AF_UNIX semantics).
                raise self._lost(shard_id, "reset its pipe mid-protocol") from None
            if ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise self._lost(
                        shard_id, "closed its pipe mid-protocol"
                    ) from None
                if msg[0] == "error":
                    raise ParallelWorkerError(shard_id, msg[1])
                return msg
            if not proc.is_alive() and not conn.poll(0.0):
                raise self._lost(shard_id, "died at a barrier without reporting")
            if waited.elapsed() > self.window_timeout_s:
                raise self._lost(
                    shard_id,
                    f"unresponsive for more than "
                    f"{self.window_timeout_s:.0f}s at a barrier",
                    hung=proc.is_alive(),
                )

    def discard(self, shard_id: int, grace_s: float = 0.2) -> None:
        """Close a worker's pipe and escalate join→terminate→kill.

        Closing the pipe is an EOF for the worker, which then exits on
        its own; only a hung worker outlasts ``grace_s``.
        """
        conn, proc = self._workers.pop(shard_id)
        conn.close()
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace_s)
        if proc.is_alive():  # pragma: no cover - terminate-resistant worker
            proc.kill()
            proc.join(timeout=grace_s)

    def close(self, grace_s: float) -> None:
        """Tear down every remaining worker."""
        for shard_id in sorted(self._workers):
            self.discard(shard_id, grace_s)


def _synthetic_loss(shard_id: int, kind) -> WorkerCrashError:
    """The `WorkerCrashError` a real worker dying of ``kind`` would cause."""
    from ..faults.plan import ProcessFaultKind  # deferred: faults -> engine

    if kind is ProcessFaultKind.HANG:
        return _worker_lost(
            shard_id, "stopped responding at a barrier", None, hung=True
        )
    if kind is ProcessFaultKind.SIGKILL:
        return _worker_lost(
            shard_id, "died at a barrier without reporting", -signal.SIGKILL
        )
    return _worker_lost(shard_id, "closed its pipe mid-protocol", 1)


class _InProcessTransport:
    """Workers as :class:`ShardWorker` objects in the controller's process.

    A send is a direct :meth:`ShardWorker.handle` call; replies queue
    per shard until the controller receives them. Workers share this
    process's registry and tracer, so their configs carry no obs stanza
    (the engines record into the shared instruments directly). A planned
    process fault ends the worker where the real process would end, and
    the controller sees the `WorkerCrashError` a dead process produces:
    exit code ``-SIGKILL``, 1 for a pipe drop, or ``hung`` for a hang
    (which needs no timeout to detect here).
    """

    def __init__(self) -> None:
        self._workers: dict[int, ShardWorker | None] = {}
        self._outbox: dict[int, deque] = {}
        self._lost: dict[int, WorkerCrashError] = {}

    def spawn(self, shard_id: int, config_bytes: bytes) -> None:
        """Build a worker for ``shard_id`` and run it to its first reply."""
        from .. import serialization as ser  # deferred: serialization -> core -> engine

        config = ser.decode_payload(config_bytes)
        config["obs"] = None
        self._outbox[shard_id] = outbox = deque()
        worker = self._workers[shard_id] = ShardWorker(config, outbox.append)
        self._step(shard_id, worker.start)

    def _step(self, shard_id: int, step: Callable[..., None], *args) -> None:
        try:
            step(*args)
        except _PlannedFault as fault:
            self._workers[shard_id] = None
            self._lost[shard_id] = _synthetic_loss(shard_id, fault.kind)
        except Exception:  # noqa: BLE001 - reported like a worker process
            self._workers[shard_id] = None
            self._outbox[shard_id].append(("error", traceback.format_exc()))

    def send(self, shard_id: int, msg: tuple) -> None:
        """Hand ``msg`` to the worker and run it until it next waits."""
        if shard_id in self._lost:
            raise self._lost[shard_id]
        worker = self._workers.get(shard_id)
        if worker is not None:  # None: failed; its error report is queued
            self._step(shard_id, worker.handle, msg)

    def recv(self, shard_id: int) -> tuple:
        """The worker's oldest unread reply, or the error that ended it."""
        outbox = self._outbox[shard_id]
        if outbox:
            msg = outbox.popleft()
            if msg[0] == "error":
                raise ParallelWorkerError(shard_id, msg[1])
            return msg
        if shard_id in self._lost:
            raise self._lost[shard_id]
        raise ParallelBackendError(
            f"barrier protocol desync: worker {shard_id} is waiting for a "
            "message while the controller waits for one from it"
        )

    def discard(self, shard_id: int) -> None:
        """Forget a lost worker before its replacement spawns."""
        self._workers.pop(shard_id, None)
        self._outbox.pop(shard_id, None)
        self._lost.pop(shard_id, None)

    def close(self, grace_s: float) -> None:
        """Forget every worker (there are no processes to stop)."""
        for shard_id in sorted(self._outbox):
            self.discard(shard_id)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ParallelRunResult:
    """Merged outcome of one sharded run."""

    procs: int
    until: float
    lookahead: float
    #: final LP placement, one list per shard (the configured split
    #: unless migrations or an adoption moved LPs)
    shards: list[list[int]]
    #: per-window stats summed across shards (same shape the
    #: single-process engine records — cost-model ready)
    window_stats: list[WindowStats]
    events_executed: int
    lookahead_violations: int
    #: controller wall-clock for the whole run (build + windows)
    wall_s: float
    #: per-worker seconds spent blocked at barriers
    barrier_wait_s: list[float]
    #: per-worker serialized mail bytes sent
    mail_bytes: list[int]
    #: per-worker events executed
    worker_events: list[int]
    #: per-shard ``ShardScenario.collect()`` values
    collected: list[Any]
    #: per-worker registry snapshots (empty when the run was unobserved)
    registry_snapshots: list[RegistrySnapshot] = field(default_factory=list)
    #: per-worker trace snapshots (empty when the run was unobserved)
    trace_snapshots: list[TraceSnapshot] = field(default_factory=list)
    #: per-worker bytes of incremental obs deltas shipped over the pipe
    #: (always 0 unless ``incremental_obs``; never part of mail bytes)
    obs_bytes: list[int] = field(default_factory=list)
    #: accepted mid-run LP migrations, in decision order (empty unless
    #: the run was launched with a rebalance config); ``shards`` above
    #: reports the *final* placement after these moves
    migrations: list = field(default_factory=list)
    #: recovery summary (``None`` unless the run was launched with a
    #: recovery config): checkpoints taken/bytes, detections, respawns,
    #: windows replayed, degraded adoptions, last committed checkpoint
    #: window, and the shards that finished the run dead
    recovery: dict | None = None

    @property
    def total_mail_bytes(self) -> int:
        """Serialized cross-shard mail volume over the whole run."""
        return int(sum(self.mail_bytes))


def _merge_window_rows(
    num_lps: int,
    rows: dict[int, list[tuple[list[int], list[int]]]],
    boundaries: list[tuple[int, float, float]],
) -> list[WindowStats]:
    stats = []
    for w, start, end in boundaries:
        events = np.zeros(num_lps, dtype=np.int64)
        remote = np.zeros(num_lps, dtype=np.int64)
        for events_col, remote_col in rows[w]:
            events += np.asarray(events_col, dtype=np.int64)
            remote += np.asarray(remote_col, dtype=np.int64)
        stats.append(
            WindowStats(
                window_index=w,
                start=start,
                end=end,
                events_per_lp=events,
                remote_sends_per_lp=remote,
            )
        )
    return stats


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
def _placement(shards: Sequence[Sequence[int]], num_lps: int) -> np.ndarray:
    """LP -> shard lookup for a shard list that partitions the LPs."""
    shard_of = np.empty(num_lps, dtype=np.int64)
    for shard_id, lps in enumerate(shards):
        for lp in lps:
            shard_of[lp] = shard_id
    return shard_of


class ParallelConservativeEngine:
    """Conservative barrier-window engine over real worker processes.

    Parameters mirror :class:`ConservativeEngine`, plus:

    procs:
        Worker process count. LPs are split contiguously across workers
        (``shard_lps``); ``procs > num_lps`` leaves trailing workers
        with empty shards, which no-op cleanly.
    start_method:
        ``multiprocessing`` start method. ``"fork"`` (default on Linux)
        is fastest; ``"spawn"`` additionally proves every payload
        pickles (the differential suite runs both).
    window_timeout_s:
        Per-barrier controller patience before declaring a worker hung
        (:class:`WorkerCrashError`).
    incremental_obs:
        When observability is enabled, additionally ship a per-window
        registry delta from every worker (``live_snapshot()`` then shows
        mid-run state). Off by default — end-of-run snapshots always
        arrive with the results, and the deltas cost pipe bytes.
    rebalance:
        Optional :class:`~repro.partition.rebalance.RebalanceConfig`.
        When set, the controller watches per-window blame concentration
        and migrates LPs between shards at barriers (see
        ``docs/load_balancing.md``). Only the controller decides —
        workers receive finished plans, so every process agrees on
        placement without extra synchronization. The simulation result
        is byte-identical either way.
    rebalance_affinity:
        Optional LP x LP affinity matrix (``partition.lp_affinity``)
        used to break score ties toward migrations that cut fewer
        cross-shard links.
    recovery:
        Optional :class:`~repro.engine.recovery.RecoveryConfig`. When
        set, workers checkpoint their shard at the configured cadence,
        the controller supervises liveness, and a crashed or hung
        worker is respawned from its last checkpoint (degrading to
        survivor adoption when respawns run out — see
        ``docs/robustness.md``). Mutually exclusive with ``rebalance``:
        a checkpoint cut racing an in-flight migration plan has no
        well-defined placement.
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        procs: int = 2,
        strict: bool = True,
        queue: str = "adaptive",
        start_method: str = "fork",
        window_timeout_s: float = 120.0,
        incremental_obs: bool = False,
        rebalance=None,
        rebalance_affinity=None,
        recovery=None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if rebalance is not None and recovery is not None:
            raise ValueError(
                "online rebalancing and fault-tolerant recovery cannot be "
                "combined: a checkpoint cut racing a migration plan has no "
                "well-defined placement"
            )
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.num_lps = int(num_lps)
        self.lookahead = float(lookahead)
        self.procs = int(procs)
        self.strict = strict
        self.queue = queue
        self.start_method = start_method
        self.window_timeout_s = float(window_timeout_s)
        self.shards = shard_lps(self.num_lps, self.procs)

        self.incremental_obs = bool(incremental_obs)
        self.rebalance = rebalance
        self.rebalance_affinity = rebalance_affinity
        self.recovery = recovery
        #: per-shard merged incremental registry deltas (incremental_obs)
        self._live_deltas: dict[int, RegistrySnapshot] = {}

        # Controller-side instruments: only the *global* per-window
        # aggregates a single worker cannot know (the window count and
        # the all-shards event-count distribution). Everything per-worker
        # — barrier waits, mail bytes, worker events — is recorded inside
        # the workers with shard labels and arrives via snapshot merging
        # (repro.obs.distributed).
        reg = get_registry()
        self._obs = reg
        self._obs_windows = reg.counter(obs_names.ENGINE_WINDOWS)
        self._obs_window_hist = reg.histogram(
            obs_names.ENGINE_WINDOW_EVENTS_HIST, (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
        )
        # The optional subsystems' instruments are registered up front,
        # so they exist in snapshots taken before the first migration or
        # checkpoint (and the names-drift check sees them by constructing
        # an engine, like every other instrumented component).
        if rebalance is not None:
            reg.counter(obs_names.REBALANCE_TRIGGERS)
            reg.counter(obs_names.REBALANCE_CANDIDATES)
            reg.counter(obs_names.REBALANCE_MIGRATIONS)
            reg.counter(obs_names.REBALANCE_STATE_BYTES)
            reg.histogram(obs_names.REBALANCE_CONCENTRATION, _CONCENTRATION_BOUNDS)
        if recovery is not None:
            reg.counter(obs_names.RECOVERY_CHECKPOINTS)
            reg.counter(obs_names.RECOVERY_CHECKPOINT_BYTES)
            reg.counter(obs_names.RECOVERY_DETECTIONS)
            reg.counter(obs_names.RECOVERY_RESPAWNS)
            reg.counter(obs_names.RECOVERY_REPLAYED)
            reg.counter(obs_names.RECOVERY_ADOPTIONS)

    @classmethod
    def from_mapping(
        cls, mapping, lookahead: float | None = None, **kwargs
    ) -> "ParallelConservativeEngine":
        """Build from partitioner output (:class:`NetworkMapping`).

        The lookahead defaults to the mapping's achieved MLL — the same
        window rule the modeled engine uses; pass ``lookahead``
        explicitly when the mapping has no finite cross-LP latency
        (single-engine mappings).
        """
        if lookahead is None:
            mll = float(mapping.evaluation.mll_s)
            if not np.isfinite(mll) or mll <= 0:
                raise ValueError(
                    "mapping has no finite achieved MLL; pass lookahead="
                )
            lookahead = mll
        return cls(
            mapping.assignment, mapping.num_engines, lookahead, **kwargs
        )

    def _open_transport(self):
        """The transport the workers run over: one OS process each."""
        return _PipeTransport(self.start_method, self.window_timeout_s)

    def _worker_config(
        self,
        shard_id: int,
        spec: ScenarioSpec,
        until: float,
        *,
        owned_lps: Sequence[int],
        shard_of: Sequence[int],
        incarnation: int = 0,
        resume: dict | None = None,
    ) -> bytes:
        from .. import serialization as ser  # deferred: serialization -> core -> engine

        config = {
            "assignment": self.assignment,
            "num_lps": self.num_lps,
            "lookahead": self.lookahead,
            "owned_lps": list(owned_lps),
            "strict": self.strict,
            "queue": self.queue,
            "spec": spec,
            "shard_of": list(shard_of),
            "procs": self.procs,
            "until": float(until),
            "shard_id": shard_id,
            "obs": worker_obs_config(incremental=self.incremental_obs),
            "rebalance": (
                {"source": self.rebalance.source}
                if self.rebalance is not None
                else None
            ),
            "recovery": (
                self.recovery.stanza() if self.recovery is not None else None
            ),
        }
        if incarnation:
            config["incarnation"] = incarnation
        if resume is not None:
            config["resume"] = resume
        return ser.encode_payload(config)

    def run_scenario(self, spec: ScenarioSpec, until: float) -> ParallelRunResult:
        """Run ``spec`` to simulated time ``until`` across the workers.

        Blocks until every worker finishes (or fails — worker errors
        surface as :class:`ParallelWorkerError`, crashes and hangs as
        :class:`WorkerCrashError`). Returns the merged result; per-LP
        window stats are summed across shards into the same
        :class:`WindowStats` rows the single-process engine records.

        With a recovery config, worker loss does not end the run:
        the controller respawns the worker from the last committed
        checkpoint (replaying retained mail forward), and when respawns
        are exhausted with ``on_worker_loss="adopt"`` it rolls every
        survivor back to the commit cut and hands the dead shard's LPs
        to the least-loaded survivor. Only when the degradation ladder
        runs out does the run fail, with
        :class:`RecoveryExhaustedError`.
        """
        from .. import serialization as ser  # deferred: serialization -> core -> engine

        rec = self.recovery
        rec_on = rec is not None
        mode = rec.on_worker_loss if rec_on else "fail"
        wall = Stopwatch()
        transport = self._open_transport()
        store = CheckpointStore(rec.spill_dir) if rec_on else None
        # Mail retained since the last committed checkpoint: window ->
        # {dest shard -> per-sender payload list}. Replayed into a
        # respawned worker; pruned at every commit, so the buffer is
        # bounded by the checkpoint cadence.
        retained: dict[int, dict[int, list[bytes]]] = {}
        committed = -1
        # Losses so far per shard; also the incarnation of its worker.
        attempts = [0] * self.procs
        dead = [False] * self.procs
        # Whether the controller holds the shard's latest window message
        # unanswered, i.e. the worker is blocked waiting for its mail.
        unanswered = [False] * self.procs
        stats = {"detections": 0, "respawns": 0, "windows_replayed": 0,
                 "adoptions": 0}
        adoption_window: int | None = None
        # Each adopted shard's blob at the cut it was adopted from: its
        # stand-in result (the adopter re-accumulates after that cut).
        dead_blobs: dict[int, bytes | None] = {}
        # Run-local placement: migrations and adoptions move LPs here,
        # never in the engine's configured shards, so a rerun starts
        # from the static split.
        cur_shards = [list(s) for s in self.shards]
        max_obs_window = -1
        boundaries = list(iter_windows(0.0, self.lookahead, until))
        last_w = boundaries[-1][0] if boundaries else -1
        rows: dict[int, list[tuple[list[int], list[int]]]] = {
            w: [] for w, _s, _e in boundaries
        }
        migrations: list = []
        rebalancer = None
        rb_prev = (0, 0)
        if self.rebalance is not None:
            # deferred: partition -> engine
            from ..partition.rebalance import Rebalancer, slowdown_spans

            # Fault slowdown spans come from the spec's ``faults`` param
            # (the schedule the injector replays), so the modeled blame
            # source sees straggler slowdowns without measuring anything.
            faults = spec.params.get("faults")
            rebalancer = Rebalancer(
                self.rebalance,
                self.shards,
                self.num_lps,
                spans=slowdown_spans(faults, float(until)) if faults else (),
                affinity=self.rebalance_affinity,
            )
        rb_measured = rebalancer is not None and self.rebalance.source == "measured"

        def _live():
            return [s for s in range(self.procs) if not dead[s]]

        def _spawn(shard_id, incarnation=0, resume=None):
            transport.spawn(
                shard_id,
                self._worker_config(
                    shard_id, spec, until,
                    owned_lps=cur_shards[shard_id],
                    shard_of=_placement(cur_shards, self.num_lps).tolist(),
                    incarnation=incarnation, resume=resume,
                ),
            )

        def _handle_loss(shard_id, exc, replay_hi):
            """Respawn ``shard_id`` or escalate up the degradation ladder.

            ``replay_hi`` is the last window whose retained mail the
            respawned worker must privately replay before rejoining.
            """
            if mode == "fail":
                raise exc
            stats["detections"] += 1
            _record_recovery_obs(
                "detect", replay_hi + 1, shard_id,
                hung=bool(getattr(exc, "hung", False)),
                exitcode=getattr(exc, "exitcode", None),
            )
            transport.discard(shard_id)
            unanswered[shard_id] = False
            attempts[shard_id] += 1
            if attempts[shard_id] > rec.max_respawns:
                if mode == "adopt":
                    raise _AdoptionNeeded(shard_id) from exc
                raise RecoveryExhaustedError(
                    f"worker {shard_id} lost {attempts[shard_id]} times, "
                    f"exceeding max_respawns={rec.max_respawns}; "
                    "on_worker_loss='respawn' has no further rung"
                ) from exc
            if adoption_window is not None and committed <= adoption_window:
                raise RecoveryExhaustedError(
                    f"worker {shard_id} lost after a degraded adoption and "
                    "before the next checkpoint commit; the dead shard's "
                    "pre-adoption checkpoint is stale"
                ) from exc
            time.sleep(rec.backoff_s(attempts[shard_id]))
            base = store.latest_window(shard_id)
            entries = [
                (rw, retained[rw][shard_id])
                for rw in sorted(retained)
                if base < rw <= replay_hi
            ]
            resume = {
                "checkpoint": store.get(shard_id),
                "replay": ser.encode_replay_buffer(entries),
            }
            _spawn(shard_id, incarnation=attempts[shard_id], resume=resume)
            stats["respawns"] += 1
            stats["windows_replayed"] += len(entries)
            _record_recovery_obs(
                "respawn", replay_hi + 1, shard_id,
                attempt=attempts[shard_id], replayed=len(entries),
            )

        def _past_the_end(shard_id):
            return RecoveryExhaustedError(
                f"worker {shard_id} exhausted its respawns after survivors "
                "finished the run; adoption would need a rollback past "
                "the end of the run"
            )

        def _adopt(dead_shard):
            """Global rollback to the commit cut + survivor adoption."""
            nonlocal adoption_window
            if 0 in cur_shards[dead_shard]:
                raise RecoveryExhaustedError(
                    f"worker {dead_shard} owns LP 0 (the control lane); the "
                    "control shard cannot be adopted by a survivor"
                )
            c = committed
            if adoption_window is not None and 0 <= c <= adoption_window:
                # Rolling back to c would reload the earlier adopter's
                # pre-adoption blob and lose the LPs it adopted.
                raise RecoveryExhaustedError(
                    f"worker {dead_shard} lost after a degraded adoption and "
                    "before the next checkpoint commit; the adopter's "
                    "checkpoint predates the adoption"
                )
            blob = store.get(dead_shard) if c >= 0 else None
            if c >= 0 and blob is None:  # pragma: no cover - store invariant
                raise RecoveryExhaustedError(
                    f"no checkpoint for shard {dead_shard} at the committed "
                    f"window {c}"
                )
            dead[dead_shard] = True
            survivors = _live()
            adopter = min(survivors, key=lambda s: (len(cur_shards[s]), s))
            cur_shards[adopter] = sorted(
                cur_shards[adopter] + cur_shards[dead_shard]
            )
            cur_shards[dead_shard] = []
            new_shard_of = _placement(cur_shards, self.num_lps).tolist()
            installs = _adoption_installs(blob) if blob is not None else {}
            try:
                # Every survivor is either computing or blocked at a mail
                # recv; consume its in-flight messages until its window
                # message is the unanswered one, at which point a
                # rollback lands where it expects mail.
                for s in survivors:
                    while not unanswered[s]:
                        m = transport.recv(s)
                        if m[0] == "done":
                            raise _past_the_end(dead_shard)
                        if m[0] != "ckpt":  # abandoned: this round cannot commit
                            _check_message(m, f"worker {s}", "window")
                            unanswered[s] = True
                for s in survivors:
                    transport.send(
                        s,
                        (
                            "rollback",
                            c,
                            store.get(s) if c >= 0 else None,
                            installs if s == adopter else {},
                            new_shard_of,
                        ),
                    )
                    unanswered[s] = False
            except WorkerCrashError as exc:
                raise RecoveryExhaustedError(
                    f"worker {exc.shard_id} lost during the adoption of "
                    f"shard {dead_shard}; the degradation ladder does not nest"
                ) from exc
            for bw in rows:
                if bw > c:
                    rows[bw] = []
            retained.clear()
            dead_blobs[dead_shard] = blob
            adoption_window = c
            stats["adoptions"] += 1
            _record_recovery_obs(
                "adopt", c + 1, dead_shard, adopter=adopter,
                committed_window=c,
            )
            return c

        finished = False
        try:
            for shard_id in range(self.procs):
                _spawn(shard_id)
            wi = 0
            while wi < len(boundaries):
                w, _start, _end = boundaries[wi]
                try:
                    msgs: dict[int, tuple] = {}
                    pending = _live()
                    while pending:
                        shard_id = pending.pop(0)
                        try:
                            msg = transport.recv(shard_id)
                        except WorkerCrashError as exc:
                            _handle_loss(shard_id, exc, replay_hi=w - 1)
                            pending.append(shard_id)
                            continue
                        _check_message(msg, f"worker {shard_id}", "window", w)
                        unanswered[shard_id] = True
                        msgs[shard_id] = msg
                        rows[w].append((msg[3], msg[4]))
                    plan = None
                    decision = None
                    if rebalancer is not None and not rebalancer.retired:
                        ordered = [msgs[s] for s in range(self.procs)]
                        events_sum = np.zeros(self.num_lps, dtype=np.int64)
                        xshard_sum = np.zeros(self.num_lps, dtype=np.int64)
                        for msg in ordered:
                            events_sum += np.asarray(msg[3], dtype=np.int64)
                            xshard_sum += np.asarray(msg[5], dtype=np.int64)
                        measured = (
                            np.asarray([float(m[-1]) for m in ordered])
                            if rb_measured
                            else None
                        )
                        decision = rebalancer.observe_window(
                            w, _start, _end, events_sum, xshard_sum, measured
                        )
                        rb_prev = _record_rebalance_counters(rebalancer, rb_prev)
                        if decision is not None:
                            plan = [
                                (decision.lp, decision.src_shard,
                                 decision.dst_shard)
                            ]
                    # Route: destination j receives one payload per
                    # sender (dead senders contribute empty payloads
                    # after an adoption — their LPs now send from the
                    # adopter's lanes).
                    live_now = _live()
                    inbound_by = {
                        s: [
                            msgs[src][2][s] if src in msgs else b""
                            for src in range(self.procs)
                        ]
                        for s in live_now
                    }
                    if rec_on:
                        retained[w] = inbound_by
                    skip_ckpt: set[int] = set()
                    # The plan slot exists only on rebalancing runs, so a
                    # static run's wire stays the pre-rebalancing protocol.
                    tail = () if rebalancer is None else (plan,)
                    for shard_id in live_now:
                        try:
                            transport.send(
                                shard_id, ("mail", w, inbound_by[shard_id], *tail)
                            )
                            unanswered[shard_id] = False
                        except WorkerCrashError as exc:
                            if plan:
                                raise ParallelBackendError(
                                    f"worker {shard_id} lost while a "
                                    "migration plan is in flight"
                                ) from exc
                            # The worker had already sent window w, so
                            # the respawn replays through w and rejoins
                            # at w + 1 without checkpointing w.
                            _handle_loss(shard_id, exc, replay_hi=w)
                            skip_ckpt.add(shard_id)
                    if plan:
                        # Migration sub-protocol: collect payloads from
                        # the releasing shards, route each to the
                        # adopting shard. Payloads ride these
                        # control-plane messages only.
                        outgoing_all: dict[int, bytes] = {}
                        for shard_id in range(self.procs):
                            mig = _check_message(
                                transport.recv(shard_id),
                                f"worker {shard_id}", "migrate", w,
                            )
                            outgoing_all.update(mig[2])
                        for shard_id in range(self.procs):
                            install = (
                                outgoing_all
                                if shard_id == decision.dst_shard
                                else {}
                            )
                            transport.send(shard_id, ("install", w, install))
                        cur_shards[decision.src_shard].remove(decision.lp)
                        bisect.insort(cur_shards[decision.dst_shard], decision.lp)
                        migrations.append(decision)
                        _record_migration_obs(
                            decision, sum(len(b) for b in outgoing_all.values())
                        )
                    if rec_on and rec.is_checkpoint_window(w):
                        # Transactional commit: the store only advances
                        # when every live shard checkpoints this window;
                        # a partial set is discarded (but still drained,
                        # to keep the pipes aligned).
                        got: dict[int, tuple[str, bytes]] = {}
                        for shard_id in [
                            s for s in _live() if s not in skip_ckpt
                        ]:
                            try:
                                cmsg = transport.recv(shard_id)
                            except WorkerCrashError as exc:
                                _handle_loss(shard_id, exc, replay_hi=w)
                                continue
                            _check_message(cmsg, f"worker {shard_id}", "ckpt", w)
                            got[shard_id] = (cmsg[2], cmsg[3])
                        if sorted(got) == _live():
                            for shard_id in sorted(got):
                                digest, blob = got[shard_id]
                                store.put(shard_id, w, digest, blob)
                                _record_recovery_obs(
                                    "checkpoint", w, shard_id,
                                    nbytes=len(blob),
                                )
                            committed = w
                            for rw in [x for x in retained if x <= w]:
                                del retained[rw]
                    if self._obs.enabled and w > max_obs_window:
                        self._obs_windows.inc()
                        self._obs_window_hist.observe(
                            float(sum(sum(cols) for cols, _remote in rows[w]))
                        )
                    max_obs_window = max(max_obs_window, w)
                    if self.incremental_obs:
                        for shard_id in sorted(msgs):
                            msg = msgs[shard_id]
                            if len(msg) > 6 and msg[6]:
                                delta = ser.decode_snapshot(msg[6])
                                prev = self._live_deltas.get(shard_id)
                                self._live_deltas[shard_id] = (
                                    delta
                                    if prev is None
                                    else RegistrySnapshot.merge([prev, delta])
                                )
                except _AdoptionNeeded as need:
                    wi = _adopt(need.shard_id) + 1
                    continue
                wi += 1
            results: list[dict] = []
            for shard_id in range(self.procs):
                if dead[shard_id]:
                    results.append(_synthesize_dead_result(dead_blobs[shard_id]))
                    continue
                while True:
                    try:
                        msg = transport.recv(shard_id)
                        break
                    except WorkerCrashError as exc:
                        try:
                            _handle_loss(shard_id, exc, replay_hi=last_w)
                        except _AdoptionNeeded:
                            raise _past_the_end(shard_id) from exc
                _check_message(msg, f"worker {shard_id}", "done")
                results.append(ser.decode_payload(msg[1]))
            finished = True
        finally:
            # A failed run's workers see EOF and exit at once; only a
            # hung one waits out the short grace before terminate().
            transport.close(grace_s=5.0 if finished else 0.5)
            if store is not None:
                store.close()

        wall_s = wall.elapsed()
        worker_events = [r["events_executed"] for r in results]
        recovery_summary = None
        if rec_on:
            recovery_summary = {
                "checkpoints_taken": int(store.checkpoints_taken),
                "checkpoint_bytes": int(store.checkpoint_bytes),
                **stats,
                "committed_window": committed,
                "dead_shards": [s for s in range(self.procs) if dead[s]],
            }
        return ParallelRunResult(
            procs=self.procs,
            until=float(until),
            lookahead=self.lookahead,
            shards=cur_shards,
            window_stats=_merge_window_rows(self.num_lps, rows, boundaries),
            events_executed=int(sum(worker_events)),
            lookahead_violations=int(
                sum(r["lookahead_violations"] for r in results)
            ),
            wall_s=wall_s,
            barrier_wait_s=[r["barrier_wait_s"] for r in results],
            mail_bytes=[r["mail_bytes"] for r in results],
            worker_events=worker_events,
            collected=[r["collect"] for r in results],
            registry_snapshots=[
                r["obs"]["registry"] for r in results if "obs" in r
            ],
            trace_snapshots=[r["obs"]["trace"] for r in results if "obs" in r],
            obs_bytes=[int(r.get("obs_bytes", 0)) for r in results],
            migrations=migrations,
            recovery=recovery_summary,
        )

    def live_snapshot(self) -> RegistrySnapshot:
        """Merged registry state from incremental deltas received so far.

        Only meaningful with ``incremental_obs``; before the first
        barrier (or without the flag) this is an empty snapshot.
        """
        return RegistrySnapshot.merge(
            [self._live_deltas[s] for s in sorted(self._live_deltas)]
        )


# ----------------------------------------------------------------------
# In-process shard group (tests, hypothesis sweeps)
# ----------------------------------------------------------------------
class LocalShardGroup(ParallelConservativeEngine):
    """The same controller and workers, all in this one process.

    Runs :meth:`ParallelConservativeEngine.run_scenario` over the
    in-process transport: identical barrier, mail, migration and
    recovery protocol — including every round-trip through
    :mod:`repro.serialization` — without OS processes. Arbitrary shard
    counts and partitions (``shards``) are cheap, which is what the
    differential suite's hypothesis sweeps need, while the pipe
    transport proves the same bytes survive real process boundaries.
    """

    def __init__(
        self,
        assignment: Sequence[int] | np.ndarray,
        num_lps: int,
        lookahead: float,
        procs: int = 2,
        strict: bool = True,
        queue: str = "adaptive",
        shards: list[list[int]] | None = None,
        rebalance=None,
        rebalance_affinity=None,
        recovery=None,
    ) -> None:
        super().__init__(
            assignment,
            num_lps,
            lookahead,
            procs=len(shards) if shards is not None else procs,
            strict=strict,
            queue=queue,
            rebalance=rebalance,
            rebalance_affinity=rebalance_affinity,
            recovery=recovery,
        )
        if shards is not None:
            seen = sorted(lp for part in shards for lp in part)
            if seen != list(range(self.num_lps)):
                raise ValueError("shards must partition range(num_lps) exactly")
            self.shards = [list(part) for part in shards]

    def _open_transport(self):
        """The transport the workers run over: direct calls in-process."""
        return _InProcessTransport()
