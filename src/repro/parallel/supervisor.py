"""Supervision layer for the worker pool: self-healing rounds.

The plain :class:`~repro.parallel.pool.ProbeWorkerPool` treats every
mid-run fault as fatal-to-the-pool: one dead worker, one hung task or
one malformed result would throw away the whole round and demote the
run to in-process work forever.  For a multi-hour CCQ campaign that is
far too blunt — the in-process path is bit-identical but much slower,
and most faults are transient.

:class:`PoolSupervisor` runs every pool round — a competition step's
probe fan-out (task kind ``eval``) or a recovery batch's gradient
shards (task kind ``train``) — through one loop with:

* **adaptive per-task deadlines** — a measured per-kind EMA of healthy
  task time (per pinned batch for a probe, per shard for a recovery
  shard) times a safety factor (``U`` batches at 50 ms should not wait
  the 120 s a hardcoded timeout allows), with an explicit
  ``probe_timeout`` override for operators who know better;
* **worker health monitoring and respawn** — a worker that dies (or
  hangs past the deadline) is terminated, re-forked, re-handshaken and
  re-synced from the cached broadcast, under one bounded respawn
  budget with exponential backoff;
* **partial-result salvage** — results already delivered by healthy
  workers are *kept*; in-flight tasks of the faulted worker are
  requeued once onto the survivors, and whatever is still missing at
  the end of the round runs in-process (a probe serially inside the
  Hedge loop, a shard in the trainer's salvage pass), so the
  trajectory is untouched;
* **candidate quarantine** (probes only) — a candidate observed in
  flight across repeated worker crashes is assumed to be the trigger;
  it is never fanned out again and evaluates once on the serial path
  instead.

The two kinds differ only in data: the schema validator and whether
crashes count toward quarantine (:class:`_TaskKind`), and the resubmit
function and EMA unit each round carries (:class:`PendingRound`).

None of this is trajectory-relevant: supervision only decides *where*
a loss or gradient is computed, never *what* the search observes, so
the bit-identical-to-serial contract of ``docs/parallel.md`` holds
under arbitrary worker faults.  The caller reads :class:`FanOutReport`
to account respawns/salvage/quarantine in telemetry and to decide when
the budget is exhausted and the run should degrade (and later
re-promote; see ``CCQQuantizer._fan_out_probes``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
)

from ..telemetry import NULL_TELEMETRY, Telemetry
from .pool import PoolError, ProbeTask, ProbeWorkerPool

__all__ = [
    "SupervisionConfig",
    "FanOutReport",
    "PendingRound",
    "PoolSupervisor",
    "outcome_problem",
    "train_outcome_problem",
]

# Statuses a well-formed worker outcome may carry.
_VALID_STATUSES = ("ok", "diverged", "error")

# Statuses a recovery-shard outcome may carry (divergence is detected
# by the parent trainer after the all-reduce, never shard-side).
_VALID_TRAIN_STATUSES = ("ok", "error")


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the supervision layer (all trajectory-invariant)."""

    # Fixed per-candidate deadline in seconds; ``None`` derives it from
    # the measured per-batch EMA instead (the adaptive default).
    probe_timeout: Optional[float] = None
    # Deadline used before any healthy evaluation has been measured.
    startup_timeout: float = 120.0
    # Adaptive deadline = batches x EMA x safety, clamped to the band
    # below.  The safety factor is deliberately generous: a false
    # timeout only costs a respawn plus a serial re-run, but it should
    # stay rare.
    deadline_safety: float = 25.0
    deadline_floor: float = 2.0
    deadline_ceiling: float = 600.0
    # EMA smoothing for the measured per-batch evaluation time.
    ema_alpha: float = 0.2
    # Total respawns allowed over the supervisor's lifetime before the
    # pool is declared beyond saving and the run degrades to serial.
    respawn_budget: int = 8
    # Exponential backoff before each respawn: base * 2**respawns_used,
    # capped.
    respawn_backoff_s: float = 0.05
    respawn_backoff_cap_s: float = 2.0
    # A candidate observed in flight across this many worker crashes is
    # quarantined: never fanned out again, evaluated serially instead.
    quarantine_threshold: int = 2


@dataclass
class FanOutReport:
    """What happened during one supervised fan-out round."""

    outcomes: Dict[Hashable, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    completed: int = 0
    # Results kept from a round in which at least one fault occurred
    # (the pre-supervision pool would have discarded all of them).
    salvaged: int = 0
    respawned: int = 0
    # In-flight candidates moved (once) from a faulted worker onto a
    # survivor instead of going serial.
    requeued: int = 0
    # Candidates newly quarantined during this round.
    quarantined: List[Hashable] = field(default_factory=list)
    # Candidates whose results never arrived (they evaluate serially).
    missing: List[Hashable] = field(default_factory=list)
    # Human-readable fault descriptions, for the structured log.
    faults: List[str] = field(default_factory=list)
    # The respawn budget ran out: the caller should close the pool and
    # fall back to serial probing (and maybe re-promote later).
    degraded: bool = False
    # The round deadline that was in force, for observability.
    deadline_s: float = 0.0


def outcome_problem(outcome: Any) -> Optional[str]:
    """Validate a worker outcome's schema; return a description or None.

    A worker that ships a malformed result (memory corruption, a bug, a
    fault injector) must not poison the probe engine: the supervisor
    discards the result, recycles the worker and lets the candidate
    evaluate serially.
    """
    if not isinstance(outcome, dict):
        return f"outcome is not a dict: {type(outcome).__name__}"
    if not isinstance(outcome.get("task_id"), int):
        return f"non-integer task_id: {outcome.get('task_id')!r}"
    status = outcome.get("status")
    if status not in _VALID_STATUSES:
        return f"unknown status: {status!r}"
    if status == "ok":
        loss = outcome.get("loss")
        if not isinstance(loss, float) or not math.isfinite(loss):
            return f"status 'ok' with non-finite loss: {loss!r}"
    return None


def train_outcome_problem(outcome: Any) -> Optional[str]:
    """Validate a recovery-shard outcome's schema.

    Unlike :func:`outcome_problem` a non-finite loss is *not* corrupt
    here: a diverging shard is a property of the trajectory, and the
    parent trainer's post-all-reduce ``ensure_finite`` must see it at
    exactly the point the serial trainer would — schema validation only
    rejects results a healthy worker could never have produced.
    """
    if not isinstance(outcome, dict):
        return f"outcome is not a dict: {type(outcome).__name__}"
    if outcome.get("kind") != "train":
        return f"not a train outcome: kind={outcome.get('kind')!r}"
    if not isinstance(outcome.get("task_id"), int):
        return f"non-integer task_id: {outcome.get('task_id')!r}"
    status = outcome.get("status")
    if status not in _VALID_TRAIN_STATUSES:
        return f"unknown status: {status!r}"
    if status == "ok":
        if not isinstance(outcome.get("loss"), float):
            return f"status 'ok' with non-float loss: {outcome.get('loss')!r}"
        if not isinstance(outcome.get("grads"), list):
            return "status 'ok' without a gradient list"
        if not isinstance(outcome.get("bn"), list):
            return "status 'ok' without BatchNorm statistics"
    return None


@dataclass(frozen=True)
class _TaskKind:
    """What sets one kind of pool task apart; the round loop is shared."""

    # Key of the kind's deadline EMA.
    name: str
    # What a task is called in fault descriptions.
    noun: str
    # Schema validator: a description of what is wrong, or None.
    problem: Callable[[Any], Optional[str]]
    # Whether crashes count toward quarantine.  Probe candidates do; a
    # recovery shard is a position in a batch, not a candidate, and
    # banning one would only move work around for no diagnostic gain.
    quarantine: bool


_PROBE = _TaskKind("eval", "candidate", outcome_problem, quarantine=True)
_SHARD = _TaskKind("train", "shard", train_outcome_problem, quarantine=False)


class _InFlight:
    """One submitted task awaiting its result."""

    __slots__ = ("key", "worker", "requeued")

    def __init__(self, key: Hashable, worker: int) -> None:
        self.key = key
        self.worker = worker
        self.requeued = False


class PendingRound:
    """A round that has been submitted but not yet collected.

    The handle :meth:`PoolSupervisor.start_round` hands to
    :meth:`PoolSupervisor.collect_round`.  The deadline *duration* is
    fixed at start time, but its clock starts at collect time.
    ``resubmit(worker_id, task_id)`` sends one task (again, on a
    requeue); ``units`` is what the kind's EMA is measured per (the
    pinned batches of a probe, 1 for a shard).
    """

    __slots__ = ("gen", "pending", "report", "units", "kind", "resubmit")

    def __init__(
        self,
        gen: int,
        pending: Dict[int, _InFlight],
        report: FanOutReport,
        units: int,
        kind: _TaskKind,
        resubmit: Callable[[int, int], None],
    ) -> None:
        self.gen = gen
        self.pending = pending
        self.report = report
        self.units = units
        self.kind = kind
        self.resubmit = resubmit


class PoolSupervisor:
    """Per-run supervisor: deadlines, respawns, salvage, quarantine.

    One instance lives for the whole CCQ run (its EMAs, quarantine set
    and respawn budget span pool generations); each competition step's
    fan-out goes through :meth:`run_round` (submission in
    :meth:`start_round`, collection in :meth:`collect_round`), and each
    data-parallel recovery batch through :meth:`run_train_round` — the
    same supervised round over the other task kind.
    """

    def __init__(
        self,
        config: Optional[SupervisionConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or SupervisionConfig()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        # Per-kind EMA of healthy task time per unit (a shard's scaled
        # forward/backward has a very different cost profile from a
        # probe evaluation, so the two deadlines adapt independently).
        self._ema: Dict[str, float] = {}
        self.respawns_used = 0
        self._crash_counts: Dict[Hashable, int] = {}
        self._quarantined: Set[Hashable] = set()
        # Workers whose respawn failed for good (budget or repeated
        # failure): excluded from sweeps until the pool is rebuilt.
        self._written_off: Set[int] = set()

    # -- deadline policy -----------------------------------------------------

    @property
    def ema_batch_s(self) -> Optional[float]:
        """Measured per-batch probe evaluation time (EMA), if any yet."""
        return self._ema.get(_PROBE.name)

    def observe_elapsed(
        self, elapsed: float, units: int, kind: str = _PROBE.name
    ) -> None:
        """Feed one healthy task's wall clock into its kind's EMA."""
        if elapsed <= 0 or units <= 0:
            return
        per_unit = elapsed / units
        previous = self._ema.get(kind)
        if previous is None:
            self._ema[kind] = per_unit
        else:
            alpha = self.config.ema_alpha
            self._ema[kind] = alpha * per_unit + (1.0 - alpha) * previous

    def task_deadline_s(self, units: int, kind: str = _PROBE.name) -> float:
        """Deadline for a single task of ``units`` EMA units."""
        cfg = self.config
        if cfg.probe_timeout is not None:
            return cfg.probe_timeout
        ema = self._ema.get(kind)
        if ema is None:
            return cfg.startup_timeout
        derived = max(1, units) * ema * cfg.deadline_safety
        return min(max(derived, cfg.deadline_floor), cfg.deadline_ceiling)

    def round_deadline_s(
        self, n_tasks: int, units: int, n_workers: int,
        kind: str = _PROBE.name,
    ) -> float:
        """Deadline for a whole round (tasks run ``n_workers``-wide)."""
        per_task = self.task_deadline_s(units, kind)
        waves = math.ceil(n_tasks / max(1, n_workers))
        return per_task * max(1, waves)

    # -- quarantine ----------------------------------------------------------

    @property
    def quarantined(self) -> Set[Hashable]:
        return set(self._quarantined)

    def is_quarantined(self, key: Hashable) -> bool:
        return key in self._quarantined

    def _count_crash(
        self, key: Hashable, report: FanOutReport, kind: _TaskKind
    ) -> None:
        if not kind.quarantine or key in self._quarantined:
            return
        count = self._crash_counts.get(key, 0) + 1
        self._crash_counts[key] = count
        if count >= self.config.quarantine_threshold:
            self._quarantined.add(key)
            report.quarantined.append(key)
            self.telemetry.logger.warning(
                "candidate quarantined after repeated worker crashes",
                candidate=str(key), crashes=count,
            )

    # -- budget lifecycle ----------------------------------------------------

    def reset_budget(self) -> None:
        """Re-arm the respawn budget (called at pool re-promotion)."""
        self.respawns_used = 0
        self._written_off.clear()

    # -- the probe round -----------------------------------------------------

    def run_round(
        self,
        pool: ProbeWorkerPool,
        state_arrays: Dict[str, Any],
        bit_config: Dict[str, Any],
        pinned_batches: Sequence[Any],
        tasks: Sequence[ProbeTask],
        trace: Optional[Dict[str, Any]] = None,
    ) -> FanOutReport:
        """Broadcast, fan ``tasks`` out, and collect under supervision.

        Never raises for a *worker* fault — those are healed or
        absorbed into the report.  A fault in the supervisor's own
        machinery (or an unrecoverable broadcast failure) still
        propagates as :class:`PoolError` and the caller degrades.

        ``trace`` (optional) is forwarded with every submit — including
        requeues — so worker-side spans join the parent's fan-out span
        into one trace.
        """
        started = self.start_round(
            pool, state_arrays, bit_config, pinned_batches, tasks,
            trace=trace,
        )
        if started is None:
            return FanOutReport()
        return self.collect_round(pool, started)

    def start_round(
        self,
        pool: ProbeWorkerPool,
        state_arrays: Dict[str, Any],
        bit_config: Dict[str, Any],
        pinned_batches: Sequence[Any],
        tasks: Sequence[ProbeTask],
        trace: Optional[Dict[str, Any]] = None,
    ) -> Optional[PendingRound]:
        """Broadcast and submit ``tasks``; return the round handle.

        The first half of :meth:`run_round`.  Returns ``None`` when
        nothing was fanned out (every task quarantined).
        """
        tasks = [t for t in tasks if t[0] not in self._quarantined]
        if not tasks:
            return None
        report = FanOutReport(attempted=len(tasks))

        # Heal anything already dead, then broadcast (retry once after
        # healing if the sync itself trips over a fault).
        self._sweep_dead(pool, report)
        try:
            pool.broadcast(state_arrays, bit_config, pinned_batches)
        except PoolError as err:
            report.faults.append(f"broadcast failed: {err}")
            self._sweep_dead(pool, report)
            if report.degraded:
                raise
            pool.broadcast(state_arrays, bit_config, pinned_batches)

        def resubmit(worker_id: int, task_id: int) -> None:
            _, layer_names, bits = tasks[task_id]
            pool.submit(worker_id, "eval", task_id,
                        (list(layer_names), bits), trace=trace)

        return self._submit(
            pool, _PROBE, {i: task[0] for i, task in enumerate(tasks)},
            pool.alive_workers(), resubmit, len(pinned_batches), report,
        )

    def collect_round(
        self, pool: ProbeWorkerPool, started: PendingRound
    ) -> FanOutReport:
        """Collect a started round's results under supervision.

        The second half of :meth:`run_round`.  The deadline duration
        was fixed at :meth:`start_round`; its clock starts now.
        """
        return self._collect(pool, started)

    # -- the recovery-shard round --------------------------------------------

    def run_train_round(
        self,
        pool: ProbeWorkerPool,
        arrays: Dict[str, Any],
        bit_config: Dict[str, Any],
        batch_seq: int,
        shard_ids: Sequence[int],
        batch_total: int,
        n_workers: int,
        trace: Optional[Dict[str, Any]] = None,
    ) -> "tuple[Dict[int, Dict[str, Any]], FanOutReport]":
        """One recovery batch's shard round under supervision.

        Returns ``(outcomes by shard id, report)``.  The probe round's
        healing policy, without quarantine: a missing shard is
        recomputed in-process by the trainer (bit-identically), so
        there is never a reason to ban one.  Divergent (non-finite)
        shard losses are valid results here; the trainer's
        post-all-reduce guard judges them.
        """
        report = FanOutReport(attempted=len(shard_ids))
        self._sweep_dead(pool, report)
        name, manifest = pool.train_broadcast(arrays)
        payload = (batch_seq, name, manifest, bit_config, batch_total)

        def resubmit(worker_id: int, shard_id: int) -> None:
            pool.submit(worker_id, "rtrain", shard_id, payload, trace=trace)

        started = self._submit(
            pool, _SHARD, {shard_id: shard_id for shard_id in shard_ids},
            pool.alive_workers()[: max(1, n_workers)], resubmit, 1, report,
        )
        report = self._collect(pool, started)
        return report.outcomes, report

    # -- the supervised round, both kinds ------------------------------------

    def _submit(
        self,
        pool: ProbeWorkerPool,
        kind: _TaskKind,
        keys: Dict[int, Hashable],
        workers: Sequence[int],
        resubmit: Callable[[int, int], None],
        units: int,
        report: FanOutReport,
    ) -> PendingRound:
        """Submit ``keys`` (task id -> key) round-robin over ``workers``."""
        gen = pool.begin_round()
        if not workers:
            raise PoolError("no live workers to fan out to")
        pending: Dict[int, _InFlight] = {}
        for i, (task_id, key) in enumerate(keys.items()):
            worker = workers[i % len(workers)]
            resubmit(worker, task_id)
            pending[task_id] = _InFlight(key, worker)
        report.deadline_s = self.round_deadline_s(
            len(pending), units, len(workers), kind.name
        )
        return PendingRound(gen, pending, report, units, kind, resubmit)

    def _collect(
        self, pool: ProbeWorkerPool, started: PendingRound
    ) -> FanOutReport:
        """Collect until every task is answered or the deadline expires."""
        report = started.report
        pending = started.pending
        deadline = time.monotonic() + report.deadline_s
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            message = pool.next_message(timeout=min(0.1, remaining))
            if message is not None and message[0] == "result":
                self._absorb(pool, started, message[1])
            self._sweep_dead(pool, report, started)

        # Deadline expired with stragglers: the workers still holding
        # them are hung — recycle them, the tasks run in-process.
        if pending:
            hung = sorted({entry.worker for entry in pending.values()})
            report.faults.append(
                f"round deadline ({report.deadline_s:.1f}s) expired; "
                f"worker(s) {hung} hung with "
                f"{len(pending)} {started.kind.noun}(s) in flight"
            )
            for entry in pending.values():
                self._count_crash(entry.key, report, started.kind)
                report.missing.append(entry.key)
            pending.clear()
            for worker_id in hung:
                self._recycle(pool, worker_id, report)

        report.completed = len(report.outcomes)
        if report.faults:
            report.salvaged = report.completed
        return report

    def _absorb(
        self, pool: ProbeWorkerPool, started: PendingRound, outcome: Any
    ) -> None:
        if isinstance(outcome, dict) and outcome.get("gen") != started.gen:
            return  # stale result from an aborted earlier round
        kind = started.kind
        pending = started.pending
        report = started.report
        problem = kind.problem(outcome)
        if problem is not None:
            # Corrupt result: untrusted worker, the task runs in-process.
            task_id = (
                outcome.get("task_id") if isinstance(outcome, dict) else None
            )
            entry = pending.pop(task_id, None) if isinstance(
                task_id, int
            ) else None
            worker = (
                entry.worker if entry is not None
                else outcome.get("worker") if isinstance(outcome, dict)
                else None
            )
            report.faults.append(
                f"corrupt result from worker {worker}: {problem}"
            )
            if entry is not None:
                self._count_crash(entry.key, report, kind)
                report.missing.append(entry.key)
            if isinstance(worker, int):
                self._recycle(pool, worker, report, started)
            return
        entry = pending.pop(outcome["task_id"], None)
        if entry is None:
            return  # duplicate or already-requeued-and-answered
        if outcome["status"] == "error":
            # The worker is healthy; the *task* failed.  The in-process
            # path will raise the same error if it is real — identical
            # to a serial run, so just step aside.
            report.faults.append(
                f"worker {outcome.get('worker')} error on {kind.noun} "
                f"{entry.key}: {outcome.get('message')}"
            )
            self._count_crash(entry.key, report, kind)
            report.missing.append(entry.key)
            return
        report.outcomes[entry.key] = outcome
        if outcome["status"] == "ok":
            self.observe_elapsed(
                float(outcome.get("elapsed", 0.0)), started.units, kind.name
            )

    def _sweep_dead(
        self,
        pool: ProbeWorkerPool,
        report: FanOutReport,
        started: Optional[PendingRound] = None,
    ) -> None:
        for worker_id in pool.dead_workers():
            if worker_id in self._written_off:
                continue
            report.faults.append(f"worker {worker_id} died")
            self._recycle(pool, worker_id, report, started)

    def _recycle(
        self,
        pool: ProbeWorkerPool,
        worker_id: int,
        report: FanOutReport,
        started: Optional[PendingRound] = None,
    ) -> None:
        """Respawn ``worker_id`` and requeue (once) its in-flight tasks."""
        pending = started.pending if started is not None else {}
        lost = [tid for tid, e in pending.items() if e.worker == worker_id]
        for tid in lost:
            self._count_crash(pending[tid].key, report, started.kind)
        self._respawn(pool, worker_id, report)
        alive = pool.alive_workers()
        for i, tid in enumerate(lost):
            entry = pending[tid]
            if entry.key in self._quarantined or entry.requeued or not alive:
                # Second fault on this task (or nowhere to run it): it
                # runs in-process instead.
                del pending[tid]
                report.missing.append(entry.key)
                continue
            entry.requeued = True
            entry.worker = alive[i % len(alive)]
            started.resubmit(entry.worker, tid)
            report.requeued += 1

    def _respawn(
        self, pool: ProbeWorkerPool, worker_id: int, report: FanOutReport
    ) -> bool:
        while True:
            if self.respawns_used >= self.config.respawn_budget:
                report.degraded = True
                self._written_off.add(worker_id)
                report.faults.append(
                    f"respawn budget ({self.config.respawn_budget}) "
                    f"exhausted; worker {worker_id} stays down"
                )
                return False
            backoff = min(
                self.config.respawn_backoff_s * (2 ** self.respawns_used),
                self.config.respawn_backoff_cap_s,
            )
            if backoff > 0:
                time.sleep(backoff)
            self.respawns_used += 1
            try:
                pool.respawn_worker(worker_id)
            except PoolError as err:
                report.faults.append(
                    f"respawn of worker {worker_id} failed: {err}"
                )
                continue  # retry under the same budget/backoff regime
            report.respawned += 1
            self._written_off.discard(worker_id)
            self.telemetry.logger.info(
                "probe worker respawned", worker=worker_id,
                respawns_used=self.respawns_used,
                budget=self.config.respawn_budget,
            )
            return True
