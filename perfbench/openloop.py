"""Open-loop load generation and the statistics reported from it.

One generator thread sends request ``i`` when it is due, at
``t0 + i / rate``, whether or not earlier requests have completed, so a
stalled server builds a queue instead of slowing the sender.  Each
request's latency is measured from its *due* time, which charges a
stall to every request it delays, and the generator reports how late it
ran itself.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

# At least this many samples must lie beyond a reported percentile.
MIN_TAIL = 10


@dataclass
class Phase:
    """One fixed-rate open-loop phase."""

    rate: float
    sent: int = 0
    failed: int = 0
    # Answers that the ``check`` callable rejected.
    mismatches: int = 0
    # The first submit or answer error, for the report.
    first_error: Optional[str] = None
    latencies_ms: List[float] = field(default_factory=list)
    # Completion times of the answered requests (clock seconds).
    answered_at: List[float] = field(default_factory=list)
    late_ms_max: float = 0.0
    # Requests not yet answered when the last one was due.
    outstanding_at_end: int = 0
    start: float = 0.0
    end: float = 0.0


def run_phase(
    submit: Callable[[Any], Any],
    inputs: Sequence[Any],
    rate: float,
    n_requests: int,
    check: Optional[Callable[[int, Any], bool]] = None,
    timeout_s: float = 10.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Phase:
    """Send ``n_requests`` at ``rate`` per second; wait for the answers.

    Request ``i`` carries ``inputs[i % len(inputs)]``.  ``submit(x)``
    must return a ``concurrent.futures.Future``.  A request whose
    submit raises, whose future fails, or that is not answered within
    ``timeout_s`` after the last send counts as failed.  ``check(index,
    answer)`` judges each answer as it arrives, so no answer is kept
    (a growing heap would lengthen garbage-collection pauses).
    """
    phase = Phase(rate=float(rate))
    done_at: List[Optional[float]] = [None] * n_requests
    correct: List[bool] = [True] * n_requests
    due: List[float] = [0.0] * n_requests
    futures = []

    def on_done(future, i):
        done_at[i] = clock()
        if check is not None and future.exception() is None:
            correct[i] = check(i % len(inputs), future.result())

    t0 = clock() + 0.005
    phase.start = t0
    for i in range(n_requests):
        due[i] = t0 + i / rate
        now = clock()
        if due[i] > now:
            sleep(due[i] - now)
            now = clock()
        phase.late_ms_max = max(phase.late_ms_max, 1e3 * (now - due[i]))
        phase.sent += 1
        try:
            future = submit(inputs[i % len(inputs)])
        except Exception as err:  # counted against the attempts
            phase.failed += 1
            phase.first_error = phase.first_error or repr(err)
            continue
        future.add_done_callback(lambda f, i=i: on_done(f, i))
        futures.append((i, future))
    phase.outstanding_at_end = sum(1 for _, f in futures if not f.done())
    wait([f for _, f in futures], timeout=timeout_s)
    phase.end = clock()
    for i, future in futures:
        if not future.done() or future.exception() is not None:
            phase.failed += 1
            phase.first_error = phase.first_error or (
                repr(future.exception()) if future.done() else
                f"no answer within {timeout_s} s")
            continue
        finished = done_at[i]
        if finished is None:  # callback still running: answered just now
            finished = clock()
        phase.latencies_ms.append(1e3 * (finished - due[i]))
        phase.answered_at.append(finished)
        if not correct[i]:
            phase.mismatches += 1
    return phase


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than
    ``MIN_TAIL`` samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL:
        return None
    return sorted(values)[rank - 1]


def answer_rate(phase: Phase, skip: float = 0.25) -> float:
    """Answers per second after the first ``skip`` share of answers.

    Skipping the ramp-up leaves the steady answer rate; when the phase
    was offered more than the server can take, that is its peak
    throughput.
    """
    times = sorted(phase.answered_at)
    first = int(len(times) * skip)
    if len(times) - first < 2:
        return 0.0
    return (len(times) - 1 - first) / (times[-1] - times[first])


def sustainable(phase: Phase, limit_ms: float, max_batch: int) -> bool:
    """p99 within ``limit_ms``, nothing failed, and no growing backlog.

    The backlog is growing when more requests are unanswered at the
    last send than the server could have taken in within the latency
    limit at this rate, plus one batch being formed.
    """
    p99 = percentile(phase.latencies_ms, 0.99)
    backlog_cap = math.ceil(phase.rate * limit_ms / 1e3) + max_batch
    return (
        p99 is not None
        and p99 <= limit_ms
        and phase.failed == 0
        and phase.outstanding_at_end <= backlog_cap
    )


def ladder(low: float, high: float, step: float) -> List[float]:
    """Geometric rate ladder from ``low`` to at least ``high``; each
    rung is at most ``step`` above the last (rounded down to 0.1/s)."""
    rates = [float(low)]
    while rates[-1] < high:
        rates.append(math.floor(rates[-1] * (1.0 + step) * 10) / 10)
    return rates


def max_sustainable_rate(
    rungs: Sequence[float], passes: Callable[[float], bool]
) -> Tuple[float, List[Tuple[float, bool]]]:
    """Highest rung for which ``passes(rate)`` holds, by bisection.

    Assumes a rung passes whenever a higher one does.  Returns the rate
    (0.0 when even the lowest rung fails) and every probe made, in
    order.
    """
    lo, hi = -1, len(rungs)  # rungs[lo] passes, rungs[hi] fails
    probes: List[Tuple[float, bool]] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = passes(rungs[mid])
        probes.append((rungs[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return (rungs[lo] if lo >= 0 else 0.0), probes
