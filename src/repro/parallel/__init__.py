"""Parallel execution backend for CCQ probe evaluation.

A persistent multiprocess worker pool (:class:`ProbeWorkerPool`) with
shared-memory ndarray broadcast (:class:`SharedArrayStore`): each
competition step, the frozen model state and pinned probe batches are
packed once into a shared segment, the step's distinct ``(expert,
next_bits)`` candidates are fanned out across the workers, and the
losses come back bit-identical to the serial path for any worker count
(see ``docs/parallel.md`` for the determinism contract).

Mid-run faults are handled by the supervision layer
(:class:`PoolSupervisor`): adaptive deadlines, worker respawn under a
bounded budget, partial-result salvage and candidate quarantine — all
trajectory-invariant, since a missing result simply evaluates serially
inside the Hedge loop.

While a pool is alive it also owns the CPU budget: the parent and
every worker pin their OpenBLAS threads so that workers and BLAS do not
oversubscribe the cores (:mod:`repro.parallel.blas`).

Construction goes through :func:`create_probe_pool` so the CCQ driver
(and tests) can swap the factory; any failure to start is a
:class:`PoolError`, which callers treat as "run serial instead".
"""

from __future__ import annotations

from typing import Optional

from ..telemetry import Telemetry
from .ddp import DDPTrainer, compute_shard_grad, plan_shards
from .pool import PoolError, ProbeTask, ProbeWorkerPool
from .sharedmem import SharedArrayStore, attach_arrays, views_from
from .supervisor import (
    FanOutReport,
    PendingRound,
    PoolSupervisor,
    SupervisionConfig,
)

__all__ = [
    "PoolError",
    "ProbeTask",
    "ProbeWorkerPool",
    "SharedArrayStore",
    "attach_arrays",
    "views_from",
    "create_probe_pool",
    "PoolSupervisor",
    "SupervisionConfig",
    "FanOutReport",
    "PendingRound",
    "DDPTrainer",
    "plan_shards",
    "compute_shard_grad",
]


def create_probe_pool(
    model,
    n_workers: int,
    quantize_activations: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ProbeWorkerPool:
    """Start a probe pool; raises :class:`PoolError` when it cannot."""
    return ProbeWorkerPool(
        model, n_workers=n_workers,
        quantize_activations=quantize_activations,
        telemetry=telemetry,
    )
