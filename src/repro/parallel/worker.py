"""The pool-worker child process loop.

Each worker owns a private replica of the model (inherited through the
``fork`` at pool start) and serves three commands from its queue:

``sync``
    Re-attach (if the segment changed) the shared-memory broadcast,
    copy the frozen state into the replica, apply the bit
    configuration, and rebuild the pinned probe batches.  After a sync
    the replica is byte-identical to the parent's model.

``eval``
    Set one candidate's layers to its probed bit width, run the exact
    serial evaluation (:func:`repro.core.training.evaluate` over the
    pinned batches — same reduction order, same ``no_grad`` fast path),
    restore the bits, and ship ``(loss, elapsed)`` back.  A
    :class:`~repro.core.resilience.DivergenceError` is not an error
    here: its context fields are shipped so the parent can re-raise a
    faithful reconstruction at the moment the competition actually
    consumes the candidate (keeping journals identical to a serial
    run).

``rtrain``
    One recovery shard: reload the train-broadcast state (once per
    batch, keyed on the batch sequence number), run the canonical
    scaled forward/backward of :func:`repro.parallel.ddp.
    compute_shard_grad` on this shard's slice, and ship the gradient
    list plus captured BatchNorm batch statistics.  The parent folds
    shards in canonical order, so which worker ran which shard is
    invisible to the trajectory.

Both task kinds run in one envelope (:func:`_run_task`): trace-context
parsing, the fault-injection hook, the span, status counter and time
histogram, and the ``send``.  Any exception other than a divergence is
shipped as ``status="error"`` and the parent runs that task in-process.

Workers never touch journals or checkpoints — persistence stays
single-writer in the parent.  Telemetry, by contrast, is captured
*in-process* when the parent passes a ``telemetry_dir``: each worker
runs its own registry + span tracer writing ``events-w<id>.jsonl`` and
``metrics-w<id>.json`` (single-writer per file, so there is still no
shared mutable observer state).  Task commands carry a trace context
(``trace_id``/parent span id stamped by the parent, plus the submit
wall-clock), so a round reassembles into one coherent cross-process
trace and the queue-wait vs. compute split is measurable — see
:mod:`repro.telemetry.aggregate`.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import blas

__all__ = ["worker_main", "PINNED_PREFIX", "DDP_PREFIX", "FAULT_HOOK"]

# Broadcast keys carrying pinned probe batches instead of model state.
PINNED_PREFIX = "pinned."

# Train-broadcast keys carrying one recovery shard's batch slice
# (``ddp.<shard>.images`` / ``ddp.<shard>.labels``) instead of model
# state.  Recovery rounds use a segment separate from the probe
# broadcast so the two layouts never thrash each other's signature.
DDP_PREFIX = "ddp."

# How long a worker blocks on its command queue before re-checking that
# the parent is still alive (so an orphaned worker exits on its own).
_POLL_S = 1.0

# Test seam for chaos/fault-injection suites.  Set (in the parent,
# before the pool forks — the child inherits it) to an object with:
#
# ``__call__(worker_id, task_id, layer_names, bits) -> Optional[str]``
#     Consulted before every task (a recovery shard passes
#     ``["__recover__"], 0``); may return ``"kill"`` (the worker dies
#     with ``os._exit``), ``"hang"`` (sleeps ``hang_seconds`` — the
#     supervisor's deadline must reap it) or ``"corrupt"`` (ships a
#     schema-violating result).
# ``on_start(worker_id) -> Optional[str]`` (optional)
#     Consulted before the ready handshake; ``"kill"`` makes the
#     spawn itself fail — the mid-respawn fault.
# ``hang_seconds`` (optional, default 300)
#
# Production code never sets this; it stays None.
FAULT_HOOK = None

# Distinctive exit codes so injected deaths are recognisable in the
# drained exit statuses.
_EXIT_INJECTED_KILL = 170
_EXIT_INJECTED_START_KILL = 171

# Per task kind: (span name, status counter, elapsed histogram).
_TASK_TELEMETRY = {
    "eval": ("worker_eval", "worker.evals", "worker.eval_s"),
    "rtrain": ("worker_train", "worker.train_shards", "worker.train_s"),
}


def split_broadcast(
    views: Dict[str, np.ndarray]
) -> "tuple[Dict[str, np.ndarray], List[tuple]]":
    """Split broadcast views into (model state, pinned batches).

    Pinned batches are keyed ``pinned.<i>.images`` / ``pinned.<i>.labels``
    and returned *copied* (the state is copied into the model anyway),
    so no view outlives the shared segment.
    """
    state: Dict[str, np.ndarray] = {}
    images: Dict[int, np.ndarray] = {}
    labels: Dict[int, np.ndarray] = {}
    for key, view in views.items():
        if not key.startswith(PINNED_PREFIX):
            state[key] = view
            continue
        _, index, kind = key.split(".")
        if kind == "images":
            images[int(index)] = np.array(view)
        else:
            labels[int(index)] = np.array(view)
    batches = [(images[i], labels[i]) for i in sorted(images)]
    return state, batches


def _parent_alive() -> bool:
    try:
        import multiprocessing

        parent = multiprocessing.parent_process()
        return parent is None or parent.is_alive()
    except Exception:
        # Fallback: a reparented orphan's ppid is init's.
        return os.getppid() != 1


class _Segment:
    """One attached shared-memory segment, re-mapped only when renamed."""

    def __init__(self) -> None:
        self.shm: Any = None
        self.name: Optional[str] = None

    def views(self, name: str, manifest: Any) -> Dict[str, np.ndarray]:
        from .sharedmem import attach_arrays, views_from

        if self.shm is not None and name != self.name:
            self.close()
        if self.shm is None:
            self.shm, views = attach_arrays(name, manifest)
            self.name = name
            return views
        # Same segment, refreshed contents: rebuild the views over the
        # existing mapping (no re-map).
        return views_from(self.shm, manifest)

    def close(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
            except (OSError, BufferError):
                pass
            self.shm = None


class _Replica:
    """A worker's model replica and the compute bodies of its tasks."""

    def __init__(self, model, quantize_activations: bool) -> None:
        from ..quantization.qmodules import quantized_layers

        self.model = model
        self.quantize_activations = quantize_activations
        self.layers = dict(quantized_layers(model))
        self.probe_segment = _Segment()
        self.pinned: Any = None
        # Recovery-training state: the train broadcast's segment and
        # views, the (segment, batch sequence) whose weights are
        # loaded, and the lazily built parameter/BN enumerations.
        self.train_segment = _Segment()
        self.train_views: Optional[Dict[str, np.ndarray]] = None
        self.train_loaded: Optional[tuple] = None
        self.train_params: Any = None
        self.train_bn_names: Optional[Dict[int, str]] = None

    def load(self, state: Dict[str, np.ndarray], bit_config: Any) -> None:
        from ..nn.serialization import load_state_arrays
        from ..quantization.qmodules import set_bit_config

        load_state_arrays(self.model, state)
        set_bit_config(self.model, bit_config)
        # Mirror load_checkpoint: the loaded state carries the trained
        # quantizer values, so statistics-initializing quantizers must
        # not re-derive them on first forward.
        for layer in self.layers.values():
            for quantizer in (layer.weight_quantizer, layer.act_quantizer):
                if hasattr(quantizer, "_initialized"):
                    quantizer._initialized = True

    def sync(self, name: str, manifest: Any, bit_config: Any) -> None:
        from ..core.probe import PinnedProbeSet

        state, batches = split_broadcast(
            self.probe_segment.views(name, manifest)
        )
        self.load(state, bit_config)
        self.pinned = PinnedProbeSet(batches)

    def evaluate(self, layer_names: List[str], bits: int) -> Dict[str, Any]:
        from ..core.resilience import DivergenceError
        from ..core.training import evaluate

        if self.pinned is None:
            raise RuntimeError("eval before first sync")
        layers = self.layers
        saved = [(layers[n].w_bits, layers[n].a_bits) for n in layer_names]
        try:
            for n in layer_names:
                layers[n].w_bits = bits
                if self.quantize_activations:
                    layers[n].a_bits = bits
            result = evaluate(self.model, self.pinned)
        except DivergenceError as err:
            return {
                "status": "diverged", "message": str(err),
                "stage": err.stage, "batch_index": err.batch_index,
                "value": err.value,
            }
        finally:
            for n, (w_bits, a_bits) in zip(layer_names, saved):
                layers[n].w_bits = w_bits
                layers[n].a_bits = a_bits
        return {"status": "ok", "loss": float(result.loss)}

    def train_shard(
        self, shard_id: int, batch_seq: int, name: str, manifest: Any,
        bit_config: Any, batch_total: int,
    ) -> Dict[str, Any]:
        from .ddp import bn_module_names, compute_shard_grad

        if (name, batch_seq) != self.train_loaded:
            # One state reload per batch, however many of its shards
            # land on this worker.  The old views go first: a segment
            # still exporting them cannot be closed for a re-map.
            self.train_views = None
            self.train_views = self.train_segment.views(name, manifest)
            self.load({
                key: view for key, view in self.train_views.items()
                if not key.startswith(DDP_PREFIX)
            }, bit_config)
            self.train_loaded = (name, batch_seq)
        if self.train_params is None:
            from ..core.training import trainable_parameters

            self.train_params = trainable_parameters(self.model)
            self.train_bn_names = bn_module_names(self.model)
        images = np.array(self.train_views[f"{DDP_PREFIX}{shard_id}.images"])
        labels = np.array(self.train_views[f"{DDP_PREFIX}{shard_id}.labels"])
        return compute_shard_grad(
            self.model, self.train_params, self.train_bn_names,
            images, labels, shard_id, batch_total,
        )

    def close(self) -> None:
        self.pinned = None
        self.train_views = None
        self.probe_segment.close()
        self.train_segment.close()


def _run_task(
    replica: _Replica, telemetry: Any, worker_id: int, message: tuple,
    send: Callable[[tuple], None],
) -> None:
    """One ``eval`` or ``rtrain`` command, from trace parsing to send."""
    kind, gen, task_id, payload, trace = message
    outcome: Dict[str, Any] = {
        "task_id": task_id, "worker": worker_id, "gen": gen,
    }
    span_attrs: Dict[str, Any] = {"task_id": task_id, "gen": gen}
    if kind == "eval":
        layer_names, bits = payload
        span_attrs["bits"] = bits
        hook_args = (layer_names, bits)
        compute = partial(replica.evaluate, layer_names, bits)
    else:
        outcome["kind"] = "train"
        span_attrs["batch_seq"] = payload[0]
        hook_args = (["__recover__"], 0)
        compute = partial(replica.train_shard, task_id, *payload)
    if isinstance(trace, dict):
        # Cross-process parenting: the parent's round span id rides
        # along so the aggregator can reattach this span under it;
        # submitted_ts (wall clock — the only clock shared across
        # processes) gives queue wait.
        for field in ("trace_id", "parent_span", "step"):
            if trace.get(field) is not None:
                span_attrs[field] = trace[field]
        submitted = trace.get("submitted_ts")
        if submitted is not None:
            wait_s = max(0.0, time.time() - float(submitted))
            span_attrs["queue_wait_s"] = wait_s
            telemetry.histogram("worker.queue_wait_s").observe(wait_s)
    if FAULT_HOOK is not None:
        action = FAULT_HOOK(worker_id, task_id, *hook_args)
        if action == "kill":
            os._exit(_EXIT_INJECTED_KILL)
        if action == "hang":
            time.sleep(getattr(FAULT_HOOK, "hang_seconds", 300.0))
        elif action == "corrupt":
            outcome["status"] = "ok"
            outcome["loss"] = None  # schema violation
            outcome["elapsed"] = 0.0
            send(("result", outcome))
            return
    span_name, counter, histogram = _TASK_TELEMETRY[kind]
    span = telemetry.span(span_name, **span_attrs)
    span.__enter__()
    t0 = time.perf_counter()
    try:
        outcome.update(compute())
    except Exception as err:
        # Ship it instead of dying: the parent runs the task
        # in-process, and a live worker still drains its stop command.
        outcome["status"] = "error"
        outcome["message"] = repr(err)
    # A shard times its own forward/backward (state reload excluded).
    outcome.setdefault("elapsed", time.perf_counter() - t0)
    status = str(outcome.get("status"))
    if getattr(span, "attrs", None) is not None:
        span.attrs["status"] = status
    span.__exit__(None, None, None)
    telemetry.counter(counter, status=status).inc()
    telemetry.histogram(histogram).observe(float(outcome["elapsed"]))
    send(("result", outcome))


def worker_main(
    worker_id: int,
    model,
    quantize_activations: bool,
    command_queue,
    result_conn,
    blas_limit: int,
    telemetry_dir: Optional[str] = None,
) -> None:
    """Entry point of one forked pool worker (runs until ``stop``).

    Every message goes to the parent synchronously over ``result_conn``,
    this worker's own pipe.  ``blas_limit`` is the pool's per-process
    BLAS thread budget; the ``ready`` handshake reports the count this
    worker then runs with (None without OpenBLAS).
    """
    blas.limit_threads(blas_limit)
    from ..telemetry import NULL_TELEMETRY, Telemetry

    telemetry = NULL_TELEMETRY
    if telemetry_dir is not None:
        try:
            telemetry = Telemetry.for_worker(telemetry_dir, worker_id)
        except OSError:
            # A worker that cannot observe must still evaluate.
            telemetry = NULL_TELEMETRY

    replica = _Replica(model, quantize_activations)
    if FAULT_HOOK is not None:
        on_start = getattr(FAULT_HOOK, "on_start", None)
        if on_start is not None and on_start(worker_id) == "kill":
            os._exit(_EXIT_INJECTED_START_KILL)
    try:
        result_conn.send(("ready", worker_id, blas.threads()))
        while True:
            try:
                message = command_queue.get(timeout=_POLL_S)
            except queue_module.Empty:
                if not _parent_alive():
                    break
                continue
            kind = message[0]
            if kind == "stop":
                break
            if kind != "sync":
                _run_task(
                    replica, telemetry, worker_id, message, result_conn.send
                )
                continue
            _, name, manifest, bit_config, sync_seq = message
            with telemetry.span("worker_sync", sync_seq=sync_seq):
                replica.sync(name, manifest, bit_config)
            telemetry.counter("worker.syncs").inc()
            # A fresh consistent snapshot after every barrier: a worker
            # killed mid-round still leaves its last synced metrics
            # behind for the aggregator.
            telemetry.write_worker_metrics()
            result_conn.send(("synced", worker_id, sync_seq))
    except BrokenPipeError:
        pass  # the parent is gone; nobody is left to answer
    finally:
        try:
            telemetry.write_worker_metrics()
            telemetry.close()
        except OSError:
            pass
        replica.close()
