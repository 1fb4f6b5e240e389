"""Layer tracing from outside the program.

Every span is recorded by a wrapper this module installs around a public
function or method of ``repro``; nothing inside ``src/`` is edited.  A
wrapper records (id, parent id, name, start, end, thread, work, result
summary) into an in-memory list and returns exactly what the wrapped
callable returns.  :func:`summarize` turns the span list into the
per-layer metrics named in ``PER_LAYER``.

Work figures for kernels (FLOPs, bytes moved) are *computed from the
argument shapes*, not counted by hardware.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

# Kernel metric groups: name in the metric -> backend method names.
KERNEL_GROUPS: Dict[str, Tuple[str, ...]] = {
    "im2col": ("im2col",),
    "col2im": ("col2im",),
    "gemm": ("gemm",),
    "conv2d_forward": ("conv2d_forward",),
    "conv2d_backward": ("conv2d_backward",),
    "fused_quant_conv2d": ("fused_quant_conv2d",),
    "int_im2col": ("int_im2col",),
    "int_gemm": ("int_gemm",),
    "pools": (
        "max_pool2d_forward", "max_pool2d_backward",
        "avg_pool2d_forward", "avg_pool2d_backward",
    ),
}
FLOAT_KERNELS = (
    "im2col", "col2im", "gemm", "conv2d_forward", "conv2d_backward",
)

PER_LAYER: List[Tuple[str, str]] = [
    ("import.s", "s"),
    ("datasets.synth_s", "s"),
    ("pretrain.s", "s"),
    ("pretrain.samples_per_s", "1/s"),
    ("eval.calls", "count"),
    ("eval.s", "s"),
    ("train.samples_per_s", "1/s"),
    ("recover.calls", "count"),
    ("recover.s", "s"),
    ("recover.epochs", "count"),
    ("hedge.step_s", "s"),
    ("probe.rounds", "count"),
    ("probe.s", "s"),
    ("probe.cache_hit_ratio", "ratio"),
    ("probe.forward_passes", "count"),
    ("probe.useful_ratio", "ratio"),
    ("qweight.hit_ratio", "ratio"),
    ("pool.start_s", "s"),
    ("fanout.rounds", "count"),
    ("fanout.s", "s"),
    ("fanout.wait_s", "s"),
    ("ddp.epoch_s", "s"),
    ("ddp.batches", "count"),
    ("pool.retries", "count"),
    ("checkpoint.calls", "count"),
    ("checkpoint.s", "s"),
]
for _k in KERNEL_GROUPS:
    PER_LAYER += [
        (f"kernel.{_k}.calls", "count"),
        (f"kernel.{_k}.s", "s"),
        (f"kernel.{_k}.gflop", "GFLOP"),
        (f"kernel.{_k}.gbytes", "GB"),
        (f"kernel.{_k}.gflops_per_s", "GFLOP/s"),
    ]
PER_LAYER += [
    ("kernel.matmul_peak_gflops", "GFLOP/s"),
    ("serve.compile_s", "s"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.forward_ms.p50", "ms"),
    ("serve.busy_share", "ratio"),
    ("loadgen.late_ms.max", "ms"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]
PER_LAYER_UNITS = dict(PER_LAYER)


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    work: Any = None
    out: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _begin(self) -> Tuple[int, Optional[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, start, work=None, out=None) -> None:
        end = self.clock()
        self._local.stack.pop()
        self.spans.append(Span(sid, parent, name, start, end,
                               threading.get_ident(), work, out))

    def wrap(
        self,
        fn: Callable,
        name: str,
        cost: Optional[Callable[..., Any]] = None,
        result: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; returns what ``fn`` returns.

        ``cost(*args, **kwargs)`` (computed before the call) and
        ``result(return_value)`` attach work figures to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = cost(*args, **kwargs) if cost is not None else None
            sid, parent = self._begin()
            out = None
            start = self.clock()
            try:
                value = fn(*args, **kwargs)
                if result is not None:
                    out = result(value)
                return value
            finally:
                self._end(sid, parent, name, start, work, out)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form, for phases the benchmark itself runs."""
        sid, parent = self._begin()
        start = self.clock()
        try:
            yield
        finally:
            self._end(sid, parent, name, start)


# -- installing wrappers -------------------------------------------------------

def _rebind_aliases(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` (the
    ``from x import f`` copies) at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def patch_function(tracer: Tracer, module: Any, attr: str, name: str,
                   cost=None, result=None) -> None:
    original = getattr(module, attr)
    traced = tracer.wrap(original, name, cost=cost, result=result)
    setattr(module, attr, traced)
    _rebind_aliases(original, traced)


def patch_method(tracer: Tracer, cls: type, attr: str, name: str,
                 cost=None, result=None) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(original, name, cost=cost, result=result))


# -- computed kernel work ------------------------------------------------------

def _conv_out(h, w, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    return (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1


def _im2col_cost(self, x, kernel, stride, padding, *_, **__):
    n, c, h, w = x.shape
    oh, ow = _conv_out(h, w, kernel, stride, padding)
    cols = n * oh * ow * c * kernel[0] * kernel[1]
    return 0.0, float(x.nbytes + cols * x.itemsize)


def _int_im2col_cost(self, codes, kernel, stride, padding, *_, **__):
    n, c, h, w = codes.shape
    oh, ow = _conv_out(h, w, kernel, stride, padding)
    cols = n * oh * ow * c * kernel[0] * kernel[1]
    return 0.0, float(8 * (codes.size + cols))


def _col2im_cost(self, dcols, x_shape, kernel, stride, padding, *_, **__):
    n, c, h, w = x_shape
    padded = n * c * (h + 2 * padding[0]) * (w + 2 * padding[1])
    return float(dcols.size), float(dcols.nbytes + 2 * padded * dcols.itemsize)


def _gemm_cost(self, a, b, *_, **__):
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    return float(2 * m * k * n), float((a.size + b.size + m * n) * a.itemsize)


def _conv_forward_cost(self, ctx, x, weight, *args, **kwargs):
    stride, padding = (args[-2], args[-1]) if len(args) >= 2 else (
        kwargs["stride"], kwargs["padding"])
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh, ow = _conv_out(h, w, (kh, kw), stride, padding)
    out = n * oh * ow * f
    return (float(2 * out * c * kh * kw),
            float(x.nbytes + weight.nbytes + out * x.itemsize))


def _conv_backward_cost(self, ctx, grad, *_, **__):
    cols, w_flat = ctx.saved[1], ctx.saved[2]
    m, k = cols.shape
    f = w_flat.shape[0]
    return (float(4 * m * k * f),
            float(grad.nbytes + 2 * cols.nbytes + 2 * w_flat.nbytes))


def _pool_forward_cost(self, ctx, x, kernel, stride, padding, *_, **__):
    n, c, h, w = x.shape
    oh, ow = _conv_out(h, w, kernel, stride, padding)
    out = n * c * oh * ow
    return (float(out * kernel[0] * kernel[1]),
            float(x.nbytes + out * x.itemsize))


def _pool_backward_cost(self, ctx, grad, *_, **__):
    return float(grad.size), float(3 * grad.nbytes)


KERNEL_COSTS: Dict[str, Callable] = {
    "im2col": _im2col_cost,
    "col2im": _col2im_cost,
    "gemm": _gemm_cost,
    "int_gemm": _gemm_cost,
    "conv2d_forward": _conv_forward_cost,
    "fused_quant_conv2d": _conv_forward_cost,
    "conv2d_backward": _conv_backward_cost,
    "int_im2col": _int_im2col_cost,
    "max_pool2d_forward": _pool_forward_cost,
    "avg_pool2d_forward": _pool_forward_cost,
    "max_pool2d_backward": _pool_backward_cost,
    "avg_pool2d_backward": _pool_backward_cost,
}


def install_kernels(tracer: Tracer) -> None:
    """Wrap every kernel every registered backend class defines itself."""
    from repro.nn import backends

    classes = {type(backends.get_backend(n)) for n in
               backends.available_backends()}
    classes.add(backends.KernelBackend)
    for cls in classes:
        for attr, cost in KERNEL_COSTS.items():
            if attr in cls.__dict__:
                patch_method(tracer, cls, attr, "kernel." + attr, cost=cost)


# -- layer sets ----------------------------------------------------------------

def _epochs_used(report):
    return getattr(report, "epochs_used", 0)


def _retries(report):
    if isinstance(report, tuple):  # run_train_round: (outcomes, report)
        report = report[1]
    return (getattr(report, "respawned", 0) + getattr(report, "salvaged", 0)
            + getattr(report, "requeued", 0))


def _loader_samples(model, loader, optimizer=None, max_batches=None,
                    *_, **kwargs):
    """Samples one training epoch feeds, computed from the loader."""
    max_batches = kwargs.get("max_batches", max_batches)
    n = len(loader.dataset)
    if max_batches is not None:
        n = min(n, max_batches * loader.batch_size)
    return float(n)


def install_ccq(tracer: Tracer) -> None:
    """Wrap the CCQ pipeline's layers (import ``repro.cli`` first)."""
    import repro.core.collaboration as collaboration
    import repro.core.training as training
    import repro.experiments as experiments
    import repro.parallel as parallel
    import repro.parallel.ddp as ddp
    from repro.core.ccq import CCQQuantizer
    from repro.core.competition import HedgeCompetition
    from repro.core.probe import ProbeEngine
    from repro.core.runstate import RunStateStore
    from repro.parallel.supervisor import PoolSupervisor

    # ``repro.baselines.pretrain`` the attribute is the function; the
    # module is only reachable through sys.modules.
    pretrain_mod = sys.modules["repro.baselines.pretrain"]
    patch_function(tracer, experiments, "build_task", "datasets")
    patch_function(tracer, pretrain_mod, "pretrain", "pretrain")
    patch_function(tracer, training, "evaluate", "eval")
    patch_function(tracer, training, "train_epoch", "train",
                   cost=_loader_samples)
    patch_function(tracer, collaboration, "recover", "recover",
                   result=_epochs_used)
    patch_method(tracer, CCQQuantizer, "run", "search")
    patch_method(tracer, HedgeCompetition, "run_step", "hedge")
    patch_method(tracer, ProbeEngine, "evaluate", "probe")
    patch_method(tracer, RunStateStore, "save", "checkpoint")
    patch_function(tracer, parallel, "create_probe_pool", "pool.start")
    patch_method(tracer, PoolSupervisor, "start_round", "fanout.start")
    patch_method(tracer, PoolSupervisor, "collect_round", "fanout.collect",
                 result=_retries)
    patch_method(tracer, PoolSupervisor, "run_train_round", "ddp.round",
                 result=_retries)
    patch_method(tracer, ddp.DDPTrainer, "train_epoch", "ddp.epoch",
                 cost=lambda self, *a, **k: _loader_samples(*a, **k))
    patch_function(tracer, ddp, "reduce_shard_outcomes", "ddp.reduce")
    install_kernels(tracer)


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layers (import ``repro.cli`` first)."""
    import repro.serving.compile as compile_mod

    patch_function(tracer, compile_mod, "compile_model", "serve.compile")
    patch_method(tracer, compile_mod.CompiledModel, "forward",
                 "serve.forward",
                 cost=lambda self, x, *a, **k: float(len(x)))
    install_kernels(tracer)


# -- summarizing ---------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    spans = list(spans)
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def _ancestor_names(spans: List[Span]) -> Dict[int, frozenset]:
    by_id = {s.id: s for s in spans}
    memo: Dict[int, frozenset] = {}

    def names(sid):
        if sid is None:
            return frozenset()
        cached = memo.get(sid)
        if cached is None:
            s = by_id.get(sid)
            cached = frozenset() if s is None else (
                names(s.parent) | {s.name})
            memo[sid] = cached
        return cached

    return {s.id: names(s.parent) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    spans: List[Span],
    output: Optional[Dict[str, Any]] = None,
    windows: Sequence[Tuple[float, float]] = (),
) -> Dict[str, float]:
    """Per-layer metrics from one traced process.

    ``output`` is the run's ``--output`` JSON (the program's own
    counters); ``windows`` are the serving load phases, to which the
    serving metrics are limited.  ``trace.unattributed_s`` and
    ``trace.overhead_s`` need the process wall-clock and are filled in
    by the caller; see :func:`covered_s`.
    """
    output = output or {}
    ancestors = _ancestor_names(spans)
    own = self_times(spans)
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    def pick(name, under=None):
        return [s for s in spans if s.name == name
                and (under is None or under in ancestors[s.id])]

    def total(ss):
        return sum(s.duration for s in ss)

    m["import.s"] = total(pick("import"))
    m["datasets.synth_s"] = total(pick("datasets"))
    pre = pick("pretrain")
    m["pretrain.s"] = total(pre)
    m["pretrain.samples_per_s"] = _ratio(
        sum(s.work for s in pick("train", "pretrain")), m["pretrain.s"])
    evals = pick("eval", "search")
    m["eval.calls"] = len(evals)
    m["eval.s"] = total(evals)
    trains = pick("train", "search") + pick("ddp.epoch", "search")
    m["train.samples_per_s"] = _ratio(
        sum(s.work for s in trains), total(trains))
    recovers = pick("recover", "search")
    m["recover.calls"] = len(recovers)
    m["recover.s"] = total(recovers)
    m["recover.epochs"] = sum(s.out or 0 for s in recovers)
    m["hedge.step_s"] = total(pick("hedge"))
    probes = pick("probe")
    m["probe.rounds"] = len(probes)
    m["probe.s"] = total(probes)
    rounds = output.get("probe_rounds", 0)
    hits = output.get("probe_cache_hits", 0)
    passes = output.get("probe_forward_passes", 0)
    m["probe.cache_hit_ratio"] = _ratio(hits, rounds)
    m["probe.forward_passes"] = passes
    m["probe.useful_ratio"] = _ratio(rounds - hits, passes)
    qh = output.get("qweight_cache_hits", 0)
    m["qweight.hit_ratio"] = _ratio(qh, qh + output.get(
        "qweight_cache_misses", 0))
    m["pool.start_s"] = total(pick("pool.start"))
    collects = pick("fanout.collect")
    m["fanout.rounds"] = len(collects)
    m["fanout.wait_s"] = total(collects)
    m["fanout.s"] = m["fanout.wait_s"] + total(pick("fanout.start"))
    m["ddp.epoch_s"] = total(pick("ddp.epoch"))
    m["ddp.batches"] = len(pick("ddp.reduce"))
    m["pool.retries"] = sum(
        s.out or 0 for s in collects + pick("ddp.round"))
    saves = pick("checkpoint")
    m["checkpoint.calls"] = len(saves)
    m["checkpoint.s"] = total(saves)

    for group, attrs in KERNEL_GROUPS.items():
        names = {"kernel." + a for a in attrs}
        ks = [s for s in spans if s.name in names]
        flop = sum(s.work[0] for s in ks)
        inclusive = total(ks)
        m[f"kernel.{group}.calls"] = len(ks)
        m[f"kernel.{group}.s"] = sum(own[s.id] for s in ks)
        m[f"kernel.{group}.gflop"] = flop / 1e9
        m[f"kernel.{group}.gbytes"] = sum(s.work[1] for s in ks) / 1e9
        m[f"kernel.{group}.gflops_per_s"] = _ratio(flop / 1e9, inclusive)

    m["serve.compile_s"] = total(pick("serve.compile"))
    fwd = [s for s in pick("serve.forward")
           if any(lo <= s.start < hi for lo, hi in windows)]
    m["serve.batches"] = len(fwd)
    m["serve.mean_batch"] = _ratio(sum(s.work for s in fwd), len(fwd))
    durations = sorted(s.duration for s in fwd)
    if durations:
        m["serve.forward_ms.p50"] = 1e3 * durations[len(durations) // 2]
    m["serve.busy_share"] = _ratio(
        total(fwd), sum(hi - lo for lo, hi in windows))
    return m


def covered_s(spans: List[Span], thread: int) -> float:
    """Wall-clock of ``thread`` that some layer span covers."""
    return sum(s.duration for s in spans
               if s.parent is None and s.thread == thread)


def float_kernel_calls_in(spans: List[Span], lo: float, hi: float) -> int:
    """Float conv-path kernel calls that started inside ``[lo, hi)``.

    ``int_im2col`` lowers int64 codes through the shared ``im2col``
    kernel; those nested calls move no float data and are not counted.
    """
    names = {"kernel." + k for k in FLOAT_KERNELS}
    ancestors = _ancestor_names(spans)
    return sum(
        1 for s in spans
        if s.name in names and lo <= s.start < hi
        and "kernel.int_im2col" not in ancestors[s.id]
    )
