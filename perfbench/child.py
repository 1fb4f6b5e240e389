"""One benchmarked process: a CCQ search or the open-loop serving run.

Started by ``perfbench/run.py`` (never directly) as a fresh interpreter
with ``PYTHONPATH=src``.  It imports the program, optionally wraps its
layers (``--trace 1``), runs the workload and writes a JSON report with
monotonic time stamps (``CLOCK_MONOTONIC`` is shared by all processes,
so the parent can subtract its own launch stamp), the ``--output``
JSON of the search or the serving phase results, and the per-layer
metrics when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import openloop  # noqa: E402

# The search input is fixed: program seed 0, the ROADMAP baseline.  The
# seed picks which layers the Hedge loop drops and so how many recovery
# epochs run; across seeds the search time varies by over 50%, which
# would hide any change smaller than that.
CCQ_ARGS = [
    "run-ccq", "--task", "resnet20_cifar10", "--scale", "smoke",
    "--probes", "4", "--max-steps", "12", "--seed", "0",
]
POOL_ARGS = [
    "--probe-workers", "2", "--recover-workers", "2",
    "--recover-trainer", "ddp",
]

# Open-loop serving plan: (name, rate/s, requests).  Request counts are
# for a 25 s run and scale with --seconds, never below 1010, so p99
# always has at least ten samples beyond it.  On the 2-core host the
# open-loop knee is 420-550/s, so 300/s is its ~60-70% point.
LATENCY_LIMIT_MS = 25.0
FIXED_PHASES = (("r100", 100.0, 1010), ("r300", 300.0, 1010))
# Seven rungs (330/s to 584.5/s, 10% apart): bisection over 2**3 - 1
# rungs always makes exactly three probes, and every probe lasts
# PROBE_SECONDS, so the ladder's outcome never changes the process's
# wall-clock.
LADDER = openloop.ladder(330.0, 580.0, 0.10)
PROBE_SECONDS = 3.1
# Offered far above capacity, so a backlog stands for the whole phase:
# the answer rate is the engine's peak throughput.
SATURATION = ("peak", 3000.0, 3000)
# The fixed job of a short process (--short): one closed-loop client
# sends max_batch requests at once and waits for all their answers,
# CLOSED_ROUNDS times over, CLOSED_REPEATS times.  Every batch is full,
# so the work does not depend on timing, unlike the saturated phase's.
CLOSED_ROUNDS = 200
CLOSED_REPEATS = 3
N_INPUTS = 64


def _stamp_calls(owner, attr, stamps, key):
    """Record monotonic start/end stamps of ``owner.attr`` calls."""
    original = getattr(owner, attr)

    def stamped(*args, **kwargs):
        stamps.setdefault(key + "_start", time.monotonic())
        try:
            return original(*args, **kwargs)
        finally:
            stamps[key + "_end"] = time.monotonic()

    setattr(owner, attr, stamped)


def _no_span(name):
    return contextlib.nullcontext()


def _wrapper_estimate_s(tracer) -> float:
    """The recorded spans times what one wrapper adds to a no-op call."""
    calibration = layers.Tracer()

    def noop():
        return None

    traced = calibration.wrap(noop, "noop")
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    per_call = max(0.0, ((t2 - t1) - (t1 - t0)) / n)
    return per_call * len(tracer.spans)


def _matmul_peak_gflops() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    b = rng.standard_normal((384, 384))
    best = float("inf")
    for _ in range(6):
        t0 = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2 * 384 ** 3 / best / 1e9


def run_ccq(args, tracer, report):
    import repro.cli
    from repro.core.ccq import CCQQuantizer
    from repro.experiments import Task

    stamps = report["stamps"]
    _stamp_calls(Task, "pretrained_model", stamps, "setup")
    _stamp_calls(CCQQuantizer, "run", stamps, "search")
    if tracer is not None:
        layers.install_ccq(tracer)
    out_path = os.path.join(args.workdir, "output.json")
    argv = CCQ_ARGS + [
        "--checkpoint-dir", os.path.join(args.workdir, "ckpt"),
        "--output", out_path,
    ]
    if args.workload == "ccq_pool":
        argv += POOL_ARGS
    report["rc"] = repro.cli.main(argv)
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report["output"] = json.load(fh)
    report["step_intervals_s"] = step_intervals(
        os.path.join(args.workdir, "ckpt", "journal.jsonl"))
    if tracer is not None:
        report["layers"] = layers.summarize(tracer.spans,
                                            report.get("output"))


def step_intervals(journal_path):
    """Seconds from the search's start (its ``initialized`` event) to
    the first ``step_complete``, and between consecutive ones: how
    often a user watching the journal sees the search advance."""
    marks = []
    if os.path.exists(journal_path):
        with open(journal_path) as fh:
            for line in fh:
                entry = json.loads(line)
                if entry["event"] in ("initialized", "step_complete"):
                    marks.append(entry["mono"])
    return [b - a for a, b in zip(marks, marks[1:])]


def run_serve(args, tracer, report):
    import repro.cli
    from repro.serving import ServingEngine

    if tracer is not None:
        layers.install_serving(tracer)
    span = tracer.span if tracer is not None else _no_span
    # The `repro serve` demo model at its CLI defaults.
    cli_args = repro.cli.build_parser().parse_args(["serve"])
    with span("serve.build"):
        compiled, _ = repro.cli._build_demo_compiled(cli_args)
    engine = ServingEngine(
        compiled,
        max_batch_size=cli_args.max_batch,
        max_wait_ms=cli_args.max_wait_ms,
        backend=cli_args.kernel_backend,
    )
    report["stamps"]["setup_end"] = time.monotonic()
    try:
        with span("loadgen"):
            _load(args, tracer, report, compiled, engine, cli_args.max_batch)
    finally:
        engine.close()
    report["rc"] = 0


def closed_loop(submit, inputs, rounds, batch, check, timeout_s=10.0):
    """``rounds`` times: submit ``batch`` requests, wait for them all.

    Failures and wrong answers are counted as in
    :func:`openloop.run_phase`; no latencies are kept.
    """
    phase = openloop.Phase(rate=0.0)
    phase.start = time.perf_counter()
    for r in range(rounds):
        futures = []
        for i in range(r * batch, (r + 1) * batch):
            phase.sent += 1
            try:
                futures.append((i, submit(inputs[i % len(inputs)])))
            except Exception as err:
                phase.failed += 1
                phase.first_error = phase.first_error or repr(err)
        for i, future in futures:
            try:
                answer = future.result(timeout=timeout_s)
            except Exception as err:
                phase.failed += 1
                phase.first_error = phase.first_error or repr(err)
                continue
            if not check(i % len(inputs), answer):
                phase.mismatches += 1
    phase.end = time.perf_counter()
    return phase


def _load(args, tracer, report, compiled, engine, max_batch):
    import numpy as np

    rng = np.random.default_rng(args.seed)
    inputs = [rng.normal(size=compiled.input_shape) for _ in range(N_INPUTS)]
    # Output check: every answer must equal a solo forward of the same
    # input, bitwise.  The solo forwards run before the load phases.
    solo = [compiled.forward(x[None])[0].tobytes() for x in inputs]

    def check(index, answer):
        return answer.tobytes() == solo[index]

    scale = args.seconds / 25.0

    def count(n):
        return max(1010, int(n * scale))

    def phase(rate, n):
        return openloop.run_phase(engine.submit, inputs, rate, n, check)

    # Warm-up: lazy thread pools and scratch buffers.  Its answers are
    # checked, its timings not reported.
    phases = {"warmup": phase(300.0, 200)}

    def passes(rate):
        result = phase(rate, count(rate * PROBE_SECONDS))
        phases[f"ladder{rate:g}"] = result
        return openloop.sustainable(result, LATENCY_LIMIT_MS, max_batch)

    if args.short:
        closed = []
        for i in range(CLOSED_REPEATS):
            closed.append(closed_loop(engine.submit, inputs, CLOSED_ROUNDS,
                                      max_batch, check))
            phases[f"closed{i}"] = closed[-1]
        serve = {"closed_s": statistics.median(p.end - p.start
                                               for p in closed)}
    else:
        for name, rate, n in FIXED_PHASES:
            phases[name] = phase(rate, count(n))
        max_rate, probes = openloop.max_sustainable_rate(LADDER, passes)
        name, rate, n = SATURATION
        phases[name] = phase(rate, count(n))
        serve = {
            "max_rate_rps": max_rate,
            "ladder_probes": probes,
            "peak_throughput_rps": openloop.answer_rate(phases[name]),
        }
    report["serve"] = {
        **serve,
        "phases": {
            name: {
                "rate": p.rate,
                "sent": p.sent,
                "failed": p.failed,
                "mismatches": p.mismatches,
                "samples": len(p.latencies_ms),
                "p50_ms": openloop.percentile(p.latencies_ms, 0.50),
                "p99_ms": openloop.percentile(p.latencies_ms, 0.99),
                "late_ms_max": p.late_ms_max,
                "outstanding_at_end": p.outstanding_at_end,
                "first_error": p.first_error,
            }
            for name, p in phases.items()
        },
    }
    if tracer is not None:
        measured = [p for key, p in phases.items() if key != "warmup"]
        windows = [(p.start, p.end) for p in measured]
        report["layers"] = layers.summarize(tracer.spans, windows=windows)
        report["layers"]["loadgen.late_ms.max"] = max(
            p.late_ms_max for p in measured)
        report["float_kernel_calls_in_load"] = sum(
            layers.float_kernel_calls_in(tracer.spans, lo, hi)
            for lo, hi in windows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("ccq_serial", "ccq_pool", "serve_open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # serve_open only: set up, warm up and run the closed loop.
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    tracer = layers.Tracer() if args.trace else None
    report = {"stamps": {}, "rc": None}
    with (tracer.span if tracer else _no_span)("import"):
        import repro.cli  # noqa: F401
    if args.workload == "serve_open":
        run_serve(args, tracer, report)
    else:
        run_ccq(args, tracer, report)
    if tracer is not None:
        report["layers"]["kernel.matmul_peak_gflops"] = _matmul_peak_gflops()
        report["wrapper_estimate_s"] = _wrapper_estimate_s(tracer)
        report["covered_s"] = layers.covered_s(
            tracer.spans, threading.main_thread().ident)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0 if report["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
