"""Self-tests of the benchmark harness: ``python3 perfbench/selftest.py``
from the repository root (about five seconds)."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import unittest
from concurrent.futures import Future

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402
import openloop  # noqa: E402
import run  # noqa: E402


class StubEngine:
    """Answers every request ``delay_s`` after it is submitted; the
    submit of request ``stall_at`` blocks the caller for ``stall_s``."""

    def __init__(self, delay_s, stall_at=None, stall_s=0.0):
        self.delay_s = delay_s
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.calls = 0
        self.timers = []

    def submit(self, x):
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        self.calls += 1
        future = Future()
        timer = threading.Timer(self.delay_s, future.set_result, [x])
        timer.start()
        self.timers.append(timer)
        return future

    def join(self):
        for timer in self.timers:
            timer.join(timeout=5)
            assert not timer.is_alive()


class OpenLoopTest(unittest.TestCase):
    def test_latency_is_timed_from_due_time(self):
        engine = StubEngine(delay_s=0.020)
        phase = openloop.run_phase(engine.submit, [1, 2, 3], 200.0, 60)
        engine.join()
        self.assertEqual((phase.sent, phase.failed), (60, 0))
        self.assertEqual(len(phase.latencies_ms), 60)
        median = sorted(phase.latencies_ms)[30]
        self.assertGreaterEqual(min(phase.latencies_ms), 20.0)
        self.assertLess(median, 20.0 + 15.0)

    def test_generator_stall_charges_later_requests(self):
        # Request 10's submit blocks for 100 ms: requests 11.. were due
        # while the generator stood still, so their latency from the
        # due time carries the stall, and the lateness is reported.
        engine = StubEngine(delay_s=0.005, stall_at=10, stall_s=0.100)
        phase = openloop.run_phase(engine.submit, [0], 200.0, 40)
        engine.join()
        self.assertGreaterEqual(phase.late_ms_max, 90.0)
        self.assertGreaterEqual(phase.latencies_ms[11], 90.0)
        self.assertLess(phase.latencies_ms[-1], phase.latencies_ms[11])

    def test_failures_and_check_are_counted(self):
        def submit(x):
            if x == "refuse":
                raise RuntimeError("refused")
            future = Future()
            if x == "error":
                future.set_exception(RuntimeError("boom"))
            else:
                future.set_result(x)
            return future

        inputs = ["ok", "refuse", "error", "wrong"]
        phase = openloop.run_phase(
            submit, inputs, 1000.0, 8,
            check=lambda i, answer: inputs[i] != "wrong")
        self.assertEqual(phase.sent, 8)
        self.assertEqual(phase.failed, 4)
        self.assertEqual(phase.mismatches, 2)
        self.assertEqual(len(phase.latencies_ms), 4)


class ClosedLoopTest(unittest.TestCase):
    def test_failures_and_check_are_counted(self):
        def submit(x):
            if x == "refuse":
                raise RuntimeError("refused")
            future = Future()
            if x == "error":
                future.set_exception(RuntimeError("boom"))
            elif x != "silent":
                future.set_result(x)
            return future

        inputs = ["ok", "refuse", "error", "wrong", "silent"]
        phase = child.closed_loop(
            submit, inputs, 2, 5,
            check=lambda i, answer: inputs[i] != "wrong", timeout_s=0.01)
        self.assertEqual(phase.sent, 10)
        self.assertEqual(phase.failed, 6)
        self.assertEqual(phase.mismatches, 2)
        self.assertIn("refused", phase.first_error)

    def test_sends_whole_batches_and_waits(self):
        engine = StubEngine(delay_s=0.005)
        phase = child.closed_loop(engine.submit, [0], 4, 8,
                                  check=lambda i, answer: True)
        engine.join()
        self.assertEqual((phase.sent, phase.failed), (32, 0))
        self.assertGreaterEqual(phase.end - phase.start, 4 * 0.005)


class StepIntervalTest(unittest.TestCase):
    def test_from_initialized_to_each_step_complete(self):
        import tempfile

        events = [("run_start", 0.0), ("initialized", 1.0),
                  ("checkpoint", 1.1), ("step_complete", 3.0),
                  ("recover_epoch", 4.0), ("step_complete", 6.5),
                  ("run_complete", 7.0)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            with open(path, "w") as fh:
                for event, mono in events:
                    fh.write(json.dumps({"event": event, "mono": mono}) + "\n")
            self.assertEqual(child.step_intervals(path), [2.0, 3.5])
            self.assertEqual(
                child.step_intervals(os.path.join(tmp, "missing")), [])


class AnswerRateTest(unittest.TestCase):
    def test_skips_the_ramp(self):
        phase = openloop.Phase(rate=1000.0)
        # 100 answers: a slow first quarter, then one every 2 ms.
        phase.answered_at = [0.1 * i for i in range(25)] + [
            2.4 + 0.002 * i for i in range(75)]
        self.assertAlmostEqual(openloop.answer_rate(phase), 500.0)
        self.assertEqual(openloop.answer_rate(openloop.Phase(rate=1.0)), 0.0)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(openloop.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(openloop.percentile(list(range(999)), 0.99))
        self.assertEqual(openloop.percentile(list(range(20)), 0.50), 9)
        self.assertIsNone(openloop.percentile(list(range(19)), 0.50))
        self.assertIsNone(openloop.percentile([], 0.50))


class LadderTest(unittest.TestCase):
    RUNGS = openloop.ladder(100.0, 1000.0, 0.10)

    def test_steps_at_most_ten_percent(self):
        for low, high in zip(self.RUNGS, self.RUNGS[1:]):
            self.assertLessEqual(high / low, 1.1 + 1e-9)
        self.assertGreaterEqual(self.RUNGS[-1], 1000.0)

    def test_picks_highest_passing_rung(self):
        for knee in (self.RUNGS[0], 333.0, 500.0, self.RUNGS[-1]):
            rate, probes = openloop.max_sustainable_rate(
                self.RUNGS, lambda r: r <= knee)
            self.assertEqual(rate, max(r for r in self.RUNGS if r <= knee))
            self.assertLessEqual(len(probes), 6)

    def test_seven_rungs_always_take_three_probes(self):
        rungs = openloop.ladder(330.0, 580.0, 0.10)
        self.assertEqual(len(rungs), 7)
        for knee in [0.0] + rungs:
            _, probes = openloop.max_sustainable_rate(
                rungs, lambda r: r <= knee)
            self.assertEqual(len(probes), 3)

    def test_nothing_passes(self):
        rate, _ = openloop.max_sustainable_rate(self.RUNGS, lambda r: False)
        self.assertEqual(rate, 0.0)

    def test_sustainable(self):
        phase = openloop.Phase(rate=400.0, latencies_ms=[5.0] * 1000,
                               outstanding_at_end=3)
        self.assertTrue(openloop.sustainable(phase, 25.0, 8))
        phase.latencies_ms[-11:] = [30.0] * 11
        self.assertFalse(openloop.sustainable(phase, 25.0, 8))
        phase.latencies_ms[-11:] = [5.0] * 11
        phase.outstanding_at_end = 10 + 8 + 1  # 400/s * 25 ms + a batch
        self.assertFalse(openloop.sustainable(phase, 25.0, 8))
        phase.outstanding_at_end = 3
        phase.failed = 1
        self.assertFalse(openloop.sustainable(phase, 25.0, 8))


class WrapperTest(unittest.TestCase):
    def test_returns_exactly_and_records_nesting(self):
        tracer = layers.Tracer()
        token = object()
        inner = tracer.wrap(lambda x: x, "inner")

        def outer_fn(x):
            time.sleep(0.01)
            return inner(x)

        outer = tracer.wrap(outer_fn, "outer")
        self.assertIs(outer(token), token)
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["inner"].parent, by_name["outer"].id)
        own = layers.self_times(tracer.spans)
        self.assertAlmostEqual(
            own[by_name["outer"].id],
            by_name["outer"].duration - by_name["inner"].duration)

    def test_exceptions_pass_through(self):
        tracer = layers.Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap(boom, "boom")()
        self.assertEqual([s.name for s in tracer.spans], ["boom"])

    def test_patch_rebinds_imported_aliases(self):
        import repro.core.ccq as ccq
        import repro.core.training as training

        original = training.evaluate
        tracer = layers.Tracer()
        layers.patch_function(tracer, training, "evaluate", "eval")
        try:
            self.assertIs(ccq.evaluate, training.evaluate)
            self.assertIs(training.evaluate.__wrapped__, original)
        finally:
            layers._rebind_aliases(training.evaluate, original)
        self.assertIs(ccq.evaluate, original)

    def test_kernel_results_and_computed_work(self):
        import numpy as np
        from repro.nn import backends

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 27))
        b = rng.standard_normal((27, 16))
        x = rng.standard_normal((2, 3, 8, 8))
        ref = backends.get_backend("reference")
        expected_gemm = ref.gemm(a, b)
        expected_cols, _ = ref.im2col(x, (3, 3), (1, 1), (1, 1))
        tracer = layers.Tracer()
        saved = {cls: dict(cls.__dict__) for cls in (
            backends.KernelBackend, backends.FastBackend,
            backends.ThreadedBackend, backends.ReferenceBackend)}
        layers.install_kernels(tracer)
        try:
            got = ref.gemm(a, b)
            cols, _ = ref.im2col(x, (3, 3), (1, 1), (1, 1))
        finally:
            for cls, namespace in saved.items():
                for attr in layers.KERNEL_COSTS:
                    if attr in namespace:
                        setattr(cls, attr, namespace[attr])
        self.assertEqual(got.tobytes(), expected_gemm.tobytes())
        self.assertEqual(cols.tobytes(), expected_cols.tobytes())
        gemm = next(s for s in tracer.spans if s.name == "kernel.gemm")
        self.assertEqual(gemm.work[0], 2 * 64 * 27 * 16)
        im2col = next(s for s in tracer.spans if s.name == "kernel.im2col")
        self.assertEqual(im2col.work[1], x.nbytes + cols.nbytes)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            layers.PER_LAYER)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
