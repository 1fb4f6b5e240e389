"""The pool's BLAS thread budget (:mod:`repro.parallel.blas`).

While a probe pool is alive, the parent and every worker run OpenBLAS
at ``min(current, budget(n_workers))`` threads; closing the pool — also
the close inside a CCQ degrade — restores the parent.  Without OpenBLAS
the pin is a silent no-op.  The pin is only legal because a float GEMM
is bit-identical at any thread count, checked here on the conv GEMMs of
a smoke-scale ResNet20 step.
"""

import numpy as np
import pytest

from repro import models
from repro.core import CCQQuantizer
from repro.core.probe import pin_probe_batches
from repro.nn import functional as F
from repro.nn import backends
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.nn.tensor import Tensor
from repro.parallel import PoolSupervisor, ProbeWorkerPool, blas
from repro.quantization import (
    get_bit_config,
    quantize_model,
    quantized_layers,
)
from repro.telemetry import Telemetry

from ..core.fault_injection import WorkerFaultInjector
from ..core.test_probe_determinism import make_config

needs_openblas = pytest.mark.skipif(
    blas.threads() is None, reason="no OpenBLAS loaded in this process"
)


@pytest.fixture()
def quantized_net():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    return net


@pytest.fixture()
def no_openblas(monkeypatch, tmp_path):
    """Hide every loaded OpenBLAS from the scan (workers inherit it)."""
    maps = tmp_path / "maps"
    maps.write_text(
        "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /lib/libc.so.6\n"
    )
    monkeypatch.setattr(blas, "_MAPS", str(maps))


@needs_openblas
class TestBudget:
    def test_parent_and_workers_run_the_budget(self, quantized_net):
        before = blas.threads()
        expected = min(before, blas.budget(2))
        pool = ProbeWorkerPool(quantized_net, n_workers=2)
        try:
            assert pool.blas_threads == expected
            assert blas.threads() == expected
            # Carried in the ready handshake, respawns included.
            assert pool.worker_blas_threads == [expected, expected]
            pool.worker_blas_threads[1] = None
            pool.respawn_worker(1)
            assert pool.worker_blas_threads == [expected, expected]
        finally:
            pool.close()
        assert blas.threads() == before

    def test_degrade_restores_the_parent(
        self, pretrained_state, tiny_splits, monkeypatch, tmp_path
    ):
        import repro.core.ccq as ccq_mod
        import repro.parallel.worker as worker_mod

        before = blas.threads()
        seen_after_degrade = []
        degrade = CCQQuantizer._degrade_pool

        def recording_degrade(self, step, reason):
            degrade(self, step, reason)
            seen_after_degrade.append(blas.threads())

        monkeypatch.setattr(CCQQuantizer, "_degrade_pool", recording_degrade)
        # A worker dies on its first candidate and the respawn budget is
        # zero, so the first fan-out degrades the run to serial.
        monkeypatch.setattr(ccq_mod, "POOL_RESPAWN_BUDGET", 0)
        monkeypatch.setattr(
            worker_mod, "FAULT_HOOK",
            WorkerFaultInjector(tmp_path / "faults", kill_on={(0, 0)}),
        )
        net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
        net.load_state_dict(pretrained_state[0])
        quantize_model(net, "pact")
        train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                           seed=0)
        val = DataLoader(tiny_splits.val, batch_size=100, shuffle=True,
                         seed=7)
        CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=2, probe_workers=2),
            telemetry=Telemetry.create(log_level="silent"),
        ).run()
        assert seen_after_degrade, "the pool never degraded"
        assert seen_after_degrade == [before] * len(seen_after_degrade)
        assert blas.threads() == before

    def test_gemm_is_bitwise_thread_count_invariant(self):
        """Every float GEMM of one smoke-scale ResNet20 training step
        (im2col forward, both backward products) gives the same bytes
        at 1 and at 2 BLAS threads."""
        if blas.threads() < 2:
            pytest.skip("OpenBLAS runs a single thread on this host")
        backend = backends.current()
        operands = []
        gemm = backend.gemm

        def recording_gemm(a, b):
            # order="K" keeps a transposed operand's memory layout, so
            # the replay takes the same BLAS path.
            operands.append((a.copy(order="K"), b.copy(order="K")))
            return gemm(a, b)

        # Smoke scale: width 0.25, 16x16 images, batches of 64.
        net = models.resnet20(width_mult=0.25,
                              rng=np.random.default_rng(0))
        images = np.random.default_rng(1).normal(size=(64, 3, 16, 16))
        labels = np.arange(64) % 10
        backend.gemm = recording_gemm
        try:
            F.cross_entropy(net(Tensor(images)), labels).backward()
        finally:
            del backend.gemm
        assert len(operands) >= 3 * 19  # 19 convs: fwd, dcols, dw

        saved = blas.limit_threads(1)
        try:
            single = [a @ b for a, b in operands]
        finally:
            blas.restore_threads(saved)
        limit = blas.limit_threads(2)
        try:
            assert blas.threads() == 2
            double = [a @ b for a, b in operands]
        finally:
            blas.restore_threads(limit)
        for one, two in zip(single, double):
            assert one.tobytes() == two.tobytes()


class TestWithoutOpenBLAS:
    def test_pin_is_a_silent_no_op(self, no_openblas):
        assert blas.threads() is None
        assert blas.limit_threads(1) == {}
        blas.restore_threads({})

    def test_pool_still_works(self, no_openblas, quantized_net, tiny_splits):
        pinned = pin_probe_batches(
            DataLoader(tiny_splits.val, batch_size=32), max_batches=1
        )
        name = next(iter(dict(quantized_layers(quantized_net))))
        pool = ProbeWorkerPool(quantized_net, n_workers=1)
        try:
            assert pool.blas_threads is None
            assert pool.worker_blas_threads == [None]
            report = PoolSupervisor().run_round(
                pool, named_state_arrays(quantized_net),
                get_bit_config(quantized_net), pinned.batches,
                [("k", [name], 4)],
            )
            assert report.outcomes["k"]["status"] == "ok"
        finally:
            pool.close()
