"""The probe worker pool: bit-identical worker evals, failure modes.

Rounds go through :meth:`PoolSupervisor.run_round`, the only way the
search drives the pool.
"""

import numpy as np
import pytest

from repro import models
from repro.core.probe import pin_probe_batches
from repro.core.training import evaluate
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.parallel import (
    PoolError,
    PoolSupervisor,
    ProbeWorkerPool,
    create_probe_pool,
)
from repro.quantization import (
    get_bit_config,
    quantize_model,
    quantized_layers,
)


@pytest.fixture(scope="module")
def val_dataset():
    config = SyntheticImageConfig(
        n_classes=10, image_size=12, channels=3, seed=0
    )
    return _make_splits(
        config, n_train=16, n_val=64, n_test=8, augment=False
    ).val


@pytest.fixture()
def quantized_net():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    return net


def serial_loss(net, layers, layer_names, bits, pinned):
    saved = [(layers[n].w_bits, layers[n].a_bits) for n in layer_names]
    try:
        for n in layer_names:
            layers[n].w_bits = bits
            layers[n].a_bits = bits
        return float(evaluate(net, pinned).loss)
    finally:
        for n, (w, a) in zip(layer_names, saved):
            layers[n].w_bits = w
            layers[n].a_bits = a


def run_round(net, pool, pinned, tasks, supervisor=None):
    """One supervised round: broadcast ``net``'s state, evaluate ``tasks``."""
    supervisor = supervisor or PoolSupervisor()
    return supervisor.run_round(
        pool, named_state_arrays(net), get_bit_config(net),
        pinned.batches, tasks,
    )


class TestPoolEvaluation:
    def test_worker_losses_bit_identical_to_serial(
        self, quantized_net, val_dataset
    ):
        net = quantized_net
        layers = dict(quantized_layers(net))
        names = list(layers)
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = create_probe_pool(net, n_workers=2)
        try:
            tasks = [
                ((i, 4), [name], 4) for i, name in enumerate(names[:3])
            ]
            report = run_round(net, pool, pinned, tasks)
            assert not report.faults
            outcomes = report.outcomes
            assert set(outcomes) == {key for key, _, _ in tasks}
            for (key, layer_names, bits) in tasks:
                outcome = outcomes[key]
                assert outcome["status"] == "ok"
                assert outcome["elapsed"] > 0
                expected = serial_loss(net, layers, layer_names, bits,
                                       pinned)
                assert outcome["loss"] == expected

            # The candidates landed on both workers (round-robin over 2).
            assert {o["worker"] for o in outcomes.values()} == {0, 1}
        finally:
            pool.close()

    def test_rebroadcast_picks_up_new_state(
        self, quantized_net, val_dataset
    ):
        net = quantized_net
        layers = dict(quantized_layers(net))
        name = next(iter(layers))
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = ProbeWorkerPool(net, n_workers=1)
        supervisor = PoolSupervisor()
        tasks = [(("k", 4), [name], 4)]
        try:
            first = run_round(net, pool, pinned, tasks, supervisor).outcomes

            # Perturb the model; the next round re-broadcasts (same
            # layout -> same segment), and the worker must score the
            # *new* weights.
            for _, p in net.named_parameters():
                p.data += 0.05
            second = run_round(net, pool, pinned, tasks, supervisor).outcomes

            assert first[("k", 4)]["loss"] != second[("k", 4)]["loss"]
            expected = serial_loss(net, layers, [name], 4, pinned)
            assert second[("k", 4)]["loss"] == expected
        finally:
            pool.close()


class TestPoolFailure:
    def test_unknown_layer_ships_error_and_goes_missing(
        self, quantized_net, val_dataset
    ):
        """A worker-side error is a recorded fault; the candidate is
        left to the serial path, which raises the same error."""
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = ProbeWorkerPool(quantized_net, n_workers=1)
        try:
            report = run_round(
                quantized_net, pool, pinned,
                [(("k", 4), ["no.such.layer"], 4)],
            )
            assert report.missing == [("k", 4)]
            assert not report.outcomes
            assert any("error on candidate" in f and "no.such.layer" in f
                       for f in report.faults)
            assert pool.alive_workers() == [0]  # the worker stays up
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self, quantized_net):
        pool = ProbeWorkerPool(quantized_net, n_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolError):
            pool.submit(0, "eval", 0, (["any.layer"], 4))

    def test_invalid_worker_count(self, quantized_net):
        with pytest.raises(ValueError):
            ProbeWorkerPool(quantized_net, n_workers=0)
