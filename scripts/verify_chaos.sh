#!/usr/bin/env bash
# Prove the self-healing probe pool end to end: a CCQ run whose workers
# are killed and hung by a fault injector must heal itself (respawn +
# salvage) and still produce the bit-identical serial trajectory — and
# a checkpoint with a flipped byte must be rejected by digest
# verification on resume, rolling back to its predecessor and still
# reproducing the reference.
#
#   1. serial reference run (fixed seed)
#   2. 4-worker chaos run (injected worker kills + a hang) -> identical
#      trajectory + journal, >=1 respawn and >=1 salvaged result
#   3. corrupt the newest checkpoint archive, resume -> rollback to the
#      predecessor, reference trajectory reproduced
#
# Finishes in a few minutes on one CPU.  Fails if stderr shows a
# resource_tracker KeyError for a shared-memory segment.
#
#   bash scripts/verify_chaos.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

# Stderr is shown and also kept in $WORK/stderr.log.  A shared-memory
# segment unregistered twice makes the resource tracker print
# "KeyError: '/psm_...'" there, and that fails the script.  A pipeline
# (unlike a process substitution) waits until every holder of the
# stderr pipe, resource tracker processes included, has exited.
STDERR_LOG="$WORK/stderr.log"
main() {
python3 - "$WORK" <<'EOF'
import json
import sys
from pathlib import Path

import numpy as np

import repro.parallel.worker as worker_mod
from repro import models
from repro.baselines import PretrainConfig, pretrain
from repro.core import BitLadder, CCQConfig, CCQQuantizer, RecoveryConfig
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader
from repro.quantization import quantize_model
from repro.telemetry import Telemetry

sys.path.insert(0, ".")
from tests.core.fault_injection import WorkerFaultInjector

work = Path(sys.argv[1])
splits = _make_splits(
    SyntheticImageConfig(n_classes=10, image_size=12, channels=3, seed=0),
    n_train=600, n_val=200, n_test=200, augment=False,
)

print("pretraining the float baseline (once)...")
seed_net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
pretrain(
    seed_net,
    DataLoader(splits.train, batch_size=64, shuffle=True, seed=0),
    DataLoader(splits.val, batch_size=100),
    PretrainConfig(epochs=8, lr=0.05, weight_decay=0.0),
)
state = seed_net.state_dict()


def build():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    net.load_state_dict(state)
    quantize_model(net, "pact")
    train = DataLoader(splits.train, batch_size=64, shuffle=True, seed=0)
    val = DataLoader(splits.val, batch_size=100, shuffle=True, seed=7)
    return net, train, val


def config(ckpt=None, **overrides):
    kwargs = dict(
        ladder=BitLadder((8, 4, 2)),
        probes_per_step=6,
        probe_batches=1,
        recovery=RecoveryConfig(mode="manual", epochs=1,
                                use_hybrid_lr=False),
        lr=0.02,
        initial_recovery_epochs=1,
        seed=0,
        max_steps=4,
    )
    if ckpt is not None:
        kwargs["checkpoint_dir"] = str(ckpt)
    kwargs.update(overrides)
    return CCQConfig(**kwargs)


def trajectory(result):
    return (
        [(r.step, r.layer_name, r.from_bits, r.to_bits)
         for r in result.records],
        result.bit_config,
        [r.recovered_accuracy for r in result.records],
        result.final_eval.accuracy,
        result.final_eval.loss,
        result.compression,
    )


def journal_payload(journal):
    return [{k: v for k, v in e.items() if k not in ("ts", "mono")}
            for e in journal.events()]


def counter(telemetry, name):
    return sum(
        e["value"] for e in telemetry.registry.snapshot()["counters"]
        if e["name"] == name
    )


print("== 1/3 serial reference run ==")
net, train, val = build()
serial_q = CCQQuantizer(net, train, val, config=config(work / "serial"))
serial = serial_q.run()

print("== 2/3 chaos run: 4 workers, injected kills + a hang ==")
worker_mod.FAULT_HOOK = WorkerFaultInjector(
    work / "faults",
    kill_on={(0, 0), (1, 2)},
    hang_on={(2, 1)},
    hang_seconds=60.0,
)
net, train, val = build()
telemetry = Telemetry.create(log_level="silent")
chaos_q = CCQQuantizer(
    net, train, val,
    config=config(work / "chaos", probe_workers=4, probe_timeout=2.0),
    telemetry=telemetry,
)
chaos = chaos_q.run()
telemetry.close()
worker_mod.FAULT_HOOK = None

respawns = counter(telemetry, "ccq.pool_respawns")
salvaged = counter(telemetry, "ccq.pool_salvaged_results")
assert respawns >= 1, f"expected >=1 worker respawn, saw {respawns}"
assert salvaged >= 1, f"expected >=1 salvaged result, saw {salvaged}"
assert not chaos_q._pool_failed, "chaos run degraded to serial"
assert trajectory(chaos) == trajectory(serial), \
    "chaos trajectory differs from serial"
assert journal_payload(chaos_q.store.journal) == journal_payload(
    serial_q.store.journal
), "chaos journal differs from serial"
print(f"OK: trajectory + journal bit-identical under chaos "
      f"({respawns:g} respawns, {salvaged:g} salvaged results)")

print("== 3/3 corrupted checkpoint: digest rejection + rollback ==")
ckpt = work / "rollback"
net, train, val = build()
CCQQuantizer(net, train, val, config=config(ckpt, max_steps=3)).run()
state_json = json.loads((ckpt / "state.json").read_text())
archive = ckpt / state_json["model_file"]
blob = bytearray(archive.read_bytes())
blob[200] ^= 0xFF  # one flipped byte
archive.write_bytes(bytes(blob))

net, train, val = build()
telemetry = Telemetry.create(log_level="silent")
resumed_q = CCQQuantizer(
    net, train, val, config=config(ckpt), telemetry=telemetry,
)
resumed = resumed_q.run(resume=True)
telemetry.close()

failures = counter(telemetry, "ccq.checkpoint_integrity_failures")
assert failures >= 1, "corrupted archive was not detected"
assert resumed_q.store.journal.events("checkpoint_rollback"), \
    "rollback was not journaled"
assert trajectory(resumed) == trajectory(serial), \
    "resume after rollback diverged from the reference"
print("OK: flipped byte rejected, rolled back to the predecessor, "
      "reference trajectory reproduced")
EOF
}
{ main 2>&1 1>&3 3>&- | tee "$STDERR_LOG" >&2; } 3>&1
if grep -q "KeyError: '/psm_" "$STDERR_LOG"; then
    echo "FAIL: resource_tracker KeyError on stderr" \
        "(a shared-memory segment was unregistered twice)" >&2
    exit 1
fi
echo "OK: no resource_tracker KeyError on stderr"
