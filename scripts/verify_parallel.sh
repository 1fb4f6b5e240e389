#!/usr/bin/env bash
# Prove the parallel probe backend is trajectory-invariant end to end
# through the CLI:
#
#   1. serial:   a micro-scale CCQ run with --probe-workers 0 (default)
#   2. parallel: the identical run with --probe-workers 2
#
# The two runs must report the identical bit configuration, final
# accuracy, compression and probe rounds; the parallel run may only
# differ in probe_forward_passes (fan-out evaluations the Hedge loop
# never drew).  Also checks the pool really ran: at least one fan-out
# round, with nothing missing and no degraded round, so a pool that
# silently fell back to serial cannot pass.
# Finishes in a few minutes on one CPU.
#
#   bash scripts/verify_parallel.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

COMMON=(run-ccq --task resnet20_cifar10 --scale micro --probes 6
        --max-steps 4 --seed 0)

echo "== 1/2 serial run (--probe-workers 0, the default) =="
python3 -m repro.cli "${COMMON[@]}" --output "$WORK/serial.json"

echo "== 2/2 parallel run (--probe-workers 2) =="
python3 -m repro.cli "${COMMON[@]}" --probe-workers 2 \
    --output "$WORK/parallel.json"

python3 - "$WORK/serial.json" "$WORK/parallel.json" <<'EOF'
import json
import sys

serial, parallel = (json.load(open(path)) for path in sys.argv[1:3])

mismatches = [
    key for key in ("bit_config", "final_accuracy", "compression",
                    "probe_rounds", "probe_cache_hits")
    if serial[key] != parallel[key]
]
if mismatches:
    for key in mismatches:
        print(f"MISMATCH {key}: serial={serial[key]!r} "
              f"parallel={parallel[key]!r}")
    sys.exit(1)

if parallel["probe_forward_passes"] < serial["probe_forward_passes"]:
    print(f"parallel run evaluated fewer candidates than serial: "
          f"{parallel['probe_forward_passes']} < "
          f"{serial['probe_forward_passes']}")
    sys.exit(1)

fanout = parallel.get("fanout", {})
if fanout.get("rounds", 0) <= 0:
    print(f"the pool never ran a fan-out round: fanout={fanout!r}")
    sys.exit(1)
if fanout["missing"] or fanout["degraded_rounds"]:
    print(f"the pool lost results: missing={fanout['missing']} "
          f"degraded_rounds={fanout['degraded_rounds']}")
    sys.exit(1)

undrawn = (parallel["probe_forward_passes"]
           - serial["probe_forward_passes"])
print(f"OK: identical trajectory with --probe-workers 2 "
      f"({fanout['rounds']} fan-out rounds, {fanout['attempted']} "
      f"candidates; {undrawn} fan-out evaluations the Hedge loop never "
      f"drew)")
EOF
