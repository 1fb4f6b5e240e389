"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the repository root.

Every measured process is a fresh interpreter started from here, so
the numbers include import, dataset synthesis and pretraining exactly
as a user pays them.  See ``perfbench/README.md`` for the workloads,
the metrics and what each layer metric is predicted to move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines
carry the host fingerprint and the per-run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import openloop  # noqa: E402

WORKLOADS = ("ccq_serial", "ccq_pool", "serve_open")
# Every workload reports every one of these; README.md says what each
# measures on each workload.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# serve_open's cpu_s comes from SHORT_PROCESSES short processes that
# set up and run a fixed closed-loop job; half run before the load
# process and half after, so that the samples span the whole run.
# setup_s is the median over them and the load process.
SHORT_PROCESSES = 4
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- host fingerprint ----------------------------------------------------------

def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


# Run untimed before any measured process: it imports the program once,
# so .pyc compilation is never measured, and reports the interpreter,
# numpy and BLAS build the measured processes will use.
WARM_UP = """
import json, platform
import numpy as np
import repro.cli
blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": platform.python_version(), "numpy": np.__version__,
    "blas": blas.get("name"), "blas_version": blas.get("version"),
    "blas_config": blas.get("openblas configuration"),
}))
"""


def host_fingerprint(root: str, interpreter: dict) -> dict:
    """Where and under which settings the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        **interpreter,
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": sha,
        "src_sha256": _source_digest(root),
    }


# -- launching one process -----------------------------------------------------

def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for what is left of a process group (a pool worker, the
    shared-memory resource tracker) to exit; kill it after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    killed = False
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            if killed:
                log(f"processes of group {pgid} did not exit after SIGKILL")
                return
            log(f"processes of group {pgid} outlived the run; killed")
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def launch(args, env, workdir, trace, short=False):
    """Run one child process; return its report plus outside timings."""
    os.makedirs(workdir)
    report_path = os.path.join(workdir, "report.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--workdir", workdir, "--report", report_path,
    ]
    if short:
        cmd.append("--short")
    with open(os.path.join(workdir, "child.log"), "w") as logfile:
        t0 = time.monotonic()
        # Its own process group, so that pool workers it forks can be
        # found and stopped with it.
        proc = subprocess.Popen(cmd, env=env, stdout=logfile,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > t0 + CHILD_TIMEOUT_S:
                    log(f"child exceeded {CHILD_TIMEOUT_S:.0f} s; killed")
                    os.killpg(proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
            t1 = time.monotonic()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            stop_group(proc.pid)
    rc = os.waitstatus_to_exitcode(status)
    result = {"rc": rc, "wall_s": t1 - t0, "t0": t0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              # Includes the descendants the child waited for (its pool
              # workers).
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "report": {"stamps": {}}}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            result["report"] = json.load(fh)
    if rc != 0:
        with open(os.path.join(workdir, "child.log")) as fh:
            log(fh.read()[-3000:])
    return result


# -- result ledger (cross-run output check, tracing overhead) ------------------

class Ledger:
    """Per-checkout record of earlier runs of each workload.

    Holds the first ``--output`` trajectory seen for each CCQ workload
    (its search input is fixed, so every later run must reproduce it)
    and the untraced wall-clocks that ``trace.overhead_s`` is measured
    against.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries = []
        if os.path.exists(path):
            with open(path) as fh:
                self.entries = [json.loads(line) for line in fh if line.strip()]

    def append(self, entry: dict) -> None:
        self.entries.append(entry)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(entry) + "\n")

    def trajectory(self, workload: str):
        for entry in self.entries:
            if entry["workload"] == workload and "trajectory" in entry:
                return entry["trajectory"]
        return None

    def untraced_walls(self, workload: str):
        return [e["wall_s"] for e in self.entries
                if e["workload"] == workload and not e["trace"]]


def traced_metrics(args, run, ledger) -> dict:
    """The traced process's per-layer metrics plus the two that need
    its wall-clock."""
    metrics = run["report"]["layers"]
    metrics["trace.unattributed_s"] = (
        run["wall_s"] - run["report"]["covered_s"])
    walls = ledger.untraced_walls(args.workload)
    if walls:
        metrics["trace.overhead_s"] = run["wall_s"] - statistics.median(walls)
    else:
        # No untraced run in this checkout yet; a second full process
        # would not fit the time limit on ccq_*.  The estimate counts
        # only the wrappers' own cost, not their effect on the caches.
        log("trace.overhead_s: no untraced run recorded in this checkout; "
            "reporting the in-process estimate (spans x wrapper cost)")
        metrics["trace.overhead_s"] = run["report"]["wrapper_estimate_s"]
    return metrics


# -- CCQ workloads -------------------------------------------------------------

def trajectory_of(output: dict) -> dict:
    return {k: output[k] for k in ("bit_config", "final_accuracy",
                                   "compression")}


def check_ccq(args, run, ledger) -> list:
    """Problems with one CCQ process; empty when it passed."""
    problems = []
    output = run["report"].get("output")
    if run["rc"] != 0:
        problems.append(f"exit code {run['rc']}")
    if output is None:
        return problems + ["no --output JSON written"]
    if not run["report"].get("step_intervals_s"):
        problems.append("no search step journaled")
    trajectory = trajectory_of(output)
    expected = ledger.trajectory(args.workload)
    if expected is not None and expected != trajectory:
        problems.append("trajectory differs from an earlier run: "
                        f"{trajectory} != {expected}")
    if args.workload == "ccq_pool":
        fanout = output.get("fanout") or {}
        if not fanout.get("rounds"):
            problems.append("probe pool never started")
        if fanout.get("degraded_rounds", 0) or fanout.get("missing", 0):
            problems.append(f"pool degraded: {fanout}")
    return problems


def ccq_numbers(run) -> dict:
    report = run["report"]
    stamps = report["stamps"]
    return {
        "wall_s": run["wall_s"],
        "setup_s": stamps["setup_end"] - run["t0"],
        "cpu_s": run["cpu_s"],
        "latency_p50_ms": 1e3 * statistics.median(report["step_intervals_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def run_ccq(args, env, work, ledger):
    """Returns (attempted, failed, metrics)."""
    attempted = failed = 0
    samples = []

    def one(trace):
        nonlocal attempted, failed
        run = launch(args, env, os.path.join(work, f"p{attempted}"), trace)
        attempted += 1
        problems = check_ccq(args, run, ledger)
        for problem in problems:
            log(f"FAILED ({args.workload} seed {args.seed}): {problem}")
        if problems:
            failed += 1
            return run, None
        entry = {"workload": args.workload, "seed": args.seed,
                 "trace": trace, "wall_s": run["wall_s"]}
        if ledger.trajectory(args.workload) is None:
            entry["trajectory"] = trajectory_of(run["report"]["output"])
        ledger.append(entry)
        return run, ccq_numbers(run)

    if args.trace:
        run, numbers = one(1)
        if numbers is None:
            return attempted, failed, {}
        return attempted, failed, traced_metrics(args, run, ledger)

    start = time.monotonic()
    while not samples or time.monotonic() - start < args.seconds:
        run, numbers = one(0)
        if numbers is None:
            break
        samples.append(numbers)
        output = run["report"]["output"]
        # Deterministic quality figures: checked against the first run
        # (check_ccq), printed, not gated.
        stamps = run["report"]["stamps"]
        print("diagnostics: " + json.dumps({
            "search_s": stamps["search_end"] - stamps["search_start"],
            "final_accuracy": output["final_accuracy"],
            "compression": output["compression"],
            "steps": len(run["report"]["step_intervals_s"]),
        }))
    if not samples:
        return attempted, failed, {}
    return attempted, failed, {
        name: statistics.median(s[name] for s in samples)
        for name in END_TO_END
    }


# -- serving workload ----------------------------------------------------------

def count_requests(phases) -> tuple:
    """(attempted, failed) over one process's phases; a wrong answer
    counts as failed."""
    attempted = sum(p["sent"] for p in phases.values())
    mismatches = sum(p["mismatches"] for p in phases.values())
    if mismatches:
        log(f"FAILED: {mismatches} answers differ from a solo forward of "
            "the same input")
    return attempted, sum(p["failed"] for p in phases.values()) + mismatches


def run_short(args, env, work, index):
    """One short serve_open process; returns (attempted, failed,
    setup_s, cpu_s, closed_s), the last three None when it failed."""
    short = launch(args, env, os.path.join(work, f"short{index}"), 0,
                   short=True)
    if short["rc"] != 0 or "serve" not in short["report"]:
        log(f"FAILED (serve_open seed {args.seed}): short process "
            f"exit code {short['rc']}")
        return 1, 1, None, None, None
    attempted, failed = count_requests(short["report"]["serve"]["phases"])
    return (attempted, failed,
            short["report"]["stamps"]["setup_end"] - short["t0"],
            short["cpu_s"], short["report"]["serve"]["closed_s"])


def run_serve(args, env, work, ledger):
    """Returns (attempted, failed, metrics)."""
    shorts = []
    if not args.trace:
        shorts = [run_short(args, env, work, i)
                  for i in range(SHORT_PROCESSES // 2)]
    run = launch(args, env, os.path.join(work, "load"), args.trace)
    serve = run["report"].get("serve")
    if run["rc"] != 0 or serve is None:
        log(f"FAILED (serve_open seed {args.seed}): exit code {run['rc']}")
        return (1 + sum(short[0] for short in shorts),
                1 + sum(short[1] for short in shorts), {})
    ledger.append({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "wall_s": run["wall_s"]})
    phases = serve["phases"]
    attempted, failed = count_requests(phases)
    for name, p in phases.items():
        rate = f"{p['rate']:g}/s" if p["rate"] else "closed loop"
        log(f"{name}: {rate}, {p['sent']} sent, {p['failed']} failed,"
            f" {p['samples']} answered, p50 {p['p50_ms']} ms, p99 "
            f"{p['p99_ms']} ms, generator late by at most "
            f"{p['late_ms_max']:.3f} ms"
            + (f", first error {p['first_error']}" if p["first_error"] else ""))
    log(f"ladder probes (rate, sustainable): {serve['ladder_probes']}")
    if args.trace:
        log(f"float conv-path kernel calls during load phases: "
            f"{run['report']['float_kernel_calls_in_load']}")
        return attempted, failed, traced_metrics(args, run, ledger)

    shorts += [run_short(args, env, work, i)
               for i in range(SHORT_PROCESSES // 2, SHORT_PROCESSES)]
    setups = [run["report"]["stamps"]["setup_end"] - run["t0"]]
    cpus, closed = [], []
    for more, more_failed, setup_s, cpu_s, closed_s in shorts:
        attempted += more
        failed += more_failed
        if setup_s is not None:
            setups.append(setup_s)
            cpus.append(cpu_s)
            closed.append(closed_s)
    log(f"setup_s per process: {setups}; short processes: cpu_s {cpus}, "
        f"closed loop {closed}")
    # Tail latency, the rate ladder and the throughputs move with
    # host stalls on the shared 2-core VM by more than any regression
    # bound (see README.md); they are printed, not gated.
    print("diagnostics: " + json.dumps({
        "latency_p99_ms.r100": phases["r100"]["p99_ms"],
        "latency_p50_ms.r300": phases["r300"]["p50_ms"],
        "latency_p99_ms.r300": phases["r300"]["p99_ms"],
        "samples.r100": phases["r100"]["samples"],
        "samples.r300": phases["r300"]["samples"],
        "max_rate_rps": serve["max_rate_rps"],
        "peak_throughput_rps": serve["peak_throughput_rps"],
        "closed_loop_s": statistics.median(closed) if closed else None,
    }))
    metrics = {
        "wall_s": run["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    if cpus:
        metrics["cpu_s"] = statistics.median(cpus)
    if phases["r100"]["p50_ms"] is not None:
        metrics["latency_p50_ms"] = phases["r100"]["p50_ms"]
    return attempted, failed, metrics


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM raises SystemExit, so the running child's process group
    # is killed and waited for on the way out (see launch).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        log("error: run from the repository root (src/repro/cli.py "
            "not found)")
        return 2
    work = os.path.join(HERE, ".work", f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = work
    try:
        warm = subprocess.run([sys.executable, "-c", WARM_UP], env=env,
                              capture_output=True, text=True, timeout=120)
        if warm.returncode != 0:
            log(f"error: cannot import repro.cli:\n{warm.stderr}")
            return 2
        interpreter = json.loads(warm.stdout.splitlines()[-1])
        print("host: " + json.dumps(host_fingerprint(root, interpreter)))
        ledger = Ledger(os.path.join(HERE, ".ledger", "runs.jsonl"))
        runner = run_serve if args.workload == "serve_open" else run_ccq
        attempted, failed, metrics = runner(args, env, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END
    complete = all(name in metrics for name in units)
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
