"""CLI end-to-end at micro scale (seconds, exercises every code path)."""

import json

import pytest

from repro.cli import main


class TestRunCCQ:
    def test_full_pipeline_micro(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--policy", "pact",
            "--target-compression", "6.0",
            "--max-steps", "4",
            "--probes", "2",
            "--output", str(out_file),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline accuracy" in printed
        assert "compression" in printed
        payload = json.loads(out_file.read_text())
        assert payload["task"] == "resnet20_cifar10"
        assert payload["compression"] > 1.0
        assert set(payload["bit_config"])  # non-empty

    def test_checkpoint_and_resume_flags(self, capsys, tmp_path):
        ckpt = tmp_path / "run"
        base_args = [
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--probes", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        code = main(base_args + ["--max-steps", "2"])
        assert code == 0
        capsys.readouterr()
        assert (ckpt / "state.json").exists()
        assert (ckpt / "journal.jsonl").exists()
        # The pretrained float baseline was cached alongside.
        caches = list(ckpt.glob("pretrain-*.npz"))
        assert len(caches) == 1

        # Resume extends the budget and picks up where the run stopped.
        code = main(base_args + ["--max-steps", "4", "--resume"])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"resuming from checkpoint in {ckpt}" in printed
        assert "step   2:" in printed

    def test_resume_without_checkpoint_dir_errors(self, capsys):
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--resume",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_block_granularity_flag(self, capsys):
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--max-steps", "2",
            "--probes", "1",
            "--block-granularity",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "block granularity" in printed

    @pytest.mark.parametrize("flag, value", [
        ("--probe-workers", "-1"),
        ("--recover-workers", "-2"),
        ("--recover-grad-shards", "0"),
        ("--probe-timeout", "0"),
        ("--probe-timeout", "-3.5"),
        ("--probe-workers", "two"),
    ])
    def test_bad_pool_arguments_are_usage_errors(self, capsys, flag, value):
        """Rejected at parse time: exit 2 before any pretraining."""
        with pytest.raises(SystemExit) as exc:
            main([
                "run-ccq", "--scale", "micro", "--recover-trainer", "ddp",
                flag, value,
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert "pretraining" not in captured.out + captured.err

    def test_probe_timeout_flag_reaches_the_config(self, capsys):
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--max-steps", "2",
            "--probes", "2",
            "--probe-timeout", "45.5",
        ])
        assert code == 0
        capsys.readouterr()


class TestSignalGuard:
    """The graceful SIGTERM/SIGINT path around ``run-ccq``."""

    class _FakeQuantizer:
        def __init__(self):
            self.stop_requests = 0

        def request_stop(self):
            self.stop_requests += 1

    class _FakeLog:
        def __init__(self):
            self.warnings = []

        def warning(self, msg, **fields):
            self.warnings.append((msg, fields))

    def test_first_signal_requests_stop_second_aborts(self):
        import signal as signal_module

        from repro.cli import _SignalGuard

        quantizer = self._FakeQuantizer()
        log = self._FakeLog()
        guard = _SignalGuard(quantizer, log)

        guard.handle(signal_module.SIGTERM, None)
        assert quantizer.stop_requests == 1
        assert guard.signum == signal_module.SIGTERM
        assert log.warnings  # the operator was told what happens next

        import pytest

        with pytest.raises(KeyboardInterrupt):
            guard.handle(signal_module.SIGTERM, None)

    def test_handlers_installed_and_restored(self):
        import signal as signal_module

        from repro.cli import _SignalGuard

        previous = {
            s: signal_module.getsignal(s)
            for s in _SignalGuard.SIGNALS
        }
        guard = _SignalGuard(self._FakeQuantizer(), self._FakeLog())
        with guard:
            for s in _SignalGuard.SIGNALS:
                assert signal_module.getsignal(s) == guard.handle
        for s, handler in previous.items():
            assert signal_module.getsignal(s) == handler


class TestTelemetryCLI:
    """--telemetry-dir + report-run end-to-end (PR 2 tentpole)."""

    def test_run_writes_telemetry_and_report_parses_it(
        self, capsys, tmp_path
    ):
        telem = tmp_path / "telem"
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--probes", "2",
            "--max-steps", "3",
            "--no-progress",
            "--telemetry-dir", str(telem),
        ])
        assert code == 0
        capsys.readouterr()

        events_file = telem / "events.jsonl"
        metrics_file = telem / "metrics.json"
        assert events_file.exists() and metrics_file.exists()

        from repro.telemetry import read_events

        events = read_events(events_file)
        span_names = {
            e["name"] for e in events if e["type"] == "span"
        }
        # Every CCQ stage produced spans, plus the enclosing run.
        assert {"run", "initialize", "probe", "recover", "eval",
                "checkpoint"} <= span_names
        assert any(
            e["type"] == "event" and e["name"] == "step_complete"
            for e in events
        )
        # Log lines are mirrored into the sink.
        assert any(e["type"] == "log" for e in events)

        metrics = json.loads(metrics_file.read_text())
        counter_names = {c["name"] for c in metrics["counters"]}
        # Resilience counters exist even when the run was clean.
        assert {"ccq.steps", "ccq.probe_divergence", "ccq.recovery_retry",
                "ccq.expert_skipped"} <= counter_names
        gauge_names = {g["name"] for g in metrics["gauges"]}
        assert {"ccq.accuracy", "ccq.compression", "ccq.layer_bits",
                "hedge.expert_weight"} <= gauge_names
        hist_names = {h["name"] for h in metrics["histograms"]}
        assert "ccq.probe_loss" in hist_names

        # report-run renders the directory (and writes the SVG).
        svg = tmp_path / "traj.svg"
        code = main(["report-run", str(telem), "--svg", str(svg)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "per-stage wall-clock breakdown" in printed
        assert "accuracy / compression trajectory" in printed
        assert svg.exists()

    def test_report_run_on_missing_directory_errors(self, capsys, tmp_path):
        code = main(["report-run", str(tmp_path / "nope")])
        assert code == 2
        assert "telemetry" in capsys.readouterr().err

    def test_run_without_telemetry_dir_writes_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--probes", "1",
            "--max-steps", "1",
            "--no-progress",
        ])
        assert code == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("**/events.jsonl"))
        assert not list(tmp_path.glob("**/metrics.json"))

    def test_log_level_filters_diagnostics(self, capsys):
        code = main([
            "--log-level", "error",
            "run-ccq",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--probes", "1",
            "--max-steps", "1",
            "--no-progress",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline accuracy" not in printed


class TestProfileCommand:
    def test_profile_prints_conv_and_gemm_rows(self, capsys, tmp_path):
        json_out = tmp_path / "profile.json"
        code = main([
            "profile",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--batch-size", "4",
            "--repeats", "1",
            "--json", str(json_out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "conv2d" in printed
        assert "matmul" in printed
        assert "GFLOP" in printed
        payload = json.loads(json_out.read_text())
        names = {op["name"] for op in payload["ops"]}
        assert any(n.startswith("conv2d") for n in names)
        assert payload["total_flops"] > 0
        assert payload["batch"] == 4

    def test_train_mode_profiles_backward_too(self, capsys):
        code = main([
            "profile",
            "--task", "resnet20_cifar10",
            "--scale", "micro",
            "--batch-size", "4",
            "--repeats", "1",
            "--train",
        ])
        assert code == 0
        assert "train (fwd+bwd)" in capsys.readouterr().out


class TestWatchCommand:
    def _write_replay(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        events = [
            {"type": "event", "name": "step_complete", "ts": 1.0,
             "mono": 1.0,
             "fields": {"step": 0, "layer": "conv1", "from_bits": 8,
                        "to_bits": 4, "recovered_accuracy": 0.7,
                        "compression": 2.0}},
            {"type": "event", "name": "run_complete", "ts": 2.0,
             "mono": 2.0, "fields": {"steps": 1}},
        ]
        with open(directory / "events.jsonl", "w") as f:
            for event in events:
                f.write(json.dumps(event) + "\n")

    def test_watch_once_renders_replayed_run(self, capsys, tmp_path):
        run_dir = tmp_path / "telem"
        self._write_replay(run_dir)
        code = main(["watch", str(run_dir), "--once"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "status: complete" in printed
        assert "step: 0" in printed
        assert "conv1=4b" in printed

    def test_watch_until_complete_with_server(self, capsys, tmp_path):
        import urllib.request

        run_dir = tmp_path / "telem"
        self._write_replay(run_dir)
        # --serve 0 binds an ephemeral loopback port; --until-complete
        # exits on the replayed run_complete, so this cannot hang.
        code = main([
            "watch", str(run_dir), "--until-complete",
            "--interval", "0.01", "--serve", "0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "serving metrics on http://" in err
