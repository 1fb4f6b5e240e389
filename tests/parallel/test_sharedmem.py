"""Shared-memory broadcast: pack/attach roundtrip and block reuse."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import SharedArrayStore, attach_arrays, views_from
from repro.parallel.sharedmem import _ALIGN

SRC = Path(__file__).resolve().parents[2] / "src"


def sample_arrays(scale=1.0):
    rng = np.random.default_rng(0)
    return {
        "conv.weight": (scale * rng.normal(size=(4, 3, 3, 3))),
        "fc.weight": (scale * rng.normal(size=(10, 36))).astype(np.float32),
        "buffer.bn.running_mean": rng.normal(size=(4,)),
        "pinned.0.labels": np.arange(16, dtype=np.int64),
    }


class TestRoundtrip:
    def test_attach_sees_identical_values(self):
        store = SharedArrayStore()
        try:
            arrays = sample_arrays()
            name, manifest, remapped = store.ensure(arrays)
            assert remapped
            shm, views = attach_arrays(name, manifest)
            try:
                assert set(views) == set(arrays)
                for key, a in arrays.items():
                    np.testing.assert_array_equal(views[key], a)
                    assert views[key].dtype == a.dtype
            finally:
                del views
                shm.close()
        finally:
            store.unlink()

    def test_offsets_are_aligned(self):
        store = SharedArrayStore()
        try:
            _, manifest, _ = store.ensure(sample_arrays())
            for entry in manifest:
                assert int(entry["offset"]) % _ALIGN == 0
        finally:
            store.unlink()

    def test_non_contiguous_input_packed_correctly(self):
        store = SharedArrayStore()
        try:
            base = np.arange(64, dtype=np.float64).reshape(8, 8)
            strided = base[:, ::2]  # non-contiguous view
            name, manifest, _ = store.ensure({"w": strided})
            shm, views = attach_arrays(name, manifest)
            try:
                np.testing.assert_array_equal(views["w"], strided)
            finally:
                del views
                shm.close()
        finally:
            store.unlink()


class TestBlockReuse:
    def test_same_layout_reuses_segment(self):
        store = SharedArrayStore()
        try:
            name1, manifest1, remapped1 = store.ensure(sample_arrays())
            name2, manifest2, remapped2 = store.ensure(sample_arrays(2.0))
            assert remapped1 and not remapped2
            assert name1 == name2
            assert manifest1 == manifest2
            # The refreshed values are visible through a fresh attach.
            shm, views = attach_arrays(name2, manifest2)
            try:
                np.testing.assert_array_equal(
                    views["conv.weight"], sample_arrays(2.0)["conv.weight"]
                )
            finally:
                del views
                shm.close()
        finally:
            store.unlink()

    def test_layout_change_remaps(self):
        store = SharedArrayStore()
        try:
            store.ensure(sample_arrays())
            changed = sample_arrays()
            changed["conv.weight"] = np.zeros((2, 2))
            name, manifest, remapped = store.ensure(changed)
            assert remapped
            shm, views = attach_arrays(name, manifest)
            try:
                assert views["conv.weight"].shape == (2, 2)
            finally:
                del views
                shm.close()
        finally:
            store.unlink()

    def test_views_from_existing_mapping(self):
        """The worker's refresh path: new views over the same segment."""
        store = SharedArrayStore()
        try:
            name, manifest, _ = store.ensure(sample_arrays())
            shm, views = attach_arrays(name, manifest)
            try:
                del views
                store.ensure(sample_arrays(3.0))
                refreshed = views_from(shm, manifest)
                np.testing.assert_array_equal(
                    refreshed["fc.weight"],
                    sample_arrays(3.0)["fc.weight"],
                )
                del refreshed
            finally:
                shm.close()
        finally:
            store.unlink()


class TestLifecycle:
    def test_unlink_idempotent(self):
        store = SharedArrayStore()
        store.ensure(sample_arrays())
        store.unlink()
        store.unlink()
        assert store.name is None

    def test_attach_unknown_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_arrays("repro-no-such-segment", [])

    def test_forked_attach_keeps_the_creators_tracker_entry(self):
        """A worker forked after the creator's resource tracker started
        shares that tracker: its attach must not remove the creator's
        entry, or the creator's unlink makes the tracker print a
        ``KeyError`` (and the segment is no longer tracked for cleanup).
        """
        script = textwrap.dedent("""
            import multiprocessing
            from multiprocessing import resource_tracker

            import numpy as np

            from repro.parallel.sharedmem import (
                SharedArrayStore, attach_arrays,
            )

            resource_tracker.ensure_running()
            store = SharedArrayStore()
            name, manifest, _ = store.ensure({"w": np.arange(8.0)})

            def worker():
                shm, views = attach_arrays(name, manifest)
                assert views["w"][3] == 3.0
                del views
                shm.close()

            for _ in range(2):  # e.g. a respawned worker
                process = multiprocessing.get_context("fork").Process(
                    target=worker
                )
                process.start()
                process.join(30)
                assert process.exitcode == 0, process.exitcode
            store.unlink()
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # The tracker inherits stderr, so its complaints (printed when
        # it sees the script's exit) land in the captured output.
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr
        assert "leaked" not in done.stderr
