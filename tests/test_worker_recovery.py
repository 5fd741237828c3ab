"""Worker-crash recovery in the path-shard engine.

A SIGKILLed pool worker silently takes its chunk with it —
``multiprocessing.Pool`` never resubmits a lost task, so an unwatched
``imap`` hangs forever.  These tests inject *real* SIGKILLs (via the
``REPRO_FAULT_WORKER_KILL`` marker-file hook, and directly with
``os.kill``) and pin the recovery contract: the sweep completes, the
results are byte-identical to an uncrashed serial run, the recovery is
visible in the metrics, and no ``/dev/shm`` segment outlives the engine.
"""

import os
import signal
import threading
import time

import pytest

from repro import MetricsRecorder, ParallelConfig
from repro.core import SCTIndex
from repro.graph import relaxed_caveman_graph
from repro.parallel import engine as engine_mod
from repro.parallel.engine import PathShardEngine

K = 4


@pytest.fixture(scope="module")
def index():
    return SCTIndex.build(relaxed_caveman_graph(8, 6, 0.1, seed=7))


@pytest.fixture()
def crash_marker(tmp_path, monkeypatch):
    """Arm the chaos hook; returns a function writing the crash count."""
    marker = tmp_path / "kill.marker"
    monkeypatch.setenv(engine_mod._FAULT_ENV, str(marker))

    def arm(crashes: int = 1) -> str:
        marker.write_text(str(crashes))
        return str(marker)

    return arm


def serial_paths(index, k=K):
    return [(p.holds, p.pivots) for p in index.iter_paths(k)]


def engine_paths(engine, k=K):
    return [pair for chunk in engine.map("paths", k) for pair in chunk]


def shm_path(engine) -> str:
    name = engine._ensure_shm().name
    return os.path.join("/dev/shm", name.lstrip("/"))


class TestCrashRecovery:
    def test_injected_crash_rebuilds_pool_and_matches_serial(
        self, index, crash_marker
    ):
        crash_marker(1)
        recorder = MetricsRecorder()
        config = ParallelConfig(workers=2, max_crash_retries=2)
        with PathShardEngine(index, config, recorder=recorder) as engine:
            assert engine_paths(engine) == serial_paths(index)
        counters = recorder.snapshot()["counters"]
        assert counters.get("parallel/worker_crashes", 0) >= 1
        assert counters.get("parallel/pool_rebuilds", 0) >= 1
        assert "parallel/serial_fallback" not in counters
        # one pool_rebuilt event per rebuild
        assert counters["events/pool_rebuilt"] == (
            counters["parallel/pool_rebuilds"]
        )

    def test_zero_retries_degrades_to_serial_fallback(
        self, index, crash_marker
    ):
        crash_marker(1)
        recorder = MetricsRecorder()
        config = ParallelConfig(workers=2, max_crash_retries=0)
        with PathShardEngine(index, config, recorder=recorder) as engine:
            assert engine_paths(engine) == serial_paths(index)
        counters = recorder.snapshot()["counters"]
        assert counters.get("parallel/worker_crashes", 0) >= 1
        assert counters.get("parallel/serial_fallback", 0) == 1
        assert "parallel/pool_rebuilds" not in counters
        assert counters["events/serial_fallback"] == 1

    def test_repeated_crashes_keep_the_bookkeeping_consistent(
        self, index, crash_marker
    ):
        # enough injected crashes to burn every rebuild.  Exact counts
        # are racy by design (pool.terminate can reap a worker holding a
        # freshly-claimed marker), so assert the engine's invariants:
        # every crash is either a rebuild or THE one serial fallback,
        # and rebuilds never exceed the retry budget.
        crash_marker(5)
        recorder = MetricsRecorder()
        config = ParallelConfig(workers=2, max_crash_retries=1)
        with PathShardEngine(index, config, recorder=recorder) as engine:
            assert engine_paths(engine) == serial_paths(index)
        counters = recorder.snapshot()["counters"]
        crashes = counters.get("parallel/worker_crashes", 0)
        rebuilds = counters.get("parallel/pool_rebuilds", 0)
        fallback = counters.get("parallel/serial_fallback", 0)
        assert crashes >= 1
        assert crashes == rebuilds + fallback
        assert rebuilds <= 1  # max_crash_retries
        assert fallback <= 1

    def test_crashed_sweep_count_matches_uncrashed(self, index, crash_marker):
        with PathShardEngine(index, ParallelConfig(workers=2)) as engine:
            expected = engine.count_cliques(K)
        crash_marker(1)
        config = ParallelConfig(workers=2, max_crash_retries=2)
        with PathShardEngine(index, config) as engine:
            assert engine.count_cliques(K) == expected

    def test_no_marker_means_no_behaviour_change(self, index, monkeypatch):
        monkeypatch.delenv(engine_mod._FAULT_ENV, raising=False)
        recorder = MetricsRecorder()
        config = ParallelConfig(workers=2, max_crash_retries=2)
        with PathShardEngine(index, config, recorder=recorder) as engine:
            assert engine_paths(engine) == serial_paths(index)
        assert "parallel/worker_crashes" not in recorder.snapshot()["counters"]


class TestShmHygiene:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_sigkilled_worker_leaves_no_shm_after_close(self, index, workers):
        """Satellite (d): SIGKILL a live pool worker mid-query; the
        broadcast block must not survive ``close()`` regardless."""
        config = ParallelConfig(workers=workers, max_crash_retries=2)
        engine = PathShardEngine(index, config)
        try:
            # kill mid-sweep: pull the first chunk off the wire, murder a
            # worker, then demand the rest — the stream must still equal
            # the serial byte stream
            stream = engine.map("paths", K)
            collected = [next(stream)]
            victim = sorted(engine._worker_pids())[0]
            os.kill(victim, signal.SIGKILL)
            collected.extend(stream)
            assert [p for c in collected for p in c] == serial_paths(index)
            segment = shm_path(engine)
            assert os.path.exists(segment)
            # and a fresh sweep on the (possibly rebuilt) engine works
            assert engine_paths(engine) == serial_paths(index)
        finally:
            engine.close()
        assert not os.path.exists(segment)
        assert engine._shm is None

    def test_sigkill_between_sweeps_discards_the_suspect_pool(self, index):
        """An idle worker killed between sweeps may have died holding the
        task queue's reader lock; the engine must rebuild, not reuse."""
        config = ParallelConfig(workers=2, max_crash_retries=2)
        recorder = MetricsRecorder()
        engine = PathShardEngine(index, config, recorder=recorder)
        try:
            assert engine_paths(engine) == serial_paths(index)
            victim = sorted(engine._worker_pids())[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while victim in engine._worker_pids():
                assert time.monotonic() < deadline, "victim never reaped"
                time.sleep(0.01)
            assert engine_paths(engine) == serial_paths(index)
        finally:
            engine.close()
        counters = recorder.snapshot()["counters"]
        assert counters.get("parallel/worker_crashes", 0) >= 1
        assert counters.get("parallel/pool_rebuilds", 0) >= 1
        assert counters["events/pool_rebuilt"] == (
            counters["parallel/pool_rebuilds"]
        )

    def test_close_stops_the_pool_when_terminate_raises(
        self, index, monkeypatch
    ):
        """A worker killed mid-``recv`` can leave a torn task in the task
        pipe, and ``Pool.terminate()`` raises unpickling it (EOFError)
        before it stops the result thread and the respawned workers;
        ``close()`` must stop them anyway."""
        import multiprocessing.pool as mp_pool

        def torn_task(*_):
            raise EOFError("Ran out of input")

        monkeypatch.setattr(
            mp_pool.Pool, "_help_stuff_finish", staticmethod(torn_task)
        )
        engine = PathShardEngine(index, ParallelConfig(workers=2))
        pool = engine._ensure_pool()
        # a pending job keeps the result thread waiting, as a crashed
        # sweep's lost chunk does
        pool.apply_async(time.sleep, (60,))
        engine.close()
        handlers = (
            pool._worker_handler, pool._task_handler, pool._result_handler,
        )
        assert not any(thread.is_alive() for thread in handlers)
        assert not any(proc.is_alive() for proc in pool._pool)

    def test_close_unregisters_the_atexit_tracking(self, index):
        engine = PathShardEngine(index, ParallelConfig(workers=2))
        name = engine._ensure_shm().name
        assert name in engine_mod._LIVE_SHM
        engine.close()
        assert name not in engine_mod._LIVE_SHM

    def test_release_all_shm_sweeps_stragglers(self, index):
        engine = PathShardEngine(index, ParallelConfig(workers=2))
        segment = shm_path(engine)
        engine._teardown_pool()
        engine._finalizer.detach()  # simulate a finalizer that never ran
        engine_mod._release_all_shm()
        assert not os.path.exists(segment)
        assert not engine_mod._LIVE_SHM


class TestStartMethodSafety:
    """Forking a multithreaded process clones every lock in whatever
    state other threads hold it — a worker forked from an HTTP handler
    thread can deadlock in bootstrap before reaching the task loop, and
    (having also cloned the daemon's SIGTERM handler) shrug off
    ``Pool.terminate()`` forever.  The default context must therefore
    refuse to fork once other threads exist."""

    def test_threaded_process_defaults_to_spawn(self):
        release = threading.Event()
        spectator = threading.Thread(target=release.wait, daemon=True)
        spectator.start()
        try:
            ctx = ParallelConfig(workers=2).context()
            assert ctx.get_start_method() == "spawn"
        finally:
            release.set()
            spectator.join()

    def test_single_threaded_process_defaults_to_fork(self):
        if threading.active_count() != 1:
            pytest.skip("test runner already has background threads")
        ctx = ParallelConfig(workers=2).context()
        assert ctx.get_start_method() == "fork"

    def test_explicit_start_method_is_honoured(self):
        release = threading.Event()
        spectator = threading.Thread(target=release.wait, daemon=True)
        spectator.start()
        try:
            ctx = ParallelConfig(workers=2, start_method="fork").context()
            assert ctx.get_start_method() == "fork"
        finally:
            release.set()
            spectator.join()

    def test_spawn_sweep_matches_serial(self, index):
        # end-to-end parity under the start method the service daemon
        # will actually get
        config = ParallelConfig(workers=2, start_method="spawn")
        with PathShardEngine(index, config) as engine:
            assert engine_paths(engine) == serial_paths(index)


class TestFaultMarkerSemantics:
    def test_marker_is_consumed_exactly_once(self, tmp_path):
        marker = tmp_path / "kill.marker"
        marker.write_text("1")
        # claim semantics are pure renames; verify from the parent side
        # without actually dying
        claimed = str(marker) + ".claim"
        os.rename(str(marker), claimed)
        assert not marker.exists()
        with pytest.raises(OSError):
            os.rename(str(marker), claimed + "2")

    def test_multi_crash_marker_still_reaches_parity(
        self, index, crash_marker
    ):
        crash_marker(2)
        recorder = MetricsRecorder()
        config = ParallelConfig(workers=2, max_crash_retries=3)
        with PathShardEngine(index, config, recorder=recorder) as engine:
            assert engine_paths(engine) == serial_paths(index)
        assert (
            recorder.snapshot()["counters"].get("parallel/worker_crashes", 0)
            >= 1
        )
