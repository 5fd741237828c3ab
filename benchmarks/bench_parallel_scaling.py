"""Extra study — scaling of the ``repro.parallel`` path-sharded engine.

Three questions, all on the largest bundled dataset (``friendster``):

1. **Build scaling** — wall-clock of ``SCTIndex.build`` with N workers
   for N in {1, 2, 4} against the serial build.  The sharded build expands
   disjoint seed ranges in worker processes and splices them in seed
   order, so the useful work parallelises fully and only the splice is
   sequential.
2. **Sweep scaling** — one SCTL* refinement pass per worker count.
3. **Parity** — the sharded build must save (format v2) byte-identically
   to the serial one, whatever the measured speedup says.

Speedup is reported against the measured machine: the table carries
``os.cpu_count()`` because a container pinned to one core *cannot* show
a real speedup (process pools only add IPC there), and pretending
otherwise would be measurement theatre.  The speedup assertion therefore
only arms when the host actually offers the cores; the parity assertions
always run.  ``--quick`` (or ``pytest``) keeps CI cheap: the small
``email`` dataset, one repeat, parity-focused.
"""

import io
import os
import statistics
import sys
import time

from common import dataset
from repro import RunOptions
from repro.bench import format_table
from repro.core import SCTIndex, sctl_star

DATASET = "friendster"  # largest bundled graph (|V|=5600, |E|=27259)
QUICK_DATASET = "email"
K = 4
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3
SPEEDUP_TARGET = 1.8  # at 4 workers, on a host with >= 4 cores


def _serialized(index) -> bytes:
    """The v2 bytes ``index.save`` would write."""
    buf = io.BytesIO()
    index._write_v2(buf)
    return buf.getvalue()


def _time_build(graph, workers=None, repeats=REPEATS):
    """Median build seconds (and the last built index)."""
    times, index = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        index = (
            SCTIndex.build(graph) if workers is None
            else SCTIndex.build(graph, options=RunOptions(parallel=workers))
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times), index


def _time_sweep(index, workers=None, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        if workers is None:
            sctl_star(index, K, iterations=2)
        else:
            sctl_star(
                index, K, iterations=2, options=RunOptions(parallel=workers)
            )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(name=DATASET, repeats=REPEATS):
    """Rows of (stage, workers, seconds, speedup, parity)."""
    graph = dataset(name)
    serial_build, serial_index = _time_build(graph, repeats=repeats)
    serial_bytes = _serialized(serial_index)
    serial_sweep = _time_sweep(serial_index, repeats=repeats)
    rows = [
        ["build", "serial", serial_build, 1.0, "-"],
        ["sctl*", "serial", serial_sweep, 1.0, "-"],
    ]
    speedups = {}
    for workers in WORKER_COUNTS:
        seconds, index = _time_build(graph, workers=workers, repeats=repeats)
        parity = _serialized(index) == serial_bytes
        speedups[workers] = serial_build / seconds if seconds else 0.0
        rows.append(["build", workers, seconds, speedups[workers], parity])
        sweep_seconds = _time_sweep(index, workers=workers, repeats=repeats)
        rows.append([
            "sctl*", workers, sweep_seconds,
            serial_sweep / sweep_seconds if sweep_seconds else 0.0, parity,
        ])
    return rows, speedups


def render(name=DATASET, repeats=REPEATS) -> str:
    return _report(*measure(name, repeats), name)


def _report(rows, speedups, name) -> str:
    cores = os.cpu_count() or 1
    table = format_table(
        ["stage", "workers", "median s", "speedup", "byte parity"],
        [
            [stage, w, f"{s:.3f}", f"{x:.2f}x", p]
            for stage, w, s, x, p in rows
        ],
        title=f"parallel scaling on {name} (host cores: {cores})",
    )
    verdict = (
        f"4-worker build speedup {speedups.get(4, 0):.2f}x "
        f"(target {SPEEDUP_TARGET}x needs >= 4 host cores; this host has "
        f"{cores})"
    )
    return table + "\n" + verdict


class TestParallelScaling:
    def test_quick_parity_and_harness(self):
        rows, _ = measure(QUICK_DATASET, repeats=1)
        assert all(parity is True for stage, w, s, x, parity in rows
                   if parity != "-")

    def test_speedup_on_capable_hosts(self):
        cores = os.cpu_count() or 1
        if cores < 4:
            import pytest

            pytest.skip(
                f"host has {cores} core(s); a pool cannot beat serial here"
            )
        _, speedups = measure(DATASET, repeats=REPEATS)
        assert speedups[4] >= SPEEDUP_TARGET


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    name = QUICK_DATASET if quick else DATASET
    rows, speedups = measure(name, 1 if quick else REPEATS)
    print(_report(rows, speedups, name))
    if any(parity is False for *_, parity in rows):
        sys.exit("FAIL: a parallel build did not save byte-identically")
