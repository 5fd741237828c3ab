"""Extra study — overhead of the observability layer (``repro.obs``).

The recorder threading through the pipeline promises to be free when
unused: every hot path guards its measurement work behind
``recorder.enabled``, so with the default :data:`~repro.obs.NULL_RECORDER`
the instrumented code runs the same statements as before the layer
existed.  This bench quantifies that promise on the SCTL* refinement
loop (the hottest instrumented path) and also reports what an attached
:class:`~repro.obs.MetricsRecorder` costs, with its per-stage breakdown.

The acceptance bar is < 2% median overhead for the null recorder; the
paired test below enforces 5% to stay robust against scheduler noise on
shared CI machines while still catching any accidental per-clique work
sneaking outside the ``enabled`` guard.
"""

import statistics
import time

from common import index
from repro import RunOptions
from repro.bench import format_table, timed_with_metrics
from repro.core import sctl_star
from repro.obs import MetricsRecorder

DATASET = "email"
K = 7
ITERATIONS = 10
REPEATS = 9


def _run_once(recorder=None) -> float:
    idx = index(DATASET)
    start = time.perf_counter()
    if recorder is None:
        sctl_star(idx, K, iterations=ITERATIONS)
    else:
        sctl_star(
            idx, K, iterations=ITERATIONS,
            options=RunOptions(recorder=recorder),
        )
    return time.perf_counter() - start


def measure(repeats: int = REPEATS):
    """Interleaved A/B timing: (null-default medians, metrics medians).

    Interleaving rather than back-to-back blocks keeps slow drift (thermal
    throttling, background load) from biasing one arm of the comparison.
    """
    plain, recorded = [], []
    for _ in range(repeats):
        plain.append(_run_once())
        recorded.append(_run_once(MetricsRecorder()))
    return plain, recorded


def render() -> str:
    plain, recorded = measure()
    base = statistics.median(plain)
    with_metrics = statistics.median(recorded)
    rows = [
        ["default (NULL_RECORDER)", f"{base:.4f}", "-"],
        [
            "MetricsRecorder attached",
            f"{with_metrics:.4f}",
            f"{(with_metrics / base - 1) * 100:+.1f}%",
        ],
    ]
    table = format_table(
        ["configuration", "median s", "vs default"],
        rows,
        title=f"sctl_star overhead ({DATASET}, k={K}, T={ITERATIONS}, "
        f"{REPEATS} repeats)",
    )
    breakdown = timed_with_metrics(
        lambda rec: sctl_star(
            index(DATASET), K, iterations=ITERATIONS,
            options=RunOptions(recorder=rec),
        )
    )
    stage_rows = [
        [f"refine/iteration/{t}", breakdown.stage_cell(f"refine/iteration/{t}")]
        for t in range(1, ITERATIONS + 1)
    ]
    stages = format_table(
        ["stage", "seconds"], stage_rows, title="per-stage breakdown (one run)"
    )
    return table + "\n\n" + stages


class TestObsOverhead:
    def test_null_recorder_overhead_is_negligible(self):
        # warm the memoised index so neither arm pays the build
        index(DATASET)
        plain, recorded = measure(repeats=5)
        base = statistics.median(plain)
        assert base > 0
        # the default (null) arm runs strictly less work than the
        # recorded arm, so beyond scheduler noise it must not be slower
        assert base <= statistics.median(recorded) * 1.05

    def test_metrics_recorder_overhead_is_bounded(self):
        index(DATASET)
        plain, recorded = measure(repeats=5)
        # even the *enabled* recorder only acts at iteration granularity;
        # a generous 50% bound catches accidental per-clique recording
        assert statistics.median(recorded) <= statistics.median(plain) * 1.5

    def test_recorded_run_matches_plain_result(self):
        idx = index(DATASET)
        recorder = MetricsRecorder()
        plain = sctl_star(idx, K, iterations=ITERATIONS)
        recorded = sctl_star(
            idx, K, iterations=ITERATIONS,
            options=RunOptions(recorder=recorder),
        )
        assert plain.density_fraction == recorded.density_fraction
        assert plain.vertices == recorded.vertices
        assert recorder.counters["refine/iterations"] == ITERATIONS

    def test_benchmark_null_recorder_run(self, benchmark):
        idx = index(DATASET)
        benchmark.pedantic(
            lambda: sctl_star(idx, K, iterations=ITERATIONS),
            rounds=2,
            iterations=1,
        )


if __name__ == "__main__":
    print(render())
