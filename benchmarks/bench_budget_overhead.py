"""Extra study — overhead of the resilience layer (``repro.resilience``).

The run budget threading through the pipeline makes the same
promise the observability layer does: free when unused.  Every hot loop
guards its poll behind ``budget.active``, so with the default
:data:`~repro.resilience.NULL_BUDGET` the instrumented code runs one
extra attribute read per poll site and nothing else.  This bench
quantifies that promise on the SCTL* refinement loop and also reports
what an *armed* (never-exhausting) :class:`~repro.resilience.RunBudget`
costs — that arm additionally pays the round-boundary weight snapshot
that keeps degraded results on exact iteration boundaries.

The acceptance bar mirrors ``bench_obs_overhead.py``: < 2% median
overhead for the null budget, enforced at 5% in the paired test to stay
robust against scheduler noise on shared CI machines.
"""

import statistics
import time

from common import index
from repro import RunOptions
from repro.bench import format_table
from repro.core import sctl_star
from repro.resilience import RunBudget

DATASET = "email"
K = 7
ITERATIONS = 10
REPEATS = 9


def _run_once(budget=None) -> float:
    idx = index(DATASET)
    start = time.perf_counter()
    if budget is None:
        sctl_star(idx, K, iterations=ITERATIONS)
    else:
        sctl_star(
            idx, K, iterations=ITERATIONS, options=RunOptions(budget=budget)
        )
    return time.perf_counter() - start


def _generous_budget() -> RunBudget:
    # armed (deadline set, so ``active`` is True) but never exhausting
    return RunBudget(wall_seconds=1e9)


def measure(repeats: int = REPEATS):
    """Interleaved A/B timing: (null-default medians, armed medians).

    Interleaving rather than back-to-back blocks keeps slow drift (thermal
    throttling, background load) from biasing one arm of the comparison.
    """
    plain, budgeted = [], []
    for _ in range(repeats):
        plain.append(_run_once())
        budgeted.append(_run_once(_generous_budget()))
    return plain, budgeted


def render() -> str:
    plain, budgeted = measure()
    base = statistics.median(plain)
    armed = statistics.median(budgeted)
    rows = [
        ["default (NULL_BUDGET)", f"{base:.4f}", "-"],
        [
            "RunBudget armed (generous deadline)",
            f"{armed:.4f}",
            f"{(armed / base - 1) * 100:+.1f}%",
        ],
    ]
    return format_table(
        ["configuration", "median s", "vs default"],
        rows,
        title=f"sctl_star budget overhead ({DATASET}, k={K}, T={ITERATIONS}, "
        f"{REPEATS} repeats)",
    )


class TestBudgetOverhead:
    def test_null_budget_overhead_is_negligible(self):
        # warm the memoised index so neither arm pays the build
        index(DATASET)
        plain, budgeted = measure(repeats=9)
        base = min(plain)
        assert base > 0
        # the default (null) arm runs strictly less work than the armed
        # arm; each run is only ~10ms, so compare the minima — the
        # estimator least contaminated by scheduler noise
        assert base <= min(budgeted) * 1.05

    def test_armed_budget_overhead_is_bounded(self):
        index(DATASET)
        plain, budgeted = measure(repeats=9)
        # polling plus one weight snapshot per round; a generous 50%
        # bound catches accidental per-clique work behind the guard
        assert min(budgeted) <= min(plain) * 1.5

    def test_budgeted_run_matches_plain_result(self):
        idx = index(DATASET)
        plain = sctl_star(idx, K, iterations=ITERATIONS)
        budgeted = sctl_star(
            idx, K, iterations=ITERATIONS,
            options=RunOptions(budget=_generous_budget()),
        )
        assert not budgeted.is_partial
        assert plain.density_fraction == budgeted.density_fraction
        assert plain.vertices == budgeted.vertices
        assert plain.stats["weights"] == budgeted.stats["weights"]

    def test_benchmark_null_budget_run(self, benchmark):
        idx = index(DATASET)
        benchmark.pedantic(
            lambda: sctl_star(idx, K, iterations=ITERATIONS),
            rounds=2,
            iterations=1,
        )


if __name__ == "__main__":
    print(render())
