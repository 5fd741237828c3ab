"""Checkpoint/resume and budget-degradation parity tests.

The core guarantee of the resilience layer: interrupting a run at any
iteration/root boundary and resuming it from its checkpoint reproduces
the uninterrupted run *exactly* — same weights, same density, same upper
bound — and a run with a generous budget is byte-identical to one with
no budget at all.
"""

import itertools

import pytest

from repro import RunOptions, densest_subgraph
from repro.core import SCTIndex, sctl, sctl_star, sctl_star_exact, sctl_star_sample
from repro.errors import BudgetExhausted, CheckpointError
from repro.graph import relaxed_caveman_graph
from repro.resilience import Checkpointer, RunBudget
from repro.results import PartialResult


def counting_clock(start: int = 0):
    counter = itertools.count(start)
    return lambda: next(counter)


@pytest.fixture(scope="module")
def graph():
    return relaxed_caveman_graph(8, 7, 0.15, seed=5)


@pytest.fixture(scope="module")
def index(graph):
    return SCTIndex.build(graph)


class TestGenerousBudgetIsIdentical:
    """An armed but never-exhausted budget must not perturb any result."""

    def test_sctl_star(self, index):
        plain = sctl_star(index, 4, iterations=6)
        budgeted = sctl_star(
            index, 4, iterations=6,
            options=RunOptions(budget=RunBudget(wall_seconds=1e9)),
        )
        assert type(budgeted) is type(plain)
        assert budgeted.vertices == plain.vertices
        assert budgeted.stats["weights"] == plain.stats["weights"]
        assert budgeted.upper_bound == plain.upper_bound

    def test_sctl(self, index):
        plain = sctl(index, 4, iterations=5)
        budgeted = sctl(
            index, 4, iterations=5,
            options=RunOptions(budget=RunBudget(wall_seconds=1e9)),
        )
        assert budgeted.vertices == plain.vertices
        assert budgeted.stats["weights"] == plain.stats["weights"]

    def test_sample(self, index):
        plain = sctl_star_sample(index, 4, sample_size=300, seed=3)
        budgeted = sctl_star_sample(
            index, 4, sample_size=300, seed=3,
            options=RunOptions(budget=RunBudget(wall_seconds=1e9)),
        )
        assert budgeted.vertices == plain.vertices
        assert budgeted.clique_count == plain.clique_count

    def test_exact(self, graph, index):
        plain = sctl_star_exact(graph, 4, index=index, sample_size=300)
        budgeted = sctl_star_exact(
            graph, 4, index=index, sample_size=300,
            options=RunOptions(budget=RunBudget(wall_seconds=1e9)),
        )
        assert budgeted.exact and plain.exact
        assert budgeted.vertices == plain.vertices
        assert budgeted.density_fraction == plain.density_fraction

    def test_build(self, graph, tmp_path):
        plain = SCTIndex.build(graph)
        budgeted = SCTIndex.build(
            graph, options=RunOptions(budget=RunBudget(wall_seconds=1e9))
        )
        a, b = tmp_path / "a.sct", tmp_path / "b.sct"
        plain.save(a)
        budgeted.save(b)
        assert a.read_bytes() == b.read_bytes()


class TestSctlStarResumeParity:
    @pytest.mark.parametrize("stop_after", [1, 2, 4])
    def test_interrupt_then_resume_matches_uninterrupted(
        self, index, tmp_path, stop_after
    ):
        total = 6
        full = sctl_star(index, 4, iterations=total)
        ckpt = Checkpointer(tmp_path / str(stop_after), interval_seconds=0)

        part = sctl_star(
            index, 4, iterations=total,
            options=RunOptions(
                budget=RunBudget(max_iterations=stop_after), checkpoint=ckpt
            ),
        )
        assert isinstance(part, PartialResult)
        assert part.valid
        assert part.iterations == stop_after
        assert part.reason == "max_iterations"

        resumed = sctl_star(
            index, 4, iterations=total,
            options=RunOptions(checkpoint=ckpt, resume=True),
        )
        assert not resumed.is_partial
        assert resumed.stats["weights"] == full.stats["weights"]
        assert resumed.density_fraction == full.density_fraction
        assert resumed.upper_bound == full.upper_bound
        assert resumed.vertices == full.vertices
        # the completed run must clean its snapshot up
        assert not ckpt.has("sctl-star-weights")

    def test_double_interrupt_then_resume(self, index, tmp_path):
        """Two successive interruptions still land on the exact answer."""
        total = 6
        full = sctl_star(index, 4, iterations=total)
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        sctl_star(
            index, 4, iterations=total,
            options=RunOptions(
                budget=RunBudget(max_iterations=2), checkpoint=ckpt
            ),
        )
        second = sctl_star(
            index, 4, iterations=total,
            options=RunOptions(
                budget=RunBudget(max_iterations=2), checkpoint=ckpt,
                resume=True,
            ),
        )
        assert second.is_partial and second.iterations == 4
        final = sctl_star(
            index, 4, iterations=total,
            options=RunOptions(checkpoint=ckpt, resume=True),
        )
        assert final.stats["weights"] == full.stats["weights"]
        assert final.density_fraction == full.density_fraction

    def test_mid_iteration_deadline_rolls_back_to_boundary(self, index, tmp_path):
        """A deadline tripping mid-sweep reports the last completed round."""
        full3 = sctl_star(index, 4, iterations=3)
        # the counting clock exhausts the deadline partway through a sweep
        # (each sweep burns ~41 polls: 40 paths + the round boundary)
        budget = RunBudget(wall_seconds=150, clock=counting_clock())
        part = sctl_star(
            index, 4, iterations=10, options=RunOptions(budget=budget)
        )
        assert part.is_partial and part.valid
        completed = part.iterations
        assert 0 < completed < 10
        reference = sctl_star(index, 4, iterations=completed)
        assert part.stats["weights"] == reference.stats["weights"]
        if completed >= 3:
            assert full3.density_fraction <= part.density_fraction

    def test_checkpoint_mismatch_refuses_resume(self, index, tmp_path):
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        sctl_star(
            index, 4, iterations=6,
            options=RunOptions(
                budget=RunBudget(max_iterations=2), checkpoint=ckpt
            ),
        )
        with pytest.raises(CheckpointError):
            sctl_star(
                index, 5, iterations=6,
                options=RunOptions(checkpoint=ckpt, resume=True),
            )


class TestSctlResumeParity:
    @pytest.mark.parametrize("stop_after", [1, 3])
    def test_interrupt_then_resume(self, index, tmp_path, stop_after):
        total = 5
        full = sctl(index, 4, iterations=total)
        ckpt = Checkpointer(tmp_path / str(stop_after), interval_seconds=0)
        part = sctl(
            index, 4, iterations=total,
            options=RunOptions(
                budget=RunBudget(max_iterations=stop_after), checkpoint=ckpt
            ),
        )
        assert part.is_partial and part.valid
        resumed = sctl(
            index, 4, iterations=total,
            options=RunOptions(checkpoint=ckpt, resume=True),
        )
        assert resumed.stats["weights"] == full.stats["weights"]
        assert resumed.density_fraction == full.density_fraction
        assert resumed.upper_bound == full.upper_bound


class TestIndexBuildResume:
    def test_interrupted_build_resumes_to_identical_index(self, graph, tmp_path):
        reference = SCTIndex.build(graph)
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        # a counting clock trips the deadline after a few per-root polls
        budget = RunBudget(wall_seconds=5, clock=counting_clock())
        with pytest.raises(BudgetExhausted):
            SCTIndex.build(
                graph, options=RunOptions(budget=budget, checkpoint=ckpt)
            )
        assert ckpt.has("sct-build")

        resumed = SCTIndex.build(
            graph, options=RunOptions(checkpoint=ckpt, resume=True)
        )
        a, b = tmp_path / "ref.sct", tmp_path / "res.sct"
        reference.save(a)
        resumed.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert not ckpt.has("sct-build")  # cleared after completion

    def test_build_checkpoint_mismatch_refuses_resume(self, graph, tmp_path):
        other = relaxed_caveman_graph(4, 5, 0.1, seed=9)
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        budget = RunBudget(wall_seconds=3, clock=counting_clock())
        with pytest.raises(BudgetExhausted):
            SCTIndex.build(
                graph, options=RunOptions(budget=budget, checkpoint=ckpt)
            )
        with pytest.raises(CheckpointError):
            SCTIndex.build(
                other, options=RunOptions(checkpoint=ckpt, resume=True)
            )


class TestExactDegradation:
    def test_partial_then_full_rerun_matches(self, graph, index):
        baseline = sctl_star_exact(graph, 4, index=index, sample_size=300)
        budget = RunBudget(wall_seconds=40, clock=counting_clock())
        part = sctl_star_exact(
            graph, 4, index=index, sample_size=300,
            options=RunOptions(budget=budget),
        )
        assert part.is_partial
        assert not part.exact
        assert part.valid
        # the degraded answer is achieved, so it can never beat the optimum
        assert part.density_fraction <= baseline.density_fraction
        rerun = sctl_star_exact(graph, 4, index=index, sample_size=300)
        assert rerun.density_fraction == baseline.density_fraction

    def test_facade_partial_flow(self, graph):
        result = densest_subgraph(
            graph, 4, method="sctl*",
            options=RunOptions(
                budget=RunBudget(wall_seconds=1, clock=counting_clock())
            ),
        )
        assert result.is_partial
        assert not result.valid  # exhausted inside the index build
        assert result.stage == "index/build"

    def test_facade_resume_through_kwargs(self, graph, tmp_path):
        full = densest_subgraph(graph, 4, method="sctl*")
        ckpt = Checkpointer(tmp_path, interval_seconds=0)
        part = densest_subgraph(
            graph, 4, method="sctl*",
            options=RunOptions(
                budget=RunBudget(max_iterations=3), checkpoint=ckpt
            ),
        )
        assert part.is_partial and part.valid
        resumed = densest_subgraph(
            graph, 4, method="sctl*",
            options=RunOptions(checkpoint=ckpt, resume=True),
        )
        assert resumed.density_fraction == full.density_fraction
        assert resumed.vertices == full.vertices
