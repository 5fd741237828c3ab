"""RunOptions: construction, resolve() and entry-point parity."""

import pytest

from repro import (
    InvalidParameterError,
    ParallelConfig,
    RunOptions,
    core_app,
    greedy_peeling,
    kcl,
    kcl_exact,
    kcl_sample,
)
from repro.core import SCTIndex
from repro.core.profile import density_profile
from repro.core.reductions import kp_computation
from repro.core.sampling import sctl_star_sample
from repro.obs import NULL_RECORDER
from repro.options import warn_unsupported
from repro.resilience import NULL_BUDGET


class TestConstruction:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.recorder is NULL_RECORDER
        assert opts.budget is NULL_BUDGET
        assert opts.checkpoint is None
        assert opts.resume is False
        assert opts.parallel is None
        assert opts.workers == 1
        for name in ("recorder", "budget", "checkpoint", "resume", "parallel"):
            assert opts.is_default(name)

    def test_none_normalised_to_null_objects(self):
        opts = RunOptions(recorder=None, budget=None)
        assert opts.recorder is NULL_RECORDER
        assert opts.budget is NULL_BUDGET

    def test_int_parallel_normalised_to_config(self):
        opts = RunOptions(parallel=4)
        assert isinstance(opts.parallel, ParallelConfig)
        assert opts.parallel.workers == 4
        assert opts.workers == 4

    def test_parallel_one_is_non_default_but_disabled(self):
        opts = RunOptions(parallel=1)
        assert opts.parallel.workers == 1
        assert not opts.parallel.enabled

    def test_bool_parallel_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunOptions(parallel=True)

    def test_bad_resume_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunOptions(resume=1)

    def test_frozen(self):
        opts = RunOptions()
        with pytest.raises(Exception):
            opts.resume = True

    def test_replace(self):
        opts = RunOptions(parallel=2)
        changed = opts.replace(resume=True)
        assert changed.resume is True
        assert changed.parallel == opts.parallel
        assert opts.resume is False


class TestResolve:
    def test_no_arguments(self):
        assert RunOptions.resolve() == RunOptions()

    def test_options_only(self):
        given = RunOptions(parallel=2, resume=False)
        assert RunOptions.resolve(given) == given

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="workerz"):
            RunOptions.resolve(workerz=2)

    def test_non_runoptions_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunOptions.resolve({"parallel": 2})


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ParallelConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            ParallelConfig(workers=2, chunks_per_worker=0)
        with pytest.raises(InvalidParameterError):
            ParallelConfig(workers=2, start_method="no-such-method")

    def test_normalize(self):
        assert ParallelConfig.normalize(None) is None
        cfg = ParallelConfig(workers=2)
        assert ParallelConfig.normalize(cfg) is cfg
        assert ParallelConfig.normalize(3).workers == 3
        with pytest.raises(InvalidParameterError):
            ParallelConfig.normalize(True)


class TestEntryPointParity:
    """options= with default or serial-equivalent knobs changes nothing."""

    def test_sample_options_equals_legacy(self, caveman):
        index = SCTIndex.build(caveman)
        legacy = sctl_star_sample(index, 3, sample_size=50, seed=7)
        new = sctl_star_sample(
            index, 3, sample_size=50, seed=7, options=RunOptions()
        )
        assert legacy.vertices == new.vertices

    def test_profile_and_kp_accept_options(self, caveman):
        index = SCTIndex.build(caveman)
        prof_a = density_profile(index, k_values=[3], iterations=2)
        prof_b = density_profile(
            index, k_values=[3], iterations=2, options=RunOptions(parallel=2)
        )
        assert prof_a.results[3].vertices == prof_b.results[3].vertices
        part_a = kp_computation(index, 3)
        part_b = kp_computation(index, 3, options=RunOptions(parallel=2))
        assert part_a.partition_of == part_b.partition_of


class TestBaselineWarnings:
    def test_each_baseline_warns_once_on_nondefault_knobs(self, caveman):
        opts = RunOptions(parallel=2)
        for fn in (kcl, greedy_peeling, core_app):
            with pytest.warns(UserWarning, match="ignored"):
                fn(caveman, 3, options=opts)
        with pytest.warns(UserWarning, match="KCL-Sample"):
            kcl_sample(caveman, 3, sample_size=20, options=opts)
        with pytest.warns(UserWarning, match="KCL-Exact"):
            kcl_exact(caveman, 3, options=opts)

    def test_default_options_do_not_warn(self, caveman, recwarn):
        kcl(caveman, 3, options=RunOptions())
        greedy_peeling(caveman, 3, options=None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, UserWarning)]

    def test_warn_unsupported_supported_knobs_exempt(self):
        opts = RunOptions(parallel=2)
        warn_unsupported(opts, "X", supported=("parallel",))  # no warning
