import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf import connectome
from brainsurf.connectome import (
    ConnectomeSample,
    GeneratorConfig,
    SubjectRecord,
    ZeroVariance,
    bank_averaged_features,
    ensemble_mean_features,
    generate_cohort,
    load_dataset,
    split_runs,
    write_cohort,
)
from brainsurf.evaluate import correlation_matrix
from brainsurf.fileio import ConfigError
from oracles import connectome as oracle_connectome
from oracles import half_run_connectomes, pearson, sequential_cohort


def textbook_pearson(x, y):
    # Two-pass formula, written independently of the implementation.
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x) ** 0.5
    dy = sum((b - my) ** 2 for b in y) ** 0.5
    return num / (dx * dy)


class TestPearson:
    """The scalar oracle that the connectome and evaluation tests compare against."""

    def test_identical_series(self):
        assert pearson([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_exact_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 50))
        assert abs(pearson(x, y) - textbook_pearson(list(x), list(y))) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_affine_invariance_sign(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        assert abs(pearson(x, 2.5 * x + 1.0) - 1.0) < 1e-12
        assert abs(pearson(x, -0.3 * x + 2.0) + 1.0) < 1e-12

    def test_clipped_to_range(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10)
        assert -1.0 <= pearson(x, x + 1e-300) <= 1.0


def tiny_config(**overrides):
    defaults = dict(mesh_level=1, n_rois=3, n_contrasts=2, t_per_run=40, smooth_steps=3)
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def run_halves(left, right, roi):
    """The generator's per-run job on given banks: zero ROI weights and unit
    noise scale leave the banks as they are."""
    v, t = left.shape
    halves = (np.empty((2 * roi.shape[0], v)), np.empty((2 * roi.shape[0], v)))
    weights = np.zeros((roi.shape[0], v))
    connectome._run_connectomes(weights, roi, left.copy(), right.copy(), 1.0, np.empty(v * t), halves)
    return halves


def assert_same_halves(left, right, roi):
    halves = run_halves(left, right, roi)
    for got, want in zip(halves, half_run_connectomes(left, right, roi), strict=True):
        assert got.tobytes() == want.tobytes()
    return halves


class TestComputeConnectome:
    """Each half-run's connectome as the generator's job computes it."""

    def test_vertex_equal_to_roi_gives_one(self):
        rng = np.random.default_rng(3)
        roi = rng.standard_normal((5, 80))
        bank = np.tile(roi[0], (7, 1))
        for half in assert_same_halves(bank, bank, roi):
            assert np.allclose(half[0], 1.0)
            assert np.allclose(half[5], 1.0)  # the right bank

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        halves = assert_same_halves(
            rng.standard_normal((162, 1200)), rng.standard_normal((162, 1200)), rng.standard_normal((5, 1200))
        )
        assert [h.shape for h in halves] == [(10, 162), (10, 162)]

    def test_independent_noise_near_zero(self):
        # Monte Carlo over seeds: independent series at T=600 per half give
        # |r| far below any structural signal.
        means = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            halves = assert_same_halves(
                rng.standard_normal((30, 1200)), rng.standard_normal((30, 1200)), rng.standard_normal((4, 1200))
            )
            means += [np.abs(h).mean() for h in halves]
        assert np.mean(means) < 0.1

    def test_range(self):
        rng = np.random.default_rng(5)
        for half in assert_same_halves(*(rng.standard_normal((n, 100)) for n in (20, 20, 3))):
            assert half.min() >= -1.0 and half.max() <= 1.0

    def test_zero_variance_names_row(self):
        rng = np.random.default_rng(6)
        left = rng.standard_normal((4, 60))
        left[2] = 7.0
        with pytest.raises(ZeroVariance, match="vertex row 2"):
            run_halves(left, rng.standard_normal((4, 60)), rng.standard_normal((2, 60)))


class TestSplitRuns:
    def test_eight_samples_with_halved_segments(self):
        cfg = tiny_config(t_per_run=1200)
        record = generate_cohort(2, cfg, seed=0)[0]
        samples = split_runs(record)
        assert len(samples) == 8
        assert [s.segment_index for s in samples] == list(range(8))
        assert all(s.features.shape == (2 * cfg.n_rois, cfg.n_vertices) for s in samples)
        # Segment length check via an independent recomputation on one run.
        rng = np.random.default_rng(0)
        left, right, roi = (rng.standard_normal((n, 1200)) for n in (12, 12, 3))
        first, second = run_halves(left, right, roi)
        assert np.allclose(first, oracle_connectome(left[:, :600], right[:, :600], roi[:, :600]))
        assert np.allclose(second, oracle_connectome(left[:, 600:], right[:, 600:], roi[:, 600:]))

    def test_desk_scale_halving(self):
        cfg = tiny_config(t_per_run=100)
        record = generate_cohort(2, cfg, seed=1)[0]
        samples = split_runs(record)
        assert len(samples) == 8  # segments of 50 are still valid

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError, match="t_per_run"):
            generate_cohort(2, tiny_config(t_per_run=39), seed=2)

    def test_segments_partition_run(self):
        # A run made of two unrelated halves: each half's connectome depends
        # on its own timepoints only, and together they cover the run.
        rng = np.random.default_rng(3)
        a = [rng.standard_normal((n, 20)) for n in (12, 12, 3)]
        b = [rng.standard_normal((n, 20)) for n in (12, 12, 3)]
        halves = run_halves(*(np.concatenate([x, y], axis=1) for x, y in zip(a, b)))
        assert np.array_equal(halves[0], oracle_connectome(*a))
        assert np.array_equal(halves[1], oracle_connectome(*b))

    def test_segment_connectomes_stable(self):
        # With the default generator noise, the 8 variants of one subject
        # stay strongly correlated with each other.
        record = generate_cohort(2, GeneratorConfig(), seed=4)[0]
        feats = [s.features.ravel() for s in split_runs(record)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.corrcoef(feats[i], feats[j])[0, 1] > 0.5


class TestGenerateCohort:
    def test_deterministic(self):
        cfg = tiny_config()
        a = generate_cohort(3, cfg, seed=7)
        b = generate_cohort(3, cfg, seed=7)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.target_contrasts, rb.target_contrasts)
            assert np.array_equal(ra.retest_contrasts, rb.retest_contrasts)
            for sample_a, sample_b in zip(ra.samples, rb.samples, strict=True):
                assert sample_a.segment_index == sample_b.segment_index
                assert np.array_equal(sample_a.features, sample_b.features)

    def test_zero_noise_makes_retest_identical(self):
        cfg = tiny_config(contrast_noise_std=0.0)
        for r in generate_cohort(3, cfg, seed=8):
            assert np.array_equal(r.target_contrasts, r.retest_contrasts)

    def test_fingerprint_diagonal_dominance(self):
        cfg = GeneratorConfig()
        records = generate_cohort(8, cfg, seed=1234)
        for k in range(cfg.n_contrasts):
            test = np.stack([r.target_contrasts[k] for r in records])
            retest = np.stack([r.retest_contrasts[k] for r in records])
            m = correlation_matrix(retest, test, k).matrix
            for i in range(8):
                assert m[i, i] > np.delete(m[i], i).max()

    def test_positive_scaling_preserves_rank_order(self):
        # Pearson is affine-invariant: scaling one subject's map leaves every
        # correlation (and hence argmax structure) unchanged.
        records = generate_cohort(4, tiny_config(), seed=9)
        test = np.stack([r.target_contrasts[0] for r in records])
        retest = np.stack([r.retest_contrasts[0] for r in records])
        base = correlation_matrix(retest, test, 0).matrix
        scaled = retest.copy()
        scaled[2] *= 17.0
        rescaled = correlation_matrix(scaled, test, 0).matrix
        assert np.allclose(base, rescaled, atol=1e-12)

    def test_memory_grows_by_connectomes_not_runs(self):
        # One subject's raw runs at level 2 with 600 timepoints are
        # 4 x (2 x 162 + 5) x 600 float64, about 6.3 MB; its 8 connectomes
        # and 2 contrast stacks are about 0.1 MB.
        cfg = GeneratorConfig(mesh_level=2, t_per_run=600)

        def traced_peak(n_subjects):
            tracemalloc.start()
            try:
                generate_cohort(n_subjects, cfg, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_subject_runs = cfg.n_runs * (2 * cfg.n_vertices + cfg.n_rois) * cfg.t_per_run * 8
        assert traced_peak(6) - traced_peak(2) < one_subject_runs

    def test_needs_two_subjects(self):
        with pytest.raises(ValueError):
            generate_cohort(1, tiny_config(), seed=0)

    def test_per_contrast_noise_levels(self):
        cfg = tiny_config(contrast_noise_std=(0.0, 0.5))
        record = generate_cohort(2, cfg, seed=10)[0]
        diff = record.target_contrasts - record.retest_contrasts
        assert np.abs(diff[0]).max() == 0.0
        assert np.abs(diff[1]).max() > 0.0


def assert_same_cohort(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.subject_id == b.subject_id
        assert [s.segment_index for s in a.samples] == [s.segment_index for s in b.samples]
        for sa, sb in zip(a.samples, b.samples, strict=True):
            assert sa.features.tobytes() == sb.features.tobytes()
        assert a.target_contrasts.tobytes() == b.target_contrasts.tobytes()
        assert a.retest_contrasts.tobytes() == b.retest_contrasts.tobytes()


def streamed(n_subjects, cfg, seed):
    """The cohort as a streaming consumer sees it: each record copied the
    moment it is yielded, as ``write_cohort`` writes it at once."""
    return [
        SubjectRecord(
            r.subject_id,
            tuple(ConnectomeSample(s.segment_index, s.features.copy()) for s in r.samples),
            r.target_contrasts.copy(),
            r.retest_contrasts.copy(),
        )
        for r in connectome._cohort_records(n_subjects, cfg, seed)
    ]


small_generators = st.builds(
    GeneratorConfig,
    mesh_level=st.integers(0, 1), n_rois=st.integers(1, 3), n_contrasts=st.integers(1, 3),
    t_per_run=st.integers(2, 20).map(lambda n: 2 * n), ar_coeff=st.floats(-0.9, 0.9),
    timeseries_noise_std=st.floats(0.1, 2.0), latent_candidates=st.integers(1, 4),
    smooth_steps=st.integers(0, 3),
)


class TestPipelinedGeneration:
    """The draw thread and the connectome worker against the one-thread loop."""

    @settings(max_examples=25, deadline=None)
    @given(cfg=small_generators, n_subjects=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_loop_bitwise(self, cfg, n_subjects, seed):
        assert_same_cohort(generate_cohort(n_subjects, cfg, seed), sequential_cohort(n_subjects, cfg, seed))

    def test_slow_worker_changes_nothing(self, monkeypatch):
        job = connectome._run_connectomes

        def slow_job(*args):
            time.sleep(0.01)
            job(*args)

        monkeypatch.setattr(connectome, "_run_connectomes", slow_job)
        cfg = tiny_config()
        assert_same_cohort(streamed(3, cfg, seed=5), sequential_cohort(3, cfg, seed=5))

    def test_fast_thread_switching_changes_nothing(self):
        # Switching threads every microsecond interleaves the draws and the
        # job at many more points than the default 5 ms.
        cfg = tiny_config(t_per_run=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = streamed(4, cfg, seed=8)
        finally:
            sys.setswitchinterval(interval)
        assert_same_cohort(got, sequential_cohort(4, cfg, seed=8))

    def test_one_cpu_runs_jobs_on_the_worker(self, monkeypatch):
        # The generator has one path: a process limited to one CPU hands its
        # jobs to the worker thread too.
        job = connectome._run_connectomes
        threads = set()

        def recording_job(*args):
            threads.add(threading.current_thread().name)
            job(*args)

        monkeypatch.setattr(connectome, "_run_connectomes", recording_job)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = tiny_config()
        assert_same_cohort(streamed(3, cfg, seed=6), sequential_cohort(3, cfg, seed=6))
        assert threads and all(name.startswith("brainsurf-gen") for name in threads)

    def test_job_error_reaches_caller_and_worker_is_joined(self, monkeypatch, tmp_path):
        failure = RuntimeError("job failed")
        calls = []

        def failing_job(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == 6:  # the second subject's second run
                raise failure

        monkeypatch.setattr(connectome, "_run_connectomes", failing_job)
        with pytest.raises(RuntimeError) as caught:
            write_cohort(tmp_path / "d", tiny_config(), seed=7, n_train=2, n_test=1)
        assert caught.value is failure
        assert calls[0].startswith("brainsurf-gen")
        assert not any(t.name.startswith("brainsurf-gen") for t in threading.enumerate())
        assert not (tmp_path / "d" / "cohort.json").exists()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "d")

    def test_write_error_stops_generation_and_joins_worker(self, monkeypatch, tmp_path):
        write = connectome.write_tensor
        failure = OSError("disk full")

        def failing_write(path, array):
            if path.name == "sample_3.bin":
                raise failure
            write(path, array)

        monkeypatch.setattr(connectome, "write_tensor", failing_write)
        with pytest.raises(OSError) as caught:
            write_cohort(tmp_path / "d", tiny_config(), seed=7, n_train=2, n_test=1)
        assert caught.value is failure
        assert not any(t.name.startswith("brainsurf-gen") for t in threading.enumerate())
        assert not (tmp_path / "d" / "cohort.json").exists()


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        records = generate_cohort(4, cfg, seed=11)
        write_cohort(tmp_path / "data", cfg, seed=11, n_train=3, n_test=1)
        ds = load_dataset(tmp_path / "data")
        assert ds.train_ids == ["sub000", "sub001", "sub002"]
        assert ds.test_ids == ["sub003"]
        assert ds.generator == cfg
        samples = ds.samples("sub001")
        assert len(samples) == 8
        expected = split_runs(records[1])
        for got, want in zip(samples, expected):
            assert np.array_equal(got, want.features)
        assert np.array_equal(ds.target("sub003"), records[3].target_contrasts)
        assert np.array_equal(ds.retest("sub000"), records[0].retest_contrasts)

    def test_regenerated_dataset_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        write_cohort(tmp_path / "a", cfg, seed=12, n_train=1, n_test=1)
        write_cohort(tmp_path / "b", cfg, seed=12, n_train=1, n_test=1)
        for rel in ["cohort.json", "subjects/sub000/sample_3.bin", "subjects/sub001/target.bin"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestFeatureHelpers:
    def test_bank_average_shape_and_values(self):
        conn = np.arange(12.0).reshape(4, 3)  # 2M=4 channels, V=3
        feats = bank_averaged_features(conn)
        assert feats.shape == (3, 2)
        assert np.allclose(feats[:, 0], (conn[0] + conn[2]) / 2)

    def test_ensemble_mean(self):
        rng = np.random.default_rng(13)
        samples = [rng.standard_normal((4, 6)) for _ in range(8)]
        assert np.allclose(ensemble_mean_features(samples), sum(samples) / 8)
