import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from brainsurf import connectome
from brainsurf.connectome import (
    GeneratorConfig,
    ZeroVariance,
    bank_averaged_features,
    ensemble_mean_features,
    generate_cohort,
    load_dataset,
    write_cohort,
)
from brainsurf.evaluate import correlation_matrix
from brainsurf.fileio import ConfigError, CorruptFile, read_tensor, write_tensor
import oracles
from oracles import connectome as oracle_connectome
from oracles import half_run_connectomes, pearson


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


def half_connectome(weights, roi, noise_std=0.0, seed=0):
    """The generator's connectome of one half-run, drawn from a seeded stream."""
    return connectome._half_run_connectome(np.random.default_rng(seed), weights, roi, noise_std)


class TestComputeConnectome:
    """Each half-run's connectome as the generator draws it."""

    def test_vertex_equal_to_roi_gives_one(self):
        rng = np.random.default_rng(3)
        roi = rng.standard_normal((5, 40))
        weights = np.zeros((5, 7))
        weights[0] = 2.5  # every vertex is a scaled copy of ROI 0
        half = half_connectome(weights, roi)
        assert np.allclose(half[0], 1.0)
        assert np.allclose(half[5], 1.0)  # the right bank

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        half = half_connectome(rng.standard_normal((5, 162)), rng.standard_normal((5, 600)), noise_std=1.0)
        assert half.shape == (10, 162)

    def test_independent_noise_near_zero(self):
        # Monte Carlo over seeds: pure noise at 600 timepoints per half gives
        # |r| far below any structural signal.
        means = []
        for seed in range(5):
            roi = np.random.default_rng(seed).standard_normal((4, 600))
            means.append(np.abs(half_connectome(np.zeros((4, 30)), roi, noise_std=1.0, seed=seed)).mean())
        assert np.mean(means) < 0.1

    def test_range(self):
        rng = np.random.default_rng(5)
        for m, n in ((3, 50), (6, 4)):
            half = half_connectome(rng.standard_normal((m, 20)), rng.standard_normal((m, n)), noise_std=0.3)
            assert half.min() >= -1.0 and half.max() <= 1.0

    def test_zero_variance_names_row(self):
        # A vertex with zero weights and no noise is a constant series.
        rng = np.random.default_rng(6)
        weights = rng.standard_normal((2, 4))
        weights[:, 2] = 0.0
        with pytest.raises(ZeroVariance, match="vertex row 2"):
            half_connectome(weights, rng.standard_normal((2, 30)))

    def test_constant_roi_names_row(self):
        rng = np.random.default_rng(7)
        roi = rng.standard_normal((3, 30))
        roi[1] = 4.0
        with pytest.raises(ZeroVariance, match="roi row 1"):
            half_connectome(rng.standard_normal((3, 4)), roi, noise_std=1.0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(3, 40), v=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_noiseless_equals_explicit_pearson(self, m, n, v, seed):
        # Without noise the statistics are exact: the result is the Pearson
        # connectome of the mixed series, for M < n-1 and for M >= n-1.
        rng = np.random.default_rng(seed)
        roi = rng.standard_normal((m, n))
        weights = rng.standard_normal((m, v))
        mixed = weights.T @ roi
        got = half_connectome(weights, roi, seed=seed)
        assert np.abs(got - oracle_connectome(mixed, mixed, roi)).max() <= 1e-12


class TestHalfRunDistribution:
    """The drawn connectome against the explicit simulation of the noisy banks."""

    @pytest.mark.parametrize("m, n", [(5, 40), (5, 4)], ids=["M<n-1", "M>=n-1"])
    def test_matches_explicit_banks(self, m, n):
        # 20,000 seeded draws of each half of one run, two vertices: a
        # two-sample KS test per connectome entry.  Dropping the chi-square
        # term, or drawing it with the wrong degrees of freedom, fails here.
        draws, v, noise_std = 20_000, 2, 0.7
        rng = np.random.default_rng(20)
        roi = rng.standard_normal((m, 2 * n))
        weights = 0.5 * rng.standard_normal((m, v))
        # The explicit banks of every draw, stacked as the vertex rows of one run.
        mixed = np.tile(weights.T @ roi, (draws, 1))
        banks = [mixed + noise_std * rng.standard_normal(mixed.shape) for _ in range(2)]
        explicit = half_run_connectomes(*banks, roi)
        del mixed, banks
        tiled = np.tile(weights, draws)  # one independent vertex per draw
        p_values = []
        for seg, want in zip((slice(0, n), slice(n, 2 * n)), explicit):
            got = connectome._half_run_connectome(rng, tiled, roi[:, seg], noise_std)
            got, want = (x.reshape(2 * m, draws, v) for x in (got, want))
            p_values += [
                ks_2samp(got[c, :, j], want[c, :, j]).pvalue for c in range(2 * m) for j in range(v)
            ]
        assert min(p_values) > 1e-3


class TestBlockedDraws:
    """The generator's vectorized draw steps against their one-item-at-a-time
    references in ``oracles``."""

    @settings(max_examples=120, deadline=None)
    @given(
        n_series=st.integers(1, 60),
        t=st.integers(4, 2000),
        coeff=st.one_of(st.sampled_from([-0.999, 0.0, 0.999]), st.floats(-0.999, 0.999)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_series=1, t=4, coeff=0.999, seed=0)  # one partial block
    @example(n_series=3, t=connectome._AR1_BLOCK + 1, coeff=-0.999, seed=1)  # exactly one block
    @example(n_series=2, t=2 * connectome._AR1_BLOCK + 1, coeff=0.5, seed=2)  # whole blocks only
    @example(n_series=60, t=2000, coeff=0.0, seed=3)  # a partial last block
    def test_blocked_ar1_matches_loop(self, n_series, t, coeff, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = connectome._ar1(rng, n_series, t, coeff)
        want = oracles.ar1(ref_rng, n_series, t, coeff)
        assert np.abs(got - want).max() <= 1e-13
        if coeff == 0.0:
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    @example(m=8, n=5, seed=0)  # n - 1 < M
    def test_span_coordinates_from_r_alone(self, m, n, seed):
        z = connectome.standardized_rows(np.random.default_rng(seed).standard_normal((m, n)), "roi")
        got = connectome._span_coordinates(z)
        assert got.shape == (m, min(m, n - 1))
        assert np.abs(got - oracles.span_coordinates(z)).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 6), m=st.integers(1, 6), n_candidates=st.integers(1, 40), s=st.integers(0, 10),
        nonlinear_mix=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    @example(k=4, m=5, n_candidates=32, s=0, nonlinear_mix=0.2, seed=0)
    def test_batched_latent_pick_matches_loop(self, k, m, n_candidates, s, nonlinear_mix, seed):
        rng = np.random.default_rng(seed)
        contrast_mix = rng.standard_normal((k, 2 * m, 2 * m)) / np.sqrt(2 * m)
        accepted = connectome._contrast_coeffs(contrast_mix, rng.standard_normal((s, m)), nonlinear_mix)
        candidates = rng.standard_normal((n_candidates, m))
        coeffs = connectome._contrast_coeffs(contrast_mix, candidates, nonlinear_mix)
        for c, z in enumerate(candidates):
            want = oracles.contrast_coeff(contrast_mix, z, nonlinear_mix)
            # Unit-normalizing a coefficient vector whose entries cancel
            # amplifies their rounding: the bound scales per contrast with
            # that cancellation, ||mix| |feats|| / ||mix feats||, which is 1
            # where nothing cancels.
            feats = np.concatenate([np.tanh(z), nonlinear_mix * (z**2 - 1.0)])
            gain = np.linalg.norm(np.abs(contrast_mix) @ np.abs(feats), axis=1) / np.linalg.norm(
                contrast_mix @ feats, axis=1
            )
            assert (np.abs(coeffs[:, :, c] - want).max(axis=1) <= 1e-14 * gain).all()
        picked = connectome._least_aligned(coeffs, accepted.transpose(0, 2, 1))
        # At m=1 with no nonlinear mix every candidate has one direction up
        # to sign, so all scores tie up to rounding and either member of the
        # tie is a least-aligned pick: the pick's oracle score must be within
        # 4 ulps of the oracle's minimum.
        scores = oracles.alignment_scores(list(coeffs.transpose(2, 0, 1)), accepted.transpose(2, 0, 1))
        assert scores[picked] <= min(scores) + 4 * np.spacing(min(scores))

    def test_cohort_picks_match_loop(self, monkeypatch):
        # Every pick of a generated cohort, including the first subject's
        # against an empty stack, is the one the per-candidate loop makes.
        picks = []
        least_aligned = connectome._least_aligned

        def recording(coeffs, accepted):
            picks.append((least_aligned(coeffs, accepted), coeffs, accepted.transpose(1, 0, 2).copy()))
            return picks[-1][0]

        monkeypatch.setattr(connectome, "_least_aligned", recording)
        generate_cohort(6, tiny_config(), seed=14)
        assert [a.shape[0] for _, _, a in picks] == list(range(6))
        for picked, coeffs, accepted in picks:
            assert picked == oracles.least_aligned(list(coeffs.transpose(2, 0, 1)), accepted)


def recorded_halves(monkeypatch):
    """Patch the generator so that every AR(1) run it draws and every half
    it turns into a connectome (weights, ROI series, result) is recorded."""
    runs, halves = [], []
    ar1, half_run = connectome._ar1, connectome._half_run_connectome

    def recording_ar1(*args):
        runs.append(ar1(*args))
        return runs[-1]

    def recording_half(rng, weights, roi, noise_std):
        halves.append((weights, roi, half_run(rng, weights, roi, noise_std)))
        return halves[-1][2]

    monkeypatch.setattr(connectome, "_ar1", recording_ar1)
    monkeypatch.setattr(connectome, "_half_run_connectome", recording_half)
    return runs, halves


class TestSplitRuns:
    def test_eight_samples_with_halved_segments(self, monkeypatch):
        cfg = tiny_config(t_per_run=1200)
        _, halves = recorded_halves(monkeypatch)
        record = generate_cohort(2, cfg, seed=0)[0]
        samples = record.samples
        assert len(samples) == 8
        assert all(s.shape == (2 * cfg.n_rois, cfg.n_vertices) for s in samples)
        assert [roi.shape for _, roi, _ in halves[:8]] == [(cfg.n_rois, 600)] * 8

    def test_desk_scale_halving(self):
        cfg = tiny_config(t_per_run=100)
        record = generate_cohort(2, cfg, seed=1)[0]
        assert len(record.samples) == 8  # segments of 50 are still valid

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError, match="t_per_run"):
            generate_cohort(2, tiny_config(t_per_run=39), seed=2)

    def test_segments_partition_run(self, monkeypatch):
        # Each run's ROI series is cut into two contiguous halves that cover
        # it, and each half's connectome is that of its own timepoints only.
        runs, halves = recorded_halves(monkeypatch)
        record = generate_cohort(2, tiny_config(timeseries_noise_std=0.0), seed=3)[0]
        for i, run in enumerate(runs[:4]):
            first, second = halves[2 * i][1], halves[2 * i + 1][1]
            assert np.array_equal(np.concatenate([first, second], axis=1), run)
        for sample, (weights, roi, _) in zip(record.samples, halves, strict=False):
            mixed = weights.T @ roi
            assert np.abs(sample - oracle_connectome(mixed, mixed, roi)).max() <= 1e-12

    def test_segment_connectomes_stable(self):
        # With the default generator noise, the 8 variants of one subject
        # stay strongly correlated with each other.
        record = generate_cohort(2, GeneratorConfig(), seed=4)[0]
        feats = [s.ravel() for s in record.samples]
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
                assert np.array_equal(sample_a, sample_b)

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

    def test_peak_below_one_noise_bank(self):
        # No [V, T] array is ever built: a level-4 cohort at 1,200 timepoints
        # peaks below one bank of 2,562 x 1,200 float64 (24.6 MB).
        cfg = GeneratorConfig(mesh_level=4, t_per_run=1200)
        tracemalloc.start()
        try:
            generate_cohort(2, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.n_vertices * cfg.t_per_run * 8

    def test_needs_two_subjects(self):
        with pytest.raises(ValueError):
            generate_cohort(1, tiny_config(), seed=0)

    def test_per_contrast_noise_levels(self):
        cfg = tiny_config(contrast_noise_std=(0.0, 0.5))
        record = generate_cohort(2, cfg, seed=10)[0]
        diff = record.target_contrasts - record.retest_contrasts
        assert np.abs(diff[0]).max() == 0.0
        assert np.abs(diff[1]).max() > 0.0


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
        for got, want in zip(samples, records[1].samples, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(ds.target("sub003"), records[3].target_contrasts)
        assert np.array_equal(ds.retest("sub000"), records[0].retest_contrasts)

    def test_samples_read_on_each_access(self, tmp_path):
        cfg = tiny_config()
        records = generate_cohort(3, cfg, seed=11)
        write_cohort(tmp_path / "data", cfg, seed=11, n_train=2, n_test=1)
        ds = load_dataset(tmp_path / "data")
        files = ds.samples("sub001")
        assert len(files) == 8
        assert all(np.array_equal(a, b) for a, b in zip(files, records[1].samples, strict=True))
        path = tmp_path / "data" / "subjects" / "sub001" / "sample_7.bin"
        assert np.array_equal(files[-1], read_tensor(path))
        with pytest.raises(IndexError):
            files[8]
        assert np.array_equal(files[-8], files[0])
        # Nothing is kept: a rewritten file is read as it is now.
        path = tmp_path / "data" / "subjects" / "sub001" / "sample_2.bin"
        write_tensor(path, np.zeros_like(files[2]))
        assert not files[2].any()

    def test_samples_checks_every_file_before_returning(self, tmp_path):
        cfg = tiny_config()
        write_cohort(tmp_path / "data", cfg, seed=11, n_train=2, n_test=1)
        ds = load_dataset(tmp_path / "data")
        path = tmp_path / "data" / "subjects" / "sub000" / "sample_5.bin"
        write_tensor(path, np.ones((3, cfg.n_vertices)))
        with pytest.raises(CorruptFile, match="sample_5.bin: shape"):
            ds.samples("sub000")
        assert len(ds.samples("sub001")) == 8  # another subject's files are not this one's
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptFile, match="payload holds"):
            ds.samples("sub000")

    def test_write_error_stops_generation(self, monkeypatch, tmp_path):
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
        assert not (tmp_path / "d" / "cohort.json").exists()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "d")

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
