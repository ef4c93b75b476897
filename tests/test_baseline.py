import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brainsurf.baseline import (
    EmptySet,
    ParcelRegressor,
    Parcellation,
    RankDeficientWarning,
    average_regressors,
    farthest_point_parcellation,
    fit_subject,
    group_average_baseline,
    load_baseline,
    predict_baseline,
    save_baseline,
)
from brainsurf.fileio import CorruptFile, load_checkpoint, save_checkpoint
from brainsurf.icosphere import icosphere


@pytest.fixture(scope="module")
def parcellation():
    return farthest_point_parcellation(icosphere(2), n_parcels=8, seed=0)


def stitched_targets(features, parcellation, betas):
    """Oracle generator: per-parcel exact linear maps y = X beta."""
    k = betas.shape[1]
    out = np.zeros((k, features.shape[0]))
    for p, idx in enumerate(parcellation.parcels):
        x = np.column_stack([features[idx], np.ones(idx.size)])
        out[:, idx] = betas[p] @ x.T
    return out


class TestParcellation:
    def test_partitions_all_vertices(self, parcellation):
        counts = np.zeros(162, dtype=int)
        for idx in parcellation.parcels:
            counts[idx] += 1
        assert (counts == 1).all()

    def test_every_parcel_nonempty(self, parcellation):
        assert all(idx.size > 0 for idx in parcellation.parcels)

    def test_deterministic(self):
        a = farthest_point_parcellation(icosphere(2), 8, seed=3)
        b = farthest_point_parcellation(icosphere(2), 8, seed=3)
        assert np.array_equal(a.labels, b.labels)


class TestFitSubject:
    def test_exact_linear_recovery(self, parcellation):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((162, 5))
        betas = rng.standard_normal((8, 3, 6))
        contrasts = stitched_targets(features, parcellation, betas)
        reg = fit_subject(features, contrasts, parcellation)
        assert np.abs(reg.coeffs - betas).max() < 1e-8

    def test_constant_target_absorbed_by_intercept(self, parcellation):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((162, 5))
        contrasts = np.full((2, 162), 3.25)
        reg = fit_subject(features, contrasts, parcellation)
        assert np.abs(reg.coeffs[:, :, :-1]).max() < 1e-6
        assert np.abs(reg.coeffs[:, :, -1] - 3.25).max() < 1e-6

    def test_underdetermined_parcel_flagged_but_finite(self):
        # 12 vertices, 11 parcels: most parcels have fewer vertices than
        # coefficients; the jitter keeps the solve finite.
        mesh = icosphere(0)
        parc = farthest_point_parcellation(mesh, 11, seed=1)
        rng = np.random.default_rng(3)
        features = rng.standard_normal((12, 5))
        contrasts = rng.standard_normal((2, 12))
        with pytest.warns(RankDeficientWarning):
            reg = fit_subject(features, contrasts, parc)
        assert np.isfinite(reg.coeffs).all()
        assert reg.rank_warnings

    def test_residual_orthogonality(self, parcellation):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((162, 5))
        contrasts = rng.standard_normal((3, 162))
        reg = fit_subject(features, contrasts, parcellation)
        for p, idx in enumerate(parcellation.parcels):
            x = np.column_stack([features[idx], np.ones(idx.size)])
            for c in range(3):
                resid = contrasts[c, idx] - x @ reg.coeffs[p, c]
                assert np.abs(x.T @ resid).max() < 1e-6


class TestAverageRegressors:
    def test_identical_regressors_unchanged(self, parcellation):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((162, 5))
        contrasts = rng.standard_normal((2, 162))
        reg = fit_subject(features, contrasts, parcellation)
        avg = average_regressors([reg, reg, reg])
        assert np.allclose(avg.coeffs, reg.coeffs, atol=1e-14)

    def test_two_subject_mean(self, parcellation):
        rng = np.random.default_rng(6)
        a = fit_subject(rng.standard_normal((162, 5)), rng.standard_normal((2, 162)), parcellation)
        b = fit_subject(rng.standard_normal((162, 5)), rng.standard_normal((2, 162)), parcellation)
        avg = average_regressors([a, b])
        assert np.allclose(avg.coeffs, (a.coeffs + b.coeffs) / 2, atol=1e-14)

    def test_shared_beta_plus_noise_averages_out(self, parcellation):
        # Monte Carlo: all subjects share beta*; per-subject fit noise decays
        # roughly as 1/sqrt(S) after averaging.
        rng = np.random.default_rng(7)
        beta_star = rng.standard_normal((8, 2, 6))
        fits = []
        n_subjects = 24
        for _ in range(n_subjects):
            features = rng.standard_normal((162, 5))
            clean = stitched_targets(features, parcellation, beta_star)
            noisy = clean + 0.1 * rng.standard_normal(clean.shape)
            fits.append(fit_subject(features, noisy, parcellation))
        avg = average_regressors(fits)
        per_subject_err = np.mean([np.abs(f.coeffs - beta_star).mean() for f in fits])
        avg_err = np.abs(avg.coeffs - beta_star).mean()
        assert avg_err < per_subject_err / 2.5

    @pytest.mark.parametrize("n", [1, 2, 8, 200])
    def test_running_sum_is_the_mean_of_the_stack(self, n):
        # Summed in input order, the mean has np.mean's bits over the
        # stacked coefficients ([P, K, M+1] at 8 parcels, 47 contrasts, 50 ROIs).
        rng = np.random.default_rng(n)
        labels = np.arange(162) % 8
        regs = [ParcelRegressor(rng.standard_normal((8, 47, 51)), labels.copy(), [f"w{i}"]) for i in range(n)]
        avg = average_regressors(iter(regs))
        assert np.array_equal(avg.coeffs, np.mean([r.coeffs for r in regs], axis=0))
        assert np.array_equal(avg.labels, labels) and avg.rank_warnings == [f"w{i}" for i in range(n)]

    def test_repeated_rank_warnings_kept_once_in_first_seen_order(self):
        # Each fitted sample of a rank-deficient parcel repeats its message;
        # the average records every distinct message once.
        labels = np.arange(162) % 8
        warnings = [["p3 deficient", "p1 deficient"], ["p1 deficient"], [], ["p5 deficient", "p3 deficient"]]
        regs = [ParcelRegressor(np.zeros((8, 2, 6)), labels.copy(), list(w)) for w in warnings]
        avg = average_regressors(regs + regs)
        assert avg.rank_warnings == ["p3 deficient", "p1 deficient", "p5 deficient"]

    def test_holds_one_regressor_of_an_iterable_at_a_time(self):
        # 200 level-5 regressors (10,242 labels) from a generator: the running
        # sum and the one regressor being added, about 2 regressors, not 200.
        rng = np.random.default_rng(3)
        labels = np.arange(10242) % 8
        size = rng.standard_normal((8, 47, 51)).nbytes + labels.nbytes
        regs = (ParcelRegressor(rng.standard_normal((8, 47, 51)), labels.copy()) for _ in range(200))
        tracemalloc.start()
        try:
            average_regressors(regs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            average_regressors([])

    def test_mismatched_parcellation_rejected(self, parcellation):
        rng = np.random.default_rng(8)
        reg = fit_subject(rng.standard_normal((162, 5)), rng.standard_normal((2, 162)), parcellation)
        other = farthest_point_parcellation(icosphere(2), 8, seed=99)
        reg2 = fit_subject(rng.standard_normal((162, 5)), rng.standard_normal((2, 162)), other)
        if np.array_equal(parcellation.labels, other.labels):
            pytest.skip("seeds produced identical parcellations")
        with pytest.raises(ValueError):
            average_regressors([reg, reg2])


class TestPredictBaseline:
    def test_intercept_only_constant_per_parcel(self, parcellation):
        rng = np.random.default_rng(9)
        coeffs = np.zeros((8, 2, 6))
        coeffs[:, :, -1] = rng.standard_normal((8, 2))
        reg = fit_subject(rng.standard_normal((162, 5)), np.zeros((2, 162)), parcellation)
        reg.coeffs = coeffs
        pred = predict_baseline(reg, rng.standard_normal((162, 5)), parcellation)
        for p, idx in enumerate(parcellation.parcels):
            for c in range(2):
                assert np.allclose(pred[c, idx], coeffs[p, c, -1])

    def test_single_parcel_equals_global_regression(self):
        mesh = icosphere(2)
        single = farthest_point_parcellation(mesh, 1, seed=0)
        rng = np.random.default_rng(10)
        features = rng.standard_normal((162, 5))
        contrasts = rng.standard_normal((2, 162))
        reg = fit_subject(features, contrasts, single)
        pred = predict_baseline(reg, features, single)
        x = np.column_stack([features, np.ones(162)])
        beta, *_ = np.linalg.lstsq(x, contrasts.T, rcond=None)
        assert np.abs(pred - (x @ beta).T).max() < 1e-6

    def test_exact_linear_cohort_correlation_one(self, parcellation):
        rng = np.random.default_rng(11)
        beta_star = rng.standard_normal((8, 3, 6))
        fits = []
        subject_features = []
        for _ in range(4):
            features = rng.standard_normal((162, 5))
            subject_features.append(features)
            fits.append(fit_subject(features, stitched_targets(features, parcellation, beta_star), parcellation))
        avg = average_regressors(fits)
        assert np.abs(avg.coeffs - beta_star).max() < 1e-6
        for features in subject_features:
            pred = predict_baseline(avg, features, parcellation)
            target = stitched_targets(features, parcellation, beta_star)
            for c in range(3):
                r = np.corrcoef(pred[c], target[c])[0, 1]
                assert r > 1.0 - 1e-6

    def test_affine_in_features(self, parcellation):
        rng = np.random.default_rng(12)
        reg = fit_subject(rng.standard_normal((162, 5)), rng.standard_normal((2, 162)), parcellation)
        f1 = rng.standard_normal((162, 5))
        f2 = rng.standard_normal((162, 5))
        lam = 0.35
        blended = predict_baseline(reg, lam * f1 + (1 - lam) * f2, parcellation)
        combo = lam * predict_baseline(reg, f1, parcellation) + (1 - lam) * predict_baseline(reg, f2, parcellation)
        assert np.abs(blended - combo).max() < 1e-10


class TestZeroDeviationCohort:
    def test_baseline_and_group_average_converge(self):
        # With subject deviations switched off, every target is the group map
        # plus noise; the averaged regressor and the group average should
        # predict about equally well.
        from brainsurf.connectome import (
            GeneratorConfig,
            bank_averaged_features,
            ensemble_mean_features,
            generate_cohort,
        )

        cfg = GeneratorConfig(contrast_deviation=0.0, roi_deviation=0.0)
        records = generate_cohort(8, cfg, seed=21)
        parcellation = farthest_point_parcellation(icosphere(2), 8, seed=0)

        fits, features, targets = [], [], []
        for r in records:
            feats = bank_averaged_features(ensemble_mean_features(r.samples))
            features.append(feats)
            targets.append(r.target_contrasts)
            fits.append(fit_subject(feats, r.target_contrasts, parcellation))
        avg = average_regressors(fits)
        group = group_average_baseline(targets)

        def mean_self_corr(preds):
            vals = []
            for pred, target in zip(preds, targets):
                for k in range(pred.shape[0]):
                    vals.append(np.corrcoef(pred[k], target[k])[0, 1])
            return float(np.mean(vals))

        baseline_self = mean_self_corr(
            [predict_baseline(avg, f, parcellation) for f in features]
        )
        group_self = mean_self_corr([group] * len(targets))
        assert abs(baseline_self - group_self) < 0.1


class TestGroupAverage:
    def test_identical_subjects(self):
        maps = [np.full((2, 12), 1.5)] * 3
        assert np.array_equal(group_average_baseline(maps), maps[0])

    def test_cancellation(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((2, 30))
        assert np.abs(group_average_baseline([f, -f])).max() == 0.0

    def test_empty(self):
        with pytest.raises(EmptySet):
            group_average_baseline([])


# Levels 0..2 (12..162 vertices), a parcel count that fits, any seed.
parcellations = st.integers(0, 2).flatmap(lambda level: st.tuples(
    st.just(level), st.integers(1, min(12, 10 * 4**level + 2)), st.integers(0, 2**32 - 1),
))


class TestBaselineFile:
    @settings(max_examples=30, deadline=None)
    @given(parcellations, st.integers(1, 3), st.integers(1, 3), st.lists(st.text(max_size=8), max_size=3), st.data())
    def test_roundtrip(self, tmp_path_factory, spec, k, m, rank_warnings, data):
        level, n_parcels, seed = spec
        built = farthest_point_parcellation(icosphere(level), n_parcels, seed=seed)
        coeffs = data.draw(hnp.arrays(np.float64, (n_parcels, k, m + 1), elements=st.floats(width=64)))
        path = tmp_path_factory.mktemp("baseline") / "baseline.bin"
        save_baseline(path, ParcelRegressor(coeffs=coeffs, labels=built.labels, rank_warnings=rank_warnings))
        regressor, parcellation = load_baseline(path)
        assert regressor.coeffs.tobytes() == coeffs.tobytes()
        assert regressor.rank_warnings == rank_warnings
        assert np.array_equal(regressor.labels, built.labels)
        assert np.array_equal(parcellation.labels, built.labels)
        assert len(parcellation.parcels) == len(built.parcels)
        assert all(np.array_equal(a, b) for a, b in zip(parcellation.parcels, built.parcels))

    @settings(max_examples=30, deadline=None)
    @given(parcellations)
    def test_from_labels_returns_the_built_parcellation(self, spec):
        level, n_parcels, seed = spec
        built = farthest_point_parcellation(icosphere(level), n_parcels, seed=seed)
        again = Parcellation.from_labels(built.labels, n_parcels)
        assert len(again.parcels) == n_parcels
        # Each parcel lists, in increasing order, exactly the vertices so labelled.
        for p, (idx, built_idx) in enumerate(zip(again.parcels, built.parcels)):
            assert np.array_equal(idx, built_idx)
            assert (np.diff(idx) > 0).all() and (built.labels[idx] == p).all()
        assert sum(idx.size for idx in again.parcels) == built.labels.size

    @pytest.fixture()
    def saved(self, parcellation, tmp_path):
        regressor = ParcelRegressor(coeffs=np.zeros((8, 2, 3)), labels=parcellation.labels)
        save_baseline(tmp_path / "b.bin", regressor)
        return load_checkpoint(tmp_path / "b.bin")

    def rewritten(self, tmp_path, arrays, meta):
        save_checkpoint(tmp_path / "bad.bin", arrays, meta=meta)
        return tmp_path / "bad.bin"

    def test_missing_arrays(self, saved, tmp_path):
        arrays, meta = saved
        for name in ("coeffs", "labels"):
            kept = {k: v for k, v in arrays.items() if k != name}
            with pytest.raises(CorruptFile, match="not a baseline file"):
                load_baseline(self.rewritten(tmp_path, kept, meta))

    @pytest.mark.parametrize("bad_label", [-1.0, 8.0, 2.5])
    def test_label_outside_parcels(self, saved, tmp_path, bad_label):
        arrays, meta = saved
        arrays["labels"] = arrays["labels"].copy()
        arrays["labels"][5] = bad_label
        with pytest.raises(CorruptFile, match="outside 0..7"):
            load_baseline(self.rewritten(tmp_path, arrays, meta))

    @pytest.mark.parametrize("rank_warnings", [5, None, "rank", [1], ["ok", None]])
    def test_rank_warnings_not_a_list_of_strings(self, saved, tmp_path, rank_warnings):
        arrays, meta = saved
        with pytest.raises(CorruptFile, match="rank_warnings"):
            load_baseline(self.rewritten(tmp_path, arrays, meta | {"rank_warnings": rank_warnings}))

    def test_empty_parcel(self, saved, tmp_path):
        arrays, meta = saved
        arrays["labels"] = np.where(arrays["labels"] == 3, 4, arrays["labels"])
        with pytest.raises(CorruptFile, match="parcel 3 has no vertices"):
            load_baseline(self.rewritten(tmp_path, arrays, meta))

    def test_parcel_count_disagrees(self, saved, tmp_path):
        arrays, meta = saved
        with pytest.raises(CorruptFile, match="do not fit"):
            load_baseline(self.rewritten(tmp_path, arrays, {**meta, "n_parcels": 7}))
