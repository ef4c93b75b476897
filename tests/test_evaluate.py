import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainsurf.connectome import ZeroVariance
from brainsurf.evaluate import (
    CorrMatrix,
    SubjectMismatch,
    ablation_report,
    correlation_matrix,
    diag_gap,
    reliable_contrasts,
    row_zscore,
    save_corr_matrix_txt,
    subject_id_accuracy,
    write_report_csv,
    write_report_json,
)
import oracles
from oracles import pearson


class TestCorrelationMatrix:
    def test_perfect_predictions_unit_diagonal(self):
        rng = np.random.default_rng(0)
        maps = rng.standard_normal((4, 50))
        m = correlation_matrix(maps.copy(), maps, 0)
        assert np.allclose(np.diag(m.matrix), 1.0, atol=1e-12)

    def test_negated_predictions(self):
        rng = np.random.default_rng(1)
        maps = rng.standard_normal((3, 40))
        m = correlation_matrix(-maps, maps, 0)
        assert np.allclose(np.diag(m.matrix), -1.0, atol=1e-12)

    def test_matches_scalar_pearson(self):
        # Oracle: recompute every entry with the scalar correlation.
        rng = np.random.default_rng(2)
        preds = rng.standard_normal((4, 30))
        targets = rng.standard_normal((4, 30))
        m = correlation_matrix(preds, targets, 0).matrix
        for r in range(4):
            for c in range(4):
                assert abs(m[r, c] - pearson(targets[r], preds[c])) < 1e-12

    def test_row_is_observed_column_is_predicted(self):
        rng = np.random.default_rng(3)
        targets = rng.standard_normal((3, 25))
        preds = rng.standard_normal((3, 25))
        preds[1] = targets[0]  # prediction 1 reproduces observed map 0
        m = correlation_matrix(preds, targets, 0).matrix
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        maps = np.ones((3, 10))
        with pytest.raises(ZeroVariance):
            correlation_matrix(maps, maps, 0)

    def test_constant_rows_detected_exactly(self):
        # The mean of 162 copies of 0.1 is not exactly 0.1: constancy must not
        # rest on the centred norm being 0.
        rng = np.random.default_rng(5)
        maps = rng.standard_normal((3, 162))
        flat = maps.copy()
        flat[1] = 0.1
        with pytest.raises(ZeroVariance):
            correlation_matrix(maps, flat, 0)
        m = correlation_matrix(flat, maps, 0).matrix
        assert np.isnan(m[:, 1]).all() and np.isfinite(np.delete(m, 1, axis=1)).all()
        assert np.isnan(subject_id_accuracy(CorrMatrix(0, m)))

    def test_affine_rescaling_of_column_invariant(self):
        rng = np.random.default_rng(4)
        preds = rng.standard_normal((4, 30))
        targets = rng.standard_normal((4, 30))
        base = correlation_matrix(preds, targets, 0).matrix
        scaled = preds.copy()
        scaled[2] = 5.0 * scaled[2] + 3.0
        assert np.allclose(correlation_matrix(scaled, targets, 0).matrix, base, atol=1e-12)


class TestSubjectId:
    def test_identity_dominant(self):
        m = CorrMatrix(0, np.eye(4) + 0.1)
        assert subject_id_accuracy(m) == 1.0

    def test_one_row_off_diagonal(self):
        mat = np.eye(4)
        mat[0, 0] = 0.2
        mat[0, 3] = 0.9
        assert subject_id_accuracy(CorrMatrix(0, mat)) == 0.75

    def test_tie_counts_as_failure(self):
        mat = np.array([[0.5, 0.5], [0.1, 0.6]])
        assert subject_id_accuracy(CorrMatrix(0, mat)) == 0.5

    def test_row_convention(self):
        # Rows are observed maps, columns predictions: row 1 peaks off the
        # diagonal (a miss), while every column peaks on it.
        mat = np.array([[1.0, 0.0, 0.0], [0.5, 0.2, 0.0], [0.0, 0.0, 1.0]])
        assert subject_id_accuracy(CorrMatrix(0, mat)) == 2.0 / 3.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        mat = rng.uniform(size=(5, 5))
        acc = subject_id_accuracy(CorrMatrix(0, mat))
        perm = rng.permutation(5)
        permuted = mat[np.ix_(perm, perm)]
        assert subject_id_accuracy(CorrMatrix(0, permuted)) == acc

    # Few distinct values, so that rows tie; NaN too, which makes the whole
    # matrix's accuracy NaN.
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 7))
    def test_matches_per_row_loop(self, data, n):
        values = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0) | st.just(np.nan)
        mat = data.draw(arrays(np.float64, (n, n), elements=values))
        got = subject_id_accuracy(CorrMatrix(0, mat))
        want = oracles.subject_id_accuracy(mat)
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_better_than_chance_for_generated_fingerprints(self):
        from brainsurf.connectome import GeneratorConfig, generate_cohort

        records = generate_cohort(8, GeneratorConfig(), seed=77)
        test = np.stack([r.target_contrasts[0] for r in records])
        retest = np.stack([r.retest_contrasts[0] for r in records])
        acc = subject_id_accuracy(correlation_matrix(retest, test, 0))
        assert acc > 1.0 / 8.0


class TestDiagGap:
    def test_all_equal_matrix(self):
        assert diag_gap(CorrMatrix(0, np.full((4, 4), 0.3))) == 0.0

    def test_identity(self):
        assert diag_gap(CorrMatrix(0, np.eye(4))) == 1.0

    def test_constant_diag_and_offdiag(self):
        mat = np.full((5, 5), 0.2)
        np.fill_diagonal(mat, 0.9)
        assert abs(diag_gap(CorrMatrix(0, mat)) - 0.7) < 1e-15


class TestReliableContrasts:
    def test_equal_reliability_all_false(self):
        rng = np.random.default_rng(6)
        test = rng.standard_normal((5, 3, 40))
        mask = reliable_contrasts(test, test.copy())
        # Every contrast's mean equals the grand mean; strict > fails.
        assert not mask.any()

    def test_noise_free_contrast_selected(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((5, 3, 40))
        retest = base.copy()
        retest[:, 1:, :] += 2.0 * rng.standard_normal((5, 2, 40))
        mask = reliable_contrasts(base, retest)
        assert mask[0]
        assert not mask[1] and not mask[2]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"reliable_contrasts: test \(2, 3, 4\), retest \(2, 3, 5\)"):
            reliable_contrasts(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)))


class TestAblationReport:
    def make_inputs(self, seed=8, s=4, k=3, v=30):
        rng = np.random.default_rng(seed)
        targets = rng.standard_normal((s, k, v))
        retest = targets + 0.2 * rng.standard_normal((s, k, v))
        variants = {
            "model": targets + 0.4 * rng.standard_normal((s, k, v)),
            "baseline": rng.standard_normal((s, k, v)),
        }
        return variants, targets, retest

    def test_row_per_variant_per_contrast_plus_retest(self):
        variants, targets, retest = self.make_inputs()
        report = ablation_report(variants, targets, retest)
        assert len(report.rows) == 3 * 3  # (model, baseline, retest) x contrasts
        assert {r.variant for r in report.rows} == {"model", "baseline", "retest"}

    def test_noise_free_retest_row(self):
        rng = np.random.default_rng(9)
        targets = rng.standard_normal((4, 2, 30))
        report = ablation_report({"m": targets.copy()}, targets, targets.copy())
        retest_rows = [r for r in report.rows if r.variant == "retest"]
        for row in retest_rows:
            assert row.self_corr_mean == pytest.approx(1.0, abs=1e-12)
            m = correlation_matrix(targets[:, row.contrast], targets[:, row.contrast], 0)
            off = (m.matrix.sum() - np.trace(m.matrix)) / (4 * 3)
            assert row.diag_gap == pytest.approx(1.0 - off, abs=1e-12)

    def test_single_variant(self):
        variants, targets, retest = self.make_inputs()
        report = ablation_report({"only": variants["model"]}, targets, retest)
        assert {r.variant for r in report.rows} == {"only", "retest"}

    def test_subject_mismatch(self):
        variants, targets, retest = self.make_inputs()
        bad = {"model": variants["model"][:3]}
        with pytest.raises(SubjectMismatch):
            ablation_report(bad, targets, retest)

    def test_aggregates_cover_all_variants(self):
        variants, targets, retest = self.make_inputs()
        report = ablation_report(variants, targets, retest)
        assert set(report.aggregates) == {"model", "baseline", "retest"}
        for metrics in report.aggregates.values():
            assert set(metrics) == {"self_corr_mean", "self_corr_sd", "diag_gap", "id_accuracy"}
            assert all(np.isfinite(v) for v in metrics.values())


class TestReportFiles:
    def test_csv_and_json(self, tmp_path):
        rng = np.random.default_rng(10)
        targets = rng.standard_normal((4, 2, 30))
        retest = targets + 0.1 * rng.standard_normal(targets.shape)
        report = ablation_report({"m": targets + 0.3 * rng.standard_normal(targets.shape)}, targets, retest)
        write_report_csv(report, tmp_path / "report.csv")
        write_report_json(report, tmp_path / "report.json")

        with open(tmp_path / "report.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(report.rows)
        assert rows[0]["variant"] == "m"

        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["reliable_mask"]) == 2
        assert "aggregates" in payload

    def test_matrix_txt_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        maps = rng.standard_normal((4, 30))
        m = correlation_matrix(maps, maps + 0.1 * rng.standard_normal(maps.shape), 0)
        save_corr_matrix_txt(m, tmp_path / "m.txt")
        loaded = np.loadtxt(tmp_path / "m.txt")
        assert np.allclose(loaded, m.matrix, atol=1e-9)

    def test_row_zscore_zero_mean_unit_sd(self):
        rng = np.random.default_rng(12)
        z = row_zscore(rng.standard_normal((4, 20)))
        assert np.abs(z.mean(axis=1)).max() < 1e-12
        assert np.abs(z.std(axis=1) - 1.0).max() < 1e-12
