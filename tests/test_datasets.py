"""LIBSVM and CSV readers plus the synthetic instance generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from aaprox.datasets import (
    DatasetMatrix,
    generate_kl_instance,
    generate_logreg_instance,
    generate_nnls_instance,
    load_dense_csv,
    parse_libsvm,
    write_libsvm,
)


class TestParseLibsvm:
    def test_small_example(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        data = parse_libsvm(p)
        assert sparse.issparse(data.A)
        assert data.shape == (2, 3)
        assert_allclose(data.A.toarray(), [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert_allclose(data.b, [1.0, -1.0])

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("\n+1 1:1\n\n-1 1:2\n\n")
        data = parse_libsvm(p)
        assert data.shape == (2, 1)

    def test_zero_one_labels_are_remapped(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("0 1:1\n1 1:2\n")
        assert_allclose(parse_libsvm(p).b, [-1.0, 1.0])

    def test_other_labels_pass_through(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("3.5 1:1\n-2 1:2\n")
        assert_allclose(parse_libsvm(p).b, [3.5, -2.0])

    def test_explicit_feature_count_pads_columns(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 1:1\n")
        assert parse_libsvm(p, n_features=7).shape == (1, 7)

    def test_feature_count_too_small(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 5:1\n")
        with pytest.raises(ValueError, match="n_features"):
            parse_libsvm(p, n_features=3)

    def test_label_only_rows(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 1:4\n-1\n")
        data = parse_libsvm(p)
        assert data.shape == (2, 1)
        assert data.A.toarray()[1, 0] == 0.0

    @pytest.mark.parametrize("content,fragment", [
        ("abc 1:1\n", "line 1: bad label"),
        ("1 1:1\n-1 foo\n", "line 2: bad feature token"),
        ("1 1:1\n1 2:xyz\n", "line 2: bad feature token"),
        ("1 0:1\n", "1-based"),
        ("1 2:1 2:3\n", "does not increase"),
        ("1 3:1 2:3\n", "does not increase"),
    ])
    def test_malformed_input_names_the_line(self, tmp_path, content, fragment):
        p = tmp_path / "a.txt"
        p.write_text(content)
        with pytest.raises(ValueError, match=fragment):
            parse_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            parse_libsvm(p)

    def test_writer_gives_an_empty_row_its_label_alone(self, tmp_path):
        data = DatasetMatrix(sparse.csr_matrix([[0.0, 2.5], [0.0, 0.0]]),
                             np.array([3.0, -2.0]))
        p = tmp_path / "rt.txt"
        write_libsvm(data, p)
        assert p.read_text() == "3 2:2.5\n-2\n"
        back = parse_libsvm(p, n_features=2)
        assert_allclose(back.A.toarray(), data.A.toarray(), rtol=0)
        assert_allclose(back.b, data.b, rtol=0)

    def test_round_trip_through_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        A = sparse.random(8, 5, density=0.4, random_state=1, format="csr")
        b = rng.standard_normal(8) + 2.0  # keep labels away from {0, 1}
        p = tmp_path / "rt.txt"
        write_libsvm(DatasetMatrix(A, b), p)
        back = parse_libsvm(p, n_features=5)
        assert_allclose(back.A.toarray(), A.toarray(), rtol=0)
        assert_allclose(back.b, b, rtol=0)


class TestLoadDenseCsv:
    def test_last_column_is_the_response(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = load_dense_csv(p)
        assert_allclose(data.A, [[1.0, 2.0], [4.0, 5.0]])
        assert_allclose(data.b, [3.0, 6.0])

    def test_header_row_is_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,y\n1.0,2.0,3.0\n")
        data = load_dense_csv(p, has_header=True)
        assert data.shape == (1, 2)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="feature column"):
            load_dense_csv(p)

    def test_single_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n")
        data = load_dense_csv(p)
        assert data.A.shape == (1, 1)


class TestGenerators:
    @pytest.mark.parametrize("gen", [generate_logreg_instance,
                                     generate_nnls_instance,
                                     generate_kl_instance])
    def test_deterministic_in_the_seed(self, gen):
        a = gen(30, 10, seed=7)
        b = gen(30, 10, seed=7)
        c = gen(30, 10, seed=8)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
        assert not np.array_equal(a.A, c.A)

    def test_logreg_shapes_and_labels(self):
        data = generate_logreg_instance(50, 20, seed=0)
        assert data.shape == (50, 20)
        assert set(np.unique(data.b)) == {-1.0, 1.0}

    def test_logreg_condition_number(self):
        for cond in (1e2, 1e5):
            data = generate_logreg_instance(60, 25, seed=1, cond=cond)
            s = np.linalg.svd(data.A, compute_uv=False)
            assert s[0] / s[-1] == pytest.approx(cond, rel=1e-6)

    def test_logreg_keeps_both_classes_and_is_not_separable(self):
        data = generate_logreg_instance(400, 30, seed=2)
        frac = np.mean(data.b == 1.0)
        assert 0.1 < frac < 0.9
        # label flips leave no perfect linear separator: the least-squares
        # score fit must misclassify at least one point
        w, *_ = np.linalg.lstsq(data.A, data.b, rcond=None)
        assert np.any(np.sign(data.A @ w) != data.b)

    def test_nnls_shapes_and_noise_level(self):
        data = generate_nnls_instance(80, 30, seed=3)
        assert data.shape == (80, 30)
        x, *_ = np.linalg.lstsq(data.A, data.b, rcond=None)
        resid = data.A @ x - data.b
        assert np.linalg.norm(resid) <= 0.05 * np.linalg.norm(data.b)

    def test_kl_data_is_nonnegative_and_consistent(self):
        data = generate_kl_instance(40, 12, seed=4, density=0.5, noise=0.0)
        assert np.all(data.A >= 0.0) and np.all(data.A < 1.0)
        assert np.all(data.b > 0.0)
        # zero noise: b must lie exactly in the cone A x with x sparse
        x, *_ = np.linalg.lstsq(data.A, data.b, rcond=None)
        assert_allclose(data.A @ x, data.b, atol=1e-10)

    def test_kl_density_controls_the_support(self):
        # density acts through the planted vector; denser planting raises
        # the typical response because more coordinates contribute
        lo = generate_kl_instance(200, 40, seed=5, density=0.1, noise=0.0)
        hi = generate_kl_instance(200, 40, seed=5, density=1.0, noise=0.0)
        assert hi.b.mean() > 2.0 * lo.b.mean()

    def test_kl_noise_perturbs_multiplicatively(self):
        clean = generate_kl_instance(100, 20, seed=6, noise=0.0)
        noisy = generate_kl_instance(100, 20, seed=6, noise=0.1)
        ratios = noisy.b / clean.b
        assert np.all(ratios > 0.0)
        assert 0.02 < np.std(np.log(ratios)) < 0.3
