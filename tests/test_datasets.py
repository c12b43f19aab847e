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



class TestParseLibsvmRowChecks:
    """Every row check keeps its message and its line, whichever part of
    the reader meets the row first."""

    @pytest.mark.parametrize("content,message", [
        ("1 1:1:2\n", "line 1: bad feature token '1:1:2'"),
        ("1 1:\n", "line 1: bad feature token '1:'"),
        ("1 :3\n", "line 1: bad feature token ':3'"),
        ("1:0 2:1\n", "line 1: bad label '1:0'"),
        # as many tokens and colons as a good line, in the wrong places
        ("1 1:2:3 4\n", "line 1: bad feature token '1:2:3'"),
        ("1:2 3 4:5\n", "line 1: bad label '1:2'"),
        ("1 1.5:2\n", "line 1: bad feature token '1.5:2'"),
        ("1 1e1:2\n", "line 1: bad feature token '1e1:2'"),
        ("1 1:1\n1 2:1e\n", "line 2: bad feature token '2:1e'"),
        ("1 1:1\n1 2:1.2.3\n", "line 2: bad feature token '2:1.2.3'"),
        # numpy reads this value, float() does not
        ("1 1:nan(1)\n", "line 1: bad feature token '1:nan(1)'"),
        ("1 1:1\n-1 1:2 0:1\n", "line 2: index 0 is not 1-based"),
        ("\n\n1 1:1\n\n\nabc 1:1\n", "line 6: bad label 'abc'"),
        # the first offending line wins, whatever check it fails
        ("1 1:x\n1 3:1 2:1\n", "line 1: bad feature token '1:x'"),
        ("1 3:1 2:1\n1 1:x\n", "line 1: index 2 does not increase"),
    ])
    def test_message_and_line(self, tmp_path, content, message):
        p = tmp_path / "a.txt"
        p.write_text(content)
        with pytest.raises(ValueError) as info:
            parse_libsvm(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("content,dense,labels", [
        ("1 +1:2\n", [[2.0]], [1.0]),
        ("1 1:1_0\n", [[10.0]], [1.0]),
        ("2 +1:2 3:1_0\n-2 2:0.5\n", [[2.0, 0.0, 10.0], [0.0, 0.5, 0.0]],
         [2.0, -2.0]),
        ("nan 01:inf\n", [[np.inf]], [np.nan]),
    ])
    def test_rows_int_and_float_accept(self, tmp_path, content, dense,
                                        labels):
        p = tmp_path / "a.txt"
        p.write_text(content)
        data = parse_libsvm(p)
        assert np.array_equal(data.A.toarray(), dense)
        assert np.array_equal(data.b, labels, equal_nan=True)

    def test_an_index_past_15_digits_is_exact(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 9007199254740993:1\n")
        A = parse_libsvm(p).A
        assert A.shape == (1, 9007199254740993)
        assert A.indices.tolist() == [9007199254740992]

    def test_only_the_flagged_lines_are_read_again(self, tmp_path,
                                                  monkeypatch):
        from aaprox import datasets

        lines = ["%d %d:0.5 %d:1.5" % (i % 2, i + 1, i + 3)
                 for i in range(50)]
        lines[16] = "nan 17:0.5 19:1.5"
        lines[30] = "1 +31:0.5 33:1_5"
        p = tmp_path / "a.txt"
        p.write_text("\n".join(lines) + "\n")
        seen = []
        original = datasets._check_row

        def check_row(line, lineno):
            seen.append(lineno)
            return original(line, lineno)

        monkeypatch.setattr(datasets, "_check_row", check_row)
        data = parse_libsvm(p)
        assert seen == [17, 31]
        assert np.isnan(data.b[16]) and data.A[30, 32] == 15.0

    def test_lines_the_numpy_pass_leaves_to_the_checker(self):
        # each check is one row of the table, so it is tested whatever the
        # installed numpy reads on its own
        from aaprox.datasets import _scan_lines

        table = [("1 1:2 3:4", False), ("", False), (" \t", False),
                 ("-1", False), ("1 007:2", False),
                 ("1:2 3 4:5", True),       # colon in the label
                 ("1 1:2:3 4", True),       # two colons in one token
                 ("1 :3 4:1.2.3", True),    # empty index
                 ("1 1: 2:1.2.3", True),    # empty value
                 ("1 1e1:2", True), ("1 +1:2", True),
                 ("1 1234567890123456:2", True),  # 16 digits
                 ("1 1:2 3", True), ("nan 1:2", True), ("1\x0b1:2", True),
                 ("1 1:", True)]           # a colon that ends the text
        raw = "\n".join(line for line, _ in table).encode()
        newline = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        _, _, odd = _scan_lines(raw, newline)
        assert odd.tolist() == [flag for _, flag in table]

    def test_numbers_read_must_match_the_count(self):
        from aaprox.datasets import _read_numbers

        assert _read_numbers(b"1 2 3", 3).tolist() == [1.0, 2.0, 3.0]
        assert _read_numbers(b"1 2 3", 4) is None
        assert _read_numbers(b"1 2 3x", 3) is None
        assert _read_numbers(b"  \n ", 0).size == 0

    def test_crlf_and_tab_separated(self, tmp_path):
        expected = [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        for content in (b"+1 1:0.5 3:2\r\n-1 2:1\r\n",
                        b"+1\t1:0.5\t3:2\n-1\t2:1\n"):
            p = tmp_path / "a.txt"
            p.write_bytes(content)
            data = parse_libsvm(p)
            assert np.array_equal(data.A.toarray(), expected)
            assert np.array_equal(data.b, [1.0, -1.0])

    def test_round_trip_is_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = sparse.random(500, 300, density=0.05, random_state=4).toarray()
        dense[rng.choice(500, size=40, replace=False)] = 0.0  # empty rows
        A = sparse.csr_matrix(dense)
        A.data[:4] = [-0.0, 5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308]
        b = rng.standard_normal(500) + 2.0
        p = tmp_path / "rt.txt"
        write_libsvm(DatasetMatrix(A, b), p)
        back = parse_libsvm(p, n_features=300)
        assert back.shape == A.shape
        assert np.array_equal(back.A.data.view(np.int64),
                              A.data.view(np.int64))
        assert np.array_equal(back.A.indices, A.indices)
        assert np.array_equal(back.A.indptr, A.indptr)
        assert np.array_equal(back.b.view(np.int64), b.view(np.int64))

    def test_equals_the_row_checker_on_every_line(self, tmp_path):
        # lines the numpy pass takes mixed with lines only the checker
        # reads; the checker run on every line is the reference
        from aaprox.datasets import _check_row

        rng = np.random.default_rng(6)
        spellings = [
            lambda j, v: "%d:%s" % (j, v),
            lambda j, v: "+%d:%s" % (j, v),
            lambda j, v: "000%d:%s" % (j, v),
            lambda j, v: "%d:%s" % (j, v.replace(".", "_0.", 1)
                                    if "." in v and "e" not in v else v),
        ]
        lines = []
        for _ in range(300):
            cols = np.sort(rng.choice(40, size=rng.integers(0, 6),
                                      replace=False)) + 1
            spell = spellings[rng.integers(len(spellings))]
            label = ["%.17g" % rng.standard_normal(), "nan", "inf"][
                rng.integers(3) if rng.random() < 0.1 else 0]
            sep = [" ", "\t", "\x0b", " \xa0"][
                rng.integers(4) if rng.random() < 0.2 else 0]
            lines.append(sep.join([label] + [
                spell(j, "%.17g" % rng.standard_normal()) for j in cols]))
            if rng.random() < 0.05:
                lines.append(" ")
        text = "\n".join(lines) + "\n"
        p = tmp_path / "mixed.txt"
        p.write_text(text)
        got = parse_libsvm(p, n_features=40)

        rows = [row for n, line in enumerate(text.split("\n"), start=1)
                if (row := _check_row(line, n)) is not None]
        counts = [len(row[1]) for row in rows]
        assert np.array_equal(got.A.indptr, np.cumsum([0] + counts))
        assert np.array_equal(got.A.indices,
                              [j - 1 for row in rows for j in row[1]])
        assert np.array_equal(got.A.data.view(np.int64), np.array(
            [v for row in rows for v in row[2]]).view(np.int64))
        assert np.array_equal(got.b, [row[0] for row in rows],
                              equal_nan=True)

    @pytest.mark.parametrize("content", ["1 1:0.5 3:2\n-1 2:1\n",
                                         "1 +1:0.5 3:2\n-1\t2:1\n"])
    def test_arrays_are_c_contiguous(self, tmp_path, content):
        p = tmp_path / "a.txt"
        p.write_text(content)
        A = parse_libsvm(p).A
        assert A.data.flags.c_contiguous
        assert A.indices.flags.c_contiguous
        assert A.indptr.flags.c_contiguous

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
