"""LIBSVM and CSV readers plus the synthetic instance generators."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

import aaprox
from aaprox.datasets import (
    _WRITE_BLOCK,
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
        # an index past int64 is named with its line, before this check
        p.write_text("+1 1:0.5 99999999999999999999:1.0\n")
        with pytest.raises(ValueError, match="^line 1: index "
                           "99999999999999999999 does not fit in int64$"):
            parse_libsvm(p, n_features=10)

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

    def test_a_file_that_does_not_decode_is_named(self, tmp_path):
        # a bare UnicodeDecodeError named neither the file nor a line
        p = tmp_path / "a.svm"
        p.write_bytes(b"+1 1:0.8\n-1 2:\xff\n")
        with pytest.raises(ValueError) as info:
            parse_libsvm(p)
        assert str(info.value) == "%s: not utf-8 text: invalid start byte" % p

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



def write_libsvm_by_row(data, path):
    """The writer as it was, one format call per entry: the reference for
    the bytes of write_libsvm on a matrix already in canonical order."""
    A = sparse.csr_matrix(data.A)
    with open(path, "w") as fh:
        for i in range(A.shape[0]):
            start, end = A.indptr[i], A.indptr[i + 1]
            pairs = " ".join("%d:%.17g" % (j + 1, v)
                             for j, v in zip(A.indices[start:end],
                                             A.data[start:end]))
            fh.write("%.17g %s\n" % (data.b[i], pairs) if pairs
                     else "%.17g\n" % data.b[i])


def _random_rows(M, n=7, dtype=np.float64, seed=0):
    """An M x n matrix with empty rows and explicitly stored zeros."""
    rng = np.random.default_rng(seed)
    A = sparse.random(M, n, density=0.4, random_state=seed, format="csr",
                      dtype=np.float64)
    A.data = (rng.standard_normal(A.nnz) * 1e3).astype(dtype)
    A.data[::5] = 0  # stored, so written
    return A


def _big_rows():
    """20000 x 2000 with 10 entries per row, a file of about 5 MB."""
    M, n, per_row = 20000, 2000, 10
    rng = np.random.default_rng(5)
    A = sparse.csr_matrix(
        (rng.standard_normal(M * per_row),
         (np.repeat(np.arange(M), per_row),
          rng.integers(0, n, size=M * per_row))), shape=(M, n))
    return DatasetMatrix(A, np.where(rng.random(M) < 0.5, 1.0, -1.0))


class TestWriteLibsvm:
    """write_libsvm formats a block of rows per call and writes the bytes
    of the per-row loop above."""

    @pytest.mark.parametrize("make_A, b", [
        (lambda: _random_rows(30).toarray(), np.arange(30.0) - 9.5),
        (lambda: _random_rows(30).tocsc(), np.arange(30.0) + 0.1),
        (lambda: _random_rows(30).tocoo(), np.arange(30.0) / 7),
        (lambda: _random_rows(30, dtype=np.float32), np.full(30, 1.0)),
        (lambda: _random_rows(30, dtype=np.int64), np.arange(30) - 15),
        (lambda: _random_rows(30), np.where(np.arange(30) % 2, 1, -1)),
        (lambda: _random_rows(0), np.zeros(0)),
        (lambda: _random_rows(1), np.array([2.5])),
        (lambda: _random_rows(2 * _WRITE_BLOCK + 1, n=40, seed=2),
         np.linspace(-3.0, 3.0, 2 * _WRITE_BLOCK + 1)),
        (lambda: sparse.csr_matrix((3, 4)), np.array([1.0, -0.0, 0.5])),
    ], ids=["dense", "csc", "coo", "float32", "int_data", "int_labels",
            "no_rows", "one_row", "two_blocks_plus_one", "all_rows_empty"])
    def test_same_bytes_as_the_per_row_loop(self, tmp_path, make_A, b):
        data = DatasetMatrix(make_A(), b)
        write_libsvm(data, tmp_path / "new.svm")
        write_libsvm_by_row(data, tmp_path / "old.svm")
        assert ((tmp_path / "new.svm").read_bytes()
                == (tmp_path / "old.svm").read_bytes())

    def test_the_cases_above_hold_empty_rows_and_stored_zeros(self):
        A = _random_rows(30)
        assert (np.diff(A.indptr) == 0).any()
        assert (A.data == 0).any()

    @pytest.mark.parametrize("A, expected", [
        (sparse.csr_matrix(([1.0, 2.0, 3.0], [2, 0, 1], [0, 2, 3]),
                           shape=(2, 3)),
         "1 1:2 3:1\n-1 2:3\n"),
        (sparse.csr_matrix(([1.0, 2.0, 4.0, 8.0], [2, 0, 2, 1],
                            [0, 3, 4]), shape=(2, 3)),
         "1 1:2 3:5\n-1 2:8\n"),
    ], ids=["unsorted", "duplicates"])
    def test_a_matrix_not_in_canonical_order_is_written_readable(
            self, tmp_path, A, expected):
        # each was written in stored order, which parse_libsvm refuses
        indices, values = A.indices.copy(), A.data.copy()
        p = tmp_path / "a.svm"
        write_libsvm(DatasetMatrix(A, np.array([1.0, -1.0])), p)
        assert p.read_text() == expected
        back = parse_libsvm(p, n_features=3)
        assert np.array_equal(back.A.toarray(), A.toarray())
        # the caller's matrix is left as it was
        assert np.array_equal(A.indices, indices)
        assert np.array_equal(A.data, values)

    @pytest.mark.parametrize("b", [np.ones(2), np.ones(4), np.ones((3, 1))],
                             ids=["short", "long", "column"])
    def test_labels_must_match_the_rows(self, tmp_path, b):
        # a short vector raised IndexError after the first rows were
        # written; a long one lost its extra labels
        with pytest.raises(ValueError, match="3 rows need 3 labels"):
            write_libsvm(DatasetMatrix(sparse.eye(3, format="csr"), b),
                         tmp_path / "a.svm")

    def test_memory_stays_at_a_block(self, tmp_path):
        # writing the whole 20000-row file in one call peaked at 28 MB
        data = _big_rows()
        tracemalloc.start()
        try:
            write_libsvm(data, tmp_path / "big.svm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_reading_the_file_back_stays_at_a_block(self, tmp_path):
        # the 5 MB file read whole peaked at 16 MB; the arrays it gives take
        # 2.6 MB
        p = tmp_path / "big.svm"
        write_libsvm(_big_rows(), p)
        tracemalloc.start()
        try:
            parse_libsvm(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


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
        ("+1 1:0.5 99999999999999999999:1.0\n",
         "line 1: index 99999999999999999999 does not fit in int64"),
        ("1 1:1\n1 9223372036854775808:1\n",
         "line 2: index 9223372036854775808 does not fit in int64"),
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

    def test_a_clean_file_never_reaches_the_row_checker(self, tmp_path,
                                                        monkeypatch):
        from aaprox import datasets

        lines = ["%d %d:0.5 %d:1.5" % (i % 2, i + 1, i + 3)
                 for i in range(50)]
        seen = []
        original = datasets._check_row

        def check_row(line, lineno):
            seen.append(lineno)
            return original(line, lineno)

        monkeypatch.setattr(datasets, "_check_row", check_row)
        p = tmp_path / "a.txt"
        p.write_text("\n".join(lines))
        clean = parse_libsvm(p)
        assert seen == []

        # one line the numpy pass cannot take sends every line to the checker
        lines[16] = "nan 17:0.5 19:1.5"
        p.write_text("\n".join(lines))
        data = parse_libsvm(p)
        assert seen == list(range(1, 51))
        rows = [original(line, n) for n, line in enumerate(lines, start=1)]
        assert np.array_equal(data.b, [row[0] for row in rows],
                              equal_nan=True)
        assert np.array_equal(data.A.indices,
                              [j - 1 for row in rows for j in row[1]])
        assert np.array_equal(data.A.data, [v for row in rows for v in row[2]])
        assert np.array_equal(data.A.indptr, clean.A.indptr)

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


def _same_bits(a, b):
    """Whether two parsed files hold the same arrays, bit for bit."""
    return (a.shape == b.shape and a.A.indices.dtype == b.A.indices.dtype
            and all(x.tobytes() == y.tobytes() for x, y in [
                (a.A.data, b.A.data), (a.A.indices, b.A.indices),
                (a.A.indptr, b.A.indptr), (a.b, b.b)]))


def _no_checker(line, lineno):
    raise AssertionError("the row checker read line %d" % lineno)


class TestParseLibsvmBlocks:
    """The numpy pass reads a block of whole lines at a time: any block
    size gives the arrays of a single block, and the errors of the whole
    file."""

    # 8191 characters then \r\n: the \r ends the first 8192-byte chunk the
    # text layer decodes
    LONG = "1 1:" + "0" * 8186 + "1"

    @pytest.mark.parametrize("content", [
        "+1 1:0.5 3:2\n-1 2:1\n0 1:1e-3 7:-2.5E+4\n3.5\n1\t2:.5 3:-0\n",
        "+1 1:0.5\r\n-1 2:1 3:4\r\n\r\n1 1:1\r\n",
        LONG + "\r\n-1 2:1\r\n",
        " ".join(["1"] + ["%d:%d.25" % (j, j) for j in range(1, 80)])
        + "\n-1 1:1\n",
        "1 1:1\n-1 2:2 3:3",
        "1 1:1\n\n \t \n-1 2:2\n   \n\n1 3:3\n\n\t\n",
    ], ids=["mixed", "crlf", "crlf_at_a_chunk_edge", "line_past_a_block",
            "no_final_newline", "blank_lines"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_any_block_size_gives_the_same_arrays(self, tmp_path,
                                                  monkeypatch, content,
                                                  block):
        from aaprox import datasets

        p = tmp_path / "a.svm"
        p.write_bytes(content.encode())
        whole = parse_libsvm(p)
        monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        monkeypatch.setattr(datasets, "_check_row", _no_checker)
        assert _same_bits(parse_libsvm(p), whole)

    def test_written_rows_over_many_blocks(self, tmp_path, monkeypatch):
        # the writer's rows, empty ones among them, over many blocks
        from aaprox import datasets

        data = DatasetMatrix(_random_rows(300), np.linspace(-2.0, 2.0, 300))
        p = tmp_path / "a.svm"
        write_libsvm(data, p)
        whole = parse_libsvm(p, n_features=7)
        monkeypatch.setattr(datasets, "_check_row", _no_checker)
        for block in (1, 7, 64):
            monkeypatch.setattr(datasets, "_READ_BLOCK", block)
            assert _same_bits(parse_libsvm(p, n_features=7), whole)
        assert np.array_equal(whole.A.toarray(), data.A.toarray())

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_checker_line_in_the_last_block_sends_every_line(
            self, tmp_path, monkeypatch, block):
        from aaprox import datasets

        lines = ["%d %d:0.5 %d:1.5" % (i % 2, i + 1, i + 3)
                 for i in range(50)]
        lines[-1] = "nan 50:0.5 52:1.5"
        p = tmp_path / "a.svm"
        p.write_text("\n".join(lines) + "\n")
        whole = parse_libsvm(p)
        seen = []
        original = datasets._check_row

        def check_row(line, lineno):
            seen.append(lineno)
            return original(line, lineno)

        monkeypatch.setattr(datasets, "_check_row", check_row)
        monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        data = parse_libsvm(p)
        assert seen == list(range(1, 52))  # with the empty line after \n
        assert _same_bits(data, whole)
        assert np.isnan(data.b[-1]) and data.shape == (50, 52)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_late_byte_that_does_not_decode_is_named(
            self, tmp_path, monkeypatch, block):
        from aaprox import datasets

        monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        p = tmp_path / "a.svm"
        p.write_bytes(b"+1 1:0.8\n" * 200 + b"-1 2:\xff\n+1 1:1\n")
        with pytest.raises(ValueError) as info:
            parse_libsvm(p)
        assert str(info.value) == "%s: not utf-8 text: invalid start byte" % p

    @pytest.mark.parametrize("late, message", [
        ("1 3:1 2:1", "line 51: index 2 does not increase"),
        ("1 1:1.2.3", "line 51: bad feature token '1:1.2.3'"),
    ], ids=["index_not_increasing", "number_misread"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_late_line_the_numbers_refuse_is_named(
            self, tmp_path, monkeypatch, late, message, block):
        # the scan passes these lines; the numbers of their block do not
        from aaprox import datasets

        monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        p = tmp_path / "a.svm"
        p.write_text("+1 1:0.8\n" * 50 + late + "\n+1 1:1\n")
        with pytest.raises(ValueError) as info:
            parse_libsvm(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("content, line", [
        (b"1 1:1\n" + b"\x00" * 10, 2),  # a preallocated or cut-off tail
        (b"1 1:1\n\x01\n", 2),
        (b"\x00\n\n1 1:1\n", 1),
    ], ids=["nul_tail", "control_line", "nul_first"])
    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_a_control_byte_line_without_tokens_is_refused(
            self, tmp_path, monkeypatch, content, line, block):
        # the scan counts control bytes as blanks, so such a line has no
        # token; it still goes to the row checker, which refuses it
        from aaprox import datasets

        if block is not None:
            monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        p = tmp_path / "a.svm"
        p.write_bytes(content)
        with pytest.raises(ValueError, match="^line %d: bad label '\\\\x0"
                           % line):
            parse_libsvm(p)

    @pytest.mark.parametrize("content", ["", "\n\n", " \t\n\n   ",
                                         "\r\n \r\n"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_file_without_rows_is_refused(self, tmp_path, monkeypatch,
                                            content, block):
        from aaprox import datasets

        monkeypatch.setattr(datasets, "_READ_BLOCK", block)
        p = tmp_path / "a.svm"
        p.write_bytes(content.encode())
        with pytest.raises(ValueError) as info:
            parse_libsvm(p)
        assert str(info.value) == "%s: no data rows" % p


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

    @pytest.mark.parametrize("text, has_header", [
        ("", False), ("", True), ("f1,y\n", True), ("f1,y\n\n\n", True),
    ], ids=["empty", "empty_with_header", "header_only", "header_and_blanks"])
    def test_no_data_rows_rejected(self, tmp_path, text, has_header):
        # the UserWarning numpy gives here is an error under the suite's
        # filters, so this also checks that none is emitted
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="d.csv: no data rows"):
            load_dense_csv(p, has_header=has_header)


    @pytest.mark.parametrize("text, has_header, start", [
        ("f1,f2,y\n1,2,3\n4,x,6\n", True,
         "d.csv: line 3: could not convert string 'x'"),
        ("# note\n1,2,3\n\n4,x,6\n", False,
         "d.csv: line 4: could not convert string 'x'"),
        ("f1,f2,y\n1,2,3\n\n4,5\n", True,
         "d.csv: line 4: 2 columns where the first data row has 3"),
    ], ids=["bad_cell", "past_blank_and_comment", "short_row"])
    def test_a_bad_row_names_the_file_and_its_line(self, tmp_path, text,
                                                   has_header, start):
        # numpy counted data rows, from 0 or 1 as the message went, and
        # never named the file
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_dense_csv(p, has_header=has_header)
        assert str(info.value).startswith(str(p)), info.value
        assert start in str(info.value), info.value

    def test_a_file_that_does_not_decode_is_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ValueError, match="d.csv: not utf-8 text"):
            load_dense_csv(p)


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

    @pytest.mark.parametrize("shape", [(200, 100), (100, 200), (60, 20),
                                       (400, 200)])
    @pytest.mark.parametrize("gen", [generate_logreg_instance,
                                     generate_nnls_instance])
    def test_same_floats_as_scaling_a_copy(self, monkeypatch, gen, shape):
        # each draw is factored in place and u is scaled in place;
        # np.linalg.qr on the draws and scaling a copy give the same bits
        from aaprox import datasets

        def scaled_copy(rng, M, n, cond):
            k = min(M, n)
            u, _ = np.linalg.qr(rng.standard_normal((M, k)))
            v, _ = np.linalg.qr(rng.standard_normal((n, k)))
            s = np.logspace(0.0, -np.log10(cond), k)
            return (u * s) @ v.T

        new = gen(*shape, seed=3)
        monkeypatch.setattr(datasets, "_conditioned_matrix", scaled_copy)
        old = gen(*shape, seed=3)
        assert new.A.tobytes() == old.A.tobytes()
        assert new.b.tobytes() == old.b.tobytes()

    @pytest.mark.parametrize("shape", [(400, 200), (200, 400)],
                             ids=["tall", "wide"])
    def test_conditioned_matrix_peak_is_its_factors_and_output(self, shape):
        # the two Q factors and the product, 2 + 1/2 times the output at
        # these shapes; with np.linalg.qr's copy of each draw and its R the
        # peak was 3.57 (tall) and 4.57 (wide) times
        from aaprox.datasets import _conditioned_matrix

        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            A = _conditioned_matrix(rng, *shape, 1e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * A.nbytes, peak / A.nbytes

    @pytest.mark.parametrize("failing", ["dgeqrf", "dorgqr"])
    def test_a_failed_factorization_raises(self, monkeypatch, failing):
        # LAPACK reports a failure by a nonzero info, which np.linalg.qr
        # turns into LinAlgError; so must the factor on the draw's copy
        from aaprox import datasets

        routines = {name: getattr(datasets.lapack, name)
                    for name in ("dgeqrf", "dorgqr")}
        real = routines[failing]

        def fails(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], -4)

        routines[failing] = fails
        monkeypatch.setattr(datasets, "lapack", SimpleNamespace(**routines))
        with pytest.raises(np.linalg.LinAlgError):
            generate_nnls_instance(20, 10, seed=0)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 5),
                                       (5, 1)])
    @pytest.mark.parametrize("gen", [generate_logreg_instance,
                                     generate_nnls_instance])
    def test_empty_and_thin_shapes(self, monkeypatch, capfd, gen, shape):
        # LAPACK refuses a 0 x 0 draw and says so on the terminal; a draw
        # with no column is its own Q, as np.linalg.qr returns it
        from aaprox import datasets

        new = gen(*shape, seed=3)
        assert capfd.readouterr() == ("", "")
        monkeypatch.setattr(datasets, "_orthonormal_columns",
                            lambda g: np.linalg.qr(g)[0])
        old = gen(*shape, seed=3)
        assert new.A.shape == old.A.shape == shape
        assert new.b.shape == old.b.shape == shape[:1]
        assert new.A.tobytes() == old.A.tobytes()
        assert new.b.tobytes() == old.b.tobytes()

    @pytest.mark.parametrize("shape", [(2000, 1000), (1000, 1000), (300, 100),
                                       (100, 100), (500, 1), (1, 1)])
    def test_orthonormal_columns_are_numpys_q(self, shape):
        # scipy's LAPACK against numpy's: bit for bit, or the generators'
        # floats differ from np.linalg.qr's on this host. The first two
        # are the shapes of the draws of the benchmark's 2000 x 1000
        # instance (seed 4), and the first is its first draw
        from aaprox.datasets import _orthonormal_columns

        g = np.random.default_rng(4).standard_normal(shape)
        q = np.linalg.qr(g, mode="reduced")[0]
        assert _orthonormal_columns(g.copy()).tobytes() == q.tobytes()

    def test_resident_peak_sees_lapacks_buffers(self):
        # tracemalloc misses what numpy's QR gufuncs and LAPACK allocate,
        # so this reads the resident high-water mark of a fresh interpreter
        # once both BLAS libraries have run. The growth was 5.3 times the
        # output with np.linalg.qr's gufuncs and is 3.4 times on one
        # Fortran copy of each draw
        try:
            with open("/proc/self/status") as fh:
                if "VmHWM:" not in fh.read():
                    pytest.skip("no VmHWM in /proc/self/status")
        except OSError:
            pytest.skip("no /proc/self/status")
        script = textwrap.dedent("""
            import re
            import aaprox
            import numpy as np
            from scipy.linalg import lapack
            from aaprox.datasets import generate_nnls_instance

            def hwm():
                with open("/proc/self/status") as fh:
                    return 1024 * int(re.search(r"^VmHWM:\\s+(\\d+) kB",
                                                fh.read(), re.M).group(1))

            generate_nnls_instance(200, 200)
            lapack.dgeqrf(np.ones((200, 200), order="F"))
            np.ones((200, 200)) @ np.ones((200, 200))
            before = hwm()
            A = generate_nnls_instance(1000, 1000).A
            print((hwm() - before) / A.nbytes)
            """)
        src = os.path.dirname(os.path.dirname(aaprox.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True)
        growth = float(out.stdout)
        assert growth <= 3.75, growth

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
