"""Dataset loading and synthetic instance generation.

LIBSVM text files use 1-based feature indices, strictly increasing within a
row; labels 0/1 are remapped to -1/+1. Dense CSV files put the label or
right-hand side in the last column. Synthetic generators are deterministic
in the seed.
"""

from __future__ import annotations

import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from .problems import _canonical

__all__ = [
    "DatasetMatrix",
    "generate_kl_instance",
    "generate_logreg_instance",
    "generate_nnls_instance",
    "load_dense_csv",
    "parse_libsvm",
    "write_libsvm",
]


@dataclass
class DatasetMatrix:
    """Design matrix with its response vector (labels or right-hand side)."""

    A: object
    b: np.ndarray

    @property
    def shape(self):
        return self.A.shape


# The vectorized LIBSVM read takes only lines made of blanks, colons and
# these number characters; the row checker reads a file with any other
# line, splitting on any whitespace as str.split does and reading what
# float() and int() accept.
_NUMBER_CHARS = b" \t\n:.+-eE0123456789"
_UNREAD = np.ones(256, dtype=bool)
_UNREAD[list(_NUMBER_CHARS)] = False
_COLON_TO_BLANK = bytes.maketrans(b":", b" ")
_INDEX_DIGITS = 15  # a wider index may reach 2^53, where float64 rounds
_INDEX_MAX = 2**63 - 1


def _check_row(line: str, lineno: int):
    """Read one line token by token: None if it is blank, else the triple
    (label, indices, values).

    Raises ValueError naming the line at its first token that is not a
    label or an index:value pair, or whose index is below 1, does not fit
    in int64 or does not increase.
    """
    parts = line.split()
    if not parts:
        return None
    try:
        label = float(parts[0])
    except ValueError:
        raise ValueError(
            "line %d: bad label %r" % (lineno, parts[0])) from None
    indices: list[int] = []
    values: list[float] = []
    for token in parts[1:]:
        try:
            idx_str, val_str = token.split(":", 1)
            idx = int(idx_str)
            val = float(val_str)
        except ValueError:
            raise ValueError(
                "line %d: bad feature token %r" % (lineno, token)) from None
        if idx < 1:
            raise ValueError(
                "line %d: index %d is not 1-based" % (lineno, idx))
        if idx > _INDEX_MAX:
            raise ValueError(
                "line %d: index %d does not fit in int64" % (lineno, idx))
        if indices and idx <= indices[-1]:
            raise ValueError(
                "line %d: index %d does not increase" % (lineno, idx))
        indices.append(idx)
        values.append(val)
    return label, indices, values


def _scan_lines(raw: bytes, newline: np.ndarray):
    """Per line of the text raw, whose newlines sit at the positions
    newline: its number of tokens, its number of colons, and whether the
    vectorized read leaves it to the row checker.

    The read takes a line made of blanks, colons and number characters
    alone, whose first token has no colon and whose every later token has
    exactly one, with 1 to 15 digits before it and a value after it.
    Control bytes count as blanks here: their lines go to the checker.
    """
    a = np.frombuffer(raw, dtype=np.uint8)
    n_lines = newline.size + 1
    edge = np.append(-1, np.flatnonzero(a <= 32))
    token = edge[np.append(np.diff(edge) > 1, edge[-1] + 1 < a.size)] + 1
    del edge
    n_tokens = np.bincount(np.searchsorted(newline, token),
                           minlength=n_lines)
    first_token = np.cumsum(n_tokens) - n_tokens
    colon = np.flatnonzero(a == ord(":"))
    colon_line = np.searchsorted(newline, colon)
    n_colons = np.bincount(colon_line, minlength=n_lines)

    odd = n_colons != np.maximum(n_tokens - 1, 0)
    if raw.translate(None, _NUMBER_CHARS):
        odd[np.searchsorted(newline, np.flatnonzero(_UNREAD[a]))] = True
    owner = np.searchsorted(token, colon, "right") - 1
    width = colon - token[owner]  # of the index before the colon
    bad = ((owner == first_token[colon_line]) | (width == 0)
           | (width > _INDEX_DIGITS) | (colon + 1 == a.size)
           | (np.take(a, colon + 1, mode="clip") <= 32))
    # digits alone before each colon, which rejects a token's second colon
    for j in range(1, min(int(width.max(initial=0)), _INDEX_DIGITS) + 1):
        byte = np.take(a, colon - j, mode="clip")
        bad |= (width >= j) & ((byte < ord("0")) | (byte > ord("9")))
    odd[colon_line[bad]] = True
    return n_tokens, n_colons, odd


def _read_numbers(buf: bytes, count: int) -> np.ndarray | None:
    """The count numbers of a blank-separated text, or None where numpy
    does not read exactly count whole numbers from it."""
    with warnings.catch_warnings():
        # numpy 1.x warns at a token it cannot read and returns the rest
        warnings.simplefilter("error", DeprecationWarning)
        try:
            nums = np.fromstring(buf, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return nums if nums.size == count else None


def _numpy_rows(raw: bytes, n_tokens: np.ndarray, n_colons: np.ndarray):
    """Labels, pairs per row, indices and values read by one numpy pass
    over the text raw, in which _scan_lines flagged no line; None where
    numpy does not read exactly the expected count or an index does not
    increase along its line."""
    pairs = n_colons[n_tokens > 0]
    nums = _read_numbers(raw.translate(_COLON_TO_BLANK),
                         int(pairs.size + 2 * pairs.sum()))
    if nums is None:
        return None
    label_at = np.cumsum(1 + 2 * pairs) - (1 + 2 * pairs)
    labels = nums[label_at]
    index, data = np.delete(nums, label_at).reshape(-1, 2).T
    del nums
    # the index checks of the row checker on every entry at once
    prev = np.append(0.0, index[:-1])
    prev[(np.cumsum(pairs) - pairs)[pairs > 0]] = 0.0
    if (index <= prev).any():
        return None
    return labels, pairs, index, data


def _checked_rows(text: str):
    """Labels, pairs per row, indices and values of every line of text
    read by the row checker, in order; raises at the first offending line."""
    labels, pairs, index, data = array("d"), array("q"), array("q"), array("d")
    for lineno, line in enumerate(text.split("\n"), start=1):
        row = _check_row(line, lineno)
        if row is not None:
            labels.append(row[0])
            pairs.append(len(row[1]))
            index.extend(row[1])
            data.extend(row[2])
    return (np.frombuffer(labels), np.frombuffer(pairs, dtype=np.int64),
            np.frombuffer(index, dtype=np.int64), np.frombuffer(data))


def _not_text(path, exc: UnicodeDecodeError) -> ValueError:
    """The error for a data file that does not decode, naming the file."""
    return ValueError("%s: not %s text: %s" % (path, exc.encoding, exc.reason))


# Characters per read of parse_libsvm's numpy pass, which holds one block
# of whole lines at a time besides the rows read so far.
_READ_BLOCK = 2**18


def _numpy_blocks(fh):
    """Labels, pairs per row, int64 indices and values of every line of the
    text file fh, read by the numpy pass a block of whole lines at a time;
    None at the first block holding a line the pass leaves to the row
    checker, and for a text with no token."""
    columns = ([], [], [], [])
    # at least one whole line per block, so a line longer than a block is
    # a block of its own
    while lines := fh.readlines(_READ_BLOCK):
        # one byte per character; a non-ASCII one reads as "?"
        raw = "".join(lines).encode("ascii", "replace")
        del lines
        n_tokens, n_colons, odd = _scan_lines(raw, np.flatnonzero(
            np.frombuffer(raw, dtype=np.uint8) == ord("\n")))
        if odd.any():
            return None
        # np.fromstring reads a number from blanks alone, so a block of
        # blank lines, which holds no row, is not read
        if n_tokens.any():
            rows = _numpy_rows(raw, n_tokens, n_colons)
            if rows is None:
                return None
            labels, pairs, index, data = rows
            for column, part in zip(columns, (labels, pairs,
                                              index.astype(np.int64),
                                              np.ascontiguousarray(data))):
                column.append(part)
            del rows, index, data  # the block's numbers, before the next read
    if not columns[0]:
        return None
    joined = []
    for column in columns:  # a column's blocks are freed once it is joined
        joined.append(np.concatenate(column))
        column.clear()
    return joined


def parse_libsvm(path, n_features: int | None = None) -> DatasetMatrix:
    """Read a LIBSVM text file into a CSR matrix and a label vector.

    Each line is blank, and skipped, or a label followed by index:value
    pairs, all separated by whitespace. A label or value is anything
    float() reads; an index is anything int() reads, at least 1 and
    strictly increasing along its line. Raises ValueError naming the first
    offending line on a bad label, a bad index:value token, an index below
    1, past int64 or one that does not increase, and on a file with no data
    rows; a file that does not decode is a ValueError naming the file.
    Labels that are exactly 0 or 1 are remapped to -1/+1; other label
    values pass through unchanged.

    The file is read a block of whole lines at a time, and one numpy pass
    per block converts its numbers, so the read holds the rows read so far
    plus one block, and one column twice while the blocks are joined. Where
    that pass cannot take some line (a byte other than blanks, colons and
    decimal number characters, a misplaced colon, an index that is not 1
    to 15 digits), misreads a number or finds an index that does not
    increase, the blocks read are dropped and the row checker reads the
    whole file again, line by line and token by token, and decides every
    row or the first error.
    """
    with open(path) as fh:  # decodes, and turns \r\n and \r into \n
        try:
            rows = _numpy_blocks(fh)
            if rows is None:
                fh.seek(0)
                rows = _checked_rows(fh.read())
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from None
    labels, pairs, index, data = rows
    del rows

    n_rows = labels.size
    if n_rows == 0:
        raise ValueError("%s: no data rows" % path)
    max_col = int(np.max(index, initial=0))
    n_cols = max_col if n_features is None else n_features
    if n_features is not None and max_col > n_features:
        raise ValueError("file has feature index %d > n_features %d"
                         % (max_col, n_features))
    index -= 1
    indptr = np.append(0, np.cumsum(pairs))
    A = sparse.csr_matrix((data, index, indptr), shape=(n_rows, n_cols))
    if set(np.unique(labels)) <= {0.0, 1.0}:
        labels = 2.0 * labels - 1.0
    return DatasetMatrix(A, labels)


# Rows per format call of write_libsvm; a block's lists and text stay
# under glibc's 128 KiB mmap threshold at about 10 entries per row.
_WRITE_BLOCK = 256


def write_libsvm(data: DatasetMatrix, path) -> None:
    """Write rows in `label index:value ...` form with 1-based indices.

    Labels and values are written with %.17g, which reads back to the same
    float64. A matrix whose indices are unsorted or repeated within a row
    is written from a copy with duplicates summed and indices sorted, so
    parse_libsvm reads every file written; the caller's matrix is left as
    it is. Each block of rows is formatted by one % call and one write.
    """
    A = _canonical(sparse.csr_matrix(data.A))
    labels = np.asarray(data.b)
    if labels.shape != (A.shape[0],):
        raise ValueError("%d rows need %d labels, got shape %s"
                         % (A.shape[0], A.shape[0], labels.shape))
    formats: dict[int, str] = {}  # row format by its number of entries
    with open(path, "w") as fh:
        for start in range(0, A.shape[0], _WRITE_BLOCK):
            stop = min(start + _WRITE_BLOCK, A.shape[0])
            ptr = A.indptr[start:stop + 1].tolist()
            lo, hi = ptr[0], ptr[-1]
            pairs = [None] * (2 * (hi - lo))  # index, value, index, ...
            pairs[0::2] = (A.indices[lo:hi].astype(np.int64) + 1).tolist()
            pairs[1::2] = A.data[lo:hi].tolist()
            args, text = [], []
            for label, a, z in zip(labels[start:stop].tolist(), ptr, ptr[1:]):
                args.append(label)
                args += pairs[2 * (a - lo):2 * (z - lo)]
                fmt = formats.get(z - a)
                if fmt is None:
                    fmt = formats[z - a] = ("%.17g" + " %d:%.17g" * (z - a)
                                            + "\n")
                text.append(fmt)
            fh.write("".join(text) % tuple(args))


def _csv_error(path, has_header: bool, exc: ValueError) -> str:
    """The message for numpy's refusal exc of the CSV file path: the path
    and the 1-based line of the first data row that numpy refuses alone or
    whose column count differs from the first data row's."""
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if has_header and lineno == 1:
                continue
            try:
                row = np.loadtxt([line], delimiter=",", ndmin=2)
            except ValueError as line_exc:
                # numpy's row number counts this line alone, so drop it
                return "%s: line %d: %s" % (
                    path, lineno, re.sub(r" at row \d+,", " at",
                                         str(line_exc)))
            if row.size == 0:  # a blank or comment line
                continue
            if width is None:
                width = row.shape[1]
            elif row.shape[1] != width:
                return ("%s: line %d: %d columns where the first data row "
                        "has %d" % (path, lineno, row.shape[1], width))
    # not found line by line; numpy counts rows among the data rows
    return "%s: %s (rows counted after any header)" % (path, exc)


def load_dense_csv(path, has_header: bool = False) -> DatasetMatrix:
    """Read a dense CSV whose last column is the label / right-hand side.

    A file with no data rows is a ValueError, as in parse_libsvm. So is a
    file numpy refuses: the message starts with the path and names the
    1-based line of the first bad data row.
    """
    with warnings.catch_warnings():
        # numpy warns on an empty input, also on each blank line that
        # _csv_error reads alone; the check below raises instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            raw = np.loadtxt(path, delimiter=",",
                             skiprows=1 if has_header else 0, ndmin=2)
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from None
        except ValueError as exc:
            raise ValueError(_csv_error(path, has_header, exc)) from None
    if raw.shape[0] == 0:
        raise ValueError("%s: no data rows" % path)
    if raw.shape[1] < 2:
        raise ValueError("%s: need at least one feature column plus labels" % path)
    return DatasetMatrix(raw[:, :-1].copy(), raw[:, -1].copy())


def _lapack_in_place(routine, a, *args):
    """The outputs but workspace and info of routine(a, *args), a LAPACK
    routine that overwrites the Fortran array a, at the workspace its query
    asks for; a nonzero info raises LinAlgError.

    overwrite_a spares f2py's copy of a on the query as well as the call.
    The wrapper's default lwork would change the blocking, and with it the
    floats.
    """
    work = routine(a, *args, lwork=-1, overwrite_a=1)[-2]
    *out, _, info = routine(a, *args, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            "LAPACK info %d while performing QR factorization" % info)
    return out


def _orthonormal_columns(g):
    """The Q of np.linalg.qr(g) for a tall or square float64 g, with the
    same floats at one BLAS thread: dgeqrf and dorgqr, the LAPACK routines
    qr(mode="reduced") calls, on one Fortran-ordered copy of g.

    numpy's gufuncs copy g into buffers of their own, which tracemalloc
    does not see. Here the Householder factors and then Q overwrite the one
    copy, and g is freed once copied unless the caller holds it, so a draw
    and its copy coexist only while the copy is made. A g with no column,
    which LAPACK refuses at 0 x 0, is its own Q.
    """
    if g.shape[1] == 0:
        return g
    a = np.asfortranarray(g)
    del g
    a, tau = _lapack_in_place(lapack.dgeqrf, a)
    return _lapack_in_place(lapack.dorgqr, a, tau)[0]


def _conditioned_matrix(rng, M, n, cond):
    """Dense M x n matrix with singular values log-spaced over [1/cond, 1].

    Each Gaussian draw is factored on one copy of itself
    (_orthonormal_columns). The traced peak holds the two Q factors and the
    product, 2 + min(M, n) / max(M, n) times the output, but that figure
    counts traced memory only. The resident peak also holds BLAS's work
    buffers and freed blocks malloc keeps: it grows by about 3.4 times the
    output at 1000 x 1000 and at 2000 x 1000.

    The floats depend on the BLAS thread count (AAPROX_THREADS): the
    factorisation rounds differently on more than one thread. At two
    threads, 600 x 600 and 2000 x 1000 at seed 4 give other bytes than at
    one; 200 x 100 at seed 1 gives the same.
    """
    k = min(M, n)
    u = _orthonormal_columns(rng.standard_normal((M, k)))
    v = _orthonormal_columns(rng.standard_normal((n, k)))
    u *= np.logspace(0.0, -np.log10(cond), k)  # the singular values
    return u @ v.T


def generate_logreg_instance(M: int, n: int, seed: int = 0,
                             cond: float = 1e5) -> DatasetMatrix:
    """Ill-conditioned binary classification data with labels in {-1, +1}.

    A planted weight vector produces the labels, with 5 percent flipped so
    the problem is not separable. A depends on the BLAS thread count, as in
    _conditioned_matrix.
    """
    rng = np.random.default_rng(seed)
    A = _conditioned_matrix(rng, M, n, cond)
    x_true = rng.standard_normal(n)
    margins = A @ x_true
    y = np.where(margins >= 0.0, 1.0, -1.0)
    flip = rng.random(M) < 0.05
    y[flip] = -y[flip]
    return DatasetMatrix(A, y)


def generate_nnls_instance(M: int, n: int, seed: int = 0,
                           cond: float = 1e3) -> DatasetMatrix:
    """Least-squares data whose planted solution is sparse and nonnegative.

    A depends on the BLAS thread count, as in _conditioned_matrix: at two
    threads (600, 600, seed=4) and (2000, 1000, seed=4) give other bytes
    than at the default one.
    """
    rng = np.random.default_rng(seed)
    A = _conditioned_matrix(rng, M, n, cond)
    x_true = np.maximum(rng.standard_normal(n), 0.0)
    b = A @ x_true + 0.01 * rng.standard_normal(M)
    return DatasetMatrix(A, b)


def generate_kl_instance(M: int, n: int, seed: int = 0,
                         density: float = 0.5,
                         noise: float = 0.1) -> DatasetMatrix:
    """Nonnegative data for relative-entropy regression.

    A is uniform on [0, 1); the target b is A applied to a planted sparse
    nonnegative vector, perturbed by multiplicative log-normal noise, so the
    fit is consistent up to the noise level and part of the solution sits on
    the boundary of the orthant.
    """
    rng = np.random.default_rng(seed)
    A = rng.random((M, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(1, int(round(density * n))), replace=False)
    x_true[support] = rng.uniform(0.5, 2.0, size=support.size)
    b = (A @ x_true) * np.exp(noise * rng.standard_normal(M))
    return DatasetMatrix(A, b)
