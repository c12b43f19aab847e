"""Dataset loading and synthetic instance generation.

LIBSVM text files use 1-based feature indices, strictly increasing within a
row; labels 0/1 are remapped to -1/+1. Dense CSV files put the label or
right-hand side in the last column. Synthetic generators are deterministic
in the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
# these number characters; the row checker reads any other line, splitting
# on any whitespace as str.split does and reading what float() and int()
# accept.
_NUMBER_CHARS = b" \t\n:.+-eE0123456789"
_UNREAD = np.ones(256, dtype=bool)
_UNREAD[list(_NUMBER_CHARS)] = False
_COLON_TO_BLANK = bytes.maketrans(b":", b" ")
_INDEX_DIGITS = 15  # a wider index may reach 2^53, where float64 rounds


def _check_row(line: str, lineno: int):
    """Read one line token by token: None if it is blank, else the triple
    (label, indices, values).

    Raises ValueError naming the line at its first token that is not a
    label or an index:value pair, or whose index is below 1 or does not
    increase.
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
    if not count:
        return np.empty(0)  # numpy reads a blank text as [-1.0]
    with warnings.catch_warnings():
        # numpy 1.x warns at a token it cannot read and returns the rest
        warnings.simplefilter("error", DeprecationWarning)
        try:
            nums = np.fromstring(buf, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return nums if nums.size == count else None


def parse_libsvm(path, n_features: int | None = None) -> DatasetMatrix:
    """Read a LIBSVM text file into a CSR matrix and a label vector.

    Each line is blank, and skipped, or a label followed by index:value
    pairs, all separated by whitespace. A label or value is anything
    float() reads; an index is anything int() reads, at least 1 and
    strictly increasing along its line. Raises ValueError naming the first
    offending line on a bad label, a bad index:value token, an index below
    1 or one that does not increase, and on a file with no data rows.
    Labels that are exactly 0 or 1 are remapped to -1/+1; other label
    values pass through unchanged.

    The file is read once, and one numpy pass converts every number. Only
    a line that this pass cannot take (a byte other than blanks, colons
    and decimal number characters, a misplaced colon, an index that is not
    1 to 15 digits) or that fails an index check is read again, alone and
    token by token, and that reading decides its row or its error.
    """
    with open(path) as fh:  # decodes, and turns \r\n and \r into \n
        text = fh.read()
    raw = text.encode("ascii", "replace")  # one byte per character
    if text.isascii():
        text = None  # raw holds the same characters
    newline = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    starts, ends = np.append(0, newline + 1), np.append(newline, len(raw))
    n_tokens, n_colons, odd = _scan_lines(raw, newline)

    fast = (n_tokens > 0) & ~odd  # the lines the numpy pass reads
    buf = raw.translate(_COLON_TO_BLANK)
    if odd.any():  # blank out the lines left to the row checker
        chars = bytearray(buf)
        for i in np.flatnonzero(odd):
            chars[starts[i]:ends[i]] = b" " * int(ends[i] - starts[i])
        buf = bytes(chars)
    nums = _read_numbers(buf, int(fast.sum() + 2 * n_colons[fast].sum()))
    del buf
    if nums is None:  # some token is not one number: check every line
        odd |= fast
        fast[:] = False
        nums = np.empty(0)
    fast_line = np.flatnonzero(fast)
    pairs = n_colons[fast_line]
    label_at = np.cumsum(1 + 2 * pairs) - (1 + 2 * pairs)
    labels = nums[label_at]
    index, data = np.delete(nums, label_at).reshape(-1, 2).T
    del nums

    # the index checks of the row checker on every entry at once; the
    # checker raises on each line that fails one
    first = np.cumsum(pairs) - pairs
    prev = np.append(0.0, index[:-1])
    prev[first[pairs > 0]] = 0.0
    failed = np.searchsorted(first, np.flatnonzero(index <= prev), "right")
    checked = {}
    for i in np.union1d(np.flatnonzero(odd), fast_line[failed - 1]):
        line = (raw[starts[i]:ends[i]].decode("ascii") if text is None
                else text[starts[i]:ends[i]])
        row = _check_row(line, int(i) + 1)
        if row is not None:
            checked[i] = row
    del raw, text

    # the checker's rows take their lines' places among the numpy pass's
    rows = list(checked.values())
    order = np.argsort(np.append(fast_line,
                                 np.array(list(checked), dtype=int)))
    labels = np.append(labels, [r[0] for r in rows])[order]
    counts = np.append(pairs, np.array([len(r[1]) for r in rows], dtype=int))
    first = (np.cumsum(counts) - counts)[order]
    counts = counts[order]
    indptr = np.append(0, np.cumsum(counts))
    take = np.repeat(first - indptr[:-1], counts) + np.arange(indptr[-1])
    slow_index = [j for r in rows for j in r[1]]
    max_col = max(int(index.max(initial=0)), max(slow_index, default=0))

    n_rows = labels.size
    if n_rows == 0:
        raise ValueError("%s: no data rows" % path)
    n_cols = max_col if n_features is None else n_features
    if n_features is not None and max_col > n_features:
        raise ValueError("file has feature index %d > n_features %d"
                         % (max_col, n_features))
    index = np.append(index.astype(np.int64),
                      np.array(slow_index, dtype=np.int64))[take]
    index -= 1
    data = np.append(data, [v for r in rows for v in r[2]])[take]
    A = sparse.csr_matrix((data, index, indptr), shape=(n_rows, n_cols))
    if set(np.unique(labels)) <= {0.0, 1.0}:
        labels = 2.0 * labels - 1.0
    return DatasetMatrix(A, labels)


def write_libsvm(data: DatasetMatrix, path) -> None:
    """Write rows in `label index:value ...` form with 1-based indices."""
    A = sparse.csr_matrix(data.A)
    with open(path, "w") as fh:
        for i in range(A.shape[0]):
            start, end = A.indptr[i], A.indptr[i + 1]
            pairs = " ".join("%d:%.17g" % (j + 1, v)
                             for j, v in zip(A.indices[start:end],
                                             A.data[start:end]))
            fh.write("%.17g %s\n" % (data.b[i], pairs) if pairs
                     else "%.17g\n" % data.b[i])


def load_dense_csv(path, has_header: bool = False) -> DatasetMatrix:
    """Read a dense CSV whose last column is the label / right-hand side."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0,
                     ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("%s: need at least one feature column plus labels" % path)
    return DatasetMatrix(raw[:, :-1].copy(), raw[:, -1].copy())


def _conditioned_matrix(rng, M, n, cond):
    """Dense M x n matrix with singular values log-spaced over [1/cond, 1]."""
    k = min(M, n)
    u, _ = np.linalg.qr(rng.standard_normal((M, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    s = np.logspace(0.0, -np.log10(cond), k)
    return (u * s) @ v.T


def generate_logreg_instance(M: int, n: int, seed: int = 0,
                             cond: float = 1e5) -> DatasetMatrix:
    """Ill-conditioned binary classification data with labels in {-1, +1}.

    A planted weight vector produces the labels, with 5 percent flipped so
    the problem is not separable.
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
    """Least-squares data whose planted solution is sparse and nonnegative."""
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
