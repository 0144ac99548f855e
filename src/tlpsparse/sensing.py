"""Experiment matrix families, sparse test signals, and coherence diagnostics.

Two families are generated:

* correlated Gaussian — rows drawn from N(0, Sigma) with
  Sigma = (1 - r) I + r J, realized per row as sqrt(1-r) z + sqrt(r) g 1
  for z ~ N(0, I_N) and a scalar g ~ N(0, 1);
* over-sampled DCT — column i is cos(2 pi (i-1) w / F) / sqrt(M) for a
  single frequency vector w drawn uniformly from (0, 1)^M; small F spreads
  the columns, large F makes neighbouring columns nearly parallel (high
  mutual coherence).

All randomness flows through PCG64 seeded explicitly, so regenerating with
the same arguments is bit-for-bit reproducible.  Both families keep
their natural column scale, and signals have standard normal nonzeros, as
in the paper's experiments.  SensingMatrix and SparseSignal each keep a
read-only copy of the arrays they are given, so the caller's arrays keep
their flags and later writes to them do not reach the value.  Both
compare and hash by identity; compare their arrays with np.array_equal.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .penalty import _finite_number


def _rng(seed: int) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master: int, *parts) -> int:
    """Deterministic 64-bit sub-stream seed from a master seed and tags.

    Strings are folded in via SHA-256 so labels hash identically across
    processes and platforms; distinct tag tuples give independent streams.
    """
    ints = [int(master) & 0xFFFFFFFFFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            ints.append(int.from_bytes(digest[:8], "little"))
        else:
            ints.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Dense measurement matrix with finite entries, read-only."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-D array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _as_array(A: SensingMatrix | np.ndarray) -> np.ndarray:
    """The entries of a SensingMatrix, or any array-like as floats."""
    return A.entries if isinstance(A, SensingMatrix) else np.asarray(A, float)


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """Ground-truth vector, finite and exactly zero off its support; the
    support holds strictly increasing integer indices into the vector."""

    vector: np.ndarray
    support: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=float)
        if vec.ndim != 1 or not np.all(np.isfinite(vec)):
            raise ValueError("vector must be a 1-D array of finite values")
        sup = np.array(self.support)
        if sup.dtype.kind not in "iu":  # a float would truncate silently
            raise ValueError(f"support must hold integers, got dtype "
                             f"{sup.dtype}")
        sup = sup.astype(int, copy=False)
        if (sup.ndim != 1 or np.any(np.diff(sup) <= 0)
                or np.any((sup < 0) | (sup >= vec.size))):
            raise ValueError(f"support must be strictly increasing indices "
                             f"in [0, {vec.size})")
        off = np.setdiff1d(np.arange(vec.size), sup)
        if np.any(vec[off] != 0.0):
            raise ValueError("vector has nonzeros off the declared support")
        vec.setflags(write=False)
        sup.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "support", sup)

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


@contextmanager
def _allocating(M: int, N: int):
    """The block that builds an M x N matrix, for positive M and N.  A
    matrix too large to allocate raises a ValueError naming M and N
    instead of numpy's MemoryError."""
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    try:
        if int(M) * int(N) > np.iinfo(np.intp).max // 8:
            raise MemoryError  # more bytes than numpy can index
        yield
    except MemoryError:
        raise ValueError(f"an M x N matrix of floats does not fit in "
                         f"memory at M={M}, N={N}") from None


def gen_gaussian(M: int, N: int, r: float, seed: int) -> SensingMatrix:
    """Rows i.i.d. from N(0, (1-r) I + r J); r = 0 is the classic i.i.d.
    case."""
    if not (0.0 <= r < 1.0):
        raise ValueError("correlation r must lie in [0, 1)")
    with _allocating(M, N):
        rng = _rng(seed)
        z = rng.standard_normal((M, N))
        g = rng.standard_normal((M, 1))
        entries = np.sqrt(1.0 - r) * z + np.sqrt(r) * g
        return SensingMatrix(entries=entries)


def gen_dct(M: int, N: int, F: float, seed: int) -> SensingMatrix:
    """Over-sampled DCT columns sharing one random frequency vector."""
    if not (F > 0 and _finite_number(F)):
        raise ValueError(f"frequency parameter F must be positive and "
                         f"finite, got {F!r}")
    with _allocating(M, N):
        # the phases 2 pi i w / F, i < N and w < 1, must stay finite
        if not math.isfinite(2.0 * math.pi * (N - 1) / F):
            raise ValueError(f"frequency parameter F is too small for "
                             f"N={N}: the phases overflow, got {F!r}")
        rng = _rng(seed)
        w = rng.random(M)
        idx = np.arange(N)
        entries = np.cos(2.0 * np.pi * np.outer(w, idx) / F) / np.sqrt(M)
        return SensingMatrix(entries=entries)


def coherence(A: SensingMatrix | np.ndarray) -> float:
    """Largest |cos angle| between two distinct columns, in [0, 1]."""
    entries = _as_array(A)
    norms = np.linalg.norm(entries, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("matrix has an all-zero column")
    G = np.abs((entries / norms).T @ (entries / norms))
    np.fill_diagonal(G, 0.0)
    return float(min(G.max(), 1.0))


def gen_signal(N: int, s: int, seed: int) -> SparseSignal:
    """Uniformly random support of size s with i.i.d. standard normal
    nonzeros."""
    if not (1 <= s <= N):
        raise ValueError("sparsity s must satisfy 1 <= s <= N")
    rng = _rng(seed)
    support = rng.choice(N, size=s, replace=False)
    vec = np.zeros(N)
    vec[support] = rng.standard_normal(s)
    return SparseSignal(vector=vec, support=np.sort(support))


def save_matrix_csv(A: SensingMatrix | np.ndarray, path: str) -> None:
    """Write the plain-text matrix format: header line "M,N", then M rows.

    Values carry 17 significant digits (``%.17g``, the bytes of
    ``f"{v:.17g}"``), enough for exact float64 round-trips.  One row is
    formatted at a time, so memory stays at one row of text.
    """
    entries = _as_array(A)
    M, N = entries.shape
    row_fmt = ",".join(["%.17g"] * N) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M},{N}\n")
        for row in entries:
            fh.write(row_fmt % tuple(row.tolist()))


def load_matrix_csv(path: str) -> SensingMatrix:
    """Parse the format written by :func:`save_matrix_csv`.

    Rows go through numpy's C parser, which rounds correctly, so every
    value written by :func:`save_matrix_csv` reads back bit for bit.  A
    value is a decimal float with optional sign, fraction and exponent
    (``-1.5e-3``, ``.5``, ``7``), spaces or tabs around it allowed; ``inf``
    and ``nan`` parse but are rejected as non-finite.  Underscores
    (``1_0``, also in the header), hex and ``#`` comments are errors, and
    the header must hold two positive integers.
    Blank lines are skipped and CRLF endings accepted.  Any malformed file
    raises ValueError naming the path, and a bad row also its 1-based line
    (counting the header and blank lines).
    """
    # a non-ASCII byte becomes U+FFFD, so it fails to parse on its line
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip()
        try:
            if "_" in header:  # int() takes "2_0", as float() takes "1_0"
                raise ValueError(header)
            M, N = (int(tok) for tok in header.split(","))
            if M < 1 or N < 1:
                raise ValueError(header)
        except ValueError as exc:
            raise ValueError(f"bad matrix header {header!r} in {path}") from exc
        entries = _parse_rows((ln for ln in fh if not ln.isspace()),
                              path, N, first_line=2)
    if len(entries) != M:
        raise ValueError(f"{path}: expected {M} rows, got {len(entries)}")
    try:
        return SensingMatrix(entries=entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_vector(path: str) -> np.ndarray:
    """Parse a vector file: one value per line, each value and each bad
    line as in :func:`load_matrix_csv`."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = [ln for ln in fh if not ln.isspace()]
    if not lines:
        raise ValueError(f"no values found in {path}")
    values = _parse_rows(lines, path, 1, first_line=1)[:, 0]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: values must be finite")
    return values


def _parse_rows(lines, path: str, n: int, first_line: int) -> np.ndarray:
    """Rows of n comma-separated values; ``lines`` are the nonblank lines
    of ``path`` from its 1-based line ``first_line`` on.  No lines give
    no rows."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:  # np.loadtxt would warn that it found no data
        return np.empty((0, n))
    try:
        rows = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                          comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(_bad_line(path, n, first_line)
                         or f"{path}: {exc}") from exc
    if rows.shape[1] != n:
        raise ValueError(_bad_line(path, n, first_line))
    return rows


def _bad_line(path: str, N: int, first_line: int) -> str | None:
    """Name the first row, from line ``first_line`` on, of a file that
    does not parse as N values.

    Only runs once a read has failed, so it may scan in Python.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = itertools.islice(fh, first_line - 1, None)
        for lineno, line in enumerate(lines, start=first_line):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            if len(toks) != N:
                return f"{path}:{lineno}: expected {N} values, got {len(toks)}"
            for tok in toks:
                try:
                    if "_" in tok:  # float() takes "1_0", the C parser not
                        raise ValueError(tok)
                    float(tok)
                except ValueError:
                    return f"{path}:{lineno}: bad value {tok.strip()!r}"
    return None
