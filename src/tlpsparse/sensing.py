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
Every function that takes a matrix uses a SensingMatrix as it is and
makes any other array one (one copy, in C order), so the matrix rule is
checked in one place and the caller's memory layout moves no result.
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
    """Dense measurement matrix with finite entries, read-only, C order."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float, order="C")
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-D array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _as_matrix(A, name: str = "A") -> SensingMatrix:
    """``A`` itself if it is a SensingMatrix, else the SensingMatrix it
    becomes (one copy); a ValueError names ``name``."""
    if isinstance(A, SensingMatrix):
        return A
    try:
        return SensingMatrix(entries=A)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


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


FAMILIES = ("gaussian", "dct")


def _check_family(family: str, N: int, param, name: str) -> None:
    """Raise ValueError, naming ``param`` as ``name``, unless ``family`` is
    in FAMILIES and ``param`` in its range for N columns: gaussian r in
    [0, 1), dct F > 0 and finite, with finite phases 2 pi (N-1) / F."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "gaussian" and not 0 <= param < 1:
        raise ValueError(f"{name} must lie in [0, 1) for family gaussian, "
                         f"got {param!r}")
    if family == "dct" and not (param > 0 and _finite_number(param)):
        raise ValueError(f"{name} must be positive and finite for family "
                         f"dct, got {param!r}")
    if family == "dct" and not math.isfinite(2 * math.pi * (N - 1) / param):
        raise ValueError(f"{name} is too small for N={N}: the phases "
                         f"overflow, got {param!r}")


def gen_gaussian(M: int, N: int, r: float, seed: int) -> SensingMatrix:
    """Rows i.i.d. from N(0, (1-r) I + r J); r = 0 is the classic i.i.d.
    case."""
    with _allocating(M, N):
        _check_family("gaussian", N, r, "correlation r")
        rng = _rng(seed)
        z = rng.standard_normal((M, N))
        g = rng.standard_normal((M, 1))
        entries = np.sqrt(1.0 - r) * z + np.sqrt(r) * g
        return SensingMatrix(entries=entries)


def gen_dct(M: int, N: int, F: float, seed: int) -> SensingMatrix:
    """Over-sampled DCT columns sharing one random frequency vector."""
    with _allocating(M, N):
        _check_family("dct", N, F, "frequency parameter F")
        rng = _rng(seed)
        w = rng.random(M)
        idx = np.arange(N)
        entries = np.cos(2.0 * np.pi * np.outer(w, idx) / F) / np.sqrt(M)
        return SensingMatrix(entries=entries)


def coherence(A: SensingMatrix | np.ndarray) -> float:
    """Largest |cos angle| between two distinct columns, in [0, 1]."""
    entries = _as_matrix(A).entries
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


# The last matrix load_matrix_csv parsed or save_matrix_csv wrote, as
# (SHA-256 of its file's bytes, matrix).  One tuple, replaced whole, so a
# reader never pairs one key with another file's matrix and at most one
# entry is held, without a lock.
_last_read: tuple[bytes, SensingMatrix] | None = None


def _hashed(lines, sha):
    """Yield ``lines`` unchanged, feeding each to ``sha`` first."""
    for line in lines:
        sha.update(line.encode())
        yield line


# Values per block of rows that _format_rows lays out at once.
_BLOCK = 16384
# One value in _format_rows takes 48 bytes, six little-endian uint64
# words: byte 0 the sign, 1-5 the "0.000" of fixed notation below 1,
# digit i (of 17) at 6 + 2i with a slot for the point after it, 40-43 the
# "e-0d" suffix and _SEP the separator.  Bytes left 0 are deleted.
_WIDTH, _SEP = 48, 44
# per decimal exponent X in [-6, 15]: bytes 0-7 and 40-47 but the sign,
# the first digit, its point and the separator
_HEAD = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-X - 1), "little")
                  if -4 <= X < 0 else 0 for X in range(-6, 16)], "<u8")
_TAIL = np.array([int.from_bytes(b"e-0%d" % -X, "little") if X < -4 else 0
                  for X in range(-6, 16)], "<u8")
# the first k digits of a quad, k = 0..4
_LANES = np.array([(1 << 16 * k) - 1 for k in range(5)], "<u8")


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit chunk c: c as its four ASCII digits at bytes 0, 2,
    4 and 6 of one uint64; and, for chunk j = 0..3 (digits 4j+1..4j+4 of
    17), the index among the 17 of its last nonzero digit, 0 if c is 0."""
    c = np.arange(10000)
    digits = np.stack([c // p % 10 for p in (1000, 100, 10, 1)],
                      axis=1).astype("<u2")
    last = np.where(c > 0, 4 - np.argmax(digits[:, ::-1] != 0, axis=1), 0)
    last = np.where(last > 0, last + 4 * np.arange(4)[:, None], 0)
    return (digits + ord("0")).view("<u8").ravel(), last.astype(np.int8)


_QUADS, _LAST = _digit_tables()
# 10^k is exact in float64 for k <= 22; _veltkamp splits each in two
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half short enough that the product of
    two halves is exact in float64."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a: np.ndarray,
                 k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a 10^k exactly (Dekker's product), for
    0 <= k <= 22."""
    hi = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _outside(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """1 where hi + lo >= 10^17, -1 where it is below 10^16, else 0,
    compared exactly."""
    return (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))


def _format_rows(rows: np.ndarray) -> bytes:
    """The CSV lines of ``rows``: each value as ``f"{v:.17g}"``, commas
    between them and a newline after each row.

    A finite |v| in (1e-6, 1e16) is written from its 17 correctly rounded
    digits q = round(|v| 10^(16-X)) in [10^16, 10^17), X its decimal
    exponent, laid into fixed slots as ``%.17g`` prints them; every other
    value (zeros, subnormals and the rest) takes ``"%.17g" % v``.
    """
    v = rows.ravel()
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    X = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 15)
    hi, lo = _times_pow10(a, 16 - X)
    # log10 may miss by one near a power of ten; each fix moves X one
    # step toward the exponent that puts |v| 10^(16-X) in [10^16, 10^17)
    step = _outside(hi, lo)
    off = np.flatnonzero(step)
    while off.size:
        X[off] += step[off]
        hi[off], lo[off] = _times_pow10(a[off], 16 - X[off])
        step[off] = _outside(hi[off], lo[off])
        off = off[step[off] != 0]
    # hi >= 10^16 is an even integer, so rounding hi + lo half to even is
    # rounding lo; a carry into 10^17 moves the exponent up
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = q == 10 ** 17
    X += carry
    q[carry] = 10 ** 16

    # a lead digit and four 4-digit chunks; numpy's // by a scalar is
    # fast, its % is not
    lead = q // 10 ** 16
    rest = q - lead * 10 ** 16
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    c0, c2 = hi8 // 10 ** 4, lo8 // 10 ** 4
    chunks = (c0, hi8 - c0 * 10 ** 4, c2, lo8 - c2 * 10 ** 4)
    last = np.maximum(np.maximum(_LAST[0][chunks[0]], _LAST[1][chunks[1]]),
                      np.maximum(_LAST[2][chunks[2]], _LAST[3][chunks[3]]))
    keep = np.maximum(last, X)  # the integer part keeps its zeros (656390)
    words = np.empty((v.size, _WIDTH // 8), "<u8")
    words[:, 0] = (_HEAD[X + 6] | (v < 0).astype("<u8") * ord("-")
                   | (lead.astype("<u8") + ord("0")) << 48)
    for j, c in enumerate(chunks):
        words[:, 1 + j] = _QUADS[c] & _LANES[np.clip(keep - 4 * j, 0, 4)]
    words[:, 5] = _TAIL[X + 6] | ord(",") << 8 * (_SEP - 40)
    out = words.view(np.uint8)
    # the point follows digit X, or digit 0 in exponent notation (X < -4);
    # below 1 in fixed notation it is in the "0." prefix
    point = np.maximum(X, 0)
    has_point = (last > point) & ((X >= 0) | (X < -4))
    out.reshape(-1)[np.arange(0, out.size, _WIDTH) + 7 + 2 * point] = \
        has_point * ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % f for f in v[slow].tolist()]
        out[slow, :_SEP] = np.array(text, dtype=f"S{_SEP}").view(
            np.uint8).reshape(-1, _SEP)
    out.reshape(*rows.shape, _WIDTH)[:, -1, _SEP] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def save_matrix_csv(A: SensingMatrix | np.ndarray, path: str) -> None:
    """Write the plain-text matrix format: header line "M,N", then M rows.

    Values carry 17 significant digits (``%.17g``, the bytes of
    ``f"{v:.17g}"``), enough for exact float64 round-trips.  Rows are
    formatted by a vectorized formatter in blocks of about 16K values, so
    memory stays at one block of rows as text.

    ``A`` is checked as a :class:`SensingMatrix` before ``path`` is
    opened: an array that is not a nonempty 2-D array of finite values
    raises ValueError naming the path, and the file is neither created
    nor truncated.  A SensingMatrix is used as it is; any other array
    costs one copy, the SensingMatrix it becomes.

    Writing a file also holds its matrix for the next
    :func:`load_matrix_csv` of it in this process (see there).
    """
    global _last_read
    _last_read = None
    matrix = _as_matrix(A, name=path)
    M, N = matrix.shape
    step = max(1, _BLOCK // N)
    blocks = (_format_rows(matrix.entries[i:i + step])
              for i in range(0, M, step))
    sha = hashlib.sha256()
    with open(path, "wb") as fh:  # LF endings on every platform
        for chunk in itertools.chain((b"%d,%d\n" % (M, N),), blocks):
            sha.update(chunk)
            fh.write(chunk)
    _last_read = (sha.digest(), matrix)


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

    The last matrix read, or written by :func:`save_matrix_csv`, is kept,
    keyed by the SHA-256 of the file's bytes (so a CRLF copy of an LF file
    has a key of its own; for a write, the bytes written).  Reading a
    file whose bytes have that key returns the same read-only matrix
    without parsing it; a file whose bytes changed is always parsed
    again, whatever its size or modification time.  Each call still reads
    and hashes the whole file.  The matrix is held in this process only:
    a file written by another process is parsed on its first read here.
    The memory this costs is one M x N float matrix, held until a
    different file is read or written; a file that fails to parse, or a
    write that fails, leaves nothing held.
    """
    global _last_read
    last = _last_read
    if last is not None:  # with nothing held, no hash can hit
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
        if last[0] == sha.digest():
            return last[1]
        _last_read = None  # hold no second matrix while this one is parsed
    sha = hashlib.sha256()
    # a non-ASCII byte becomes U+FFFD, so it fails to parse on its line;
    # newline="" keeps line endings, so what parses is hashed byte for byte
    with open(path, encoding="ascii", errors="replace", newline="") as fh:
        lines = _hashed(fh, sha)
        header = next(lines, "").strip()
        try:
            if "_" in header:  # int() takes "2_0", as float() takes "1_0"
                raise ValueError(header)
            M, N = (int(tok) for tok in header.split(","))
            if M < 1 or N < 1:
                raise ValueError(header)
        except ValueError as exc:
            raise ValueError(f"bad matrix header {header!r} in {path}") from exc
        entries = _parse_rows((ln for ln in lines if not ln.isspace()),
                              path, N, first_line=2)
    if len(entries) != M:
        raise ValueError(f"{path}: expected {M} rows, got {len(entries)}")
    matrix = _as_matrix(entries, name=path)
    # keyed by the lines this parse read, should the file have changed
    _last_read = (sha.digest(), matrix)
    return matrix


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
