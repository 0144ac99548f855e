import hashlib
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tlpsparse import sensing
from tlpsparse.sensing import (SensingMatrix, SparseSignal, coherence,
                               derive_seed, gen_dct, gen_gaussian, gen_signal,
                               load_matrix_csv, save_matrix_csv)


class TestGaussian:
    def test_deterministic(self):
        A = gen_gaussian(16, 32, 0.4, seed=77)
        B = gen_gaussian(16, 32, 0.4, seed=77)
        assert np.array_equal(A.entries, B.entries)

    def test_iid_case_entry_variance(self):
        A = gen_gaussian(64, 256, 0.0, seed=7)
        assert A.entries.var() == pytest.approx(1.0, abs=0.2)

    def test_intercolumn_correlation(self):
        A = gen_gaussian(200, 2, 0.8, seed=1)
        corr = np.corrcoef(A.entries.T)[0, 1]
        assert corr == pytest.approx(0.8, abs=0.1)

    def test_row_covariance_matches_model(self):
        for r in (0.0, 0.4, 0.8):
            A = gen_gaussian(10_000, 8, r, seed=5)
            emp = np.cov(A.entries.T, bias=True)
            want = (1.0 - r) * np.eye(8) + r
            assert np.max(np.abs(emp - want)) < 0.05

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            gen_gaussian(4, 8, -0.1, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian(4, 8, 1.0, seed=0)


class TestDct:
    def test_deterministic(self):
        A = gen_dct(32, 100, 10.0, seed=2)
        B = gen_dct(32, 100, 10.0, seed=2)
        assert np.array_equal(A.entries, B.entries)

    def test_entry_range_and_first_column(self):
        A = gen_dct(100, 300, 8.0, seed=4)
        bound = 1.0 / np.sqrt(100)
        assert np.all(np.abs(A.entries) <= bound + 1e-15)
        assert np.allclose(A.entries[:, 0], bound)

    def test_high_frequency_is_coherent(self):
        A = gen_dct(100, 1000, 20.0, seed=3)
        assert coherence(A) >= 0.999

    def test_low_frequency_less_coherent(self):
        low = coherence(gen_dct(100, 1500, 2.0, seed=5))
        high = coherence(gen_dct(100, 1500, 20.0, seed=5))
        assert low < high

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            gen_dct(4, 8, 0.0, seed=0)

    @pytest.mark.parametrize("F", [np.inf, np.nan, -np.inf, pytest.param(
        10 ** 400, id="int-too-large-for-a-float")])
    def test_rejects_non_finite_frequency(self, F):
        with pytest.raises(ValueError, match="F must be positive and finite"):
            gen_dct(4, 8, F, seed=0)


@pytest.mark.parametrize("gen", [lambda seed: gen_gaussian(4, 8, 0.0, seed),
                                 lambda seed: gen_dct(4, 8, 10.0, seed),
                                 lambda seed: gen_signal(8, 2, seed)],
                         ids=["gaussian", "dct", "signal"])
def test_generators_reject_bad_seed(gen):
    with pytest.raises(ValueError,
                       match="seed must be a non-negative integer, got -1"):
        gen(-1)
    for bad in (1.5, True, None):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            gen(bad)
    gen(np.int64(3))  # numpy integers are integers


# arrays a SensingMatrix refuses, with what it says
BAD_MATRICES = pytest.mark.parametrize("A, says", [
    ([[np.nan, 1.0]], "entries must be finite"),
    (np.empty((0, 3)), "entries must be a nonempty 2-D array"),
    (np.ones(3), "entries must be a nonempty 2-D array")],
    ids=["nan", "no_rows", "1d"])


class TestCoherence:
    def test_orthonormal_columns(self):
        assert coherence(np.eye(6)) == 0.0

    def test_duplicate_columns(self):
        A = np.random.default_rng(0).standard_normal((5, 3))
        A[:, 2] = A[:, 0]
        assert coherence(A) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_column(self):
        A = np.eye(4)
        A[:, 1] = 0.0
        with pytest.raises(ValueError):
            coherence(A)

    @BAD_MATRICES
    def test_rejects_what_a_sensing_matrix_would(self, A, says):
        with pytest.raises(ValueError, match=re.escape(f"A: {says}")):
            coherence(A)


class TestSignal:
    def test_fully_dense(self):
        sig = gen_signal(10, 10, seed=1)
        assert np.count_nonzero(sig.vector) == 10

    def test_single_spike(self):
        sig = gen_signal(256, 1, seed=2)
        assert np.count_nonzero(sig.vector) == 1
        assert sig.sparsity == 1

    def test_deterministic(self):
        s1 = gen_signal(64, 5, seed=11)
        s2 = gen_signal(64, 5, seed=11)
        assert np.array_equal(s1.vector, s2.vector)

    def test_exact_zeros_off_support(self):
        sig = gen_signal(50, 7, seed=9)
        off = np.setdiff1d(np.arange(50), sig.support)
        assert np.all(sig.vector[off] == 0.0)
        assert np.all(sig.vector[sig.support] != 0.0)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            gen_signal(10, 11, seed=0)
        with pytest.raises(ValueError):
            gen_signal(10, 0, seed=0)

    @pytest.mark.parametrize("vector, support, says", [
        (np.zeros(10), [100], "support must be strictly increasing indices "
                              "in [0, 10)"),
        (np.zeros(10), [-1], "support must be strictly increasing"),
        ([1.0, 0.0, 0.0], [0, 0], "support must be strictly increasing"),
        ([0.0, 1.0, 2.0], [2, 1], "support must be strictly increasing"),
        ([0.0, 1.0, 0.0], [1.5], "support must hold integers, got dtype "
                                 "float64"),
        ([0.0, 1.0, 0.0], [False, True], "support must hold integers"),
        ([np.nan, 0.0, 0.0], [0], "vector must be a 1-D array of finite"),
        ([np.inf, 0.0, 0.0], [0], "vector must be a 1-D array of finite"),
        ([[1.0, 0.0], [0.0, 0.0]], [0], "vector must be a 1-D array"),
        ([1.0, 2.0, 0.0], [0], "vector has nonzeros off the declared support")],
        ids=["index-past-N", "negative-index", "repeated-index", "decreasing",
             "float-index", "bool-index", "nan", "inf", "2-D", "off-support"])
    def test_signal_rejects_what_its_docstring_rules_out(self, vector,
                                                         support, says):
        with pytest.raises(ValueError, match=re.escape(says)):
            SparseSignal(vector=vector, support=support)


def drop_held():
    """Forget the matrix the last save or load held, so the next load
    parses its file."""
    sensing._last_read = None


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 9, (7, 5))
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        drop_held()
        back = load_matrix_csv(str(path))
        assert np.array_equal(back.entries, A)
        assert back.shape == (7, 5)

    def test_header_format(self, tmp_path):
        path = tmp_path / "a.csv"
        save_matrix_csv(np.eye(3), str(path))
        assert path.read_text().splitlines()[0] == "3,3"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,header\n1,2,3\n")
        with pytest.raises(ValueError):
            load_matrix_csv(str(path))

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3\n1,2,3\n1,2\n")
        with pytest.raises(ValueError):
            load_matrix_csv(str(path))

    # every error names the file; a bad row names its 1-based line,
    # counting the header and blank lines
    @pytest.mark.parametrize("text, says", [
        ("2,3\n1,2,3\n1,2\n", ":3: expected 3 values, got 2"),
        ("2,3\n\n1,2,3\n \n1,2\n", ":5: expected 3 values, got 2"),
        ("2,3\n1,2\n3,4\n", ":2: expected 3 values, got 2"),
        ("1,3\n1,2,3,\n", ":2: expected 3 values, got 4"),
        ("2,3\n1,2,3\n1,x,3\n", ":3: bad value 'x'"),
        ("1,2\n1_0,2\n", ":2: bad value '1_0'"),
        ("1,2\n1,2\xe9\n", ":2: bad value '2\ufffd'"),
        ("2,3\n# note\n1,2,3\n4,5,6\n", ":2: expected 3 values, got 1"),
        ("2,1\n# note\n1\n2\n", ":2: bad value '# note'"),
        ("3,2\n1,2\n3,4\n", ": expected 3 rows, got 2"),
        ("1,2\n1,2\n3,4\n", ": expected 1 rows, got 2"),
        ("1,2\nnan,1\n", ": entries must be finite")])
    def test_malformed_file_names_path_and_line(self, tmp_path, text, says):
        path = tmp_path / "rag.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}{says}")):
            load_matrix_csv(str(path))

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("2,2\n\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 2 "
                                                       f"rows, got 0")):
            load_matrix_csv(str(path))

    def test_bad_header_names_path(self, tmp_path):
        # the header must be two positive integers
        path = tmp_path / "a.csv"
        for header in ("2;3", "-1,3", "2,-3", "0,3", "2,0"):
            path.write_text(f"{header}\n1,2,3\n1,2,3\n")
            with pytest.raises(ValueError, match=re.escape(
                    f"bad matrix header '{header}' in {path}")):
                load_matrix_csv(str(path))

    def test_header_underscores_rejected_like_values(self, tmp_path):
        # int() would read "2_0" as 20 and fail later on the row count
        path = tmp_path / "a.csv"
        path.write_text("2_0,3\n1,2,3\n1,2,3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"bad matrix header '2_0,3' in {path}")):
            load_matrix_csv(str(path))

    def test_blank_lines_crlf_and_spaces_load(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"2,3\r\n\r\n 1 ,\t-2.5e-1, +3 \r\n  \r\n.5,7,-0\r\n\n")
        back = load_matrix_csv(str(path)).entries
        assert np.array_equal(back, [[1.0, -0.25, 3.0], [0.5, 7.0, 0.0]])
        assert np.signbit(back[1, 2])

    def test_writer_bytes_match_per_value_format(self, tmp_path):
        awkward = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 60, 0.1,
                   *(10.0 ** np.arange(-300, 301, 50)),
                   *(-np.pi * 10.0 ** np.arange(-300, 301, 60))]
        A = np.array(awkward).reshape(2, 17)
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        expected = "2,17\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in A)
        assert path.read_bytes() == expected.encode("ascii")
        drop_held()
        back = load_matrix_csv(str(path)).entries
        assert np.array_equal(back.view(np.int64), A.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_writer_bytes_match_per_value_format_hypothesis(
            self, tmp_path_factory, data):
        shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 8)))
        A = np.array(data.draw(st.lists(WRITER_VALUES, min_size=shape[0]
                                        * shape[1], max_size=shape[0]
                                        * shape[1]))).reshape(shape)
        path = tmp_path_factory.getbasetemp() / "bytes.csv"
        save_matrix_csv(A, str(path))
        assert path.read_bytes() == per_value(A)

    def test_writer_bytes_match_per_value_format_edges(self, tmp_path):
        # every edge class with both signs, and 20000 random finite bit
        # patterns, most of them outside the vectorized range
        rng = np.random.default_rng(29)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64)
        noise = bits.view(float)[np.isfinite(bits.view(float))]
        for A in (np.concatenate([EDGES, -EDGES]).reshape(2, -1),
                  noise[:noise.size // 50 * 50].reshape(-1, 50)):
            path = tmp_path / "a.csv"
            save_matrix_csv(A, str(path))
            assert path.read_bytes() == per_value(A)

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 9), (9, 1), (2, sensing._BLOCK - 1), (2, sensing._BLOCK),
        (2, sensing._BLOCK + 1), (16, 1024), (17, 1024), (33, 1024),
        (sensing._BLOCK + 1, 1)])
    def test_writer_bytes_across_block_boundaries(self, tmp_path, shape):
        # values from every class in each block; the held key is the
        # SHA-256 of the bytes written, as a later load computes it
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        A = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 19, shape)
        A.flat[::7] = rng.choice(EDGES, A.flat[::7].size)
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        assert path.read_bytes() == per_value(A)
        assert sensing._last_read[0] == hashlib.sha256(
            path.read_bytes()).digest()

    @pytest.mark.parametrize("shape", [(1, 9), (7, 1), (1, 1)])
    def test_round_trip_single_row_or_column(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        A = rng.standard_normal(shape)
        A.flat[0] = -0.0
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        drop_held()
        back = load_matrix_csv(str(path)).entries
        assert back.shape == shape
        assert np.array_equal(back.view(np.int64), A.view(np.int64))

    @BAD_MATRICES
    def test_writer_rejects_what_the_reader_would(self, tmp_path, A, says):
        # checked before the path is opened: no file is made, none cut
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("1,1\n7\n")
        for path in (new, old):
            with pytest.raises(ValueError, match=re.escape(f"{path}: {says}")):
                save_matrix_csv(A, str(path))
        assert not new.exists()
        assert old.read_text() == "1,1\n7\n"


def per_value(A) -> bytes:
    """The file the writer promises for A: each value as f"{v:.17g}"."""
    return (f"{A.shape[0]},{A.shape[1]}\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n"
        for row in A.tolist())).encode("ascii")


def dyadic_tie(k: int, m: int) -> float:
    """An odd multiple of 2^-k whose decimal expansion has 18 significant
    digits, the last a 5: %.17g must round it half to even."""
    lo = -(-10 ** 17 // 5 ** k)
    hi = min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)  # exact in float64
    return ((lo + m % (hi - lo)) | 1) * 2.0 ** -k


# The value classes of the vectorized writer and its fallback: signed
# zeros, subnormals, the largest double, 10^k and its neighbours (the
# literals 9.9999999999999999e(k-1) read as 10^k, the carry case), integers
# with trailing zeros, and dyadic ties.
EDGES = np.array(
    [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 656390.0, 100.0, 1200.0, 1e15 + 2.0,
     9999999999999998.0, 123456789012345680.0, 1e16, 1e22, 2.0 ** 53]
    + [f for k in range(-7, 18) for f in (
        float(f"1e{k}"), float(f"9.9999999999999999e{k - 1}"),
        math.nextafter(float(f"1e{k}"), 0.0),
        math.nextafter(float(f"1e{k}"), math.inf))]
    + [dyadic_tie(k, m) for k in range(2, 25) for m in (0, 1, 12345)])
# any finite double, drawn from all bit patterns, or near the edges
WRITER_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(
            math.isfinite),
    st.floats(-1e17, 1e17),
    st.sampled_from(EDGES.tolist()).flatmap(
        lambda f: st.sampled_from([f, -f])),
    st.builds(dyadic_tie, st.integers(2, 24), st.integers(0, 10 ** 9)))


def bits(a):
    """The bytes of a float array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestMatrixCsvCache:
    """load_matrix_csv keeps the last matrix read, keyed by its file's
    bytes."""

    @staticmethod
    def fresh(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def test_hit_returns_the_same_read_only_matrix(self, tmp_path):
        A = np.random.default_rng(3).standard_normal((5, 7))
        A[1, 2], A[3, 0] = -0.0, 0.0
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        drop_held()
        first = load_matrix_csv(str(path))
        again = load_matrix_csv(str(path))
        assert again is first
        assert not again.entries.flags.writeable
        assert np.array_equal(bits(again.entries), bits(self.fresh(path)))
        assert np.signbit(again.entries[1, 2])
        assert not np.signbit(again.entries[3, 0])

    def test_key_is_the_text_not_size_or_mtime(self, tmp_path):
        path = tmp_path / "a.csv"
        old, new = "2,2\n1.5,2.5\n3.5,4.5\n", "2,2\n-0.,7.5\n8.5,9.5\n"
        assert len(old) == len(new)
        path.write_text(old)
        stat = path.stat()
        first = load_matrix_csv(str(path))
        # same length, same mtime, other values (one of them a signed zero)
        with open(path, "r+", encoding="ascii") as fh:
            fh.write(new)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        second = load_matrix_csv(str(path))
        assert second is not first
        assert np.array_equal(bits(second.entries),
                              bits([[-0.0, 7.5], [8.5, 9.5]]))
        assert np.array_equal(first.entries, [[1.5, 2.5], [3.5, 4.5]])

    def test_malformed_file_is_never_cached(self, tmp_path):
        # the same error on every call, and a good text read after a bad
        # one is parsed again: nothing stale is held
        path = tmp_path / "a.csv"
        good, other = "2,2\n1,2\n3,4\n", "2,2\n5,6\n7,8\n"
        bad = "2,2\n1,2\n3,x\n"
        says = f"^{re.escape(str(path))}:3: bad value 'x'$"
        for text in (good, bad, bad, bad, good, bad, other):
            path.write_text(text)
            if text == bad:
                with pytest.raises(ValueError, match=says):
                    load_matrix_csv(str(path))
            else:
                back = load_matrix_csv(str(path)).entries
                assert np.array_equal(bits(back), bits(self.fresh(path)))

    def test_crlf_copy_loads_equal_values(self, tmp_path):
        A = np.random.default_rng(4).standard_normal((4, 3))
        A[0, 0] = -0.0
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        cr = tmp_path / "cr.csv"
        save_matrix_csv(A, str(lf))
        drop_held()
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        for path in (lf, crlf, cr, lf, crlf, cr):
            assert np.array_equal(bits(load_matrix_csv(str(path)).entries),
                                  bits(A))

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_cold_load_is_keyed_by_the_file_bytes(self, tmp_path, ending):
        # LF, CRLF and lone-CR files each have a key of their own, the
        # SHA-256 of exactly their bytes, and hit on the next load
        path = tmp_path / "a.csv"
        save_matrix_csv(np.random.default_rng(5).standard_normal((3, 4)),
                        str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        drop_held()
        cold = load_matrix_csv(str(path))
        assert sensing._last_read[0] == hashlib.sha256(
            path.read_bytes()).digest()
        assert load_matrix_csv(str(path)) is cold


# the values %.17g and the parser find hardest: signed zeros, the smallest
# subnormals and the largest finite doubles
EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308])


class TestMatrixCsvWriteThrough:
    """save_matrix_csv holds the matrix it wrote, keyed by the bytes it
    wrote, so the next load of the unchanged file parses nothing."""

    def test_load_after_save_returns_the_held_matrix(self, tmp_path,
                                                      monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("parsed")

        monkeypatch.setattr(sensing, "_parse_rows", no_parse)
        path = tmp_path / "a.csv"
        A = gen_gaussian(5, 7, 0.0, seed=8)
        save_matrix_csv(A, str(path))
        assert load_matrix_csv(str(path)) is A
        raw = np.random.default_rng(9).standard_normal((3, 4))
        save_matrix_csv(raw, str(path))
        back = load_matrix_csv(str(path))
        assert back is load_matrix_csv(str(path))
        assert not back.entries.flags.writeable
        assert np.array_equal(bits(back.entries), bits(raw))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_held_matrix_equals_a_cold_parse(self, tmp_path_factory, data):
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        scale = 10.0 ** data.draw(st.integers(-300, 300))
        A = data.draw(arrays(float, shape, elements=st.floats(-10, 10)))
        # -1 keeps the scaled value, k >= 0 puts EXTREMES[k] in its place
        pick = data.draw(arrays(int, shape, elements=st.integers(
            -1, len(EXTREMES) - 1)))
        A = np.where(pick < 0, A * scale, EXTREMES[np.maximum(pick, 0)])
        path = tmp_path_factory.getbasetemp() / "held.csv"
        save_matrix_csv(A, str(path))
        key, held = sensing._last_read
        drop_held()
        cold = load_matrix_csv(str(path))
        assert sensing._last_read[0] == key
        assert np.array_equal(bits(held.entries), bits(cold.entries))
        assert np.array_equal(bits(held.entries), bits(A))
        assert held.entries.flags.c_contiguous

    def test_file_rewritten_after_the_save_is_parsed_again(self, tmp_path):
        path = tmp_path / "a.csv"
        A = SensingMatrix(entries=[[1.5, 2.5], [3.5, 4.5]])
        save_matrix_csv(A, str(path))
        stat = path.stat()
        # same length, same mtime, other values (one of them a signed zero)
        with open(path, "r+", encoding="ascii") as fh:
            fh.write(path.read_text().replace("2.5", "-0."))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        back = load_matrix_csv(str(path))
        assert back is not A
        assert np.array_equal(bits(back.entries),
                              bits([[1.5, -0.0], [3.5, 4.5]]))

    def test_failed_save_holds_nothing(self, tmp_path):
        path = tmp_path / "a.csv"
        save_matrix_csv(np.eye(2), str(path))
        assert load_matrix_csv(str(path)) is sensing._last_read[1]
        with pytest.raises(OSError):
            save_matrix_csv(np.eye(2), str(tmp_path))  # a directory
        assert sensing._last_read is None

    def test_fortran_ordered_input_is_held_c_ordered(self, tmp_path):
        # a SensingMatrix holds C order whatever it was given, so the held
        # matrix is what a parse gives, layout included
        path = tmp_path / "a.csv"
        A = np.asfortranarray(np.random.default_rng(3).standard_normal((4, 5)))
        save_matrix_csv(A, str(path))
        _, held = sensing._last_read
        assert load_matrix_csv(str(path)) is held
        drop_held()
        cold = load_matrix_csv(str(path)).entries
        assert held.entries.flags.c_contiguous and cold.flags.c_contiguous
        assert np.array_equal(bits(held.entries), bits(cold))
        assert np.array_equal(bits(held.entries), bits(A))


# each array a value type holds, with the caller's array it is built from
HELD = {
    "entries": (np.arange(1.0, 7.0).reshape(2, 3),
                lambda a: SensingMatrix(entries=a).entries),
    "vector": (np.arange(1.0, 4.0),
               lambda a: SparseSignal(vector=a, support=np.arange(3)).vector),
    "support": (np.arange(3),
                lambda a: SparseSignal(vector=np.ones(3), support=a).support),
}


class TestMisc:
    def test_matrix_is_immutable(self):
        A = gen_gaussian(4, 6, 0.0, seed=1)
        with pytest.raises(ValueError):
            A.entries[0, 0] = 5.0

    @pytest.mark.parametrize("form", [
        "writeable", "read_only", "read_only_view", "list"])
    @pytest.mark.parametrize("held", HELD)
    def test_value_types_hold_their_own_read_only_copy(self, held, form):
        # the caller's flags stay as they were, the value's array is
        # read-only, and later writes to the caller's memory (through the
        # writeable parent of a read-only view, or after a read-only
        # array is made writeable again) do not reach the value
        want, build = HELD[held]
        data = want.copy()
        if form == "list":
            given = data.tolist()
        else:
            given = data.view() if form == "read_only_view" else data
            given.setflags(write=form == "writeable")
        value = build(given)
        assert not value.flags.writeable
        if form == "list":
            given[0] = np.full_like(data[0], 7).tolist()
        else:
            assert given.flags.writeable == (form == "writeable")
            data.setflags(write=True)
            data.flat[0] = 7
        assert np.array_equal(value, want)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            SensingMatrix(entries=np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError):
            SensingMatrix(entries=np.ones(3))

    def test_derive_seed_separates_streams(self):
        s0 = derive_seed(42, "tlp(a=1,p=0.7)", 14, 0, 0)
        s1 = derive_seed(42, "tlp(a=1,p=0.7)", 14, 0, 1)
        s2 = derive_seed(42, "tlp(a=1,p=0.7)", 14, 1, 0)
        s3 = derive_seed(42, "lq(q=0.5)", 14, 0, 0)
        assert len({s0, s1, s2, s3}) == 4
        assert derive_seed(42, "tlp(a=1,p=0.7)", 14, 0, 0) == s0
