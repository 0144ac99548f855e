import re

import numpy as np
import pytest

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


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 9, (7, 5))
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
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
        back = load_matrix_csv(str(path)).entries
        assert np.array_equal(back.view(np.int64), A.view(np.int64))

    @pytest.mark.parametrize("shape", [(1, 9), (7, 1), (1, 1)])
    def test_round_trip_single_row_or_column(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        A = rng.standard_normal(shape)
        A.flat[0] = -0.0
        path = tmp_path / "a.csv"
        save_matrix_csv(A, str(path))
        back = load_matrix_csv(str(path)).entries
        assert back.shape == shape
        assert np.array_equal(back.view(np.int64), A.view(np.int64))


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
