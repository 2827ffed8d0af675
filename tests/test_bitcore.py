"""Bitstring indexing, UDISJ, and the val statistic."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import bitcore
from liftcert.bitcore import (
    MAX_DENSE_N,
    BitString,
    SupportMatrix,
    all_strings,
    cor_slack,
    intersection_size,
    intersection_table,
    is_atom_pattern,
    matrix_to_csv,
    matrix_to_json,
    support_block,
    udisj,
    val,
    val_block,
    value_codes,
)
from liftcert.covering import maximal_support


def bitstrings(max_width: int = 8) -> st.SearchStrategy[BitString]:
    return st.integers(1, max_width).flatmap(
        lambda w: st.integers(0, 2**w - 1).map(lambda v: BitString(w, v))
    )


def same_width_pairs(max_width: int = 8) -> st.SearchStrategy[tuple[BitString, BitString]]:
    return st.integers(1, max_width).flatmap(
        lambda w: st.tuples(
            st.integers(0, 2**w - 1).map(lambda v: BitString(w, v)),
            st.integers(0, 2**w - 1).map(lambda v: BitString(w, v)),
        )
    )


def from_entries(n: int, items: list[tuple[str, str, float]]) -> SupportMatrix:
    """The width-n matrix with the given (row text, column text, value)
    entries and zeros elsewhere."""
    values = np.zeros((1 << n, 1 << n))
    for row, col, v in items:
        values[int(row, 2), int(col, 2)] = v
    return SupportMatrix(n, values)


def antidiagonal_zero(m: SupportMatrix) -> BitString | None:
    """The lex-smallest a whose entry (a, complement a) is outside the
    support, or None if the whole antidiagonal is in it."""
    idx = np.arange(1 << m.n)
    zeros = np.flatnonzero(~m.support()[idx, idx[::-1]])
    return BitString(m.n, int(zeros[0])) if zeros.size else None


def small_matrices(max_n: int = 3) -> st.SearchStrategy[SupportMatrix]:
    """Matrices with entries from a few magnitudes, noise and exact zeros included."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0]), min_size=4**n, max_size=4**n
        ).map(lambda vs: SupportMatrix(n, np.reshape(vs, (2**n, 2**n))))
    )


class TestBitString:
    def test_lex_order_is_numeric_msb_first(self):
        assert [str(s) for s in all_strings(2)] == ["00", "01", "10", "11"]
        assert sorted(all_strings(2)) == all_strings(2)

    def test_text_round_trip(self):
        s = BitString.from_text("0110")
        assert s.width == 4 and s.value == 6
        assert str(s) == "0110"

    def test_unit_positions(self):
        assert str(BitString(3, 0b100)) == "100"
        assert str(BitString(3, 0b001)) == "001"
        assert BitString(3, 0b010).bit(2) == 1

    @pytest.mark.parametrize("i", [0, 4])
    def test_bit_position_outside_the_width_rejected(self, i):
        with pytest.raises(ValueError, match=rf"^position {i} outside \[1, 3\]$"):
            BitString(3, 0b010).bit(i)

    @given(bitstrings())
    def test_complement_involution(self, a: BitString):
        assert a.complement().width == a.width
        assert a.complement().complement() == a

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            BitString(2, 4)
        with pytest.raises(ValueError):
            BitString(17, 0)


class TestIntersectionAndConcat:
    def test_intersection_examples(self):
        assert intersection_size(BitString.from_text("00"), BitString.from_text("00")) == 0
        assert intersection_size(BitString.from_text("11"), BitString.from_text("01")) == 1
        ones5 = BitString(5, 0b11111)
        assert intersection_size(ones5, ones5) == 5

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intersection_size(BitString.from_text("0"), BitString.from_text("00"))

    @given(same_width_pairs(4), same_width_pairs(4))
    def test_intersection_additive_under_concat(self, xy, ab):
        x, y = xy
        a, b = ab
        xa = BitString(x.width + a.width, x.value << a.width | a.value)
        yb = BitString(y.width + b.width, y.value << b.width | b.value)
        assert intersection_size(xa, yb) == intersection_size(x, y) + intersection_size(a, b)


def submask_walk(n: int):
    """The disjoint pairs as the former generator listed them: for each row a,
    the submasks of its complement, walked down and then reversed."""
    for av in range(1 << n):
        mask = ~av & ((1 << n) - 1)
        subs, s = [mask], mask
        while s:
            s = (s - 1) & mask
            subs.append(s)
        for bv in reversed(subs):
            yield BitString(n, av), BitString(n, bv)


def disjoint_pairs(n: int) -> list[tuple[BitString, BitString]]:
    """The zeros of the intersection table in row-major order, as string pairs."""
    rows, cols = np.nonzero(intersection_table(n) == 0)
    return [(BitString(n, a), BitString(n, b)) for a, b in zip(rows.tolist(), cols.tolist())]


class TestDisjointPairs:
    """The zeros of ``intersection_table``, which ``val_block`` and the
    covering builders read as the disjoint pairs."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_submask_walk_in_order(self, n):
        assert disjoint_pairs(n) == list(submask_walk(n))

    def test_n1_listing(self):
        pairs = disjoint_pairs(1)
        assert [(str(a), str(b)) for a, b in pairs] == [("0", "0"), ("0", "1"), ("1", "0")]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_is_3_to_the_n(self, n):
        assert np.count_nonzero(intersection_table(n) == 0) == 3**n

    def test_lex_row_major_order(self):
        pairs = disjoint_pairs(3)
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antidiagonal_pairs_present(self, n):
        idx = np.arange(1 << n)
        # the complement of value a is 2^n - 1 - a
        assert (intersection_table(n)[idx, idx[::-1]] == 0).all()

    @pytest.mark.parametrize("n", [0, MAX_DENSE_N + 1])
    def test_width_outside_dense_range_rejected(self, n):
        # the disjoint pairs less one antidiagonal pair, read off the table
        with pytest.raises(ValueError):
            maximal_support(n, BitString(n, 0))


class TestUdisj:
    def test_n1_matrix(self):
        m = udisj(1)
        grid = [[m.value(a, b) for b in all_strings(1)] for a in all_strings(1)]
        assert grid == [[1, 1], [1, 0]]

    def test_intersection_two_entry(self):
        s11 = BitString.from_text("11")
        assert udisj(2).value(s11, s11) == 1  # (1 - 2)^2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_val_is_3_to_the_n(self, n):
        if n > 8:
            pytest.skip("dense cap")
        assert val(udisj(n)) == 3**n

    def test_zero_exactly_at_intersection_one(self):
        m = udisj(3)
        for a in all_strings(3):
            for b in all_strings(3):
                if intersection_size(a, b) == 1:
                    assert m.value(a, b) == 0
                else:
                    assert m.value(a, b) > 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            udisj(0)
        with pytest.raises(ValueError):
            udisj(11)


class TestCorSlack:
    def test_zero_row_always_one(self):
        z = BitString(4, 0)
        for b in all_strings(4):
            assert cor_slack(z, b) == 1

    def test_e1_against_itself(self):
        e1 = BitString(3, 0b100)
        assert cor_slack(e1, e1) == 0

    def test_matches_udisj_entrywise_n3(self):
        # two independent routes: explicit inner product vs (1 - a.b)^2
        m = udisj(3)
        for a in all_strings(3):
            for b in all_strings(3):
                assert cor_slack(a, b) == m.value(a, b)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^width mismatch: 2 vs 3$"):
            cor_slack(BitString(2, 0), BitString(3, 0))


class TestValAndPatterns:
    def test_val_zero_matrix(self):
        assert val(SupportMatrix(2, np.zeros((4, 4)))) == 0

    def test_val_counts_only_disjoint_support(self):
        # the 7 crosses at disjoint positions of the d=2 sparsity pattern with
        # full first row and first column (the '?' corner pair intersects twice
        # and must not count)
        items = [
            ("00", "00", 1.0),
            ("00", "01", 1.0),
            ("00", "10", 1.0),
            ("00", "11", 1.0),
            ("01", "00", 1.0),
            ("10", "00", 1.0),
            ("11", "00", 1.0),
            ("11", "11", 1.0),
        ]
        m = from_entries(2, items)
        assert val(m) == 7

    @pytest.mark.parametrize("n", range(1, 7))
    def test_udisj_is_atom_pattern(self, n):
        assert is_atom_pattern(udisj(n))

    def test_all_ones_is_not_atom_pattern(self):
        assert not is_atom_pattern(SupportMatrix(2, np.ones((4, 4))))

    def test_antidiagonal_zero_of_udisj_is_none(self):
        for n in range(1, 7):
            assert antidiagonal_zero(udisj(n)) is None

    def test_antidiagonal_zero_of_zero_matrix(self):
        assert antidiagonal_zero(SupportMatrix(2, np.zeros((4, 4)))) == BitString(2, 0)

    def test_antidiagonal_zero_lex_smallest(self):
        # positive at (00, 11) and (11, 00) only: 01 is the first zero
        m = from_entries(2, [("00", "11", 1.0), ("11", "00", 1.0)])
        assert antidiagonal_zero(m) == BitString.from_text("01")

    @given(small_matrices())
    def test_masks_match_per_entry_reference(self, m: SupportMatrix):
        pairs = [(a, b) for a in all_strings(m.n) for b in all_strings(m.n)]
        support = {(a, b) for a, b in pairs if m.value(a, b) > 0}
        assert {(a, b) for a, b in pairs if m.support()[a.value, b.value]} == support
        assert val(m) == sum(1 for a, b in support if intersection_size(a, b) == 0)
        assert is_atom_pattern(m) == all(
            intersection_size(a, b) != 1 for a, b in support
        )
        zeros = [a for a in all_strings(m.n) if (a, a.complement()) not in support]
        assert antidiagonal_zero(m) == (zeros[0] if zeros else None)


def assert_codes_give_back_bits(values: np.ndarray):
    codes, distinct = value_codes(values)
    table = np.array(distinct, dtype=values.dtype)
    bits = f"u{values.itemsize}"
    assert codes.shape == values.shape and len(distinct) == len(set(table.view(bits).tolist()))
    assert np.array_equal(table[codes].view(bits), values.view(bits))
    return codes, distinct


class TestValueCodes:
    @pytest.mark.parametrize("dtype", ["int64", "float64", "float32", "bool"])
    def test_empty(self, dtype):
        codes, distinct = assert_codes_give_back_bits(np.zeros(0, dtype=dtype))
        assert (codes.shape, distinct) == ((0,), [])

    def test_one_element(self):
        codes, distinct = assert_codes_give_back_bits(np.array([2.5]))
        assert (codes.tolist(), distinct) == ([0], [2.5])

    def test_two_d_keeps_the_shape(self):
        codes, distinct = assert_codes_give_back_bits(np.array([[9, 0, 1], [1, 9, 9]]))
        assert (codes.tolist(), distinct) == ([[2, 0, 1], [1, 2, 2]], [0, 1, 9])
        assert all(type(v) is int for v in distinct)

    def test_signed_zeros_get_their_own_codes(self):
        values = np.array([0.0, -0.0, 0.0, math.nan, -0.0, math.inf, 5e-324])
        codes, distinct = assert_codes_give_back_bits(values)
        assert codes[0] != codes[1] and [repr(v) for v in distinct] == [
            "0.0", "5e-324", "inf", "nan", "-0.0"]

    @given(st.lists(st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, math.nan])), max_size=30))
    def test_random_floats_come_back_bit_for_bit(self, values):
        assert_codes_give_back_bits(np.array(values, dtype=np.float64))


def reference_csv(m: SupportMatrix) -> str:
    """Dense CSV rendered row by row, one repr per entry: the reference for
    ``matrix_to_csv``."""
    labels = [str(s) for s in all_strings(m.n)]
    lines = ["," + ",".join(labels)]
    for label, row in zip(labels, m.values.tolist()):
        lines.append(label + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


#: Entries per dtype: the edge values (signed zeros, the smallest subnormal,
#: huge, inf, nan) next to arbitrary ones; negative entries are rejected.
CSV_VALUES = {
    "int64": st.integers(0, 2**63 - 1),
    "float64": st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e300, math.inf, math.nan]),
                         st.floats(min_value=0.0)),
    "float32": st.one_of(st.sampled_from([-0.0, 0.0, 1e-45, 3e38, math.inf, math.nan]),
                         st.floats(min_value=0.0, width=32)),
    "bool": st.booleans(),
}


@st.composite
def csv_matrices(draw) -> SupportMatrix:
    """Matrices at n = 0..4 over a few distinct values, so that values repeat."""
    n, dtype = draw(st.integers(0, 4)), draw(st.sampled_from(sorted(CSV_VALUES)))
    pool = draw(st.lists(CSV_VALUES[dtype], min_size=1, max_size=6))
    entries = draw(st.lists(st.sampled_from(pool), min_size=4**n, max_size=4**n))
    return SupportMatrix(n, np.array(entries, dtype=dtype).reshape(1 << n, 1 << n))


def csv_runs(monkeypatch) -> list[int]:
    """The run length of each ``matrix_to_csv`` call made after this."""
    runs, real = [], bitcore._csv_run

    def spy(side: int, k: int) -> int:
        runs.append(real(side, k))
        return runs[-1]

    monkeypatch.setattr(bitcore, "_csv_run", spy)
    return runs


class TestCsvRuns:
    """Four cells per piece once the k^4 run texts are no more than the runs."""

    @pytest.mark.parametrize("n, run", [(6, 1), (7, 4), (8, 4), (9, 4), (10, 4)])
    def test_udisj(self, monkeypatch, n, run):
        # UDISJ(n) has k = n distinct values at n >= 2: 6^4 = 1,296 exceeds
        # the 1,024 runs of n = 6, while 7^4 = 2,401 fits in 4,096.
        runs = csv_runs(monkeypatch)
        m = udisj(n)
        assert matrix_to_csv(m) == reference_csv(m)
        assert runs == [run]

    def test_many_distinct_floats_take_runs_of_one(self, monkeypatch):
        runs = csv_runs(monkeypatch)
        pool = np.linspace(0.0, 1.0, 23) ** 3 / 7
        m = SupportMatrix(7, np.random.default_rng(5).choice(pool, size=(128, 128)))
        assert len(value_codes(m.values)[1]) == 23
        assert matrix_to_csv(m) == reference_csv(m)
        assert runs == [1]

    def test_run_of_four_keeps_both_signed_zeros(self, monkeypatch):
        runs = csv_runs(monkeypatch)
        values = np.random.default_rng(6).choice([-0.0, 0.0, 0.5, 5e-324], size=(128, 128))
        values[0, :4] = [-0.0, 0.0, 0.0, -0.0]
        m = SupportMatrix(7, values)
        text = matrix_to_csv(m)
        assert text == reference_csv(m)
        assert text.splitlines()[1].startswith("0000000,-0.0,0.0,0.0,-0.0,")
        assert runs == [4]


class TestEmission:
    @settings(max_examples=200, deadline=None)
    @given(csv_matrices())
    def test_csv_matches_row_by_row_reference(self, m):
        assert matrix_to_csv(m) == reference_csv(m)

    def test_csv_keeps_signed_zeros_and_the_empty_label(self):
        m = SupportMatrix(1, np.array([[-0.0, 0.0], [0.0, -0.0]]))
        assert matrix_to_csv(m).splitlines() == [",0,1", "0,-0.0,0.0", "1,0.0,-0.0"]
        assert matrix_to_csv(SupportMatrix(0, np.array([[7]]))) == ",\n,7\n"

    def test_csv_headers_and_values(self):
        text = matrix_to_csv(udisj(1))
        lines = text.strip().split("\n")
        assert lines[0] == ",0,1"
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,1,0"

    def test_json_lists_only_nonzeros(self):
        obj = json.loads(matrix_to_json(udisj(1)))
        assert obj["n"] == 1
        assert [["0", "0", 1], ["0", "1", 1], ["1", "0", 1]] == obj["entries"]

    def test_float_entries_keep_full_precision(self):
        m = SupportMatrix(1, np.array([[0.0, 2.5], [0.1, 0.0]]))
        obj = json.loads(matrix_to_json(m))
        assert obj["entries"] == [["0", "1", 2.5], ["1", "0", 0.1]]
        assert matrix_to_csv(m).splitlines()[1:] == ["0,0.0,2.5", "1,0.1,0.0"]

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            SupportMatrix(1, np.array([[-1.0, 0.0], [0.0, 0.0]]))


class TestSupportMatrix:
    def test_dense_cap(self):
        n = MAX_DENSE_N + 1
        with pytest.raises(ValueError, match="dense cap"):
            SupportMatrix(n, np.zeros((1 << n, 1 << n), dtype=np.uint8))

    def test_wrong_shape_or_width_rejected(self):
        with pytest.raises(ValueError):
            SupportMatrix(2, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            udisj(2).value(BitString.from_text("0"), BitString.from_text("1"))

    def test_values_are_a_read_only_copy(self):
        raw = np.ones((2, 2))
        m = SupportMatrix(1, raw)
        raw[0, 0] = 5.0
        assert m.value(BitString(1, 0), BitString(1, 0)) == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_row_major_is_lex_order(self):
        m = SupportMatrix(2, np.arange(16).reshape(4, 4))
        for a in all_strings(2):
            for b in all_strings(2):
                assert m.value(a, b) == 4 * a.value + b.value

    @given(st.lists(small_matrices(2), min_size=1, max_size=5))
    def test_blocks_match_each_matrix(self, ms: list[SupportMatrix]):
        for n in {m.n for m in ms}:
            same = [m for m in ms if m.n == n]
            supports = support_block(np.array([m.values for m in same]))
            for m, sup, v in zip(same, supports, val_block(supports)):
                assert np.array_equal(sup, m.support())
                assert v == val(m)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 1e-15, 1e-10])
    def test_every_positive_entry_is_in_the_support(self, tiny):
        # however small against the largest entry: (0, 1) adds to val, and
        # (1, 1), which intersects in one position, makes m no atom
        m = from_entries(1, [("0", "0", 1.0), ("0", "1", tiny)])
        assert val(m) == 2 and is_atom_pattern(m)
        m = from_entries(1, [("0", "0", 1.0), ("1", "1", tiny)])
        assert val(m) == 1 and not is_atom_pattern(m)
        assert support_block(m.values[None]).tolist() == [[[True, False], [False, True]]]

    def test_negative_zero_is_outside_the_support(self):
        m = from_entries(1, [("0", "0", 1.0), ("0", "1", -0.0), ("1", "1", -0.0)])
        assert m.support().tolist() == [[True, False], [False, False]]
        assert val(m) == 1 and is_atom_pattern(m)
