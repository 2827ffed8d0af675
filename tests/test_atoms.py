"""Atom sampling, the antidiagonal witness, and d=2 pattern classification."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest

from liftcert import atoms, linalg
from liftcert.atoms import (
    NOISE_REL,
    FalsificationError,
    NoPatternMatches,
    PatternId,
    PsdFactorization,
    antidiagonal_witness,
    block_size,
    classify_pattern_d2,
    evaluate,
    evaluate_block,
    factorization_from_json,
    factorization_to_json,
    pattern_block,
    pattern_disjoint_support,
    sample_atom,
    sample_block,
    witness_block,
)
from liftcert.bitcore import (
    BitString,
    SupportMatrix,
    all_strings,
    intersection_size,
    intersection_table,
    is_atom_pattern,
    support_block,
    val,
    val_block,
)
from liftcert.cli import pattern_check
from liftcert.covering import induction_block, recursive_covering
from liftcert.linalg import RANK_TOL, _svd, image, inner, subspace_intersect


def constant_factorization(n: int, d: int, factor: np.ndarray) -> PsdFactorization:
    side = np.broadcast_to(factor, (1 << n, d, d))
    return PsdFactorization(n, d, side, side)


def unit_columns(d: int, columns: dict[int, int]) -> np.ndarray:
    """Width-d (2^d, d, d) stack of zero factors, except that the factor of
    string value v has the unit vector e_i as its first column for each
    v: i in columns."""
    side = np.zeros((1 << d, d, d))
    for v, i in columns.items():
        side[v, i, 0] = 1.0
    return side


def free_side(seeds, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per trial of a sampled block, U for an even seed and V for an odd one:
    the free side of ``sample_block(n, d, seeds)``, and with u and v swapped
    the constrained side."""
    return np.where((np.asarray(seeds) % 2 == 0)[:, None, None, None], u, v)


def ones_at(pairs) -> SupportMatrix:
    """The width-2 matrix with 1.0 at the given pairs and 0 elsewhere."""
    values = np.zeros((4, 4))
    for a, b in pairs:
        values[a.value, b.value] = 1.0
    return SupportMatrix(2, values)


#: Width-2 atoms over 2 x 2 PSD matrices that the sampler once drew, frozen
#: as literal (U, V) stacks so that each regression test below keeps its
#: subject whatever the sampler draws.
#: Every genuine entry vanishes: U_11 is orthogonal to V_01 and to V_10 only
#: up to rounding noise, and every other product has a zero factor.
ALL_ZERO_ATOM = (
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
     [[1.9885083536590284, 0.0], [-1.2286717840582266, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.46283971521046174, 0.0], [0.749069566049018, 0.0]],
     [[0.40917533699468667, -0.35308253811857976], [0.6622180034425073, -0.571436233573225]],
     [[0.0, 0.0], [0.0, 0.0]]],
)
#: V_10 = 0 and V_01 has singular values 1.47 and 7.8e-6.
SMALL_SINGULAR_VALUE_ATOM = (
    [[[-0.41905154603955996, 0.0820550667071461], [0.04666424742114502, -0.8951997365976171]],
     [[0.0, 0.0], [0.0, 0.0]], [[0.14693257816585784, 0.0], [0.027276215619696814, 0.0]],
     [[0.0, 0.0], [0.0, 0.0]]],
    [[[1.1083709013386307, 0.0], [-0.902483843785797, 0.0]],
     [[-0.3619297937461179, 0.4134659575628165], [-0.8946750596463673, 1.0220387799325685]],
     [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
)
#: U is the free side; V_11's partners U_01 and U_10 are two nearly parallel
#: rank-1 factors, so V_11 has no space and is zero.
NEARLY_PARALLEL_ATOM = (
    [[[0.0, 0.0], [0.0, 0.0]], [[-0.20262369423385684, 0.0], [-0.8530269302522726, 0.0]],
     [[-0.30786316682567205, 0.0], [-1.2958301532396272, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[-0.5793916448072551, 0.0], [0.13762575519668244, 0.0]],
     [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
)


def frozen(atom: tuple[list, list]) -> PsdFactorization:
    return PsdFactorization(2, 2, np.array(atom[0]), np.array(atom[1]))


def reference_evaluate(f: PsdFactorization) -> np.ndarray:
    """Per-entry evaluation: one linalg.inner call per pair, with the same
    NOISE_REL floor against the Cauchy-Schwarz bound."""
    size = 1 << f.n
    u_norm = [inner(x, x) ** 0.5 for x in f.U]
    v_norm = [inner(y, y) ** 0.5 for y in f.V]
    out = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            v = inner(f.U[i], f.V[j])
            if v > NOISE_REL * u_norm[i] * v_norm[j]:
                out[i, j] = v
    return out


class TestEvaluate:
    def test_all_zero_factors(self):
        f = constant_factorization(2, 2, np.zeros((2, 2)))
        m = evaluate(f)
        assert np.array_equal(m.values, np.zeros((4, 4)))

    def test_all_identity_factors(self):
        f = constant_factorization(2, 3, np.eye(3))
        m = evaluate(f)
        for a in all_strings(2):
            for b in all_strings(2):
                assert m.value(a, b) == pytest.approx(3.0)

    def test_sampled_atom_pattern(self):
        for seed in range(100):
            assert is_atom_pattern(evaluate(sample_atom(2, 2, seed)))

    def test_noise_suppressed_to_exact_zero(self):
        # an atom whose genuine entries all vanish must evaluate to the exact
        # zero matrix rather than to a matrix of rounding noise
        f = frozen(ALL_ZERO_ATOM)
        assert (np.abs(f.U[0b11].T @ f.V[[0b01, 0b10]]) > 0).any()  # the noise is there
        m = evaluate(f)
        for a in all_strings(2):
            for b in all_strings(2):
                if intersection_size(a, b) == 1:
                    assert m.value(a, b) == 0.0
        assert not m.values.any()

    @pytest.mark.parametrize("scale", [1e-5, 1e-8, 1e-12])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_small_genuine_entry_is_in_the_support(self, scale, side):
        # U_0 = V_0 = I, U_1 = diag(1e-5, 0), V_1 = diag(0, 1): the disjoint
        # entry (1, 0) is 1e-10, 5e-11 of the largest entry but 0.71 of its
        # Cauchy-Schwarz bound, so it is genuine and counts toward val.  The
        # ratio to the bound is 0.71 at every scale, and with the factors of
        # the two sides swapped the entry is (0, 1).
        small, other = np.stack([np.eye(2), np.diag([scale, 0.0])]), \
            np.stack([np.eye(2), np.diag([0.0, 1.0])])
        u, v, entry = (small, other, (1, 0)) if side == "u" else (other, small, (0, 1))
        m = evaluate(PsdFactorization(1, 2, u, v))
        assert m.values[entry] == pytest.approx(scale**2, rel=1e-12)
        assert m.values[entry] < 1e-9 * m.values.max()
        assert m.support()[entry] and is_atom_pattern(m)
        assert val(m) == 3

    @pytest.mark.parametrize("n, d, seeds", [(2, 2, 100), (3, 3, 60), (4, 2, 40),
                                             (6, 3, 4)])
    def test_matches_per_entry_reference(self, n, d, seeds):
        one = np.array([[intersection_size(a, b) == 1 for b in all_strings(n)]
                        for a in all_strings(n)])
        for seed in range(2 * seeds):
            f = sample_atom(n, d, seed)
            m, ref = evaluate(f), reference_evaluate(f)
            assert np.array_equal(m.support(), ref > 0)
            np.testing.assert_allclose(m.values, ref, rtol=1e-14, atol=0)
            # the by-construction zeros are exact
            assert not m.values[one].any() and not ref[one].any()


def broadcast_evaluate(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``evaluate_block`` as one broadcast matmul of every d x d product
    U_a^T V_b, squared and summed by NumPy over each product, with the same
    NOISE_REL floor against the Cauchy-Schwarz bound."""
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    m = np.square(ut[:, :, None] @ v[:, None]).sum(axis=(-2, -1))
    norm_u, norm_v = (np.square(x).sum(axis=(-2, -1)) for x in (ut @ u, vt @ v))
    bound = np.sqrt(norm_u[:, :, None] * norm_v[:, None, :])
    return np.where(m > NOISE_REL * bound, m, 0.0)


def gaussian_factors(rng, trials: int, size: int, d: int) -> np.ndarray:
    """A (trials, size, d, d) stack of Gaussian factors, each cut to a rank
    drawn from 0..d as the sampler cuts its factors."""
    cols = np.arange(d) < rng.integers(0, d + 1, (trials, size, 1, 1))
    return np.where(cols, rng.standard_normal((trials, size, d, d)), 0.0)


def drawn_ranks(n: int, d: int, seeds) -> np.ndarray:
    """Each seed's (2, 2^n) drawn ranks, word % (d + 1) of the first 2^(n+1)
    words of its stream (see ``sample_block``): row 0 of the free side, row
    1 of the constrained side."""
    size, seeds = 1 << n, np.array(seeds, dtype=np.uint64)
    steps = np.arange(1, 2 * size + 1, dtype=np.uint64) * np.uint64(GAMMA)
    words = atoms._mix64(atoms._mix64(seeds[:, None]) + steps)
    return (words % np.uint64(d + 1)).astype(int).reshape(-1, 2, size)


def predicted_support(n: int, d: int, seeds) -> np.ndarray:
    """Per seed, the support its drawn ranks predict: string y's null space
    has dimension k_y = d - min(d, sum of its partners' free ranks), its
    constrained factor rank min(k_y, q_y), and entry (x, y) of free string x
    and constrained string y is positive exactly when both factors are
    nonzero and |x & y| != 1; transposed for an odd seed, whose free side is
    V."""
    ranks = drawn_ranks(n, d, seeds)
    partner = intersection_table(n) == 1
    space = d - np.minimum(d, ranks[:, 0] @ partner)
    nonzero = np.minimum(space, ranks[:, 1]) > 0
    support = (ranks[:, 0, :, None] > 0) & nonzero[:, None, :] & ~partner
    odd = (np.asarray(seeds) % 2 == 1)[:, None, None]
    return np.where(odd, support.swapaxes(1, 2), support)


class TestEvaluateKernel:
    """``evaluate_block``'s one matmul per trial against the broadcast form
    it replaced, and its zero decisions against the drawn ranks."""

    def test_every_d_matches_the_broadcast_sum_bit_for_bit(self):
        # d^2 = 1..64 squares per entry: the in-turn sum below 8 terms, else
        # 8 running sums and a remainder of 0 (d = 4, 8), 1 (d = 3, 5, 7) or
        # 4 (d = 6) terms
        rng = np.random.default_rng(36)
        for d in range(1, 9):
            u, v = gaussian_factors(rng, 3, 4, d), gaussian_factors(rng, 3, 8, d)
            m = evaluate_block(u, v)
            assert m.shape == (3, 4, 8) and m.any()
            assert np.array_equal(m, broadcast_evaluate(u, v)), d

    @pytest.mark.parametrize("d", range(1, 9))
    def test_witness_row_against_column_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        u, v = gaussian_factors(rng, 64, 1, d), gaussian_factors(rng, 64, 1, d)
        assert np.array_equal(evaluate_block(u, v), broadcast_evaluate(u, v))

    def test_non_contiguous_input_bit_for_bit(self):
        rng = np.random.default_rng(7)
        u = gaussian_factors(rng, 8, 16, 3)[::2]  # every other trial
        v = np.asfortranarray(gaussian_factors(rng, 4, 16, 3))
        w = gaussian_factors(rng, 4, 16, 3).swapaxes(-1, -2)  # transposed factors
        for x, y in ((u, v), (v, w), (w, u)):
            assert not (x.flags.c_contiguous and y.flags.c_contiguous)
            assert np.array_equal(evaluate_block(x, y), broadcast_evaluate(x, y))

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (3, 5), (6, 3)])
    def test_sampled_blocks_of_both_parities_bit_for_bit(self, n, d):
        seeds = range(3600, 3600 + max(8, block_size(n)))
        u, v = sample_block(n, d, seeds)
        m = evaluate_block(u, v)
        assert np.array_equal(m, broadcast_evaluate(u, v))
        # the by-construction zeros, exact on both sides
        assert not m[:, intersection_table(n) == 1].any()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (3, 3), (4, 2), (6, 3)])
    def test_support_is_the_one_the_drawn_ranks_predict(self, n, d):
        seeds = range(0, max(16, block_size(n)))
        u, v = sample_block(n, d, seeds)
        assert np.array_equal(drawn_ranks(n, d, seeds)[:, 0],
                              np.count_nonzero(free_side(seeds, u, v).any(axis=-2), axis=-1))
        support = evaluate_block(u, v) > 0
        assert np.array_equal(support, predicted_support(n, d, seeds))
        # the rule is not vacuous: supports differ, and the transpose matters
        assert len({s.tobytes() for s in support}) > 1
        assert not np.array_equal(support, predicted_support(n, d, seeds).swapaxes(1, 2))


class TestSampleAtom:
    def test_deterministic_per_seed(self):
        f1 = sample_atom(3, 2, 42)
        f2 = sample_atom(3, 2, 42)
        assert factorization_to_json(f1) == factorization_to_json(f2)

    def test_d1_off_diagonal_zero(self):
        z, o = BitString(1, 0), BitString(1, 1)
        for seed in range(100):
            m = evaluate(sample_atom(1, 1, seed))
            assert m.value(z, o) == 0 or m.value(o, z) == 0

    def test_numpy_integer_seed(self):
        for seed in (3, 2154):
            assert factorization_to_json(sample_atom(2, 2, np.int64(seed))) \
                == factorization_to_json(sample_atom(2, 2, seed))

    def test_factors_are_read_only_stacks(self):
        f = sample_atom(3, 2, 1)
        for side in (f.U, f.V):
            assert side.shape == (8, 2, 2) and not side.flags.writeable


class TestSampleBlock:
    @pytest.mark.parametrize("n, d, trials", [(2, 2, 40), (3, 3, 20), (4, 2, 10),
                                              (6, 3, 3), (1, 1, 40)])
    def test_each_trial_is_its_own_sample(self, n, d, trials):
        seeds = range(500, 500 + trials)
        u, v = sample_block(n, d, seeds)
        assert u.shape == v.shape == (trials, 1 << n, d, d)
        values = evaluate_block(u, v)
        for t, seed in enumerate(seeds):
            f = sample_atom(n, d, seed)
            assert np.array_equal(u[t], f.U) and np.array_equal(v[t], f.V)
            assert np.array_equal(values[t], evaluate(f).values)

    def test_four_trial_block_checks_as_four_one_trial_blocks(self):
        # at (6, 3) one block holds four trials: each must evaluate and
        # aggregate, bit for bit, as it does in a block of its own
        seeds = range(700, 700 + block_size(6))
        family = recursive_covering(3)
        values = evaluate_block(*sample_block(6, 3, seeds))
        totals, vals = induction_block(values, family)
        assert len(seeds) == 4 and len({row.tobytes() for row in vals}) == 4
        for t, seed in enumerate(seeds):
            one = evaluate_block(*sample_block(6, 3, [seed]))
            one_totals, one_vals = induction_block(one, family)
            assert one.tobytes() == values[t:t + 1].tobytes()
            assert one_totals.tobytes() == totals[t:t + 1].tobytes()
            assert one_vals.tobytes() == vals[t:t + 1].tobytes()

    def test_block_checks_match_one_trial_checks(self):
        for d in (2, 3):
            seeds = range(block_size(d) + 7)
            u, v = sample_block(d, d, seeds)
            reasons, rows = witness_block(u, v)
            pids = pattern_block(support_block(evaluate_block(u, v))) if d == 2 else None
            for t, seed in enumerate(seeds):
                f = PsdFactorization(d, d, u[t], v[t])
                assert reasons[t] is None
                assert antidiagonal_witness(f) == BitString(d, int(rows[t]))
                if d == 2:
                    assert pids[t] == classify_pattern_d2(evaluate(f))

    def test_failing_trial_named_alone(self):
        u = np.stack([unit_columns(2, {}), np.broadcast_to(np.eye(2), (4, 2, 2))])
        reasons, rows = witness_block(u, u)
        assert reasons[0] is None and rows == [0b01, 0b11]
        assert reasons[1].startswith("antidiagonal entry at (11, 00) is 2.000e+00")
        pids = pattern_block(support_block(evaluate_block(u, u)))
        assert pids.tolist() == [1, 0]

    @pytest.mark.parametrize("square, falsified", [
        (1e-12, True), (0.0, False), (1e-300, True), (0.5e-9, True), (1.5e-9, True)])
    def test_any_positive_witnessed_entry_falsifies(self, square, falsified):
        # M = [[1, 1], [s^2, s^2]]: the witnessed entry (1, 0) is s^2, which
        # fails the trial unless it is exactly zero, on either side of the
        # retired threshold 1e-9 * max(M)
        u = np.array([1.0, np.sqrt(square)]).reshape(1, 2, 1, 1)
        reasons, rows = witness_block(u, np.ones((1, 2, 1, 1)))
        assert rows == [1] and (reasons[0] is not None) == falsified
        if falsified:
            assert reasons[0] == f"antidiagonal entry at (1, 0) is {square:.3e}, not zero"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_witnessed_entries_are_the_evaluated_matrix_bit_for_bit(self, monkeypatch, d):
        # sampled atoms, whose witnessed entries are zero, and factors of
        # random rank, whose entries are mostly positive
        seeds = range(300, 300 + block_size(d))
        rng = np.random.default_rng(d)
        shape = (len(seeds), 1 << d, d, d)
        drawn = [rng.standard_normal(shape) * (rng.random(shape[:2] + (1, d)) < 0.7)
                 for _ in range(2)]
        recorded = []

        def recording(u, v):
            recorded.append(evaluate_block(u, v))
            return recorded[-1]

        monkeypatch.setattr(atoms, "evaluate_block", recording)
        for u, v in (sample_block(d, d, seeds), drawn):
            _, rows = witness_block(u, v)
            a = np.array(rows)
            want = evaluate_block(u, v)[np.arange(len(seeds)), a, (1 << d) - 1 ^ a]
            assert recorded[-1].shape == (len(seeds), 1, 1)
            assert recorded[-1][:, 0, 0].tobytes() == want.tobytes()
        assert not recorded[0].any() and (recorded[1] > 0).mean() > 0.5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_only_the_entry_at_a_and_its_complement_is_read(self, d):
        # U_a = I makes entry (a, complement(a)) ||V_{complement(a)}||_F^2 > 0,
        # and U_{complement(a)} = 0 makes (complement(a), a) zero; the witness
        # chain reads V only, so it still picks a
        seeds = range(600, 600 + block_size(d))
        u, v = (side.copy() for side in sample_block(d, d, seeds))
        _, rows = witness_block(u, v)
        t, a = np.arange(len(seeds)), np.array(rows)
        b = (1 << d) - 1 ^ a
        corrupt = v[t, b].any(axis=(1, 2))
        assert corrupt.sum() >= 4
        u[t[corrupt], a[corrupt]] = np.eye(d)
        u[t[corrupt], b[corrupt]] = 0.0
        values = evaluate_block(u, v)
        assert (values[t, a, b] > 0).tolist() == corrupt.tolist()
        assert not values[t, b, a][corrupt].any()
        reasons, again = witness_block(u, v)
        assert again == rows
        assert reasons == [
            f"antidiagonal entry at ({BitString(d, x)}, {BitString(d, y)}) "
            f"is {value:.3e}, not zero" if value else None
            for x, y, value in zip(a.tolist(), b.tolist(), values[t, a, b].tolist())]

    def test_block_size_bounds_the_stacks(self):
        assert [block_size(n) for n in range(1, 9)] == [4096, 1024, 256, 64, 16, 4, 1, 1]
        # a negative width is sized as 0 and left for the sampler to reject
        assert block_size(-1) == block_size(-5) == block_size(0) == 16384

    @pytest.mark.parametrize("seeds", [range(0, 32, 2), range(1, 32, 2)],
                             ids=["u-first", "v-first"])
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_supports_vary_across_seeds(self, n, d, seeds):
        # a free side of rank-d factors leaves only string 0 a constrained
        # factor, so its supports differ only in whether that factor is zero
        u, v = sample_block(n, d, seeds)
        supports = {mask.tobytes() for mask in support_block(evaluate_block(u, v))}
        assert len(supports) > 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_free_ranks_cover_0_to_d(self, d):
        u, v = sample_block(d, d, range(16))
        free = free_side(range(16), u, v)
        assert set(np.linalg.matrix_rank(free).ravel().tolist()) == set(range(d + 1))

    @pytest.mark.parametrize("n, d, message", [
        (0, 2, "n = 0 outside [1, 8]"), (9, 2, "n = 9 outside [1, 8]"),
        (2, 0, "d = 0 outside [1, 8]"), (2, 9, "d = 9 outside [1, 8]"),
    ], ids=["n0", "n9", "d0", "d9"])
    def test_width_and_dimension_ranges_enforced(self, n, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_block(n, d, [1])

    def test_evaluate_block_refuses_widths_above_the_dense_cap(self):
        # a stack of no trials at width 11 holds no entries, so this needs no memory
        empty = np.zeros((0, 1 << 11, 1, 1))
        with pytest.raises(ValueError, match="n = 11 exceeds dense cap 10"):
            evaluate_block(empty, empty)


#: All ones in 64 bits, and SplitMix64's increment (Steele, Lea & Flood 2014).
WORD, GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64's finalizer in Python integers mod 2^64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & WORD
    z = (z ^ z >> 27) * 0x94D049BB133111EB & WORD
    return z ^ z >> 31


def reference_draw(n: int, d: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """A trial's ranks (2, 2^n) and normals (2, 2^n, d, d), word by word in
    Python integers and ``math``: word j is mix64(k + (j + 1) gamma) for the
    key k = mix64(seed); the first 2^(n+1) words give ranks word % (d + 1),
    each later pair (a, b) two normals by Box-Muller from u1 = ((a >> 11) +
    1) 2^-53 and u2 = (b >> 11) 2^-53."""
    size, key = 1 << n, mix64(int(seed))
    words = [mix64(key + (j + 1) * GAMMA & WORD) for j in range(2 * size * (1 + d * d))]
    normals = []
    for a, b in zip(words[2 * size::2], words[2 * size + 1::2]):
        radius = math.sqrt(-2 * math.log(((a >> 11) + 1) * 2.0**-53))
        angle = 2 * math.pi * ((b >> 11) * 2.0**-53)
        normals += [radius * math.cos(angle), radius * math.sin(angle)]
    ranks = [word % (d + 1) for word in words[:2 * size]]
    return np.array(ranks).reshape(2, size), np.array(normals).reshape(2, size, d, d)


def reference_sample(n: int, d: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """One trial of ``sample_block`` string by string: draw the ranks and
    the normals, cut each free normal matrix to its rank, then build each
    constrained factor from its own string's null space alone, as the
    basis cut to the space's dimension k times the normal matrix cut to
    k rows and r columns."""
    size = 1 << n
    ranks, normals = reference_draw(n, d, seed)
    free, constrained = np.zeros((size, d, d)), np.zeros((size, d, d))
    for b in range(size):
        r = ranks[0, b]
        free[b, :, :r] = normals[0, b, :, :r]
    partners = atoms._partner_factors(free[None])[0]
    for b in range(size):
        space, k = subspace_intersect(partners[b])
        r = ranks[1, b]
        constrained[b, :, :r] = space[:, :k] @ normals[1, b, :k, :r]
    return (free, constrained) if seed % 2 == 0 else (constrained, free)


DRAW_SHAPES = [(2, 2), (3, 3), (4, 2), (6, 3)]


def draw_block_seeds(n: int) -> range:
    """Seeds of one block at width n, of both parities."""
    return range(300, 300 + max(4, block_size(n)))


def drawn_block(n: int, d: int) -> tuple[range, np.ndarray, np.ndarray]:
    """Seeds and the free and constrained sides of a seeded block."""
    seeds = draw_block_seeds(n)
    u, v = sample_block(n, d, seeds)
    return seeds, free_side(seeds, u, v), free_side(seeds, v, u)


class TestDraw:
    """One stream per trial: ranks (2, 2^n), then normals (2, 2^n, d, d)."""

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3)])
    def test_draw_matches_pure_python_splitmix64(self, monkeypatch, n, d):
        # with every null space the whole space, the constrained side is its
        # normals cut to their ranks too, so both rows of the draw show
        monkeypatch.setattr(atoms, "subspace_intersect", lambda x: (
            np.broadcast_to(np.eye(d), x.shape[:-2] + (d, d)), np.full(x.shape[:-2], d)))
        seeds = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        u, v = sample_block(n, d, seeds)
        for t, seed in enumerate(seeds):
            ranks, normals = reference_draw(n, d, seed)
            drawn = np.stack([u[t], v[t]] if seed % 2 == 0 else [v[t], u[t]])
            assert np.array_equal(np.linalg.matrix_rank(drawn), ranks)
            want = np.where(np.arange(d) < ranks[..., None, None], normals, 0.0)
            np.testing.assert_allclose(drawn, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n, d", DRAW_SHAPES)
    def test_free_columns_past_the_rank_are_zero(self, n, d):
        seeds, free, _ = drawn_block(n, d)
        ranks = np.array([reference_draw(n, d, seed)[0][0] for seed in seeds])
        past = np.arange(d) >= ranks[..., None, None]
        assert not np.where(past, free, 0.0).any()
        assert np.array_equal(np.linalg.matrix_rank(free), ranks)

    @pytest.mark.parametrize("n, d", DRAW_SHAPES)
    def test_constrained_rank_is_the_smaller_of_draw_and_space(self, n, d):
        seeds, free, constrained = drawn_block(n, d)
        ranks = np.array([reference_draw(n, d, seed)[0][1] for seed in seeds])
        _, dims = subspace_intersect(atoms._partner_factors(free))
        assert np.array_equal(np.linalg.matrix_rank(constrained), np.minimum(ranks, dims))
        assert not np.where(np.arange(d) >= ranks[..., None, None], constrained, 0.0).any()
        # both cut sizes occur: the space below the rank, and the rank below the space
        assert (dims < ranks).any() and (ranks < dims).any()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3)])
    def test_ranks_are_uniform(self, n, d):
        # 2 x 10^4 free-side ranks against uniform on {0, ..., d}: Pearson's
        # chi-square, d degrees of freedom, below its 0.999 quantile
        trials = 20_000 >> n
        free = free_side(range(trials), *sample_block(n, d, range(trials)))
        counts = np.bincount(np.linalg.matrix_rank(free).ravel(), minlength=d + 1)
        assert counts.sum() == 20_000 and len(counts) == d + 1
        expected = 20_000 / (d + 1)
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert statistic < {2: 13.82, 3: 16.27}[d], counts

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3)])
    def test_normals_are_standard_normal(self, n, d):
        # the first 2 x 10^4 free-side entries below their ranks against Phi:
        # the Kolmogorov-Smirnov statistic below its asymptotic 0.999
        # critical value sqrt(ln(2 / 0.001) / 2) / sqrt(2 x 10^4) = 0.0138
        trials = 20_000 >> n
        free = free_side(range(trials), *sample_block(n, d, range(trials)))
        x = np.sort(free[free != 0][:20_000])
        assert len(x) == 20_000
        cdf = np.array([0.5 * (1 + math.erf(z / math.sqrt(2))) for z in x.tolist()])
        steps = np.arange(len(x) + 1) / len(x)
        statistic = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
        assert statistic < math.sqrt(math.log(2 / 0.001) / 2 / len(x)), statistic

    @pytest.mark.parametrize("n, d", DRAW_SHAPES)
    def test_block_matches_per_string_reference(self, n, d):
        seeds = draw_block_seeds(n)
        u, v = sample_block(n, d, seeds)
        ref = [reference_sample(n, d, seed) for seed in seeds]
        ref_u, ref_v = (np.array(side) for side in zip(*ref))
        np.testing.assert_allclose(u, ref_u, rtol=1e-12, atol=0)
        np.testing.assert_allclose(v, ref_v, rtol=1e-12, atol=0)
        if n == d == 2:
            check = pattern_check
        elif n == d:
            check = witness_block
        else:
            def check(u, v):
                return [a.tolist() for a in
                        induction_block(evaluate_block(u, v), recursive_covering(d))]
        assert check(u, v) == check(ref_u, ref_v)


class TestSeeding:
    @pytest.mark.parametrize("seeds", [
        range(1000, 1007),
        range(1000, 1008),
        range(2**64 - 8, 2**64),
        [np.int64(s) for s in range(1000, 1008)],
        [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1],
        None,  # one whole block: 1,024, 256, 64, 16 and 4 seeds
    ], ids=["7-seeds", "8-seeds", "below-2^64", "np.int64", "word-edges", "one-block"])
    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (5, 2), (6, 3)])
    def test_block_matches_one_trial_sampling(self, seeds, n, d):
        seeds = range(1000, 1000 + block_size(n)) if seeds is None else seeds
        u, v = sample_block(n, d, seeds)
        for t, seed in enumerate(seeds):
            f = sample_atom(n, d, seed)
            assert np.array_equal(u[t], f.U) and np.array_equal(v[t], f.V)

    @pytest.mark.parametrize("seeds, named", [
        ([5, -1], -1),
        ([np.int64(5), np.int64(-3)], -3),
        (range(2**64 - 4, 2**64 + 4), 2**64 + 3),
        ([2**64, -2], -2),
    ], ids=["negative", "np.int64", "straddling-2^64", "both-ends"])
    def test_seed_outside_64_bits_named(self, seeds, named):
        with pytest.raises(ValueError, match=re.escape(f"seed {named} outside [0, 2^64)")):
            sample_block(2, 2, seeds)


def zero_filled_partner_factors(free: np.ndarray) -> np.ndarray:
    """The partner stack before gathering: every string's partners' factors
    side by side with every other string's zeroed, (T, 2^n, d, 2^n d)."""
    trials, size, d = free.shape[:3]
    partner = (intersection_table(size.bit_length() - 1) == 1)[:, None, :, None]
    side_by_side = np.where(partner, free.transpose(0, 2, 1, 3)[:, None], 0.0)
    return side_by_side.reshape(trials, size, d, size * d)


def reference_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD rule before the QR reduction: a full SVD of the stack
    (..., d, m), narrow slices zero-padded to d columns."""
    d, m = x.shape[-2:]
    if m < d:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (d - m,))], axis=-1)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u, s, np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


def reference_intersect(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``subspace_intersect`` on ``reference_svd``."""
    u, s, rank = reference_svd(factors)
    d = u.shape[-1]
    return np.where((s[..., :1] > 0)[..., None], u[..., ::-1], np.eye(d)), d - rank


def projectors(bases: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Orthogonal projectors onto the spans of the first ``dims`` columns."""
    kept = bases * (np.arange(bases.shape[-1]) < dims[..., None, None])
    return kept @ kept.swapaxes(-1, -2)


def free_sides(n: int, d: int) -> np.ndarray:
    """Seeded free sides, (T, 2^n, d, d), of U and V alike."""
    seeds = range(106, 106 + max(4, block_size(n)))
    return free_side(seeds, *sample_block(n, d, seeds))


class TestNullSpaces:
    """The gathered partner stack and the QR-reduced SVD against the
    zero-filled stack and the full SVD they replace."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partner_table_lists_partners_in_order(self, n):
        table, size = atoms._partner_table(n), 1 << n
        partner = intersection_table(n) == 1
        assert table.shape == (size, partner.sum(axis=1).max())
        assert not table.flags.writeable
        for b, row in enumerate(table.tolist()):
            count = int(partner[b].sum())
            assert row == np.flatnonzero(partner[b]).tolist() + [size] * (len(row) - count)

    def test_partner_stack_widths(self):
        # 96 columns instead of 192 at (6, 3), 12 instead of 24 at (3, 3)
        assert atoms._partner_factors(np.zeros((1, 64, 3, 3))).shape == (1, 64, 3, 96)
        assert atoms._partner_factors(np.zeros((2, 8, 3, 3))).shape == (2, 8, 3, 12)

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (4, 4), (6, 3)])
    def test_gathered_partners_are_the_zero_filled_ones(self, n, d):
        free = free_sides(n, d)
        gathered, filled = atoms._partner_factors(free), zero_filled_partner_factors(free)
        partner = intersection_table(n) == 1
        for b in range(1 << n):
            columns = np.repeat(partner[b], d)
            count = int(columns.sum())
            assert np.array_equal(gathered[:, b, :, :count], filled[:, b][..., columns])
            assert not gathered[:, b, :, count:].any()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (4, 4), (6, 3)])
    def test_null_spaces_match_the_full_svd(self, n, d):
        free = free_sides(n, d)
        bases, dims = subspace_intersect(atoms._partner_factors(free))
        ref_bases, ref_dims = reference_intersect(zero_filled_partner_factors(free))
        assert np.array_equal(dims, ref_dims)
        assert dims.min() == 0 and dims.max() == d  # trivial and full spaces both occur
        diff = projectors(bases, dims) - projectors(ref_bases, ref_dims)
        assert np.abs(diff).max() <= 1e-12
        # string 0 has no partners: its space is exactly the identity
        assert np.array_equal(bases[:, 0], np.broadcast_to(np.eye(d), (len(free), d, d)))
        assert (dims[:, 0] == d).all()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (4, 4), (6, 3)])
    def test_proper_null_spaces_are_the_full_svd_bit_for_bit(self, n, d):
        x = atoms._partner_factors(free_sides(n, d))
        bases, dims = subspace_intersect(x)
        u, s, _ = np.linalg.svd(linalg._reduced(x))
        assert np.array_equal(dims, d - np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1))
        proper = (0 < dims) & (dims < d)
        # at (6, 3) every string but 0 has 6 or more partners, which span R^3 here
        assert proper.any() == (n < 6) and (dims == 0).any() and (dims == d).any()
        # a proper null space's basis, its first dims columns included
        assert np.array_equal(bases[proper], u[proper][..., ::-1])
        # no space (rank d) and the whole space (rank 0) take the identity
        assert np.array_equal(bases[~proper], np.broadcast_to(np.eye(d), bases[~proper].shape))

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 3), (4, 2), (6, 3)])
    def test_full_rank_free_side_leaves_only_string_0_a_space(self, n, d):
        # every string b != 0 has a partner whose rank-d factor has kernel
        # {0}; string 0 has none, so the constrained side keeps only its factor
        free = np.random.default_rng(n * 10 + d).standard_normal((4, 1 << n, d, d))
        _, dims = subspace_intersect(atoms._partner_factors(free))
        assert (dims[:, 0] == d).all() and not dims[:, 1:].any()

    @pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (4, 2), (4, 4), (6, 3)])
    def test_reduced_svd_keeps_ranks_and_spans(self, n, d):
        for x in (atoms._partner_factors(free_sides(n, d)),
                  zero_filled_partner_factors(free_sides(n, d))):
            assert x.shape[-1] > d  # wide, so _svd reduces it by a QR
            u, _, rank = _svd(x)
            ref_u, _, ref_rank = reference_svd(x)
            assert np.array_equal(rank, ref_rank)
            diff = projectors(u, rank) - projectors(ref_u, ref_rank)
            assert np.abs(diff).max() <= 1e-12

    # each block holds factorizations that the two paths give different bits
    @pytest.mark.parametrize("n, d, start, check", [
        pytest.param(3, 3, 0, witness_block, id="witness-d3"),
        pytest.param(2, 2, 0, pattern_check, id="patterns"),
        pytest.param(4, 3, 32, lambda u, v: [
            a.tolist() for a in induction_block(evaluate_block(u, v), recursive_covering(3))
        ], id="induction-n4-d3"),
    ])
    def test_oracle_outcomes_match_reference_null_spaces(self, monkeypatch, n, d, start,
                                                         check):
        seeds = range(start, start + block_size(n))
        sampled = sample_block(n, d, seeds)
        monkeypatch.setattr(atoms, "_partner_factors", zero_filled_partner_factors)
        monkeypatch.setattr(atoms, "subspace_intersect", reference_intersect)
        reference = sample_block(n, d, seeds)
        assert not all(map(np.array_equal, sampled, reference))
        assert check(*sampled) == check(*reference)


def three_case_rows(dims: np.ndarray, d: int) -> np.ndarray:
    """Witness rows by the former three-case rule, from the chains dim F_1,
    ..., dim F_d (no F_0): the all-ones row when F_d is full, the complement
    of e_1 when V_{e_1} = 0, else the complement of e_{p+1} at the first
    stall p >= 1."""
    full, zero = dims[:, -1] == d, dims[:, 0] == 0
    stalled = dims[:, :-1] == dims[:, 1:]
    assert (full | zero | stalled.any(axis=1)).all()
    unit = np.where(zero, d - 1, d - 2 - stalled.argmax(axis=1)) if d > 1 else 0
    ones = (1 << d) - 1
    return np.where(full, ones, ones ^ (1 << unit))


class TestAntidiagonalWitness:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_chain_from_f0_matches_the_three_case_rule(self, d):
        # every nondecreasing chain dim F_1 <= ... <= dim F_d in [0, d],
        # C(2d, d) of them (1,274 for d = 1..6), most never sampled: V_{e_i}
        # spans the unit vectors dim F_{i-1} .. dim F_i - 1
        chains = np.array(list(itertools.combinations_with_replacement(range(d + 1), d)))
        v = np.zeros((len(chains), 1 << d, d, d))
        for side, chain in zip(v, chains.tolist()):
            for i, (lo, hi) in enumerate(zip([0, *chain], chain)):
                side[1 << (d - 1 - i), lo:hi, :hi - lo] = np.eye(hi - lo)
        reasons, rows = [], []
        for part in np.split(v, range(16, len(v), 16)):  # 16 trials keep d = 6 small
            block = witness_block(np.zeros_like(part), part)
            reasons += block[0]
            rows += block[1]
        assert reasons == [None] * len(chains)
        assert rows == three_case_rows(chains, d).tolist()

    def test_full_image_chain_returns_all_ones(self):
        # V_10 = e1 e1^T, V_01 = e2 e2^T
        f = PsdFactorization(2, 2, np.zeros((4, 2, 2)), unit_columns(2, {2: 0, 1: 1}))
        assert antidiagonal_witness(f) == BitString(2, 0b11)

    def test_zero_first_column_returns_complement_e1(self):
        f = constant_factorization(2, 2, np.zeros((2, 2)))
        assert antidiagonal_witness(f) == BitString(2, 0b10).complement()

    def test_stalled_chain_returns_complement_of_stall(self):
        # V_10 = V_01 = e1 e1^T, so F_2 = F_1 = span(e1): the chain stalls
        # at p = 1; U_10 = e2 e2^T
        f = PsdFactorization(2, 2, unit_columns(2, {2: 1}), unit_columns(2, {2: 0, 1: 0}))
        assert antidiagonal_witness(f) == BitString(2, 0b01).complement()

    def test_small_first_factor_keeps_the_chain_nondecreasing(self):
        # V_10 = diag(1, 1e-8) has rank 2 alone, but the larger V_01 =
        # 1e4 e1 e1^T sets the chain's cutoff: F_1 = F_2 = span(e1), and the
        # chain stalls at p = 1.  A cutoff per prefix would read dims 2, 1.
        v = np.zeros((4, 2, 2))
        v[0b10], v[0b01, 0, 0] = np.diag([1.0, 1e-8]), 1e4
        f = PsdFactorization(2, 2, np.zeros((4, 2, 2)), v)
        a = antidiagonal_witness(f)
        assert a == BitString(2, 0b10)
        assert evaluate(f).value(a, a.complement()) == 0.0

    def test_small_singular_value_counts_toward_the_chain(self):
        # V_10 = 0 here and V_01 has singular values 1.47 and 7.8e-6, so
        # F_2 is the whole plane and the all-ones row is the witness.  A
        # cutoff on the eigenvalues of V_01 V_01^T (ratio ~3e-11) read
        # dim F_2 = 1 and took the zero column e_1 instead, row 01.
        f = frozen(SMALL_SINGULAR_VALUE_ATOM)
        s = np.linalg.svd(f.V, compute_uv=False)
        assert not s[0b10].any() and 1e-9 < s[0b01, 1] / s[0b01, 0] < 1e-5
        u, v = f.U[None], f.V[None]
        assert witness_block(u, v) == ([None], [0b11])
        assert evaluate_block(u, v)[0, 0b11, 0b00] == 0.0

    def test_non_atom_input_is_falsified(self):
        f = constant_factorization(2, 2, np.eye(2))
        with pytest.raises(FalsificationError):
            antidiagonal_witness(f)

    def test_rectangular_atom_rejected(self):
        with pytest.raises(ValueError):
            antidiagonal_witness(sample_atom(3, 2, 0))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sampled_sweep(self, d):
        for seed in range(200):
            f = sample_atom(d, d, seed)
            a = antidiagonal_witness(f)
            m = evaluate(f)
            assert m.value(a, a.complement()) == 0
            # independent route: a scan of the antidiagonal (a, 2^d - 1 - a)
            # also finds some zero
            idx = np.arange(1 << d)
            assert (m.values[idx, idx[::-1]] == 0).any()


class TestPatternTemplates:
    """The allowed-positive masks that ``pattern_block`` matches supports against."""

    def test_each_template_has_seven_disjoint_slots(self):
        for pid in PatternId:
            assert len(pattern_disjoint_support(pid)) == 7
        # a template is the largest support that fits it, so a support that
        # fits a pattern has val <= 7 and the pattern check needs no val bound
        assert val_block(atoms._TEMPLATE_MASKS).tolist() == [7] * 6

    def test_templates_allow_no_intersection_one_pair(self):
        assert not (atoms._TEMPLATE_MASKS & (intersection_table(2) == 1)).any()

    def test_corner_is_allowed_everywhere(self):
        assert atoms._TEMPLATE_MASKS[:, 0b11, 0b11].all()


class TestClassify:
    def test_zero_matrix_is_lex_smallest_pattern(self):
        assert classify_pattern_d2(SupportMatrix(2, np.zeros((4, 4)))) == PatternId(1)

    def test_exact_template_support(self):
        for pid in PatternId:
            assert classify_pattern_d2(ones_at(pattern_disjoint_support(pid))) == pid
            template = atoms._TEMPLATE_MASKS[pid - 1]
            assert classify_pattern_d2(SupportMatrix(2, template.astype(float))) == pid

    def test_all_disjoint_positive_matches_nothing(self):
        with pytest.raises(NoPatternMatches, match=r"^support \{\(00, 00\), \(00, 01\)"):
            classify_pattern_d2(SupportMatrix(2, (intersection_table(2) == 0).astype(float)))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            classify_pattern_d2(SupportMatrix(3, np.zeros((8, 8))))

    def test_sampled_sweep_val_at_most_seven(self):
        seen = set()
        for seed in range(600):
            m = evaluate(sample_atom(2, 2, seed))
            pid = classify_pattern_d2(m)
            seen.add(pid)
            assert val(m) <= 7
        assert PatternId(1) in seen and PatternId(2) in seen

    def test_nearly_parallel_partners_leave_no_spurious_kernel(self):
        # the partners of V_11 are two nearly parallel rank-1 factors; a
        # cutoff on the eigenvalues of their summed Gram matrix keeps a
        # spurious kernel direction and a positive entry where the patterns
        # forbid one
        f = frozen(NEARLY_PARALLEL_ATOM)
        _, dims = subspace_intersect(atoms._partner_factors(f.U[None]))
        assert dims[0].tolist() == [2, 1, 1, 0]
        m = evaluate(f)
        classify_pattern_d2(m)
        assert val(m) <= 7

    def test_shared_column_image_forces_pattern_one_zeros(self):
        # when Im(V_01) = Im(V_10), entries (01,10) and (10,01) must vanish
        s01 = BitString.from_text("01")
        s10 = BitString.from_text("10")
        checked = 0
        for seed in range(400):
            f = sample_atom(2, 2, seed)
            i01, i10 = image(f.V[s01.value]), image(f.V[s10.value])
            if np.allclose(i01 @ i01.T, i10 @ i10.T, rtol=0, atol=1e-9):
                m = evaluate(f)
                assert m.value(s01, s10) == 0
                assert m.value(s10, s01) == 0
                checked += 1
        assert checked > 0


class TestSerialization:
    def test_round_trip_exact(self):
        f = sample_atom(2, 3, 9)
        text = factorization_to_json(f)
        g = factorization_from_json(text)
        assert factorization_to_json(g) == text
        m1, m2 = evaluate(f), evaluate(g)
        assert np.array_equal(m1.values, m2.values)

    def test_round_trip_zero_factors(self):
        f = constant_factorization(1, 2, np.zeros((2, 2)))
        text = factorization_to_json(f)
        assert json.loads(text)["U"]["0"] == [[], []]
        assert not factorization_from_json(text).U.any()

    def test_factor_printed_to_last_nonzero_column(self):
        factor = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.5], [0.0, 0.0, 0.0]])
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        f = PsdFactorization(1, 3, np.stack([factor, e1]), np.zeros((2, 3, 3)))
        obj = json.loads(factorization_to_json(f))
        assert obj["U"] == {"0": factor.tolist(), "1": [[1.0], [0.0], [0.0]]}
        assert obj["V"]["1"] == [[], [], []]
        assert np.array_equal(factorization_from_json(factorization_to_json(f)).U, f.U)

    def test_wrong_key_set_rejected(self):
        obj = json.loads(factorization_to_json(constant_factorization(1, 2, np.eye(2))))
        del obj["V"]["1"]
        with pytest.raises(ValueError, match='field "V" needs one key per width-1 string'):
            factorization_from_json(json.dumps(obj))
        obj["V"] = {"0": [[], []], "1": [[], []], "11": [[], []]}
        with pytest.raises(ValueError, match='field "V"'):
            factorization_from_json(json.dumps(obj))

    @pytest.mark.parametrize("edit, field", [
        (lambda o: o.pop("U"), '"U"'),
        (lambda o: o.pop("n"), '"n"'),
        (lambda o: o.update(d=2.0), '"d"'),
        (lambda o: o.update(V=[[[1.0], [0.0]], [[], []]]), '"V"'),
        (lambda o: o["U"].update({"1": [[1.0]]}), '"U" entry "1" is not a list of 2 rows'),
        (lambda o: o["U"].update({"0": [[1.0, 0.0, 3.0], [0.0, 1.0, 0.0]]}),
         '"U" entry "0" is not 2 rows of one length <= 2'),
        (lambda o: o["V"].update({"0": [[1.0], [0.0, 1.0]]}), '"V" entry "0"'),
        (lambda o: o["V"].update({"1": [["1"], [0.0]]}), '"V" entry "1"'),
        (lambda o: o["V"].update({"1": [[True], [0.0]]}), '"V" entry "1"'),
        (lambda o: o["V"].update({"1": [[float("nan")], [0.0]]}), '"V" entry "1"'),
        # an integer past the double range, which float() cannot convert
        (lambda o: o["U"].update({"1": [[10**400], [0.0]]}), '"U" entry "1" is not 2 rows'),
        (lambda o: o["V"].update({"1": {"0": [1.0]}}), '"V" entry "1"'),
        (lambda o: o.update(n=11), "outside"),
        (lambda o: o.update(d=9), "outside"),
    ])
    def test_malformed_field_named(self, edit, field):
        obj = json.loads(factorization_to_json(constant_factorization(1, 2, np.eye(2))))
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(field)):
            factorization_from_json(json.dumps(obj))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            factorization_from_json("[1, 2]")

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="factorization JSON is nested too deeply"):
            factorization_from_json('{"n": 1, "d": 1, "U": ' + "[" * 5000 + "]" * 5000 + "}")


class TestFactorization:
    def test_dimension_above_max_dim_rejected(self):
        with pytest.raises(ValueError, match=re.escape("d = 9 outside [1, 8]")):
            PsdFactorization(1, 9, np.zeros((2, 9, 9)), np.zeros((2, 9, 9)))

    def test_factor_wider_than_d_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            PsdFactorization(1, 2, np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))

    def test_wrong_string_count_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            PsdFactorization(2, 2, np.zeros((2, 2, 2)), np.zeros((4, 2, 2)))
