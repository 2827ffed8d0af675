"""PSD matrices as Gram factors, image/kernel splits and subspace arithmetic
on orthonormal bases, every rank decided on singular values."""

from __future__ import annotations

import numpy as np
import pytest

from liftcert.linalg import (
    RANK_TOL,
    _reduced,
    image,
    inner,
    kernel,
    prefix_ranks,
    random_psd,
    subspace_intersect,
    subspace_sum,
)


def contains(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether every column of basis b projects onto the span of basis a."""
    return b.shape[1] == 0 or float(np.abs(b - a @ (a.T @ b)).max()) <= tol


def same_space(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape[1] == b.shape[1] and contains(a, b) and contains(b, a)


def complement(basis: np.ndarray) -> np.ndarray:
    """Orthogonal complement of an orthonormal basis, from a complete QR."""
    d, k = basis.shape
    if k == 0:
        return np.eye(d)
    q, _ = np.linalg.qr(basis, mode="complete")
    return q[:, k:]


def reference_intersect(factors: list[np.ndarray]) -> np.ndarray:
    """Per-string reference for the common kernel: the kernel of each
    partner, then the complement of the sum of the complements."""
    acc = complement(kernel(factors[0]))
    for x in factors[1:]:
        acc = subspace_sum(acc, complement(kernel(x)))
    return complement(acc)


def padded(x: np.ndarray) -> np.ndarray:
    """A d x r factor zero-padded to d x d."""
    return np.hstack([x, np.zeros((x.shape[0], x.shape[0] - x.shape[1]))])


class TestPsdMatrix:
    def test_zero_and_identity(self):
        for z in (np.zeros((3, 0)), np.zeros((3, 3))):
            assert inner(z, np.eye(3)) == 0.0 and image(z).shape == (3, 0)
            assert same_space(kernel(z), np.eye(3))
        assert same_space(image(np.eye(3)), np.eye(3))
        assert kernel(np.eye(3)).shape == (3, 0)

    def test_zero_columns_change_nothing(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = random_psd(4, int(rng.integers(0, 5)), rng)
            y = random_psd(4, int(rng.integers(0, 5)), rng)
            assert inner(padded(x), padded(y)) == pytest.approx(inner(x, y), rel=1e-14)
            assert same_space(image(padded(x)), image(x))


class TestInner:
    def test_identity_pair(self):
        assert inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_against_zero(self):
        assert inner(random_psd(4, 3, 0), np.zeros((4, 0))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.eye(2), np.eye(3))

    def test_rank_one_expansion(self):
        # oracle: <ww^T, vv^T> expands to (w.v)^2
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.standard_normal(4)
            v = rng.standard_normal(4)
            x, y = w.reshape(-1, 1), v.reshape(-1, 1)
            assert inner(x, y) == pytest.approx(float(w @ v) ** 2, rel=1e-12)

    def test_never_negative(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = random_psd(5, int(rng.integers(0, 6)), rng)
            y = random_psd(5, int(rng.integers(0, 6)), rng)
            assert inner(x, y) >= 0.0


class TestImageKernel:
    def test_zero_matrix_split(self):
        z = np.zeros((4, 0))
        assert image(z).shape[1] == 0
        assert kernel(z).shape[1] == 4

    def test_diag_split(self):
        x = np.array([[1.0], [0.0]])
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert same_space(image(x), e1)
        assert same_space(kernel(x), e2)

    def test_dims_complementary_on_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            x = random_psd(d, int(rng.integers(0, d + 1)), rng)
            assert image(x).shape[1] + kernel(x).shape[1] == d

    def test_cut_on_singular_values(self):
        # the input of test_intersect_cuts_on_singular_values, and a factor
        # whose singular-value ratio 1e-6 is above RANK_TOL although its
        # square, the eigenvalue ratio of x x^T, is below it
        w = np.array([[1.0], [0.0]])
        v = np.array([[1.0], [1e-7]])
        assert image(np.hstack([w, v])).shape[1] == 2
        assert kernel(np.hstack([w, v])).shape[1] == 0
        assert image(np.diag([1.0, 1e-6])).shape[1] == 2

    def test_orthonormal_bases(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = random_psd(6, int(rng.integers(0, 7)), rng)
            for s in (image(x), kernel(x)):
                if s.shape[1]:
                    assert np.abs(s.T @ s - np.eye(s.shape[1])).max() <= 1e-12


class TestSubspaceOps:
    def test_sum_of_axes(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        e2 = np.array([[0.0], [1.0], [0.0]])
        s = subspace_sum(e1, e2)
        assert s.shape[1] == 2
        assert contains(s, e1) and contains(s, e2)

    def test_sum_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(np.eye(2), np.eye(3))

    def test_intersect_with_full_space(self):
        # the full space is the kernel of the zero factor
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = random_psd(4, int(rng.integers(0, 5)), rng)
            bases, dims = subspace_intersect(np.hstack([np.zeros((4, 4)), x]))
            assert same_space(bases[:, :dims], kernel(x))

    def test_sum_contains_summands(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            a = image(random_psd(5, int(rng.integers(0, 6)), rng))
            b = image(random_psd(5, int(rng.integers(0, 6)), rng))
            s = subspace_sum(a, b)
            assert contains(s, a) and contains(s, b)
            assert s.shape[1] <= a.shape[1] + b.shape[1]

    def test_intersect_dimension_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = 5
            x = random_psd(d, int(rng.integers(0, d + 1)), rng)
            y = random_psd(d, int(rng.integers(0, d + 1)), rng)
            a, b = kernel(x), kernel(y)
            bases, dims = subspace_intersect(np.hstack([x, y]))
            got = bases[:, :dims]
            assert dims >= a.shape[1] + b.shape[1] - d
            assert contains(a, got) and contains(b, got)

    def test_complement_involution(self):
        # a basis read as a Gram factor has its orthogonal complement as kernel
        rng = np.random.default_rng(18)
        for _ in range(100):
            a = image(random_psd(4, int(rng.integers(0, 5)), rng))
            assert same_space(kernel(kernel(a)), a)

    def test_intersect_matches_per_string_reference(self):
        # sampler-like cases: 1 to 23 partners of uniform rank (half of the
        # cases 1 to 3, where the intersection is rarely trivial), placed
        # among zero factors as the sampler's masked partner rows are
        rng = np.random.default_rng(21)
        slots, cases = 24, 0
        for d in range(1, 5):
            for _ in range(800):
                k = int(rng.integers(1, 4 if rng.integers(2) else slots))
                factors = [padded(random_psd(d, int(rng.integers(0, d + 1)), rng))
                           for _ in range(k)]
                row = np.zeros((slots, d, d))
                row[np.sort(rng.choice(slots, k, replace=False))] = factors
                bases, dims = subspace_intersect(row.transpose(1, 0, 2).reshape(d, -1))
                ref = reference_intersect(factors)
                assert dims == ref.shape[1]
                got = bases[:, :dims]
                np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-9)
                cases += 1
        assert cases >= 3000

    def test_intersect_batches_slices(self):
        rng = np.random.default_rng(22)
        stack = rng.standard_normal((6, 3, 2)) * (rng.random((6, 1, 1)) < 0.5)
        bases, dims = subspace_intersect(stack)
        for x, b, k in zip(stack, bases, dims):
            one, k1 = subspace_intersect(x)
            assert k == k1 and same_space(b[:, :k], one[:, :k1])

    def test_intersect_of_zero_factors_is_identity(self):
        for d in range(1, 5):
            bases, dims = subspace_intersect(np.zeros((3, d, 2 * d)))
            assert np.array_equal(dims, [d] * 3)
            assert np.array_equal(bases, np.broadcast_to(np.eye(d), (3, d, d)))

    def test_intersect_cuts_on_singular_values(self):
        # two nearly parallel rank-1 factors span the plane: their second
        # singular value (~1e-7 relative) is far above RANK_TOL, although
        # its square is below RANK_TOL relative to the summed Gram matrix
        w = np.array([[1.0], [0.0]])
        v = np.array([[1.0], [1e-7]])
        _, dims = subspace_intersect(np.hstack([w, v]))
        assert dims == 0


class TestPrefixRanks:
    def test_match_images_of_prefixes(self):
        rng = np.random.default_rng(23)
        for d in range(1, 6):
            chains = np.array([[padded(random_psd(d, int(rng.integers(0, d + 1)), rng))
                                for _ in range(d)] for _ in range(40)])
            ranks = prefix_ranks(chains)
            assert ranks.shape == (40, d)
            for chain, got in zip(chains, ranks.tolist()):
                assert got == [image(np.hstack(list(chain[:i]))).shape[1]
                               for i in range(1, d + 1)]

    def test_prefixes_share_the_chain_cutoff(self):
        # diag(1, 1e-8) alone has rank 2 (ratio 1e-8 > RANK_TOL), but not
        # against the chain's largest singular value 1e4: a cutoff taken per
        # prefix would read ranks 2, 1
        first, second = np.diag([1.0, 1e-8]), np.diag([1e4, 0.0])
        assert 1e-8 > RANK_TOL and image(first).shape[1] == 2
        assert prefix_ranks(np.array([first, second])).tolist() == [1, 1]

    def test_zero_chain_has_rank_zero(self):
        assert not prefix_ranks(np.zeros((2, 3, 3, 3))).any()


class TestReduced:
    def test_square_stack_unchanged(self):
        x = np.random.default_rng(5).standard_normal((3, 4, 4))
        assert np.array_equal(_reduced(x), x)


class TestRandomPsd:
    def test_rank_zero_is_zero(self):
        x = random_psd(3, 0, 1)
        assert x.shape == (3, 0) and not x.any()

    def test_full_rank_has_trivial_kernel(self):
        for seed in range(1000):
            x = random_psd(4, 4, seed)
            assert kernel(x).shape[1] == 0

    def test_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = random_psd(6, int(rng.integers(0, 7)), rng)
            assert np.linalg.eigvalsh(x @ x.T).min() >= -1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_psd(3, 4, 0)

    def test_numpy_integer_seed(self):
        assert np.array_equal(random_psd(3, 2, np.int64(3)), random_psd(3, 2, 3))


class TestComplementarySlackness:
    def test_inner_zero_iff_kernel_contains_image(self):
        rng = np.random.default_rng(20)
        hits = 0
        for _ in range(500):
            d = int(rng.integers(1, 6))
            x = random_psd(d, int(rng.integers(0, d + 1)), rng)
            # draw y either freely or inside ker(x) to exercise both directions
            if rng.integers(2):
                y = random_psd(d, int(rng.integers(0, d + 1)), rng)
            else:
                k = kernel(x)
                cols = int(rng.integers(0, d + 1))
                y = k @ rng.standard_normal((k.shape[1], min(cols, d)))
            zero = inner(x, y) <= 1e-9 * max(
                inner(x, x) ** 0.5 * inner(y, y) ** 0.5, 1e-300
            )
            contained = contains(kernel(x), image(y))
            assert zero == contained
            hits += zero
        assert 0 < hits < 500  # both branches exercised
