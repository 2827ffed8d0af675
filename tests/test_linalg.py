"""PSD matrices, spectral image/kernel splits, and subspace arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from liftcert.linalg import (
    ORTHO_TOL,
    PsdMatrix,
    Subspace,
    contains,
    image,
    inner,
    kernel,
    random_psd,
    subspace_intersect,
    subspace_sum,
)


def same_space(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and contains(a, b) and contains(b, a)


class TestPsdMatrix:
    def test_zero_and_identity(self):
        z = PsdMatrix.zero(3)
        assert z.is_zero() and z.rank_bound == 0
        assert np.array_equal(PsdMatrix.identity(3).matrix(), np.eye(3))

    def test_rank_bound_validated(self):
        with pytest.raises(ValueError):
            PsdMatrix(np.zeros((2, 3)))


class TestInner:
    def test_identity_pair(self):
        i3 = PsdMatrix.identity(3)
        assert inner(i3, i3) == pytest.approx(3.0)

    def test_against_zero(self):
        assert inner(random_psd(4, 3, 0), PsdMatrix.zero(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(PsdMatrix.identity(2), PsdMatrix.identity(3))

    def test_rank_one_expansion(self):
        # oracle: <ww^T, vv^T> expands to (w.v)^2
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.standard_normal(4)
            v = rng.standard_normal(4)
            x = PsdMatrix(w.reshape(-1, 1))
            y = PsdMatrix(v.reshape(-1, 1))
            assert inner(x, y) == pytest.approx(float(w @ v) ** 2, rel=1e-12)

    def test_never_negative(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = random_psd(5, int(rng.integers(0, 6)), rng)
            y = random_psd(5, int(rng.integers(0, 6)), rng)
            assert inner(x, y) >= 0.0


class TestImageKernel:
    def test_zero_matrix_split(self):
        z = PsdMatrix.zero(4)
        assert image(z).dim == 0
        assert kernel(z).dim == 4

    def test_diag_split(self):
        x = PsdMatrix(np.array([[1.0], [0.0]]))
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        assert same_space(image(x), e1)
        assert same_space(kernel(x), e2)

    def test_dims_complementary_on_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            x = random_psd(d, int(rng.integers(0, d + 1)), rng)
            assert image(x).dim + kernel(x).dim == d

    def test_orthonormal_bases(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = random_psd(6, int(rng.integers(0, 7)), rng)
            for s in (image(x), kernel(x)):
                if s.dim:
                    defect = np.abs(s.basis.T @ s.basis - np.eye(s.dim)).max()
                    assert defect <= ORTHO_TOL


class TestSubspaceOps:
    def test_sum_of_axes(self):
        e1 = Subspace(np.array([[1.0], [0.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0], [0.0]]))
        s = subspace_sum(e1, e2)
        assert s.dim == 2
        assert contains(s, e1) and contains(s, e2)

    def test_intersect_with_full_space(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a = image(random_psd(4, int(rng.integers(0, 5)), rng))
            got = subspace_intersect([Subspace.full(4), a])
            assert same_space(got, a)

    def test_sum_contains_summands(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            a = image(random_psd(5, int(rng.integers(0, 6)), rng))
            b = image(random_psd(5, int(rng.integers(0, 6)), rng))
            s = subspace_sum(a, b)
            assert contains(s, a) and contains(s, b)
            assert s.dim <= a.dim + b.dim

    def test_intersect_dimension_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = 5
            a = image(random_psd(d, int(rng.integers(0, d + 1)), rng))
            b = image(random_psd(d, int(rng.integers(0, d + 1)), rng))
            got = subspace_intersect([a, b])
            assert got.dim >= a.dim + b.dim - d
            assert contains(a, got) and contains(b, got)

    def test_complement_involution(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            a = image(random_psd(4, int(rng.integers(0, 5)), rng))
            assert same_space(a.complement().complement(), a)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))


class TestRandomPsd:
    def test_rank_zero_is_zero(self):
        assert random_psd(3, 0, 1).is_zero()

    def test_full_rank_has_trivial_kernel(self):
        for seed in range(1000):
            x = random_psd(4, 4, seed)
            assert kernel(x).dim == 0

    def test_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = random_psd(6, int(rng.integers(0, 7)), rng)
            assert np.linalg.eigvalsh(x.matrix()).min() >= -1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_psd(3, 4, 0)


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
                y = PsdMatrix(k.basis @ rng.standard_normal((k.dim, min(cols, d))))
            zero = inner(x, y) <= 1e-9 * max(
                inner(x, x) ** 0.5 * inner(y, y) ** 0.5, 1e-300
            )
            contained = contains(kernel(x), image(y))
            assert zero == contained
            hits += zero
        assert 0 < hits < 500  # both branches exercised
