"""Small dense PSD matrices and subspace arithmetic.

Everything here lives in dimension d <= 8.  PSD matrices are represented by a
Gram factor B with X = B B^T, which makes positive semidefiniteness and the
nonnegativity of trace inner products hold by construction: <BB^T, CC^T> is
the squared Frobenius norm of B^T C.

Subspaces carry an orthonormal basis.  Images and kernels come from a
spectral decomposition with a relative eigenvalue cutoff; sums orthonormalize
concatenated bases, and intersections go through orthogonal-complement
duality.  The key fact the oracles lean on: <X, Y> = 0 for PSD X, Y exactly
when the image of Y lies inside the kernel of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8

#: Relative eigenvalue / singular-value cutoff separating image from kernel.
#: Sampled spectra sit well above this scale; by-construction zeros far below.
RANK_TOL = 1e-9

#: Orthonormality defect allowed in a stored subspace basis.
ORTHO_TOL = 1e-12

#: Projection residual allowed when testing subspace containment.
CONTAIN_TOL = 1e-9


def _frozen_array(x) -> np.ndarray:
    arr = np.array(x, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PsdMatrix:
    """X = B B^T for a d x r Gram factor B with r <= d; PSD by construction."""

    gram_factor: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.gram_factor, dtype=float)
        if b.ndim != 2:
            raise ValueError("gram factor must be a 2-d array")
        d, r = b.shape
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"d = {d} outside [1, {MAX_DIM}]")
        if not 0 <= r <= d:
            raise ValueError(f"rank bound {r} outside [0, {d}]")
        object.__setattr__(self, "gram_factor", _frozen_array(b))

    @classmethod
    def zero(cls, d: int) -> "PsdMatrix":
        return cls(np.zeros((d, 0)))

    @classmethod
    def identity(cls, d: int) -> "PsdMatrix":
        return cls(np.eye(d))

    @property
    def d(self) -> int:
        return self.gram_factor.shape[0]

    @property
    def rank_bound(self) -> int:
        return self.gram_factor.shape[1]

    def matrix(self) -> np.ndarray:
        return self.gram_factor @ self.gram_factor.T

    def is_zero(self) -> bool:
        return self.rank_bound == 0 or not np.any(self.gram_factor)


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^d given by a d x k matrix with orthonormal columns."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.basis, dtype=float)
        if q.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        d, k = q.shape
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"d = {d} outside [1, {MAX_DIM}]")
        if k > d:
            raise ValueError(f"dimension {k} exceeds ambient {d}")
        defect = np.abs(q.T @ q - np.eye(k)).max() if k else 0.0
        if defect > ORTHO_TOL:
            raise ValueError(f"basis not orthonormal (defect {defect:.2e})")
        object.__setattr__(self, "basis", _frozen_array(q))

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0)))

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(np.eye(d))

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def complement(self) -> "Subspace":
        """Orthogonal complement, from a complete QR of the basis."""
        if self.dim == 0:
            return Subspace.full(self.d)
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace(q[:, self.dim :])

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)


def inner(x: PsdMatrix, y: PsdMatrix) -> float:
    """trace(X Y), computed as a sum of squares and hence never negative."""
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} vs {y.d}")
    cross = x.gram_factor.T @ y.gram_factor
    return max(float(np.sum(cross * cross)), 0.0)


def _eig_split(x: PsdMatrix, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors above / at-or-below the relative cutoff tol * lambda_max."""
    w, v = np.linalg.eigh(x.matrix())
    lam_max = max(float(w[-1]), 0.0)
    keep = w > tol * lam_max
    return v[:, keep], v[:, ~keep]


def image(x: PsdMatrix, tol: float = RANK_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above tol * lambda_max."""
    img, _ = _eig_split(x, tol)
    return Subspace(img)


def kernel(x: PsdMatrix, tol: float = RANK_TOL) -> Subspace:
    """Orthogonal complement of the image within the same decomposition."""
    _, ker = _eig_split(x, tol)
    return Subspace(ker)


def _orthonormalize(columns: np.ndarray, d: int, tol: float) -> Subspace:
    if columns.size == 0:
        return Subspace.zero(d)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    keep = s > tol * s[0] if s.size and s[0] > 0 else np.zeros(s.shape, bool)
    return Subspace(u[:, keep])


def subspace_sum(a: Subspace, b: Subspace, tol: float = RANK_TOL) -> Subspace:
    """Orthonormalized span of the concatenated bases."""
    if a.d != b.d:
        raise ValueError(f"ambient mismatch: {a.d} vs {b.d}")
    return _orthonormalize(np.hstack([a.basis, b.basis]), a.d, tol)


def subspace_intersect(spaces: list[Subspace], tol: float = RANK_TOL) -> Subspace:
    """Intersection via duality: the complement of the sum of the complements."""
    if not spaces:
        raise ValueError("need at least one subspace")
    d = spaces[0].d
    if any(s.d != d for s in spaces):
        raise ValueError("ambient mismatch")
    acc = spaces[0].complement()
    for s in spaces[1:]:
        acc = subspace_sum(acc, s.complement(), tol)
    return acc.complement()


def contains(a: Subspace, b: Subspace, tol: float = CONTAIN_TOL) -> bool:
    """Whether every basis vector of B projects onto A up to the tolerance."""
    if a.d != b.d:
        raise ValueError(f"ambient mismatch: {a.d} vs {b.d}")
    if b.dim == 0:
        return True
    residual = b.basis - a.project(b.basis)
    return float(np.abs(residual).max()) <= tol


def random_psd(d: int, rank: int, rng: np.random.Generator | int) -> PsdMatrix:
    """Gram matrix of `rank` independent standard-normal columns (rank exact a.s.)."""
    if not 0 <= rank <= d:
        raise ValueError(f"rank {rank} outside [0, {d}]")
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    return PsdMatrix(gen.standard_normal((d, rank)))
