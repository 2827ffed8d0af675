"""Small dense PSD matrices and subspace arithmetic, as plain arrays.

Everything here lives in dimension d <= 8.  A PSD matrix is given by a Gram
factor B, a d x r array with X = B B^T, which makes positive semidefiniteness
and the nonnegativity of trace inner products hold by construction:
<BB^T, CC^T> is the squared Frobenius norm of B^T C.  Zero columns change
nothing, so factors of any rank can share one zero-padded d x d layout.

A subspace is a d x k array with orthonormal columns.  Images and kernels
come from a spectral decomposition with a relative eigenvalue cutoff, and
sums orthonormalize concatenated bases.  Intersections of kernels are left
null spaces: x lies in the kernel of every B_i B_i^T exactly when x^T B_i = 0
for all i, that is when x^T [B_1 ... B_k] = 0, so one SVD of the factors
placed side by side gives the whole intersection, and a stack of such
problems is one batched SVD.  ``image_block`` and ``subspace_sum_block`` take
stacks too, and return each basis zero-padded to d x d with its dimension.
The key fact the oracles lean on: <X, Y> = 0 for PSD X, Y exactly when the
image of Y lies inside the kernel of X.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8

#: Relative eigenvalue / singular-value cutoff separating image from kernel.
#: Sampled spectra sit well above this scale; by-construction zeros far below.
RANK_TOL = 1e-9


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """trace(X Y) for Gram factors x, y, as a sum of squares and hence never
    negative."""
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    cross = x.T @ y
    return max(float(np.sum(cross * cross)), 0.0)


def _eig_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of X = x x^T for a stack (..., d, m) of factors, in
    ascending eigenvalue order, and how many of them (the last ones) have an
    eigenvalue above RANK_TOL * lambda_max."""
    w, v = np.linalg.eigh(x @ np.swapaxes(x, -1, -2))
    lam_max = np.maximum(w[..., -1:], 0.0)
    return v, np.count_nonzero(w > RANK_TOL * lam_max, axis=-1)


def image(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the eigenvectors of X = x x^T with
    eigenvalue above RANK_TOL * lambda_max."""
    v, dims = _eig_split(x)
    return v[:, v.shape[1] - dims:]


def kernel(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the image, from the same
    decomposition."""
    v, dims = _eig_split(x)
    return v[:, : v.shape[1] - dims]


def image_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``image`` of every factor in a stack (..., d, m), as ``(bases, dims)``:
    each (d, d) basis holds the image in its last ``dims`` columns and zeros
    in the others."""
    v, dims = _eig_split(x)
    d = v.shape[-1]
    return v * (np.arange(d) >= d - dims[..., None])[..., None, :], dims


def _span(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors of a stack (..., d, m) and how many of them (the
    first ones) have a singular value above RANK_TOL times the largest."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u, np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


def subspace_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the concatenated bases a and b."""
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"ambient mismatch: {a.shape[0]} vs {b.shape[0]}")
    columns = np.hstack([a, b])
    if columns.size == 0:
        return columns
    u, dims = _span(columns)
    return u[:, :dims]


def subspace_sum_block(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``subspace_sum`` of every pair in two stacks (..., d, d) of bases that
    may carry zero columns, as ``(bases, dims)``: each (d, d) basis holds the
    sum in its first ``dims`` columns and zeros in the others."""
    u, dims = _span(np.concatenate([a, b], axis=-1))
    d = u.shape[-1]
    return u * (np.arange(d) < dims[..., None])[..., None, :], dims


def subspace_intersect(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common kernels of stacks of PSD matrices, by one batched SVD.

    ``factors`` has shape (..., d, m): each d x m slice holds the Gram
    factors of one problem placed side by side (zero columns are allowed).
    Returns ``(bases, dims)`` with bases of shape (..., d, d) and orthonormal
    columns: the first ``dims[...]`` columns of each slice span the
    intersection of the kernels, the left null space of the slice.  Singular
    values at or below RANK_TOL times the slice's largest count as zero; a slice
    whose factors are all zero has the whole space, with basis exactly the
    identity.
    """
    d, m = factors.shape[-2:]
    if m < d:  # pad so that every slice has d left singular vectors
        factors = np.concatenate(
            [factors, np.zeros(factors.shape[:-1] + (d - m,))], axis=-1)
    u, s, _ = np.linalg.svd(factors, full_matrices=False)
    dims = d - np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    # null directions have the smallest singular values, so they come last
    bases = np.where((s[..., :1] > 0)[..., None], u[..., ::-1], np.eye(d))
    return bases, dims


def random_psd(d: int, rank: int, rng: np.random.Generator | int) -> np.ndarray:
    """d x rank Gram factor of independent standard-normal columns (rank
    exact a.s.); ``rng`` is a Generator or any seed numpy accepts."""
    if not 0 <= rank <= d:
        raise ValueError(f"rank {rank} outside [0, {d}]")
    return np.random.default_rng(rng).standard_normal((d, rank))
