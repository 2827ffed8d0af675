"""Small dense PSD matrices and subspace arithmetic, as plain arrays.

Everything here lives in dimension d <= 8.  A PSD matrix is given by a Gram
factor B, a d x r array with X = B B^T, which makes positive semidefiniteness
and the nonnegativity of trace inner products hold by construction:
<BB^T, CC^T> is the squared Frobenius norm of B^T C.  Zero columns change
nothing, so factors of any rank can share one zero-padded d x d layout.

A subspace is a d x k array with orthonormal columns.  Every rank comes from
one SVD rule: the image of B B^T is the column span of B, so images, kernels
and sums of subspaces split the left singular vectors of the columns at
RANK_TOL times the largest singular value.  Intersections of kernels are left
null spaces: x lies in the kernel of every B_i B_i^T exactly when x^T B_i = 0
for all i, that is when x^T [B_1 ... B_k] = 0, so the left singular vectors
of the factors placed side by side give the whole intersection.  A wide
d x m slice is first reduced to d x d by a QR of its transpose, x^T = Q R:
x x^T = R^T R, so R^T has the singular values and left singular vectors of x
and only its d x d SVD remains (Chan's R-SVD, ACM TOMS 8(1), 1982).  A stack
of such problems is one batched QR, the singular values of every slice, and
singular vectors only for the slices whose null space is proper.
``prefix_ranks`` gives a chain of image sums.
The key fact the oracles lean on: <X, Y> = 0 for PSD X, Y exactly when the
image of Y lies inside the kernel of X.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8

#: Relative singular-value cutoff separating image from kernel.  Measured over
#: 81,920 seeds per d at d = 2..5: smallest kept ratio 1.7e-6, largest cut
#: 3.3e-16 (scripts/rank_margin.py).
RANK_TOL = 1e-9


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """trace(X Y) for Gram factors x, y, as a sum of squares and hence never
    negative."""
    cross = x.T @ y
    return float(np.sum(cross * cross))


def _rank(s: np.ndarray, top: np.ndarray) -> np.ndarray:
    """How many singular values ``s`` (last axis) exceed RANK_TOL * ``top``."""
    return np.count_nonzero(s > RANK_TOL * top, axis=-1)


def _reduced(x: np.ndarray) -> np.ndarray:
    """A stack (..., d, d) with the singular values and left singular vectors
    of the stack x (..., d, m): slices of m <= d columns zero-padded to d,
    wider ones replaced by R^T from the QR x^T = Q R, since x x^T = R^T R."""
    d, m = x.shape[-2:]
    if m > d:
        return np.linalg.qr(x.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    return np.concatenate([x, np.zeros(x.shape[:-1] + (d - m,))], axis=-1)


def _svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left singular vectors (d per slice), singular values and ranks of a
    stack (..., d, m), from the d x d SVD of its ``_reduced`` form: a rank
    counts singular values above RANK_TOL times the slice's largest."""
    u, s, _ = np.linalg.svd(_reduced(x))
    return u, s, _rank(s, s[..., :1])


def image(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the image of X = x x^T, the column span of x."""
    u, _, rank = _svd(x)
    return u[:, :rank]


def kernel(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of X = x x^T, the image's complement."""
    u, _, rank = _svd(x)
    return u[:, rank:]


def subspace_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the concatenated bases a and b."""
    return image(np.hstack([a, b]))


def _prefixes(factors: np.ndarray) -> np.ndarray:
    """The nested prefixes [B_1 ... B_i], i = 1..k, of stacks (..., k, d, m)
    of Gram factors, each zero-filled to d x km: a stack (..., k, d, km)."""
    k, d, m = factors.shape[-3:]
    side_by_side = np.swapaxes(factors, -3, -2).reshape(factors.shape[:-3] + (d, k * m))
    # prefix i keeps the columns of its first i factors
    kept = np.arange(k * m) < m * np.arange(1, k + 1)[:, None, None]
    return np.where(kept, side_by_side[..., None, :, :], 0.0)


def prefix_ranks(factors: np.ndarray) -> np.ndarray:
    """dim(Im X_1 + ... + Im X_i), the rank of [B_1 ... B_i], for i = 1..k
    and stacks (..., k, d, m) of Gram factors, from the singular values of
    the nested prefixes.  All prefixes share the cutoff of the whole chain,
    and adding columns never lowers a singular value, so the ranks never
    decrease."""
    s = np.linalg.svd(_prefixes(factors), compute_uv=False)
    return _rank(s, s[..., -1:, :1])


def subspace_intersect(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common kernels of stacks of PSD matrices, by one batched QR (see
    ``_reduced``), the singular values of every slice, and a d x d SVD only
    of the slices whose null space is proper.

    ``factors`` has shape (..., d, m): each d x m slice holds the Gram
    factors of one problem placed side by side (zero columns are allowed).
    Returns ``(bases, dims)`` with bases of shape (..., d, d) and orthonormal
    columns: the first ``dims[...]`` columns of each slice span the
    intersection of the kernels, the left null space of the slice.  Every
    other slice (dims 0 or d) has basis exactly the identity, which spans
    the whole space when its factors are all zero.
    """
    x = _reduced(factors)
    s = np.linalg.svd(x, compute_uv=False)
    d, rank = x.shape[-1], _rank(s, s[..., :1])
    bases = np.broadcast_to(np.eye(d), x.shape).copy()
    proper = (rank > 0) & (rank < d)
    # null directions have the smallest singular values, so they come last
    bases[proper] = np.linalg.svd(x[proper])[0][..., ::-1]
    return bases, d - rank


def random_psd(d: int, rank: int, rng: np.random.Generator | int) -> np.ndarray:
    """d x rank Gram factor of independent standard-normal columns (rank
    exact a.s.); ``rng`` is a Generator or any seed numpy accepts."""
    if not 0 <= rank <= d:
        raise ValueError(f"rank {rank} outside [0, {d}]")
    return np.random.default_rng(rng).standard_normal((d, rank))
