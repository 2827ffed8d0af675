"""Random atoms: PSD-factorized matrices vanishing on intersection-one pairs.

An atom of size 2^n x 2^n over the cone of d x d PSD matrices assigns a PSD
matrix U_a to every row string and V_b to every column string; the evaluated
matrix has entries <U_a, V_b> and must vanish whenever a and b intersect in
exactly one position.

A factorization holds each side as one (2^n, d, d) stack of Gram factors
indexed by string value (lex order), zero-padded to d columns, so evaluation
is one broadcast matmul and strings appear only in the JSON form.

The sampler constructs such factorizations directly: one side is drawn at
random, and each matrix on the other side is built inside the intersection of
the kernels of its intersection-one partners, so the required zeros hold by
construction (numerically they land many orders below the classification
threshold).  Each string's partners are one row of the intersection table,
and every string's space comes from one batched SVD of the partners' factors
placed side by side.  On top of the sampler sit two falsifiable oracles:

* ``antidiagonal_witness`` finds, for n = d, a pair (a, complement(a)) whose
  entry is zero, by walking the nondecreasing chain of column-image sums
  F_i = Im V_{e_1} + ... + Im V_{e_i}.  Every square atom has such a zero.
* ``classify_pattern_d2`` checks that a 4 x 4 atom over 2 x 2 PSD matrices
  has one of six admissible sparsity patterns (hence at most 7 positive
  disjoint entries).

Both raise a falsification error when the claimed structure fails, carrying
the offending object for serialization; such evidence would refute the
sparsity analysis and is the most valuable possible output of the suite.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .bitcore import (
    EPS_ZERO,
    MAX_DENSE_N,
    BitString,
    SupportMatrix,
    _json_field,
    all_strings,
    intersection_size,
    intersection_table,
)
from .linalg import MAX_DIM, image, random_psd, subspace_intersect, subspace_sum

MAX_SAMPLE_N = 8

#: An inner product below this fraction of its Cauchy-Schwarz bound
#: ||U_a||_F * ||V_b||_F is a by-construction zero carrying only rounding
#: noise (~1e-30 relative after squaring orthogonality defects) and is stored
#: as an exact zero.  Without this, an atom whose genuine entries all vanish
#: would have its largest noise entry as the matrix scale and could never
#: clear its own relative threshold.
NOISE_REL = 1e-20

RankProfile = Union[str, int, Callable[[np.random.Generator, int], int]]


class FalsificationError(Exception):
    """A randomized oracle hit a state the sparsity analysis rules out."""

    def __init__(self, message: str, factorization: "PsdFactorization | None" = None):
        super().__init__(message)
        self.factorization = factorization


class NoPatternMatches(FalsificationError):
    """Support of a 4 x 4 atom fits none of the six admissible patterns."""

    def __init__(self, message: str, matrix: SupportMatrix,
                 factorization: "PsdFactorization | None" = None):
        super().__init__(message, factorization)
        self.matrix = matrix


@dataclass(frozen=True, eq=False)
class PsdFactorization:
    """Gram factors realizing M_{a,b} = <U_a U_a^T, V_b V_b^T>.

    ``U`` and ``V`` are read-only (2^n, d, d) stacks indexed by string value:
    ``U[a.value]`` is the Gram factor of row string a, zero-padded to d
    columns (a factor of rank r fills its first r columns).
    """

    n: int
    d: int
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"d = {self.d} outside [1, {MAX_DIM}]")
        shape = (1 << self.n, self.d, self.d)
        for name in ("U", "V"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, not {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _sum_sq(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms over the last two axes."""
    return (x * x).sum(axis=(-2, -1))


def evaluate(f: PsdFactorization) -> SupportMatrix:
    """Dense matrix of pairwise trace inner products (all entries >= 0).

    Entry (a, b) is ||U_a^T V_b||_F^2 over the Gram factors, a sum of
    squares; all 4^n products come from one broadcast matmul over the two
    stacks.  Entries at rounding-noise level relative to their
    Cauchy-Schwarz bound (see NOISE_REL) are stored as exact zeros.
    """
    if f.n > MAX_DENSE_N:
        raise ValueError(f"n = {f.n} exceeds dense cap {MAX_DENSE_N}")
    u, v = f.U, f.V
    ut, vt = u.transpose(0, 2, 1), v.transpose(0, 2, 1)
    m = _sum_sq(ut[:, None] @ v[None])
    # ||U_a U_a^T||_F * ||V_b V_b^T||_F, with ||B B^T||_F^2 = ||B^T B||_F^2
    bound = np.sqrt(np.outer(_sum_sq(ut @ u), _sum_sq(vt @ v)))
    return SupportMatrix(f.n, np.where(m > NOISE_REL * bound, m, 0.0))


def _draw_rank(profile: RankProfile, gen: np.random.Generator, d: int) -> int:
    if profile == "uniform":
        return int(gen.integers(0, d + 1))
    if profile == "full":
        return d
    if isinstance(profile, int):
        if not 0 <= profile <= d:
            raise ValueError(f"fixed rank {profile} outside [0, {d}]")
        return profile
    if callable(profile):
        r = int(profile(gen, d))
        if not 0 <= r <= d:
            raise ValueError(f"rank profile returned {r} outside [0, {d}]")
        return r
    raise ValueError(f"unknown rank profile: {profile!r}")


def _constrained_side(
    free: np.ndarray, n: int, d: int, profile: RankProfile, gen: np.random.Generator
) -> np.ndarray:
    """Gram factors spanned by vectors drawn inside the kernels of all
    intersection-one partners on the free side.

    Row b of the intersection table marks b's partners; their factors placed
    side by side (every other string's zeroed) have b's space as left null
    space, so one batched SVD finds every string's space.  The loop draws
    only the ranks and normals, in string order.
    """
    size = 1 << n
    partner = (intersection_table(n) == 1)[:, None, :, None]
    # entry [b, i, a, j] is free[a, i, j] when a is a partner of b, else 0
    side_by_side = np.where(partner, free.transpose(1, 0, 2), 0.0)
    spaces, dims = subspace_intersect(side_by_side.reshape(size, d, size * d))
    out = np.zeros_like(free)
    for b in range(size):
        r, k = _draw_rank(profile, gen, d), dims[b]
        if r and k:
            out[b, :, :r] = spaces[b, :, :k] @ gen.standard_normal((k, r))
    return out


def sample_atom(
    n: int,
    d: int,
    rank_profile: RankProfile = "uniform",
    rng: np.random.Generator | int = 0,
    direction: str = "u-first",
) -> PsdFactorization:
    """Draw a random factorization whose evaluation vanishes on
    intersection-one pairs by construction.

    ``rank_profile`` governs both the ranks of the freely drawn side and the
    number of spanning vectors on the constrained side: "uniform" (default)
    draws each uniformly from {0, ..., d}; "full" forces d; an integer fixes
    the value; a callable (gen, d) -> int customizes it.  Full-rank-only
    profiles collapse every constrained matrix to zero, so uniform mixing is
    the default.  ``direction`` picks which side is free: the construction is
    asymmetric, and both directions should exercise the oracles.  ``rng`` is
    a Generator or any seed numpy accepts.
    """
    if not 1 <= n <= MAX_SAMPLE_N:
        raise ValueError(f"n = {n} outside [1, {MAX_SAMPLE_N}]")
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d = {d} outside [1, {MAX_DIM}]")
    if direction not in ("u-first", "v-first"):
        raise ValueError(f"direction must be 'u-first' or 'v-first', got {direction!r}")
    gen = np.random.default_rng(rng)
    free = np.zeros((1 << n, d, d))
    for factor in free:
        r = _draw_rank(rank_profile, gen, d)
        factor[:, :r] = random_psd(d, r, gen)
    constrained = _constrained_side(free, n, d, rank_profile, gen)
    if direction == "u-first":
        return PsdFactorization(n, d, free, constrained)
    return PsdFactorization(n, d, constrained, free)


def antidiagonal_witness(f: PsdFactorization, eps: float = EPS_ZERO) -> BitString:
    """A string a with evaluated entry (a, complement(a)) numerically zero.

    Walks F_i = Im V_{e_1} + ... + Im V_{e_i}: if F_d is the full space the
    all-ones row is zero; if V_{e_1} = 0 the e_1 column is zero; otherwise
    the chain stalls at some first p with F_p = F_{p+1}, and the complement
    of e_{p+1} indexes a zero row entry at the antidiagonal.  Raises
    FalsificationError if the selected entry is not numerically zero, which
    would contradict the antidiagonal-zero property of square atoms.
    """
    if f.n != f.d:
        raise ValueError(f"witness needs a square-index atom, got n={f.n}, d={f.d}")
    d = f.d
    # F_i = Im V_{e_1} + ... + Im V_{e_i}; e_i has value 2^(d - i)
    chain = [image(f.V[1 << (d - 1)])]
    for i in range(2, d + 1):
        chain.append(subspace_sum(chain[-1], image(f.V[1 << (d - i)])))
    dims = [space.shape[1] for space in chain]
    if dims[-1] == d:
        a = BitString.ones(d)
    elif dims[0] == 0:
        a = BitString.unit(d, 1).complement()
    else:
        stall = next((j for j in range(d - 1) if dims[j] == dims[j + 1]), None)
        # a strictly increasing chain starting at dim >= 1 would reach dim d
        assert stall is not None, "image chain cannot strictly increase below full"
        a = BitString.unit(d, stall + 2).complement()
    m = evaluate(f)
    entry = m.value(a, a.complement())
    if entry > m.threshold(eps):
        raise FalsificationError(
            f"antidiagonal entry at ({a}, {a.complement()}) is {entry:.3e}, "
            f"above threshold {m.threshold(eps):.3e}",
            factorization=f,
        )
    return a


class PatternId(enum.IntEnum):
    """The six admissible 4 x 4 sparsity patterns of atoms over 2 x 2 PSD cones."""

    FIRST_CROSS = 1
    NO_CORNERS = 2
    ZERO_ROW_01 = 3
    ZERO_ROW_10 = 4
    ZERO_COL_01 = 5
    ZERO_COL_10 = 6


# Rows and columns in lex order 00, 01, 10, 11; 'x' marks an allowed-positive
# entry, '?' the unconstrained non-disjoint corner, '.' a forced zero.  All
# intersection-one positions are '.' in every pattern.
_TEMPLATE_GRIDS: dict[PatternId, tuple[str, str, str, str]] = {
    PatternId.FIRST_CROSS: ("xxxx", "x...", "x...", "x..?"),
    PatternId.NO_CORNERS: ("xxx.", "x.x.", "xx..", "...?"),
    PatternId.ZERO_ROW_01: ("xxxx", "....", "xx..", "x..?"),
    PatternId.ZERO_ROW_10: ("xxxx", "x.x.", "....", "x..?"),
    PatternId.ZERO_COL_01: ("x.xx", "x.x.", "x...", "x..?"),
    PatternId.ZERO_COL_10: ("xx.x", "x...", "xx..", "x..?"),
}


#: Allowed-positive positions ('x' or '?') of each template as a 4 x 4 mask,
#: in pattern id order.
_TEMPLATE_MASKS = {
    pid: np.array([[c in "x?" for c in row] for row in grid])
    for pid, grid in _TEMPLATE_GRIDS.items()
}


def pattern_template(pid: PatternId) -> frozenset[tuple[BitString, BitString]]:
    """Allowed-positive positions of the pattern (including the '?' corner)."""
    return frozenset(
        (BitString(2, a), BitString(2, b))
        for a, b in np.argwhere(_TEMPLATE_MASKS[PatternId(pid)]).tolist()
    )


def pattern_disjoint_support(pid: PatternId) -> frozenset[tuple[BitString, BitString]]:
    """The disjoint-pair portion of the pattern's allowed positions."""
    return frozenset(
        (a, b) for a, b in pattern_template(pid) if intersection_size(a, b) == 0
    )


def classify_pattern_d2(m: SupportMatrix, eps: float = EPS_ZERO) -> PatternId:
    """Lex-smallest pattern id whose template contains the support of m.

    Raises NoPatternMatches when no template fits; for an atom over 2 x 2
    PSD matrices that would falsify the six-pattern classification (for
    anything else it merely signals the input is not such an atom).
    """
    if m.n != 2:
        raise ValueError(f"pattern classification needs n = 2, got {m.n}")
    support = m.support(eps)
    for pid, allowed in _TEMPLATE_MASKS.items():
        if not np.any(support & ~allowed):
            return pid
    pairs = ", ".join(
        f"({BitString(2, a)}, {BitString(2, b)})" for a, b in np.argwhere(support).tolist()
    )
    raise NoPatternMatches(f"support {{{pairs}}} fits none of the six patterns", matrix=m)


def _json_factor(b: np.ndarray) -> list[list[float]]:
    """Rows of a zero-padded Gram factor, up to its last nonzero column."""
    cols = np.flatnonzero(b.any(axis=0))
    return b[:, : cols[-1] + 1 if cols.size else 0].tolist()


def factorization_to_json(f: PsdFactorization) -> str:
    """Full-precision JSON with Gram factor rows per index string."""
    labels = [str(s) for s in all_strings(f.n)]
    obj = {
        "n": f.n,
        "d": f.d,
        "U": dict(zip(labels, map(_json_factor, f.U))),
        "V": dict(zip(labels, map(_json_factor, f.V))),
    }
    return json.dumps(obj, sort_keys=True)


def factorization_from_json(text: str) -> PsdFactorization:
    """Parse a factorization; a missing or ill-typed field, a key set other
    than the width-n strings, or a factor that is not d rows of at most d
    finite numbers raises ValueError naming it."""
    obj = json.loads(text)
    n, d = (_json_field(obj, key, int, "factorization") for key in ("n", "d"))
    if not (0 <= n <= MAX_DENSE_N and 1 <= d <= MAX_DIM):
        raise ValueError(f"factorization has n = {n}, d = {d} outside "
                         f"[0, {MAX_DENSE_N}] x [1, {MAX_DIM}]")
    labels = [str(s) for s in all_strings(n)]

    def side(name: str) -> np.ndarray:
        raw = _json_field(obj, name, dict, "factorization")
        if sorted(raw) != labels:
            raise ValueError(f'factorization field "{name}" needs one key per '
                             f"width-{n} string")
        out = np.zeros((1 << n, d, d))
        for factor, key in zip(out, labels):
            rows = raw[key]
            if not (isinstance(rows, list) and len(rows) == d
                    and all(isinstance(row, list) for row in rows)):
                raise ValueError(f'factorization field "{name}" entry "{key}" '
                                 f"is not a list of {d} rows")
            width = len(rows[0])
            if width > d or any(
                len(row) != width
                or any(type(x) not in (int, float) or not math.isfinite(x) for x in row)
                for row in rows
            ):
                raise ValueError(f'factorization field "{name}" entry "{key}" is not '
                                 f"{d} rows of one length <= {d} of finite numbers")
            factor[:, :width] = rows
        return out

    return PsdFactorization(n, d, side("U"), side("V"))
