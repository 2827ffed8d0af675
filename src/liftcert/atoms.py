"""Random atoms: PSD-factorized matrices vanishing on intersection-one pairs.

An atom of size 2^n x 2^n over the cone of d x d PSD matrices assigns a PSD
matrix U_a to every row string and V_b to every column string; the evaluated
matrix has entries <U_a, V_b> and must vanish whenever a and b intersect in
exactly one position.

A factorization holds each side as one (2^n, d, d) stack of Gram factors
indexed by string value (lex order), zero-padded to d columns, so evaluation
is one broadcast matmul and strings appear only in the JSON form.

The sampler constructs such factorizations directly: one side is drawn at
random (U for an even seed, V for an odd one, so the seed alone names an
atom), and each matrix on the other side is built inside the intersection of
the kernels of its intersection-one partners, so the required zeros hold by
construction (numerically up to rounding noise, which ``evaluate_block``
stores as exact zeros).  Each string's partners are gathered from a cached
table of their values, and every string's space comes from the partners'
factors placed side by side: one batched QR reduces each such d x pd slice to
d x d, whose singular values give the null spaces' dimensions and, where a
null space is proper, whose singular vectors give its basis (Chan's R-SVD;
see ``linalg``).

The oracles run trials in blocks of ``block_size(n)``: ``sample_block``
computes every trial's own SplitMix64 stream (Steele, Lea & Flood, OOPSLA
2014; defined word for word there, so no draw rests on NumPy's generators)
in one array pass, exactly as ``sample_atom`` would draw it, and runs the
rest (rank masks, null-space QR and SVD, one batched product for the
constrained side and, through ``evaluate_block``, the evaluation) on the
block's (T, 2^n, d, d) stacks.  On top of the sampler sit two falsifiable
oracles, pure checks of a block:

* ``witness_block`` returns per trial None or why the entry at (a,
  complement(a)) of a square atom (n = d) is not zero, where the image sums
  F_i of V_{e_1}, ..., V_{e_i} from F_0 = {0} either reach the whole space
  (a = all ones) or stall at a first p (a = complement of e_{p+1}).
* ``pattern_block`` gives per 4 x 4 support the admissible sparsity pattern
  (of six, hence at most 7 positive disjoint entries) that an atom over
  2 x 2 PSD matrices must fit, or 0 for none (a reason, in ``cli``).

A reason, printed with the offending factorization, would refute the
sparsity analysis and is the most valuable possible output of the suite.
``antidiagonal_witness`` and ``classify_pattern_d2`` are their T = 1 case,
and raise FalsificationError instead of returning a reason.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bitcore import (
    MAX_DENSE_N,
    BitString,
    SupportMatrix,
    _json_field,
    _json_load,
    all_strings,
    intersection_table,
)
from .linalg import MAX_DIM, prefix_ranks, subspace_intersect

MAX_SAMPLE_N = 8

#: The one zero rule: an inner product at most this fraction of its
#: Cauchy-Schwarz bound ||U_a U_a^T||_F * ||V_b V_b^T||_F is a by-construction
#: zero carrying only rounding noise, stored as an exact zero, so a support is
#: the positive entries.  Measured over 81,920 seeds per d at n = d = 2..5:
#: largest clamped ratio 2.9e-30, smallest kept 1.4e-13 (scripts/rank_margin.py).
NOISE_REL = 1e-20

class FalsificationError(Exception):
    """A randomized oracle hit a state the sparsity analysis rules out."""


class NoPatternMatches(FalsificationError):
    """Support of a 4 x 4 atom fits none of the six admissible patterns."""


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
    """Squared Frobenius norms over the last two axes, squaring the temporary x in place."""
    return np.square(x, out=x).sum(axis=(-2, -1))


def evaluate_block(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluated matrices of a block of factorizations (all entries >= 0).

    ``u`` (T, r, d, d) and ``v`` (T, c, d, d) are stacks of Gram factors,
    any rows against any columns (r = c = 2^n for whole matrices); entry
    [t, a, b] is ||U_a^T V_b||_F^2 of trial t, a sum of squares, and all
    T r c products come from one broadcast matmul.  Entries at
    rounding-noise level relative to their Cauchy-Schwarz bound (see
    NOISE_REL) are stored as exact zeros.
    """
    n = u.shape[1].bit_length() - 1
    if n > MAX_DENSE_N:
        raise ValueError(f"n = {n} exceeds dense cap {MAX_DENSE_N}")
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    m = _sum_sq(ut[:, :, None] @ v[:, None])
    # ||U_a U_a^T||_F * ||V_b V_b^T||_F, with ||B B^T||_F^2 = ||B^T B||_F^2
    bound = np.sqrt(_sum_sq(ut @ u)[:, :, None] * _sum_sq(vt @ v)[:, None, :])
    return np.where(m > NOISE_REL * bound, m, 0.0)


def evaluate(f: PsdFactorization) -> SupportMatrix:
    """Dense matrix of pairwise trace inner products: ``evaluate_block`` of
    the one factorization."""
    return SupportMatrix(f.n, evaluate_block(f.U[None], f.V[None])[0])


def block_size(n: int) -> int:
    """Trials per block at width n: 2^14 / 4^n, at least 1, so that a block's
    stacks never outgrow those of four n = 6 trials and ``evaluate_block``'s
    product holds at most 2^14 d^2 doubles.  A negative n counts as 0, so
    that the sampler, not the shift, rejects it."""
    return max(1, (1 << 14) >> (2 * max(n, 0)))


@functools.lru_cache(maxsize=None)
def _partner_table(n: int) -> np.ndarray:
    """Read-only (2^n, p) table whose row b lists the values of b's
    intersection-one partners in ascending order, padded with 2^n (the index
    of an appended zero factor) to the largest partner count p."""
    partner = intersection_table(n) == 1
    # a stable sort of the non-partner flags puts the partners first, in order
    order = np.argsort(~partner, axis=1, kind="stable")[:, :partner.sum(axis=1).max()]
    table = np.where(np.take_along_axis(partner, order, axis=1), order, 1 << n)
    table.setflags(write=False)
    return table


def _partner_factors(free: np.ndarray) -> np.ndarray:
    """For every trial and string b of a (T, 2^n, d, d) stack, the factors
    of b's intersection-one partners placed side by side in ascending value,
    then zero factors up to the largest partner count p: a (T, 2^n, d, p d)
    stack whose left null spaces are the spaces the constrained side draws
    from."""
    trials, size, d = free.shape[:3]
    table = _partner_table(size.bit_length() - 1)
    # gathered from the transposed factors, so that each slice's transpose,
    # which the QR reads, is contiguous: its row s d + j is column j of the
    # s-th partner's factor
    padded = np.concatenate([free.swapaxes(-1, -2), np.zeros((trials, 1, d, d))], axis=1)
    stacked = padded[:, table].reshape(trials, size, table.shape[1] * d, d)
    return stacked.swapaxes(-1, -2)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of every word of a uint64 array, mod 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def sample_block(n: int, d: int, seeds: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """U and V stacks, each (T, 2^n, d, d), of T factorizations drawn as
    ``sample_atom(n, d, seeds[t])``; every seed must lie in [0, 2^64).

    Trial t reads words w_j = mix64(k + (j + 1) 0x9E3779B97F4A7C15) mod 2^64
    keyed by k = mix64(seeds[t]), mix64 being SplitMix64's finalizer.  The
    first 2^(n+1) give ranks (2, 2^n) as w % (d + 1); each later pair (a, b)
    gives normals r cos(2 pi u2), r sin(2 pi u2) with r = sqrt(-2 ln u1),
    u1 = ((a >> 11) + 1) 2^-53 and u2 = (b >> 11) 2^-53, filling (2, 2^n,
    d, d) in C order: row 0 of each for the free side, row 1 for the
    constrained side.  The seed's parity names the free side: U for an even
    seed, V for an odd one.  A factor keeps the columns of its normal matrix
    below its rank r; a constrained one multiplies them by its space's first
    k basis vectors, so its rank is min(k, r).
    """
    if not 1 <= n <= MAX_SAMPLE_N:
        raise ValueError(f"n = {n} outside [1, {MAX_SAMPLE_N}]")
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d = {d} outside [1, {MAX_DIM}]")
    low, high = min(seeds, default=0), max(seeds, default=0)
    if low < 0 or high >= 1 << 64:
        raise ValueError(f"seed {low if low < 0 else high} outside [0, 2^64)")
    seeds, size = np.array(seeds, dtype=np.uint64), 1 << n
    steps = np.arange(1, 2 * size * (1 + d * d) + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    words = _mix64(_mix64(seeds[:, None]) + steps)
    ranks = (words[:, :2 * size] % (d + 1)).reshape(-1, 2, size)
    # Box-Muller on pairs of 53-bit uniforms, u1 in (0, 1] and u2 in [0, 1)
    unit = (words[:, 2 * size:] >> 11).reshape(-1, size * d * d, 2) * 2.0**-53
    radius, angle = np.sqrt(-2 * np.log(unit[..., 0] + 2.0**-53)), 2 * np.pi * unit[..., 1]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    normals = normals.reshape(ranks.shape + (d, d))
    # a factor's columns at or past its rank are zero
    cols = np.arange(d)
    drawn = np.where(cols < ranks[..., None, None], normals, 0.0)
    free = drawn[:, 0]
    # each constrained matrix spans normals drawn in its partners' common kernel
    spaces, dims = subspace_intersect(_partner_factors(free))
    constrained = np.where(cols < dims[..., None, None], spaces, 0.0) @ drawn[:, 1]
    u_first = (seeds % 2 == 0)[:, None, None, None]
    return np.where(u_first, free, constrained), np.where(u_first, constrained, free)


def sample_atom(n: int, d: int, seed: int = 0) -> PsdFactorization:
    """Draw a random factorization whose evaluation vanishes on
    intersection-one pairs by construction (``sample_block`` of one trial).

    The seed's stream (see ``sample_block``) gives every rank, uniform on
    {0, ..., d}, and then every normal matrix.  The construction is
    asymmetric, so (n, d, seed) names the atom: an even seed draws U as the
    free side and an odd seed V, and a run of consecutive seeds exercises
    the oracles in both directions.
    """
    u, v = sample_block(n, d, [seed])
    return PsdFactorization(n, d, u[0], v[0])


def witness_block(u: np.ndarray, v: np.ndarray) -> tuple[list[Optional[str]], list[int]]:
    """Per trial of a block of square atoms, (T, 2^d, d, d) stacks, None or
    why its witnessed entry falsifies, and its antidiagonal witness row.

    F_i = Im V_{e_1} + ... + Im V_{e_i}, from F_0 = {0}, has dimension rank
    [V_{e_1} ... V_{e_i}], read for every trial and i at once.  Either F_d
    is the full space and the all-ones row is zero, or the chain stalls at a
    first p with F_p = F_{p+1} (p = 0 when V_{e_1} = 0), and the complement
    of e_{p+1} indexes a zero entry at the antidiagonal.  Only that entry is
    evaluated: ``evaluate_block`` of the trials' (T, 1, d, d) pairs U_a and
    V_{complement(a)}.  Rows are given by value; a positive entry would
    contradict the antidiagonal-zero property of square atoms.
    """
    trials, size, d = v.shape[:3]
    n = size.bit_length() - 1
    if n != d:
        raise ValueError(f"witness needs a square-index atom, got n={n}, d={d}")
    # dim F_i for i = 0..d, from F_0 = {0}; e_i has value 2^(d - i)
    dims = np.pad(prefix_ranks(v[:, 1 << np.arange(d - 1, -1, -1)]), ((0, 0), (1, 0)))
    full, stalled = dims[:, -1] == d, dims[:, :-1] == dims[:, 1:]
    # a chain that rises at each of its d steps reaches dim d
    assert (full | stalled.any(axis=1)).all(), "image chain cannot strictly increase below full"
    # the complement of e_{p+1} at the first stall p
    ones = size - 1
    rows = np.where(full, ones, ones ^ (1 << (d - 1 - stalled.argmax(axis=1))))
    t = np.arange(trials)
    entries = evaluate_block(u[t, rows, None], v[t, ones ^ rows, None])[:, 0, 0].tolist()
    reasons = [None if entry == 0 else
               f"antidiagonal entry at ({BitString(d, a)}, {BitString(d, ones ^ a)}) "
               f"is {entry:.3e}, not zero"
               for a, entry in zip(rows.tolist(), entries)]
    return reasons, rows.tolist()


def antidiagonal_witness(f: PsdFactorization) -> BitString:
    """A string a with evaluated entry (a, complement(a)) zero
    (``witness_block`` of the one factorization).  Raises FalsificationError
    if the selected entry is positive, which would contradict the
    antidiagonal-zero property of square atoms.
    """
    reasons, rows = witness_block(f.U[None], f.V[None])
    if reasons[0] is not None:
        raise FalsificationError(reasons[0])
    return BitString(f.d, rows[0])


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
#: stacked in pattern id order.
_TEMPLATE_MASKS = np.array([
    [[c in "x?" for c in row] for row in grid] for grid in _TEMPLATE_GRIDS.values()
])


def pattern_keys(pid: PatternId) -> np.ndarray:
    """Keys a << 2 | b of the pattern's allowed disjoint pairs, ascending."""
    return np.flatnonzero(_TEMPLATE_MASKS[PatternId(pid) - 1] & (intersection_table(2) == 0))


def pattern_disjoint_support(pid: PatternId) -> frozenset[tuple[BitString, BitString]]:
    """The disjoint-pair portion of the pattern's allowed positions."""
    return frozenset((BitString(2, key >> 2), BitString(2, key & 3))
                     for key in pattern_keys(pid).tolist())


def pattern_block(support: np.ndarray) -> np.ndarray:
    """Per 4 x 4 support mask of a stack (T, 4, 4), the lex-smallest pattern
    id whose template contains it, or 0 where no template does."""
    fits = ~np.any(support[:, None] & ~_TEMPLATE_MASKS, axis=(2, 3))
    return np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, 0)


def classify_pattern_d2(m: SupportMatrix) -> PatternId:
    """Lex-smallest pattern id whose template contains the support of m
    (``pattern_block`` of the one support).

    Raises NoPatternMatches when no template fits; for an atom over 2 x 2
    PSD matrices that would falsify the six-pattern classification (for
    anything else it merely signals the input is not such an atom).
    """
    if m.n != 2:
        raise ValueError(f"pattern classification needs n = 2, got {m.n}")
    support = m.support()
    pid = int(pattern_block(support[None])[0])
    if pid:
        return PatternId(pid)
    pairs = ", ".join(
        f"({BitString(2, a)}, {BitString(2, b)})" for a, b in np.argwhere(support).tolist()
    )
    raise NoPatternMatches(f"support {{{pairs}}} fits none of the six patterns")


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
    obj = _json_load(text, "factorization")
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
