"""Uniform-covering rectangle families and their exact certification.

A rectangle is a product set rows x cols of width-d bitstrings containing
only disjoint pairs.  A family of k rectangles *uniformly covers* a class of
matrices when every member admits an injective assignment of its positive
disjoint entries to rectangles containing them.  Coverings are certified
exactly, not by sampling: the recursive family by its own construction, any
other family by augmenting paths on integer pair keys x << d | y, and every
certificate is re-validated exactly.  Rectangles hold string values; ``BitString``
appears only where pairs are taken or returned as strings.

Two verification modes matter here:

* ``maximal_assignments`` certifies the covering property for every matrix
  vanishing on intersection-one pairs with at least one antidiagonal zero.
  Any such support is contained in one of the 2^d maximal supports (all 3^d
  disjoint pairs minus one antidiagonal pair), and a certificate restricts
  to any sub-support, so 2^d certificates decide the whole class.  Each
  maximal support S is the set D of all disjoint keys less one key a, so
  nu(S) <= nu(D) (nu the maximum matching size): a maximum matching of D
  leaving two or more keys uncovered fails every S, one leaving none passes
  every S, and one leaving only u uncovered passes S exactly when some
  maximum matching misses a, that is (Gallai-Edmonds), when an alternating
  path leads from u to a.  Only the passing S are then matched.
* ``pattern_assignments`` certifies the 7-rectangle family for 4 x 4 atoms
  over 2 x 2 PSD cones by matching the keys of each of the six admissible
  sparsity patterns; ``phi_table_d2`` names a rectangle for each pattern pair.

The recursive family of 3^d - 1 rectangles is built in one loop over levels
w < d, each directly at width d (a zero prefix keeps every value): two
rectangles per disjoint pair of width w.  Each rectangle owns its largest
pair, the owned pairs being the disjoint pairs other than (0, 0), and every
maximal certificate keeps the owned pairs except along one chain of levels.

Immutable objects are built once: per width the recursive family and its
read-only certificate stack (re-validated on every use), and per family the
matcher's key -> rectangles adjacency and the row and column membership tables
that the one-array check of all 2^d certificates reads.  Family JSON is read
and written through width-d label tables.

The induction check (``induction_block``, on a stack of matrices) splits
each matrix into 2^d x 2^d blocks indexed by width-d prefixes, aggregates
the blocks over each rectangle, and bounds the count of positive disjoint
entries by the sum of the counts of the aggregates.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .atoms import PatternId, PsdFactorization, evaluate, pattern_keys
from .bitcore import (
    MAX_DENSE_N,
    BitString,
    SupportMatrix,
    _json_field,
    _json_load,
    all_strings,
    intersection_size,
    intersection_table,
    support_block,
    val_block,
)

MAX_COVER_D = 6

Pair = tuple[BitString, BitString]


@dataclass(frozen=True)
class Rectangle:
    """A product set rows x cols of width-d strings supported on disjoint
    pairs, each side held as a sorted tuple of distinct string values."""

    d: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        for side in ("rows", "cols"):
            values = tuple(sorted(set(map(operator.index, getattr(self, side)))))
            if values and not 0 <= values[0] <= values[-1] < 1 << self.d:
                raise ValueError(f"{side} value outside [0, 2^{self.d})")
            object.__setattr__(self, side, values)
        if reduce(operator.or_, self.rows, 0) & reduce(operator.or_, self.cols, 0):
            x, y = next((x, y) for x in self.rows for y in self.cols if x & y)
            raise ValueError(f"non-disjoint pair ({x:0{self.d}b}, {y:0{self.d}b}) in rectangle")

    @classmethod
    def from_text(cls, d: int, rows: Iterable[str], cols: Iterable[str]) -> "Rectangle":
        sides = [[BitString.from_text(s) for s in side] for side in (rows, cols)]
        for s in sides[0] + sides[1]:
            if s.width != d:
                raise ValueError(f"index {s} has width != {d}")
        return cls(d, *([s.value for s in side] for side in sides))

    def contains(self, x: BitString, y: BitString) -> bool:
        return x.width == y.width == self.d and x.value in self.rows and y.value in self.cols

    def pairs(self) -> list[Pair]:
        return [(BitString(self.d, x), BitString(self.d, y))
                for x in self.rows for y in self.cols]


#: Rectangles are immutable values: one object per (d, rows, cols) as given.
_rectangle = lru_cache(maxsize=1 << 12)(Rectangle)


@dataclass(frozen=True)
class CoveringFamily:
    """An ordered list of same-width rectangles; duplicates are distinct copies."""

    d: int
    rectangles: tuple[Rectangle, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rectangles", tuple(self.rectangles))
        for r in self.rectangles:
            if r.d != self.d:
                raise ValueError(f"rectangle width {r.d} != family width {self.d}")

    @property
    def k(self) -> int:
        return len(self.rectangles)

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        """Each pair key x << d | y's rectangles, in family order, built once."""
        adjacency: dict[int, list[int]] = {}
        for i, r in enumerate(self.rectangles):
            for key in (x << self.d | y for x in r.rows for y in r.cols):
                adjacency.setdefault(key, []).append(i)
        return adjacency

    @cached_property
    def _members(self) -> np.ndarray:
        """Read-only (2, k, 2^d) tables, built once: x in rows_i at [0, i, x], y in
        cols_i at [1, i, y].  R_i is a product set: (x, y) is in it when both are."""
        member = np.zeros((2, self.k, 1 << self.d), dtype=bool)
        for i, r in enumerate(self.rectangles):
            member[0, i, list(r.rows)] = member[1, i, list(r.cols)] = True
        member.setflags(write=False)
        return member


@dataclass(frozen=True)
class CoveringCertificate:
    """An injective assignment of disjoint pairs to rectangle list positions."""

    assignment: Mapping[Pair, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        used = list(self.assignment.values())
        if len(set(used)) != len(used):
            raise ValueError("assignment is not injective")

    def validate_against(
        self, family: CoveringFamily, support: Optional[set[Pair]] = None
    ) -> None:
        """Check containment in the family and, if given, saturation of a support."""
        for (x, y), i in self.assignment.items():
            if not 0 <= i < family.k:
                raise ValueError(f"rectangle index {i} outside family of size {family.k}")
            if not family.rectangles[i].contains(x, y):
                raise ValueError(f"pair ({x}, {y}) not contained in rectangle {i}")
        if support is not None and not support <= set(self.assignment):
            missing = sorted(support - set(self.assignment))[0]
            raise ValueError(f"support pair ({missing[0]}, {missing[1]}) unassigned")


def _certificate(d: int, rows: np.ndarray) -> CoveringCertificate:
    """The certificate of (x, y, i) value rows."""
    return CoveringCertificate(
        {(BitString(d, x), BitString(d, y)): i for x, y, i in rows.tolist()})


def base_covering_d1() -> CoveringFamily:
    """The two-rectangle covering at width 1: {0} x {0,1} and {0,1} x {0}."""
    return recursive_covering(1)


#: Order of the seven width-2 rectangles: one copy of the full-first-row
#: rectangle a and two copies each of b (full first column), c and d.
EXPLICIT_D2_NAMES = ("a", "b1", "b2", "c1", "c2", "d1", "d2")


def explicit_covering_d2() -> CoveringFamily:
    """The 7-rectangle covering of the six admissible width-2 patterns."""
    a = Rectangle.from_text(2, ["00"], ["00", "01", "10", "11"])
    b = Rectangle.from_text(2, ["00", "01", "10", "11"], ["00"])
    c = Rectangle.from_text(2, ["00", "01"], ["00", "10"])
    d = Rectangle.from_text(2, ["00", "10"], ["00", "01"])
    return CoveringFamily(2, (a, b, b, c, c, d, d), label="explicit-d2")


def recursive_covering(d: int) -> CoveringFamily:
    """The 3^d - 1 rectangle family certified level by level: for w = 0 .. d - 1
    and each disjoint pair (x, y) of width w, in row-major order, the
    two-element rectangles {x} x {y, 1y} and {x, 1x} x {y} (1 the bit 2^w).
    Built once per width; the family is immutable and shared."""
    if not 1 <= d <= MAX_COVER_D:
        raise ValueError(f"d = {d} outside [1, {MAX_COVER_D}]")
    return _recursive_covering(d)


@lru_cache(maxsize=None)
def _recursive_covering(d: int) -> CoveringFamily:
    rects = []
    for w in range(d):
        top = 1 << w
        for x, y in zip(*(a.tolist() for a in np.nonzero(intersection_table(w) == 0))):
            rects += [_rectangle(d, (x,), (y, top | y)), _rectangle(d, (x, top | x), (y,))]
    return CoveringFamily(d, tuple(rects), label="base-d1" if d == 1 else f"recursive-d{d}")


def _augment(adjacency: Sequence[Sequence[int]]) -> tuple[dict[int, int], list[int]]:
    """A maximum matching of positions j = 0, 1, ... to rectangles adjacency[j]
    (rectangle -> position) and the positions left uncovered: per position in
    turn one depth-first augmenting-path search (none opens for it later)."""
    owner: dict[int, int] = {}
    for root in range(len(adjacency)):
        # path[j] takes rectangle via[j]; the owner of via[j] is path[j + 1]
        seen: set[int] = set()
        path, via, frontier = [root], [], [iter(adjacency[root])]
        while frontier:
            for i in frontier[-1]:
                if i not in seen:
                    break
            else:  # every rectangle of the position on top is tried: back up
                frontier.pop()
                path.pop()
                del via[-1:]
                continue
            seen.add(i)
            via.append(i)
            if i in owner:
                path.append(owner[i])
                frontier.append(iter(adjacency[owner[i]]))
                continue
            owner.update(zip(via, path))
            break
    return owner, sorted(set(range(len(adjacency))) - set(owner.values()))


def _match(keys: Sequence[int], family: CoveringFamily) -> Optional[np.ndarray]:
    """(x, y, i) rows assigning each of the ascending keys x << d | y its own
    rectangle i containing (x, y), or None: ``_augment`` over each key's
    rectangles in family order."""
    d, adjacency = family.d, family._adjacency
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    owner, uncovered = _augment([adjacency.get(key, ()) for key in keys.tolist()])
    if uncovered:
        return None
    taken = np.empty(len(keys), dtype=np.int64)
    taken[list(owner.values())] = list(owner)
    return np.stack([keys >> d, keys & ((1 << d) - 1), taken], axis=-1)


def find_certificate(
    support: Iterable[Pair], family: CoveringFamily
) -> Optional[CoveringCertificate]:
    """Injective assignment of every support pair to a containing rectangle
    (``_match`` of the pairs' keys), or None when no assignment saturates the
    support.  Pairs of another width or that intersect raise ValueError."""
    d = family.d
    pairs = sorted(set(support))
    for x, y in pairs:
        if x.width != d or y.width != d:
            raise ValueError(f"pair ({x}, {y}) has width != {d}")
        if intersection_size(x, y) != 0:
            raise ValueError(f"non-disjoint pair ({x}, {y}) in support")
    rows = _match([x.value << d | y.value for x, y in pairs], family)
    return None if rows is None else _certificate(d, rows)


def _maximal_keys(d: int, alpha: int) -> np.ndarray:
    """Keys x << d | y of maximal_support(d, alpha), in lex order."""
    disjoint = np.flatnonzero(intersection_table(d) == 0)
    return disjoint[disjoint != alpha << d | ((1 << d) - 1 - alpha)]


def maximal_support(d: int, alpha: BitString) -> set[Pair]:
    """All 3^d disjoint pairs except the antidiagonal pair at alpha."""
    if not 1 <= d <= MAX_DENSE_N or alpha.width != d:
        raise ValueError(f"no maximal support of width {d} at alpha = {alpha}")
    return {(BitString(d, key >> d), BitString(d, key & ((1 << d) - 1)))
            for key in _maximal_keys(d, alpha.value).tolist()}


@lru_cache(maxsize=None)
def recursive_certificates(d: int) -> np.ndarray:
    """The (2^d, 3^d - 1, 3) stack of (x, y, i) rows in lex order whose alpha-th entry
    certifies maximal_support(d, alpha) in recursive_covering(d): rectangle i takes its
    own pair (rows[-1], cols[-1]), except that for w < d the owner of the antidiagonal
    pair of alpha's low w + 1 bits takes that of its low w bits.  Built once, read-only."""
    owned = np.array([r.rows[-1] << d | r.cols[-1] for r in recursive_covering(d).rectangles])
    owner = np.zeros(1 << 2 * d, dtype=np.int64)
    owner[owned] = np.arange(len(owned))
    low = (1 << np.arange(d + 1)) - 1  # low[w] masks w bits
    alpha = np.arange(1 << d)[:, None]
    chain = (alpha & low) << d | (low - (alpha & low))  # antidiagonal keys, w = 0 .. d
    disjoint = np.flatnonzero(intersection_table(d) == 0)
    keys = disjoint[np.nonzero(disjoint != chain[:, -1:])[1]].reshape(1 << d, -1)
    index = owner[keys]  # chain keys lie below the dropped key: same rank as in D
    index[alpha, np.searchsorted(disjoint, chain[:, :-1])] = owner[chain[:, 1:]]
    stack = np.stack([keys >> d, keys & ((1 << d) - 1), index], axis=-1)
    stack.setflags(write=False)
    return stack


def check_maximal_assignments(family: CoveringFamily, assignments: Mapping) -> None:
    """ValueError unless the (x, y, i) rows of each alpha certify maximal_support(d,
    alpha): distinct indices in [0, k), keys x << d | y the 3^d - 1 disjoint pairs but
    (alpha, complement) for alpha in [0, 2^d), each pair in its rectangle (membership
    tables).  One array check counts each alpha's uses of every index and disjoint pair;
    the error names the first failing alpha and its first failing check."""
    alphas = list(assignments)
    d, k, m, a = family.d, family.k, 3**family.d, len(alphas)
    blocks = [np.asarray(rows, dtype=np.int64).reshape(-1, 3) for rows in assignments.values()]
    group = np.repeat(np.arange(a), [len(b) for b in blocks])
    x, y, i = np.concatenate([b.T for b in blocks] + [np.empty((3, 0), dtype=np.int64)], axis=1)
    bad, indexed = np.zeros((3, a), dtype=bool), (0 <= i) & (i < k)
    count = np.bincount(group[indexed] * k + i[indexed], minlength=a * k).reshape(a, k)
    bad[0] = (count > 1).any(axis=1)
    bad[0, group[~indexed]] = True
    ok = ((x | y) >> d == 0) & (x & y == 0)
    slot = np.cumsum(intersection_table(d).ravel() == 0) - 1  # rank of each disjoint key
    count = np.bincount(group[ok] * m + slot[(x << d | y)[ok]], minlength=a * m).reshape(a, m)
    alpha = np.array(alphas, dtype=np.int64)
    (inside,) = np.nonzero((0 <= alpha) & (alpha < 1 << d))  # others have no maximal support
    # with its antidiagonal pair added, an alpha's pairs are each disjoint pair once
    count[inside, slot[alpha[inside] << d | ((1 << d) - 1 - alpha[inside])]] += 1
    bad[1] = (count != 1).any(axis=1)
    bad[1, group[~ok]] = True
    del count  # not held through the lookups below
    ok &= indexed  # only rows in range are looked up: no index wraps
    rows, cols, at = *family._members.reshape(2, -1), i[ok] << d  # flat (i, value) index
    bad[2, group[ok][~(rows[at | x[ok]] & cols[at | y[ok]])]] = True
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        first = failing[0]
        raise ValueError(f"certificate for alpha = {alphas[first]:0{d}b}: " + (
            f"rectangle indices not distinct in [0, {k})",
            "its pairs are not the maximal support",
            "a pair lies outside its rectangle")[bad[:, first].argmax()])


def maximal_assignments(family: CoveringFamily) -> dict[int, Optional[np.ndarray]]:
    """Per alpha value, (x, y, i) rows in lex order certifying maximal_support(d,
    alpha), or None.  The rectangles of recursive_covering(d), in order, are certified
    by recursive_certificates; for other families one maximum matching of all disjoint
    keys decides the alphas to match (module docstring).  Every row set is re-validated."""
    d = family.d
    if not 1 <= d <= MAX_COVER_D:
        raise ValueError(f"family width {d} outside [1, {MAX_COVER_D}]")
    recursive = recursive_covering(d)
    if family.rectangles == recursive.rectangles:
        out = dict(enumerate(recursive_certificates(d)))
        check_maximal_assignments(recursive, out)  # same rectangles, tables kept
        return out
    keys = np.flatnonzero(intersection_table(d) == 0)
    adjacency = [family._adjacency.get(key, ()) for key in keys.tolist()]
    owner, uncovered = _augment(adjacency)
    reached = set(uncovered if len(uncovered) == 1 else ())
    stack = list(reached)
    while stack:  # alternating paths; every rectangle next to a reached key is taken
        step = {owner[i] for i in adjacency[stack.pop()]} - reached
        reached |= step
        stack += step
    holes = np.searchsorted(keys, [a << d | (1 << d) - 1 - a for a in range(1 << d)])
    out = {alpha: _match(np.delete(keys, hole), family) if not uncovered or hole in reached
           else None for alpha, hole in enumerate(holes.tolist())}
    if any(rows is not None for rows in out.values()):  # none: no membership tables built
        check_maximal_assignments(family, {a: r for a, r in out.items() if r is not None})
    return out


def maximal_certificates(
    family: CoveringFamily,
) -> dict[BitString, Optional[CoveringCertificate]]:
    """One certificate per maximal support, keyed by alpha: built and re-validated
    exactly for the recursive family, found by matching for any other."""
    d = family.d
    return {BitString(d, alpha): rows if rows is None else _certificate(d, rows)
            for alpha, rows in maximal_assignments(family).items()}


def pattern_assignments(family: CoveringFamily) -> dict[PatternId, Optional[np.ndarray]]:
    """Per admissible width-2 sparsity pattern, (x, y, i) rows in lex order matching
    its disjoint support (``pattern_keys``) into the family, re-validated, or None."""
    if family.d != 2:
        raise ValueError(f"pattern verification needs d = 2, got {family.d}")
    out = {pid: _match(pattern_keys(pid), family) for pid in PatternId}
    for pid, (x, y, i) in ((pid, rows.T) for pid, rows in out.items() if rows is not None):
        if not (np.array_equal((x, y), divmod(pattern_keys(pid), 4)) and np.unique(i).size == i.size
                and ((0 <= i) & (i < family.k)).all()  # in range before the lookup below
                and (family._members[0, i, x] & family._members[1, i, y]).all()):
            raise ValueError(f"certificate for pattern {int(pid)}: not an injective "
                             "matching of its support into the family")
    return out


def pattern_certificates_d2(
    family: CoveringFamily,
) -> dict[PatternId, Optional[CoveringCertificate]]:
    """One matching instance per admissible width-2 sparsity pattern."""
    return {pid: rows if rows is None else _certificate(2, rows)
            for pid, rows in pattern_assignments(family).items()}


def verify_patterns_d2(family: CoveringFamily) -> bool:
    """Whether the six admissible width-2 patterns all admit certificates."""
    return all(c is not None for c in pattern_certificates_d2(family).values())


#: Per pattern, in id order, the EXPLICIT_D2_NAMES rectangle phi assigns to
#: each allowed disjoint pair, the pairs in ``pattern_keys`` (lex) order.
_PHI_D2 = ("b2 d2 c1 a c2 d1 b1", "b2 a c1 b1 c2 d1 d2", "c2 d1 c1 a b2 d2 b1",
           "d2 d1 c1 a b2 c2 b1", "d2 c1 a b2 c2 d1 b1", "c2 d1 a c1 b2 d2 b1")


def phi_table_d2() -> list[CoveringCertificate]:
    """The six hand-built assignments against explicit_covering_d2, in pattern
    id order: each pattern's ``pattern_keys`` paired with its row of _PHI_D2."""
    certs = []
    for pid, row in zip(PatternId, _PHI_D2, strict=True):
        keys, names = pattern_keys(pid), row.split()
        if len(names) != len(keys) or not set(names) <= set(EXPLICIT_D2_NAMES):
            raise ValueError(f"phi row of pattern {pid} does not name a rectangle per pair")
        index = [EXPLICIT_D2_NAMES.index(name) for name in names]
        certs.append(_certificate(2, np.stack([keys >> 2, keys & 3, index], axis=-1)))
    return certs


def _aggregate_block(values: np.ndarray, family: CoveringFamily) -> np.ndarray:
    """``aggregate`` of a (T, 2^n, 2^n) stack as a (T, k, 2^(n-d), 2^(n-d)) stack;
    each sum adds its gathered blocks in the same order whatever T is."""
    n, d = values.shape[-1].bit_length() - 1, family.d
    if not 1 <= d <= n:
        raise ValueError(f"matrix width {n} below family width {d}")
    inner = 1 << (n - d)
    blocks = values.reshape(len(values), 1 << d, inner, 1 << d, inner)  # [t, x, a, y, b]
    out = np.empty((len(values), family.k, inner, inner), dtype=values.dtype)
    for i, r in enumerate(family.rectangles):
        out[:, i] = blocks.take(r.rows, axis=1).take(r.cols, axis=3).sum(axis=(1, 3))
    return out


def aggregate(m: SupportMatrix, family: CoveringFamily) -> list[SupportMatrix]:
    """Per-rectangle block sums M_i = sum of blocks (x, y) in R_i."""
    (parts,) = _aggregate_block(m.values[None], family)
    return [SupportMatrix(m.n - family.d, part) for part in parts]


def induction_block(values: np.ndarray, family: CoveringFamily) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a (T, 2^n, 2^n) stack: val(M) and the (T, k) aggregate
    vals val(M_i).  A matrix positive on an intersection-one pair raises
    ValueError unless an earlier one fails (val(M) above the bound).

    The aggregates of a matrix that gets past that check vanish on
    intersection-one pairs too: entry (a, b) of M_i sums M's entries
    (xa, yb) over the disjoint (x, y) of rectangle i, each with
    |xa & yb| = |a & b| = 1 and so exactly 0."""
    n = values.shape[-1].bit_length() - 1
    supports = support_block(values)
    totals = val_block(supports)
    vals = val_block(support_block(_aggregate_block(values, family)))
    failed = totals > vals.sum(axis=1)
    reached = np.cumsum(failed) - failed == 0  # no earlier matrix fails
    if (reached & (supports & (intersection_table(n) == 1)).any(axis=(-2, -1))).any():
        raise ValueError("evaluated matrix is not zero on intersection-one pairs")
    return totals, vals


@dataclass(frozen=True)
class InductionReport:
    """Both sides of the block-induction inequality for one atom."""

    val_total: int
    block_vals: tuple[int, ...]
    holds: bool

    @property
    def bound(self) -> int:
        return sum(self.block_vals)


def check_induction_inequality(f: PsdFactorization, family: CoveringFamily) -> InductionReport:
    """Check val(M) <= sum_i val(M_i) for the evaluation M of a factorization
    (``induction_block`` of the one matrix).  The inequality is proved only
    for matrices carrying a PSD factorization, so this takes the
    factorization itself rather than a bare matrix."""
    (total,), (vals,) = induction_block(evaluate(f).values[None], family)
    return InductionReport(int(total), tuple(vals.tolist()), bool(total <= vals.sum()))


@lru_cache(maxsize=None)
def _labels(d: int) -> Mapping[str, int]:
    """The width-d strings, for 0 <= d <= MAX_COVER_D, each mapped to its value,
    read-only and in value order (``list`` gives the texts by value)."""
    return MappingProxyType({str(s): s.value for s in all_strings(d)})


def family_to_json(family: CoveringFamily) -> str:
    """``json.dumps`` of the family with sorted keys, from the quoted labels."""
    d = family.d
    quoted = (['"%s"' % s for s in _labels(d)] if 0 <= d <= MAX_COVER_D else
              {v: '"%s"' % BitString(d, v) for r in family.rectangles for v in r.rows + r.cols})
    rects = ", ".join(['{"cols": [%s], "rows": [%s]}' % tuple(", ".join([quoted[v] for v in side])
                       for side in (r.cols, r.rows)) for r in family.rectangles])
    return f'{{"d": {json.dumps(d)}, "label": {json.dumps(family.label)}, "rectangles": [{rects}]}}'


def family_from_json(text: str) -> CoveringFamily:
    """Parse and re-validate (fields, widths, disjointness) a rectangle family, its
    strings looked up in the width-d label table; a fault raises ValueError naming it."""
    obj = _json_load(text, "family")
    d = _json_field(obj, "d", int, "family")
    values = _labels(d) if 0 <= d <= MAX_COVER_D else {}
    rects = []
    for j, r in enumerate(_json_field(obj, "rectangles", list, "family")):
        sides = (r.get("rows"), r.get("cols")) if type(r) is dict else (None, None)
        try:  # two lists of width-d labels
            if type(sides[0]) is not list or type(sides[1]) is not list:
                raise TypeError
            rects.append(_rectangle(d, *(tuple([values[s] for s in side]) for side in sides)))
        except (KeyError, TypeError):  # else name the fault: fields, strings, then labels
            for key in ("rows", "cols"):
                if not all(isinstance(s, str) for s in _json_field(r, key, list, f"rectangle {j}")):
                    raise ValueError(f'rectangle {j} field "{key}" is not a list of strings')
            rects.append(Rectangle.from_text(d, r["rows"], r["cols"]))
    label = _json_field({"label": "", **obj}, "label", str, "family")  # "" if absent
    return CoveringFamily(d, tuple(rects), label)


def certificate_to_json(cert: CoveringCertificate) -> str:
    rows = sorted(([str(x), str(y)], i) for (x, y), i in cert.assignment.items())
    return json.dumps({"assignment": [[pair, i] for pair, i in rows]}, sort_keys=True)


def certificate_from_json(
    text: str, family: Optional[CoveringFamily] = None
) -> CoveringCertificate:
    """Parse a certificate; injectivity always re-checked, containment if a
    family is supplied.  A malformed field raises ValueError naming it."""
    assignment = {}
    obj = _json_load(text, "certificate")
    for j, row in enumerate(_json_field(obj, "assignment", list, "certificate")):
        if not (type(row) is list and len(row) == 2 and type(row[0]) is list
                and len(row[0]) == 2 and all(type(s) is str for s in row[0])
                and type(row[1]) is int and row[1] >= 0):
            raise ValueError(f'certificate field "assignment" row {j} is not [[x, y], i >= 0]')
        (x, y), i = row
        pair = (BitString.from_text(x), BitString.from_text(y))
        if pair in assignment:
            raise ValueError(f'certificate field "assignment" repeats pair ({x}, {y})')
        assignment[pair] = i
    cert = CoveringCertificate(assignment)
    if family is not None:
        cert.validate_against(family)
    return cert
