"""Bitstring indexing and the unique-disjointness matrix.

Rows and columns of every matrix in this package are indexed by fixed-width
bitstrings ordered lexicographically with the leftmost bit most significant,
so lexicographic order coincides with numeric order of the underlying value.
A matrix is therefore a 2^n x 2^n array indexed by those values, with
``BitString`` needed only at the text boundary, and the leading bits select
the block row/column in block decompositions.

The central object is UDISJ(n), the 2^n x 2^n matrix with entry
(1 - a.b)^2 at the bitstring pair (a, b).  Its combinatorial statistic
``val`` counts the disjoint pairs (a.b = 0) carrying a positive entry;
val(UDISJ(n)) = 3^n.  The support of a matrix is its positive entries: UDISJ
is exact integers, and ``atoms.evaluate_block`` already stores rounding
noise as exact zeros.

At the text boundary ``value_codes`` codes a matrix's values into its few
distinct ones.  The dense CSV renders each run of four of them once, when
that makes no more texts than the matrix has runs, and a gather fills the
runs; otherwise runs are single cells.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

MAX_WIDTH = 16
MAX_DENSE_N = 10


@dataclass(frozen=True, order=True)
class BitString:
    """A fixed-width bitstring, compared lexicographically (MSB first)."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width {self.width} outside [0, {MAX_WIDTH}]")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in width {self.width}")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    def bit(self, i: int) -> int:
        """Bit in position i, 1-indexed from the left (most significant)."""
        if not 1 <= i <= self.width:
            raise ValueError(f"position {i} outside [1, {self.width}]")
        return (self.value >> (self.width - i)) & 1

    def complement(self) -> "BitString":
        return BitString(self.width, self.value ^ ((1 << self.width) - 1))

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def __repr__(self) -> str:
        return f"BitString('{self}')"


def all_strings(width: int) -> list[BitString]:
    """All bitstrings of the given width in lexicographic order."""
    return [BitString(width, v) for v in range(1 << width)]


def intersection_size(a: BitString, b: BitString) -> int:
    """Number of positions where both strings carry a 1 (the inner product a.b)."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.value & b.value).bit_count()


@functools.lru_cache(maxsize=None)
def intersection_table(n: int) -> np.ndarray:
    """Read-only (2^n, 2^n) table of a.b = popcount(a & b) over values a, b."""
    idx = np.arange(1 << n)
    popcount = np.array([v.bit_count() for v in range(1 << n)], dtype=np.uint8)
    table = popcount[idx[:, None] & idx[None, :]]
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class SupportMatrix:
    """A nonnegative 2^n x 2^n matrix, held as one read-only array.

    Row and column i belong to the width-n string with value i, so entry
    (a, b) sits at ``values[a.value, b.value]`` and row-major order is lex
    order.  The *support* is the mask of positive entries.  Exact integer
    matrices (such as UDISJ) keep an integer dtype.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_DENSE_N:
            raise ValueError(f"n = {self.n} outside [0, {MAX_DENSE_N}] (dense cap)")
        arr = np.array(self.values)
        side = 1 << self.n
        if arr.shape != (side, side):
            raise ValueError(f"shape {arr.shape} is not ({side}, {side})")
        if (arr < 0).any():
            i, j = np.argwhere(arr < 0)[0].tolist()
            a, b = BitString(self.n, i), BitString(self.n, j)
            raise ValueError(f"negative entry {arr[i, j]} at ({a}, {b})")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value(self, a: BitString, b: BitString) -> float:
        if a.width != self.n or b.width != self.n:
            raise ValueError(f"index ({a}, {b}) has width != {self.n}")
        return self.values[a.value, b.value].item()

    def support(self) -> np.ndarray:
        """Boolean mask of the positive entries."""
        return support_block(self.values)


def support_block(values: np.ndarray) -> np.ndarray:
    """Support masks of a stack (..., r, c) of nonnegative matrices: the
    positive entries, the package's one zero rule."""
    return values > 0


def val_block(support: np.ndarray) -> np.ndarray:
    """val of each support mask in a stack (..., 2^n, 2^n)."""
    n = support.shape[-1].bit_length() - 1
    return np.count_nonzero(support & (intersection_table(n) == 0), axis=(-2, -1))


def udisj(n: int) -> SupportMatrix:
    """The unique-disjointness matrix: entry (a, b) equals (1 - a.b)^2.

    Entries are exact integers; the (a, b) entry vanishes precisely when the
    strings intersect in exactly one position.
    """
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"n = {n} outside [1, {MAX_DENSE_N}] (dense cap)")
    k = intersection_table(n).astype(np.int64)
    return SupportMatrix(n, (1 - k) ** 2 * (k != 1))


def cor_slack(a: BitString, b: BitString) -> int:
    """Slack of the vertex bb^T against the inequality <2 diag(a) - aa^T, x> <= 1.

    Computed by the explicit matrix inner product, not through the closed
    form, so it serves as an independent route to the UDISJ entry.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    abits, bbits = (np.array([s.bit(i) for i in range(1, s.width + 1)], dtype=int)
                    for s in (a, b))
    lhs = 2 * np.diag(abits) - np.outer(abits, abits)
    return 1 - int(bbits @ lhs @ bbits)


def val(m: SupportMatrix) -> int:
    """Number of disjoint pairs carrying a positive entry."""
    return int(val_block(m.support()))


def is_atom_pattern(m: SupportMatrix) -> bool:
    """True iff every pair intersecting in exactly one position is zero."""
    return not np.any(m.support() & (intersection_table(m.n) == 1))


def value_codes(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Codes, of the shape of ``values``, into its distinct values as Python
    scalars, told apart by bit pattern (so -0.0 and 0.0 stay apart).  One
    sort and a search: ``np.unique`` takes ten times as long at 2^18 values."""
    bits = values.view(f"u{values.itemsize}")
    s = np.sort(bits, axis=None)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    distinct = s[keep]
    return np.searchsorted(distinct, bits), distinct.view(values.dtype).tolist()


def _csv_run(side: int, k: int) -> int:
    """Cells per CSV piece for rows of ``side`` cells over ``k`` distinct
    values: 4 when 4 divides a row and the k^4 texts of a run number no more
    than the runs, else 1."""
    return 4 if side % 4 == 0 and k**4 <= side * side // 4 else 1


def matrix_to_csv(m: SupportMatrix) -> str:
    """Dense CSV with lex-ordered bitstring headers.  Each run of
    ``_csv_run`` cells is one piece: the texts of every run of distinct
    values are made once (``itertools.product`` order, so a run's code is
    the base-k number of its value codes), one gather fills the pieces, and
    one join ends it."""
    labels = [str(s) for s in all_strings(m.n)]
    codes, distinct = value_codes(m.values)
    side, k = len(labels), len(distinct)
    run = _csv_run(side, k)
    texts = ["".join(cells) for cells in
             itertools.product(["," + repr(v) for v in distinct], repeat=run)]
    runs = codes.reshape(side, side // run, run) @ k ** np.arange(run - 1, -1, -1)
    pieces = np.empty((side, side // run + 1), dtype=object)
    pieces[:, 0] = ["\n" + label for label in labels]
    pieces[:, 1:] = np.array(texts, dtype=object)[runs]
    return "," + ",".join(labels) + "".join(pieces.ravel().tolist()) + "\n"


def matrix_to_json(m: SupportMatrix) -> str:
    """JSON object listing only the positive entries, in lex order, each as
    [row text, column text, value]."""
    labels = np.array([str(s) for s in all_strings(m.n)], dtype=object)
    r, c = np.nonzero(m.support())
    entries = list(zip(labels[r].tolist(), labels[c].tolist(), m.values[r, c].tolist()))
    return json.dumps({"n": m.n, "entries": entries}, sort_keys=True)


def _json_field(obj: object, key: str, kind: type, where: str):
    """obj[key] of a parsed JSON object, which must be of exactly type kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    value = obj.get(key)
    if type(value) is not kind:
        raise ValueError(f'{where} has no "{key}" field of type {kind.__name__}')
    return value


def _json_load(text: str, where: str) -> object:
    """json.loads(text); input nested too deeply for the parser raises
    ValueError naming what was read, as malformed JSON does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where} JSON is nested too deeply") from None
