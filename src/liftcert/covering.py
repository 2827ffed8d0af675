"""Uniform-covering rectangle families and their exact certification.

A rectangle is a product set rows x cols of width-d bitstrings containing
only disjoint pairs.  A family of k rectangles *uniformly covers* a class of
matrices when every member admits an injective assignment of its positive
disjoint entries to rectangles containing them.  Such an assignment is a
maximum bipartite matching question, so coverings are certified exactly by
augmenting-path matchings rather than by sampling.

Two verification modes matter here:

* ``verify_covering_maximal`` certifies the covering property for every
  matrix vanishing on intersection-one pairs with at least one antidiagonal
  zero.  Any such support is contained in one of the 2^d maximal supports
  (all 3^d disjoint pairs minus one antidiagonal pair), and a certificate
  restricts to any sub-support, so 2^d matchings decide the whole class.
* ``verify_patterns_d2`` certifies the 7-rectangle family for 4 x 4 atoms
  over 2 x 2 PSD cones by matching each of the six admissible sparsity
  patterns; ``phi_table_d2`` carries the six hand-built assignments.

The recursive construction produces 3^d - 1 rectangles at width d: the two
base rectangles at d = 1, then per level one two-element row rectangle and
one two-element column rectangle for each disjoint pair of the previous
level, plus zero-prefixed lifts of the previous rectangles.

The induction machinery decomposes a matrix into 2^d x 2^d blocks indexed
by width-d prefixes, aggregates blocks over each rectangle, and checks that
the count of positive disjoint entries is bounded by the sum of the counts
of the aggregates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .atoms import PatternId, PsdFactorization, evaluate, pattern_disjoint_support
from .bitcore import (
    EPS_ZERO,
    BitString,
    SupportMatrix,
    all_strings,
    concat,
    enumerate_disjoint_pairs,
    intersection_size,
    is_atom_pattern,
    split,
    val,
)

MAX_COVER_D = 6

Pair = tuple[BitString, BitString]


@dataclass(frozen=True)
class Rectangle:
    """A product set of row and column strings supported on disjoint pairs."""

    d: int
    rows: frozenset[BitString]
    cols: frozenset[BitString]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", frozenset(self.rows))
        object.__setattr__(self, "cols", frozenset(self.cols))
        for s in self.rows | self.cols:
            if s.width != self.d:
                raise ValueError(f"index {s} has width != {self.d}")
        for x in self.rows:
            for y in self.cols:
                if intersection_size(x, y) != 0:
                    raise ValueError(f"non-disjoint pair ({x}, {y}) in rectangle")

    @classmethod
    def from_text(cls, d: int, rows: Iterable[str], cols: Iterable[str]) -> "Rectangle":
        return cls(
            d,
            frozenset(BitString.from_text(r) for r in rows),
            frozenset(BitString.from_text(c) for c in cols),
        )

    def contains(self, x: BitString, y: BitString) -> bool:
        return x in self.rows and y in self.cols

    def pairs(self) -> list[Pair]:
        return [(x, y) for x in sorted(self.rows) for y in sorted(self.cols)]


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


def base_covering_d1() -> CoveringFamily:
    """The two-rectangle covering at width 1: {0} x {0,1} and {0,1} x {0}."""
    return CoveringFamily(
        1,
        (
            Rectangle.from_text(1, ["0"], ["0", "1"]),
            Rectangle.from_text(1, ["0", "1"], ["0"]),
        ),
        label="base-d1",
    )


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
    """The 3^d - 1 rectangle family certified level by level.

    Level d keeps zero-prefixed lifts of the level d-1 rectangles and, for
    each disjoint pair (x, y) at width d-1, adds the two-element rectangles
    {0x} x {0y, 1y} and {0x, 1x} x {0y}.
    """
    if not 1 <= d <= MAX_COVER_D:
        raise ValueError(f"d = {d} outside [1, {MAX_COVER_D}]")
    if d == 1:
        return base_covering_d1()
    prev = recursive_covering(d - 1)
    zero, one = BitString(1, 0), BitString(1, 1)
    rects = [
        Rectangle(
            d,
            frozenset(concat(zero, x) for x in r.rows),
            frozenset(concat(zero, y) for y in r.cols),
        )
        for r in prev.rectangles
    ]
    for x, y in enumerate_disjoint_pairs(d - 1):
        rects.append(
            Rectangle(
                d,
                frozenset([concat(zero, x)]),
                frozenset([concat(zero, y), concat(one, y)]),
            )
        )
        rects.append(
            Rectangle(
                d,
                frozenset([concat(zero, x), concat(one, x)]),
                frozenset([concat(zero, y)]),
            )
        )
    return CoveringFamily(d, tuple(rects), label=f"recursive-d{d}")


def find_certificate(
    support: Iterable[Pair], family: CoveringFamily
) -> Optional[CoveringCertificate]:
    """Injective assignment of every support pair to a containing rectangle.

    Augmenting-path maximum bipartite matching, searched depth-first with an
    explicit stack.  Pairs are processed in lex order and each pair's
    adjacency list is in family order, so the result is deterministic.  The
    adjacency is built in one pass over the rectangles' pairs, so the cost is
    O(sum_i |R_i| + augmentation).  Returns None when no assignment
    saturates the support.
    """
    pairs = sorted(set(support))
    for x, y in pairs:
        if x.width != family.d or y.width != family.d:
            raise ValueError(f"pair ({x}, {y}) has width != {family.d}")
        if intersection_size(x, y) != 0:
            raise ValueError(f"non-disjoint pair ({x}, {y}) in support")
    adjacency: dict[Pair, list[int]] = {p: [] for p in pairs}
    for i, r in enumerate(family.rectangles):
        for x in r.rows:
            for y in r.cols:
                if (x, y) in adjacency:
                    adjacency[(x, y)].append(i)
    owner: dict[int, Pair] = {}
    assigned: dict[Pair, int] = {}
    for root in pairs:
        # path[j] takes rectangle via[j]; the owner of via[j] is path[j + 1]
        seen: set[int] = set()
        path, via, frontier = [root], [], [iter(adjacency[root])]
        while frontier:
            i = next((i for i in frontier[-1] if i not in seen), None)
            if i is None:
                frontier.pop()
                path.pop()
                if via:
                    via.pop()
                continue
            seen.add(i)
            via.append(i)
            if i in owner:
                path.append(owner[i])
                frontier.append(iter(adjacency[owner[i]]))
                continue
            for p, j in zip(path, via):
                owner[j] = p
                assigned[p] = j
            break
        else:
            return None
    return CoveringCertificate(assigned)


def maximal_support(d: int, alpha: BitString) -> set[Pair]:
    """All 3^d disjoint pairs except the antidiagonal pair at alpha."""
    pairs = set(enumerate_disjoint_pairs(d))
    pairs.discard((alpha, alpha.complement()))
    return pairs


def maximal_certificates(
    family: CoveringFamily,
) -> dict[BitString, Optional[CoveringCertificate]]:
    """One matching instance per maximal support of the antidiagonal-zero class."""
    return {
        alpha: find_certificate(maximal_support(family.d, alpha), family)
        for alpha in all_strings(family.d)
    }


def verify_covering_maximal(family: CoveringFamily) -> bool:
    """Whether all 2^d maximal supports admit certificates.

    By monotonicity (a certificate restricts to any sub-support) this
    certifies the covering property for every matrix vanishing on
    intersection-one pairs with at least one antidiagonal zero.
    """
    return all(c is not None for c in maximal_certificates(family).values())


def pattern_certificates_d2(
    family: CoveringFamily,
) -> dict[PatternId, Optional[CoveringCertificate]]:
    """One matching instance per admissible width-2 sparsity pattern."""
    if family.d != 2:
        raise ValueError(f"pattern verification needs d = 2, got {family.d}")
    return {
        pid: find_certificate(set(pattern_disjoint_support(pid)), family)
        for pid in PatternId
    }


def verify_patterns_d2(family: CoveringFamily) -> bool:
    """Whether the six admissible width-2 patterns all admit certificates."""
    return all(c is not None for c in pattern_certificates_d2(family).values())


def _phi(pid: int, table: dict[tuple[str, str], int]) -> CoveringCertificate:
    cert = CoveringCertificate(
        {(BitString.from_text(x), BitString.from_text(y)): i for (x, y), i in table.items()}
    )
    assert set(cert.assignment) == set(pattern_disjoint_support(PatternId(pid)))
    return cert


def phi_table_d2() -> list[CoveringCertificate]:
    """The six hand-built assignments against explicit_covering_d2.

    Indices follow EXPLICIT_D2_NAMES: 0 = a, 1 = b1, 2 = b2, 3 = c1,
    4 = c2, 5 = d1, 6 = d2.
    """
    tables: list[dict[tuple[str, str], int]] = [
        # pattern 1: full first row and column
        {("00", "00"): 2, ("00", "01"): 6, ("00", "10"): 3, ("00", "11"): 0,
         ("01", "00"): 4, ("10", "00"): 5, ("11", "00"): 1},
        # pattern 2: both corners vanish
        {("00", "00"): 2, ("00", "01"): 0, ("00", "10"): 3,
         ("01", "00"): 1, ("01", "10"): 4, ("10", "00"): 5, ("10", "01"): 6},
        # pattern 3: row 01 vanishes
        {("00", "00"): 4, ("00", "01"): 5, ("00", "10"): 3, ("00", "11"): 0,
         ("10", "00"): 2, ("10", "01"): 6, ("11", "00"): 1},
        # pattern 4: row 10 vanishes
        {("00", "00"): 6, ("00", "01"): 5, ("00", "10"): 3, ("00", "11"): 0,
         ("01", "00"): 2, ("01", "10"): 4, ("11", "00"): 1},
        # pattern 5: column 01 vanishes
        {("00", "00"): 6, ("00", "10"): 3, ("00", "11"): 0,
         ("01", "00"): 2, ("01", "10"): 4, ("10", "00"): 5, ("11", "00"): 1},
        # pattern 6: column 10 vanishes
        {("00", "00"): 4, ("00", "01"): 5, ("00", "11"): 0,
         ("01", "00"): 3, ("10", "00"): 2, ("10", "01"): 6, ("11", "00"): 1},
    ]
    return [_phi(pid, table) for pid, table in enumerate(tables, start=1)]


def block_decompose(m: SupportMatrix, d: int) -> dict[Pair, SupportMatrix]:
    """Split into a 2^d x 2^d grid of blocks indexed by width-d prefixes.

    Block (x, y) holds entry (a, b) at M[x concat a, y concat b]; blocks have
    side 2^(n-d).  Requires 1 <= d <= n.
    """
    if not 1 <= d <= m.n:
        raise ValueError(f"block width d = {d} outside [1, {m.n}]")
    inner_n = m.n - d
    grid: dict[Pair, dict[Pair, float]] = {
        (x, y): {} for x in all_strings(d) for y in all_strings(d)
    }
    for (r, c), v in m.entries.items():
        x, a = split(r, d)
        y, b = split(c, d)
        grid[(x, y)][(a, b)] = v
    return {key: SupportMatrix(inner_n, entries) for key, entries in grid.items()}


def block_assemble(blocks: Mapping[Pair, SupportMatrix]) -> SupportMatrix:
    """Inverse of block_decompose."""
    if not blocks:
        raise ValueError("no blocks to assemble")
    some_key = next(iter(blocks))
    d = some_key[0].width
    inner_n = blocks[some_key].n
    entries: dict[Pair, float] = {}
    for (x, y), block in blocks.items():
        for (a, b), v in block.entries.items():
            entries[(concat(x, a), concat(y, b))] = v
    return SupportMatrix(d + inner_n, entries)


def aggregate(m: SupportMatrix, family: CoveringFamily) -> list[SupportMatrix]:
    """Per-rectangle block sums M_i = sum of blocks (x, y) in R_i."""
    blocks = block_decompose(m, family.d)
    out = []
    for r in family.rectangles:
        acc = SupportMatrix(m.n - family.d)
        for pair in r.pairs():
            acc = acc + blocks[pair]
        out.append(acc)
    return out


@dataclass(frozen=True)
class InductionReport:
    """Both sides of the block-induction inequality for one atom."""

    n: int
    d: int
    val_total: int
    block_vals: tuple[int, ...]
    holds: bool
    aggregates_are_atoms: bool

    @property
    def bound(self) -> int:
        return sum(self.block_vals)


def check_induction_inequality(
    f: PsdFactorization, family: CoveringFamily, eps: float = EPS_ZERO
) -> InductionReport:
    """Check val(M) <= sum_i val(M_i) for the evaluation M of a factorization.

    The inequality is proved only for matrices carrying a PSD factorization,
    so this takes the factorization itself rather than a bare matrix.
    """
    m = evaluate(f)
    if not is_atom_pattern(m, eps):
        raise ValueError("evaluated matrix is not zero on intersection-one pairs")
    if m.n < family.d:
        raise ValueError(f"matrix width {m.n} below family width {family.d}")
    parts = aggregate(m, family)
    vals = tuple(val(p, eps) for p in parts)
    total = val(m, eps)
    return InductionReport(
        n=m.n,
        d=family.d,
        val_total=total,
        block_vals=vals,
        holds=total <= sum(vals),
        aggregates_are_atoms=all(is_atom_pattern(p, eps) for p in parts),
    )


def family_to_json(family: CoveringFamily) -> str:
    obj = {
        "d": family.d,
        "label": family.label,
        "rectangles": [
            {
                "rows": sorted(str(x) for x in r.rows),
                "cols": sorted(str(y) for y in r.cols),
            }
            for r in family.rectangles
        ],
    }
    return json.dumps(obj, sort_keys=True)


def family_from_json(text: str) -> CoveringFamily:
    """Parse and re-validate (widths, disjointness) a rectangle family."""
    obj = json.loads(text)
    rects = tuple(
        Rectangle.from_text(obj["d"], r["rows"], r["cols"]) for r in obj["rectangles"]
    )
    return CoveringFamily(obj["d"], rects, label=obj.get("label", ""))


def certificate_to_json(cert: CoveringCertificate) -> str:
    rows = sorted(([str(x), str(y)], i) for (x, y), i in cert.assignment.items())
    return json.dumps({"assignment": [[pair, i] for pair, i in rows]}, sort_keys=True)


def certificate_from_json(
    text: str, family: Optional[CoveringFamily] = None
) -> CoveringCertificate:
    """Parse a certificate; injectivity always re-checked, containment if a
    family is supplied."""
    obj = json.loads(text)
    cert = CoveringCertificate(
        {
            (BitString.from_text(x), BitString.from_text(y)): i
            for (x, y), i in obj["assignment"]
        }
    )
    if family is not None:
        cert.validate_against(family)
    return cert
