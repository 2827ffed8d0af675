"""Rectangle families, matching certificates, and the block induction check."""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftcert import covering
from liftcert.atoms import (
    PatternId,
    evaluate,
    evaluate_block,
    pattern_disjoint_support,
    sample_atom,
    sample_block,
)
from liftcert.bitcore import (
    BitString,
    SupportMatrix,
    _json_field,
    all_strings,
    intersection_size,
    intersection_table,
    is_atom_pattern,
    udisj,
    val,
)
from liftcert.covering import (
    EXPLICIT_D2_NAMES,
    MAX_COVER_D,
    CoveringCertificate,
    CoveringFamily,
    Rectangle,
    aggregate,
    base_covering_d1,
    certificate_from_json,
    certificate_to_json,
    check_induction_inequality,
    check_maximal_assignments,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    find_certificate,
    induction_block,
    maximal_assignments,
    maximal_certificates,
    maximal_support,
    pattern_assignments,
    pattern_certificates_d2,
    phi_table_d2,
    recursive_certificates,
    recursive_covering,
    verify_patterns_d2,
)


def disjoint_pairs(n: int) -> list[tuple[BitString, BitString]]:
    """The zeros of the intersection table in row-major order, as string pairs."""
    rows, cols = np.nonzero(intersection_table(n) == 0)
    return [(BitString(n, a), BitString(n, b)) for a, b in zip(rows.tolist(), cols.tolist())]


def blocks_of(values: np.ndarray, d: int) -> np.ndarray:
    """The 2^d x 2^d grid of blocks indexed by width-d prefixes: entry
    [x, y, a, b] is M[x concat a, y concat b].  A prefix is the more
    significant part of an index, so this is a reshape."""
    outer, inner = 1 << d, values.shape[-1] >> d
    return values.reshape(outer, inner, outer, inner).transpose(0, 2, 1, 3)


def reference_recursive_covering(d: int) -> CoveringFamily:
    """The recursive family as it was first built: zero-prefixed lifts of the
    width d - 1 family, then {0x} x {0y, 1y} and {0x, 1x} x {0y} for each
    disjoint pair (x, y) of width d - 1."""
    if d == 1:
        return CoveringFamily(1, (Rectangle(1, (0,), (0, 1)), Rectangle(1, (0, 1), (0,))),
                              label="base-d1")
    top = 1 << (d - 1)
    rects = [Rectangle(d, r.rows, r.cols)
             for r in reference_recursive_covering(d - 1).rectangles]
    for x, y in disjoint_pairs(d - 1):
        rects += [Rectangle(d, (x.value,), (y.value, top | y.value)),
                  Rectangle(d, (x.value, top | x.value), (y.value,))]
    return CoveringFamily(d, tuple(rects), label=f"recursive-d{d}")


def draw_family(data, d: int) -> CoveringFamily:
    """Up to 3^d random width-d rectangles of at most 3 rows and 3 columns."""
    strings = all_strings(d)
    rects = []
    for _ in range(data.draw(st.integers(0, 3**d))):
        rows = data.draw(st.sets(st.sampled_from(strings), min_size=1, max_size=3))
        mask = 0
        for x in rows:
            mask |= x.value
        free = [y for y in strings if y.value & mask == 0]
        cols = data.draw(st.sets(st.sampled_from(free), min_size=1, max_size=3))
        rects.append(Rectangle(d, [x.value for x in rows], [y.value for y in cols]))
    return CoveringFamily(d, tuple(rects))


def drop_rectangle(family: CoveringFamily, index: int) -> CoveringFamily:
    rects = family.rectangles[:index] + family.rectangles[index + 1 :]
    return CoveringFamily(family.d, rects, label=family.label + "-dropped")


def spare_recursion_depth() -> int:
    """Nested calls still possible here; C-level calls count against the limit too."""

    def down(n: int) -> int:
        try:
            return down(n + 1)
        except RecursionError:
            return n

    return down(0)


def scan_certificate(support, family: CoveringFamily):
    """Reference matcher: tests every rectangle against every pair, recursing."""
    pairs = sorted(set(support))
    adjacency = {
        p: [i for i, r in enumerate(family.rectangles) if r.contains(*p)] for p in pairs
    }
    owner, assigned = {}, {}

    def augment(p, seen):
        for i in adjacency[p]:
            if i in seen:
                continue
            seen.add(i)
            if i not in owner or augment(owner[i], seen):
                owner[i] = p
                assigned[p] = i
                return True
        return False

    for p in pairs:
        if not augment(p, set()):
            return None
    return CoveringCertificate(assigned)


class TestRectangle:
    def test_non_disjoint_pair_rejected(self):
        with pytest.raises(ValueError):
            Rectangle.from_text(1, ["0", "1"], ["1"])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rectangle.from_text(2, ["0"], ["00"])

    def test_pairs_in_lex_order(self):
        c = Rectangle.from_text(2, ["00", "01"], ["00", "10"])
        assert [(str(x), str(y)) for x, y in c.pairs()] == [
            ("00", "00"), ("00", "10"), ("01", "00"), ("01", "10"),
        ]


    @given(st.data())
    def test_accepts_exactly_the_pairwise_disjoint_products(self, data):
        d = data.draw(st.integers(0, 4))
        values = st.lists(st.integers(0, (1 << d) - 1), max_size=5)
        rows, cols = data.draw(values), data.draw(values)
        bad = [(BitString(d, x), BitString(d, y)) for x in sorted(rows) for y in sorted(cols)
               if intersection_size(BitString(d, x), BitString(d, y)) != 0]
        if bad:
            with pytest.raises(ValueError, match=rf"\({bad[0][0]}, {bad[0][1]}\)"):
                Rectangle(d, rows, cols)
        else:
            r = Rectangle(d, rows, cols)
            assert (r.rows, r.cols) == (tuple(sorted(set(rows))), tuple(sorted(set(cols))))

    def test_values_normalised_and_hashable(self):
        r = Rectangle(2, [2, 0, 2], [np.int64(1)])
        assert r == Rectangle(2, (0, 2), (1,)) and hash(r) == hash(Rectangle(2, (0, 2), (1,)))
        assert r == Rectangle.from_text(2, ["10", "00"], ["01"])
        assert type(r.cols[0]) is int

    @pytest.mark.parametrize("rows, cols", [((4,), (0,)), ((0,), (-1,))])
    def test_value_outside_width_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="outside"):
            Rectangle(2, rows, cols)

    def test_bitstrings_are_not_values(self):
        with pytest.raises(TypeError):
            Rectangle(1, [BitString(1, 0)], [BitString(1, 0)])

    def test_contains_compares_widths(self):
        r = Rectangle.from_text(2, ["00"], ["01"])
        assert r.contains(BitString(2, 0), BitString(2, 1))
        assert not r.contains(BitString(1, 0), BitString(2, 1))
        assert not r.contains(BitString(2, 0), BitString(3, 1))


class TestBaseCoverings:
    def test_base_d1_shape(self):
        fam = base_covering_d1()
        assert fam.k == 2 == 3**1 - 1
        assert all(rows is not None for rows in maximal_assignments(fam).values())

    def test_explicit_d2_shape(self):
        fam = explicit_covering_d2()
        assert fam.k == 7
        # c = {00,01} x {00,10} holds exactly 4 pairs, all disjoint
        c = fam.rectangles[EXPLICIT_D2_NAMES.index("c1")]
        assert len(c.pairs()) == 4
        assert all(intersection_size(x, y) == 0 for x, y in c.pairs())

    def test_explicit_d2_copies(self):
        fam = explicit_covering_d2()
        assert fam.rectangles[1] == fam.rectangles[2]  # b1 == b2
        assert fam.rectangles[3] == fam.rectangles[4]  # c1 == c2
        assert fam.rectangles[5] == fam.rectangles[6]  # d1 == d2


class TestRecursiveCovering:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_count(self, d):
        assert recursive_covering(d).k == 3**d - 1

    def test_d2_growth(self):
        assert recursive_covering(2).k == 2 + 2 * 3

    def test_added_rectangles_have_two_pairs(self):
        fam = recursive_covering(3)
        prev_k = recursive_covering(2).k
        for r in fam.rectangles[prev_k:]:
            assert len(r.pairs()) == 2

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            recursive_covering(0)
        with pytest.raises(ValueError):
            recursive_covering(7)

    def test_built_once_per_width_and_range_still_checked(self):
        assert all(recursive_covering(d) is recursive_covering(d) for d in range(1, 7))
        for d in (0, MAX_COVER_D + 1):
            with pytest.raises(ValueError, match=f"d = {d} outside"):
                recursive_covering(d)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_recursive_construction(self, d):
        family = recursive_covering(d)
        assert family.rectangles == reference_recursive_covering(d).rectangles
        assert family.label == ("base-d1" if d == 1 else f"recursive-d{d}")
        assert base_covering_d1() == reference_recursive_covering(1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_owned_pairs_are_the_nonzero_disjoint_pairs(self, d):
        owned = [(r.rows[-1], r.cols[-1]) for r in recursive_covering(d).rectangles]
        disjoint = [(x.value, y.value) for x, y in disjoint_pairs(d)]
        assert len(set(owned)) == len(owned)
        assert sorted(owned) == disjoint[1:] and disjoint[0] == (0, 0)


class TestFindCertificate:
    def test_empty_support(self):
        cert = find_certificate([], base_covering_d1())
        assert cert is not None and cert.assignment == {}

    def test_singleton_support(self):
        pair = (BitString.from_text("0"), BitString.from_text("1"))
        cert = find_certificate([pair], base_covering_d1())
        assert cert is not None and cert.assignment[pair] == 0

    def test_pigeonhole_failure(self):
        support = disjoint_pairs(1)  # 3 pairs, 2 rectangles
        assert find_certificate(support, base_covering_d1()) is None

    def test_non_disjoint_support_rejected(self):
        one = BitString.from_text("1")
        with pytest.raises(ValueError):
            find_certificate([(one, one)], base_covering_d1())

    def test_pair_of_another_width_rejected(self):
        # disjoint, so only the width check can reject it
        pair = (BitString.from_text("00"), BitString.from_text("01"))
        with pytest.raises(ValueError, match=r"^pair \(00, 01\) has width != 1$"):
            find_certificate([pair], base_covering_d1())

    @given(st.sets(st.sampled_from(sorted(maximal_support(2, BitString(2, 0))))))
    def test_monotone_under_restriction(self, support):
        # the full maximal support is coverable, so every subset must be
        fam = recursive_covering(2)
        cert = find_certificate(support, fam)
        assert cert is not None
        cert.validate_against(fam, support=set(support))

    def test_d6_certified_without_recursion(self):
        # the longest augmenting path at d = 6 is 13 pairs deep, so a matcher
        # that recursed per path step would exceed this limit
        family = recursive_covering(6)
        supports = [maximal_support(6, alpha) for alpha in all_strings(6)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit - spare_recursion_depth() + 10)
        try:
            certs = [find_certificate(support, family) for support in supports]
        finally:
            sys.setrecursionlimit(limit)
        for support, cert in zip(supports, certs):
            assert cert is not None
            cert.validate_against(family, support=support)

    @given(st.data())
    def test_matches_all_rectangles_scan(self, data):
        d = data.draw(st.integers(1, 3))
        family = draw_family(data, d)
        support = data.draw(st.sets(st.sampled_from(disjoint_pairs(d))))
        assert find_certificate(support, family) == scan_certificate(support, family)


class TestMaximalVerification:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_recursive_passes(self, d):
        certs = maximal_certificates(recursive_covering(d))
        assert len(certs) == 2**d
        for alpha, cert in certs.items():
            assert cert is not None
            assert len(cert.assignment) == 3**d - 1

    def test_explicit_d2_fails_by_pigeonhole(self):
        # the 7-rectangle family covers the six patterns, not the whole
        # antidiagonal-zero class: a maximal support has 8 pairs
        assert None in maximal_assignments(explicit_covering_d2()).values()

    def test_damaged_family_fails(self):
        fam = recursive_covering(2)
        assert None in maximal_assignments(drop_rectangle(fam, 0)).values()


def as_certificate(d: int, rows: np.ndarray) -> CoveringCertificate:
    return CoveringCertificate(
        {(BitString(d, x), BitString(d, y)): i for x, y, i in rows.tolist()}
    )


def triples(cert: CoveringCertificate) -> list[list[int]]:
    """The assignment as (x, y, i) value rows in lex order."""
    return sorted([x.value, y.value, i] for (x, y), i in cert.assignment.items())


def spy(monkeypatch, name: str) -> list:
    """Record the calls made to covering.<name> from inside the module."""
    calls = []
    original = getattr(covering, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(covering, name, wrapper)
    return calls


class TestRecursiveCertificates:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_matcher_and_validates(self, d):
        family = recursive_covering(d)
        stack = recursive_certificates(d)
        assert stack.shape == (2**d, 3**d - 1, 3)
        for alpha in all_strings(d):
            support = maximal_support(d, alpha)
            rows = stack[alpha.value]
            assert rows.tolist() == triples(find_certificate(support, family))
            keys = covering._maximal_keys(d, alpha.value).tolist()
            assert rows.tolist() == covering._match(keys, family).tolist()
            cert = as_certificate(d, rows)
            cert.validate_against(family, support=support)
            assert set(cert.assignment) == support

    @pytest.mark.parametrize("d", [0, MAX_COVER_D + 1])
    def test_out_of_range_rejected(self, d):
        with pytest.raises(ValueError):
            recursive_certificates(d)

    def test_built_once_and_read_only(self):
        stack, family = recursive_certificates(3), recursive_covering(3)
        assert recursive_certificates(3) is stack
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 2] = 1
        with pytest.raises(ValueError, match="read-only"):
            maximal_assignments(family)[0b101][0, 2] = 1
        with pytest.raises(ValueError, match="read-only"):
            family._members[0, 0, 0] = True

    def test_every_call_revalidates(self, monkeypatch):
        checked = spy(monkeypatch, "check_maximal_assignments")
        family = family_from_json(family_to_json(recursive_covering(4)))
        assert maximal_assignments(family).keys() == maximal_assignments(family).keys()
        assert len(checked) == 2


class TestMaximalRouting:
    def test_relabelled_recursive_family_is_constructed(self, monkeypatch):
        matched = spy(monkeypatch, "_match")
        built = spy(monkeypatch, "recursive_certificates")
        family = CoveringFamily(4, recursive_covering(4).rectangles, label="mine")
        certs = maximal_certificates(family)
        assert (len(matched), len(built)) == (0, 1)
        for alpha, cert in certs.items():
            cert.validate_against(family, support=maximal_support(4, alpha))

    @pytest.mark.parametrize("change", [
        lambda rects: rects[::-1],  # permuted
        lambda rects: rects + rects[5:6],  # a duplicated rectangle
    ], ids=["permuted", "duplicated"])
    def test_other_families_are_matched(self, monkeypatch, change):
        matched = spy(monkeypatch, "_match")
        built = spy(monkeypatch, "recursive_certificates")
        family = CoveringFamily(3, change(recursive_covering(3).rectangles))
        certs = maximal_certificates(family)
        assert (len(matched), len(built)) == (8, 0)
        for alpha, cert in certs.items():
            assert cert is not None
            cert.validate_against(family, support=maximal_support(3, alpha))

    def test_assignments_match_certificates(self):
        for family in (recursive_covering(3), drop_rectangle(recursive_covering(3), 4),
                       explicit_covering_d2()):
            rows = maximal_assignments(family)
            for alpha, cert in maximal_certificates(family).items():
                if cert is None:
                    assert rows[alpha.value] is None
                else:
                    assert rows[alpha.value].tolist() == triples(cert)


def per_alpha_assignments(family: CoveringFamily) -> dict[int, Optional[np.ndarray]]:
    """Reference: the pinned matcher run on each maximal support in turn."""
    return {alpha: covering._match(covering._maximal_keys(family.d, alpha), family)
            for alpha in range(1 << family.d)}


def matching_deficiency(family: CoveringFamily) -> int:
    """|D| - nu(D) for the 3^d disjoint pairs D, by recursive augmenting paths
    on a scan of every rectangle."""
    owner: dict[int, tuple] = {}

    def augment(p, seen) -> bool:
        for i, r in enumerate(family.rectangles):
            if i not in seen and r.contains(*p):
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = p
                    return True
        return False

    return sum(not augment(p, set()) for p in disjoint_pairs(family.d))


def mutated_recursive(d: int, seed: int) -> CoveringFamily:
    """recursive_covering(d) with, each at even odds, one rectangle dropped, one
    duplicated (appended) and the order shuffled."""
    rng = np.random.default_rng(seed)
    rects = list(recursive_covering(d).rectangles)
    if rng.random() < 0.5:
        rects.pop(rng.integers(len(rects)))
    if rng.random() < 0.5:
        rects.append(rects[rng.integers(len(rects))])
    if rng.random() < 0.5:
        rects = [rects[j] for j in rng.permutation(len(rects))]
    return CoveringFamily(d, tuple(rects), label=f"mutated-{seed}")


class TestMaximalDecision:
    """Non-recursive families: one maximum matching of all disjoint keys D picks
    the alphas to match, by nu(D) = |D|, |D| - 1 (alternating paths) or less."""

    def test_mutated_families_decided_as_per_alpha(self):
        branches = set()
        for seed in range(200):
            d = 1 + seed % 4
            family = mutated_recursive(d, seed)
            got, want = maximal_assignments(family), per_alpha_assignments(family)
            assert got.keys() == want.keys()
            for alpha, rows in want.items():
                assert (None if got[alpha] is None else got[alpha].tolist()) == (
                    None if rows is None else rows.tolist()), (seed, alpha)
            passing = sum(rows is not None for rows in want.values())
            branch = min(matching_deficiency(family), 2)
            if branch != 1:  # nu(D) = |D| passes every alpha, nu(D) <= |D| - 2 none
                assert passing == (2**d if branch == 0 else 0), seed
            branches.add((branch, 0 < passing < 2**d))
        assert {(0, False), (1, True), (2, False)} <= branches  # (1, True): mixed

    @pytest.mark.parametrize("d, change, deficiency, passing", [
        # cover-maximal's deficient family: two keys uncovered, every alpha fails
        (5, lambda rects: rects[:17] + rects[18:], 2, set()),
        # rectangle 5 listed twice (GOLDEN_MATCHED_D4): all of D matched
        (4, lambda rects: rects[:6] + rects[5:], 0, set(range(16))),
        # reversed (GOLDEN_MATCHED_D4): one key uncovered, every hole reachable
        (4, lambda rects: rects[::-1], 1, set(range(16))),
        # {0} x {1, 3} dropped, {0} x {3, 7} listed twice: one key uncovered
        (3, lambda rects: rects[:4] + rects[5:] + rects[14:15], 1, {1, 2, 3, 5, 6, 7}),
    ], ids=["deficient-d5", "rectangle-5-twice-d4", "reversed-d4", "mixed-d3"])
    def test_each_branch(self, monkeypatch, d, change, deficiency, passing):
        family = CoveringFamily(d, change(recursive_covering(d).rectangles))
        assert matching_deficiency(family) == deficiency
        matched = spy(monkeypatch, "_match")
        rows = maximal_assignments(family)
        assert {alpha for alpha, r in rows.items() if r is not None} == passing
        assert len(matched) == len(passing)  # a failing alpha runs no search
        for alpha in passing:
            as_certificate(d, rows[alpha]).validate_against(
                family, support=maximal_support(d, BitString(d, alpha)))


class TestRevalidation:
    D, ALPHA = 3, 0b101

    def check(self, rows: np.ndarray) -> None:
        check_maximal_assignments(recursive_covering(self.D), {self.ALPHA: rows})

    def test_constructed_certificate_passes(self):
        self.check(recursive_certificates(self.D)[self.ALPHA])

    def test_index_out_of_range_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA].copy()
        rows[0, 2] = 3**self.D - 1
        with pytest.raises(ValueError, match="indices"):
            self.check(rows)
        rows[0, 2] = -1
        with pytest.raises(ValueError, match="indices"):
            self.check(rows)

    def test_repeated_index_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA].copy()
        rows[1, 2] = rows[0, 2]
        with pytest.raises(ValueError, match="indices"):
            self.check(rows)

    def test_missing_pair_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA]
        with pytest.raises(ValueError, match="maximal support"):
            self.check(rows[1:])

    def test_antidiagonal_pair_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA].copy()
        rows[0, :2] = self.ALPHA, self.ALPHA ^ 0b111
        with pytest.raises(ValueError, match="maximal support"):
            self.check(rows)

    def test_pair_outside_width_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA].copy()
        rows[0, 1] += 1 << self.D
        with pytest.raises(ValueError, match="maximal support"):
            self.check(rows)

    def test_pair_outside_its_rectangle_rejected(self):
        rows = recursive_certificates(self.D)[self.ALPHA].copy()
        rows[[0, 1], 2] = rows[[1, 0], 2]
        with pytest.raises(ValueError, match="outside its rectangle"):
            self.check(rows)

    @pytest.mark.parametrize("extra", [(1, 1, 8), (4, 0, 8)], ids=["intersecting", "wide"])
    def test_extra_row_on_a_spare_rectangle_rejected(self, extra):
        # a copy of rectangle 0 leaves index 8 unused: only the pair check sees the row
        family = recursive_covering(2)
        spare = CoveringFamily(2, family.rectangles + family.rectangles[:1])
        rows = np.vstack([recursive_certificates(2)[0], extra])
        with pytest.raises(ValueError, match="its pairs are not the maximal support"):
            check_maximal_assignments(spare, {0: rows})

    def test_intersecting_pair_named_as_not_the_maximal_support(self):
        rows = recursive_certificates(2)[0].copy()
        rows[rows[:, :2].tolist().index([0b01, 0b00]), 1] = 0b01  # its index kept
        with pytest.raises(ValueError, match="its pairs are not the maximal support"):
            check_maximal_assignments(recursive_covering(2), {0: rows})

    # -4 and 37 once wrapped onto alpha 101's own antidiagonal pair and passed
    @pytest.mark.parametrize("alpha", [-4, -1, 1 << D, 37])
    def test_alpha_outside_width_rejected(self, alpha):
        rows = recursive_certificates(self.D)[self.ALPHA]
        with pytest.raises(ValueError, match="maximal support"):
            check_maximal_assignments(recursive_covering(self.D), {alpha: rows})

    def test_failed_revalidation_is_an_error(self, monkeypatch):
        def one_pair_short(d):
            return recursive_certificates(d)[:, 1:]

        monkeypatch.setattr(covering, "recursive_certificates", one_pair_short)
        with pytest.raises(ValueError, match="maximal support"):
            maximal_certificates(recursive_covering(2))


def reference_check_maximal_assignments(family: CoveringFamily, assignments) -> None:
    """The certificate check as one loop step per alpha, as it was before the
    array check: membership masks, then per alpha its indices, its pairs and
    its containment, raising at the first failure."""
    d, k = family.d, family.k
    member = np.zeros((2, k, 1 << d), dtype=bool)
    for i, r in enumerate(family.rectangles):
        member[0, i, r.rows] = True
        member[1, i, r.cols] = True
    for alpha, rows in assignments.items():
        x, y, i = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
        where = f"certificate for alpha = {alpha:0{d}b}:"
        if not ((0 <= i) & (i < k)).all() or len(set(i.tolist())) < i.size:
            raise ValueError(f"{where} rectangle indices not distinct in [0, {k})")
        if ((x | y) >> d).any() or not np.array_equal(np.sort(x << d | y),
                                                       covering._maximal_keys(d, alpha)):
            raise ValueError(f"{where} its pairs are not the maximal support")
        if not (member[0, i, x] & member[1, i, y]).all():
            raise ValueError(f"{where} a pair lies outside its rectangle")


def check_outcome(check, family: CoveringFamily, assignments) -> Optional[str]:
    """The error text of a certificate check, or None when it passes."""
    try:
        check(family, assignments)
    except ValueError as exc:
        return str(exc)
    return None


#: Edits of one alpha's (x, y, i) rows (d = 3, k = 26), each rejected.
CERTIFICATE_MUTATIONS = {
    "index-above-range": lambda rows, alpha: rows.__setitem__((0, 2), 26),
    "index-below-range": lambda rows, alpha: rows.__setitem__((0, 2), -1),
    "repeated-index": lambda rows, alpha: rows.__setitem__((1, 2), rows[0, 2]),
    "pair-dropped": lambda rows, alpha: rows[1:],
    "antidiagonal-pair": lambda rows, alpha: rows.__setitem__((0, slice(0, 2)),
                                                             (alpha, alpha ^ 0b111)),
    "pair-outside-width": lambda rows, alpha: rows.__setitem__((0, 1), rows[0, 1] + 8),
    # x = 2^d and y = -1: rows out of range are never looked up, so no index wraps
    "x-at-2^d": lambda rows, alpha: rows.__setitem__((0, 0), 8),
    "y-below-zero": lambda rows, alpha: rows.__setitem__((-1, 1), -1),
    "indices-swapped": lambda rows, alpha: rows.__setitem__(([0, 1], 2), rows[[1, 0], 2]),
}


def mutated(mutation: str, rows: np.ndarray, alpha: int) -> np.ndarray:
    rows = rows.copy()
    out = CERTIFICATE_MUTATIONS[mutation](rows, alpha)
    return rows if out is None else out


class TestRevalidationAgainstTheLoop:
    """The array check rejects as the per-alpha loop did: same text, same alpha."""

    D = 3

    def assignments(self) -> dict[int, np.ndarray]:
        return dict(enumerate(recursive_certificates(self.D)))

    @pytest.mark.parametrize("later", [None, *CERTIFICATE_MUTATIONS])
    @pytest.mark.parametrize("mutation", sorted(CERTIFICATE_MUTATIONS))
    def test_first_bad_alpha_named_as_by_the_loop(self, mutation, later):
        family, out = recursive_covering(self.D), self.assignments()
        out[0b101] = mutated(mutation, out[0b101], 0b101)
        if later is not None:  # a second fault at a later alpha is not reported
            out[0b110] = mutated(later, out[0b110], 0b110)
        expected = check_outcome(reference_check_maximal_assignments, family, out)
        assert expected is not None and "alpha = 101:" in expected
        assert check_outcome(check_maximal_assignments, family, out) == expected

    def test_untouched_certificates_pass_both(self):
        family, out = recursive_covering(self.D), self.assignments()
        assert check_outcome(reference_check_maximal_assignments, family, out) is None
        assert check_outcome(check_maximal_assignments, family, out) is None
        assert check_outcome(check_maximal_assignments, family, {}) is None

    @given(st.data())
    def test_random_edits_rejected_as_by_the_loop(self, data):
        d = data.draw(st.integers(1, 3))
        family, stack = recursive_covering(d), recursive_certificates(d)
        alphas = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, unique=True))
        out = {}
        for alpha in alphas:
            rows = stack[alpha].copy()
            for _ in range(data.draw(st.integers(0, 2))):
                r = data.draw(st.integers(0, len(rows) - 1))
                c = data.draw(st.integers(0, 2))
                rows[r, c] = data.draw(st.integers(-2, max(family.k, 1 << d) + 1))
            if data.draw(st.booleans()):
                rows = rows[data.draw(st.permutations(range(len(rows))))]
            if data.draw(st.integers(0, 4)) == 0:
                rows = rows[1:] if data.draw(st.booleans()) else np.vstack([rows, rows[:1]])
            out[alpha] = rows
        assert (check_outcome(check_maximal_assignments, family, out)
                == check_outcome(reference_check_maximal_assignments, family, out))


class TestPatternVerification:
    def test_explicit_d2_passes(self):
        certs = pattern_certificates_d2(explicit_covering_d2())
        assert all(c is not None for c in certs.values())

    def test_recursive_d2_passes(self):
        assert verify_patterns_d2(recursive_covering(2))

    def test_missing_rectangle_a_fails(self):
        # (00, 11) lies only in rectangle a
        fam = drop_rectangle(explicit_covering_d2(), EXPLICIT_D2_NAMES.index("a"))
        assert not verify_patterns_d2(fam)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            verify_patterns_d2(base_covering_d1())

    @staticmethod
    def check_rows_equal_matcher(family: CoveringFamily) -> None:
        for pid, rows in pattern_assignments(family).items():
            cert = find_certificate(pattern_disjoint_support(pid), family)
            assert (rows is None) == (cert is None)
            if cert is not None:
                assert rows.tolist() == triples(cert)

    @pytest.mark.parametrize("make", [explicit_covering_d2, lambda: recursive_covering(2)],
                             ids=["explicit", "recursive"])
    def test_assignments_equal_find_certificate(self, make):
        self.check_rows_equal_matcher(make())

    @given(st.data())
    def test_random_families_assign_as_find_certificate(self, data):
        self.check_rows_equal_matcher(draw_family(data, 2))


#: sha256 of the six phi certificates' ``certificate_to_json`` texts, one a line.
PHI_D2_SHA256 = "537e0d410f57075033ab0b6f9b96120ce1d1a6186ffc6d72485a92df01155dff"


class TestPhiTables:
    def test_first_table_spot_values(self):
        table = phi_table_d2()[0].assignment
        s00, s11 = BitString.from_text("00"), BitString.from_text("11")
        assert table[(s00, s11)] == EXPLICIT_D2_NAMES.index("a")
        assert table[(s00, s00)] == EXPLICIT_D2_NAMES.index("b2")

    def test_tables_validate_as_certificates(self):
        fam = explicit_covering_d2()
        for pid, cert in zip(PatternId, phi_table_d2()):
            cert.validate_against(fam, support=set(pattern_disjoint_support(pid)))

    def test_tables_cover_exactly_the_pattern_support(self):
        for pid, cert in zip(PatternId, phi_table_d2()):
            assert set(cert.assignment) == set(pattern_disjoint_support(pid))

    def test_certificates_pinned(self):
        text = "\n".join(certificate_to_json(cert) for cert in phi_table_d2())
        assert hashlib.sha256(text.encode()).hexdigest() == PHI_D2_SHA256

    @pytest.mark.parametrize("row", ["b2 d2 c1 a c2 d1", "b2 d2 c1 a c2 d1 e1"],
                             ids=["one-name-short", "unknown-name"])
    def test_mistranscribed_row_rejected(self, monkeypatch, row):
        monkeypatch.setattr(covering, "_PHI_D2", (row, *covering._PHI_D2[1:]))
        with pytest.raises(ValueError, match="phi row of pattern 1"):
            phi_table_d2()


class TestCertificateValidation:
    """The rejections of ``validate_against``, which re-checks each certificate
    of a verify report against its maximal support."""

    def test_index_outside_the_family_rejected(self):
        fam = recursive_covering(2)
        rows = recursive_certificates(2)[0].copy()
        rows[-1, 2] = fam.k
        cert = covering._certificate(2, rows)
        with pytest.raises(ValueError, match=f"rectangle index {fam.k} outside family of size"):
            cert.validate_against(fam)

    def test_unassigned_support_pair_rejected(self):
        fam, alpha = recursive_covering(2), BitString(2, 0b01)
        support = maximal_support(2, alpha)
        cert = maximal_certificates(fam)[alpha]
        cert.validate_against(fam, support=support)
        x, y = max(support)
        dropped = CoveringCertificate(
            {pair: i for pair, i in cert.assignment.items() if pair != (x, y)})
        dropped.validate_against(fam)
        with pytest.raises(ValueError, match=rf"support pair \({x}, {y}\) unassigned"):
            dropped.validate_against(fam, support=support)

    def test_family_of_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="rectangle width 1 != family width 2"):
            CoveringFamily(2, (Rectangle(2, (0,), (1,)), Rectangle(1, (0,), (1,))))


class TestBlockOps:
    def test_full_depth_blocks_are_entries(self):
        # one {x} x {y} rectangle per disjoint pair: each aggregate is that entry
        m = udisj(2)
        pairs = disjoint_pairs(2)
        fam = CoveringFamily(2, tuple(Rectangle(2, (x.value,), (y.value,)) for x, y in pairs))
        parts = aggregate(m, fam)
        assert [part.n for part in parts] == [0] * len(pairs)
        for part, (x, y) in zip(parts, pairs):
            assert part.values.shape == (1, 1)
            assert part.values[0, 0] == m.value(x, y)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            aggregate(udisj(2), CoveringFamily(0, (Rectangle(0, (0,), (0,)),)))
        with pytest.raises(ValueError):
            aggregate(udisj(2), recursive_covering(3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_entries_are_prefix_concatenations(self, d):
        # distinct entries, so any misplaced index shows
        m = SupportMatrix(3, np.arange(64).reshape(8, 8))
        blocks = blocks_of(m.values, d)
        assert blocks.shape == (2**d, 2**d, 2 ** (3 - d), 2 ** (3 - d))
        for x in all_strings(d):
            for y in all_strings(d):
                for a in all_strings(3 - d):
                    for b in all_strings(3 - d):
                        assert blocks[x.value, y.value, a.value, b.value] == m.value(
                            BitString(3, x.value << a.width | a.value),
                            BitString(3, y.value << b.width | b.value),
                        )

    def test_val_splits_over_disjoint_blocks(self):
        for seed in range(30):
            m = evaluate(sample_atom(4, 2, seed))
            blocks = blocks_of(m.values, 2)
            total = sum(
                val(SupportMatrix(2, blocks[x.value, y.value]))
                for x, y in disjoint_pairs(2)
            )
            assert val(m) == total

    def test_aggregate_single_corner_rectangle(self):
        m = udisj(3)
        fam = CoveringFamily(2, (Rectangle(2, (0,), (0,)),))
        (only,) = aggregate(m, fam)
        assert only.n == 1
        assert np.array_equal(only.values, blocks_of(m.values, 2)[0, 0])

    def test_aggregate_udisj_d1_matches_block_sums(self):
        m = udisj(4)
        blocks = blocks_of(m.values, 1)
        m1, m2 = aggregate(m, base_covering_d1())
        assert m1.values.dtype == m2.values.dtype == np.int64
        assert np.array_equal(m1.values, blocks[0, 0] + blocks[0, 1])
        assert np.array_equal(m2.values, blocks[0, 0] + blocks[1, 0])

    def test_aggregates_of_atoms_stay_atoms(self):
        fam = recursive_covering(2)
        for seed in range(30):
            m = evaluate(sample_atom(4, 2, seed))
            for part in aggregate(m, fam):
                assert is_atom_pattern(part)


def ix_aggregate(values: np.ndarray, family: CoveringFamily) -> list[np.ndarray]:
    """The one-matrix aggregate as it was before the stacked path: per
    rectangle, ``np.ix_`` gathers its blocks and they are summed over both
    prefix axes."""
    blocks = blocks_of(values, family.d)
    return [blocks[np.ix_(r.rows, r.cols)].sum(axis=(0, 1))
            for r in family.rectangles]


class TestInductionBlock:
    @pytest.mark.parametrize("n, family", [
        (4, recursive_covering(2)), (6, recursive_covering(3)), (3, base_covering_d1()),
        (2, explicit_covering_d2()), (4, explicit_covering_d2()),
    ])
    @pytest.mark.parametrize("seeds", [range(0, 24, 2), range(1, 24, 2)],
                             ids=["u-first", "v-first"])
    def test_stacked_aggregates_equal_the_ix_sums_bit_for_bit(self, n, family, seeds):
        u, v = sample_block(n, family.d, seeds)
        values = evaluate_block(u, v)
        stacked = covering._aggregate_block(values, family)
        assert stacked.shape[:2] == (12, family.k)
        for t in range(12):
            want = ix_aggregate(values[t], family)
            assert [part.tobytes() for part in stacked[t]] == [w.tobytes() for w in want]

    def test_empty_family_bounds_val_by_0(self):
        values = np.stack([np.zeros((4, 4)), udisj(2).values])
        totals, vals = induction_block(values, CoveringFamily(1, ()))
        assert totals.tolist() == [0, 9]
        assert vals.shape == (2, 0)

    def test_non_atom_raises_only_where_a_trial_loop_reaches_it(self):
        # with no rectangles UDISJ(2) fails (val 9 > 0); all ones is no atom
        empty, fails, non_atom = CoveringFamily(1, ()), udisj(2).values, np.ones((4, 4))
        totals, _ = induction_block(np.stack([fails, non_atom]), empty)
        assert totals.tolist() == [9, 9]
        for stack in ([non_atom, fails], [np.zeros((4, 4)), non_atom, fails]):
            with pytest.raises(ValueError, match="not zero on intersection-one pairs"):
                induction_block(np.stack(stack), empty)


class TestInduction:
    def test_zero_matrix(self):
        from liftcert.atoms import PsdFactorization

        f = PsdFactorization(3, 2, np.zeros((8, 2, 2)), np.zeros((8, 2, 2)))
        rep = check_induction_inequality(f, recursive_covering(2))
        assert rep.holds and rep.val_total == 0 and rep.bound == 0

    def test_sampled_atoms_hold(self):
        fam = recursive_covering(2)
        for seed in range(100):
            rep = check_induction_inequality(sample_atom(4, 2, seed), fam)
            assert rep.holds
            assert rep.bound == sum(rep.block_vals)

    def test_sums_of_atoms_respect_per_atom_bound(self):
        # each atom at n=4 over 2x2 cones has val at most 8^2; val is
        # subadditive over sums, so r atoms give at most 64 r
        cap = (3**2 - 1) ** ((4 - 1) // 2 + 1)
        for seed in range(10):
            r = 3
            total = SupportMatrix(4, sum(
                evaluate(sample_atom(4, 2, 1000 * seed + j)).values for j in range(r)
            ))
            assert val(total) <= r * cap

    def test_width_below_family_rejected(self):
        with pytest.raises(ValueError):
            check_induction_inequality(sample_atom(1, 2, 0), recursive_covering(2))

    @pytest.mark.parametrize("n, family", [
        (4, recursive_covering(2)), (6, recursive_covering(3)),
        (3, base_covering_d1()), (2, explicit_covering_d2()), (2, recursive_covering(2)),
    ])
    def test_report_matches_each_aggregate(self, n, family):
        for seed in range(16):
            f = sample_atom(n, family.d, seed)
            parts = aggregate(evaluate(f), family)
            rep = check_induction_inequality(f, family)
            assert rep.block_vals == tuple(val(p) for p in parts)
            assert rep.val_total == val(evaluate(f))
            # the aggregates of an atom are atoms (see induction_block)
            assert all(is_atom_pattern(p) for p in parts)


def reference_json_strings(obj: object, key: str, where: str) -> list[str]:
    value = _json_field(obj, key, list, where)
    if not all(isinstance(s, str) for s in value):
        raise ValueError(f'{where} field "{key}" is not a list of strings')
    return value


def reference_family_to_json(family: CoveringFamily) -> str:
    """The family writer as it was before the quoted label tables."""
    rects = [{side: [str(BitString(family.d, v)) for v in getattr(r, side)]
              for side in ("rows", "cols")} for r in family.rectangles]
    return json.dumps({"d": family.d, "label": family.label, "rectangles": rects},
                      sort_keys=True)


def reference_family_from_json(text: str) -> CoveringFamily:
    """The family reader as it was before the label tables: one
    ``Rectangle.from_text`` (one ``BitString`` per string) per rectangle."""
    obj = json.loads(text)
    d = _json_field(obj, "d", int, "family")
    rects = []
    for i, r in enumerate(_json_field(obj, "rectangles", list, "family")):
        rows, cols = (reference_json_strings(r, key, f"rectangle {i}")
                      for key in ("rows", "cols"))
        rects.append(Rectangle.from_text(d, rows, cols))
    label = _json_field({"label": "", **obj}, "label", str, "family")
    return CoveringFamily(d, tuple(rects), label)


def parse_outcome(parse, text: str):
    """(family, label) as parsed, or the ValueError text."""
    try:
        family = parse(text)
    except ValueError as exc:
        return str(exc)
    return family, family.label


#: Strings that are not width-d labels, and entries that are not strings.
CORRUPT_STRINGS = ["0b1", " 01", "1_0", "\uff10\uff11", "", "0" * 17, "2"]
NON_STRINGS = [1, None, True, 0.0, ["0"], {"0": 1}]


def draw_family_json(data) -> str:
    """A family file of width d in 0..7 whose strings are mostly width-d
    labels, some corrupted (wrong width, foreign characters, non-strings), and
    whose sides are lists but for a few strings or objects of labels."""
    d = data.draw(st.integers(0, 7))
    labels = [format(v, f"0{d}b") if d else "" for v in range(1 << min(d, 4))]

    def string(free: list[str]):
        kind = data.draw(st.integers(0, 9))
        if kind == 0:
            return data.draw(st.sampled_from(CORRUPT_STRINGS + NON_STRINGS))
        if kind == 1:  # width d - 1 or d + 1
            return data.draw(st.sampled_from([labels[0][1:], "0" + labels[0], "1" + labels[0]]))
        return data.draw(st.sampled_from(free))

    def side(strings: list) -> object:  # mostly a list; else its labels joined or keyed
        kind = data.draw(st.integers(0, 19))
        return {0: "".join(strings), 1: dict.fromkeys(strings, 0)}.get(kind, strings)

    rects = []
    for _ in range(data.draw(st.integers(0, 4))):
        rows = [string(labels) for _ in range(data.draw(st.integers(0, 3)))]
        mask = 0
        for x in rows:
            if isinstance(x, str) and x in labels:
                mask |= int(x, 2) if x else 0
        free = [y for y in labels if not (int(y, 2) if y else 0) & mask] or labels
        cols = [string(free) for _ in range(data.draw(st.integers(0, 3)))]
        if all(isinstance(x, str) for x in rows + cols):
            rows, cols = side(rows), side(cols)
        rects.append({"rows": rows, "cols": cols})
    return json.dumps({"d": d, "label": data.draw(st.sampled_from(["", "x"])),
                       "rectangles": rects}, ensure_ascii=False)


class TestSerialization:
    @given(st.data())
    def test_family_reader_parses_as_per_string_reference(self, data):
        text = draw_family_json(data)
        assert (parse_outcome(family_from_json, text)
                == parse_outcome(reference_family_from_json, text))

    @pytest.mark.parametrize("bad", CORRUPT_STRINGS + NON_STRINGS + ["000", "0"])
    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_corrupt_string_rejected_as_by_the_reference(self, bad, side):
        rect = {"rows": ["00"], "cols": ["01", "10"]}
        rect[side] = rect[side] + [bad]
        text = json.dumps({"d": 2, "rectangles": [rect, {"rows": ["1"], "cols": []}]})
        expected = parse_outcome(reference_family_from_json, text)
        assert isinstance(expected, str)
        assert parse_outcome(family_from_json, text) == expected

    @pytest.mark.parametrize("make", [base_covering_d1, explicit_covering_d2])
    def test_family_round_trip(self, make):
        text = family_to_json(make())
        again = family_from_json(text)
        assert family_to_json(again) == text
        assert again == make()

    @given(st.data())
    def test_family_writer_writes_as_json_dumps(self, data):
        d = data.draw(st.integers(1, 4))
        family = CoveringFamily(d, draw_family(data, d).rectangles,
                                label=data.draw(st.text(max_size=4)))
        assert family_to_json(family) == reference_family_to_json(family)

    @pytest.mark.parametrize("family", [
        CoveringFamily(0, (Rectangle(0, (0,), (0,)),), label="width 0"),
        CoveringFamily(7, (Rectangle(7, (1,), (2, 4)),), label="width 7"),
        CoveringFamily(2, explicit_covering_d2().rectangles,
                       label='a "quoted" \\ label, \u00e9 \u2713 \U0001d11e'),
    ], ids=["d0", "d7", "quotes-backslash-non-ascii"])
    def test_family_round_trip_at_other_widths_and_labels(self, family):
        text = family_to_json(family)
        assert text == reference_family_to_json(family)
        again = family_from_json(text)
        assert (again, again.label) == (family, family.label)
        assert family_to_json(again) == text

    def test_family_revalidates_on_load(self):
        bad = '{"d": 1, "label": "x", "rectangles": [{"rows": ["1"], "cols": ["1"]}]}'
        with pytest.raises(ValueError):
            family_from_json(bad)

    def test_certificate_round_trip(self):
        fam = explicit_covering_d2()
        for cert in phi_table_d2():
            text = certificate_to_json(cert)
            again = certificate_from_json(text, fam)
            assert certificate_to_json(again) == text

    def test_certificate_injectivity_rechecked(self):
        bad = '{"assignment": [[["00", "01"], 0], [["00", "10"], 0]]}'
        with pytest.raises(ValueError):
            certificate_from_json(bad)

    def test_certificate_containment_rechecked(self):
        bad = '{"assignment": [[["01", "10"], 0]]}'
        with pytest.raises(ValueError):
            certificate_from_json(bad, explicit_covering_d2())

    @pytest.mark.parametrize("text", [
        "{}", "[]", '{"assignment": {}}', '{"assignment": [[["00", "01"], "x"]]}',
        '{"assignment": [[["00", "01"], 1.5]]}', '{"assignment": [[["00", "00"], true]]}',
        '{"assignment": [["00", "01", 0]]}', '{"assignment": [[["00", 1], 0]]}',
        '{"assignment": [[["00", "01", "10"], 0]]}', '{"assignment": [0]}',
        '{"assignment": [[["00", "01"], 0], [["00", "01"], 1]]}',
        '{"assignment": [[["0", "1"], -1]]}',
        pytest.param('{"assignment": ' + "[" * 5000 + "]" * 5000 + "}", id="nested-5000-deep"),
    ])
    @pytest.mark.parametrize("family", [None, explicit_covering_d2()], ids=["bare", "family"])
    def test_malformed_certificate_rejected(self, text, family):
        with pytest.raises(ValueError, match="certificate"):
            certificate_from_json(text, family)

    def test_duplicate_copies_survive_round_trip(self):
        fam = family_from_json(family_to_json(explicit_covering_d2()))
        assert fam.rectangles[1] == fam.rectangles[2]
        assert fam.k == 7
