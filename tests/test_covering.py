"""Rectangle families, matching certificates, and the block induction check."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftcert.atoms import PatternId, pattern_disjoint_support, sample_atom, evaluate
from liftcert.bitcore import (
    BitString,
    SupportMatrix,
    all_strings,
    enumerate_disjoint_pairs,
    intersection_size,
    is_atom_pattern,
    udisj,
    val,
)
from liftcert.covering import (
    EXPLICIT_D2_NAMES,
    CoveringCertificate,
    CoveringFamily,
    Rectangle,
    aggregate,
    base_covering_d1,
    block_assemble,
    block_decompose,
    certificate_from_json,
    certificate_to_json,
    check_induction_inequality,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    find_certificate,
    maximal_certificates,
    maximal_support,
    pattern_certificates_d2,
    phi_table_d2,
    recursive_covering,
    verify_covering_maximal,
    verify_patterns_d2,
)


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


class TestBaseCoverings:
    def test_base_d1_shape(self):
        fam = base_covering_d1()
        assert fam.k == 2 == 3**1 - 1
        assert verify_covering_maximal(fam)

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


class TestFindCertificate:
    def test_empty_support(self):
        cert = find_certificate([], base_covering_d1())
        assert cert is not None and cert.assignment == {}

    def test_singleton_support(self):
        pair = (BitString.from_text("0"), BitString.from_text("1"))
        cert = find_certificate([pair], base_covering_d1())
        assert cert is not None and cert.assignment[pair] == 0

    def test_pigeonhole_failure(self):
        support = enumerate_disjoint_pairs(1)  # 3 pairs, 2 rectangles
        assert find_certificate(support, base_covering_d1()) is None

    def test_non_disjoint_support_rejected(self):
        one = BitString.from_text("1")
        with pytest.raises(ValueError):
            find_certificate([(one, one)], base_covering_d1())

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
        strings = all_strings(d)
        rects = []
        for _ in range(data.draw(st.integers(0, 3**d))):
            rows = data.draw(st.sets(st.sampled_from(strings), min_size=1, max_size=3))
            mask = 0
            for x in rows:
                mask |= x.value
            free = [y for y in strings if y.value & mask == 0]
            cols = data.draw(st.sets(st.sampled_from(free), min_size=1, max_size=3))
            rects.append(Rectangle(d, frozenset(rows), frozenset(cols)))
        family = CoveringFamily(d, tuple(rects))
        support = data.draw(st.sets(st.sampled_from(enumerate_disjoint_pairs(d))))
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
        assert not verify_covering_maximal(explicit_covering_d2())

    def test_damaged_family_fails(self):
        fam = recursive_covering(2)
        assert not verify_covering_maximal(drop_rectangle(fam, 0))


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


class TestBlockOps:
    def test_full_depth_blocks_are_entries(self):
        m = udisj(2)
        blocks = block_decompose(m, 2)
        empty = BitString(0, 0)
        for x in all_strings(2):
            for y in all_strings(2):
                assert blocks[(x, y)].value(empty, empty) == m.value(x, y)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            block_decompose(udisj(2), 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_reassembly_identity(self, d):
        m = udisj(3)
        assert block_assemble(block_decompose(m, d)).entries == m.entries

    def test_val_splits_over_disjoint_blocks(self):
        for seed in range(30):
            m = evaluate(sample_atom(4, 2, rng=seed))
            blocks = block_decompose(m, 2)
            total = sum(
                val(blocks[(x, y)])
                for x, y in enumerate_disjoint_pairs(2)
            )
            assert val(m) == total

    def test_aggregate_single_corner_rectangle(self):
        m = udisj(3)
        z2 = BitString.zero(2)
        fam = CoveringFamily(2, (Rectangle(2, frozenset([z2]), frozenset([z2])),))
        (only,) = aggregate(m, fam)
        assert only.entries == block_decompose(m, 2)[(z2, z2)].entries

    def test_aggregate_udisj_d1_matches_block_sums(self):
        m = udisj(4)
        blocks = block_decompose(m, 1)
        z, o = BitString(1, 0), BitString(1, 1)
        m1, m2 = aggregate(m, base_covering_d1())
        assert m1.entries == (blocks[(z, z)] + blocks[(z, o)]).entries
        assert m2.entries == (blocks[(z, z)] + blocks[(o, z)]).entries

    def test_aggregates_of_atoms_stay_atoms(self):
        fam = recursive_covering(2)
        for seed in range(30):
            m = evaluate(sample_atom(4, 2, rng=seed))
            for part in aggregate(m, fam):
                assert is_atom_pattern(part)


class TestInduction:
    def test_zero_matrix(self):
        from liftcert.linalg import PsdMatrix

        from liftcert.atoms import PsdFactorization

        zero = PsdMatrix.zero(2)
        side = {s: zero for s in all_strings(3)}
        f = PsdFactorization(3, 2, dict(side), dict(side))
        rep = check_induction_inequality(f, recursive_covering(2))
        assert rep.holds and rep.val_total == 0 and rep.bound == 0

    def test_sampled_atoms_hold(self):
        fam = recursive_covering(2)
        for seed in range(100):
            rep = check_induction_inequality(sample_atom(4, 2, rng=seed), fam)
            assert rep.holds
            assert rep.aggregates_are_atoms
            assert rep.bound == sum(rep.block_vals)

    def test_sums_of_atoms_respect_per_atom_bound(self):
        # each atom at n=4 over 2x2 cones has val at most 8^2; val is
        # subadditive over sums, so r atoms give at most 64 r
        cap = (3**2 - 1) ** ((4 - 1) // 2 + 1)
        for seed in range(10):
            r = 3
            total = SupportMatrix(4)
            for j in range(r):
                total = total + evaluate(sample_atom(4, 2, rng=1000 * seed + j))
            assert val(total) <= r * cap

    def test_width_below_family_rejected(self):
        with pytest.raises(ValueError):
            check_induction_inequality(sample_atom(1, 2, rng=0), recursive_covering(2))


class TestSerialization:
    @pytest.mark.parametrize("make", [base_covering_d1, explicit_covering_d2])
    def test_family_round_trip(self, make):
        text = family_to_json(make())
        again = family_from_json(text)
        assert family_to_json(again) == text
        assert again == make()

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

    def test_duplicate_copies_survive_round_trip(self):
        fam = family_from_json(family_to_json(explicit_covering_d2()))
        assert fam.rectangles[1] == fam.rectangles[2]
        assert fam.k == 7
