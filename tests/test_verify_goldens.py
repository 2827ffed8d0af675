"""Golden digests of ``covering verify`` reports and ``covering build`` output.

The reports carry every certificate the matcher emits, so these digests pin
the matcher's choices byte for byte: a change to the adjacency order or the
augmenting-path search that alters any certificate fails here.  The build
digests pin each family's rectangles and their order.
"""

from __future__ import annotations

import hashlib

import pytest

from liftcert.cli import main
from liftcert.covering import (
    CoveringFamily,
    Rectangle,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    recursive_covering,
)

GOLDEN_BUILD_RECURSIVE = {
    1: "ae08083bc3f298b596feb3de47b7e8f13aa8511970cdb2f69d4af8fe481b627a",
    2: "dba3c985f9e3bb634bd1f5c95e0af92e8a95ea70127714e16709a8bc9b817cb9",
    3: "a14c4cc2316753597f209c7f0a5244c2004fe56605883547e0cd32d4cbe1687d",
    4: "345a1e2038a1f1064d3e725e14c1952c8a3fe8ff1cffc63cf25069d7f78172dd",
    5: "36d2e82c23fa88b9fd71326eba1fc37527bd9b623d67b2cde89c4a12a5103787",
    6: "f28af1f22137497e4556ed71e7fc59279602a16a4956db648af66b018996d467",
}
GOLDEN_BUILD_EXPLICIT_D2 = "819889822c1a34000abc4f7b883c74d909aca0a187cdb14bba4f50c63400696b"
GOLDEN_MAXIMAL_RECURSIVE = {
    1: "3187c1c4319982856c22406b3d73f0e7ab46123307dc9dcdae88cb8142333215",
    2: "7fb56df5f2c05efb022b64f2c1e79b2af065a508154ddba8b6c212556b2340f5",
    3: "9e3a26678647f5f031de33f28ab1874c55df067a4be79fce9a4647d0ffca248a",
    4: "a919ea441125e05dcdc6e739339cdbda4addd361a4205cfaebfb152b57d3b3bd",
    5: "1cc425f3533fa718fd5730f0eeb3126f57b3cfc1bf646bbc90d01f5ed7bf5478",
    6: "9aa76852cc03b549d7fb7af3eb0e61cb155d818c85b0b3507b971e35a344d22e",
}
GOLDEN_EXPLICIT_D2 = {
    "maximal": "d99a7efa0087f9c688361dc6bf33bc7fb36ac3748df382c74f86b7c97a77b4b5",
    "patterns-d2": "5879862f8bd8d2a3432d7c50354fa8f5de122b99929bb3edaf5d3cab75adb22e",
}
GOLDEN_DEFICIENT_D5 = "50f976dc19ce79da86654bb56476344706e1967230f4891fed9688cd8ee32b4e"
#: Reports that interleave failures (``null``) and certificates: the d = 5
#: family without rectangle 0 and with rectangle 7 listed twice (16 of 32
#: alphas pass), and the explicit d = 2 family with b1 narrowed to
#: {00} x {00, 01} (patterns 4 and 5 fail).
GOLDEN_MIXED_D5 = "d42de8fd3151366b7fd832d55315edaac65969ea82f149691225c398c62e8890"
GOLDEN_NARROWED_D2 = "4ab058843b7fd1afbe6caaf5dcd4f6634a65e91847c878a61d6223c852446d9a"
#: Families the matcher certifies (not the recursive construction): the
#: d = 4 rectangles in reverse order, and with rectangle 5 listed twice.
GOLDEN_MATCHED_D4 = {
    "reversed": "920b922e1eeac288d1c1b3368e666c74125ca70a719f51f3576de04c4b7fc6ec",
    "rectangle-5-twice": "717ca150d9f10a52ef490eeb3e60d0568bdca9cc22c706807d5582f56b15ab42",
}


def build_digest(capsys, *flags: str) -> tuple[int, str]:
    code = main(["covering", "build", *flags])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("d", range(1, 7))
def test_recursive_build_output(capsys, d):
    assert build_digest(capsys, "--d", str(d)) == (0, GOLDEN_BUILD_RECURSIVE[d])


def test_explicit_d2_build_output(capsys):
    assert build_digest(capsys, "--d", "2", "--explicit-d2") == (0, GOLDEN_BUILD_EXPLICIT_D2)


@pytest.mark.parametrize("flags, golden", [
    *((("--d", str(d)), GOLDEN_BUILD_RECURSIVE[d]) for d in range(1, 7)),
    (("--d", "2", "--explicit-d2"), GOLDEN_BUILD_EXPLICIT_D2),
], ids=[*(f"d{d}" for d in range(1, 7)), "explicit-d2"])
def test_pinned_build_output_round_trips(capsys, flags, golden):
    main(["covering", "build", *flags])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == golden
    text = out.removesuffix("\n")
    assert family_to_json(family_from_json(text)) == text


def verify_digest(tmp_path, capsys, family: CoveringFamily, mode: str) -> tuple[int, str]:
    fam_file = tmp_path / "family.json"
    fam_file.write_text(family_to_json(family))
    code = main(["covering", "verify", "--family", str(fam_file), "--mode", mode])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("d", range(1, 7))
def test_recursive_maximal_reports(tmp_path, capsys, d):
    code, digest = verify_digest(tmp_path, capsys, recursive_covering(d), "maximal")
    assert (code, digest) == (0, GOLDEN_MAXIMAL_RECURSIVE[d])


def test_recursive_d6_report_through_out(tmp_path, capsys):
    """The d = 6 report is about 140,000 pieces, so its file is written in
    several slices; the file hashes to the stdout digest."""
    fam_file, target = tmp_path / "family.json", tmp_path / "report.json"
    fam_file.write_text(family_to_json(recursive_covering(6)))
    code = main(["covering", "verify", "--family", str(fam_file), "--mode", "maximal",
                 "--out", str(target)])
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert (code, digest) == (0, GOLDEN_MAXIMAL_RECURSIVE[6])


@pytest.mark.parametrize("mode, exit_code", [("maximal", 1), ("patterns-d2", 0)])
def test_explicit_d2_reports(tmp_path, capsys, mode, exit_code):
    code, digest = verify_digest(tmp_path, capsys, explicit_covering_d2(), mode)
    assert (code, digest) == (exit_code, GOLDEN_EXPLICIT_D2[mode])


def test_deficient_d5_report(tmp_path, capsys):
    rects = recursive_covering(5).rectangles
    family = CoveringFamily(5, rects[:17] + rects[18:], label="recursive-d5-dropped")
    code, digest = verify_digest(tmp_path, capsys, family, "maximal")
    assert (code, digest) == (1, GOLDEN_DEFICIENT_D5)


@pytest.mark.parametrize("variant", sorted(GOLDEN_MATCHED_D4))
def test_matched_d4_reports(tmp_path, capsys, variant):
    rects = recursive_covering(4).rectangles
    rects = rects[::-1] if variant == "reversed" else rects[:6] + rects[5:]
    family = CoveringFamily(4, rects, label=f"recursive-d4-{variant}")
    code, digest = verify_digest(tmp_path, capsys, family, "maximal")
    assert (code, digest) == (0, GOLDEN_MATCHED_D4[variant])


def test_mixed_d5_report(tmp_path, capsys):
    rects = recursive_covering(5).rectangles
    family = CoveringFamily(5, rects[1:] + rects[7:8], label="recursive-d5-mixed")
    code, digest = verify_digest(tmp_path, capsys, family, "maximal")
    assert (code, digest) == (1, GOLDEN_MIXED_D5)


def test_narrowed_d2_patterns_report(tmp_path, capsys):
    rects = explicit_covering_d2().rectangles
    b1 = Rectangle.from_text(2, ["00"], ["00", "01"])
    family = CoveringFamily(2, (rects[0], b1) + rects[2:], label="explicit-d2-b1-narrowed")
    code, digest = verify_digest(tmp_path, capsys, family, "patterns-d2")
    assert (code, digest) == (1, GOLDEN_NARROWED_D2)
