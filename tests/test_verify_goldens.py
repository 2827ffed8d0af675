"""Golden digests of ``covering verify`` reports.

The reports carry every certificate the matcher emits, so these digests pin
the matcher's choices byte for byte: a change to the adjacency order or the
augmenting-path search that alters any certificate fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from liftcert.cli import main
from liftcert.covering import (
    CoveringFamily,
    explicit_covering_d2,
    family_to_json,
    recursive_covering,
)

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


@pytest.mark.parametrize("mode, exit_code", [("maximal", 1), ("patterns-d2", 0)])
def test_explicit_d2_reports(tmp_path, capsys, mode, exit_code):
    code, digest = verify_digest(tmp_path, capsys, explicit_covering_d2(), mode)
    assert (code, digest) == (exit_code, GOLDEN_EXPLICIT_D2[mode])


def test_deficient_d5_report(tmp_path, capsys):
    rects = recursive_covering(5).rectangles
    family = CoveringFamily(5, rects[:17] + rects[18:], label="recursive-d5-dropped")
    code, digest = verify_digest(tmp_path, capsys, family, "maximal")
    assert (code, digest) == (1, GOLDEN_DEFICIENT_D5)
