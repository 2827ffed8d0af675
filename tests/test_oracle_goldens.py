"""Golden digests of the oracle reports (``atom sample`` and ``induction``).

Each row is an invocation, its exit code and the sha256 of its stdout.  The
digests pin the reports byte for byte: the trial order, the seeds, every
report field and the falsifier payload.  ``{name}`` in an invocation is
replaced by the path of the family file of that name.  Rows that name the
non-atom sampler replace the block sampler ``liftcert.cli.sample_block`` with
one returning constant identity factorizations, which no check accepts, to
reach the falsifier paths of the pattern and antidiagonal checks.  Invalid
configurations exit 2 with an empty stdout.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from liftcert import cli
from liftcert.atoms import antidiagonal_witness, sample_atom
from liftcert.bitcore import BitString
from liftcert.covering import CoveringFamily, Rectangle, family_to_json, recursive_covering
from liftcert.linalg import RANK_TOL

EMPTY = hashlib.sha256(b"").hexdigest()

FAMILIES = {
    "rec3": recursive_covering(3),
    "one_rect_d1": CoveringFamily(
        1, (Rectangle.from_text(1, ["0"], ["0"]),), label="one-rect-d1"
    ),
    # recursive_covering(2) without rectangle 4, {00} x {01, 11}: from seed
    # 4232 falsified at trial 29 (seed 4261, V first), in the first block of
    # 64 at n = 4, and from seed 200 at trial 93 (seed 293, V first), in the
    # second
    "rec2_minus_4": CoveringFamily(
        2, recursive_covering(2).rectangles[:4] + recursive_covering(2).rectangles[5:],
        label="rec2-minus-4",
    ),
    # no rectangles: the bound is 0, so the first trial with val > 0 falsifies
    "empty_d1": CoveringFamily(1, (), label="empty-d1"),
}


#: The seed of the (2, 2) atom with the smallest singular-value ratio of
#: V_01, 2.4e-5, among the seeds 0-399,999 that give V_10 = 0.
SMALL_SINGULAR_SEED = 160903


def non_atom_sampler(n, d, seeds):
    side = np.broadcast_to(np.eye(d), (len(seeds), 1 << n, d, d))
    return side, side


CASES = [
    pytest.param(
        "atom sample --n 2 --d 2 --trials 200 --check patterns", None, 0,
        "38104a3d0eab9bee46368bb0400e27fff4f73b8f1a3efd5b89835ffaef7a0921",
        id="patterns-200",
    ),
    pytest.param(
        "atom sample --n 3 --d 3 --trials 40 --seed 11 --check antidiagonal", None, 0,
        "e0fe7889b4b11f4ede0ca654697e2aeeccb4dd38ea3b11565638f1f329db9b4f",
        id="antidiagonal-d3",
    ),
    pytest.param(
        # V_10 = 0 and V_01 has singular values 2.20 and 5.3e-5, which
        # RANK_TOL keeps: the chain reaches the full plane and the witness
        # row is 11 (see test_small_singular_value_case_keeps_its_premise)
        f"atom sample --n 2 --d 2 --check antidiagonal --seed {SMALL_SINGULAR_SEED} "
        "--trials 1", None, 0,
        "394fdbe2286947b165eddcc72346a64caf5b0502a729d058ad4f213d698bfa85",
        id="antidiagonal-d2-small-singular-value",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 15 --seed 3", None, 0,
        "c493a2a1e78d8314b91997b0f31f803a6d2d125385d827b3035c757c09e1e96b",
        id="induction-default-family",
    ),
    pytest.param(
        "induction --n 2 --d 1 --trials 10 --family {one_rect_d1}", None, 1,
        "4d905658da531987f3797e6fafbdb9dddd2a7fda66ea36898c8c58b578277d49",
        id="induction-one-rect-falsified",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 40 --seed 4232 --family {rec2_minus_4}", None, 1,
        "02c89ac4d135158a6ddf14390654cdcae0076fd0d138661803f3d630682ee7a3",
        id="induction-rec2-minus-4-first-block",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 128 --seed 200 --family {rec2_minus_4}", None, 1,
        "7a82e6774d01d33d70a5e79f145411a679b96fe547bc2c5398a738358c431561",
        id="induction-rec2-minus-4-second-block",
    ),
    pytest.param(
        "induction --n 2 --d 1 --trials 10 --seed 3 --family {empty_d1}", None, 1,
        "a4bc44e482fc206e52a7e2f92ae93ce928f9682ae41a15d8d2643d0867bf3361",
        id="induction-empty-family-falsified",
    ),
    pytest.param(
        "atom sample --n 2 --d 2 --trials 5 --seed 7 --check patterns",
        non_atom_sampler, 1,
        "7999725804d87aa12f609975003f156e180f99a1c00ed9245f04db72126c827f",
        id="patterns-falsified",
    ),
    pytest.param(
        "atom sample --n 2 --d 2 --trials 5 --seed 7 --check antidiagonal",
        non_atom_sampler, 1,
        "7aa67c1b79528d010bf8a481f448db3e693af124f4a83965ef6db52f92f82ba5",
        id="antidiagonal-falsified",
    ),
    pytest.param(
        "atom sample --n 3 --d 2 --trials 1 --check patterns", None, 2,
        EMPTY, id="patterns-wrong-size",
    ),
    pytest.param(
        "atom sample --n 3 --d 2 --trials 1 --check antidiagonal", None, 2,
        EMPTY, id="antidiagonal-not-square",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 1 --family {rec3}", None, 2,
        EMPTY, id="induction-width-mismatch",
    ),
]


def run_report(tmp_path, capsys, invocation: str) -> tuple[int, str]:
    paths = {}
    for name, family in FAMILIES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(family_to_json(family))
    code = cli.main(invocation.format(**paths).split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("invocation, sampler, exit_code, digest", CASES)
def test_oracle_report(tmp_path, capsys, monkeypatch, invocation, sampler,
                       exit_code, digest):
    if sampler is not None:
        monkeypatch.setattr(cli, "sample_block", sampler)
    code, out = run_report(tmp_path, capsys, invocation)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


@pytest.mark.parametrize("invocation, sampler, exit_code, digest", [
    case for case in CASES if case.values[0].startswith("induction") and case.values[2] == 1
])
def test_falsifier_replays_from_its_seed(tmp_path, capsys, invocation, sampler,
                                         exit_code, digest):
    # the seed alone names a sampled atom, so a run of one trial from the
    # falsifier's seed (the later options win) falsifies on the same atom
    first = json.loads(run_report(tmp_path, capsys, invocation)[1])["falsifier"]
    code, out = run_report(tmp_path, capsys,
                           f"{invocation} --seed {first['seed']} --trials 1")
    replay = json.loads(out)["falsifier"]
    assert code == 1 and replay["trial"] == 0
    for key in ("seed", "direction", "factorization", "matrix", "reason"):
        assert replay[key] == first[key], key


def test_small_singular_value_case_keeps_its_premise():
    # the witness chain of antidiagonal-d2-small-singular-value reads V_10
    # first, which is zero, then V_01, whose smaller singular value is tiny
    # but above the cutoff, so F_2 is the full plane and the row is 11
    f = sample_atom(2, 2, SMALL_SINGULAR_SEED)
    s = np.linalg.svd(f.V[0b01], compute_uv=False)
    assert not f.V[0b10].any() and RANK_TOL < s[1] / s[0] < 1e-4
    assert antidiagonal_witness(f) == BitString(2, 0b11)
