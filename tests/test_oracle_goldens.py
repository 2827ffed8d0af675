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
from liftcert.covering import CoveringFamily, Rectangle, family_to_json, recursive_covering

EMPTY = hashlib.sha256(b"").hexdigest()

FAMILIES = {
    "rec3": recursive_covering(3),
    "one_rect_d1": CoveringFamily(
        1, (Rectangle.from_text(1, ["0"], ["0"]),), label="one-rect-d1"
    ),
    # recursive_covering(2) without rectangle 4, {00} x {01, 11}: from seed
    # 724 falsified at trial 29 (seed 753, V first), in the second block of
    # 16 at n = 4
    "rec2_minus_4": CoveringFamily(
        2, recursive_covering(2).rectangles[:4] + recursive_covering(2).rectangles[5:],
        label="rec2-minus-4",
    ),
    # no rectangles: the bound is 0, so the first trial with val > 0 falsifies
    "empty_d1": CoveringFamily(1, (), label="empty-d1"),
}


def non_atom_sampler(n, d, seeds):
    side = np.broadcast_to(np.eye(d), (len(seeds), 1 << n, d, d))
    return side, side


CASES = [
    pytest.param(
        "atom sample --n 2 --d 2 --trials 200 --check patterns", None, 0,
        "390c56c97cc5faa3d22f46667b9f7d4aa199af0e96783c838b83d77d1de62334",
        id="patterns-200",
    ),
    pytest.param(
        "atom sample --n 3 --d 3 --trials 40 --seed 11 --check antidiagonal", None, 0,
        "8bc14edb7301ac3af661e5cc36a900c62ddfdeb82cb32b1559cd66cfceda1eb7",
        id="antidiagonal-d3",
    ),
    pytest.param(
        # V_10 = 0 and V_01 has singular values 2.52 and 9.4e-6: the chain
        # reaches the full plane and the witness row is 11
        "atom sample --n 2 --d 2 --check antidiagonal --seed 357919 --trials 1", None, 0,
        "9fd38228ad047dc0f229f1c00fd401fab8599a927f6e1c559625c107643d7b7c",
        id="antidiagonal-d2-small-singular-value",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 15 --seed 3", None, 0,
        "30eb83d4611657e7179a1c3ea90bb934ef7c07247dda4042a092311ae32b0973",
        id="induction-default-family",
    ),
    pytest.param(
        "induction --n 2 --d 1 --trials 10 --family {one_rect_d1}", None, 1,
        "4fc521d60f20e2575c0aa78074ba180620cd6f14459596e6b41bc8aad7d544b0",
        id="induction-one-rect-falsified",
    ),
    pytest.param(
        "induction --n 4 --d 2 --trials 40 --seed 724 --family {rec2_minus_4}", None, 1,
        "13849136959e1d059c6332e10eb05983439aa96ca4846d440bedc8f1d7760bc9",
        id="induction-rec2-minus-4-second-block",
    ),
    pytest.param(
        "induction --n 2 --d 1 --trials 10 --seed 3 --family {empty_d1}", None, 1,
        "2ab51ba255fc28aaab98e6305e64e7484500972836e21d11b5ad46a6bc46e1fc",
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
