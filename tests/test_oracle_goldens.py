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
    # recursive_covering(2) without rectangle 4, {00} x {01, 11}: from seed 5
    # falsified at trial 29, in the second block of 16 at n = 4
    "rec2_minus_4": CoveringFamily(
        2, recursive_covering(2).rectangles[:4] + recursive_covering(2).rectangles[5:],
        label="rec2-minus-4",
    ),
    # no rectangles: the bound is 0, so the first trial with val > 0 falsifies
    "empty_d1": CoveringFamily(1, (), label="empty-d1"),
}


def non_atom_sampler(n, d, seeds, directions):
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
        "c37988fb83227e19dde05a32f5042448113e221a78bb0c5960077fca9ba78c19",
        id="antidiagonal-d3",
    ),
    pytest.param(
        # V_10 = 0 and V_01 has singular values 2.52 and 9.4e-6: the chain
        # reaches the full plane and the witness row is 11
        "atom sample --n 2 --d 2 --check antidiagonal --direction v-first"
        " --seed 357919 --trials 1", None, 0,
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
        "induction --n 4 --d 2 --trials 40 --seed 5 --family {rec2_minus_4}", None, 1,
        "985f9008764701154efe7af6899e833f3ed88f0a3b6f47e1ca8dc18cf4e2557b",
        id="induction-rec2-minus-4-second-block",
    ),
    pytest.param(
        "induction --n 2 --d 1 --trials 10 --seed 3 --family {empty_d1}", None, 1,
        "1b0127d6255ed258fbdb2355db70ee03d2f5a4043510ffccfbde0785e51229a9",
        id="induction-empty-family-falsified",
    ),
    pytest.param(
        "atom sample --n 2 --d 2 --trials 5 --seed 7 --check patterns",
        non_atom_sampler, 1,
        "b4f53d509b5cd95bc1f87301d867500a745b3c577e0d472333cf6ee8c5c86b1c",
        id="patterns-falsified",
    ),
    pytest.param(
        "atom sample --n 2 --d 2 --trials 5 --seed 7 --check antidiagonal",
        non_atom_sampler, 1,
        "9d47844933e7993de8fd49d8fabca8b7352062b8e4c01f4c821bb7ec998318e0",
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


def report_digest(tmp_path, capsys, invocation: str) -> tuple[int, str]:
    paths = {}
    for name, family in FAMILIES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(family_to_json(family))
    code = cli.main(invocation.format(**paths).split())
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("invocation, sampler, exit_code, digest", CASES)
def test_oracle_report(tmp_path, capsys, monkeypatch, invocation, sampler,
                       exit_code, digest):
    if sampler is not None:
        monkeypatch.setattr(cli, "sample_block", sampler)
    assert report_digest(tmp_path, capsys, invocation) == (exit_code, digest)
