"""Golden digests of ``udisj`` reports.

Each row is an invocation, its exit code and the sha256 of its stdout.  The
digests pin the matrix formats byte for byte: the JSON entry list (order,
labels, integer values), the dense CSV with its headers, and the text
report's val line.  n = 10 is the dense cap: 851,746 entries, with
two-digit values up to 81.  Every entry listed is positive, and every
positive disjoint entry counts toward val.  The n = 4, 9 and 10 cases are
also written through ``--out``, whose file must hash to the same digest.
"""

from __future__ import annotations

import hashlib

import pytest

from liftcert import cli

CASES = [
    ("udisj --n 1 --format json", 0,
     "c072ba793a24101b6f2836655dd51d97da41b5b8871c216b8b89810501856090"),
    ("udisj --n 1 --format csv", 0,
     "12eac4d7836b0fa1e9c823227b806ec5c3cc8dff435133c66995b5cf381be81e"),
    ("udisj --n 1 --format text", 0,
     "7b91e1332f49c1230e5dadc99c81cb747f950fc47632dacd1999d160c11b1e63"),
    ("udisj --n 2 --format json", 0,
     "32c311f5277f32f554ba80c26ca7b28716df07436f57f64704230cdb38071e5f"),
    ("udisj --n 2 --format csv", 0,
     "9bad54f8c4e47c86f9d4d6a13e675fab455eff2e318eb3eaefc4b11de12c4f1c"),
    ("udisj --n 2 --format text", 0,
     "0c9fd30265c88930311d9e13c2c1f6e01f597b68ae1d5cc49ab5727fe5dbab75"),
    ("udisj --n 3 --format json", 0,
     "53f937c400028af6b623cb771b8e6b7ea2c6640a9e521b63cde026dd8dbadf35"),
    ("udisj --n 3 --format csv", 0,
     "c824bc3c88af360fbcad3beed3f4acf77bc3f4b7399e12b5559a4f2900829328"),
    ("udisj --n 3 --format text", 0,
     "222fc3a3406e109c329d7bbabec590cf966fab81572e0d9975b14704ca391e22"),
    ("udisj --n 4 --format json", 0,
     "63278312882ccf475e23a5abf6d54932c796b378d030031e800c79f395b7d82d"),
    ("udisj --n 4 --format csv", 0,
     "8310a649daa174eed9b4d4c11f266f840706d024994d7ba9404a9943cd8aad3a"),
    ("udisj --n 4 --format text", 0,
     "13210a701d434c94f04a5984ffc61b068e54ede00ac031b9a6a8fb6aa011ef2a"),
    ("udisj --n 9 --format json", 0,
     "7a954c6e94eba06c6d896ec65ea56d85bb55d88522482d726123bbc801e4e041"),
    ("udisj --n 9 --format csv", 0,
     "9dc6550474c5d8e21223d07bc5e53b7587449d44a09285d8cdf364fbdc99c335"),
    ("udisj --n 9 --format text", 0,
     "904a203ddf84de886a6a453c7afcfc2495868682d4037346e9abc50e2db83132"),
    ("udisj --n 10 --format json", 0,
     "c7926945fa54dd605f105cdc7c0129d422a476077808a242f5ab92162b212e89"),
    ("udisj --n 10 --format csv", 0,
     "06fc1bf78e8f3bbea6f5d2b8a9155ddf77035482e721ff01a413267a31462542"),
    ("udisj --n 10 --format text", 0,
     "2249de11471d7f63e8bb47ddab083a222bdf0244a58e06cfbab4e483f7ff857c"),
]


@pytest.mark.parametrize("invocation, exit_code, digest", CASES,
                         ids=[c[0].replace(" ", "_") for c in CASES])
def test_udisj_report(capsys, invocation, exit_code, digest):
    code = cli.main(invocation.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


OUT_CASES = [c for c in CASES if c[0].split()[2] in ("4", "9", "10")]


@pytest.mark.parametrize("invocation, exit_code, digest", OUT_CASES,
                         ids=[c[0].replace(" ", "_") for c in OUT_CASES])
def test_udisj_report_through_out(tmp_path, capsys, invocation, exit_code, digest):
    target = tmp_path / "report"
    code = cli.main([*invocation.split(), "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert (code, hashlib.sha256(target.read_bytes()).hexdigest()) == (exit_code, digest)
