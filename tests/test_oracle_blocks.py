"""The block-wise oracle runs against a per-trial reference loop.

The reference below samples, evaluates and checks one trial at a time with
the one-trial functions (``sample_atom``, ``evaluate``,
``classify_pattern_d2``, ``antidiagonal_witness``, ``check_induction_inequality``),
stopping at the first reason, as the oracles did before they ran in blocks,
and builds the report fields from that loop, not from ``run_trials``.
Every report of the block path, falsifier and tallies included, must equal
the reference's, whatever the trial count is against the block size; a
non-atom that the reference would raise on exits 2, and one after the
reference's falsifier is never reached.  A falsified report has the one
shape of its oracle: its summary covers the trials that passed, as the same
command cut to those trials prints it.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from liftcert import atoms, cli
from liftcert.atoms import (
    FalsificationError,
    NoPatternMatches,
    PsdFactorization,
    antidiagonal_witness,
    block_size,
    classify_pattern_d2,
    evaluate,
    factorization_to_json,
    sample_atom,
)
from liftcert.bitcore import matrix_to_json, val
from liftcert.covering import (
    CoveringFamily,
    check_induction_inequality,
    family_to_json,
    recursive_covering,
)

#: recursive_covering(2) without rectangle 4, {00} x {01, 11}: at n = 4 the
#: first falsifier from seed 200 is trial 93, the 30th of the second block of
#: 64, and from seed 4232 trial 29, in the first block.
REC2_MINUS_4 = CoveringFamily(
    2, recursive_covering(2).rectangles[:4] + recursive_covering(2).rectangles[5:],
    label="rec2-minus-4",
)


def reference_trials(
    n: int, d: int, counts: Sequence[int], seed: int,
    check: Callable[[PsdFactorization], tuple[Optional[str], object]],
) -> list[tuple[list, dict]]:
    """Per run of each trial count: the outcomes of the trials before the
    first reason and the fields every oracle report shares, from one loop
    over the largest count (a shorter run's trials are a prefix of it)."""
    outcomes: list = []
    falsifier = None
    for i in range(max(counts)):
        f = sample_atom(n, d, seed + i)
        reason, outcome = check(f)
        if reason is not None:
            falsifier = {
                "trial": i, "seed": seed + i,
                "direction": "v-first" if (seed + i) % 2 else "u-first", "reason": reason,
                "factorization": json.loads(factorization_to_json(f)),
                "matrix": json.loads(matrix_to_json(evaluate(f))),
            }
            break
        outcomes.append(outcome)
    runs = []
    for trials in counts:
        reached = falsifier if falsifier and falsifier["trial"] < trials else None
        runs.append((outcomes[:trials], {"n": n, "d": d, "seed": seed, "trials": trials,
                                         "passes": len(outcomes[:trials]),
                                         "falsifier": reached}))
    return runs


def reference_patterns(counts: Sequence[int], seed: int) -> list[dict]:
    def check(f: PsdFactorization) -> tuple[Optional[str], object]:
        m = evaluate(f)
        try:
            return None, (int(classify_pattern_d2(m)), val(m))
        except NoPatternMatches:
            return "support fits no pattern", None

    return [{**report, "pattern_counts": dict(sorted(Counter(p for p, _ in outcomes).items())),
             "max_val": max((v for _, v in outcomes), default=None)}
            for outcomes, report in reference_trials(2, 2, counts, seed, check)]


def reference_witness(d: int, counts: Sequence[int], seed: int) -> list[dict]:
    def check(f: PsdFactorization) -> tuple[Optional[str], object]:
        try:
            return None, str(antidiagonal_witness(f))
        except FalsificationError as exc:
            return str(exc), None

    return [{**report, "witness_rows": dict(sorted(Counter(rows).items()))}
            for rows, report in reference_trials(d, d, counts, seed, check)]


def reference_induction(n: int, d: int, counts: Sequence[int], seed: int,
                        family: Optional[CoveringFamily] = None) -> list[dict]:
    family = family or recursive_covering(d)

    def check(f: PsdFactorization) -> tuple[Optional[str], object]:
        rep = check_induction_inequality(f, family)
        return (None if rep.holds else f"val {rep.val_total} > bound {rep.bound}"), \
            rep.val_total

    return [{**report, "family": family.label, "max_val": max(totals, default=None)}
            for totals, report in reference_trials(n, d, counts, seed, check)]


def around_blocks(n: int) -> list[int]:
    """Trial counts 1, block - 1, block, block + 1 and 3 block + 5."""
    size = block_size(n)
    return sorted({1, max(1, size - 1), size, size + 1, 3 * size + 5})


ORACLES = [
    pytest.param(2, 31, lambda t, s: cli.run_pattern_oracle(t, s),
                 lambda c, s: reference_patterns(c, s), id="patterns"),
    pytest.param(2, 31, lambda t, s: cli.run_witness_oracle(2, t, s),
                 lambda c, s: reference_witness(2, c, s), id="witness-d2"),
    pytest.param(3, 31, lambda t, s: cli.run_witness_oracle(3, t, s),
                 lambda c, s: reference_witness(3, c, s), id="witness-d3"),
    pytest.param(4, 31, lambda t, s: cli.run_induction_oracle(4, 2, t, s),
                 lambda c, s: reference_induction(4, 2, c, s), id="induction-n4-d2"),
    # seed 200 reaches the falsifier at trial 93, in the second block, within
    # 3 blocks + 5
    pytest.param(4, 200, lambda t, s: cli.run_induction_oracle(4, 2, t, s, REC2_MINUS_4),
                 lambda c, s: reference_induction(4, 2, c, s, REC2_MINUS_4),
                 id="induction-n4-d2-rec2-minus-4"),
]


@pytest.mark.parametrize("n, seed, blocked, reference", ORACLES)
def test_reports_match_per_trial_loop(n, seed, blocked, reference):
    counts = around_blocks(n)
    for trials, want in zip(counts, reference(counts, seed)):
        assert blocked(trials, seed) == want, trials


def test_width_below_family_width_rejected_before_sampling(monkeypatch):
    monkeypatch.setattr(cli, "sample_block", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="^induction needs n >= d, got n = 2, d = 3$"):
        cli.run_induction_oracle(2, 3, 5)


def test_seeds_past_64_bits_rejected_before_sampling(monkeypatch):
    monkeypatch.setattr(cli, "sample_block", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=r"^seeds 18446744073709551614 \.\. "
                                         r"18446744073709551616 do not fit in 64 bits$"):
        cli.run_trials(2, 2, 3, 2**64 - 2, cli.pattern_check)


def corrupt_one(monkeypatch, n: int, d: int, seed: int,
                entries: Callable[[int], tuple]) -> None:
    """Make ``evaluate_block`` put the largest value of the matrix plus one at
    ``entries(size)`` of the one sampled factorization drawn with this seed,
    in the block path and in the reference alike.  ``witness_block`` hands
    ``evaluate_block`` only the pair it reads per trial, U at the witness row
    a and V at complement(a), and a pair of zero factors may stand in many
    trials; so ``witness_block`` marks the target's trials of its block, and
    the 1 x 1 matrices of their pairs are corrupted at ``entries(1)``."""
    target = sample_atom(n, d, seed)
    original, witness = atoms.evaluate_block, atoms.witness_block
    marked = np.array([], dtype=int)

    def hits(u, v):
        return np.flatnonzero((u == target.U).all(axis=(1, 2, 3))
                              & (v == target.V).all(axis=(1, 2, 3)))

    def corrupted(u, v):
        values = original(u, v)
        for t in (marked if u.shape[1] == 1 else hits(u, v)):
            values[t][entries(u.shape[1])] = values[t].max() + 1.0
        return values

    def marking(u, v):
        nonlocal marked
        marked = hits(u, v)
        return witness(u, v)

    for module in (atoms, cli):
        monkeypatch.setattr(module, "evaluate_block", corrupted)
        monkeypatch.setattr(module, "witness_block", marking)


def corrupt_after_the_first_block(monkeypatch, oracle: str, d: int) -> tuple[int, int, int]:
    """Make trial block + 3 of a run of 3 blocks + 5 from seed 40 fail the
    pattern or the witness check; returns the seed, that trial and the count."""
    seed, trial = 40, block_size(d) + 3
    # a positive intersection-one entry fits no pattern; a positive
    # antidiagonal leaves the witness no zero to find
    entries = ((lambda size: (1, 1)) if oracle == "patterns" else
               (lambda size: (np.arange(size), np.arange(size)[::-1])))
    corrupt_one(monkeypatch, d, d, seed + trial, entries)
    return seed, trial, 3 * block_size(d) + 5


@pytest.mark.parametrize("oracle, d", [("patterns", 2), ("witness", 2), ("witness", 3)])
def test_falsifier_after_the_first_block(monkeypatch, oracle, d):
    seed, trial, trials = corrupt_after_the_first_block(monkeypatch, oracle, d)
    if oracle == "patterns":
        got, (want,) = cli.run_pattern_oracle(trials, seed), reference_patterns([trials], seed)
    else:
        got, (want,) = (cli.run_witness_oracle(d, trials, seed),
                        reference_witness(d, [trials], seed))
    falsifier = got["falsifier"]
    assert got == want
    assert got["passes"] == falsifier["trial"] == trial
    assert (falsifier["seed"], falsifier["direction"]) == (seed + trial, "v-first")
    replay = sample_atom(d, d, falsifier["seed"])
    assert json.dumps(falsifier["factorization"], sort_keys=True) \
        == factorization_to_json(replay)
    if oracle == "patterns":
        assert sum(got["pattern_counts"].values()) == trial
        assert falsifier["reason"] == "support fits no pattern"
    else:
        assert falsifier["reason"].startswith("antidiagonal entry at")


#: The fields of every oracle report, and the summary each oracle adds.
SHARED = {"n", "d", "seed", "trials", "passes", "falsifier"}
SUMMARY = {"patterns": {"pattern_counts", "max_val"}, "antidiagonal": {"witness_rows"},
           "induction": {"family", "max_val"}}

#: No rectangles, so the first atom with val > 0 falsifies: at n = 2 the
#: trials from seed 3 pass twice, and the trial from seed 5 falsifies.
EMPTY_D1 = CoveringFamily(1, (), label="empty-d1")


def printed(capsys, argv: list[str]) -> tuple[int, dict]:
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def falsified_report(capsys, argv: list[str], check: str) -> dict:
    """Run a falsified oracle command and return its report, after checking
    that it has the one shape and, when any trial passed, that its summary
    is the one the same command prints with ``--trials <passes>``."""
    code, got = printed(capsys, argv)
    header = {"command", "check"} if argv[0] == "atom" else {"command"}
    assert code == 1 and got["passes"] == got["falsifier"]["trial"]
    assert set(got) == SHARED | SUMMARY[check] | header
    if got["passes"]:
        code, clean = printed(capsys, argv + ["--trials", str(got["passes"])])
        assert (code, clean["falsifier"]) == (0, None)
        assert all(clean[key] == got[key] for key in SUMMARY[check])
    return got


@pytest.mark.parametrize("check, d", [("patterns", 2), ("antidiagonal", 2),
                                      ("antidiagonal", 3)])
def test_falsified_oracle_summary_covers_the_passing_trials(monkeypatch, capsys, check, d):
    seed, trial, trials = corrupt_after_the_first_block(
        monkeypatch, "patterns" if check == "patterns" else "witness", d)
    got = falsified_report(capsys, ["atom", "sample", "--check", check, "--n", str(d),
                                    "--d", str(d), "--seed", str(seed),
                                    "--trials", str(trials)], check)
    counts = got["pattern_counts" if check == "patterns" else "witness_rows"]
    assert got["passes"] == sum(counts.values()) == trial


@pytest.mark.parametrize("family, n, seed, trials, passes", [
    pytest.param(REC2_MINUS_4, 4, 200, 128, 93, id="rec2-minus-4-second-block"),
    pytest.param(EMPTY_D1, 2, 3, 10, 2, id="empty-d1-two-passes"),
    pytest.param(EMPTY_D1, 2, 5, 10, 0, id="empty-d1-no-pass"),
])
def test_falsified_induction_summary_covers_the_passing_trials(tmp_path, capsys, family, n,
                                                                seed, trials, passes):
    path = tmp_path / "family.json"
    path.write_text(family_to_json(family))
    got = falsified_report(capsys, ["induction", "--n", str(n), "--d", str(family.d),
                                    "--seed", str(seed), "--trials", str(trials),
                                    "--family", str(path)], "induction")
    assert (got["passes"], got["family"]) == (passes, family.label)
    # max_val is null exactly when no trial passed
    assert (got["max_val"] is None) == (passes == 0)


def test_non_atom_after_the_failing_trial_of_its_block_is_not_reached(monkeypatch):
    # a positive intersection-one entry makes trial 30 a non-atom, after the
    # falsifier at trial 29 in the same block: the per-trial loop stops first
    corrupt_one(monkeypatch, 4, 2, 4262, lambda size: (1, 1))
    got = cli.run_induction_oracle(4, 2, 40, 4232, REC2_MINUS_4)
    assert [got] == reference_induction(4, 2, [40], 4232, REC2_MINUS_4)
    assert got["falsifier"]["trial"] == 29
    assert got["falsifier"]["reason"] == "val 7 > bound 5"


def test_non_atom_before_the_failing_trial_of_its_block_exits_2(monkeypatch, tmp_path,
                                                                capsys):
    # trial 28, right before the falsifier at trial 29 in the same block
    corrupt_one(monkeypatch, 4, 2, 4260, lambda size: (1, 1))
    with pytest.raises(ValueError, match="not zero on intersection-one pairs"):
        reference_induction(4, 2, [40], 4232, REC2_MINUS_4)
    family = tmp_path / "family.json"
    family.write_text(family_to_json(REC2_MINUS_4))
    code = cli.main(["induction", "--n", "4", "--d", "2", "--trials", "40", "--seed", "4232",
                     "--family", str(family)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "not zero on intersection-one pairs" in captured.err


@pytest.mark.parametrize("argv", [
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "patterns"],
    ["atom", "sample", "--n", "3", "--d", "3", "--check", "antidiagonal"],
    ["induction", "--n", "4", "--d", "2"],
])
@pytest.mark.parametrize("bad", [["--trials", "0"], ["--trials", "300", "--seed", "-1"],
                                 ["--trials", "-1"]])
def test_error_paths_exit_2(capsys, argv, bad):
    assert cli.main(argv + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
