"""The block-wise oracle runs against a per-trial reference loop.

The reference below samples, evaluates and checks one trial at a time with
the one-trial functions (``sample_atom``, ``evaluate``,
``classify_pattern_d2``, ``antidiagonal_witness``, ``check_induction_inequality``),
stopping at the first reason, as the oracles did before they ran in blocks.
Every report of the block path, falsifier and tallies included, must equal
the reference's, whatever the trial count is against the block size.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Optional

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
from liftcert.covering import check_induction_inequality, recursive_covering

DIRECTIONS = ("u-first", "v-first")


def reference_trials(
    n: int, d: int, trials: int, seed: int,
    check: Callable[[PsdFactorization], Optional[str]],
) -> tuple[int, Optional[dict]]:
    for i in range(trials):
        direction = DIRECTIONS[i % 2]
        f = sample_atom(n, d, "uniform", rng=seed + i, direction=direction)
        reason = check(f)
        if reason is not None:
            return i, {
                "trial": i, "seed": seed + i, "direction": direction, "reason": reason,
                "factorization": json.loads(factorization_to_json(f)),
                "matrix": json.loads(matrix_to_json(evaluate(f))),
            }
    return trials, None


def reference_patterns(trials: int, seed: int) -> dict:
    counts: Counter[int] = Counter()
    max_val = 0

    def check(f: PsdFactorization) -> Optional[str]:
        nonlocal max_val
        m = evaluate(f)
        try:
            pid = classify_pattern_d2(m)
        except NoPatternMatches:
            return "support fits no pattern"
        v = val(m)
        max_val = max(max_val, v)
        if v > 7:
            return f"val = {v} exceeds 7"
        counts[int(pid)] += 1
        return None

    passes, falsifier = reference_trials(2, 2, trials, seed, check)
    report = {"seed": seed, "trials": trials, "passes": passes,
              "pattern_counts": dict(sorted(counts.items())), "falsifier": falsifier}
    if falsifier is None:
        report["max_val"] = max_val
    return report


def reference_witness(d: int, trials: int, seed: int) -> dict:
    rows: Counter[str] = Counter()

    def check(f: PsdFactorization) -> Optional[str]:
        try:
            rows[str(antidiagonal_witness(f))] += 1
        except FalsificationError as exc:
            return str(exc)
        return None

    passes, falsifier = reference_trials(d, d, trials, seed, check)
    report = {"seed": seed, "d": d, "trials": trials, "passes": passes,
              "falsifier": falsifier}
    if falsifier is None:
        report["witness_rows"] = dict(sorted(rows.items()))
    return report


def reference_induction(n: int, d: int, trials: int, seed: int) -> dict:
    family = recursive_covering(d)
    max_val = 0

    def check(f: PsdFactorization) -> Optional[str]:
        nonlocal max_val
        rep = check_induction_inequality(f, family)
        max_val = max(max_val, rep.val_total)
        return None if rep.holds and rep.aggregates_are_atoms else "failed"

    passes, falsifier = reference_trials(n, d, trials, seed, check)
    report = {"seed": seed, "n": n, "d": d, "family": family.label, "trials": trials,
              "passes": passes, "falsifier": falsifier}
    if falsifier is None:
        report["max_val"] = max_val
    return report


def around_blocks(n: int) -> list[int]:
    """Trial counts 1, block - 1, block, block + 1 and 3 block + 5."""
    size = block_size(n)
    return sorted({1, max(1, size - 1), size, size + 1, 3 * size + 5})


ORACLES = [
    pytest.param(2, lambda t, s: cli.run_pattern_oracle(t, s),
                 lambda t, s: reference_patterns(t, s), id="patterns"),
    pytest.param(2, lambda t, s: cli.run_witness_oracle(2, t, s),
                 lambda t, s: reference_witness(2, t, s), id="witness-d2"),
    pytest.param(3, lambda t, s: cli.run_witness_oracle(3, t, s),
                 lambda t, s: reference_witness(3, t, s), id="witness-d3"),
    pytest.param(4, lambda t, s: cli.run_induction_oracle(4, 2, t, s),
                 lambda t, s: reference_induction(4, 2, t, s), id="induction-n4-d2"),
]


@pytest.mark.parametrize("n, blocked, reference", ORACLES)
def test_reports_match_per_trial_loop(n, blocked, reference):
    for trials in around_blocks(n):
        assert blocked(trials, 31) == reference(trials, 31), trials


def corrupt_one(monkeypatch, n: int, d: int, seed: int, direction: str,
                entries: Callable[[int], tuple]) -> None:
    """Make ``evaluate_block`` put the largest value of the matrix plus one at
    ``entries(size)`` of the one sampled factorization drawn with this seed
    and direction, in the block path and in the reference alike."""
    target = sample_atom(n, d, "uniform", rng=seed, direction=direction)
    original = atoms.evaluate_block

    def corrupted(u, v):
        values = original(u, v)
        hit = (u == target.U).all(axis=(1, 2, 3)) & (v == target.V).all(axis=(1, 2, 3))
        for t in np.flatnonzero(hit):
            values[t][entries(u.shape[1])] = values[t].max() + 1.0
        return values

    monkeypatch.setattr(atoms, "evaluate_block", corrupted)
    monkeypatch.setattr(cli, "evaluate_block", corrupted)


@pytest.mark.parametrize("oracle, d", [("patterns", 2), ("witness", 2), ("witness", 3)])
def test_falsifier_after_the_first_block(monkeypatch, oracle, d):
    seed, trial = 40, block_size(d) + 3
    # a positive intersection-one entry fits no pattern; a positive
    # antidiagonal leaves the witness no zero to find
    entries = ((lambda size: (1, 1)) if oracle == "patterns" else
               (lambda size: (np.arange(size), np.arange(size)[::-1])))
    corrupt_one(monkeypatch, d, d, seed + trial, DIRECTIONS[trial % 2], entries)
    trials = 3 * block_size(d) + 5
    if oracle == "patterns":
        got, want = cli.run_pattern_oracle(trials, seed), reference_patterns(trials, seed)
    else:
        got, want = cli.run_witness_oracle(d, trials, seed), reference_witness(d, trials, seed)
    falsifier = got["falsifier"]
    assert got == want
    assert got["passes"] == falsifier["trial"] == trial
    assert (falsifier["seed"], falsifier["direction"]) == (seed + trial, DIRECTIONS[1])
    replay = sample_atom(d, d, "uniform", rng=falsifier["seed"],
                         direction=falsifier["direction"])
    assert json.dumps(falsifier["factorization"], sort_keys=True) \
        == factorization_to_json(replay)
    if oracle == "patterns":
        assert sum(got["pattern_counts"].values()) == trial
        assert falsifier["reason"] == "support fits no pattern"
    else:
        assert falsifier["reason"].startswith("antidiagonal entry at")


@pytest.mark.parametrize("argv", [
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "patterns"],
    ["atom", "sample", "--n", "3", "--d", "3", "--check", "antidiagonal"],
    ["induction", "--n", "4", "--d", "2"],
])
@pytest.mark.parametrize("bad", [["--trials", "0"], ["--trials", "300", "--epsilon", "nan"],
                                 ["--trials", "300", "--epsilon", "1.5"]])
def test_error_paths_exit_2(capsys, argv, bad):
    assert cli.main(argv + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
