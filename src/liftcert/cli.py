"""Command-line front end: construction, verification, sampling, reporting.

Every randomized suite is deterministic: trial i samples the atom
``sample_atom(n, d, seed + i)``, whose seed alone names it (an even seed
draws U first, an odd one V), and trials are reported in index order, so
identical configurations produce byte-identical JSON and a falsifier
replays with ``--seed <its seed> --trials 1``.  ``run_trials`` is the one
trial loop: it samples blocks of ``atoms.block_size(n)`` trials (1,024 at
n = 2, 256 at n = 3, 4 at n = 6, 1 from n = 7 on), hands each to a pure
block check returning per-trial reasons and outcomes, stops at the first
failing trial and returns the outcomes before it with the fields every
oracle report shares; a block changes no trial's draws and no report.  Each
oracle adds one summary of the passing trials, falsified or not, so it has
one report shape.  Negative outcomes exit with code 1 and carry a
structured falsifier payload (the offending factorization and its
evaluated matrix); invalid configuration exits 2.  ``main`` parses with
the one parser ``build_parser`` builds per process.

JSON reports are laid out by one ``json.dumps(report, indent=2,
sort_keys=True)`` call in ``_dumps``.  The long row lists (udisj entries,
certificate assignments) are held as columns of integer codes into tables
of JSON texts (bitstring labels, rectangle indices, and distinct values
coded by ``bitcore.value_codes``, as the dense CSV is); wherever a list
sits, its rows are filled in by one gather per column.  A report goes to
stdout joined once, and to an ``--out`` file joined and written in slices
of ``_WRITE_SLICE`` pieces: no report-sized text is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .atoms import (
    PsdFactorization,
    block_size,
    evaluate,
    evaluate_block,
    factorization_to_json,
    pattern_block,
    sample_block,
    witness_block,
)
from .bitcore import (
    matrix_to_csv,
    matrix_to_json,
    support_block,
    udisj,
    val,
    val_block,
    value_codes,
)
from .bounds import bound_report, report_to_json, report_to_text
from .covering import (
    CoveringFamily,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    induction_block,
    maximal_assignments,
    pattern_assignments,
    recursive_covering,
)

OUT_DIR_ENV = "LIFTCERT_OUT_DIR"

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BAD_CONFIG = 2


def run_trials(
    n: int,
    d: int,
    trials: int,
    seed: int,
    check: Callable[[np.ndarray, np.ndarray], tuple[list, list]],
) -> tuple[list, dict]:
    """Trial i checks ``sample_atom(n, d, seed + i)``, in blocks of
    ``block_size(n)`` trials.

    ``check`` maps a block's U and V stacks to per-trial reasons (None for a
    pass) and outcomes.  The run stops at the first reason.  Returns the
    outcomes of the trials before it (the passing ones) and the fields every
    oracle report shares: n, d, seed, trials, passes and the falsifier (the
    trial, its seed and the direction that seed draws, the reason, the
    factorization and its evaluated matrix), None when every trial passed.
    The falsifier's atom is trial 0 of a run from its seed.  Every seed must
    lie in [0, 2^64).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    if seed + trials > 1 << 64:
        raise ValueError(f"seeds {seed} .. {seed + trials - 1} do not fit in 64 bits")
    size, passing, falsifier = block_size(n), [], None
    for start in range(0, trials, size):
        block = range(start, min(start + size, trials))
        u, v = sample_block(n, d, range(seed + block.start, seed + block.stop))
        reasons, outcomes = check(u, v)
        failed = next((j for j, reason in enumerate(reasons) if reason is not None), None)
        passing += outcomes[:failed]
        if failed is not None:
            i = block[failed]
            f = PsdFactorization(n, d, u[failed], v[failed])
            falsifier = {"trial": i, "seed": seed + i,
                         "direction": ("u-first", "v-first")[(seed + i) % 2],
                         "reason": reasons[failed],
                         "factorization": json.loads(factorization_to_json(f)),
                         "matrix": json.loads(matrix_to_json(evaluate(f)))}
            break
    return passing, {"n": n, "d": d, "seed": seed, "trials": trials,
                     "passes": len(passing), "falsifier": falsifier}


def pattern_check(u: np.ndarray, v: np.ndarray) -> tuple[list, list]:
    """Classify each trial of a block against the six width-2 patterns; the
    outcomes are (pattern id, val) pairs, with id 0 for no pattern."""
    support = support_block(evaluate_block(u, v))
    outcomes = list(zip(pattern_block(support).tolist(), val_block(support).tolist()))
    return [None if pid else "support fits no pattern" for pid, _ in outcomes], outcomes


def run_pattern_oracle(trials: int, seed: int = 0) -> dict:
    """Classify sampled width-2 atoms against the six patterns (val <= 7
    follows from the fit: each pattern allows 7 disjoint pairs); reports the
    count per pattern and the largest val over the passing trials."""
    outcomes, report = run_trials(2, 2, trials, seed, pattern_check)
    counts = sorted(Counter(pid for pid, _ in outcomes).items())
    return {**report, "pattern_counts": dict(counts),
            "max_val": max((count for _, count in outcomes), default=None)}


def run_witness_oracle(d: int, trials: int, seed: int = 0) -> dict:
    """Find the antidiagonal zero of each sampled square atom, which must be
    exactly zero; reports the count per witness row of the passing trials."""
    rows, report = run_trials(d, d, trials, seed, witness_block)
    return {**report, "witness_rows": {f"{a:0{d}b}": count
                                       for a, count in sorted(Counter(rows).items())}}


def run_induction_oracle(
    n: int,
    d: int,
    trials: int,
    seed: int = 0,
    family: Optional[CoveringFamily] = None,
) -> dict:
    """Check val(M) <= sum_i val(M_i) over sampled atoms.  Each aggregate
    M_i of an atom vanishes on intersection-one pairs as M does (see
    ``induction_block``), so that needs no check of its own.  Reports the
    family's label and the largest val(M) of the passing trials."""
    if family is None:
        family = recursive_covering(d)
    if family.d != d:
        raise ValueError(f"family width {family.d} does not match d = {d}")
    if n < d:
        raise ValueError(f"induction needs n >= d, got n = {n}, d = {d}")

    def check(u: np.ndarray, v: np.ndarray) -> tuple[list, list]:
        totals, vals = induction_block(evaluate_block(u, v), family)
        reasons = [f"val {total} > bound {bound}" if total > bound else None
                   for total, bound in zip(totals.tolist(), vals.sum(axis=1).tolist())]
        return reasons, totals.tolist()

    totals, report = run_trials(n, d, trials, seed, check)
    return {**report, "family": family.label, "max_val": max(totals, default=None)}


#: ``[[x, y], i]`` and ``[a, b, value]`` rows as indent=2 lays them out at
#: depth 0; each %s slot takes a JSON text.
PAIR_ROW = '[\n  [\n    %s,\n    %s\n  ],\n  %s\n]'
ENTRY_ROW = '[\n  %s,\n  %s,\n  %s\n]'


@dataclass(frozen=True)
class _Rows:
    """A JSON list of rows laid out by ``template``, held as columns: slot j
    of row r is ``texts[codes[r]]`` for the j-th ``(codes, texts)`` column, an
    integer code array and the JSON texts it indexes."""

    template: str
    columns: Sequence[tuple[np.ndarray, Sequence[str]]]


def _labels(width: int) -> list[str]:
    """JSON texts of the width-bit strings, in value (= lex) order."""
    return [f'"{v:0{width}b}"' for v in range(1 << width)]


def _value_column(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Codes of a 1-D value array into the JSON texts of its distinct values
    (``value_codes``: -0.0 and 0.0 keep their texts)."""
    codes, distinct = value_codes(values)
    return codes, [json.dumps(v) for v in distinct]


@functools.lru_cache(maxsize=None)
def _row_layout(template: str, depth: int) -> tuple[str, list[str], str]:
    """A _Rows list's text at ``depth``: its opening, the literal text after
    each slot (after the last slot, the row separator too) and the text that
    replaces that last one after its final row."""
    pad = "\n" + "  " * (depth + 1)
    literals = template.replace("\n", pad).split("%s")
    tails = literals[1:-1] + [literals[-1] + "," + pad + literals[0]]
    return "[" + pad + literals[0], tails, literals[-1] + pad[:-2] + "]"


#: What ``json.dumps`` writes for a row list's stand-in; the group is the
#: indent of the stand-in's one key, one level below the list's own depth.
_STAND_IN = re.compile(r'\{\n( *)"\\u0000": "\\u0000"\n *\}')


def _dumps(obj: object) -> list[str]:
    """Pieces whose join is ``json.dumps(obj, indent=2, sort_keys=True)``.

    That one call lays out the report, with each non-empty _Rows list, at any
    depth in a dict or a list, written as the stand-in ``{"\\u0000": "\\u0000"}``
    and each empty one as ``[]``; any other object json cannot write raises
    TypeError.  The stand-ins are split out of the text, and the lists' cells
    (a slot of a row each) are filled by one gather per column from its texts
    with the slot's tail folded in, built once per table and tail, so no Python
    code runs per row.  The text before each list is folded into its first
    cell and its closing text into its last."""
    lists: list[_Rows] = []

    def stand_in(rows: object) -> object:
        if not isinstance(rows, _Rows):
            raise TypeError(f"Object of type {type(rows).__name__} is not JSON serializable")
        if not len(rows.columns[0][0]):
            return []
        lists.append(rows)
        return {"\0": "\0"}

    parts = _STAND_IN.split(json.dumps(obj, indent=2, sort_keys=True, default=stand_in))
    if len(parts) != 2 * len(lists) + 1:  # no report key is NUL, so no dict equals it
        raise ValueError("a report holds a dict equal to the row-list stand-in")
    sizes = [len(rows.columns[0][0]) * len(rows.columns) for rows in lists]
    cells, folded, end = np.empty(sum(sizes), dtype=object), {}, 0
    for n, (rows, size) in enumerate(zip(lists, sizes)):
        opening, tails, last = _row_layout(rows.template, len(parts[2 * n + 1]) // 2 - 1)
        start, end = end, end + size
        for j, ((codes, texts), tail) in enumerate(zip(rows.columns, tails)):
            if (id(texts), tail) not in folded:
                folded[id(texts), tail] = np.array([t + tail for t in texts], dtype=object)
            cells[start + j:end:len(tails)] = folded[id(texts), tail][codes]
        cells[start] = parts[2 * n] + opening + cells[start]
        cells[end - 1] = cells[end - 1][:-len(tails[-1])] + last
    pieces = cells.tolist()
    pieces.append(parts[-1])
    return pieces


#: Pieces joined per write to an ``--out`` file (about 0.4 MB of udisj
#: text): no report-sized str or bytes is built, and writes stay few.
_WRITE_SLICE = 1 << 14


def _emit(report: str | dict, args: argparse.Namespace) -> None:
    """Write a text report, or a dict laid out by ``_dumps``, to stdout as
    one joined text, or to ``--out`` (a relative path is taken under
    $LIFTCERT_OUT_DIR when set) in slices of ``_WRITE_SLICE`` pieces, with
    ``Path.write_text``'s mode and encoding: the file is truncated, and a
    link is written through."""
    if isinstance(report, str):
        pieces = [report if report.endswith("\n") else report + "\n"]
    else:
        pieces = _dumps(report)
        pieces.append("\n")
    if args.out is None:
        # one write: a StringIO stdout keeps that str without a copy
        sys.stdout.write("".join(pieces))
        return
    target = Path(args.out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not target.is_absolute():
        target = Path(base) / target
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as out:
        for start in range(0, len(pieces), _WRITE_SLICE):
            out.write("".join(pieces[start:start + _WRITE_SLICE]))


def _cmd_udisj(args: argparse.Namespace) -> int:
    m = udisj(args.n)
    v = val(m)
    if args.format == "csv":
        _emit(matrix_to_csv(m), args)
    elif args.format == "text":
        _emit(matrix_to_csv(m) + f"val = {v} (expected 3^{args.n} = {3 ** args.n})\n",
              args)
    else:
        r, c = np.nonzero(m.support())
        labels = _labels(m.n)
        entries = _Rows(ENTRY_ROW, [(r, labels), (c, labels),
                                    _value_column(m.values[r, c])])
        _emit({"command": "udisj", "n": args.n, "val": v, "expected_val": 3**args.n,
               "matrix": {"entries": entries, "n": m.n}}, args)
    return EXIT_OK if v == 3**args.n else EXIT_FALSIFIED


def _cmd_covering_build(args: argparse.Namespace) -> int:
    if args.explicit_d2 and args.d != 2:
        raise ValueError(f"--explicit-d2 builds a width-2 family, not d = {args.d}")
    family = explicit_covering_d2() if args.explicit_d2 else recursive_covering(args.d)
    _emit(family_to_json(family), args)
    return EXIT_OK


def _cmd_covering_verify(args: argparse.Namespace) -> int:
    family = family_from_json(Path(args.family).read_text())
    d, k = family.d, family.k
    if args.mode == "maximal":
        certs = {f"{a:0{d}b}": rows for a, rows in maximal_assignments(family).items()}
        failures = [{"alpha": alpha, "support_size": 3**d - 1, "k": k}
                    for alpha, rows in certs.items() if rows is None]
    else:
        certs = {str(int(pid)): rows for pid, rows in pattern_assignments(family).items()}
        failures = [{"pattern": int(pid), "k": k}
                    for pid, rows in certs.items() if rows is None]
    labels, indices = _labels(d), [str(i) for i in range(k)]
    for key, rows in certs.items():
        if rows is not None:
            columns = [(rows[:, 0], labels), (rows[:, 1], labels), (rows[:, 2], indices)]
            certs[key] = {"assignment": _Rows(PAIR_ROW, columns)}
    _emit({"command": "covering-verify", "mode": args.mode, "d": d, "k": k,
           "label": family.label, "certificates": certs, "failures": failures,
           "passed": not failures}, args)
    return EXIT_FALSIFIED if failures else EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    """``atom sample --check patterns|antidiagonal`` and ``induction``, the one
    entry point of each oracle; ``induction`` reports under its own header."""
    if args.check == "patterns":
        if (args.n, args.d) != (2, 2):
            raise ValueError("pattern classification is defined for n = d = 2")
        result = run_pattern_oracle(args.trials, args.seed)
    elif args.check == "antidiagonal":
        if args.n != args.d:
            raise ValueError("the antidiagonal witness needs n = d")
        result = run_witness_oracle(args.d, args.trials, args.seed)
    else:
        family = family_from_json(Path(args.family).read_text()) if args.family else None
        result = run_induction_oracle(args.n, args.d, args.trials, args.seed, family)
    header = ({"command": "induction"} if args.command == "induction" else
              {"command": "atom-sample", "check": args.check})
    _emit({**header, **result}, args)
    return EXIT_OK if result["falsifier"] is None else EXIT_FALSIFIED


def _cmd_bound(args: argparse.Namespace) -> int:
    report = bound_report(args.n, args.d, args.k)
    if args.format == "text":
        _emit(report_to_text(report), args)
    else:
        _emit(json.loads(report_to_json(report)), args)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="liftcert",
        description="Construct and certify covering-based lift lower bounds "
        "for the unique-disjointness matrix.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    oracle = argparse.ArgumentParser(add_help=False, parents=[out])
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--d", type=int, required=True)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--trials", type=int, default=1, help="at least 1")

    p = sub.add_parser("udisj", parents=[out], help="emit UDISJ(n) and report val = 3^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(handler=_cmd_udisj)

    cov = sub.add_parser("covering", help="build or verify rectangle families")
    cov_sub = cov.add_subparsers(dest="subcommand", required=True)
    p = cov_sub.add_parser("build", parents=[out], help="emit a covering family as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--explicit-d2", action="store_true",
                   help="emit the 7-rectangle width-2 family instead")
    p.set_defaults(handler=_cmd_covering_build)
    p = cov_sub.add_parser("verify", parents=[out],
                           help="certify a family by exact matchings")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=["maximal", "patterns-d2"], default="maximal")
    p.set_defaults(handler=_cmd_covering_verify)

    atom = sub.add_parser("atom", help="randomized oracles over sampled atoms")
    atom_sub = atom.add_subparsers(dest="subcommand", required=True)
    p = atom_sub.add_parser("sample", parents=[oracle],
                            help="sample atoms and run a check")
    p.add_argument("--check", choices=["antidiagonal", "patterns"], default="patterns")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("bound", parents=[out], help="emit the bound report for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("induction", parents=[oracle],
                       help="block-induction inequality over samples")
    p.add_argument("--family", help="family JSON (defaults to the recursive family)")
    p.set_defaults(handler=_cmd_oracle, check="induction")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
