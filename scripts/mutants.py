#!/usr/bin/env python3
"""Run the listed mutants of the exact checks and report which ones the tests kill.

Each mutant is one exact text replacement in one module of ``src/liftcert``.
For each, ``src/`` is copied to a temporary directory, the replacement is
applied to the copy, and the mutant's test node ids are run by pytest with
that copy first on the import path.  A mutant is killed when one of its tests
fails.  The tests are first run once on the unchanged code, where they must
pass.  Prints ``killed`` or ``survived`` per mutant; exits 1 if any survived,
and 2 if a snippet does not occur exactly once or a test run cannot be
judged.  Each mutant takes a few seconds, so this stays outside tier-1.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liftcert"


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/liftcert
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("M1", "covering.py", "    bad[1, group[~ok]] = True\n", "",
           ("tests/test_covering.py::TestRevalidation::"
            "test_extra_row_on_a_spare_rectangle_rejected",)),
    Mutant("M2", "covering.py", "ok = ((x | y) >> d == 0) & (x & y == 0)",
           "ok = ((x | y) >> d == 0)",
           ("tests/test_covering.py::TestRevalidation::"
            "test_intersecting_pair_named_as_not_the_maximal_support",)),
    Mutant("M4", "atoms.py", "None if entry == 0 else", "None if entry <= 1e-9 else",
           ("tests/test_atoms.py::TestSampleBlock::"
            "test_any_positive_witnessed_entry_falsifies",)),
    Mutant("M5", "cli.py", "len(parts[2 * n + 1]) // 2 - 1", "len(parts[2 * n + 1]) // 2",
           ("tests/test_cli.py::test_row_list_inside_a_list_renders_as_indent_encoder",)),
    Mutant("M6", "covering.py",
           "        check_maximal_assignments(family, "
           "{a: r for a, r in out.items() if r is not None})\n",
           "        pass\n",
           ("tests/test_cli.py::test_corrupted_matched_certificate_exits_2"
            "[maximal-repeated-index]",)),
    Mutant("M7", "covering.py",
           '            raise ValueError(f"certificate for pattern {int(pid)}: not an injective "\n'
           '                             "matching of its support into the family")\n',
           "            pass\n",
           ("tests/test_cli.py::test_corrupted_matched_certificate_exits_2"
            "[patterns-repeated-index]",)),
    Mutant("M8", "covering.py",
           "and (family._members[0, i, x] & family._members[1, i, y]).all()):", "and True):",
           ("tests/test_cli.py::test_corrupted_matched_certificate_exits_2"
            "[patterns-pair-outside]",)),
    Mutant("B1", "bounds.py",
           "self.rho_upper != self.k**m or self.lift_lower != Fraction(3**self.n, self.rho_upper)",
           "self.rho_upper != self.k**m",
           ("tests/test_bounds.py::TestBoundReport::test_invariants_enforced",)),
    Mutant("B2", "bounds.py",
           "self.rho_upper != self.k**m or self.lift_lower != Fraction(3**self.n, self.rho_upper)",
           "self.lift_lower != Fraction(3**self.n, self.rho_upper)",
           ("tests/test_bounds.py::TestBoundReport::"
            "test_integer_invariants_enforced[rho-not-k-power]",)),
    Mutant("B3", "bounds.py", "1 <= self.k <= 3**self.d - 1", "0 <= self.k <= 3**self.d - 1",
           ("tests/test_bounds.py::TestBoundReport::test_integer_invariants_enforced[k-zero]",)),
    Mutant("B4", "bounds.py", "self.k <= 3**self.d - 1 < 3**self.d", "self.k <= 3**self.d",
           ("tests/test_bounds.py::TestBoundReport::"
            "test_integer_invariants_enforced[k-above-3^d-1]",)),
    Mutant("B5", "bounds.py",
           "    if not 1 <= k <= default_k:\n"
           '        raise ValueError(f"k = {k} outside [1, {default_k}]")\n', "",
           ("tests/test_cli.py::TestBound::test_oversized_k_rejected",)),
    Mutant("B6", "bounds.py", "if digits >= MAX_REPORT_DIGITS", "if digits > MAX_REPORT_DIGITS",
           ("tests/test_bounds.py::TestBoundReport::"
            "test_digit_cap_met_exactly_by_a_power_of_ten",)),
    Mutant("F1", "covering.py",
           "            if type(sides[0]) is not list or type(sides[1]) is not list:\n"
           "                raise TypeError\n", "",
           ("tests/test_covering.py::TestSerialization::"
            "test_family_reader_parses_as_per_string_reference",)),
    Mutant("F2", "covering.py",
           'label = _json_field({"label": "", **obj}, "label", str, "family")',
           'label = obj.get("label", "")',
           ("tests/test_cli.py::test_malformed_family_exits_2_naming_the_field",)),
    Mutant("C1", "covering.py", "type(row[1]) is int and row[1] >= 0", "type(row[1]) is int",
           ("tests/test_covering.py::TestSerialization::test_malformed_certificate_rejected",)),
    Mutant("C2", "covering.py",
           "        if pair in assignment:\n"
           "            raise ValueError(f'certificate field \"assignment\" repeats pair"
           " ({x}, {y})')\n", "",
           ("tests/test_covering.py::TestSerialization::test_malformed_certificate_rejected",)),
    Mutant("C3", "covering.py", "type(row[1]) is int", "isinstance(row[1], int)",
           ("tests/test_covering.py::TestSerialization::test_malformed_certificate_rejected",)),
    Mutant("P1", "atoms.py", " or not math.isfinite(x)", "",
           ("tests/test_atoms.py::TestSerialization::test_malformed_field_named",)),
    Mutant("P2", "atoms.py", "if width > d or any(", "if any(",
           ("tests/test_atoms.py::TestSerialization::test_malformed_field_named",)),
    Mutant("P3", "atoms.py", "len(row) != width\n                or ", "",
           ("tests/test_atoms.py::TestSerialization::test_malformed_field_named",)),
    Mutant("P4", "atoms.py",
           "        if sorted(raw) != labels:\n"
           "            raise ValueError(f'factorization field \"{name}\" needs one key per '\n"
           '                             f"width-{n} string")\n', "",
           ("tests/test_atoms.py::TestSerialization::test_wrong_key_set_rejected",)),
    Mutant("P5", "atoms.py", "0 <= n <= MAX_DENSE_N and", "0 <= n and",
           ("tests/test_atoms.py::TestSerialization::test_malformed_field_named",)),
    Mutant("W1", "atoms.py", "d - 1 - stalled.argmax(axis=1)", "stalled[:, ::-1].argmax(axis=1)",
           ("tests/test_oracle_goldens.py::test_oracle_report[antidiagonal-d3]",)),
    Mutant("W2", "atoms.py", "u[t, rows, None], v[t, ones ^ rows, None]",
           "u[t, ones ^ rows, None], v[t, rows, None]",
           ("tests/test_atoms.py::TestSampleBlock::"
            "test_only_the_entry_at_a_and_its_complement_is_read",)),
    Mutant("L1", "linalg.py", "proper = (rank > 0) & (rank < d)", "proper = rank < d",
           ("tests/test_linalg.py::TestSubspaceOps::test_intersect_of_zero_factors_is_identity",)),
    Mutant("S3", "atoms.py", "_mix64(seeds[:, None])",
           "_mix64(np.repeat(seeds[:1, None], len(seeds), axis=0))",
           ("tests/test_atoms.py::TestSeeding::test_block_matches_one_trial_sampling",)),
    Mutant("S4", "atoms.py", "u_first = (seeds % 2 == 0)", "u_first = (seeds % 2 == 1)",
           ("tests/test_oracle_goldens.py::test_oracle_report[antidiagonal-d3]",)),
    Mutant("S5", "atoms.py", "2 * np.pi * unit[..., 1]", "np.pi * unit[..., 1]",
           ("tests/test_atoms.py::TestDraw::test_normals_are_standard_normal",)),
    Mutant("Φ1", "covering.py", '"b2 d2 c1 a c2 d1 b1"', '"d2 b2 c1 a c2 d1 b1"',
           ("tests/test_covering.py::TestPhiTables::test_tables_validate_as_certificates",)),
    Mutant("V1", "covering.py",
           '            raise ValueError(f"support pair ({missing[0]}, {missing[1]})'
           ' unassigned")\n', "",
           ("tests/test_covering.py::TestCertificateValidation::"
            "test_unassigned_support_pair_rejected",)),
    Mutant("V2", "covering.py",
           "            if not 0 <= i < family.k:\n"
           '                raise ValueError(f"rectangle index {i} outside family of size'
           ' {family.k}")\n', "",
           ("tests/test_covering.py::TestCertificateValidation::"
            "test_index_outside_the_family_rejected",)),
    Mutant("V3", "covering.py", "if x.width != d or y.width != d:", "if False:",
           ("tests/test_covering.py::TestFindCertificate::test_pair_of_another_width_rejected",)),
    Mutant("N1", "cli.py",
           "    if n < d:\n"
           '        raise ValueError(f"induction needs n >= d, got n = {n}, d = {d}")\n', "",
           ("tests/test_oracle_blocks.py::"
            "test_width_below_family_width_rejected_before_sampling",)),
    Mutant("N2", "atoms.py", "(2 * max(n, 0))", "(2 * n)",
           ("tests/test_cli.py::TestAtomSample::"
            "test_negative_width_named_like_every_width_error",)),
    Mutant("R1", "atoms.py", "free = drawn[:, 0]", "free = normals[:, 0]",
           ("tests/test_oracle_goldens.py::test_oracle_report[patterns-200]",)),
    Mutant("D1", "atoms.py", "np.where(cols < dims[", "np.where(cols <= dims[",
           ("tests/test_atoms.py::TestDraw::"
            "test_constrained_rank_is_the_smaller_of_draw_and_space",)),
    Mutant("A1", "covering.py", "out[:, i] = blocks.take(", "out[:, i] = blocks[:1].take(",
           ("tests/test_atoms.py::TestSampleBlock::"
            "test_four_trial_block_checks_as_four_one_trial_blocks",)),
    Mutant("Z1", "bitcore.py", "    return values > 0\n",
           "    return values > 1e-9 * values.max(axis=(-2, -1), keepdims=True)\n",
           ("tests/test_atoms.py::TestEvaluate::test_small_genuine_entry_is_in_the_support",)),
)


def snippet_faults() -> list[str]:
    """Why a listed mutant cannot be applied: its snippet does not occur
    exactly once in its module."""
    faults = []
    for m in MUTANTS:
        count = (PACKAGE / m.module).read_text().count(m.old)
        if count != 1:
            faults.append(f"{m.name}: snippet occurs {count} times in {m.module}")
    return faults


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` with ``src`` first on the import path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def mutant_outcome(m: Mutant) -> int:
    """pytest's exit code for the mutant's tests, run on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "liftcert" / m.module
        path.write_text(path.read_text().replace(m.old, m.new))
        return run_tests(src, m.tests)


def main() -> int:
    faults = snippet_faults()
    if faults:
        print("\n".join(f"error: {fault}" for fault in faults), file=sys.stderr)
        return 2
    if run_tests(ROOT / "src", tuple(t for m in MUTANTS for t in m.tests)) != 0:
        print("error: the mutants' tests fail on the unchanged code", file=sys.stderr)
        return 2
    survived = False
    for m in MUTANTS:
        code = mutant_outcome(m)
        if code not in (0, 1):  # 2-5: interrupted, internal error, usage, no tests
            print(f"error: {m.name}: pytest exited {code}", file=sys.stderr)
            return 2
        survived |= code == 0
        print(f"{m.name}  {m.module:<12} {'survived' if code == 0 else 'killed'}")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
