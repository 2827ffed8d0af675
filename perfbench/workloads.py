"""The four benchmark workloads: inputs made from a seed, the CLI job, checks.

A workload's set-up writes every input file the job needs into a work
directory and returns a ``Plan``.  ``Plan.calls(config)`` lists the CLI
invocations of one job; ``config`` numbers distinct job inputs, so a run can
repeat one configuration (to test determinism) or cycle through fresh ones
(to average over inputs).  Each ``Call`` carries the exit code it must
return and a check that raises ``CheckFailed`` when the report it produced
is wrong.

The program is reached only through ``liftcert.cli.main`` for the job and
through the library's public functions for set-up and checking; module
attributes are looked up at call time so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from liftcert import bitcore, covering

#: Trial seeds of one workload seed occupy [seed * SEED_STRIDE, +SEED_STRIDE).
SEED_STRIDE = 1_000_000


class CheckFailed(Exception):
    """A report, file or exit code did not match what the program must produce."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the exit code it must return and its report check."""

    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], None]
    out: Optional[Path] = None  # the report goes to this file instead of stdout


@dataclass(frozen=True)
class Plan:
    """What set-up produced: the job's calls and its item count."""

    calls: Callable[[int], list[Call]]
    items: int  # work items in one job (trials, matching instances, entries)
    item: str  # what one item is
    cycles: bool  # True: config k gives fresh inputs; False: every config is the same
    traced_jobs: int = 1  # jobs in a traced pass (enough trials for a p99)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int, bool], Plan]


# --- oracle checks ----------------------------------------------------------


def check_oracle(trials: int, text: str) -> None:
    report = json.loads(text)
    expect(report["falsifier"] is None, "oracle reported a falsifier")
    expect(report["trials"] == trials, f"trials {report['trials']} != {trials}")
    expect(report["passes"] == trials, f"passes {report['passes']} != {trials}")


def _oracle_small(work: Path, seed: int, smoke: bool) -> Plan:
    trials = 10 if smoke else 100
    base = seed * SEED_STRIDE

    def calls(config: int) -> list[Call]:
        common = ("--trials", str(trials), "--seed", str(base + config * trials))

        def check(text: str) -> None:
            check_oracle(trials, text)

        return [
            Call(("atom", "sample", "--check", "patterns", "--n", "2", "--d", "2")
                 + common, 0, check),
            Call(("atom", "sample", "--check", "antidiagonal", "--n", "3", "--d", "3")
                 + common, 0, check),
        ]

    return Plan(calls, items=2 * trials, item="oracle trial", cycles=True,
                traced_jobs=1 if smoke else 5)


def _induction_n6(work: Path, seed: int, smoke: bool) -> Plan:
    n, d, trials = (4, 3, 3) if smoke else (6, 3, 4)
    family = work / f"recursive-d{d}.json"
    family.write_text(covering.family_to_json(covering.recursive_covering(d)))
    base = seed * SEED_STRIDE

    def calls(config: int) -> list[Call]:
        def check(text: str) -> None:
            check_oracle(trials, text)
            report = json.loads(text)
            expect((report["n"], report["d"]) == (n, d), "wrong (n, d) in report")
            expect(report["family"] == f"recursive-d{d}", "wrong family label")

        argv = ("induction", "--n", str(n), "--d", str(d), "--trials", str(trials),
                "--seed", str(base + config * trials), "--family", str(family))
        return [Call(argv, 0, check)]

    return Plan(calls, items=trials, item="oracle trial", cycles=True,
                traced_jobs=1 if smoke else 3)


# --- covering checks --------------------------------------------------------


def check_build(expected: str, text: str) -> None:
    expect(text == expected + "\n", "built family differs from the library's")


def check_maximal(family: covering.CoveringFamily, text: str) -> None:
    """Passed report whose every certificate re-validates against its support."""
    report = json.loads(text)
    d = family.d
    expect(report["passed"] is True and report["failures"] == [],
           f"recursive d = {d} family not certified")
    certs = report["certificates"]
    expect(sorted(certs) == [str(a) for a in bitcore.all_strings(d)],
           "certificates do not cover every maximal support")
    for alpha, cert_obj in certs.items():
        cert = covering.certificate_from_json(json.dumps(cert_obj), family)
        support = covering.maximal_support(d, bitcore.BitString.from_text(alpha))
        cert.validate_against(family, support=support)
        expect(set(cert.assignment) == support, f"certificate {alpha} assigns extra pairs")


def check_deficient(family: covering.CoveringFamily, text: str) -> None:
    report = json.loads(text)
    d = family.d
    expect(report["passed"] is False, "deficient family passed")
    expect(len(report["failures"]) == 2**d, f"{len(report['failures'])} != {2**d} failures")
    expect(all(f["k"] == family.k for f in report["failures"]), "wrong k in failures")
    expect(all(c is None for c in report["certificates"].values()),
           "deficient family produced a certificate")


def _cover_maximal(work: Path, seed: int, smoke: bool) -> Plan:
    dims, deficient_d = ((2, 3), 3) if smoke else ((4, 5, 6), 5)
    built = {d: covering.family_to_json(covering.recursive_covering(d)) for d in dims}
    families = {d: covering.family_from_json(text) for d, text in built.items()}
    full = covering.recursive_covering(deficient_d)
    drop = random.Random(seed).randrange(full.k)
    deficient = covering.CoveringFamily(
        deficient_d,
        full.rectangles[:drop] + full.rectangles[drop + 1:],
        label=f"recursive-d{deficient_d}-minus-{drop}",
    )
    deficient_path = work / "deficient.json"
    deficient_path.write_text(covering.family_to_json(deficient))
    deficient = covering.family_from_json(deficient_path.read_text())

    def calls(config: int) -> list[Call]:
        out = []
        for d in dims:
            path = work / f"recursive-d{d}.json"
            fam = families[d]
            out.append(Call(("covering", "build", "--d", str(d), "--out", str(path)),
                            0, lambda text, d=d: check_build(built[d], text), out=path))
            out.append(Call(("covering", "verify", "--family", str(path),
                             "--mode", "maximal"),
                            0, lambda text, fam=fam: check_maximal(fam, text)))
        out.append(Call(("covering", "verify", "--family", str(deficient_path),
                         "--mode", "maximal"),
                        1, lambda text: check_deficient(deficient, text)))
        return out

    instances = sum(2**d for d in dims) + 2**deficient_d
    return Plan(calls, items=instances, item="matching instance", cycles=False)


# --- udisj checks -----------------------------------------------------------


def _udisj_entry(a: int, b: int) -> int:
    k = (a & b).bit_count()
    return (1 - k) ** 2


def check_udisj_json(n: int, text: str) -> None:
    report = json.loads(text)
    expect(report["val"] == 3**n == report["expected_val"], "val != 3^n")
    matrix = report["matrix"]
    expect(matrix["n"] == n, "wrong matrix width")
    entries = matrix["entries"]
    expect(len(entries) == 4**n - n * 3 ** (n - 1), "wrong number of entries")
    for a, b, v in entries:
        ai, bi = int(a, 2), int(b, 2)
        expect(len(a) == len(b) == n and (ai & bi).bit_count() != 1,
               f"entry ({a}, {b}) should be absent")
        expect(v == _udisj_entry(ai, bi), f"wrong value at ({a}, {b})")


def check_udisj_csv(n: int, text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    labels = [format(v, f"0{n}b") for v in range(2**n)]
    expect(rows[0] == [""] + labels, "wrong CSV header")
    expect(len(rows) == 2**n + 1, "wrong number of CSV rows")
    positive_disjoint = 0
    for ai, row in enumerate(rows[1:]):
        expect(row[0] == labels[ai], f"wrong row label {row[0]}")
        for bi, cell in enumerate(row[1:]):
            expected = _udisj_entry(ai, bi) if (ai & bi).bit_count() != 1 else 0
            expect(float(cell) == expected, f"wrong value at row {ai}, column {bi}")
            positive_disjoint += ai & bi == 0 and expected > 0
    expect(positive_disjoint == 3**n, "CSV val != 3^n")


def _udisj_n9(work: Path, seed: int, smoke: bool) -> Plan:
    n = 4 if smoke else 9
    json_path = work / f"udisj-seed{seed}.json"
    csv_path = work / f"udisj-seed{seed}.csv"

    def calls(config: int) -> list[Call]:
        return [
            Call(("udisj", "--n", str(n), "--out", str(json_path)), 0,
                 lambda text: check_udisj_json(n, text), out=json_path),
            Call(("udisj", "--n", str(n), "--format", "csv", "--out", str(csv_path)), 0,
                 lambda text: check_udisj_csv(n, text), out=csv_path),
        ]

    entries = (4**n - n * 3 ** (n - 1)) + 4**n
    return Plan(calls, items=entries, item="matrix entry written", cycles=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-small",
            "Many tiny atoms mirror acceptance criteria 4-5, the tightest gate: "
            "sample_atom with linalg is about 3/4 of the time and covering is idle.",
            _oracle_small,
        ),
        Workload(
            "induction-n6",
            "Large atoms need about 23 partner kernels per constrained matrix and a "
            "4096-entry evaluate, so batching that wins only at n = 6 splits from "
            "oracle-small.",
            _induction_n6,
        ),
        Workload(
            "cover-maximal",
            "The matching's adjacency scan is over 95% of the time and linalg/atoms "
            "are idle; the deficient family keeps the failing-augmentation path "
            "measured.",
            _cover_maximal,
        ),
        Workload(
            "udisj-n9",
            "Only here do bitcore construction and cli serialization dominate and "
            "memory is large, guarding the dense-array migration against slower "
            "output or more memory.",
            _udisj_n9,
        ),
    )
}
