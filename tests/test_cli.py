"""Command-line surface: exit codes, determinism, round trips."""

from __future__ import annotations

import hashlib
import inspect
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import atoms, bitcore, cli, covering
from liftcert.bitcore import SupportMatrix, udisj
from liftcert.cli import ENTRY_ROW, PAIR_ROW, _dumps, _Rows, _value_column, build_parser, main
from liftcert.covering import (
    MAX_COVER_D,
    CoveringCertificate,
    CoveringFamily,
    Rectangle,
    certificate_from_json,
    explicit_covering_d2,
    family_from_json,
    family_to_json,
    recursive_covering,
)


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_error(capsys, *argv: str) -> tuple[int, str]:
    """Exit code and stderr of an invocation that prints no report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestUdisj:
    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "udisj", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["val"] == 27 == obj["expected_val"]
        assert len(obj["matrix"]["entries"]) > 0

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "udisj", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == ",0,1"

    def test_invalid_n_exits_2(self, capsys):
        assert run_cli(capsys, "udisj", "--n", "0")[0] == 2

    def test_val_short_of_3_to_the_n_exits_1(self, capsys, monkeypatch):
        # the report checks its own val: one disjoint entry zeroed leaves 26
        values = udisj(3).values.copy()
        values[0b000, 0b110] = 0
        monkeypatch.setattr(cli, "udisj", lambda n: SupportMatrix(n, values))
        code, out = run_cli(capsys, "udisj", "--n", "3", "--format", "text")
        assert code == 1
        assert out.endswith("\nval = 26 (expected 3^3 = 27)\n")


class TestCoveringCommands:
    def test_build_and_verify_recursive(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        code, _ = run_cli(capsys, "covering", "build", "--d", "3",
                          "--out", str(fam_file))
        assert code == 0
        assert family_from_json(fam_file.read_text()) == recursive_covering(3)

        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file))
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] and len(obj["certificates"]) == 8
        for cert_obj in obj["certificates"].values():
            assert len(cert_obj["assignment"]) == 26

    def test_emitted_certificates_revalidate(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        run_cli(capsys, "covering", "build", "--d", "2", "--out", str(fam_file))
        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file))
        assert code == 0
        fam = family_from_json(fam_file.read_text())
        for cert_obj in json.loads(out)["certificates"].values():
            certificate_from_json(json.dumps(cert_obj), fam)

    def test_explicit_d2_fails_maximal_with_pigeonhole_report(self, tmp_path, capsys):
        fam_file = tmp_path / "exp.json"
        run_cli(capsys, "covering", "build", "--d", "2", "--explicit-d2",
                "--out", str(fam_file))
        assert family_from_json(fam_file.read_text()) == explicit_covering_d2()
        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file),
                            "--mode", "maximal")
        assert code == 1
        obj = json.loads(out)
        assert not obj["passed"]
        assert all(f["support_size"] == 8 and f["k"] == 7 for f in obj["failures"])

    @pytest.mark.parametrize("d", ["1", "5"])
    def test_explicit_d2_at_other_width_exits_2_naming_d(self, capsys, d):
        code, err = run_cli_error(capsys, "covering", "build", "--d", d, "--explicit-d2")
        assert code == 2 and f"d = {d}" in err

    def test_explicit_d2_passes_patterns(self, tmp_path, capsys):
        fam_file = tmp_path / "exp.json"
        run_cli(capsys, "covering", "build", "--d", "2", "--explicit-d2",
                "--out", str(fam_file))
        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file),
                            "--mode", "patterns-d2")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_missing_family_file_exits_2(self, capsys):
        assert run_cli(capsys, "covering", "verify",
                       "--family", "/nonexistent.json")[0] == 2

    def test_width_above_cap_exits_2(self, tmp_path, capsys):
        d = MAX_COVER_D + 1
        zero = "0" * d
        fam_file = tmp_path / "wide.json"
        fam_file.write_text(family_to_json(
            CoveringFamily(d, (Rectangle.from_text(d, [zero], [zero]),), label="wide")
        ))
        code, err = run_cli_error(capsys, "covering", "verify", "--family", str(fam_file))
        assert code == 2 and f"outside [1, {MAX_COVER_D}]" in err


    def test_relabelled_recursive_family_reports_its_label(self, tmp_path, capsys,
                                                           monkeypatch):
        def refuse(self):
            raise AssertionError("a BitString-keyed certificate was built")

        # the constructive path builds no CoveringCertificate at all
        monkeypatch.setattr(CoveringCertificate, "__post_init__", refuse)
        fam_file = tmp_path / "fam.json"
        family = CoveringFamily(3, recursive_covering(3).rectangles, label="my-family")
        fam_file.write_text(family_to_json(family))
        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file))
        obj = json.loads(out)
        assert code == 0 and obj["passed"] and obj["label"] == "my-family"
        assert len(obj["certificates"]) == 8

    def test_patterns_mode_builds_no_certificate_object(self, tmp_path, capsys,
                                                         monkeypatch):
        def refuse(self):
            raise AssertionError("a BitString-keyed certificate was built")

        monkeypatch.setattr(CoveringCertificate, "__post_init__", refuse)
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(family_to_json(explicit_covering_d2()))
        code, out = run_cli(capsys, "covering", "verify", "--family", str(fam_file),
                            "--mode", "patterns-d2")
        obj = json.loads(out)
        assert code == 0 and obj["passed"] and len(obj["certificates"]) == 6

    def test_failed_revalidation_exits_2(self, tmp_path, capsys, monkeypatch):
        def wrong_index(d):
            rows = original(d).copy()
            rows[0, 0, 2] = rows[0, 1, 2]
            return rows

        original = covering.recursive_certificates
        monkeypatch.setattr(covering, "recursive_certificates", wrong_index)
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(family_to_json(recursive_covering(2)))
        code, err = run_cli_error(capsys, "covering", "verify", "--family", str(fam_file))
        assert code == 2 and "rectangle indices not distinct" in err


#: Corruptions of a matched certificate's (x, y, i) rows, each rejected with
#: its reason as the maximal check names it.
MATCH_CORRUPTIONS = {
    "repeated-index": (lambda rows: rows.__setitem__((0, 2), rows[1, 2]),
                       "rectangle indices not distinct"),
    "pair-outside": (lambda rows: rows.__setitem__(([0, 1], 2), rows[[1, 0], 2]),
                     "a pair lies outside its rectangle"),
}


@pytest.mark.parametrize("mode, corruption", [
    ("maximal", "repeated-index"), ("maximal", "pair-outside"),
    ("patterns-d2", "repeated-index"), ("patterns-d2", "pair-outside"),
], ids=["maximal-repeated-index", "maximal-pair-outside", "patterns-repeated-index",
        "patterns-pair-outside"])
def test_corrupted_matched_certificate_exits_2(tmp_path, capsys, monkeypatch, mode,
                                               corruption):
    def corrupted(keys, family):
        rows = match(keys, family)
        if rows is not None:
            corrupt(rows)
        return rows

    match, (corrupt, reason) = covering._match, MATCH_CORRUPTIONS[corruption]
    monkeypatch.setattr(covering, "_match", corrupted)
    if mode == "maximal":  # a permuted recursive family: matched, not constructed
        rectangles = recursive_covering(3).rectangles
        family = CoveringFamily(3, [rectangles[i] for i in
                                    np.random.default_rng(1).permutation(len(rectangles))])
    else:
        family = explicit_covering_d2()
    fam_file = tmp_path / "fam.json"
    fam_file.write_text(family_to_json(family))
    code, err = run_cli_error(capsys, "covering", "verify", "--family", str(fam_file),
                              "--mode", mode)
    assert code == 2
    if mode == "maximal":
        assert f"certificate for alpha = 000: {reason}" in err
    else:
        assert "certificate for pattern " in err


def text_column(items: list) -> tuple[np.ndarray, list[str]]:
    """Codes of items into their distinct JSON texts, in first-seen order."""
    texts = list(dict.fromkeys(json.dumps(x) for x in items))
    return np.array([texts.index(json.dumps(x)) for x in items], dtype=np.int64), texts


def row_columns(template: str, rows: list[tuple]) -> _Rows:
    """Row tuples in the column form, each slot coded by its JSON text."""
    return _Rows(template, [text_column([row[j] for row in rows])
                            for j in range(template.count("%s"))])


def both_layouts(failures: list) -> list[tuple[dict, dict]]:
    """A certificates report and an entries report, each with its row lists as
    _Rows and again with plain lists."""
    cert_rows = [("00", "01", 3), ("01", "00", 12), ("10", "01", 0)]
    entries = [("0", "0", 1), ("0", "1", 1), ("1", "0", 2.5), ("1", "1", 0.1)]

    def certificates(rows):
        return {
            "command": "covering-verify", "d": 2, "label": 'a "quoted" \u00e9 label',
            "failures": failures, "passed": not failures, "empty": {},
            "certificates": {
                "00": {"assignment": rows(PAIR_ROW, cert_rows, lambda x, y, i: [[x, y], i])},
                "01": None,
                "11": {"assignment": rows(PAIR_ROW, [], None)},
            },
        }

    def matrix(rows):
        return {"command": "udisj", "failures": failures, "empty": {},
                "matrix": {"entries": rows(ENTRY_ROW, entries, lambda a, b, v: [a, b, v]),
                           "n": 1}}

    return [(report(lambda template, rows, _: row_columns(template, rows)),
             report(lambda _, rows, shape: [shape(*row) for row in rows]))
            for report in (certificates, matrix)]


@pytest.mark.parametrize("failures", [
    [], [{"alpha": "01", "k": 8, "support_size": 8}, {"pattern": 3, "k": 7}],
], ids=["no-failures", "failures"])
def test_row_renderer_matches_indent_encoder(failures):
    for rows, plain in both_layouts(failures):
        assert "".join(_dumps(rows)) == json.dumps(plain, indent=2, sort_keys=True)


def cert(x: list, y: list, i: list, labels: list, indices: list) -> dict:
    """A certificate object whose rows are coded into the given tables."""
    columns = [(np.array(x), labels), (np.array(y), labels), (np.array(i), indices)]
    return {"assignment": _Rows(PAIR_ROW, columns)}


def test_shared_tables_fold_once_per_tail():
    """Row lists sharing their text tables at one depth, among None and plain
    values, render as the indent=2 encoder."""
    labels, indices = ['"0"', '"1"'], ["0", "1", "2"]
    obj = {"a": cert([0, 1], [1, 0], [2, 0], labels, indices), "b": None,
           "c": cert([0], [0], [1], labels, indices), "d": 7,
           "e": cert([1], [0], [0], labels, indices)}
    plain = {"a": {"assignment": [[["0", "1"], 2], [["1", "0"], 0]]}, "b": None,
             "c": {"assignment": [[["0", "0"], 1]]}, "d": 7,
             "e": {"assignment": [[["1", "0"], 0]]}}
    assert "".join(_dumps(obj)) == json.dumps(plain, indent=2, sort_keys=True)


def test_row_lists_of_two_layouts_render_as_indent_encoder():
    """Two templates, two depths and two sets of text tables in one report."""
    labels, indices = ['"0"', '"1"'], ["0", "1", "2"]
    columns = [(np.array([1]), labels), (np.array([0]), labels), (np.array([2]), indices)]
    obj = {"a": cert([0, 1], [1, 0], [2, 0], labels, indices),
           "b": {"deeper": cert([0], [1], [2], list(labels), indices)},
           "c": _Rows(ENTRY_ROW, columns)}
    plain = {"a": {"assignment": [[["0", "1"], 2], [["1", "0"], 0]]},
             "b": {"deeper": {"assignment": [[["0", "1"], 2]]}},
             "c": [["1", "0", 2]]}
    assert "".join(_dumps(obj)) == json.dumps(plain, indent=2, sort_keys=True)


def test_row_list_inside_a_list_renders_as_indent_encoder():
    labels, indices = ['"0"', '"1"'], ["0", "1", "2"]
    obj = {"failures": [{"hall": cert([0, 1], [1, 0], [2, 0], labels, indices)}, None,
                        [cert([1], [0], [1], labels, indices)["assignment"]]]}
    plain = {"failures": [{"hall": {"assignment": [[["0", "1"], 2], [["1", "0"], 0]]}}, None,
                          [[[["1", "0"], 1]]]]}
    assert "".join(_dumps(obj)) == json.dumps(plain, indent=2, sort_keys=True)


@pytest.mark.parametrize("value, error, match", [
    ({"\0": "\0"}, ValueError, "dict equal to the row-list stand-in"),
    (np.int64(3), TypeError, "Object of type int64 is not JSON serializable"),
], ids=["stand-in-dict", "numpy-integer"])
def test_stand_in_dict_and_unknown_objects_rejected(value, error, match):
    rows = cert([0], [1], [2], ['"0"', '"1"'], ["0", "1", "2"])
    with pytest.raises(error, match=match):
        _dumps({"a": rows, "b": value})


@pytest.mark.parametrize("command", [
    "covering verify --family {family}",
    "induction --n 3 --d 3 --trials 3 --family {family}",
], ids=["covering-verify", "induction"])
def test_nul_labelled_family_reports_as_indent_encoder(tmp_path, capsys, command):
    fam_file = tmp_path / "nul.json"
    fam_file.write_text(family_to_json(
        CoveringFamily(3, recursive_covering(3).rectangles, label="\0")))
    code, out = run_cli(capsys, *command.format(family=fam_file).split())
    report = json.loads(out)
    assert code == 0 and "\0" in (report.get("label"), report.get("family"))
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def assert_rows_render(template: str, rows: list[tuple], dtype: str, keys: list[str]):
    """Rows (label, label, value), with the values coded as ``udisj`` codes
    them and nested in one dict per key, render as the indent=2 encoder."""
    x, y, v = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    values = np.array(v, dtype=dtype)
    obj = _Rows(template, [text_column(x), text_column(y), _value_column(values)])
    if template == PAIR_ROW:
        plain = [[[a, b], c] for a, b, c in zip(x, y, values.tolist())]
    else:
        plain = [[a, b, c] for a, b, c in zip(x, y, values.tolist())]
    for depth, key in enumerate(keys):
        obj, plain = {key: obj, key + "~": depth}, {key: plain, key + "~": depth}
    assert "".join(_dumps(obj)) == json.dumps(plain, indent=2, sort_keys=True)


@pytest.mark.parametrize("template", [PAIR_ROW, ENTRY_ROW], ids=["pair", "entry"])
@pytest.mark.parametrize("rows, dtype", [
    ([("a", "b", 5e-324), ("a", "a", 1e-300), ("b", "a", -0.0), ("b", "b", 0.0),
      ("\u00e9", '"', -0.0), ("a", "b", 5e-324)], "float64"),
    ([("0", "1", 7)], "int64"),
    ([("0", "0", 1), ("0", "0", 1), ("1", "0", 81), ("0", "0", 1)], "int64"),
    ([], "int64"),
    ([], "float64"),
], ids=["tiny-floats-and-signed-zeros", "single-row", "repeated", "empty-int", "empty-float"])
@pytest.mark.parametrize("keys", [[], ["entries"], ["entries", "matrix", "a b"]],
                         ids=["depth0", "depth1", "depth3"])
def test_row_columns_render_as_indent_encoder(template, rows, dtype, keys):
    assert_rows_render(template, rows, dtype, keys)


ROW_VALUES = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": st.one_of(st.sampled_from([5e-324, 1e-300, -0.0, 0.0]), st.floats()),
}


def draw_document(data, labels: list, values: list) -> tuple[dict, dict]:
    """A dict of None, integers, row lists (empty or not, each of a drawn
    template, coded into the shared label and value tables or into copies of
    them) and, down to depth 3, dicts and lists of the same; and the same dict
    with the row lists written out."""
    label_texts, value_texts = [json.dumps(x) for x in labels], [json.dumps(v) for v in values]

    def rows() -> tuple[_Rows, list]:
        template = data.draw(st.sampled_from([PAIR_ROW, ENTRY_ROW]))
        shape = ((lambda a, b, c: [[a, b], c]) if template == PAIR_ROW else
                 (lambda a, b, c: [a, b, c]))
        codes = data.draw(st.lists(st.tuples(
            st.integers(0, len(labels) - 1), st.integers(0, len(labels) - 1),
            st.integers(0, len(values) - 1)), max_size=6))
        x, y, v = (np.array(column, dtype=np.int64).reshape(-1)
                   for column in (zip(*codes) if codes else ([], [], [])))
        tables = ((label_texts, value_texts) if data.draw(st.booleans()) else
                  (list(label_texts), list(value_texts)))
        obj = _Rows(template, [(x, tables[0]), (y, tables[0]), (v, tables[1])])
        return obj, [shape(labels[a], labels[b], values[c]) for a, b, c in codes]

    def draw(depth: int, kind: str) -> tuple[object, object]:
        if kind == "rows":
            return rows()
        kinds = ["none", "int", "rows"] + ["dict", "list"] * (depth < 3)
        if kind == "dict":
            keys = data.draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
            items = {key: draw(depth + 1, data.draw(st.sampled_from(kinds))) for key in keys}
            return ({key: obj for key, (obj, _) in items.items()},
                    {key: plain for key, (_, plain) in items.items()})
        if kind == "list":
            items = [draw(depth + 1, data.draw(st.sampled_from(kinds)))
                     for _ in range(data.draw(st.integers(0, 3)))]
            return [obj for obj, _ in items], [plain for _, plain in items]
        value = None if kind == "none" else data.draw(st.integers(-9, 9))
        return value, value

    return draw(0, "dict")


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([PAIR_ROW, ENTRY_ROW]), st.sampled_from(sorted(ROW_VALUES)),
       st.lists(st.text(max_size=3), max_size=4))
def test_random_row_lists_render_as_indent_encoder(data, template, dtype, keys):
    labels = data.draw(st.lists(st.text(max_size=3), min_size=1, max_size=4))
    values = data.draw(st.lists(ROW_VALUES[dtype], min_size=1, max_size=5))
    rows = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                                        st.sampled_from(values)), max_size=12))
    assert_rows_render(template, rows, dtype, keys)
    # lists of both templates, over shared or separate tables, at any depth in
    # dicts and lists among None values, integers, empty lists and dicts
    obj, plain = draw_document(data, labels, values)
    assert "".join(_dumps(obj)) == json.dumps(plain, indent=2, sort_keys=True)


class TestAtomSample:
    def test_pattern_check_passes(self, capsys):
        code, out = run_cli(capsys, "atom", "sample", "--n", "2", "--d", "2",
                            "--trials", "50", "--check", "patterns")
        assert code == 0
        obj = json.loads(out)
        assert obj["passes"] == 50 and obj["falsifier"] is None
        assert obj["max_val"] <= 7

    def test_antidiagonal_check_passes(self, capsys):
        code, out = run_cli(capsys, "atom", "sample", "--n", "2", "--d", "2",
                            "--trials", "50", "--check", "antidiagonal")
        assert code == 0
        assert json.loads(out)["falsifier"] is None

    def test_pattern_check_needs_n2_d2(self, capsys):
        assert run_cli(capsys, "atom", "sample", "--n", "3", "--d", "2",
                       "--trials", "1", "--check", "patterns")[0] == 2

    def test_antidiagonal_needs_square(self, capsys):
        assert run_cli(capsys, "atom", "sample", "--n", "3", "--d", "2",
                       "--trials", "1", "--check", "antidiagonal")[0] == 2

    def test_negative_width_named_like_every_width_error(self, capsys):
        code, err = run_cli_error(capsys, "atom", "sample", "--check", "antidiagonal",
                                  "--n", "-1", "--d", "-1")
        assert code == 2 and err == "error: n = -1 outside [1, 8]\n"

    def test_witness_oracle_names_a_negative_width(self):
        with pytest.raises(ValueError, match=r"^n = -1 outside \[1, 8\]$"):
            cli.run_witness_oracle(-1, 3)

    @pytest.mark.parametrize("command", [["atom", "sample"], ["induction"]])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, capsys, command, trials):
        code, err = run_cli_error(capsys, *command, "--n", "2", "--d", "2",
                                  "--trials", trials)
        assert code == 2 and "trials must be at least 1" in err

    @pytest.mark.parametrize("command", [["atom", "sample"], ["induction"]])
    def test_negative_seed_exit_2_naming_the_seed(self, capsys, command):
        code, err = run_cli_error(capsys, *command, "--n", "2", "--d", "2",
                                  "--seed", "-1")
        assert code == 2 and "seed -1 must be >= 0" in err

    @pytest.mark.parametrize("command", [["atom", "sample"], ["induction"]])
    def test_seeds_past_64_bits_exit_2(self, capsys, command):
        # 2^64 - 1 is the last seed with a stream: one trial from it runs, two do not
        code, err = run_cli_error(capsys, *command, "--n", "2", "--d", "2",
                                  "--seed", "18446744073709551615", "--trials", "2")
        assert (code, err) == (2, "error: seeds 18446744073709551615 .. 18446744073709551616 "
                                  "do not fit in 64 bits\n")
        code, out = run_cli(capsys, *command, "--n", "2", "--d", "2",
                            "--seed", "18446744073709551615", "--trials", "1")
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_seed_in_report(self, capsys):
        _, out = run_cli(capsys, "atom", "sample", "--n", "2", "--d", "2",
                         "--trials", "5", "--seed", "17")
        assert json.loads(out)["seed"] == 17


class TestBound:
    def test_worked_example(self, capsys):
        code, out = run_cli(capsys, "bound", "--n", "4", "--d", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["lift_lower_exact"] == "81/16"

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "bound", "--n", "6", "--d", "2",
                            "--format", "text")
        assert code == 0
        assert "refined" in out

    def test_oversized_k_rejected(self, capsys):
        for d, k in [(1, 5), (1, 3), (2, 0), (2, 9)]:
            code, err = run_cli_error(capsys, "bound", "--n", "4", "--d", str(d), "--k", str(k))
            assert code == 2 and f"k = {k} outside [1, {3**d - 1}]" in err

    def test_t_and_the_k_row_follow_k(self, capsys):
        argv = ["bound", "--n", "4", "--d", "2", "--k", "5", "--format"]
        assert json.loads(run_cli(capsys, *argv, "json")[1])["t"] == 5 ** 0.5
        code, out = run_cli(capsys, *argv, "text")
        rows = dict(line.rsplit(None, 1) for line in out.splitlines())
        assert code == 0 and rows["k"] == "5" and "3^d - 1" not in out
        assert float(rows["t(d) = k^(1/d)"]) == pytest.approx(5 ** 0.5, rel=1e-11)

    #: The largest n whose report prints (sha256 of the JSON and the text
    #: report): past it a float overflows (d = 1: the closed form; d = 1 with
    #: k = 1: float(3^n); d = 2: the refined bound) or an exact integer passes
    #: 4,300 digits (d = 3, 4, 6: the numerator 3^n).
    LARGEST = [
        pytest.param(1750, 1, [],
                     "5f49578618b7702a155178d6218c205dfff77a84f87bec4651c4a295af39d1ba",
                     "ad1bab56d9a96e097b17e11d447f41e180b4688f0cb183a157bd3f1094e4fed4",
                     id="d1"),
        pytest.param(646, 1, ["--k", "1"],
                     "9e4f0186ff4a328ade13e2a9777917e8c33d6b74f49871c88678e5dd5100e50a",
                     "a7969ed4cfdecc1d0827f4f37947f3eb2d63039626f7279fa3a615bdef39e818",
                     id="d1-k1"),
        pytest.param(5648, 2, [],
                     "0ee6c4327304b770259a06aa2a1a64928e64e8710754938b1f7e467c18b0a648",
                     "3b53ed52bd9b248be9a4a8142bb9e6b3fc93b6565b3863b19b5f081f9e016c5a",
                     id="d2"),
        pytest.param(9012, 3, [],
                     "865a8c0e6002cd333d3e7268f33f5282c11d89522abbb4dbfaf148d42f07b978",
                     "883684576b66b69856d461d33c511fba5fe881400ac80c167d27838940b1f00c",
                     id="d3"),
        pytest.param(9012, 4, [],
                     "6827cf655d080f5e0831311a5e1aa0745db1b607dd9e5497a3b16dcff4a3b945",
                     "c6e7625140ac69db014e89ef93e3985be33da5848783f745258a4301e89c1210",
                     id="d4"),
        pytest.param(9012, 6, [],
                     "a24d86fe16ab5877c35b2cc85fe0485b99f0469d24a0d7cd335a94b470ad6afa",
                     "940dfd451672f7934ce86e7c11ec344ea6571d5b35ab158d2a08d485dd5b8ded",
                     id="d6"),
        # k = 2 * 3^5: the 3s cancel from 3^n / k^m, so rho = k^m binds
        pytest.param(9600, 6, ["--k", "486"],
                     "c97724a4a2f85edff46154db150a23ecbe3a669cd74377491e8244c0d398c833",
                     "0af857524e314d54cf47b49c37a19892c7c1839db6729b0fff02111745092689",
                     id="d6-k486"),
    ]

    @pytest.mark.parametrize("n, d, extra, json_digest, text_digest", LARGEST)
    def test_largest_printable_n_then_exit_2(self, capsys, n, d, extra, json_digest,
                                             text_digest):
        for fmt, digest in (("json", json_digest), ("text", text_digest)):
            argv = ["bound", "--d", str(d), *extra, "--format", fmt]
            code, out = run_cli(capsys, *argv, "--n", str(n))
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
            code, err = run_cli_error(capsys, *argv, "--n", str(n + 1))
            assert code == 2 and f"n = {n + 1} too large" in err

    #: ``bound --n 40`` at widths where the doubles round c(d) to 1.0 (from
    #: d = 31 on) and t(d) to 3.0 (from d = 32 on); the reports still print,
    #: since their invariants are checked on integers.  The d = 30 digests
    #: predate that check.
    WIDE = [
        pytest.param(30, "57be8e1bd82f092dd88cd974957ab75860a3fb9b33a60bf5410e8eaf44dc7a36",
                     "c7334959bc75972a8b7a7caed1453b04c1771835eb49cef7d3a7cf3674d82360",
                     id="d30"),
        pytest.param(31, "ad3a4be292649716ba68400a278d1beb11d4e3520de2f4dda63a9dc32400b92a",
                     "9e00f04d7167155906d38438d91281bf57f046140bd65ab7296bfbbca69c9477",
                     id="d31"),
        pytest.param(40, "60df868a9ef60c6f1e6a6dddc76e7aefecf6250322fd8cc127a281931294750d",
                     "15301f746b6ef0bbe28ebfba409d6e62e4291f3fd387bbac7c1ff940329b6495",
                     id="d40"),
    ]

    @pytest.mark.parametrize("d, json_digest, text_digest", WIDE)
    def test_wide_blocks_print(self, capsys, d, json_digest, text_digest):
        for fmt, digest in (("json", json_digest), ("text", text_digest)):
            code, out = run_cli(capsys, "bound", "--n", "40", "--d", str(d), "--format", fmt)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)

    def test_huge_n_exits_2_before_any_power(self, capsys):
        start = time.perf_counter()
        code, err = run_cli_error(capsys, "bound", "--n", "1000000", "--d", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "n = 1000000" in err

    def test_width_past_the_double_range_exits_2(self, capsys):
        code, err = run_cli_error(capsys, "bound", "--n", "700", "--d", "700")
        assert code == 2 and "n = 700" in err

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_width_below_one_named(self, capsys, d):
        code, err = run_cli_error(capsys, "bound", "--n", "5", "--d", d)
        assert code == 2 and f"d = {d} must be >= 1" in err


class TestInductionCommand:
    def test_default_family(self, capsys):
        code, out = run_cli(capsys, "induction", "--n", "4", "--d", "2",
                            "--trials", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "recursive-d2" and obj["falsifier"] is None

    def test_family_width_mismatch_exits_2(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        run_cli(capsys, "covering", "build", "--d", "3", "--out", str(fam_file))
        assert run_cli(capsys, "induction", "--n", "4", "--d", "2",
                       "--trials", "1", "--family", str(fam_file))[0] == 2

    def test_width_below_family_width_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "sample_block", lambda *args: pytest.fail("sampled"))
        code, err = run_cli_error(capsys, "induction", "--n", "2", "--d", "3")
        assert code == 2 and err == "error: induction needs n >= d, got n = 2, d = 3\n"


@pytest.mark.parametrize("command", [["covering", "verify"],
                                     ["induction", "--n", "2", "--d", "1"]])
@pytest.mark.parametrize(
    "text, field",
    [
        pytest.param("{}", '"d"', id="empty-object"),
        pytest.param('{"d": 1, "rectangles": [{"rows": ["0"]}]}', '"cols"',
                     id="rectangle-without-cols"),
        pytest.param('{"d": 1, "rectangles": [{"rows": "0", "cols": ["1"]}]}', '"rows"',
                     id="rows-a-string-of-labels"),
        pytest.param('{"d": 1, "rectangles": [{"rows": ["0"], "cols": {"1": 0}}]}', '"cols"',
                     id="cols-an-object-of-labels"),
        pytest.param("[]", "family is not a JSON object", id="top-level-list"),
        pytest.param('{"d": 1, "label": 5, "rectangles": []}', '"label"', id="label-int"),
        pytest.param('{"d": 1, "label": null, "rectangles": []}', '"label"', id="label-null"),
        pytest.param('{"d": 2, "rectangles": ' + "[" * 5000 + "]" * 5000 + "}",
                     "error: family JSON is nested too deeply", id="nested-5000-deep"),
    ],
)
def test_malformed_family_exits_2_naming_the_field(tmp_path, capsys, command, text,
                                                   field):
    fam_file = tmp_path / "fam.json"
    fam_file.write_text(text)
    code, err = run_cli_error(capsys, *command, "--family", str(fam_file))
    assert code == 2 and field in err


@pytest.mark.parametrize("command", [
    ["udisj", "--n", "2"],
    ["udisj", "--n", "2", "--format", "csv"],
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "patterns"],
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "antidiagonal"],
    ["induction", "--n", "2", "--d", "1"],
])
@pytest.mark.parametrize("epsilon", ["0", "0.3", "nan"])
def test_epsilon_is_an_unknown_option(capsys, command, epsilon):
    # the support is the positive entries, with no threshold to set: a value
    # the option once took (0, 0.3) is refused like one it once rejected (nan)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --epsilon {epsilon}" in captured.err


@pytest.mark.parametrize("command", [
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "patterns"],
    ["atom", "sample", "--n", "2", "--d", "2", "--check", "antidiagonal"],
    ["induction", "--n", "2", "--d", "1"],
])
@pytest.mark.parametrize("direction", ["both", "u-first", "v-first"])
def test_direction_is_an_unknown_option(capsys, command, direction):
    # the seed alone names a sampled atom: its parity picks the free side,
    # so no value the option once took is accepted
    with pytest.raises(SystemExit) as exc:
        main([*command, "--direction", direction])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --direction {direction}" in captured.err


@pytest.mark.parametrize("function", [
    atoms.sample_block, atoms.sample_atom, cli.run_trials, cli.run_pattern_oracle,
    cli.run_witness_oracle, cli.run_induction_oracle,
], ids=lambda f: f.__qualname__)
def test_sampling_takes_no_direction(function):
    assert not {"direction", "directions"} & set(inspect.signature(function).parameters)


@pytest.mark.parametrize("function", [
    bitcore.support_block, SupportMatrix.support, bitcore.val, bitcore.is_atom_pattern,
    atoms.witness_block, covering.induction_block, covering.check_induction_inequality,
    cli.pattern_check, cli.run_pattern_oracle, cli.run_witness_oracle,
    cli.run_induction_oracle,
], ids=lambda f: f.__qualname__)
def test_support_takes_no_threshold(function):
    # the one zero rule lives in evaluate_block: no support, val or oracle
    # routine takes a threshold of its own
    assert not {"eps", "epsilon"} & set(inspect.signature(function).parameters)


def test_no_zero_threshold_is_left_in_bitcore():
    assert not hasattr(bitcore, "EPS_ZERO") and not hasattr(bitcore, "threshold_block")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["udisj", "--n", "2"],
            ["bound", "--n", "7", "--d", "2"],
            ["atom", "sample", "--n", "2", "--d", "2", "--trials", "25",
             "--seed", "3"],
            ["induction", "--n", "3", "--d", "1", "--trials", "10"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LIFTCERT_OUT_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "covering", "build", "--d", "1",
                          "--out", "fam.json")
        assert code == 0
        assert (tmp_path / "fam.json").exists()


class TestOutFile:
    """``--out`` writes the stdout bytes in slices, with ``Path.write_text``'s
    file semantics."""

    @pytest.mark.parametrize("slice_size", [1, 2, 3, 7])
    def test_any_slice_size_writes_the_stdout_bytes(self, tmp_path, capsys, monkeypatch,
                                                    slice_size):
        fam_file, target = tmp_path / "family.json", tmp_path / "report"
        fam_file.write_text(family_to_json(recursive_covering(3)))
        monkeypatch.setattr(cli, "_WRITE_SLICE", slice_size)
        for argv in (["udisj", "--n", "3"],
                     ["covering", "verify", "--family", str(fam_file)],
                     ["covering", "build", "--d", "2"],
                     ["bound", "--n", "6", "--d", "2", "--format", "text"]):
            code, out = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv, "--out", str(target)) == (code, "")
            assert target.read_bytes() == out.encode()

    def test_longer_file_is_truncated(self, tmp_path, capsys):
        target = tmp_path / "report"
        target.write_text("x" * 100_000)
        _, out = run_cli(capsys, "bound", "--n", "4", "--d", "1")
        assert run_cli(capsys, "bound", "--n", "4", "--d", "1", "--out", str(target)) == (0, "")
        assert target.read_text() == out

    def test_links_are_written_through(self, tmp_path, capsys):
        target, link, hard = tmp_path / "target", tmp_path / "link", tmp_path / "hard"
        target.write_text("stale\n" * 1000)
        link.symlink_to(target)
        hard.hardlink_to(target)
        _, out = run_cli(capsys, "udisj", "--n", "2")
        assert run_cli(capsys, "udisj", "--n", "2", "--out", str(link)) == (0, "")
        assert link.is_symlink() and target.read_text() == out and hard.read_text() == out

    def test_dev_null(self, capsys):
        assert run_cli(capsys, "udisj", "--n", "3", "--out", "/dev/null") == (0, "")

    def test_directory_exits_2(self, tmp_path, capsys):
        code, err = run_cli_error(capsys, "udisj", "--n", "3", "--out", str(tmp_path))
        assert code == 2 and err.startswith("error: ")


def test_shared_parser_survives_errors_and_help(capsys):
    """main parses with one parser per process; an argparse error or --help
    must leave it as it was."""
    bound, build = ["bound", "--n", "5", "--d", "2"], ["covering", "build", "--d", "3"]
    before = [run_cli(capsys, *bound), run_cli(capsys, *build)]
    for argv, exit_code in [(["bound", "--n", "x"], 2), (["--help"], 0),
                            (["covering", "verify", "--help"], 0), (["covering"], 2),
                            # atom sample has no rank-profile option and no induction check
                            (["atom", "sample", "--n", "2", "--d", "2",
                              "--rank-profile", "uniform"], 2),
                            (["atom", "sample", "--n", "4", "--d", "2",
                              "--check", "induction"], 2)]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == exit_code
    capsys.readouterr()
    assert [run_cli(capsys, *bound), run_cli(capsys, *build)] == before
    assert before[1] == (0, family_to_json(recursive_covering(3)) + "\n")
    fresh = subprocess.run([sys.executable, "-m", "liftcert", *bound],
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout) == before[0]


def test_parser_built_once_per_process():
    assert build_parser() is build_parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liftcert", "bound", "--n", "2", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lift_lower_exact"] == "9/8"
