"""Command-line interface: exit statuses, formats, file round trips."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR
from helpers import flip_conditions, idem_min, luk_upper, uninorms_by_e
from unichain import (
    ChainScale,
    CheckReport,
    Violation,
    classify_and_check,
    cli,
    decompose,
    distributivity,
    formats,
    from_string,
    scan_pairs,
    search,
    validate_uninorm,
)
from unichain.cli import main
from unichain.core import MAX_SCALE
from unichain.formats import dump_decomposition, dump_table, parse_table

SRC = Path(cli.__file__).resolve().parents[1]
DIVERGENCE = ("{}: THEOREM DIVERGENCE - {}; this is the most important possible finding, "
              "please report it\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitContract:
    def test_check_distributive_pair(self, capsys):
        code, out, err = run(capsys, "check", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=2,n=4)")
        assert code == 0
        assert "distributive: true; case: equal-neutral; theorem agrees" in out
        assert "check:" in err  # human summary on stderr

    def test_a_divergence_is_reported_on_both_streams(self, capsys, monkeypatch):
        flip_conditions(monkeypatch, cli, luk_upper(4, 2), luk_upper(4, 2))
        code, out, err = run(capsys, "check", "--u1", "luk-upper(e=2,n=4)", "--u2", "luk-upper(e=2,n=4)")
        assert code == 1
        assert "case: equal-neutral; THEOREM DIVERGENCE\n" in out
        assert ("  theorem-divergence at () (case equal-neutral: conditions say True, "
                "exhaustive scan says False)\n") in out
        assert "check: THEOREM DIVERGENCE - the structural conditions" in err

    def test_a_divergence_on_a_distributive_pair_is_status_one(self, capsys, monkeypatch):
        flip_conditions(monkeypatch, cli, idem_min(4, 2), idem_min(4, 2))
        code, out, err = run(capsys, "check", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=2,n=4)")
        assert code == 1
        assert out.startswith("distributive: true; case: equal-neutral; THEOREM DIVERGENCE\n")
        assert err == (DIVERGENCE.format("check", "the structural conditions and the exhaustive "
                                         "scan disagree on this pair")
                       + "check: distributive=True case=equal-neutral agreement=False\n")

    def test_check_failing_pair_gets_status_one_and_witness(self, capsys):
        code, out, err = run(capsys, "check", "--u1", "luk-upper(e=2,n=4)", "--u2", "luk-upper(e=2,n=4)")
        assert code == 1
        assert "distributive: false" in out
        assert "distributivity at (" in out

    def test_validate_bad_neutral_row(self, capsys, tmp_path):
        u = idem_min(4, 2)
        rows = [list(r) for r in u.rows]
        rows[2][3] = rows[3][2] = 2
        text = "scale 4\nneutral 2\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 1
        assert "neutrality at (3)" in out

    def test_parse_error_is_status_two(self, capsys, tmp_path):
        path = tmp_path / "broken.tbl"
        path.write_text("scale 2\nneutral 1\n0 0 0\n0 1 2\n1 2 2\n")
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 2
        assert "asymmetry" in err

    def test_spec_error_is_status_two_with_caret(self, capsys):
        code, out, err = run(capsys, "check", "--u1", "idemin(e=2,n=4)", "--u2", "max(n=4)")
        assert code == 2
        assert "^" in err

    def test_limit_refusal_is_status_three(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "6")
        assert code == 3
        assert "refused" in err

    @pytest.mark.parametrize("argv, what, limit", [
        (("enumerate", "--n", "7", "--e", "3"), "enumeration", 6),
        (("scan", "--n", "7", "--e1", "1", "--e2", "1"), "pair scan", 6),
        (("certify", "--n", "6"), "certification", 5),
    ], ids=["enumerate", "scan", "certify"])
    def test_a_limit_refusal_names_the_option(self, capsys, argv, what, limit):
        code, out, err = run(capsys, *argv)
        n = argv[2]
        assert code == 3 and out == ""
        assert err == (f"{what} on L_{n} refused: limit is n <= {limit}; "
                       f"pass max_n={n} (--max-n {n}) to override\n")

    def test_max_n_tightens_the_limit(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "4", "--max-n", "3")
        assert code == 3
        code, out, err = run(capsys, "certify", "--n", "2", "--max-n", "3")
        assert code == 0

    @pytest.mark.parametrize("n", ["46", "99999999999"])
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--e", "1"),
        ("scan", "--e1", "1", "--e2", "1"),
        ("certify",),
    ], ids=["enumerate", "scan", "certify"])
    def test_a_search_past_the_recursion_limit_is_status_three(self, capsys, monkeypatch,
                                                               argv, n):
        # L_46 has 1,035 free cells, one recursion level each; a refusal
        # comes before the free cells are listed
        def no_cells(n, e):
            raise AssertionError(f"free cells of L_{n} listed before the refusal")

        monkeypatch.setattr(search, "_free_cells", no_cells)
        code, out, err = run(capsys, argv[0], "--n", n, "--max-n", n, *argv[1:])
        assert code == 3 and out == ""
        assert err.count("refused") == 1
        assert f"on L_{n} refused: its search recurses once per free cell" in err

    @pytest.mark.parametrize("argv, removed", [
        (["enumerate", "--n", "3", "--e", "1"], ["--workers", "2"]),
        (["certify", "--n", "2"], ["--workers", "2"]),
        (["certify", "--n", "3"], ["--workers", "0"]),
        (["certify", "--n", "2"], ["--pair-budget", "3"]),
    ], ids=["enumerate-workers", "certify-workers", "certify-workers-zero",
            "certify-pair-budget"])
    def test_a_removed_option_is_a_usage_error(self, capsys, argv, removed):
        with pytest.raises(SystemExit) as exit_:
            main(argv + removed)
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: ")
        assert f"unrecognized arguments: {' '.join(removed)}" in captured.err
        assert "Traceback" not in captured.err

    def test_no_command_takes_a_worker_count(self, capsys):
        for command in TestReadme.subparsers():
            with pytest.raises(SystemExit) as exit_:
                main([command, "--help"])
            assert exit_.value.code == 0
            assert "--workers" not in capsys.readouterr().out, command

    def test_repeated_spec_key_is_status_two_with_caret(self, capsys):
        code, out, err = run(capsys, "validate", "--table", "idemmin(e=2,n=4,n=5)")
        assert code == 2
        assert err == ("error: repeated key 'n'\n  idemmin(e=2,n=4,n=5)\n"
                       "                  ^\n")

    @pytest.mark.parametrize("old, new", [("neutral 0", "neutral +0"), ("0 1\n", "0_0 1\n"),
                                          ("0 1\n", "\u0660 1\n")],
                             ids=["plus-sign", "underscore", "arabic-indic"])
    def test_an_integer_that_is_not_ascii_decimal_is_status_two(self, capsys, tmp_path, old, new):
        path = tmp_path / "t.tbl"
        path.write_text("scale 1\nneutral 0\n0 1\n1 1\n".replace(old, new, 1), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:") and "is not an integer" in err

    @pytest.mark.parametrize("command, old, new, line", [
        ("validate", "1 1\n", "1 LONG\n", 4),
        ("validate", "scale 1", "scale LONG", 1),
        ("validate", "neutral 0", "neutral LONG", 2),
        ("compose", "0 1 first", "0 LONG first", 20),
    ], ids=["row-entry", "scale", "neutral", "selection-coordinate"])
    def test_a_number_longer_than_int_reads_is_status_two(self, capsys, tmp_path,
                                                           command, old, new, line):
        # 5,000 digits: int() refuses more than sys.get_int_max_str_digits(), 4,300 by default
        if command == "validate":
            text, option = "scale 1\nneutral 0\n0 1\n1 1\n", "--table"
        else:
            u1, u2 = idem_min(4, 2), idem_min(4, 1)
            text, option = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1), "--decomposition"
        path = tmp_path / "long.txt"
        path.write_text(text.replace(old, new.replace("LONG", "9" * 5000), 1))
        code, out, err = run(capsys, command, option, str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}:{line}: number 99999999... has 5000 digits; "
                       f"at most {sys.get_int_max_str_digits()} are read\n")

    def test_a_spec_digit_that_is_not_ascii_is_status_two(self, capsys):
        code, out, err = run(capsys, "classify", "--table", "idemmin(e=\u0661,n=\u0664)")
        assert code == 2 and out == ""
        assert err.startswith("error: expected an integer\n")

    def test_a_spec_nested_past_the_recursion_limit_is_status_two(self, capsys):
        # the grammar builds one level of sub-operation; deeper nesting is refused
        # as it is read, at the top-level T= value, not after 1,200 recursive calls
        spec = "umin(T=" * 1200 + "min" + ")" * 1200
        code, out, err = run(capsys, "classify", "--table", spec)
        assert code == 2 and out == ""
        assert err == f"error: nested T/S inside a sub-operation is not supported\n  {spec}\n{' ' * 9}^\n"

    def test_input_scale_above_the_limit_is_status_three(self, capsys, tmp_path):
        path = tmp_path / "large.tbl"
        path.write_text(f"scale {MAX_SCALE + 1}\nneutral 0\n")
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 3 and out == ""
        assert err == (f"{path}:1: scale n={MAX_SCALE + 1} refused: inputs are limited to "
                       f"n <= {MAX_SCALE}\n")

    def test_usage_error_is_status_two(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--u1", "min(n=3)"])  # --u2 missing
        assert err.value.code == 2


class TestCommands:
    def test_classify(self, capsys):
        code, out, err = run(capsys, "classify", "--table", "idemmin(e=2,n=4)")
        assert code == 0
        assert "operator: proper uninorm" in out
        assert "conjunctive: True" in out

    def test_classify_structured(self, capsys):
        code, out, err = run(capsys, "classify", "--table", "min(n=4)", "--format", "structured")
        doc = json.loads(out)
        assert doc["operator"] == "t-norm" and doc["conjunctive"] is None

    def test_enumerate_text_blocks_reparse(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "2", "--e", "1")
        assert code == 0
        assert "2 uninorms" in err
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        for block in blocks:
            table, e = parse_table(block)
            assert e == 1

    def test_enumerate_structured(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--e", "1", "--format", "structured")
        doc = json.loads(out)
        assert doc["count"] == 5 and len(doc["tables"]) == 5

    def test_enumerate_document_holds_its_own_lists(self, capsys, monkeypatch):
        # perfbench/selfcheck.py edits a cell of this document in place to test its gate
        docs = []
        write = formats.to_json
        monkeypatch.setattr(formats, "to_json", lambda doc: docs.append(doc) or write(doc))
        run(capsys, "enumerate", "--n", "3", "--e", "1", "--format", "structured")
        (doc,) = docs
        rows = [row for table in doc["tables"] for row in table]
        assert all(type(row) is list for row in rows)
        # one list per distinct row, shared by every table that holds it
        assert len({id(row) for row in rows}) == len({tuple(row) for row in rows}) < len(rows)
        doc["tables"][0][1][1] += 1

    @pytest.mark.parametrize("e", range(6))
    def test_enumerate_structured_bytes_are_the_json_modules(self, capsys, e):
        # the document's shared row lists go through the writer's row cache
        code, out, err = run(capsys, "enumerate", "--n", "5", "--e", str(e), "--format", "structured")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_enumerate_reports_nodes_expanded(self, capsys):
        stats = search.SearchStats()
        list(search.enumerate_uninorms(search.EnumerationTask(ChainScale(3), 1), stats=stats))
        code, out, err = run(capsys, "enumerate", "--n", "3", "--e", "1")
        assert code == 0
        assert err == f"enumerate: 5 uninorms on L_3 with e=1, {stats.nodes_expanded} nodes expanded\n"

    def test_out_of_range_neutral_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--e", "9")
        assert code == 2
        assert "outside chain" in err

    def test_scan_structured(self, capsys):
        code, out, err = run(capsys, "scan", "--n", "3", "--e1", "2", "--e2", "1",
                             "--format", "structured")
        doc = json.loads(out)
        assert doc["count"] == 4
        assert all(p["necessity"]["verdict"] for p in doc["pairs"])
        assert all(p["decomposition"] is not None for p in doc["pairs"])

    def test_scan_reports_a_divergence_on_stderr(self, capsys, monkeypatch):
        argv = ("scan", "--n", "3", "--e1", "2", "--e2", "1", "--format", "structured")
        code, clean_out, clean_err = run(capsys, *argv)
        assert code == 0
        first = scan_pairs(ChainScale(3), 2, 1)[0]
        flip_conditions(monkeypatch, search, first.u1, first.u2)
        code, out, err = run(capsys, *argv)
        assert code == 1
        doc, clean_doc = json.loads(out), json.loads(clean_out)
        assert doc["pairs"][0]["decomposition"] is None
        clean_doc["pairs"][0]["decomposition"] = None
        assert doc == clean_doc
        assert err == ("scan: THEOREM DIVERGENCE - the structural conditions reject 1 of the "
                       "4 distributive pairs; this is the most important possible finding, "
                       "please report it\n" + clean_err)

    def test_certify_structured_and_exit(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "2", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs-checked"] == 36 and doc["divergences"] == []

    def test_certify_golden_comparison(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "2", "--format", "structured",
                             "--no-timing")
        assert code == 0
        assert out == (FIXTURES_DIR / "certify_l2.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("n", ("4", "5"))
    def test_certify_matches_golden(self, capsys, n):
        # the default limit admits L_5
        golden = (FIXTURES_DIR / f"certify_l{n}.json").read_text(encoding="utf-8")
        code, out, err = run(capsys, "certify", "--n", n, "--format", "structured", "--no-timing")
        assert code == 0
        assert out == golden

    @pytest.mark.parametrize("planted", [
        {"e1": 2, "index1": 3, "e2": 1, "index2": 4, "case": "greater-neutral",
         "conditions-verdict": True, "exhaustive-verdict": False,
         "u1-rows": [[0, 0, 0, 3], [0, 0, 1, 3], [0, 1, 2, 3], [3, 3, 3, 3]],
         "u2-rows": [[0, 0, 2, 3], [0, 1, 2, 3], [2, 2, 3, 3], [3, 3, 3, 3]]},
        {"e1": 1, "index1": 3, "e2": 2, "index2": 3, "case": "less-neutral",
         "conditions-verdict": False, "exhaustive-verdict": True,
         "u1-rows": [[0, 0, 2, 3], [0, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
         "u2-rows": [[0, 0, 0, 3], [0, 0, 1, 3], [0, 1, 2, 3], [3, 3, 3, 3]]},
    ], ids=["conditions-accept-a-non-distributive-pair",
            "conditions-reject-a-distributive-pair"])
    def test_certify_structured_reports_a_planted_divergence(self, capsys, monkeypatch, planted):
        by_e = uninorms_by_e(3)
        u1 = by_e[planted["e1"]][planted["index1"]]
        u2 = by_e[planted["e2"]][planted["index2"]]
        flip_conditions(monkeypatch, search, u1, u2)
        code, out, err = run(capsys, "certify", "--n", "3", "--format", "structured",
                             "--no-timing")
        assert code == 1
        assert err == ("certify: THEOREM DIVERGENCE - the structural conditions and the exhaustive "
                       "scan disagree on 1 of the 484 pairs; this is the most important possible "
                       "finding, please report it\n"
                       "certify: L_3 pairs=484 divergences=1\n")
        # the counts per case are the exhaustive verdicts', which the flip leaves alone
        expected = json.loads((FIXTURES_DIR / "certify_l3.json").read_text(encoding="utf-8"))
        expected.update({"agreements": 483, "divergences": [planted]})
        assert structured(out) == expected  # the only document with u1-rows and u2-rows

    def test_decompose_compose_file_round_trip(self, capsys, tmp_path):
        dec_path = tmp_path / "d.txt"
        code, out, err = run(capsys, "decompose", "--u1", "idemmin(e=2,n=4)",
                             "--u2", "idemmin(e=1,n=4)", "--out", str(dec_path))
        assert code == 0
        code, out, err = run(capsys, "compose", "--decomposition", str(dec_path))
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        t1, e1 = parse_table(blocks[0])
        t2, e2 = parse_table(blocks[1])
        assert (t1.values, e1) == (idem_min(4, 2).rows, 2)
        assert (t2.values, e2) == (idem_min(4, 1).rows, 1)

    def test_compose_header_outside_the_chain_is_status_two(self, capsys, tmp_path):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        text = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1)
        path = tmp_path / "d.txt"
        path.write_text(text.replace("e1 2", "e1 9", 1))
        code, out, err = run(capsys, "compose", "--decomposition", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:3: e1 9 outside chain 0..4\n"

    def test_compose_refuses_an_equal_neutral_case_at_its_line(self, capsys, tmp_path):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        text = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1)
        path = tmp_path / "d.txt"
        path.write_text(text.replace("case greater-neutral", "case equal-neutral", 1))
        code, out, err = run(capsys, "compose", "--decomposition", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}:1: case equal-neutral: equal neutral elements admit "
                       "no block decomposition\n")

    def test_compose_with_swapped_neutrals_is_rejected(self, capsys, tmp_path):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        text = dump_decomposition(decompose(u1, u2), u1.scale, 1, 2)
        path = tmp_path / "d.txt"
        path.write_text(text)
        code, out, err = run(capsys, "compose", "--decomposition", str(path))
        assert code == 1 and out == ""
        assert err == ("compose rejected: greater case needs 0 < e2 < e1 < n: shape at (1,2)\n"
                       "verdict: false\n  shape at (1,2)\n")

    def test_missing_table_file_is_status_two(self, capsys, tmp_path):
        path = tmp_path / "absent.tbl"
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("argv", [
        ("validate", "--table", "FILE"),
        ("check", "--u1", "FILE", "--u2", "max(n=2)"),
        ("check", "--u1", "max(n=2)", "--u2", "FILE"),
        ("compose", "--decomposition", "FILE"),
    ], ids=["table", "u1", "u2", "decomposition"])
    def test_a_file_that_is_not_utf8_is_status_two(self, capsys, tmp_path, argv):
        path = tmp_path / "not-utf8.tbl"
        path.write_bytes(b"scale 2\nneutral 1\n# \xff\n0 0 2\n0 1 2\n2 2 2\n")
        code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text: byte 0xff at offset 20\n"

    def test_decompose_refusal_status_one(self, capsys):
        code, out, err = run(capsys, "decompose", "--u1", "idemmin(e=2,n=4)",
                             "--u2", "luk-upper(e=2,n=4)")
        assert code == 1
        assert "not distributive" in err

    def test_decompose_names_a_divergence_on_a_distributive_pair(self, capsys, monkeypatch):
        flip_conditions(monkeypatch, distributivity, idem_min(4, 2), idem_min(4, 1))
        code, out, err = run(capsys, "decompose", "--u1", "idemmin(e=2,n=4)",
                             "--u2", "idemmin(e=1,n=4)")
        assert code == 1 and out == ""
        assert err == (DIVERGENCE.format("decompose", "the structural conditions and the "
                                         "exhaustive scan disagree on this pair")
                       + "decompose refused: the two routes disagree: theorem divergence\n"
                       "verdict: false\n"
                       "  theorem-divergence at () (case greater-neutral: conditions say False, "
                       "exhaustive scan says True)\n  planted-divergence at ()\n")

    def test_compose_names_a_divergence_on_a_distributive_pair(self, capsys, monkeypatch,
                                                               tmp_path):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        path = tmp_path / "d.txt"
        path.write_text(dump_decomposition(decompose(u1, u2), u1.scale, 2, 1))
        flip_conditions(monkeypatch, distributivity, u1, u2)
        code, out, err = run(capsys, "compose", "--decomposition", str(path))
        assert code == 1 and out == ""
        assert err == (DIVERGENCE.format("compose", "the structural conditions and the "
                                         "exhaustive scan disagree on this pair")
                       + "compose rejected: assembled pair fails the case conditions but "
                       "passes the exhaustive scan: theorem divergence\nverdict: false\n"
                       "  theorem-divergence at () (case greater-neutral: conditions say False, "
                       "exhaustive scan says True)\n  planted-divergence at ()\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_scan_names_a_hit_failing_its_necessity_battery(self, capsys, monkeypatch, fmt):
        argv = ("scan", "--n", "3", "--e1", "2", "--e2", "1", "--format", fmt)
        code, clean_out, clean_err = run(capsys, *argv)
        assert code == 0
        first = scan_pairs(ChainScale(3), 2, 1)[0]
        battery = search.necessity_conditions
        planted = CheckReport.from_violations([Violation("planted-necessity", ())])

        def failing(u1, u2, **kwargs):
            report = battery(u1, u2, **kwargs)
            return planted if (u1.rows, u2.rows) == (first.u1.rows, first.u2.rows) else report

        monkeypatch.setattr(search, "necessity_conditions", failing)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == DIVERGENCE.format("scan", "the necessity battery rejects 1 of the 4 "
                                        "distributive pairs") + clean_err
        if fmt == "text":  # the text output holds no battery
            assert out == clean_out
        else:
            doc, clean_doc = json.loads(out), json.loads(clean_out)
            assert doc["pairs"][0]["necessity"]["violations"][0]["law"] == "planted-necessity"
            clean_doc["pairs"][0]["necessity"] = doc["pairs"][0]["necessity"]
            assert doc == clean_doc

    def test_out_file_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "u.tbl"
        code, _, _ = run(capsys, "enumerate", "--n", "2", "--e", "2", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        for block in blocks:
            parse_table(block)

    def test_invalid_uninorm_operand_status_one(self, capsys, tmp_path):
        # structurally fine but non-monotone: parses, then fails the axioms
        path = tmp_path / "nonmono.tbl"
        path.write_text("scale 2\nneutral 1\n0 0 2\n0 1 2\n2 2 1\n")
        code, out, err = run(capsys, "check", "--u1", str(path), "--u2", "max(n=2)")
        assert code == 1
        assert "u1 fails the uninorm axioms" in err

    def test_invalid_second_operand_is_named(self, capsys, tmp_path):
        path = tmp_path / "nonmono.tbl"
        path.write_text("scale 2\nneutral 1\n0 0 2\n0 1 2\n2 2 1\n")
        code, out, err = run(capsys, "check", "--u1", "max(n=2)", "--u2", str(path))
        assert code == 1
        assert "u2 fails the uninorm axioms" in err
        assert "u1 fails" not in err


def violation_records(violations):
    """The structured form of each violation, built field by field."""
    return [{"law": v.law, "witness": list(v.witness), "lhs": v.lhs, "rhs": v.rhs,
             "subject": v.subject, "detail": v.detail} for v in violations]


def structured(out):
    """The document printed as ``out``, after checking its bytes against ``json.dumps``."""
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


class TestStructuredViolations:
    @pytest.mark.parametrize("verbose", (False, True), ids=("first", "verbose"))
    @pytest.mark.parametrize("u1, u2", [
        ("luk-upper(e=2,n=4)", "luk-upper(e=2,n=4)"),
        ("idemmin(e=2,n=4)", "luk-upper(e=1,n=4)"),
    ], ids=("equal", "greater"))
    def test_check_records_match_the_library(self, capsys, u1, u2, verbose):
        code, out, _ = run(capsys, "check", "--u1", u1, "--u2", u2, "--format", "structured",
                           *["--verbose"] * verbose)
        assert code == 1
        doc = structured(out)
        result = classify_and_check(from_string(u1), from_string(u2), verbose=verbose)
        for route in ("conditions", "exhaustive"):
            violations = getattr(result, route).violations
            assert violations, route
            assert doc[route]["violations"] == violation_records(violations), route
        assert doc["divergence"] is None

    def test_check_records_carry_every_field(self, capsys):
        _, out, _ = run(capsys, "check", "--u1", "luk-upper(e=2,n=4)",
                        "--u2", "luk-upper(e=2,n=4)", "--format", "structured")
        assert structured(out)["conditions"]["violations"] == [
            {"law": "idempotency", "witness": [3], "lhs": 4, "rhs": 3, "subject": "u2",
             "detail": ""}]
        _, out, _ = run(capsys, "check", "--u1", "idemmin(e=2,n=4)",
                        "--u2", "luk-upper(e=1,n=4)", "--format", "structured")
        assert structured(out)["conditions"]["violations"][-1] == {
            "law": "clause-iii-distributivity", "witness": [2, 1, 1], "lhs": 2, "rhs": 3,
            "subject": "", "detail": "indices shifted by -e2 onto the upper subchain"}

    @pytest.mark.parametrize("verbose", (False, True), ids=("first", "verbose"))
    def test_validate_records_match_the_library(self, capsys, tmp_path, verbose):
        # symmetric, so it parses, but row 2 drops below row 1 in column 2
        path = tmp_path / "nonmono.tbl"
        path.write_text("scale 2\nneutral 1\n0 0 2\n0 1 2\n2 2 1\n")
        code, out, _ = run(capsys, "validate", "--table", str(path), "--format", "structured",
                           *["--verbose"] * verbose)
        assert code == 1
        doc = structured(out)
        table, e = parse_table(path.read_text())
        violations = validate_uninorm(table, e, verbose=verbose).violations
        assert doc["violations"] == violation_records(violations)
        assert doc["violations"][0] == {"law": "monotonicity", "witness": [1, 2, 2], "lhs": 2,
                                        "rhs": 1, "subject": "", "detail": ""}


def printing_commands(tmp_path):
    """One successful call of each command that prints a report."""
    u1, u2 = idem_min(4, 2), idem_min(4, 1)
    path = tmp_path / "d.txt"
    path.write_text(dump_decomposition(decompose(u1, u2), u1.scale, 2, 1))
    return {
        "validate": ["validate", "--table", "luk-upper(e=2,n=4)"],
        "classify": ["classify", "--table", "idemmin(e=2,n=4)"],
        "check": ["check", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=2,n=4)", "--verbose"],
        "decompose": ["decompose", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=1,n=4)"],
        "compose": ["compose", "--decomposition", str(path)],
        "enumerate": ["enumerate", "--n", "4", "--e", "2"],
        "scan": ["scan", "--n", "4", "--e1", "2", "--e2", "1"],
        "certify": ["certify", "--n", "3", "--no-timing"],
    }


class TestStructuredBytes:
    # enumerate has its own byte test above, and certify its goldens and planted divergences
    @pytest.mark.parametrize("name", ["validate", "classify", "check", "decompose", "compose",
                                      "scan"])
    def test_each_document_is_written_as_the_json_module_writes_it(self, capsys, tmp_path,
                                                                   name):
        # the documents hold the program's row tuples, each rendered once by identity
        code, out, _ = run(capsys, *printing_commands(tmp_path)[name], "--format", "structured")
        assert code == 0
        doc = structured(out)
        if name == "scan":
            assert doc["count"] == len(doc["pairs"]) > 1
            assert all(p["necessity"] and p["decomposition"] for p in doc["pairs"])


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"formats.{name} called")
    return call


class TestRenderOnlyWhatIsPrinted:
    def test_structured_output_renders_no_text(self, capsys, monkeypatch, tmp_path):
        commands = printing_commands(tmp_path)
        expected = {name: run(capsys, *argv, "--format", "structured")[:2]
                    for name, argv in commands.items()}
        text_renderers = ["dump_table", "dump_decomposition",
                          *(name for name in dir(formats) if name.startswith("render_"))]
        for name in text_renderers:
            monkeypatch.setattr(formats, name, refuse(name))
        for name, argv in commands.items():
            code, out, _ = run(capsys, *argv, "--format", "structured")
            assert (code, out) == expected[name], name
            assert code == 0 and out.startswith("{"), name

    def test_text_output_builds_no_document(self, capsys, monkeypatch, tmp_path):
        commands = printing_commands(tmp_path)
        for name in ["to_json", *(name for name in dir(formats) if name.endswith("_doc"))]:
            monkeypatch.setattr(formats, name, refuse(name))
        for name, argv in commands.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out and not out.startswith("{"), name


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unichain.cli", "check",
             "--u1", "min(n=3)", "--u2", "max(n=3)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "distributive: true" in proc.stdout


class TestStartUp:
    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "3", "--e1", "2", "--e2", "1"],
        ["enumerate", "--n", "4", "--e", "1"],
        ["certify", "--n", "3", "--no-timing"],
        ["check", "--u1", "min(n=3)", "--u2", "max(n=3)"],
    ], ids=lambda argv: argv[0])
    def test_runs_where_numpy_cannot_be_imported(self, capsys, argv):
        # no command needs numpy: a None entry in sys.modules fails its import
        argv = [*argv, "--format", "structured"]
        script = ("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  "from unichain.cli import main\n"
                  f"sys.exit(main({argv!r}))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert out.startswith("{")

    def test_the_import_starts_no_process_machinery(self):
        # every command runs in this process: nothing imports a process pool
        script = ("import sys, unichain.cli\n"
                  "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_two_calls_build_one_parser(self, capsys):
        # the command tree is built at the first call, not at the import, and then kept
        script = "import unichain.cli\nprint(unichain.cli.build_parser.cache_info().misses)\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run(capsys, "classify", "--table", "min(n=2)")[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestReadme:
    """README's command table names each subcommand's own options, and its
    library example runs."""

    README = Path(__file__).parents[1] / "README.md"
    SHARED = {"-h", "--help", "--format", "--out", "--max-n"}

    @staticmethod
    def subparsers():
        action, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_row_names_its_command_options(self):
        rows = {}
        for line in self.README.read_text(encoding="utf-8").splitlines():
            row = re.match(r"\| `([a-z]+) [^|]*\|", line)
            if row and row[1] in self.subparsers():
                rows[row[1]] = set(re.findall(r"--[a-z][a-z0-9-]*", line)) - self.SHARED
        for name, parser in self.subparsers().items():
            options = {o for a in parser._actions for o in a.option_strings} - self.SHARED
            assert rows.get(name) == options, name

    def test_every_python_block_runs(self):
        blocks = re.findall(r"^```python\n(.*?)^```", self.README.read_text(encoding="utf-8"),
                            re.M | re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(self.README), "exec"), {})

    def test_the_max_n_sentence_names_the_limited_commands(self):
        text = " ".join(self.README.read_text(encoding="utf-8").split())
        sentence = re.search(r"`--max-n N` to (.*?)\.", text)[1]
        limited = {name for name, parser in self.subparsers().items()
                   if "--max-n" in parser._option_string_actions}
        assert set(re.findall(r"`([a-z]+)`", sentence)) == limited
