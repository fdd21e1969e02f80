"""Command-line interface: exit statuses, formats, file round trips."""

import json
import subprocess
import sys

import pytest

from conftest import FIXTURES_DIR
from helpers import flip_conditions, idem_min, luk_upper
from unichain import ChainScale, cli, decompose, scan_pairs, search
from unichain.cli import main
from unichain.core import MAX_SCALE
from unichain.formats import dump_decomposition, dump_table, parse_table


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

    def test_max_n_tightens_the_limit(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "4", "--max-n", "3")
        assert code == 3
        code, out, err = run(capsys, "certify", "--n", "2", "--max-n", "3")
        assert code == 0

    def test_negative_pair_budget_is_status_two(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "2", "--pair-budget", "-5")
        assert code == 2
        assert "pair budget" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("certify", "--n", "3", "--workers", "0"),
        ("enumerate", "--n", "3", "--e", "1", "--workers", "-2"),
    ], ids=["certify", "enumerate"])
    def test_worker_count_below_one_is_status_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "worker count must be at least 1" in err and out == ""

    def test_repeated_spec_key_is_status_two_with_caret(self, capsys):
        code, out, err = run(capsys, "validate", "--table", "idemmin(e=2,n=4,n=5)")
        assert code == 2
        assert err == ("error: repeated key 'n'\n  idemmin(e=2,n=4,n=5)\n"
                       "                  ^\n")

    def test_input_scale_above_the_limit_is_status_three(self, capsys, tmp_path):
        path = tmp_path / "large.tbl"
        path.write_text(f"scale {MAX_SCALE + 1}\nneutral 0\n")
        code, out, err = run(capsys, "validate", "--table", str(path))
        assert code == 3
        assert err.startswith("refused: ") and out == ""

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

    def test_enumerate_workers_equivalent(self, capsys):
        _, single, _ = run(capsys, "enumerate", "--n", "3", "--e", "1", "--format", "structured")
        _, multi, _ = run(capsys, "enumerate", "--n", "3", "--e", "1", "--workers", "2",
                          "--format", "structured")
        assert single == multi

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

    def test_certify_l4_matches_golden(self, capsys):
        golden = (FIXTURES_DIR / "certify_l4.json").read_text(encoding="utf-8")
        for workers in ("1", "2"):
            code, out, err = run(capsys, "certify", "--n", "4", "--format", "structured",
                                 "--no-timing", "--workers", workers)
            assert code == 0, f"--workers {workers}"
            assert out == golden, f"--workers {workers}"

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

    def test_decompose_refusal_status_one(self, capsys):
        code, out, err = run(capsys, "decompose", "--u1", "idemmin(e=2,n=4)",
                             "--u2", "luk-upper(e=2,n=4)")
        assert code == 1
        assert "not distributive" in err

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


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unichain.cli", "check",
             "--u1", "min(n=3)", "--u2", "max(n=3)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "distributive: true" in proc.stdout
