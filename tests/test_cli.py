import json
import time

import pytest

from capelli import bfunction
from capelli.cli import main
from capelli.poly import UniPoly
from capelli.weyl import NotProportional


def run_cli(args):
    """Invoke the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestCatalogList:
    def test_table(self, capsys):
        assert run_cli(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "(GL(n) x SL(n), M_n(C))" in out
        assert out.count("disputed") == 2

    def test_json_roundtrip_is_byte_identical(self, capsys):
        assert run_cli(["catalog", "list", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert len(doc) == 8
        assert json.dumps(doc, indent=2) == out.strip()


class TestBs:
    def test_compute_match(self, capsys):
        assert run_cli(["bs", "compute", "--case", "4", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "(s+1)(s+2)" in out
        assert "verdict = match" in out

    def test_compute_determinant_n5(self, capsys):
        # 120 Delta monomials on a 120-term f: certifies through shared derivatives
        assert run_cli(["bs", "compute", "--case", "4", "--size", "5"]) == 0
        out = capsys.readouterr().out
        assert "(s+1)(s+2)(s+3)(s+4)(s+5)" in out
        assert "verdict = match" in out

    def test_compute_alternating_n8(self, capsys):
        # the Pfaffian's minors are shared because the entries run column by column
        assert run_cli(["bs", "compute", "--case", "3", "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "b = (s+1)(s+3)(s+5)(s+7)  " in out
        assert "verdict = mismatch-disputed-row" in out

    def test_compute_json(self, capsys):
        assert run_cli(["bs", "compute", "--case", "2", "--size", "2", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["b_monic"] == ["3/2", "5/2", "1/1"]
        assert doc["verdict"] == "match"
        assert json.dumps(doc, indent=2) == out.strip()

    def test_verify_all_min_soft_exit(self, capsys):
        assert run_cli(["bs", "verify-all", "--sizes", "min"]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict = match") == 7
        assert out.count("mismatch-disputed-row") == 2
        assert "warning" in out
        assert "0 hard mismatches" in out

    def test_verify_all_json(self, capsys):
        assert run_cli(["bs", "verify-all", "--sizes", "min", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 9
        assert {row["verdict"] for row in doc} == {"match", "mismatch-disputed-row"}

    def test_hard_mismatch_exits_one(self, capsys, monkeypatch):
        wrong = UniPoly.from_offsets("s", [1, 5])

        def fake_compute_b(inst):
            return wrong, bfunction.Fraction(1)

        monkeypatch.setattr(bfunction, "compute_b", fake_compute_b)
        assert run_cli(["bs", "compute", "--case", "4", "--size", "2"]) == 1
        assert run_cli(["bs", "verify-all", "--sizes", "min"]) == 1


    def test_not_proportional_exits_one(self, capsys, monkeypatch):
        def failing_compute_b(inst):
            raise NotProportional("planted")

        monkeypatch.setattr(bfunction, "compute_b", failing_compute_b)
        assert run_cli(["bs", "compute", "--case", "4", "--size", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: twisted computation not proportional: planted\n"


class TestAlgebra:
    def test_nf_contraction(self, capsys):
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", "delta*f"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1/4*theta^2 + 3/2*theta + 2"

    def test_nf_bad_expression_is_usage_error(self, capsys):
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", "f + + 2"]) == 2

    def test_nf_superscript_digit_is_usage_error(self, capsys):
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", "2²"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "'²'" in err

    def test_nf_high_theta_power(self, capsys):
        # the theta-shift by sigma = 0 is the identity, so this takes about a
        # second; a quadratic shift pass at sigma = 0 makes it minutes
        start = time.perf_counter()
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", "theta^3000"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out == "theta^3000\n"

    def test_fuzz(self, capsys):
        assert run_cli(["algebra", "fuzz", "--case", "4", "--size", "2",
                        "--trials", "50", "--seed", "3"]) == 0
        assert "0 discrepancies" in capsys.readouterr().out

    def test_fuzz_reports_counterexamples(self, planted_fault, capsys):
        assert run_cli(["algebra", "fuzz", "--case", "4", "--size", "2",
                        "--trials", "200", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "case (4) n=2: 200 random words, 13 discrepancies\n" in out
        # 13 words fail, and only the first 10 are printed
        assert out.count("  counterexample: ") == 10

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fuzz_without_trials_is_usage_error(self, trials, capsys):
        assert run_cli(["algebra", "fuzz", "--case", "4", "--size", "2",
                        "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nf_deep_nesting_is_usage_error(self, capsys):
        text = "(" * 2000 + "f" + ")" * 2000
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nf_long_flat_chain(self, capsys):
        # a left-deep tree 3,000 levels deep, far past the recursion limit
        text = "+".join(["1"] * 3000)
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", text]) == 0
        assert capsys.readouterr().out.strip() == "3000"

    @pytest.mark.parametrize("text", ["9" * 5000, "f^" + "1" * 5000, "1/" + "3" * 5000],
                             ids=["integer", "exponent", "denominator"])
    def test_nf_numeral_past_the_digit_limit_is_usage_error(self, text, capsys):
        # 5,000 digits is past the interpreter's 4,300-digit int-string limit
        assert run_cli(["algebra", "nf", "--case", "4", "--size", "2", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestModule:
    def test_ladder_json_roundtrip(self, capsys):
        assert run_cli(["module", "ladder", "--case", "4", "--size", "2",
                        "--lambda", "0", "--window", "0:3", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["weights"] == ["0/1", "2/1", "4/1", "6/1"]
        assert json.dumps(doc, indent=2) == out.strip()

    def test_psi_witness(self, capsys):
        assert run_cli(["module", "psi", "--case", "1", "--size", "2",
                        "--lambda", "1/2", "--window", "-2:2"]) == 0
        assert "equivalence witness: pass" in capsys.readouterr().out

    def test_psi_json(self, capsys):
        assert run_cli(["module", "psi", "--case", "1", "--size", "2",
                        "--lambda", "1/2", "--window", "-2:2", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["witness"]["passed"] is True
        assert json.dumps(doc, indent=2) == out.strip()

    def test_psi_deep_window(self, capsys):
        assert run_cli(["module", "psi", "--case", "1", "--size", "2",
                        "--lambda", "0", "--window", "600:601"]) == 0
        assert "equivalence witness: pass" in capsys.readouterr().out

    def test_breaks_formatting(self, capsys):
        assert run_cli(["module", "breaks", "--case", "4", "--size", "2",
                        "--lambda", "0", "--window", "-4:4"]) == 0
        assert capsys.readouterr().out.strip() == "{-1, 0}"

    def test_breaks_multiplicity(self, capsys):
        assert run_cli(["module", "breaks", "--case", "1", "--size", "2",
                        "--lambda", "0", "--window", "-3:3"]) == 0
        assert capsys.readouterr().out.strip() == "{0 (multiplicity 2)}"


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["bs", "compute", "--case", "9", "--size", "2"],
        ["bs", "compute", "--case", "3", "--size", "5"],
        ["bs", "compute", "--case", "6", "--size", "7"],
        ["module", "ladder", "--case", "4", "--size", "2",
         "--lambda", "0", "--window", "4:-4"],
        ["module", "ladder", "--case", "4", "--size", "2",
         "--lambda", "x", "--window", "0:3"],
    ])
    def test_usage_errors(self, args, capsys):
        assert run_cli(args) == 2

    @pytest.mark.parametrize("text", ["1e3000000", "1.5", "1" * 5001],
                             ids=["exponent", "decimal-point", "5001-digits"])
    def test_lambda_outside_the_grammar(self, text, capsys):
        start = time.perf_counter()
        assert run_cli(["module", "breaks", "--case", "4", "--size", "2",
                        "--lambda", text, "--window", "0:1"]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad rational") and err.count("\n") == 1
        assert len(err) < 120

    @pytest.mark.parametrize("text", [" +0:1_0", "0:1_0", "0 :1", "+0:1", "0:", "1.0:2",
                                      "0:1:2", "1" * 5001 + ":1"],
                             ids=["padded-sign-underscore", "underscore", "space", "plus",
                                  "empty-end", "decimal-point", "three-ends", "5001-digits"])
    def test_window_outside_the_grammar(self, text, capsys):
        assert run_cli(["module", "breaks", "--case", "4", "--size", "2",
                        "--lambda", "0", "--window", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad window {text[:40]!r}: expected a:b with integers\n"

    def test_negative_window_ends(self, capsys):
        assert run_cli(["module", "breaks", "--case", "4", "--size", "2",
                        "--lambda", "0", "--window", "-3:-1"]) == 0

    def test_missing_subcommand(self, capsys):
        assert run_cli(["bs"]) == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["catalog", "list", "--frobnicate"]) == 2

    # results whose numerals pass the interpreter's 4,300-digit int-string
    # limit: the library raises ValueError while printing them
    BIG = "1" + "0" * 4000

    @pytest.mark.parametrize("args", [
        ["algebra", "nf", "--case", "4", "--size", "2", "10^5000"],
        ["module", "ladder", "--case", "8", "--size", "4", "--lambda", BIG, "--window", "0:1"],
        ["module", "ladder", "--case", "8", "--size", "4", "--lambda", BIG, "--window", "0:1",
         "--json"],
        ["module", "psi", "--case", "4", "--size", "2", "--lambda", BIG + "/3",
         "--window", "0:1"],
    ], ids=["nf", "ladder", "ladder-json", "psi"])
    def test_result_too_long_to_print_is_usage_error(self, args, capsys):
        assert run_cli(args) == 2
        out, err = capsys.readouterr()
        assert out == ""                # the text is built whole before printing
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
