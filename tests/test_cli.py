"""End-to-end tests for the fqx command line: exit codes, output schemas,
shift parsing, sweeps, and byte-level determinism."""

import csv
import io
import json

import pytest

from fqx.cli import CSV_COLUMNS, _jsonable, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSpecExamples:
    def test_prime_count_small(self, capsys):
        code, out, _ = run(capsys, "prime-count", "--q", "3", "--n", "2")
        assert code == 0
        d = json.loads(out)
        assert d["empirical"]["pi"] == 3
        assert d["predicted"]["necklace"] == 3
        assert d["verdict"] is True

    def test_var_divisor_vanishing_band(self, capsys):
        code, out, _ = run(capsys, "var-divisor", "--q", "5", "--n", "6",
                           "--h", "3", "--k", "2")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] is True
        assert d["abs_error"] == 0.0
        assert d["extra"]["vanishing_band"] is True
        assert d["extra"]["mean_square_exact"] == "0/1"

    def test_chowla_constant_shifts(self, capsys):
        code, out, _ = run(capsys, "chowla", "--q", "101", "--n", "2",
                           "--shifts", "0,1", "--exps", "1,1")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] is True
        assert d["normalized_error"] <= 5.0
        assert d["params"]["shifts"] == ["0", "1"]
        assert d["params"]["exponents"] == [1, 1]


class TestExitCodes:
    def test_precondition_is_2(self, capsys):
        code, _, err = run(capsys, "prime-count", "--q", "6", "--n", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_budget_is_3(self, capsys):
        code, _, err = run(capsys, "prime-count", "--q", "7", "--n", "12",
                           "--budget", "1000")
        assert code == 3
        assert "budget" in err

    def test_verdict_failure_is_4(self, capsys):
        # 8 sampled intervals are too few; this seed lands outside 40%
        code, out, _ = run(capsys, "var-psi", "--q", "31", "--n", "7",
                           "--h", "0", "--mode", "sampled",
                           "--intervals", "8", "--seed", "1")
        assert code == 4
        assert json.loads(out)["verdict"] is False

    def test_divisor_corr_below_asymptotic_q_not_judged(self, capsys):
        # q = 17 < 25: the mean misses 100 by more than 10/sqrt(q), unjudged
        code, out, _ = run(capsys, "divisor-corr", "--q", "17", "--n", "4",
                           "--r", "3", "--shift", "1")
        assert code == 0
        assert json.loads(out)["verdict"] is None

    def test_other_library_error_is_1(self, capsys):
        # k >= 3 midrange divisor integral has no closed form
        code, _, err = run(capsys, "matrix-integral", "--family", "divisor",
                           "--k", "3", "--m", "7", "--N", "5")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("var-psi", "--q", "5", "--n", "4", "--h", "1", "--mode", "sampled",
         "--intervals", "0"),
        ("chowla", "--q", "5", "--n", "4", "--shifts", "0,1", "--mode", "sampled",
         "--samples", "0"),
        ("interval-primes", "--q", "5", "--n", "4", "--h", "1", "--intervals", "0"),
    ])
    def test_zero_sample_count_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: need") and ">= 1, got 0" in err
        assert out == ""

    def test_divisor_k_past_int64(self, capsys):
        # d_1000 of M_8 over F_3 leaves int64; the sums stay exact
        code, out, _ = run(capsys, "var-divisor", "--q", "3", "--n", "8",
                           "--h", "6", "--k", "1000")
        assert code == 0
        assert json.loads(out)["extra"]["mean_matches_identity"] is True

    def test_bad_poly_text_is_2(self, capsys):
        code, _, _ = run(capsys, "factor", "--q", "5", "--poly", "1,zz,1")
        assert code == 2

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prime-count", "--q", "3", "--n", "2", "--plot"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestCsvSchema:
    def test_single_run_columns(self, capsys):
        code, out, _ = run(capsys, "prime-count", "--q", "3", "--n", "2",
                           "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["command"] == "prime-count"
        assert row["q"] == "3" and row["n"] == "2"
        assert row["empirical"] == "3" and row["predicted"] == "3"

    def test_params_fill_their_columns(self, capsys):
        code, out, _ = run(capsys, "var-divisor", "--q", "3", "--n", "5",
                           "--h", "3", "--k", "2", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["h"], row["k"], row["r"]) == ("3", "2", "")


class TestDeterminism:
    def test_json_identical_modulo_millis(self, capsys):
        _, out1, _ = run(capsys, "var-mobius", "--q", "7", "--n", "4",
                         "--h", "0")
        _, out2, _ = run(capsys, "var-mobius", "--q", "7", "--n", "4",
                         "--h", "0")
        lines1, lines2 = out1.splitlines(), out2.splitlines()
        assert len(lines1) == len(lines2)
        for a, b in zip(lines1, lines2):
            if a != b:
                assert '"millis"' in a and '"millis"' in b

    def test_json_rounding_is_idempotent(self, capsys):
        _, out, _ = run(capsys, "var-psi", "--q", "7", "--n", "5", "--h", "0")
        d = json.loads(out)
        assert json.dumps(_jsonable(d), indent=2) + "\n" == out

    def test_sampled_run_reproducible(self, capsys):
        args = ("interval-primes", "--q", "31", "--n", "4", "--h", "1",
                "--intervals", "3", "--seed", "9", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        h1, r1 = parse_csv(out1)
        h2, r2 = parse_csv(out2)
        drop = h1.index("millis")
        for a, b in zip(r1, r2):
            assert a[:drop] + a[drop + 1:] == b[:drop] + b[drop + 1:]


class TestShiftParsing:
    def test_semicolon_polynomials(self, capsys):
        code, out, _ = run(capsys, "twin", "--q", "5", "--n", "4",
                           "--shifts", "0,1;1,1")
        assert code == 0
        assert json.loads(out)["params"]["shifts"] == ["0,1", "1,1"]

    def test_trailing_semicolon_single_poly(self, capsys):
        code, out, _ = run(capsys, "chowla", "--q", "5", "--n", "3",
                           "--shifts", "0,1;")
        assert code == 0
        d = json.loads(out)
        assert d["params"]["shifts"] == ["0,1"]
        assert d["params"]["r"] == 1

    def test_duplicate_shifts_exit_2(self, capsys):
        code, _, err = run(capsys, "twin", "--q", "5", "--n", "3",
                           "--shifts", "2,2")
        assert code == 2
        assert "distinct" in err

    def test_all_even_exponents_exit_2(self, capsys):
        code, _, _ = run(capsys, "chowla", "--q", "5", "--n", "3",
                         "--shifts", "0,1", "--exps", "2,2")
        assert code == 2


class TestSweep:
    def test_rows_and_error_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--command", "chowla",
                           "--q", "5,6,7", "--n", "3", "--shifts", "0,1")
        assert code == 0
        header, rows = parse_csv(out)
        assert tuple(header) == CSV_COLUMNS + ("error",)
        assert len(rows) == 3
        byq = {r[1]: dict(zip(header, r)) for r in rows}
        assert byq["6"]["error"].startswith("CompositeModulus")
        assert byq["6"]["empirical"] == ""
        assert byq["5"]["error"] == "" and byq["7"]["error"] == ""
        assert byq["7"]["empirical"] == "-91"

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--command", "var-psi",
                           "--q", "", "--n", "5", "--h", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert tuple(header) == CSV_COLUMNS + ("error",)
        assert rows == []

    def test_cartesian_product_order(self, capsys):
        code, out, _ = run(capsys, "sweep", "--command", "var-psi",
                           "--q", "3,5", "--n", "5", "--h", "0,1")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[1], r[3]) for r in rows] == [
            ("3", "0"), ("3", "1"), ("5", "0"), ("5", "1")]

    def test_wrong_axis_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--command", "prime-count",
                           "--q", "3", "--n", "2", "--h", "0")
        assert code == 2
        assert "does not take --h" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "sweep", "--command", "var-psi",
                           "--q", "3", "--n", "5")
        assert code == 2
        assert "needs --h" in err

    def test_mode_checked_against_command(self, capsys):
        code, _, _ = run(capsys, "sweep", "--command", "var-psi",
                         "--q", "3", "--n", "5", "--h", "0",
                         "--mode", "necklace_only")
        assert code == 2


class TestLFunctions:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "l-functions", "--q", "3",
                           "--modulus", "0,0,1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["character", "even", "primitive", "coefficients",
                          "angles"]
        # Phi(x^2) = q^2 - q = 6 classes, trivial character skipped
        assert len(rows) == 5
        for r in rows:
            assert r[3].startswith("1+0j")
            assert r[1] in ("true", "false") and r[2] in ("true", "false")

    def test_json_even_primitive(self, capsys):
        code, out, _ = run(capsys, "l-functions", "--q", "5",
                           "--modulus", "0,0,0,1", "--filter",
                           "even_primitive", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert len(d["characters"]) == 20
        for rec in d["characters"]:
            assert rec["even"] and rec["primitive"]
            assert rec["degree"] == 2
            assert rec["coefficients"][0] == {"re": 1.0, "im": 0.0}
            assert len(rec["angles"]) == 1  # trivial zero removed
            assert 0.0 <= rec["angles"][0] < 6.2831853072


class TestOtherCommands:
    def test_factor_csv(self, capsys):
        code, out, _ = run(capsys, "factor", "--q", "5",
                           "--poly", "4,0,0,0,0,1", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["factor", "multiplicity"]
        assert rows == [["4,1", "5"]]  # x^5 + 4 = (x + 4)^5 over F_5

    def test_factor_json(self, capsys):
        code, out, _ = run(capsys, "factor", "--q", "3", "--poly", "1,0,1")
        assert code == 0
        d = json.loads(out)
        assert d["irreducible"] is True
        assert d["factors"] == [{"factor": "1,0,1", "multiplicity": 1}]

    def test_matrix_integral_closed_forms(self, capsys):
        code, out, _ = run(capsys, "matrix-integral", "--family", "rodgers",
                           "--n", "6", "--N", "3")
        assert code == 0
        assert json.loads(out)["empirical"]["value"] == 35.0
        code, out, _ = run(capsys, "matrix-integral", "--family",
                           "power-trace", "--j", "4", "--N", "2")
        assert code == 0
        assert json.loads(out)["empirical"]["value"] == 2.0

    def test_matrix_integral_mc_matches_closed(self, capsys):
        code, out, _ = run(capsys, "matrix-integral", "--family", "divisor",
                           "--k", "2", "--m", "4", "--N", "5",
                           "--mode", "monte_carlo", "--samples", "20000")
        assert code == 0
        d = json.loads(out)
        assert d["predicted"]["closed_form"] == 35.0
        assert d["verdict"] is True
        assert d["empirical"]["stderr"] > 0

    def test_katz_small(self, capsys):
        code, out, _ = run(capsys, "katz", "--q", "5", "--N", "2",
                           "--samples", "2000")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] is None  # q below the judged range
        assert set(d["empirical"]) == {"average"}
        assert set(d["predicted"]) == {"haar"}

    @pytest.mark.parametrize("argv", [
        ("matrix-integral", "--family", "rodgers", "--n", "6", "--N", "3"),
        ("katz", "--q", "5", "--N", "2", "--samples", "2000"),
    ])
    def test_cli_built_reports_are_timed(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["millis"] > 0
        code, out, _ = run(capsys, *argv, "--format", "csv")
        header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS) and float(rows[0][-1]) > 0

    def test_interval_cycles_reachable(self, capsys):
        code, out, _ = run(capsys, "interval-cycles", "--q", "7", "--n", "3",
                           "--h", "1", "--lam", "3,0,0",
                           "--mode", "exhaustive")
        assert code == 0
        assert json.loads(out)["extra"]["p_lambda"] == "1/6"

    def test_ap_primes_reachable(self, capsys):
        code, out, _ = run(capsys, "ap-primes", "--q", "7", "--n", "5",
                           "--modulus", "0,1", "--residue", "1")
        assert code == 0
        d = json.loads(out)
        assert d["empirical"]["count"] == 560  # pi_7(5)/Phi(x) = 3360/6

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code = main(["cycle-census", "--q", "3", "--n", "2",
                     "--out", str(path)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == ""
        d = json.loads(path.read_text())
        assert d["experiment"] == "cycle_census"


class TestHelp:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        for name in ("prime-count", "interval-primes", "interval-cycles",
                     "cycle-census", "ap-primes", "chowla", "twin",
                     "divisor-corr", "joint-cycles", "var-psi", "var-mobius",
                     "var-lambda2", "var-g", "var-divisor", "l-functions",
                     "factor", "matrix-integral", "katz", "sweep"):
            assert name in out
        for cite in ("Keating-Rudnick", "Rodgers", "Bank, Bary-Soroker",
                     "Pellet", "Katz", "Diaconis-Shahshahani"):
            assert cite in out
