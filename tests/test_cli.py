"""End-to-end CLI behavior: output, formats, exit codes, determinism."""

import hashlib
import json
import time

import pytest

from bridgekit import census, epim
from bridgekit.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    load_config,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_reference_word(self, capsys):
        code, out, _ = run(capsys, "invariants", "2,-4,4,-2")
        assert code == EXIT_OK
        assert "crossing: 9" in out and "braid: 4" in out

    def test_value_and_braid(self, capsys):
        code, out, _ = run(capsys, "invariants", "2,-2")
        assert code == EXIT_OK
        assert "value: 2/3" in out and "braid: 2" in out and "torus: T(3,2)" in out

    def test_zero_entry_is_parse_error(self, capsys):
        code, _, err = run(capsys, "invariants", "2,0,2")
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_odd_entry_rejected(self, capsys):
        code, _, err = run(capsys, "invariants", "2,3")
        assert code == EXIT_PARSE

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "invariants", "2,-2")
        payload = json.loads(out)
        assert payload["crossing"] == 3 and payload["name"] == "3_1"

    def test_decimal_flag(self, capsys):
        _, out, _ = run(capsys, "--decimal", "invariants", "2,-2")
        assert "value: 0.666666666667" in out


class TestCensus:
    def test_single_crossing(self, capsys):
        code, out, _ = run(capsys, "census", "4")
        assert code == EXIT_OK
        assert "| 4 | 1 | 0 | 3 | 1 | 0 | 3 |" in out

    def test_verify_range(self, capsys):
        code, out, _ = run(capsys, "census", "3..9", "--verify")
        assert code == EXIT_OK
        assert "agree" in out

    def test_verify_range_through_20(self, capsys):
        # enumeration against the closed forms at every c <= 20
        code, out, _ = run(capsys, "census", "3..20", "--verify")
        assert code == EXIT_OK
        assert "agree" in out

    def test_formulas_only_skips_ceiling(self, capsys):
        code, out, _ = run(capsys, "census", "100", "--formulas-only")
        assert code == EXIT_OK
        assert "105637550019019116791391933781" in out

    def test_ceiling_enforced(self, capsys):
        code, _, err = run(capsys, "census", "30")
        assert code == EXIT_RESOURCE
        assert "resource bound" in err

    def test_ceiling_override_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BRIDGEKIT_CEILING", "8")
        code, _, err = run(capsys, "census", "9")
        assert code == EXIT_RESOURCE

    def test_csv_format(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "census", "5")
        assert "5,4,8,5/2,2,4,5/2" in out

    def test_up_to_mirror_columns(self, capsys):
        _, out, _ = run(capsys, "census", "6", "--up-to-mirror")
        assert "| 6 | 3 | 4 | 10/3 |" in out

    def test_up_to_mirror_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "census", "5..6", "--up-to-mirror")
        assert code == EXIT_OK
        assert out.splitlines() == ["c,TK*,TS*,avg braid*", "5,2,4,5/2", "6,3,4,10/3"]

    def test_up_to_mirror_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "census", "6", "--up-to-mirror")
        assert code == EXIT_OK
        assert json.loads(out) == [{"c": 6, "tk_star": 3, "ts_star": 4, "avg_braid_star": "10/3"}]

    def test_formulas_only_verify_refused(self, capsys):
        code, out, err = run(capsys, "census", "16..17", "--formulas-only", "--verify")
        assert code == EXIT_PARSE
        assert "invalid input" in err
        assert out == ""

    def test_parallelism_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--parallelism", "2", "census", "5"])
        assert excinfo.value.code == 3
        with pytest.raises(SystemExit):
            main(["census", "5", "--parallelism", "2"])
        assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        # usage errors exit 3, but --help is not one
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == EXIT_OK
        assert "usage: bridgekit" in capsys.readouterr().out

    def test_non_integral_formula_is_mismatch(self, capsys, monkeypatch):
        import bridgekit.census as census

        monkeypatch.setattr(census, "closed_tk", lambda c: census.exact_div(7, 2))
        code, out, err = run(capsys, "census", "5", "--formulas-only")
        assert code == EXIT_MISMATCH and out == ""
        assert err == "verification failed: 7 is not divisible by 2\n"

    def test_verify_mismatch_exits_2(self, capsys, monkeypatch):
        import bridgekit.census as census

        corrupted = dict(census.TABLE2_REFERENCE)
        corrupted[5] = (99,) + corrupted[5][1:]
        monkeypatch.setattr(census, "TABLE2_REFERENCE", corrupted)
        code, _, err = run(capsys, "census", "5", "--verify")
        assert code == EXIT_MISMATCH
        assert "verify mismatch" in err


class TestEpi:
    def test_targets_torus15(self, capsys):
        word = ",".join(["2,-2"] * 7)
        code, out, _ = run(capsys, "epi", "targets", word)
        assert code == EXIT_OK
        assert "3_1 and 5_1" in out

    def test_minimal_prime_torus(self, capsys):
        code, out, _ = run(capsys, "epi", "minimal", "2,-2,2,-2,2,-2")
        assert code == EXIT_OK
        assert "minimal" in out and "not minimal" not in out

    def test_nonminimal_reports_images(self, capsys):
        code, out, _ = run(capsys, "epi", "minimal", "2,-4,4,-2")
        assert "not minimal (onto 3_1)" in out

    def test_check_no_epimorphism(self, capsys):
        code, out, _ = run(capsys, "epi", "check", "2,2", "2,-2")
        assert code == EXIT_OK
        assert "no epimorphism" in out

    def test_check_witness(self, capsys):
        code, out, _ = run(capsys, "epi", "check", "2,-2,2,-2,2,-4,2,-2", "2,-2")
        assert "epimorphism exists" in out and "cvec=[1, -2]" in out

    def test_budget_exceeded(self, capsys):
        word = ",".join(["2,-2"] * 7)
        code, _, err = run(capsys, "--budget", "3", "epi", "targets", word)
        assert code == EXIT_RESOURCE
        assert "budget" in err

    def test_budget_bounds_target_enumeration(self, capsys):
        # c = 2001: the search reads 333 targets off the word, so the
        # budget must charge each target, not only each parse
        word = ",".join(["2,-2"] * 1000)
        start = time.monotonic()
        code, out, err = run(capsys, "--budget", "1000", "epi", "targets", word)
        assert code == EXIT_RESOURCE and out == ""
        assert time.monotonic() - start < 10
        assert "exceeded 1000 nodes at target" in err and "r=" in err

    def test_long_torus_search_is_linear(self, capsys):
        # every prefix of the word is a candidate target; recounting the
        # crossings of each one made the search quadratic in the length
        code, out, _ = run(capsys, "epi", "targets", ",".join(["2,-2"] * 10000))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eb34c4a09f6b76429101b0ffdb82dd43a3a33b8cca819e618e69b7ad6c5e1e70"
        )
        start = time.monotonic()
        code, out, _ = run(capsys, "epi", "targets", ",".join(["2,-2"] * 30000))
        assert code == EXIT_OK and "r=" in out  # 60001 = 29 * 2069
        assert time.monotonic() - start < 2

    def test_long_entry_bounds_the_search(self, capsys):
        # c > 10**9 allows r up to 10**8 by crossings; the word's length allows r = 1
        start = time.monotonic()
        code, out, _ = run(capsys, "epi", "targets", "2,-2,2,-1000000000")
        assert code == EXIT_OK and "none" in out
        assert time.monotonic() - start < 1

    def test_audit_failure_is_mismatch(self, capsys, monkeypatch):
        # a parse that does not recompose to the big knot must not be reported
        monkeypatch.setattr(epim, "canonical_word", lambda word: ())
        code, out, err = run(capsys, "epi", "targets", ",".join(["2,-2"] * 4))
        assert code == EXIT_MISMATCH and out == ""
        assert err.startswith("verification failed:") and err.count("\n") == 1

    def test_merge_cancellation_is_mismatch(self, capsys, monkeypatch):
        def cancel(params):
            raise epim.MergeCancellation("boundary entries cancelled")

        monkeypatch.setattr(epim, "ors_compose", cancel)
        code, _, err = run(capsys, "epi", "check", ",".join(["2,-2"] * 4), "2,-2")
        assert code == EXIT_MISMATCH
        assert err == "verification failed: boundary entries cancelled\n"

    def test_graph_dot_default(self, capsys):
        code, out, _ = run(capsys, "epi", "graph", "--max-c", "9")
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_graph_json(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "epi", "graph", "--max-c", "9")
        payload = json.loads(out)
        assert payload["max_crossing"] == 9

    def test_graph_respects_ceiling(self, capsys):
        code, _, err = run(capsys, "epi", "graph", "--max-c", "30")
        assert code == EXIT_RESOURCE
        assert "resource bound" in err


class TestTable1:
    def test_small_horizon(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-c", "9")
        assert code == EXIT_OK
        assert out.count("\n| ") >= 3
        assert "diff vs reference (c <= 9): empty" in out

    def test_trefoil_horizon(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-c", "3")
        assert code == EXIT_OK

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "table1", "--max-c", "9")
        payload = json.loads(out)
        assert [row["type"] for row in payload] == ["2", "3A2", "4B3"]


class TestIdentities:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--n-max", "25")
        assert code == EXIT_OK
        assert out.count("pass") == 7

    def test_n_max_above_bound_is_resource_error(self, capsys):
        start = time.perf_counter()
        n_max = str(census.IDENTITIES_N_MAX + 1)
        code, out, err = run(capsys, "identities", "--n-max", n_max)
        assert code == EXIT_RESOURCE
        assert out == "" and "resource bound" in err
        assert time.perf_counter() - start < 1.0


class TestFlagsAfterSubcommand:
    """Every shared flag means the same before and after the subcommand."""

    T15 = ",".join(["2,-2"] * 7)

    @pytest.mark.parametrize(
        "flags, command",
        [
            (["--format", "json"], ["epi", "graph", "--max-c", "5"]),
            (["--format", "json"], ["invariants", "2,-2"]),
            (["--format", "csv"], ["table1", "--max-c", "9"]),
            (["--format", "json"], ["epi", "targets", T15]),
            (["--decimal"], ["invariants", "2,-4,4,-2"]),
            (["--decimal", "--format", "csv"], ["census", "3..7"]),
            (["--ceiling", "6"], ["census", "7"]),
            (["--budget", "3"], ["epi", "targets", T15]),
            (["--format", "dot"], ["identities", "--n-max", "3"]),
        ],
    )
    def test_same_output_and_exit_code(self, capsys, flags, command):
        before = run(capsys, *flags, *command)
        after = run(capsys, *command, *flags)
        assert after == before

    def test_between_epi_and_its_subcommand(self, capsys):
        before = run(capsys, "--format", "json", "epi", "targets", self.T15)
        between = run(capsys, "epi", "--format", "json", "targets", self.T15)
        assert between == before and before[0] == EXIT_OK

    def test_config_file(self, tmp_path, capsys):
        config_file = tmp_path / "bridgekit.conf"
        config_file.write_text("enumeration_ceiling = 8\noutput_format = csv\n")
        for c in ("8", "9"):
            before = run(capsys, "--config", str(config_file), "census", c)
            after = run(capsys, "census", c, "--config", str(config_file))
            assert after == before
        assert before[0] == EXIT_RESOURCE

    def test_flag_after_subcommand_overrides_flag_before(self, capsys):
        overridden = run(capsys, "--format", "csv", "census", "5", "--format", "json")
        assert overridden == run(capsys, "--format", "json", "census", "5")


class TestConfig:
    def test_config_file(self, tmp_path, capsys):
        config_file = tmp_path / "bridgekit.conf"
        config_file.write_text("# settings\nenumeration_ceiling = 8\noutput_format = csv\n")
        config = load_config(str(config_file))
        assert config.enumeration_ceiling == 8
        assert config.output_format == "csv"
        code, _, err = run(capsys, "--config", str(config_file), "census", "9")
        assert code == EXIT_RESOURCE

    def test_bad_config_key(self, tmp_path):
        config_file = tmp_path / "bad.conf"
        config_file.write_text("mystery = 1\n")
        with pytest.raises(ValueError):
            load_config(str(config_file))

    def test_bad_ceiling_rejected(self, capsys):
        code, _, err = run(capsys, "--ceiling", "2", "census", "3")
        assert code == EXIT_PARSE
        assert "configuration error" in err
