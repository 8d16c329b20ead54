"""End-to-end CLI behavior: output, formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgekit import census, classify, cli, epim
from bridgekit.cli import (
    ENTRY_DIGITS_MAX,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    TOKEN_SHOWN,
    build_parser,
    main,
)
from bridgekit.contfrac import eval_word


# sha256 of epi graph stdout, recorded while every node was still searched
GRAPH_DIGESTS = [
    ("3", "dot", "323b3cabff3235a323f02b6ca8958723ee3ab90e49e9c84182f1a24893c14ff6"),
    ("3", "json", "5d360b6a51dd8d6e23ca5b467f48d0668fc90da5a8a31008f0afd16f9daaccf3"),
    ("8", "dot", "144ac76f2428590ec90abf67965c2aa9fcb1fb5c8db6e7ec8b7d91d434a29593"),
    ("8", "json", "e3ed9bcfcc3365786e15342d4f9eddfffbdd938d78c23b443bc6cc7936698d53"),
    ("9", "dot", "6534c36e4f90cf7e4af65c9b10aa6ce09ddbd91318eee6ff829f026c957ec9ea"),
    ("9", "json", "848805820ea0107aa38a3c810ac80d3fcebfbedb5e91463159ef4b4dce4a74fd"),
    ("16", "dot", "4163ded391f865f18ee63ab751387e5d675d77a10690daa52d8f34d8c7980c78"),
    ("16", "json", "827ebb0c51f3089200a11b58f3a06541b5f8261f24595e23bcbf5f203fa32d52"),
]

# sha256 of json stdout that no golden digest covers, recorded while json.dumps wrote it
JSON_DIGESTS = {
    # r = 2 with all four connectors zero
    "--format json epi targets 2,-4,4,-4,4,-2": (
        "1336b8cf54f08e722f99149fa11e71c23a7402fe6101000e4528cb4d20467ed4"
    ),
    "--decimal --format json census 3..30": (
        "65a047fad91b77539e2d7191fd52c109f7015aea994446f507385b64e2c8305f"
    ),
    # "[]\n": Table 1 starts at 9 crossings
    "--format json table1 --max-c 8": (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"
    ),
}


# the most digits int to str converts; 0 where it converts any number
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgekit", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, *argv):
    """Like run, but --help and usage errors give their exit code too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_runs_as_a_module_from_the_source_tree(self):
        code, out, _ = fresh_process(["invariants", "2,-4,4,-2"])
        assert code == EXIT_OK
        assert "crossing: 9" in out

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

    # words whose value has more digits than int to str converts
    LONG_VALUES = [",".join(["100,100"] * 2000), ",".join(["2,4"] * 5000)]

    @pytest.mark.skipif(INT_DIGITS == 0, reason="this interpreter converts ints of any length")
    @pytest.mark.parametrize("word", LONG_VALUES, ids=["100,100", "2,4"])
    @pytest.mark.parametrize("output_format", ["md", "json"])
    def test_value_past_the_digit_limit_is_a_resource_bound(self, capsys, word, output_format):
        code, out, err = run(capsys, "--format", output_format, "invariants", word)
        assert code == EXIT_RESOURCE and out == ""
        assert err == (
            f"resource bound: the value's numerator or denominator has more than"
            f" {INT_DIGITS} digits; --decimal prints it\n"
        )

    @pytest.mark.skipif(INT_DIGITS == 0, reason="this interpreter converts ints of any length")
    def test_value_bound_refuses_before_evaluating(self, capsys, monkeypatch):
        # prod(|e| - 1) = 99^4000 has 7,983 digits, so the word is not evaluated
        def evaluated(word):
            raise AssertionError("the word was evaluated")

        monkeypatch.setattr(cli, "eval_word", evaluated)
        code, out, err = run(capsys, "invariants", self.LONG_VALUES[0])
        assert code == EXIT_RESOURCE and out == ""
        assert err == (
            f"resource bound: the value's numerator or denominator has more than"
            f" {INT_DIGITS} digits; --decimal prints it\n"
        )

    @pytest.mark.skipif(INT_DIGITS == 0, reason="this interpreter converts ints of any length")
    def test_value_past_the_digit_limit_found_by_evaluating(self, capsys, monkeypatch):
        # prod(|e| - 1) = 3^5000 has 2,386 digits, below the limit; the value's
        # denominator has 4,978
        evaluated = []

        def counted(word):
            evaluated.append(word)
            return eval_word(word)

        monkeypatch.setattr(cli, "eval_word", counted)
        code, out, _ = run(capsys, "invariants", self.LONG_VALUES[1])
        assert code == EXIT_RESOURCE and out == "" and len(evaluated) == 1

    @pytest.mark.parametrize(
        "word",
        [",".join(["2,4"] * 1000), ",".join(["1000"] * 1432 + ["2,2000"])],
        ids=["2,4", "4300-digit-denominator"],
    )
    def test_long_value_within_the_digit_limit_prints(self, capsys, word):
        # the second value's denominator has exactly 4,300 digits, the default limit
        code, out, err = run(capsys, "invariants", word)
        assert code == EXIT_OK and err == ""
        assert "/" in next(line for line in out.splitlines() if line.startswith("value: "))

    @pytest.mark.parametrize("word", LONG_VALUES, ids=["100,100", "2,4"])
    def test_decimal_prints_a_value_past_the_digit_limit(self, capsys, word):
        code, out, err = run(capsys, "--decimal", "invariants", word)
        assert code == EXIT_OK and err == ""
        assert "value: 0." in out

    def test_word_length_bound(self, capsys):
        long = ",".join(["2,-2"] * (epim.WORD_MAX // 2 + 1))
        code, out, err = run(capsys, "invariants", long)
        assert code == EXIT_RESOURCE and out == ""
        bound = f"word length {epim.WORD_MAX + 2} exceeds the invariants bound {epim.WORD_MAX}"
        assert err == f"resource bound: {bound}\n"


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

    def test_verify_range_21_22(self, capsys):
        # the counts against the closed forms up to the epi graph bound
        code, out, _ = run(capsys, "census", "21..22", "--verify")
        assert code == EXIT_OK
        assert "agree" in out

    def test_plain_census_prints_closed_rows(self, capsys, monkeypatch):
        # only --verify counts: plain census must not call brute_counts
        monkeypatch.setattr(census, "brute_counts", None)
        code, out, _ = run(capsys, "census", "100")
        assert code == EXIT_OK
        assert "105637550019019116791391933781" in out

    def test_verify_prints_the_counted_rows(self, capsys, monkeypatch):
        counted = census.brute_counts(16)
        wrong = census.CensusRow(*counted[:1], counted.tk + 1, *counted[2:])
        monkeypatch.setattr(census, "brute_counts", lambda c: wrong)
        code, out, err = run(capsys, "census", "16", "--verify")
        assert code == EXIT_MISMATCH
        assert f"| 16 | {counted.tk + 1} |" in out
        assert err == f"verify mismatch: c=16 tk: counted {wrong.tk} != expected {counted.tk}\n"

    def test_ceiling_enforced(self, capsys):
        code, _, err = run(capsys, "epi", "graph", "--max-c", "30")
        assert code == EXIT_RESOURCE
        assert err == "resource bound: --max-c 30 exceeds the epi graph bound 22\n"

    def test_ceiling_does_not_bound_census(self, capsys):
        code, out, _ = run(capsys, "census", "23..24")
        assert code == EXIT_OK
        assert "\n| 23 | " in out and "\n| 24 | " in out

    @staticmethod
    def build_no_row(monkeypatch):
        # a refused range builds no row, so a dropped bound fails at the first
        # row instead of building rows toward the refused end
        def refuse(c):
            raise AssertionError(f"census built the row of c = {c} for a refused range")

        monkeypatch.setattr(census, "closed_row", refuse)
        monkeypatch.setattr(census, "brute_counts", refuse)

    def test_formulas_only_above_bound_is_resource_error(self, capsys, monkeypatch):
        # plain census prints the closed forms only; far above the bound it is
        # refused before any row is built, as --verify is
        self.build_no_row(monkeypatch)
        for crossings in ("100000", "3..100000"):
            for flags in ((), ("--verify",)):
                start = time.perf_counter()
                code, out, err = run(capsys, "census", crossings, *flags)
                assert code == EXIT_RESOURCE
                assert out == "" and err == "resource bound: c 100000 exceeds the census bound 500\n"
                assert time.perf_counter() - start < 1.0

    def test_above_census_bound_is_resource_error(self, capsys, monkeypatch):
        self.build_no_row(monkeypatch)
        for crossings in ("501", "3..501"):
            for flags in ((), ("--verify",)):
                start = time.perf_counter()
                code, out, err = run(capsys, "census", crossings, *flags)
                assert code == EXIT_RESOURCE
                assert out == "" and err == "resource bound: c 501 exceeds the census bound 500\n"
                assert time.perf_counter() - start < 1.0

    def test_bound_past_int_digit_limit_is_resource_error(self, capsys):
        # refused from its digit count: int() refuses more than 4,300 digits
        nines = "9" * 4301
        code, out, err = run(capsys, "census", f"3..{nines}")
        assert code == EXIT_RESOURCE and out == ""
        assert err == f"resource bound: c {nines} exceeds the census bound 500\n"
        # leading zeros do not count
        code, out, _ = run(capsys, "--format", "csv", "census", "0" * 5000 + "5")
        assert code == EXIT_OK and "\n5,4,8,5/2,2,4,5/2\n" in out

    @pytest.mark.parametrize(
        "crossings", ["3..", "x", "3..4..5", "..5", "2", "5..3", "-3", "1_0", "x..9", "2..9", "+5..9"]
    )
    def test_malformed_range_is_refused(self, capsys, crossings):
        code, out, err = run(capsys, "census", crossings)
        assert code == EXIT_PARSE and out == ""
        assert err == f"invalid input: bad c {crossings!r}\n"

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

    def test_decimal_json(self, capsys):
        # json follows --decimal as the tables do
        code, out, _ = run(capsys, "--decimal", "--format", "json", "census", "5")
        assert code == EXIT_OK
        row = json.loads(out)[0]
        assert row["avg_braid"] == row["avg_braid_star"] == "2.5"
        assert row["avg_genus"] == "1.5"
        _, out, _ = run(capsys, "--decimal", "--format", "json", "census", "6", "--up-to-mirror")
        assert json.loads(out)[0]["avg_braid_star"] == "3.33333333333"

    def test_up_to_mirror_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "census", "6", "--up-to-mirror")
        assert code == EXIT_OK
        assert json.loads(out) == [{"c": 6, "tk_star": 3, "ts_star": 4, "avg_braid_star": "10/3"}]

    def test_formulas_only_verify_refused(self, capsys):
        # the flag is gone: census prints the closed forms, --verify the counts
        for argv in (
            ["census", "16..17", "--formulas-only", "--verify"],
            ["census", "16..17", "--formulas-only"],
            ["--formulas-only", "census", "16..17"],
        ):
            code, out, err = in_process(capsys, *argv)
            assert code == EXIT_PARSE and out == ""
            assert err.splitlines()[-1] == "bridgekit: error: unrecognized arguments: --formulas-only"

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
        code, out, err = run(capsys, "census", "5")
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

    @pytest.mark.parametrize(
        "big, small, relation",
        [
            ("2,-2,2,-2", "2,-2,2,-2", "the same knot"),
            ("2,2", "-2,-2", "the same knot"),  # 4_1, one class written two ways
            ("-2,2,-2,2", "2,-2,2,-2", "mirror images"),
        ],
    )
    def test_check_same_group_is_no_verdict(self, capsys, big, small, relation):
        # the identity (or a mirror's isomorphism) is an epimorphism the search never tries
        code, out, _ = run(capsys, "epi", "check", "--", big, small)
        assert code == EXIT_OK
        assert out.endswith(f": {relation}; epi check looks for proper images only\n")
        assert "no epimorphism" not in out and out.count("\n") == 1

    def test_check_witness(self, capsys):
        code, out, _ = run(capsys, "epi", "check", "2,-2,2,-2,2,-4,2,-2", "2,-2")
        assert "epimorphism exists" in out and "cvec=[1, -2]" in out

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

    def test_periodic_word_search_is_linear(self, capsys):
        # every small pattern of a word of one sign reads far into it;
        # rereading the word for each r ran out of nodes at 6,000 entries
        start = time.monotonic()
        code, out, _ = run(capsys, "epi", "targets", ",".join(["2,4"] * 3000))
        assert code == EXIT_OK and "r=" in out
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

    def test_graph_dot_default(self, capsys):
        code, out, _ = run(capsys, "epi", "graph", "--max-c", "9")
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_graph_json(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "epi", "graph", "--max-c", "9")
        payload = json.loads(out)
        assert payload["max_crossing"] == 9

    @pytest.mark.parametrize("max_c, output_format, digest", GRAPH_DIGESTS)
    def test_graph_stdout_matches_recorded_digest(self, capsys, max_c, output_format, digest):
        code, out, _ = run(capsys, "--format", output_format, "epi", "graph", "--max-c", max_c)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("output_format", ["dot", "json"])
    def test_graph_runs_no_search(self, capsys, monkeypatch, output_format):
        def refuse(*args, **kwargs):
            raise AssertionError("epi graph entered the search")

        monkeypatch.setattr(epim, "_search", refuse)
        code, out, _ = run(capsys, "--format", output_format, "epi", "graph", "--max-c", "12")
        assert code == EXIT_OK and out.endswith("}\n")

    @pytest.mark.parametrize("output_format", ["dot", "json"])
    def test_graph_audit_failure_prints_nothing(self, capsys, monkeypatch, output_format):
        def fail(params, composed=None):
            raise epim.AuditFailure(f"audit rejected {params}")

        monkeypatch.setattr(epim, "audit_params", fail)
        code, out, err = run(capsys, "--format", output_format, "epi", "graph", "--max-c", "9")
        assert code == EXIT_MISMATCH and out == ""
        assert err.startswith("verification failed: audit rejected")

    def test_graph_dot_is_default(self, capsys):
        assert run(capsys, "--format", "dot", "epi", "graph", "--max-c", "6") == run(
            capsys, "epi", "graph", "--max-c", "6"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["targets", "{long}"],
            ["minimal", "{long}"],
            ["check", "{long}", "2,-2"],
            ["check", "2,-2", "{long}"],
        ],
    )
    def test_word_length_bound(self, capsys, command):
        # one pair more than the bound allows; refused before the knot is built
        long = ",".join(["2,4"] * (epim.WORD_MAX // 2 + 1))
        start = time.perf_counter()
        code, out, err = run(capsys, "epi", *(arg.format(long=long) for arg in command))
        assert code == EXIT_RESOURCE and out == ""
        bound = f"word length {epim.WORD_MAX + 2} exceeds the epi bound {epim.WORD_MAX}"
        assert err == f"resource bound: {bound}\n"
        assert time.perf_counter() - start < 1.0

    def test_graph_respects_ceiling(self, capsys):
        # the fixed bound, epim.EPI_GRAPH_C_MAX = 22, refused just above it
        code, out, err = run(capsys, "epi", "graph", "--max-c", "23")
        assert code == EXIT_RESOURCE and out == ""
        assert err == "resource bound: --max-c 23 exceeds the epi graph bound 22\n"

    @pytest.mark.parametrize("max_c", ["2", "0", "-4"])
    def test_graph_max_c_below_3_is_refused(self, capsys, max_c):
        code, out, err = run(capsys, "epi", "graph", "--max-c", max_c)
        assert code == EXIT_PARSE and out == ""
        assert err == f"invalid input: bad --max-c {max_c!r}\n"


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

    @pytest.mark.parametrize("max_c", ["2", "-4"])
    def test_max_c_below_3_is_refused(self, capsys, max_c):
        code, out, err = run(capsys, "table1", "--max-c", max_c)
        assert code == EXIT_PARSE and out == ""
        assert err == f"invalid input: bad --max-c {max_c!r}\n"

    def test_max_c_above_bound_is_resource_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "table1", "--max-c", str(classify.TABLE1_C_MAX + 1))
        assert code == EXIT_RESOURCE
        assert out == "" and err.count("\n") == 1 and "resource bound" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("output_format", ["md", "json"])
    def test_reference_mismatch_is_named_on_stderr(self, capsys, monkeypatch, output_format):
        argv = ("--format", output_format, "table1", "--max-c", "15")
        _, expected, _ = run(capsys, *argv)
        # the md table ends with the empty diff, which a mismatch replaces
        expected = "".join(
            line for line in expected.splitlines(True) if not line.startswith("diff vs reference")
        )
        dropped = classify.TABLE1_REFERENCE[1]
        reference = tuple(row for row in classify.TABLE1_REFERENCE if row != dropped)
        monkeypatch.setattr(classify, "TABLE1_REFERENCE", reference)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_MISMATCH
        assert out == expected
        assert "diff vs reference" not in out + err
        lines = err.splitlines()
        assert lines and all(line.startswith("table1 diff: ") for line in lines)
        assert any(str(dropped.word) in line for line in lines)
        assert re.match(EXIT_PREFIXES[EXIT_MISMATCH], lines[-1])


class TestFormats:
    @pytest.mark.parametrize(
        "fmt, command",
        [
            ("dot", ["census", "5"]),
            ("dot", ["table1", "--max-c", "5"]),
            ("csv", ["invariants", "2,-2"]),
            ("dot", ["invariants", "2,-2"]),
            ("csv", ["epi", "targets", "2,-2"]),
            ("dot", ["epi", "targets", "2,-2"]),
            ("json", ["epi", "check", "2,-2", "2,-2"]),
            ("csv", ["epi", "check", "2,-2", "2,-2"]),
            ("dot", ["epi", "check", "2,-2", "2,-2"]),
            ("json", ["epi", "minimal", "2,-2"]),
            ("csv", ["epi", "minimal", "2,-2"]),
            ("dot", ["epi", "minimal", "2,-2"]),
            ("csv", ["epi", "graph", "--max-c", "4"]),
            ("md", ["epi", "graph", "--max-c", "4"]),
            ("json", ["identities", "--n-max", "3"]),
            ("csv", ["identities", "--n-max", "3"]),
            ("dot", ["identities", "--n-max", "3"]),
        ],
    )
    def test_unrenderable_format_refused(self, capsys, fmt, command):
        code, out, err = run(capsys, "--format", fmt, *command)
        assert code == EXIT_PARSE
        assert out == "" and err.count("\n") == 1 and f"cannot render {fmt}" in err
        assert err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "command",
        [
            ["census", "5"],
            ["table1", "--max-c", "5"],
            ["invariants", "2,-2"],
            ["epi", "targets", "2,-2,2,-2,2,-2"],
            ["epi", "check", "2,-2,2,-2,2,-2", "2,-2"],
            ["epi", "minimal", "2,-2"],
            ["identities", "--n-max", "3"],
        ],
    )
    def test_md_accepted(self, capsys, command):
        assert run(capsys, "--format", "md", *command) == run(capsys, *command)

    @pytest.mark.parametrize("command", list(JSON_DIGESTS))
    def test_json_stdout_matches_recorded_digest(self, capsys, command):
        code, out, _ = run(capsys, *command.split(" "))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[command]


def _leaves(parser, names=()):
    """(command words, parser) of each leaf subcommand under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(names), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaves(sub, names + (name,))


def test_every_leaf_subcommand_declares_its_handler_and_formats():
    leaves = dict(_leaves(build_parser()))
    assert sorted(leaves) == [
        "census", "epi check", "epi graph", "epi minimal", "epi targets",
        "identities", "invariants", "table1",
    ]
    for name, parser in leaves.items():
        formats = parser.get_default("formats")
        assert callable(parser.get_default("func")), name
        assert formats and set(formats) <= set(cli.FORMATS), name
        assert len(set(formats)) == len(formats), name


class TestIdentities:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--n-max", "25")
        assert code == EXIT_OK
        assert out.count("pass") == 7

    def test_least_n_max_passes(self, capsys):
        code, out, _ = run(capsys, "identities", "--n-max", "1")
        assert code == EXIT_OK
        assert out.count("(params up to 1): pass") == 7

    def test_failed_identity_is_named_on_stderr(self, capsys, monkeypatch):
        name, statement, params, lhs, rhs = census.IDENTITIES[0]
        wrong = (name, statement, params, lhs, lambda n: rhs(n) + 1)
        monkeypatch.setattr(census, "IDENTITIES", (wrong, *census.IDENTITIES[1:]))
        code, out, err = run(capsys, "identities", "--n-max", "5")
        assert code == EXIT_MISMATCH
        # stdout still lists every check, the failed one first
        assert out.splitlines() == [f"{name} (params up to 5): FAIL at ((1,), 1, 2)"] + [
            f"{row[0]} (params up to 5): pass" for row in census.IDENTITIES[1:]
        ]
        assert err == f"verify mismatch: {name} fails at ((1,), 1, 2)\n"
        assert re.match(EXIT_PREFIXES[EXIT_MISMATCH], err.splitlines()[-1])

    def test_n_max_above_bound_is_resource_error(self, capsys):
        start = time.perf_counter()
        n_max = str(census.IDENTITIES_N_MAX + 1)
        code, out, err = run(capsys, "identities", "--n-max", n_max)
        assert code == EXIT_RESOURCE
        assert out == "" and "resource bound" in err
        assert time.perf_counter() - start < 1.0


# Each bounded number: its command line with {} for the number, its least value and its bound.
BOUNDED_NUMBERS = {
    "census c": (["census", "{}"], 3, census.FORMULAS_C_MAX),
    "census lo..hi": (["census", "3..{}"], 3, census.FORMULAS_C_MAX),
    "epi graph --max-c": (["epi", "graph", "--max-c", "{}"], 3, epim.EPI_GRAPH_C_MAX),
    "table1 --max-c": (["table1", "--max-c", "{}"], 3, classify.TABLE1_C_MAX),
    "identities --n-max": (["identities", "--n-max", "{}"], 1, census.IDENTITIES_N_MAX),
}


@pytest.mark.parametrize("argv, low, high", BOUNDED_NUMBERS.values(), ids=BOUNDED_NUMBERS)
class TestBoundedNumbers:
    """One digit rule for every bounded number: exit 4 above the bound,
    exit 3 when malformed or below, and leading zeros do not count."""

    @staticmethod
    def refused(capsys, argv, number, code, prefix):
        got, out, err = in_process(capsys, *(arg.format(number) for arg in argv))
        assert got == code and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")

    def test_above_the_bound_is_a_resource_error(self, capsys, argv, low, high):
        for number in (str(high + 1), "9" * 4301):
            self.refused(capsys, argv, number, EXIT_RESOURCE, "resource bound: ")

    @pytest.mark.parametrize("number", ["{low_1}", "1_5", "+5", " 5", "", "x", "-5"])
    def test_malformed_or_below_is_a_parse_error(self, capsys, argv, low, high, number):
        self.refused(capsys, argv, number.format(low_1=low - 1), EXIT_PARSE, "invalid input: ")

    def test_leading_zeros_do_not_count(self, capsys, argv, low, high):
        small = str(low + 2)
        expected = in_process(capsys, *(arg.format(small) for arg in argv))
        assert expected[0] == EXIT_OK
        assert in_process(capsys, *(arg.format("0" * 4000 + small) for arg in argv)) == expected


@pytest.mark.parametrize(
    "argv", [["invariants"], ["epi", "targets"], ["epi", "minimal"], ["epi", "check", "2,-2"]]
)
def test_word_entries_are_counted_before_any_is_parsed(capsys, argv):
    # a malformed last entry: one entry more than the bound is refused by its count
    for entries, code, prefix in (
        (epim.WORD_MAX + 1, EXIT_RESOURCE, "resource bound: "),
        (epim.WORD_MAX, EXIT_PARSE, "parse error: "),
    ):
        word = ",".join(["2"] * (entries - 1) + ["x"])
        got, out, err = in_process(capsys, *argv, word)
        assert got == code and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1


# An even entry with as many digits as a word's entry may have.
AT_DIGIT_BOUND = "2" + "0" * (ENTRY_DIGITS_MAX - 1)


@pytest.mark.parametrize("argv", [["invariants"], ["epi", "targets"], ["epi", "minimal"]])
def test_word_entry_digits_are_bounded(capsys, argv):
    # at the bound the word is read, and one digit more is refused before int() runs
    code, out, err = in_process(capsys, *argv, f"2,{AT_DIGIT_BOUND}")
    assert code == EXIT_OK and out and err == ""
    above = f"2,{AT_DIGIT_BOUND}0"
    bound = f"word entry 2 has {ENTRY_DIGITS_MAX + 1} digits, above the {argv[0]} bound"
    assert in_process(capsys, *argv, above) == (
        EXIT_RESOURCE, "", f"resource bound: {bound} {ENTRY_DIGITS_MAX}\n"
    )
    # a sign, underscores and leading zeros are not digits
    assert in_process(capsys, *argv, f"2,-{AT_DIGIT_BOUND}0")[0] == EXIT_RESOURCE
    assert in_process(capsys, *argv, f"2,2_{AT_DIGIT_BOUND[1:]}")[0] == EXIT_OK
    zeros = in_process(capsys, *argv, f"2,{'0' * 5000}{AT_DIGIT_BOUND}")
    assert zeros == in_process(capsys, *argv, f"2,{AT_DIGIT_BOUND}")
    # underscores between leading zeros, past the 4,300 digits int() reads
    assert in_process(capsys, *argv, f"2,{'0_' * 5000}{AT_DIGIT_BOUND}") == zeros
    assert in_process(capsys, *argv, f"{'0_' * 5000}2,-2") == in_process(capsys, *argv, "2,-2")
    # and where int() refuses them, leading, trailing or doubled, whatever the digits
    for entry in (f"_{'0' * 5000}2", f"{'0' * 5000}2_", f"{'0__' * 2000}2", f"_{AT_DIGIT_BOUND}0"):
        code, out, err = in_process(capsys, *argv, f"2,{entry}")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("parse error: not an integer: token ")
        assert err.endswith(" at position 2\n")


@pytest.mark.parametrize("argv", [["invariants"], ["epi", "targets"], ["epi", "check", "2,-2"]])
def test_a_long_malformed_entry_is_named_briefly(capsys, argv):
    # a parse error repeats the first TOKEN_SHOWN characters of an entry and
    # gives its length, where it used to echo all 4,002 of them
    code, out, err = in_process(capsys, *argv, "2,x" + "2" * 4001)
    assert (code, out) == (EXIT_PARSE, "")
    token = "x" + "2" * (TOKEN_SHOWN - 1)
    shown = f"{token!r}... (4002 characters)"
    assert err == f"parse error: not an integer: token {shown} at position 2\n"
    # one of TOKEN_SHOWN characters is still repeated whole
    code, out, err = in_process(capsys, *argv, "2," + token)
    assert err == f"parse error: not an integer: token {token!r} at position 2\n"


@pytest.mark.parametrize("output_format", ["md", "json"])
def test_invariants_print_nothing_before_a_refusal(capsys, output_format):
    # the crossing number of E,E has 4,301 digits; E has 4,300, above the bound
    eights = "8" * 4300
    code, out, err = in_process(
        capsys, "--decimal", "--format", output_format, "invariants", f"{eights},{eights}"
    )
    assert code == EXIT_RESOURCE and out == ""
    bound = f"word entry 1 has 4300 digits, above the invariants bound {ENTRY_DIGITS_MAX}"
    assert err == f"resource bound: {bound}\n"


# The prefix of stderr's last line on each nonzero exit.
EXIT_PREFIXES = {
    EXIT_MISMATCH: r"(verify mismatch|table1 diff|verification failed): ",
    EXIT_PARSE: r"(parse error|invalid input|configuration error|bridgekit( [a-z0-9]+)*: error): ",
    EXIT_RESOURCE: r"resource bound: ",
}


def _cli_argv():
    """Command lines drawn from the CLI's grammar, each cheap to run.

    Numbers are at most 12 (census ends at most 20) or above their bound;
    word entries include zeros, odd and malformed entries, other scripts'
    digits, and entries at and above the digit bound.
    """
    number = st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from(["", "x", "-5", "+5", "1_0", " 5", "0" * 4000 + "5", "\u0665", "\uff17"]),
        st.sampled_from(["23", "46", "301", "501", "9" * 4301]),
    )
    end = st.one_of(st.integers(0, 20).map(str), st.integers(501, 503).map(str), number)
    crossings = st.one_of(
        end,
        st.tuples(end, end).map("..".join),
        st.sampled_from(["3..", "..5", "3..4..5", "5..3", "3...5", "3..100000"]),
    )
    even = st.sampled_from(["2", "-2", "4", "-4", "-6", "8"])
    entry = st.one_of(
        even,
        even,
        even,
        st.sampled_from(
            ["3", "0", "-0", "000", "+2", " 2 ", "2_0", "\u0662", "x", "", "0" * 4400 + "2",
             AT_DIGIT_BOUND, "-" + AT_DIGIT_BOUND, AT_DIGIT_BOUND + "0", "8" * 4300]
        ),
    )
    # mostly even lengths; a word may start with a minus sign
    word = st.sampled_from([1, 2, 2, 3, 4, 4, 6, 8]).flatmap(
        lambda n: st.lists(entry, min_size=n, max_size=n)
    ).map(",".join)
    flags = st.sampled_from(
        [[], [], [], ["--decimal"], ["--format", "json"], ["--format", "md"], ["--format", "csv"],
         ["--format", "dot"], ["--format", "xml"], ["--decimal", "--format", "json"]]
    )
    max_c = st.sampled_from([["--max-c"], ["--max-c"], ["--max-c"], []])
    optional = lambda *tokens: st.sampled_from([[], list(tokens)])  # noqa: E731
    listed = lambda strategy: strategy.map(lambda token: [token])  # noqa: E731
    command = st.one_of(
        st.tuples(st.just(["invariants"]), listed(word)),
        st.tuples(
            st.just(["census"]), listed(crossings), optional("--verify"), optional("--up-to-mirror")
        ),
        st.tuples(st.just(["epi"]), listed(st.sampled_from(["targets", "minimal"])), listed(word)),
        st.tuples(st.just(["epi", "check"]), listed(word), listed(word)),
        st.tuples(st.just(["epi", "graph"]), max_c, listed(number)),
        st.tuples(st.just(["table1"]), max_c, listed(number), optional("--chiral")),
        st.tuples(st.just(["identities"]), optional("--n-max"), listed(number)),
        st.sampled_from([(["nosuch"],), (["--help"],), (["epi"],), ([],)]),
    ).map(lambda parts: [token for part in parts for token in part])
    # the shared flags before the subcommand, after it, or both
    return st.tuples(flags, command, flags).map(lambda t: t[0] + t[1] + t[2])


def _call(argv):
    """(exit code, stdout, stderr) of cli.main on argv, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help and argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_cli_argv())
@example(["--decimal", "invariants", ",".join(["8" * 4300] * 2)])  # a crossing of 4,301 digits
def test_exit_code_contract(argv):
    # every exception is caught and mapped to one exit code, with its stderr
    # prefix; on exits 3 and 4 nothing is printed, and a second call repeats
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_PARSE, EXIT_RESOURCE)
    if code != EXIT_OK:
        assert re.match(EXIT_PREFIXES[code], err.splitlines()[-1]), (argv, err)
    if code in (EXIT_PARSE, EXIT_RESOURCE):
        assert out == ""
    assert _call(argv) == (code, out, err)


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
            (["--format", "dot"], ["epi", "graph", "--max-c", "7"]),
            (["--format", "json"], ["epi", "graph", "--max-c", "23"]),
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

    def test_flag_after_subcommand_overrides_flag_before(self, capsys):
        overridden = run(capsys, "--format", "csv", "census", "5", "--format", "json")
        assert overridden == run(capsys, "--format", "json", "census", "5")


class TestWordsStartingWithMinus:
    """A word such as -2,2 is read as a word, not as an unknown option."""

    def test_invariants(self, capsys):
        code, out, err = run(capsys, "invariants", "-2,2")
        assert code == EXIT_OK and err == ""
        assert "canonical: -2,2" in out and "name: 3_1" in out

    @pytest.mark.parametrize(
        "head, word, tail",
        [
            (["epi", "check", "2,-2,2,-2,2,-2,2,-2"], "-2,2", []),
            (["epi", "targets"], "-2,-2,2,-2,-2,2", ["--format", "json"]),
            (["invariants"], "-2,2", ["--decimal"]),
        ],
    )
    def test_same_as_after_double_dash(self, capsys, head, word, tail):
        plain = run(capsys, *head, word, *tail)
        assert plain == run(capsys, *head, *tail, "--", word) and plain[0] == EXIT_OK

    def test_negative_ceiling_still_refused(self, capsys):
        # the removed flag is named, not its value read as the subcommand
        code, out, err = in_process(capsys, "--ceiling", "-3", "epi", "graph", "--max-c", "5")
        assert code == EXIT_PARSE and out == ""
        assert err.splitlines()[-1] == "bridgekit: error: unrecognized arguments: --ceiling"

    @pytest.mark.parametrize("token", ["-x"])
    def test_other_dash_token_is_a_usage_error(self, capsys, token):
        code, out, err = in_process(capsys, "invariants", token)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("usage: bridgekit invariants")

    def test_malformed_word_is_a_parse_error(self, capsys):
        # a minus sign and a digit make a word, and the word parser reports the fault
        code, out, err = in_process(capsys, "invariants", "-2,x")
        assert code == EXIT_PARSE and out == ""
        assert err == "parse error: not an integer: token 'x' at position 2\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly():
    # 147 kB of dot: more than a pipe holds, so the CLI is still writing when it closes
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bridgekit", "epi", "graph", "--max-c", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"digraph epimorphisms {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


class TestConfig:
    def test_bad_ceiling_rejected(self, capsys):
        code, out, err = in_process(capsys, "--ceiling", "2", "census", "3")
        assert code == EXIT_PARSE and out == ""
        assert err.splitlines()[-1] == "bridgekit: error: unrecognized arguments: --ceiling"

    def test_config_file_flag_removed(self, tmp_path, capsys):
        config_file = tmp_path / "bridgekit.conf"
        config_file.write_text("output_format = json\n")
        code, out, err = in_process(capsys, "--config", str(config_file), "census", "5")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("usage: bridgekit") and "--config" not in err.splitlines()[0]

    @pytest.mark.parametrize(
        "flag, value, command",
        [
            ("--budget", "3", ["epi", "targets", "2,-2"]),
            ("--ceiling", "6", ["epi", "graph", "--max-c", "7"]),
            ("--config", "bridgekit.conf", ["census", "5"]),
        ],
        ids=["budget", "ceiling", "config"],
    )
    def test_removed_flag_is_named(self, capsys, flag, value, command):
        # before the subcommand, argparse alone would read the value as the subcommand
        for argv in ([flag, value, *command], [*command, flag, value]):
            code, out, err = in_process(capsys, *argv)
            assert code == EXIT_PARSE and out == ""
            assert err.startswith("usage: bridgekit") and flag not in err.splitlines()[0]
            last = err.splitlines()[-1]
            assert last.startswith("bridgekit: error: unrecognized arguments: ")
            assert flag in last.split()

    def test_removed_flag_between_epi_and_its_subcommand(self, capsys):
        code, out, err = in_process(capsys, "epi", "--budget", "3", "targets", "2,-2")
        assert code == EXIT_PARSE and out == ""
        assert err.splitlines()[-1] == "bridgekit epi: error: unrecognized arguments: --budget"


class TestRepeatedCalls:
    """main builds its parser once per process; no call leaves state behind."""

    T15 = ",".join(["2,-2"] * 7)
    # its keys are the commands of the cli-tables benchmark basket
    BASKET = Path(__file__).resolve().parent.parent / "bench" / "golden.json"

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # help and usage text wrap at the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_parser_built_after_the_first_call(self, capsys, monkeypatch):
        assert main(["invariants", "2,-2"]) == EXIT_OK
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        commands = json.loads(self.BASKET.read_text())
        assert len(commands) == 15
        for command in commands:
            assert main(command.split(" ")) == EXIT_OK, command
        assert built == []
        # the counter does see a rebuild
        build_parser.cache_clear()
        assert main(["invariants", "2,-2"]) == EXIT_OK
        assert len(built) > 10
        capsys.readouterr()

    @pytest.mark.parametrize(
        "first, second, codes, second_starts",
        [
            (
                ["--format", "json", "invariants", "2,-2"],
                ["invariants", "2,-2"],
                (EXIT_OK, EXIT_OK),
                "word: 2,-2\n",
            ),
            (
                ["epi", "graph", "--max-c", "23"],
                ["epi", "targets", T15],
                (EXIT_RESOURCE, EXIT_OK),
                "targets of",
            ),
            (["census", "5", "--format", "csv"], ["census", "5"], (EXIT_OK, EXIT_OK), "| c |"),
            (
                ["census", "--no-such-flag", "5"],
                ["invariants", "2,-4,4,-2"],
                (EXIT_PARSE, EXIT_OK),
                "word: 2,-4,4,-2\n",
            ),
            (["--help"], ["--help"], (EXIT_OK, EXIT_OK), "usage: bridgekit"),
            (["epi", "--help"], ["epi", "--help"], (EXIT_OK, EXIT_OK), "usage: bridgekit epi"),
        ],
        ids=["format", "resource-bound", "flag-after", "usage-error", "help", "epi-help"],
    )
    def test_second_call_matches_a_fresh_process(
        self, capsys, first, second, codes, second_starts
    ):
        calls = [in_process(capsys, *first), in_process(capsys, *second)]
        assert calls == [fresh_process(first), fresh_process(second)]
        assert tuple(code for code, _, _ in calls) == codes
        assert calls[1][1].startswith(second_starts)

    def test_environment_sets_no_ceiling(self, capsys, monkeypatch):
        # the epi graph bound is fixed, in process and in a fresh one
        for ceiling, max_c, code in (("8", "9", EXIT_OK), ("30", "23", EXIT_RESOURCE)):
            monkeypatch.setenv("BRIDGEKIT_CEILING", ceiling)
            argv = ["epi", "graph", "--max-c", max_c]
            call = in_process(capsys, *argv)
            assert call == fresh_process(argv) and call[0] == code
