"""Enumeration vs closed forms: the census must agree both ways."""

import math
from fractions import Fraction
from operator import neg

import pytest

from bridgekit import census
from bridgekit.census import (
    TABLE2_REFERENCE,
    CensusRow,
    NonIntegralFormula,
    ResourceBound,
    SignClassCount,
    brute_counts,
    closed_avg_braid,
    closed_avg_braid_star,
    closed_avg_genus,
    closed_n,
    closed_row,
    closed_tk,
    closed_tk_star,
    closed_ts,
    closed_ts_star,
    enumerate_words,
    exact_div,
    verify_identities,
    verify_row,
)
from bridgekit.cli import EXIT_OK, main
from bridgekit.knot import canonical_word, crossing_number

from _oracles import closed_n as summed_closed_n
from _oracles import genus, is_mirror_representative, raw_words


class TestEnumeration:
    def test_three_crossings(self):
        assert set(enumerate_words(3)) == {(2, -2), (-2, 2)}

    def test_four_crossings(self):
        words = list(enumerate_words(4))
        assert len(words) == 1
        assert canonical_word((2, 2)) in words

    def test_seven_crossings_count(self):
        assert sum(1 for _ in enumerate_words(7)) == 14

    def test_crossing_is_construction_invariant(self):
        for c in range(3, 11):
            assert all(crossing_number(w) == c for w in enumerate_words(c))

    def test_below_three_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_words(2))

    def test_deterministic_order(self):
        assert list(enumerate_words(9)) == list(enumerate_words(9))

    @pytest.mark.parametrize("c", range(3, 13))
    def test_uniqueness_audit(self, c):
        """Hash-set audit: canonical words once, non-canonical never."""
        raw = list(raw_words(c))
        assert len(raw) == len(set(raw))  # parameterization is injective
        emitted = list(enumerate_words(c))
        assert len(emitted) == len(set(emitted))
        assert all(w == canonical_word(w) for w in emitted)
        assert set(emitted) == {canonical_word(w) for w in raw}

    def test_slice_counts_meet_the_closed_forms_through_22(self):
        # The words are distinct raw words, so canonical words in the closed
        # forms' number are exactly the canonical words: one per knot.
        for c in range(3, 23):
            total = 0
            for ell in range(c):
                count = 0
                for word in enumerate_words(c, ell=ell):
                    assert word <= tuple(map(neg, reversed(word))), word
                    count += 1
                assert count == closed_n(c, ell), (c, ell)
                total += count
            assert total == closed_tk(c), c

    def test_ell_filter(self):
        full = set(enumerate_words(9))
        sliced = [w for ell in (1, 3, 5, 7) for w in enumerate_words(9, ell=ell)]
        assert len(sliced) == len(full)
        assert set(sliced) == full


class TestBruteCounts:
    @pytest.mark.parametrize("c", [8, 9, 12, 21, 60])
    def test_a_slice_ratio_with_a_remainder_raises(self, monkeypatch, c):
        # binomials one too large step some slice's counts by a ratio that leaves
        # a remainder: brute_counts raises instead of rounding it away
        monkeypatch.setattr(census, "comb", lambda n, k: math.comb(n, k) + 1)
        with pytest.raises(NonIntegralFormula):
            brute_counts(c)

    def test_reference_rows(self):
        for c, expected in TABLE2_REFERENCE.items():
            if c > 12:
                continue
            row = brute_counts(c)
            got = (row.tk, row.ts, row.avg_braid, row.tk_star, row.ts_star, row.avg_braid_star)
            assert got == expected, c

    def test_spot_values(self):
        row = brute_counts(10)
        assert (row.tk, row.ts, row.avg_braid) == (85, 242, Fraction(389, 85))
        row = brute_counts(13)
        assert (row.tk_star, row.ts_star, row.avg_braid_star) == (352, 1382, Fraction(1949, 352))
        row = brute_counts(4)
        assert (row.ts, row.avg_braid) == (0, Fraction(3))

    def test_by_ell_totals(self):
        row = brute_counts(9)
        assert sum(entry.count for entry in row.by_ell) == row.tk
        assert sum(entry.ell * entry.count for entry in row.by_ell) == row.ts

    def test_ceiling(self):
        with pytest.raises(ResourceBound):
            brute_counts(501)
        brute_counts(23)  # the epi graph bound does not limit the census

    def test_avg_genus(self):
        # five 6-crossing knots: two of genus 1, three of genus 2
        row = brute_counts(6)
        knots = list(enumerate_words(6))
        assert row.avg_genus == Fraction(sum(genus(w) for w in knots), len(knots)) == Fraction(8, 5)

    def test_counts_past_the_default_ceiling(self):
        # the epi graph bound does not limit the census
        for c in range(23, 27):
            assert verify_row(c, brute_counts(c)) == []

    def test_counts_meet_the_closed_forms_through_60(self):
        # no word is built, so the check runs on past 60, to the census bound
        for c in range(3, census.FORMULAS_C_MAX + 1):
            assert verify_row(c, brute_counts(c)) == [], c


class TestClosedForms:
    def test_tk_examples(self):
        assert closed_tk(7) == 14
        assert closed_tk(12) == 341
        assert closed_tk_star(14) == 693

    def test_ts_examples(self):
        assert closed_ts(6) == 6
        assert closed_ts(7) == 30
        assert closed_ts_star(6) == 4

    def test_n_examples(self):
        assert closed_n(4, 0) == 1
        assert closed_n(3, 1) == 2
        for c in range(3, 20):
            for ell in range(0, c + 2):
                if (c - ell) % 2:
                    assert closed_n(c, ell) == 0

    def test_n_equals_its_binomial_sum_form(self):
        # every zero case too: c < 3, ell < 0, wrong parity, ell past the range
        mismatches = [
            (c, ell)
            for c in range(-2, 301)
            for ell in range(-2, c + 3)
            if closed_n(c, ell) != summed_closed_n(c, ell)
        ]
        assert mismatches == []

    def test_avg_examples(self):
        assert closed_avg_braid(7) == Fraction(24, 7)
        assert closed_avg_braid(12) == Fraction(1783, 341)
        assert closed_avg_braid_star(8) == Fraction(4)

    def test_avg_genus_examples(self):
        assert closed_avg_genus(3) == 1
        assert closed_avg_genus(4) == 1
        row = brute_counts(6)
        assert closed_avg_genus(6) == row.avg_genus

    def test_exact_division_guard(self):
        with pytest.raises(NonIntegralFormula):
            exact_div(7, 3)

    @pytest.mark.parametrize("c", range(3, 15))
    def test_brute_equals_closed(self, c):
        assert not verify_row(c, brute_counts(c))

    @pytest.mark.parametrize("c", range(3, 15))
    def test_by_ell_equals_closed_n(self, c):
        row = brute_counts(c)
        counted = {entry.ell: entry.count for entry in row.by_ell}
        ell_max = c - 4 if c % 2 == 0 else c - 2
        for ell in range(0 if c % 2 == 0 else 1, ell_max + 1, 2):
            assert counted.get(ell, 0) == closed_n(c, ell), (c, ell)

    def test_aggregation_formula_only(self):
        for c in range(3, 41):
            ells = range(0 if c % 2 == 0 else 1, c + 1, 2)
            assert sum(closed_n(c, ell) for ell in ells) == closed_tk(c)
            assert sum(ell * closed_n(c, ell) for ell in ells) == closed_ts(c)

    def test_avg_consistency_formula_only(self):
        for c in range(3, 201):
            expected = Fraction(c, 2) + 1 - Fraction(closed_ts(c), 2 * closed_tk(c))
            assert closed_avg_braid(c) == expected
            expected = Fraction(c, 2) + 1 - Fraction(closed_ts_star(c), 2 * closed_tk_star(c))
            assert closed_avg_braid_star(c) == expected

    def test_asymptotics(self):
        gap = abs(closed_avg_braid(100) - Fraction(100, 3) - Fraction(11, 9))
        assert gap < Fraction(1, 10**6)

    def test_closed_row_matches_brute(self):
        # both build their by_ell entries with tuple.__new__, which runs no
        # NamedTuple constructor: each must still be a SignClassCount whose
        # fields read back by name
        for c in range(3, 61):
            brute = brute_counts(c)
            formula = closed_row(c)
            ells = range(c % 2, c - 3 if c % 2 == 0 else c - 1, 2)
            expected = [{"c": c, "ell": ell, "count": closed_n(c, ell)} for ell in ells]
            for row in (brute, formula):
                assert all(type(entry) is SignClassCount for entry in row.by_ell), c
                assert [entry._asdict() for entry in row.by_ell] == expected, c
            assert formula == brute, c

    def test_verify_row_names_each_mismatched_field(self):
        # a by_ell entry missing from the counts is a mismatch too
        counted = brute_counts(16)
        wrong = CensusRow(*counted[:7], counted.avg_genus + 1, counted.by_ell[:-1])
        problems = verify_row(16, wrong)
        assert [problem.split(":")[0] for problem in problems] == [
            "c=16 avg_genus",
            "c=16 by_ell",
        ]

    @pytest.mark.parametrize("field", [None, *CensusRow._fields])
    @pytest.mark.parametrize("c", [15, 16])
    def test_verify_row_names_one_perturbed_field(self, c, field):
        # verify_row compares an agreeing row in one step: a row off in any one
        # field still gets that field named, and at c = 15 also the reference
        # row when the field is one of its six; the untouched row gets nothing
        row = brute_counts(c)
        expected = []
        if field is not None:
            value = getattr(row, field)
            if field == "by_ell":
                value = value[:-1] + (value[-1]._replace(count=value[-1].count + 1),)
            else:
                value += 1
            row = row._replace(**{field: value})
            expected = [f"c={c} {field}"]
            if c in TABLE2_REFERENCE and field not in ("c", "avg_genus", "by_ell"):
                expected.append(f"c={c} reference row mismatch")
        assert [problem.split(":")[0] for problem in verify_row(c, row)] == expected


class TestMirrorQuotient:
    def test_amphichiral_counts_once(self):
        assert is_mirror_representative(canonical_word((2, -2, -2, 2)))

    def test_chiral_pair_counts_once(self):
        trefoils = [(2, -2), (-2, 2)]
        assert sum(is_mirror_representative(w) for w in trefoils) == 1


class TestIdentities:
    def test_all_pass(self):
        checks = verify_identities(80)
        assert len(checks) == 7
        assert all(check.passed for check in checks)

    def test_first_values_by_hand(self):
        checks = {check.name: check for check in verify_identities(3)}
        assert checks["weighted-count-a"].passed  # n=3: 1 + 2*C(4,1) + 4*C(3,2) = 21 = (64-1)/3
        assert sum(2**q * __import__("math").comb(5 - q, q) for q in range(3)) == 21

    def test_boundary_case_uses_half_correction(self):
        # the l = k-1 slice sums to 1 = 2^(k-l-2) + 1/2
        checks = {check.name: check for check in verify_identities(10)}
        assert checks["even-slice-partial-sum"].passed

    def test_counterexample_reporting(self, monkeypatch):
        def params(n_max):
            return ((n,) for n in range(1, n_max + 1))

        false = ("demo", "n == n + 1", params, lambda C, n: n, lambda n: n + 1)
        monkeypatch.setattr(census, "IDENTITIES", census.IDENTITIES + (false,))
        *real, bad = verify_identities(3)
        assert (bad.name, bad.passed, bad.counterexample) == ("demo", False, ((1,), 1, 2))
        assert len(real) == 7 and all(check.passed for check in real)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            verify_identities(0)

    def test_least_bound_passes(self):
        checks = verify_identities(1)
        assert len(checks) == 7 and all(check.passed for check in checks)


class TestEmission:
    @staticmethod
    def stdout(argv, capsys):
        assert main([*argv, "census", "3..5"]) == EXIT_OK
        return capsys.readouterr().out

    def test_markdown_layout(self, capsys):
        lines = self.stdout([], capsys).splitlines()
        assert lines[0].startswith("| c | TK | TS | avg braid | TK* | TS* | avg braid* |")
        assert "| 5 | 4 | 8 | 5/2 | 2 | 4 | 5/2 |" in lines

    def test_csv(self, capsys):
        text = self.stdout(["--format", "csv"], capsys)
        assert text.splitlines()[1] == "3,2,2,2,1,1,2"

    def test_json(self, capsys):
        import json

        payload = json.loads(self.stdout(["--format", "json"], capsys))
        assert payload[2]["avg_braid"] == "5/2"
        assert payload[2]["by_ell"] == {"1": 2, "3": 2}


@pytest.mark.parametrize(
    "call, error, message",
    [
        *(
            (lambda f=f: f(2), ValueError, "crossing number must be >= 3, got 2")
            for f in (brute_counts, closed_tk, closed_tk_star, closed_ts, closed_ts_star)
        ),
        (
            lambda: verify_identities(census.IDENTITIES_N_MAX + 1),
            ResourceBound,
            f"n_max={census.IDENTITIES_N_MAX + 1} exceeds the bound",
        ),
    ],
    ids=["brute_counts", "closed_tk", "closed_tk_star", "closed_ts", "closed_ts_star", "bound"],
)
def test_guard_refuses_out_of_range_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
