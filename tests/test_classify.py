"""Closed-form minimality clauses, and the reference table."""

import hashlib
import random

import pytest

from bridgekit import classify
from bridgekit.census import enumerate_words
from bridgekit.classify import (
    TABLE1_REFERENCE,
    Table1Row,
    _positive_candidates,
    nonminimal_matches,
    reconstruct_params,
    table1,
    table1_diff,
)
from bridgekit.cli import EXIT_MISMATCH, EXIT_OK, main
from bridgekit.epim import AuditFailure, epi_targets, is_minimal, ors_compose
from bridgekit.knot import (
    canonical_word,
    display_name,
    knot_from_word,
    mirror_orbit,
)

from _oracles import is_mirror_representative, matches_per_candidate

# stdout past the golden horizon (table1 --max-c 13), recorded while
# table1 still classified every braid <= 4 knot
TABLE1_BEYOND_GOLDEN = {
    "table1 --max-c 30": "a13fddaa44d6018f72a4229c5d36e5945b6b78b75eae48cb09bc366c24e14e33",
    "--format json table1 --max-c 20 --chiral": (
        "809ac8e28572ff8264390c84e4a0ddc8bfa786359fbc36c865524bd2834bbe85"
    ),
    # every match record through c = 45, recorded before the clauses became one table
    "--format json table1 --max-c 45": (
        "bbb9e53f209dcf9d6fc003c9083019da8e94d049dab012d27b6a11d7f2cb660a"
    ),
    "--format json table1 --max-c 45 --chiral": (
        "cf237947e1fa4e008c0d8d354e5205a4caa7fd90e20b36e5bb55f178ca2ddcc1"
    ),
    # md and csv with --chiral, and csv past c = 13, recorded while classify
    # still wrote its own table cells
    "table1 --max-c 20 --chiral": (
        "74fab9aae3de80621d9553055074159b994116fe13b52b1f305e73cf864bc221"
    ),
    "--format csv table1 --max-c 20 --chiral": (
        "ecaf9dd7478196f76a5a0e22bcc48ebec1459467ee13c09355578302c93c3973"
    ),
    "--format csv table1 --max-c 30": (
        "d3aa3e199b94941f13fd41dc012f7d128460881bb15f1c5a881bdc0323cd6ee4"
    ),
}
ORACLE_C_MAX = 24


def braid_slice(c, braid):
    ell = c - 2 * (braid - 1)
    if ell < 0:
        return
    yield from enumerate_words(c, ell=ell)


def marked_word(rng):
    """An alternating +-2 word of even length up to 200 with up to two marks.

    A mark makes one entry a 4 or a 6, or negates a suffix, which leaves a
    repeated sign; "r+" negates two suffixes one entry apart, which leaves
    two adjacent repeats.  A mark sits at or next to an end, or near a
    multiple of a small odd period, where the clauses put their spots.
    """
    length = 2 * rng.randint(1, 100)
    word = [2 * (-1) ** i for i in range(length)]
    period = rng.choice((3, 5, 7, 9))

    def place():
        if rng.random() < 0.3:
            return rng.choice((1, 2, length - 1, length))
        near = period * rng.randint(1, max(1, length // period)) + rng.randint(-3, 1)
        return min(max(1, near), length)

    cut = 0
    for mark in rng.choice(("", "4", "44", "6", "r", "rr", "4r", "r+")):
        if mark in "r+":
            cut = place() if mark == "r" else cut + 1
            word[cut:] = [-e for e in word[cut:]]
        else:
            i = place() - 1
            word[i] += (2 if mark == "4" else 4) * (1 if word[i] > 0 else -1)
    sign = rng.choice((1, -1))
    return tuple(sign * e for e in word)


class TestNonminimalClauses:
    def test_prime_torus_is_minimal(self):
        assert nonminimal_matches((2, -2) * 3) == ()  # T(7,2), 7 prime

    def test_composite_torus(self):
        match = nonminimal_matches((2, -2) * 4)[0]
        assert match.kind == "TORUS" and (match.r, match.m) == (1, 1)

    def test_merged_pair_clause(self):
        match = nonminimal_matches((2, -4, 4, -2))[0]
        assert match.kind == "4B3"
        assert (match.r, match.m) == (1, 1)
        assert (match.i0, match.i1, match.j0, match.j1) == (2, 3, 1, 2)

    def test_double_repeat_clause(self):
        match = nonminimal_matches((2, -2, -2, -2, 2, -2, 2, -2))[0]
        assert match.kind == "4D"

    def test_mirror_normalization(self):
        # the clause applies to the mirror orbit, not just the given word
        word = (2, -4, 2, -2, 2, -2)
        mirrored = tuple(-e for e in word)
        assert nonminimal_matches(word)[0].kind == "3A2"
        assert nonminimal_matches(mirrored)[0].kind == "3A2"

    def test_position_off_by_one_is_minimal(self):
        # same shape as a 3B row but the repeat sits at a bad position
        word = (2, 2, -2, 2, -2, 2, -2, 2)
        assert nonminimal_matches(word) == ()

    def test_positive_candidates_are_the_orbit_words_leading_positive(self):
        rng = random.Random(31)
        words = [w for c in range(3, 11) for w in enumerate_words(c)]
        words += [
            tuple(rng.choice((2, -2, 4, -4, 6)) for _ in range(rng.randrange(2, 13, 2)))
            for _ in range(300)
        ]
        for word in words:
            for image in mirror_orbit(word):
                expected = tuple(c for c in mirror_orbit(image) if c[0] > 0)
                assert _positive_candidates(image) == expected, image

    def test_braid_five_rejected(self):
        with pytest.raises(ValueError):
            nonminimal_matches((2, -6, 6, -2))

    @pytest.mark.parametrize("c", range(3, 16))
    def test_cross_validation_against_search(self, c):
        """The clause test and the interleaving search must agree exactly."""
        for braid in (2, 3, 4):
            for word in braid_slice(c, braid):
                closed = bool(nonminimal_matches(word))
                searched = not is_minimal(knot_from_word(word))
                assert closed == searched, word

    def test_reconstruction(self):
        for c in range(3, 16):
            for braid in (2, 3, 4):
                for word in braid_slice(c, braid):
                    for match in nonminimal_matches(word):
                        composed = ors_compose(reconstruct_params(match))
                        assert canonical_word(composed) == canonical_word(match.word)


class TestMatcherOracle:
    """``nonminimal_matches`` against the matcher written from the module docstring,
    which shares only ``CLAUSES`` with it and tries every slot tuple."""

    @staticmethod
    def agree(word):
        matches = nonminimal_matches(word)
        assert matches == matches_per_candidate(word), word
        assert len(set(matches)) == len(matches), word
        return matches

    def test_census_words_in_their_mirror_orbits(self):
        words = [
            image
            for c in range(3, 17)
            for braid in (2, 3, 4)
            for word in braid_slice(c, braid)
            for image in mirror_orbit(word)
        ]
        matched = [word for word in words if self.agree(word)]
        assert len(words) == 2666 and len(matched) == 340

    def test_seeded_marked_words(self):
        rng = random.Random(3801)
        seen = dict.fromkeys(["first", "last", "adjacent repeats", "six", "both words"], 0)
        for _ in range(2000):
            word = marked_word(rng)
            matches = self.agree(word)
            enlarged = [i for i, e in enumerate(word, 1) if abs(e) != 2]
            repeats = [i for i in range(1, len(word)) if word[i - 1] * word[i] > 0]
            seen["first"] += 1 in enlarged + repeats
            seen["last"] += len(word) in enlarged or len(word) - 1 in repeats
            seen["adjacent repeats"] += len(repeats) == 2 and repeats[1] - repeats[0] == 1
            seen["six"] += any(abs(e) == 6 for e in word)
            seen["both words"] += len({match.word for match in matches}) == 2
        assert min(seen.values()) >= 30, seen


class TestTable:
    def test_reference_reproduced(self):
        rows = table1(15)
        assert len(rows) == len(TABLE1_REFERENCE) == 28
        assert table1_diff(rows) == []

    def test_small_horizon(self):
        rows = table1(9)
        assert [(r.braid, r.kind, r.crossing) for r in rows] == [
            (2, "2", 9),
            (3, "3A2", 9),
            (4, "4B3", 9),
        ]
        assert table1_diff(rows, c_max=9) == []

    def test_trefoil_horizon_is_empty(self):
        assert table1(3) == []
        assert table1(2) == []

    def test_images_column(self):
        by_word = {row.word: row.images for row in table1(15)}
        assert by_word[(2, -2) * 7] == ("3_1", "5_1")
        assert by_word[(2, -2, 2, -4, 2, -2, 2, -2, 2, -2, 2, -2)] == ("5_1",)

    def test_chiral_table_covers_both_hands(self):
        mirror_rows = table1(11)
        chiral_rows = table1(11, up_to_mirror=False)

        def amphichiral(word):
            return canonical_word(word) == canonical_word(tuple(-e for e in word))

        expected = sum(1 if amphichiral(row.word) else 2 for row in mirror_rows)
        assert len(chiral_rows) == expected

    def test_diff_detects_corruption(self):
        rows = table1(9)
        assert table1_diff(rows[:-1], c_max=9)  # dropped row reported
        assert any("missing" in line for line in table1_diff(rows[:-1], c_max=9))

    def test_beyond_reference_horizon(self):
        # new non-minimal knots appear at c = 16; the diff only judges c <= 15
        rows = table1(16)
        assert any(row.crossing == 16 for row in rows)
        assert table1_diff(rows, c_max=16) == []


def enumerated_table1(c_max, *, up_to_mirror=True):
    """The table as built before its rows came from ORS words.

    Runs the clause classifier on every braid <= 4 knot with crossing
    <= c_max and keeps the non-minimal ones.
    """
    rows = []
    for c in range(3, c_max + 1):
        for braid in (2, 3, 4):
            for word in braid_slice(c, braid):
                if up_to_mirror and not is_mirror_representative(word):
                    continue
                matches = nonminimal_matches(word)
                if not matches:
                    continue
                witnesses = epi_targets(knot_from_word(word))
                images = tuple(sorted({display_name(w.small) for w in witnesses}))
                display = (
                    min(w for w in mirror_orbit(word) if w[0] > 0) if up_to_mirror else word
                )
                rows.append(Table1Row(braid, matches[0].label, c, display, images, matches))
    rows.sort(key=lambda row: (row.braid, row.kind, row.crossing, row.images, row.word))
    return rows


@pytest.fixture(scope="module")
def enumerated_rows():
    return {mode: enumerated_table1(ORACLE_C_MAX, up_to_mirror=mode) for mode in (True, False)}


class TestGeneratedTable:
    @pytest.mark.parametrize("up_to_mirror", [True, False])
    @pytest.mark.parametrize("c_max", range(3, ORACLE_C_MAX + 1))
    def test_rows_match_enumerate_and_classify(self, enumerated_rows, c_max, up_to_mirror):
        # the oracle loops over c and sorts, so its rows for c_max are
        # those of ORACLE_C_MAX with crossing <= c_max
        expected = [
            (row, row.matches)
            for row in enumerated_rows[up_to_mirror]
            if row.crossing <= c_max
        ]
        got = table1(c_max, up_to_mirror=up_to_mirror)
        assert [(row, row.matches) for row in got] == expected

    def test_clause_miss_is_an_audit_failure(self, monkeypatch, capsys):
        # table1 matches its checked rows through the internal matcher
        monkeypatch.setattr(classify, "_matches", lambda candidates, braid: ())
        with pytest.raises(AuditFailure):
            table1(9)
        assert main(["table1", "--max-c", "9"]) == EXIT_MISMATCH
        assert "matches no clause" in capsys.readouterr().err

    def test_audit_miss_is_an_audit_failure(self, monkeypatch, capsys):
        def fail(params, composed=None):
            raise AuditFailure(f"audit rejected {params}")

        monkeypatch.setattr(classify, "audit_params", fail)
        with pytest.raises(AuditFailure):
            table1(9)
        assert main(["table1", "--max-c", "9"]) == EXIT_MISMATCH
        assert "verification failed" in capsys.readouterr().err

    def test_images_match_the_search_through_30(self):
        # the images come from the generating words; the search finds them anew
        rows = table1(30, up_to_mirror=False)
        assert len(rows) == 1154
        for row in rows:
            witnesses = epi_targets(knot_from_word(row.word))
            assert row.images == tuple(sorted({display_name(w.small) for w in witnesses}))

    @pytest.mark.parametrize("command", list(TABLE1_BEYOND_GOLDEN))
    def test_stdout_matches_recorded_digest(self, command, capsys):
        code = main(command.split(" "))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE1_BEYOND_GOLDEN[command]


class TestEmission:
    @staticmethod
    def stdout(argv, capsys):
        assert main([*argv, "table1", "--max-c", "9"]) == EXIT_OK
        return capsys.readouterr().out

    def test_markdown(self, capsys):
        text = self.stdout([], capsys)
        assert "| 4 | 4B3 | 9 | [2, -4, 4, -2] | 3_1 |" in text

    def test_csv(self, capsys):
        text = self.stdout(["--format", "csv"], capsys)
        assert text.splitlines()[0] == "braid,type,c,even continued fraction,onto"
        assert '4,4B3,9,"[2, -4, 4, -2]",3_1' in text

    def test_json(self, capsys):
        import json

        payload = json.loads(self.stdout(["--format", "json"], capsys))
        row = next(r for r in payload if r["type"] == "4B3")
        assert row["word"] == "2,-4,4,-2"
        assert row["matches"][0]["kind"] == "4B3"
        assert row["matches"][0]["j1"] == 2
