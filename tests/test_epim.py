"""Interleaving composition, inequality audits, and epimorphism search."""

import hashlib
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bridgekit import epim
from bridgekit.census import enumerate_words
from bridgekit.cli import witness_writer, write_dot, write_json
from bridgekit.contfrac import format_word, negate, rev_neg, reverse, sign_changes
from bridgekit.epim import (
    AuditFailure,
    EpiWitness,
    InequalityAudit,
    OrsParams,
    admits_epi,
    audit_inequality,
    audit_params,
    epi_graph,
    epi_targets,
    is_minimal,
    ors_compose,
    ors_words,
)
from bridgekit.knot import (
    braid_index,
    canonical_word,
    crossing_number,
    display_name,
    knot_from_word,
)

from _oracles import witness_json

TREFOIL = knot_from_word((2, -2))
TORUS9 = knot_from_word((2, -2) * 4)
TORUS15 = knot_from_word((2, -2) * 7)


def params(target, r, eps, cvec):
    return OrsParams(target=tuple(target), r=r, eps=tuple(eps), cvec=tuple(cvec))


def audited(p):
    """The audit of the word that ``p`` spells."""
    return audit_params(p, ors_compose(p))


def random_params(rng, target):
    """Seeded ORS parameters onto ``target``: r <= 2, connectors in -3..3."""
    r = rng.randint(1, 2)
    cvec = tuple(rng.randint(-3, 3) for _ in range(2 * r))
    eps = [1]
    for j, cj in enumerate(cvec):
        eps.append(eps[j] if cj == 0 else rng.choice((1, -1)))
    return params(target, r, eps, cvec)


class TestCompose:
    def test_plain_interleaving(self):
        assert ors_compose(params((2, -2), 1, (1, 1, 1), (1, -1))) == (2, -2) * 4

    def test_enlarged_connector(self):
        assert ors_compose(params((2, -2), 1, (1, 1, 1), (1, -2))) == (
            2, -2, 2, -2, 2, -4, 2, -2,
        )

    def test_delete_and_merge(self):
        assert ors_compose(params((2, -2), 1, (1, 1, 1), (0, -1))) == (
            2, -4, 2, -2, 2, -2,
        )

    def test_double_merge(self):
        assert ors_compose(params((2, -2), 1, (1, 1, 1), (0, 0))) == (2, -4, 4, -2)

    def test_sign_flip_blocks(self):
        assert ors_compose(params((2, -2), 1, (1, -1, -1), (-1, 1))) == (
            2, -2, -2, 2, -2, 2, -2, 2,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            params((2, -2), 1, (-1, 1, 1), (1, -1))  # leading sign must be +1
        with pytest.raises(ValueError):
            params((2, -2), 1, (1, -1, 1), (0, 1))  # zero connector needs equal signs
        with pytest.raises(ValueError):
            params((2, -2), 0, (1,), ())
        with pytest.raises(ValueError):
            params((2, -3), 1, (1, 1, 1), (1, -1))  # target must be a reduced even word

    def test_composition_is_even_word(self):
        rng = random.Random(7)
        pool = [w for c in range(3, 8) for w in enumerate_words(c)]
        for _ in range(300):
            target = rng.choice(pool)
            r = rng.randint(1, 2)
            cvec = tuple(rng.randint(-2, 2) for _ in range(2 * r))
            eps = [1]
            for j, cj in enumerate(cvec):
                eps.append(eps[j] if cj == 0 else rng.choice((1, -1)))
            word = ors_compose(params(target, r, eps, cvec))
            assert len(word) % 2 == 0
            assert all(e and e % 2 == 0 for e in word)


class TestAudit:
    def test_equality_case_all_terms_zero(self):
        p = params((2, -2), 1, (1, 1, 1), (1, -1))
        audit = audited(p)
        assert audit[:4] == (0, 0, 0, 0) and audit.slack == 0

    def test_enlarged_connector_charges_cbudget(self):
        audit = audited(params((2, -2), 1, (1, 1, 1), (1, -2)))
        assert audit.slack == 1
        assert audit[:4] == (0, 1, 0, 0)

    def test_deleted_connector_charges_zero_term(self):
        audit = audited(params((2, -2), 1, (1, 1, 1), (0, -1)))
        assert audit.slack == 1
        assert audit[:4] == (0, 0, 1, 0)

    def test_sign_flip_charges_signs_term(self):
        audit = audited(params((2, -2), 1, (1, -1, -1), (-1, 1)))
        assert audit.slack == 1
        assert audit[:4] == (0, 0, 0, 1)

    def test_witness_audit_recomputes(self):
        witness = admits_epi(TORUS9, TREFOIL)
        assert audit_inequality(witness) == witness.audit

    def test_tampered_witness_rejected(self):
        witness = admits_epi(TORUS9, TREFOIL)
        tampered = EpiWitness(
            big=TORUS15, small=witness.small, params=witness.params, audit=witness.audit
        )
        with pytest.raises(AuditFailure):
            audit_inequality(tampered)

    def test_random_soundness(self):
        rng = random.Random(1729)
        pool = [w for c in range(3, 10) for w in enumerate_words(c)]
        for _ in range(2000):
            target = rng.choice(pool)
            p = random_params(rng, target)
            composed = ors_compose(p)
            audit = audit_params(p, composed)  # raises on any violation
            assert braid_index(composed) >= 3 * braid_index(target) - 4
            assert crossing_number(composed) >= 3 * crossing_number(target)
            assert sum(audit[:4]) == audit.slack

    def test_one_count_audit_matches_a_count_from_scratch(self):
        # every word generated onto each target with c <= 5 at c_max 20
        def changes(word):
            return sum((a < 0) != (b < 0) for a, b in zip(word, word[1:]))

        def braid(word):
            return sum(abs(e) for e in word) // 2 - changes(word) + 1

        checked = 0
        for c in range(3, 6):
            for canon in enumerate_words(c):
                for target in {canon, rev_neg(canon)}:
                    for p, word in ors_words(target, 20):
                        nonzero = [x for x in p.cvec if x]
                        expected = InequalityAudit(
                            term_copies=(2 * p.r - 2) * (braid(target) - 2),
                            term_cbudget=sum(abs(x) - 1 for x in nonzero),
                            term_zero=2 * p.r - len(nonzero),
                            term_signs=(2 * p.r + 1) * changes(target)
                            + 2 * len(nonzero) - changes(word),
                            slack=braid(word) - 3 * braid(target) + 4,
                        )
                        assert audit_params(p, word) == expected, (p, word)
                        checked += 1
        assert checked == 5552

    def test_equality_cases_are_the_stated_parameters(self):
        # Slack 0 iff all four terms are 0.  copies: r = 1 or braid(a) = 2.
        # cbudget and zero: every connector c_j is +-1.  signs: every connector
        # changes sign on both sides, so eps_{j+1} = eps_j, all +1 from eps_1,
        # and c_j is opposite in sign to the target entry at its boundary:
        # a[-1] after a block a (even j here) and a[0] after a block a^rev.
        slack_zero = Counter()
        checked = 0
        for c in range(3, 9):
            for canon in enumerate_words(c):
                for target in {canon, rev_neg(canon)}:
                    boundary = (-1 if target[-1] > 0 else 1, -1 if target[0] > 0 else 1)
                    for p, word in ors_words(target, 24):
                        stated = (
                            set(p.eps) == {1}
                            and (p.r == 1 or braid_index(target) == 2)
                            and all(x == boundary[j % 2] for j, x in enumerate(p.cvec))
                        )
                        assert (audit_params(p, word).slack == 0) == stated, p
                        slack_zero[crossing_number(word)] += stated
                        checked += 1
        assert checked == 41_176
        assert +slack_zero == {9: 2, 12: 2, 15: 8, 18: 10, 21: 24, 24: 42}

    def test_composed_word_with_a_flipped_sign_rejected(self):
        # (-2,4,-4,-2) has two sign changes more than (-2,-4,-4,-2), which the
        # zero connectors onto (-2,-2) leave no room for in the signs term
        p = params((-2, -2), 1, (1, 1, 1), (0, 0))
        assert audit_params(p, (-2, -4, -4, -2))[:4] == (0, 0, 2, 0)
        with pytest.raises(AuditFailure):
            audit_params(p, (-2, 4, -4, -2))


class TestSearch:
    def test_torus9_targets_trefoil_only(self):
        witnesses = epi_targets(TORUS9)
        assert [display_name(w.small) for w in witnesses] == ["3_1"]
        assert witnesses[0].params.cvec == (1, -1)

    def test_torus15_targets(self):
        names = sorted({display_name(w.small) for w in epi_targets(TORUS15)})
        assert names == ["3_1", "5_1"]

    def test_figure_eight_has_no_targets(self):
        assert epi_targets(knot_from_word((2, 2))) == []

    def test_admits_epi_examples(self):
        witness = admits_epi(knot_from_word((2, -2, 2, -2, 2, -4, 2, -2)), TREFOIL)
        assert witness is not None
        assert witness.params.r == 1 and witness.params.cvec == (1, -2)
        assert admits_epi(TREFOIL, TREFOIL) is None  # proper targets only
        assert admits_epi(knot_from_word((2, -4, 4, -2)), TREFOIL) is not None

    def test_admits_epi_crossing_bound(self):
        assert admits_epi(knot_from_word((2, 2)), TREFOIL) is None

    def test_admits_consistent_with_targets(self):
        big = knot_from_word((2, -2, 2, -2, 2, -4, 2, -2))
        witnesses = epi_targets(big)
        onto_trefoil = [w for w in witnesses if w.small == TREFOIL]
        assert onto_trefoil and admits_epi(big, TREFOIL) == onto_trefoil[0]

    def test_admits_epi_onto_each_torus_image_of_a_long_word(self):
        # T(6003,2) maps onto T(d,2) for each divisor 3 <= d <= 2001 of
        # 6003 = 3^2 23 29; the search for one skips the other crossings
        big = knot_from_word((2, -2) * 3001)
        witnesses = epi_targets(big)
        smalls = {w.small for w in witnesses}
        assert sorted(s.crossing for s in smalls) == [3, 9, 23, 29, 69, 87, 207, 261, 667, 2001]
        for small in smalls:
            least = min((w for w in witnesses if w.small == small), key=EpiWitness.sort_key)
            assert admits_epi(big, small) == least, small.crossing

    def test_minimality_examples(self):
        assert is_minimal(TREFOIL)
        assert not is_minimal(TORUS9)
        assert is_minimal(knot_from_word((2, -2) * 3))  # 7 is prime

    def test_witnesses_recompose(self):
        for big_word in ((2, -2) * 4, (2, -4, 4, -2), (2, -2, -2, 2, -2, 2, -2, 2)):
            big = knot_from_word(big_word)
            for witness in epi_targets(big):
                assert canonical_word(ors_compose(witness.params)) == big.canon

    def test_rev_neg_connector_swap_same_class(self):
        first = ors_compose(params((2, -2), 1, (1, 1, 1), (2, -1)))
        second = ors_compose(params((2, -2), 1, (1, 1, 1), (1, -2)))
        assert first == rev_neg(second)
        assert knot_from_word(first) == knot_from_word(second)

    def test_mirror_symmetry_of_detection(self):
        # mirroring the big knot mirrors its target set
        big = knot_from_word((2, -2, -2, 2, -2, 2, -2, 2))
        mirrored = knot_from_word(tuple(-e for e in big.canon))
        names = lambda k: sorted({display_name(w.small) for w in epi_targets(k)})
        assert names(big) == names(mirrored) == ["3_1"]

    def test_composed_ors_words_map_onto_the_first_target(self):
        # an ORS word w2 onto a word of the knot w1, itself an ORS word onto a,
        # maps onto a, or onto a's mirror image where w2 was built on w1's mirror
        rng = random.Random(2020)
        pool = [word for c in range(3, 7) for word in enumerate_words(c)]
        onto_mirror_only = 0
        for _ in range(1000):
            small = rng.choice(pool)
            w1 = ors_compose(random_params(rng, rng.choice((small, rev_neg(small)))))
            w1 = rng.choice((w1, rev_neg(w1), negate(w1), reverse(w1)))
            big = knot_from_word(ors_compose(random_params(rng, w1)))
            if admits_epi(big, knot_from_word(small)) is None:
                assert admits_epi(big, knot_from_word(negate(small))), (big.canon, small)
                onto_mirror_only += 1
        assert onto_mirror_only > 100

    def test_crossing_cap_skips_unreadable_patterns(self, monkeypatch):
        # T(13,2) onto the trefoil: the crossings allow r <= 1, whose three
        # blocks spell at most 8 of the 12 entries, so the pattern is never
        # read; bounded by length alone, r would reach 5 and it would be
        def unread(*args):
            raise AssertionError(f"pattern read: {args[1:]}")

        monkeypatch.setattr(epim, "_parse", unread)
        assert epi_targets(knot_from_word((2, -2) * 6)) == []

    def test_admits_epi_is_the_least_target_witness_through_13(self):
        # every pair (big, small) with c(big) <= 13 and 3 c(small) <= c(big), both
        # chiralities of each: the one target length that admits_epi reads must
        # give the least witness epi_targets finds onto small, and None as often
        knots = {
            knot_from_word(chiral)
            for c in range(3, 14)
            for word in enumerate_words(c)
            for chiral in (word, negate(word))
        }
        found = onto = 0
        for big in sorted(knots):
            witnesses = epi_targets(big)
            for small in (k for k in knots if 3 * k.crossing <= big.crossing):
                least = next((w for w in witnesses if w.small == small), None)
                assert admits_epi(big, small) == least, (big.canon, small.canon)
                found += 1
                onto += least is not None
        assert (found, onto) == (3765, 102)

    @pytest.mark.parametrize(
        "big, small, lengths",
        [
            ((2, -2) * 13, (2, -2), {2}),  # T(27,2) onto T(3,2) and T(9,2)
            ((2, -2) * 13, (2, -2) * 4, {8}),
            ((2, -2) * 12, (2, -2, 2, -2), {4}),  # T(25,2) onto T(5,2)
            ((4,) * 30, (4, 2), {2}),  # read as (4, 4) too, which is another knot
            ((4,) * 30, (4, 4, 4, 4), {4}),
            ((2, -4, 4, -2, 2, -4, 4, -2), (2, -2), {2}),
            ((2, -40, 2, -40), (2, -2, 2, -2), set()),  # 3 * 5 <= 81, but 4 > (4-1)//3 + 1
            ((2, -40, 2, -40), (2, -2, 2, -2, 2, -2), set()),  # longer than the word
            ((2, -40, 2, -40), (2, -2), set()),  # 3 blocks of length 2 take 4 entries, not 3
            ((2, -2) * 6, (2, -2), set()),  # T(13,2): r <= 1 by crossings spells 8 < 12 entries
        ],
        ids=[
            "T27-3_1", "T27-T9", "T25-5_1", "4x30-(4,2)", "4x30-(4,4,4,4)", "4B3x2-3_1",
            "entries40-5_1", "entries40-longer", "entries40-3_1", "T13-3_1",
        ],
    )
    def test_admits_epi_reads_only_the_target_length(self, monkeypatch, big, small, lengths):
        read = []

        def recording(word, pattern, r_max):
            read.append(len(pattern))
            return parse(word, pattern, r_max)

        parse = epim._parse
        monkeypatch.setattr(epim, "_parse", recording)
        big, small = knot_from_word(big), knot_from_word(small)
        witness = admits_epi(big, small)
        assert set(read) == lengths
        monkeypatch.setattr(epim, "_parse", parse)
        assert witness == next((w for w in epi_targets(big) if w.small == small), None)

    @pytest.mark.parametrize("word", [(2, 4) * 3000, (4,) * 6000], ids=["2,4", "4"])
    def test_periodic_word_is_searched(self, word):
        # every small pattern of a word of one sign reads far into it;
        # rereading the word for each r took over 5,000,000 steps at 6,000 entries
        big = knot_from_word(word)
        witnesses = epi_targets(big)
        assert witnesses
        for witness in witnesses:
            assert canonical_word(ors_compose(witness.params)) == big.canon

    def test_deterministic_order(self):
        big = knot_from_word((2, -2, 2, -2, 2, -4, 2, -2))
        assert epi_targets(big) == epi_targets(big)


class TestGenerator:
    @pytest.mark.parametrize(
        "targets, c_max, braid_max",
        [
            *(
                ([(2, -2) * m for m in range(1, (c_max // 3 - 1) // 2 + 1)], c_max, 4)
                for c_max in (13, 30, 45)
            ),
            ([(2, 2)], 24, None),
        ],
        ids=["13", "30", "45", "2,2"],
    )
    def test_generated_words_within_bounds(self, targets, c_max, braid_max):
        for target in targets:
            generated = list(ors_words(target, c_max, braid_max))
            assert generated
            for params, word in generated:
                assert params.target == target
                assert crossing_number(word) <= c_max
                assert braid_max is None or braid_index(word) <= braid_max
                assert ors_compose(params) == word

    @pytest.mark.parametrize(
        "target, c_max, braid_max, digest",
        [
            ((2, -2), 13, 4, "31ae63a364e4eed53fc12368eea78892d3817e0644dc2d4739c321fb97a66425"),
            ((2, -2), 45, 4, "e064474fd18bf0fea6e39fe9414b9d5cab07675b8dfbb4ea576efbcbf6f125c7"),
            ((-2, 2), 22, None, "b9482a3663050c05c1dabbb6339b6fac5067c8a9850ec8ec921eb404c8b93963"),
            (
                (2, -4, 2, -2), 22, None,
                "e2e7849c1d1d666ab740536c94217124b47b089391288f22c5ca2471e602dfe2",
            ),
        ],
        ids=["2,-2 at 13", "2,-2 at 45", "-2,2 at 22", "2,-4,2,-2 at 22"],
    )
    def test_walk_output_is_pinned(self, target, c_max, braid_max, digest):
        # every word and its parameters, in walk order, as the walk yielded them
        # before it looked one block ahead
        words = repr(list(ors_words(target, c_max, braid_max)))
        assert hashlib.sha256(words.encode()).hexdigest() == digest


def word_of(text):
    """The word a node's text spells."""
    return tuple(map(int, text.split(",")))


def graph_text(write, max_crossing):
    out = io.StringIO()
    write(max_crossing, out)
    return out.getvalue()


def graph_edges(max_crossing):
    return [edge for *_, edges in epi_graph(max_crossing) for edge in edges]


class TestGraph:
    def test_graph_smoke(self):
        slices = list(epi_graph(9))
        words = [word_of(text) for *_, texts, _ in slices for text in texts]
        assert (2, -2) in words and len(words) == 2 + 1 + 4 + 5 + 14 + 21 + 48
        for c, m, ell, texts, _ in slices:
            for word in map(word_of, texts):
                assert (crossing_number(word), len(word), sign_changes(word)) == (c, 2 * m, ell)
        edges = {(big.canon, small.canon) for big, small, _ in graph_edges(9)}
        assert ((2, -2, 2, -2, 2, -2, 2, -2), (2, -2)) in edges
        assert ((2, -4, 4, -2), (2, -2)) in edges

    def test_dot_output(self):
        dot = graph_text(write_dot, 9)
        assert dot.startswith("digraph epimorphisms {") and dot.endswith("}\n")
        assert '"2,-2,2,-2,2,-2,2,-2" -> "2,-2"' in dot

    def test_json_output(self):
        payload = json.loads(graph_text(write_json, 9))
        assert payload["max_crossing"] == 9
        names = {node["name"] for node in payload["nodes"]}
        assert {"3_1", "4_1", "5_1"} <= names
        edge = next(
            e for e in payload["edges"] if e["source"] == "2,-2,2,-2,2,-2,2,-2"
        )
        assert edge["target"] == "2,-2"
        assert edge["witnesses"][0]["audit"]["slack"] == 0

    def test_graph_deterministic(self):
        assert graph_text(write_json, 11) == graph_text(write_json, 11)

    def test_json_digest_at_15(self):
        # the digest of json.dumps(payload, indent=2), kept since the graph was searched
        text = graph_text(write_json, 15)
        assert hashlib.sha256(text[:-1].encode()).hexdigest().startswith("512d960a4ceba223")

    def test_witnesses_match_the_search_through_18(self):
        # the generated edges and the search, node by node, witness for witness
        witnesses = 0
        for *_, texts, edges in epi_graph(18):
            by_source = {}
            for big, _, group in edges:
                by_source.setdefault(format_word(big.canon), []).extend(group)
            for text in texts:
                generated = by_source.pop(text, [])
                assert generated == epi_targets(knot_from_word(word_of(text))), text
                witnesses += len(generated)
            assert not by_source
        assert witnesses == 2064


def dumps(witnesses, margin=""):
    """The witness writer's reference: json.dumps, with ``margin`` after each newline."""
    return json.dumps([witness_json(w) for w in witnesses], indent=2).replace("\n", "\n" + margin)


def census_words(low, high):
    return [w for c in range(low, high + 1) for w in enumerate_words(c)]


CENSUS_6_TO_10 = census_words(6, 10)
# For each r, the targets (in both orientations) whose 2r + 1 blocks fit in
# about 26 crossings, leaving room for the connectors under 30.
TARGETS_FOR_R = {
    r: sorted({o for w in census_words(3, 26 // (2 * r + 1)) for o in (w, rev_neg(w))})
    for r in (1, 2, 3)
}


@st.composite
def searched_words(draw):
    """A word with c from 6 to 30: a census word, or one spelled by drawn ORS parameters."""
    if draw(st.booleans()):
        return draw(st.sampled_from(CENSUS_6_TO_10))
    r = draw(st.integers(1, 3))
    target = draw(st.sampled_from(TARGETS_FOR_R[r]))
    cvec = draw(st.lists(st.integers(-2, 2), min_size=2 * r, max_size=2 * r))
    eps = [1]
    for j, cj in enumerate(cvec):
        eps.append(eps[j] if cj == 0 else draw(st.sampled_from((1, -1))))
    word = ors_compose(params(target, r, eps, cvec))
    assume(crossing_number(word) <= 30)
    return word


class TestWitnessWriter:
    """The witness writer writes what json.dumps writes, byte for byte."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(searched_words(), st.integers(0, 8).map(" ".__mul__))
    @example((2, -4, 4, -4, 4, -2), "")  # r = 2, every connector zero
    @example((2, -2, 2, -2, 2, -2, -2, 4, -2, -4, 2, -2), "      ")  # r = 2, one connector zero
    def test_targets_are_written_as_json_dumps_writes_them(self, word, margin):
        witnesses = epi_targets(knot_from_word(word))
        write = witness_writer(margin)
        assert write(witnesses) == dumps(witnesses, margin)
        # the same writer again, from the knot texts it kept
        assert write(witnesses[::-1]) == dumps(witnesses[::-1], margin)

    def test_graph_edges_are_written_as_json_dumps_writes_them(self):
        # one writer for every edge, as write_json uses it
        write = witness_writer("      ")
        edges = graph_edges(12)
        assert len(edges) == 72
        for _, _, witnesses in edges:
            assert write(witnesses) == dumps(witnesses, "      ")

    def test_empty_list(self):
        assert witness_writer()([]) == "[]" == dumps([])
        assert witness_writer("    ")([]) == "[]"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: OrsParams((2, -2), 1, (1, 2, 1), (1, 1)), ValueError, "signs must be"),
        # (1, -1) composes to (2, -2) * 4; this misspelled word keeps every
        # term non-negative, but they sum to 2 against a slack of 1
        (
            lambda: audit_params(params((2, -2), 1, (1, 1, 1), (1, -1)), (2, -2, 2, -2, 2, -4)),
            AuditFailure,
            "do not sum to the slack",
        ),
    ],
    ids=["signs", "audit-sum"],
)
def test_guard_refuses_inconsistent_parameters(call, error, message):
    with pytest.raises(error, match=message):
        call()
