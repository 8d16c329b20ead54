"""Knot classes, invariants, and mirror quotients."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgekit.census import closed_tk, closed_tk_star, enumerate_words
from bridgekit.contfrac import format_word, negate, rev_neg, reverse, sign_changes
from bridgekit.knot import (
    KNOT_NAMES,
    braid_index,
    canonical_word,
    crossing_number,
    display_name,
    KnotClass,
    is_torus_two_strand,
    knot_from_word,
    mirror_canonical_word,
    mirror_orbit,
)

from _oracles import genus, knot_json

halves = st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0)
even_words = st.lists(halves, min_size=2, max_size=12).map(
    lambda hs: tuple(2 * h for h in hs[: len(hs) // 2 * 2])
)


def mirror_class(knot):
    """The knot's class up to mirror image, as the class of its mirror-canonical word."""
    return knot_from_word(mirror_canonical_word(knot.canon))


class TestInvariants:
    def test_trefoil(self):
        k = knot_from_word((2, -2))
        assert (k.crossing, k.braid, k.genus) == (3, 2, 1)

    def test_reference_words(self):
        k = knot_from_word((2, -4, 4, -2))
        assert (k.crossing, k.braid) == (9, 4)
        k = knot_from_word((2, -2) * 4)
        assert (k.crossing, k.braid) == (9, 2)

    def test_plain_functions(self):
        assert braid_index((2, 2)) == 3  # figure-eight
        assert crossing_number((2, -2, 2, -2, 2, -4, 2, -2)) == 11
        assert genus((2, -2, 2, -2)) == 2

    @given(even_words)
    def test_braid_crossing_relation(self, word):
        assert 2 * braid_index(word) == crossing_number(word) + 2 - sign_changes(word)

    @given(even_words)
    def test_orbit_invariance(self, word):
        # crossing and braid agree across the whole mirror orbit
        for image in (rev_neg(word), negate(word), reverse(word)):
            assert crossing_number(image) == crossing_number(word)
            assert braid_index(image) == braid_index(word)

    @given(even_words)
    def test_class_representative_is_stable(self, word):
        assert knot_from_word(word) == knot_from_word(rev_neg(word))

    @given(even_words)
    def test_braid_lower_bound(self, word):
        b = braid_index(word)
        assert b >= 2
        alternating = all(abs(e) == 2 for e in word) and sign_changes(word) == len(word) - 1
        assert (b == 2) == alternating


class TestTorusDetection:
    def test_alternating_words(self):
        assert is_torus_two_strand(knot_from_word((2, -2) * 4)) == 9
        assert is_torus_two_strand(knot_from_word((2, -2))) == 3
        assert is_torus_two_strand(knot_from_word((-2, 2))) == 3  # mirror torus

    def test_non_torus(self):
        assert is_torus_two_strand(knot_from_word((2, 2))) is None

    def test_inconsistent_class_rejected(self):
        # braid index 2 with a word that is not alternating +-2
        bogus = KnotClass(canon=(2, -4), crossing=5, braid=2, genus=1, signchg=1)
        with pytest.raises(ValueError):
            is_torus_two_strand(bogus)


class TestMirror:
    def test_negate_orbit_shares_class(self):
        assert mirror_class(knot_from_word((2, 2))) == mirror_class(knot_from_word((-2, -2)))

    def test_chiral_pair(self):
        right = knot_from_word((2, -2))
        left = knot_from_word((-2, 2))
        assert right != left
        assert mirror_class(right) == mirror_class(left)

    def test_idempotent(self):
        m = mirror_class(knot_from_word((2, -2, 2, 2)))
        again = mirror_class(knot_from_word(m.canon))
        assert again == m

    def test_orbit_size(self):
        assert len(mirror_orbit((2, -2))) == 2  # rev_neg-fixed chiral pair
        assert len(mirror_orbit((2, -2, 2, 2))) == 4


class TestCounts:
    @pytest.mark.parametrize("c", range(3, 13))
    def test_distinct_classes_match_closed_counts(self, c):
        knots = {knot_from_word(w) for w in enumerate_words(c)}
        assert len(knots) == closed_tk(c)
        mirrors = {mirror_class(k) for k in knots}
        assert len(mirrors) == closed_tk_star(c)
        assert all(k.crossing == c for k in knots)


class TestNamesAndJson:
    def test_names(self):
        assert display_name(knot_from_word((2, -2))) == "3_1"
        assert display_name(knot_from_word((-2, 2))) == "3_1"
        assert display_name(knot_from_word((2, 2))) == "4_1"
        assert display_name(knot_from_word((2, -2, 2, -2))) == "5_1"
        assert display_name(knot_from_word((2, -4, 4, -2))) == "2,-4,4,-2"

    def test_a_knot_and_its_mirror_image_share_a_name(self):
        # KNOT_NAMES names each chirality, so a name is one of a mirror class
        by_class = {mirror_canonical_word(word): name for word, name in KNOT_NAMES.items()}
        assert len(KNOT_NAMES) == 5 and sorted(set(by_class.values())) == ["3_1", "4_1", "5_1"]
        for c in range(3, 13):
            for word in enumerate_words(c):
                knot = knot_from_word(word)
                name = by_class.get(mirror_canonical_word(word), format_word(word))
                assert display_name(knot) == name, word

    def test_json_schema(self):
        payload = knot_json(knot_from_word((2, -4, 4, -2)))
        assert payload == {"word": "2,-4,4,-2", "crossing": 9, "braid": 4, "genus": 2}
        json.dumps(payload)

    def test_canonical_order_fixed(self):
        assert canonical_word((4, 2)) == (-2, -4)
        assert canonical_word((2, -4)) == (2, -4)
        assert hash(knot_from_word((2, -2)))  # an immutable record, usable in sets
