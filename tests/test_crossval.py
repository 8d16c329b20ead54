"""Independent checks of the epimorphism search beyond the acceptance horizon.

Each test pairs the search with a method that shares none of its code:
the clause classifier (braid index <= 4), primality (2-strand torus
knots), and the Alexander polynomial.  An epimorphism G(K) -> G(K')
forces the Alexander polynomial of K' to divide that of K, so along
every edge the determinant divides and, sharper, so does the Conway
polynomial, computed here from the word by its own recurrence.  The
Conway check also covers Table 1's images column and every edge the
generator spells through 24 crossings, which come from the generating
words rather than from the search; the generator's knot count at each
c up to 22 is pinned as well.
"""

from collections import Counter
from itertools import zip_longest

from bridgekit.census import enumerate_words
from bridgekit.classify import nonminimal_matches, table1
from bridgekit.contfrac import eval_word, rev_neg
from bridgekit.epim import epi_graph, is_minimal, ors_words
from bridgekit.knot import KNOT_NAMES, canonical_word, crossing_number, knot_from_word


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def determinant(knot):
    return eval_word(knot.canon).denominator


def conway(word):
    """Conway polynomial of the word (2a_1, ..., 2a_n) as coefficients in w = z^2.

    It is the continuant of (a_1 z, -a_2 z, a_3 z, ...).  A continuant of
    k entries has the parity of k in z, so the even ones are kept as
    polynomials in w and the odd ones divided by z.
    """
    even, odd = [1], []  # continuants of the first k and k - 1 entries, k even
    for k, entry in enumerate(word, start=1):
        x = (-1) ** (k + 1) * entry // 2
        if k % 2:
            odd = add([x * c for c in even], odd)
        else:
            even = add([0] + [x * c for c in odd], even)
    while even[-1] == 0:
        even.pop()
    return even


def add(p, q):
    return [a + b for a, b in zip_longest(p, q, fillvalue=0)]


def divides(small, big):
    """Whether ``small`` divides ``big`` in Z[w], by exact long division."""
    rest = list(big)
    for shift in range(len(big) - len(small), -1, -1):
        quotient, remainder = divmod(rest[shift + len(small) - 1], small[-1])
        if remainder:
            return False
        for i, c in enumerate(small):
            rest[shift + i] -= quotient * c
    return not any(rest)


NAMED_WORDS = {label: word for word, label in KNOT_NAMES.items()}


def torus_conway(name):
    """Conway polynomial of a 2-strand torus knot given by its display name."""
    return conway(NAMED_WORDS[name] if name in NAMED_WORDS else tuple(map(int, name.split(","))))


def test_classifier_agrees_with_search_up_to_30_crossings():
    disagreements, checked = [], 0
    for c in range(3, 31):
        for braid in (2, 3, 4):
            ell = c - 2 * (braid - 1)
            if ell < 0:
                continue
            for word in enumerate_words(c, ell=ell):
                checked += 1
                if bool(nonminimal_matches(word)) == is_minimal(knot_from_word(word)):
                    disagreements.append(word)
    assert checked > 1000
    assert not disagreements


def test_torus_knot_minimal_iff_prime():
    for p in range(3, 202, 2):
        assert is_minimal(knot_from_word((2, -2) * ((p - 1) // 2))) == is_prime(p), p


def graph_edges(max_crossing):
    return [edge for *_, edges in epi_graph(max_crossing) for edge in edges]


def test_image_determinant_divides_source_determinant():
    edges = graph_edges(16)
    assert len(edges) > 100
    for big, small, _ in edges:
        assert determinant(big) % determinant(small) == 0, (big.canon, small.canon)


def test_conway_polynomial_sanity_up_to_14_crossings():
    checked = 0
    for c in range(3, 15):
        for word in enumerate_words(c):
            knot = knot_from_word(word)
            poly = conway(word)
            checked += 1
            assert poly[0] == 1, word
            assert abs(sum(a * (-4) ** k for k, a in enumerate(poly))) == determinant(knot), word
            assert len(poly) - 1 == knot.genus, word
    assert checked == 2772


def generated_edges(c_max):
    """(big, small) canonical words of every ORS word ``ors_words`` spells onto
    either orientation of every knot with 3c <= c_max, the epi graph's edges."""
    return {
        (canonical_word(word), canon)
        for c in range(3, c_max // 3 + 1)
        for canon in enumerate_words(c)
        for target in {canon, rev_neg(canon)}
        for _, word in ors_words(target, c_max)
    }


def test_image_conway_divides_source_conway():
    graph = {(big.canon, small.canon) for big, small, _ in graph_edges(18)}
    edges = generated_edges(24)
    assert len(graph) == 1634 and len(edges) == 32510
    assert graph <= edges
    for big, small in edges:
        assert divides(conway(small), conway(big)), (big, small)


def test_generated_knots_per_crossing_number():
    # the knots with an ORS word onto a smaller knot, c = 9..22; closed_tk(22) is 349,525
    spelled = Counter(map(crossing_number, {big for big, _ in generated_edges(22)}))
    assert [spelled[c] for c in range(9, 23)] == [
        6, 8, 14, 20, 30, 36, 78, 138, 266, 456, 752, 1128, 1804, 2846
    ]


def test_table1_image_conway_divides_row_conway():
    pairs = [(row.word, name) for row in table1(45, up_to_mirror=False) for name in row.images]
    assert len(pairs) == 4080
    for word, name in pairs:
        assert divides(torus_conway(name), conway(word)), (word, name)
