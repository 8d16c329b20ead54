"""Independent checks of the epimorphism search beyond the acceptance horizon.

Each test pairs the search with a method that shares none of its code:
the clause classifier (braid index <= 4), primality (2-strand torus
knots), and the Alexander polynomial, whose divisibility along an
epimorphism shows in the determinant.
"""

from bridgekit.census import enumerate_words
from bridgekit.classify import nonminimal_matches
from bridgekit.contfrac import eval_word
from bridgekit.epim import epi_graph, is_minimal
from bridgekit.knot import knot_from_word


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def determinant(knot):
    return eval_word(knot.canon).denominator


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


def test_image_determinant_divides_source_determinant():
    graph = epi_graph(16)
    assert len(graph.edges) > 100
    for big, small, _ in graph.edges:
        assert determinant(big) % determinant(small) == 0, (big.canon, small.canon)
