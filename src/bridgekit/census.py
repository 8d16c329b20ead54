"""Census of two-bridge knots by crossing number.

Enumeration side: every reduced even word with crossing number c is
reached exactly once through the parameterization (m, ell, signs,
magnitudes): half-length m, sign-change count ell (same parity as c),
a sign vector s with exactly ell changes, and a composition p of
(c + ell) / 2 into n = 2m positive halved magnitudes; the word is
w_i = 2 s_i p_i.  A word is emitted iff it is the canonical
representative of its class (at most its reverse-negation), so no
seen-set is needed: w <= rev_neg(w) iff the first nonzero pair sum
w_i + w_{n-1-i} is negative, or there is none.  A pair whose signs agree
sums to a number of their sign, and a pair whose signs differ to
2 s_i (p_i - p_{n-1-i}).  So with i* the first pair whose signs agree,
the first pair before i* with unequal magnitudes decides, and s_{i*}
decides if there is none; a word with neither is its own
reverse-negation.  ``canonical_slices`` lists each (m, ell) slice's
compositions once and decides them once per sign prefix s_0 .. s_{i*},
from each composition's first unequal pair, so no word is built to be
dropped.  For even ell, i* = 0: the sign vectors with s_0 < 0 keep the
whole slice, and the others are not listed.  ``enumerate_words`` lists
c = 21 in 0.14 s and c = 22 in 0.22 s (2-vCPU host, Python 3.11).

Counting side: ``brute_counts`` enumerates nothing and compares no
words.  A slice holds 2 C(n-1, ell) C(total-1, n-1) words (sign vectors
times compositions, total = (c + ell) / 2) and is closed under reverse,
negate and rev_neg, so Burnside's lemma counts its knots, the orbits of
{id, rev_neg}, and its mirror classes, the orbits of all four, from the
words each symmetry fixes (Ernst and Sumners, 1987).  Along each ell it
steps these binomials from slice to slice by exact ratios of small
integers: 16 us at c = 17, 10 ms at c = 500 (2-vCPU host, Python 3.11).
The test suite checks ``enumerate_words`` against it word by word.

Formula side: closed forms for the number of knots TK(c) (and TK*(c)
up to mirror), the total sign change TS(c) / TS*(c), the per-class
counts N(c, ell), whose slice sums collapse by the odd-slice-, even-slice-
and halved-slice-partial-sum identities, and the average braid index and
genus.  Every division is checked for zero remainder; a nonzero remainder
means a transcription bug, never a rounding choice.

The counting and formula sides are developed independently and must
agree exactly; the test suite treats the counts as the oracle for the
formulas.  ``census`` prints ``closed_row``, and ``census --verify`` prints
``brute_counts`` and checks each row with ``verify_row``; the CLI renders
the rows, and this module only computes them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, repeat
from math import comb
from operator import add, mul, sub
from typing import Iterator, NamedTuple

from .contfrac import Word

# verify_identities takes 0.3 s at n_max = 200 and 0.5 s at 300, where its
# Pascal rows 0..600 raise a fresh process's peak RSS from 20 MB to 34 MB
# (2-vCPU host, Python 3.11).
IDENTITIES_N_MAX = 300
# The largest c of a census row, from the closed forms or counted.  closed_row
# costs about c^2.5: 0.40 ms at c = 400, 0.69 ms at 500 and 4.2 ms at 1000;
# 3..500 takes 0.13 s and 3..1000 1.4 s.  brute_counts, which `census --verify`
# prints, takes 6.0 ms at c = 400 and 10 ms at 500, and 1.7 s over 3..500
# (2-vCPU host, Python 3.11).
FORMULAS_C_MAX = 500


class ResourceBound(RuntimeError):
    """A request above a size bound: epim.EPI_GRAPH_C_MAX, FORMULAS_C_MAX,
    IDENTITIES_N_MAX, epim.WORD_MAX or classify.TABLE1_C_MAX."""


class NonIntegralFormula(ArithmeticError):
    """A closed-form division left a remainder (transcription bug)."""


def exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegralFormula(f"{numerator} is not divisible by {denominator}")
    return quotient


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Positive integer compositions of ``total`` into ``parts`` >= 1 parts."""
    ends = (total,)
    return [
        tuple(map(sub, cuts + ends, (0,) + cuts))
        for cuts in combinations(range(1, total), parts - 1)
    ]


def _sign_vectors(
    length: int, changes: int, leads: tuple[int, ...] = (1, -1)
) -> Iterator[tuple[int, ...]]:
    """All +-1 vectors of given length with exactly ``changes`` sign changes, by lead."""
    for lead in leads:
        for gaps in combinations(range(length - 1), changes):
            gapset = frozenset(gaps)
            out = [lead]
            current = lead
            for i in range(length - 1):
                if i in gapset:
                    current = -current
                out.append(current)
            yield tuple(out)


def _slices(c: int, ell: int | None) -> Iterator[tuple[int, int, list[tuple[int, ...]]]]:
    """Each (m, ell) slice as (m, ell, its compositions).

    ell has the parity of c and is below 2m, and 2m positive magnitudes
    need (c + ell) / 2 >= 2m, so ell >= 4m - c, which has that parity too.
    """
    for m in range(1, (c - 1) // 2 + 1):
        for ell_value in range(max(c % 2, 4 * m - c), 2 * m, 2):
            if ell is None or ell_value == ell:
                yield m, ell_value, _compositions((c + ell_value) // 2, 2 * m)


def _first_unequal_pair(part: tuple[int, ...], m: int) -> int:
    """2d + (p_d > p_{n-1-d}) for the first pair d with p_d != p_{n-1-d}; 2m if none."""
    for d in range(m):
        if part[d] != part[-1 - d]:
            return 2 * d + (part[d] > part[-1 - d])
    return 2 * m


def canonical_slices(
    c: int, ell: int | None = None
) -> Iterator[tuple[int, int, Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]]]:
    """Each (m, ell) slice in census order as (m, ell, kept).

    ``kept`` yields, for each sign vector s in turn that keeps any, (s, the
    compositions p whose words 2 s_i p_i are canonical, in composition
    order), decided by the pair rule of the module docstring.
    """
    for m, ell_value, parts in _slices(c, ell):
        if ell_value % 2 == 0:
            # s_0 = s_{n-1}, so i* = 0: a negative lead keeps every word, a positive none
            kept = zip(_sign_vectors(2 * m, ell_value, (-1,)), repeat(parts))
        else:
            kept = _kept(m, parts, _sign_vectors(2 * m, ell_value))
        yield m, ell_value, kept


def _kept(
    m: int, parts: list[tuple[int, ...]], sign_vectors: Iterator[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """(s, its canonical compositions) for each sign vector s, of odd many
    changes, that keeps any."""
    pairs = [_first_unequal_pair(part, m) for part in parts]
    # the compositions kept, by sign prefix s_0 .. s_{i*}
    decided: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for signs in sign_vectors:
        # i*, the first pair whose signs agree, or m; s_0 != s_{n-1}, so i* >= 1
        agree = [*map(mul, signs[:m], reversed(signs)), 1].index(1)
        prefix = signs[: agree + 1]
        kept = decided.get(prefix)
        if kept is None:
            # keep[2d + g]: kept when the first unequal pair d < i* has
            # s_d (p_d - p_{n-1-d}) < 0; from 2 i* on, s_{i*} decides
            keep = [g == (s < 0) for s in signs[:agree] for g in (0, 1)]
            keep += [agree == m or signs[agree] < 0] * (2 * (m - agree) + 1)
            kept = decided[prefix] = list(compress(parts, map(keep.__getitem__, pairs)))
        if kept:
            yield signs, kept


def _words(signs: tuple[int, ...], parts: list[tuple[int, ...]]) -> Iterator[Word]:
    """The words with these signs and halved magnitudes, in the order of ``parts``."""
    return map(tuple, map(map, repeat(mul), repeat(tuple(2 * s for s in signs)), parts))


def enumerate_words(c: int, *, ell: int | None = None) -> Iterator[Word]:
    """Canonical class representatives with crossing number c, one per knot.

    Deterministic order; a word is emitted iff it is <= its
    reverse-negation, so each class appears exactly once with no
    global storage.  Optional ``ell`` restricts to one sign-change count.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    for _, _, kept in canonical_slices(c, ell):
        for signs, parts in kept:
            yield from _words(signs, parts)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class SignClassCount(NamedTuple):
    c: int
    ell: int
    count: int


class CensusRow(NamedTuple):
    c: int
    tk: int
    ts: int
    tk_star: int
    ts_star: int
    avg_braid: Fraction
    avg_braid_star: Fraction
    avg_genus: Fraction
    by_ell: tuple[SignClassCount, ...]


def brute_counts(c: int) -> CensusRow:
    """All census aggregates for crossing number c, counted slice by slice.

    Knots are the orbits of {id, rev_neg} on reduced even words, mirror
    classes those of {id, rev_neg, negate, reverse}, and both groups keep
    each (m, ell) slice.  Burnside's lemma counts a slice's orbits from 2P,
    its word count, and 2F, its words fixed by rev_neg (odd ell) or by
    reverse (even ell): P + F [ell odd] knots and (P + F) / 2 mirror
    classes, since negate fixes no word.  With total = (c + ell) / 2 and
    h = ell // 2, P = C(2m-1, ell) C(total-1, 2m-1) and, for even total,
    F = C(m-1, h) C(total/2-1, m-1): a fixed word has palindromic
    magnitudes and sign changes in mirrored pairs of gaps, plus the middle
    gap m-1 iff ell is odd.  Both step from m to m+1 by exact ratios.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c > FORMULAS_C_MAX:
        raise ResourceBound(f"c={c} exceeds the census bound {FORMULAS_C_MAX}")
    tk = ts = tk_star = ts_star = genus_total = 0
    odd_ell = c & 1  # ell has the parity of c
    by_ell: list[SignClassCount] = []
    for ell in range(odd_ell, c, 2):
        total, h = (c + ell) // 2, ell // 2
        half = total // 2
        if h >= half:  # no slice, for this ell or any larger
            break
        # P and F at m = h+1, half the slice's words and half its fixed words
        words = comb(2 * h + 1, ell) * comb(total - 1, 2 * h + 1)
        fixed = 0 if total & 1 else comb(half - 1, h)
        count = star = rest = 0
        for m in range(h + 1, half + 1):
            both = words + fixed
            knots = both if odd_ell else words
            count += knots
            star += both >> 1
            genus_total += m * knots
            gap = total - 2 * m
            words, left = divmod(words * (gap * (gap - 1)), (2 * m - ell) * (2 * m + 1 - ell))
            if fixed:  # F is 0 throughout a slice of odd total
                fixed, rest = divmod(fixed * (half - m), m - h)
            if both & 1 or left or rest:
                raise NonIntegralFormula(f"c={c} ell={ell} m={m}: a slice ratio left a remainder")
        tk += count
        ts += ell * count
        tk_star += star
        ts_star += ell * star
        # tuple.__new__ skips the NamedTuple's Python-level __new__, as OrsParams does
        by_ell.append(tuple.__new__(SignClassCount, (c, ell, count)))
    return CensusRow(
        c, tk, ts, tk_star, ts_star,
        Fraction((c + 2) * tk - ts, 2 * tk),
        Fraction((c + 2) * tk_star - ts_star, 2 * tk_star),
        Fraction(genus_total, tk),
        tuple(by_ell),
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_tk(c: int) -> int:
    """Number of two-bridge knots with c crossings (chiral pairs distinct)."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c % 2 == 0:
        return exact_div(2 ** (c - 2) - 1, 3)
    if c % 4 == 1:
        return exact_div(2 ** (c - 2) + 2 ** ((c - 1) // 2), 3)
    return exact_div(2 ** (c - 2) + 2 ** ((c - 1) // 2) + 2, 3)


def closed_tk_star(c: int) -> int:
    """Number of two-bridge knots with c crossings, up to mirror image."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c % 4 == 0:
        return exact_div(2 ** (c - 3) + 2 ** ((c - 4) // 2), 3)
    if c % 4 == 1:
        return exact_div(2 ** (c - 3) + 2 ** ((c - 3) // 2), 3)
    if c % 4 == 2:
        return exact_div(2 ** (c - 3) + 2 ** ((c - 4) // 2) - 1, 3)
    return exact_div(2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1, 3)


def closed_ts(c: int) -> int:
    """Total sign change over all two-bridge knots with c crossings."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c % 2 == 0:
        numerator = (3 * c - 4) * 2 ** (c - 2) - 15 * c + 28
    elif c % 4 == 1:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c + 4) * 2 ** ((c - 1) // 2) + 18 * c - 38
    else:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c + 4) * 2 ** ((c - 1) // 2) + 12 * c - 18
    return exact_div(numerator, 27)


def closed_ts_star(c: int) -> int:
    """Total sign change up to mirror image."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c % 4 == 0:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c - 8) * 2 ** ((c - 2) // 2) - 18 * c + 32
    elif c % 4 == 1:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c + 4) * 2 ** ((c - 1) // 2) + 18 * c - 38
    elif c % 4 == 2:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c - 8) * 2 ** ((c - 2) // 2) - 12 * c + 24
    else:
        numerator = (3 * c - 4) * 2 ** (c - 2) + (3 * c + 4) * 2 ** ((c - 1) // 2) + 12 * c - 18
    return exact_div(numerator, 54)


def closed_n(c: int, ell: int) -> int:
    """Number of c-crossing knots whose word has exactly ell sign changes.

    Zero whenever the parity or range constraints fail (ell must match
    c mod 2; ell <= c - 4 for even c, ell <= c - 2 for odd c).  Each slice
    sum over m is a power of two by its identity in ``verify_identities``:
    the binomial theorem split into even and odd terms, so for every parameter.
    """
    if c < 3 or ell < 0 or (c - ell) % 2:
        return 0
    if c % 2 == 0:
        k, l = c // 2, ell // 2
        if l > k - 2:
            return 0
        return comb(k + l - 1, 2 * l) << (k - l - 2)
    k, l = (c - 1) // 2, (ell - 1) // 2
    if l > k - 1:
        return 0
    value = comb(k + l, 2 * l + 1) << max(k - l - 2, 0)
    if (k + l + 1) % 2 == 0:
        value += comb((k + l - 1) // 2, l) << ((k - l - 1) // 2)
    return value


def _plus(a: int, b: int, num: int, den: int) -> Fraction:
    """a / b + num / den as one Fraction, normalised once."""
    return Fraction(a * den + num * b, b * den)


def closed_avg_braid(c: int) -> Fraction:
    """Average braid index over all two-bridge knots with c crossings."""
    base = (3 * c + 11, 9)
    if c % 2 == 0:
        return _plus(*base, 2 * c - 4, 3 * (2 ** (c - 2) - 1))
    if c % 4 == 1:
        return _plus(
            *base, -(2 ** ((c + 3) // 2) + 9 * c - 19), 9 * (2 ** (c - 2) + 2 ** ((c - 1) // 2))
        )
    return _plus(
        *base, -(2 ** ((c + 3) // 2) + 3 * c - 5), 9 * (2 ** (c - 2) + 2 ** ((c - 1) // 2) + 2)
    )


def closed_avg_braid_star(c: int) -> Fraction:
    """Average braid index up to mirror image."""
    base = (3 * c + 11, 9)
    if c % 4 == 0:
        return _plus(*base, 2 ** (c // 2) + 9 * c - 16, 9 * (2 ** (c - 2) + 2 ** ((c - 2) // 2)))
    if c % 4 == 2:
        return _plus(
            *base, 2 ** (c // 2) + 3 * c - 8, 9 * (2 ** (c - 2) + 2 ** ((c - 2) // 2) - 2)
        )
    return closed_avg_braid(c)


def closed_avg_genus(c: int) -> Fraction:
    """Average genus over all two-bridge knots with c crossings."""
    base = (3 * c + 1, 12)
    if c % 2 == 0:
        return _plus(*base, c - 5, 2 ** c - 4)
    if c % 4 == 1:
        return _plus(*base, 1, 3 * 2 ** ((c - 3) // 2))
    return _plus(
        *base, 2 ** ((c + 1) // 2) - 3 * c + 11, 12 * (2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1)
    )


def closed_row(c: int) -> CensusRow:
    """CensusRow assembled purely from the closed forms (no enumeration)."""
    ell_max = c - 4 if c % 2 == 0 else c - 2
    ells = range(c % 2, ell_max + 1, 2)
    counts = zip(repeat(c), ells, map(closed_n, repeat(c), ells))
    avg_braid = closed_avg_braid(c)  # for odd c, also the average up to mirror image
    return CensusRow(
        c, closed_tk(c), closed_ts(c), closed_tk_star(c), closed_ts_star(c),
        avg_braid, avg_braid if c % 2 else closed_avg_braid_star(c), closed_avg_genus(c),
        tuple(map(tuple.__new__, repeat(SignClassCount), counts)),  # as in brute_counts
    )


# ---------------------------------------------------------------------------
# Reference values and verification
# ---------------------------------------------------------------------------

# Reference census for c = 3..15: (TK, TS, avg braid, TK*, TS*, avg braid*),
# starred columns counted up to mirror image.  Used by `census --verify`
# as a regression fixture alongside the closed forms.
TABLE2_REFERENCE: dict[int, tuple[int, int, Fraction, int, int, Fraction]] = {
    3: (2, 2, Fraction(2), 1, 1, Fraction(2)),
    4: (1, 0, Fraction(3), 1, 0, Fraction(3)),
    5: (4, 8, Fraction(5, 2), 2, 4, Fraction(5, 2)),
    6: (5, 6, Fraction(17, 5), 3, 4, Fraction(10, 3)),
    7: (14, 30, Fraction(24, 7), 7, 15, Fraction(24, 7)),
    8: (21, 44, Fraction(83, 21), 12, 24, Fraction(4)),
    9: (48, 132, Fraction(33, 8), 24, 66, Fraction(33, 8)),
    10: (85, 242, Fraction(389, 85), 45, 128, Fraction(206, 45)),
    11: (182, 598, Fraction(34, 7), 91, 299, Fraction(34, 7)),
    12: (341, 1208, Fraction(1783, 341), 176, 620, Fraction(461, 88)),
    13: (704, 2764, Fraction(1949, 352), 352, 1382, Fraction(1949, 352)),
    14: (1365, 5758, Fraction(8041, 1365), 693, 2920, Fraction(4084, 693)),
    15: (2774, 12678, Fraction(8620, 1387), 1387, 6339, Fraction(8620, 1387)),
}


def verify_row(c: int, row: CensusRow) -> list[str]:
    """Mismatches of the counted ``row`` against ``closed_row(c)``, field by
    field, and against TABLE2_REFERENCE.

    Empty list = everything agrees exactly.
    """
    expected = closed_row(c)
    problems = [] if row == expected else [
        f"c={c} {field}: counted {got} != expected {want}"
        for field, got, want in zip(CensusRow._fields, row, expected)
        if got != want
    ]
    reference = TABLE2_REFERENCE.get(c)
    if reference is not None:
        got = (row.tk, row.ts, row.avg_braid, row.tk_star, row.ts_star, row.avg_braid_star)
        if got != reference:
            problems.append(f"c={c} reference row mismatch: {got} != {reference}")
    return problems


# ---------------------------------------------------------------------------
# Binomial-sum identities
# ---------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    statement: str
    max_param: int
    passed: bool
    counterexample: tuple | None


def _ns(n_max: int) -> Iterator[tuple[int]]:
    return ((n,) for n in range(1, n_max + 1))


# The binomial-sum identities behind closed_n and the census totals, one row
# each: name, statement, parameters up to n_max, left side, right side.  A left
# side reads C(a, b) as C[a][b] off Pascal's rows and adds its terms one by one.
IDENTITIES = (
    (
        "weighted-count-a", "sum_{q=0}^{n-1} 2^q C(2n-1-q, q) == (4^n - 1) / 3", _ns,
        lambda C, n: sum(2**q * C[2 * n - 1 - q][q] for q in range(n)),
        lambda n: exact_div(4**n - 1, 3),
    ),
    (
        "weighted-count-b", "sum_{q=0}^{n} 2^q C(2n-q, q) == (2*4^n + 1) / 3", _ns,
        lambda C, n: sum(2**q * C[2 * n - q][q] for q in range(n + 1)),
        lambda n: exact_div(2 * 4**n + 1, 3),
    ),
    (
        "weighted-moment-a",
        "sum_{q=0}^{n-1} q 2^q C(2n-1-q, q) == 2((3n-2) 4^n - 6n + 2) / 27", _ns,
        lambda C, n: sum(q * 2**q * C[2 * n - 1 - q][q] for q in range(n)),
        lambda n: exact_div(2 * ((3 * n - 2) * 4**n - 6 * n + 2), 27),
    ),
    (
        "weighted-moment-b",
        "sum_{q=0}^{n} q 2^q C(2n-q, q) == 2((6n-1) 4^n + 6n + 1) / 27", _ns,
        lambda C, n: sum(q * 2**q * C[2 * n - q][q] for q in range(n + 1)),
        lambda n: exact_div(2 * ((6 * n - 1) * 4**n + 6 * n + 1), 27),
    ),
    (
        "odd-slice-partial-sum",
        "sum_{m=l+1}^{floor((k+l)/2)} C(k-l-1, 2m-2l-1) == 2^(k-l-2)  (0 <= l <= k-2)",
        lambda n_max: ((k, l) for k in range(2, n_max + 1) for l in range(k - 1)),
        lambda C, k, l: sum(
            C[k - l - 1][2 * m - 2 * l - 1] for m in range(l + 1, (k + l) // 2 + 1)
        ),
        lambda k, l: 2 ** (k - l - 2),
    ),
    (
        "even-slice-partial-sum",
        "sum_{m=l+1}^{floor((k+l+1)/2)} C(k-l-1, 2m-2l-2) == 2^max(k-l-2, 0)  (0 <= l <= k-1)",
        lambda n_max: ((k, l) for k in range(1, n_max + 1) for l in range(k)),
        lambda C, k, l: sum(
            C[k - l - 1][2 * m - 2 * l - 2] for m in range(l + 1, (k + l + 1) // 2 + 1)
        ),
        lambda k, l: 1 << max(k - l - 2, 0),
    ),
    (
        "halved-slice-partial-sum",
        "sum_{m=l+1}^{floor((k+l+1)/2)} C((k-l-1)/2, m-l-1) == 2^((k-l-1)/2)  (k+l+1 even)",
        lambda n_max: ((k, l) for k in range(1, n_max + 1) for l in range(k) if (k + l) % 2),
        lambda C, k, l: sum(
            C[(k - l - 1) // 2][m - l - 1] for m in range(l + 1, (k + l + 1) // 2 + 1)
        ),
        lambda k, l: 2 ** ((k - l - 1) // 2),
    ),
)


def verify_identities(n_max: int) -> list[IdentityCheck]:
    """Exact big-integer verification of the binomial-sum identities.

    Each sum is evaluated term by term, its binomials read off Pascal's
    rows rather than computed as closed_n computes them, and compared to
    its closed form for every parameter up to ``n_max``; failures are
    reported with the first counterexample (params, lhs, rhs), never raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > IDENTITIES_N_MAX:
        raise ResourceBound(f"n_max={n_max} exceeds the bound {IDENTITIES_N_MAX}")
    C = [[1]]  # Pascal's rows 0..2 n_max, each by adding adjacent entries of the last
    for _ in range(2 * n_max):
        C.append([1, *map(add, C[-1], C[-1][1:]), 1])
    checks = []
    for name, statement, params, lhs, rhs in IDENTITIES:
        cases = ((p, lhs(C, *p), rhs(*p)) for p in params(n_max))
        counterexample = next((case for case in cases if case[1] != case[2]), None)
        checks.append(IdentityCheck(name, statement, n_max, counterexample is None, counterexample))
    return checks
