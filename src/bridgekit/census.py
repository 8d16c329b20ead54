"""Census of two-bridge knots by crossing number.

Enumeration side: every reduced even word with crossing number c is
reached exactly once through the parameterization (m, ell, signs,
magnitudes): half-length m, sign-change count ell (same parity as c),
a sign vector with exactly ell changes, and a composition of
(c + ell) / 2 into 2m positive halved magnitudes.  A word is emitted
iff it is the canonical representative of its class (at most its
reverse-negation), so no seen-set is needed.  The compositions of an
(m, ell) slice are listed once and shared by all its sign vectors.
Which of them give canonical words depends on the sign vector only
through a short prefix: when the first and last signs agree (every
even ell) reverse-negation flips the lead sign, so a negative lead
keeps every composition and a positive lead none, with no word built
or compared; otherwise the first sign vector with a given prefix
compares its words once and the rest of the slice reuses the result.

Formula side: closed forms for the number of knots TK(c) (and TK*(c)
up to mirror), the total sign change TS(c) / TS*(c), the per-class
counts N(c, ell), and the average braid index and genus.  Every
division is checked for zero remainder; a nonzero remainder means a
transcription bug, never a rounding choice.

The two sides are developed independently and must agree exactly; the
test suite treats the enumeration as the oracle for the formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb
from operator import mul, sub
from typing import Iterator, Sequence

from .contfrac import Word, format_fraction, rev_neg

DEFAULT_ENUM_CEILING = 22
# verify_identities' cost grows about as n^4: 1.8 s at n_max = 200,
# 7.8 s at 300 and 26 s at 400 on a 2-vCPU host.
IDENTITIES_N_MAX = 300


class ResourceBound(RuntimeError):
    """A request above a size bound: the enumeration ceiling or IDENTITIES_N_MAX."""


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
    """Positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 0:
        return [()] if total == 0 else []
    ends = (total,)
    return [
        tuple(map(sub, cuts + ends, (0,) + cuts))
        for cuts in combinations(range(1, total), parts - 1)
    ]


def _sign_vectors(length: int, changes: int) -> Iterator[tuple[int, ...]]:
    """All +-1 vectors of given length with exactly ``changes`` sign changes."""
    for lead in (1, -1):
        for gaps in combinations(range(length - 1), changes):
            gapset = frozenset(gaps)
            out = [lead]
            current = lead
            for i in range(length - 1):
                if i in gapset:
                    current = -current
                out.append(current)
            yield tuple(out)


def _ell_values(c: int, m: int) -> range:
    """Admissible sign-change counts for crossing number c at half-length m."""
    low = 0 if c % 2 == 0 else 1
    low = max(low, 4 * m - c)
    if low % 2 != c % 2:
        low += 1
    return range(low, 2 * m, 2)


def _partitions(c: int, ell: int | None = None) -> Iterator[tuple[int, int]]:
    for m in range(1, (c - 1) // 2 + 1):
        for ell_value in _ell_values(c, m):
            if ell is None or ell_value == ell:
                yield m, ell_value


def _slices(
    c: int, ell: int | None
) -> Iterator[tuple[list[tuple[int, ...]], Iterator[tuple[int, ...]]]]:
    """Each (m, ell) slice as its compositions, built once, and its sign vectors."""
    for m, ell_value in _partitions(c, ell):
        yield _compositions((c + ell_value) // 2, 2 * m), _sign_vectors(2 * m, ell_value)


def _words(signs: tuple[int, ...], parts: list[tuple[int, ...]]) -> Iterator[Word]:
    """The words with these signs and halved magnitudes, in the order of ``parts``."""
    return map(tuple, map(map, repeat(mul), repeat(tuple(2 * s for s in signs)), parts))


def _decisive_prefix(signs: tuple[int, ...]) -> tuple[int, ...]:
    """The signs that decide which of a slice's words are canonical.

    rev_neg(w)[i] = 2 s_i p_{n-1-i} for as long as s_i = -s_{n-1-i}, so
    up to the first i with s_i = s_{n-1-i} the comparison of w with
    rev_neg(w) reads only s_i and the magnitudes; at that i the two
    entries differ in sign and a negative s_i puts w first.  The prefix
    through that i (all of ``signs`` if there is none) therefore fixes
    the canonical compositions.
    """
    last = len(signs) - 1
    for i in range(len(signs) // 2):
        if signs[i] == signs[last - i]:
            return signs[: i + 1]
    return signs


def _raw_words(c: int, *, ell: int | None = None) -> Iterator[Word]:
    """Every reduced even word with crossing number c, each exactly once."""
    for parts, sign_vectors in _slices(c, ell):
        for signs in sign_vectors:
            yield from _words(signs, parts)


def enumerate_words(c: int, *, ell: int | None = None) -> Iterator[Word]:
    """Canonical class representatives with crossing number c, one per knot.

    Deterministic order; a word is emitted iff it is <= its
    reverse-negation, so each class appears exactly once with no
    global storage.  Optional ``ell`` restricts to one sign-change count.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    for parts, sign_vectors in _slices(c, ell):
        canonical: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for signs in sign_vectors:
            key = _decisive_prefix(signs)
            kept = canonical.get(key)
            if kept is None:
                if len(key) == 1:
                    # first and last signs agree (every even ell):
                    # rev_neg flips the lead sign, so no word is compared
                    kept = parts if key[0] < 0 else []
                else:
                    kept = [p for p, w in zip(parts, _words(signs, parts)) if w <= rev_neg(w)]
                canonical[key] = kept
            yield from _words(signs, kept)


def is_mirror_representative(word: Word) -> bool:
    """True iff this class-canonical word also represents its mirror pair.

    The mirror knot's class is canonicalized by min(negate, reverse);
    keeping only words at most that quotients the census by mirror
    image, with equality covering the amphichiral case.  A word is at
    most its negation exactly when its lead entry is negative.
    """
    return word[0] < 0 and word <= word[::-1]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignClassCount:
    c: int
    ell: int
    count: int


@dataclass(frozen=True)
class CensusRow:
    c: int
    tk: int
    ts: int
    tk_star: int
    ts_star: int
    avg_braid: Fraction
    avg_braid_star: Fraction
    avg_genus: Fraction
    by_ell: tuple[SignClassCount, ...]


def _assemble_row(
    c: int,
    by_ell: dict[int, int],
    by_ell_star: dict[int, int],
    genus_total: int,
) -> CensusRow:
    tk = sum(by_ell.values())
    ts = sum(ell * n for ell, n in by_ell.items())
    tk_star = sum(by_ell_star.values())
    ts_star = sum(ell * n for ell, n in by_ell_star.items())
    return CensusRow(
        c=c,
        tk=tk,
        ts=ts,
        tk_star=tk_star,
        ts_star=ts_star,
        avg_braid=Fraction(c, 2) + 1 - Fraction(ts, 2 * tk),
        avg_braid_star=Fraction(c, 2) + 1 - Fraction(ts_star, 2 * tk_star),
        avg_genus=Fraction(genus_total, tk),
        by_ell=tuple(
            SignClassCount(c, ell, by_ell[ell]) for ell in sorted(by_ell)
        ),
    )


def brute_counts(c: int, *, ceiling: int = DEFAULT_ENUM_CEILING) -> CensusRow:
    """All census aggregates for crossing number c by direct enumeration."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c > ceiling:
        raise ResourceBound(f"c={c} exceeds the enumeration ceiling {ceiling}")
    by_ell: dict[int, int] = {}
    by_ell_star: dict[int, int] = {}
    genus_total = 0
    for ell in sorted({ell for _, ell in _partitions(c)}):
        count = star = 0
        for word in enumerate_words(c, ell=ell):
            count += 1
            genus_total += len(word) // 2
            if is_mirror_representative(word):
                star += 1
        by_ell[ell] = count
        by_ell_star[ell] = star
    return _assemble_row(c, by_ell, by_ell_star, genus_total)


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
    c mod 2; ell <= c - 4 for even c, ell <= c - 2 for odd c).
    """
    if c < 3 or ell < 0 or (c - ell) % 2:
        return 0
    if c % 2 == 0:
        k, l = c // 2, ell // 2
        if l > k - 2:
            return 0
        return comb(k + l - 1, 2 * l) * sum(
            comb(k - l - 1, 2 * m - 2 * l - 1) for m in range(l + 1, (k + l) // 2 + 1)
        )
    k, l = (c - 1) // 2, (ell - 1) // 2
    if l > k - 1:
        return 0
    value = comb(k + l, 2 * l + 1) * sum(
        comb(k - l - 1, 2 * m - 2 * l - 2) for m in range(l + 1, (k + l + 1) // 2 + 1)
    )
    if (k + l + 1) % 2 == 0:
        value += comb((k + l - 1) // 2, l) * sum(
            comb((k - l - 1) // 2, m - l - 1) for m in range(l + 1, (k + l + 1) // 2 + 1)
        )
    return value


def closed_avg_braid(c: int) -> Fraction:
    """Average braid index over all two-bridge knots with c crossings."""
    base = Fraction(3 * c + 11, 9)
    if c % 2 == 0:
        return base + Fraction(2 * c - 4, 3 * (2 ** (c - 2) - 1))
    if c % 4 == 1:
        return base - Fraction(
            2 ** ((c + 3) // 2) + 9 * c - 19, 9 * (2 ** (c - 2) + 2 ** ((c - 1) // 2))
        )
    return base - Fraction(
        2 ** ((c + 3) // 2) + 3 * c - 5, 9 * (2 ** (c - 2) + 2 ** ((c - 1) // 2) + 2)
    )


def closed_avg_braid_star(c: int) -> Fraction:
    """Average braid index up to mirror image."""
    base = Fraction(3 * c + 11, 9)
    if c % 4 == 0:
        return base + Fraction(
            2 ** (c // 2) + 9 * c - 16, 9 * (2 ** (c - 2) + 2 ** ((c - 2) // 2))
        )
    if c % 4 == 1:
        return closed_avg_braid(c)
    if c % 4 == 2:
        return base + Fraction(
            2 ** (c // 2) + 3 * c - 8, 9 * (2 ** (c - 2) + 2 ** ((c - 2) // 2) - 2)
        )
    return closed_avg_braid(c)


def closed_avg_genus(c: int) -> Fraction:
    """Average genus over all two-bridge knots with c crossings."""
    base = Fraction(3 * c + 1, 12)
    if c % 2 == 0:
        return base + Fraction(c - 5, 2 ** c - 4)
    if c % 4 == 1:
        return base + Fraction(1, 3 * 2 ** ((c - 3) // 2))
    return base + Fraction(
        2 ** ((c + 1) // 2) - 3 * c + 11, 12 * (2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1)
    )


def closed_row(c: int) -> CensusRow:
    """CensusRow assembled purely from the closed forms (no enumeration)."""
    ell_max = c - 4 if c % 2 == 0 else c - 2
    by_ell = tuple(
        SignClassCount(c, ell, closed_n(c, ell))
        for ell in range(0 if c % 2 == 0 else 1, ell_max + 1, 2)
    )
    return CensusRow(
        c=c,
        tk=closed_tk(c),
        ts=closed_ts(c),
        tk_star=closed_tk_star(c),
        ts_star=closed_ts_star(c),
        avg_braid=closed_avg_braid(c),
        avg_braid_star=closed_avg_braid_star(c),
        avg_genus=closed_avg_genus(c),
        by_ell=by_ell,
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


def verify_row(c: int, row: CensusRow | None = None) -> list[str]:
    """Mismatch descriptions between enumeration, formulas, and reference.

    Empty list = everything agrees exactly.
    """
    if row is None:
        row = brute_counts(c)
    problems = []

    def expect(label: str, got, want) -> None:
        if got != want:
            problems.append(f"c={c} {label}: enumerated {got} != expected {want}")

    expect("TK", row.tk, closed_tk(c))
    expect("TS", row.ts, closed_ts(c))
    expect("TK*", row.tk_star, closed_tk_star(c))
    expect("TS*", row.ts_star, closed_ts_star(c))
    expect("avg braid", row.avg_braid, closed_avg_braid(c))
    expect("avg braid*", row.avg_braid_star, closed_avg_braid_star(c))
    expect("avg genus", row.avg_genus, closed_avg_genus(c))
    for entry in row.by_ell:
        expect(f"N(ell={entry.ell})", entry.count, closed_n(c, entry.ell))
    reference = TABLE2_REFERENCE.get(c)
    if reference is not None:
        got = (row.tk, row.ts, row.avg_braid, row.tk_star, row.ts_star, row.avg_braid_star)
        if got != reference:
            problems.append(f"c={c} reference row mismatch: {got} != {reference}")
    return problems


# ---------------------------------------------------------------------------
# Binomial-sum identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    statement: str
    max_param: int
    passed: bool
    counterexample: tuple | None


def _scan(name, statement, max_param, cases) -> IdentityCheck:
    for params, lhs, rhs in cases:
        if lhs != rhs:
            return IdentityCheck(name, statement, max_param, False, (params, lhs, rhs))
    return IdentityCheck(name, statement, max_param, True, None)


def verify_identities(n_max: int) -> list[IdentityCheck]:
    """Exact big-integer verification of the binomial-sum identities.

    Each sum is evaluated term by term and compared to its closed form
    for every parameter up to ``n_max``; failures are reported with the
    first counterexample, never raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > IDENTITIES_N_MAX:
        raise ResourceBound(f"n_max={n_max} exceeds the bound {IDENTITIES_N_MAX}")
    ns = range(1, n_max + 1)
    checks = [
        _scan(
            "weighted-count-a",
            "sum_{q=0}^{n-1} 2^q C(2n-1-q, q) == (4^n - 1) / 3",
            n_max,
            (
                (
                    (n,),
                    sum(2**q * comb(2 * n - 1 - q, q) for q in range(n)),
                    exact_div(4**n - 1, 3),
                )
                for n in ns
            ),
        ),
        _scan(
            "weighted-count-b",
            "sum_{q=0}^{n} 2^q C(2n-q, q) == (2*4^n + 1) / 3",
            n_max,
            (
                (
                    (n,),
                    sum(2**q * comb(2 * n - q, q) for q in range(n + 1)),
                    exact_div(2 * 4**n + 1, 3),
                )
                for n in ns
            ),
        ),
        _scan(
            "weighted-moment-a",
            "sum_{q=0}^{n-1} q 2^q C(2n-1-q, q) == 2((3n-2) 4^n - 6n + 2) / 27",
            n_max,
            (
                (
                    (n,),
                    sum(q * 2**q * comb(2 * n - 1 - q, q) for q in range(n)),
                    exact_div(2 * ((3 * n - 2) * 4**n - 6 * n + 2), 27),
                )
                for n in ns
            ),
        ),
        _scan(
            "weighted-moment-b",
            "sum_{q=0}^{n} q 2^q C(2n-q, q) == 2((6n-1) 4^n + 6n + 1) / 27",
            n_max,
            (
                (
                    (n,),
                    sum(q * 2**q * comb(2 * n - q, q) for q in range(n + 1)),
                    exact_div(2 * ((6 * n - 1) * 4**n + 6 * n + 1), 27),
                )
                for n in ns
            ),
        ),
        _scan(
            "odd-slice-partial-sum",
            "sum_{m=l+1}^{floor((k+l)/2)} C(k-l-1, 2m-2l-1) == 2^(k-l-2)  (0 <= l <= k-2)",
            n_max,
            (
                (
                    (k, l),
                    sum(comb(k - l - 1, 2 * m - 2 * l - 1) for m in range(l + 1, (k + l) // 2 + 1)),
                    2 ** (k - l - 2),
                )
                for k in range(2, n_max + 1)
                for l in range(0, k - 1)
            ),
        ),
        _scan(
            "even-slice-partial-sum",
            "sum_{m=l+1}^{floor((k+l+1)/2)} C(k-l-1, 2m-2l-2) == 2^(k-l-2), plus 1/2 when l = k-1",
            n_max,
            (
                (
                    (k, l),
                    Fraction(
                        sum(
                            comb(k - l - 1, 2 * m - 2 * l - 2)
                            for m in range(l + 1, (k + l + 1) // 2 + 1)
                        )
                    ),
                    Fraction(2) ** (k - l - 2) + (Fraction(1, 2) if l == k - 1 else 0),
                )
                for k in range(1, n_max + 1)
                for l in range(0, k)
            ),
        ),
        _scan(
            "halved-slice-partial-sum",
            "sum_{m=l+1}^{floor((k+l+1)/2)} C((k-l-1)/2, m-l-1) == 2^((k-l-1)/2)  (k+l+1 even)",
            n_max,
            (
                (
                    (k, l),
                    sum(
                        comb((k - l - 1) // 2, m - l - 1)
                        for m in range(l + 1, (k + l + 1) // 2 + 1)
                    ),
                    2 ** ((k - l - 1) // 2),
                )
                for k in range(1, n_max + 1)
                for l in range(0, k)
                if (k + l + 1) % 2 == 0
            ),
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

COLUMNS = ("c", "TK", "TS", "avg braid", "TK*", "TS*", "avg braid*")
# The up-to-mirror table keeps c and the three starred columns.
MIRROR_COLUMNS = COLUMNS[:1] + COLUMNS[4:]
MIRROR_KEYS = ("c", "tk_star", "ts_star", "avg_braid_star")


def row_cells(
    row: CensusRow, fmt=format_fraction, *, up_to_mirror: bool = False
) -> tuple[str, ...]:
    cells = (
        str(row.c),
        str(row.tk),
        str(row.ts),
        fmt(row.avg_braid),
        str(row.tk_star),
        str(row.ts_star),
        fmt(row.avg_braid_star),
    )
    return cells[:1] + cells[4:] if up_to_mirror else cells


def rows_to_json(rows: Sequence[CensusRow], *, up_to_mirror: bool = False) -> str:
    payload = [
        {
            "c": row.c,
            "tk": row.tk,
            "ts": row.ts,
            "tk_star": row.tk_star,
            "ts_star": row.ts_star,
            "avg_braid": format_fraction(row.avg_braid),
            "avg_braid_star": format_fraction(row.avg_braid_star),
            "avg_genus": format_fraction(row.avg_genus),
            "by_ell": {str(entry.ell): entry.count for entry in row.by_ell},
        }
        for row in rows
    ]
    if up_to_mirror:
        payload = [{key: entry[key] for key in MIRROR_KEYS} for entry in payload]
    return json.dumps(payload, indent=2)
