"""Closed-form minimality classification for braid index 2, 3, 4, and Table 1.

An epimorphism G(K) -> G(K') forces braid(K) >= 3 braid(K') - 4, so
any epimorphic image of a knot with braid index at most 4 has braid
index 2, i.e. is a 2-strand torus knot T(2m+1, 2).  A non-minimal word
of braid index at most 4 is therefore an interleaving of 2r+1 blocks of
(2, -2) * m with connectors (-1)^(j-1), with at most two defects, its
marks:

    D  doubles connector j, which leaves an entry 4;
    T  triples it, which leaves an entry 6;
    Z  zeroes it: the two boundary 2s merge into a 4 and the word loses
       two entries, so (2r+1)(2m+1) = length + 1 + 2 #Z;
    F  negates every later block, which leaves a repeated sign.

Each Table 1 type is its list of marks, written once in ``CLAUSES``;
both the matcher and ``reconstruct_params`` read that table.  One
position rule places the marks: connector j sits at j(2m+1), two places
further left for each zeroed connector before it; a zero's 4 sits one
place before its connector, a repeat at it or one place before, and a
zeroed slot takes no other mark.  The matcher reads a word's spots (4s,
6s and repeats) once, hands them to the clauses with that many spots,
and keeps each factorization of the length whose slots put every mark
on its spot.  No search runs; the search-based decision in `epim` must
agree with it exactly, and the pair of independent implementations
cross-validate each other.

Positions are stated for a positive leading entry and up to mirror
image, so words are first normalized within their four-word mirror
orbit.  All positions and slots are 1-based.

Table 1 lists the non-minimal knots with braid index <= 4.  By the same
inequality they are exactly the knots spelled by ORS words onto the
torus knots T(2m+1, 2), so `table1` takes its rows from
`epim.ors_words` on (2, -2, ..., 2, -2) with braid index <= 4, rather
than classifying every knot of braid index <= 4; no search runs.  The CLI
renders the rows, and this module only computes them.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from operator import itemgetter
from typing import NamedTuple, Sequence

from .contfrac import Word, check_even_word, format_word, negate, rev_neg, reverse
from .epim import AuditFailure, OrsParams, audit_params, ors_words
from .knot import braid_index, crossing_number, display_name, knot_from_word

# table1's rows grow about as c^3 (577 at c_max = 30, 1,902 at 45), and so
# does its cost: 0.11 s at 30 and 0.23-0.25 s at 45, and 0.31 s at 45 with
# --chiral (a fresh process, best of 7, 2-vCPU host, Python 3.11).
TABLE1_C_MAX = 45

# Each Table 1 type as its marks, in the order i0/j0 and i1/j1 name them.
CLAUSES = {
    "TORUS": "",
    "3A1": "D",
    "3A2": "Z",
    "3B": "F",
    "4A": "T",
    "4B1": "DD",
    "4B2": "ZD",
    "4B3": "ZZ",
    "4C1": "DF",
    "4C2": "ZF",
    "4D": "FF",
}
KIND_RANK = {kind: rank for rank, kind in enumerate(CLAUSES)}
# the factor a mark puts on its connector; F negates instead
_SCALE = {"D": 2, "T": 3, "Z": 0}
# a mark's spot: 0 an entry 4, 1 an entry 6, 2 a repeated sign
_SPOT = {"D": 0, "Z": 0, "T": 1, "F": 2}
# how many places before its connector a mark's spot may sit
_BEFORE = {"D": (0,), "T": (0,), "Z": (1,), "F": (0, 1)}


def _clauses_by_spots() -> dict[tuple[int, int, int], list]:
    """(kind, marks, lost, picks, reach) by the spot count (4s, 6s, repeats) they need.

    A word lists its spots as 4s, 6s, repeats, each left to right; a pick
    gives each mark the index of its spot there, and marks of one letter
    take their spots left to right.  ``lost`` = 2 #Z counts the entries the
    zeros took out of the word.  ``reach`` lists for each mark how
    far before connector j * period its spot may sit: ``_BEFORE``, plus
    two for each other zero.
    """
    by_spots: dict[tuple[int, int, int], list] = {}
    for kind, marks in CLAUSES.items():
        types = sorted(_SPOT[x] for x in marks)  # by a matching word's spot index
        pairs = list(combinations(range(len(marks)), 2))
        picks = [
            pick
            for pick in permutations(range(len(marks)))
            if all(types[k] == _SPOT[x] for k, x in zip(pick, marks))
            and all(pick[a] < pick[b] for a, b in pairs if marks[a] == marks[b])
        ]
        zeros = marks.count("Z")
        reach = tuple(
            tuple(gap + 2 * z for z in range(zeros - (x == "Z") + 1) for gap in _BEFORE[x])
            for x in marks
        )
        key = (types.count(0), types.count(1), types.count(2))
        by_spots.setdefault(key, []).append((kind, marks, 2 * zeros, picks, reach))
    return by_spots


_BY_SPOTS = _clauses_by_spots()


class NonminimalType(NamedTuple):
    """One satisfied non-minimality clause, with its witnessing numbers.

    ``word`` is the mirror-normalized representative the clause matched;
    (2r+1)(2m+1) tiles the relevant length, j0/j1 are the slots of the
    clause's marks, i0/i1 their spots in the word.
    """

    kind: str
    word: Word
    r: int
    m: int
    i0: int | None = None
    i1: int | None = None
    j0: int | None = None
    j1: int | None = None

    @property
    def label(self) -> str:
        return "2" if self.kind == "TORUS" else self.kind

    def sort_key(self):
        return (
            KIND_RANK[self.kind],
            self.r,
            self.m,
            self.j0 or 0,
            self.j1 or 0,
            self.i0 or 0,
            self.i1 or 0,
            self.word,
        )


def _positive_candidates(word: Word) -> tuple[Word, ...]:
    """The words of the mirror orbit that lead positive, in order.

    One of w and -w leads positive, and so does one of reverse(w) and rev_neg(w).
    """
    head = word if word[0] > 0 else negate(word)
    tail = reverse(word) if word[-1] > 0 else rev_neg(word)
    return (head,) if head == tail else (head, tail) if head < tail else (tail, head)


def _factorizations(n: int) -> list[tuple[int, int]]:
    """(r, m) with (2r+1)(2m+1) = n and r, m >= 1, smallest period first."""
    out = []
    d = 3
    while d * 3 <= n:
        if n % d == 0:
            out.append(((n // d - 1) // 2, (d - 1) // 2))
        d += 2
    return out


def _connector(j: int, period: int, zeroed: Sequence[int]) -> int:
    """Position of connector j, two places further left per zeroed connector before it."""
    return j * period - 2 * sum(z < j for z in zeroed)


def _slots(
    marks: str, reach: Sequence[Sequence[int]], at: Sequence[int], period: int
) -> list[tuple[int, ...]]:
    """Each slot tuple that puts every mark on its spot ``at``, by the position rule.

    The spots lie inside a word of (2r+1) period - 1 - 2 #Z entries, so
    every slot found is one of 1..2r.
    """
    options = []
    for i, ends in zip(at, reach):
        slots = [(i + d) // period for d in ends if (i + d) % period == 0]
        if not slots:
            return []
        options.append(slots)
    if len(marks) < 2 or "Z" not in marks:
        return list(product(*options))  # no zero moves another mark
    found = []
    for slots in product(*options):
        zeroed = [j for x, j in zip(marks, slots) if x == "Z"]
        if any(slots.count(z) > 1 for z in zeroed):
            continue  # a zeroed slot takes no other mark
        placed = zip(marks, at, slots)
        if all(_connector(j, period, zeroed) - i in _BEFORE[x] for x, i, j in placed):
            found.append(slots)
    return found


def _matches_for_candidate(word: Word, braid: int) -> list[NonminimalType]:
    # braid - 2 counts the spots, a 6 twice: read only the spots it admits
    fours, sixes = [], []
    for i, e in enumerate(word, 1) if braid > 2 else ():
        if e != 2 and e != -2:
            if e == 4 or e == -4:
                fours.append(i)
            elif e == 6 or e == -6:
                sixes.append(i)
    repeats = []
    if braid > 2 + len(fours) + 2 * len(sixes):
        repeats = [i for i in range(1, len(word)) if word[i - 1] * word[i] > 0]
    spots = fours + sixes + repeats
    out: list[NonminimalType] = []
    clauses = _BY_SPOTS.get((len(fours), len(sixes), len(repeats)), ())
    for kind, marks, lost, picks, reach in clauses:
        factors = _factorizations(len(word) + 1 + lost)
        for pick in picks if factors else ():
            at = list(map(spots.__getitem__, pick))
            i0, i1 = at + [None] * (2 - len(at))
            for r, m in factors:
                for slots in _slots(marks, reach, at, 2 * m + 1):
                    j0, j1 = slots + (None,) * (2 - len(slots))
                    out.append(NonminimalType(kind, word, r, m, i0, i1, j0, j1))
    return out


def nonminimal_matches(word: Word) -> tuple[NonminimalType, ...]:
    """All satisfied non-minimality clauses, over both normalized reps."""
    word = check_even_word(word)
    braid = braid_index(word)
    if braid not in (2, 3, 4):
        raise ValueError(f"classification covers braid index 2..4 only: {word}")
    return _matches(_positive_candidates(word), braid)


def _matches(candidates: tuple[Word, ...], braid: int) -> tuple[NonminimalType, ...]:
    """The clauses a checked word of braid index 2..4 satisfies, by its positive-lead words."""
    matches: list[NonminimalType] = []
    for candidate in candidates:
        matches.extend(_matches_for_candidate(candidate, braid))
    if len(matches) < 2:
        return tuple(matches)
    return tuple(sorted(set(matches), key=NonminimalType.sort_key))


def reconstruct_params(match: NonminimalType) -> OrsParams:
    """Interleaving parameters realizing a matched clause.

    Starting from the alternating connectors, the marks apply in clause
    order: D, T and Z scale their connector by 2, 3 and 0; F negates its
    connector when the repeat falls just before it, then every later
    block and connector.  Composing the parameters reproduces the
    matched representative, tying the closed-form classification back to
    the generative construction.
    """
    r, period = match.r, 2 * match.m + 1
    marks = CLAUSES[match.kind]
    at, slots = (match.i0, match.i1), (match.j0, match.j1)
    zeroed = [j for x, j in zip(marks, slots) if x == "Z"]
    eps = [1] * (2 * r + 1)
    cvec = [(-1) ** j for j in range(2 * r)]
    for x, i, j in zip(marks, at, slots):
        if x != "F":
            cvec[j - 1] *= _SCALE[x]
            continue
        if i < _connector(j, period, zeroed):
            cvec[j - 1] *= -1
        cvec[j:] = [-c for c in cvec[j:]]
        eps[j:] = [-e for e in eps[j:]]
    return OrsParams(target=(2, -2) * match.m, r=r, eps=tuple(eps), cvec=tuple(cvec))


# ---------------------------------------------------------------------------
# The classification table
# ---------------------------------------------------------------------------


class Table1Row(NamedTuple):
    """One row of Table 1: five displayed fields, then the clauses the word matches."""

    braid: int
    kind: str
    crossing: int
    word: Word
    images: tuple[str, ...]
    matches: tuple[NonminimalType, ...] = ()


def table1(c_max: int, *, up_to_mirror: bool = True) -> list[Table1Row]:
    """All non-minimal knots with braid index <= 4 and crossing <= c_max.

    The rows are the classes of the ORS words onto the torus knots
    T(2m+1, 2), one per mirror class (or per knot with
    ``up_to_mirror=False``), and a row's images are the targets of the
    words that spell it, negated where the row is the word's mirror
    image.  Every generated parameter tuple is audited against the
    inequality, type tags come from the closed-form clauses, and a row
    the clauses call minimal raises AuditFailure.
    """
    targets: dict[Word, set[str]] = {}
    # three blocks onto T(2m+1, 2), the word (2, -2) * m, cost 3(2m+1) crossings
    for m in range(1, (c_max // 3 - 1) // 2 + 1):
        target = (2, -2) * m
        names = [display_name(knot_from_word(image)) for image in (target, negate(target))]
        for params, word in ors_words(target, c_max, braid_max=4):
            audit_params(params, word)
            # the classes of the word and of its mirror image; the lesser leads the orbit
            reps = (min(word, rev_neg(word)), min(negate(word), reverse(word)))
            lead = min(reps)
            for name, rep in zip(names, reps):
                if rep == lead or not up_to_mirror:
                    targets.setdefault(rep, set()).add(name)
    rows = []
    for rep, images in targets.items():
        # a generated word: even, nonzero, and of braid index 2..4 by the walk's bound
        braid = braid_index(rep)
        candidates = _positive_candidates(rep)
        matches = _matches(candidates, braid)
        if not matches:
            raise AuditFailure(f"ORS word {format_word(rep)} matches no clause")
        names = tuple(sorted(images))
        display = candidates[0] if up_to_mirror else rep
        crossing = crossing_number(rep)
        rows.append(Table1Row(braid, matches[0].label, crossing, display, names, matches))
    rows.sort(key=itemgetter(0, 1, 2, 4, 3))  # braid, kind, crossing, images, word
    return rows


# Known non-minimal two-bridge knots with braid index <= 4 and at most 15
# crossings, one row per knot up to mirror image.  Regression fixture for
# the generated table; any diff is a bug in exactly one of the two
# independent minimality decisions.
TABLE1_REFERENCE: tuple[Table1Row, ...] = (
    Table1Row(2, "2", 9, (2, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    Table1Row(2, "2", 15, (2, -2) * 7, ("3_1", "5_1")),
    Table1Row(3, "3A1", 11, (2, -2, 2, -2, 2, -4, 2, -2), ("3_1",)),
    Table1Row(3, "3A2", 9, (2, -4, 2, -2, 2, -2), ("3_1",)),
    Table1Row(3, "3A2", 15, (2, -4, 2, -2, 2, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    Table1Row(3, "3A2", 15, (2, -2, 2, -2, 2, -2, 2, -4, 2, -2, 2, -2), ("3_1",)),
    Table1Row(3, "3A2", 15, (2, -2, 2, -4, 2, -2, 2, -2, 2, -2, 2, -2), ("5_1",)),
    Table1Row(3, "3B", 10, (2, -2, -2, 2, -2, 2, -2, 2), ("3_1",)),
    Table1Row(3, "3B", 10, (2, -2, 2, -2, 2, 2, -2, 2), ("3_1",)),
    Table1Row(4, "4A", 13, (2, -2, 2, -2, 2, -6, 2, -2), ("3_1",)),
    Table1Row(4, "4B1", 13, (2, -2, 4, -2, 2, -4, 2, -2), ("3_1",)),
    Table1Row(4, "4B2", 11, (2, -4, 2, -4, 2, -2), ("3_1",)),
    Table1Row(4, "4B3", 9, (2, -4, 4, -2), ("3_1",)),
    Table1Row(4, "4B3", 15, (2, -4, 2, -2, 2, -4, 2, -2, 2, -2), ("3_1",)),
    Table1Row(4, "4B3", 15, (2, -4, 2, -2, 2, -2, 2, -2, 4, -2), ("3_1",)),
    Table1Row(4, "4B3", 15, (2, -4, 4, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    Table1Row(4, "4B3", 15, (2, -2, 2, -2, 4, -4, 2, -2, 2, -2), ("3_1",)),
    Table1Row(4, "4B3", 15, (2, -2, 2, -4, 2, -2, 4, -2, 2, -2), ("5_1",)),
    Table1Row(4, "4C1", 12, (2, -2, -4, 2, -2, 2, -2, 2), ("3_1",)),
    Table1Row(4, "4C1", 12, (2, -2, -2, 2, -2, 4, -2, 2), ("3_1",)),
    Table1Row(4, "4C1", 12, (2, -2, 2, -2, 2, 4, -2, 2), ("3_1",)),
    Table1Row(4, "4C1", 12, (2, -2, 2, 2, -2, 4, -2, 2), ("3_1",)),
    Table1Row(4, "4C2", 10, (2, -4, 2, -2, -2, 2), ("3_1",)),
    Table1Row(4, "4C2", 10, (2, -4, 2, 2, -2, 2), ("3_1",)),
    Table1Row(4, "4D", 11, (2, -2, -2, -2, 2, -2, 2, -2), ("3_1",)),
    Table1Row(4, "4D", 11, (2, -2, -2, 2, -2, -2, 2, -2), ("3_1",)),
    Table1Row(4, "4D", 11, (2, -2, -2, 2, -2, 2, 2, -2), ("3_1",)),
    Table1Row(4, "4D", 11, (2, -2, 2, 2, -2, -2, 2, -2), ("3_1",)),
)


def table1_diff(rows: Sequence[Table1Row], *, c_max: int = 15) -> list[str]:
    """Differences between generated rows and the bundled reference.

    Only the crossing range the reference covers (c <= 15) is compared;
    empty list means exact agreement, including row order.
    """
    horizon = min(c_max, 15)
    expected = [row for row in TABLE1_REFERENCE if row.crossing <= horizon]
    got = [row for row in rows if row.crossing <= horizon]
    # the five displayed fields: the reference records no matches
    wanted, shown = ([row[:5] for row in side] for side in (expected, got))
    if shown == wanted:
        return []
    diffs = [f"missing: {row}" for row in expected if row[:5] not in shown]
    diffs += [f"unexpected: {row}" for row in got if row[:5] not in wanted]
    return diffs or ["rows agree as sets but are ordered differently"]
