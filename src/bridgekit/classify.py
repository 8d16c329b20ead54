"""Closed-form minimality classification for braid index 2, 3, 4, and Table 1.

An epimorphism G(K) -> G(K') forces braid(K) >= 3 braid(K') - 4, so
any epimorphic image of a knot with braid index at most 4 has braid
index 2, i.e. is a 2-strand torus knot.  That pins down the shape a
non-minimal word can take: an interleaving of strictly alternating
blocks leaves at most two marked spots, either an enlarged magnitude (a
connector entry of 4 or 6, or a merged pair) or a repeated sign (a
flipped block), at arithmetically constrained positions.

Words with braid index 3 or 4 therefore fall into a handful of shapes
(one 4; one sign repeat; one 6; two 4s; a 4 plus a sign repeat; two
sign repeats), and each shape is non-minimal exactly when its word
length and marked positions satisfy a divisibility pattern in the
tiling period 2m + 1.  This module implements those shape tests and
position conditions directly, with no search; the search-based decision
in `epim` must agree with it exactly, and the pair of independent
implementations cross-validate each other.

Patterns are stated for a positive leading entry and up to mirror
image, so words are first normalized within their four-word mirror
orbit.  All positions are 1-based.

Table 1 lists the non-minimal knots with braid index <= 4.  By the same
inequality they are exactly the knots spelled by ORS words onto the
torus knots T(2m+1, 2), so `table1` takes its rows from
`epim.ors_words` on (2, -2, ..., 2, -2) with braid index <= 4, rather
than classifying every knot of braid index <= 4; no search runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .contfrac import Word, check_even_word, format_word, negate
from .epim import AuditFailure, OrsParams, audit_params, ors_words
from .knot import (
    braid_index,
    canonical_word,
    display_name,
    knot_from_word,
    mirror_canonical_word,
    mirror_orbit,
)

# table1's rows grow about as c^3 (577 at c_max = 30, 1,902 at 45), and so
# does its cost: 0.15 s at 30 and 0.4-0.6 s at 45 on a 2-vCPU host, and
# 0.7-1.2 s at 45 with up_to_mirror=False.
TABLE1_C_MAX = 45

KIND_ORDER = ("TORUS", "3A1", "3A2", "3B", "4A", "4B1", "4B2", "4B3", "4C1", "4C2", "4D")


@dataclass(frozen=True)
class StructureTag:
    """Shape of a braid-index <= 4 word.

    tags: B2 (alternating, all magnitude 2), T3a (one 4), T3b (one sign
    repeat), T4a (one 6), T4b (two 4s), T4c (one 4 + one sign repeat),
    T4d (two sign repeats), other (braid index > 4).  ``positions``
    holds the marked 1-based indices; for T4c the magnitude position
    comes first.
    """

    tag: str
    positions: tuple[int, ...]


@dataclass(frozen=True)
class NonminimalType:
    """One satisfied non-minimality clause, with its witnessing numbers.

    ``word`` is the mirror-normalized representative the clause matched;
    (2r+1)(2m+1) tiles the relevant length, j0/j1 index the connector
    slots, i0/i1 the marked positions in the word.
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
            KIND_ORDER.index(self.kind),
            self.r,
            self.m,
            self.j0 or 0,
            self.j1 or 0,
            self.i0 or 0,
            self.i1 or 0,
            self.word,
        )

    def to_json(self) -> dict:
        return {
            "kind": self.label,
            "word": format_word(self.word),
            "r": self.r,
            "m": self.m,
            "i0": self.i0,
            "i1": self.i1,
            "j0": self.j0,
            "j1": self.j1,
        }


def _positive_candidates(word: Word) -> tuple[Word, ...]:
    return tuple(c for c in mirror_orbit(word) if c[0] > 0)


def _structure_exact(word: Word) -> StructureTag:
    b = braid_index(word)
    if b == 2:
        return StructureTag("B2", ())
    if b not in (3, 4):
        return StructureTag("other", ())
    bigs = tuple(i + 1 for i, e in enumerate(word) if abs(e) != 2)
    gaps = tuple(i + 1 for i in range(len(word) - 1) if word[i] * word[i + 1] > 0)
    if b == 3:
        if not gaps:
            (i0,) = bigs
            return StructureTag("T3a", (i0,))
        (i0,) = gaps
        return StructureTag("T3b", (i0,))
    if not gaps:
        if len(bigs) == 1:
            return StructureTag("T4a", bigs)
        return StructureTag("T4b", bigs)
    if len(gaps) == 1 and len(bigs) == 1:
        return StructureTag("T4c", (bigs[0], gaps[0]))
    return StructureTag("T4d", gaps)


def structure(word: Word) -> StructureTag:
    """Shape of the word after mirror normalization to a positive lead."""
    word = check_even_word(word)
    candidates = _positive_candidates(word)
    return _structure_exact(min(candidates))


def _factorizations(n: int) -> list[tuple[int, int]]:
    """(r, m) with (2r+1)(2m+1) = n and r, m >= 1, smallest period first."""
    out = []
    d = 3
    while d * 3 <= n:
        if n % d == 0:
            out.append(((n // d - 1) // 2, (d - 1) // 2))
        d += 2
    return out


def _matches_for_candidate(word: Word) -> list[NonminimalType]:
    tag = _structure_exact(word)
    n = len(word)
    out: list[NonminimalType] = []
    if tag.tag == "B2":
        for r, m in _factorizations(n + 1):
            out.append(NonminimalType("TORUS", word, r, m))
    elif tag.tag in ("T3a", "T4a"):
        (i0,) = tag.positions
        enlarged, shifted = ("3A1", "3A2") if tag.tag == "T3a" else ("4A", None)
        for r, m in _factorizations(n + 1):
            period = 2 * m + 1
            for j0 in range(1, 2 * r + 1):
                if i0 == j0 * period:
                    out.append(NonminimalType(enlarged, word, r, m, i0=i0, j0=j0))
        if shifted is not None:
            for r, m in _factorizations(n + 3):
                period = 2 * m + 1
                for j0 in range(1, 2 * r + 1):
                    if i0 == j0 * period - 1:
                        out.append(NonminimalType(shifted, word, r, m, i0=i0, j0=j0))
    elif tag.tag == "T3b":
        (i0,) = tag.positions
        for r, m in _factorizations(n + 1):
            period = 2 * m + 1
            for j0 in range(1, 2 * r + 1):
                if i0 in (j0 * period, j0 * period - 1):
                    out.append(NonminimalType("3B", word, r, m, i0=i0, j0=j0))
    elif tag.tag == "T4b":
        p0, p1 = tag.positions
        for r, m in _factorizations(n + 1):
            period = 2 * m + 1
            if p0 % period == 0 and p1 % period == 0:
                j0, j1 = p0 // period, p1 // period
                if 1 <= j0 <= 2 * r and 1 <= j1 <= 2 * r:
                    out.append(NonminimalType("4B1", word, r, m, i0=p0, i1=p1, j0=j0, j1=j1))
        for r, m in _factorizations(n + 3):
            period = 2 * m + 1
            for merged, plain in ((p0, p1), (p1, p0)):
                for j0 in range(1, 2 * r + 1):
                    if merged != j0 * period - 1:
                        continue
                    for j1 in range(1, 2 * r + 1):
                        if j1 == j0:
                            continue
                        want = j1 * period if j1 < j0 else j1 * period - 2
                        if plain == want:
                            out.append(
                                NonminimalType("4B2", word, r, m, i0=merged, i1=plain, j0=j0, j1=j1)
                            )
        for r, m in _factorizations(n + 5):
            period = 2 * m + 1
            for j0 in range(1, 2 * r):
                if p0 != j0 * period - 1:
                    continue
                for j1 in range(j0 + 1, 2 * r + 1):
                    if p1 == j1 * period - 3:
                        out.append(NonminimalType("4B3", word, r, m, i0=p0, i1=p1, j0=j0, j1=j1))
    elif tag.tag == "T4c":
        i0, i1 = tag.positions
        for r, m in _factorizations(n + 1):
            period = 2 * m + 1
            for j0 in range(1, 2 * r + 1):
                if i0 != j0 * period:
                    continue
                for j1 in range(1, 2 * r + 1):
                    if i1 in (j1 * period, j1 * period - 1):
                        out.append(NonminimalType("4C1", word, r, m, i0=i0, i1=i1, j0=j0, j1=j1))
        for r, m in _factorizations(n + 3):
            period = 2 * m + 1
            for j0 in range(1, 2 * r + 1):
                if i0 != j0 * period - 1:
                    continue
                for j1 in range(1, 2 * r + 1):
                    if j1 == j0:
                        continue
                    allowed = (
                        (j1 * period, j1 * period - 1)
                        if j1 < j0
                        else (j1 * period - 2, j1 * period - 3)
                    )
                    if i1 in allowed:
                        out.append(NonminimalType("4C2", word, r, m, i0=i0, i1=i1, j0=j0, j1=j1))
    elif tag.tag == "T4d":
        p0, p1 = tag.positions
        for r, m in _factorizations(n + 1):
            period = 2 * m + 1
            for j0 in range(1, 2 * r + 1):
                if p0 not in (j0 * period - 1, j0 * period):
                    continue
                for j1 in range(j0, 2 * r + 1):
                    if p1 in (j1 * period - 1, j1 * period):
                        out.append(NonminimalType("4D", word, r, m, i0=p0, i1=p1, j0=j0, j1=j1))
    return out


def nonminimal_matches(word: Word) -> tuple[NonminimalType, ...]:
    """All satisfied non-minimality clauses, over both normalized reps."""
    word = check_even_word(word)
    if braid_index(word) not in (2, 3, 4):
        raise ValueError(f"classification covers braid index 2..4 only: {word}")
    matches: list[NonminimalType] = []
    for candidate in _positive_candidates(word):
        matches.extend(_matches_for_candidate(candidate))
    return tuple(sorted(set(matches), key=NonminimalType.sort_key))


def nonminimal_type(word: Word) -> NonminimalType | None:
    """First matching clause, or None when the knot is minimal."""
    matches = nonminimal_matches(word)
    return matches[0] if matches else None


def reconstruct_params(match: NonminimalType) -> OrsParams:
    """Interleaving parameters realizing a matched clause.

    Composing them reproduces the matched representative, tying the
    closed-form classification back to the generative construction.
    """
    r, m = match.r, match.m
    period = 2 * m + 1
    target = tuple(2 * (-1) ** i for i in range(2 * m))
    eps = [1] * (2 * r + 1)
    cvec = [(-1) ** (j - 1) for j in range(1, 2 * r + 1)]
    kind, i0, i1, j0, j1 = match.kind, match.i0, match.i1, match.j0, match.j1
    if kind == "TORUS":
        pass
    elif kind == "3A1":
        cvec[j0 - 1] *= 2
    elif kind == "3A2":
        cvec[j0 - 1] = 0
    elif kind == "4A":
        cvec[j0 - 1] *= 3
    elif kind == "4B1":
        cvec[j0 - 1] *= 2
        cvec[j1 - 1] *= 2
    elif kind == "4B2":
        cvec[j0 - 1] = 0
        cvec[j1 - 1] *= 2
    elif kind == "4B3":
        cvec[j0 - 1] = 0
        cvec[j1 - 1] = 0
    elif kind == "3B":
        for j in range(j0 + 1, 2 * r + 2):
            eps[j - 1] = -1
        for j in range(j0 + 1, 2 * r + 1):
            cvec[j - 1] = (-1) ** j
        cvec[j0 - 1] = (-1) ** (j0 - 1) if i0 == j0 * period else (-1) ** j0
    elif kind in ("4C1", "4C2"):
        for j in range(j1 + 1, 2 * r + 2):
            eps[j - 1] = -1
        for j in range(j1 + 1, 2 * r + 1):
            cvec[j - 1] = (-1) ** j
        if kind == "4C1":
            cvec[j1 - 1] = (-1) ** (j1 - 1) if i1 == j1 * period else (-1) ** j1
            cvec[j0 - 1] *= 2  # when j0 == j1 the doubled connector carries the flip sign
        else:
            straight = j1 * period if j1 < j0 else j1 * period - 2
            cvec[j1 - 1] = (-1) ** (j1 - 1) if i1 == straight else (-1) ** j1
            cvec[j0 - 1] = 0
    elif kind == "4D":
        if j0 == j1:
            cvec[j0 - 1] = (-1) ** j0
        else:
            for j in range(j0 + 1, j1 + 1):
                eps[j - 1] = -1
            for j in range(j0 + 1, j1):
                cvec[j - 1] = (-1) ** j
            cvec[j0 - 1] = (-1) ** (j0 - 1) if i0 == j0 * period else (-1) ** j0
            cvec[j1 - 1] = (-1) ** (j1 - 1) if i1 == j1 * period - 1 else (-1) ** j1
    else:
        raise ValueError(f"unknown kind {kind}")
    return OrsParams(target=target, r=r, eps=tuple(eps), cvec=tuple(cvec))


# ---------------------------------------------------------------------------
# The classification table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    braid: int
    kind: str
    crossing: int
    word: Word
    images: tuple[str, ...]
    matches: tuple[NonminimalType, ...] = field(default=(), compare=False)


def _display_word(word: Word) -> Word:
    return min(_positive_candidates(word))


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
    targets: dict[Word, set[Word]] = {}
    # three blocks onto T(2m+1, 2), the word (2, -2) * m, cost 3(2m+1) crossings
    for m in range(1, (c_max // 3 - 1) // 2 + 1):
        for params, word in ors_words((2, -2) * m, c_max, braid_max=4):
            audit_params(params, word)
            lead = mirror_canonical_word(word)
            for image, spelled in ((params.target, word), (negate(params.target), negate(word))):
                rep = canonical_word(spelled)
                if rep == lead or not up_to_mirror:
                    targets.setdefault(rep, set()).add(image)
    rows = []
    for rep, images in targets.items():
        matches = nonminimal_matches(rep)
        if not matches:
            raise AuditFailure(f"ORS word {format_word(rep)} matches no clause")
        knot = knot_from_word(rep)
        names = tuple(sorted({display_name(knot_from_word(image)) for image in images}))
        display = _display_word(rep) if up_to_mirror else rep
        rows.append(Table1Row(knot.braid, matches[0].label, knot.crossing, display, names, matches))
    rows.sort(key=lambda row: (row.braid, row.kind, row.crossing, row.images, row.word))
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
    if got == expected:
        return []
    diffs = []
    for row in expected:
        if row not in got:
            diffs.append(f"missing: {row}")
    for row in got:
        if row not in expected:
            diffs.append(f"unexpected: {row}")
    if not diffs:
        diffs.append("rows agree as sets but are ordered differently")
    return diffs


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

COLUMNS = ("braid", "type", "c", "even continued fraction", "onto")


def _bracketed(word: Word) -> str:
    return "[" + ", ".join(str(e) for e in word) + "]"


def row_cells(row: Table1Row) -> tuple[str, ...]:
    return (
        str(row.braid),
        row.kind,
        str(row.crossing),
        _bracketed(row.word),
        " and ".join(row.images),
    )


def rows_to_json(rows: Sequence[Table1Row]) -> str:
    payload = [
        {
            "braid": row.braid,
            "type": row.kind,
            "c": row.crossing,
            "word": format_word(row.word),
            "onto": list(row.images),
            "matches": [match.to_json() for match in row.matches],
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2)
