"""The benchmark's four workloads: seeded inputs, one timed operation, output checks.

Each workload draws its inputs from a ``random.Random`` it is handed, in
batches of equal composition, so that every batch loads the same layers
in the same proportions and only the concrete knots and words change
with the seed.  ``run`` is the timed operation; it looks every bridgekit
function up through the module objects it is given, so a fresh import or
a traced module is picked up.  ``check`` runs outside the timed region,
on the operations that did not raise, and returns the indices of those
whose output is wrong.

The inputs are generated here, never by bridgekit: random words come
from the census parameterisation (half-length m, sign-change count ell,
sign vector, composition of the halved magnitudes), reference pairs are
copied below from the Table 1 fixture, and the CLI commands are a fixed
list whose stdout digests are recorded in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


# ---------------------------------------------------------------------------
# Input generation (independent of bridgekit)
# ---------------------------------------------------------------------------


def sign_changes(word) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a * b < 0)


def crossing(word) -> int:
    return sum(abs(e) for e in word) - sign_changes(word)


def braid(word) -> int:
    return sum(abs(e) for e in word) // 2 - sign_changes(word) + 1


def torus_word(p: int) -> tuple[int, ...]:
    """Reduced even word of the 2-strand torus knot T(p, 2), p odd."""
    return tuple(2 * (-1) ** i for i in range(p - 1))


def random_knot_word(rng, c: int, ell: int | None = None) -> tuple[int, ...]:
    """A reduced even word with crossing number c, uniform over all such words.

    With ``ell`` given, only words with exactly ell sign changes are drawn
    (braid index c/2 + 1 - ell/2).  Each (m, ell) slice is weighted by its
    number of words: 2 lead signs, C(2m-1, ell) sign patterns and
    C(total-1, 2m-1) compositions of total = (c+ell)/2 into 2m parts.
    """
    slices, weights = [], []
    for m in range(1, (c - 1) // 2 + 1):
        for e in range(c % 2, 2 * m, 2):
            total = (c + e) // 2
            if (ell is not None and e != ell) or total < 2 * m:
                continue
            slices.append((m, e))
            weights.append(2 * comb(2 * m - 1, e) * comb(total - 1, 2 * m - 1))
    if not slices:
        raise ValueError(f"no word with crossing {c} and {ell} sign changes")
    (m, e), = rng.choices(slices, weights=weights)
    changes = set(rng.sample(range(2 * m - 1), e))
    sign = rng.choice((1, -1))
    signs = [sign]
    for i in range(2 * m - 1):
        if i in changes:
            sign = -sign
        signs.append(sign)
    total = (c + e) // 2
    cuts = sorted(rng.sample(range(1, total), 2 * m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(s * 2 * n for s, n in zip(signs, parts))


MAX_LENGTH = MAX_ENTRY = 40


def random_even_word(rng) -> tuple[int, ...]:
    """Any reduced even word: even length 2..MAX_LENGTH, entries up to +-MAX_ENTRY."""
    length = 2 * rng.randint(1, MAX_LENGTH // 2)
    return tuple(rng.choice((1, -1)) * 2 * rng.randint(1, MAX_ENTRY // 2) for _ in range(length))


def random_low_braid_word(rng) -> tuple[int, ...]:
    """A word of braid index <= 4: an alternating +-2 word with up to two marks.

    A mark either enlarges one entry by 2 in magnitude or flips the sign
    of a suffix, which creates one sign repeat; each raises the braid
    index by at most one.
    """
    length = 2 * rng.randint(1, MAX_LENGTH // 2)
    lead = rng.choice((1, -1))
    word = [lead * 2 * (-1) ** i for i in range(length)]
    for _ in range(rng.randint(0, 2)):
        if length > 1 and rng.random() < 0.5:
            cut = rng.randrange(1, length)
            word[cut:] = [-e for e in word[cut:]]
        else:
            i = rng.randrange(length)
            word[i] += 2 if word[i] > 0 else -2
    return tuple(word)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _shuffled(values, rng):
    values = list(values)
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# census-sweep
# ---------------------------------------------------------------------------


class CensusSweep:
    """One operation: brute_counts(c) then verify_row(c, row), c in 14..20.

    Enumeration time doubles with each crossing, so a batch holds more of
    the small crossings (6, 6, 6, 4, 4, 2, 2 of c = 14..20): a run then
    has well over 100 operations, c = 20 still takes about 40 % of the
    time, and the median and the 90th percentile fall in the middle of
    the c = 16 and the c = 19 operations, not between two crossings.
    """

    name = "census-sweep"
    PER_BATCH = {14: 6, 15: 6, 16: 6, 17: 4, 18: 4, 19: 2, 20: 2}

    def batch(self, rng):
        crossings = [c for c, k in self.PER_BATCH.items() for _ in range(k)]
        return [("census", c) for c in _shuffled(crossings, rng)]

    def warmup(self):
        return ("census", 17)

    def run(self, bk, op):
        _, c = op
        row = bk.census.brute_counts(c)
        return row, bk.census.verify_row(c, row)

    def check(self, bk, batch, outputs):
        bad = set()
        for i, ((_, c), (row, problems)) in enumerate(zip(batch, outputs)):
            if problems or row.c != c or sum(e.count for e in row.by_ell) != row.tk:
                bad.add(i)
        return bad

    def properties(self, batch, outputs):
        return {"c": Counter(c for _, c in batch)}


# ---------------------------------------------------------------------------
# search-queries
# ---------------------------------------------------------------------------

# Table 1 reference rows at the seed commit: (word, images), one knot per
# row up to mirror image, word normalised to a positive lead.  Copied so
# that the inputs stay fixed when the package's fixture grows.
TABLE1_ROWS = (
    ((2, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    ((2, -2) * 7, ("3_1", "5_1")),
    ((2, -2, 2, -2, 2, -4, 2, -2), ("3_1",)),
    ((2, -4, 2, -2, 2, -2), ("3_1",)),
    ((2, -4, 2, -2, 2, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    ((2, -2, 2, -2, 2, -2, 2, -4, 2, -2, 2, -2), ("3_1",)),
    ((2, -2, 2, -4, 2, -2, 2, -2, 2, -2, 2, -2), ("5_1",)),
    ((2, -2, -2, 2, -2, 2, -2, 2), ("3_1",)),
    ((2, -2, 2, -2, 2, 2, -2, 2), ("3_1",)),
    ((2, -2, 2, -2, 2, -6, 2, -2), ("3_1",)),
    ((2, -2, 4, -2, 2, -4, 2, -2), ("3_1",)),
    ((2, -4, 2, -4, 2, -2), ("3_1",)),
    ((2, -4, 4, -2), ("3_1",)),
    ((2, -4, 2, -2, 2, -4, 2, -2, 2, -2), ("3_1",)),
    ((2, -4, 2, -2, 2, -2, 2, -2, 4, -2), ("3_1",)),
    ((2, -4, 4, -2, 2, -2, 2, -2, 2, -2), ("3_1",)),
    ((2, -2, 2, -2, 4, -4, 2, -2, 2, -2), ("3_1",)),
    ((2, -2, 2, -4, 2, -2, 4, -2, 2, -2), ("5_1",)),
    ((2, -2, -4, 2, -2, 2, -2, 2), ("3_1",)),
    ((2, -2, -2, 2, -2, 4, -2, 2), ("3_1",)),
    ((2, -2, 2, -2, 2, 4, -2, 2), ("3_1",)),
    ((2, -2, 2, 2, -2, 4, -2, 2), ("3_1",)),
    ((2, -4, 2, -2, -2, 2), ("3_1",)),
    ((2, -4, 2, 2, -2, 2), ("3_1",)),
    ((2, -2, -2, -2, 2, -2, 2, -2), ("3_1",)),
    ((2, -2, -2, 2, -2, -2, 2, -2), ("3_1",)),
    ((2, -2, -2, 2, -2, 2, 2, -2), ("3_1",)),
    ((2, -2, 2, 2, -2, -2, 2, -2), ("3_1",)),
)
FIGURE_EIGHT = (-2, -2)

# A positive-lead representative maps onto the positive-lead torus word:
# the ORS pattern starts with +1 copies of the target.
POSITIVE_PAIRS = tuple(
    (word, torus_word(int(name[0]))) for word, images in TABLE1_ROWS for name in images
)
# No row maps onto the figure-eight knot, and rows without 5_1 among their
# images map onto neither chirality of it (reversal mirrors a torus word).
NEGATIVE_PAIRS = tuple(
    (word, FIGURE_EIGHT) for word, _ in TABLE1_ROWS if crossing(word) >= 12
) + tuple(
    (word, small)
    for word, images in TABLE1_ROWS
    if crossing(word) >= 15 and "5_1" not in images
    for small in (torus_word(5), torus_word(5)[::-1])
)


class SearchQueries:
    """One operation: one epimorphism search query on a seeded knot.

    A batch holds, for each c in 15..20, a generic knot and a braid-index
    3 or 4 knot, each queried with both is_minimal and epi_targets; the
    torus knots T(15,2)..T(21,2) with is_minimal; and eight positive and
    eight negative admits_epi pairs from the Table 1 reference.  The cheap
    admits_epi pairs put the median among the c = 15, 16 searches and the
    90th percentile among the c = 19, 20 searches, not between two groups.
    """

    name = "search-queries"
    CROSSINGS = range(15, 21)
    TORUS = (15, 17, 19, 21)

    def batch(self, rng):
        ops = []
        for c in self.CROSSINGS:
            low = c + 2 - 2 * rng.choice((3, 4))
            for word in (random_knot_word(rng, c), random_knot_word(rng, c, ell=low)):
                ops += [("is_minimal", word), ("epi_targets", word)]
        ops += [("torus", p) for p in self.TORUS]
        ops += [("admits", pair, True) for pair in rng.sample(POSITIVE_PAIRS, 8)]
        ops += [("admits", pair, False) for pair in rng.sample(NEGATIVE_PAIRS, 8)]
        return _shuffled(ops, rng)

    def warmup(self):
        return ("torus", 19)

    def run(self, bk, op):
        kind, arg = op[0], op[1]
        epim, knot_from_word = bk.epim, bk.knot.knot_from_word
        if kind == "is_minimal":
            return epim.is_minimal(knot_from_word(arg))
        if kind == "epi_targets":
            return epim.epi_targets(knot_from_word(arg))
        if kind == "torus":
            return epim.is_minimal(knot_from_word(torus_word(arg)))
        big, small = arg
        return epim.admits_epi(knot_from_word(big), knot_from_word(small))

    @staticmethod
    def _audited(bk, witnesses, big) -> bool:
        canon = bk.knot.canonical_word(big)
        for witness in witnesses:
            if witness.big.canon != canon:
                return False
            try:
                bk.epim.audit_inequality(witness)
            except bk.epim.AuditFailure:
                return False
        return True

    def check(self, bk, batch, outputs):
        bad = set()
        minimal, targets = {}, {}
        for i, (op, out) in enumerate(zip(batch, outputs)):
            kind = op[0]
            if kind == "is_minimal":
                minimal[op[1]] = (i, out)
            elif kind == "epi_targets":
                targets[op[1]] = (i, out)
                if not self._audited(bk, out, op[1]):
                    bad.add(i)
            elif kind == "torus":
                if out != is_prime(op[1]):
                    bad.add(i)
            else:
                (big, small), expected = op[1], op[2]
                if (out is not None) != expected:
                    bad.add(i)
                elif out is not None and (
                    out.small.canon != bk.knot.canonical_word(small)
                    or not self._audited(bk, [out], big)
                ):
                    bad.add(i)
        for word in minimal.keys() | targets.keys():
            if braid(word) <= 4:
                # braid index <= 4: the clause classifier decides minimality exactly
                nonminimal = bool(bk.classify.nonminimal_matches(word))
                if word in minimal and minimal[word][1] == nonminimal:
                    bad.add(minimal[word][0])
                if word in targets and bool(targets[word][1]) != nonminimal:
                    bad.add(targets[word][0])
            if word in minimal and word in targets:
                i, is_min = minimal[word]
                if is_min != (not targets[word][1]):
                    bad.add(i)
        return bad

    @staticmethod
    def _word(op):
        if op[0] == "torus":
            return torus_word(op[1])
        return op[1][0] if op[0] == "admits" else op[1]

    def properties(self, batch, outputs):
        words = [self._word(op) for op in batch]
        # is_minimal stops at the first witness; every other query searches to the end
        early_exit = sum(
            op[0] in ("is_minimal", "torus") and out is False for op, out in zip(batch, outputs)
        )
        return {
            "c": Counter(crossing(w) for w in words),
            "braid_le_4": sum(braid(w) <= 4 for w in words),
            "early_exit": early_exit,
            "exhaustive": len(batch) - early_exit,
            "word_length": sum(len(w) for w in words),
        }


# ---------------------------------------------------------------------------
# cli-tables
# ---------------------------------------------------------------------------

T9, T15, T17 = (",".join(map(str, torus_word(p))) for p in (9, 15, 17))

# Fifteen commands: with every command once per batch, the median and the
# 90th percentile each fall inside one command's cluster of latencies.
COMMANDS = (
    ("epi", "graph", "--max-c", "10"),
    ("--format", "json", "epi", "graph", "--max-c", "10"),
    ("table1", "--max-c", "13"),
    ("--format", "csv", "table1", "--max-c", "13"),
    ("--format", "json", "table1", "--max-c", "13"),
    ("census", "3..17", "--verify"),
    ("--format", "csv", "census", "3..17", "--verify"),
    ("--format", "json", "census", "3..17", "--verify"),
    ("census", "3..16", "--up-to-mirror"),
    ("epi", "minimal", T17),
    ("epi", "targets", T9),
    ("--format", "json", "epi", "targets", T15),
    ("epi", "check", T15, "2,-2,2,-2"),
    ("invariants", "2,-4,4,-2"),
    ("--format", "json", "invariants", "4,-2,2,-6,2,-4"),
)


def command_key(argv) -> str:
    return " ".join(argv)


def run_cli(cli, argv) -> tuple[int, str]:
    """cli.main in-process with stdout captured; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CliTables:
    """One operation: one in-process cli.main call, round-robin over COMMANDS."""

    name = "cli-tables"

    def __init__(self):
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def batch(self, rng):
        start = rng.randrange(len(COMMANDS))
        return [("cli", argv) for argv in COMMANDS[start:] + COMMANDS[:start]]

    def warmup(self):
        return ("cli", COMMANDS[0])

    def run(self, bk, op):
        return run_cli(bk.cli, op[1])

    def check(self, bk, batch, outputs):
        return {
            i
            for i, ((_, argv), (code, text)) in enumerate(zip(batch, outputs))
            if code != 0 or digest(text) != self.golden[command_key(argv)]
        }

    def properties(self, batch, outputs):
        return {
            "stdout_bytes": sum(
                len(out[1].encode()) for out in outputs if not isinstance(out, Exception)
            )
        }


# ---------------------------------------------------------------------------
# word-invariants
# ---------------------------------------------------------------------------


class WordInvariants:
    """One operation: invariants, value round trip and mirror orbit of one word.

    Half of each batch are random reduced even words; the other half have
    braid index <= 4 and also run the clause classifier, recomposing
    every matched clause through reconstruct_params and ors_compose.
    """

    name = "word-invariants"
    HALF_BATCH = 100

    def batch(self, rng):
        words = [random_even_word(rng) for _ in range(self.HALF_BATCH)]
        words += [random_low_braid_word(rng) for _ in range(self.HALF_BATCH)]
        return [("word", w) for w in _shuffled(words, rng)]

    def warmup(self):
        return ("word", (2, -2, 2, -2, 2, -2, 2, -2))

    def run(self, bk, op):
        word = op[1]
        contfrac, classify = bk.contfrac, bk.classify
        knot = bk.knot.knot_from_word(word)
        value = contfrac.eval_word(word)
        expansion = contfrac.to_reduced_even(value)
        orbit = bk.knot.mirror_orbit(word)
        matches, recomposed = (), []
        if knot.braid <= 4:
            matches = classify.nonminimal_matches(word)
            recomposed = [bk.epim.ors_compose(classify.reconstruct_params(m)) for m in matches]
        return knot, value, expansion, orbit, matches, recomposed

    # Up to this crossing number the search is cheap enough to serve as
    # an oracle for the clause classifier.
    SEARCH_ORACLE_MAX_C = 12

    def check(self, bk, batch, outputs):
        bad = set()
        for i, ((_, word), out) in enumerate(zip(batch, outputs)):
            knot, value, expansion, orbit, matches, recomposed = out
            if (
                expansion != word
                or word not in orbit
                or knot.crossing != crossing(word)
                or knot.braid != braid(word)
                or value.denominator % 2 == 0
                or any(m.word != w for m, w in zip(matches, recomposed))
            ):
                bad.add(i)
            elif knot.braid <= 4 and knot.crossing <= self.SEARCH_ORACLE_MAX_C:
                if bool(matches) == bk.epim.is_minimal(knot):
                    bad.add(i)
        return bad

    def properties(self, batch, outputs):
        words = [w for _, w in batch]
        return {
            "braid_le_4": sum(braid(w) <= 4 for w in words),
            "nonminimal": sum(bool(out[4]) for out in outputs if not isinstance(out, BaseException)),
            "word_length": sum(len(w) for w in words),
        }


WORKLOADS = {w.name: w for w in (CensusSweep, SearchQueries, CliTables, WordInvariants)}
