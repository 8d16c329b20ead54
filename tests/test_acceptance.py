"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers and fractions, zero tolerance);
the only inequality is the asymptotic gap bound, checked by exact
cross-multiplication.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from bridgekit.census import (
    IDENTITIES_N_MAX,
    TABLE2_REFERENCE,
    brute_counts,
    closed_avg_braid,
    closed_avg_braid_star,
    closed_avg_genus,
    closed_n,
    closed_tk,
    closed_tk_star,
    closed_ts,
    closed_ts_star,
    enumerate_words,
    verify_identities,
)
from bridgekit.classify import nonminimal_matches, table1, table1_diff
from bridgekit.cli import main as cli_main
from bridgekit.contfrac import eval_word, negate, rev_neg, reverse, to_reduced_even
from bridgekit.epim import OrsParams, audit_params, is_minimal, ors_compose
from bridgekit.knot import (
    braid_index,
    canonical_word,
    crossing_number,
    knot_from_word,
)

from _oracles import raw_words

PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23}


def report(number: int, description: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {description}{extra}")
    assert passed, f"criterion {number} failed: {description}{extra}"


def test_criterion_1_census_reproduction():
    """Brute-force census equals the reference table for c = 3..15."""
    start = time.monotonic()
    mismatches = []
    for c in range(3, 16):
        row = brute_counts(c)
        got = (row.tk, row.ts, row.avg_braid, row.tk_star, row.ts_star, row.avg_braid_star)
        if got != TABLE2_REFERENCE[c]:
            mismatches.append((c, got, TABLE2_REFERENCE[c]))
    elapsed = time.monotonic() - start
    report(
        1,
        "census c=3..15 matches the reference exactly",
        not mismatches and elapsed < 60,
        f" ({elapsed:.1f}s)" + (f" mismatches={mismatches}" if mismatches else ""),
    )


def test_criterion_2_closed_forms_agree():
    """Closed forms equal enumeration for c <= 16; avg identity for c <= 200."""
    bad = []
    for c in range(3, 17):
        row = brute_counts(c)
        if row.tk != closed_tk(c) or row.ts != closed_ts(c):
            bad.append(("tk/ts", c))
        if row.tk_star != closed_tk_star(c) or row.ts_star != closed_ts_star(c):
            bad.append(("starred", c))
        if row.avg_braid != closed_avg_braid(c) or row.avg_braid_star != closed_avg_braid_star(c):
            bad.append(("avg", c))
        if row.avg_genus != closed_avg_genus(c):
            bad.append(("genus", c))
        counted = {entry.ell: entry.count for entry in row.by_ell}
        ell_max = c - 4 if c % 2 == 0 else c - 2
        for ell in range(0 if c % 2 == 0 else 1, ell_max + 1, 2):
            if counted.get(ell, 0) != closed_n(c, ell):
                bad.append(("N", c, ell))
    for c in range(3, 201):
        if closed_avg_braid(c) != Fraction(c, 2) + 1 - Fraction(closed_ts(c), 2 * closed_tk(c)):
            bad.append(("identity", c))
        if closed_avg_braid_star(c) != Fraction(c, 2) + 1 - Fraction(
            closed_ts_star(c), 2 * closed_tk_star(c)
        ):
            bad.append(("identity*", c))
    report(2, "closed forms agree with enumeration and internal identity", not bad, f" {bad}")


def test_criterion_3_table1_reproduction(capsys):
    """table1 at c <= 15 reproduces the 28 reference rows with empty diff."""
    start = time.monotonic()
    rows = table1(15)
    diff = table1_diff(rows)
    cli_exit = cli_main(["table1", "--max-c", "15"])
    capsys.readouterr()  # swallow the table the command printed
    elapsed = time.monotonic() - start
    report(
        3,
        "table of non-minimal knots (braid <= 4, c <= 15) reproduced",
        len(rows) == 28 and not diff and cli_exit == 0 and elapsed < 300,
        f" ({len(rows)} rows, exit {cli_exit}, {elapsed:.1f}s)"
        + (f" diff={diff}" if diff else ""),
    )


def test_criterion_4_inequality_property_suite():
    """10^4 random interleavings: braid bound holds, audit terms split the slack."""
    rng = random.Random(20240901)
    pool = [word for c in range(3, 10) for word in enumerate_words(c)]
    violations = 0
    for _ in range(10_000):
        target = rng.choice(pool)
        r = rng.randint(1, 2)
        cvec = tuple(rng.randint(-3, 3) for _ in range(2 * r))
        eps = [1]
        for j, cj in enumerate(cvec):
            eps.append(eps[j] if cj == 0 else rng.choice((1, -1)))
        params = OrsParams(target=target, r=r, eps=tuple(eps), cvec=cvec)
        composed = ors_compose(params)
        audit = audit_params(params, composed)  # raises on negative terms / bad sum
        if braid_index(composed) < 3 * braid_index(target) - 4:
            violations += 1
        if crossing_number(composed) < 3 * crossing_number(target):
            violations += 1
        if min(audit[:4]) < 0 or sum(audit[:4]) != audit.slack:
            violations += 1
    report(4, "braid inequality and audit decomposition over 10^4 samples", violations == 0)


def test_criterion_5_minimality_cross_validation():
    """Clause classifier and search agree for braid <= 4, c <= 15; torus primality."""
    disagreements = []
    for c in range(3, 16):
        for braid in (2, 3, 4):
            ell = c - 2 * (braid - 1)
            if ell < 0:
                continue
            for word in enumerate_words(c, ell=ell):
                closed = bool(nonminimal_matches(word))
                searched = not is_minimal(knot_from_word(word))
                if closed != searched:
                    disagreements.append(word)
    torus_bad = []
    for k in range(1, 13):
        minimal = is_minimal(knot_from_word((2, -2) * k))
        if minimal != (2 * k + 1 in PRIMES):
            torus_bad.append(k)
    report(
        5,
        "closed-form and search minimality agree; T(2k+1,2) minimal iff 2k+1 prime",
        not disagreements and not torus_bad,
        f" disagreements={disagreements} torus={torus_bad}" if disagreements or torus_bad else "",
    )


def test_criterion_6_identities():
    """All binomial-sum identities hold exactly for parameters up to IDENTITIES_N_MAX (300).

    closed_n relies on them for k up to 249 at the census bound c = 500.
    """
    start = time.monotonic()
    checks = verify_identities(IDENTITIES_N_MAX)
    elapsed = time.monotonic() - start
    failed = [check.name for check in checks if not check.passed]
    report(
        6,
        f"binomial-sum and partial-sum identities up to {IDENTITIES_N_MAX}",
        len(checks) == 7 and not failed and elapsed < 10,
        f" ({elapsed:.1f}s)" + (f" failed={failed}" if failed else ""),
    )


def test_criterion_7_asymptotics():
    """closed_avg_braid(100) is within 10^-6 of c/3 + 11/9, exactly compared."""
    gap = abs(closed_avg_braid(100) - Fraction(100, 3) - Fraction(11, 9))
    report(7, "average braid index asymptote at c=100", gap < Fraction(1, 10**6), f" gap={gap}")


def test_criterion_8_equivalence_round_trip():
    """Involutions, eval/expansion round trip, and enumeration uniqueness."""
    problems = []
    for c in range(3, 17):
        for word in enumerate_words(c):
            if rev_neg(rev_neg(word)) != word or negate(negate(word)) != word:
                problems.append(("involution", word))
            if reverse(reverse(word)) != word:
                problems.append(("involution", word))
            if canonical_word(word) != canonical_word(rev_neg(word)):
                problems.append(("canonical", word))
            value = eval_word(word)
            if eval_word(to_reduced_even(value)) != value:
                problems.append(("round-trip", word))
    for c in range(3, 13):
        raw = list(raw_words(c))
        emitted = list(enumerate_words(c))
        if len(raw) != len(set(raw)) or len(emitted) != len(set(emitted)):
            problems.append(("duplicates", c))
        if set(emitted) != {canonical_word(word) for word in raw}:
            problems.append(("coverage", c))
        if any(word != canonical_word(word) for word in emitted):
            problems.append(("non-canonical emission", c))
    report(8, "equivalence and round-trip property suite", not problems, f" {problems[:3]}")
