"""Command-line front end.

Subcommands: invariants, census, epi (targets/check/minimal/graph),
table1, identities.  Words are written as comma-separated signed
integers (``2,-4,4,-2``), and one may start with a minus sign (``-2,2``);
fractions print as ``p/q`` unless --decimal asks for a 12-digit rendering.

Exit codes: 0 success, 2 verification mismatch, 3 parse or usage error,
4 resource bound (``census.ResourceBound``).  Every bounded number (the
ends of the census range, --max-c and --n-max) is read by ``_bounded`` as
digits and compared with its bounds before int() runs: malformed or below
its least value exits 3, above its bound exits 4.  Words of ``invariants``
and ``epi`` have at most ``epim.WORD_MAX`` entries, counted before any
entry is parsed, and entries of at most ``ENTRY_DIGITS_MAX`` digits,
counted before any is read by int() (exit 4 above); that also bounds the
epimorphism search.  Run as a program (``entry``), a closed stdout ends
the process by SIGPIPE.

Stdout on a nonzero exit: on exits 3 and 4 it is empty, as every input is
read and every bound checked before anything is printed.  On exit 2 it
holds what was computed before the check that failed: ``census --verify``
prints its counted rows and ``table1`` its rows, then names the mismatch
on stderr; ``identities`` prints every check, then names the failed ones
on stderr.  A failed audit or a closed form that is not an integer prints
nothing.

Each setting comes only from its flag, given before or after the
subcommand.  ``main`` can be called repeatedly in one process; its
parser is built once, on first use, and no call leaves state behind.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import re
import signal
import sys
from fractions import Fraction

from . import census, classify, epim
from .contfrac import (
    WordParseError,
    eval_word,
    format_fraction,
    format_json,
    format_word,
    parse_word,
)
from .knot import display_name, is_torus_two_strand, knot_from_word, mirror_canonical_word

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4

# The most significant digits an entry of a word may have.  A word of at most
# epim.WORD_MAX entries then has a crossing number of at most 4,005 digits, so
# every integer invariants prints stays under the 4,300 digits int converts to
# str; a value's numerator and denominator are bounded apart.
ENTRY_DIGITS_MAX = 4_000

FORMATS = ("json", "csv", "md", "dot")
# The formats each command renders; the others are refused (exit 3).
RENDERS = {
    "invariants": ("json", "md"),
    "census": ("json", "csv", "md"),
    "epi targets": ("json", "md"),
    "epi check": ("md",),
    "epi minimal": ("md",),
    "epi graph": ("json", "dot"),
    "table1": ("json", "csv", "md"),
    "identities": ("md",),
}


def _fraction_formatter(digits: bool):
    if not digits:
        return format_fraction

    def fmt(value: Fraction) -> str:
        with decimal.localcontext() as ctx:
            ctx.prec = 12
            return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))

    return fmt


def _significant(digits: str) -> str:
    """The significant digits of a string of decimal digits, in ASCII: isdecimal
    also admits other scripts' digits, and int() counts leading zeros."""
    return "".join(map(str, map(int, digits))).lstrip("0")


def _bounded(name: str, ends: list[str], low: int, high: int, command: str) -> range:
    """The whole numbers from the first of ``ends`` to the last, given in digits.

    Each end is read as ASCII digits without leading zeros and compared as
    (digit count, digits), so no end is read by int() before it is known to
    be within the bound: int() refuses more than 4300 digits, leading zeros
    included.  ValueError when an end is not digits, the ends are out of
    order or the first is below ``low``; ResourceBound when the last is
    above ``high``.
    """
    text = "..".join(ends)
    # digits only: int would also read a sign, spaces and underscores
    if len(ends) > 2 or not all(end.isdecimal() for end in ends):
        raise ValueError(f"bad {name} {text!r}")
    lo, hi = _significant(ends[0]), _significant(ends[-1])
    least, first, last, most = ((len(d), d) for d in (str(low), lo, hi, str(high)))
    if not least <= first <= last:
        raise ValueError(f"bad {name} {text!r}")
    if last > most:
        raise census.ResourceBound(f"{name} {hi} exceeds the {command} bound {high}")
    return range(int(lo), int(hi) + 1)


def format_table(
    columns: tuple[str, ...], rows: list[tuple[str, ...]], output_format: str
) -> str:
    """Render rows of cell strings as csv, or as a markdown table otherwise."""
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    lines.extend("| " + " | ".join(cells) + " |" for cells in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _unprintable(digits: int) -> census.ResourceBound:
    return census.ResourceBound(
        f"the value's numerator or denominator has more than {digits} digits;"
        " --decimal prints it"
    )


def cmd_invariants(args) -> int:
    word = _bounded_word(args.word, "invariants")
    knot = knot_from_word(word)
    torus = is_torus_two_strand(knot)
    # Each fold step of a reduced even word has a tail below 1 in absolute
    # value, so the denominator is at least prod(|e| - 1) >= 2^s, s the sum
    # of floor(log2(|e| - 1)): refuse before evaluating when 3 s > 10 * digits,
    # as 2^(10/3) > 10 makes 2^s a number of more than `digits` digits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    if not args.decimal and digits and (
        3 * sum((abs(e) - 1).bit_length() - 1 for e in word) > 10 * digits
    ):
        raise _unprintable(digits)
    value = eval_word(word)
    try:
        text = _fraction_formatter(args.decimal)(value)
    except ValueError:  # str() refuses an int of more than this many digits
        raise _unprintable(digits) from None
    fields = [
        ("word", format_word(word)),
        ("canonical", format_word(knot.canon)),
        ("value", text),
        ("name", display_name(knot)),
        ("crossing", knot.crossing),
        ("braid", knot.braid),
        ("genus", knot.genus),
        ("sign changes", knot.signchg),
        ("torus", f"T({torus},2)" if torus else "-"),
    ]
    # every line is built before any is printed
    if args.format == "json":
        print(format_json(dict(fields)))
    else:
        print("\n".join(f"{key}: {value}" for key, value in fields))
    return EXIT_OK


def cmd_census(args) -> int:
    crossings = _bounded("c", args.range.split(".."), 3, census.FORMULAS_C_MAX, "census")
    # the closed forms; --verify prints the counts instead and checks them
    make_row = census.brute_counts if args.verify else census.closed_row
    rows = [make_row(c) for c in crossings]
    mirror = args.up_to_mirror
    fmt = _fraction_formatter(args.decimal)
    if args.format == "json":
        print(census.rows_to_json(rows, fmt, up_to_mirror=mirror))
    else:
        print(
            format_table(
                census.MIRROR_COLUMNS if mirror else census.COLUMNS,
                [census.row_cells(row, fmt, up_to_mirror=mirror) for row in rows],
                args.format,
            )
        )
    if args.verify:
        problems = []
        for row in rows:
            problems.extend(census.verify_row(row.c, row))
        if problems:
            for problem in problems:
                print(f"verify mismatch: {problem}", file=sys.stderr)
            return EXIT_MISMATCH
        print(f"verify: brute force and closed forms agree for c in {args.range}")
    return EXIT_OK


def _print_witnesses(witnesses, header: str) -> None:
    print(header)
    for witness in witnesses:
        params = witness.params
        audit = witness.audit
        print(
            f"  onto {display_name(witness.small)} [{format_word(witness.small.canon)}]"
            f" via target={format_word(params.target)} r={params.r}"
            f" eps={list(params.eps)} cvec={list(params.cvec)}"
            f" audit(copies={audit.term_copies}, cbudget={audit.term_cbudget},"
            f" zero={audit.term_zero}, signs={audit.term_signs}, slack={audit.slack})"
        )


def _bounded_word(text: str, command: str):
    """The word argument of ``command``, refused above epim.WORD_MAX entries or
    with an entry of more than ENTRY_DIGITS_MAX digits before any entry is parsed.

    An entry's digits are counted as ``_bounded`` counts them, after its sign
    and without its underscores and leading zeros, and an entry of digits
    only is read without its leading zeros.
    """
    n = text.count(",") + 1
    if n > epim.WORD_MAX:
        raise census.ResourceBound(f"word length {n} exceeds the {command} bound {epim.WORD_MAX}")
    entries = text.split(",")
    if max(map(len, entries)) > ENTRY_DIGITS_MAX:  # only a longer entry has more digits
        numbered = enumerate(entries, start=1)
        text = ",".join(_bounded_entry(entry, position, command) for position, entry in numbered)
    return parse_word(text)


def _bounded_entry(entry: str, position: int, command: str) -> str:
    """``entry`` without leading zeros if it is digits after a sign; ResourceBound
    if it has more than ENTRY_DIGITS_MAX digits, not counting underscores."""
    body = entry.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    digits = body[len(sign):].replace("_", "")
    if len(entry) <= ENTRY_DIGITS_MAX or not digits.isdecimal():
        return entry  # short, or not a number, which parse_word reports
    significant = _significant(digits)
    if len(significant) > ENTRY_DIGITS_MAX:
        raise census.ResourceBound(
            f"word entry {position} has {len(significant)} digits, above the {command}"
            f" bound {ENTRY_DIGITS_MAX}"
        )
    # int() reads underscores only between digits
    return entry if "_" in body else sign + (significant or "0")


def _epi_knot(text: str):
    return knot_from_word(_bounded_word(text, "epi"))


def cmd_epi(args) -> int:
    if args.epi_command == "targets":
        knot = _epi_knot(args.word)
        witnesses = epim.epi_targets(knot)
        if args.format == "json":
            print(epim.witness_writer()(witnesses))
        else:
            names = sorted({display_name(w.small) for w in witnesses})
            summary = " and ".join(names) if names else "none"
            _print_witnesses(witnesses, f"targets of {format_word(knot.canon)}: {summary}")
        return EXIT_OK
    if args.epi_command == "check":
        big = _epi_knot(args.big)
        small = _epi_knot(args.small)
        # a knot's group is isomorphic to its mirror image's, and the search skips both
        if mirror_canonical_word(big.canon) == mirror_canonical_word(small.canon):
            relation = "the same knot" if big == small else "mirror images"
            print(
                f"{format_word(big.canon)} -> {format_word(small.canon)}: {relation};"
                " epi check looks for proper images only"
            )
            return EXIT_OK
        witness = epim.admits_epi(big, small)
        if witness is None:
            print(f"no epimorphism {format_word(big.canon)} -> {format_word(small.canon)}")
        else:
            _print_witnesses([witness], "epimorphism exists:")
        return EXIT_OK
    if args.epi_command == "minimal":
        knot = _epi_knot(args.word)
        witnesses = epim.epi_targets(knot)
        if not witnesses:
            print(f"{format_word(knot.canon)}: minimal")
        else:
            names = sorted({display_name(w.small) for w in witnesses})
            print(f"{format_word(knot.canon)}: not minimal (onto {' and '.join(names)})")
        return EXIT_OK
    if args.epi_command == "graph":
        max_c = _bounded("--max-c", [args.max_c], 3, epim.EPI_GRAPH_C_MAX, "epi graph")[0]
        write = epim.write_json if args.format == "json" else epim.write_dot
        write(max_c, sys.stdout)
        return EXIT_OK
    raise AssertionError(f"unhandled epi subcommand {args.epi_command}")


def cmd_table1(args) -> int:
    max_c = _bounded("--max-c", [args.max_c], 3, classify.TABLE1_C_MAX, "table1")[0]
    rows = classify.table1(max_c, up_to_mirror=not args.chiral)
    if args.format == "json":
        print(classify.rows_to_json(rows))
    else:
        cells = [classify.row_cells(row) for row in rows]
        print(format_table(classify.COLUMNS, cells, args.format))
    if args.chiral:
        return EXIT_OK
    diff = classify.table1_diff(rows, c_max=max_c)
    if diff:
        for line in diff:
            print(f"table1 diff: {line}", file=sys.stderr)
        return EXIT_MISMATCH
    # keep stdout machine-clean for structured formats
    stream = sys.stdout if args.format == "md" else sys.stderr
    print(f"diff vs reference (c <= {min(max_c, 15)}): empty", file=stream)
    return EXIT_OK


def cmd_identities(args) -> int:
    n_max = _bounded("--n-max", [args.n_max], 1, census.IDENTITIES_N_MAX, "identities")[0]
    checks = census.verify_identities(n_max)
    for check in checks:
        status = "pass" if check.passed else f"FAIL at {check.counterexample}"
        print(f"{check.name} (params up to {check.max_param}): {status}")
    failed = [check for check in checks if not check.passed]
    for check in failed:
        print(f"verify mismatch: {check.name} fails at {check.counterexample}", file=sys.stderr)
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _shared_flags(default) -> argparse.ArgumentParser:
    """Flags accepted before and after the subcommand.  The copies after it
    default to SUPPRESS, so that a flag given only before keeps its value."""
    shared = argparse.ArgumentParser(add_help=False, argument_default=default)
    shared.add_argument("--format", choices=FORMATS, help="output format")
    shared.add_argument(
        "--decimal", action="store_true", help="render fractions with 12 significant digits"
    )
    return shared


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with a minus sign and a digit, such as
    the word ``-2,2``, as a positional, where argparse alone admits only a
    negative number.  A parser with subcommands refuses an unknown --flag
    before its subcommand by name, where argparse would set the flag aside
    and read its value as the subcommand.  Subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        commands = [a.choices for a in self._actions if isinstance(a, argparse._SubParsersAction)]
        for token in args if commands else ():
            if token == "--" or token in commands[0]:
                break
            # a prefix of a known flag abbreviates it, and argparse reads it
            if token.startswith("--") and not any(
                flag.startswith(token.partition("=")[0]) for flag in self._option_string_actions
            ):
                self.error(f"unrecognized arguments: {token}")
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Parsing does not change it; bounds reach it only through help strings.
    """
    parser = _Parser(
        prog="bridgekit",
        description="Exact two-bridge knot combinatorics: invariants, census, epimorphisms.",
        parents=[_shared_flags(None)],
    )
    after = [_shared_flags(argparse.SUPPRESS)]
    sub = parser.add_subparsers(dest="command", required=True)

    digits = f"entries of at most {ENTRY_DIGITS_MAX} digits (exit 4 above)."
    bound = f"The word has at most {epim.WORD_MAX} {digits}"
    p = sub.add_parser(
        "invariants", help="invariants of one word", description=bound, parents=after
    )
    p.add_argument("word")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("census", help="census table for a crossing range", parents=after)
    bound = f"c from 3 to {census.FORMULAS_C_MAX} (exit 3 below, 4 above)"
    p.add_argument("range", help=f"crossing number or range, e.g. 12 or 3..15; {bound}")
    p.add_argument(
        "--verify",
        action="store_true",
        help="print the counted rows and check them against the closed forms",
    )
    p.add_argument("--up-to-mirror", action="store_true", help="only the mirror-quotient columns")
    p.set_defaults(func=cmd_census)

    bound = f"Words have at most {epim.WORD_MAX} {digits}"
    p = sub.add_parser("epi", help="epimorphism queries", description=bound, parents=after)
    epi_sub = p.add_subparsers(dest="epi_command", required=True)
    q = epi_sub.add_parser("targets", help="all epimorphic images of a knot", parents=after)
    q.add_argument("word")
    q = epi_sub.add_parser("check", help="does the first knot map onto the second", parents=after)
    q.add_argument("big")
    q.add_argument("small")
    q = epi_sub.add_parser("minimal", help="decide minimality by search", parents=after)
    q.add_argument("word")
    q = epi_sub.add_parser("graph", help="epimorphism digraph up to a crossing bound", parents=after)
    bound = f"largest crossing number, 3 to {epim.EPI_GRAPH_C_MAX} (exit 3 below, 4 above)"
    q.add_argument("--max-c", required=True, help=bound)
    p.set_defaults(func=cmd_epi)

    p = sub.add_parser("table1", help="non-minimal knots with braid index <= 4", parents=after)
    bound = f"largest crossing number, 3 to {classify.TABLE1_C_MAX} (exit 3 below, 4 above)"
    p.add_argument("--max-c", default="15", help=bound)
    p.add_argument("--chiral", action="store_true", help="one row per chiral knot, no diff")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("identities", help="verify the binomial-sum identities", parents=after)
    bound = f"largest parameter, 1 to {census.IDENTITIES_N_MAX} (exit 3 below, 4 above)"
    p.add_argument("--n-max", default="200", help=bound)
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means a mismatch here
        raise SystemExit(EXIT_PARSE if exc.code == 2 else exc.code) from None
    command = f"epi {args.epi_command}" if args.command == "epi" else args.command
    if args.format is None:
        args.format = "dot" if command == "epi graph" else "md"
    renders = RENDERS[command]
    if args.format not in renders:
        problem = f"{command} cannot render {args.format} (it renders {', '.join(renders)})"
        print(f"configuration error: {problem}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except WordParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except census.ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (epim.AuditFailure, census.NonIntegralFormula) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    # a closed stdout ends the process quietly, as it ends cat
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
