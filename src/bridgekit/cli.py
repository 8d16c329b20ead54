"""Command-line front end.

Subcommands: invariants, census, epi (targets/check/minimal/graph),
table1, identities.  argparse dispatches each leaf subcommand to its
handler, and the leaf's parser declares the formats it renders, default
first; ``main`` refuses any other --format (exit 3) before the handler
runs.  Words are written as comma-separated signed integers
(``2,-4,4,-2``), and one may start with a minus sign (``-2,2``);
fractions print as ``p/q`` unless --decimal asks for a 12-digit rendering.
The library modules take and return values; this module alone reads words
from argv and writes text to stdout.  The census and Table 1 rows are
rendered from the fields of ``census.CensusRow`` and ``classify.Table1Row``:
md and csv cells through ``format_table``, json records through
``format_json``.  ``witness_writer`` writes the ORS witnesses of ``epi
targets``, and ``write_dot`` and ``write_json`` stream ``epim.epi_graph`` as
it is enumerated.  Every json document is ``json.dumps(..., indent=2)``,
byte for byte.

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
on stderr.  ``_verdict`` prints each of these three verdicts.  A failed
audit or a closed form that is not an integer prints nothing.

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
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence, TextIO

from . import census, classify, epim
from .contfrac import Word, eval_word, format_word
from .knot import (
    KNOT_NAMES,
    KnotClass,
    crossing_number,
    display_name,
    is_torus_two_strand,
    knot_from_word,
    mirror_canonical_word,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4

# The most significant digits an entry of a word may have.  A word of at most
# epim.WORD_MAX entries then has a crossing number of at most 4,005 digits, so
# every integer invariants prints stays under the 4,300 digits int converts to
# str; a value's numerator and denominator are bounded apart.
ENTRY_DIGITS_MAX = 4_000

# The most characters of a malformed word entry that a parse error repeats.
TOKEN_SHOWN = 40

# Every --format; each leaf subcommand's parser declares those it renders.
FORMATS = ("json", "csv", "md", "dot")


def _decimal(value: Fraction) -> str:
    """``value`` to 12 significant digits, the --decimal rendering."""
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def format_json(value, margin: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, with ``margin`` after each newline.

    Writes dicts with str keys, lists, str, int and None, the types the CLI
    prints; any other type raises TypeError, bool, float and tuple included,
    where json.dumps would write them.  json.dumps with an indent runs json's
    pure-Python encoder before Python 3.13, and takes about twice as long.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = margin + "  "
    # str and int items are written here, every other item by a call
    if kind is list:
        items = [
            encode_basestring_ascii(item) if type(item) is str
            else int.__repr__(item) if type(item) is int
            else format_json(item, inner)
            for item in value
        ]
        brackets = "[]"
    elif kind is dict:  # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [
            f"{encode_basestring_ascii(key)}: {encode_basestring_ascii(item)}" if type(item) is str
            else f"{encode_basestring_ascii(key)}: {int.__repr__(item)}" if type(item) is int
            else f"{encode_basestring_ascii(key)}: {format_json(item, inner)}"
            for key, item in value.items()
        ]
        brackets = "{}"
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}{brackets[1]}"


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


# One witness as ``json.dumps(..., indent=2)`` writes its fields, with each
# knot's object and the entries of eps and cvec left to fill in.
_WITNESS = (
    '{{\n  "big": {},\n  "small": {},\n  "params": {{\n    "target": "{}",\n    "r": {},\n'
    '    "eps": [\n      {}\n    ],\n    "cvec": [\n      {}\n    ]\n  }},\n'
    '  "audit": {{\n    "term_copies": {},\n    "term_cbudget": {},\n    "term_zero": {},\n'
    '    "term_signs": {},\n    "slack": {}\n  }}\n}}'
)
_KNOT = '{{\n    "word": "{}",\n    "crossing": {},\n    "braid": {},\n    "genus": {}\n  }}'


def witness_writer(margin: str = "") -> Callable[[Sequence[epim.EpiWitness]], str]:
    """A function writing a list of witnesses as ``json.dumps`` writes it.

    It returns ``json.dumps(..., indent=2)`` of the witnesses' fields
    (``witness_json`` in ``tests/_oracles.py``), byte for byte, with
    ``margin`` after each newline.  Each witness fills one template, and
    each knot's object text is built once and kept for every later list
    the same writer writes: one writer serves one document.  Nothing in a
    witness needs escaping.
    """
    newline = "\n" + margin + "  "
    witness = _WITNESS.replace("\n", newline).format
    knot_object = _KNOT.replace("\n", newline).format
    entries = f",{newline}      ".join
    knots: dict[KnotClass, str] = {}

    def knot(k: KnotClass) -> str:
        text = knots.get(k)
        if text is None:
            text = knots[k] = knot_object(format_word(k.canon), k.crossing, k.braid, k.genus)
        return text

    def write(witnesses: Sequence[epim.EpiWitness]) -> str:
        if not witnesses:
            return "[]"
        items = [
            witness(
                knot(big), knot(small), format_word(params.target), params.r,
                entries(map(str, params.eps)), entries(map(str, params.cvec)), *audit,
            )
            for big, small, params, audit in witnesses
        ]
        return f"[{newline}" + f",{newline}".join(items) + f"\n{margin}]"

    return write


# the display name of each named node, by its text, and the largest crossing
# number in KNOT_NAMES; no larger node has a name
_NAMES_BY_TEXT = {format_word(word): name for word, name in KNOT_NAMES.items()}
_NAMED_C_MAX = max(map(crossing_number, KNOT_NAMES))


def write_dot(max_crossing: int, out: TextIO) -> None:
    """Write ``epim.epi_graph(max_crossing)`` as dot: the nodes a chunk at a time,
    then the edges."""
    nodes = epim.epi_graph(max_crossing)
    out.write("digraph epimorphisms {\n")
    edges = []
    for c, _, _, texts, node_edges in nodes:
        labels = texts if c > _NAMED_C_MAX else [
            f"{_NAMES_BY_TEXT[text]}\\n{text}" if text in _NAMES_BY_TEXT else text for text in texts
        ]
        out.write("".join(map('  "{}" [label="{}"];\n'.format, texts, labels)))
        edges += node_edges
    for big, small, witnesses in edges:
        first = witnesses[0].params
        label = f"r={first.r} c={list(first.cvec)} x{len(witnesses)}"
        out.write(
            f'  "{format_word(big.canon)}" -> "{format_word(small.canon)}" [label="{label}"];\n'
        )
    out.write("}\n")


def write_json(max_crossing: int, out: TextIO) -> None:
    """Write ``epim.epi_graph(max_crossing)`` as ``json.dumps(..., indent=2)`` would,
    a chunk at a time.

    A chunk's nodes share crossing number, braid index (c - ell) / 2 + 1
    and genus m, so one template writes them all; another writes each edge,
    and one ``witness_writer`` its witnesses.  At --max-c 22 there are
    699,732 nodes and 11,824 edges with 15,032 witnesses, and no general
    writer writes them as fast: the edges take 0.09 s of a 1.34 s command,
    and ``format_json`` would take 0.20 s.
    """
    nodes = epim.epi_graph(max_crossing)
    out.write(f'{{\n  "max_crossing": {max_crossing},\n  "nodes": [')
    edges = []
    comma = "\n"
    for c, m, ell, texts, node_edges in nodes:
        node = (  # nothing in a node needs escaping
            '    {{\n      "word": "{}",\n      "crossing": %d,\n      "braid": %d,\n'
            '      "genus": %d,\n      "name": "{}"\n    }}' % (c, (c - ell) // 2 + 1, m)
        )
        names = texts if c > _NAMED_C_MAX else [_NAMES_BY_TEXT.get(t, t) for t in texts]
        out.write(comma + ",\n".join(map(node.format, texts, names)))
        comma = ",\n"
        edges += node_edges
    out.write('\n  ],\n  "edges": [')
    edge = '\n    {\n      "source": "%s",\n      "target": "%s",\n      "witnesses": %s\n    }'
    write_witnesses = witness_writer("      ")
    comma = ""
    for big, small, witnesses in edges:
        text = edge % (format_word(big.canon), format_word(small.canon), write_witnesses(witnesses))
        out.write(comma + text)
        comma = ","
    out.write("\n  ]\n}\n" if edges else "]\n}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _unprintable(digits: int) -> census.ResourceBound:
    return census.ResourceBound(
        f"the value's numerator or denominator has more than {digits} digits;"
        " --decimal prints it"
    )


def _verdict(problems: list[str], prefix: str, agreed: str | None = None, stream=None) -> int:
    """EXIT_MISMATCH after naming each problem on stderr after ``prefix``; with
    none, EXIT_OK after printing ``agreed``, if given, on ``stream`` or stdout."""
    for problem in problems:
        print(f"{prefix}: {problem}", file=sys.stderr)
    if agreed and not problems:
        print(agreed, file=stream)  # print looks sys.stdout up for None at each call
    return EXIT_MISMATCH if problems else EXIT_OK


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
        text = (_decimal if args.decimal else str)(value)  # str: p/q, or p for an integer
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
    rows = [census.brute_counts(c) for c in crossings] if args.verify else None
    fmt = _decimal if args.decimal else str
    if args.up_to_mirror:  # only c and the three starred columns, and only they are computed
        stars = [(r.c, r.tk_star, r.ts_star, r.avg_braid_star) for r in rows] if args.verify else [
            (c, census.closed_tk_star(c), census.closed_ts_star(c), census.closed_avg_braid_star(c))
            for c in crossings
        ]
        if args.format == "json":
            keys = ("c", "tk_star", "ts_star", "avg_braid_star")
            print(format_json([dict(zip(keys, (c, tk, ts, fmt(avg)))) for c, tk, ts, avg in stars]))
        else:
            cells = [(str(c), str(tk), str(ts), fmt(avg)) for c, tk, ts, avg in stars]
            print(format_table(("c", "TK*", "TS*", "avg braid*"), cells, args.format))
    else:
        rows = rows or [census.closed_row(c) for c in crossings]
        if args.format == "json":
            records = [
                {  # CensusRow's fields, in order
                    **r._asdict(),
                    "avg_braid": fmt(r.avg_braid),
                    "avg_braid_star": fmt(r.avg_braid_star),
                    "avg_genus": fmt(r.avg_genus),
                    "by_ell": {str(ell): count for _, ell, count in r.by_ell},
                }
                for r in rows
            ]
            print(format_json(records))
        else:
            columns = ("c", "TK", "TS", "avg braid", "TK*", "TS*", "avg braid*")
            cells = [
                (
                    str(r.c), str(r.tk), str(r.ts), fmt(r.avg_braid),
                    str(r.tk_star), str(r.ts_star), fmt(r.avg_braid_star),
                )
                for r in rows
            ]
            print(format_table(columns, cells, args.format))
    if not args.verify:
        return EXIT_OK
    problems = [problem for row in rows for problem in census.verify_row(row.c, row)]
    agreed = f"verify: brute force and closed forms agree for c in {args.range}"
    return _verdict(problems, "verify mismatch", agreed)


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


class WordParseError(ValueError):
    """A word argument has an empty, malformed or zero entry; an entry of more
    than TOKEN_SHOWN characters is named by its first TOKEN_SHOWN and its length."""

    def __init__(self, message: str, token: str, position: int):
        more = f"... ({len(token)} characters)" if len(token) > TOKEN_SHOWN else ""
        super().__init__(f"{message}: token {token[:TOKEN_SHOWN]!r}{more} at position {position}")


def _bounded_word(text: str, command: str) -> Word:
    """The word argument of ``command``, ``n1,n2,...`` with whitespace around
    commas ignored, split once and read entry by entry.

    It is refused above epim.WORD_MAX entries, and with an entry of more than
    ENTRY_DIGITS_MAX digits, before any entry is read (ResourceBound).  An
    entry's digits are counted as ``_bounded`` counts them, after its sign and
    without its underscores and leading zeros.  An empty, malformed or zero
    entry raises WordParseError.
    """
    n = text.count(",") + 1
    if n > epim.WORD_MAX:
        raise census.ResourceBound(f"word length {n} exceeds the {command} bound {epim.WORD_MAX}")
    entries = text.split(",")
    if max(map(len, entries)) > ENTRY_DIGITS_MAX:  # only a longer entry has more digits
        entries = [_bounded_entry(e, position, command) for position, e in enumerate(entries, 1)]
    word = []
    for position, raw in enumerate(entries, start=1):
        token = raw.strip()
        if not token:
            raise WordParseError("empty entry", raw, position)
        try:
            value = int(token)
        except ValueError:
            raise WordParseError("not an integer", token, position) from None
        if value == 0:
            raise WordParseError("zero entry not allowed", token, position)
        word.append(value)
    return tuple(word)


def _bounded_entry(entry: str, position: int, command: str) -> str:
    """``entry`` as its sign and significant digits if int() reads it as a number
    and it is longer than ENTRY_DIGITS_MAX; ResourceBound if it has more than
    ENTRY_DIGITS_MAX digits, not counting underscores and leading zeros."""
    body = entry.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    number = body[len(sign):]
    digits = number.replace("_", "")
    # int() reads underscores only between digits: not leading, trailing or doubled
    if (
        len(entry) <= ENTRY_DIGITS_MAX
        or not digits.isdecimal()
        or "_" in (number[0], number[-1])
        or "__" in number
    ):
        return entry  # short, or not a number, which _bounded_word reports
    significant = _significant(digits)
    if len(significant) > ENTRY_DIGITS_MAX:
        raise census.ResourceBound(
            f"word entry {position} has {len(significant)} digits, above the {command}"
            f" bound {ENTRY_DIGITS_MAX}"
        )
    return sign + (significant or "0")


def _epi_knot(text: str):
    return knot_from_word(_bounded_word(text, "epi"))


def _images(witnesses) -> str:
    """The names of the witnesses' images, sorted and joined by "and"."""
    return " and ".join(sorted({display_name(w.small) for w in witnesses}))


def cmd_epi_targets(args) -> int:
    knot = _epi_knot(args.word)
    witnesses = epim.epi_targets(knot)
    if args.format == "json":
        print(witness_writer()(witnesses))
    else:
        summary = _images(witnesses) or "none"
        _print_witnesses(witnesses, f"targets of {format_word(knot.canon)}: {summary}")
    return EXIT_OK


def cmd_epi_check(args) -> int:
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


def cmd_epi_minimal(args) -> int:
    knot = _epi_knot(args.word)
    witnesses = epim.epi_targets(knot)
    if not witnesses:
        print(f"{format_word(knot.canon)}: minimal")
    else:
        print(f"{format_word(knot.canon)}: not minimal (onto {_images(witnesses)})")
    return EXIT_OK


def cmd_epi_graph(args) -> int:
    max_c = _bounded("--max-c", [args.max_c], 3, epim.EPI_GRAPH_C_MAX, "epi graph")[0]
    write = write_json if args.format == "json" else write_dot
    write(max_c, sys.stdout)
    return EXIT_OK


def cmd_table1(args) -> int:
    max_c = _bounded("--max-c", [args.max_c], 3, classify.TABLE1_C_MAX, "table1")[0]
    rows = classify.table1(max_c, up_to_mirror=not args.chiral)
    if args.format == "json":
        records = [
            {
                "braid": row.braid,
                "type": row.kind,
                "c": row.crossing,
                "word": format_word(row.word),
                "onto": list(row.images),
                "matches": [  # NonminimalType's fields, in order
                    {**m._asdict(), "kind": m.label, "word": format_word(m.word)}
                    for m in row.matches
                ],
            }
            for row in rows
        ]
        print(format_json(records))
    else:
        columns = ("braid", "type", "c", "even continued fraction", "onto")
        cells = [
            (str(braid), kind, str(c), str(list(word)), " and ".join(images))
            for braid, kind, c, word, images, _ in rows
        ]
        print(format_table(columns, cells, args.format))
    if args.chiral:
        return EXIT_OK
    diff = classify.table1_diff(rows, c_max=max_c)
    agreed = f"diff vs reference (c <= {min(max_c, 15)}): empty"
    # keep stdout machine-clean for structured formats
    return _verdict(diff, "table1 diff", agreed, None if args.format == "md" else sys.stderr)


def cmd_identities(args) -> int:
    n_max = _bounded("--n-max", [args.n_max], 1, census.IDENTITIES_N_MAX, "identities")[0]
    checks = census.verify_identities(n_max)
    for check in checks:
        status = "pass" if check.passed else f"FAIL at {check.counterexample}"
        print(f"{check.name} (params up to {check.max_param}): {status}")
    failed = [f"{c.name} fails at {c.counterexample}" for c in checks if not c.passed]
    return _verdict(failed, "verify mismatch")


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
    p.set_defaults(func=cmd_invariants, formats=("md", "json"))

    p = sub.add_parser("census", help="census table for a crossing range", parents=after)
    bound = f"c from 3 to {census.FORMULAS_C_MAX} (exit 3 below, 4 above)"
    p.add_argument("range", help=f"crossing number or range, e.g. 12 or 3..15; {bound}")
    p.add_argument(
        "--verify",
        action="store_true",
        help="print the counted rows and check them against the closed forms",
    )
    p.add_argument("--up-to-mirror", action="store_true", help="only the mirror-quotient columns")
    p.set_defaults(func=cmd_census, formats=("md", "json", "csv"))

    bound = f"Words have at most {epim.WORD_MAX} {digits}"
    p = sub.add_parser("epi", help="epimorphism queries", description=bound, parents=after)
    epi_sub = p.add_subparsers(dest="epi_command", required=True)
    q = epi_sub.add_parser("targets", help="all epimorphic images of a knot", parents=after)
    q.add_argument("word")
    q.set_defaults(func=cmd_epi_targets, formats=("md", "json"))
    q = epi_sub.add_parser("check", help="does the first knot map onto the second", parents=after)
    q.add_argument("big")
    q.add_argument("small")
    q.set_defaults(func=cmd_epi_check, formats=("md",))
    q = epi_sub.add_parser("minimal", help="decide minimality by search", parents=after)
    q.add_argument("word")
    q.set_defaults(func=cmd_epi_minimal, formats=("md",))
    q = epi_sub.add_parser("graph", help="epimorphism digraph up to a crossing bound", parents=after)
    bound = f"largest crossing number, 3 to {epim.EPI_GRAPH_C_MAX} (exit 3 below, 4 above)"
    q.add_argument("--max-c", required=True, help=bound)
    q.set_defaults(func=cmd_epi_graph, formats=("dot", "json"))

    p = sub.add_parser("table1", help="non-minimal knots with braid index <= 4", parents=after)
    bound = f"largest crossing number, 3 to {classify.TABLE1_C_MAX} (exit 3 below, 4 above)"
    p.add_argument("--max-c", default="15", help=bound)
    p.add_argument("--chiral", action="store_true", help="one row per chiral knot, no diff")
    p.set_defaults(func=cmd_table1, formats=("md", "json", "csv"))

    p = sub.add_parser("identities", help="verify the binomial-sum identities", parents=after)
    bound = f"largest parameter, 1 to {census.IDENTITIES_N_MAX} (exit 3 below, 4 above)"
    p.add_argument("--n-max", default="200", help=bound)
    p.set_defaults(func=cmd_identities, formats=("md",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means a mismatch here
        raise SystemExit(EXIT_PARSE if exc.code == 2 else exc.code) from None
    args.format = args.format or args.formats[0]
    if args.format not in args.formats:
        command = f"epi {args.epi_command}" if args.command == "epi" else args.command
        renders = ", ".join(f for f in FORMATS if f in args.formats)
        problem = f"{command} cannot render {args.format} (it renders {renders})"
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
