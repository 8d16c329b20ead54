"""Command-line front end.

Subcommands: invariants, census, epi (targets/check/minimal/graph),
table1, identities.  Words are written as comma-separated signed
integers (``2,-4,4,-2``); fractions print as ``p/q`` unless --decimal
asks for a 12-digit rendering.

Exit codes: 0 success, 2 verification mismatch, 3 parse or usage error,
4 resource/budget bound.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import census, classify, epim
from .contfrac import (
    WordParseError,
    eval_word,
    format_fraction,
    format_word,
    parse_word,
)
from .knot import display_name, is_torus_two_strand, knot_from_word

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4

FORMATS = ("json", "csv", "md", "dot")


@dataclass
class Config:
    enumeration_ceiling: int = census.DEFAULT_ENUM_CEILING
    search_budget: int = epim.DEFAULT_SEARCH_BUDGET
    output_format: str = "md"
    decimal: bool = False

    def validate(self) -> None:
        if self.enumeration_ceiling < 3:
            raise ValueError("enumeration_ceiling must be >= 3")
        if self.search_budget < 1:
            raise ValueError("search_budget must be positive")
        if self.output_format not in FORMATS:
            raise ValueError(f"output_format must be one of {FORMATS}")

    def budget(self) -> epim.SearchBudget:
        return epim.SearchBudget(max_nodes=self.search_budget)


def load_config(path: str | None, env=os.environ) -> Config:
    config = Config()
    if path:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key in ("enumeration_ceiling", "search_budget"):
                    setattr(config, key, int(value))
                elif key == "output_format":
                    config.output_format = value
                else:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if "BRIDGEKIT_CEILING" in env:
        config.enumeration_ceiling = int(env["BRIDGEKIT_CEILING"])
    return config


def _fraction_formatter(config: Config):
    if not config.decimal:
        return format_fraction

    def fmt(value: Fraction) -> str:
        with decimal.localcontext() as ctx:
            ctx.prec = 12
            return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))

    return fmt


def _parse_range(text: str) -> range:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 3 or hi < lo:
        raise ValueError(f"bad crossing range {text!r}")
    return range(lo, hi + 1)


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


def cmd_invariants(config: Config, args) -> int:
    word = parse_word(args.word)
    knot = knot_from_word(word)
    torus = is_torus_two_strand(knot)
    fmt = _fraction_formatter(config)
    fields = [
        ("word", format_word(word)),
        ("canonical", format_word(knot.canon)),
        ("value", fmt(eval_word(word))),
        ("name", display_name(knot)),
        ("crossing", knot.crossing),
        ("braid", knot.braid),
        ("genus", knot.genus),
        ("sign changes", knot.signchg),
        ("torus", f"T({torus},2)" if torus else "-"),
    ]
    if config.output_format == "json":
        print(json.dumps(dict(fields), indent=2))
    else:
        for key, value in fields:
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_census(config: Config, args) -> int:
    crossings = _parse_range(args.range)
    if args.formulas_only and args.verify:
        raise ValueError(
            "--verify compares enumeration with the closed forms, "
            "and --formulas-only skips the enumeration"
        )
    if args.formulas_only:
        rows = [census.closed_row(c) for c in crossings]
    else:
        rows = [census.brute_counts(c, ceiling=config.enumeration_ceiling) for c in crossings]
    mirror = args.up_to_mirror
    if config.output_format == "json":
        print(census.rows_to_json(rows, up_to_mirror=mirror))
    else:
        fmt = _fraction_formatter(config)
        print(
            format_table(
                census.MIRROR_COLUMNS if mirror else census.COLUMNS,
                [census.row_cells(row, fmt, up_to_mirror=mirror) for row in rows],
                config.output_format,
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


def cmd_epi(config: Config, args) -> int:
    budget = config.budget()
    if args.epi_command == "targets":
        knot = knot_from_word(parse_word(args.word))
        witnesses = epim.epi_targets(knot, budget)
        if config.output_format == "json":
            print(json.dumps([w.to_json() for w in witnesses], indent=2))
        else:
            names = sorted({display_name(w.small) for w in witnesses})
            summary = " and ".join(names) if names else "none"
            _print_witnesses(witnesses, f"targets of {format_word(knot.canon)}: {summary}")
        return EXIT_OK
    if args.epi_command == "check":
        big = knot_from_word(parse_word(args.big))
        small = knot_from_word(parse_word(args.small))
        witness = epim.admits_epi(big, small, budget)
        if witness is None:
            print(f"no epimorphism {format_word(big.canon)} -> {format_word(small.canon)}")
        else:
            _print_witnesses([witness], "epimorphism exists:")
        return EXIT_OK
    if args.epi_command == "minimal":
        knot = knot_from_word(parse_word(args.word))
        witnesses = epim.epi_targets(knot, budget)
        if not witnesses:
            print(f"{format_word(knot.canon)}: minimal")
        else:
            names = sorted({display_name(w.small) for w in witnesses})
            print(f"{format_word(knot.canon)}: not minimal (onto {' and '.join(names)})")
        return EXIT_OK
    if args.epi_command == "graph":
        if args.max_c > config.enumeration_ceiling:
            raise census.ResourceBound(
                f"--max-c {args.max_c} exceeds ceiling {config.enumeration_ceiling}"
            )
        graph = epim.epi_graph(args.max_c, budget)
        if config.output_format == "json":
            print(epim.graph_to_json(graph))
        else:
            print(epim.graph_to_dot(graph))
        return EXIT_OK
    raise AssertionError(f"unhandled epi subcommand {args.epi_command}")


def cmd_table1(config: Config, args) -> int:
    rows = classify.table1(
        args.max_c, up_to_mirror=not args.chiral, budget=config.budget()
    )
    if config.output_format == "json":
        print(classify.rows_to_json(rows))
    else:
        cells = [classify.row_cells(row) for row in rows]
        print(format_table(classify.COLUMNS, cells, config.output_format))
    if args.chiral:
        return EXIT_OK
    diff = classify.table1_diff(rows, c_max=args.max_c)
    if diff:
        for line in diff:
            print(f"table1 diff: {line}", file=sys.stderr)
        return EXIT_MISMATCH
    # keep stdout machine-clean for structured formats
    stream = sys.stdout if config.output_format == "md" else sys.stderr
    print(f"diff vs reference (c <= {min(args.max_c, 15)}): empty", file=stream)
    return EXIT_OK


def cmd_identities(config: Config, args) -> int:
    checks = census.verify_identities(args.n_max)
    failed = False
    for check in checks:
        status = "pass" if check.passed else f"FAIL at {check.counterexample}"
        print(f"{check.name} (params up to {check.max_param}): {status}")
        if not check.passed:
            failed = True
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _shared_flags(default) -> argparse.ArgumentParser:
    """Flags accepted before and after the subcommand.  The copies after it
    default to SUPPRESS, so that a flag given only before keeps its value."""
    shared = argparse.ArgumentParser(add_help=False, argument_default=default)
    shared.add_argument("--config", help="key=value config file")
    shared.add_argument("--format", choices=FORMATS, help="output format")
    shared.add_argument("--ceiling", type=int, help="enumeration ceiling override")
    shared.add_argument("--budget", type=int, help="search node budget override")
    shared.add_argument(
        "--decimal", action="store_true", help="render fractions with 12 significant digits"
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgekit",
        description="Exact two-bridge knot combinatorics: invariants, census, epimorphisms.",
        parents=[_shared_flags(None)],
    )
    after = [_shared_flags(argparse.SUPPRESS)]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariants of one word", parents=after)
    p.add_argument("word")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("census", help="census table for a crossing range", parents=after)
    p.add_argument("range", help="crossing number or range, e.g. 12 or 3..15")
    p.add_argument("--verify", action="store_true", help="check enumeration against formulas")
    p.add_argument("--formulas-only", action="store_true", help="skip enumeration")
    p.add_argument("--up-to-mirror", action="store_true", help="only the mirror-quotient columns")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("epi", help="epimorphism queries", parents=after)
    epi_sub = p.add_subparsers(dest="epi_command", required=True)
    q = epi_sub.add_parser("targets", help="all epimorphic images of a knot", parents=after)
    q.add_argument("word")
    q = epi_sub.add_parser("check", help="does the first knot map onto the second", parents=after)
    q.add_argument("big")
    q.add_argument("small")
    q = epi_sub.add_parser("minimal", help="decide minimality by search", parents=after)
    q.add_argument("word")
    q = epi_sub.add_parser("graph", help="epimorphism digraph up to a crossing bound", parents=after)
    q.add_argument("--max-c", type=int, required=True)
    p.set_defaults(func=cmd_epi)

    p = sub.add_parser("table1", help="non-minimal knots with braid index <= 4", parents=after)
    p.add_argument("--max-c", type=int, default=15)
    p.add_argument("--chiral", action="store_true", help="one row per chiral knot, no diff")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("identities", help="verify the binomial-sum identities", parents=after)
    bound = f"largest parameter checked, at most {census.IDENTITIES_N_MAX} (exit 4 above)"
    p.add_argument("--n-max", type=int, default=200, help=bound)
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means a mismatch here
        raise SystemExit(EXIT_PARSE if exc.code == 2 else exc.code) from None
    try:
        config = load_config(args.config)
        if args.format:
            config.output_format = args.format
        elif args.command == "epi" and getattr(args, "epi_command", None) == "graph":
            config.output_format = "dot"
        if args.ceiling is not None:
            config.enumeration_ceiling = args.ceiling
        if args.budget is not None:
            config.search_budget = args.budget
        config.decimal = args.decimal
        config.validate()
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(config, args)
    except WordParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except census.ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except epim.BudgetExceeded as exc:
        print(f"search budget exceeded: {exc} (partial results: {len(exc.partial)})", file=sys.stderr)
        return EXIT_RESOURCE
    except (epim.AuditFailure, epim.MergeCancellation, census.NonIntegralFormula) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
