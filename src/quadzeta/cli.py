"""Command-line surface.

Subcommands: lvalue, zeta, index, scan, report, survey, stats.
Exit codes: 0 success, 2 usage or validation error (an allocation too
large for memory, a value too large for a C long and a scan of more than
MAX_BLOCKS blocks included), 3 incomplete input or an incomplete scan (a
scan worker died; --resume completes the directory), 4 failed arithmetic
check (a Siegel gate mismatch, or a Table 3 divisor sum of 0).

The library owns every input rule (discriminants, primes, exponent ranges,
which parameters a scan kind takes); this module parses flags, checks only
the flag combinations argparse cannot express, and maps the library's
exceptions to exit codes.  A scan plans with `irregularity.scan_plan`, the
plan the library's scan functions run, with the flags as given, and hands
it to `shards.write_scan`, which owns the scan directory: shard names, the
manifest and --resume.  Reports and surveys fold that directory: each
verified shard of `shards.iter_shards` is reduced to a `stats.IndexTally`
(and, for a survey, to its deepest valuations and its pairs) and dropped,
so no column of the whole scan is ever held; only the shard bytes, all
read and digested before the first parse, grow with the scan.  They do
not touch the compute modules again (the residue histogram is the one
exception, since shards do not carry residues).  All text output is
ASCII; table renderers round with the banker's rounding of format(),
while JSON output carries full-precision numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator

import numpy as np

from . import irregularity, lvalues, shards, stats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_CHECK = 4


class CommandError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# value commands


def cmd_lvalue(args) -> int:
    if args.mod is not None:
        print(lvalues.l_chi_mod(args.disc, args.m, args.mod))
    else:
        print(lvalues.l_chi_exact(args.disc, args.m))
    return EXIT_OK


def cmd_zeta(args) -> int:
    if args.mod is not None:
        raise CommandError("field zeta values have no modular route (the Riemann factor "
                           "is never p-integral at the top exponent)")
    print(lvalues.zeta_d_exact(args.disc, args.m))
    return EXIT_OK


def cmd_index(args) -> int:
    if args.kind == "classical":
        if args.disc is not None:
            raise CommandError("--kind classical takes no --disc")
        rec = irregularity.classical_irregularity_index(args.p)
    elif args.disc is None:
        raise CommandError(f"--kind {args.kind} needs --disc")
    elif args.kind == "chi":
        rec = irregularity.chi_irregularity_index(args.disc, args.p, strict=args.strict)
    else:
        rec = irregularity.d_irregularity_index(args.disc, args.p, strict=args.strict)
    disc = rec.discriminant if rec.discriminant is not None else "-"
    print(f"D={disc} p={rec.prime} delta={rec.delta} kind={rec.kind} "
          f"index={rec.index} hits={shards.format_hits(rec.hits)}")
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.chi2 is not None:
        if args.df is None:
            raise CommandError("--chi2 needs --df")
        print(f"{stats.significance(args.chi2, args.df):.6f}")
    elif args.limit_fraction is not None:
        print(f"{stats.limit_fraction(args.limit_fraction):.6f}")
    else:
        raise CommandError("nothing to compute: pass --chi2/--df or --limit-fraction")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CommandError(f"bad prime list {text!r}") from exc


def cmd_scan(args) -> int:
    from concurrent.futures.process import BrokenProcessPool  # scans only: start-up skips it
    primes = None if args.primes is None else _parse_primes(args.primes)
    plan = irregularity.scan_plan(args.kind, disc=args.disc, pmax=args.pmax, dmax=args.dmax,
                                  primes=primes)  # a rejected scan leaves no directory behind
    try:
        total = shards.write_scan(plan, Path(args.out), args.workers, args.resume)
    except BrokenProcessPool as exc:
        raise CommandError(f"a scan worker died, so {args.out} is incomplete; "
                           "--resume completes it", EXIT_INCOMPLETE) from exc
    print(f"scan {args.kind} complete: {len(plan.blocks)} shards, {total} records")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _fmt_count(x) -> str:
    return f"{float(x):.2f}"


def _fmt_fraction(x, decimals: int = 6) -> str:
    s = f"{float(x):.{decimals}f}"
    return s[1:] if s.startswith("0.") else s


def _fmt_average(x, decimals: int = 2) -> str:
    x = float(x)
    if decimals == 2 and abs(x) < 0.005:
        return f"{x:.3f}"
    return f"{x:.{decimals}f}"


def _shards(args) -> Iterator[irregularity.IndexColumns]:
    """The columns of each verified shard of --input, one shard at a time."""
    if args.input is None:
        raise CommandError(f"--table {args.table} needs --input")
    try:
        return shards.iter_shards(Path(args.input), allow_partial=args.allow_partial)
    except shards.IncompleteScanError as exc:
        raise CommandError(str(exc), EXIT_INCOMPLETE) from exc


def _table_json(table: stats.DistributionTable) -> dict:
    return {
        "population": table.population,
        "categories": [
            {"r": i, "observed": float(o), "expected": float(e)}
            for i, (o, e) in enumerate(zip(table.observed, table.expected))
        ],
        "chi_squared": table.chi_squared,
        "df": table.df,
        "significance": table.significance,
    }


def _emit_distribution(
    table: stats.DistributionTable, fmt: str, averages=None, avg_decimals: int = 2
) -> None:
    if fmt == "json":
        payload = _table_json(table)
        if averages is not None:
            payload["averages"] = _table_json(averages)
        print(json.dumps(payload, indent=2))
        return
    if averages is None:  # each column's CSV name, text name, text format and values
        columns = [("observed", "number", int, table.observed),
                   ("expected", "predicted number", _fmt_count, table.expected),
                   ("fraction", "predicted fraction", _fmt_fraction, table.fractions)]
        footers = [("", table, 2)]
    else:
        average = lambda x: _fmt_average(x, avg_decimals)
        columns = [("total", "total", int, table.observed),
                   ("expected_total", "predicted total", _fmt_count, table.expected),
                   ("average", "average", average, averages.observed),
                   ("expected_average", "predicted average", average, averages.expected),
                   ("fraction", "fraction", _fmt_fraction, table.fractions)]
        footers = [("totals ", table, 1), ("averages ", averages, 3)]
    text = fmt == "text"
    sep = " & " if text else ","
    print(sep.join(["r", *(text_name if text else name for name, text_name, _, _ in columns)]))
    for i in range(len(table.observed)):
        print(sep.join([str(i), *(str(form(v[i]) if text else float(v[i]))
                                  for _, _, form, v in columns)]))
    for label, fitted, decimals in footers if text else ():
        print(label + _chi_squared(fitted, decimals))


def _chi_squared(fitted, decimals: int) -> str:
    """The text footer of a chi-squared fit: a DistributionTable or a RatioReport."""
    return (f"chi-squared {fitted.chi_squared:.{decimals}f} (df {fitted.df}), "
            f"significance {_fmt_fraction(fitted.significance, 3)}")


# the tables read from shards; the histogram is computed from --disc and --mod
_SHARD_TABLES = ("1", "2", "3", "residues", "ratios")

# report flags that apply to some tables only: (flag, those tables)
_TABLE_FLAGS = (
    ("--pmax-cutoff", ("1",)),
    ("--classes-mod", ("residues",)),
    ("--bins", ("ratios",)),
    ("--disc", ("histogram",)),
    ("--mod", ("histogram",)),
    ("--input", _SHARD_TABLES),
    ("--allow-partial", _SHARD_TABLES),
)


def cmd_report(args) -> int:
    for flag, tables in _TABLE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and args.table not in tables:
            raise CommandError(f"--table {args.table} takes no {flag}")
    fmt = args.format
    if args.table in _SHARD_TABLES:  # a fold: each shard is tallied and dropped
        parts = _shards(args)
        if args.pmax_cutoff is not None:
            parts = (part.take(np.flatnonzero(part.prime < args.pmax_cutoff)) for part in parts)
        tally = sum(map(stats.IndexTally.of, parts), stats.IndexTally())
    if args.table == "1":
        table = stats.build_distribution(tally, prediction="limit")
        _emit_distribution(table, fmt)
    elif args.table == "2":
        report = stats.aggregate_across_discriminants(tally, prediction="limit")
        _emit_distribution(report.totals, fmt, averages=report.averages)
    elif args.table == "3":
        report = stats.aggregate_across_discriminants(tally, prediction="exact")
        _emit_distribution(report.totals, fmt, averages=report.averages, avg_decimals=6)
    elif args.table == "residues":
        if not len(tally):
            raise CommandError(f"residue-class report: no records in {args.input}")
        if tally.discriminants != 1:
            raise CommandError("residue-class report needs a fixed-discriminant scan")
        primes = list(tally.by_prime())
        irregular = sorted({p for _, p in tally.hits})
        modulus = 4 if args.classes_mod is None else args.classes_mod
        table = stats.residue_class_report(irregular, primes, modulus)
        _emit_distribution(table, fmt)
    elif args.table == "ratios":
        report = stats.ratio_uniformity_report(tally, bins=10 if args.bins is None else args.bins)
        if fmt == "json":
            print(json.dumps(dataclasses.asdict(report), indent=2))
        elif fmt == "csv":
            print("bin,count")
            for i, c in enumerate(report.histogram):
                print(f"{i},{c}")
        else:
            print(f"{report.count} ratios in {report.bins} bins: {list(report.histogram)}")
            print(f"{_chi_squared(report, 3)}, KS {report.ks_statistic:.4f}")
    elif args.table == "histogram":
        # computed directly: index shards do not carry residues
        if args.disc is None or args.mod is None:
            raise CommandError("histogram report needs --disc and --mod")
        table = stats.residue_histogram(lvalues.l_chi_residues(args.disc, args.mod), args.mod)
        _emit_distribution(table, fmt)
    return EXIT_OK


def cmd_survey(args) -> int:
    """A fold like the reports': each shard adds to a tally and a survey, and
    --pairs-out gets its pairs, in a file renamed into place only at the end."""
    parts = _shards(args)
    tally = stats.IndexTally()
    # the survey of no records, (0, []), once --primes is checked
    survey = irregularity.high_valuation_survey(irregularity.IndexColumns.from_records([]),
                                                args.primes_single)
    with shards.pairs_csv(Path(args.pairs_out)) if args.pairs_out else nullcontext() as write:
        for part in parts:
            if (part.valuation < 1).any():
                raise CommandError("shards lack refined valuations")
            tally += stats.IndexTally.of(part)
            survey = irregularity.merge_surveys(
                survey, irregularity.high_valuation_survey(part, args.primes_single))
            if write:
                write(part)
    best, attain = survey
    print(f"max valuation {best}")
    if attain:
        print("attained: " + "; ".join(f"D={d} 2m={two_m}" for d, two_m in attain))
    top_index = max((k for _, k in tally.records), default=0)
    count = sum(n for (_, k), n in tally.records.items() if k == top_index)
    print(f"largest index {top_index}, count {count}")
    if args.pairs_out:
        print(f"wrote {sum(tally.hits.values())} pairs to {args.pairs_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadzeta",
        description="Special values of real quadratic zeta and L-functions, "
        "irregularity indices, and their statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lvalue = sub.add_parser("lvalue", help="print L(1-2m, chi_D)")
    p_lvalue.add_argument("--disc", type=int, required=True)
    p_lvalue.add_argument("--m", type=int, required=True)
    p_lvalue.add_argument("--mod", type=int, help="reduce mod this odd prime")
    p_lvalue.set_defaults(fn=cmd_lvalue)

    p_zeta = sub.add_parser("zeta", help="print zeta_D(1-2m)")
    p_zeta.add_argument("--disc", type=int, required=True)
    p_zeta.add_argument("--m", type=int, required=True)
    p_zeta.add_argument("--mod", type=int)
    p_zeta.set_defaults(fn=cmd_zeta)

    p_index = sub.add_parser("index", help="irregularity index of one (D, p) pair")
    p_index.add_argument("--disc", type=int)
    p_index.add_argument("--p", type=int, required=True)
    p_index.add_argument("--kind", choices=["chi", "d", "classical"], default="chi")
    p_index.add_argument("--strict", action="store_true",
                         help="also count tested values with negative valuation")
    p_index.set_defaults(fn=cmd_index)

    p_scan = sub.add_parser("scan", help="run a scan and write CSV shards")
    p_scan.add_argument("--kind", choices=["fixed-disc", "grid", "million"], required=True)
    p_scan.add_argument("--disc", type=int)
    p_scan.add_argument("--pmax", type=int)
    p_scan.add_argument("--dmax", type=int)
    p_scan.add_argument("--primes", type=str, help="comma-separated primes (grid or million scan)")
    p_scan.add_argument("--out", type=str, required=True)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--resume", action="store_true")
    p_scan.set_defaults(fn=cmd_scan)

    p_report = sub.add_parser("report", help="render a table from scan shards")
    p_report.add_argument("--input", type=str, help="scan directory (every table but histogram)")
    p_report.add_argument("--table", choices=["1", "2", "3", "residues", "ratios", "histogram"],
                          required=True)
    p_report.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_report.add_argument("--bins", type=int, help="ratios: histogram bins (default 10)")
    p_report.add_argument("--classes-mod", type=int,
                          help="residues: modulus of the prime classes (default 4)")
    p_report.add_argument("--allow-partial", action="store_true")
    p_report.add_argument("--pmax-cutoff", type=int,
                          help="restrict table 1 to primes below this bound")
    p_report.add_argument("--disc", type=int, help="histogram: discriminant")
    p_report.add_argument("--mod", type=int, help="histogram: modulus prime")
    p_report.set_defaults(fn=cmd_report)

    p_survey = sub.add_parser("survey", help="valuation and index extremes from shards")
    p_survey.add_argument("--input", type=str, required=True)
    p_survey.add_argument("--primes", dest="primes_single", type=int, required=True,
                          help="prime to survey valuations at")
    p_survey.add_argument("--allow-partial", action="store_true")
    p_survey.add_argument("--pairs-out", type=str, help="also write an irregular-pair CSV")
    p_survey.set_defaults(fn=cmd_survey)

    p_stats = sub.add_parser("stats", help="significance and prediction helpers")
    p_stats.add_argument("--chi2", type=float)
    p_stats.add_argument("--df", type=int)
    p_stats.add_argument("--limit-fraction", type=int)
    p_stats.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, OverflowError) as exc:  # OverflowError is no failed check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
