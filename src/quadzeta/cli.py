"""Command-line surface.

Subcommands: lvalue, zeta, index, scan, report, survey, stats.
Exit codes: 0 success, 2 usage or validation error, 3 incomplete input,
4 failed arithmetic check (the Siegel gate found a mismatch).

The library owns every input rule (discriminants, primes, exponent ranges,
which parameters a scan kind takes); this module parses flags, checks only
the flag combinations argparse cannot express, and maps the library's
exceptions to exit codes.  A scan runs the plan of `irregularity.scan_plan`,
the same plan the library's scan functions run, with the flags as given;
this module names the manifest's shards.  Scans write CSV shards plus a
manifest; reports and surveys consume those files without touching the
compute modules again (the residue histogram is the one exception, since
shards do not carry residues).  All text output is ASCII; table renderers
round with the banker's rounding of format(), while JSON output carries
full-precision numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
        primes = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as exc:
        raise CommandError(f"bad prime list {text!r}") from exc
    if not primes:
        raise CommandError("empty prime list")
    return primes


def _scan_plan(args):
    """(plan, manifest) for the requested scan kind."""
    primes = None if args.primes is None else _parse_primes(args.primes)
    plan = irregularity.scan_plan(args.kind, disc=args.disc, pmax=args.pmax, dmax=args.dmax,
                                  primes=primes)
    manifest = shards.ScanManifest(kind=plan.kind, params=plan.params)
    for lo, hi in plan.blocks:
        manifest.shards.append(
            shards.ShardEntry(name=f"{plan.kind}-{lo:08d}-{hi:08d}.csv", lo=lo, hi=hi)
        )
    return plan, manifest


def _fmt_params(params: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(params.items()))


def cmd_scan(args) -> int:
    plan, manifest = _scan_plan(args)  # a rejected scan leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    total = 0  # records: those of the shards --resume reuses, then those written here
    if args.resume and (out / shards.MANIFEST_NAME).exists():
        previous = shards.read_manifest(out)
        if previous.kind != manifest.kind or previous.params != manifest.params:
            raise CommandError(
                f"--resume: {out} holds a {previous.kind} scan with {_fmt_params(previous.params)}, "
                f"not a {manifest.kind} scan with {_fmt_params(manifest.params)}"
            )
        done = {(s.lo, s.hi): s for s in previous.shards if s.complete}
        for entry in manifest.shards:
            old = done.get((entry.lo, entry.hi))
            if old and (out / old.name).exists():
                if shards.file_digest(out / old.name) == old.digest:
                    entry.digest = old.digest
                    entry.complete = True
                    total += (out / old.name).read_bytes().count(b"\n") - 1
    pending = [entry for entry in manifest.shards if not entry.complete]
    shards.write_manifest(out, manifest)
    results = plan.run(args.workers, [(entry.lo, entry.hi) for entry in pending])
    for entry, records in zip(pending, results):
        path = out / entry.name
        shards.write_index_shard(path, records)
        entry.digest = shards.file_digest(path)
        entry.complete = True
        shards.write_manifest(out, manifest)
        total += len(records)
    print(f"scan {args.kind} complete: {len(manifest.shards)} shards, {total} records")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _fmt_count(x) -> str:
    return f"{float(x):.2f}"


def _fmt_fraction(x) -> str:
    s = f"{float(x):.6f}"
    return s[1:] if s.startswith("0.") else s


def _fmt_sig(x) -> str:
    s = f"{float(x):.3f}"
    return s[1:] if s.startswith("0.") else s


def _fmt_average(x, decimals: int = 2) -> str:
    x = float(x)
    if decimals == 2 and abs(x) < 0.005:
        return f"{x:.3f}"
    return f"{x:.{decimals}f}"


def _load(args) -> list:
    directory = Path(args.input)
    if not (directory / shards.MANIFEST_NAME).exists():
        raise CommandError(f"no manifest in {directory}", EXIT_INCOMPLETE)
    try:
        return shards.load_records(directory, allow_partial=args.allow_partial)
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
    if fmt == "csv":
        if averages is None:
            print("r,observed,expected,fraction")
            for i, (o, e, f) in enumerate(zip(table.observed, table.expected, table.fractions)):
                print(f"{i},{float(o)},{float(e)},{float(f)}")
        else:
            print("r,total,expected_total,average,expected_average,fraction")
            for i in range(len(table.observed)):
                print(
                    f"{i},{float(table.observed[i])},{float(table.expected[i])},"
                    f"{float(averages.observed[i])},{float(averages.expected[i])},"
                    f"{float(table.fractions[i])}"
                )
        return
    if averages is None:
        print("r & number & predicted number & predicted fraction")
        for i, (o, e, f) in enumerate(zip(table.observed, table.expected, table.fractions)):
            print(f"{i} & {int(o)} & {_fmt_count(e)} & {_fmt_fraction(f)}")
        print(f"chi-squared {table.chi_squared:.2f} (df {table.df}), "
              f"significance {_fmt_sig(table.significance)}")
    else:
        print("r & total & predicted total & average & predicted average & fraction")
        for i in range(len(table.observed)):
            print(
                f"{i} & {int(table.observed[i])} & {_fmt_count(table.expected[i])} & "
                f"{_fmt_average(averages.observed[i], avg_decimals)} & "
                f"{_fmt_average(averages.expected[i], avg_decimals)} & "
                f"{_fmt_fraction(table.fractions[i])}"
            )
        print(f"totals chi-squared {table.chi_squared:.1f} (df {table.df}), "
              f"significance {_fmt_sig(table.significance)}")
        print(f"averages chi-squared {averages.chi_squared:.3f} (df {averages.df}), "
              f"significance {_fmt_sig(averages.significance)}")


def cmd_report(args) -> int:
    fmt = args.format
    if args.table == "1":
        records = _load(args)
        if args.pmax_cutoff:
            records = [r for r in records if r.prime < args.pmax_cutoff]
        table = stats.build_distribution(records, prediction="limit")
        _emit_distribution(table, fmt)
    elif args.table == "2":
        records = _load(args)
        report = stats.aggregate_across_discriminants(records, prediction="limit")
        _emit_distribution(report.totals, fmt, averages=report.averages)
    elif args.table == "3":
        records = _load(args)
        report = stats.aggregate_across_discriminants(records, prediction="exact")
        _emit_distribution(report.totals, fmt, averages=report.averages, avg_decimals=6)
    elif args.table == "residues":
        records = _load(args)
        discs = {r.discriminant for r in records}
        if len(discs) != 1:
            raise CommandError("residue-class report needs a fixed-discriminant scan")
        primes = sorted({r.prime for r in records})
        irregular = sorted({r.prime for r in records if r.index > 0})
        table = stats.residue_class_report(irregular, primes, args.classes_mod)
        _emit_distribution(table, fmt)
    elif args.table == "ratios":
        records = _load(args)
        pairs = irregularity.irregular_pairs(records)
        report = stats.ratio_uniformity_report(pairs, bins=args.bins)
        payload = {
            "count": report.count,
            "bins": report.bins,
            "histogram": list(report.histogram),
            "chi_squared": report.chi_squared,
            "df": report.df,
            "significance": report.significance,
            "ks_statistic": report.ks_statistic,
        }
        if fmt == "json":
            print(json.dumps(payload, indent=2))
        elif fmt == "csv":
            print("bin,count")
            for i, c in enumerate(report.histogram):
                print(f"{i},{c}")
        else:
            print(f"{report.count} ratios in {report.bins} bins: {list(report.histogram)}")
            print(f"chi-squared {report.chi_squared:.3f} (df {report.df}), "
                  f"significance {_fmt_sig(report.significance)}, "
                  f"KS {report.ks_statistic:.4f}")
    elif args.table == "histogram":
        # computed directly: index shards do not carry residues
        if args.disc is None or args.mod is None:
            raise CommandError("histogram report needs --disc and --mod")
        table = stats.residue_histogram(lvalues.l_chi_residues(args.disc, args.mod), args.mod)
        _emit_distribution(table, fmt)
    else:
        raise CommandError(f"unknown table {args.table!r}")
    return EXIT_OK


def cmd_survey(args) -> int:
    records = _load(args)
    for rec in records:
        for _, v in rec.hits:
            if v < 1:
                raise CommandError("shards lack refined valuations")
    best, attain = irregularity.high_valuation_survey(records, args.primes_single)
    print(f"max valuation {best}")
    if attain:
        print("attained: " + "; ".join(f"D={d} 2m={two_m}" for d, two_m in attain))
    top_index = max((rec.index for rec in records), default=0)
    count = sum(1 for rec in records if rec.index == top_index)
    print(f"largest index {top_index}, count {count}")
    if args.pairs_out:
        pairs = irregularity.irregular_pairs(records)
        shards.write_pairs_csv(Path(args.pairs_out), pairs)
        print(f"wrote {len(pairs)} pairs to {args.pairs_out}")
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
    p_report.add_argument("--input", type=str, required=True)
    p_report.add_argument("--table", choices=["1", "2", "3", "residues", "ratios", "histogram"],
                          required=True)
    p_report.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_report.add_argument("--bins", type=int, default=10)
    p_report.add_argument("--classes-mod", type=int, default=4)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
