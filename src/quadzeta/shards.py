"""Persistent scan results: CSV shards plus a plain-text manifest.

Index-record schema (one row per (D, p), sorted by that key):

    D,p,delta,index,hits

where hits is a semicolon-joined list of 2m:valuation pairs, empty for
index 0.  Irregular pairs use the schema p,two_m,D,valuation.  Shards are
written atomically (temp file then rename) so an interrupted scan never
leaves a truncated shard behind; the manifest records one shard per line
with its digest and completion flag.  This module owns the scan directory:
write_scan names, writes and resumes the shards of an irregularity.ScanPlan
(and refuses a directory of another scan), and two readers give them back
as IndexColumns after one shared verification pass (_verified_shards):
iter_shards yields one shard's columns at a time, what the reports and the
survey fold into a tally, and load_records parses each shard into its
slice of one set of columns.  The writers take IndexColumns only, as the
block kernels return them; pairs_csv writes the irregular pairs of a fold
shard by shard.  A shard file is read or written once per operation, and
only bytes in memory are checked: file_digest and read_index_shard take
bytes, write_index_shard returns the digest of the bytes it wrote, and the
readers and a resume digest the buffer they parse or count (rows and hits
are read off the schema: four commas per line, one colon per hit).

The reader accepts the writer's grammar and nothing looser: every integer
is -?[0-9]{1,18} (so int64 holds it exactly), with no space or "+", and a
line ends in LF, CRLF or a lone CR.  It parses a shard as one uint8
buffer: every byte but a digit or "-" ends a token, so the separator
positions give each token's bounds, the byte that ends it and its row; the
tokens of each digit count are read by one gather and one product with the
powers of ten; and every check runs on whole arrays.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .irregularity import _COLUMNS, IndexColumns, ScanPlan, scan_range

INDEX_HEADER = ["D", "p", "delta", "index", "hits"]
PAIR_HEADER = ["p", "two_m", "D", "valuation"]
MANIFEST_NAME = "manifest.txt"


class IncompleteScanError(RuntimeError):
    pass


def format_hits(hits: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{two_m}:{v}" for two_m, v in hits)


@contextmanager
def _atomic_file(path: Path) -> Iterator[BinaryIO]:
    """A binary file beside path that becomes path when the block ends; if
    the block raises, the file is removed and path is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _atomic_write(path: Path, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def write_index_shard(path: Path, cols: IndexColumns) -> str:
    """Write the bytes csv.writer would (no field needs quoting, and every
    row ends in CRLF), formatted from the columns as one string; most rows
    have no hits, so the hits field is joined only on those that do;
    returns the file_digest of those bytes."""
    hits = iter([f"{m}:{v}" for m, v in zip(cols.two_m.tolist(), cols.valuation.tolist())])
    data = (",".join(INDEX_HEADER) + "\r\n" + "".join(
        f"{d},{p},{b},{k},{';'.join(islice(hits, k)) if k else ''}\r\n"
        for d, p, b, k in zip(cols.discriminant.tolist(), cols.prime.tolist(),
                              cols.delta.tolist(), cols.index.tolist())
    )).encode()
    _atomic_write(path, data)
    return file_digest(data)


_COMMA, _COLON, _SEMICOLON, _LF, _CR, _MINUS = b",:;\n\r-"
_DIGITS = 18  # at most, per integer, so that every value is exact in int64
assert 10**_DIGITS - 1 <= np.iinfo(np.int64).max


def read_index_shard(path: Path, data: bytes) -> IndexColumns:
    """Parse the bytes data of the index shard path into int64 columns, in
    the writer's grammar; path only names the shard in errors.

    After the header, a row is D,p,delta,index,hits: each integer
    -?[0-9]{1,18}, hits empty or 2m:valuation pairs joined by ";", the line
    ended by LF, CRLF, a lone CR or the end of the file.  Another header or
    row, an index other than the row's hit count, or a row not strictly
    after the last by (D, p) raises ValueError naming the file (and the
    first bad line).  One pass: each byte but 0-9 or "-" ends a token.
    """
    data += b"" if data.endswith((b"\n", b"\r")) else b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf - ord("0") > 9) & (buf != _MINUS))
    starts = np.concatenate(([0], ends[:-1] + 1))  # token k is buf[starts[k]:ends[k]]
    keep = (buf[ends] != _LF) | (buf[np.maximum(ends - 1, 0)] != _CR)
    starts, ends = starts[keep], ends[keep]  # the LF of a CRLF ends nothing: the CR ended the line
    sep = np.where(buf[ends] == _CR, _LF, buf[ends])  # the byte that ends each token
    h = int(np.argmax(sep == _LF))  # the header's last token
    if data[:ends[h]].decode(errors="replace").split(",") != INDEX_HEADER:
        raise ValueError(f"{path} is not an index shard (header {data[:ends[h]]!r})")
    starts, ends, sep = starts[h + 1:], ends[h + 1:], sep[h + 1:]
    values, good = _parse_integers(buf, starts, ends)
    row_end = np.flatnonzero(sep == _LF)
    first = np.concatenate(([0], row_end + 1))[:-1]
    pos = np.arange(len(sep)) - np.repeat(first, row_end - first + 1)  # in its row
    odd = (pos & 1).astype(bool)  # "," ends D, p, delta, index; ":" 2m; ";" or LF a valuation
    good &= np.where(pos < 4, sep == _COMMA,
                     (sep == np.where(odd, _SEMICOLON, _COLON)) | (sep == _LF) & odd)
    good |= (pos == 4) & (sep == _LF) & (starts == ends)  # an empty hits field
    hits = (row_end - first - 3) // 2  # in a row whose every token is good
    d, p, delta, index = (values.take(first + c, mode="clip") for c in range(4))
    prev_d, prev_p = np.concatenate(([0], d[:-1])), np.concatenate(([0], p[:-1]))
    bad = (index != hits) | (d < prev_d) | ((d == prev_d) & (p <= prev_p))
    bad[np.searchsorted(row_end, np.flatnonzero(~good))] = True  # the rows of bad tokens
    if bad.any():
        i = int(np.argmax(bad))
        row = slice(first[i], row_end[i] + 1)
        fields = np.count_nonzero(sep[row] == _COMMA) + bool(ends[row_end[i]] > starts[first[i]])
        k = first[i] + int(np.argmin(good[row]))  # the row's first bad token, if any
        problem = (  # the first of the row's problems, in the order of the checks
            f"expected 5 fields, got {fields}" if fields != 5
            else f"malformed {INDEX_HEADER[min(pos[k], 4)]} at {data[starts[k]:ends[k] + 1]!r}"
            if not good[k] else f"index {index[i]} but {hits[i]} hits" if index[i] != hits[i]
            else f"(D, p) {int(d[i]), int(p[i])} does not follow {int(prev_d[i]), int(prev_p[i])}")
        raise ValueError(f"{path}:{i + 2}: {problem}")  # the header is line 1
    colons = np.flatnonzero(sep == _COLON)
    return IndexColumns(d, p, delta, index, values[colons], values[colons + 1])


def _parse_integers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Each token's int64 value, and whether it is -?[0-9]{1,18} (else its value
    is 0); the tokens of n digits are one gather and one product with 10^(n-1..0)."""
    negative = buf[starts] == _MINUS
    count = ends - starts - negative  # its digits, where the "-" is first
    good = (count >= 1) & (count <= _DIGITS)
    minus = np.flatnonzero(buf == _MINUS)
    tokens = np.searchsorted(ends, minus)
    good[tokens[starts[tokens] != minus]] = False  # a "-" after the first byte
    values = np.zeros(len(starts), dtype=np.int64)
    for n in np.flatnonzero(np.bincount(count[good])):
        at = np.flatnonzero(good & (count == n))
        digits = buf[np.arange(n)[:, None] + (starts + negative)[at]] - ord("0")  # token per column
        values[at] = 10 ** np.arange(n - 1, -1, -1) @ digits
    np.negative(values, out=values, where=negative)
    return values, good


@contextmanager
def pairs_csv(path: Path) -> Iterator[Callable[[IndexColumns], None]]:
    """Write an irregular-pair CSV part by part: the block gets a function
    that appends one p,two_m,D,valuation row per hit of some IndexColumns,
    in row and hit order, each ending in CRLF.  The file becomes path only
    if the block ends without error (_atomic_file)."""
    with _atomic_file(path) as fh:
        fh.write((",".join(PAIR_HEADER) + "\r\n").encode())

        def write(cols: IndexColumns) -> None:
            rows = zip(cols.hit_rows(cols.prime).tolist(), cols.two_m.tolist(),
                       cols.hit_rows(cols.discriminant).tolist(), cols.valuation.tolist())
            fh.write("".join(f"{p},{m},{d},{v}\r\n" for p, m, d, v in rows).encode())

        yield write


def write_pairs_csv(path: Path, cols: IndexColumns) -> None:
    """The irregular-pair CSV of one set of columns (pairs_csv)."""
    with pairs_csv(path) as write:
        write(cols)


def file_digest(data: bytes) -> str:
    """The sha256 hex digest of a file's bytes, as the manifest records it."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class ShardEntry:
    name: str
    lo: int
    hi: int
    digest: str = ""
    complete: bool = False


@dataclass
class ScanManifest:
    """Scan parameters plus the shard ledger; completion means every shard done."""

    kind: str
    params: dict[str, str] = field(default_factory=dict)
    shards: list[ShardEntry] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.shards) and all(s.complete for s in self.shards)

    def validate_partition(self) -> None:
        """The shard spans follow one another with no gap and no overlap, from
        the start of the scan range to its end: p in [3, pmax) for a
        fixed-disc scan, D in [max(dmin, 2), dmax) otherwise."""
        _, lo, hi = scan_range(self.kind, self.params)
        spans = sorted((s.lo, s.hi) for s in self.shards)
        edges = [lo, *(x for span in spans for x in span), hi]  # each hi meets the next lo
        if edges[0::2] != edges[1::2]:
            raise ValueError(f"shards do not partition the scan range [{lo}, {hi})")


def write_manifest(directory: Path, manifest: ScanManifest) -> None:
    lines = [f"kind={manifest.kind}", *(f"param.{k}={v}" for k, v in sorted(manifest.params.items())),
             f"shards={len(manifest.shards)}"]
    lines += (f"shard.{i:04d}={s.name} lo={s.lo} hi={s.hi} sha256={s.digest or '-'} "
              f"complete={int(s.complete)}" for i, s in enumerate(manifest.shards))
    _atomic_write(directory / MANIFEST_NAME, "".join(f"{line}\n" for line in lines).encode())


def read_manifest(directory: Path) -> ScanManifest:
    path = directory / MANIFEST_NAME
    kind = ""
    params: dict[str, str] = {}
    shards: list[ShardEntry] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key == "kind":
            kind = value
        elif key.startswith("param."):
            params[key[len("param.") :]] = value
        elif key.startswith("shard."):
            try:  # every parse error names the manifest line; a repeated key's last value wins
                name, *attrs = value.split()
                attr = dict(a.partition("=")[::2] for a in attrs)
                digest = attr.get("sha256", "-")
                entry = ShardEntry(name, int(attr.get("lo", 0)), int(attr.get("hi", 0)),
                                   "" if digest == "-" else digest,
                                   bool(int(attr.get("complete", 0))))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            shards.append(entry)
    if not kind:
        raise ValueError(f"{path} has no scan kind")
    return ScanManifest(kind=kind, params=params, shards=shards)


def load_records(directory: Path, allow_partial: bool = False) -> IndexColumns:
    """Read every completed shard, in range order, into one set of columns;
    reject incomplete scans.

    The shards are those iter_shards yields, checked the same way
    (_verified_shards).  The columns are allocated once: the rows and hits
    of every verified shard are counted off the schema, and each shard is
    then parsed into its slice of the columns.  The peak is the columns,
    the shard bytes not yet parsed and one shard's parse, with no copy
    that joins parsed shards.  IncompleteScanError is raised as
    _verified_shards says.
    """
    entries, buffers, parsed = _verified_shards(directory, allow_partial)
    # shard i's rows are rows[i]:rows[i + 1], and its hits hits[i]:hits[i + 1]
    rows, hits = np.cumsum([(0, 0), *map(_shard_size, buffers)], axis=0).T
    spans = [rows] * 4 + [hits] * 2  # the slice bounds of each column
    out = IndexColumns(*(np.empty(n[-1], dtype=np.int64) for n in spans))
    for i, entry in enumerate(entries):
        shard = next(parsed)
        if (len(shard), len(shard.two_m)) != (rows[i + 1] - rows[i], hits[i + 1] - hits[i]):
            raise ValueError(f"shard {entry.name} does not hold the rows and hits counted in it")
        for name, n in zip(_COLUMNS, spans):
            getattr(out, name)[n[i]:n[i + 1]] = getattr(shard, name)
        del shard  # before the next parse allocates its own
    return out


def iter_shards(directory: Path, allow_partial: bool = False) -> Iterator[IndexColumns]:
    """The columns of each completed shard, in range order, one shard at a
    time: what a report folds, so that only its tally outlives a shard.

    Every shard is read and verified before this returns, and its errors,
    IncompleteScanError included, are raised here; each step then parses
    one shard, drops its bytes and raises that shard's parse and key
    errors (_verified_shards).
    """
    return _verified_shards(directory, allow_partial)[2]


def _verified_shards(
    directory: Path, allow_partial: bool
) -> tuple[list[ShardEntry], list[bytes | None], Iterator[IndexColumns]]:
    """The one verification pass of the shard readers: (entries, buffers,
    parsed) for the completed shards of the scan in directory, in range order.

    The manifest's shard spans must partition the scan range
    (ScanManifest.validate_partition), and the scan must be complete
    unless allow_partial is set.  Every completed shard is read once and
    must carry a digest that its bytes match; buffers holds those bytes,
    so a digest mismatch in any shard is reported before a parse error in
    any.  parsed yields the columns of each shard in turn and drops its
    bytes, once each record's key is checked: its block key (p for a
    fixed-disc scan, D otherwise) lies in the shard's [lo, hi), and in a
    fixed-disc scan its D is the scan's disc.

    Raises IncompleteScanError for a directory with no manifest, and for an
    incomplete scan unless allow_partial is set; report commands map that
    onto the dedicated exit code.
    """
    if not (directory / MANIFEST_NAME).exists():
        raise IncompleteScanError(f"no manifest in {directory}")
    manifest = read_manifest(directory)
    manifest.validate_partition()
    if not manifest.complete and not allow_partial:
        raise IncompleteScanError(f"scan in {directory} is incomplete")
    disc = None
    if manifest.kind == "fixed-disc":
        try:
            disc = int(manifest.params["disc"])
        except (KeyError, ValueError):
            raise ValueError(f"{directory / MANIFEST_NAME} gives the fixed-disc scan "
                             "no integer disc") from None
    entries = [entry for entry in sorted(manifest.shards, key=lambda s: s.lo) if entry.complete]
    buffers: list[bytes | None] = [_checked_read(directory, entry) for entry in entries]

    def parsed() -> Iterator[IndexColumns]:
        for i, entry in enumerate(entries):
            shard = read_index_shard(directory / entry.name, buffers[i])
            buffers[i] = None  # parsed: its bytes can go
            keys = shard.discriminant if disc is None else shard.prime
            if len(keys) and (keys.min() < entry.lo or keys.max() >= entry.hi):
                raise ValueError(
                    f"shard {entry.name} holds records outside [{entry.lo}, {entry.hi})")
            if disc is not None and (shard.discriminant != disc).any():
                raise ValueError(
                    f"shard {entry.name} holds records of a D other than the scan's {disc}")
            yield shard
            del shard, keys  # before the next parse allocates its own

    return entries, buffers, parsed()


def _checked_read(directory: Path, entry: ShardEntry) -> bytes:
    """The bytes of a completed shard's one read, which must match its digest."""
    if not entry.digest:
        raise ValueError(f"shard {entry.name} is marked complete but has no digest")
    data = (directory / entry.name).read_bytes()
    if file_digest(data) != entry.digest:
        raise ValueError(f"digest mismatch for shard {entry.name}")
    return data


def _shard_size(data: bytes) -> tuple[int, int]:
    """(rows after the header, hits) of a shard's bytes: the reader requires
    five fields on every line, header included, so a shard that parses has
    four commas per line and one colon per hit."""
    buf = np.frombuffer(data, dtype=np.uint8)
    lines = np.count_nonzero(buf == _COMMA) // (len(INDEX_HEADER) - 1)
    return max(lines - 1, 0), np.count_nonzero(buf == _COLON)


def _shard_name(kind: str, lo: int, hi: int) -> str:
    return f"{kind}-{lo:08d}-{hi:08d}.csv"


def _write_block(task, out: Path, kind: str, lo: int, hi: int) -> tuple[str, int]:
    """Compute one block and write its shard, in the same process, so a pool
    worker sends the parent only (digest, record count), never the records."""
    records = task(lo, hi)
    return write_index_shard(out / _shard_name(kind, lo, hi), records), len(records)


def _describe(manifest: ScanManifest) -> str:
    params = " ".join(f"{key}={value}" for key, value in sorted(manifest.params.items()))
    return f"a {manifest.kind} scan with {params}"


def write_scan(plan: ScanPlan, out: Path, workers: int = 1, resume: bool = False) -> int:
    """Run plan into the directory out and return the scan's record total.

    A block's shard is written and digested where the block is computed (a
    pool worker, or this process at one worker); this process writes the
    manifest before the blocks and after each one, in block order, so a
    shard is done only once the manifest says so.  A manifest already in
    out must name the same kind and params, and one that does not, or
    cannot be parsed, raises ValueError before anything is written; so a
    scan never leaves another scan's shards behind.  resume keeps each
    block that manifest has complete if the shard this scan names for it
    matches the recorded digest (one read, checked as load_records checks
    it), and recomputes the others; without it the scan is rewritten in
    place.  The bytes are those of a fresh run at any worker count.  A
    worker count below 1 raises ValueError before out is created.
    """
    entries = [ShardEntry(_shard_name(plan.kind, lo, hi), lo, hi) for lo, hi in plan.blocks]
    manifest = ScanManifest(plan.kind, plan.params, entries)
    total = 0  # records: those of the kept shards, then those written here
    previous = read_manifest(out) if (out / MANIFEST_NAME).exists() else None
    if previous and (previous.kind, previous.params) != (manifest.kind, manifest.params):
        raise ValueError(f"{out} holds {_describe(previous)}, not {_describe(manifest)}")
    if resume and previous:
        done = {(s.lo, s.hi): s.digest for s in previous.shards if s.complete}
        for entry in manifest.shards:
            entry.digest = done.get((entry.lo, entry.hi), "")
            try:  # no digest, no file or another digest: the block is recomputed
                total += _shard_size(_checked_read(out, entry))[0]
                entry.complete = True
            except (FileNotFoundError, ValueError):
                entry.digest = ""
    pending = [entry for entry in manifest.shards if not entry.complete]
    results = replace(plan, blocks=[(entry.lo, entry.hi) for entry in pending],
                      task=partial(_write_block, plan.task, out, plan.kind)).run(workers)
    out.mkdir(parents=True, exist_ok=True)  # after run has checked the worker count
    write_manifest(out, manifest)
    for entry, (digest, count) in zip(pending, results):
        entry.digest = digest
        entry.complete = True
        write_manifest(out, manifest)
        total += count
    return total
