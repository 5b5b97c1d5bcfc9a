import builtins
import csv
import hashlib
import io
import os
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadzeta import shards
from quadzeta.cli import main
from quadzeta.irregularity import _COLUMNS, IndexColumns, IndexRecord, scan_plan
from quadzeta.shards import (
    INDEX_HEADER,
    PAIR_HEADER,
    IncompleteScanError,
    ScanManifest,
    ShardEntry,
    file_digest,
    format_hits,
    load_records,
    read_index_shard,
    read_manifest,
    write_index_shard,
    write_manifest,
    write_pairs_csv,
    write_scan,
)


def _records():
    return [
        IndexRecord(5, 3, 2, "chi", ()),
        IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 2))),
        IndexRecord(8, 3, 2, "chi", ((2, 1),)),
    ]


def _oracle_hits(text):
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        two_m, _, v = part.partition(":")
        out.append((int(two_m), int(v)))
    return tuple(out)


def _oracle_read(path):
    """The row-by-row csv reader that read_index_shard replaced: the test
    oracle of the columnar reader."""
    records = []
    previous = (0, 0)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INDEX_HEADER:
            raise ValueError(f"{path} is not an index shard (header {header})")
        for row in reader:
            try:
                d, p, delta, index, hits_text = row
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected 5 fields, got {len(row)}"
                ) from None
            hits = _oracle_hits(hits_text)
            if int(index) != len(hits):
                raise ValueError(f"{path}:{reader.line_num}: index {index} but {len(hits)} hits")
            key = (int(d), int(p))
            if key <= previous:
                raise ValueError(f"{path}:{reader.line_num}: (D, p) {key} does not follow {previous}")
            previous = key
            records.append(IndexRecord(key[0], key[1], int(delta), "chi", hits))
    return records


def _same_columns(a, b):
    names = ("discriminant", "prime", "delta", "index", "hit_offsets", "two_m", "valuation")
    return all(getattr(a, n).dtype == getattr(b, n).dtype == np.int64
               and np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def test_hits_round_trip():
    assert format_hits(()) == ""
    assert format_hits(((2, 1), (32, 7))) == "2:1;32:7"
    assert _oracle_hits("2:1;32:7") == ((2, 1), (32, 7))
    assert _oracle_hits("") == ()


# hit lists as the kernels emit them: distinct even exponents, ascending,
# each with a valuation >= 1
_hits = st.lists(
    st.tuples(st.integers(1, 5000).map(lambda m: 2 * m), st.integers(1, 60)),
    max_size=4,
    unique_by=lambda hit: hit[0],
).map(lambda hits: tuple(sorted(hits)))


@st.composite
def _index_records(draw):
    keys = draw(st.lists(st.tuples(st.integers(5, 10**6), st.integers(3, 10**4)),
                         unique=True, max_size=8))
    return [IndexRecord(d, p, draw(st.integers(2, 10**4)), "chi", draw(_hits))
            for d, p in sorted(keys)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_index_records())
@example(_records())
@example([])
def test_index_shard_round_trip(tmp_path, records):
    path = tmp_path / "shard.csv"
    write_index_shard(path, IndexColumns.from_records(records))
    columns = read_index_shard(path, path.read_bytes())
    assert list(columns) == records == _oracle_read(path)
    assert _same_columns(columns, IndexColumns.from_records(records))
    assert len(columns) == len(records) and len(columns.hit_offsets) == len(records) + 1
    header = path.read_text().splitlines()[0]
    assert header == "D,p,delta,index,hits"
    for rec in records:
        assert _oracle_hits(format_hits(rec.hits)) == rec.hits
    # the writer's contract: the bytes csv.writer writes for the same rows
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(INDEX_HEADER)
    for rec in records:
        hits = ";".join(f"{two_m}:{v}" for two_m, v in rec.hits)
        writer.writerow([rec.discriminant, rec.prime, rec.delta, rec.index, hits])
    assert path.read_bytes() == expected.getvalue().encode()


_HEADER = "D,p,delta,index,hits\n"

# (shard bytes, whether the csv oracle accepts them)
_CORPUS = {
    "lf": (_HEADER + "5,3,2,0,\n5,7,6,2,2:1;4:2\n8,3,2,1,2:1\n", True),
    "crlf": (_HEADER.replace("\n", "\r\n") + "5,3,2,0,\r\n5,7,6,2,2:1;4:2\r\n", True),
    "mixed-line-ends": (_HEADER + "5,3,2,0,\r\n5,7,6,1,2:1\n", True),
    "no-final-newline": (_HEADER + "5,3,2,0,\r\n5,7,6,2,2:1;4:2", True),
    "no-final-newline-no-hits": (_HEADER + "5,3,2,0,\n5,7,6,0,", True),
    "header-only": (_HEADER, True),
    "header-only-crlf": (_HEADER.replace("\n", "\r\n"), True),
    "header-only-no-newline": (_HEADER.strip(), True),
    "negative-valuation": (_HEADER + "5,7,6,1,2:-1\n", True),
    "empty-file": ("", False),
    "foreign-header": ("a,b\n1,2\n", False),
    "blank-line": (_HEADER + "5,3,2,0,\n\n5,7,6,0,\n", False),
    "four-fields": (_HEADER + "5,3,2,0,\n5,7,6,0\n", False),
    "six-fields": (_HEADER + "5,3,2,0,\n5,7,6,1,2:1,x\n", False),
    "index-above-hits": (_HEADER + "5,7,6,2,2:1\n", False),
    "index-below-hits": (_HEADER + "5,7,6,1,2:1;4:1\n", False),
    "hits-at-index-0": (_HEADER + "5,7,6,0,2:1\n", False),
    "non-integer-d": (_HEADER + "x,3,2,0,\n", False),
    "non-integer-delta": (_HEADER + "5,3,2.0,0,\n", False),
    "non-integer-index": (_HEADER + "5,3,2,one,\n", False),
    "non-integer-hit": (_HEADER + "5,7,6,1,2:a\n", False),
    "hit-2": (_HEADER + "5,7,6,1,2\n", False),
    "hit-2:1:3": (_HEADER + "5,7,6,1,2:1:3\n", False),
    "hit-2:1;;4:1": (_HEADER + "5,7,6,2,2:1;;4:1\n", False),
    "hit-2:1;;4:1-index-3": (_HEADER + "5,7,6,3,2:1;;4:1\n", False),
    "hit-:1": (_HEADER + "5,7,6,1,:1\n", False),
    "hit-2;1:4:1": (_HEADER + "5,7,6,2,2;1:4:1\n", False),  # four integers, wrongly joined
    "duplicate": (_HEADER + "5,3,2,0,\n5,3,2,0,\n", False),
    "out-of-order": (_HEADER + "5,7,6,0,\n5,3,2,0,\n", False),
    "out-of-order-d": (_HEADER + "8,3,2,0,\n5,7,6,0,\n", False),
}


@pytest.mark.parametrize("name", list(_CORPUS))
def test_reader_agrees_with_the_csv_oracle(tmp_path, name):
    # where the oracle reads records, the reader reads the same ones; where
    # it raises, the reader raises ValueError naming the file
    text, accepted = _CORPUS[name]
    path = tmp_path / "shard.csv"
    path.write_bytes(text.encode())
    if accepted:
        assert list(read_index_shard(path, path.read_bytes())) == _oracle_read(path)
    else:
        with pytest.raises(ValueError):
            _oracle_read(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_index_shard(path, path.read_bytes())


def _first_bad_line(tmp_path, data):
    """The line the csv oracle fails on, counting the header as line 1: the
    fewest leading lines of data that it rejects."""
    lines = data.splitlines(keepends=True)
    prefix = tmp_path / "prefix.csv"
    for n in range(1, len(lines) + 1):
        prefix.write_bytes(b"".join(lines[:n]))
        try:
            _oracle_read(prefix)
        except ValueError:
            return n
    raise AssertionError("the oracle accepts every prefix")


@pytest.mark.parametrize("name", [name for name, (text, accepted) in _CORPUS.items()
                                  if not accepted and text.startswith(_HEADER)])
def test_reader_errors_name_the_first_bad_line(tmp_path, name):
    path = tmp_path / "shard.csv"
    path.write_bytes(_CORPUS[name][0].encode())
    line = _first_bad_line(tmp_path, path.read_bytes())
    assert line > 1
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
        read_index_shard(path, path.read_bytes())


@pytest.mark.parametrize("row", [
    " 8,3,2,0,", "+8,3,2,0,", "8,3,2,0 ,", "8,7,6,1,2: 1",
    "1000000000000000000,3,2,0,", "8,7,6,1,2:1000000000000000000", "٥,7,6,0,",
])
def test_reader_refuses_integers_the_writer_never_writes(tmp_path, row):
    # int() reads each of these rows (whitespace, a sign, 19 digits, a
    # non-ASCII digit); the reader holds to -?[0-9]{1,18}, as written
    path = tmp_path / "shard.csv"
    path.write_bytes(f"{_HEADER}5,3,2,0,\n{row}\n".encode())
    assert len(_oracle_read(path)) == 2
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        read_index_shard(path, path.read_bytes())


def test_reader_takes_integers_of_up_to_18_digits(tmp_path):
    path = tmp_path / "shard.csv"
    path.write_bytes(f"{_HEADER}5,3,2,0,\n{'9' * 18},7,6,1,2:-{'9' * 18}\n".encode())
    assert list(read_index_shard(path, path.read_bytes())) == _oracle_read(path)
    assert read_index_shard(path, path.read_bytes()).valuation.tolist() == [-(10**18 - 1)]


# a byte edit of a shard: insert, delete or replace at a position taken
# modulo the length, with a byte of the grammar or any other
_edits = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**4),
                            st.one_of(st.sampled_from(b"0123456789,:;-\r\n"), st.integers(0, 255))),
                  min_size=1, max_size=3)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_index_records(), _edits)
def test_reader_refuses_whatever_the_oracle_refuses(tmp_path, records, edits):
    # what the reader accepts, the oracle accepts as the same records; what
    # the oracle refuses, the reader refuses naming the file.  The reader
    # may also refuse what int() tolerates, such as whitespace or "+".
    path = tmp_path / "shard.csv"
    write_index_shard(path, IndexColumns.from_records(records))
    data = bytearray(path.read_bytes())
    for op, at, byte in edits:
        at %= len(data) + (op == "insert")
        if op == "insert":
            data.insert(at, byte)
        elif op == "delete":
            del data[at]
        else:
            data[at] = byte
    path.write_bytes(bytes(data))
    try:
        expected = _oracle_read(path)
    except (ValueError, csv.Error):
        expected = None
    try:
        got = list(read_index_shard(path, path.read_bytes()))
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return
    assert got == expected


def test_index_shard_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_index_shard(path, path.read_bytes())


def test_pairs_round_trip(tmp_path):
    records = [IndexRecord(24, 3, 2, "chi", ((2, 1),)), IndexRecord(5, 37, 36, "chi", ((32, 2),))]
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, IndexColumns.from_records(records))
    assert path.read_text().splitlines() == ["p,two_m,D,valuation", "3,2,24,1", "37,32,5,2"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_index_records())
def test_pairs_csv_is_what_csv_writer_writes(tmp_path, records):
    # one p,two_m,D,valuation row per hit, line ends included
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, IndexColumns.from_records(records))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(PAIR_HEADER)
    for rec in records:
        writer.writerows([rec.prime, two_m, rec.discriminant, v] for two_m, v in rec.hits)
    assert path.read_bytes() == expected.getvalue().encode()


def test_manifest_round_trip(tmp_path):
    manifest = ScanManifest(
        kind="grid",
        params={"dmax": "2000", "pmax": "100"},
        shards=[
            ShardEntry("a.csv", 2, 1000, "ab12", True),
            ShardEntry("b.csv", 1000, 2000, "", False),
        ],
    )
    write_manifest(tmp_path, manifest)
    back = read_manifest(tmp_path)
    assert back.kind == "grid"
    assert back.params == manifest.params
    assert back.shards == manifest.shards
    assert not back.complete
    back.validate_partition()


@pytest.mark.parametrize("attrs, entry", [
    ("complete=1 sha256=ab12 hi=2000 lo=1000", ShardEntry("b.csv", 1000, 2000, "ab12", True)),
    ("lo=1000 hi=2000 size=9 sha256=ab12 complete=1", ShardEntry("b.csv", 1000, 2000, "ab12", True)),
    ("lo=7 lo=1000 hi=2000 complete=1 complete=0", ShardEntry("b.csv", 1000, 2000, "", False)),
    ("lo=1000 hi=2000 sha256=ab12", ShardEntry("b.csv", 1000, 2000, "ab12", False)),
    ("lo=1000 hi=2000 sha256=- complete=1", ShardEntry("b.csv", 1000, 2000, "", True)),
    ("", ShardEntry("b.csv", 0, 0, "", False)),
], ids=["reordered", "unknown-key", "repeated-key", "no-complete", "no-digest", "no-attributes"])
def test_manifest_shard_attributes(tmp_path, attrs, entry):
    (tmp_path / "manifest.txt").write_text(f"kind=grid\nparam.dmax=2000\nshards=1\n"
                                           f"shard.0000=b.csv {attrs}\n")
    assert read_manifest(tmp_path).shards == [entry]


@pytest.mark.parametrize("line, problem", [
    ("shard.0001=b.csv lo=x hi=2000 sha256=- complete=0", "invalid literal"),
    ("shard.0001=b.csv lo=1000 hi=2000 sha256=- complete=yes", "invalid literal"),
    ("shard.0001=", "not enough values"),
])
def test_manifest_parse_errors_name_the_line(tmp_path, line, problem):
    manifest = ScanManifest("grid", {"dmax": "2000", "pmax": "100"},
                            [ShardEntry("a.csv", 2, 1000), ShardEntry("b.csv", 1000, 2000)])
    write_manifest(tmp_path, manifest)
    path = tmp_path / "manifest.txt"
    lines = path.read_text().splitlines()
    assert lines[5].startswith("shard.0001=")  # kind, two params, the count, then the shards
    lines[5] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: .*{problem}"):
        read_manifest(tmp_path)
    assert main(["report", "--table", "2", "--input", str(tmp_path)]) == 2
    assert main(["scan", "--kind", "grid", "--dmax", "2000", "--pmax", "100",
                 "--out", str(tmp_path), "--resume"]) == 2


def test_load_records_needs_a_manifest(tmp_path):
    with pytest.raises(IncompleteScanError, match="no manifest"):
        load_records(tmp_path)
    with pytest.raises(IncompleteScanError, match="no manifest"):
        load_records(tmp_path, allow_partial=True)


def test_write_scan_resume_reproduces_the_scan(tmp_path):
    # three grid blocks; the resume recomputes the one whose shard was deleted
    plan = scan_plan("grid", dmax=2100, pmax=20)
    out = tmp_path / "scan"
    total = write_scan(plan, out)
    assert total == len(load_records(out)) > 0
    fresh = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / read_manifest(out).shards[1].name).unlink()
    assert write_scan(plan, out, resume=True) == total
    assert {p.name: p.read_bytes() for p in out.iterdir()} == fresh
    assert write_scan(plan, out, resume=True) == total  # nothing left to compute


def test_write_scan_resume_computes_only_the_missing_block(tmp_path):
    plan = scan_plan("grid", dmax=2100, pmax=20)  # three blocks
    out = tmp_path / "scan"
    total = write_scan(plan, out)
    victim = read_manifest(out).shards[1]
    (out / victim.name).unlink()
    calls = []

    def counting(lo, hi):
        calls.append((lo, hi))
        return plan.task(lo, hi)

    assert write_scan(replace(plan, task=counting), out, resume=True) == total
    assert calls == [(victim.lo, victim.hi)]


# the params of the one-shard grid scans over D in [2, 10) below
_GRID_PARAMS = {"dmax": "10", "pmax": "100"}


def test_load_records_requires_completion(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, IndexColumns.from_records(_records()))
    manifest = ScanManifest(
        kind="grid",
        params=_GRID_PARAMS,
        shards=[ShardEntry("s.csv", 2, 10, file_digest(shard.read_bytes()), False)],
    )
    write_manifest(tmp_path, manifest)
    with pytest.raises(IncompleteScanError):
        load_records(tmp_path)
    assert _same_columns(load_records(tmp_path, allow_partial=True), IndexColumns.from_records([]))
    manifest.shards[0].complete = True
    write_manifest(tmp_path, manifest)
    assert list(load_records(tmp_path)) == _records()


@pytest.mark.parametrize("name", [name for name, (text, accepted) in _CORPUS.items() if accepted])
def test_load_records_reads_what_the_reader_reads(tmp_path, name):
    # the rows and hits counted before the parse size the columns, in every
    # line-end form the reader accepts
    data = _CORPUS[name][0].encode()
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    entry = ShardEntry("s.csv", 2, 10, file_digest(data), True)
    write_manifest(tmp_path, ScanManifest("grid", _GRID_PARAMS, [entry]))
    assert _same_columns(load_records(tmp_path), read_index_shard(path, data))


def test_load_records_checks_every_digest_before_any_parse(tmp_path):
    # the first shard does not parse; the second was changed after its digest
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text(_CORPUS["duplicate"][0])  # line 3 repeats (5, 3)
    write_index_shard(second, IndexColumns.from_records(_records()[2:]))  # D = 8
    entries = [ShardEntry(path.name, lo, hi, file_digest(path.read_bytes()), True)
               for path, lo, hi in [(first, 2, 6), (second, 6, 10)]]
    write_manifest(tmp_path, ScanManifest("grid", _GRID_PARAMS, entries))
    written = second.read_bytes()
    second.write_bytes(written.replace(b"2:1", b"2:2"))
    with pytest.raises(ValueError, match="digest mismatch for shard b.csv"):
        load_records(tmp_path)
    second.write_bytes(written)
    with pytest.raises(ValueError, match=f"^{re.escape(str(first))}:3: "):
        load_records(tmp_path)


def test_load_records_joins_no_parsed_shards(tmp_path, monkeypatch):
    # each shard is parsed into its slice of columns allocated once, so from
    # the end of the last parse the traced peak stays near the columns; a
    # concatenation of the parsed shards would hold them twice
    out = tmp_path / "scan"
    write_scan(scan_plan("grid", dmax=2100, pmax=20), out)  # three blocks
    parse = shards.read_index_shard

    def parse_then_reset(path, data):
        cols = parse(path, data)
        tracemalloc.reset_peak()
        return cols

    monkeypatch.setattr(shards, "read_index_shard", parse_then_reset)
    tracemalloc.start()
    try:
        cols = load_records(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(cols, name).nbytes for name in _COLUMNS)
    assert len(cols) > 4000 and peak < 1.5 * columns, (peak, columns)


def test_load_records_checks_digest(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, IndexColumns.from_records(_records()))
    manifest = ScanManifest(
        kind="grid", params=_GRID_PARAMS, shards=[ShardEntry("s.csv", 2, 10, "0" * 64, True)]
    )
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError):
        load_records(tmp_path)


def test_load_records_requires_digest_of_complete_shard(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, IndexColumns.from_records(_records()))
    manifest = ScanManifest(kind="grid", params=_GRID_PARAMS,
                            shards=[ShardEntry("s.csv", 2, 10, "", True)])
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError, match="no digest"):
        load_records(tmp_path)


def _complete_scan(directory, kind, lo, hi, lines):
    """A one-shard scan whose manifest digest matches the given shard lines."""
    shard = directory / "s.csv"
    shard.write_text("".join(line + "\n" for line in lines))
    params = {"disc": "5", "pmax": str(hi)} if kind == "fixed-disc" else {"dmax": str(hi), "pmax": "100"}
    entry = ShardEntry("s.csv", lo, hi, file_digest(shard.read_bytes()), True)
    manifest = ScanManifest(kind, params, [entry])
    write_manifest(directory, manifest)


def test_load_records_rejects_rows_out_of_order(tmp_path):
    write_index_shard(tmp_path / "s.csv", IndexColumns.from_records(_records()))
    header, *rows = (tmp_path / "s.csv").read_text().splitlines()
    rows[1], rows[2] = rows[2], rows[1]
    _complete_scan(tmp_path, "grid", 2, 10, [header, *rows])
    with pytest.raises(ValueError, match="does not follow"):
        load_records(tmp_path)


@pytest.mark.parametrize("kind, lo, hi", [("grid", 2, 8), ("fixed-disc", 3, 7)])
def test_load_records_rejects_records_outside_the_shard(tmp_path, kind, lo, hi):
    # D = 8 lies outside the grid shard [2, 8), p = 7 outside the fixed-disc shard [3, 7)
    write_index_shard(tmp_path / "s.csv", IndexColumns.from_records(_records()))
    _complete_scan(tmp_path, kind, lo, hi, (tmp_path / "s.csv").read_text().splitlines())
    with pytest.raises(ValueError, match="outside"):
        load_records(tmp_path)


@pytest.mark.parametrize("listed", [[0, 2], [0, 0, 1, 2], [1, 2], [0, 1]],
                         ids=["gap", "repeat", "no-first", "no-last"])
def test_load_records_requires_a_partition(tmp_path, listed):
    # a fixed-disc scan of D = 5 over p in [3, 30), one shard per span; the manifest
    # drops the middle, first or last shard or lists the first one twice, every
    # digest valid
    params = {"disc": "5", "pmax": "30"}
    entries = []
    for i, (lo, hi) in enumerate([(3, 10), (10, 20), (20, 30)]):
        path = tmp_path / f"s{i}.csv"
        primes = [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29) if lo <= p < hi]
        write_index_shard(path, IndexColumns.from_records(
            [IndexRecord(5, p, p - 1, "chi", ()) for p in primes]))
        entries.append(ShardEntry(path.name, lo, hi, file_digest(path.read_bytes()), True))
    write_manifest(tmp_path, ScanManifest("fixed-disc", params, entries))
    assert len(load_records(tmp_path)) == 9
    write_manifest(tmp_path, ScanManifest("fixed-disc", params, [entries[i] for i in listed]))
    with pytest.raises(ValueError, match="partition"):
        load_records(tmp_path)
    assert main(["report", "--table", "1", "--input", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "kind, params, problem",
    [("grid", {"pmax": "100"}, "no dmax"), ("fixed-disc", {"disc": "5"}, "no pmax"),
     ("grid", {"dmax": "2000", "pmax": "100"}, "partition")],
    ids=["grid-no-end", "fixed-disc-no-end", "no-last"],
)
def test_load_records_requires_the_scan_end(tmp_path, kind, params, problem):
    # a scan over [start, 2000) of which the manifest lists only the shard up
    # to 1000; without an end in the params the scan range has no end to check
    write_index_shard(tmp_path / "a.csv", IndexColumns.from_records(_records()))
    lo = 3 if kind == "fixed-disc" else 2
    entry = ShardEntry("a.csv", lo, 1000, file_digest((tmp_path / "a.csv").read_bytes()), True)
    manifest = ScanManifest(kind, params, [entry])
    with pytest.raises(ValueError, match=problem):
        manifest.validate_partition()
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError, match=problem):
        load_records(tmp_path)


@pytest.mark.parametrize(
    "row, problem",
    [("5,7,6,2,2:1", "index 2 but 1 hits"), ("5,7,6,0", "expected 5 fields"),
     ("5,7,6,1,2:1,x", "expected 5 fields")],
)
def test_index_shard_rejects_inconsistent_rows(tmp_path, row, problem):
    path = tmp_path / "shard.csv"
    path.write_text(f"D,p,delta,index,hits\n5,3,2,0,\n{row}\n")
    with pytest.raises(ValueError, match=problem):
        read_index_shard(path, path.read_bytes())


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "x.csv"
    write_index_shard(path, IndexColumns.from_records(_records()))
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


@pytest.fixture
def shard_reads(monkeypatch, tmp_path):
    """reads() is the Counter of the .csv files opened for reading since the
    last call, by name, in this process and the pool workers it forks.

    open() and io.open (the one pathlib's read_bytes and read_text go
    through) are wrapped; each read appends the file's name to a log.
    """
    log = tmp_path / "reads.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counted(original):
        def wrapper(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file).endswith(".csv") \
                    and not set(mode) & set("wax+"):
                os.write(fd, f"{Path(file).name}\n".encode())
            return original(file, mode, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(builtins, "open", counted(builtins.open))
    monkeypatch.setattr(io, "open", counted(io.open))

    def reads():
        names = log.read_text().split()
        os.truncate(log, 0)
        return Counter(names)

    try:
        probe = tmp_path / "probe.csv"
        probe.write_bytes(b"")
        probe.read_bytes()
        with open(probe) as fh:
            fh.read()
        assert reads() == {"probe.csv": 2}  # the wrappers see both kinds of read
        yield reads
    finally:
        os.close(fd)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_operation_reads_a_shard_once(tmp_path, shard_reads, workers):
    plan = scan_plan("grid", dmax=2100, pmax=20)  # three blocks
    out = tmp_path / "scan"
    total = write_scan(plan, out, workers=workers)
    assert shard_reads() == {}  # a scan reads back none of the shards it wrote
    once = {entry.name: 1 for entry in read_manifest(out).shards}
    assert len(once) == 3
    assert len(load_records(out)) == total
    assert shard_reads() == once
    assert write_scan(plan, out, workers=workers, resume=True) == total  # nothing to compute
    assert shard_reads() == once
    for entry in read_manifest(out).shards:
        assert entry.digest == hashlib.sha256((out / entry.name).read_bytes()).hexdigest()
