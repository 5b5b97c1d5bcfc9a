import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadzeta.cli import main
from quadzeta.irregularity import IndexRecord, IrregularPair
from quadzeta.shards import (
    IncompleteScanError,
    ScanManifest,
    ShardEntry,
    file_digest,
    format_hits,
    load_records,
    parse_hits,
    read_index_shard,
    read_manifest,
    write_index_shard,
    write_manifest,
    write_pairs_csv,
)


def _records():
    return [
        IndexRecord(5, 3, 2, "chi", ()),
        IndexRecord(5, 7, 6, "chi", ((2, 1), (4, 2))),
        IndexRecord(8, 3, 2, "chi", ((2, 1),)),
    ]


def test_hits_round_trip():
    assert format_hits(()) == ""
    assert format_hits(((2, 1), (32, 7))) == "2:1;32:7"
    assert parse_hits("2:1;32:7") == ((2, 1), (32, 7))
    assert parse_hits("") == ()


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
    write_index_shard(path, records)
    assert read_index_shard(path) == records
    header = path.read_text().splitlines()[0]
    assert header == "D,p,delta,index,hits"
    for rec in records:
        assert parse_hits(format_hits(rec.hits)) == rec.hits


def test_index_shard_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_index_shard(path)


def test_pairs_round_trip(tmp_path):
    pairs = [IrregularPair(3, 2, 24, 1), IrregularPair(37, 32, 5, 2)]
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, pairs)
    assert path.read_text().splitlines() == ["p,two_m,D,valuation", "3,2,24,1", "37,32,5,2"]


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


# the params of the one-shard grid scans over D in [2, 10) below
_GRID_PARAMS = {"dmax": "10", "pmax": "100"}


def test_load_records_requires_completion(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, _records())
    manifest = ScanManifest(
        kind="grid",
        params=_GRID_PARAMS,
        shards=[ShardEntry("s.csv", 2, 10, file_digest(shard), False)],
    )
    write_manifest(tmp_path, manifest)
    with pytest.raises(IncompleteScanError):
        load_records(tmp_path)
    assert load_records(tmp_path, allow_partial=True) == []
    manifest.shards[0].complete = True
    write_manifest(tmp_path, manifest)
    assert load_records(tmp_path) == _records()


def test_load_records_checks_digest(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, _records())
    manifest = ScanManifest(
        kind="grid", params=_GRID_PARAMS, shards=[ShardEntry("s.csv", 2, 10, "0" * 64, True)]
    )
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError):
        load_records(tmp_path)


def test_load_records_requires_digest_of_complete_shard(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, _records())
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
    manifest = ScanManifest(kind, params, [ShardEntry("s.csv", lo, hi, file_digest(shard), True)])
    write_manifest(directory, manifest)


def test_load_records_rejects_rows_out_of_order(tmp_path):
    write_index_shard(tmp_path / "s.csv", _records())
    header, *rows = (tmp_path / "s.csv").read_text().splitlines()
    rows[1], rows[2] = rows[2], rows[1]
    _complete_scan(tmp_path, "grid", 2, 10, [header, *rows])
    with pytest.raises(ValueError, match="does not follow"):
        load_records(tmp_path)


@pytest.mark.parametrize("kind, lo, hi", [("grid", 2, 8), ("fixed-disc", 3, 7)])
def test_load_records_rejects_records_outside_the_shard(tmp_path, kind, lo, hi):
    # D = 8 lies outside the grid shard [2, 8), p = 7 outside the fixed-disc shard [3, 7)
    write_index_shard(tmp_path / "s.csv", _records())
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
        write_index_shard(path, [IndexRecord(5, p, p - 1, "chi", ()) for p in primes])
        entries.append(ShardEntry(path.name, lo, hi, file_digest(path), True))
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
    write_index_shard(tmp_path / "a.csv", _records())
    lo = 3 if kind == "fixed-disc" else 2
    entry = ShardEntry("a.csv", lo, 1000, file_digest(tmp_path / "a.csv"), True)
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
        read_index_shard(path)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "x.csv"
    write_index_shard(path, _records())
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
