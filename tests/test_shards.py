import pytest

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
    read_pairs_csv,
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


def test_index_shard_round_trip(tmp_path):
    path = tmp_path / "shard.csv"
    write_index_shard(path, _records())
    back = read_index_shard(path)
    assert back == _records()
    header = path.read_text().splitlines()[0]
    assert header == "D,p,delta,index,hits"


def test_index_shard_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_index_shard(path)


def test_pairs_round_trip(tmp_path):
    pairs = [IrregularPair(3, 2, 24, 1), IrregularPair(37, 32, 5, 2)]
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, pairs)
    assert read_pairs_csv(path) == pairs
    assert path.read_text().splitlines()[0] == "p,two_m,D,valuation"


def test_manifest_round_trip(tmp_path):
    manifest = ScanManifest(
        kind="grid",
        params={"dmax": "5000", "pmax": "100"},
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


def test_load_records_requires_completion(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, _records())
    manifest = ScanManifest(
        kind="grid",
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
        kind="grid", shards=[ShardEntry("s.csv", 2, 10, "0" * 64, True)]
    )
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError):
        load_records(tmp_path)


def test_load_records_requires_digest_of_complete_shard(tmp_path):
    shard = tmp_path / "s.csv"
    write_index_shard(shard, _records())
    manifest = ScanManifest(kind="grid", shards=[ShardEntry("s.csv", 2, 10, "", True)])
    write_manifest(tmp_path, manifest)
    with pytest.raises(ValueError, match="no digest"):
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
