import hashlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from quadzeta import cli, irregularity, lvalues, shards, stats
from quadzeta.cli import main
from quadzeta.shards import MANIFEST_NAME, file_digest, load_records, read_manifest, write_manifest

# three blocks of GRID_BLOCK discriminants, so a scan at two or more workers uses a pool
SMALL_GRID = ["scan", "--kind", "grid", "--dmax", "2100", "--pmax", "20"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lvalue_exact(capsys):
    code, out, _ = run(capsys, "lvalue", "--disc", "5", "--m", "1")
    assert code == 0 and out.strip() == "-2/5"
    code, out, _ = run(capsys, "lvalue", "--disc", "8", "--m", "2")
    assert code == 0 and out.strip() == "11"


def test_lvalue_rejects_non_fundamental(capsys):
    code, _, err = run(capsys, "lvalue", "--disc", "9", "--m", "1")
    assert code == 2 and "fundamental" in err


def test_lvalue_mod_violations(capsys):
    code, _, _ = run(capsys, "lvalue", "--disc", "5", "--m", "1", "--mod", "5")
    assert code == 2
    code, _, _ = run(capsys, "lvalue", "--disc", "8", "--m", "2", "--mod", "3")
    assert code == 2  # 2m > p - 1 is a usage error at the CLI
    code, out, _ = run(capsys, "lvalue", "--disc", "5", "--m", "1", "--mod", "7")
    assert code == 0 and out.strip() == "1"


def test_zeta_command(capsys):
    code, out, _ = run(capsys, "zeta", "--disc", "5", "--m", "1")
    assert code == 0 and out.strip() == "1/30"
    code, _, _ = run(capsys, "zeta", "--disc", "5", "--m", "1", "--mod", "7")
    assert code == 2


def test_index_command(capsys):
    code, out, _ = run(capsys, "index", "--disc", "24", "--p", "3")
    assert code == 0 and "index=1" in out and "hits=2:1" in out
    code, out, _ = run(capsys, "index", "--p", "37", "--kind", "classical")
    assert code == 0 and "index=1" in out
    code, _, _ = run(capsys, "index", "--disc", "24", "--p", "9")
    assert code == 2


def test_stats_command(capsys):
    code, out, _ = run(capsys, "stats", "--chi2", "0.29", "--df", "3")
    assert code == 0 and abs(float(out) - 0.962) < 0.002
    code, out, _ = run(capsys, "stats", "--limit-fraction", "0")
    assert code == 0 and out.strip() == "0.606531"
    code, _, _ = run(capsys, "stats", "--chi2", "1.0")
    assert code == 2


def test_scan_validation_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "scan", "--kind", "million", "--dmax", "1000",
                     "--primes", "3,7", "--out", str(tmp_path))
    assert code == 2
    code, _, _ = run(capsys, "scan", "--kind", "fixed-disc", "--disc", "9",
                     "--pmax", "100", "--out", str(tmp_path))
    assert code == 2
    code, _, _ = run(capsys, "scan", "--kind", "grid", "--pmax", "100",
                     "--out", str(tmp_path))
    assert code == 2


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("smallgrid")
    code = main([*SMALL_GRID, "--out", str(out)])
    assert code == 0
    return out


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_scan_writes_shards_and_manifest(small_grid):
    manifest = read_manifest(small_grid)
    assert manifest.kind == "grid"
    assert manifest.complete
    names = sorted(p.name for p in small_grid.iterdir())
    assert MANIFEST_NAME in names and len(manifest.shards) == 3
    assert all(n == MANIFEST_NAME or n.endswith(".csv") for n in names)


def test_scan_worker_counts_byte_identical(tmp_path, small_grid):
    for workers in ("4", "16"):
        out = tmp_path / f"w{workers}"
        assert main([*SMALL_GRID, "--out", str(out), "--workers", workers]) == 0
        assert files(out) == files(small_grid)


def test_scan_resume_is_byte_identical(tmp_path, small_grid):
    out = tmp_path / "resume"
    assert main([*SMALL_GRID, "--out", str(out)]) == 0
    # drop one shard and mark it incomplete, then resume
    manifest = read_manifest(out)
    victim = manifest.shards[0]
    (out / victim.name).unlink()
    victim.complete = False
    victim.digest = ""
    write_manifest(out, manifest)
    assert main([*SMALL_GRID, "--out", str(out), "--resume"]) == 0
    assert files(out) == files(small_grid)


@pytest.mark.parametrize("workers", [1, 2])
def test_shards_are_written_where_blocks_are_computed(tmp_path, monkeypatch, small_grid, workers):
    log = tmp_path / "writer-pids.txt"
    write = shards.write_index_shard

    def logged(path, records):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return write(path, records)

    monkeypatch.setattr(shards, "write_index_shard", logged)
    out = tmp_path / "out"
    assert main([*SMALL_GRID, "--out", str(out), "--workers", str(workers)]) == 0
    pids = [int(line) for line in log.read_text().split()]
    assert len(pids) == 3
    if workers == 1:
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids
    assert files(out) == files(small_grid)


def test_failing_worker_leaves_a_resumable_directory(capsys, tmp_path, monkeypatch, small_grid):
    reference = read_manifest(small_grid).shards
    victim = reference[1].name
    write = shards.write_index_shard

    def failing(path, records):
        if Path(path).name == victim:
            raise OSError(f"no space left writing {victim}")
        return write(path, records)

    monkeypatch.setattr(shards, "write_index_shard", failing)
    out = tmp_path / "out"
    code, _, err = run(capsys, *SMALL_GRID, "--out", str(out), "--workers", "2")
    assert code == 2 and err.startswith("error: no space left"), err
    left = read_manifest(out).shards
    assert [s.complete for s in left[:2]] == [True, False]
    assert left[0].digest == reference[0].digest == file_digest((out / left[0].name).read_bytes())
    monkeypatch.undo()
    assert main([*SMALL_GRID, "--out", str(out), "--resume", "--workers", "2"]) == 0
    assert files(out) == files(small_grid)


def test_dead_worker_exits_3_and_leaves_a_resumable_directory(capsys, tmp_path, monkeypatch,
                                                             small_grid):
    # a lost task used to hang the scan forever, so the alarm fails the test
    # instead; the workers past block 0 die once the manifest has block 0
    # complete, whichever worker runs which block
    out = tmp_path / "out"
    grid = irregularity.compute_grid_block

    def dying(d_lo, d_hi, primes):
        if d_lo == 2:
            return grid(d_lo, d_hi, primes)
        deadline = time.monotonic() + 30
        while not read_manifest(out).shards[0].complete and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(3)

    def stalled(signum, frame):
        raise TimeoutError("the scan still waits on a dead worker after 60 s")

    monkeypatch.setattr(irregularity, "compute_grid_block", dying)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        code, _, err = run(capsys, *SMALL_GRID, "--out", str(out), "--workers", "2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and err.startswith("error: a scan worker died"), err
    assert "--resume" in err and len(err.splitlines()) == 1
    assert multiprocessing.active_children() == []
    left = read_manifest(out).shards
    assert [s.complete for s in left] == [True, False, False]
    assert left[0].digest == read_manifest(small_grid).shards[0].digest
    monkeypatch.undo()
    assert main([*SMALL_GRID, "--out", str(out), "--resume", "--workers", "2"]) == 0
    assert files(out) == files(small_grid)


@pytest.mark.parametrize("argv, call", [
    (["lvalue", "--disc", "5", "--m", "1"], (lvalues, "l_chi_exact")),
    (["index", "--disc", "5", "--p", "7"], (irregularity, "character_values")),
])
def test_allocation_failure_is_a_usage_error(capsys, monkeypatch, argv, call):
    # as numpy raises for --disc 1000000000001, without allocating here
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(*call, too_large)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_resume_rewrites_a_shard_written_ahead_of_the_manifest(tmp_path, small_grid):
    # a killed parent can leave shards its workers wrote past the manifest,
    # and a killed worker a temp file
    out = tmp_path / "ahead"
    assert main([*SMALL_GRID, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    for entry in manifest.shards[1:]:  # two pending blocks, so the resume uses a pool
        entry.complete = False
        entry.digest = ""
    ahead = manifest.shards[-1]
    write_manifest(out, manifest)
    (out / ahead.name).write_bytes(b"garbage\r\n")
    (out / (ahead.name + ".tmp")).write_bytes(b"D,p,del")
    assert main([*SMALL_GRID, "--out", str(out), "--resume", "--workers", "2"]) == 0
    assert files(out) == files(small_grid)
    assert not list(out.glob("*.tmp"))


def test_scan_prints_the_record_total(capsys, tmp_path):
    # fixed-disc D = 5, p < 2500: three shards; the resume rewrites the middle one
    argv = ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "2500", "--out", str(tmp_path)]
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    total = len(load_records(tmp_path))
    assert fresh == f"scan fixed-disc complete: 3 shards, {total} records\n"
    manifest = read_manifest(tmp_path)
    (tmp_path / manifest.shards[1].name).unlink()
    manifest.shards[1].complete = False
    write_manifest(tmp_path, manifest)
    code, resumed, _ = run(capsys, *argv, "--resume")
    assert code == 0 and resumed == fresh
    assert len(load_records(tmp_path)) == total


def test_resume_with_other_parameters_is_refused(capsys, tmp_path):
    out = tmp_path / "other"
    assert main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                 "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, _, err = run(capsys, "scan", "--kind", "grid", "--dmax", "400", "--pmax", "20",
                       "--out", str(out), "--resume")
    assert code == 2
    assert "dmax=300 pmax=20" in err and "dmax=400 pmax=20" in err
    code, _, err = run(capsys, "scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "20",
                       "--out", str(out), "--resume")
    assert code == 2 and "grid scan" in err and "fixed-disc scan" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


FIXED_200 = ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "200"]


@pytest.mark.parametrize("first, second", [
    (SMALL_GRID, FIXED_200),
    (FIXED_200, ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "300"]),
], ids=["other-kind", "other-params"])
def test_scan_into_a_directory_of_another_scan_is_refused(capsys, tmp_path, first, second):
    # a scan would leave the other scan's shards behind, named by no manifest
    out = tmp_path / "taken"
    assert main([*first, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, _, err = run(capsys, *second, "--out", str(out))
    assert code == 2 and err.startswith(f"error: {out} holds a "), err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the same scan again, without --resume, rewrites the directory in place
    assert main([*first, "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_scan_stops_at_a_manifest_it_cannot_parse(capsys, tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("kind=grid\nshard.0000=x.csv lo=two\n")
    code, _, err = run(capsys, *SMALL_GRID, "--out", str(tmp_path))
    assert code == 2 and f"{tmp_path / MANIFEST_NAME}:2: " in err, err
    assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]


@pytest.mark.parametrize("argv", [
    ["report", "--table", "2", "--input"],
    [*SMALL_GRID, "--resume", "--out"],
], ids=["report", "resume"])
def test_a_manifest_that_is_not_utf8_is_named(capsys, tmp_path, argv):
    path = tmp_path / MANIFEST_NAME
    path.write_bytes(b"\xffkind=grid\n")
    code, _, err = run(capsys, *argv, str(tmp_path))
    assert code == 2 and err.startswith(f"error: {path} is not UTF-8 text: "), err
    assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]


def test_scan_with_no_prime_in_the_list_is_refused(capsys, tmp_path):
    out = tmp_path / "none"
    code, _, err = run(capsys, "scan", "--kind", "grid", "--dmax", "2000", "--primes", ",",
                       "--out", str(out))
    assert code == 2 and err == "error: grid scan has no odd prime to test\n", err
    assert not out.exists()


def test_scan_sorts_and_deduplicates_the_prime_list(tmp_path):
    out = tmp_path / "primes"
    assert main(["scan", "--kind", "grid", "--dmax", "2000", "--primes", "7,3,7",
                 "--out", str(out)]) == 0
    assert "param.primes=3,7\n" in (out / MANIFEST_NAME).read_text()


def test_report_requires_complete_manifest(capsys, tmp_path, small_grid):
    out = tmp_path / "partial"
    assert main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                 "--out", str(out)]) == 0
    manifest = read_manifest(out)
    manifest.shards[0].complete = False
    from quadzeta.shards import write_manifest

    write_manifest(out, manifest)
    code, _, err = run(capsys, "report", "--input", str(out), "--table", "2")
    assert code == 3
    code, _, _ = run(capsys, "report", "--input", str(out), "--table", "2",
                     "--allow-partial")
    assert code == 0


@pytest.mark.parametrize("partial", [[], ["--allow-partial"]], ids=["strict", "allow-partial"])
def test_report_without_manifest_is_incomplete_input(capsys, tmp_path, partial):
    code, _, err = run(capsys, "report", "--input", str(tmp_path), "--table", "2", *partial)
    assert code == 3 and err == f"error: no manifest in {tmp_path}\n", err


def test_report_table2_text_and_json(capsys, small_grid):
    code, out, _ = run(capsys, "report", "--input", str(small_grid), "--table", "2")
    assert code == 0
    assert "&" in out and "totals chi-squared" in out
    code, out, _ = run(capsys, "report", "--input", str(small_grid), "--table", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {"population", "categories", "chi_squared", "df", "significance"} <= payload.keys()
    assert {"r", "observed", "expected"} <= payload["categories"][0].keys()
    assert "averages" in payload


def test_report_ratios_and_residues(capsys, small_grid):
    code, out, _ = run(capsys, "report", "--input", str(small_grid), "--table",
                       "ratios", "--format", "json", "--bins", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["bins"] == 5 and payload["count"] >= 1
    # residue classes need a fixed-discriminant scan
    code, _, err = run(capsys, "report", "--input", str(small_grid), "--table",
                       "residues")
    assert code == 2 and "fixed-discriminant" in err


def test_report_histogram_direct_computation(capsys):
    code, out, _ = run(capsys, "report", "--table", "histogram", "--disc", "5", "--mod", "7",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["categories"]) == 7
    code, _, _ = run(capsys, "report", "--table", "histogram", "--disc", "5")
    assert code == 2


@pytest.mark.parametrize("d, p", [(5, 7), (8, 3), (13, 11), (1685, 31), (3869, 97)])
def test_histogram_matches_per_value_route(capsys, d, p):
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "report", "--table", "histogram",
                           "--disc", str(d), "--mod", str(p), "--format", fmt)
        assert code == 0
        residues = [lvalues.l_chi_mod(d, m, p) for m in range(1, (p - 1) // 2 + 1)]
        cli._emit_distribution(stats.residue_histogram(residues, p), fmt)
        assert out == capsys.readouterr().out
    # an independent reference: the exact values, reduced
    exact = [lvalues.l_chi_exact(d, m) for m in range(1, (p - 1) // 2 + 1)]
    assert residues == [q.numerator * pow(q.denominator, -1, p) % p for q in exact]


@pytest.fixture(scope="module")
def small_fixed(tmp_path_factory):
    out = tmp_path_factory.mktemp("smallfixed")
    assert main(["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "300",
                 "--out", str(out)]) == 0
    return out


def test_report_table1_and_residue_classes(capsys, small_fixed):
    code, out, _ = run(capsys, "report", "--input", str(small_fixed), "--table", "1")
    assert code == 0 and "predicted fraction" in out
    code, out, _ = run(capsys, "report", "--input", str(small_fixed), "--table",
                       "residues", "--classes-mod", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["categories"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["index", "--p", "7"], id="index-chi-without-disc"),
        pytest.param(["index", "--kind", "d", "--p", "7"], id="index-d-without-disc"),
        pytest.param(["index", "--kind", "classical", "--disc", "9", "--p", "37"],
                     id="index-classical-with-disc"),
        pytest.param(["lvalue", "--disc", "9", "--m", "1"], id="lvalue-not-fundamental"),
        pytest.param(["lvalue", "--disc", "5", "--m", "1", "--mod", "5"], id="lvalue-p-divides-d"),
        pytest.param(["lvalue", "--disc", "5", "--m", "1", "--mod", "9"], id="lvalue-mod-not-prime"),
        pytest.param(["lvalue", "--disc", "8", "--m", "2", "--mod", "3"], id="lvalue-2m-beyond-p-1"),
        pytest.param(["report", "--table", "histogram", "--disc", "35", "--mod", "7"],
                     id="histogram-not-fundamental"),
        pytest.param(["report", "--table", "histogram", "--disc", "21", "--mod", "7"],
                     id="histogram-p-divides-d"),
        pytest.param(["report", "--input", "{scan}", "--table", "1", "--disc", "9", "--mod", "4",
                      "--bins", "1"], id="table1-with-histogram-and-ratio-flags"),
        pytest.param(["report", "--input", "{scan}", "--table", "1", "--disc", "5"],
                     id="disc-outside-histogram"),
        pytest.param(["report", "--input", "{scan}", "--table", "residues", "--mod", "7"],
                     id="mod-outside-histogram"),
        pytest.param(["report", "--table", "histogram", "--disc", "5", "--mod", "7",
                      "--bins", "5"], id="bins-outside-ratios"),
        pytest.param(["report", "--input", "{scan}", "--table", "1", "--bins", "0"],
                     id="bins-0-outside-ratios"),
        pytest.param(["report", "--input", "{scan}", "--table", "ratios", "--classes-mod", "4"],
                     id="classes-mod-outside-residues"),
        pytest.param(["report", "--input", "{scan}", "--table", "residues", "--pmax-cutoff",
                      "100"], id="pmax-cutoff-outside-table1"),
        pytest.param(["report", "--input", "{scan}", "--table", "histogram", "--disc", "5",
                      "--mod", "7"], id="input-with-histogram"),
        pytest.param(["report", "--input", "/nonexistent-dir", "--table", "histogram", "--disc",
                      "5", "--mod", "7", "--allow-partial"],
                     id="input-and-allow-partial-with-histogram"),
        pytest.param(["report", "--table", "histogram", "--disc", "5", "--mod", "7",
                      "--allow-partial"], id="allow-partial-with-histogram"),
        pytest.param(["scan", "--kind", "grid", "--pmax", "100", "--out", "{out}"],
                     id="grid-without-dmax"),
        pytest.param(["scan", "--kind", "million", "--dmax", "100", "--pmax", "7", "--out", "{out}"],
                     id="million-with-pmax"),
        pytest.param(["scan", "--kind", "grid", "--dmax", "2", "--pmax", "10", "--out", "{out}"],
                     id="grid-empty-range"),
        pytest.param(["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "3", "--out",
                      "{out}"], id="fixed-disc-empty-range"),
        pytest.param(["scan", "--kind", "grid", "--dmax", "100", "--pmax", "3", "--out", "{out}"],
                     id="grid-no-odd-prime"),
        pytest.param(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20", "--out", "{out}",
                      "--workers", "0"], id="workers-0"),
        pytest.param(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20", "--out", "{out}",
                      "--workers", "-1"], id="workers-negative"),
        pytest.param(["report", "--input", "{scan}", "--table", "3"],
                     id="table3-exact-prediction-beyond-p-100"),
        pytest.param(["survey", "--input", "{scan}", "--primes", "9"], id="survey-not-prime"),
    ],
)
def test_rejected_input_is_a_usage_error(capsys, tmp_path, small_fixed, argv):
    argv = [arg.format(scan=small_fixed, out=tmp_path / "out") for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", str(10**20)],
    ["scan", "--kind", "grid", "--dmax", str(10**20), "--primes", "3"],
    ["scan", "--kind", "million", "--dmax", str(10**20)],
], ids=["fixed-disc", "grid", "million"])
def test_a_scan_of_too_many_blocks_exits_2_at_once(capsys, tmp_path, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert time.perf_counter() - start < 1
    assert code == 2 and err.startswith("error: scan range [") and "blocks" in err, err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_an_oversized_flag_is_a_usage_error(capsys, small_grid):
    # refused above stats.MAX_BINS, before numpy casts or allocates at that length
    for bins in (10**20, 10**7):
        code, _, err = run(capsys, "report", "--input", str(small_grid), "--table", "ratios",
                           "--bins", str(bins))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("table", ["1", "2", "3", "residues", "ratios"])
def test_shard_tables_need_input(capsys, table):
    code, _, err = run(capsys, "report", "--table", table)
    assert code == 2 and f"--table {table} needs --input" in err, err


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the stdout of the reports and surveys that read index columns,
# on the fixtures above, pinned from the row-by-row reader the columns replaced
_PINNED_REPORTS = {
    "table1-cutoff": ("small_fixed", ["--table", "1", "--pmax-cutoff", "200"], {
        "text": "6147e25d18acdb670c883f0e55fc61406095ba5e7fe469bab6a73a9fd8bd467c",
        "csv": "bab617bf59cc09cf8c4d74f41467a4ae313a09221996da78272f090603a90cdf",
        "json": "e3bc181a24e2878027e9853dce06c78e6f06d1c5779b35d3663ad9d7dfc860c7"}),
    "residues": ("small_fixed", ["--table", "residues"], {
        "text": "e0d2dfce45b3e5ce4a90b8711b6d376314a16684fc339544cb4b28d0071bb353",
        "csv": "932d132409651bec6e49f165adb9c863b2cedfb2087307d75dfc203014c90233",
        "json": "5b6cba65246f10000f3dd5b9f220e6d96090f5dfdf5c3e96b4714c2aa545210f"}),
    "residues-mod-3": ("small_fixed", ["--table", "residues", "--classes-mod", "3"], {
        "text": "1f998d8d46ba38dde2893adab00afe2a00f9844731726a4b88019e2729c7909d",
        "csv": "a4ed0ea3ab22a46f8202a27f273b1a3ae4ad351188c8a4c8f6a1563418938699",
        "json": "897e98fff137c7ca138d5209cae8eb30520485ec39baa42c076267d9b6efbd04"}),
    "ratios": ("small_grid", ["--table", "ratios"], {
        "text": "069f49cb30d298391c4b106f37418112047a98f9b190dadeb5370ae8c03769d8",
        "csv": "9c6ae9e0e1ad1f94e86b38e0bc19be6e1090923ab805d162644676ec1596b09a",
        "json": "c16180cca478985ee25cfd0823afd3a573c48a3956e3828bf9a89db935246caf"}),
    "ratios-bins-4": ("small_fixed", ["--table", "ratios", "--bins", "4"], {
        "text": "0714c969ce28e3f4e9af65e6c3943fe63c9b9595e2bb2d5b1021d61fa48a4ca9",
        "csv": "0bfa0cc52d33da3cdd9efe8b90854121770a90d65bdfb956e2158226845a243a",
        "json": "b6fe1f851651d41b9b1b3ecd84749428c3a293794dba31fc7ca51e0ccc20886f"}),
}


@pytest.mark.parametrize("name", list(_PINNED_REPORTS))
def test_column_reports_are_pinned(capsys, request, name):
    scan, argv, pinned = _PINNED_REPORTS[name]
    directory = request.getfixturevalue(scan)
    capsys.readouterr()  # a fixture made here prints its scan summary
    for fmt, digest in pinned.items():
        code, out, _ = run(capsys, "report", "--input", str(directory), *argv, "--format", fmt)
        assert code == 0 and _sha256(out) == digest, out


@pytest.mark.parametrize("scan, prime, printed, pairs", [
    ("small_fixed", "3", "45cd1e39665fe8cdbf3d3686707f39cb2421459fea1a4436b7823790cb9d7351",
     "3420a0c110224d4529458a5124ec17288f1dbf0d56abe8980fe270800c7c573f"),
    ("small_fixed", "5", "45cd1e39665fe8cdbf3d3686707f39cb2421459fea1a4436b7823790cb9d7351",
     "3420a0c110224d4529458a5124ec17288f1dbf0d56abe8980fe270800c7c573f"),
    ("small_grid", "3", "f5fead1089a263fc020ef02f82a6aeb6cdf8f62b9317c3101b73fe1cad565b77",
     "dc56061fec6581946326f88bb6480bcdf5d1fe06dc728e29bbf430b649a1e94b"),
    ("small_grid", "5", "b7cb0bac2baa39706fbee445eb81b58d645f6c0edc39f1980ffa4e9fbc4d2808",
     "dc56061fec6581946326f88bb6480bcdf5d1fe06dc728e29bbf430b649a1e94b"),
])
def test_survey_is_pinned(capsys, request, tmp_path, scan, prime, printed, pairs):
    directory = request.getfixturevalue(scan)
    capsys.readouterr()  # a fixture made here prints its scan summary
    pairs_out = tmp_path / "pairs.csv"
    code, out, _ = run(capsys, "survey", "--input", str(directory), "--primes", prime,
                       "--pairs-out", str(pairs_out))
    assert code == 0 and _sha256(out.replace(str(pairs_out), "PAIRS")) == printed, out
    assert _sha256(pairs_out.read_text()) == pairs


@pytest.mark.parametrize("table, fmt, digest", [
    ("1", "text", "6220df185102de1fad191bd3263d3d64603569a464623681b64a44733fa18f6c"),
    ("1", "json", "24488d5ad8658aceea1fec5f1ad9526b29a58e0fd5c36fc6a19348d0219fd065"),
    ("2", "text", "ba1f50ebae8e23f3e6740df02c48d01a36c33fff338058475be82c7634f42cc2"),
    ("2", "json", "0cd70e53157f2ec3ebff7988db785e08eac92b154a494fcaa86ebc70af7ac95d"),
    ("3", "text", "ba1f50ebae8e23f3e6740df02c48d01a36c33fff338058475be82c7634f42cc2"),
    ("3", "json", "0cd70e53157f2ec3ebff7988db785e08eac92b154a494fcaa86ebc70af7ac95d"),
])
def test_partial_report_without_a_complete_shard(capsys, tmp_path, small_grid, table, fmt,
                                                 digest):
    capsys.readouterr()  # a fixture made here prints its scan summary
    manifest = read_manifest(small_grid)
    for entry in manifest.shards:
        entry.complete = False
    write_manifest(tmp_path, manifest)
    code, out, _ = run(capsys, "report", "--input", str(tmp_path), "--table", table,
                       "--allow-partial", "--format", fmt)
    assert code == 0 and _sha256(out) == digest, out


def test_table1_cutoff_below_every_prime_is_the_empty_table(capsys, small_fixed):
    # --pmax-cutoff 3 keeps no row: the table of a scan without records; so
    # do 2 and 0, which is a cutoff like any other, not an absent flag
    capsys.readouterr()  # a fixture made here prints its scan summary
    for cutoff in ("3", "2", "0"):
        code, out, _ = run(capsys, "report", "--input", str(small_fixed), "--table", "1",
                           "--pmax-cutoff", cutoff)
        assert code == 0
        assert _sha256(out) == "6220df185102de1fad191bd3263d3d64603569a464623681b64a44733fa18f6c"


def test_survey_command(capsys, small_fixed, tmp_path):
    pairs_out = tmp_path / "pairs.csv"
    code, out, _ = run(capsys, "survey", "--input", str(small_fixed), "--primes", "3",
                       "--pairs-out", str(pairs_out))
    assert code == 0
    assert "max valuation" in out and "largest index" in out
    assert pairs_out.exists()
    assert pairs_out.read_text().splitlines()[0] == "p,two_m,D,valuation"


def test_million_smoke_via_cli(capsys, tmp_path):
    out = tmp_path / "mini"
    code, printed, _ = run(capsys, "scan", "--kind", "million", "--dmax", "30000",
                           "--primes", "3,5", "--out", str(out), "--workers", "2")
    assert code == 0
    code, text, _ = run(capsys, "report", "--input", str(out), "--table", "3")
    assert code == 0 and "totals chi-squared" in text


def test_gate_mismatch_exits_with_check_code(capsys, tmp_path, monkeypatch):
    from quadzeta import irregularity

    def mismatch(limit=1000):
        raise ArithmeticError("divisor-sum route disagrees at D=5, m=1")

    monkeypatch.setattr(irregularity, "validate_siegel_gate", mismatch)
    code, _, err = run(capsys, "scan", "--kind", "million", "--dmax", "3000",
                       "--out", str(tmp_path / "gate"))
    assert code == 4
    assert err.startswith("error: divisor-sum route disagrees")


def test_main_module_entry():
    import os, subprocess, sys
    from pathlib import Path

    import quadzeta

    # the child imports the package under test, installed or not
    src = str(Path(quadzeta.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entry for entry in path if entry)}
    proc = subprocess.run(
        [sys.executable, "-m", "quadzeta", "lvalue", "--disc", "13", "--m", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-2"
