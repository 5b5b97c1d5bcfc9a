import json

import pytest

from quadzeta import cli, lvalues, stats
from quadzeta.cli import main
from quadzeta.shards import MANIFEST_NAME, load_records, read_manifest, write_manifest


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
    code = main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                 "--out", str(out)])
    assert code == 0
    return out


def test_scan_writes_shards_and_manifest(small_grid):
    manifest = read_manifest(small_grid)
    assert manifest.kind == "grid"
    assert manifest.complete
    names = sorted(p.name for p in small_grid.iterdir())
    assert MANIFEST_NAME in names
    assert all(n == MANIFEST_NAME or n.endswith(".csv") for n in names)


def test_scan_worker_counts_byte_identical(tmp_path, small_grid):
    for workers in ("4", "16"):
        out = tmp_path / f"w{workers}"
        assert main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                     "--out", str(out), "--workers", workers]) == 0
        for shard in sorted(small_grid.glob("*.csv")):
            assert (out / shard.name).read_bytes() == shard.read_bytes()


def test_scan_resume_is_byte_identical(tmp_path, small_grid):
    out = tmp_path / "resume"
    assert main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                 "--out", str(out)]) == 0
    # drop one shard and mark it incomplete, then resume
    manifest = read_manifest(out)
    victim = manifest.shards[0]
    (out / victim.name).unlink()
    victim.complete = False
    victim.digest = ""
    from quadzeta.shards import write_manifest

    write_manifest(out, manifest)
    assert main(["scan", "--kind", "grid", "--dmax", "300", "--pmax", "20",
                 "--out", str(out), "--resume"]) == 0
    for shard in sorted(small_grid.glob("*.csv")):
        assert (out / shard.name).read_bytes() == shard.read_bytes()
    assert read_manifest(out).complete


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


def test_report_histogram_direct_computation(capsys, small_grid):
    code, out, _ = run(capsys, "report", "--input", str(small_grid), "--table",
                       "histogram", "--disc", "5", "--mod", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["categories"]) == 7
    code, _, _ = run(capsys, "report", "--input", str(small_grid), "--table",
                     "histogram", "--disc", "5")
    assert code == 2


@pytest.mark.parametrize("d, p", [(5, 7), (8, 3), (13, 11), (1685, 31), (3869, 97)])
def test_histogram_matches_per_value_route(capsys, small_grid, d, p):
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "report", "--input", str(small_grid), "--table", "histogram",
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
        pytest.param(["lvalue", "--disc", "9", "--m", "1"], id="lvalue-not-fundamental"),
        pytest.param(["lvalue", "--disc", "5", "--m", "1", "--mod", "5"], id="lvalue-p-divides-d"),
        pytest.param(["lvalue", "--disc", "5", "--m", "1", "--mod", "9"], id="lvalue-mod-not-prime"),
        pytest.param(["lvalue", "--disc", "8", "--m", "2", "--mod", "3"], id="lvalue-2m-beyond-p-1"),
        pytest.param(["report", "--input", "{scan}", "--table", "histogram", "--disc", "35",
                      "--mod", "7"], id="histogram-not-fundamental"),
        pytest.param(["report", "--input", "{scan}", "--table", "histogram", "--disc", "21",
                      "--mod", "7"], id="histogram-p-divides-d"),
        pytest.param(["scan", "--kind", "grid", "--pmax", "100", "--out", "{out}"],
                     id="grid-without-dmax"),
        pytest.param(["scan", "--kind", "million", "--dmax", "100", "--pmax", "7", "--out", "{out}"],
                     id="million-with-pmax"),
        pytest.param(["survey", "--input", "{scan}", "--primes", "9"], id="survey-not-prime"),
    ],
)
def test_rejected_input_is_a_usage_error(capsys, tmp_path, small_fixed, argv):
    argv = [arg.format(scan=small_fixed, out=tmp_path / "out") for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:"), err
    assert not (tmp_path / "out").exists()


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
