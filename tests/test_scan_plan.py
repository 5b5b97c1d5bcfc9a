import ast
import multiprocessing as mp
from pathlib import Path

import pytest

import quadzeta.cli
from quadzeta.cli import main
from quadzeta.irregularity import (
    compute_grid_block,
    compute_table3_block,
    scan_fixed_discriminant,
    scan_fixed_primes,
    scan_plan,
)
from quadzeta.numtheory import divisor_sigma_sieve, odd_primes_up_to
from quadzeta.shards import load_records, read_manifest, write_scan


def test_divisor_sum_route_equals_grid_route():
    # scan_fixed_primes picks the divisor-sum route for primes within {3, 5}
    # on the strength of this equality
    table3 = compute_table3_block(2, 3000, (3, 5), divisor_sigma_sieve(1, 749),
                                  divisor_sigma_sieve(3, 749))
    grid = compute_grid_block(2, 3000, (3, 5))
    assert table3 == grid
    keys = {(r.discriminant, r.prime) for r in table3}
    assert (5, 5) in keys and (5, 3) in keys  # D = p
    assert (12, 3) in keys and (40, 5) in keys  # p | D


@pytest.mark.parametrize(
    "argv, library",
    [
        (["--kind", "fixed-disc", "--disc", "5", "--pmax", "1200"],
         lambda: scan_fixed_discriminant(5, 1200)),
        (["--kind", "grid", "--dmax", "2100", "--pmax", "20"],
         lambda: scan_fixed_primes(2, 2100, odd_primes_up_to(20))),
        (["--kind", "million", "--dmax", "25000", "--primes", "3,5"],
         lambda: scan_fixed_primes(2, 25000, [3, 5])),
        (["--kind", "grid", "--dmax", "2100", "--primes", "7,3,11"],
         lambda: scan_fixed_primes(2, 2100, [3, 7, 11])),
    ],
)
def test_library_scan_equals_cli_shards(tmp_path, argv, library):
    assert main(["scan", *argv, "--out", str(tmp_path), "--workers", "2"]) == 0
    assert len(read_manifest(tmp_path).shards) > 1
    assert load_records(tmp_path) == library()


def test_plan_params_identify_the_cli_scans():
    assert scan_plan("fixed-disc", disc=5, pmax=2500).params == {"disc": "5", "pmax": "2500"}
    assert scan_plan("grid", dmax=5000, pmax=100).params == {"dmax": "5000", "pmax": "100"}
    plan = scan_plan("million", dmax=30000, primes=[5, 3, 5])
    assert plan.params == {"dmax": "30000", "primes": "3,5"}
    assert plan.blocks == [(2, 10000), (10000, 20000), (20000, 30000)]


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # records the pool size asked of the fork context, and starts no process
    asked = []

    def no_pool(processes, **kwargs):
        asked.append(processes)
        raise RuntimeError("no pool in this test")

    monkeypatch.setattr(mp.get_context("fork"), "Pool", no_pool)
    plan = scan_plan("grid", dmax=2100, pmax=20)
    assert len(plan.blocks) == 3
    with pytest.raises(RuntimeError, match="no pool"):
        list(plan.run(16))
    assert asked == [3]


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_refused_at_call_time(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        scan_fixed_discriminant(5, 100, workers=workers)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        scan_fixed_primes(2, 100, [3, 7], workers=workers)
    plan = scan_plan("grid", dmax=300, pmax=20)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        plan.run(workers)  # before the first block, not at it
    with pytest.raises(ValueError, match="workers must be at least 1"):
        write_scan(plan, tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params, problem",
    [
        ("million", {"dmax": 100, "primes": [3, 7]}, "primes 3 and 5 only"),
        ("grid", {"dmax": 100, "primes": [9]}, "9 is not an odd prime"),
        ("fixed-disc", {"disc": 9, "pmax": 100}, "not a fundamental discriminant"),
        ("fixed-disc", {"disc": 5, "pmax": 2}, "at least 3"),
        ("bogus", {"dmax": 100}, "unknown scan kind"),
        ("fixed-disc", {"disc": 5}, "fixed-disc scan needs disc and pmax"),
        ("grid", {"pmax": 100}, "grid scan needs dmax"),
        ("million", {"primes": [3]}, "million scan needs dmax"),
        ("million", {"dmax": 100, "pmax": 7}, "million scan takes no pmax"),
        ("fixed-disc", {"disc": 5, "pmax": 100, "dmin": 3}, "fixed-disc scan takes no dmin"),
        ("grid", {"dmax": 100}, "exactly one of pmax and primes"),
        ("grid", {"dmax": 100, "pmax": 20, "primes": [3]}, "exactly one of pmax and primes"),
        ("fixed-disc", {"disc": 5, "pmax": 3}, "empty: no p at least 3 and below 3"),
        ("grid", {"dmax": 2, "pmax": 10}, "empty: no D at least 2 and below 2"),
        ("grid", {"dmin": 500, "dmax": 400, "primes": [3]}, "empty: no D at least 500 and below 400"),
        ("million", {"dmax": 2}, "empty: no D at least 2 and below 2"),
        ("grid", {"dmax": 100, "pmax": 3}, "grid scan has no odd prime"),
        ("grid", {"dmax": 100, "primes": []}, "grid scan has no odd prime"),
        ("million", {"dmax": 100, "primes": ()}, "million scan has no odd prime"),
    ],
)
def test_plan_validation(kind, params, problem):
    with pytest.raises(ValueError, match=problem):
        scan_plan(kind, **params)


def test_empty_million_range_is_refused_before_the_gate(monkeypatch):
    import quadzeta.irregularity as irregularity

    def unreachable(*args, **kwargs):
        raise AssertionError("planning an empty scan ran the gate or a sieve")

    monkeypatch.setattr(irregularity, "validate_siegel_gate", unreachable)
    monkeypatch.setattr(irregularity, "divisor_sigma_sieve", unreachable)
    with pytest.raises(ValueError, match="is empty"):
        scan_plan("million", dmin=30000, dmax=20000)
    with pytest.raises(ValueError, match="no odd prime"):
        scan_plan("million", dmax=20000, primes=())


def test_cli_uses_no_private_irregularity_name():
    tree = ast.parse(Path(quadzeta.cli.__file__).read_text())
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "irregularity"
        and node.attr.startswith("_")
    ]
    private += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("irregularity")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_leaves_the_scan_directory_to_shards():
    # shards.write_scan and shards.load_records own shard names, the manifest
    # and its digests; the CLI plans, calls them and prints
    protocol = {"MANIFEST_NAME", "read_manifest", "write_manifest", "file_digest",
                "write_index_shard", "ScanManifest", "ShardEntry"}
    named = set()
    for node in ast.walk(ast.parse(Path(quadzeta.cli.__file__).read_text())):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    assert named & protocol == set()


def test_cli_imports_nothing_from_numtheory():
    # the library validates discriminants and primes; the CLI only maps its errors
    tree = ast.parse(Path(quadzeta.cli.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "numtheory" in (getattr(node, "module", None) or "") or "numtheory" in alias.name
    ]
    assert imported == []
