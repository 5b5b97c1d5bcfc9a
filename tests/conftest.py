import pytest

from quadzeta import shards
from quadzeta.cli import main as cli_main


@pytest.fixture(scope="session")
def scan_dirs(tmp_path_factory):
    """Run the three reference scans once, through the CLI, into shard dirs."""
    root = tmp_path_factory.mktemp("scans")
    dirs = {
        "table1": root / "table1",
        "table2": root / "table2",
        "table3": root / "table3",
    }
    assert cli_main(
        ["scan", "--kind", "fixed-disc", "--disc", "5", "--pmax", "5000",
         "--out", str(dirs["table1"]), "--workers", "4"]
    ) == 0
    assert cli_main(
        ["scan", "--kind", "grid", "--dmax", "5000", "--pmax", "100",
         "--out", str(dirs["table2"]), "--workers", "4"]
    ) == 0
    assert cli_main(
        ["scan", "--kind", "million", "--dmax", "1000000", "--primes", "3,5",
         "--out", str(dirs["table3"]), "--workers", "4"]
    ) == 0
    return dirs


@pytest.fixture(scope="session")
def table1_records(scan_dirs):
    return shards.load_records(scan_dirs["table1"])


@pytest.fixture(scope="session")
def table2_records(scan_dirs):
    return shards.load_records(scan_dirs["table2"])


@pytest.fixture(scope="session")
def table3_records(scan_dirs):
    return shards.load_records(scan_dirs["table3"])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = []
    for key in ("passed", "failed"):
        reports.extend(
            r for r in terminalreporter.stats.get(key, [])
            if r.when == "call" and "test_criterion" in r.nodeid
        )
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for rep in sorted(reports, key=lambda r: r.nodeid):
        name = rep.nodeid.split("::")[-1]
        terminalreporter.write_line(f"{name}: {'PASS' if rep.passed else 'FAIL'}")
