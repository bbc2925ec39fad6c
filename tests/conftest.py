"""Shared pytest wiring: one pass/fail line per acceptance criterion, and
a fixture that records every product-table scan."""

from __future__ import annotations

import pytest

from quasicross import splitting as splitting_mod

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS.append((item.name, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture
def scans(monkeypatch):
    """Every splitting whose product table is scanned, in order."""
    seen = []
    scan = splitting_mod._scan_products

    def counting(sp):
        seen.append(sp)
        return scan(sp)

    monkeypatch.setattr(splitting_mod, "_scan_products", counting)
    return seen
