"""Shared pytest plumbing: a derandomized hypothesis profile, a fixture that
sets the kernel's stacking budget, and the acceptance verdict lines, replayed
in the terminal summary so `pytest -v` always shows one line per acceptance
check, pass or fail."""

import pytest
from hypothesis import settings

from samlab import network

# Property tests draw the same examples on every run and every machine, so a
# failure reproduces; each test's own max_examples still applies.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


@pytest.fixture
def force_rows_per_call(monkeypatch):
    """A function (spec, batch, k) that sets `network.STACK_ELEMENTS` so that
    `network.rows_per_call(spec, batch)` is k, for the test's duration."""
    def force(spec, batch, k):
        monkeypatch.setattr(network, "STACK_ELEMENTS",
                            k * batch.features.shape[0] * max(spec.widths))
        assert network.rows_per_call(spec, batch) == k
    return force


@pytest.fixture(scope="session")
def acceptance_line():
    def record(line: str):
        ACCEPTANCE_LINES.append(line)
        print(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
