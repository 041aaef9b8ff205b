"""Shared pytest plumbing: a derandomized hypothesis profile, and the
acceptance verdict lines, replayed in the terminal summary so `pytest -v`
always shows one line per acceptance check, pass or fail."""

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and every machine, so a
# failure reproduces; each test's own max_examples still applies.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


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
