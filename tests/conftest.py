import numpy as np
import pytest

# module-level registry filled by test_acceptance; printed at the end of the
# run so the per-criterion pass/fail lines are visible regardless of capture
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return np.random.default_rng(20160627)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
