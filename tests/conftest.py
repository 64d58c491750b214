"""Shared test plumbing: acceptance-gate summary lines and a fixture that
makes the LAPACK eigensolver fail.

The acceptance tests register one entry per criterion; printing happens in
the terminal summary so the PASS/FAIL lines survive pytest's output capture
and always appear in a plain ``pytest -v`` log.
"""

import numpy as np
import pytest

ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LOG:
        terminalreporter.write_line(line)


@pytest.fixture
def eigvals_fails_at(monkeypatch):
    """Make LAPACK eigenvalue calls on n x n matrices raise LinAlgError."""
    original = np.linalg.eigvals

    def arm(n):
        def eigvals(a):
            if np.shape(a)[0] == n:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)

    return arm
