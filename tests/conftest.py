"""Shared test plumbing: a header with the BLAS set-up, acceptance-gate
summary lines and fixtures that make the LAPACK eigensolver or SVDs fail.

The acceptance tests register one entry per criterion; printing happens in
the terminal summary so the PASS/FAIL lines survive pytest's output capture
and always appear in a plain ``pytest -v`` log.  The header records what a
wall-clock budget depends on, so a slow run can be diagnosed from its log.
"""

import ctypes
import os

import numpy as np
import pytest

from toepspec import linalg

ACCEPTANCE_LOG: list[str] = []
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_setup() -> list[str]:
    """numpy, BLAS/LAPACK names, thread variables and CPU count.  The thread
    count BLAS actually runs with cannot be read without threadpoolctl."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = ", ".join(
            f"{k} {deps[k]['name']} {deps[k].get('version', '?')}" for k in ("blas", "lapack")
        )
    except (TypeError, KeyError) as exc:  # older numpy has no mode="dicts"
        libs = f"blas/lapack unknown ({type(exc).__name__}: {exc})"
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return [f"numpy {np.__version__}; {libs}", f"{threads}; cpu_count {os.cpu_count()}"]


def pytest_report_header(config):
    return _blas_setup()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    # repeated here because ``pytest -q`` hides the report header
    for line in _blas_setup() + ACCEPTANCE_LOG:
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


def _failing(name: str, info: int):
    """A stand-in for the band routine ``name`` that only sets INFO, its
    argument ``info``, to 1."""

    @ctypes.CFUNCTYPE(None, *linalg._ARGUMENTS[name])
    def routine(*args):
        ctypes.c_int64.from_address(args[info]).value = 1

    return routine


FAILING = {name: _failing(name, info) for name, info in (("dgbbrd", 17), ("zgbbrd", 18), ("dstebz", 17))}


@pytest.fixture
def band_routine_fails(monkeypatch):
    """Make the band routine ``name`` set INFO = 1 and do nothing else."""
    routines = linalg._lapack()
    assert routines is not None, "no band routines found in numpy's LAPACK"

    def arm(name):
        monkeypatch.setattr(linalg, "_lapack", lambda: {**routines, name: FAILING[name]})

    return arm


@pytest.fixture
def svd_fails(monkeypatch):
    """Make every LAPACK singular value call raise LinAlgError: dense
    ``np.linalg.svd``, and the band path through a DSTEBZ that sets INFO = 1."""

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    routines = linalg._lapack()
    if routines is not None:
        monkeypatch.setattr(linalg, "_lapack", lambda: {**routines, "dstebz": FAILING["dstebz"]})
