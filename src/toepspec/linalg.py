"""Linear algebra through LAPACK as shipped with NumPy.

Eigenvalues of a dense square matrix go through ``np.linalg.eigvals``.
sigma_min(A - lam I) takes A as a banded ``FiniteSection`` and packs LAPACK
band storage from its diagonals as stored (kl, ku its extreme offsets):
``xGBBRD`` reduces the band to a real bidiagonal, whose singular values
``DLASQ1`` (dqds) gives; both are backward stable, like ``gesdd``, and cost
O(N^2 (kl + ku)) instead of O(N^3).  The routines are looked up once, on the
first call, in the library ``np.linalg`` itself calls, under the ILP64 names
of NumPy's wheels only.  Where they are not found (MKL or system-LAPACK
builds, Windows), and wherever sigma_min < TAU ||A - lam I||_2, where rounding
dominates, the value is dense ``np.linalg.svd``'s on ``section.entries``.

A matrix with no nonzero imaginary part (for ``smallest_singular_value``:
A - lam I) runs in real arithmetic (``dgeev``, ``dgbbrd``, ``dgesdd``), so
its eigenvalues come in exact conjugate pairs; any other runs the complex
routines (``zgeev``, ``zgbbrd``, ``zgesdd``).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .sections import FiniteSection

# below TAU * sigma_max the band sigma_min is recomputed densely
TAU = 4e8 * np.finfo(float).eps


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _real_if_real(b: np.ndarray) -> np.ndarray:
    """``b.real`` when no entry of ``b`` has a nonzero imaginary part, else ``b``."""
    return b if b.imag.any() else b.real


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues with a convergence flag.

    ``sweeps`` is always 0: LAPACK does not report its iteration count.
    """

    values: np.ndarray
    converged: bool
    sweeps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        self.values.setflags(write=False)


def eigenvalues(a: np.ndarray) -> EigenResult:
    """All eigenvalues via LAPACK (``np.linalg.eigvals``).

    LAPACK non-convergence is reported through ``converged=False`` with no
    values, never an exception.
    """
    a = _as_square(a)
    try:
        values = np.linalg.eigvals(_real_if_real(a))
    except np.linalg.LinAlgError:
        return EigenResult(values=np.empty(0), converged=False, sweeps=0)
    return EigenResult(values=values, converged=True, sweeps=0)


# every argument by reference, then for xGBBRD the Fortran length of VECT
_ARGUMENTS = {
    "dgbbrd": [ctypes.c_void_p] * 18 + [ctypes.c_size_t],
    "zgbbrd": [ctypes.c_void_p] * 19 + [ctypes.c_size_t],
    "dlasq1": [ctypes.c_void_p] * 5,
}


@functools.cache
def _lapack() -> dict | None:
    """``dgbbrd``, ``zgbbrd`` and ``dlasq1`` from the library ``np.linalg`` calls,
    under the ILP64 names of NumPy's wheels (``scipy_<name>_64_`` from numpy 2,
    ``<name>_64_`` before), or None where neither resolves."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for pattern in ("scipy_{}_64_", "{}_64_"):
        try:
            routines = {name: getattr(lib, pattern.format(name)) for name in _ARGUMENTS}
        except AttributeError:
            continue
        for name, fn in routines.items():
            fn.argtypes, fn.restype = _ARGUMENTS[name], None
        return routines
    return None


def _ref(v: int):
    """A LAPACK integer argument: a reference to a 64-bit int."""
    return ctypes.byref(ctypes.c_int64(v))


def _band_singular_values(routines: dict, section: FiniteSection, lam: complex) -> np.ndarray:
    """All singular values of A - lam I, largest first: ``xGBBRD`` on the band
    (kl, ku the extreme offsets of ``section.bands``), then ``DLASQ1``.  A
    nonzero INFO raises LinAlgError."""
    n = section.order
    kl, ku = max([0, *section.bands]), max([0, *(-j for j in section.bands)])
    # row j holds LAPACK's band column j: AB[ku + i - j, j] = B[i, j]
    ab = np.zeros((n, kl + ku + 1), dtype=complex)
    for off, band in section.bands.items():
        ab[max(0, -off) : n - max(0, off), ku + off] = band
    ab[:, ku] -= lam
    ab = np.ascontiguousarray(_real_if_real(ab))
    d, e, info = np.empty(n), np.zeros(n), ctypes.c_int64(0)
    dummy = np.zeros(1, dtype=ab.dtype)  # Q, PT and C, not referenced with VECT = 'N'
    work = [np.empty(2 * n)] if ab.dtype == float else [np.empty(n, dtype=complex), np.empty(n)]
    gbbrd = routines["dgbbrd" if ab.dtype == float else "zgbbrd"]
    # (VECT, M, N, NCC, KL, KU, AB, LDAB, D, E, Q, LDQ, PT, LDPT, C, LDC, WORK[, RWORK], INFO, len(VECT))
    gbbrd(b"N", _ref(n), _ref(n), _ref(0), _ref(kl), _ref(ku), ab.ctypes, _ref(kl + ku + 1), d.ctypes, e.ctypes,
          dummy.ctypes, _ref(1), dummy.ctypes, _ref(1), dummy.ctypes, _ref(1), *(w.ctypes for w in work),
          ctypes.byref(info), 1)
    if info.value == 0:
        routines["dlasq1"](_ref(n), d.ctypes, e.ctypes, np.empty(4 * n).ctypes, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"band SVD failed (INFO = {info.value})")
    return d


def smallest_singular_value(section: FiniteSection, lam: complex = 0j) -> float:
    """sigma_min(A - lam I) of the section A, in real arithmetic when it is real.

    From the band routines (see the module docstring) when they are found and
    their sigma_min is at least TAU * ||A - lam I||_2; else, and then bit for
    bit, from dense LAPACK ``np.linalg.svd`` on ``section.entries``.
    """
    lam = complex(lam)
    routines = _lapack()
    if routines is not None:
        sv = _band_singular_values(routines, section, lam)
        if sv[-1] >= TAU * sv[0]:
            return float(sv[-1])
    b = section.entries.copy()
    b.flat[:: section.order + 1] -= lam
    return float(np.linalg.svd(_real_if_real(b), compute_uv=False)[-1])
