"""Linear algebra through LAPACK as shipped with NumPy.

Both functions take the matrix A as a ``FiniteSection``.  Its eigenvalues
come from ``np.linalg.eigvals`` on a dense matrix filled from its bands for
that call alone, real (float64) when no band has a nonzero imaginary part.
sigma_min(A - lam I) packs LAPACK band storage from its diagonals as stored
(kl, ku its extreme offsets): ``xGBBRD`` reduces the band to a real
bidiagonal B (diagonal d, superdiagonal e), and ``DSTEBZ`` bisects for one
eigenvalue of its Golub-Kahan tridiagonal, the 2N x 2N matrix with zero
diagonal and off-diagonal (d1, e1, d2, ..., dN), whose eigenvalues are
+-sigma_i(B): the (N + 1)-th smallest is sigma_min.  With ABSTOL twice the
underflow threshold, bisection on this zero-diagonal tridiagonal finds it to
high relative accuracy (Demmel & Kahan 1990); the band reduction is backward
stable, like ``gesdd``.  The cost is O(N^2 (kl + ku)) for the reduction and
O(N) per bisection step, instead of O(N^3).  Scaling the band by the power
of two 2^-p that brings its largest real or imaginary part into [1/2, 1), and
sigma back by 2^p, is exact (but for parts below 2^-1022 times the largest):
sigma_min is scale-free, and no routine under- or overflows at any magnitude.
The routines are looked up once, on the first call, in the library
``np.linalg`` itself calls, under the ILP64 names of NumPy's wheels only.
Their value agrees with ``gesdd``'s within 1e-8 sigma + 4 eps ||A - lam I||_2
(gated in the tests); below the rounding floor, about eps ||A - lam I||_2,
neither is a measurement.  Only where the routines are not found (MKL or
system-LAPACK builds, Windows) does sigma_min build the dense matrix: the
value is then ``_dense_sigma_min``'s, dense ``np.linalg.svd`` of A - lam I.

A matrix with no nonzero imaginary part (for ``smallest_singular_value``:
A - lam I) runs in real arithmetic (``dgeev``, ``dgbbrd``, ``dgesdd``), so
its eigenvalues come in exact conjugate pairs; any other runs the complex
routines (``zgeev``, ``zgbbrd``, ``zgesdd``).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .sections import FiniteSection, _dense


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


def eigenvalues(section: FiniteSection) -> EigenResult:
    """All eigenvalues of the section via LAPACK (``np.linalg.eigvals``), on a
    dense matrix filled from its bands (see the module docstring); the cached
    ``section.entries`` are neither read nor built.

    LAPACK non-convergence is reported through ``converged=False`` with no
    values, never an exception.
    """
    bands = section.bands
    if not any(band.imag.any() for band in bands.values()):
        # _real_if_real's rule, read off the bands so that no complex matrix is built
        bands = {j: band.real for j, band in bands.items()}
    try:
        values = np.linalg.eigvals(_dense(section.order, bands))
    except np.linalg.LinAlgError:
        return EigenResult(values=np.empty(0), converged=False, sweeps=0)
    return EigenResult(values=values, converged=True, sweeps=0)


# every argument by reference, then the Fortran lengths of the character
# arguments: VECT for xGBBRD, RANGE and ORDER for DSTEBZ
_ARGUMENTS = {
    "dgbbrd": [ctypes.c_void_p] * 18 + [ctypes.c_size_t],
    "zgbbrd": [ctypes.c_void_p] * 19 + [ctypes.c_size_t],
    "dstebz": [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 2,
}
# DSTEBZ's ABSTOL: twice the underflow threshold, for high relative accuracy
_ABSTOL = 2 * np.finfo(float).tiny


@functools.cache
def _lapack() -> dict | None:
    """``dgbbrd``, ``zgbbrd`` and ``dstebz`` from the library ``np.linalg`` calls,
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


def _band_sigma_min(routines: dict, section: FiniteSection, lam: complex) -> float:
    """sigma_min of A - lam I: ``xGBBRD`` on the band (kl, ku the extreme
    offsets of ``section.bands``), then ``DSTEBZ`` on the Golub-Kahan
    tridiagonal of the bidiagonal.  A nonzero INFO, or a count of eigenvalues
    found other than one, raises LinAlgError."""
    n = section.order
    kl, ku = max([0, *section.bands]), max([0, *(-j for j in section.bands)])
    # row j holds LAPACK's band column j: AB[ku + i - j, j] = B[i, j]
    ab = np.zeros((n, kl + ku + 1), dtype=complex)
    for off, band in section.bands.items():
        ab[max(0, -off) : n - max(0, off), ku + off] = band
    ab[:, ku] -= lam
    p = math.frexp(np.abs(ab.view(float)).max())[1]  # no modulus, which could overflow
    ab = np.ascontiguousarray(_real_if_real(np.ldexp(ab.view(float), -p).view(complex)))
    d, e, info = np.empty(n), np.zeros(n), ctypes.c_int64(0)
    dummy = np.zeros(1, dtype=ab.dtype)  # Q, PT and C, not referenced with VECT = 'N'
    work = [np.empty(2 * n)] if ab.dtype == float else [np.empty(n, dtype=complex), np.empty(n)]
    gbbrd = routines["dgbbrd" if ab.dtype == float else "zgbbrd"]
    # (VECT, M, N, NCC, KL, KU, AB, LDAB, D, E, Q, LDQ, PT, LDPT, C, LDC, WORK[, RWORK], INFO, len(VECT))
    gbbrd(b"N", _ref(n), _ref(n), _ref(0), _ref(kl), _ref(ku), ab.ctypes, _ref(kl + ku + 1), d.ctypes, e.ctypes,
          dummy.ctypes, _ref(1), dummy.ctypes, _ref(1), dummy.ctypes, _ref(1), *(w.ctypes for w in work),
          ctypes.byref(info), 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"band SVD failed (INFO = {info.value})")
    # the Golub-Kahan off-diagonal (d1, e1, d2, ..., dN); its signs do not
    # change the eigenvalues
    t = np.empty(2 * n - 1)
    t[0::2], t[1::2] = np.abs(d), np.abs(e[: n - 1])
    m, w, vlu = ctypes.c_int64(0), np.empty(2 * n), ctypes.c_double(0.0)  # VL, VU: not referenced with RANGE = 'I'
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (2, 2, 6))
    # (RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO, len(RANGE), len(ORDER))
    routines["dstebz"](b"I", b"E", _ref(2 * n), ctypes.byref(vlu), ctypes.byref(vlu), _ref(n + 1), _ref(n + 1),
                       ctypes.byref(ctypes.c_double(_ABSTOL)), np.zeros(2 * n).ctypes, t.ctypes, ctypes.byref(m),
                       ctypes.byref(ctypes.c_int64(0)), w.ctypes, iblock.ctypes, isplit.ctypes,
                       np.empty(8 * n).ctypes, iwork.ctypes, ctypes.byref(info), 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"band SVD failed (INFO = {info.value})")
    if m.value != 1:
        raise np.linalg.LinAlgError(f"band SVD failed ({m.value} eigenvalues found, not 1)")
    # bisection may land below a zero sigma by ABSTOL; a sigma beyond the doubles is inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(max(w[0], 0.0), p))


def _dense_sigma_min(section: FiniteSection, lam: complex) -> float:
    """sigma_min(A - lam I) by ``np.linalg.svd``, in real arithmetic when it is real."""
    b = _dense(section.order, section.bands).astype(complex, copy=False)
    b.flat[:: section.order + 1] -= lam
    return float(np.linalg.svd(_real_if_real(b), compute_uv=False)[-1])


def smallest_singular_value(section: FiniteSection, lam: complex = 0j) -> float:
    """sigma_min(A - lam I) of the section A, in real arithmetic when it is real.

    From the band routines (see the module docstring) when they are found,
    else ``_dense_sigma_min``; a non-finite lam raises ValueError before either.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    routines = _lapack()
    if routines is not None:
        return _band_sigma_min(routines, section, lam)
    return _dense_sigma_min(section, lam)
