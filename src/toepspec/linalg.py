"""Linear algebra through LAPACK as shipped with NumPy.

Both functions take the matrix A as a ``FiniteSection``, and one rule,
``_shifted_bands``, builds every LAPACK input: the bands of A - lam I, lam
subtracted once on the diagonal, real (float64) when no band has a nonzero
imaginary part.  Real input runs the real routines (``dgeev``, ``dgbbrd``,
``dgesdd``), so a real A has exact conjugate pairs of eigenvalues; any other
runs the complex ones (``zgeev``, ``zgbbrd``, ``zgesdd``).  The eigenvalues
come from ``np.linalg.eigvals`` on a dense matrix filled from the bands at
lam = 0 for that call alone.  sigma_min(A - lam I) packs LAPACK band storage
(kl, ku the extreme offsets): ``xGBBRD`` reduces the band to a real
bidiagonal B (diagonal d, superdiagonal e), and ``DSTEBZ`` bisects for one
eigenvalue of its Golub-Kahan tridiagonal, the 2N x 2N matrix with zero
diagonal and off-diagonal (d1, e1, d2, ..., dN), whose eigenvalues are
+-sigma_i(B): the (N + 1)-th smallest is sigma_min.  With ABSTOL twice the
underflow threshold, bisection on this zero-diagonal tridiagonal finds it to
high relative accuracy (Demmel & Kahan 1990); the band reduction is backward
stable, like ``gesdd``.  The cost is O(N^2 (kl + ku)) for the reduction and
O(N) per bisection step, instead of O(N^3).  Each call allocates one zeroed
block of float64 words that holds every argument of both routines, integers
and int64 arrays included, and passes them as raw addresses, fixed offsets
from its base: safe, since the block is a local of the call that outlives
both routines, and nothing is kept between calls.  Scaling the band by the
power of two 2^-p that brings its largest real or imaginary part into
[1/2, 1), and sigma back by 2^p, is exact (but for parts below 2^-1022 times
the largest): sigma_min is scale-free, and no routine under- or overflows at
any magnitude.
The routines are looked up once, on the first call, in the library
``np.linalg`` itself calls, under the ILP64 names of NumPy's wheels only.
Their value agrees with ``gesdd``'s within 1e-8 sigma + 4 eps ||A - lam I||_2
(gated in the tests); below the rounding floor, about eps ||A - lam I||_2,
neither is a measurement.  Only where the routines are not found (MKL or
system-LAPACK builds, Windows) does sigma_min build the dense matrix: the
value is then ``_dense_sigma_min``'s, dense ``np.linalg.svd`` of A - lam I.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .sections import FiniteSection, _dense


def _shifted_bands(section: FiniteSection, lam: complex = 0j) -> dict[int, np.ndarray]:
    """The bands of A - lam I, laid out as ``section.bands`` with offset 0 always
    present, all real when none has a nonzero imaginary part, else as stored."""
    bands = {**section.bands, 0: section.bands.get(0, np.zeros(section.order)) - lam}
    return bands if any(band.imag.any() for band in bands.values()) else {j: band.real for j, band in bands.items()}


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
    dense matrix filled from ``_shifted_bands`` at lam = 0.

    LAPACK non-convergence is reported through ``converged=False`` with no
    values, never an exception.
    """
    try:
        values = np.linalg.eigvals(_dense(section.order, _shifted_bands(section)))
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


def _band_sigma_min(routines: dict, section: FiniteSection, lam: complex) -> float:
    """sigma_min of A - lam I: ``xGBBRD`` on ``_shifted_bands`` (kl, ku their
    extreme offsets), then ``DSTEBZ`` on the Golub-Kahan tridiagonal of the
    bidiagonal.  A nonzero INFO, or a count of eigenvalues found other than
    one, raises LinAlgError."""
    n, bands = section.order, _shifted_bands(section, lam)
    kl, ku, dtype = max(bands), -min(bands), np.result_type(float, *bands.values())
    c = 1 if dtype == float else 2  # words per element of AB
    # the block's words: 16 scalars, AB from word 16 to o, then D, E, the Golub-Kahan
    # off-diagonal T and zero diagonal Z, W, DSTEBZ's WORK, IBLOCK, ISPLIT, IWORK
    # and xGBBRD's WORK (and RWORK, for zgbbrd)
    o = 16 + c * n * (kl + ku + 1)
    d, e, t, z, w, swork, iblock, isplit, iwork, work = (o + k * n for k in (0, 1, 2, 4, 6, 8, 16, 18, 20, 26))
    buf = np.zeros(work + (1 + c) * n)
    words = buf.view(np.int64)
    words[:8] = n, 0, kl, ku, kl + ku + 1, 1, 2 * n, n + 1
    buf[11] = _ABSTOL
    # the local buf keeps the block alive through both calls; word i is at a + 8 * i,
    # and scalar word 8 is INFO, 9 is M
    a = buf.ctypes.data
    N, NCC, KL, KU, LDAB, ONE, N2, IL, INFO, M, NSPLIT, ABSTOL, VLU = range(a, a + 104, 8)
    W = a + 8 * w
    # row j holds LAPACK's band column j: AB[ku + i - j, j] = B[i, j]
    ab = buf[16:o].view(dtype).reshape(n, kl + ku + 1)
    for off, band in bands.items():
        ab[max(0, -off) : n - max(0, off), ku + off] = band
    p = math.frexp(np.abs(buf[16:o]).max())[1]  # no modulus, which could overflow
    np.ldexp(buf[16:o], -p, out=buf[16:o])
    gbbrd, rwork = (routines["dgbbrd"], ()) if c == 1 else (routines["zgbbrd"], (a + 8 * (work + 2 * n),))
    # (VECT, M, N, NCC, KL, KU, AB, LDAB, D, E, Q, LDQ, PT, LDPT, C, LDC, WORK[, RWORK], INFO, len(VECT));
    # Q, PT and C (given W) are not referenced with VECT = 'N'
    gbbrd(b"N", N, N, NCC, KL, KU, a + 8 * 16, LDAB, a + 8 * d, a + 8 * e, W, ONE, W, ONE, W, ONE, a + 8 * work, *rwork,
          INFO, 1)
    if words[8] != 0:
        raise np.linalg.LinAlgError(f"band SVD failed (INFO = {words[8]})")
    # T = (d1, e1, d2, ..., dN): its signs do not change the eigenvalues, and
    # DSTEBZ reads its first 2N - 1 words only
    np.abs(buf[d:t].reshape(2, n), out=buf[t:z].reshape(n, 2).T)
    # (RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO, len(RANGE), len(ORDER));
    # VL and VU are not referenced with RANGE = 'I'
    routines["dstebz"](b"I", b"E", N2, VLU, VLU, IL, IL, ABSTOL, a + 8 * z, a + 8 * t, M, NSPLIT, W,
                       a + 8 * iblock, a + 8 * isplit, a + 8 * swork, a + 8 * iwork, INFO, 1, 1)
    if words[8] != 0:
        raise np.linalg.LinAlgError(f"band SVD failed (INFO = {words[8]})")
    if words[9] != 1:
        raise np.linalg.LinAlgError(f"band SVD failed ({words[9]} eigenvalues found, not 1)")
    # bisection may land below a zero sigma by ABSTOL; a sigma beyond the doubles is inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(max(buf[w], 0.0), p))


def _dense_sigma_min(section: FiniteSection, lam: complex) -> float:
    """sigma_min(A - lam I) by ``np.linalg.svd`` on a dense matrix filled from
    ``_shifted_bands``."""
    return float(np.linalg.svd(_dense(section.order, _shifted_bands(section, lam)), compute_uv=False)[-1])


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
