"""Dense linear algebra.

Eigenvalues and the smallest singular value go through LAPACK as shipped
with NumPy (``np.linalg.eigvals`` and ``np.linalg.svd``).  A matrix with no
nonzero imaginary part (for ``smallest_singular_value``: A - lam I) is passed
as real, so it runs ``dgeev`` / ``dgesdd``, and its eigenvalues come in exact
conjugate pairs; any other runs ``zgeev`` / ``zgesdd``.  A slow one-sided
Jacobi SVD is kept as an independent verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def smallest_singular_value(a: np.ndarray, lam: complex = 0j) -> float:
    """sigma_min(A - lam I) via LAPACK (``np.linalg.svd``), in real arithmetic
    when A - lam I is real."""
    a = _as_square(a)
    b = a.copy()
    b.flat[:: a.shape[0] + 1] -= complex(lam)
    return float(np.linalg.svd(_real_if_real(b), compute_uv=False)[-1])


def singular_values_jacobi(
    a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """All singular values via one-sided Jacobi; slow verification oracle."""
    g = np.asarray(a, dtype=complex).copy()
    if g.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n = g.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = g[:, p].copy()
                gq = g[:, q].copy()
                app = float(np.real(np.vdot(gp, gp)))
                aqq = float(np.real(np.vdot(gq, gq)))
                apq = complex(np.vdot(gp, gq))
                if abs(apq) <= tol * math.sqrt(app * aqq) or apq == 0:
                    continue
                rotated = True
                # absorb the phase into column q, then rotate as in the
                # real symmetric case
                phase = apq / abs(apq)
                gq = gq * phase.conjugate()
                rpq = abs(apq)
                tau = (aqq - app) / (2.0 * rpq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                g[:, p] = c * gp - s * gq
                g[:, q] = s * gp + c * gq
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(g) ** 2, axis=0))
    return np.sort(sv)[::-1]
