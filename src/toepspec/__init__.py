"""Finite-section spectral toolkit for Hardy- and Bergman-Toeplitz operators
with harmonic trigonometric-polynomial symbols."""

import types as _types

from .symbols import (
    HarmonicSymbol,
    SymbolCurve,
    CurveDiagnostics,
    DegenerateCurveError,
    OnCurveError,
    from_parts,
    sample_curve,
    winding_number,
    curve_diagnostics,
)
from .sections import (
    FiniteSection,
    SeriesResult,
    ht_section,
    bt_section,
    hs_difference_sq_truncated,
    hs_difference_sq_series,
    hs_bound,
)
from .linalg import (
    EigenResult,
    eigenvalues,
    smallest_singular_value,
)
from .spectra import (
    Rect,
    PseudospectrumField,
    Component,
    DiscreteCandidate,
    ResolventFit,
    DetectOptions,
    DetectionResult,
    pseudospectrum,
    detect_discrete,
    classify,
    resolvent_growth_fit,
    points_at_distance,
)
from .analysis import (
    SpectralReport,
    ReportOptions,
    dist_to_spectrum,
    lt_sum,
    weyl_diagnostic,
    build_report,
)

# The import block above is the public API: every bound name that is neither
# private nor a submodule.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]

__version__ = "0.1.0"
