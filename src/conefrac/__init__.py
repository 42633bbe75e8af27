"""Anisotropic 2s-stable nonlocal operators with cone-supported spectral
densities: evaluation, closed-form operator identities, and certification
of explicit supersolutions across the Liouville-type thresholds."""

from .errors import (AccuracyError, ConefracError,
                     DegenerateConstructionError, DegenerateDensityError,
                     ExpectationFailedError, InputDomainError,
                     NonsmoothPointError, SearchFailureError,
                     TruncationError)
from .quadrature import (DEFAULT_CONFIG, IntegralResult, QuadratureConfig,
                         ball_volume, c_alpha, mc_region_volume,
                         radial_integral, sphere_quadrature,
                         sphere_surface_area)
from .spectral import (Cone, ConePlateauDensity, ConstantDensity,
                       CustomDensity, EllipticityDiagnostics,
                       SpectralDensity, cone_contains, density_eval,
                       directional_moment, ellipticity_diagnostics,
                       weighted_sphere_moment)
from .catalog import (Bump, CatalogFunction, Constant, HalfSpacePower,
                      KelvinHalfSpacePower, Product, Rescale, ScalarMultiple,
                      TranslateTruncate, WholeSpaceBump, Zero, kelvin,
                      translate_truncate)
from .operators import (OperatorEvaluation, PairingResult, apply_L,
                        apply_L_halfspace_power, correction_l, pairing)
from .liouville import (CandidateRefutation, CertificationReport, GammaRow,
                        GammaSearchResult, LiouvilleConstruction,
                        MarginSample, RegionEstimate, RescaledRow, ScanRow,
                        StepOneReport, certify, construct_supersolution,
                        critical_exponents, default_certification_points,
                        gamma_search, halfspace_envelope_exponent,
                        liouville_scan, refute_candidate_family,
                        rescaled_inequality_experiment, step_one_M,
                        wholespace_envelope_exponent)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccuracyError", "ConefracError", "DegenerateConstructionError",
    "DegenerateDensityError", "ExpectationFailedError", "InputDomainError",
    "NonsmoothPointError", "SearchFailureError", "TruncationError",
    "DEFAULT_CONFIG", "IntegralResult", "QuadratureConfig", "ball_volume",
    "c_alpha", "mc_region_volume", "radial_integral", "sphere_quadrature",
    "sphere_surface_area",
    "Cone", "ConePlateauDensity", "ConstantDensity", "CustomDensity",
    "EllipticityDiagnostics", "SpectralDensity", "cone_contains",
    "density_eval", "directional_moment", "ellipticity_diagnostics",
    "weighted_sphere_moment",
    "Bump", "CatalogFunction", "Constant", "HalfSpacePower",
    "KelvinHalfSpacePower", "Product", "Rescale", "ScalarMultiple",
    "TranslateTruncate", "WholeSpaceBump", "Zero", "kelvin",
    "translate_truncate",
    "OperatorEvaluation", "PairingResult", "apply_L",
    "apply_L_halfspace_power", "correction_l", "pairing",
    "CandidateRefutation", "CertificationReport", "GammaRow",
    "GammaSearchResult", "LiouvilleConstruction", "MarginSample",
    "RegionEstimate", "RescaledRow", "ScanRow", "StepOneReport", "certify",
    "construct_supersolution", "critical_exponents",
    "default_certification_points", "gamma_search",
    "halfspace_envelope_exponent", "liouville_scan",
    "refute_candidate_family", "rescaled_inequality_experiment",
    "step_one_M", "wholespace_envelope_exponent",
]
