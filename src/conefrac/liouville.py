"""Supersolution constructions, certification, and the nonexistence
experiments around the two critical exponents.

The constructive side assembles decaying half-space powers (translated and
truncated where the whole-space exponent range requires it), normalizes
their amplitude by the weighted difference constant, and certifies the
supersolution inequality on deterministic sample sets.  The experimental
side estimates the comparison constant for the cutoff inequality, searches
the cone-opening geometry, and tabulates the rescaled integral bounds whose
exponent changes sign at the critical power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConefracError,
    DegenerateConstructionError,
    InputDomainError,
    SearchFailureError,
)
from .spectral import Cone, ConstantDensity, SpectralDensity
from .catalog import (
    Bump,
    CatalogFunction,
    HalfSpacePower,
    Product,
    Rescale,
    ScalarMultiple,
    TranslateTruncate,
    kelvin,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _geom_edges,
    _merge_edges,
    mc_region_volume,
)
from . import operators
from .operators import _L_field, _tensor_nodes, _weighted_difference_constant

__all__ = [
    "critical_exponents",
    "halfspace_envelope_exponent",
    "wholespace_envelope_exponent",
    "LiouvilleConstruction",
    "construct_supersolution",
    "MarginSample",
    "CertificationReport",
    "certify",
    "default_certification_points",
    "CandidateRefutation",
    "refute_candidate_family",
    "GammaRow",
    "GammaSearchResult",
    "gamma_search",
    "RegionEstimate",
    "StepOneReport",
    "step_one_M",
    "RescaledRow",
    "rescaled_inequality_experiment",
    "ScanRow",
    "liouville_scan",
]


# --------------------------------------------------------------------------
# critical exponents and envelope exponents
# --------------------------------------------------------------------------

def _check_N(N: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InputDomainError(f"dimension must be a positive integer, got {N}")


def _check_N_s(N: int, s: float) -> None:
    _check_N(N)
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")


def critical_exponents(N: int, s: float) -> dict:
    """Half-space and whole-space critical powers; the whole-space value is
    unbounded when the dimension does not exceed 2s."""
    _check_N_s(N, s)
    whole = N / (N - 2.0 * s) if N > 2.0 * s else math.inf
    return {"halfspace": (N + s) / (N - s), "wholespace": whole}


def halfspace_envelope_exponent(N: int, s: float, p: float) -> float:
    """Exponent of the rescaled integral bound, N + s - 2sp/(p-1); zero
    exactly at the half-space critical power."""
    _check_N_s(N, s)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputDomainError(f"power must be finite and >= 1, got {p}")
    if p == 1.0:
        return -math.inf
    return N + s - 2.0 * s * p / (p - 1.0)


def wholespace_envelope_exponent(N: int, s: float, p: float) -> float:
    """Whole-space analogue N - 2sp/(p-1); zero exactly at the whole-space
    critical power."""
    _check_N_s(N, s)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputDomainError(f"power must be finite and >= 1, got {p}")
    if p == 1.0:
        return -math.inf
    return N - 2.0 * s * p / (p - 1.0)


# --------------------------------------------------------------------------
# supersolution construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LiouvilleConstruction:
    N: int
    s: float
    p: float
    regime: str
    alpha: float
    C_alpha: float
    C_alpha_err: float
    eps_max: float
    eps_max_err: float
    epsilon: float
    function: CatalogFunction


def construct_supersolution(N: int, s: float, p: float,
                            epsilon: Optional[float] = None,
                            cfg: QuadratureConfig = DEFAULT_CONFIG,
                            ) -> LiouvilleConstruction:
    """Explicit positive supersolution of -Lu >= u^p on the upper half-space
    for powers above the half-space critical value.

    Below and at that value the margin constant vanishes and no member of
    the family works; a degenerate-construction error reports it.
    """
    _check_N_s(N, s)
    if not math.isfinite(p):
        raise InputDomainError(f"power must be finite, got {p}")
    crit = critical_exponents(N, s)
    if not (p > crit["halfspace"]):
        raise DegenerateConstructionError(
            f"no explicit supersolution exists at p = {p}: the construction "
            f"degenerates at the critical power {crit['halfspace']} where the "
            "exponent hits s and the margin constant vanishes")
    if N == 1 and s >= 0.5:
        regime = "oneD_high_s"
        alpha = (N - (N - 2.0 * s) * p) / (p - 1.0)
        base: CatalogFunction = kelvin(alpha, N, s)
    elif p < crit["wholespace"]:
        regime = "kelvin"
        alpha = (N - (N - 2.0 * s) * p) / (p - 1.0)
        base = kelvin(alpha, N, s)
    else:
        regime = "translate_truncate" if N >= 2 else "oneD_low_s"
        alpha = 0.5 * s
        base = TranslateTruncate(kelvin(alpha, N, s))
    C, C_err, _ = _weighted_difference_constant(ConstantDensity(N, 1.0), s,
                                                alpha, cfg)
    if not (C < 0.0):
        raise DegenerateConstructionError(
            f"the weighted difference constant is {C} at exponent {alpha}; "
            "no positive margin remains")
    eps_max = (-C) ** (1.0 / (p - 1.0))
    eps_max_err = eps_max * C_err / ((p - 1.0) * (-C))
    if epsilon is None:
        epsilon = 0.5 * eps_max
    if not (0.0 < epsilon <= eps_max):
        raise InputDomainError(
            f"amplitude must lie in (0, {eps_max}], got {epsilon}")
    return LiouvilleConstruction(
        N=N, s=s, p=float(p), regime=regime, alpha=float(alpha),
        C_alpha=float(C), C_alpha_err=float(C_err), eps_max=float(eps_max),
        eps_max_err=float(eps_max_err), epsilon=float(epsilon),
        function=ScalarMultiple(float(epsilon), base))


# --------------------------------------------------------------------------
# certification on a sample set
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginSample:
    point: tuple
    margin: float
    error: float


@dataclass(frozen=True)
class CertificationReport:
    min_margin: float
    argmin: tuple
    n_points: int
    error_budget: float
    tolerance: float
    certified: bool
    worst: tuple


def default_certification_points(N: int, mode: str = "halfspace") -> np.ndarray:
    """Deterministic sample set: log-spaced heights crossed with log-spaced
    lateral offsets, plus a far axial tail.  Margins of the power-law
    candidates degrade like a power of the height, so log spacing covers
    every scale; the axial tail reaches far enough to expose amplitudes
    whose first failure sits deep in the far field.  Whole-space mode mirrors
    a subset below the boundary plane."""
    _check_N(N)
    if mode not in ("halfspace", "wholespace"):
        raise InputDomainError(f"unknown mode {mode!r}")
    heights = np.geomspace(1e-2, 10.0, 14)
    far = np.geomspace(30.0, 1e8, 14)
    if N == 1:
        upper = np.concatenate([heights, far])[:, None]
        if mode == "halfspace":
            return upper
        lower = -np.concatenate([heights, np.geomspace(30.0, 1e3, 5)])[:, None]
        return np.concatenate([upper, lower], axis=0)
    lat = np.concatenate([-np.geomspace(1e-2, 10.0, 7)[::-1], [0.0],
                          np.geomspace(1e-2, 10.0, 7)])
    grid = np.zeros((lat.size * heights.size, N))
    mesh_t, mesh_h = np.meshgrid(lat, heights, indexing="ij")
    grid[:, 0] = mesh_t.ravel()
    grid[:, -1] = mesh_h.ravel()
    axis_far = np.zeros((far.size, N))
    axis_far[:, -1] = far
    pts = np.concatenate([grid, axis_far], axis=0)
    if mode == "halfspace":
        return pts
    mirror = grid[::2].copy()
    mirror[:, -1] *= -1.0
    axis_low = np.zeros((5, N))
    axis_low[:, -1] = -np.geomspace(30.0, 1e3, 5)
    return np.concatenate([pts, mirror, axis_low], axis=0)


def certify(a: SpectralDensity, s: float, p: float, u: CatalogFunction,
            points, cfg: QuadratureConfig = DEFAULT_CONFIG, *,
            tolerance: float = 1e-6) -> CertificationReport:
    """Check -Lu >= u^p at every sample point, within the stated tolerance
    plus the per-point evaluation error budget."""
    operators._check_match(a, s, u)
    if not math.isfinite(p) or p < 1.0:
        raise InputDomainError(f"power must be finite and >= 1, got {p}")
    if tolerance < 0.0:
        raise InputDomainError("tolerance must be nonnegative")
    pts = _sample_points(points, a.dim)
    Lvals, Lerrs, _ = _L_field(a, s, u, pts, cfg)
    return _margin_report(pts, Lvals, Lerrs, u.values(pts), p, tolerance)


def _sample_points(points, dim: int) -> np.ndarray:
    """The points as a nonempty, finite (n, dim) float array, or raise."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dim or pts.shape[0] == 0:
        raise InputDomainError("sample points must form a nonempty (n, dim) array")
    if not np.all(np.isfinite(pts)):
        raise InputDomainError("sample points must be finite")
    return pts


def _margin_report(pts, Lvals, Lerrs, uvals, p, tolerance) -> CertificationReport:
    """The report on the margins -Lu - u^p at pts, from Lu, its errors and u."""
    margins = -Lvals - uvals ** p
    order = np.argsort(margins)
    worst = tuple(
        MarginSample(point=tuple(pts[i]), margin=float(margins[i]),
                     error=float(Lerrs[i]))
        for i in order[:min(5, pts.shape[0])])
    i0 = int(order[0])
    certified = bool(np.all(margins + tolerance + Lerrs >= 0.0))
    return CertificationReport(
        min_margin=float(margins[i0]), argmin=tuple(pts[i0]),
        n_points=int(pts.shape[0]), error_budget=float(Lerrs[i0]),
        tolerance=float(tolerance), certified=certified, worst=worst)


# --------------------------------------------------------------------------
# refutation of the candidate family below the critical power
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateRefutation:
    alpha: float
    epsilon: float
    eps_max: float
    C_alpha: float
    min_margin: float
    argmin: tuple
    certified: bool


def refute_candidate_family(a: SpectralDensity, s: float, p: float,
                            mode: str = "halfspace", points=None,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple:
    """Certification attempt for every member of the nearest-regime candidate
    family (decaying half-space powers, translated and truncated in
    whole-space mode) over a grid of exponents and amplitudes.

    The exponents are the fractions 0.15, 0.35, 0.55, 0.75, 0.92 of the
    admissible range below s, the amplitudes 1, 0.5, 0.1 times eps_max.  L
    is linear: each amplitude eps reads its margins -eps Lb - (eps b)^p
    from one field Lb of the exponent's unit candidate b.  A non-constant
    density has no closed margin path: with the default points it keeps
    every fourth point and the exponents 0.35, 0.75.

    The check runs at zero tolerance: a candidate fails as soon as some
    sample margin is negative beyond its own evaluation error, which keeps
    far-field failures visible even though their absolute size is tiny.
    """
    if mode not in ("halfspace", "wholespace"):
        raise InputDomainError(f"unknown mode {mode!r}")
    if not (math.isfinite(p) and p > 1.0):
        raise InputDomainError(f"power must be finite and > 1, got {p}")
    N = a.dim
    alpha_fracs = (0.15, 0.35, 0.55, 0.75, 0.92)
    if points is None:
        pts = default_certification_points(N, mode)
        if not a.is_constant:
            pts = pts[::4]
            alpha_fracs = alpha_fracs[1::2]
    else:
        pts = _sample_points(points, N)
    lo = max(0.0, 2.0 * s - 1.0) if N == 1 else 0.0
    rows = []
    for frac in alpha_fracs:
        alpha = lo + (s - lo) * frac
        C, _, _ = _weighted_difference_constant(a, s, alpha, cfg)
        if not (C < 0.0):
            continue
        eps_max = (-C) ** (1.0 / (p - 1.0))
        base: CatalogFunction = kelvin(alpha, N, s)
        if mode == "wholespace":
            base = TranslateTruncate(base)
        Lb, Eb, _ = _L_field(a, s, base, pts, cfg)
        ub = base.values(pts)
        for fac in (1.0, 0.5, 0.1):
            eps = fac * eps_max
            rep = _margin_report(pts, eps * Lb, eps * Eb, eps * ub, p, 0.0)
            rows.append(CandidateRefutation(
                alpha=float(alpha), epsilon=eps, eps_max=float(eps_max),
                C_alpha=float(C), min_margin=rep.min_margin,
                argmin=rep.argmin, certified=rep.certified))
    if not rows:
        raise SearchFailureError("no admissible candidate exponent in the family")
    return tuple(rows)


# --------------------------------------------------------------------------
# cone opening search on the boundary sphere
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRow:
    gamma: float
    n_boundary: int
    min_volume: float
    three_sigma: float
    verified: bool
    worst_point: tuple


@dataclass(frozen=True)
class GammaSearchResult:
    gamma: float
    min_volume: float
    three_sigma: float
    verified: bool
    worst_point: tuple
    n_boundary: int
    monotone: bool
    rows: tuple


def _boundary_net(N: int, gamma: float, n_boundary: int) -> np.ndarray:
    """Deterministic net on the upper part of the unit sphere around
    (1 - gamma) e_N, closed at the boundary plane."""
    h = 1.0 - gamma
    if N == 2:
        tmax = math.acos(max(-1.0, min(1.0, -h)))
        th = np.linspace(-tmax, tmax, n_boundary)
        return np.stack([np.sin(th), h + np.cos(th)], axis=1)
    # Fibonacci net on the full sphere, keeping the closed upper part
    m = 2 * n_boundary
    k = np.arange(m) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.zeros((m, N))
    dirs[:, 0] = r * np.cos(phi)
    dirs[:, 1] = r * np.sin(phi)
    dirs[:, -1] = z
    pts = dirs.copy()
    pts[:, -1] += h
    return pts[pts[:, -1] >= 0.0]


def gamma_search(nu, tau: float, cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                 grid: Sequence[float] = (0.5, 0.25, 0.1, 0.05, 0.025, 0.01),
                 n_boundary: int = 96) -> GammaSearchResult:
    """Largest grid value gamma such that, from every net point on the upper
    boundary sphere of B_1((1 - gamma) e_N), the cone of directions sees a
    verified positive volume of the ball's upper part.

    Verified means the seeded sample volume stays positive by more than
    three binomial standard errors at every net point.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or nu.size < 2:
        raise InputDomainError("cone axis must be a vector of dimension >= 2")
    nn = float(np.linalg.norm(nu))
    if nn == 0.0 or not np.all(np.isfinite(nu)):
        raise InputDomainError("cone axis must be finite and nonzero")
    nu = nu / nn
    if not (0.0 < tau <= 1.0):
        raise InputDomainError(f"opening fraction must lie in (0, 1], got {tau}")
    if n_boundary < 50:
        raise InputDomainError("the boundary net needs at least 50 points")
    gammas = sorted({float(g) for g in grid}, reverse=True)
    if not gammas or not all(0.0 < g < 1.0 for g in gammas):
        raise InputDomainError("grid values must lie in (0, 1)")
    N = nu.size
    rows = []
    for gamma in gammas:
        center = np.zeros(N)
        center[-1] = 1.0 - gamma
        net = _boundary_net(N, gamma, n_boundary)
        worst = None
        for x in net:
            cone = Cone(axis=tuple(nu), tau=tau, vertex=tuple(x))

            def pred(P, cone=cone):
                return cone.contains_many(P) & (P[:, -1] > 0.0)

            res = mc_region_volume(pred, center, 1.0, cfg)
            margin = res.value - res.abs_error_estimate
            if worst is None or margin < worst[0]:
                worst = (margin, res.value, res.abs_error_estimate, x)
        rows.append(GammaRow(
            gamma=gamma, n_boundary=int(net.shape[0]),
            min_volume=float(worst[1]), three_sigma=float(worst[2]),
            verified=bool(worst[0] > 0.0), worst_point=tuple(worst[3])))
    flags = [r.verified for r in rows]          # descending gamma order
    monotone = all(a <= b for a, b in zip(flags, flags[1:]))
    winners = [r for r in rows if r.verified]
    if not winners:
        raise SearchFailureError(
            "no grid value of the contact parameter could be verified for "
            f"axis {tuple(nu)} and opening {tau}")
    best = max(winners, key=lambda r: r.gamma)
    return GammaSearchResult(
        gamma=best.gamma, min_volume=best.min_volume,
        three_sigma=best.three_sigma, verified=True,
        worst_point=best.worst_point, n_boundary=best.n_boundary,
        monotone=monotone, rows=tuple(rows))


# --------------------------------------------------------------------------
# comparison constant for the cutoff inequality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionEstimate:
    region: str
    M_est: float
    M_err: float
    sup_x: tuple
    n_points: int


@dataclass(frozen=True)
class StepOneReport:
    M_est: float
    M_err: float
    sup_x: tuple
    stability: float
    n_samples: int
    regions: tuple
    audit_max: float
    audit_err: float
    audit_argmax: tuple
    audit_n: int
    alpha0: float
    gamma0: float


def _step_one_samples(h: float, r_in: float, k: int) -> np.ndarray:
    """Deterministic samples of the spherical cap region: a disk grid over
    the bump plateau, transition-shell rings kept clear of both kink circles,
    and near-plane bands graded toward the boundary."""
    c = np.array([0.0, h])
    pts = []
    radii = np.linspace(0.08, r_in - 0.07, 3 + 2 * k)
    angles = np.linspace(0.0, 2.0 * math.pi, 8 + 4 * k, endpoint=False)
    for r in radii:
        for t in angles:
            pts.append(c + r * np.array([math.sin(t), math.cos(t)]))
    width = 1.0 - r_in
    shell = r_in + width * np.array([0.08, 0.16, 0.24, 0.33, 0.46, 0.62, 0.84])
    angles = np.linspace(0.0, 2.0 * math.pi, 10 + 2 * k, endpoint=False)
    for r in shell:
        for t in angles:
            x = c + r * np.array([math.sin(t), math.cos(t)])
            if x[-1] >= 0.12:
                pts.append(x)
    heights = np.geomspace(2e-3, 0.095, 2 + k)
    for xn in heights:
        w = math.sqrt(max((r_in - 0.05) ** 2 - (xn - h) ** 2, 0.0))
        for t in np.linspace(-0.97, 0.97, 3 + 2 * k):
            pts.append(np.array([t * w, xn]))
    pts = np.array(pts)
    return pts[pts[:, -1] >= 2e-3]


def _region_labels(pts: np.ndarray, h: float, r_in: float) -> np.ndarray:
    rho = np.linalg.norm(pts - np.array([0.0, h])[None, :], axis=1)
    near_plane = pts[:, -1] < 0.1
    near_sphere = rho >= r_in - 0.06
    labels = np.full(pts.shape[0], "interior", dtype=object)
    labels[near_sphere] = "sphere"
    labels[near_plane] = "flat"
    labels[near_plane & near_sphere] = "corner"
    return labels


def step_one_M(a: SpectralDensity, s: float, alpha0: float, gamma0: float,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> StepOneReport:
    """Estimate of the comparison constant M in the cutoff inequality: the
    supremum over the ball of (-L phi_alpha0 - L phi_s) / phi_s, where the
    test functions multiply half-space powers with a bump on
    B_1((1 - gamma0) e_N).

    The ratio is sampled on deterministic grids graded toward the sphere,
    the boundary plane, and their corner, on two refinements; the relative
    change is reported as stability.  M_err (per region too) is the error
    of the ratio at the sup point, (e_alpha0 + e_s) / phi_s from the error
    estimates of both operator values, which the route table _L_field
    returns.  Outside the ball both test functions vanish, so the numerator
    drops to a nonpositive pure mass term; the audit, which always runs,
    checks that sign at rings of exterior points and reports the largest
    numerator (audit_max), its error, point and the point count.

    Both test functions go to _L_field as one family (phi_alpha0, phi_s),
    in one call on the distinct points of both passes and the audit, so
    each route builds its geometry once per point for both.
    """
    if a.dim != 2:
        raise InputDomainError("the comparison-constant experiment is "
                               "two-dimensional")
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    hi = min(1.0, 2.0 * s)
    if not (s < alpha0 < hi):
        raise InputDomainError(
            f"auxiliary exponent must lie in ({s}, {hi}), got {alpha0}")
    if not (0.0 < gamma0 < 1.0):
        raise InputDomainError(
            f"contact parameter must lie in (0, 1), got {gamma0}")
    h = 1.0 - gamma0
    phi = Bump(2, s, center=(0.0, h), r_in=1.0 - 0.5 * gamma0, r_out=1.0)
    phia = Product(HalfSpacePower(2, s, alpha=alpha0), phi)
    phis = Product(HalfSpacePower(2, s, alpha=s), phi)
    loose = cfg.with_tol(abs_tol=max(cfg.abs_tol, 2e-5),
                         rel_tol=max(cfg.rel_tol, 1e-4))

    tc = math.sqrt(max(1.0 - h * h, 0.0))
    ext = []
    for R in (1.04, 1.15, 1.4, 2.2):
        for t in np.linspace(-2.2, 2.2, 9):
            x = np.array([0.0, h]) + R * np.array([math.sin(t), math.cos(t)])
            if x[-1] >= 0.12:
                ext.append(x)
    for t in (tc + 0.2, tc + 0.6):
        for sgn in (-1.0, 1.0):
            ext.append(np.array([sgn * t, 0.05]))
    ext = np.array(ext)
    pts_b = _step_one_samples(h, phi.r_in, 2)
    pts_d = _step_one_samples(h, phi.r_in, 4)
    # one family call on the distinct points of both passes and the audit:
    # a row does not depend on its batch, so sharing rows changes no value
    pts = np.concatenate((pts_b, pts_d, ext))
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    (va, vs), (ea, es), _ = _L_field(a, s, (phia, phis), uniq, loose)
    inv = inv.reshape(-1)
    # -L phi_alpha0 - L phi_s at each point, and its error
    numer_all, err_all = (-va - vs)[inv], (ea + es)[inv]
    nb, nd = pts_b.shape[0], pts_d.shape[0]

    ratios_b = numer_all[:nb] / phis.values(pts_b)
    den = phis.values(pts_d)
    ratios_d = numer_all[nb:nb + nd] / den
    errs_d = err_all[nb:nb + nd] / den
    M_base = float(np.max(ratios_b))
    M_dense = float(np.max(ratios_d))
    stability = abs(M_dense - M_base) / max(abs(M_dense), 1e-300)
    labels = _region_labels(pts_d, h, phi.r_in)
    regions = []
    for name in ("interior", "sphere", "flat", "corner"):
        mask = labels == name
        if not np.any(mask):
            regions.append(RegionEstimate(name, -math.inf, 0.0, (), 0))
            continue
        j = int(np.argmax(np.where(mask, ratios_d, -np.inf)))
        regions.append(RegionEstimate(
            region=name, M_est=float(ratios_d[j]), M_err=float(errs_d[j]),
            sup_x=tuple(pts_d[j]), n_points=int(mask.sum())))
    i0 = int(np.argmax(ratios_d))
    numer, err = numer_all[nb + nd:], err_all[nb + nd:]
    j = int(np.argmax(numer))
    return StepOneReport(
        M_est=M_dense, M_err=float(errs_d[i0]), sup_x=tuple(pts_d[i0]),
        stability=float(stability), n_samples=int(pts_d.shape[0]),
        regions=tuple(regions),
        audit_max=float(numer[j]), audit_err=float(err[j]),
        audit_argmax=tuple(ext[j]), audit_n=len(ext),
        alpha0=float(alpha0), gamma0=float(gamma0))


# --------------------------------------------------------------------------
# rescaled integral rows
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RescaledRow:
    R: float
    lhs: float
    rhs: float
    envelope_exponent: float
    lhs_err: float
    rhs_err: float


def rescaled_inequality_experiment(a: SpectralDensity, s: float, p: float,
                                   u: CatalogFunction, M: float, R_list,
                                   cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                                   gamma0: float = 0.25) -> tuple:
    """Both sides of the rescaled cutoff bound at each scale R: the integral
    of u^p against the weighted cutoff x_N^s phi(x/R), versus M R^{-2s}
    times the integral of u against the same weight.

    The integrals run in polar form about the origin on geometrically graded
    radii, which resolves the power-law concentration of the decaying
    candidates near zero; the first radial panel bounds the remainder below
    the innermost node.
    """
    operators._check_match(a, s, u)
    if a.dim != 2:
        raise InputDomainError("the rescaled comparison is two-dimensional")
    if not math.isfinite(p) or p < 1.0:
        raise InputDomainError(f"power must be finite and >= 1, got {p}")
    if not (M >= 0.0) or not math.isfinite(M):
        raise InputDomainError(f"comparison constant must be finite and >= 0, got {M}")
    if not (0.0 < gamma0 < 1.0):
        raise InputDomainError(
            f"contact parameter must lie in (0, 1), got {gamma0}")
    if not u.vanishes_lower_halfspace:
        raise InputDomainError(
            "the test function must vanish on the lower half-space")
    R_list = [float(R) for R in R_list]
    if not R_list or not all(R > 0.0 and math.isfinite(R) for R in R_list):
        raise InputDomainError("scales must be positive and finite")
    phi = Bump(2, s, center=(0.0, 1.0 - gamma0), r_in=1.0 - 0.5 * gamma0,
               r_out=1.0)
    env = halfspace_envelope_exponent(2, s, p)
    rows = []
    for R in R_list:
        phi_R = Rescale(phi, R) if R != 1.0 else phi
        rmax = R * (2.0 - gamma0)

        def run(ratio, g, na):
            re = _geom_edges(1e-30 * rmax, rmax, ratio, 8)
            ge = np.geomspace(1e-4, 0.5, na)
            te = _merge_edges([ge, np.linspace(0.5, math.pi - 0.5, 7), math.pi - ge],
                              0.0, math.pi)
            RT, W = _tensor_nodes([re, te], g)
            rr, th = RT[:, 0], RT[:, 1]
            P = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
            W = W * rr
            wv = P[:, 1] ** s * phi_R.values(P)
            keep = wv != 0.0
            with np.errstate(over="ignore"):
                uv = u.values(P[keep])
                i_p = float(np.sum(W[keep] * wv[keep] * uv ** p))
                i_1 = float(np.sum(W[keep] * wv[keep] * uv))
            fk = rr[keep] < re[1]          # nodes of the innermost panel
            with np.errstate(over="ignore"):
                m_p = abs(float(np.sum(W[keep][fk] * wv[keep][fk] * uv[fk] ** p)))
                m_1 = abs(float(np.sum(W[keep][fk] * wv[keep][fk] * uv[fk])))
            return i_p, i_1, m_p, m_1

        fp, f1, mp, m1 = run(1.30, 5, 10)
        cp, c1, _, _ = run(1.55, 4, 7)
        lhs = fp
        lhs_err = abs(fp - cp) + 3.0 * mp
        ub_err = abs(f1 - c1) + 3.0 * m1
        scale = M * R ** (-2.0 * s)
        rows.append(RescaledRow(
            R=R, lhs=lhs, rhs=float(scale * f1),
            envelope_exponent=env, lhs_err=float(lhs_err),
            rhs_err=float(scale * ub_err)))
    return tuple(rows)


# --------------------------------------------------------------------------
# scan across powers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    p: float
    threshold: float
    regime: str
    alpha: float
    C_alpha: float
    eps_max: float
    min_margin: float
    certified: bool
    error: str = ""  # "ClassName: message" of the failure in an "error" row


def liouville_scan(a: SpectralDensity, s: float, p_grid, mode: str,
                   cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                   tolerance: float = 1e-6, points=None) -> tuple:
    """One row per power: above the mode's critical value, construct and
    certify the explicit supersolution; at or below it, attempt every
    candidate in the nearest-regime family and report the least-failing one.

    Certification of a construction samples its validity region (the open
    upper half-space); refutation in whole-space mode also samples below the
    boundary plane, where a truncated candidate loses the inequality to its
    own mass.  Construction is only available for constant densities; rows
    for anisotropic densities above threshold record that.  Per-row errors
    are recorded in the row (regime "error", with the exception's class and
    message in ``error``) rather than aborting the scan; malformed points
    raise InputDomainError before any row is computed.
    """
    if mode not in ("halfspace", "wholespace"):
        raise InputDomainError(f"unknown mode {mode!r}")
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    N = a.dim
    threshold = critical_exponents(N, s)[mode]
    p_list = [float(p) for p in p_grid]
    if not p_list or not all(math.isfinite(p) and p > 1.0 for p in p_list):
        raise InputDomainError("powers must be finite and > 1")
    if points is None:
        all_pts = default_certification_points(N, mode)
    else:
        all_pts = _sample_points(points, N)
    upper_pts = all_pts[all_pts[:, -1] > 0.0]
    nan = float("nan")
    rows = []
    for p in sorted(p_list):
        try:
            if p > threshold:
                if not a.is_constant:
                    rows.append(ScanRow(p, threshold, "not_constructed", nan,
                                        nan, nan, nan, False))
                    continue
                con = construct_supersolution(N, s, p, cfg=cfg)
                rep = certify(a, s, p, con.function, upper_pts, cfg,
                              tolerance=tolerance)
                rows.append(ScanRow(
                    p=p, threshold=threshold, regime=con.regime,
                    alpha=con.alpha, C_alpha=con.C_alpha,
                    eps_max=con.eps_max, min_margin=rep.min_margin,
                    certified=rep.certified))
            else:
                cands = refute_candidate_family(
                    a, s, p, mode, points=None if points is None else all_pts,
                    cfg=cfg)
                best = max(cands, key=lambda c: c.min_margin)
                family = "kelvin" if mode == "halfspace" else "translate_truncate"
                rows.append(ScanRow(
                    p=p, threshold=threshold, regime=family,
                    alpha=best.alpha, C_alpha=best.C_alpha,
                    eps_max=best.eps_max, min_margin=best.min_margin,
                    certified=any(c.certified for c in cands)))
        except ConefracError as exc:
            rows.append(ScanRow(p, threshold, "error", nan, nan, nan, nan,
                                False, f"{type(exc).__name__}: {exc}"))
    return tuple(rows)
