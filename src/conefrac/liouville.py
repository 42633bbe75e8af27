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
    KelvinHalfSpacePower,
    Product,
    Rescale,
    ScalarMultiple,
    TranslateTruncate,
    _KinkSet,
    kelvin,
)
# c_alpha is not called here; the name stays bound so that per-module hooks
# on it (bench/tracing.py) keep resolving
from .quadrature import (  # noqa: F401
    DEFAULT_CONFIG,
    QuadratureConfig,
    _geom_edges,
    _geometric_tail,
    _merge_edges,
    c_alpha,
    mc_region_volume,
    sphere_surface_area,
)
# the mass sums call operators._conv_L through its module, so a hook on that
# one name sees every mass kernel of both modules
from . import operators
from .operators import (_L_field, _tensor_nodes,
                        _weighted_difference_constant, apply_L)

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

def _check_N_s(N: int, s: float) -> None:
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise InputDomainError(f"dimension must be a positive integer, got {N}")
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


def _mass_only_L(a: SpectralDensity, s: float, u: CatalogFunction,
                 X: np.ndarray):
    """Lu at points strictly below a vanishing half-space: only the mass of u
    reaches them, so Lu(x) = 2 integral of u(z) K(z - x) over the support,
    evaluated on a graded grid at two resolutions, with an edge at each
    kink sphere's extent along each axis and the analytic far tail bounded
    from the decay metadata."""
    ff = u.far_field
    N = X.shape[1]
    far_x = 2.0 * float(np.max(np.linalg.norm(X, axis=1)))
    if ff.coef == 0.0:
        span = max(ff.radius * 1.05, far_x, 1.0)
        tail = 0.0
    else:
        span = max(600.0, 2.0 * ff.radius, far_x)
        tail = (2.0 * a.upper_bound * ff.coef * sphere_surface_area(N)
                * 2.0 ** (N + 2.0 * s)
                * span ** (-(ff.rate + 2.0 * s)) / (ff.rate + 2.0 * s))

    kinks = _KinkSet.of(u)
    r = kinks.radii[:, None]
    ext = np.concatenate((kinks.centers - r, kinks.centers + r))

    def run(ratio, g):
        ze = _geom_edges(1e-6, span, ratio, 6)
        edges = [_merge_edges([-ze, [0.0], ze, ext[:, i]], -span, span)
                 for i in range(N - 1)]
        edges.append(_merge_edges([ze, ext[:, -1]], 1e-6, span))
        Z, W = _tensor_nodes(edges, g)
        uv = u.values(Z)
        keep = uv != 0.0
        Z, W = Z[keep], W[keep] * uv[keep]
        return operators._conv_L(a, s, Z, W, X), Z.shape[0] * X.shape[0]

    vf, n1 = run(1.35, 3)
    vc, n2 = run(1.8, 2)
    return vf, np.abs(vf - vc) + tail, n1 + n2


def _operator_batch(a: SpectralDensity, s: float, u: CatalogFunction,
                    pts: np.ndarray, cfg: QuadratureConfig):
    """Lu with per-point error, splitting off points below the boundary
    plane where only the mass of a half-space-supported u contributes."""
    n = pts.shape[0]
    vals = np.empty(n)
    errs = np.empty(n)
    nev = 0
    upper = pts[:, -1] > 0.0
    if np.any(upper):
        v, e, k = _L_field(a, s, u, pts[upper], cfg)
        vals[upper], errs[upper] = v, e
        nev += k
    rest = ~upper
    if np.any(rest):
        below = rest & (pts[:, -1] < 0.0)
        if (np.array_equal(below, rest) and u.vanishes_lower_halfspace
                and u.far_field is not None and pts.shape[1] <= 2):
            v, e, k = _mass_only_L(a, s, u, pts[rest])
            vals[rest], errs[rest] = v, e
            nev += k
        else:
            for i in np.nonzero(rest)[0]:
                r = apply_L(a, s, u, pts[i], cfg, strict=False)
                vals[i] = r.value
                errs[i] = r.abs_error_estimate
                nev += r.n_evals
    return vals, errs, nev


def certify(a: SpectralDensity, s: float, p: float, u: CatalogFunction,
            points, cfg: QuadratureConfig = DEFAULT_CONFIG, *,
            tolerance: float = 1e-6) -> CertificationReport:
    """Check -Lu >= u^p at every sample point, within the stated tolerance
    plus the per-point evaluation error budget."""
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    if not math.isfinite(p) or p < 1.0:
        raise InputDomainError(f"power must be finite and >= 1, got {p}")
    if tolerance < 0.0:
        raise InputDomainError("tolerance must be nonnegative")
    if u.dim != a.dim:
        raise InputDomainError(
            f"function dimension {u.dim} does not match density dimension {a.dim}")
    if not math.isclose(u.s, s, rel_tol=1e-12):
        raise InputDomainError(
            f"function order {u.s} does not match requested order {s}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != a.dim or pts.shape[0] == 0:
        raise InputDomainError("sample points must form a nonempty (n, dim) array")
    if not np.all(np.isfinite(pts)):
        raise InputDomainError("sample points must be finite")
    Lvals, Lerrs, _ = _operator_batch(a, s, u, pts, cfg)
    margins = -Lvals - u.values(pts) ** p
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
                            cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                            alpha_fracs: Sequence[float] = (0.15, 0.35, 0.55,
                                                            0.75, 0.92),
                            eps_fracs: Sequence[float] = (1.0, 0.5, 0.1),
                            ) -> tuple:
    """Certification attempt for every member of the nearest-regime candidate
    family (decaying half-space powers, translated and truncated in
    whole-space mode) over a grid of exponents and amplitudes.

    The check runs at zero tolerance: a candidate fails as soon as some
    sample margin is negative beyond its own evaluation error, which keeps
    far-field failures visible even though their absolute size is tiny.
    """
    if mode not in ("halfspace", "wholespace"):
        raise InputDomainError(f"unknown mode {mode!r}")
    N = a.dim
    if points is None:
        pts = default_certification_points(N, mode)
        if not a.is_constant:
            # anisotropic densities lack a closed margin path; keep the
            # per-point cost bounded
            pts = pts[::4]
            alpha_fracs = tuple(alpha_fracs)[1::2]
            eps_fracs = (1.0, 0.1)
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = max(0.0, 2.0 * s - 1.0) if N == 1 else 0.0
    rows = []
    for frac in alpha_fracs:
        alpha = lo + (s - lo) * float(frac)
        C, _, _ = _weighted_difference_constant(a, s, alpha, cfg)
        if not (C < 0.0):
            continue
        eps_max = (-C) ** (1.0 / (p - 1.0))
        base: CatalogFunction = kelvin(alpha, N, s)
        if mode == "wholespace":
            base = TranslateTruncate(base)
        for fac in eps_fracs:
            eps = float(fac) * eps_max
            rep = certify(a, s, p, ScalarMultiple(eps, base), pts, cfg,
                          tolerance=0.0)
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
    sup_x: tuple
    n_points: int


@dataclass(frozen=True)
class StepOneReport:
    M_est: float
    sup_x: tuple
    stability: float
    n_samples: int
    regions: tuple
    audit_max: float
    audit_argmax: tuple
    audit_n: int
    alpha0: float
    gamma0: float


# shared geometry of the cutoff mass integrals: the plate is the L-infinity
# ball of this radius around the bump center, clipped to the upper
# half-plane; dyadic frames beyond it feed the geometric tail completion
_PLATE_SPAN = 4.0
_N_FRAMES = 12
_PLANE_EPS = 1e-8


def _cluster_edges(lo: float, hi: float, base_step: float, anchor: float,
                   h0: float, ratio: float) -> np.ndarray:
    """Edges on [lo, hi]: uniform coverage plus geometric accumulation
    toward the anchor, starting at offset h0."""
    n = max(2, int(math.ceil((hi - lo) / base_step)))
    offs = [h0]
    while offs[-1] < 0.45 * (hi - lo):
        offs.append(offs[-1] * ratio)
    offs = np.asarray(offs)
    return _merge_edges([np.linspace(lo, hi, n + 1), anchor - offs, anchor + offs],
                        lo, hi)


class _CutoffMassField:
    """L of the plateau test functions by splitting against the pure power.

    phi_alpha agrees with the half-space power on the bump plateau, so there
    L phi_alpha(x) is the closed form of the power minus the mass of the
    complement-weighted power, a nonsingular integral.  Outside the support
    only the mass of phi_alpha itself reaches x.  Both masses run on
    plane-aligned tensor plates at two resolutions; the unbounded complement
    is finished by dyadic frame sums, whose remainder _geometric_tail
    completes from the last three frames, at their measured ratio or, when
    that is not clearly below one (alpha near 2s, or s near 0), at the
    known asymptotic ratio 2^(alpha - 2s) of the frame sums.  Points in the
    transition shell fall back to the excision evaluator."""

    def __init__(self, a: SpectralDensity, s: float, alpha0: float,
                 bump: Bump, cfg: QuadratureConfig):
        self.a = a
        self.s = s
        self.alphas = (alpha0, s)
        self.bump = bump
        self.cfg = cfg
        self.c = np.asarray(bump.center, dtype=float)
        self.r_in = bump.r_in
        self.r_out = bump.r_out
        self.phia = Product(HalfSpacePower(2, s, alpha=alpha0), bump)
        self.phis = Product(HalfSpacePower(2, s, alpha=s), bump)
        self.W = {al: _weighted_difference_constant(a, s, al, cfg)[:2]
                  for al in self.alphas}
        self.frames = [self._frame_mesh(4, 2.4, 3), self._frame_mesh(3, 3.2, 2)]

    def _frame_mesh(self, g: int, zn_ratio: float, n1p: int):
        """Quadrature nodes on the dyadic frames beyond the plate, frame by
        frame, their (m, 2) weight matrix (one column per exponent: the
        complement weight, identically one out there, times z_N^alpha) and
        the node index at which each frame starts, with m appended."""
        c1, cn = self.c
        zs, ws, starts = [], [], [0]
        for j in range(_N_FRAMES):
            r0 = _PLATE_SPAN * 2.0 ** j
            r1 = 2.0 * r0
            zn_col = _geom_edges(_PLANE_EPS, cn + r1, zn_ratio)
            for sgn in (-1.0, 1.0):
                z1 = c1 + sgn * np.geomspace(r0, r1, n1p + 1)
                z, w = _tensor_nodes([np.sort(z1), zn_col], g)
                zs.append(z)
                ws.append(w)
            z1_top = np.linspace(c1 - r0, c1 + r0, 2 * n1p + 3)
            zn_top = np.geomspace(cn + r0, cn + r1, n1p + 1)
            z, w = _tensor_nodes([z1_top, zn_top], g)
            zs.append(z)
            ws.append(w)
            starts.append(sum(wi.size for wi in ws))
        z = np.concatenate(zs)
        w = np.concatenate(ws)
        W = np.stack([w * z[:, 1] ** al for al in self.alphas])
        return z, W.T, starts

    def _plate(self, x: np.ndarray, outside: bool, g: int, base: float,
               h0: float, ratio: float, zn_ratio: float):
        """Mass integral of z_N^alpha times the complement (or, outside the
        support, the bump itself) against the kernel centered at x."""
        c1, cn = self.c
        if outside:
            lo1, hi1 = c1 - self.r_out, c1 + self.r_out
            top = cn + self.r_out
        else:
            lo1, hi1 = c1 - _PLATE_SPAN, c1 + _PLATE_SPAN
            top = cn + _PLATE_SPAN
        a1 = min(max(x[0], lo1), hi1)
        an = min(max(x[1], _PLANE_EPS), top)
        z1e = _cluster_edges(lo1, hi1, base, a1, h0, ratio)
        zne = _merge_edges([
            _geom_edges(_PLANE_EPS, 0.5, zn_ratio),
            _cluster_edges(0.5, top, base, an, h0, ratio),
            _cluster_edges(_PLANE_EPS, min(0.5 + h0, top), 0.5, an, h0, ratio),
        ], _PLANE_EPS, top)
        z, w = _tensor_nodes([z1e, zne], g)
        prof = self.bump.values(z)
        prof = prof if outside else 1.0 - prof
        keep = prof > 0.0
        z, w = z[keep], w[keep] * prof[keep]
        W = np.stack([w * z[:, 1] ** al for al in self.alphas])
        G = operators._conv_L(self.a, self.s, z, W.T, x[None, :])[0]
        return {al: float(v) for al, v in zip(self.alphas, G)}

    def _frame_sums(self, x: np.ndarray, mesh):
        z, W, starts = mesh
        frame_sums = np.stack([
            operators._conv_L(self.a, self.s, z[i:j], W[i:j], x[None, :])[0]
            for i, j in zip(starts[:-1], starts[1:])])
        rem, err = _geometric_tail(
            frame_sums[-3:].T, 2.0 ** (np.array(self.alphas) - 2.0 * self.s))
        return {al: (float(S.sum() + r), float(e))
                for al, S, r, e in zip(self.alphas, frame_sums.T, rem, err)}

    def _plane_remainder(self, clearance: float) -> dict:
        """Mass below the lowest tensor node, bounded along the plane."""
        ts2 = 2.0 * self.s
        line = 2.0 * (1.0 + 1.0 / (1.0 + ts2)) * clearance ** (-1.0 - ts2)
        aU = 2.0 * self.a.upper_bound
        return {al: _PLANE_EPS ** (1.0 + al) / (1.0 + al) * aU * line
                for al in self.alphas}

    def _interior(self, X: np.ndarray):
        """Plateau points: closed form of the power minus complement mass."""
        n = X.shape[0]
        va, ea = np.empty(n), np.empty(n)
        vs, es = np.empty(n), np.empty(n)
        al0 = self.alphas[0]
        for i, x in enumerate(X):
            clr = self.r_in - float(np.linalg.norm(x - self.c))
            h0 = max(clr / 6.0, 2e-3)
            fine = self._plate(x, False, 4, 0.4, h0, 1.7, 2.2)
            coarse = self._plate(x, False, 3, 0.55, 2.0 * h0, 2.1, 3.0)
            tf = self._frame_sums(x, self.frames[0])
            tc = self._frame_sums(x, self.frames[1])
            rem = self._plane_remainder(clr)
            out = {}
            for al in self.alphas:
                W, We = self.W[al]
                pw = x[1] ** (al - 2.0 * self.s)
                G = fine[al] + tf[al][0]
                Gc = coarse[al] + tc[al][0]
                out[al] = (W * pw - G,
                           abs(Gc - G) + tf[al][1] + rem[al] + We * abs(pw))
            va[i], ea[i] = out[al0]
            vs[i], es[i] = out[self.s]
        return va, ea, vs, es

    def _exterior(self, X: np.ndarray):
        """Points clear of the support: only the mass of phi_alpha arrives."""
        n = X.shape[0]
        va, ea = np.empty(n), np.empty(n)
        vs, es = np.empty(n), np.empty(n)
        al0 = self.alphas[0]
        for i, x in enumerate(X):
            clr = float(np.linalg.norm(x - self.c)) - self.r_out
            h0 = max(clr / 6.0, 2e-3)
            fine = self._plate(x, True, 4, 0.16, h0, 1.7, 2.2)
            coarse = self._plate(x, True, 3, 0.23, 2.0 * h0, 2.1, 3.0)
            rem = self._plane_remainder(clr)
            va[i] = fine[al0]
            ea[i] = abs(fine[al0] - coarse[al0]) + rem[al0]
            vs[i] = fine[self.s]
            es[i] = abs(fine[self.s] - coarse[self.s]) + rem[self.s]
        return va, ea, vs, es

    def L_pair(self, X: np.ndarray):
        """(L phi_alpha0, L phi_s) with error estimates at each point."""
        n = X.shape[0]
        va, ea = np.empty(n), np.empty(n)
        vs, es = np.empty(n), np.empty(n)
        rho = np.linalg.norm(X - self.c[None, :], axis=1)
        plateau = self.r_in - rho >= 0.044
        outer = rho - self.r_out >= 0.034
        shell = ~plateau & ~outer
        if np.any(plateau):
            out = self._interior(X[plateau])
            va[plateau], ea[plateau], vs[plateau], es[plateau] = out
        if np.any(outer):
            out = self._exterior(X[outer])
            va[outer], ea[outer], vs[outer], es[outer] = out
        if np.any(shell):
            pts = X[shell]
            v1, e1, _ = _L_field(self.a, self.s, self.phia, pts, self.cfg)
            v2, e2, _ = _L_field(self.a, self.s, self.phis, pts, self.cfg)
            va[shell], ea[shell] = v1, e1
            vs[shell], es[shell] = v2, e2
        return va, ea, vs, es


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
               cfg: QuadratureConfig = DEFAULT_CONFIG, *,
               audit: bool = True) -> StepOneReport:
    """Estimate of the comparison constant M in the cutoff inequality: the
    supremum over the ball of (-L phi_alpha0 - L phi_s) / phi_s, where the
    test functions multiply half-space powers with a bump on
    B_1((1 - gamma0) e_N).

    The ratio is sampled on deterministic grids graded toward the sphere,
    the boundary plane, and their corner, on two refinements; the relative
    change is reported as stability.  Outside the ball both test functions
    vanish, so the numerator drops to a nonpositive pure mass term; the
    audit checks that sign at a ring of exterior points.
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
    loose = cfg.with_tol(abs_tol=max(cfg.abs_tol, 2e-5),
                         rel_tol=max(cfg.rel_tol, 1e-4))
    field = _CutoffMassField(a, s, alpha0, phi, loose)

    def sup_pass(k):
        pts = _step_one_samples(h, phi.r_in, k)
        va, _, vs, _ = field.L_pair(pts)
        ratios = (-va - vs) / field.phis.values(pts)
        return pts, ratios

    pts_b, ratios_b = sup_pass(2)
    pts_d, ratios_d = sup_pass(4)
    M_base = float(np.max(ratios_b))
    M_dense = float(np.max(ratios_d))
    stability = abs(M_dense - M_base) / max(abs(M_dense), 1e-300)
    labels = _region_labels(pts_d, h, phi.r_in)
    regions = []
    for name in ("interior", "sphere", "flat", "corner"):
        mask = labels == name
        if not np.any(mask):
            regions.append(RegionEstimate(name, -math.inf, (), 0))
            continue
        j = int(np.argmax(np.where(mask, ratios_d, -np.inf)))
        regions.append(RegionEstimate(
            region=name, M_est=float(ratios_d[j]), sup_x=tuple(pts_d[j]),
            n_points=int(mask.sum())))
    i0 = int(np.argmax(ratios_d))
    audit_max, audit_arg, audit_n = -math.inf, (), 0
    if audit:
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
        va, _, vs, _ = field.L_pair(ext)
        numer = -va - vs
        j = int(np.argmax(numer))
        audit_max, audit_arg, audit_n = float(numer[j]), tuple(ext[j]), len(ext)
    return StepOneReport(
        M_est=M_dense, sup_x=tuple(pts_d[i0]), stability=float(stability),
        n_samples=int(pts_d.shape[0]), regions=tuple(regions),
        audit_max=audit_max, audit_argmax=audit_arg, audit_n=audit_n,
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
    if a.dim != 2 or u.dim != 2:
        raise InputDomainError("the rescaled comparison is two-dimensional")
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    if not math.isclose(u.s, s, rel_tol=1e-12):
        raise InputDomainError(
            f"function order {u.s} does not match requested order {s}")
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
    are recorded in the row rather than aborting the scan.
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
        all_pts = np.atleast_2d(np.asarray(points, dtype=float))
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
        except ConefracError:
            rows.append(ScanRow(p, threshold, "error", nan, nan, nan, nan,
                                False))
    return tuple(rows)
