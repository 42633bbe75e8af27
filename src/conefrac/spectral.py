"""Directional weights on the unit sphere and their ellipticity diagnostics.

The directional weight (spectral density) multiplies the radial kernel
``|y|^{-N-2s}``.  It must be even; the useful lower-bound hypothesis is that it
stays above ``d > 0`` on the trace of a symmetric double cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDensityError, InputDomainError

_UNIT_TOL = 1e-12
_EVAL_UNIT_TOL = 1e-9


def _as_unit(vec: Sequence[float], tol: float = _UNIT_TOL) -> tuple[float, ...]:
    arr = np.asarray(vec, dtype=float)
    nrm = float(np.linalg.norm(arr))
    if not math.isfinite(nrm) or abs(nrm - 1.0) > tol:
        raise InputDomainError(f"axis must be a unit vector, |axis| = {nrm!r}")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True)
class Cone:
    """Symmetric double cone: points y with |(y - vertex).axis| >= (1-tau)|y - vertex|.

    ``tau`` in (0, 1]; the half-aperture is arccos(1 - tau), so tau = 1 gives
    the whole space.  Every membership question goes through one test on raw
    offsets d = y - vertex, ``(d.axis)^2 >= (1-tau)^2 |d|^2``: no unit
    vector is formed, so the test is even in d and exact under scaling by
    powers of two.
    """

    axis: tuple[float, ...]
    tau: float
    vertex: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "axis", _as_unit(self.axis))
        if not (0.0 < self.tau <= 1.0):
            raise InputDomainError(f"tau must lie in (0, 1], got {self.tau}")
        if self.vertex == ():
            object.__setattr__(self, "vertex", (0.0,) * len(self.axis))
        elif len(self.vertex) != len(self.axis):
            raise InputDomainError("vertex and axis dimensions differ")
        else:
            object.__setattr__(self, "vertex", tuple(float(c) for c in self.vertex))

    @property
    def dim(self) -> int:
        return len(self.axis)

    @property
    def aperture(self) -> float:
        return math.acos(1.0 - self.tau)

    def _contains_offsets(self, d: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Membership of the offsets d, coordinates leading (d[c] holds the
        c-th coordinate of every offset), given their squared lengths r2.
        The projection is summed coordinate by coordinate, like r2."""
        proj = d[0] * self.axis[0]
        for c in range(1, self.dim):
            proj = proj + d[c] * self.axis[c]
        return proj * proj >= (1.0 - self.tau) ** 2 * r2

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = np.subtract(pts.T, np.asarray(self.vertex)[:, None], order="C")
        return self._contains_offsets(rel, _sum_squares(rel))

    def contains(self, y: Sequence[float]) -> bool:
        """Closed-cone membership; the vertex itself is a member."""
        return bool(self.contains_many(np.asarray(y, dtype=float)[None, :])[0])


def _sum_squares(d: np.ndarray) -> np.ndarray:
    """Squared lengths of offsets given coordinates leading, summed
    coordinate by coordinate."""
    r2 = d[0] * d[0]
    for c in range(1, d.shape[0]):
        r2 = r2 + d[c] * d[c]
    return r2


def _check_unit_input(thetas: np.ndarray) -> None:
    nrm = np.linalg.norm(thetas, axis=-1)
    bad = np.abs(nrm - 1.0) > _EVAL_UNIT_TOL
    if np.any(bad):
        raise InputDomainError(
            f"density evaluation requires unit directions, worst |theta| = "
            f"{float(nrm[bad][0])!r}")


@dataclass(frozen=True)
class SpectralDensity:
    """Base class; use the concrete variants below."""

    dim: int

    # ---- interface -------------------------------------------------------
    @property
    def upper_bound(self) -> float:
        raise NotImplementedError

    @property
    def lower_cap_bound(self) -> float:
        """Largest d with a >= d on the closed hypothesis cone cap (0 if none)."""
        raise NotImplementedError

    @property
    def cone(self) -> Cone | None:
        return None

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        """Cap-boundary cosines c: the weight may jump across {|theta.axis| = c}."""
        return ()

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def satisfies_cone_hypothesis(self) -> bool:
        return self.lower_cap_bound > 0.0

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate on directions assumed unit; no input check."""
        raise NotImplementedError

    def _eval_offsets(self, d: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Evaluate at the directions of nonzero offsets d, coordinates
        leading (shape (dim, ...)), given their squared lengths r2 (shape
        d.shape[1:]); returns an array shaped like r2.  The weight is
        0-homogeneous, so a subclass may read d and r2 directly; this default
        normalises to unit vectors and calls _eval_unit, which is the path
        custom densities take."""
        unit = (d / np.sqrt(r2)[None]).reshape(d.shape[0], -1).T
        return self._eval_unit(np.ascontiguousarray(unit)).reshape(r2.shape)

    def eval_many(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[-1] != self.dim:
            raise InputDomainError(
                f"direction dimension {thetas.shape[-1]} != density dimension {self.dim}")
        _check_unit_input(thetas)
        return self._eval_unit(thetas)

    def __call__(self, theta: Sequence[float]) -> float:
        """Pointwise weight; directions on a closed cap boundary get the cap value."""
        return float(self.eval_many(np.asarray(theta, dtype=float)[None, :])[0])


@dataclass(frozen=True)
class ConstantDensity(SpectralDensity):
    value: float = 1.0

    def __post_init__(self):
        if self.value < 0.0 or not math.isfinite(self.value):
            raise InputDomainError(f"constant weight must be >= 0, got {self.value}")

    @property
    def upper_bound(self) -> float:
        return self.value

    @property
    def lower_cap_bound(self) -> float:
        return self.value

    @property
    def cone(self) -> Cone | None:
        if self.value <= 0.0:
            return None
        axis = (0.0,) * (self.dim - 1) + (1.0,)
        return Cone(axis=axis, tau=1.0)

    @property
    def is_constant(self) -> bool:
        return True

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        return np.full(thetas.shape[0], self.value)


@dataclass(frozen=True)
class ConePlateauDensity(SpectralDensity):
    """``inside`` on the closed cone cap, ``outside`` elsewhere, 0 <= outside <= inside."""

    cone_: Cone = field(default=None)  # type: ignore[assignment]
    inside: float = 1.0
    outside: float = 0.0

    def __post_init__(self):
        if self.cone_ is None or not isinstance(self.cone_, Cone):
            raise InputDomainError("cone plateau requires a Cone")
        if self.cone_.dim != self.dim:
            raise InputDomainError("cone dimension does not match density dimension")
        if any(c != 0.0 for c in self.cone_.vertex):
            raise InputDomainError("plateau cone must have its vertex at the origin")
        if not (self.inside > 0.0):
            raise InputDomainError("plateau value inside the cap must be positive")
        if not (0.0 <= self.outside <= self.inside):
            raise InputDomainError("need 0 <= outside <= inside")

    @property
    def upper_bound(self) -> float:
        return self.inside

    @property
    def lower_cap_bound(self) -> float:
        return self.inside

    @property
    def cone(self) -> Cone:
        return self.cone_

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        if self.outside == self.inside or self.cone_.tau >= 1.0:
            return ()
        return (1.0 - self.cone_.tau,)

    def _eval_offsets(self, d: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return np.where(self.cone_._contains_offsets(d, r2), self.inside, self.outside)

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        return self._eval_offsets(thetas.T, _sum_squares(thetas.T))


@dataclass(frozen=True)
class CustomDensity(SpectralDensity):
    """Arbitrary even weight.  ``evaluator`` maps an (M, dim) array to (M,)
    values; evaluation is symmetrized so evenness holds by construction.
    ``jumps`` lists cap-boundary cosines (relative to ``axis``, which they
    then require) across which the weight may be discontinuous; with none
    the weight is taken as smooth."""

    evaluator: Callable[[np.ndarray], np.ndarray] = field(default=None)  # type: ignore
    jumps: tuple[float, ...] = ()
    axis: tuple[float, ...] | None = None
    lower: float = 0.0
    upper: float = 1.0
    hypothesis_cone: Cone | None = None

    def __post_init__(self):
        if self.evaluator is None:
            raise InputDomainError("custom density requires an evaluator")
        if self.axis is not None:
            object.__setattr__(self, "axis", _as_unit(self.axis))
        if self.jumps and self.axis is None:
            raise InputDomainError("jump cosines need an axis to refer to")
        if not (0.0 <= self.lower <= self.upper) or not math.isfinite(self.upper):
            raise InputDomainError("need 0 <= lower <= upper < inf")

    @property
    def upper_bound(self) -> float:
        return self.upper

    @property
    def lower_cap_bound(self) -> float:
        return self.lower

    @property
    def cone(self) -> Cone | None:
        return self.hypothesis_cone

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        return self.jumps

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        vals = 0.5 * (np.asarray(self.evaluator(thetas), dtype=float)
                      + np.asarray(self.evaluator(-thetas), dtype=float))
        return vals


@dataclass(frozen=True)
class EllipticityDiagnostics:
    lambda_est: float
    lambda_err: float
    Lambda_est: float
    Lambda_err: float
    argmin_axis: tuple[float, ...]

    def __post_init__(self):
        if self.lambda_est > self.Lambda_est + self.lambda_err + self.Lambda_err:
            raise ValueError("lower ellipticity bound exceeds the upper one")


def weighted_sphere_moment(a: SpectralDensity, s: float, cfg=None):
    """Integral of |theta_N|^{2s} a(theta) over the unit sphere."""
    e_last = np.zeros(a.dim)
    e_last[-1] = 1.0
    return directional_moment(a, s, e_last, cfg)


def directional_moment(a: SpectralDensity, s: float, nu: Sequence[float], cfg=None):
    """Integral of |nu.theta|^{2s} a(theta) over the unit sphere."""
    from . import quadrature

    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    cfg = cfg or quadrature.QuadratureConfig()
    nu_arr = np.asarray(_as_unit(nu))

    def g(thetas: np.ndarray) -> np.ndarray:
        return np.abs(thetas @ nu_arr) ** (2.0 * s)

    return quadrature.sphere_quadrature(a, g, cfg, kink_normals=(nu_arr,))


def _nu_grid(dim: int, n: int) -> np.ndarray:
    """Deterministic direction grid covering half the sphere (the moment is even)."""
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        phis = np.pi * np.arange(n) / n
        return np.stack([np.cos(phis), np.sin(phis)], axis=1)
    # Fibonacci hemisphere for dim == 3; axis-aligned + random-free net beyond.
    if dim == 3:
        k = np.arange(n)
        z = (k + 0.5) / n
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pts.append(e)
        for j in range(i + 1, dim):
            v = np.zeros(dim)
            v[i] = v[j] = 1.0 / math.sqrt(2.0)
            pts.append(v)
            w = v.copy()
            w[j] *= -1.0
            pts.append(w)
    return np.asarray(pts)


def ellipticity_diagnostics(a: SpectralDensity, s: float, cfg=None) -> EllipticityDiagnostics:
    """Estimate the pair (lambda, Lambda) bracketing the operator's ellipticity.

    lambda is minimized over a deterministic direction grid with a local
    refinement pass around the argmin; both estimates carry quadrature errors.
    The grid spacing itself is not folded into lambda_err.
    """
    from . import quadrature

    cfg = cfg or quadrature.QuadratureConfig()
    if a.upper_bound <= 0.0:
        raise DegenerateDensityError("directional weight vanishes identically")

    ones = quadrature.sphere_quadrature(a, lambda th: np.ones(th.shape[0]), cfg)
    if ones.value <= max(1e-12, 10.0 * ones.abs_error_estimate):
        raise DegenerateDensityError("directional weight integrates to zero")

    nus = _nu_grid(a.dim, 48 if a.dim == 2 else 96)
    vals = []
    for nu in nus:
        res = directional_moment(a, s, nu, cfg)
        vals.append((res.value, res.abs_error_estimate, tuple(nu)))
    best = min(vals, key=lambda t: t[0])

    if a.dim >= 2:
        # local refinement: rotate the argmin inside the planes spanned with
        # each coordinate axis, shrinking the step three times
        cur_val, cur_err, cur_nu = best
        step = math.pi / len(nus)
        for _ in range(3):
            improved = False
            base = np.asarray(cur_nu)
            for i in range(a.dim):
                e = np.zeros(a.dim)
                e[i] = 1.0
                if abs(abs(float(base @ e)) - 1.0) < 1e-12:
                    continue
                tang = e - (base @ e) * base
                tang /= np.linalg.norm(tang)
                for sgn in (1.0, -1.0):
                    cand = math.cos(step) * base + sgn * math.sin(step) * tang
                    cand /= np.linalg.norm(cand)
                    res = directional_moment(a, s, cand, cfg)
                    if res.value < cur_val:
                        cur_val, cur_err, cur_nu = res.value, res.abs_error_estimate, tuple(cand)
                        improved = True
            step *= 0.5 if improved else 0.35
        best = (cur_val, cur_err, cur_nu)

    return EllipticityDiagnostics(
        lambda_est=best[0], lambda_err=best[1],
        Lambda_est=ones.value, Lambda_err=ones.abs_error_estimate,
        argmin_axis=best[2])
