"""Closed-form function catalog with the analytic metadata the operator
evaluator needs: exact derivatives, kink surfaces, growth envelopes, support
descriptors and far-field decay bounds.

Conventions: the distinguished coordinate is the last one (written x_N); the
upper half-space is {x_N > 0}.  Every member carries the kernel order s it is
meant to be paired with, because admissible exponent ranges and growth
envelopes depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputDomainError, NonsmoothPointError

_KINK_TOL = 1e-12


@dataclass(frozen=True)
class GrowthBound:
    """|f(y)| <= beta * (1 + |y|^(2s - delta)) for |y| >= valid_radius."""
    beta: float
    delta: float
    valid_radius: float = 0.0


@dataclass(frozen=True)
class FarFieldBound:
    """|f(y)| <= coef * |y|^(-rate) for |y| >= radius; coef 0 means f
    vanishes there."""
    coef: float
    rate: float
    radius: float


@dataclass(frozen=True)
class PlaneKink:
    """Surface {y . normal = offset}; exponent is the power of the distance
    in which f loses smoothness there, when known."""
    normal: tuple
    offset: float
    exponent: Optional[float] = None


@dataclass(frozen=True)
class SphereKink:
    center: tuple
    radius: float


@dataclass(frozen=True)
class SupportBall:
    """f vanishes outside this ball (intersected with the open upper
    half-space when halfspace_clipped)."""
    center: tuple
    radius: float
    halfspace_clipped: bool = False


def _as_tuple(v, dim: int) -> tuple:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != dim:
        raise InputDomainError(f"expected a point of dimension {dim}, got {arr.size}")
    return tuple(float(c) for c in arr)


def _pts2d(pts, dim: int) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InputDomainError(f"expected points of shape (M, {dim})")
    return arr


@dataclass(frozen=True)
class CatalogFunction:
    """Base contract: vectorized values, exact derivatives off kinks, and the
    metadata (kinks, growth, support) that quadrature routing consumes."""

    dim: int
    s: float

    def __post_init__(self):
        if self.dim < 1:
            raise InputDomainError("dimension must be at least 1")
        if not (0.0 < self.s < 1.0):
            raise InputDomainError(f"order parameter s must lie in (0, 1), got {self.s}")

    # -- values ------------------------------------------------------------
    def values(self, pts) -> np.ndarray:
        raise NotImplementedError

    def value(self, x) -> float:
        return float(self.values(_pts2d(x, self.dim))[0])

    # -- derivatives -------------------------------------------------------
    def _grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hess(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        self.require_smooth_at(x)
        return self._grad(x)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        self.require_smooth_at(x)
        h = self._hess(x)
        return 0.5 * (h + h.T)

    # -- metadata ----------------------------------------------------------
    @property
    def kink_surfaces(self) -> tuple:
        return ()

    @property
    def singular_points(self) -> tuple:
        return ()

    @property
    def support_ball(self) -> Optional[SupportBall]:
        return None

    @property
    def growth(self) -> GrowthBound:
        raise NotImplementedError

    @property
    def far_field(self) -> Optional[FarFieldBound]:
        return None

    @property
    def sup_bound(self) -> Optional[float]:
        return None

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return False

    def require_smooth_at(self, x) -> None:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        scale = max(1.0, float(np.linalg.norm(x)))
        if _KinkSet.of(self).distance(x) < _KINK_TOL * scale:
            raise NonsmoothPointError(
                f"point {tuple(x)} lies on a kink surface of {type(self).__name__}")


class _KinkSet:
    """Where a set of catalog members can lose smoothness, as arrays: the
    kink planes {y . n = c}, the kink spheres {|y - center| = r} and the
    singular points of every member, in member order.

    ``planes`` keeps the PlaneKink objects for their exponents.  distances(X)
    gives the distance from each point to every plane, sphere and point, in
    that column order; crossing_times(x, thetas) the times at which the two
    rays x +- t theta cross a plane or a sphere.
    """

    def __init__(self, dim: int, planes, spheres, points):
        self.dim = dim
        self.planes = tuple(planes)
        self.normals = np.asarray([k.normal for k in planes], dtype=float).reshape(-1, dim)
        self.offsets = np.asarray([k.offset for k in planes], dtype=float)
        self.centers = np.asarray([k.center for k in spheres], dtype=float).reshape(-1, dim)
        self.radii = np.asarray([k.radius for k in spheres], dtype=float)
        self.points = np.asarray(points, dtype=float).reshape(-1, dim)

    @classmethod
    def of(cls, *members: CatalogFunction) -> "_KinkSet":
        planes, spheres, points = [], [], []
        for m in members:
            for k in m.kink_surfaces:
                (planes if isinstance(k, PlaneKink) else spheres).append(k)
            points.extend(m.singular_points)
        return cls(members[0].dim, planes, spheres, points)

    def distances(self, X) -> np.ndarray:
        """Distances of x (dim,) or of each row of X (n, dim) to every plane,
        sphere and point: shape (P + S + Q,) or (n, P + S + Q)."""
        X = np.asarray(X, dtype=float)
        P = X.reshape(-1, self.dim)
        to_c = np.linalg.norm(P[:, None, :] - self.centers[None, :, :], axis=2)
        to_p = np.linalg.norm(P[:, None, :] - self.points[None, :, :], axis=2)
        out = np.concatenate((np.abs(P @ self.normals.T - self.offsets),
                              np.abs(to_c - self.radii), to_p), axis=1)
        return out[0] if X.ndim == 1 else out

    def distance(self, x, beyond: float = -1.0) -> float:
        """The nearest of the distances of x that exceeds ``beyond`` (inf if
        none does); a positive ``beyond`` skips the surfaces through x."""
        d = self.distances(x)
        d = d[d > beyond]
        return float(d.min()) if d.size else math.inf

    def crossing_times(self, x, thetas: np.ndarray) -> np.ndarray:
        """Times t > 1e-14 at which x + t theta_k or x - t theta_k crosses a
        surface, as a (K, P + 4 S) array: one column per plane, four per
        sphere (both roots on both rays).  An entry is inf where the ray is
        parallel to the plane, misses the sphere or meets it at t <= 1e-14."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        den = thetas @ self.normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = np.abs((self.offsets - self.normals @ x) / den)
        tp[np.abs(den) <= 1e-14] = np.inf
        d = x[None, :] - self.centers
        b = thetas @ d.T
        disc = b * b - (np.einsum("ij,ij->i", d, d) - self.radii ** 2)
        r = np.sqrt(np.maximum(disc, 0.0))
        ts = np.stack((-b - r, -b + r, b - r, b + r), axis=2)
        ts[np.broadcast_to((disc < 0.0)[:, :, None], ts.shape)] = np.inf
        out = np.concatenate((tp, ts.reshape(thetas.shape[0], -1)), axis=1)
        out[out <= 1e-14] = np.inf
        return out


# --------------------------------------------------------------------------
# primitive kinds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Zero(CatalogFunction):
    def values(self, pts) -> np.ndarray:
        return np.zeros(_pts2d(pts, self.dim).shape[0])

    def _grad(self, x):
        return np.zeros(self.dim)

    def _hess(self, x):
        return np.zeros((self.dim, self.dim))

    @property
    def growth(self) -> GrowthBound:
        return GrowthBound(0.0, 2.0 * self.s)

    @property
    def support_ball(self) -> SupportBall:
        return SupportBall((0.0,) * self.dim, 0.0)

    @property
    def far_field(self) -> FarFieldBound:
        return FarFieldBound(0.0, 1.0, 0.0)

    @property
    def sup_bound(self) -> float:
        return 0.0

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return True


@dataclass(frozen=True)
class Constant(CatalogFunction):
    c: float = 1.0

    def values(self, pts) -> np.ndarray:
        return np.full(_pts2d(pts, self.dim).shape[0], self.c)

    def _grad(self, x):
        return np.zeros(self.dim)

    def _hess(self, x):
        return np.zeros((self.dim, self.dim))

    @property
    def growth(self) -> GrowthBound:
        return GrowthBound(abs(self.c), 2.0 * self.s)

    @property
    def sup_bound(self) -> float:
        return abs(self.c)


@dataclass(frozen=True)
class HalfSpacePower(CatalogFunction):
    """(x_N)_+^alpha with 0 < alpha < 2s."""

    alpha: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 2.0 * self.s):
            raise InputDomainError(
                f"half-space power exponent must lie in (0, {2 * self.s}), got {self.alpha}")

    def values(self, pts) -> np.ndarray:
        xn = _pts2d(pts, self.dim)[:, -1]
        return np.where(xn > 0.0, np.maximum(xn, 0.0) ** self.alpha, 0.0)

    def _grad(self, x):
        g = np.zeros(self.dim)
        xn = x[-1]
        if xn > 0.0:
            g[-1] = self.alpha * xn ** (self.alpha - 1.0)
        return g

    def _hess(self, x):
        h = np.zeros((self.dim, self.dim))
        xn = x[-1]
        if xn > 0.0:
            h[-1, -1] = self.alpha * (self.alpha - 1.0) * xn ** (self.alpha - 2.0)
        return h

    @property
    def kink_surfaces(self) -> tuple:
        n = (0.0,) * (self.dim - 1) + (1.0,)
        return (PlaneKink(n, 0.0, exponent=self.alpha),)

    @property
    def growth(self) -> GrowthBound:
        return GrowthBound(1.0, 2.0 * self.s - self.alpha)

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return True


@dataclass(frozen=True)
class KelvinHalfSpacePower(CatalogFunction):
    """(x_N)_+^alpha / |x|^(N - 2s + 2 alpha), zero on the closed lower
    half-space and at the origin."""

    alpha: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 2.0 * self.s):
            raise InputDomainError(
                f"Kelvin exponent must lie in (0, {2 * self.s}), got {self.alpha}")

    @property
    def radial_exponent(self) -> float:
        return self.dim - 2.0 * self.s + 2.0 * self.alpha

    @property
    def decay_rate(self) -> float:
        """|f| <= |x|^(-decay_rate) at infinity."""
        return self.dim - 2.0 * self.s + self.alpha

    def values(self, pts) -> np.ndarray:
        pts = _pts2d(pts, self.dim)
        xn = pts[:, -1]
        r2 = np.einsum("ij,ij->i", pts, pts)
        out = np.zeros(pts.shape[0])
        mask = (xn > 0.0) & (r2 > 0.0)
        if np.any(mask):
            out[mask] = xn[mask] ** self.alpha * r2[mask] ** (-0.5 * self.radial_exponent)
        return out

    def _grad(self, x):
        a, q = self.alpha, self.radial_exponent
        xn = x[-1]
        if xn <= 0.0:
            return np.zeros(self.dim)
        r2 = float(x @ x)
        g_part = a * xn ** (a - 1.0)
        h_val = r2 ** (-0.5 * q)
        grad = -q * xn ** a * r2 ** (-0.5 * q - 1.0) * x
        grad[-1] += g_part * h_val
        return grad

    def _hess(self, x):
        a, q = self.alpha, self.radial_exponent
        xn = x[-1]
        n = self.dim
        if xn <= 0.0:
            return np.zeros((n, n))
        r2 = float(x @ x)
        e = np.zeros(n)
        e[-1] = 1.0
        g = xn ** a
        dg = a * xn ** (a - 1.0)
        d2g = a * (a - 1.0) * xn ** (a - 2.0)
        h_val = r2 ** (-0.5 * q)
        dh = -q * r2 ** (-0.5 * q - 1.0) * x
        d2h = -q * r2 ** (-0.5 * q - 1.0) * np.eye(n) \
            + q * (q + 2.0) * r2 ** (-0.5 * q - 2.0) * np.outer(x, x)
        return d2g * np.outer(e, e) * h_val + np.outer(dg * e, dh) \
            + np.outer(dh, dg * e) + g * d2h

    @property
    def kink_surfaces(self) -> tuple:
        n = (0.0,) * (self.dim - 1) + (1.0,)
        return (PlaneKink(n, 0.0, exponent=self.alpha),)

    @property
    def singular_points(self) -> tuple:
        return ((0.0,) * self.dim,)

    @property
    def growth(self) -> GrowthBound:
        delta = min(self.dim + self.alpha, 2.0 * self.s)
        return GrowthBound(1.0, delta, valid_radius=1.0)

    @property
    def far_field(self) -> Optional[FarFieldBound]:
        if self.decay_rate > 0.0:
            return FarFieldBound(1.0, self.decay_rate, 1.0)
        return None

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return True


def _smooth_step(u: np.ndarray):
    """C-infinity step S with S=0 for u<=0, S=1 for u>=1, built from the
    quotient of exp(-1/u) against itself reflected."""
    u = np.asarray(u, dtype=float)
    s_out = np.empty_like(u)
    lo = u <= 1e-12
    hi = u >= 1.0 - 1e-12
    mid = ~(lo | hi)
    s_out[lo] = 0.0
    s_out[hi] = 1.0
    if np.any(mid):
        um = u[mid]
        with np.errstate(under="ignore"):
            a = np.exp(-1.0 / um)
            b = np.exp(-1.0 / (1.0 - um))
        s_out[mid] = a / (a + b)
    return s_out


def _smooth_step_d12(u: float) -> tuple[float, float]:
    """First and second derivatives of the smooth step at scalar u."""
    if u <= 1e-12 or u >= 1.0 - 1e-12:
        return 0.0, 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    da = a / u ** 2
    db = -b / (1.0 - u) ** 2
    d2a = a * (1.0 - 2.0 * u) / u ** 4
    d2b = b * (2.0 * u - 1.0) / (1.0 - u) ** 4
    tot = a + b
    num1 = da * b - a * db
    s1 = num1 / tot ** 2
    s2 = ((d2a * b - a * d2b) * tot - 2.0 * num1 * (da + db)) / tot ** 3
    return s1, s2


@dataclass(frozen=True)
class Bump(CatalogFunction):
    """Radial C-infinity bump: 1 on the closed ball of radius r_in around the
    center, 0 outside the open ball of radius r_out, strictly between 0 and 1
    in the transition shell."""

    center: tuple = None  # type: ignore[assignment]
    r_in: float = 1.0
    r_out: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.dim)
        object.__setattr__(self, "center", _as_tuple(self.center, self.dim))
        if not (0.0 < self.r_in < self.r_out):
            raise InputDomainError("need 0 < r_in < r_out")

    def _u_of_rho(self, rho):
        return (self.r_out - rho) / (self.r_out - self.r_in)

    def values(self, pts) -> np.ndarray:
        pts = _pts2d(pts, self.dim)
        rho = np.linalg.norm(pts - np.asarray(self.center)[None, :], axis=1)
        return _smooth_step(self._u_of_rho(rho))

    def _grad(self, x):
        c = np.asarray(self.center)
        d = x - c
        rho = float(np.linalg.norm(d))
        if rho <= self.r_in or rho >= self.r_out:
            return np.zeros(self.dim)
        m = 1.0 / (self.r_out - self.r_in)
        s1, _ = _smooth_step_d12(float(self._u_of_rho(rho)))
        return -s1 * m * d / rho

    def _hess(self, x):
        c = np.asarray(self.center)
        d = x - c
        rho = float(np.linalg.norm(d))
        n = self.dim
        if rho <= self.r_in or rho >= self.r_out:
            return np.zeros((n, n))
        m = 1.0 / (self.r_out - self.r_in)
        s1, s2 = _smooth_step_d12(float(self._u_of_rho(rho)))
        that = d / rho
        proj = np.outer(that, that)
        return s2 * m * m * proj - s1 * m * (np.eye(n) - proj) / rho

    @property
    def kink_surfaces(self) -> tuple:
        return (SphereKink(self.center, self.r_in), SphereKink(self.center, self.r_out))

    @property
    def support_ball(self) -> SupportBall:
        return SupportBall(self.center, self.r_out)

    @property
    def growth(self) -> GrowthBound:
        return GrowthBound(1.0, 2.0 * self.s)

    @property
    def far_field(self) -> FarFieldBound:
        c = float(np.linalg.norm(np.asarray(self.center)))
        return FarFieldBound(0.0, 1.0, c + self.r_out)

    @property
    def sup_bound(self) -> float:
        return 1.0

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return self.center[-1] - self.r_out >= 0.0


def WholeSpaceBump(dim: int, s: float, r_in: float = 1.0, r_out: float = 2.0) -> Bump:
    """Origin-centered bump with the default plateau/support radii 1 and 2."""
    return Bump(dim, s, center=(0.0,) * dim, r_in=r_in, r_out=r_out)


# --------------------------------------------------------------------------
# combinators
# --------------------------------------------------------------------------

def _check_pair(f: CatalogFunction, g: CatalogFunction):
    if f.dim != g.dim:
        raise InputDomainError("operand dimensions differ")
    if f.s != g.s:
        raise InputDomainError("operand kernel orders differ")


@dataclass(frozen=True)
class Product(CatalogFunction):
    f: CatalogFunction = None  # type: ignore[assignment]
    g: CatalogFunction = None  # type: ignore[assignment]

    def __init__(self, f: CatalogFunction, g: CatalogFunction):
        _check_pair(f, g)
        object.__setattr__(self, "dim", f.dim)
        object.__setattr__(self, "s", f.s)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        self.__post_init__()

    def __post_init__(self):
        super().__post_init__()
        fg, gg = self.f.growth, self.g.growth
        if self.f.sup_bound is None and self.g.sup_bound is None:
            if fg.delta + gg.delta - 2.0 * self.s <= 0.0:
                raise InputDomainError(
                    "product of two unbounded members leaves the admissible growth class")

    def values(self, pts) -> np.ndarray:
        pts = _pts2d(pts, self.dim)
        return self.f.values(pts) * self.g.values(pts)

    def _grad(self, x):
        return self.f.value(x) * self.g._grad(x) + self.g.value(x) * self.f._grad(x)

    def _hess(self, x):
        fv, gv = self.f.value(x), self.g.value(x)
        fg_, gg_ = self.f._grad(x), self.g._grad(x)
        return fv * self.g._hess(x) + gv * self.f._hess(x) \
            + np.outer(fg_, gg_) + np.outer(gg_, fg_)

    @property
    def kink_surfaces(self) -> tuple:
        return tuple(self.f.kink_surfaces) + tuple(self.g.kink_surfaces)

    @property
    def singular_points(self) -> tuple:
        return tuple(self.f.singular_points) + tuple(self.g.singular_points)

    @property
    def support_ball(self) -> Optional[SupportBall]:
        fb, gb = self.f.support_ball, self.g.support_ball
        if fb is not None and (gb is None or fb.radius <= gb.radius):
            small = fb
        else:
            small = gb
        if small is None:
            return None
        clipped = small.halfspace_clipped or self.vanishes_lower_halfspace
        return SupportBall(small.center, small.radius, clipped)

    @property
    def growth(self) -> GrowthBound:
        fb, gb = self.f.growth, self.g.growth
        options = []
        if self.f.sup_bound is not None:
            options.append(GrowthBound(self.f.sup_bound * gb.beta, gb.delta,
                                       max(fb.valid_radius, gb.valid_radius)))
        if self.g.sup_bound is not None:
            options.append(GrowthBound(self.g.sup_bound * fb.beta, fb.delta,
                                       max(fb.valid_radius, gb.valid_radius)))
        if options:
            return min(options, key=lambda o: o.beta)
        return GrowthBound(4.0 * fb.beta * gb.beta,
                           fb.delta + gb.delta - 2.0 * self.s,
                           max(fb.valid_radius, gb.valid_radius))

    @property
    def far_field(self) -> Optional[FarFieldBound]:
        for a, b in ((self.f, self.g), (self.g, self.f)):
            af = a.far_field
            if af is not None and af.coef == 0.0:
                return af
        ff, gf = self.f.far_field, self.g.far_field
        if ff is not None and gf is not None:
            return FarFieldBound(ff.coef * gf.coef, ff.rate + gf.rate,
                                 max(ff.radius, gf.radius))
        for af, other in ((ff, self.g), (gf, self.f)):
            if af is not None and other.sup_bound is not None:
                return FarFieldBound(af.coef * other.sup_bound, af.rate, af.radius)
        return None

    @property
    def sup_bound(self) -> Optional[float]:
        if self.f.sup_bound is not None and self.g.sup_bound is not None:
            return self.f.sup_bound * self.g.sup_bound
        return None

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return self.f.vanishes_lower_halfspace or self.g.vanishes_lower_halfspace


@dataclass(frozen=True)
class ScalarMultiple(CatalogFunction):
    epsilon: float = 1.0
    f: CatalogFunction = None  # type: ignore[assignment]

    def __init__(self, epsilon: float, f: CatalogFunction):
        if not math.isfinite(epsilon):
            raise InputDomainError("scalar factor must be finite")
        object.__setattr__(self, "dim", f.dim)
        object.__setattr__(self, "s", f.s)
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "f", f)
        self.__post_init__()

    def values(self, pts) -> np.ndarray:
        return self.epsilon * self.f.values(pts)

    def _grad(self, x):
        return self.epsilon * self.f._grad(x)

    def _hess(self, x):
        return self.epsilon * self.f._hess(x)

    @property
    def kink_surfaces(self) -> tuple:
        return self.f.kink_surfaces

    @property
    def singular_points(self) -> tuple:
        return self.f.singular_points

    @property
    def support_ball(self):
        return self.f.support_ball

    @property
    def growth(self) -> GrowthBound:
        g = self.f.growth
        return GrowthBound(abs(self.epsilon) * g.beta, g.delta, g.valid_radius)

    @property
    def far_field(self):
        ff = self.f.far_field
        if ff is None:
            return None
        return FarFieldBound(abs(self.epsilon) * ff.coef, ff.rate, ff.radius)

    @property
    def sup_bound(self):
        sb = self.f.sup_bound
        return None if sb is None else abs(self.epsilon) * sb

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return self.f.vanishes_lower_halfspace


@dataclass(frozen=True)
class Rescale(CatalogFunction):
    """x -> f(x / R): dilates support and kink geometry by R."""

    f: CatalogFunction = None  # type: ignore[assignment]
    R: float = 1.0

    def __init__(self, f: CatalogFunction, R: float):
        if not (R > 0.0) or not math.isfinite(R):
            raise InputDomainError(f"scale must be positive and finite, got {R}")
        object.__setattr__(self, "dim", f.dim)
        object.__setattr__(self, "s", f.s)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "R", float(R))
        self.__post_init__()

    def values(self, pts) -> np.ndarray:
        return self.f.values(_pts2d(pts, self.dim) / self.R)

    def _grad(self, x):
        return self.f._grad(x / self.R) / self.R

    def _hess(self, x):
        return self.f._hess(x / self.R) / self.R ** 2

    @property
    def kink_surfaces(self) -> tuple:
        out = []
        for k in self.f.kink_surfaces:
            if isinstance(k, PlaneKink):
                out.append(PlaneKink(k.normal, k.offset * self.R, k.exponent))
            else:
                c = tuple(ci * self.R for ci in k.center)
                out.append(SphereKink(c, k.radius * self.R))
        return tuple(out)

    @property
    def singular_points(self) -> tuple:
        return tuple(tuple(ci * self.R for ci in p) for p in self.f.singular_points)

    @property
    def support_ball(self):
        sb = self.f.support_ball
        if sb is None:
            return None
        c = tuple(ci * self.R for ci in sb.center)
        return SupportBall(c, sb.radius * self.R, sb.halfspace_clipped)

    @property
    def growth(self) -> GrowthBound:
        g = self.f.growth
        beta = g.beta * max(1.0, self.R ** (g.delta - 2.0 * self.s))
        return GrowthBound(beta, g.delta, g.valid_radius * self.R)

    @property
    def far_field(self):
        ff = self.f.far_field
        if ff is None:
            return None
        return FarFieldBound(ff.coef * self.R ** ff.rate, ff.rate, ff.radius * self.R)

    @property
    def sup_bound(self):
        return self.f.sup_bound

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return self.f.vanishes_lower_halfspace


@dataclass(frozen=True)
class TranslateTruncate(CatalogFunction):
    """x -> f(x + e_N) on the open upper half-space, 0 on {x_N <= 0}."""

    f: CatalogFunction = None  # type: ignore[assignment]

    def __init__(self, f: CatalogFunction):
        object.__setattr__(self, "dim", f.dim)
        object.__setattr__(self, "s", f.s)
        object.__setattr__(self, "f", f)
        self.__post_init__()

    def _shift(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[-1] = 1.0
        return e

    def values(self, pts) -> np.ndarray:
        pts = _pts2d(pts, self.dim)
        out = self.f.values(pts + self._shift()[None, :])
        return np.where(pts[:, -1] > 0.0, out, 0.0)

    def _grad(self, x):
        if x[-1] <= 0.0:
            return np.zeros(self.dim)
        return self.f._grad(x + self._shift())

    def _hess(self, x):
        if x[-1] <= 0.0:
            return np.zeros((self.dim, self.dim))
        return self.f._hess(x + self._shift())

    @property
    def kink_surfaces(self) -> tuple:
        n_vec = (0.0,) * (self.dim - 1) + (1.0,)
        out = [PlaneKink(n_vec, 0.0, exponent=None)]
        # translated kinks of f survive only where the truncation does not
        # already flatten the function
        for k in self.f.kink_surfaces:
            if isinstance(k, PlaneKink):
                nk = np.asarray(k.normal)
                off = k.offset - float(nk[-1])
                if abs(nk[-1]) > 1.0 - 1e-12 and off <= 0.0:
                    continue  # plane lies in the closed lower half-space
                out.append(PlaneKink(k.normal, off, k.exponent))
            else:
                c = np.asarray(k.center) - self._shift()
                if c[-1] + k.radius > 0.0:
                    out.append(SphereKink(tuple(c), k.radius))
        return tuple(out)

    @property
    def singular_points(self) -> tuple:
        out = []
        for p in self.f.singular_points:
            q = np.asarray(p) - self._shift()
            if q[-1] > 0.0:
                out.append(tuple(q))
        return tuple(out)

    @property
    def support_ball(self):
        sb = self.f.support_ball
        if sb is None:
            return None
        c = tuple(np.asarray(sb.center) - self._shift())
        return SupportBall(c, sb.radius, halfspace_clipped=True)

    @property
    def growth(self) -> GrowthBound:
        g = self.f.growth
        ts = 2.0 * self.s
        beta = g.beta * (1.0 + 2.0 ** (ts - g.delta))
        return GrowthBound(beta, g.delta, g.valid_radius + 1.0)

    @property
    def far_field(self):
        ff = self.f.far_field
        if ff is None:
            return None
        if ff.coef == 0.0:
            return FarFieldBound(0.0, ff.rate, ff.radius + 1.0)
        return FarFieldBound(ff.coef * 2.0 ** ff.rate, ff.rate,
                             max(2.0, ff.radius + 1.0))

    @property
    def sup_bound(self):
        return self.f.sup_bound

    @property
    def vanishes_lower_halfspace(self) -> bool:
        return True


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------

def kelvin(alpha: float, dim: int, s: float) -> KelvinHalfSpacePower:
    """Inversion image of the half-space power, restricted to the exponent
    range in which it is a valid building block: (0, s) for dim >= 2 and
    (max(0, 2s-1), s) for dim = 1."""
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    lo = max(0.0, 2.0 * s - 1.0) if dim == 1 else 0.0
    if not (lo < alpha < s):
        raise InputDomainError(
            f"inversion exponent must lie in ({lo}, {s}) for dim {dim}, got {alpha}")
    return KelvinHalfSpacePower(dim, s, alpha=alpha)


def translate_truncate(f: CatalogFunction) -> TranslateTruncate:
    return TranslateTruncate(f)
