"""Directional weights on the unit sphere.

The directional weight (spectral density) multiplies the radial kernel
``|y|^{-N-2s}``.  It must be even, and it may jump across the boundaries of
caps about one axis: a density says where through ``jump_axis`` and
``jump_cosines``, and the sphere rules split their panels there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputDomainError

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
    def jump_axis(self) -> tuple[float, ...] | None:
        """Unit axis the jump cosines refer to (None for a weight without one)."""
        return None

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        """Cap-boundary cosines c: the weight may jump across
        {|theta.jump_axis| = c}."""
        return ()

    @property
    def is_constant(self) -> bool:
        return False

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
    def is_constant(self) -> bool:
        return True

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        return np.full(thetas.shape[0], self.value)


@dataclass(frozen=True)
class ConePlateauDensity(SpectralDensity):
    """``inside`` on the closed cone cap, ``outside`` elsewhere, 0 <= outside <= inside."""

    cone: Cone = field(default=None)  # type: ignore[assignment]
    inside: float = 1.0
    outside: float = 0.0

    def __post_init__(self):
        if not isinstance(self.cone, Cone):
            raise InputDomainError("cone plateau requires a Cone")
        if self.cone.dim != self.dim:
            raise InputDomainError("cone dimension does not match density dimension")
        if any(c != 0.0 for c in self.cone.vertex):
            raise InputDomainError("plateau cone must have its vertex at the origin")
        if not (self.inside > 0.0):
            raise InputDomainError("plateau value inside the cap must be positive")
        if not (0.0 <= self.outside <= self.inside):
            raise InputDomainError("need 0 <= outside <= inside")

    @property
    def upper_bound(self) -> float:
        return self.inside

    @property
    def jump_axis(self) -> tuple[float, ...]:
        return self.cone.axis

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        if self.outside == self.inside or self.cone.tau >= 1.0:
            return ()
        return (1.0 - self.cone.tau,)

    def _eval_offsets(self, d: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return np.where(self.cone._contains_offsets(d, r2), self.inside, self.outside)

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        return self._eval_offsets(thetas.T, _sum_squares(thetas.T))


@dataclass(frozen=True)
class CustomDensity(SpectralDensity):
    """Arbitrary even weight.  ``evaluator`` maps an (M, dim) array to (M,)
    values; evaluation is symmetrized so evenness holds by construction.
    ``jumps`` lists cap-boundary cosines (relative to ``axis``, which they
    then require) across which the weight may be discontinuous; with none
    the weight is taken as smooth.  ``upper`` bounds the weight from above."""

    evaluator: Callable[[np.ndarray], np.ndarray] = field(default=None)  # type: ignore
    jumps: tuple[float, ...] = ()
    axis: tuple[float, ...] | None = None
    upper: float = 1.0

    def __post_init__(self):
        if self.evaluator is None:
            raise InputDomainError("custom density requires an evaluator")
        if self.axis is not None:
            object.__setattr__(self, "axis", _as_unit(self.axis))
        if self.jumps and self.axis is None:
            raise InputDomainError("jump cosines need an axis to refer to")
        if not (0.0 <= self.upper < math.inf):
            raise InputDomainError("need 0 <= upper < inf")

    @property
    def upper_bound(self) -> float:
        return self.upper

    @property
    def jump_axis(self) -> tuple[float, ...] | None:
        return self.axis

    @property
    def jump_cosines(self) -> tuple[float, ...]:
        return self.jumps

    def _eval_unit(self, thetas: np.ndarray) -> np.ndarray:
        vals = 0.5 * (np.asarray(self.evaluator(thetas), dtype=float)
                      + np.asarray(self.evaluator(-thetas), dtype=float))
        return vals
