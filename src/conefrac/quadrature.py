"""Deterministic quadrature for hypersingular radial integrals, sphere
integrals against directional weights, and seeded Monte Carlo volumes.

The radial kernel is 1/t^{1+2s} without any s-dependent normalisation
constant.  Hypersingular behaviour at t = 0 is removed by subtracting the
quadratic Taylor term and integrating it in closed form; algebraic endpoint
singularities are resolved on geometrically graded panels; slowly decaying
tails are mapped by t = 1/u and finished with a measured-ratio geometric
completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate as _sc_integrate
from scipy.special import gammaln

from .errors import AccuracyError, InputDomainError
from .spectral import SpectralDensity

_TWO_PI = 2.0 * math.pi


def sphere_surface_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 points for dim = 1)."""
    if dim == 1:
        return 2.0
    return 2.0 * math.exp(0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim))


def ball_volume(dim: int, radius: float = 1.0) -> float:
    return sphere_surface_area(dim) * radius ** dim / dim


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs shared by every quadrature routine.

    t0_factor: inner split radius as a fraction of the local smoothness
        radius (distance to the nearest kink surface, capped at 1).
    sphere_panels: base panel count for the circle rule (N = 2).
    polar_nodes / azimuthal_nodes: product rule resolution for N = 3.
    sphere_mc_samples: antithetic sample count for N >= 4.
    """

    t0_factor: float = 0.5
    abs_tol: float = 1e-8
    rel_tol: float = 1e-7
    max_subdivisions: int = 10
    sphere_panels: int = 16
    polar_nodes: int = 24
    azimuthal_nodes: int = 48
    sphere_mc_samples: int = 8192
    mc_seed: int = 20220
    mc_samples: int = 40000

    def __post_init__(self):
        if not (self.t0_factor > 0.0):
            raise InputDomainError("t0_factor must be positive")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise InputDomainError("tolerances must be positive")
        if self.max_subdivisions < 0:
            raise InputDomainError("max_subdivisions must be >= 0")
        for name in ("sphere_panels", "polar_nodes", "azimuthal_nodes"):
            v = getattr(self, name)
            if v < 4 or v % 2 != 0:
                raise InputDomainError(f"{name} must be even and >= 4, got {v}")
        if not (0 <= self.mc_seed < 2 ** 64):
            raise InputDomainError("mc_seed must fit in an unsigned 64-bit word")
        if self.mc_samples < 16 or self.sphere_mc_samples < 16:
            raise InputDomainError("sample counts must be at least 16")

    def with_tol(self, abs_tol: float, rel_tol: float) -> "QuadratureConfig":
        return replace(self, abs_tol=abs_tol, rel_tol=rel_tol)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    n_evals: int
    converged: bool

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")


def _tol_met(value: float, err: float, abs_tol: float, rel_tol: float) -> bool:
    return err <= max(abs_tol, rel_tol * abs(value))


# --------------------------------------------------------------------------
# Gauss panels
# --------------------------------------------------------------------------

_N_LOW, _N_HIGH = 7, 15


def _orders_for_tol(tol: float) -> tuple[int, int]:
    """Low/high Gauss orders for the paired panel rule.  Loose targets get
    short rules; the default tight tolerances keep the full pair."""
    if tol >= 3e-6:
        return 4, 9
    if tol >= 3e-8:
        return 5, 11
    return _N_LOW, _N_HIGH


@lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return (0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def _kronrod01(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod extension of G_n on [0, 1].

    Returns (nodes, Kronrod weights, Gauss weights): the Gauss weights sit at
    the embedded G_n nodes (every odd index) and are zero elsewhere, so one
    set of 2n+1 values gives both rules.  The Kronrod-Jacobi matrix comes
    from Laurie's algorithm (Math. Comp. 66, 1997) applied to the Legendre
    recurrence; its eigen-decomposition gives nodes and weights as in
    Golub-Welsch, symmetrised about the midpoint.
    """
    m = (3 * n + 1) // 2 + 1
    k = np.arange(m, dtype=float)
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    b[1:m] = k[1:] ** 2 / (4.0 * k[1:] ** 2 - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for j in range(n - 1):
        k = np.arange((j + 1) // 2, -1, -1)
        l = j - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1]
    for j in range(n - 1, 2 * n - 2):
        k = np.arange(j + 1 - n, (j - 1) // 2 + 1)
        l = j - k
        i = n - 1 - l
        s[i + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[i + 1]
                             - b[k + n + 1] * s[i + 1] + b[l] * s[i + 2])
        i, k = i[-1], (j + 1) // 2
        if j % 2 == 0:
            a[k + n + 1] = a[k] + (s[i + 1] - b[k + n + 1] * s[i + 2]) / t[i + 2]
        else:
            b[k + n + 1] = s[i + 1] / s[i + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    x, vec = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * vec[0] ** 2
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    wg = np.zeros(2 * n + 1)
    wg[1::2] = _gauss01(n)[1]
    return 0.5 * (x + 1.0), 0.5 * w, wg


def _graded_rows(lo: np.ndarray, hi: np.ndarray, toward_lo: bool,
                 levels: int) -> np.ndarray:
    """Panel edges on each [lo, hi], geometrically refined toward one
    endpoint: one row of levels + 2 edges per interval."""
    w = hi - lo
    fracs = 2.0 ** -np.arange(levels, 0, -1)
    if toward_lo:
        inner = lo[:, None] + w[:, None] * fracs
    else:
        inner = hi[:, None] - w[:, None] * fracs[::-1]
    return np.column_stack((lo, inner, hi))


def _initial_panels(task_lo: np.ndarray, task_hi: np.ndarray,
                    grade_lo: np.ndarray, grade_hi: np.ndarray,
                    depth: np.ndarray):
    """First panel layout of every task, in task order: graded toward each
    flagged endpoint (toward both from the midpoint), else two halves.
    Returns panel (lo, hi, task) arrays."""
    kind = grade_lo.astype(np.int64) + 2 * grade_hi.astype(np.int64)
    plo_p, phi_p, ptask_p = [], [], []
    for k, d in np.unique(np.column_stack((kind, depth)), axis=0):
        idx = np.nonzero((kind == k) & (depth == d))[0]
        lo, hi = task_lo[idx], task_hi[idx]
        if k == 3:
            mid = 0.5 * (lo + hi)
            edges = np.concatenate((_graded_rows(lo, mid, True, d),
                                    _graded_rows(mid, hi, False, d)[:, 1:]),
                                   axis=1)
        elif k == 1:
            edges = _graded_rows(lo, hi, True, d)
        elif k == 2:
            edges = _graded_rows(lo, hi, False, d)
        else:
            edges = np.column_stack((lo, 0.5 * (lo + hi), hi))
        plo_p.append(edges[:, :-1].ravel())
        phi_p.append(edges[:, 1:].ravel())
        ptask_p.append(np.repeat(idx, edges.shape[1] - 1))
    ptask = np.concatenate(ptask_p)
    order = np.argsort(ptask, kind="stable")
    return np.concatenate(plo_p)[order], np.concatenate(phi_p)[order], ptask[order]


_MIN_DEPTH = 6


def _depth_for_tol(tol_rel: float) -> int:
    return int(np.clip(7 + 1.2 * math.log10(1.0 / max(tol_rel, 1e-16)),
                       _MIN_DEPTH, 40))


# panels per integrand call in _eval_panels: keeps the temporaries of one
# call cache-sized instead of streaming millions of points through memory
_PANEL_CHUNK = 512


def _eval_panels(evalf, plo: np.ndarray, phi: np.ndarray, ptask: np.ndarray,
                 orders: tuple[int, int] = (_N_LOW, _N_HIGH)):
    """Return per-panel high-order values and |high - low| error surrogates.

    The integrand is pointwise, so evaluating the panels in chunks gives the
    same numbers as one call over all of them."""
    n_lo, n_hi = orders
    x1, w1 = _gauss01(n_lo)
    x2, w2 = _gauss01(n_hi)
    wid = phi - plo
    v1 = np.empty(plo.size)
    v2 = np.empty(plo.size)
    for a in range(0, plo.size, _PANEL_CHUNK):
        b = min(a + _PANEL_CHUNK, plo.size)
        pl, wd, pt = plo[a:b], wid[a:b], ptask[a:b]
        t1 = (pl[:, None] + wd[:, None] * x1[None, :]).ravel()
        t2 = (pl[:, None] + wd[:, None] * x2[None, :]).ravel()
        vals = evalf(np.concatenate((t1, t2)),
                     np.concatenate((np.repeat(pt, n_lo), np.repeat(pt, n_hi))))
        if not np.all(np.isfinite(vals)):
            raise AccuracyError("integrand produced non-finite values")
        n1 = t1.size
        v1[a:b] = (vals[:n1].reshape(-1, n_lo) @ w1) * wd
        v2[a:b] = (vals[n1:].reshape(-1, n_hi) @ w2) * wd
    return v2, np.abs(v2 - v1), plo.size * (n_lo + n_hi)


def _run_tasks(task_lo: np.ndarray, task_hi: np.ndarray,
               grade_lo: np.ndarray, grade_hi: np.ndarray,
               group: np.ndarray, n_groups: int,
               evalf: Callable[[np.ndarray, np.ndarray], np.ndarray],
               tol_abs: np.ndarray, tol_rel: np.ndarray,
               depth, max_rounds: int, floor_shift=None,
               orders: tuple[int, int] = (_N_LOW, _N_HIGH)):
    """Adaptive composite Gauss over a batch of 1-D tasks.

    evalf(ts, task_ids) evaluates the integrand; tasks are grouped (one group
    per radial direction) and refined until each group's error surrogate meets
    its tolerance or the budget runs out.  ``depth`` and ``floor_shift`` may
    be per-task arrays: tasks whose integrand is cancellation-limited near an
    endpoint (Taylor-subtracted second differences) must keep both shallow or
    the refinement chases rounding noise.  A refined panel is bisected at its
    midpoint, except that a long panel away from the origin (lo > 0 and
    hi > 4 lo) is split at the geometric mean sqrt(lo hi): a ray nearly
    parallel to a kink plane meets it at t >> 1, and arithmetic bisection
    would need ~log2(hi) rounds to resolve an integrand that lives at t ~ lo.
    Deterministic by construction.
    """
    depth_arr = np.broadcast_to(np.asarray(depth, dtype=np.int64), task_lo.shape)
    if floor_shift is None:
        floor_shift = depth_arr + 10
    floor_arr = np.broadcast_to(np.asarray(floor_shift, dtype=np.int64), task_lo.shape)
    if task_lo.size == 0:
        zeros = np.zeros(n_groups)
        return zeros, zeros.copy(), 0, np.ones(n_groups, dtype=bool)
    plo, phi, ptask = _initial_panels(np.asarray(task_lo, dtype=float),
                                      np.asarray(task_hi, dtype=float),
                                      np.asarray(grade_lo, dtype=bool),
                                      np.asarray(grade_hi, dtype=bool),
                                      depth_arr)
    floors = (task_hi - task_lo) * 2.0 ** -floor_arr.astype(float)

    v, e, nev = _eval_panels(evalf, plo, phi, ptask, orders)
    for _ in range(max_rounds):
        pg = group[ptask]
        val_g = np.bincount(pg, weights=v, minlength=n_groups)
        err_g = np.bincount(pg, weights=e, minlength=n_groups)
        needy = err_g > np.maximum(tol_abs, tol_rel * np.abs(val_g))
        if not np.any(needy):
            break
        max_g = np.zeros(n_groups)
        np.maximum.at(max_g, pg, e)
        wid = phi - plo
        sel = needy[pg] & (e > 0.15 * max_g[pg]) & (wid > floors[ptask])
        if not np.any(sel) or plo.size > 400_000:
            break
        s_lo, s_hi = plo[sel], phi[sel]
        geo = (s_lo > 0.0) & (s_hi > 4.0 * s_lo)
        mid = np.where(geo, np.sqrt(s_lo * s_hi), 0.5 * (s_lo + s_hi))
        c_lo = np.concatenate((s_lo, mid))
        c_hi = np.concatenate((mid, s_hi))
        c_task = np.concatenate((ptask[sel], ptask[sel]))
        cv, ce, n2 = _eval_panels(evalf, c_lo, c_hi, c_task, orders)
        nev += n2
        keep = ~sel
        plo = np.concatenate((plo[keep], c_lo))
        phi = np.concatenate((phi[keep], c_hi))
        ptask = np.concatenate((ptask[keep], c_task))
        v = np.concatenate((v[keep], cv))
        e = np.concatenate((e[keep], ce))

    pg = group[ptask]
    val_g = np.bincount(pg, weights=v, minlength=n_groups)
    err_g = np.bincount(pg, weights=e, minlength=n_groups)
    ok = err_g <= np.maximum(tol_abs, tol_rel * np.abs(val_g))
    return val_g, err_g, nev, ok


# --------------------------------------------------------------------------
# octave integration with geometric-series completion
# --------------------------------------------------------------------------

def _octave_batch(evalf, hi: np.ndarray, group: np.ndarray, n_groups: int,
                  tol_abs: np.ndarray, task_ids: np.ndarray = None,
                  max_octaves: int = 64, chunk: int = 12,
                  orders: tuple[int, int] = (_N_LOW, _N_HIGH)):
    """Integrate sum_j int_{hi 2^{-j-1}}^{hi 2^{-j}} f for each group down to 0.

    The integrand is assumed to behave like a power u^{kappa-1} near 0 with
    kappa > 0; once octave contributions decay geometrically the unresolved
    remainder is completed from the measured ratio, with the ratio drift
    folded into the error estimate.  ``task_ids`` maps each source to the id
    handed to evalf (defaults to the source index).
    """
    K = hi.size
    if task_ids is None:
        task_ids = np.arange(K, dtype=np.int64)
    vals = np.zeros(n_groups)
    errs = np.zeros(n_groups)
    nev = 0
    # per-source octave history, needed for the ratio measurement
    hist: list[np.ndarray] = []
    j0 = 0
    active = np.ones(K, dtype=bool)
    while j0 < max_octaves and np.any(active):
        js = np.arange(j0, min(j0 + chunk, max_octaves))
        act_idx = np.nonzero(active)[0]
        lo = hi[act_idx, None] * 2.0 ** -(js[None, :] + 1.0)
        up = hi[act_idx, None] * 2.0 ** -js[None, :].astype(float)
        plo = lo.ravel()
        phi = up.ravel()
        ptask = np.repeat(task_ids[act_idx], js.size)
        v, e, n2 = _eval_panels(evalf, plo, phi, ptask, orders)
        nev += n2
        v = v.reshape(act_idx.size, js.size)
        e = e.reshape(act_idx.size, js.size)
        block = np.zeros((K, js.size))
        block_e = np.zeros((K, js.size))
        block[act_idx] = v
        block_e[act_idx] = e
        hist.append(block)
        np.add.at(vals, group[act_idx], v.sum(axis=1))
        np.add.at(errs, group[act_idx], e.sum(axis=1))
        # a source may stop once its last octave is negligible against its
        # group tolerance and decaying at ratio <= 1/2, which bounds the
        # remaining sum by the last octave itself
        last = np.abs(v[:, -1])
        prev = np.abs(v[:, -2]) if js.size > 1 else last + 1.0
        tolg = tol_abs[group[act_idx]]
        done = (last <= 0.02 * tolg) & (last <= 0.5 * prev)
        np.add.at(errs, group[act_idx[done]], 2.0 * last[done])
        active[act_idx[done]] = False
        j0 += js.size
    # geometric completion from the last two octaves of every source
    allv = np.concatenate(hist, axis=1) if hist else np.zeros((K, 0))
    if allv.shape[1] >= 3:
        vL = allv[:, -1]
        vL1 = allv[:, -2]
        vL2 = allv[:, -3]
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(vL1 != 0.0, vL / vL1, 0.0)
            r2 = np.where(vL2 != 0.0, vL1 / vL2, 0.0)
        good = (np.abs(r1) < 0.97) & (np.abs(r2) < 0.97) & (np.abs(vL) > 0.0)
        rem = np.where(good, vL * r1 / (1.0 - np.where(good, r1, 0.0)), 0.0)
        drift = np.abs(r1 - r2) / np.maximum(1.0 - np.abs(r1), 1e-3)
        rem_err = np.where(good, np.abs(rem) * np.minimum(3.0 * drift + 1e-12, 1.0)
                           + 1e-16 * np.abs(rem),
                           np.abs(vL) * 4.0)
        np.add.at(vals, group, rem)
        np.add.at(errs, group, rem_err)
    return vals, errs, nev


# --------------------------------------------------------------------------
# the 1-D power-kernel constant
# --------------------------------------------------------------------------

_c_alpha_cache: dict[tuple[float, float, float, float], IntegralResult] = {}


def c_alpha(alpha: float, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integral of ((1+t)^a + (1-t)_+^a - 2) / t^{1+2s} over (0, inf).

    Negative for a < s, zero at a = s, positive for s < a < 2s.  Computed by
    splitting at 1/2, 1 and 2: the first piece has its quadratic Taylor term
    integrated exactly, the last piece is mapped by t = 1/u.
    """
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    if not (0.0 < alpha < 2.0 * s):
        raise InputDomainError(
            f"power exponent must lie in (0, 2s) = (0, {2 * s}), got {alpha}")
    key = (float(alpha), float(s), cfg.abs_tol, cfg.rel_tol)
    hit = _c_alpha_cache.get(key)
    if hit is not None:
        return hit

    a, ts = float(alpha), 2.0 * s
    quad_tol = min(cfg.abs_tol / 8.0, 1e-11)

    def near(t):
        return ((1.0 + t) ** a + (1.0 - t) ** a - 2.0 - a * (a - 1.0) * t * t) \
            / t ** (1.0 + ts)

    def mid_low(t):
        return ((1.0 + t) ** a + (1.0 - t) ** a - 2.0) / t ** (1.0 + ts)

    def mid_high(t):
        return ((1.0 + t) ** a - 2.0) / t ** (1.0 + ts)

    def far(u):
        return ((1.0 + 1.0 / u) ** a - 2.0) * u ** (ts - 1.0)

    total, err, nev = 0.0, 0.0, 0
    for fn, lo, hi in ((near, 0.0, 0.5), (mid_low, 0.5, 1.0),
                       (mid_high, 1.0, 2.0), (far, 0.0, 0.5)):
        # a reported roundoff warning still comes with an honest error
        # bound, so convergence is judged on the bound alone
        out = _sc_integrate.quad(fn, lo, hi, epsabs=quad_tol,
                                 epsrel=cfg.rel_tol / 8.0, limit=200,
                                 full_output=1)
        val, abserr, info = out[0], out[1], out[2]
        total += val
        err += abserr
        nev += int(info["neval"])
    # closed-form quadratic Taylor part on [0, 1/2]
    total += a * (a - 1.0) * 0.5 ** (2.0 - ts) / (2.0 - ts)

    converged = _tol_met(total, err, cfg.abs_tol, cfg.rel_tol)
    if not converged:
        raise AccuracyError("power-kernel constant did not converge",
                            value=total, abs_error_estimate=err)
    res = IntegralResult(total, err, nev, True)
    _c_alpha_cache[key] = res
    return res


# --------------------------------------------------------------------------
# sphere quadrature
# --------------------------------------------------------------------------

def _angles_of(vec: np.ndarray) -> float:
    return math.atan2(float(vec[1]), float(vec[0])) % _TWO_PI


class _CheapNodeEval:
    """Wrap a plain integrand g(thetas) -> values as a node evaluator."""

    def __init__(self, g):
        self.g = g

    def __call__(self, thetas: np.ndarray):
        vals = np.asarray(self.g(thetas), dtype=float)
        return vals, np.zeros_like(vals), vals.size


def _sphere_breakpoints_2d(a: SpectralDensity,
                           kink_normals: Sequence[np.ndarray],
                           graded_dirs: Sequence[np.ndarray]):
    brk: list[float] = []
    graded: list[float] = []
    if a.jump_cosines and a.cone is not None:
        phi_axis = _angles_of(np.asarray(a.cone.axis))
        for c in a.jump_cosines:
            g = math.acos(np.clip(c, -1.0, 1.0))
            for off in (g, -g, math.pi - g, math.pi + g):
                brk.append((phi_axis + off) % _TWO_PI)
    for w in kink_normals:
        phi_w = _angles_of(np.asarray(w))
        for off in (0.5 * math.pi, 1.5 * math.pi):
            ang = (phi_w + off) % _TWO_PI
            brk.append(ang)
            graded.append(ang)
    for d in graded_dirs:
        for off in (0.0, math.pi):
            ang = (_angles_of(np.asarray(d)) + off) % _TWO_PI
            brk.append(ang)
            graded.append(ang)
    return brk, graded


def _sphere_integrate_2d(a: SpectralDensity, node_eval, cfg: QuadratureConfig,
                         kink_normals=(), graded_dirs=(), strong_dirs=()):
    """Adaptive panel rule on the circle.  The weight a(theta) multiplies the
    node values; panels never straddle a declared jump of a.

    Each panel is one nested Gauss-Kronrod pair: node_eval runs on the 2n+1
    Kronrod directions and the embedded G_n nodes give the low-order value,
    so the pair costs 2n+1 directions, not n + 2n+1.  Arc ends at kink-plane
    crossings and at directions toward sphere-kink centres start graded six
    levels deep; ends toward point singularities start _depth_for_tol + 6
    levels deep.  Refinement then deepens only where the error needs it: a
    selected panel that ends at such a marked angle is replaced by a
    three-level graded row toward it, any other selected panel by its halves.
    """
    brk, graded = _sphere_breakpoints_2d(a, kink_normals, graded_dirs)
    strong = []
    for d in strong_dirs:
        for off in (0.0, math.pi):
            ang = (_angles_of(np.asarray(d)) + off) % _TWO_PI
            brk.append(ang)
            strong.append(ang)
    graded_all = np.asarray(sorted(set(graded) | set(strong)))
    strong = np.asarray(strong)

    if brk:
        uniq = np.unique(np.asarray(sorted(brk)))
        merged = [float(uniq[0])]
        for v in uniq[1:]:
            if v - merged[-1] > 1e-9:
                merged.append(float(v))
        arcs = []
        for i, lo in enumerate(merged):
            hi = merged[i + 1] if i + 1 < len(merged) else merged[0] + _TWO_PI
            if hi - lo > 1e-9:
                arcs.append((lo, hi))
    else:
        arcs = [(0.0, _TWO_PI)]

    def is_marked(angs, marks) -> np.ndarray:
        angs = np.asarray(angs, dtype=float)[..., None]
        return np.any(np.abs(((angs - marks + math.pi) % _TWO_PI) - math.pi) < 1e-9,
                      axis=-1)

    strong_depth = _depth_for_tol(cfg.rel_tol) + 6
    plo_parts, phi_parts = [], []
    for lo, hi in arcs:
        n_base = max(1, int(round(cfg.sphere_panels * (hi - lo) / _TWO_PI)))
        edges = np.linspace(lo, hi, n_base + 1)
        # grade the first/last sub-panel toward a marked arc endpoint; a
        # one-panel arc marked at both ends is graded toward both from its
        # midpoint
        if is_marked(lo, graded_all):
            d = strong_depth if is_marked(lo, strong) else _MIN_DEPTH
            edges = np.concatenate(
                (_graded_rows(edges[:1], edges[1:2], True, d)[0], edges[2:]))
        if is_marked(hi, graded_all):
            d = strong_depth if is_marked(hi, strong) else _MIN_DEPTH
            edges = np.concatenate(
                (edges[:-2], _graded_rows(edges[-2:-1], edges[-1:], False, d)[0]))
        plo_parts.append(edges[:-1])
        phi_parts.append(edges[1:])
    plo = np.concatenate(plo_parts)
    phi = np.concatenate(phi_parts)

    n_gauss, _ = _orders_for_tol(max(cfg.abs_tol, cfg.rel_tol / 30.0))
    xk, wk, wg = _kronrod01(n_gauss)
    w_pair = np.column_stack((wk, wg))

    def eval_batch(plo_b, phi_b):
        wid = phi_b - plo_b
        angs = (plo_b[:, None] + wid[:, None] * xk[None, :]).ravel()
        thetas = np.stack((np.cos(angs), np.sin(angs)), axis=1)
        gvals, gerrs, n_inner = node_eval(thetas)
        avals = a._eval_unit(thetas)
        vk, vg = ((gvals * avals).reshape(-1, xk.size) @ w_pair).T * wid
        ne = ((gerrs * avals).reshape(-1, xk.size) @ wk) * wid
        return vk, np.abs(vk - vg), np.abs(ne), n_inner

    v, e_rule, e_node, nev = eval_batch(plo, phi)
    rounds = 0
    while rounds < cfg.max_subdivisions:
        total = float(v.sum())
        err = float(e_rule.sum() + e_node.sum())
        if _tol_met(total, err, cfg.abs_tol, cfg.rel_tol):
            break
        if float(e_rule.sum()) < 0.3 * float(e_node.sum()):
            break  # node errors dominate; splitting panels cannot help
        emax = float(e_rule.max())
        sel = (e_rule > 0.15 * emax) & ((phi - plo) > 1e-12)
        if not np.any(sel) or plo.size > 20000:
            break
        # a panel at a marked angle is graded three levels toward it, any
        # other panel is halved
        s_lo, s_hi = plo[sel], phi[sel]
        at_lo = is_marked(s_lo, graded_all)
        at_hi = is_marked(s_hi, graded_all) & ~at_lo
        plain = ~(at_lo | at_hi)
        rows = (_graded_rows(s_lo[at_lo], s_hi[at_lo], True, 3),
                _graded_rows(s_lo[at_hi], s_hi[at_hi], False, 3),
                np.column_stack((s_lo[plain], 0.5 * (s_lo[plain] + s_hi[plain]),
                                 s_hi[plain])))
        c_lo = np.concatenate([r[:, :-1].ravel() for r in rows])
        c_hi = np.concatenate([r[:, 1:].ravel() for r in rows])
        cv, cr, cn, n2 = eval_batch(c_lo, c_hi)
        nev += n2
        keep = ~sel
        plo = np.concatenate((plo[keep], c_lo))
        phi = np.concatenate((phi[keep], c_hi))
        v = np.concatenate((v[keep], cv))
        e_rule = np.concatenate((e_rule[keep], cr))
        e_node = np.concatenate((e_node[keep], cn))
        rounds += 1

    total = float(v.sum())
    err = float(e_rule.sum() + e_node.sum())
    return IntegralResult(total, err, nev, _tol_met(total, err, cfg.abs_tol, cfg.rel_tol))


def _rotation_to(pole: np.ndarray) -> np.ndarray:
    """Orthonormal frame whose last column is the given unit vector."""
    n = pole.size
    idx = int(np.argmin(np.abs(pole)))
    e = np.zeros(n)
    e[idx] = 1.0
    u = e - (e @ pole) * pole
    u /= np.linalg.norm(u)
    if n == 3:
        v = np.cross(pole, u)
        return np.stack((u, v, pole), axis=1)
    raise InputDomainError("rotation helper is three-dimensional only")


def _sphere_integrate_3d(a: SpectralDensity, node_eval, cfg: QuadratureConfig,
                         kink_normals=()):
    pole = None
    if a.jump_cosines and a.cone is not None:
        pole = np.asarray(a.cone.axis, dtype=float)
    elif kink_normals:
        pole = np.asarray(kink_normals[0], dtype=float)
    if pole is None:
        pole = np.asarray([0.0, 0.0, 1.0])
    rot = _rotation_to(pole)

    # split the polar cosine at declared jumps (aligned with the pole) and at
    # the equator of every kink normal parallel to the pole
    cuts = {-1.0, 0.0, 1.0}
    for c in a.jump_cosines:
        cuts.add(float(c))
        cuts.add(-float(c))
    for w in kink_normals:
        if abs(abs(float(np.asarray(w) @ pole)) - 1.0) < 1e-9:
            cuts.add(0.0)
    mu_edges = np.asarray(sorted(cuts))

    def run(n_mu: int, n_phi: int):
        xg, wg = _gauss01(n_mu)
        mus, wmus = [], []
        for i in range(mu_edges.size - 1):
            lo, hi = mu_edges[i], mu_edges[i + 1]
            mus.append(lo + (hi - lo) * xg)
            wmus.append((hi - lo) * wg)
        mu = np.concatenate(mus)
        wmu = np.concatenate(wmus)
        phis = _TWO_PI * np.arange(n_phi) / n_phi
        wphi = _TWO_PI / n_phi
        r = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
        local = np.stack([
            (r[:, None] * np.cos(phis)[None, :]).ravel(),
            (r[:, None] * np.sin(phis)[None, :]).ravel(),
            np.repeat(mu, n_phi),
        ], axis=1)
        thetas = local @ rot.T
        gvals, gerrs, n_inner = node_eval(thetas)
        avals = a._eval_unit(thetas)
        wts = np.repeat(wmu, n_phi) * wphi
        val = float(np.sum(wts * gvals * avals))
        node_err = float(np.sum(wts * np.abs(avals) * gerrs))
        return val, node_err, n_inner

    v_fine, ne_fine, n1 = run(_N_HIGH, cfg.azimuthal_nodes)
    v_coarse, _, n2 = run(_N_LOW, cfg.azimuthal_nodes // 2)
    err = abs(v_fine - v_coarse) + ne_fine
    return IntegralResult(v_fine, err, n1 + n2,
                          _tol_met(v_fine, err, cfg.abs_tol, cfg.rel_tol))


def _sphere_integrate_mc(a: SpectralDensity, node_eval, cfg: QuadratureConfig):
    dim = a.dim
    rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
    k = cfg.sphere_mc_samples // 2
    raw = rng.standard_normal(size=(k, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    thetas = np.concatenate((raw, -raw), axis=0)
    gvals, gerrs, n_inner = node_eval(thetas)
    avals = a._eval_unit(thetas)
    f = gvals * avals
    area = sphere_surface_area(dim)
    val = area * float(np.mean(f))
    spread = 3.0 * area * float(np.std(f)) / math.sqrt(f.size)
    node_err = area * float(np.mean(np.abs(avals) * gerrs))
    err = spread + node_err
    return IntegralResult(val, err, n_inner,
                          _tol_met(val, err, cfg.abs_tol, cfg.rel_tol))


def sphere_quadrature(a: SpectralDensity, g, cfg: QuadratureConfig = DEFAULT_CONFIG,
                      kink_normals: Sequence = (), graded_dirs: Sequence = (),
                      node_eval=None, strong_dirs: Sequence = ()) -> IntegralResult:
    """Integral of g(theta) a(theta) over the unit sphere of R^N.

    N = 1 sums the two points; N = 2 uses adaptive arc panels split exactly at
    the declared jumps of a; N = 3 uses a polar/azimuthal product rule; N >= 4
    uses antithetic Monte Carlo.  ``kink_normals`` lists unit vectors w such
    that g loses smoothness on the great circle {theta . w = 0};
    ``graded_dirs`` lists directions toward point singularities of g.
    """
    ev = node_eval if node_eval is not None else _CheapNodeEval(g)
    dim = a.dim
    if dim == 1:
        thetas = np.asarray([[1.0], [-1.0]])
        gv, ge, n = ev(thetas)
        av = a._eval_unit(thetas)
        val = float(np.sum(gv * av))
        err = float(np.sum(np.abs(av) * ge))
        return IntegralResult(val, err, n, _tol_met(val, err, cfg.abs_tol, cfg.rel_tol))
    if dim == 2:
        return _sphere_integrate_2d(a, ev, cfg, kink_normals, graded_dirs, strong_dirs)
    if dim == 3:
        return _sphere_integrate_3d(a, ev, cfg, kink_normals)
    return _sphere_integrate_mc(a, ev, cfg)


# --------------------------------------------------------------------------
# Monte Carlo region volume
# --------------------------------------------------------------------------

def mc_region_volume(predicate, center: Sequence[float], radius: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Volume of {y in ball(center, radius) : predicate(y)} by seeded sampling.

    The error estimate is three binomial standard errors; the result is a
    deterministic function of (predicate, center, radius, mc_seed, mc_samples).
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        raise InputDomainError("sampling ball radius must be positive")
    dim = center.size
    rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
    dirs = rng.standard_normal(size=(cfg.mc_samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(cfg.mc_samples) ** (1.0 / dim)
    pts = center[None, :] + dirs * radii[:, None]
    hits = np.asarray(predicate(pts), dtype=bool)
    n = cfg.mc_samples
    phat = float(np.count_nonzero(hits)) / n
    vol_ball = ball_volume(dim, radius)
    value = phat * vol_ball
    err = 3.0 * math.sqrt(max(phat * (1.0 - phat), 0.0) / n) * vol_ball
    return IntegralResult(value, err, n, True)


# --------------------------------------------------------------------------
# radial integrals along both rays of a direction
# --------------------------------------------------------------------------

class _UnionStructure:
    """Kink/support structure of a set of catalog members, for radial
    splitting when the integrand mixes several functions."""

    def __init__(self, members):
        self.members = list(members)

    def kink_times(self, x, theta) -> np.ndarray:
        parts = [m.kink_times(x, theta) for m in self.members]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0)
        ts = np.sort(np.concatenate(parts))
        keep = [ts[0]]
        for t in ts[1:]:
            if t - keep[-1] > 1e-12 * (1.0 + t):
                keep.append(t)
        return np.asarray(keep)

    @property
    def singular_points(self):
        out = []
        for m in self.members:
            out.extend(m.singular_points)
        return tuple(out)

    def smooth_radius(self, x) -> float:
        return min(m.smooth_radius(x) for m in self.members)

    def smooth_radius_excluding_through(self, x) -> float:
        """Distance to structure not passing through x itself (for base
        points sitting exactly on a kink surface)."""
        import math as _math
        x = np.asarray(x, dtype=float)
        d = 1.0
        for m in self.members:
            for k in m.kink_surfaces:
                if type(k).__name__ == "PlaneKink":
                    di = abs(float(x @ np.asarray(k.normal)) - k.offset)
                else:
                    di = abs(float(np.linalg.norm(x - np.asarray(k.center))) - k.radius)
                if di > 1e-9:
                    d = min(d, di)
            for p in m.singular_points:
                di = float(np.linalg.norm(x - np.asarray(p)))
                if di > 1e-9:
                    d = min(d, di)
        return max(d, 1e-9)

    @property
    def support_ball(self):
        # the union integrand vanishes beyond every member's support only if
        # every member is compact; callers decide the tail mode themselves
        balls = [m.support_ball for m in self.members]
        if any(b is None for b in balls):
            return None
        return balls[0] if len(balls) == 1 else balls


def _assemble_radial(structure, x: np.ndarray, thetas: np.ndarray, s: float,
                     cfg: QuadratureConfig, *, inner_mode: str, tail_mode: str):
    """Build the per-direction task table for both-ray radial integration.

    inner_mode: "subtract" (quadratic Taylor subtraction on [0, t_in]) or
    "open" (no subtraction; the inner range is integrated on octaves toward 0,
    for integrable endpoint singularities at a kinked base point).
    tail_mode: "compact" (integrand constant beyond the last split),
    "u_map" (map [T0, inf) by t = 1/u and integrate octaves), "none".
    """
    K = thetas.shape[0]
    if inner_mode == "subtract":
        rho = structure.smooth_radius(x)
    else:
        rho = structure.smooth_radius_excluding_through(x)
    if not (rho > 0.0):
        raise AccuracyError("no room around the base point for the inner segment")
    t_in = cfg.t0_factor * rho

    lo_l, hi_l, gl_l, gh_l, mode_l, theta_l, group_l = [], [], [], [], [], [], []
    tail_u_hi, tail_group = [], []
    inner_hi, inner_group = [], []
    T0_arr = np.empty(K)

    sing = [np.asarray(p) for p in structure.singular_points]
    for k in range(K):
        th = thetas[k]
        times = [float(t) for t in structure.kink_times(x, th)]
        strong = set(times)
        for p in sing:
            v = p - x
            ta = abs(float(v @ th))
            if ta > 1.5 * t_in:
                d2 = float(v @ v) - float(v @ th) ** 2
                if d2 < (0.3 * ta + 0.1) ** 2:
                    times.append(ta)
                    strong.add(ta)
        times = sorted(t for t in times if t > t_in * (1.0 + 1e-12))
        merged = []
        for t in times:
            if not merged or t - merged[-1] > 1e-12 * (1.0 + t):
                merged.append(t)
        T0 = max(merged[-1] if merged else 0.0, 2.0 * t_in, 1.0)
        T0_arr[k] = T0

        if inner_mode == "subtract":
            lo_l.append(0.0); hi_l.append(t_in)
            gl_l.append(True); gh_l.append(False)
            mode_l.append(1); theta_l.append(k); group_l.append(k)
        else:
            inner_hi.append(t_in)
            inner_group.append(k)

        edges = [t_in] + merged
        if not merged or merged[-1] < T0:
            edges.append(T0)
        for a_e, b_e in zip(edges[:-1], edges[1:]):
            lo_l.append(a_e); hi_l.append(b_e)
            gl_l.append(a_e in strong); gh_l.append(b_e in strong)
            mode_l.append(0); theta_l.append(k); group_l.append(k)

        if tail_mode == "u_map":
            tail_u_hi.append(1.0 / T0)
            tail_group.append(k)

    tasks = {
        "lo": np.asarray(lo_l), "hi": np.asarray(hi_l),
        "gl": np.asarray(gl_l, dtype=bool), "gh": np.asarray(gh_l, dtype=bool),
        "mode": np.asarray(mode_l, dtype=np.int64),
        "theta": np.asarray(theta_l, dtype=np.int64),
        "group": np.asarray(group_l, dtype=np.int64),
    }
    inner_oct = (np.asarray(inner_hi), np.asarray(inner_group, dtype=np.int64))
    tail_oct = (np.asarray(tail_u_hi), np.asarray(tail_group, dtype=np.int64))
    return tasks, inner_oct, tail_oct, T0_arr, t_in


def _radial_batch(*, x: np.ndarray, thetas: np.ndarray, s: float,
                  cfg: QuadratureConfig, structure, numer,
                  quad_coefs: np.ndarray = None,
                  inner_mode: str = "subtract", tail_mode: str = "u_map",
                  analytic_const: float = 0.0,
                  tol_abs_node: float = None, tol_rel_node: float = None):
    """Integrate numer(plus_points, minus_points) / t^{1+2s} dt over (0, inf)
    for each direction, with Taylor subtraction, kink splitting, tail mapping
    and measured-ratio completion.

    numer(P, M) evaluates the numerator at the two ray point batches.
    quad_coefs[k] is the exact quadratic coefficient subtracted on the inner
    segment for direction k (required in "subtract" mode).
    Returns (values, error_estimates, n_evals, converged) per direction.
    """
    K = thetas.shape[0]
    ts2 = 2.0 * s
    tol_a = cfg.abs_tol if tol_abs_node is None else tol_abs_node
    tol_r = cfg.rel_tol if tol_rel_node is None else tol_rel_node

    tasks, inner_oct, tail_oct, T0, t_in = _assemble_radial(
        structure, x, thetas, s, cfg, inner_mode=inner_mode, tail_mode=tail_mode)

    n_main = tasks["lo"].size
    # the evalf task table spans main tasks, then inner octave sources, then
    # tail octave sources
    inner_hi, inner_group = inner_oct
    tail_u_hi, tail_group = tail_oct
    all_theta = np.concatenate((tasks["theta"], inner_group, tail_group))
    all_mode = np.concatenate((tasks["mode"],
                               np.zeros(inner_group.size, dtype=np.int64),
                               np.full(tail_group.size, 2, dtype=np.int64)))
    if quad_coefs is None:
        quad_coefs = np.zeros(K)
    qq = quad_coefs[all_theta]
    # ray points are built as (dim, n) rows and handed on as (n, dim) views,
    # so elementwise work downstream runs along the long axis, not along dim
    thetas_t = np.ascontiguousarray(thetas.T)
    x_col = x[:, None]

    def evalf(ts, task_ids):
        md = all_mode[task_ids]
        tail = md == 2
        sub = md == 1
        te = ts.copy()
        te[tail] = 1.0 / ts[tail]
        step = te * np.take(thetas_t, all_theta[task_ids], axis=1)
        X = numer((x_col + step).T, (x_col - step).T)
        ts_, tid = te[sub], task_ids[sub]
        X[sub] -= qq[tid] * ts_ * ts_
        kern = te ** (-1.0 - ts2)
        kern[tail] = ts[tail] ** (ts2 - 1.0)
        return X * kern

    depth = _depth_for_tol(min(tol_r, tol_a))
    orders = _orders_for_tol(max(tol_a, tol_r / 30.0))
    # the subtracted integrand vanishes like t^{3-2s} at the origin but is a
    # difference of O(1) quantities, so below ~1e-3 of its span it is pure
    # rounding noise amplified by t^{-1-2s}; keep those tasks shallow
    sub = tasks["mode"] == 1
    depth_t = np.where(sub, np.minimum(depth, 8), depth)
    shift_t = np.where(sub, 12, depth + 10)
    vals, errs, nev, ok = _run_tasks(
        tasks["lo"], tasks["hi"], tasks["gl"], tasks["gh"], tasks["group"], K,
        evalf, np.full(K, 0.5 * tol_a), np.full(K, 0.5 * tol_r),
        depth_t, cfg.max_subdivisions, floor_shift=shift_t, orders=orders)

    if inner_mode == "subtract":
        # closed form of the subtracted quadratic on [0, t_in]
        vals = vals + quad_coefs * t_in ** (2.0 - ts2) / (2.0 - ts2)
    elif inner_hi.size:
        iv, ie, n2 = _octave_batch(
            evalf, inner_hi, inner_group, K, np.full(K, 0.25 * tol_a),
            task_ids=np.arange(n_main, n_main + inner_hi.size, dtype=np.int64),
            orders=orders)
        vals = vals + iv
        errs = errs + ie
        nev += n2

    if tail_mode == "compact":
        vals = vals + analytic_const * T0 ** (-ts2) / ts2
    elif tail_u_hi.size:
        tv, te_, n2 = _octave_batch(
            evalf, tail_u_hi, tail_group, K, np.full(K, 0.25 * tol_a),
            task_ids=np.arange(n_main + inner_hi.size,
                               n_main + inner_hi.size + tail_u_hi.size,
                               dtype=np.int64),
            orders=orders)
        vals = vals + tv
        errs = errs + te_
        nev += n2

    ok = errs <= np.maximum(tol_a, tol_r * np.abs(vals))
    return vals, errs, nev, ok


def radial_integral(f, x, theta, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Both-ray radial integral of the second difference of f at x along
    theta: int_0^inf [f(x+t theta)+f(x-t theta)-2 f(x)] / t^{1+2s} dt."""
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    x = np.asarray(x, dtype=float).reshape(-1)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    nrm = float(np.linalg.norm(theta))
    if abs(nrm - 1.0) > 1e-9:
        raise InputDomainError("direction must be a unit vector")
    f.require_smooth_at(x)
    f0 = f.value(x)
    H = f.hessian(x)
    thetas = theta[None, :]
    qc = np.asarray([float(theta @ H @ theta)])

    def numer(P, M):
        return f.values(P) + f.values(M) - 2.0 * f0

    compact = f.support_ball is not None
    vals, errs, nev, ok = _radial_batch(
        x=x, thetas=thetas, s=s, cfg=cfg, structure=_UnionStructure([f]),
        numer=numer, quad_coefs=qc,
        inner_mode="subtract",
        tail_mode="compact" if compact else "u_map",
        analytic_const=-2.0 * f0 if compact else 0.0)
    return IntegralResult(float(vals[0]), float(errs[0]), nev, bool(ok[0]))
