"""Deterministic quadrature for hypersingular radial integrals, sphere
integrals against directional weights, and seeded Monte Carlo volumes, and
the 1-D power-kernel constant c_alpha in closed form.

The radial kernel is 1/t^{1+2s} without any s-dependent normalisation
constant.  Hypersingular behaviour at t = 0 is removed by subtracting the
quadratic Taylor term and integrating it in closed form; algebraic endpoint
singularities are resolved on geometrically graded panels; slowly decaying
tails are mapped by t = 1/u, integrated on dyadic octaves and finished by
Wynn's epsilon algorithm.  Every radial, octave and circle panel is one
nested Gauss-Kronrod pair G_n / K_2n+1 with |K_2n+1 - G_n| as its error; the
subtracted inner panels add the rounding of the terms their numerator
cancels, and c_alpha's error is its own rounding bound.  Every density is
even, and so is every sphere integrand (a g passed without node_eval is
symmetrised), so each sphere rule reads one half of the sphere and doubles
what it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .catalog import _KinkSet
from .errors import AccuracyError, InputDomainError, NonsmoothPointError
from .spectral import SpectralDensity

_TWO_PI = 2.0 * math.pi
_MACH_EPS = float(np.finfo(float).eps)


def sphere_surface_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 points for dim = 1)."""
    if dim == 1:
        return 2.0
    return 2.0 * math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim))


def ball_volume(dim: int, radius: float = 1.0) -> float:
    return sphere_surface_area(dim) * radius ** dim / dim


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs shared by every quadrature routine.  The radial inner split
    (_T0_FACTOR) and the circle rule's base panels (_SPHERE_PANELS) are
    constants; max_subdivisions = 0 keeps every first panel layout."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-7
    max_subdivisions: int = 10
    mc_seed: int = 20220
    mc_samples: int = 40000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise InputDomainError("tolerances must be positive")
        if self.max_subdivisions < 0:
            raise InputDomainError("max_subdivisions must be >= 0")
        if not (0 <= self.mc_seed < 2 ** 64):
            raise InputDomainError("mc_seed must fit in an unsigned 64-bit word")
        if self.mc_samples < 16:
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
# azimuthal nodes of the N = 3 product rule, directions of the N >= 4 rule
_AZIMUTHAL_NODES, _SPHERE_MC_SAMPLES = 48, 4096
# base panels of the circle rule; the radial inner segment's end as a
# fraction of the distance to the nearest kink surface (capped at 1)
_SPHERE_PANELS, _T0_FACTOR = 16, 0.5


def _order_for_tol(tol: float) -> int:
    """Gauss order n of the nested G_n / K_2n+1 panel pair of _kronrod01.
    Loose targets get short rules; the default tight tolerances get G7/K15."""
    if tol >= 3e-6:
        return 4
    if tol >= 3e-8:
        return 5
    return 7


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
    recurrence; its eigenvalues, symmetrised about the midpoint, are the
    nodes, and the Kronrod weights solve their Legendre moment equations
    (Golub-Welsch's b0 v0^2 misses the K15 moments by up to 9e-16).
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
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (x - x[::-1])
    w = np.linalg.solve(legvander(x, 2 * n).T, 2.0 * np.eye(2 * n + 1)[0])
    wg = np.zeros(2 * n + 1)
    wg[1::2] = _gauss01(n)[1]
    return 0.5 * (x + 1.0), 0.5 * w, wg


def _graded_rows(lo, hi, toward_lo: bool, levels: int,
                 ratio: float = 2.0) -> np.ndarray:
    """Panel edges on each [lo, hi], geometrically refined toward one
    endpoint: levels + 2 edges per interval, the inner ones (hi - lo)
    ratio^-k away from that endpoint, k = levels, ..., 1.  Array bounds give
    one row per interval, scalar bounds a single row."""
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    fracs = ratio ** -np.arange(levels, 0, -1.0)
    inner = lo + (hi - lo) * fracs if toward_lo else hi - (hi - lo) * fracs[::-1]
    return np.concatenate((lo, inner, hi), axis=-1)


def _geom_edges(lo: float, hi: float, ratio: float, n_min: int = 2) -> np.ndarray:
    """Edges lo (hi/lo)^(k/n), k = 0, ..., n, on [lo, hi] with 0 < lo < hi:
    the fewest panels, and at least n_min, whose edge ratio is at most ratio."""
    n = max(n_min, math.ceil(math.log(hi / lo) / math.log(ratio)))
    edges = lo * (hi / lo) ** (np.arange(n + 1) / n)
    edges[-1] = hi
    return edges


def _merge_edges(parts, lo: float, hi: float) -> np.ndarray:
    """Sorted union of the edge arrays in parts, clipped to [lo, hi], with lo
    and hi exact and every edge within 1e-10 (1 + |e|) of its predecessor
    dropped."""
    edges = np.sort(np.clip(
        np.concatenate([np.ravel(p) for p in parts] + [[lo, hi]]), lo, hi))
    edges = edges[np.concatenate(
        ([True], np.diff(edges) > 1e-10 * (1.0 + np.abs(edges[1:]))))]
    edges[-1] = hi
    return edges


_MIN_DEPTH = 6


def _depth_for_tol(tol_rel: float) -> int:
    return int(np.clip(7 + 1.2 * math.log10(1.0 / max(tol_rel, 1e-16)),
                       _MIN_DEPTH, 40))


def _initial_panels(task_lo: np.ndarray, task_hi: np.ndarray,
                    grade_lo: np.ndarray, grade_hi: np.ndarray):
    """First panel layout of every task, in task order: graded _MIN_DEPTH
    levels toward each flagged endpoint (toward both from the midpoint),
    else two halves.  Returns panel (lo, hi, task) arrays and the graded-end
    flags of each panel (at_lo, at_hi) for _run_tasks."""
    kind = grade_lo.astype(np.int64) + 2 * grade_hi.astype(np.int64)
    plo_p, phi_p, ptask_p = [], [], []
    for k in np.unique(kind):
        idx = np.nonzero(kind == k)[0]
        lo, hi = task_lo[idx], task_hi[idx]
        if k == 3:
            mid = 0.5 * (lo + hi)
            edges = np.concatenate((_graded_rows(lo, mid, True, _MIN_DEPTH),
                                    _graded_rows(mid, hi, False, _MIN_DEPTH)[:, 1:]),
                                   axis=1)
        elif k:
            edges = _graded_rows(lo, hi, k == 1, _MIN_DEPTH)
        else:
            edges = np.column_stack((lo, 0.5 * (lo + hi), hi))
        plo_p.append(edges[:, :-1].ravel())
        phi_p.append(edges[:, 1:].ravel())
        ptask_p.append(np.repeat(idx, edges.shape[1] - 1))
    ptask = np.concatenate(ptask_p)
    order = np.argsort(ptask, kind="stable")
    plo, phi, ptask = np.concatenate(plo_p)[order], np.concatenate(phi_p)[order], ptask[order]
    return (plo, phi, ptask, grade_lo[ptask] & (plo == task_lo[ptask]),
            grade_hi[ptask] & (phi == task_hi[ptask]))


def _split_panels(lo: np.ndarray, hi: np.ndarray, at_lo: np.ndarray,
                  at_hi: np.ndarray, mid: np.ndarray):
    """Children of the panels [lo, hi]: a three-level _graded_rows row toward
    lo where at_lo, else toward hi where at_hi, else the two halves at mid.
    Returns child (lo, hi) arrays and the index of each child's panel."""
    at_hi = at_hi & ~at_lo
    plain = ~(at_lo | at_hi)
    idx = np.arange(lo.size)
    rows = (_graded_rows(lo[at_lo], hi[at_lo], True, 3),
            _graded_rows(lo[at_hi], hi[at_hi], False, 3),
            np.column_stack((lo[plain], mid[plain], hi[plain])))
    parent = np.concatenate((np.repeat(idx[at_lo], 4), np.repeat(idx[at_hi], 4),
                             np.repeat(idx[plain], 2)))
    return (np.concatenate([r[:, :-1].ravel() for r in rows]),
            np.concatenate([r[:, 1:].ravel() for r in rows]), parent)


# panels per integrand call in _eval_panels: keeps the temporaries of one
# call cache-sized instead of streaming millions of points through memory
_PANEL_CHUNK = 512


def _eval_panels(evalf, plo: np.ndarray, phi: np.ndarray, ptask: np.ndarray,
                 n: int):
    """Return per-panel values K_2n+1, rule errors |K_2n+1 - G_n| and the
    evaluation count of the nested pair _kronrod01(n), 2n+1 values a panel.

    The integrand is pointwise, so evaluating the panels in chunks gives the
    same numbers as one call over all of them."""
    xk, wk, wg = _kronrod01(n)
    w_pair = np.column_stack((wk, wg))
    wid = phi - plo
    vk, vg = np.empty((2, plo.size))
    for a in range(0, plo.size, _PANEL_CHUNK):
        b = min(a + _PANEL_CHUNK, plo.size)
        wd = wid[a:b]
        vals = evalf((plo[a:b, None] + wd[:, None] * xk).ravel(),
                     np.repeat(ptask[a:b], xk.size))
        if not np.all(np.isfinite(vals)):
            raise AccuracyError("integrand produced non-finite values")
        vk[a:b], vg[a:b] = (vals.reshape(-1, xk.size) @ w_pair).T * wd
    return vk, np.abs(vk - vg), plo.size * xk.size


def _run_tasks(plo: np.ndarray, phi: np.ndarray, ptask: np.ndarray,
               at_lo: np.ndarray, at_hi: np.ndarray,
               group: np.ndarray, n_groups: int, eval_panels,
               tol_abs, tol_rel, offset, max_rounds: int,
               floors: np.ndarray, max_panels: int, geometric: bool):
    """Globally adaptive composite rule over a batch of 1-D tasks: the one
    refine loop of the radial engine (one group of tasks per direction) and
    of the circle rule (one task, one group).

    The caller gives the first layout: panels [plo, phi] of task ptask, with
    at_lo / at_hi flagging a panel that ends at a graded task end, and the
    group of each task.  eval_panels(lo, hi, task) returns per-panel values,
    rule errors, node errors (the error the integrand values carry) and an
    evaluation count.  A group stops once its error, rule plus node, meets
    max(tol_abs, tol_rel |value + offset|), offset being what the caller
    adds to the group's panel sum; it also stops once its rule error falls
    below 0.3 of its node error, since splitting panels cannot help then.
    Otherwise each of its panels whose rule error exceeds 0.15 of the
    group's largest and whose width exceeds floors[task] is split: a flagged
    panel becomes a three-level graded row toward its flagged end, and the
    child at that end keeps the flag; any other is bisected at its midpoint,
    or, if geometric, at sqrt(lo hi) when lo > 0 and hi > 4 lo: a ray nearly
    parallel to a kink plane meets it at t >> 1, and arithmetic bisection
    would need ~log2(hi) rounds to resolve an integrand that lives at t ~ lo.
    Refinement ends after max_rounds rounds or once more than max_panels
    panels are live.  Returns the per-group values, errors (rule plus node)
    and evaluation count.  Deterministic by construction.
    """
    v, e, ne, nev = eval_panels(plo, phi, ptask)
    for rnd in range(max_rounds + 1):
        pg = group[ptask]
        val_g = np.bincount(pg, weights=v, minlength=n_groups)
        rule_g = np.bincount(pg, weights=e, minlength=n_groups)
        node_g = np.bincount(pg, weights=ne, minlength=n_groups)
        err_g = rule_g + node_g
        needy = ((err_g > np.maximum(tol_abs, tol_rel * np.abs(val_g + offset)))
                 & (rule_g >= 0.3 * node_g))
        if rnd == max_rounds or not np.any(needy):
            break
        max_g = np.zeros(n_groups)
        np.maximum.at(max_g, pg, e)
        sel = needy[pg] & (e > 0.15 * max_g[pg]) & (phi - plo > floors[ptask])
        if not np.any(sel) or plo.size > max_panels:
            break
        s_lo, s_hi = plo[sel], phi[sel]
        mid = 0.5 * (s_lo + s_hi)
        if geometric:
            mid = np.where((s_lo > 0.0) & (s_hi > 4.0 * s_lo), np.sqrt(s_lo * s_hi), mid)
        c_lo, c_hi, parent = _split_panels(s_lo, s_hi, at_lo[sel], at_hi[sel], mid)
        c_task = ptask[sel][parent]
        cv, ce, cn, n2 = eval_panels(c_lo, c_hi, c_task)
        nev += n2
        keep = ~sel
        at_lo = np.concatenate((at_lo[keep], at_lo[sel][parent] & (c_lo == s_lo[parent])))
        at_hi = np.concatenate((at_hi[keep], at_hi[sel][parent] & (c_hi == s_hi[parent])))
        plo = np.concatenate((plo[keep], c_lo))
        phi = np.concatenate((phi[keep], c_hi))
        ptask = np.concatenate((ptask[keep], c_task))
        v = np.concatenate((v[keep], cv))
        e = np.concatenate((e[keep], ce))
        ne = np.concatenate((ne[keep], cn))
    return val_g, err_g, nev


# --------------------------------------------------------------------------
# octave integration with an epsilon-algorithm completion
# --------------------------------------------------------------------------

def _epsilon_limit(S) -> tuple[np.ndarray, np.ndarray]:
    """Limit of each row of partial sums S (n, m) and its error, by Wynn's
    epsilon algorithm, which is exact for a sum of k geometric sequences in
    its column 2k.  Each even column from 2 on with three or more entries
    offers its last entry e, charged 3 (|e - e'| + |e - e''|) over the two
    entries before it plus |e - the last entry of the next-lower even
    column|; the row takes the least-charged finite offer.  A row whose last
    two terms are exactly 0 is finished at zero error.  A row that no column
    finishes, or whose last term is not smaller in magnitude than the one
    before it (a growing or oscillating row), keeps its last sum with an
    infinite error."""
    S = np.asarray(S, dtype=float)
    done = (S[:, -1] == S[:, -2]) & (S[:, -2] == S[:, -3])
    best, err = S[:, -1].copy(), np.where(done, 0.0, np.inf)
    prev, col, lower = np.zeros((S.shape[0], S.shape[1] + 1)), S, S[:, -1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, S.shape[1] - 2):
            inc = 1.0 / np.diff(col, axis=1)
            # between two infinite entries the column below converged exactly
            inc[np.isinf(col[:, 1:]) & np.isinf(col[:, :-1])] = 0.0
            prev, col = col, prev[:, 1:-1] + inc
            if k % 2:
                continue
            e = col[:, -1]
            charge = (3.0 * (np.abs(e - col[:, -2]) + np.abs(e - col[:, -3]))
                      + np.abs(e - lower))
            take = charge < err
            best, err = np.where(take, e, best), np.where(take, charge, err)
            lower = e
    d = np.abs(np.diff(S[:, -3:], axis=1))
    grow = ~done & (d[:, 1] >= d[:, 0])
    return np.where(grow, S[:, -1], best), np.where(grow, np.inf, err)


# octaves per evalf call, the most octaves a source gets, and the partial
# sums each completion reads
_OCTAVE_CHUNK, _MAX_OCTAVES, _EPS_TERMS = 12, 64, 11


def _octave_batch(evalf, hi: np.ndarray, group: np.ndarray, n_groups: int,
                  tol: float, task_ids: np.ndarray, order: int):
    """Integrate sum_j int_{hi 2^{-j-1}}^{hi 2^{-j}} f for each source down to
    0, summed per group; source k hands task_ids[k] to evalf.

    The integrand is assumed to behave like a sum of powers u^{kappa-1} near
    0 with kappa > 0, so its octaves are a sum of geometric sequences.  Each
    octave is one _eval_panels panel at the given order (2 order + 1
    evaluations), whose |K - G| gap adds to the source's error.  One stop
    rule finishes each source: after every chunk of octaves,
    _epsilon_limit completes the source from its last _EPS_TERMS partial
    sums, and the source stops once that completion's error is at most tol.
    A source that runs out of octaves keeps its last completion, whatever
    its error.
    """
    n = hi.size
    V = np.zeros((n, _MAX_OCTAVES))
    rule, lim, lim_err = np.zeros((3, n))
    nev = 0
    active = np.ones(n, dtype=bool)
    for j0 in range(0, _MAX_OCTAVES, _OCTAVE_CHUNK):
        idx = np.nonzero(active)[0]
        if not idx.size:
            break
        js = np.arange(j0, min(j0 + _OCTAVE_CHUNK, _MAX_OCTAVES))
        lo = hi[idx, None] * 2.0 ** -(js[None, :] + 1.0)
        up = hi[idx, None] * 2.0 ** -js[None, :].astype(float)
        v, e, n2 = _eval_panels(evalf, lo.ravel(), up.ravel(),
                                np.repeat(task_ids[idx], js.size), order)
        nev += n2
        V[idx[:, None], js] = v.reshape(idx.size, js.size)
        rule[idx] += e.reshape(idx.size, js.size).sum(axis=1)
        S = np.cumsum(V[idx, :js[-1] + 1], axis=1)
        lim[idx], lim_err[idx] = _epsilon_limit(S[:, -_EPS_TERMS:])
        active[idx] = lim_err[idx] > tol
    vals, errs = np.zeros((2, n_groups))
    np.add.at(vals, group, lim)
    np.add.at(errs, group, rule + lim_err)
    return vals, errs, nev


# --------------------------------------------------------------------------
# the 1-D power-kernel constant
# --------------------------------------------------------------------------

def c_alpha(alpha: float, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integral of ((1+t)^a + (1-t)_+^a - 2) / t^{1+2s} over (0, inf).

    Negative for a < s, zero at a = s, positive for s < a < 2s.  Evaluated
    in closed form, Gamma(1+a) Gamma(2s-a) sin(pi(a-s)) / (Gamma(1+2s)
    sin(pi s)) (B. Dyda, Fract. Calc. Appl. Anal. 15, 2012).  The error is a
    rounding bound: 16 ulp of |value| for the three Gamma functions, the sines
    and the products, plus the rounding of pi(a-s) and of pi s, 2 ulp each,
    carried through the sines.  No integrand is evaluated; cfg is not read.
    """
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    if not (0.0 < alpha < 2.0 * s):
        raise InputDomainError(
            f"power exponent must lie in (0, 2s) = (0, {2 * s}), got {alpha}")
    a, s = float(alpha), float(s)
    x, xs = math.pi * (a - s), math.pi * s
    scale = (math.gamma(1.0 + a) * math.gamma(2.0 * s - a)
             / (math.gamma(1.0 + 2.0 * s) * math.sin(xs)))
    value = scale * math.sin(x)
    err = _MACH_EPS * (abs(value) * (16.0 + 2.0 * abs(xs / math.tan(xs)))
                       + 2.0 * abs(scale * x * math.cos(x)))
    return IntegralResult(value, err, 0, True)


# --------------------------------------------------------------------------
# sphere quadrature
# --------------------------------------------------------------------------

def _angles_of(vec: np.ndarray) -> float:
    return math.atan2(float(vec[1]), float(vec[0])) % _TWO_PI


def _jump_angles_2d(a: SpectralDensity) -> list[float]:
    """Angles in [0, 2 pi) across which a 2-D density may jump: for each cap
    boundary cosine cos g about the jump axis, phi_axis +- g and
    phi_axis + pi +- g."""
    out: list[float] = []
    if a.jump_cosines:
        phi_axis = _angles_of(np.asarray(a.jump_axis))
        for c in a.jump_cosines:
            g = math.acos(np.clip(c, -1.0, 1.0))
            for off in (g, -g, math.pi - g, math.pi + g):
                out.append((phi_axis + off) % _TWO_PI)
    return out


def _sphere_breakpoints_2d(a: SpectralDensity,
                           kink_normals: Sequence[np.ndarray],
                           graded_dirs: Sequence[np.ndarray],
                           strong_dirs: Sequence[np.ndarray]):
    """Arc ends of the circle rule and its marked angles.

    The marked angles are the kink-plane crossings, perpendicular to each
    kink normal, and both angles along each graded and each strong
    direction.  The arc ends are those and the jumps of a, from the first
    break b0 to b0 + 2 pi, merged by _merge_edges.  Returns (arc ends,
    marked angles, strong angles)."""
    def angles(dirs, offs):
        return [(_angles_of(np.asarray(d)) + off) % _TWO_PI
                for d in dirs for off in offs]

    strong = angles(strong_dirs, (0.0, math.pi))
    marked = (angles(kink_normals, (0.5 * math.pi, 1.5 * math.pi))
              + angles(graded_dirs, (0.0, math.pi)) + strong)
    brk = _jump_angles_2d(a) + marked
    b0 = min(brk, default=0.0)
    return _merge_edges([brk], b0, b0 + _TWO_PI), np.asarray(marked), np.asarray(strong)


def _sphere_integrate_2d(a: SpectralDensity, node_eval, cfg: QuadratureConfig,
                         kink_normals=(), graded_dirs=(), strong_dirs=()):
    """Adaptive panel rule on the circle.  The weight a(theta) multiplies the
    node values; panels never straddle a declared jump of a.

    The integrand is even, so the rule walks the half turn [b0, b0 + pi) of
    the arc ends of _sphere_breakpoints_2d and doubles its panel values,
    rule errors and node errors.  Those ends are pi-periodic (jumps, kink
    crossings, graded and strong directions come in antipodal pairs), so the
    half-turn layout is the first half of the full turn's, and with the
    panel cap halved to 10,000 refinement takes the full turn's decisions.
    Each panel is the nested Gauss-Kronrod pair of _eval_panels, n from
    _order_for_tol: node_eval runs on the 2n+1 Kronrod directions, whose
    weighted values give K_2n+1 and the embedded G_n.  Arc ends at kink-plane
    crossings and at directions toward sphere-kink centres start graded six
    levels deep; ends toward point singularities start _depth_for_tol + 6
    levels deep.  The panels at those marked angles carry the graded-end
    flags of _run_tasks, which refines the circle as one task in one group:
    a selected flagged panel becomes a three-level graded row toward its
    marked end, any other selected panel is halved (angle 0 is arbitrary, so
    no geometric split).  Refinement stops at the config's tolerances, or
    when the rule error falls below 0.3 of the node errors node_eval
    reports, which finer panels cannot reduce.
    """
    edges, marked, strong = _sphere_breakpoints_2d(a, kink_normals, graded_dirs,
                                                   strong_dirs)
    edges = _merge_edges([edges], edges[0], edges[0] + math.pi)

    def is_marked(angs, marks) -> np.ndarray:
        angs = np.asarray(angs, dtype=float)[..., None]
        return np.any(np.abs(((angs - marks + math.pi) % _TWO_PI) - math.pi) < 1e-9,
                      axis=-1)

    strong_depth = _depth_for_tol(cfg.rel_tol) + 6
    plo_parts, phi_parts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n_base = max(1, int(round(_SPHERE_PANELS * (hi - lo) / _TWO_PI)))
        arc = np.linspace(lo, hi, n_base + 1)
        # grade the first/last sub-panel toward a marked arc endpoint; a
        # one-panel arc marked at both ends is graded toward both from its
        # midpoint
        if is_marked(lo, marked):
            d = strong_depth if is_marked(lo, strong) else _MIN_DEPTH
            arc = np.concatenate((_graded_rows(arc[0], arc[1], True, d), arc[2:]))
        if is_marked(hi, marked):
            d = strong_depth if is_marked(hi, strong) else _MIN_DEPTH
            arc = np.concatenate((arc[:-2], _graded_rows(arc[-2], arc[-1], False, d)))
        plo_parts.append(arc[:-1])
        phi_parts.append(arc[1:])
    plo = np.concatenate(plo_parts)
    phi = np.concatenate(phi_parts)

    xk, wk, wg = _kronrod01(_order_for_tol(max(cfg.abs_tol, cfg.rel_tol / 30.0)))
    w_pair = np.column_stack((wk, wg))

    def eval_panels(plo_b, phi_b, _task):
        wid = phi_b - plo_b
        angs = (plo_b[:, None] + wid[:, None] * xk[None, :]).ravel()
        thetas = np.stack((np.cos(angs), np.sin(angs)), axis=1)
        gvals, gerrs, n_inner = node_eval(thetas)
        avals = a._eval_unit(thetas)
        # each panel stands for itself and its antipodal twin
        vk, vg = ((gvals * avals).reshape(-1, xk.size) @ w_pair).T * (2.0 * wid)
        ne = ((gerrs * avals).reshape(-1, xk.size) @ wk) * (2.0 * wid)
        return vk, np.abs(vk - vg), np.abs(ne), n_inner

    val, err, nev = _run_tasks(
        plo, phi, np.zeros(plo.size, dtype=np.int64), is_marked(plo, marked),
        is_marked(phi, marked), np.zeros(1, dtype=np.int64), 1, eval_panels,
        cfg.abs_tol, cfg.rel_tol, 0.0, cfg.max_subdivisions, np.full(1, 1e-12),
        10_000, False)
    total, err = float(val[0]), float(err[0])
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
    """Product rule on the hemisphere mu >= 0 of a pole frame, doubled: the
    integrand is even, and the rule's mirror image on mu < 0 (symmetric mu
    cuts, an even number of azimuthal nodes) would repeat its values.  The
    pole is the density's jump axis, else the first kink normal, else e_3,
    and mu is cut at the equator and at the declared jump cosines.  Gauss in
    mu times the equispaced azimuthal rule, (15, 48) nodes against (7, 24):
    their difference plus the node errors is the error."""
    if a.jump_cosines:
        pole = np.asarray(a.jump_axis, dtype=float)
    elif kink_normals:
        pole = np.asarray(kink_normals[0], dtype=float)
    else:
        pole = np.asarray([0.0, 0.0, 1.0])
    rot = _rotation_to(pole)
    mu_edges = np.asarray(sorted({0.0, 1.0} | {abs(float(c)) for c in a.jump_cosines}))

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
        wts = np.repeat(wmu, n_phi) * (2.0 * wphi)
        val = float(np.sum(wts * gvals * avals))
        node_err = float(np.sum(wts * np.abs(avals) * gerrs))
        return val, node_err, n_inner

    v_fine, ne_fine, n1 = run(_N_HIGH, _AZIMUTHAL_NODES)
    v_coarse, _, n2 = run(_N_LOW, _AZIMUTHAL_NODES // 2)
    err = abs(v_fine - v_coarse) + ne_fine
    return IntegralResult(v_fine, err, n1 + n2,
                          _tol_met(v_fine, err, cfg.abs_tol, cfg.rel_tol))


def _sphere_integrate_mc(a: SpectralDensity, node_eval, cfg: QuadratureConfig):
    """Seeded Monte Carlo over _SPHERE_MC_SAMPLES uniform directions.  The
    integrand is even, so a drawn direction's mirror image would repeat its
    value; the spread is 3 sigma over the square root of the draws, not a
    bound, plus the node errors."""
    dim = a.dim
    rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
    thetas = rng.standard_normal(size=(_SPHERE_MC_SAMPLES, dim))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
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

    The density a is even, so every rule reads the integrand on one half of
    the sphere and doubles the result.  g is symmetrised as
    (g(theta) + g(-theta)) / 2, as CustomDensity symmetrises its evaluator,
    so an odd part of g integrates to zero; each node costs two evaluations
    of g.  node_eval(thetas), which replaces g and returns (values, node
    errors, evaluations), must be even itself, as the polar route's is.

    N = 1 doubles the point +1; N = 2 uses adaptive arc panels on a half
    turn, split exactly at the declared jumps of a; N = 3 uses a
    polar/azimuthal product rule on a hemisphere; N >= 4 uses seeded Monte
    Carlo, whose error is a 3 sigma spread plus the node errors, not a
    bound.  ``kink_normals`` lists unit vectors w such that g loses
    smoothness on the great circle {theta . w = 0}.  N = 2 grades panels
    toward ``graded_dirs`` (kink-sphere centres, in the polar route) and
    deeper toward ``strong_dirs`` (its point singularities).
    """
    if node_eval is None:
        def node_eval(thetas: np.ndarray):
            both = np.asarray(g(np.concatenate((thetas, -thetas))), dtype=float)
            vals = 0.5 * (both[:thetas.shape[0]] + both[thetas.shape[0]:])
            return vals, np.zeros_like(vals), both.size

    dim = a.dim
    if dim == 1:
        thetas = np.asarray([[1.0]])
        gv, ge, n = node_eval(thetas)
        av = a._eval_unit(thetas)
        val = 2.0 * float(gv[0] * av[0])
        err = 2.0 * float(abs(av[0]) * ge[0])
        return IntegralResult(val, err, n, _tol_met(val, err, cfg.abs_tol, cfg.rel_tol))
    if dim == 2:
        return _sphere_integrate_2d(a, node_eval, cfg, kink_normals, graded_dirs, strong_dirs)
    if dim == 3:
        return _sphere_integrate_3d(a, node_eval, cfg, kink_normals)
    return _sphere_integrate_mc(a, node_eval, cfg)


def weighted_sphere_moment(a: SpectralDensity, s: float,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integral of |theta_N|^{2s} a(theta) over the unit sphere."""
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    e_last = np.zeros(a.dim)
    e_last[-1] = 1.0
    return sphere_quadrature(a, lambda thetas: np.abs(thetas @ e_last) ** (2.0 * s),
                             cfg, kink_normals=(e_last,))


# --------------------------------------------------------------------------
# Monte Carlo region volume
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _ball_sample(center: tuple, radius: float, seed: int, n: int) -> np.ndarray:
    """n seeded uniform points of ball(center, radius), read-only."""
    c = np.asarray(center)
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.standard_normal(size=(n, c.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / c.size)
    pts = c[None, :] + dirs * radii[:, None]
    pts.flags.writeable = False
    return pts


def mc_region_volume(predicate, center: Sequence[float], radius: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Volume of {y in ball(center, radius) : predicate(y)} by seeded sampling.

    The error estimate is three binomial standard errors, and the result is
    converged when that meets the config's tolerances; it is a deterministic
    function of (predicate, center, radius, mc_seed, mc_samples).  The
    sample is drawn once per (center, radius, mc_seed, mc_samples) and
    reaches the predicate read-only.
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        raise InputDomainError("sampling ball radius must be positive")
    dim = center.size
    n = cfg.mc_samples
    pts = _ball_sample(tuple(center.tolist()), float(radius), cfg.mc_seed, n)
    hits = np.asarray(predicate(pts), dtype=bool)
    phat = float(np.count_nonzero(hits)) / n
    vol_ball = ball_volume(dim, radius)
    value = phat * vol_ball
    err = 3.0 * math.sqrt(max(phat * (1.0 - phat), 0.0) / n) * vol_ball
    return IntegralResult(value, err, n, _tol_met(value, err, cfg.abs_tol, cfg.rel_tol))


# --------------------------------------------------------------------------
# radial integrals along both rays of a direction
# --------------------------------------------------------------------------

def _point(x, dim: int, what: str = "evaluation point") -> np.ndarray:
    """x as a finite float vector of dim coordinates, or InputDomainError."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != dim:
        raise InputDomainError(f"{what} has {p.size} coordinates, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise InputDomainError(f"{what} must be finite")
    return p


# evaluation is refused closer to a kink than this fraction of the local scale
_REFUSE_FACTOR = 1e-6


def _local_scale(x: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(x)))


def _refuse_near(kinks: _KinkSet, x: np.ndarray, lim: float, *,
                 planes: bool = True) -> None:
    """Raise NonsmoothPointError when x lies within lim of a kink surface or
    a singular point; planes=False leaves the kink planes out."""
    d = kinks.distances(x)[0 if planes else len(kinks.planes):]
    if np.any(d < lim):
        raise NonsmoothPointError(
            "evaluation point is too close to a kink surface or singular point")


def _second_difference(f, x: np.ndarray):
    """The one builder of the polar integrand of Lf at x: the triple
    (numer, taylor, tail) that _radial_batch reads.  numer(P, M) =
    f(P) + f(M) - 2 f(x); taylor(thetas) = (theta . H theta,
    (4 |f(x)|, 2 |theta . grad f(x)|)), the quadratic subtracted on the inner
    segment and the bounds m0 + m1 t of the terms it cancels; tail = -2 f(x)
    beyond the support of a compact f, else None (u-mapped) once f is known
    to decay (growth delta > 0), or InputDomainError.  The Hessian and
    gradient refuse x on a kink surface."""
    f0 = float(f.value(x))
    H = f.hessian(x)
    df = f.gradient(x)
    compact = f.support_ball is not None
    if not compact and (f.growth is None or not (f.growth.delta > 0.0)):
        raise InputDomainError(
            "function grows too fast for the operator to converge")

    def numer(P: np.ndarray, M: np.ndarray) -> np.ndarray:
        return f.values(P) + f.values(M) - 2.0 * f0

    def taylor(thetas: np.ndarray):
        return (np.einsum("ki,ij,kj->k", thetas, H, thetas),
                (np.full(thetas.shape[0], 4.0 * abs(f0)), 2.0 * np.abs(thetas @ df)))

    return numer, taylor, -2.0 * f0 if compact else None


def _assemble_radial(kinks: _KinkSet, x: np.ndarray, thetas: np.ndarray, *,
                     subtract: bool, compact: bool):
    """Build the task table for both-ray radial integration along K directions.

    The inner segment is [0, t_in], t_in = _T0_FACTOR times the distance from
    x to the nearest kink surface or singular point, capped at 1 (the open
    inner range, subtract False, skips the surfaces through x).  Direction k
    splits [t_in, T0_k] at every time at which either ray crosses a kink
    surface, and at the distance along the ray to each singular point the
    ray passes close to; T0_k = max(last split, 2 t_in, 1).  Splits closer
    than 1e-12 (1 + t) to the previous one kept are dropped.  Task ends at a
    split are graded, no others: not t_in or T0, and not t = 0 (see
    _radial_batch).  The table is direction-major: for each direction the
    subtracted inner task (if subtract), then its pieces in increasing t.

    subtract: the inner range [0, t_in] is one task whose quadratic Taylor
    term is subtracted; else it is open, integrated on octaves toward 0 (for
    integrable endpoint singularities at a kinked base point).  compact: the
    integrand is constant beyond the last split; else [T0, inf) is mapped by
    t = 1/u and integrated on octaves.

    Returns the task arrays (lo, hi, grading flags gl/gh, mode 1 for the
    subtracted inner task and 0 otherwise, direction theta, group), one
    octave table of the sources _octave_batch integrates toward 0 (upper end
    hi, direction theta, mode 0 for the open inner range (0, t_in] and 2 for
    the u-mapped tail (0, 1/T0]; inner sources first), T0 and t_in.
    """
    K = thetas.shape[0]
    if subtract:
        rho = min(1.0, kinks.distance(x))
    else:
        rho = max(min(1.0, kinks.distance(x, beyond=1e-9)), 1e-9)
    if not (rho > 0.0):
        raise AccuracyError("no room around the base point for the inner segment")
    t_in = _T0_FACTOR * rho

    # split times, one row per direction: the crossings, then the distance
    # along the ray to each singular point that passes close to it
    v = kinks.points - x[None, :]
    vt = thetas @ v.T
    ta = np.abs(vt)
    near = (ta > 1.5 * t_in) & (np.einsum("ij,ij->i", v, v) - vt * vt
                                < (0.3 * ta + 0.1) ** 2)
    T = np.concatenate((kinks.crossing_times(x, thetas),
                        np.where(near, ta, np.inf)), axis=1)
    T[T <= t_in * (1.0 + 1e-12)] = np.inf
    T.sort(axis=1)
    last = np.full(K, -np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf past the last split
        for j in range(T.shape[1]):
            t = T[:, j]
            new = t - last > 1e-12 * (1.0 + t)
            t[~new] = np.inf
            last = np.where(new, t, last)
    T.sort(axis=1)
    n = np.count_nonzero(np.isfinite(T), axis=1)
    T = T[:, :n.max(initial=0)]
    last = np.max(np.where(np.isfinite(T), T, 0.0), axis=1, initial=0.0)
    T0 = np.maximum(last, max(2.0 * t_in, 1.0))

    # one edge row per direction: [0,] t_in, splits, T0 (unless T0 is the
    # last split), padded with inf
    p = int(subtract)
    E = np.full((K, p + T.shape[1] + 2), np.inf)
    E[:, :p] = 0.0
    E[:, p] = t_in
    E[:, p + 1:p + 1 + T.shape[1]] = T
    E[np.arange(K), p + 1 + n] = np.where(last < T0, T0, np.inf)
    j = np.arange(E.shape[1] - 1)[None, :]
    valid = np.isfinite(E[:, 1:])
    k_col = np.broadcast_to(np.arange(K)[:, None], valid.shape)[valid]
    tasks = {
        "lo": E[:, :-1][valid], "hi": E[:, 1:][valid],
        "gl": np.broadcast_to(j > p, valid.shape)[valid],
        "gh": ((j >= p) & (j < p + n[:, None]))[valid],
        "mode": np.broadcast_to((j < p).astype(np.int64), valid.shape)[valid],
        "theta": k_col, "group": k_col,
    }
    use = np.repeat([not subtract, not compact], K)
    octaves = {"hi": np.concatenate((np.full(K, t_in), 1.0 / T0))[use],
               "theta": np.tile(np.arange(K), 2)[use],
               "mode": np.repeat(np.array([0, 2], dtype=np.int64), K)[use]}
    return tasks, octaves, T0, t_in


def _radial_batch(*, x: np.ndarray, thetas: np.ndarray, s: float,
                  cfg: QuadratureConfig, kinks: _KinkSet, numer,
                  taylor=None, tail: float = None):
    """Integrate numer(plus_points, minus_points) / t^{1+2s} dt over (0, inf)
    for each direction, with Taylor subtraction, kink splitting, tail mapping
    and an epsilon-algorithm completion of the octave sources.

    thetas (K, dim) are unit directions; kinks is the _KinkSet of every
    function in the numerator, which places the inner segment and the splits
    (see _assemble_radial).  The integrand is the triple numer, taylor, tail
    (see _second_difference), and its modes are read from it.
    numer(P, M) evaluates the numerator at the two ray point batches.
    taylor(thetas) returns (quad_coefs, (m0, m1)): quad_coefs[k] is the exact
    quadratic coefficient subtracted on the inner segment for direction k,
    and the terms the numerator cancels there sum to about m0[k] + m1[k] t
    in magnitude; taylor None leaves the inner range open.  tail is the
    numerator's constant value beyond the last split, integrated in closed
    form; None maps the tail by t = 1/u.  cfg's tolerances are the targets
    of each direction.

    The closed-form inner quadratic, the compact tail constant and the
    octave sources of _assemble_radial's one octave table (the open inner
    range and the u-mapped tail) are computed first, the sources in one
    _octave_batch call that stops each once its completion error is at most
    0.25 abs_tol.  Their per-direction sum is the offset of _run_tasks'
    relative target, which holds each direction to its final value.  At a
    zero of the operator (alpha = s for a half-space power) the main tasks
    alone are O(1), and a target on them would pass directions that then
    miss.  The subtracted inner task [0, t_in] is not graded toward 0: its
    integrand vanishes like t^{3-2s} there, and graded panels would only
    resolve rounding noise (a difference of O(1) quantities times
    t^{-1-2s}) whose K15 - G7 gap grows as they shrink.  That noise is the
    inner task's node error: one ulp of the cancelled terms,
    eps (m0 + m1 t + |quad_coefs| t^2) t^{-1-2s} at each node, summed with
    the Kronrod weights.  _run_tasks adds it to the direction's error and
    stops splitting once the rule error falls below 0.3 of it.
    Returns (values, error_estimates, n_evals, converged) per direction.
    """
    K = thetas.shape[0]
    ts2 = 2.0 * s
    tol_a, tol_r = cfg.abs_tol, cfg.rel_tol

    tasks, octaves, T0, t_in = _assemble_radial(
        kinks, x, thetas, subtract=taylor is not None, compact=tail is not None)
    quad_coefs, (m0, m1) = ((np.zeros(K), np.zeros((2, K))) if taylor is None
                            else taylor(thetas))

    n_main = tasks["lo"].size
    # the evalf task table spans the main tasks, then the octave sources
    all_theta = np.concatenate((tasks["theta"], octaves["theta"]))
    all_mode = np.concatenate((tasks["mode"], octaves["mode"]))
    qq = quad_coefs[all_theta]
    # ray points are built as (dim, n) rows and handed on as (n, dim) views,
    # so elementwise work downstream runs along the long axis, not along dim
    thetas_t = np.ascontiguousarray(thetas.T)
    x_col = x[:, None]

    def evalf(ts, task_ids):
        md = all_mode[task_ids]
        mapped = md == 2
        sub = md == 1
        te = ts.copy()
        te[mapped] = 1.0 / ts[mapped]
        step = te * np.take(thetas_t, all_theta[task_ids], axis=1)
        X = numer((x_col + step).T, (x_col - step).T)
        ts_, tid = te[sub], task_ids[sub]
        X[sub] -= qq[tid] * ts_ * ts_
        kern = te ** (-1.0 - ts2)
        kern[mapped] = ts[mapped] ** (ts2 - 1.0)
        return X * kern

    order = _order_for_tol(max(tol_a, tol_r / 30.0))
    offset, errs_rest, nev = _octave_batch(
        evalf, octaves["hi"], octaves["theta"], K, 0.25 * tol_a,
        task_ids=n_main + np.arange(octaves["hi"].size), order=order)
    if taylor is not None:
        offset += quad_coefs * t_in ** (2.0 - ts2) / (2.0 - ts2)
    if tail is not None:
        offset += tail * T0 ** (-ts2) / ts2

    xk, wk, _ = _kronrod01(order)

    def eval_panels(lo, hi, task):
        v, e, n2 = _eval_panels(evalf, lo, hi, task, order)
        ne = np.zeros_like(v)
        sub = all_mode[task] == 1
        if np.any(sub):
            k, wid = all_theta[task[sub]], hi[sub] - lo[sub]
            t = lo[sub, None] + wid[:, None] * xk
            mag = m0[k, None] + t * (m1[k, None] + np.abs(quad_coefs[k, None]) * t)
            ne[sub] = _MACH_EPS * wid * ((mag * t ** (-1.0 - ts2)) @ wk)
        return v, e, ne, n2

    floors = ((tasks["hi"] - tasks["lo"])
              * 2.0 ** -float(_depth_for_tol(min(tol_r, tol_a)) + 10))
    vals, errs, n2 = _run_tasks(
        *_initial_panels(tasks["lo"], tasks["hi"], tasks["gl"], tasks["gh"]),
        tasks["group"], K, eval_panels, np.full(K, 0.5 * tol_a),
        np.full(K, 0.5 * tol_r), offset, cfg.max_subdivisions, floors,
        400_000, True)
    vals, errs = vals + offset, errs + errs_rest
    return vals, errs, nev + n2, errs <= np.maximum(tol_a, tol_r * np.abs(vals))


def radial_integral(f, x, theta, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Both-ray radial integral of the second difference of f at x along
    theta: int_0^inf [f(x+t theta)+f(x-t theta)-2 f(x)] / t^{1+2s} dt.

    The integrand is apply_L's (_second_difference), held to cfg's
    tolerances, and what apply_L refuses raises InputDomainError here too:
    an order that is not f's, a point or direction that is not a finite
    f.dim-vector, and a non-compact f that does not decay.  A point within
    _REFUSE_FACTOR of a kink surface or singular point (relative to
    max(1, |x|)) raises NonsmoothPointError, as in apply_L."""
    if not (0.0 < s < 1.0):
        raise InputDomainError(f"order parameter s must lie in (0, 1), got {s}")
    if abs(f.s - s) > 1e-12:
        raise InputDomainError("function was built for a different order")
    x = _point(x, f.dim)
    theta = _point(theta, f.dim, "direction")
    if abs(float(np.linalg.norm(theta)) - 1.0) > 1e-9:
        raise InputDomainError("direction must be a unit vector")
    kinks = _KinkSet.of(f)
    _refuse_near(kinks, x, _REFUSE_FACTOR * _local_scale(x))
    numer, taylor, tail = _second_difference(f, x)
    vals, errs, nev, ok = _radial_batch(
        x=x, thetas=theta[None, :], s=s, cfg=cfg, kinks=kinks,
        numer=numer, taylor=taylor, tail=tail)
    return IntegralResult(float(vals[0]), float(errs[0]), nev, bool(ok[0]))
