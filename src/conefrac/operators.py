"""Evaluation of the anisotropic nonlocal operator on catalog functions.

Composes the radial and sphere quadrature engines into Lu(x), provides the
closed-form fast path for half-space powers, the bilinear product-rule
correction, and the self-adjointness pairing check on a truncated box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    CatalogFunction,
    Constant,
    HalfSpacePower,
    KelvinHalfSpacePower,
    ScalarMultiple,
    TranslateTruncate,
    Zero,
    _KinkSet,
)
from .errors import (
    AccuracyError,
    InputDomainError,
    NonsmoothPointError,
    TruncationError,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _gauss01,
    _geom_edges,
    _graded_rows,
    _jump_angles_2d,
    _merge_edges,
    _radial_batch,
    c_alpha,
    sphere_quadrature,
    sphere_surface_area,
)
from .spectral import SpectralDensity, weighted_sphere_moment

__all__ = [
    "OperatorEvaluation",
    "PairingResult",
    "apply_L",
    "apply_L_halfspace_power",
    "correction_l",
    "pairing",
]

# evaluation is refused closer to a kink than this fraction of the local scale
_REFUSE_FACTOR = 1e-6


@dataclass(frozen=True)
class OperatorEvaluation:
    """One operator value with its accuracy accounting.

    path is "closed_form" when an exact formula supplied the value (the error
    estimate then covers the quadratures of the power-kernel constant and of
    the sphere moment) and "numeric" for the full polar-decomposition
    evaluation.
    """

    value: float
    abs_error_estimate: float
    path: str
    x: tuple
    n_evals: int = 0
    converged: bool = True


@dataclass(frozen=True)
class PairingResult:
    """Both sides of the symmetry identity on a truncated box."""

    I_uLv: float
    I_vLu: float
    residual: float
    abs_error_estimate: float
    n_evals: int
    truncation_bound: float


def _point(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != dim:
        raise InputDomainError(
            f"evaluation point has {p.size} coordinates, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise InputDomainError("evaluation point must be finite")
    return p


def _check_match(a: SpectralDensity, s: float, f: CatalogFunction) -> None:
    if not (0.0 < s < 1.0):
        raise InputDomainError("order must lie in (0, 1)")
    if f.dim != a.dim:
        raise InputDomainError("density and function dimensions differ")
    if abs(f.s - s) > 1e-12:
        raise InputDomainError("function was built for a different order")


def _unwrap_scale(f: CatalogFunction):
    scale = 1.0
    while isinstance(f, ScalarMultiple):
        scale *= f.epsilon
        f = f.f
    return scale, f


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


def _sphere_hints(kinks: _KinkSet, x: np.ndarray):
    """Splitting hints for the sphere rule: normals of kink planes, directions
    toward sphere-kink centers, and directions toward point singularities."""
    def toward(pts):
        v = pts - x[None, :]
        n = np.linalg.norm(v, axis=1)
        return list(v[n > 1e-12] / n[n > 1e-12, None])
    return list(kinks.normals), toward(kinks.centers), toward(kinks.points)


def _node_tols(a: SpectralDensity, cfg: QuadratureConfig):
    lam_bound = max(a.upper_bound * sphere_surface_area(a.dim), 1e-3)
    return cfg.abs_tol / (3.0 * lam_bound), cfg.rel_tol / 3.0


def _run_polar(a: SpectralDensity, s: float, kinks: _KinkSet, x: np.ndarray,
               cfg: QuadratureConfig, *, numer, quad_fn, inner_mode: str,
               tail_mode: str, analytic_const: float, strict: bool,
               what: str) -> OperatorEvaluation:
    normals, graded, strong = _sphere_hints(kinks, x)
    tol_abs_node, tol_rel_node = _node_tols(a, cfg)

    def node_eval(thetas: np.ndarray):
        qc = quad_fn(thetas) if quad_fn is not None else None
        vals, errs, nev, _ok = _radial_batch(
            x=x, thetas=thetas, s=s, cfg=cfg, kinks=kinks,
            numer=numer, quad_coefs=qc, inner_mode=inner_mode,
            tail_mode=tail_mode, analytic_const=analytic_const,
            tol_abs_node=tol_abs_node, tol_rel_node=tol_rel_node)
        return vals, errs, nev

    res = sphere_quadrature(a, None, cfg, kink_normals=normals,
                            graded_dirs=graded, node_eval=node_eval,
                            strong_dirs=strong)
    if strict and not res.converged:
        raise AccuracyError(
            f"{what} did not reach the requested accuracy",
            value=res.value, abs_error_estimate=res.abs_error_estimate)
    return OperatorEvaluation(res.value, res.abs_error_estimate, "numeric",
                              tuple(float(c) for c in x), res.n_evals,
                              res.converged)


# --------------------------------------------------------------------------
# Lu(x)
# --------------------------------------------------------------------------

def apply_L(a: SpectralDensity, s: float, f: CatalogFunction, x,
            cfg: QuadratureConfig = DEFAULT_CONFIG, *,
            force_numeric: bool = False, strict: bool = True
            ) -> OperatorEvaluation:
    """Evaluate Lf(x) = int [f(x+y)+f(x-y)-2f(x)] a(y/|y|) |y|^{-N-2s} dy.

    Dispatches to closed forms where they exist (constants, half-space powers
    for any density, the decaying half-space power for constant densities);
    otherwise integrates the polar decomposition.  force_numeric skips the
    dispatch, strict=False returns unconverged results instead of raising.
    """
    _check_match(a, s, f)
    x = _point(x, f.dim)
    scale, core = _unwrap_scale(f)

    if not force_numeric:
        if isinstance(core, (Zero, Constant)) or scale == 0.0:
            return OperatorEvaluation(0.0, 0.0, "closed_form",
                                      tuple(float(c) for c in x))
        if isinstance(core, HalfSpacePower) and x[-1] > 0.0:
            base = apply_L_halfspace_power(a, s, core.alpha, x, cfg)
            return OperatorEvaluation(scale * base.value,
                                      abs(scale) * base.abs_error_estimate,
                                      "closed_form", base.x, base.n_evals,
                                      base.converged)
        if (isinstance(core, KelvinHalfSpacePower) and a.is_constant
                and x[-1] > 0.0):
            C, C_err, nev = _weighted_difference_constant(a, s, core.alpha,
                                                          cfg)
            r = float(np.linalg.norm(x))
            geom = x[-1] ** (core.alpha - 2.0 * s) / r ** core.radial_exponent
            return OperatorEvaluation(scale * C * geom,
                                      abs(scale * geom) * C_err,
                                      "closed_form", tuple(float(c) for c in x),
                                      nev, True)

    kinks = _KinkSet.of(f)
    _refuse_near(kinks, x, _REFUSE_FACTOR * _local_scale(x))
    f0 = float(f.value(x))
    H = f.hessian(x)

    if f.support_ball is not None:
        tail_mode, const = "compact", -2.0 * f0
    else:
        g = f.growth
        if g is None or not (g.delta > 0.0):
            raise InputDomainError(
                "function grows too fast for the operator to converge")
        tail_mode, const = "u_map", 0.0

    def numer(P: np.ndarray, M: np.ndarray) -> np.ndarray:
        return f.values(P) + f.values(M) - 2.0 * f0

    def quad_fn(thetas: np.ndarray) -> np.ndarray:
        return np.einsum("ki,ij,kj->k", thetas, H, thetas)

    return _run_polar(a, s, kinks, x, cfg, numer=numer, quad_fn=quad_fn,
                      inner_mode="subtract", tail_mode=tail_mode,
                      analytic_const=const, strict=strict,
                      what="operator evaluation")


def apply_L_halfspace_power(a: SpectralDensity, s: float, alpha: float, x,
                            cfg: QuadratureConfig = DEFAULT_CONFIG
                            ) -> OperatorEvaluation:
    """Closed form for f = (x_N)_+^alpha: the image is the same power family
    with exponent alpha - 2s, scaled by the power-kernel constant times the
    weighted sphere moment of the density."""
    if not (0.0 < s < 1.0):
        raise InputDomainError("order must lie in (0, 1)")
    if not (0.0 < alpha < 2.0 * s):
        raise InputDomainError("exponent must lie in (0, 2s)")
    x = _point(x, a.dim)
    if not x[-1] > 0.0:
        raise InputDomainError(
            "closed form needs a point in the open upper half-space")
    C, C_err, nev = _weighted_difference_constant(a, s, alpha, cfg)
    pw = x[-1] ** (alpha - 2.0 * s)
    return OperatorEvaluation(C * pw, abs(pw) * C_err, "closed_form",
                              tuple(float(c) for c in x), nev, True)


def _weighted_difference_constant(a: SpectralDensity, s: float, alpha: float,
                                  cfg: QuadratureConfig):
    """C_alpha for the given density: the one-dimensional second-difference
    integral times the weighted sphere moment, with first-order error and
    the evaluations of both factors."""
    ca = c_alpha(alpha, s, cfg)
    m = weighted_sphere_moment(a, s, cfg)
    val = ca.value * m.value
    err = (abs(ca.value) * m.abs_error_estimate
           + abs(m.value) * ca.abs_error_estimate
           + ca.abs_error_estimate * m.abs_error_estimate)
    return val, err, ca.n_evals + m.n_evals


# --------------------------------------------------------------------------
# the product-rule correction
# --------------------------------------------------------------------------

def _difference_exponent(f: CatalogFunction, x: np.ndarray, lim: float):
    """Local growth exponent of |f(x + t theta) - f(x)| in t: 1 for a smooth
    point, the kink exponent on a kink plane within lim of x (None meaning a
    jump, exponent 0)."""
    kinks = _KinkSet.of(f)
    d = kinks.distances(x)
    exps = [0.0 if k.exponent is None else min(k.exponent, 1.0)
            for k, dk in zip(kinks.planes, d) if dk < lim]
    return (min(exps), True) if exps else (1.0, False)


def correction_l(a: SpectralDensity, s: float, g: CatalogFunction,
                 h: CatalogFunction, x,
                 cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                 strict: bool = True) -> OperatorEvaluation:
    """The bilinear remainder in the nonlocal product rule,

        L(gh)(x) = g(x) Lh(x) + h(x) Lg(x) + l[g,h](x),

    whose integrand is the product of the two centered differences summed over
    both rays.  At a smooth point the integrand is O(t^2) and the exact
    first-order subtraction is applied on the inner segment; on a kink plane
    through x the inner segment is integrated openly, which converges when the
    two local difference exponents sum above 2s."""
    _check_match(a, s, g)
    _check_match(a, s, h)
    if g.dim != h.dim:
        raise InputDomainError("factor dimensions differ")
    x = _point(x, g.dim)

    sg, gcore = _unwrap_scale(g)
    sh, hcore = _unwrap_scale(h)
    if isinstance(gcore, (Zero, Constant)) or isinstance(hcore, (Zero, Constant)) \
            or sg == 0.0 or sh == 0.0:
        return OperatorEvaluation(0.0, 0.0, "closed_form",
                                  tuple(float(c) for c in x))

    lim = _REFUSE_FACTOR * _local_scale(x)
    on_tol = 1e-9 * _local_scale(x)
    eg, g_on_plane = _difference_exponent(g, x, on_tol)
    eh, h_on_plane = _difference_exponent(h, x, on_tol)
    boundary = g_on_plane or h_on_plane
    if boundary and not (eg + eh > 2.0 * s):
        raise NonsmoothPointError(
            "difference exponents too weak for the correction to converge")

    # refuse nearby curved structure; a kink plane is fine at any distance
    # (through x it switches to the open boundary mode, otherwise the radial
    # splitting resolves the crossing time exactly)
    kinks = _KinkSet.of(g, h)
    _refuse_near(kinks, x, lim, planes=False)

    g0 = float(g.value(x))
    h0 = float(h.value(x))

    def numer(P: np.ndarray, M: np.ndarray) -> np.ndarray:
        return ((g.values(P) - g0) * (h.values(P) - h0)
                + (g.values(M) - g0) * (h.values(M) - h0))

    if boundary:
        inner_mode, quad_fn = "open", None
    else:
        inner_mode = "subtract"
        dg = g.gradient(x)
        dh = h.gradient(x)

        def quad_fn(thetas: np.ndarray) -> np.ndarray:
            return 2.0 * (thetas @ dg) * (thetas @ dh)

    g_comp = g.support_ball is not None
    h_comp = h.support_ball is not None
    if (g_comp and g0 == 0.0) or (h_comp and h0 == 0.0):
        tail_mode, const = "none", 0.0
    elif g_comp and h_comp:
        tail_mode, const = "compact", 2.0 * g0 * h0
    else:
        dg_growth = 2.0 * s if g_comp else g.growth.delta
        dh_growth = 2.0 * s if h_comp else h.growth.delta
        if not (dg_growth + dh_growth > 2.0 * s):
            raise InputDomainError(
                "factors grow too fast for the correction to converge")
        tail_mode, const = "u_map", 0.0

    return _run_polar(a, s, kinks, x, cfg, numer=numer, quad_fn=quad_fn,
                      inner_mode=inner_mode, tail_mode=tail_mode,
                      analytic_const=const, strict=strict,
                      what="product-rule correction")


# --------------------------------------------------------------------------
# pairing on a truncated box
# --------------------------------------------------------------------------

def _gauss_on_panels(edges: np.ndarray, n: int):
    xg, wg = _gauss01(n)
    lo = edges[:-1]
    wid = np.diff(edges)
    pts = (lo[:, None] + wid[:, None] * xg[None, :]).ravel()
    wts = (wid[:, None] * wg[None, :]).ravel()
    return pts, wts


def _tensor_nodes(edge_list, n_gauss: int):
    """Tensor product of composite Gauss rules, one per axis: nodes (m, dim)
    with the first axis varying slowest, and weights (m,)."""
    axes = [_gauss_on_panels(e, n_gauss) for e in edge_list]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for w in wgrids:
        wts *= w.ravel()
    return pts, wts


def _support_edges(v: CatalogFunction, n_side: int, graded_min: int):
    """Per-dimension panel edges covering supp v clipped to the upper half."""
    ball = v.support_ball
    c = np.asarray(ball.center, dtype=float)
    r = float(ball.radius)
    dims = [np.linspace(ci - r, ci + r, n_side + 1) for ci in c]
    if c[-1] - r < 1e-9:
        dims[-1] = _graded_rows(0.0, c[-1] + r, True, max(graded_min, n_side) - 1, 1.5)
    return dims


def _conv_source(v: CatalogFunction, fine: bool):
    """Fixed polar quadrature of v over its support, for the convolution form
    of Lv at points outside the support: nodes z and weights w*v(z)."""
    ball = v.support_ball
    c = np.asarray(ball.center, dtype=float)
    r = float(ball.radius)
    if v.dim != 2:
        raise InputDomainError("the pairing check is two-dimensional")
    nr, na = (40, 96) if fine else (24, 56)
    RA, W = _tensor_nodes([np.linspace(0.0, r, nr // 4 + 1),
                           np.linspace(0.0, 2.0 * math.pi, na // 4 + 1)], 4)
    R, A = RA[:, 0], RA[:, 1]
    z = np.stack([c[0] + R * np.cos(A), c[1] + R * np.sin(A)], axis=1)
    w = W * R * v.values(z)
    keep = w != 0.0
    return z[keep], w[keep]


def _conv_L(a: SpectralDensity, s: float, z: np.ndarray, wv: np.ndarray,
            X: np.ndarray) -> np.ndarray:
    """The mass sum 2 sum_j wv_j a(theta_j) |z_j - x|^{-N-2s}, theta_j the
    direction of z_j - x, at each row x of X clear of the nodes z.

    With wv the quadrature weights times v(z) this is Lv at points strictly
    outside supp v, where only the mass of v arrives.  wv is (m,), or (m, k)
    with one weight column per integral; the result is (n,) or (n, k).  A
    constant density needs no directions: its kernel is a.value r^{-N-2s}.
    Columns stored contiguously (a (k, m) array transposed) keep the sum
    over the nodes fast.
    """
    dim = X.shape[1]
    out = np.empty((X.shape[0],) + wv.shape[1:])
    # coordinates lead, (dim, points, nodes): the elementwise work then runs
    # along the long axes, not along dim.  The squares are summed coordinate
    # by coordinate, as numpy sums fewer than eight terms
    zt = np.ascontiguousarray(z.T)
    xt = np.ascontiguousarray(X.T)
    step = max(1, 131_072 // max(z.shape[0], 1))
    for i in range(0, X.shape[0], step):
        d = zt[:, None, :] - xt[:, i:i + step, None]
        sq = d * d
        r2 = sq[0]
        for c in range(1, dim):
            r2 = r2 + sq[c]
        kern = r2 ** (-0.5 * dim - s)
        if not a.is_constant:
            unit = (d / np.sqrt(r2)[None, :, :]).reshape(dim, -1).T
            kern *= a._eval_unit(np.ascontiguousarray(unit)).reshape(r2.shape)
        # numpy's own loops, not a threaded BLAS call: the sum stays fast
        # and bit-reproducible when other processes hold the cores
        out[i:i + step] = np.einsum("pm,m...->p...", kern, wv)
    return 2.0 * (a.value if a.is_constant else 1.0) * out


def _tt_kelvin_parts(f: CatalogFunction):
    """(scale, inner power) when f is a translate-truncation of a scaled
    decaying half-space power, else None."""
    scale, core = _unwrap_scale(f)
    if not isinstance(core, TranslateTruncate):
        return None
    s2, inner = _unwrap_scale(core.f)
    if isinstance(inner, KelvinHalfSpacePower):
        return scale * s2, inner
    return None


def _kelvin_closed_batch(a: SpectralDensity, s: float,
                         k: KelvinHalfSpacePower, X: np.ndarray,
                         cfg: QuadratureConfig):
    """Closed-form L of the decaying half-space power at upper points,
    vectorized; constant densities only."""
    C, C_err, nev = _weighted_difference_constant(a, s, k.alpha, cfg)
    r = np.linalg.norm(X, axis=1)
    geom = X[:, -1] ** (k.alpha - 2.0 * s) / r ** k.radial_exponent
    return C * geom, np.abs(geom) * C_err, nev


_SLAB_SPAN = 600.0


def _slab_source(k: KelvinHalfSpacePower, fine: bool):
    """Quadrature of the decaying power over the slab 0 < z_N < 1 (its mass
    between the original and the shifted truncation planes): nodes and
    weights carrying the function values."""
    # both factors of the source are algebraic powers; log-graded panels in
    # each coordinate resolve the integrable singularity at the origin
    nn, nt, gauss = (20, 28, 4) if fine else (13, 19, 3)
    en = _graded_rows(0.0, 1.0, True, nn - 1)
    half = np.concatenate(([0.0], np.geomspace(1e-7, _SLAB_SPAN, nt)))
    et = np.concatenate((-half[::-1][:-1], half))
    z, W = _tensor_nodes([et, en], gauss)
    rr = np.linalg.norm(z, axis=1)
    w = W * z[:, 1] ** k.alpha / rr ** (k.dim - 2.0 * k.s + 2.0 * k.alpha)
    return z, w


def _tt_kelvin_L(a: SpectralDensity, s: float, scale: float,
                 k: KelvinHalfSpacePower, X: np.ndarray,
                 cfg: QuadratureConfig):
    """L of the translate-truncated decaying power at upper points: the
    shifted closed form minus the convolution against the slab that the
    truncation removed."""
    shift = np.zeros(X.shape[1])
    shift[-1] = 1.0
    Xs = X + shift[None, :]
    base, base_err, nev = _kelvin_closed_batch(a, s, k, Xs, cfg)
    zf, wf = _slab_source(k, True)
    zc, wc = _slab_source(k, False)
    gf = _conv_L(a, s, zf, wf, Xs)
    gc = _conv_L(a, s, zc, wc, Xs)
    q = k.dim - 2.0 * k.s + 2.0 * k.alpha
    tail = (4.0 * a.upper_bound * 2.0 ** (k.dim + 2.0 * s)
            / (k.alpha + 1.0)) * _SLAB_SPAN ** (-(q + 2.0 * s)) / (q + 2.0 * s)
    vals = scale * (base - gf)
    errs = abs(scale) * (base_err + np.abs(gf - gc) + tail)
    return vals, errs, nev + X.shape[0] * (wf.size + wc.size)


def _angular_panel_edges(a: SpectralDensity, per_half_turn: int) -> np.ndarray:
    """Panel edges on [0, 2 pi] aligned with the density's jump circles."""
    brk = sorted({0.0, *_jump_angles_2d(a)}) + [2.0 * math.pi]
    return np.unique(np.concatenate(
        [np.linspace(lo, hi, max(2, int(per_half_turn * (hi - lo) / math.pi)))
         for lo, hi in zip(brk[:-1], brk[1:]) if hi - lo > 1e-12]))


def _density_angular_moments(a: SpectralDensity):
    """Total mass and second moment matrix of the density on the circle,
    by composite Gauss split at declared jumps."""
    if a.dim != 2:
        raise InputDomainError("the pairing check is two-dimensional")
    ang, wts = _gauss_on_panels(_angular_panel_edges(a, 24), 6)
    th = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    av = a._eval_unit(th)
    mass = float(np.sum(wts * av))
    Q = np.einsum("k,ki,kj->ij", wts * av, th, th)
    return mass, Q


def _excised_L_compact(a: SpectralDensity, s: float, f: CatalogFunction,
                       X: np.ndarray, mass: float, Q: np.ndarray):
    """Lf at points where f is twice differentiable, for compact f: the ball
    |y| < delta contributes its Hessian quadratic in closed form, the rest is
    an x-centered polar integral of f(z) - f(x), with the analytic tail
    beyond the support added exactly.  Two resolutions give the error."""
    ball = f.support_ball
    c = np.asarray(ball.center, dtype=float)
    rmax = float(np.max(np.linalg.norm(X - c[None, :], axis=1))) + ball.radius
    f0 = f.values(X)
    rows = []
    for x in X:
        try:
            rows.append(f.hessian(x))
        except NonsmoothPointError:
            # node fell exactly on a smooth scale marker; step off it
            rows.append(f.hessian(x + 5e-10 * (1.0 + np.abs(x))))
    H = np.stack(rows)
    hq = np.einsum("kij,ij->k", H, Q)
    ts2 = 2.0 * s

    def run(delta, n_ang, ratio, g):
        near = hq * delta ** (2.0 - ts2) / (2.0 - ts2)
        rr, wr = _gauss_on_panels(_geom_edges(delta, rmax, ratio, 4), g)
        ang, wa = _gauss_on_panels(_angular_panel_edges(a, n_ang // 2), g)
        th = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        th_t = np.ascontiguousarray(th.T)
        av = a._eval_unit(th)
        kern = wr * rr ** (-1.0 - ts2)
        out = np.empty(X.shape[0])
        step = max(1, 2_000_000 // (rr.size * ang.size))
        for i in range(0, X.shape[0], step):
            Xi = X[i:i + step]
            # coordinates lead, as in _conv_L; f sees an (n, 2) view
            Z = (np.ascontiguousarray(Xi.T)[:, :, None, None]
                 + rr[None, None, :, None] * th_t[:, None, None, :])
            fv = f.values(Z.reshape(2, -1).T).reshape(Xi.shape[0], rr.size,
                                                      ang.size)
            out[i:i + step] = 2.0 * np.einsum(
                "r,a,kra->k", kern, wa * av, fv - f0[i:i + step, None, None])
        tail = -2.0 * f0 * mass * rmax ** (-ts2) / ts2
        return near + out + tail, rr.size * ang.size * X.shape[0]

    v1, n1 = run(0.003, 40, 1.35, 5)
    v2, n2 = run(0.01, 26, 1.7, 4)
    return v1, np.abs(v1 - v2), n1 + n2


def _L_field(a: SpectralDensity, s: float, f: CatalogFunction, X: np.ndarray,
             cfg: QuadratureConfig, conv=None):
    """Lf at a batch of points: closed forms and convolution/excision forms
    where they apply, the full polar evaluation elsewhere."""
    n = X.shape[0]
    vals = np.empty(n)
    errs = np.empty(n)
    nev = 0
    tt = _tt_kelvin_parts(f)
    if tt is not None and a.is_constant and np.all(X[:, -1] > 0.0):
        return _tt_kelvin_L(a, s, tt[0], tt[1], X, cfg)
    sc, core = _unwrap_scale(f)
    if (isinstance(core, KelvinHalfSpacePower) and a.is_constant
            and np.all(X[:, -1] > 0.0)):
        base, base_err, nb = _kelvin_closed_batch(a, s, core, X, cfg)
        return sc * base, abs(sc) * base_err, nb
    done = np.zeros(n, dtype=bool)
    if f.support_ball is not None:
        ball = f.support_ball
        c = np.asarray(ball.center, dtype=float)
        if conv is not None:
            dist = np.linalg.norm(X - c[None, :], axis=1) - ball.radius
            far = dist >= 0.35 * ball.radius
            if np.any(far):
                zf, wf = conv["fine"]
                zc, wc = conv["coarse"]
                vf = _conv_L(a, s, zf, wf, X[far])
                vc = _conv_L(a, s, zc, wc, X[far])
                vals[far] = vf
                errs[far] = np.abs(vf - vc)
                nev += int(far.sum()) * (wf.size + wc.size)
                done |= far
        # remaining points: the excision form needs two derivatives on a
        # small ball clear of any kink plane (smooth scale markers are fine)
        kinks = _KinkSet.of(f)
        clear = ~done & np.all(
            kinks.distances(X)[:, :len(kinks.planes)] > 0.1, axis=1)
        if np.any(clear):
            mass, Q = _density_angular_moments(a)
            v3, e3, n3 = _excised_L_compact(a, s, f, X[clear], mass, Q)
            vals[clear] = v3
            errs[clear] = e3
            nev += n3
            done |= clear
    for i in np.nonzero(~done)[0]:
        r = apply_L(a, s, f, X[i], cfg, strict=False)
        vals[i] = r.value
        errs[i] = r.abs_error_estimate
        nev += r.n_evals
    return vals, errs, nev


def _integrate_weighted(a, s, weight: CatalogFunction, field: CatalogFunction,
                        edge_list, n_gauss: int, cfg, conv):
    pts, wts = _tensor_nodes(edge_list, n_gauss)
    wvals = weight.values(pts)
    keep = wvals != 0.0
    pts, wts, wvals = pts[keep], wts[keep], wvals[keep]
    fvals, ferrs, nev = _L_field(a, s, field, pts, cfg, conv=conv)
    total = float(np.sum(wts * wvals * fvals))
    node_err = float(np.sum(np.abs(wts * wvals) * ferrs))
    return total, node_err, nev


def _truncation_bound(a: SpectralDensity, u: CatalogFunction,
                      v_l1: float, s: float, half_width: float) -> float:
    """Bound on the mass of u * Lv outside the box, from growth metadata and
    the far-field kernel bound |Lv| <= 2 D ||v||_1 (|x|/2)^{-N-2s}."""
    dim = u.dim
    w = half_width
    kern = 2.0 * a.upper_bound * v_l1 * 2.0 ** (dim + 2.0 * s)
    area = sphere_surface_area(dim)
    cands = []
    g = u.growth
    if g is not None and w >= g.valid_radius:
        expo = max(0.0, 2.0 * s - g.delta)
        if 2.0 * s - expo > 0.0:
            cands.append(2.0 * g.beta * w ** (expo - 2.0 * s)
                         / (2.0 * s - expo))
    far = u.far_field
    if far is not None and w >= far.radius:
        if far.coef == 0.0:
            cands.append(0.0)
        else:
            cands.append(far.coef * w ** (-far.rate - 2.0 * s)
                         / (2.0 * s + far.rate))
    if not cands:
        return math.inf
    return kern * area * min(cands)


def pairing(a: SpectralDensity, s: float, u: CatalogFunction,
            v: CatalogFunction, half_width: float,
            cfg: QuadratureConfig = DEFAULT_CONFIG, *,
            truncation_tol: float = 1e-6) -> PairingResult:
    """Check int u Lv = int v Lu over the box [-W, W]^{N-1} x (0, W].

    v must be compactly supported (a half-space power times a cutoff, with
    exponent strictly between (2s-1)_+ and 2s when the kink plane meets its
    support); u must vanish on the closed lower half-space and have admissible
    growth.  The box must contain supp v and be wide enough that the exterior
    remainder, bounded through the growth metadata, is below truncation_tol.
    """
    _check_match(a, s, u)
    _check_match(a, s, v)
    if u.dim != 2:
        raise InputDomainError("the pairing check is two-dimensional")
    if v.support_ball is None:
        raise InputDomainError("the pairing weight must be compact")
    if not u.vanishes_lower_halfspace:
        raise InputDomainError(
            "the paired function must vanish on the lower half-space")
    gu = u.growth
    if gu is None or not (gu.delta > 0.0):
        raise InputDomainError("the paired function grows too fast")

    ball = v.support_ball
    c = np.asarray(ball.center, dtype=float)
    r = float(ball.radius)
    # a kink plane meeting the support must carry an admissible exponent
    low = max(0.0, 2.0 * s - 1.0)
    kinks = _KinkSet.of(v)
    for k, dk in zip(kinks.planes, kinks.distances(c)):
        if dk <= r and (k.exponent is None or not (low < k.exponent < 2.0 * s)):
            raise InputDomainError(
                "the pairing weight exponent must lie in ((2s-1)_+, 2s)")
    W = float(half_width)
    if not (W > 0.0):
        raise InputDomainError("the box half-width must be positive")
    if np.any(np.abs(c[:-1]) + r > W) or c[-1] + r > W:
        raise InputDomainError("the box must contain the weight's support")

    conv = {"fine": _conv_source(v, True), "coarse": _conv_source(v, False)}
    v_l1 = float(np.sum(np.abs(conv["fine"][1])))

    bound = _truncation_bound(a, u, v_l1, s, W)
    if not (bound <= truncation_tol):
        raise TruncationError(
            f"box remainder bound {bound:.3e} exceeds {truncation_tol:.3e}; "
            "enlarge the box or relax the tolerance")

    loose = cfg.with_tol(abs_tol=max(cfg.abs_tol, 2e-6),
                         rel_tol=max(cfg.rel_tol, 2e-5))

    if u is v:
        edges = _support_edges(v, 6, 12)
        val, err, nev = _integrate_weighted(a, s, v, v, edges, 4, loose, conv)
        return PairingResult(val, val, 0.0, err + bound, nev, bound)

    conv_u = None
    if u.support_ball is not None:
        conv_u = {"fine": _conv_source(u, True),
                  "coarse": _conv_source(u, False)}

    # side 1: v times Lu over the support of v
    e_f = _support_edges(v, 6, 12)
    e_c = _support_edges(v, 4, 8)
    vu_f, vu_fe, n1 = _integrate_weighted(a, s, v, u, e_f, 4, loose, conv_u)
    vu_c, _, n2 = _integrate_weighted(a, s, v, u, e_c, 3, loose, conv_u)
    I_vLu = vu_f
    err_vLu = abs(vu_f - vu_c) + vu_fe

    # side 2: u times Lv over the whole box; the grid is refined across the
    # support block where Lv swings on the scale of the cutoff shell
    forced_t = (c[0] - r, c[0] + r, -c[0] - r, -c[0] + r)
    forced_n = (max(c[1] - r, 0.0), c[1] + r)
    h0 = min(2.0 * (c[1] + r), W)
    r1 = min(max(2.0 * (abs(c[0]) + r), 2.0), W)

    blocks = [(c, r)]
    if u.support_ball is not None:
        bu = u.support_ball
        blocks.append((np.asarray(bu.center, dtype=float), float(bu.radius)))

    def box_edges(n_graded: int, n_mid: int, n_near: int, ratio: float):
        en = [_graded_rows(0.0, h0, True, n_graded - 1, 1.5), forced_n]
        if h0 < W:
            en.append(_geom_edges(h0, W, ratio))
        et = [np.linspace(-r1, r1, n_mid + 1), forced_t]
        if r1 < W:
            right = _geom_edges(r1, W, ratio)
            et += [right, -right]
        for cb, rb in blocks:
            p = 0.2971 * rb
            en.append(np.linspace(max(cb[1] - rb - p, 0.0),
                                  min(cb[1] + rb + p, W), n_near + 1))
            et.append(np.linspace(max(cb[0] - rb - p, -W),
                                  min(cb[0] + rb + p, W), n_near + 1))
        return [_merge_edges(et, -W, W), _merge_edges(en, 0.0, W)]

    ef = box_edges(12, 8, 20, 1.6)
    ec = box_edges(8, 6, 13, 2.0)
    uv_f, uv_fe, n3 = _integrate_weighted(a, s, u, v, ef, 4, loose, conv)
    uv_c, _, n4 = _integrate_weighted(a, s, u, v, ec, 3, loose, conv)
    I_uLv = uv_f
    err_uLv = abs(uv_f - uv_c) + uv_fe

    total_err = err_vLu + err_uLv + bound
    return PairingResult(I_uLv, I_vLu, abs(I_uLv - I_vLu), total_err,
                         n1 + n2 + n3 + n4, bound)
