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
    Product,
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
    _REFUSE_FACTOR,
    _gauss01,
    _geom_edges,
    _graded_rows,
    _jump_angles_2d,
    _kronrod01,
    _local_scale,
    _merge_edges,
    _point,
    _radial_batch,
    _refuse_near,
    _second_difference,
    c_alpha,
    sphere_quadrature,
    sphere_surface_area,
    weighted_sphere_moment,
)
from .spectral import ConePlateauDensity, SpectralDensity, _sum_squares

__all__ = [
    "OperatorEvaluation",
    "PairingResult",
    "apply_L",
    "correction_l",
    "pairing",
]


@dataclass(frozen=True)
class OperatorEvaluation:
    """One operator value with its accuracy accounting.

    path is "closed_form" when an exact formula supplied the value (the error
    estimate then covers the sphere moment's quadrature and the power-kernel
    constant's rounding) and "numeric" for the full polar-decomposition
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


def _check_match(a: SpectralDensity, s: float, f: CatalogFunction) -> None:
    if not (0.0 < s < 1.0):
        raise InputDomainError("order must lie in (0, 1)")
    if f.dim != a.dim:
        raise InputDomainError("density and function dimensions differ")
    if abs(f.s - s) > 1e-12:
        raise InputDomainError("function was built for a different order")


def _sphere_hints(kinks: _KinkSet, x: np.ndarray):
    """Splitting hints for the sphere rule: normals of kink planes, directions
    toward sphere-kink centers, and directions toward point singularities."""
    def toward(pts):
        v = pts - x[None, :]
        n = np.linalg.norm(v, axis=1)
        return list(v[n > 1e-12] / n[n > 1e-12, None])
    return list(kinks.normals), toward(kinks.centers), toward(kinks.points)


def _run_polar(a: SpectralDensity, s: float, kinks: _KinkSet, x: np.ndarray,
               cfg: QuadratureConfig, numer, taylor, tail, *, strict: bool,
               what: str) -> OperatorEvaluation:
    """The sphere rule over _radial_batch's integrals of (numer, taylor,
    tail) at x.  Each direction is held to cfg's absolute target over
    3 max(sup a |S^{N-1}|, 1e-3) and its relative target over 3; strict
    raises AccuracyError, naming what, if the sphere rule does not converge."""
    normals, graded, strong = _sphere_hints(kinks, x)
    lam_bound = max(a.upper_bound * sphere_surface_area(a.dim), 1e-3)
    node_cfg = cfg.with_tol(cfg.abs_tol / (3.0 * lam_bound), cfg.rel_tol / 3.0)

    def node_eval(thetas: np.ndarray):
        vals, errs, nev, _ok = _radial_batch(
            x=x, thetas=thetas, s=s, cfg=node_cfg, kinks=kinks,
            numer=numer, taylor=taylor, tail=tail)
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

    Uses the closed form where one exists (see _closed_rows); otherwise
    integrates the polar decomposition.  force_numeric skips the closed
    form, strict=False returns unconverged results instead of raising.
    """
    _check_match(a, s, f)
    x = _point(x, f.dim)

    if not force_numeric:
        (core,), _, (scale,) = _family(f)
        hit, v, e, nev = _closed_rows(a, s, core, x[None, :], cfg)
        if hit[0]:
            return OperatorEvaluation(float(scale * v[0]), float(abs(scale) * e[0]),
                                      "closed_form", tuple(float(c) for c in x), nev)

    kinks = _KinkSet.of(f)
    _refuse_near(kinks, x, _REFUSE_FACTOR * _local_scale(x))
    return _run_polar(a, s, kinks, x, cfg, *_second_difference(f, x),
                      strict=strict, what="operator evaluation")


def _weighted_difference_constant(a: SpectralDensity, s: float, alpha: float,
                                  cfg: QuadratureConfig):
    """C_alpha for the given density: the one-dimensional second-difference
    constant (closed form, see c_alpha) times the weighted sphere moment.
    The error is the moment's quadrature error carried through the product
    plus the constant's rounding bound; the evaluations are the moment's."""
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

    # l vanishes when either factor is constant; a zero multiple is Zero
    if any(isinstance(_family(u)[0][0], (Zero, Constant)) for u in (g, h)):
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

    taylor = None
    if not boundary:
        dg = g.gradient(x)
        dh = h.gradient(x)

        def taylor(thetas: np.ndarray):
            # quadratic coefficients, and the cancelled g(x +- t theta), g0
            # (h likewise), each pair times the other factor's difference
            pg, ph = thetas @ dg, thetas @ dh
            return (2.0 * pg * ph, (np.zeros(thetas.shape[0]),
                                    4.0 * (abs(g0) * np.abs(ph) + abs(h0) * np.abs(pg))))

    g_comp = g.support_ball is not None
    h_comp = h.support_ball is not None
    # beyond the last split the numerator is the constant 2 g0 h0 when both
    # factors are compact, and 0 when a compact factor vanishes at x
    if (g_comp and h_comp) or (g_comp and g0 == 0.0) or (h_comp and h0 == 0.0):
        tail = 2.0 * g0 * h0
    else:
        dg_growth = 2.0 * s if g_comp else g.growth.delta
        dh_growth = 2.0 * s if h_comp else h.growth.delta
        if not (dg_growth + dh_growth > 2.0 * s):
            raise InputDomainError(
                "factors grow too fast for the correction to converge")
        tail = None

    return _run_polar(a, s, kinks, x, cfg, numer, taylor, tail, strict=strict,
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


# radial and angular panels of the convolution form's polar source grids,
# fine then coarse, each with a 4-point Gauss rule per axis
_CONV_PANELS = ((10, 24), (6, 14))


def _conv_source(v: CatalogFunction, fine: bool):
    """Fixed polar quadrature of v over its support, for the convolution form
    of Lv at points outside the support: nodes z and weights w*v(z)."""
    ball = v.support_ball
    c = np.asarray(ball.center, dtype=float)
    r = float(ball.radius)
    nr, na = _CONV_PANELS[0 if fine else 1]
    RA, W = _tensor_nodes([np.linspace(0.0, r, nr + 1),
                           np.linspace(0.0, 2.0 * math.pi, na + 1)], 4)
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
    outside supp v, where only the mass of v arrives.  A constant density
    needs no directions: its kernel is a.value r^{-N-2s}.  Any other density
    reads the raw offsets z_j - x and their r^2 (a._eval_offsets), so a cone
    plateau costs one projection and a compare, not a unit vector per pair.
    Each row is summed on its own, so a point's value does not depend on the
    rest of X.

    wv may hold k weight rows, (k, m), for k sources on the same nodes: the
    kernel of each chunk is built once and each row is summed against it,
    giving (k, n).  A row's sums are those of a call with that row alone.
    """
    dim = X.shape[1]
    rows = wv.reshape(-1, wv.shape[-1])
    out = np.empty((rows.shape[0], X.shape[0]))
    # coordinates lead, (dim, points, nodes): the elementwise work then runs
    # along the long axes, not along dim.  The squares are summed coordinate
    # by coordinate, as numpy sums fewer than eight terms
    zt = np.ascontiguousarray(z.T)
    xt = np.ascontiguousarray(X.T)
    step = max(1, 131_072 // max(z.shape[0], 1))
    for i in range(0, X.shape[0], step):
        d = zt[:, None, :] - xt[:, i:i + step, None]
        r2 = _sum_squares(d)
        kern = r2 ** (-0.5 * dim - s)
        if not a.is_constant:
            kern *= a._eval_offsets(d, r2)
        # a row sum, not einsum (which sums a one-row block in another
        # order) and not a threaded BLAS call (which is not bit-reproducible
        # when other processes hold the cores)
        for j, w in enumerate(rows):
            out[j, i:i + step] = (kern * w).sum(axis=1)
    out = out.reshape(wv.shape[:-1] + X.shape[:1])
    return 2.0 * (a.value if a.is_constant else 1.0) * out


def _mass_pair(a: SpectralDensity, s: float, sources, X: np.ndarray):
    """The mass sum _conv_L at the rows of X from a (fine, coarse) pair of
    quadratures (z, wv) of one source: the fine values, their gap to the
    coarse ones as the error, and the node-point pairs summed."""
    (zf, wf), (zc, wc) = sources
    vf = _conv_L(a, s, zf, wf, X)
    vc = _conv_L(a, s, zc, wc, X)
    return vf, np.abs(vf - vc), X.shape[0] * (zf.shape[0] + zc.shape[0])


# the far-field expansion of the convolution form: its order, and the
# largest ratio rho = r / |x - c| of source radius to row distance it takes.
# At rho = 1/2 the remainder bound is 3e-11 to 1e-9 of a row's value on the
# bumps of the acceptance suite and the benchmark, where the fine-coarse gap
# is 1e-6 to 1e-4 of it; order 24 would add up to 2.5% to an estimate
_FAR_ORDER = 32
_FAR_RHO = 0.5


def _far_sum(a: SpectralDensity, s: float, z: np.ndarray, wv: np.ndarray,
             c: np.ndarray, r: float, X: np.ndarray, order: int):
    """The mass sum _conv_L of one quadrature (z, wv) of a source inside the
    disc |z - c| <= r, at rows x of X in N = 2 with r <= |x - c| / 2 whose
    window (the directions of the disc seen from x) holds no jump of a, from
    the far-field expansion of the kernel.  Returns the values, a bound on
    each row's truncation remainder, and the number of moment terms.

    With w = x - c and zeta = z - c as complex numbers and lam = 1 + s,

        |x - z|^(-2 lam) = |w|^(-2 lam) sum_{k,l} a_k a_l (zeta/w)^k conj(zeta/w)^l,

    a_k = (lam)_k / k!, the binomial series of (1 - t)^(-lam) (the N = 2
    form of the Gegenbauer generating function, DLMF 18.12.4, on which the
    fast multipole method rests: Greengard and Rokhlin, J. Comput. Phys. 73,
    1987).  The source enters through its moments M_kl = sum_j wv_j
    eta_j^k conj(eta_j)^l, eta = zeta / r, for k + l <= order, and a row
    through u = r / w, so that no power exceeds 1 in modulus.  Since
    M_lk = conj(M_kl) the sum is taken over k >= l, as sum_l |u|^(2l)
    D_l(u), each polynomial by Horner's rule: one fixed order of complex
    multiply-adds per row, which no other row changes.  The window holds no
    jump, so a is a(c - x) over the whole source.

    The degree-n coefficients add up to (2 lam)_n / n!, so the remainder is
    at most sum_j |wv_j| |eta_j|^(order+1) times sum_{n > order} (2 lam)_n /
    n! rho^n, rho = |u| (|eta_j| <= 1); the first omitted term over
    1 - rho (2 lam + order + 1) / (order + 2) bounds that sum.  Beyond the
    moments the work holds a few arrays of one entry per row, no larger
    than X, so the rows are not chunked."""
    lam = 1.0 + s
    coef = np.ones(order + 1)
    for k in range(1, order + 1):
        coef[k] = coef[k - 1] * (lam + k - 1.0) / k
    eta = ((z[:, 0] - c[0]) + 1j * (z[:, 1] - c[1])) / r
    powers = np.empty((order + 1, eta.size), dtype=complex)
    powers[0] = 1.0
    for m in range(1, order + 1):
        powers[m] = powers[m - 1] * eta
    # C[l][m] = a_{l+m} a_l M_{l+m,l}, doubled for m >= 1 (the conjugate
    # pair), with M_{l+m,l} = sum_j wv_j |eta_j|^(2l) eta_j^m summed along
    # the node axis
    ring = (eta * eta.conj()).real
    g = wv
    C = []
    for l in range(order // 2 + 1):
        top = order - 2 * l
        cl = coef[l] * coef[l:l + top + 1] * (g * powers[:top + 1]).sum(axis=1)
        cl[1:] *= 2.0
        C.append(cl)
        g = g * ring
    terms = sum(cl.size for cl in C)

    wr = X - c[None, :]
    w2 = wr[:, 0] * wr[:, 0] + wr[:, 1] * wr[:, 1]
    u = r / (wr[:, 0] + 1j * wr[:, 1])
    q = r * r / w2
    acc = np.zeros(X.shape[0], dtype=complex)
    for cl in reversed(C):
        d = np.full(X.shape[0], cl[-1])
        for cm in cl[-2::-1]:
            d *= u
            d += cm
        acc *= q
        acc += d
    if a.is_constant:
        arow = a.value
    else:
        back = np.ascontiguousarray(-wr.T)
        arow = a._eval_offsets(back, w2)
    scale = 2.0 * arow * w2 ** -lam
    n = order + 1
    first = 1.0
    for k in range(1, n + 1):
        first *= (2.0 * lam + k - 1.0) / k
    rho = np.sqrt(q)
    mass = np.sum(np.abs(wv) * np.abs(eta) ** n)
    tail = mass * first * rho ** n / (1.0 - rho * (2.0 * lam + n) / (n + 1.0))
    return scale * acc.real, np.abs(scale) * tail, terms


def _far_pair(a: SpectralDensity, s: float, sources, c: np.ndarray, r: float,
              X: np.ndarray, order: int):
    """The far-field expansion _far_sum of a (fine, coarse) pair of
    quadratures of one source: the fine values, their gap to the coarse
    ones plus both remainder bounds as the error, and the terms summed,
    node by term for the moments and row by term for the rows."""
    (zf, wf), (zc, wc) = sources
    vf, tf, kf = _far_sum(a, s, zf, wf, c, r, X, order)
    vc, tc, kc = _far_sum(a, s, zc, wc, c, r, X, order)
    return (vf, np.abs(vf - vc) + tf + tc,
            kf * (zf.shape[0] + X.shape[0]) + kc * (zc.shape[0] + X.shape[0]))


def _cut_cell_bound(a: SpectralDensity, s: float, z: np.ndarray,
                    wv: np.ndarray, lines: np.ndarray, h: float,
                    X: np.ndarray) -> np.ndarray:
    """A bound on what the polar source grid (z, wv) misses at each row x
    of X when the density's jump lines through x cut its cells: 2 J
    sum_j |wv_j| |z_j - x|^(-N-2s) over the nodes within h, a cell
    diameter, of such a line, with J the jump (|inside - outside| for a
    plateau, else a.upper_bound), that is, the jump times the mass of the
    cells the line may cut.  Both grids misplace the step, by amounts whose
    gap can be small by chance, so that gap alone is no bound here."""
    out = np.empty(X.shape[0])
    zt = np.ascontiguousarray(z.T)
    xt = np.ascontiguousarray(X.T)
    awv = np.abs(wv)
    step = max(1, 131_072 // max(z.shape[0], 1))
    for i in range(0, X.shape[0], step):
        d = zt[:, None, :] - xt[:, i:i + step, None]
        cut = np.zeros(d.shape[1:], dtype=bool)
        for th in lines:
            cut |= np.abs(d[0] * th[1] - d[1] * th[0]) <= h
        kern = np.where(cut, _sum_squares(d) ** (-1.0 - s), 0.0)
        out[i:i + step] = (kern * awv).sum(axis=1)
    jump = (abs(a.inside - a.outside) if isinstance(a, ConePlateauDensity)
            else a.upper_bound)
    return 2.0 * jump * out


def _conv_form(a: SpectralDensity, s: float, f: CatalogFunction,
               X: np.ndarray):
    """Route 4 of _L_field: L of a compact f in N = 2 at rows of X outside
    its support, from f's fine and coarse polar source grids (_conv_source)
    in the disc of centre c and radius r.

    A row with rho = r / |x - c| <= _FAR_RHO takes the far-field expansion
    (_far_pair) when a is constant, or a cone plateau whose jump lines
    through x miss the disc, that is, whose jump directions lie outside the
    window within asin(rho) of c - x.  Every other row, and every row of a
    custom density, takes the direct sum _mass_pair.  A row whose jump line
    meets the disc, for any density that declares jumps, adds
    _cut_cell_bound over the fine grid to its error."""
    ball = f.support_ball
    c = np.asarray(ball.center, dtype=float)
    r = float(ball.radius)
    sources = (_conv_source(f, True), _conv_source(f, False))
    wr = X - c[None, :]
    # the jump directions, each line through x twice
    ang = np.asarray(_jump_angles_2d(a))
    lines = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    crossing = np.zeros(X.shape[0], dtype=bool)
    for th in lines:
        crossing |= np.abs(wr[:, 0] * th[1] - wr[:, 1] * th[0]) <= r
    far = ((a.is_constant or isinstance(a, ConePlateauDensity)) & ~crossing
           & (r <= _FAR_RHO * np.sqrt(wr[:, 0] ** 2 + wr[:, 1] ** 2)))
    vals, errs = np.empty(X.shape[0]), np.empty(X.shape[0])
    nev = 0
    if np.any(far):
        vals[far], errs[far], nev = _far_pair(a, s, sources, c, r, X[far],
                                              _FAR_ORDER)
    if not np.all(far):
        vals[~far], errs[~far], k = _mass_pair(a, s, sources, X[~far])
        nev += k
    if np.any(crossing):
        # a node's cell is its Gauss weight's share of its panel in each
        # coordinate; the widest cell of the fine grid sets the strip
        nr, na = _CONV_PANELS[0]
        h = r * math.hypot(1.0 / nr, 2.0 * math.pi / na) * _gauss01(4)[1].max()
        errs[crossing] += _cut_cell_bound(a, s, *sources[0], lines, h,
                                          X[crossing])
        nev += int(np.count_nonzero(crossing)) * sources[0][0].shape[0]
    return vals, errs, nev


def _kelvin_closed_batch(a: SpectralDensity, s: float, alpha: float,
                         X: np.ndarray, cfg: QuadratureConfig, q: float = 0.0):
    """C_alpha x_N^(alpha - 2s) |x|^(-q) at upper points, vectorized: L of
    the half-space power (q = 0, any density) and of the decaying half-space
    power (q its radial exponent, constant densities only)."""
    C, C_err, nev = _weighted_difference_constant(a, s, alpha, cfg)
    geom = X[:, -1] ** (alpha - 2.0 * s) / np.linalg.norm(X, axis=1) ** q
    return C * geom, np.abs(geom) * C_err, nev


def _closed_rows(a: SpectralDensity, s: float, f: CatalogFunction,
                 X: np.ndarray, cfg: QuadratureConfig):
    """The rows of X where Lf has an exact closed form, for f no scalar
    multiple, with their values, errors and evaluations: every row of a
    constant, the upper rows of a half-space power and, for a constant
    density, of the decaying half-space power."""
    n = X.shape[0]
    if isinstance(f, (Zero, Constant)):
        return np.ones(n, dtype=bool), np.zeros(n), np.zeros(n), 0
    q = None
    if isinstance(f, HalfSpacePower):
        q = 0.0
    elif isinstance(f, KelvinHalfSpacePower) and a.is_constant:
        q = f.radial_exponent
    hit = (X[:, -1] > 0.0) & (q is not None)
    if not np.any(hit):
        return hit, np.empty(0), np.empty(0), 0
    return (hit, *_kelvin_closed_batch(a, s, f.alpha, X[hit], cfg, q))


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


def _tt_kelvin_L(a: SpectralDensity, s: float, k: KelvinHalfSpacePower,
                 cfg: QuadratureConfig, X: np.ndarray):
    """L of the translate-truncated decaying power at upper points: the
    shifted closed form minus the convolution against the slab that the
    truncation removed (X fifth: bench/tracing.py counts its rows there)."""
    shift = np.zeros(X.shape[1])
    shift[-1] = 1.0
    Xs = X + shift[None, :]
    base, base_err, nev = _kelvin_closed_batch(a, s, k.alpha, Xs, cfg,
                                               k.radial_exponent)
    slab, slab_err, n_slab = _mass_pair(
        a, s, (_slab_source(k, True), _slab_source(k, False)), Xs)
    q = k.dim - 2.0 * k.s + 2.0 * k.alpha
    tail = (4.0 * a.upper_bound * 2.0 ** (k.dim + 2.0 * s)
            / (k.alpha + 1.0)) * _SLAB_SPAN ** (-(q + 2.0 * s)) / (q + 2.0 * s)
    return base - slab, base_err + slab_err + tail, nev + n_slab


def _mass_only_L(a: SpectralDensity, s: float, u: CatalogFunction,
                 X: np.ndarray):
    """Lu at points strictly below a vanishing half-space: only the mass of u
    reaches them, so Lu(x) = 2 integral of u(z) K(z - x) over the support,
    evaluated on a graded grid at two resolutions, with an edge at each
    kink sphere's extent along each axis and the analytic far tail bounded
    from the decay metadata.  A compact u's grid covers its support; else a
    row's grid spans max(600, 2 radius, the power of two at or above 2|x|),
    so the tail bound holds at x, and rows of one span share a grid: a row's
    value does not depend on the rest of its batch."""
    ff = u.far_field
    N = X.shape[1]
    if ff.coef == 0.0:
        spans = np.full(X.shape[0], max(ff.radius * 1.05, 1.0))
    else:
        spans = np.maximum(max(600.0, 2.0 * ff.radius), np.exp2(np.ceil(
            np.log2(2.0 * np.linalg.norm(X, axis=1)))))

    kinks = _KinkSet.of(u)
    r = kinks.radii[:, None]
    ext = np.concatenate((kinks.centers - r, kinks.centers + r))

    def source(span, ratio, g):
        ze = _geom_edges(1e-6, span, ratio, 6)
        edges = [_merge_edges([-ze, [0.0], ze, ext[:, i]], -span, span)
                 for i in range(N - 1)]
        edges.append(_merge_edges([ze, ext[:, -1]], 1e-6, span))
        Z, W = _tensor_nodes(edges, g)
        uv = u.values(Z)
        keep = uv != 0.0
        return Z[keep], W[keep] * uv[keep]

    vals, errs = np.empty(X.shape[0]), np.empty(X.shape[0])
    nev = 0
    for span in np.unique(spans):
        rows = spans == span
        vals[rows], errs[rows], n2 = _mass_pair(
            a, s, (source(span, 1.35, 3), source(span, 1.8, 2)), X[rows])
        errs[rows] += (2.0 * a.upper_bound * ff.coef * sphere_surface_area(N)
                       * 2.0 ** (N + 2.0 * s)
                       * span ** (-(ff.rate + 2.0 * s)) / (ff.rate + 2.0 * s))
        nev += n2
    return vals, errs, nev


def _density_angular_moments(a: SpectralDensity):
    """Second moment matrix Q of the density on the circle, by the sphere
    rule at the default tolerances."""
    Q = np.empty((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        Q[i, j] = Q[j, i] = sphere_quadrature(
            a, lambda th, i=i, j=j: th[:, i] * th[:, j], DEFAULT_CONFIG).value
    return Q


def _family(f: CatalogFunction | tuple):
    """f in the one form the route kernels take: a tuple of unscaled members
    (a zero multiple becomes Zero), their common factor g, and each member's
    scale, (k,).  A catalog function is one member with g None.  No other
    code reads a ScalarMultiple or tells a function from a family.

    Each member of a family (a tuple) is a product x_N^alpha_j g of a
    half-space power and g, in that order, optionally scaled by a nonzero
    factor; members that do not share g raise InputDomainError.  A zero
    member is refused: its L is the closed form 0, which no family route
    takes."""
    family = isinstance(f, tuple)
    members, scales = [], []
    for m in f if family else (f,):
        scale = 1.0
        while isinstance(m, ScalarMultiple):
            scale *= m.epsilon
            m = m.f
        members.append(m if scale else Zero(m.dim, m.s))
        scales.append(scale)
    if not family:
        return tuple(members), None, np.array(scales)
    if not all(isinstance(m, Product) and isinstance(m.f, HalfSpacePower)
               for m in members):
        raise InputDomainError(
            "a family member is a nonzero multiple of a half-space power "
            "times a common factor")
    if not members or any(m.g != members[0].g for m in members):
        raise InputDomainError("the members of a family must share one factor")
    return tuple(members), members[0].g, np.array(scales)


# the excision form (route 5): the Hessian ball's largest radius, and that
# radius over x_N; the ratio of a chord's geometric panels, the fewest
# panels between kink spheres, and the halvings toward a chord's end on the
# plane; the order n of the nested pair G_n / K_2n+1 on every panel, the
# angular panels per half turn and the ratio of the angular grading toward
# the plane; the most nodes of one chunk of rows
_BALL, _BALL_PLANE = 0.003, 0.02
_RAY_RATIO, _SHELL_PANELS, _PLANE_LEVELS = 2.0, 3, 6
_EXC_ORDER, _ANGLE_PANELS, _GRADE_RATIO = 3, 4, 4.0
_CHUNK_NODES = 200_000


def _row_angles(lo, hi, circle, cuts):
    """Every row's angles, flattened in row order, their Kronrod and Gauss
    weights and the count per row: the pair _kronrod01(_EXC_ORDER) on the
    panels of [lo, hi] that a uniform grid of at most pi / _ANGLE_PANELS and
    the row's cuts (nan for none) mark out, panels narrower than 1e-10
    (1 + |e|) left out.  A circle row's arc is [0, pi), followed by its
    nodes turned by pi: every node's antipode is a node of the same weights."""
    nb = np.maximum(2.0 - circle, np.ceil(_ANGLE_PANELS * (hi - lo) / math.pi))
    k = np.arange(int(nb.max()) + 1)
    edges = lo[:, None] + (hi - lo)[:, None] * np.minimum(k / nb[:, None], 1.0)
    edges = np.sort(np.clip(np.concatenate(
        (edges, np.where(np.isnan(cuts), lo[:, None], cuts)), axis=1),
        lo[:, None], hi[:, None]), axis=1)
    wid = np.diff(edges, axis=1)
    xk, wk, wg = _kronrod01(_EXC_ORDER)
    ang = edges[:, :-1, None] + wid[..., None] * xk
    ang = np.stack((ang, ang + math.pi), axis=1)
    mask = np.broadcast_to((wid > 1e-10 * (1.0 + np.abs(edges[:, 1:])))[
        :, None, :, None], ang.shape).copy()
    mask[:, 1] &= circle[:, None, None]
    wid = np.broadcast_to(wid[:, None, :, None], ang.shape)
    return (ang[mask], (wid * wk)[mask], (wid * wg)[mask],
            mask.sum(axis=(1, 2, 3)))


def _ray_segments(x, th, inner, delta, kinks, c, r, clip):
    """The chord of each ray x + t theta (one per row of x and th) through
    the disc |z - c| < r, cut at the boundary plane when clip, from
    max(t_in, delta) to hi (hi = lo for no chord), and its segments between
    the kink spheres' crossings.  Returns hi and the segments' (lo, hi,
    panel count, starts a ball row's chord, ends on the plane), (rays, m).
    A ball row's first segment takes panels lo rho^k (rho = _RAY_RATIO, the
    last one's ratio within rho^0.3 .. rho^1.3), so that rho delta is an
    edge; any other the fewest, at least _SHELL_PANELS, in geometric
    progression of ratio at most rho."""
    def crossings(cs, rs):
        d = x - cs[None, :]
        b = d[:, 0] * th[:, 0] + d[:, 1] * th[:, 1]
        disc = b * b - (d[:, 0] ** 2 + d[:, 1] ** 2 - rs * rs)
        root = np.sqrt(np.maximum(disc, 0.0))
        return disc > 0.0, -b - root, -b + root

    hit, t_in, hi = crossings(c, r)
    lo = np.maximum(t_in, delta)
    end = np.zeros(hi.shape, dtype=bool)
    if clip:
        down = th[:, 1] < 0.0
        tstar = np.full(hi.shape, np.inf)
        tstar[down] = x[down, 1] / -th[down, 1]
        end = tstar < hi
        hi = np.minimum(hi, tstar)
    hit &= hi > lo
    hi = np.where(hit, hi, lo)
    cuts = [lo]
    for cs, rs in zip(kinks.centers, kinks.radii):
        cross, t1, t2 = crossings(cs, rs)
        cuts += [np.where(cross, t1, lo), np.where(cross, t2, lo)]
    bp = np.sort(np.clip(np.stack(cuts + [hi], axis=-1), lo[:, None],
                         hi[:, None]), axis=-1)
    b0, b1 = bp[:, :-1], bp[:, 1:]
    first = inner[:, None] & (b0 == lo[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.log(b1 / b0) / math.log(_RAY_RATIO)
        n = np.where(first, np.maximum(1.0, np.ceil(q - 0.3)),
                     np.maximum(float(_SHELL_PANELS), np.ceil(q)))
    n = np.where(b1 > b0 * (1.0 + 1e-12), n, 0.0).astype(np.int64)
    return hi, (b0, b1, n, first, (n > 0) & (b1 == hi[:, None]) & end[:, None])


def _segment_panels(b0, b1, n, first, graded):
    """The segments' panels in ray order, a graded segment's last panel
    [e, hi] split at hi - (hi - e) 2^-j, j = 1 .. _PLANE_LEVELS: their (lo,
    hi), ray, whether each is a ball row's first panel, and the panels per
    ray."""
    total = n + _PLANE_LEVELS * graded
    nt = total.ravel()
    unit = np.repeat(np.arange(nt.size), nt)
    k = np.arange(unit.size) - np.repeat(np.cumsum(nt) - nt, nt)
    u0, u1, un = b0.ravel()[unit], b1.ravel()[unit], n.ravel()[unit]
    anc = first.ravel()[unit]
    geo = np.minimum(k, un - 1)

    def edge(e):
        return np.where(anc, u0 * _RAY_RATIO ** e, u0 * (u1 / u0) ** (e / un))

    plo = edge(geo)
    phi = np.where(geo + 1 < un, edge(geo + 1), u1)
    j = k - geo
    gr = graded.ravel()[unit] & (geo == un - 1)
    w = u1 - plo
    plo = np.where(gr, u1 - w * 0.5 ** j, plo)
    phi = np.where(gr, np.where(j < _PLANE_LEVELS, u1 - w * 0.5 ** (j + 1), u1),
                   phi)
    return plo, phi, unit // b0.shape[-1], anc & (geo == 0), total.sum(axis=-1)


def _excised_L_compact(a: SpectralDensity, s: float, members: tuple,
                       X: np.ndarray, g: CatalogFunction | None):
    """L of each compact member at points of N = 2 where it is twice
    differentiable, on rays about x clipped to the support.

    A row within delta of the support ball B(c, r) takes the ball |y| <
    delta from the Hessian quadratic in closed form, delta = min(_BALL,
    _BALL_PLANE x_N) for a member that vanishes below the plane (else
    _BALL), and rays over the whole circle.  The ball leaves out the
    quartic term, for the power (x_N)^alpha |binom(alpha, 4)| m_4
    _BALL_PLANE^(4 - 2s) x_N^(alpha - 2s) / (2 - s), m_4 the density's
    fourth moment of theta_N: 1.1e-5 at alpha = s = 1/2, x_N = 2e-3 and the
    constant density, where L of the power is 0, below step_one_M's
    absolute target 2e-5.  A row farther out takes no ball (f vanishes
    about it), and only the arc of directions that meets the support.

    Each ray gets nodes only on its chord through the support cut at the
    plane (_ray_segments, _segment_panels): geometric from its start, split
    at the kink spheres' crossings, and halved toward an end on the plane,
    where f ~ (t* - t)^alpha.  Beyond it f = 0, and a ball row's ray adds
    -f(x) hi^(-2s) / (2s), hi its end (delta without a chord).  The error
    is |K - G| of the nested pair on the radial panels, the Gauss side also
    taking the ball of radius rho delta (its truncation grows by rho^(4 -
    2s)), plus |K - G| on the angular panels: every node serves both rules.

    members and g are _family's unscaled members and their common factor
    (a one-member tuple and None for a single function).  Each chunk of
    whole rows, at most _CHUNK_NODES nodes unless one row exceeds it,
    evaluates g once and each power once, and sums each row on its own in
    a fixed order: values and errors are (k, n), each row what that member
    alone gives in any batch, and the evaluations are the members' summed.
    X stays fourth: bench/tracing.py counts this layer's rows there."""
    lead = members[0]
    c = np.asarray(lead.support_ball.center, dtype=float)
    r = float(lead.support_ball.radius)
    kinks = _KinkSet.of(lead)
    clip = lead.vanishes_lower_halfspace
    ts2 = 2.0 * s
    n = X.shape[0]
    delta = np.minimum(_BALL, _BALL_PLANE * X[:, 1]) if clip else np.full(n, _BALL)
    d = X - c[None, :]
    dist = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    inner = dist < r + delta
    delta = np.where(inner, delta, 0.0)
    f0 = np.stack([m.values(X) for m in members])
    Q = _density_angular_moments(a)
    hq = np.zeros(f0.shape)
    for i in np.nonzero(inner)[0]:
        # _hess, not hessian, whose kink check would refuse a point on a
        # kink sphere: the only ones are Bump's C-infinity scale markers
        hq[:, i] = [np.sum(m._hess(X[i]) * Q) for m in members]
    rd = _RAY_RATIO * delta
    near = hq * delta ** (2.0 - ts2) / (2.0 - ts2)
    near_c = hq * rd ** (2.0 - ts2) / (2.0 - ts2)

    # angular panels end at the density's jumps, at the directions tangent
    # to each kink sphere that x lies outside (where rays start crossing
    # the bump's shell) and, when cut at the plane, at k pi +- x_N
    # _GRADE_RATIO^j below one base panel: about the horizontal the chords
    # end on the plane and change on the angular scale x_N / t
    phi_c = np.arctan2(-d[:, 1], -d[:, 0])
    beta = np.arcsin(r / np.maximum(dist, r))
    turns = math.pi * np.arange(-2.0, 3.0)
    jumps = np.asarray(_jump_angles_2d(a), dtype=float)
    cuts = [np.broadcast_to(np.add.outer(2.0 * turns, jumps).ravel(),
                            (n, turns.size * jumps.size))]
    for ck, rk in zip(kinks.centers, kinks.radii):
        dk = ck[None, :] - X
        lk = np.sqrt(dk[:, 0] ** 2 + dk[:, 1] ** 2)
        bk = np.where(lk > rk, np.arcsin(rk / np.maximum(lk, rk)), np.nan)
        for side in (-1.0, 1.0):
            tk = np.arctan2(dk[:, 1], dk[:, 0]) + side * bk
            cuts.append(np.where(inner, tk % math.pi, phi_c - math.pi + (
                tk - phi_c + math.pi) % (2.0 * math.pi))[:, None])
    if clip:
        top = math.pi / _ANGLE_PANELS
        grade = np.minimum(X[:, 1], top)
        steps = grade[:, None] * _GRADE_RATIO ** np.arange(int(np.ceil(
            np.log(top / grade.min()) / math.log(_GRADE_RATIO))))
        steps = np.where(steps < top, steps, np.nan)
        cuts.append((turns[None, :, None] + np.concatenate(
            (-steps, steps), axis=1)[:, None, :]).reshape(n, -1))
    arc_lo = np.where(inner, 0.0, phi_c - beta)
    arc_hi = np.where(inner, math.pi, phi_c + beta)
    cuts = np.concatenate(cuts, axis=1)
    ang, wK, wG, n_ang = (np.concatenate(part) for part in zip(*(
        _row_angles(arc_lo[i:i + 256], arc_hi[i:i + 256], inner[i:i + 256],
                    cuts[i:i + 256]) for i in range(0, n, 256))))
    first_ang = np.cumsum(n_ang) - n_ang
    xk, wk, wg = _kronrod01(_EXC_ORDER)

    def rays(i0, i1):
        # the rays of rows i0 .. i1 - 1: their rows, angles and segments
        pick = slice(first_ang[i0], first_ang[i1 - 1] + n_ang[i1 - 1])
        row = np.repeat(np.arange(i0, i1), n_ang[i0:i1])
        th = np.stack([np.cos(ang[pick]), np.sin(ang[pick])], axis=1)
        return row, pick, th, _ray_segments(X[row], th, inner[row],
                                            delta[row], kinks, c, r, clip)

    counts = np.zeros(n, dtype=np.int64)
    for i in range(0, n, 256):
        row, _, _, (_, (_, _, k, _, graded)) = rays(i, min(i + 256, n))
        np.add.at(counts, row, (k + _PLANE_LEVELS * graded).sum(axis=1))
    cum = np.cumsum(counts * xk.size)
    vals, errs = np.empty(f0.shape), np.empty(f0.shape)
    nev, i0 = 0, 0
    while i0 < n:
        i1 = max(i0 + 1, int(np.searchsorted(
            cum, (cum[i0 - 1] if i0 else 0) + _CHUNK_NODES, "right")))
        rows = slice(i0, i1)
        row, pick, th, (hi, seg) = rays(i0, i1)
        plo, phi, ray, first, npan = _segment_panels(*seg)
        dens = a._eval_unit(th)
        wKd, wGd = 2.0 * dens * wK[pick], 2.0 * dens * wG[pick]
        # (rule node, panel) order, so that each panel sums its rule in a
        # fixed order; the points lead with their coordinates, as in _conv_L
        wid = phi - plo
        t = plo[None, :] + xk[:, None] * wid[None, :]
        kern = wid * t ** (-1.0 - ts2)
        rr = row[ray]
        P = np.empty((2,) + t.shape)
        P[0] = X[rr, 0] + t * th[ray, 0]
        P[1] = X[rr, 1] + t * th[ray, 1]
        P = P.reshape(2, -1).T
        gv = None if g is None else g.values(P)
        full = npan > 0
        starts = (np.cumsum(npan) - npan)[full]
        row_starts = np.cumsum(n_ang[rows]) - n_ang[rows]
        for j, m in enumerate(members):
            fv = m.values(P) if g is None else m.f.values(P) * gv
            y = (fv.reshape(t.shape) - f0[j, rr]) * kern
            pk = wk[0] * y[0]
            pg = np.zeros(pk.shape)
            for q in range(1, xk.size):
                pk += wk[q] * y[q]
                if wg[q]:
                    pg += wg[q] * y[q]
            # per ray, the radial Gauss side without a ball row's first panel
            RK, RG = np.zeros(npan.size), np.zeros(npan.size)
            if ray.size:
                RK[full] = np.add.reduceat(pk, starts)
                RG[full] = np.add.reduceat(np.where(first, 0.0, pg), starts)
            fr = f0[j, row]
            with np.errstate(divide="ignore", invalid="ignore"):
                RK += np.where(inner[row], -fr * hi ** -ts2 / ts2, 0.0)
                RG += np.where(inner[row], -fr * np.maximum(hi, rd[row])
                               ** -ts2 / ts2, 0.0)
            v = near[j, rows] + np.add.reduceat(RK * wKd, row_starts)
            v_ang = near[j, rows] + np.add.reduceat(RK * wGd, row_starts)
            v_rad = near_c[j, rows] + np.add.reduceat(RG * wKd, row_starts)
            vals[j, rows] = v
            errs[j, rows] = np.abs(v - v_ang) + np.abs(v - v_rad)
        nev += len(members) * P.shape[0]
        del P, gv
        i0 = i1
    return vals, errs, nev


def _L_field(a: SpectralDensity, s: float, f: CatalogFunction | tuple,
             X: np.ndarray, cfg: QuadratureConfig):
    """Lf at a batch of points, in any dimension, upper and lower mixed.

    Each point takes the first route that applies to it:
    1. the exact closed form (_closed_rows), as in apply_L;
    2. the slab-corrected closed form (_tt_kelvin_L): upper points of a
       translate-truncated decaying power, for a constant density;
    3. the mass-only form (_mass_only_L): points with x_N < 0 of an f that
       vanishes on the lower half-space and has far-field metadata, N <= 2;
    4. the convolution form (_conv_form, on f's two _conv_source grids):
       points of a compact f in N = 2 at least 0.35 support radii outside
       it, unless a kink plane of f meets the support (the polar source
       grid does not follow it, and its fine-coarse gap under-covers).
       Points with rho = r / |x - c| <= 1/2 take the far-field expansion
       (_far_pair) when a is constant, or a cone plateau none of whose jump
       directions lies within asin(rho) of c - x; the others the direct
       sum (_mass_pair), with a cut-cell bound added to the error of a
       point whose jump line (of any density) meets the support;
    5. the excision form (_excised_L_compact): every other point of a
       compact f in N = 2 with no singular point and no kink plane but the
       boundary plane of an f that vanishes below it, upper points only
       when it does (near the plane included);
    6. the polar evaluation, apply_L(..., strict=False), point by point:
       in N = 2 only points of a non-compact f, the lower points of one
       that no route above takes, and compact ones that route 5 refuses.
    A route's kernel runs only when some point takes it.  Returns (values,
    error estimates, evaluations).

    L is linear: the routes see a scalar multiple's unscaled function
    (_family), whose values and errors are scaled by eps and |eps| at the
    end; a zero multiple's is Zero.

    f may also be a family: a tuple of nonzero multiples of products
    x_N^alpha_j g that share the factor g (see _family).  The rows are then
    routed once, from what the members share: the support ball, the kink
    set, lower half-space vanishing and the far field.  The excision form
    builds its geometry once for all members; the mass-only, convolution
    and polar forms run member by member, since
    their sums share nothing without changing their order.  A family has no
    closed form or translate-truncation (routes 1, 2).  Values and errors
    are then (k, n), each row what its member alone gives, bit for bit, and
    the evaluations are the members' summed.

    Every route kernel sees _family's member tuple, one member for a single
    function; only here does a single function get (n,) arrays back."""
    members, g, scales = _family(f)
    lead = members[0]
    n = X.shape[0]
    vals = np.empty((len(members), n))
    errs = np.empty((len(members), n))
    done = np.zeros(n, dtype=bool)
    nev = 0

    def take(rows, v, e, k):
        nonlocal nev
        vals[:, rows], errs[:, rows] = v, e
        done[rows] = True
        nev += k

    def each(rows, kernel):
        out = [kernel(m, X[rows]) for m in members]
        take(rows, np.stack([o[0] for o in out]),
             np.stack([o[1] for o in out]), sum(o[2] for o in out))

    if g is None:
        take(*_closed_rows(a, s, lead, X, cfg))
        if (isinstance(lead, TranslateTruncate) and a.is_constant
                and isinstance(lead.f, KelvinHalfSpacePower)):
            rows = ~done & (X[:, -1] > 0.0)
            if np.any(rows):
                take(rows, *_tt_kelvin_L(a, s, lead.f, cfg, X[rows]))
    if (lead.vanishes_lower_halfspace and lead.far_field is not None
            and X.shape[1] <= 2):
        rows = ~done & (X[:, -1] < 0.0)
        if np.any(rows):
            each(rows, lambda m, Xr: _mass_only_L(a, s, m, Xr))
    ball = lead.support_ball
    if ball is not None and X.shape[1] == 2:
        c = np.asarray(ball.center, dtype=float)
        kinks = _KinkSet.of(lead)
        if np.all(kinks.distances(c)[:len(kinks.planes)] > ball.radius):
            dist = np.linalg.norm(X - c[None, :], axis=1) - ball.radius
            rows = ~done & (dist >= 0.35 * ball.radius)
            if np.any(rows):
                each(rows, lambda m, Xr: _conv_form(a, s, m, Xr))
        # route 5 follows each chord to the boundary plane, and no further
        # kink: another kink plane, or a singular point, leaves every row to
        # the polar route, as do the rows that apply_L refuses as too near
        # the plane
        clip = lead.vanishes_lower_halfspace
        if not len(kinks.points) and all(
                clip and k.offset == 0.0 and abs(k.normal[-1]) == 1.0
                for k in kinks.planes):
            rows = ~done
            if clip:
                rows &= X[:, -1] > _REFUSE_FACTOR * np.maximum(
                    1.0, np.linalg.norm(X, axis=1))
            if np.any(rows):
                take(rows, *_excised_L_compact(a, s, members, X[rows], g))
    for i in np.nonzero(~done)[0]:
        rs = [apply_L(a, s, m, X[i], cfg, strict=False) for m in members]
        take(i, [r.value for r in rs], [r.abs_error_estimate for r in rs],
             sum(r.n_evals for r in rs))
    vals *= scales[:, None]
    errs *= np.abs(scales)[:, None]
    if g is None:
        return vals[0], errs[0], nev
    return vals, errs, nev


def _integrate_weighted(a, s, weight: CatalogFunction, field: CatalogFunction,
                        edge_list, n_gauss: int, cfg):
    pts, wts = _tensor_nodes(edge_list, n_gauss)
    wvals = weight.values(pts)
    keep = wvals != 0.0
    pts, wts, wvals = pts[keep], wts[keep], wvals[keep]
    fvals, ferrs, nev = _L_field(a, s, field, pts, cfg)
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
            cfg: QuadratureConfig = DEFAULT_CONFIG) -> PairingResult:
    """Check int u Lv = int v Lu over the box [-W, W]^{N-1} x (0, W].

    v must be compactly supported (a half-space power times a cutoff, with
    exponent strictly between (2s-1)_+ and 2s when the kink plane meets its
    support); u must vanish on the closed lower half-space and have admissible
    growth.  The box must contain supp v and be wide enough that the exterior
    remainder, bounded through the growth metadata, is at most 1e-6.
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

    v_l1 = float(np.sum(np.abs(_conv_source(v, True)[1])))
    bound = _truncation_bound(a, u, v_l1, s, W)
    if not (bound <= 1e-6):
        raise TruncationError(
            f"box remainder bound {bound:.3e} exceeds 1e-6; enlarge the box")

    loose = cfg.with_tol(abs_tol=max(cfg.abs_tol, 2e-6),
                         rel_tol=max(cfg.rel_tol, 2e-5))

    # side 1: v times Lu over the support of v
    e_f = _support_edges(v, 6, 12)
    e_c = _support_edges(v, 4, 8)
    vu_f, vu_fe, n1 = _integrate_weighted(a, s, v, u, e_f, 4, loose)
    vu_c, _, n2 = _integrate_weighted(a, s, v, u, e_c, 3, loose)
    I_vLu = vu_f
    err_vLu = abs(vu_f - vu_c) + vu_fe
    if u is v:
        return PairingResult(I_vLu, I_vLu, 0.0, err_vLu + bound, n1 + n2, bound)

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
    uv_f, uv_fe, n3 = _integrate_weighted(a, s, u, v, ef, 4, loose)
    uv_c, _, n4 = _integrate_weighted(a, s, u, v, ec, 3, loose)
    I_uLv = uv_f
    err_uLv = abs(uv_f - uv_c) + uv_fe

    total_err = err_vLu + err_uLv + bound
    return PairingResult(I_uLv, I_vLu, abs(I_uLv - I_vLu), total_err,
                         n1 + n2 + n3 + n4, bound)
