"""Command-line front end for the experiment suite.

Every subcommand reads a flat ``key = value`` configuration assembled from
built-in defaults, an optional ``--config`` file, ``CONEFRAC_*`` environment
variables, and ``--section.key value`` flags, in that order of increasing
precedence.  Each run writes the CSV artifact for its subcommand plus a
``resolved.cfg`` echoing every effective value; rerunning from that file
reproduces the CSV byte for byte.  Exit codes: 0 success, 2 invalid
configuration, 3 a ``--expect`` assertion failed, 4 accuracy budget
exhausted.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import __version__
from .catalog import (Bump, Constant, HalfSpacePower, Product, Rescale,
                      ScalarMultiple, Zero, kelvin, translate_truncate)
from .errors import (AccuracyError, ConefracError, DegenerateDensityError,
                     ExpectationFailedError, SearchFailureError)
from .liouville import (certify, construct_supersolution,
                        default_certification_points, gamma_search,
                        liouville_scan, rescaled_inequality_experiment,
                        step_one_M)
from .operators import apply_L, correction_l, pairing
from .quadrature import QuadratureConfig, c_alpha, weighted_sphere_moment
from .spectral import Cone, ConePlateauDensity, ConstantDensity
from .svgplot import line_figure

__all__ = ["main"]

_REQUIRED = object()
_COMPUTED = object()

_QUAD = {
    "quad.abs_tol": "1e-08",
    "quad.rel_tol": "1e-07",
    "quad.max_subdiv": "10",
    "quad.mc_seed": "20220",
    "quad.mc_samples": "40000",
}
_OUT = {"output.directory": ".", "output.svg": "false"}
_DENSITY = {
    "density.kind": "constant",
    "density.value": "1.0",
    "density.axis": _COMPUTED,
    "density.tau": "0.3",
    "density.inside": "1.0",
    "density.outside": "0.25",
}


def _func_keys(prefix: str, kind: str) -> dict:
    return {
        prefix + "kind": kind,
        prefix + "alpha": _COMPUTED,
        prefix + "center": _COMPUTED,
        prefix + "r_in": "1.0",
        prefix + "r_out": "2.0",
        prefix + "epsilon": "1.0",
        prefix + "R": "1.0",
    }


_SCHEMAS = {
    "calpha": {"problem.s": _REQUIRED, "problem.alpha": _REQUIRED,
               **_QUAD, **_OUT},
    "moment": {"problem.N": "2", "problem.s": _REQUIRED,
               **_DENSITY, **_QUAD, **_OUT},
    "eval": {"problem.N": "2", "problem.s": _REQUIRED, "problem.x": _REQUIRED,
             **_func_keys("function.", "halfspace_power"),
             **_DENSITY, **_QUAD, **_OUT},
    # dual-route identity checks run both sides numerically; their useful
    # agreement scale is coarser than the default quadrature target
    "identity": {"problem.N": "2", "problem.s": _REQUIRED,
                 "problem.check": "scaling", "problem.R": "2.0",
                 "problem.x": "",
                 **_func_keys("function.", "kelvin"),
                 **_func_keys("function2.", "halfspace_power"),
                 **_DENSITY, **_QUAD, "quad.abs_tol": "1e-05",
                 "quad.rel_tol": "1e-04", **_OUT},
    # default pairing partners: two separated bumps, cheap on both sides
    "pair": {"problem.N": "2", "problem.s": _REQUIRED,
             "problem.half_width": "50.0",
             **_func_keys("function.", "bump"), "function.center": "0,3",
             "function.r_in": "0.2", "function.r_out": "0.4",
             **_func_keys("function2.", "bump"), "function2.center": "0,1",
             "function2.r_in": "0.2", "function2.r_out": "0.4",
             **_DENSITY, **_QUAD, **_OUT},
    "certify": {"problem.N": "2", "problem.s": _REQUIRED,
                "problem.p": _REQUIRED, "problem.mode": "halfspace",
                "problem.tolerance": "1e-06", "problem.epsilon": "",
                **_DENSITY, **_QUAD, **_OUT},
    "construct": {"problem.N": "2", "problem.s": _REQUIRED,
                  "problem.p": _REQUIRED, "problem.epsilon": "",
                  **_QUAD, **_OUT},
    "gamma": {"problem.N": "2", "density.axis": _COMPUTED,
              "density.tau": "0.3",
              "sampler.grid": "0.5,0.25,0.1,0.05,0.025,0.01",
              "sampler.boundary_points": "96", **_QUAD, **_OUT},
    "stepone": {"problem.N": "2", "problem.s": _REQUIRED,
                "problem.alpha0": _COMPUTED, "problem.gamma0": "0.25",
                **_DENSITY, **_QUAD, **_OUT},
    "rescaled": {"problem.N": "2", "problem.s": _REQUIRED,
                 "problem.p": _REQUIRED, "problem.M": "1.0",
                 "problem.gamma0": "0.25", "problem.R": "0.5,1,2,4",
                 **_func_keys("function.", "kelvin"),
                 **_DENSITY, **_QUAD, **_OUT},
    "scan": {"problem.N": "2", "problem.s": _REQUIRED,
             "problem.p": _REQUIRED, "problem.mode": "halfspace",
             "problem.tolerance": "1e-06", **_DENSITY, **_QUAD, **_OUT},
}

_ALIASES = {
    "N": "problem.N", "s": "problem.s", "p": "problem.p",
    "alpha": "problem.alpha", "alpha0": "problem.alpha0",
    "gamma0": "problem.gamma0", "mode": "problem.mode",
    "check": "problem.check", "x": "problem.x", "R": "problem.R",
    "M": "problem.M", "epsilon": "problem.epsilon",
    "half_width": "problem.half_width", "tolerance": "problem.tolerance",
    "out": "output.directory", "svg": "output.svg",
}

_USAGE = """usage: conefrac <subcommand> [--config FILE] [--key value ...]

subcommands: calpha moment eval identity pair certify construct gamma
             stepone rescaled scan

Flags mirror configuration keys (--problem.s 0.5, --quad.abs_tol 1e-9);
short aliases exist for the problem section (--s, --p, --alpha, --mode, ...).
Environment variables override the config file as CONEFRAC_SECTION__KEY
(for example CONEFRAC_QUAD__ABS_TOL=1e-9).  --expect COLUMN=VALUE asserts
on the final CSV row; --expect coherent asserts every scan row certifies
exactly above its threshold.  Artifacts land in --out (default '.').
"""


class _Invalid(ConefracError):
    pass


class _Run:
    """Resolved configuration for one subcommand invocation."""

    def __init__(self, sub: str, provided: dict):
        self.sub = sub
        self.schema = _SCHEMAS[sub]
        for key in provided:
            if key != "subcommand" and key not in self.schema:
                raise _Invalid(f"unknown key {key!r} for {sub!r}")
        self.provided = {k: v for k, v in provided.items()
                         if k != "subcommand"}
        self.eff = {}

    def get(self, key: str, fallback: str = None) -> str:
        if key in self.provided:
            val = self.provided[key]
        else:
            val = self.schema[key]
            if val is _REQUIRED:
                raise _Invalid(f"missing required key {key!r}")
            if val is _COMPUTED:
                val = fallback
        self.eff[key] = val
        return val

    def note(self, key: str, value: str) -> None:
        self.eff[key] = value

    def f(self, key: str, fallback: str = None) -> float:
        raw = self.get(key, fallback)
        try:
            return float(raw)
        except ValueError:
            raise _Invalid(f"{key} must be a number, got {raw!r}") from None

    def f_or_none(self, key: str):
        return None if self.get(key) == "" else self.f(key)

    def i(self, key: str) -> int:
        raw = self.get(key)
        try:
            return int(raw)
        except ValueError:
            raise _Invalid(f"{key} must be an integer, got {raw!r}") from None

    def flist(self, key: str, fallback: str = None) -> list:
        raw = self.get(key, fallback)
        try:
            return [float(t) for t in raw.split(",") if t.strip() != ""]
        except ValueError:
            raise _Invalid(f"{key} must be comma-separated numbers, "
                           f"got {raw!r}") from None

    def b(self, key: str) -> bool:
        raw = self.get(key).lower()
        if raw in ("true", "1", "yes"):
            return True
        if raw in ("false", "0", "no"):
            return False
        raise _Invalid(f"{key} must be true or false, got {raw!r}")

    def choice(self, key: str, options, fallback: str = None) -> str:
        raw = self.get(key, fallback)
        if raw not in options:
            raise _Invalid(f"{key} must be one of {sorted(options)}, "
                           f"got {raw!r}")
        return raw

    def quad_config(self) -> QuadratureConfig:
        return QuadratureConfig(
            abs_tol=self.f("quad.abs_tol"),
            rel_tol=self.f("quad.rel_tol"),
            max_subdivisions=self.i("quad.max_subdiv"),
            mc_seed=self.i("quad.mc_seed"),
            mc_samples=self.i("quad.mc_samples"))

    def density(self, N: int):
        kind = self.choice("density.kind", ("constant", "cone_plateau"))
        if kind == "constant":
            a = ConstantDensity(N, self.f("density.value"))
        else:
            axis = self.flist("density.axis", _axis_default(N))
            if len(axis) != N:
                raise _Invalid(f"density.axis needs {N} coordinates")
            a = ConePlateauDensity(N, Cone(tuple(axis),
                                           self.f("density.tau")),
                                   self.f("density.inside"),
                                   self.f("density.outside"))
        if not (a.upper_bound > 0.0):
            raise DegenerateDensityError(
                "density vanishes identically; nothing to integrate")
        return a

    def function(self, prefix: str, N: int, s: float):
        kinds = ("zero", "constant", "halfspace_power", "kelvin",
                 "translate_truncate", "bump", "plateau")
        kind = self.choice(prefix + "kind", kinds)
        mid = 0.5 * (s + min(1.0, 2.0 * s))
        if kind == "zero":
            f = Zero(N, s)
        elif kind == "constant":
            f = Constant(N, s)
        elif kind == "halfspace_power":
            f = HalfSpacePower(N, s, alpha=self.f(prefix + "alpha",
                                                  "%.17g" % s))
        elif kind == "kelvin":
            f = kelvin(self.f(prefix + "alpha", "%.17g" % (0.5 * s)), N, s)
        elif kind == "translate_truncate":
            f = translate_truncate(
                kelvin(self.f(prefix + "alpha", "%.17g" % (0.5 * s)), N, s))
        else:
            center = self.flist(prefix + "center", _center_default(N))
            if len(center) != N:
                raise _Invalid(f"{prefix}center needs {N} coordinates")
            bump = Bump(N, s, center=tuple(center),
                        r_in=self.f(prefix + "r_in"),
                        r_out=self.f(prefix + "r_out"))
            if kind == "bump":
                f = bump
            else:
                f = Product(HalfSpacePower(N, s,
                                           alpha=self.f(prefix + "alpha",
                                                        "%.17g" % mid)),
                            bump)
        R = self.f(prefix + "R")
        if R != 1.0:
            f = Rescale(f, R)
        eps = self.f(prefix + "epsilon")
        if eps != 1.0:
            f = ScalarMultiple(eps, f)
        return f


def _axis_default(N: int) -> str:
    return ",".join(["0"] * (N - 1) + ["1"])


def _center_default(N: int) -> str:
    return ",".join(["0"] * (N - 1) + ["1.2"])


def _identity_points(N: int) -> np.ndarray:
    pts = []
    for i in range(4):
        t = 0.8 + 0.9 * i
        row = [math.sin(t + 0.6 * j) for j in range(N - 1)]
        row.append(1.1 + 0.5 * math.sin(1.3 * t))
        pts.append(row)
    return np.asarray(pts)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


# --------------------------------------------------------------------------
# subcommand bodies: each returns (header columns, rows, svg payload)
# --------------------------------------------------------------------------

def _run_calpha(run: _Run):
    s = run.f("problem.s")
    alphas = run.flist("problem.alpha")
    if not alphas:
        raise _Invalid("problem.alpha must list at least one exponent")
    cfg = run.quad_config()
    rows = []
    for alpha in alphas:
        r = c_alpha(alpha, s, cfg)
        rows.append((alpha, s, r.value, r.abs_error_estimate))
    svg = ([r[0] for r in rows], [r[2] for r in rows], "alpha", "c_alpha")
    return ["alpha", "s", "c_alpha", "err"], rows, svg


def _run_moment(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    a = run.density(N)
    m = weighted_sphere_moment(a, s, run.quad_config())
    rows = [(s, m.value, m.abs_error_estimate)]
    return ["s", "I_a", "err"], rows, ([s], [m.value], "s", "I_a")


def _run_eval(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    x = run.flist("problem.x")
    if len(x) != N:
        raise _Invalid(f"problem.x needs {N} coordinates")
    a = run.density(N)
    f = run.function("function.", N, s)
    ev = apply_L(a, s, f, x, run.quad_config())
    rows = [(*x, ev.value, ev.abs_error_estimate, ev.path)]
    head = ["x%d" % (i + 1) for i in range(N)] + ["value", "err", "path"]
    return head, rows, ([0.0], [ev.value], "point", "value")


def _run_identity(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    check = run.choice("problem.check", ("scaling", "product", "kelvin"))
    a = run.density(N)
    cfg = run.quad_config()
    x = run.flist("problem.x")
    pts = np.asarray([x]) if x else _identity_points(N)
    if pts.shape[1] != N:
        raise _Invalid(f"problem.x needs {N} coordinates")
    rows = []
    if check == "scaling":
        f = run.function("function.", N, s)
        R = run.f("problem.R")
        if not (R > 0.0):
            raise _Invalid("problem.R must be positive")
        fR = Rescale(f, R)
        for x in pts:
            e1 = apply_L(a, s, fR, x, cfg)
            e0 = apply_L(a, s, f, x / R, cfg)
            resid = abs(e1.value - R ** (-2.0 * s) * e0.value)
            budget = e1.abs_error_estimate \
                + R ** (-2.0 * s) * e0.abs_error_estimate
            rows.append(("scaling", *x, resid, budget))
    elif check == "product":
        g = run.function("function.", N, s)
        h = run.function("function2.", N, s)
        gh = Product(g, h)
        for x in pts:
            e_gh = apply_L(a, s, gh, x, cfg)
            e_g = apply_L(a, s, g, x, cfg)
            e_h = apply_L(a, s, h, x, cfg)
            e_l = correction_l(a, s, g, h, x, cfg)
            g0 = float(g.value(x))
            h0 = float(h.value(x))
            resid = abs(e_gh.value - g0 * e_h.value - h0 * e_g.value
                        - e_l.value)
            budget = (e_gh.abs_error_estimate
                      + abs(g0) * e_h.abs_error_estimate
                      + abs(h0) * e_g.abs_error_estimate
                      + e_l.abs_error_estimate)
            rows.append(("product", *x, resid, budget))
    else:
        if not a.is_constant:
            raise _Invalid("the closed decaying-power form needs a constant "
                           "density")
        f = run.function("function.", N, s)
        for x in pts:
            num = apply_L(a, s, f, x, cfg, force_numeric=True)
            cl = apply_L(a, s, f, x, cfg)
            resid = abs(num.value - cl.value)
            budget = num.abs_error_estimate + cl.abs_error_estimate
            rows.append((check, *x, resid, budget))
    head = ["check"] + ["point%d" % (i + 1) for i in range(N)] \
        + ["residual", "budget"]
    idx = list(range(len(rows)))
    return head, rows, (idx, [r[N + 1] for r in rows], "case", "residual")


def _run_pair(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    a = run.density(N)
    u = run.function("function.", N, s)
    v = run.function("function2.", N, s)
    hw = run.f("problem.half_width")
    res = pairing(a, s, u, v, hw, run.quad_config())
    rows = [(res.I_uLv, res.I_vLu, res.residual)]
    return (["I_uLv", "I_vLu", "residual"], rows,
            ([0, 1], [res.I_uLv, res.I_vLu], "side", "pairing"))


def _run_certify(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    p = run.f("problem.p")
    mode = run.choice("problem.mode", ("halfspace", "wholespace"))
    tol = run.f("problem.tolerance")
    a = run.density(N)
    con = construct_supersolution(N, s, p,
                                  epsilon=run.f_or_none("problem.epsilon"),
                                  cfg=run.quad_config())
    run.note("problem.epsilon", "%.17g" % con.epsilon)
    pts = default_certification_points(N, mode)
    pts = pts[pts[:, -1] > 0.0]
    rep = certify(a, s, p, con.function, pts, run.quad_config(),
                  tolerance=tol)
    rows = [(p, con.epsilon, rep.min_margin, *rep.argmin, rep.n_points,
             rep.certified)]
    head = ["p", "eps", "min_margin"] \
        + ["argmin%d" % (i + 1) for i in range(N)] + ["n_points", "certified"]
    worst = sorted(rep.worst, key=lambda w: w.margin)
    svg = (list(range(len(worst))), [w.margin for w in worst],
           "worst samples", "margin")
    return head, rows, svg


def _run_construct(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    p = run.f("problem.p")
    con = construct_supersolution(N, s, p,
                                  epsilon=run.f_or_none("problem.epsilon"),
                                  cfg=run.quad_config())
    run.note("problem.epsilon", "%.17g" % con.epsilon)
    rows = [(N, s, p, con.regime, con.alpha, con.C_alpha, con.eps_max)]
    head = ["N", "s", "p", "regime", "alpha", "C_alpha", "eps_max"]
    return head, rows, ([p], [con.eps_max], "p", "eps_max")


def _run_gamma(run: _Run):
    N = run.i("problem.N")
    axis = run.flist("density.axis", _axis_default(N))
    if len(axis) != N:
        raise _Invalid(f"density.axis needs {N} coordinates")
    tau = run.f("density.tau")
    grid = run.flist("sampler.grid")
    nb = run.i("sampler.boundary_points")
    res = gamma_search(tuple(axis), tau, run.quad_config(), grid=tuple(grid),
                       n_boundary=nb)
    rows = [(r.gamma, r.min_volume, r.three_sigma, r.verified)
            for r in res.rows]
    svg = ([r[0] for r in rows], [r[1] for r in rows], "gamma", "min_volume")
    return ["gamma", "min_volume", "three_sigma", "verified"], rows, svg


def _run_stepone(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    alpha0 = run.f("problem.alpha0",
                   "%.17g" % (0.5 * (s + min(1.0, 2.0 * s))))
    gamma0 = run.f("problem.gamma0")
    a = run.density(N)
    rep = step_one_M(a, s, alpha0, gamma0, run.quad_config())
    rows = []
    for r in rep.regions:
        sup = r.sup_x if r.sup_x else (float("nan"),) * 2
        rows.append((r.region, r.M_est, r.M_err, *sup, rep.stability))
    rows.append(("all", rep.M_est, rep.M_err, *rep.sup_x, rep.stability))
    head = ["region", "M_est", "M_err", "sup_x1", "sup_x2", "stability"]
    idx = list(range(len(rows)))
    return head, rows, (idx, [r[1] for r in rows], "region", "M_est")


def _run_rescaled(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    p = run.f("problem.p")
    M = run.f("problem.M")
    gamma0 = run.f("problem.gamma0")
    R_list = run.flist("problem.R")
    a = run.density(N)
    u = run.function("function.", N, s)
    out = rescaled_inequality_experiment(a, s, p, u, M, R_list,
                                         run.quad_config(), gamma0=gamma0)
    rows = [(r.R, r.lhs, r.rhs, r.envelope_exponent, r.lhs_err, r.rhs_err)
            for r in out]
    svg = ([r[0] for r in rows], [r[1] for r in rows], "R", "lhs")
    return (["R", "lhs", "rhs", "envelope_exponent", "lhs_err", "rhs_err"],
            rows, svg)


def _run_scan(run: _Run):
    N = run.i("problem.N")
    s = run.f("problem.s")
    p_grid = run.flist("problem.p")
    mode = run.choice("problem.mode", ("halfspace", "wholespace"))
    tol = run.f("problem.tolerance")
    a = run.density(N)
    out = liouville_scan(a, s, p_grid, mode, run.quad_config(),
                         tolerance=tol)
    for r in out:
        if r.regime == "error":
            print("scan: p=%.17g failed: %s" % (r.p, r.error), file=sys.stderr)
    rows = [(r.p, r.threshold, r.regime, r.alpha, r.C_alpha, r.eps_max,
             r.min_margin, r.certified) for r in out]
    head = ["p", "threshold", "regime", "alpha", "C_alpha", "eps_max",
            "min_margin", "certified"]
    svg = ([r[0] for r in rows], [r[6] for r in rows], "p", "min_margin")
    return head, rows, svg


_BODIES = {
    "calpha": _run_calpha, "moment": _run_moment, "eval": _run_eval,
    "identity": _run_identity, "pair": _run_pair, "certify": _run_certify,
    "construct": _run_construct, "gamma": _run_gamma,
    "stepone": _run_stepone, "rescaled": _run_rescaled, "scan": _run_scan,
}


# --------------------------------------------------------------------------
# configuration assembly and artifact writing
# --------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise _Invalid(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _Invalid(f"{path}:{ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _env_overrides() -> dict:
    out = {}
    for name, val in os.environ.items():
        if name.startswith("CONEFRAC_"):
            out[name[len("CONEFRAC_"):].lower().replace("__", ".")] = val
    return out


def _parse_argv(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return None
    sub = argv[0]
    if sub not in _SCHEMAS:
        raise _Invalid(f"unknown subcommand {sub!r}")
    flags, expects, config_path = {}, [], None
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise _Invalid(f"unexpected argument {tok!r}")
        name = tok[2:]
        if "=" in name:
            name, _, val = name.partition("=")
        else:
            i += 1
            if i >= len(argv):
                raise _Invalid(f"flag --{name} needs a value")
            val = argv[i]
        if name == "config":
            config_path = val
        elif name == "expect":
            expects.append(val)
        else:
            flags[_ALIASES.get(name, name)] = val
        i += 1
    return sub, flags, expects, config_path


def _check_expectations(expects, sub, head, rows):
    for expr in expects:
        if expr == "coherent":
            if sub != "scan":
                raise _Invalid("--expect coherent only applies to scan")
            for r in rows:
                p, threshold, regime, certified = r[0], r[1], r[2], r[7]
                if p <= threshold:
                    # no candidate may certify at or below the threshold
                    bad = bool(certified)
                else:
                    # the constructed supersolution must certify; densities
                    # without a construction make no claim either way
                    bad = not certified and regime not in ("error",
                                                           "not_constructed")
                if bad:
                    raise ExpectationFailedError(
                        "coherent: p=%.17g certified=%s threshold=%.17g"
                        % (p, _cell(certified), threshold))
            continue
        if "=" not in expr:
            raise _Invalid(f"--expect needs COLUMN=VALUE or coherent, "
                           f"got {expr!r}")
        col, _, want = expr.partition("=")
        if col not in head:
            raise _Invalid(f"--expect column {col!r} not in {head}")
        if not rows:
            raise ExpectationFailedError(f"{col}: no rows produced")
        got = _cell(rows[-1][head.index(col)])
        if got != want:
            raise ExpectationFailedError(f"{col}={got} expected {want}")


def _write_artifacts(run: _Run, head, rows, svg):
    outdir = run.get("output.directory")
    want_svg = run.b("output.svg")
    seed = run.i("quad.mc_seed")
    os.makedirs(outdir, exist_ok=True)
    lines = [",".join(head)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    lines.append("# seed=%d version=%s" % (seed, __version__))
    csv_path = os.path.join(outdir, run.sub + ".csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    resolved = {k: v for k, v in run.schema.items()
                if not (v is _REQUIRED or v is _COMPUTED)}
    resolved.update(run.provided)
    resolved.update(run.eff)
    resolved["subcommand"] = run.sub
    cfg_path = os.path.join(outdir, "resolved.cfg")
    with open(cfg_path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(resolved):
            fh.write("%s = %s\n" % (key, resolved[key]))
    if want_svg:
        xs, ys, xlabel, ylabel = svg
        with open(os.path.join(outdir, run.sub + ".svg"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(line_figure(xs, ys, xlabel, ylabel, title=run.sub))
    return csv_path


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parsed = _parse_argv(list(argv))
        if parsed is None:
            return 0
        sub, flags, expects, config_path = parsed
        merged = {}
        if config_path is not None:
            merged.update(_parse_config_file(config_path))
        if merged.get("subcommand", sub) != sub:
            raise _Invalid("config file subcommand %r does not match %r"
                           % (merged["subcommand"], sub))
        merged.update(_env_overrides())
        merged.update(flags)
        run = _Run(sub, merged)
        head, rows, svg = _BODIES[sub](run)
        csv_path = _write_artifacts(run, head, rows, svg)
        _check_expectations(expects, sub, head, rows)
    except ExpectationFailedError as exc:
        print(f"error: expectation-failed: {exc}", file=sys.stderr)
        return 3
    except (AccuracyError, SearchFailureError) as exc:
        print(f"error: accuracy-budget: {exc}", file=sys.stderr)
        return 4
    except ConefracError as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return 2
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
