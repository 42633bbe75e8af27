"""Quadrature layer: the one-dimensional weight constant, sphere rules,
radial integrals, Monte Carlo volumes."""

import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import binom

import conefrac as cf
from conefrac.errors import InputDomainError, NonsmoothPointError
from conefrac.quadrature import (DEFAULT_CONFIG, QuadratureConfig, _eval_panels,
                                  _epsilon_limit, _gauss01, _geom_edges,
                                  _graded_rows, _initial_panels, _kronrod01,
                                  _merge_edges, _octave_batch, _run_tasks)


def series_tail_oracle(a, s, d=0.1, T=50.0, with_error=False):
    """Second route to the weight constant: termwise-integrated Taylor series
    near 0, plain quadrature on the smooth middle, binomial expansion tail.
    with_error also returns the two quadratures' own error estimates."""
    ts = 2.0 * s
    head = sum(2.0 * binom(a, 2 * k) * d ** (2 * k - ts) / (2 * k - ts)
               for k in range(1, 9))
    m1, e1 = quad(lambda t: ((1 + t) ** a + (1 - t) ** a - 2.0) / t ** (1 + ts),
                  d, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    m2, e2 = quad(lambda t: ((1 + t) ** a - 2.0) / t ** (1 + ts),
                  1.0, T, epsabs=1e-13, epsrel=1e-12, limit=300)
    tail = sum(binom(a, j) * T ** (a - j - ts) / (ts + j - a) for j in range(8)) \
        - 2.0 * T ** (-ts) / ts
    value = head + m1 + m2 + tail
    return (value, e1 + e2) if with_error else value


class TestWeightConstant:
    def test_reference_value(self, cfg):
        # alpha = s/2 at s = 1/2 has the exact value -pi/4
        res = cf.c_alpha(0.25, 0.5, cfg)
        assert abs(res.value + math.pi / 4.0) <= res.abs_error_estimate + 1e-9
        assert res.converged

    def test_vanishes_at_alpha_equal_s(self, cfg):
        for s in (0.3, 0.5, 0.7):
            assert abs(cf.c_alpha(s, s, cfg).value) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9])
    def test_half_integral_order_closed_form(self, alpha, cfg):
        # at s = 1/2 the constant is -pi a cot(pi a)
        res = cf.c_alpha(alpha, 0.5, cfg)
        closed = -math.pi * alpha / math.tan(math.pi * alpha)
        assert res.value == pytest.approx(closed, abs=5e-11)

    @pytest.mark.parametrize("alpha,s", [(0.3, 0.35), (0.2, 0.4), (0.9, 0.7),
                                         (0.5, 0.3), (1.1, 0.6)])
    def test_generic_order_against_series_oracle(self, alpha, s, cfg):
        res = cf.c_alpha(alpha, s, cfg)
        assert res.value == pytest.approx(series_tail_oracle(alpha, s), abs=5e-10)

    def test_sign_tracks_alpha_minus_s(self, cfg):
        s = 0.6
        assert cf.c_alpha(0.3, s, cfg).value < 0.0
        assert cf.c_alpha(0.9, s, cfg).value > 0.0

    @pytest.mark.parametrize("alpha,s", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                         (0.3, 0.0), (0.3, 1.0)])
    def test_domain_validation(self, alpha, s):
        with pytest.raises(InputDomainError):
            cf.c_alpha(alpha, s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.05, 0.95), st.floats(0.01, 0.99))
    def test_closed_form_against_series_oracle(self, s, frac):
        # the closed form's rounding bound plus the oracle's own quadrature
        # error covers their difference
        alpha = frac * 2.0 * s
        res = cf.c_alpha(alpha, s)
        oracle, oracle_err = series_tail_oracle(alpha, s, with_error=True)
        assert res.n_evals == 0
        assert abs(res.value - oracle) <= res.abs_error_estimate + oracle_err


class TestConfig:
    def test_with_tol_returns_new_config(self):
        cfg = DEFAULT_CONFIG.with_tol(1e-5, 1e-4)
        assert cfg.abs_tol == 1e-5
        assert cfg.rel_tol == 1e-4
        assert DEFAULT_CONFIG.abs_tol == 1e-8

    def test_defaults_are_sane(self):
        assert DEFAULT_CONFIG.max_subdivisions >= 1

    def test_every_field_is_read(self):
        # a knob that is validated but never read is dead: every field must
        # be read as an attribute somewhere in the package
        src = Path(cf.__file__).parent
        read = {node.attr for path in src.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread = [f.name for f in fields(QuadratureConfig) if f.name not in read]
        assert unread == []


class TestGeometry:
    def test_sphere_surface_area(self):
        assert cf.sphere_surface_area(1) == 2.0
        assert cf.sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert cf.sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_ball_volume(self):
        assert cf.ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert cf.ball_volume(3, 2.0) == pytest.approx(32.0 * math.pi / 3.0, rel=1e-14)


# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., 1983): the nonnegative
# Kronrod abscissae from the outermost inward, and their weights
QK15_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0)
QK15_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)


class TestKronrod:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_embeds_the_gauss_rule(self, n):
        x, _, wg = _kronrod01(n)
        xg, wgg = _gauss01(n)
        assert np.max(np.abs(x[1::2] - xg)) <= 1e-15
        assert np.array_equal(wg[1::2], wgg)
        assert not np.any(wg[::2])

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_exact_for_polynomials_of_degree_3n_plus_1(self, n):
        x, wk, _ = _kronrod01(n)
        for d in range(3 * n + 2):
            assert abs(wk @ x ** d - 1.0 / (d + 1)) <= 2.5e-16

    def test_matches_quadpack_qk15(self):
        x, wk, _ = _kronrod01(7)
        # both halves, mapped back to [-1, 1]
        for xs, ws in ((2.0 * x[::-1] - 1.0, 2.0 * wk[::-1]), (1.0 - 2.0 * x, 2.0 * wk)):
            assert np.max(np.abs(xs[:8] - QK15_X)) <= 1e-15
            assert np.max(np.abs(ws[:8] - QK15_W)) <= 1e-15


class TestPanelEdges:
    @pytest.mark.parametrize("levels", [1, 3, 6, 18])
    @pytest.mark.parametrize("toward_lo", [True, False])
    def test_graded_rows_at_ratio_two_is_the_dyadic_formula(self, levels, toward_lo):
        rng = np.random.default_rng(levels)
        lo = rng.uniform(-2.0, 2.0, 7)
        hi = lo + rng.uniform(1e-3, 5.0, 7)
        w = hi - lo
        fracs = 2.0 ** -np.arange(levels, 0, -1)
        inner = (lo[:, None] + w[:, None] * fracs if toward_lo
                 else hi[:, None] - w[:, None] * fracs[::-1])
        want = np.column_stack((lo, inner, hi))
        got = _graded_rows(lo, hi, toward_lo, levels)
        assert np.array_equal(got, want)
        assert np.array_equal(_graded_rows(lo[2], hi[2], toward_lo, levels), want[2])

    def test_graded_rows_other_ratio(self):
        e = _graded_rows(0.0, 3.0, True, 4, 1.5)
        assert e[0] == 0.0 and e[-1] == 3.0
        np.testing.assert_allclose(e[1:-1], 3.0 * 1.5 ** -np.arange(4.0, 0.0, -1.0),
                                   rtol=1e-15)
        e = _graded_rows(1.0, 4.0, False, 4, 1.5)
        np.testing.assert_allclose(4.0 - e[-2:0:-1],
                                   3.0 * 1.5 ** -np.arange(4.0, 0.0, -1.0), rtol=1e-15)

    @pytest.mark.parametrize("lo,hi,ratio,n_min", [
        (1e-6, 600.0, 1.35, 6), (1e-30, 3.5, 1.55, 8), (2.8, 50.0, 1.6, 2),
        (1.0, 1.2, 2.0, 4), (0.003, 2.5, 1.7, 4)])
    def test_geom_edges(self, lo, hi, ratio, n_min):
        e = _geom_edges(lo, hi, ratio, n_min)
        assert e[0] == lo and e[-1] == hi
        assert np.all(e[1:] / e[:-1] <= ratio * (1.0 + 1e-12))
        assert np.all(np.diff(e) > 0.0)
        assert e.size - 1 >= n_min

    def test_merge_edges(self):
        e = _merge_edges([np.linspace(0.0, 1.0, 5), [0.3, -0.4, 1.7, 0.5 + 1e-12],
                          [0.9, 0.3 + 1e-13]], 0.0, 1.0)
        assert np.all(np.diff(e) > 0.0)
        assert e[0] == 0.0 and e[-1] == 1.0
        np.testing.assert_array_equal(e, [0.0, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0])
        # an edge just below hi gives way to hi itself
        e = _merge_edges([[0.5, 2.0 - 1e-12]], -1.0, 2.0)
        np.testing.assert_array_equal(e, [-1.0, 0.5, 2.0])


class TestGeometricTail:
    """_epsilon_limit, which completes every geometric tail: the octave
    sources of _octave_batch and the frame sums of the cutoff mass field."""

    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_geometric_rows_are_completed_exactly(self, r):
        S = np.cumsum(0.3 * r ** np.arange(11.0))
        val, err = _epsilon_limit(S[None, :])
        assert val[0] == pytest.approx(0.3 / (1.0 - r), rel=1e-15)
        assert err[0] <= 1e-14

    @pytest.mark.parametrize("c, r", [((0.3, 2.0), (0.5, 0.8)),
                                      ((1.0, -0.7), (-0.6, 0.9))])
    def test_two_geometric_components_are_completed_exactly(self, c, r):
        # column 2k of the table is exact for k geometric components
        c, r = np.array(c), np.array(r)
        S = np.cumsum(c @ r[:, None] ** np.arange(11.0))
        val, err = _epsilon_limit(S[None, :])
        assert abs(val[0] - np.sum(c / (1.0 - r))) <= 8.0 * np.spacing(np.abs(S).max())
        assert err[0] <= 1e-12

    @pytest.mark.parametrize("row", [np.arange(1.0, 12.0),
                                     np.r_[np.ones(10), np.nan],
                                     np.r_[np.arange(1.0, 11.0), np.inf],
                                     2.0 ** np.arange(11.0),
                                     np.arange(11.0) % 2 == 0])
    def test_no_geometric_decay_gives_an_infinite_error(self, row):
        # partial sums 1, 2, 3, ...: no column of the table is finite.  The
        # table does extrapolate 1, 2, 4, ... (to 0) and 1, 0, 1, ... (to
        # 1/2), but their terms do not shrink
        row = row.astype(float)
        val, err = _epsilon_limit(row[None, :])
        assert val[0] == row[-1] or np.isnan(row[-1])
        assert err[0] == math.inf

    def test_row_ending_in_zero_needs_nothing(self):
        val, err = _epsilon_limit(np.array([[1.0, 1.5, 1.75, 1.75, 1.75],
                                            [0.0, 0.0, 0.0, 0.0, 0.0]]))
        assert np.array_equal(val, [1.75, 0.0]) and np.array_equal(err, [0.0, 0.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-0.9, 0.9)),
                    min_size=1, max_size=2))
    def test_sums_of_two_geometric_sequences_are_covered(self, comps):
        c, r = np.array(comps).T
        S = np.cumsum(c @ r[:, None] ** np.arange(11.0))
        val, err = _epsilon_limit(S[None, :])
        parts = c / (1.0 - r)
        # the exact sum is rounded at the size of its parts, and the table
        # carries the rounding of S
        slack = 64.0 * np.spacing(max(np.abs(S).max(), np.abs(parts).max()))
        assert abs(val[0] - np.sum(parts)) <= err[0] + slack

    def test_octave_source_does_not_depend_on_its_batch(self):
        # int_0^1 kappa t^(kappa - 1) dt = 1.  The kappa = 1.5 source stops
        # after one chunk; batched with a kappa = 0.02 source, whose octaves
        # decay only at 2^-0.02 ~ 0.986 (it too completes after one chunk,
        # with a finite error), it must still be completed the same way
        kappa = np.array([1.5, 0.02])

        def evalf(ts, ids):
            k = kappa[ids]
            return k * ts ** (k - 1.0)

        def run(n):
            ids = np.arange(n)
            return _octave_batch(evalf, np.ones(n), ids, n, 1e-8, ids, 7)

        alone, alone_err, _ = run(1)
        both, both_err, _ = run(2)
        assert abs(alone[0] - 1.0) <= 1e-15
        assert both[0] == alone[0] and both_err[0] == alone_err[0]
        assert abs(both[1] - 1.0) <= both_err[1]

    def test_slow_power_stops_once_its_completion_meets_tol(self):
        # sum_i c_i kappa_i t^(kappa_i - 1) on (0, 1], exact value sum_i c_i:
        # the octaves are a sum of geometric sequences at ratios 2^-kappa_i,
        # as slow as 0.93, and the first chunk's completion already meets
        # the tolerance.  A single-ratio completion under-reports the sums
        # of two powers (miss / estimate 1.38, 3.80 and 1.29)
        one = np.zeros(1, dtype=np.int64)
        for kappa, c, tol in [((0.3,), (1.0,), 1e-8),
                              ((0.2, 0.4), (1.0, 1.0), 2.5e-9),
                              ((0.1, 0.15), (1.0, 1.0), 2.5e-9),
                              ((0.5, 0.6), (1.0, 3.0), 2.5e-9)]:
            def evalf(ts, ids):
                return sum(ci * ki * ts ** (ki - 1.0) for ci, ki in zip(c, kappa))

            val, err, nev = _octave_batch(evalf, np.ones(1), one, 1, tol, one, 7)
            assert nev == 12 * 15
            assert abs(val[0] - sum(c)) <= err[0] <= tol

    def test_source_with_a_zero_octave_runs_on(self):
        # F(t) = t^2 - a t^3 with a = 6 / (7 u0): the octave [u0/2, u0],
        # u0 = 2^-9, integrates to 0 inside the first chunk.  The octaves
        # are still a sum of two geometric sequences (ratios 1/4 and 1/8):
        # the epsilon table runs on past the zero octave and finishes the
        # source from that chunk
        u0 = 2.0 ** -9
        a = 6.0 / (7.0 * u0)

        def evalf(ts, ids):
            return 2.0 * ts - 3.0 * a * ts ** 2

        one = np.zeros(1, dtype=np.int64)
        val, err, nev = _octave_batch(evalf, np.ones(1), one, 1, 1e-5, one, 7)
        assert nev == 12 * 15
        assert err[0] <= 1e-6
        # no estimate in the engine carries rounding: allow a few ulp
        assert abs(val[0] - (1.0 - a)) <= err[0] + 4.0 * np.spacing(abs(1.0 - a))


class TestRunTasks:
    def test_two_groups_converge_within_their_estimates(self):
        # group 0: t^{-1/2} on [0, 1], graded toward 0, exact value 2;
        # group 1: cos t on [0, 1], exact value sin 1.  The singular group
        # reaches 1e-6 within ten rounds only because the end child of each
        # graded row keeps its graded-end flag.
        lo, hi = np.zeros(2), np.ones(2)
        panels = _initial_panels(lo, hi, np.array([True, False]), np.zeros(2, bool))

        def evalf(ts, task):
            return np.where(task == 0, ts ** -0.5, np.cos(ts))

        def eval_panels(plo, phi, ptask):
            v, e, n = _eval_panels(evalf, plo, phi, ptask, 7)
            return v, e, np.zeros_like(v), n

        val, err, nev = _run_tasks(
            *panels, np.arange(2), 2, eval_panels, np.full(2, 1e-15),
            np.full(2, 1e-6), np.zeros(2), 10, hi * 2.0 ** -50, 400_000, True)
        exact = np.array([2.0, math.sin(1.0)])
        assert np.all(err <= 1e-6 * np.abs(val))
        assert np.all(np.abs(val - exact) <= err)
        assert nev > 0


class TestSphereQuadrature:
    def test_circle_stops_when_node_errors_dominate(self, cfg):
        # sqrt|theta_1| alone needs refinement, but finer panels cannot
        # reduce node errors of 1e-3, so the rule stops after its first layout
        calls = []

        def node_eval(thetas):
            calls.append(thetas.shape[0])
            n = thetas.shape[0]
            return np.sqrt(np.abs(thetas[:, 0])), np.full(n, 1e-3), n

        res = cf.sphere_quadrature(cf.ConstantDensity(2), None, cfg,
                                   node_eval=node_eval)
        assert len(calls) == 1
        assert not res.converged
        assert res.abs_error_estimate >= 2.0 * math.pi * 1e-3

    def test_total_mass_all_dimensions(self, cfg):
        one = lambda th: np.ones(th.shape[0])
        for dim, exact in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)):
            res = cf.sphere_quadrature(cf.ConstantDensity(dim), one, cfg)
            assert res.value == pytest.approx(exact, rel=1e-9)

    def test_jump_weight_mass(self, cone2, cfg):
        # plateau weight: inside on a cap of aperture arccos(0.7), outside off it
        one = lambda th: np.ones(th.shape[0])
        cap = 2.0 * math.acos(0.7)
        exact = 1.0 * 2.0 * cap + 0.25 * (2.0 * math.pi - 2.0 * cap)
        res = cf.sphere_quadrature(cone2, one, cfg)
        assert abs(res.value - exact) <= max(10.0 * res.abs_error_estimate, 1e-8)

    def test_polynomial_moment_2d(self, cfg):
        # int_0^{2pi} cos^2 = pi
        g = lambda th: th[:, 0] ** 2
        res = cf.sphere_quadrature(cf.ConstantDensity(2), g, cfg)
        assert res.value == pytest.approx(math.pi, rel=1e-10)


    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_four_dimensional_rule(self, cfg, s):
        # antithetic Monte Carlo: the total mass is exact, and the moment of
        # |theta_N|^(2s) lies within its 3 sigma of
        # 2 pi^(3/2) Gamma(s + 1/2) / Gamma(s + 2)
        a = cf.ConstantDensity(4)
        one = cf.sphere_quadrature(a, lambda th: np.ones(th.shape[0]), cfg)
        assert one.value == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
        assert one.abs_error_estimate == 0.0
        res = cf.weighted_sphere_moment(a, s, cfg)
        exact = 2.0 * math.pi ** 1.5 * math.gamma(s + 0.5) / math.gamma(s + 2.0)
        assert 0.0 < res.abs_error_estimate < 0.05 * exact
        assert abs(res.value - exact) <= res.abs_error_estimate


class TestRadialIntegral:
    def test_matches_direct_quadrature(self, cfg):
        # both-ray second difference of a smooth compactly supported profile
        f = cf.Bump(2, 0.5, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        x = np.array([0.3, 1.0])
        theta = np.array([math.cos(0.3), math.sin(0.3)])
        fx = f.value(x)
        T = 6.0

        def inner(t):
            return (f.value(x + t * theta) + f.value(x - t * theta) - 2.0 * fx) / t ** 2

        direct, derr = quad(inner, 0.0, T, limit=300, epsabs=1e-13, epsrel=1e-12)
        direct += -2.0 * fx / T
        res = cf.radial_integral(f, x, theta, 0.5, cfg)
        assert res.value == pytest.approx(direct, abs=max(res.abs_error_estimate, 1e-9))

    @pytest.mark.parametrize("phi", [1e-2, 1e-4, 4.6e-6])
    def test_ray_nearly_parallel_to_kink_plane(self, cfg, phi):
        # one ray meets the plane x_N = 0 only at t = x_N / sin(phi), up to
        # 2e5, while the integrand lives at t ~ 1: the long panel between
        # must still be refined down to the scale of the integrand
        f = cf.kelvin(0.25, 2, 0.5)
        x = np.array([-1.5664, 0.9843])
        theta = np.array([math.cos(math.pi - phi), math.sin(math.pi - phi)])
        fx = f.value(x)
        t_kink = x[1] / math.sin(phi)

        def inner(t):
            return (f.value(x + t * theta) + f.value(x - t * theta) - 2.0 * fx) / t ** 2

        # direct on [0, 4], then t = 1/u with a break at the kink
        near, _ = quad(inner, 0.0, 4.0, limit=500, epsabs=1e-13, epsrel=1e-12)
        far, _ = quad(lambda u: inner(1.0 / u) / u ** 2, 0.0, 0.25,
                      points=[1.0 / t_kink], limit=500, epsabs=1e-13, epsrel=1e-12)
        res = cf.radial_integral(f, x, theta, 0.5, cfg)
        assert res.converged
        assert abs(res.value - (near + far)) <= res.abs_error_estimate

    def test_halfspace_power_against_c_alpha(self, cfg, rng):
        # substituting t = x_N u / |theta_N| turns the both-ray integral of
        # (x_N)_+^alpha into the 1-D kernel: c_alpha |theta_N|^{2s}
        # x_N^{alpha - 2s}.  The sample has directions down to 0.05 rad from
        # the plane and zero values (alpha = s)
        misses = []
        for _ in range(400):
            s = float(rng.choice([0.3, 0.5, 0.7]))
            alpha = float(rng.choice([0.2, 0.5, 0.8])) * 2.0 * s
            x = np.array([rng.uniform(-1.0, 1.0),
                          math.exp(rng.uniform(math.log(0.05), math.log(5.0)))])
            phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, math.pi - 0.05)
            theta = np.array([math.cos(phi), math.sin(phi)])
            ca = cf.c_alpha(alpha, s, cfg)
            geo = abs(theta[1]) ** (2.0 * s) * x[1] ** (alpha - 2.0 * s)
            res = cf.radial_integral(cf.HalfSpacePower(2, s, alpha=alpha), x,
                                     theta, s, cfg)
            budget = res.abs_error_estimate + geo * ca.abs_error_estimate
            if not res.converged or abs(res.value - ca.value * geo) > budget:
                misses.append((s, alpha, tuple(x), phi, res.converged,
                               abs(res.value - ca.value * geo) / budget))
        assert not misses, (len(misses), misses[:5])

    @pytest.mark.parametrize("s", [0.7, 0.8, 0.9])
    def test_zero_of_the_operator_near_the_plane(self, cfg, s):
        # at alpha = s the exact integral is 0 along every direction; the
        # subtracted inner task's rounding noise, a difference of O(1)
        # values times t^{-1-2s}, must show in the estimate (or the row
        # must say it did not converge)
        f = cf.HalfSpacePower(2, s, alpha=s)
        misses = []
        for xn in np.geomspace(0.01, 5.0, 12):
            for phi in np.linspace(0.05, math.pi / 2.0, 9):
                res = cf.radial_integral(f, (0.3, xn), (math.cos(phi), math.sin(phi)),
                                         s, cfg)
                if res.converged and abs(res.value) > res.abs_error_estimate:
                    misses.append((xn, phi, res.value, res.abs_error_estimate))
        assert not misses, (len(misses), misses[:5])

    @pytest.mark.parametrize("x, theta, order", [
        ((math.nan, 1.0), (1.0, 0.0), 0.5),
        ((0.3, 1.0, 0.0), (1.0, 0.0), 0.5),
        ((0.3, 1.0), (1.0, 0.0, 0.0), 0.5),
        ((0.3, 1.0), (math.nan, 0.0), 0.5),
        ((0.3, 1.0), (1.0, 0.0), 0.7),
    ], ids=["nonfinite_point", "three_coordinates", "three_vector_direction",
            "nonfinite_direction", "other_order"])
    def test_refuses_what_apply_L_refuses(self, cfg, x, theta, order):
        # the integrand is apply_L's, and so are the checks on its inputs:
        # none of these may come back as a number or a raw numpy error
        f = cf.Bump(2, 0.5, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        with pytest.raises(InputDomainError):
            cf.radial_integral(f, x, theta, order, cfg)
        if theta == (1.0, 0.0):
            with pytest.raises(InputDomainError):
                cf.apply_L(cf.ConstantDensity(2), order, f, x, cfg)

    @pytest.mark.parametrize("xn", [1e-11, 1e-9])
    def test_refuses_as_near_a_kink_as_apply_L(self, cfg, xn):
        # both refuse within 1e-6 max(1, |x|) of a kink surface: along
        # phi = 0.7 the half-space power's integral is 0, and at
        # x_N = 1e-11 it once read 40,913 +- 19,978
        f = cf.HalfSpacePower(2, 0.5, alpha=0.5)
        theta = (math.cos(0.7), math.sin(0.7))
        with pytest.raises(NonsmoothPointError):
            cf.radial_integral(f, (0.3, xn), theta, 0.5, cfg)
        with pytest.raises(NonsmoothPointError):
            cf.apply_L(cf.ConstantDensity(2), 0.5, f, (0.3, xn), cfg,
                       force_numeric=True)


class TestMonteCarlo:
    def test_ball_volume_within_three_sigma(self, cfg):
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        res = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        assert abs(res.value - math.pi) <= 3.0 * res.abs_error_estimate

    def test_converged_flag_follows_the_tolerances(self, cfg):
        # the 3 sigma spread of 40,000 samples is about 0.05 here: far
        # outside the default tolerances, inside (0.1, 0.1)
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        res = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        assert 0.01 < res.abs_error_estimate < 0.1 and not res.converged
        assert cf.mc_region_volume(pred, (0.0, 0.0), 1.5,
                                   cfg.with_tol(0.1, 0.1)).converged

    def test_fixed_seed_is_reproducible(self, cfg):
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        a = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        b = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        assert a.value == b.value

    def test_sample_is_drawn_once_per_ball(self, cfg):
        # the seeded points of one ball are drawn once, handed on read-only,
        # and are the points a fresh draw gives
        seen = []

        def pred(pts):
            seen.append(pts)
            return np.linalg.norm(pts, axis=-1) <= 1.0

        for center, radius in (((0.0, 0.3), 1.5), ((0.0, 0.3), 1.5), ((0.0, 0.3), 1.2)):
            cf.mc_region_volume(pred, center, radius, cfg)
        assert seen[0] is seen[1] and seen[2] is not seen[0]
        assert not seen[0].flags.writeable
        rng = np.random.Generator(np.random.PCG64(cfg.mc_seed))
        dirs = rng.standard_normal(size=(cfg.mc_samples, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = 1.5 * rng.random(cfg.mc_samples) ** 0.5
        fresh = np.array([0.0, 0.3])[None, :] + dirs * radii[:, None]
        assert np.array_equal(seen[0], fresh)

    def test_seed_changes_the_sample_set(self, cfg):
        import dataclasses
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        a = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        b = cf.mc_region_volume(pred, (0.0, 0.0), 1.5,
                                dataclasses.replace(cfg, mc_seed=999))
        assert a.value != b.value
        assert b.value == pytest.approx(math.pi, abs=3.0 * b.abs_error_estimate)
