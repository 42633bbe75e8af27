"""Quadrature layer: the one-dimensional weight constant, sphere rules,
radial integrals, Monte Carlo volumes."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import binom

import conefrac as cf
from conefrac.errors import InputDomainError
from conefrac.quadrature import (DEFAULT_CONFIG, _gauss01, _geom_edges,
                                  _geometric_tail, _graded_rows, _kronrod01,
                                  _merge_edges, _octave_batch)


def series_tail_oracle(a, s, d=0.1, T=50.0):
    """Second route to the weight constant: termwise-integrated Taylor series
    near 0, plain quadrature on the smooth middle, binomial expansion tail."""
    ts = 2.0 * s
    head = sum(2.0 * binom(a, 2 * k) * d ** (2 * k - ts) / (2 * k - ts)
               for k in range(1, 9))
    m1, e1 = quad(lambda t: ((1 + t) ** a + (1 - t) ** a - 2.0) / t ** (1 + ts),
                  d, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    m2, e2 = quad(lambda t: ((1 + t) ** a - 2.0) / t ** (1 + ts),
                  1.0, T, epsabs=1e-13, epsrel=1e-12, limit=300)
    tail = sum(binom(a, j) * T ** (a - j - ts) / (ts + j - a) for j in range(8)) \
        - 2.0 * T ** (-ts) / ts
    return head + m1 + m2 + tail


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


class TestConfig:
    def test_with_tol_returns_new_config(self):
        cfg = DEFAULT_CONFIG.with_tol(1e-5, 1e-4)
        assert cfg.abs_tol == 1e-5
        assert cfg.rel_tol == 1e-4
        assert DEFAULT_CONFIG.abs_tol == 1e-8

    def test_defaults_are_sane(self):
        assert DEFAULT_CONFIG.max_subdivisions >= 1
        assert DEFAULT_CONFIG.sphere_panels >= 4


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
            assert abs(wk @ x ** d - 1.0 / (d + 1)) <= 1e-14

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
    @pytest.mark.parametrize("r", [0.5, -0.5])
    def test_geometric_rows_are_completed_exactly(self, r):
        v = 0.3 * r ** np.arange(3.0)
        rem, err = _geometric_tail(v[None, :])
        exact = v[-1] * r / (1.0 - r)
        assert rem[0] == pytest.approx(exact, rel=1e-14)
        assert err[0] <= 1e-11 * abs(exact)

    @pytest.mark.parametrize("row", [0.99 ** np.arange(3.0), [1.0, 0.0, 1e-3],
                                     [0.0, 1e-3, 1e-4]])
    def test_no_geometric_decay_gives_an_infinite_error(self, row):
        rem, err = _geometric_tail(np.asarray(row)[None, :])
        assert rem[0] == 0.0 and err[0] == math.inf

    def test_known_ratio_completes_slow_rows(self):
        # measured ratios at or above 0.97 fall back to the known ratio;
        # a term that does not follow it costs an infinite error
        q = np.array([0.99, 0.5])
        rows = np.array([0.99 ** np.arange(3.0), [1.0, 0.0, 1e-3]])
        rem, err = _geometric_tail(rows, q)
        assert rem[0] == pytest.approx(0.99 ** 3 / 0.01, rel=1e-12)
        assert err[0] <= 1e-10 * rem[0]
        assert err[1] == math.inf
        # a fast row keeps its measured ratio whatever the known one
        v = 0.3 * 0.5 ** np.arange(3.0)
        assert _geometric_tail(v[None, :], 0.9)[0][0] == _geometric_tail(v[None, :])[0][0]

    def test_row_ending_in_zero_needs_nothing(self):
        rem, err = _geometric_tail(np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0]]))
        assert np.array_equal(rem, [0.0, 0.0]) and np.array_equal(err, [0.0, 0.0])

    def test_octave_source_does_not_depend_on_its_batch(self):
        # int_0^1 kappa t^(kappa - 1) dt = 1.  The kappa = 1.5 source stops
        # after two chunks; batched with a slowly decaying kappa = 0.05
        # source, which runs on, it must still be completed the same way
        kappa = np.array([1.5, 0.05])

        def evalf(ts, ids):
            k = kappa[ids]
            return k * ts ** (k - 1.0)

        def run(n):
            ids = np.arange(n)
            return _octave_batch(evalf, np.ones(n), ids, n, np.full(n, 1e-8), ids,
                                 (7, 15))

        alone, alone_err, _ = run(1)
        both, both_err, _ = run(2)
        assert abs(alone[0] - 1.0) <= 1e-15
        assert both[0] == alone[0] and both_err[0] == alone_err[0]
        assert abs(both[1] - 1.0) <= both_err[1]

    def test_stopped_source_keeps_its_stop_charge(self):
        # F(t) = t^2 - a t^3 with a = 6 / (7 u0): the octave [u0/2, u0],
        # u0 = 2^-9, integrates to 0, so the last three octaves of the first
        # chunk are not geometric although the source stops after it; its
        # stop charge bounds the rest, 2^-24 - a 2^-36
        u0 = 2.0 ** -9
        a = 6.0 / (7.0 * u0)

        def evalf(ts, ids):
            return 2.0 * ts - 3.0 * a * ts ** 2

        one = np.zeros(1, dtype=np.int64)
        val, err, nev = _octave_batch(evalf, np.ones(1), one, 1, np.full(1, 1e-5),
                                      one, (7, 15))
        assert nev == 12 * (7 + 15)
        assert math.isfinite(err[0])
        assert abs(val[0] - (1.0 - a)) <= err[0] <= 1e-6


class TestSphereQuadrature:
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


class TestMonteCarlo:
    def test_ball_volume_within_three_sigma(self, cfg):
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        res = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        assert abs(res.value - math.pi) <= 3.0 * res.abs_error_estimate

    def test_fixed_seed_is_reproducible(self, cfg):
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        a = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        b = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        assert a.value == b.value

    def test_seed_changes_the_sample_set(self, cfg):
        import dataclasses
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 1.0
        a = cf.mc_region_volume(pred, (0.0, 0.0), 1.5, cfg)
        b = cf.mc_region_volume(pred, (0.0, 0.0), 1.5,
                                dataclasses.replace(cfg, mc_seed=999))
        assert a.value != b.value
        assert b.value == pytest.approx(math.pi, abs=3.0 * b.abs_error_estimate)
