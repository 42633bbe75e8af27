"""Quadrature layer: the one-dimensional weight constant, sphere rules,
radial integrals, Monte Carlo volumes."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import binom

import conefrac as cf
from conefrac.errors import InputDomainError
from conefrac.quadrature import DEFAULT_CONFIG, _gauss01, _kronrod01


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
