"""Operator evaluation: closed forms, the independent cross-check oracle,
calculus identities, bilinear pairings."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

import conefrac as cf
from conefrac.errors import (AccuracyError, InputDomainError,
                             NonsmoothPointError, TruncationError)

S = 0.5

# second route to L(bump) at one point, cone plateau weight, computed by
# per-arc Gauss in the angle and adaptive radial quadrature; see the helper
PLANE_ORACLE_VALUE = -10.99635945629


def arc_quadrature_oracle(f, x, T=6.0):
    """Angular decomposition of the weighted second-difference integral for the
    plateau weight with axis e_1, aperture cos 0.7: the weight is constant on
    each of the four arcs between the cap edges."""
    fx = f.value(x)

    def ray(phi):
        th = np.array([math.cos(phi), math.sin(phi)])
        val, _ = quad(
            lambda t: (f.value(x + t * th) + f.value(x - t * th) - 2.0 * fx) / t ** 2,
            0.0, T, limit=300, epsabs=1e-13, epsrel=1e-12)
        return val - 2.0 * fx / T

    edge = math.acos(0.7)
    arcs = [(-edge, edge, 1.0), (edge, math.pi - edge, 0.25),
            (math.pi - edge, math.pi + edge, 1.0),
            (math.pi + edge, 2.0 * math.pi - edge, 0.25)]
    nodes, weights = roots_legendre(48)
    total = 0.0
    for lo, hi, weight in arcs:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += weight * half * sum(
            wi * ray(mid + half * xi) for xi, wi in zip(nodes, weights))
    return total


class TestClosedForms:
    def test_zero_function(self, const2, fast_cfg):
        ev = cf.apply_L(const2, S, cf.Zero(2, S), np.array([0.3, 1.0]), fast_cfg)
        assert ev.value == 0.0
        assert ev.path == "closed_form"

    def test_constant_function(self, const2, fast_cfg):
        ev = cf.apply_L(const2, S, cf.Constant(2, S, c=2.0),
                        np.array([0.3, 1.0]), fast_cfg)
        assert ev.value == 0.0

    def test_halfspace_power_closed_value(self, const2, cfg):
        # L(x_N)_+^a = c_a * moment * x_N^{a-2s} above the plane
        alpha = 0.4
        f = cf.HalfSpacePower(2, S, alpha=alpha)
        x = np.array([0.3, 1.7])
        ev = cf.apply_L(const2, S, f, x, cfg)
        expected = (cf.c_alpha(alpha, S, cfg).value
                    * cf.weighted_sphere_moment(const2, S, cfg).value
                    * 1.7 ** (alpha - 2.0 * S))
        assert ev.path == "closed_form"
        assert ev.value == pytest.approx(expected, rel=1e-9)

    def test_halfspace_power_helper_agrees(self, const2, cfg):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        x = np.array([0.3, 1.7])
        direct = cf.apply_L(const2, S, f, x, cfg)
        helper = cf.apply_L_halfspace_power(const2, S, 0.4, x, cfg)
        assert helper.value == pytest.approx(direct.value, rel=1e-12)

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_closed_vs_numeric_route(self, const2, fast_cfg, frac):
        f = cf.HalfSpacePower(2, S, alpha=frac * 2.0 * S)
        x = np.array([0.7, 1.3])
        closed = cf.apply_L(const2, S, f, x, fast_cfg)
        numeric = cf.apply_L(const2, S, f, x, fast_cfg, force_numeric=True)
        assert numeric.path == "numeric"
        if abs(closed.value) < 1e-10:
            # the exponent sits at the sign change, both routes are near zero
            assert abs(numeric.value - closed.value) <= 1e-8
        else:
            assert numeric.value == pytest.approx(closed.value, rel=1e-5)

    def test_scaling_with_power_of_height(self, const2, cfg):
        # the closed form is homogeneous of degree alpha - 2s in the height
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        lo = cf.apply_L(const2, S, f, np.array([0.0, 1.0]), cfg)
        hi = cf.apply_L(const2, S, f, np.array([0.0, 2.0]), cfg)
        assert hi.value == pytest.approx(lo.value * 2.0 ** (0.4 - 1.0), rel=1e-10)


class TestNumericOracle:
    def test_bump_value_against_arc_oracle(self, cone2, fast_cfg):
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        x = np.array([0.3, 1.0])
        oracle = arc_quadrature_oracle(f, x)
        assert oracle == pytest.approx(PLANE_ORACLE_VALUE, abs=1e-8)
        ev = cf.apply_L(cone2, S, f, x, fast_cfg, force_numeric=True)
        assert ev.value == pytest.approx(PLANE_ORACLE_VALUE, abs=1e-7)
        assert ev.converged


class TestEvaluationCost:
    # reference from paired G7/G15 sphere panels graded 15 levels deep at
    # every kink direction, which took 5,223,328 evaluations
    BUMP_VALUE = -13.973520776508265

    def test_bump_point_within_evaluation_budget(self, const2, cfg):
        # nested Gauss-Kronrod sphere panels and a shallow start that
        # refinement grades only where needed reach the same value for well
        # under half the evaluations
        f = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4)
        ev = cf.apply_L(const2, S, f, (0.3, 0.9), cfg)
        assert ev.converged
        assert abs(ev.value - self.BUMP_VALUE) <= ev.abs_error_estimate
        assert ev.n_evals <= 2_600_000


class TestIdentities:
    def test_rescaling_identity(self, const2, fast_cfg):
        # L f_R (x) = R^{-2s} (L f)(x / R) for f_R(x) = f(x / R)
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        R = 2.0
        x = np.array([0.6, 2.0])
        left = cf.apply_L(const2, S, cf.Rescale(f, R), x, fast_cfg)
        right = cf.apply_L(const2, S, f, x / R, fast_cfg)
        resid = abs(left.value - R ** (-2.0 * S) * right.value)
        budget = left.abs_error_estimate + R ** (-2.0 * S) * right.abs_error_estimate
        assert resid <= max(budget, 1e-8)

    def test_product_rule_with_correction(self, const2, fast_cfg):
        g = cf.HalfSpacePower(2, S, alpha=0.4)
        h = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5)
        x = np.array([0.05, 0.95])
        lhs = cf.apply_L(const2, S, cf.Product(g, h), x, fast_cfg)
        Lg = cf.apply_L(const2, S, g, x, fast_cfg)
        Lh = cf.apply_L(const2, S, h, x, fast_cfg)
        corr = cf.correction_l(const2, S, g, h, x, fast_cfg)
        rhs = g.value(x) * Lh.value + h.value(x) * Lg.value + corr.value
        scale = max(abs(lhs.value), abs(rhs), 1.0)
        assert abs(lhs.value - rhs) <= 1e-5 * scale

    def test_kelvin_closed_vs_numeric(self, const2, cfg):
        kelvin_cfg = cfg.with_tol(1e-5, 1e-4)
        f = cf.KelvinHalfSpacePower(2, S, alpha=0.25)
        x = np.array([0.5, 0.8])
        closed = cf.apply_L(const2, S, f, x, kelvin_cfg)
        numeric = cf.apply_L(const2, S, f, x, kelvin_cfg, force_numeric=True)
        assert closed.path == "closed_form"
        assert numeric.value == pytest.approx(closed.value, rel=1e-4)


class TestPairing:
    def test_symmetric_case_has_zero_residual(self, const2, cfg):
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5))
        rep = cf.pairing(const2, S, v, v, 50.0, cfg)
        assert rep.residual == 0.0
        assert rep.I_uLv == pytest.approx(-24.1342539, rel=1e-6)

    def test_disjoint_bumps_against_convolution_oracle(self, const2, cfg):
        # supports separated by more than both diameters: the pairing reduces
        # to a double integral of u(x) v(y) k(x - y), evaluated independently
        # on tensor Gauss grids over the two support balls
        u = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        v = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.2, r_out=0.4)
        rep = cf.pairing(const2, S, u, v, 50.0, cfg)
        nodes, weights = roots_legendre(64)

        def grid(center, r):
            half = r
            pts1 = center[0] + half * nodes
            pts2 = center[1] + half * nodes
            P = np.stack(np.meshgrid(pts1, pts2, indexing="ij"), axis=-1).reshape(-1, 2)
            W = (half * weights)[:, None] * (half * weights)[None, :]
            return P, W.reshape(-1)

        # kernel for the constant weight: |x - y|^{-2 - 2s}; no principal
        # value needed since the supports are disjoint
        Pu, Wu = grid((0.0, 3.0), 0.4)
        Pv, Wv = grid((0.0, 1.0), 0.4)
        fu = u.values(Pu) * Wu
        fv = v.values(Pv) * Wv
        diff = Pu[:, None, :] - Pv[None, :, :]
        kern = np.sum(diff * diff, axis=-1) ** (-1.0 - S)
        oracle = 2.0 * float(fu @ kern @ fv)
        assert oracle == pytest.approx(2.1639342e-2, rel=1e-5)
        assert rep.I_vLu == pytest.approx(oracle, rel=1e-3)
        assert rep.residual <= 1e-3 * max(abs(rep.I_uLv), abs(rep.I_vLu))

    def test_u_must_vanish_below_the_plane(self, const2, cfg):
        v = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        with pytest.raises(InputDomainError):
            cf.pairing(const2, S, cf.WholeSpaceBump(2, S), v, 50.0, cfg)

    def test_v_must_be_compact(self, const2, cfg):
        u = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        with pytest.raises(InputDomainError):
            cf.pairing(const2, S, u, cf.HalfSpacePower(2, S, alpha=0.4), 50.0, cfg)

    def test_undersized_box_raises(self, const2, cfg):
        u = cf.translate_truncate(cf.kelvin(0.25, 2, S))
        v = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        with pytest.raises(TruncationError):
            cf.pairing(const2, S, u, v, 6.0, cfg)


class TestErrorPolicy:
    def test_kink_point_is_refused(self, const2, fast_cfg):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        with pytest.raises(NonsmoothPointError):
            cf.apply_L(const2, S, f, np.array([0.5, 0.0]), fast_cfg)

    def test_singular_point_is_refused(self, const2, fast_cfg):
        f = cf.kelvin(0.25, 2, S)
        with pytest.raises(NonsmoothPointError):
            cf.apply_L(const2, S, f, np.array([0.0, 0.0]), fast_cfg)

    def test_strict_mode_raises_when_budget_missed(self, const2, cfg):
        # with refinement switched off the a-priori panel layout cannot meet
        # the tight default target on the decaying power
        no_refine = dataclasses.replace(cfg, max_subdivisions=0)
        f = cf.KelvinHalfSpacePower(2, S, alpha=0.25)
        x = np.array([0.5, 0.8])
        with pytest.raises(AccuracyError):
            cf.apply_L(const2, S, f, x, no_refine, force_numeric=True)

    def test_non_strict_mode_reports_instead(self, const2, cfg):
        no_refine = dataclasses.replace(cfg, max_subdivisions=0)
        f = cf.KelvinHalfSpacePower(2, S, alpha=0.25)
        x = np.array([0.5, 0.8])
        ev = cf.apply_L(const2, S, f, x, no_refine, force_numeric=True,
                        strict=False)
        assert not ev.converged
        closed = cf.apply_L(const2, S, f, x, cfg)
        assert ev.value == pytest.approx(closed.value, abs=5.0 * ev.abs_error_estimate)
