"""Operator evaluation: closed forms, the independent cross-check oracle,
calculus identities, bilinear pairings."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

import conefrac as cf
from conefrac import operators
from conefrac.errors import (AccuracyError, InputDomainError,
                             NonsmoothPointError, TruncationError)
from conefrac.operators import (_FAR_ORDER, _FAR_RHO, _conv_L, _conv_source,
                                _excised_L_compact, _far_pair, _far_sum,
                                _L_field, _mass_only_L, _mass_pair)
from conefrac.quadrature import _jump_angles_2d

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

    @pytest.mark.parametrize("factor", [
        lambda f: cf.ScalarMultiple(0.0, f),
        lambda f: cf.ScalarMultiple(-0.7, cf.ScalarMultiple(0.0, f)),
        lambda f: cf.Constant(2, S, c=2.0),
        lambda f: cf.ScalarMultiple(-0.7, cf.Constant(2, S, c=2.0)),
    ], ids=["zero_multiple", "nested_zero_multiple", "constant",
            "constant_multiple"])
    @pytest.mark.parametrize("side", ["g", "h"])
    def test_correction_with_a_constant_factor_is_zero(self, const2, fast_cfg,
                                                        factor, side):
        # l[g, h] integrates the product of both factors' differences, so a
        # constant factor, or a zero multiple of any, gives 0 at no cost
        f = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4)
        other = cf.HalfSpacePower(2, S, alpha=0.4)
        g, h = (factor(f), other) if side == "g" else (other, factor(f))
        ev = cf.correction_l(const2, S, g, h, (0.3, 1.0), fast_cfg)
        assert ev.path == "closed_form"
        assert (ev.value, ev.abs_error_estimate, ev.n_evals) == (0.0, 0.0, 0)

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

    def test_closed_form_estimate_covers_c_alpha_error(self, cone2, fast_cfg):
        # the closed form multiplies c_alpha by the sphere moment, so its
        # estimate must carry c_alpha's own quadrature error, not only the
        # moment's
        alpha = 0.4
        x = np.array([0.6456, 0.5146])
        ev = cf.apply_L(cone2, S, cf.HalfSpacePower(2, S, alpha=alpha), x,
                        fast_cfg)
        assert ev.path == "closed_form"
        moment = cf.weighted_sphere_moment(cone2, S, fast_cfg).value
        ca = cf.c_alpha(alpha, S, fast_cfg)
        assert ca.abs_error_estimate > 0.0
        assert ev.abs_error_estimate >= (abs(moment * x[-1] ** (alpha - 2.0 * S))
                                         * ca.abs_error_estimate)

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

    # reference from the same point at abs 1e-12, rel 1e-11 (estimate 5e-11)
    PRODUCT_VALUE = -14.19888057618777

    def test_product_point_within_evaluation_budget(self, const2, cfg):
        # radial tasks start graded six levels deep and refine only the
        # directions whose error needs it
        f = cf.Product(cf.HalfSpacePower(2, S, alpha=0.3),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4))
        ev = cf.apply_L(const2, S, f, (0.3, 0.9), cfg)
        assert ev.converged
        assert abs(ev.value - self.PRODUCT_VALUE) <= ev.abs_error_estimate
        assert ev.n_evals <= 2_000_000


class TestZeroValues:
    @pytest.mark.parametrize(
        "x", [(0.0, 0.1), (0.3 * math.sin(1.7), 0.1 + 4.9 / 19)],
        ids=["on_axis", "off_axis"])
    def test_alpha_equal_s_converges_to_zero(self, const2, cfg, x):
        # the two criterion-02 points where L(x_N)_+^s = 0: every direction
        # integrates to 0 while its panel sum alone does not, so a target
        # taken against that partial sum would pass directions early
        f = cf.HalfSpacePower(2, S, alpha=S)
        ev = cf.apply_L(const2, S, f, x, cfg.with_tol(5e-9, 1e-7),
                        force_numeric=True, strict=False)
        assert ev.converged
        assert abs(ev.value) <= ev.abs_error_estimate


class TestCalibration:
    @pytest.mark.parametrize("density, k, tols", [
        pytest.param(d, k, tols, id=f"{d}-{k}" + ("-tight" if tols else ""))
        for tols in (None, (1e-12, 1e-11)) for d in ("cone2", "const2")
        for k in (1, 3, 5)])
    def test_correction_of_two_halfspace_powers(self, request, cfg, density, k,
                                                tols):
        # l[g, h] = L(gh) - g Lh - h Lg, with gh = (x_N)_+^0.8 and all three
        # operator values in closed form.  The tail of the numerator is a sum
        # of powers (kappa = 0.2 and 0.4), so its completion must cover both
        # at the tight tolerance too, where the octave panels' own rule
        # errors keep k = 1 and 3 (and the cone's k = 5) short of converging
        a = request.getfixturevalue(density)
        if tols:
            cfg = cfg.with_tol(*tols)
        g = cf.HalfSpacePower(2, S, alpha=0.2)
        h = cf.HalfSpacePower(2, S, alpha=0.6)
        x = np.array([0.17, 2.0 ** -k])
        corr = cf.correction_l(a, S, g, h, x, cfg, strict=False)
        Lgh, Lg, Lh = (cf.apply_L(a, S, cf.HalfSpacePower(2, S, alpha=al), x, cfg)
                       for al in (0.8, 0.2, 0.6))
        assert {Lgh.path, Lg.path, Lh.path} == {"closed_form"}
        gx, hx = g.value(x), h.value(x)
        ref = Lgh.value - gx * Lh.value - hx * Lg.value
        budget = (corr.abs_error_estimate + Lgh.abs_error_estimate
                  + abs(gx) * Lh.abs_error_estimate + abs(hx) * Lg.abs_error_estimate)
        assert corr.converged or tols
        assert abs(corr.value - ref) <= budget


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


class TestMassKernel:
    """_conv_L against a direct loop over (point, node) pairs that uses only
    the public density evaluation and the kernel |z - x|^{-N-2s}."""

    DENSITIES = {
        "constant_1d": cf.ConstantDensity(1),
        "constant_2d": cf.ConstantDensity(2),
        "constant_2d_scaled": cf.ConstantDensity(2, 2.5),
        "cone": cf.ConePlateauDensity(2, cf.Cone((1.0, 0.0), 0.3), 1.0, 0.25),
        "cone_tilted": cf.ConePlateauDensity(2, cf.Cone((0.6, 0.8), 0.5), 1.0, 0.0),
        # an even smooth weight: the kernel's default unit-vector path
        "custom": cf.CustomDensity(2, evaluator=lambda th: 1.0 + 0.5 * th[:, 0] ** 2,
                                   upper=1.5),
    }
    PLATEAUS = ("cone", "cone_tilted")

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_matches_direct_loop(self, name):
        a = self.DENSITIES[name]
        dim = a.dim
        rng = np.random.default_rng(11)
        # nodes in a small cube at the origin, points on the sphere of radius
        # 2 around it, so the directions z - x cover every angle
        z = rng.uniform(-0.35, 0.35, size=(30, dim))
        dirs = rng.normal(size=(9, dim))
        X = 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        w = rng.uniform(-1.0, 1.0, size=30)
        got = _conv_L(a, S, z, w, X)
        want = np.zeros(X.shape[0])
        seen = set()
        for i, x in enumerate(X):
            for j, zj in enumerate(z):
                r = float(np.linalg.norm(zj - x))
                aval = a((zj - x) / r)
                seen.add(aval)
                want[i] += 2.0 * w[j] * aval * r ** (-dim - 2.0 * S)
        assert got.shape == (X.shape[0],)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        if name in self.PLATEAUS:
            assert seen == {a.inside, a.outside}
        # two weight rows on the same nodes: one row of sums per weight, each
        # the single-row call bit for bit and the pair loop's sum
        w2 = np.stack([w, rng.uniform(-1.0, 1.0, size=30)])
        got2 = _conv_L(a, S, z, w2, X)
        assert got2.shape == (2, X.shape[0])
        np.testing.assert_array_equal(got2[0], got)
        np.testing.assert_array_equal(got2[1], _conv_L(a, S, z, w2[1], X))
        want1 = np.zeros(X.shape[0])
        for i, x in enumerate(X):
            for j, zj in enumerate(z):
                r = float(np.linalg.norm(zj - x))
                want1[i] += (2.0 * w2[1, j] * a((zj - x) / r)
                             * r ** (-dim - 2.0 * S))
        np.testing.assert_allclose(got2[1], want1, rtol=1e-12)

    def test_plateau_offsets_match_the_unit_vector_path(self):
        # the plateau reads raw offsets and their r^2: on 10^4 offsets at
        # scales 1e-3 to 1e3 it gives what normalising to unit vectors gives,
        # bit for bit, and the raw test is even and exact under scaling by
        # powers of two (d by 2^k, r^2 by 4^k)
        rng = np.random.default_rng(17)
        dirs = rng.normal(size=(2, 10_000))
        d = dirs * 10.0 ** rng.uniform(-3.0, 3.0, size=10_000)
        r2 = d[0] * d[0] + d[1] * d[1]
        for name in self.PLATEAUS:
            a = self.DENSITIES[name]
            got = a._eval_offsets(d, r2)
            assert set(np.unique(got)) == {a.inside, a.outside}
            np.testing.assert_array_equal(
                got, cf.SpectralDensity._eval_offsets(a, d, r2))
            np.testing.assert_array_equal(got, a._eval_offsets(-d, r2))
            for k in (-7, -1, 1, 9):
                np.testing.assert_array_equal(
                    got, a._eval_offsets(2.0 ** k * d, 4.0 ** k * r2))

    @settings(max_examples=30, deadline=None)
    @given(density=st.sampled_from(["constant_2d", "cone"]),
           cx=st.floats(-2.0, 2.0), gap=st.floats(0.05, 2.0),
           r_out=st.floats(0.1, 0.8), r_in=st.floats(0.1, 0.9),
           alpha=st.one_of(st.none(), st.floats(0.05, 0.95)),
           rows=st.lists(st.tuples(st.floats(0.05, _FAR_RHO),
                                   st.integers(0, 3), st.floats(-0.15, 0.15)),
                         min_size=1, max_size=4),
           order=st.sampled_from([6, _FAR_ORDER]))
    def test_far_field_expansion_within_its_remainder_bound(
            self, density, cx, gap, r_out, r_in, alpha, rows, order):
        # a bump, or x_N^alpha times it, clear of the plane, and rows at
        # rho = r / |x - c| in [0.05, 1/2] within 0.15 rad of a coordinate
        # axis through c: their windows, at most 30 degrees wide on each
        # side, miss the cone's jump directions at +-45.6 degrees from e_1
        # and from -e_1.  The expansion of the fine grid differs from its
        # direct sum by at most the remainder bound, plus rounding, also at
        # a low order, and each row is its lone-row call bit for bit
        a = self.DENSITIES[density]
        c = np.array([cx, r_out + gap])
        f = cf.Bump(2, S, center=tuple(c), r_in=r_in * r_out, r_out=r_out)
        if alpha is not None:
            f = cf.Product(cf.HalfSpacePower(2, S, alpha=alpha), f)
        z, wv = _conv_source(f, True)
        X = np.array([c + r_out / rho * np.array([math.cos(ph), math.sin(ph)])
                      for rho, k, off in rows
                      for ph in [0.5 * math.pi * k + off]])
        got, tail, _ = _far_sum(a, S, z, wv, c, r_out, X, order)
        direct = _conv_L(a, S, z, wv, X)
        rounding = 1e-13 * _conv_L(a, S, z, np.abs(wv), X)
        assert np.all(np.abs(got - direct) <= tail + rounding)
        for i in range(X.shape[0]):
            one, one_tail, _ = _far_sum(a, S, z, wv, c, r_out, X[i:i + 1],
                                        order)
            assert one[0].hex() == got[i].hex()
            assert one_tail[0].hex() == tail[i].hex()

    @pytest.mark.parametrize("s,u,X", [
        (0.3, cf.translate_truncate(cf.kelvin(0.15, 1, 0.3)), [-0.01, -0.5, -3.0]),
        # a bump clear of the boundary point: its kink points need edges
        (0.5, cf.Bump(1, 0.5, center=(1.0,), r_in=0.2, r_out=0.5), [-0.05, -0.5, -2.0]),
    ], ids=["translate_truncate", "bump"])
    def test_mass_only_field_in_one_dimension(self, s, u, X):
        # below the boundary point only the mass of u reaches x, so
        # Lu(x) = 2 int_0^inf u(z) (z - x)^{-1-2s} dz, here against scipy's quad
        a = cf.ConstantDensity(1)
        X = np.array(X)[:, None]
        vals, errs, nev = _mass_only_L(a, s, u, X)
        assert nev > 0
        for x, v, e in zip(X[:, 0], vals, errs):
            oracle, _ = quad(lambda t: 2.0 * u.value(np.array([t]))
                             * (t - x) ** (-1.0 - 2.0 * s), 0.0, np.inf,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(v - oracle) <= e <= 0.05 * abs(oracle)


class TestRouteTable:
    """_L_field gives each point the first route that applies to it, and a
    point's value does not depend on the rest of its batch."""

    @settings(max_examples=10, deadline=None)
    @given(phi=st.floats(0.0, 2.0 * math.pi), height=st.floats(0.3, 1.5),
           rho=st.one_of(st.floats(0.0, 0.15), st.floats(0.25, 0.35),
                         st.floats(0.45, 2.5)),
           psi=st.floats(0.0, 2.0 * math.pi))
    def test_rotation_equivariance_for_the_constant_density(
            self, const2, cfg, phi, height, rho, psi):
        # L commutes with rotations about the origin when a is constant: a
        # bump centred at (0, height) and a point x at distance rho from the
        # centre, clear of both kink circles, rotated together by phi, give
        # the same value within both estimates.  The rotation may move the
        # point across the plane or the bump onto it, so the two rows can
        # take different routes among the mass-only, convolution and
        # excision forms
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        c = np.array([0.0, height])
        x = c + rho * np.array([math.cos(psi), math.sin(psi)])
        xr = rot @ x
        assume(min(abs(x[1]), abs(xr[1])) > 0.05)
        f = cf.Bump(2, S, center=tuple(c), r_in=0.2, r_out=0.4)
        fr = cf.Bump(2, S, center=tuple(rot @ c), r_in=0.2, r_out=0.4)
        v, e, _ = _L_field(const2, S, f, x[None, :], cfg)
        vr, er, _ = _L_field(const2, S, fr, xr[None, :], cfg)
        assert abs(vr[0] - v[0]) <= e[0] + er[0]

    @pytest.mark.parametrize("a,f,X", [
        (cf.ConstantDensity(1), cf.Bump(1, S, center=(2.0,), r_in=0.5, r_out=1.0),
         [[2.1], [2.7]]),
        (cf.ConstantDensity(3),
         cf.Product(cf.HalfSpacePower(3, S, alpha=0.4),
                    cf.Bump(3, S, center=(0.0, 0.0, 2.0), r_in=0.5, r_out=1.0)),
         [[0.1, 0.0, 2.1]]),
    ], ids=["N1_bump", "N3_product"])
    def test_compact_member_off_two_dimensions(self, cfg, a, f, X):
        # the excision form is two-dimensional; elsewhere a compact member
        # takes the polar route instead of raising
        X = np.array(X)
        vals, errs, nev = _L_field(a, S, f, X, cfg)
        total = 0
        for x, v, e in zip(X, vals, errs):
            ev = cf.apply_L(a, S, f, x, cfg)
            assert ev.converged
            assert (v, e) == (ev.value, ev.abs_error_estimate)
            total += ev.n_evals
        assert nev == total

    @pytest.mark.parametrize("f", [
        cf.ScalarMultiple(-2.7, cf.kelvin(0.25, 2, S)),
        cf.HalfSpacePower(2, S, alpha=0.3),
    ], ids=["scaled_kelvin", "halfspace_power"])
    def test_mixed_batch_rows_match_single_points(self, const2, fast_cfg, f):
        # upper points take the closed form, lower ones the mass-only route
        # (kelvin) or the polar route (the half-space power, whose far field
        # is unknown), in one batch
        X = np.array([[0.3, 0.8], [-0.4, -0.6], [1.1, 0.2], [0.7, -1.3]])
        vals, errs, _ = _L_field(const2, S, f, X, fast_cfg)
        for i, x in enumerate(X):
            alone, alone_err, _ = _L_field(const2, S, f, X[i:i + 1], fast_cfg)
            assert (vals[i], errs[i]) == (alone[0], alone_err[0])
            ev = cf.apply_L(const2, S, f, x, fast_cfg, strict=False)
            assert ev.path == ("closed_form" if x[-1] > 0.0 else "numeric")
            if ev.path == "closed_form":
                assert abs(vals[i] - ev.value) <= np.spacing(abs(ev.value))
            else:
                assert abs(vals[i] - ev.value) <= errs[i] + ev.abs_error_estimate

    @pytest.mark.parametrize("f,X", [
        (cf.translate_truncate(cf.kelvin(0.25, 2, S)), [[0.7, -1.3], [0.0, -1000.0]]),
        (cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                    cf.Bump(2, S, center=(0.0, 1.0), r_in=0.3, r_out=0.6)),
         [[0.7, -1.3], [0.0, -5.0]]),
    ], ids=["decaying", "compact"])
    def test_mass_only_rows_do_not_depend_on_a_far_row(self, const2, cfg, f, X):
        # a far lower row beside a near one must not widen the near row's
        # grid: the decaying member's span is set per row, the compact
        # member's grid covers its support only
        X = np.array(X)
        vals, errs, _ = _L_field(const2, S, f, X, cfg)
        for i in range(X.shape[0]):
            alone, alone_err, _ = _L_field(const2, S, f, X[i:i + 1], cfg)
            assert (vals[i], errs[i]) == (alone[0], alone_err[0])

    def test_excision_rows_do_not_depend_on_a_far_row(self, const2, cfg):
        # a far row must not lengthen a near row's radial grid: each row's
        # reach is the power of two at or above its farthest support point
        f = cf.Product(cf.HalfSpacePower(2, S, alpha=0.75),
                       cf.Bump(2, S, center=(0.0, 0.75), r_in=0.875, r_out=1.0))
        X = np.array([[0.0, 0.67], [0.5, 1.2], [1.6, 0.4]])
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        vals, errs, _ = _L_field(const2, S, f, X, loose)
        for i in range(X.shape[0]):
            alone, alone_err, _ = _excised_L_compact(const2, S, (f,),
                                                     X[i:i + 1], None)
            assert (vals[i], errs[i]) == (alone[0, 0], alone_err[0, 0])

    @pytest.mark.parametrize("density,far,crossing", [
        ("const2", [True, True, True, False], [False] * 4),
        ("cone2", [True, False, True, False], [False, True, False, True]),
    ], ids=["const2", "cone2"])
    def test_far_rows_of_a_compact_member_take_the_convolution_form(
            self, request, cfg, density, far, crossing):
        # the route table builds the member's own fine and coarse polar
        # grids for the rows 0.35 radii or more outside its support.  Rows
        # with rho = r / |x - c| <= 1/2 (the first three) whose jump lines
        # miss the support take the far-field expansion, within its estimate
        # of the direct sum.  The rest keep the direct sum's values bit for
        # bit, and its errors too, except that a cone row whose jump line
        # meets the support (the second and the last) adds to its error
        a = request.getfixturevalue(density)
        f = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        X = np.array([[0.0, 1.0], [0.5, 2.2], [1.5, 3.5], [-0.3, 3.6]])
        far, crossing = np.array(far), np.array(crossing)
        vals, errs, nev = _L_field(a, S, f, X, cfg)
        sources = (_conv_source(f, True), _conv_source(f, False))
        direct = _mass_pair(a, S, sources, X)
        expanded = _far_pair(a, S, sources, np.array([0.0, 3.0]), 0.4, X[far],
                             _FAR_ORDER)
        assert np.array_equal(vals[far], expanded[0])
        assert np.array_equal(errs[far], expanded[1])
        assert np.all(np.abs(vals[far] - direct[0][far]) <= errs[far])
        assert np.array_equal(vals[~far], direct[0][~far])
        keep = ~far & ~crossing
        assert np.array_equal(errs[keep], direct[1][keep])
        assert np.all(errs[crossing] > direct[1][crossing])
        n_fine = sources[0][0].shape[0]
        assert nev == (expanded[2] + _mass_pair(a, S, sources, X[~far])[2]
                       + np.count_nonzero(crossing) * n_fine)

    # criterion 06's weight v: rows taking the far-field expansion, with
    # both densities, and cone rows 1.6 to 2.6 radii from the centre whose
    # jump line meets the support, where the fine-coarse gap alone missed
    # by 4.6x to 8.1x.  The same rows with cone2's weight as a custom
    # density need the cut-cell bound just as much
    @pytest.mark.parametrize("density,x,kind", [
        ("const2", (1.076, 1.231), "far"),
        ("const2", (-0.381, 2.032), "far"),
        ("const2", (0.657, 0.118), "far"),
        ("const2", (-1.319, 0.287), "far"),
        ("cone2", (1.076, 1.231), "far"),
        ("cone2", (0.237, 2.074), "far"),
        ("cone2", (0.344, 0.169), "crossing"),
        ("cone2", (-0.739, 0.694), "crossing"),
        ("cone2", (0.791, 2.031), "crossing"),
        ("cone2", (-0.739, 1.306), "crossing"),
        ("custom2", (0.344, 0.169), "crossing"),
        ("custom2", (-0.739, 0.694), "crossing"),
        ("custom2", (0.791, 2.031), "crossing"),
        ("custom2", (-0.739, 1.306), "crossing"),
    ])
    def test_convolution_rows_cover_a_tight_polar_oracle(self, request, cfg,
                                                         density, x, kind):
        a = request.getfixturevalue(density)
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5))
        w = np.array(x) - np.array([0.0, 1.0])
        crossing = any(abs(w[0] * math.sin(ph) - w[1] * math.cos(ph)) <= 0.5
                       for ph in _jump_angles_2d(a))
        assert kind == ("crossing" if crossing else "far")
        assert crossing or 0.5 <= _FAR_RHO * np.linalg.norm(w)
        vals, errs, _ = _L_field(a, S, v, np.array([x]), cfg)
        oracle = cf.apply_L(a, S, v, x, cfg.with_tol(1e-10, 1e-10))
        assert abs(vals[0] - oracle.value) <= errs[0]

    # route kernels, each counted by the name _L_field calls it under
    KERNELS = ("_closed_rows", "_tt_kelvin_L", "_mass_only_L", "_conv_source",
               "_excised_L_compact", "apply_L")

    @pytest.mark.parametrize("density,f,X,kernel", [
        ("const2", cf.HalfSpacePower(2, S, alpha=0.3), [[0.3, 0.8], [1.1, 0.2]],
         "_closed_rows"),
        ("const2", cf.translate_truncate(cf.kelvin(0.25, 2, S)),
         [[0.3, 0.8], [0.7, 2.0]], "_tt_kelvin_L"),
        ("const2", cf.kelvin(0.25, 2, S), [[0.7, -1.3], [-0.4, -0.6]],
         "_mass_only_L"),
        ("cone2", cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4),
         [[0.0, 1.0], [0.5, 2.2]], "_conv_source"),
        ("const2", cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4),
         [[0.1, 3.1]], "_excised_L_compact"),
        ("const2", cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                              cf.Bump(2, S, center=(0.0, 0.75), r_in=0.875,
                                      r_out=1.0)),
         [[0.2, 0.05], [1.1, 0.05]], "_excised_L_compact"),
        ("cone2", cf.kelvin(0.25, 2, S), [[0.3, 0.8]], "apply_L"),
    ], ids=["closed", "tt_kelvin", "mass_only", "convolution", "excision",
            "near_plane", "polar"])
    def test_a_scalar_multiple_routes_its_unscaled_function(
            self, monkeypatch, request, cfg, density, f, X, kernel):
        # L is linear: the route table evaluates the unscaled function once
        # and scales its rows, values by eps and errors by |eps|, bit for
        # bit, with the same kernel calls; a zero multiple is the zero
        # function, whose closed form costs nothing
        a = request.getfixturevalue(density)
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        X = np.array(X)
        calls = dict.fromkeys(self.KERNELS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def field(g):
            calls.update(dict.fromkeys(self.KERNELS, 0))
            with monkeypatch.context() as m:
                for name in self.KERNELS:
                    m.setattr(operators, name,
                              counted(name, getattr(operators, name)))
                out = _L_field(a, S, g, X, loose)
            return out, {k: v for k, v in calls.items() if v}

        (vals, errs, nev), routes = field(f)
        assert calls[kernel] > 0
        for g, eps in ((cf.ScalarMultiple(-2.7, f), -2.7),
                       (cf.ScalarMultiple(-0.7, cf.ScalarMultiple(3.0, f)),
                        -0.7 * 3.0)):
            (sv, se, sn), s_routes = field(g)
            np.testing.assert_array_equal((vals * eps).view(np.int64),
                                          sv.view(np.int64))
            np.testing.assert_array_equal((errs * abs(eps)).view(np.int64),
                                          se.view(np.int64))
            assert (sn, s_routes) == (nev, routes)
        (zv, ze, zn), z_routes = field(cf.ScalarMultiple(0.0, f))
        assert not np.any(zv) and not np.any(ze) and zn == 0
        assert set(z_routes) <= {"_closed_rows"}

    def test_far_rows_of_a_plane_crossing_support_take_the_excision_form(
            self, const2, cfg):
        # the polar source grid does not follow the kink plane through the
        # support, so those far rows keep the excision form
        f = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 0.2), r_in=0.2, r_out=0.4))
        X = np.array([[1.0, 0.5], [0.0, 1.2], [-0.9, 0.3]])
        vals, errs, nev = _L_field(const2, S, f, X, cfg)
        ref = _excised_L_compact(const2, S, (f,), X, None)
        assert np.array_equal(vals, ref[0][0]) and np.array_equal(errs, ref[1][0])
        assert nev == ref[2]

    def test_lower_kelvin_points_against_polar_quad(self, const2, cfg):
        # below the plane only the mass of u = x_N^a |x|^(-q) reaches x; in
        # polar coordinates about the origin u = r^(a-q) sin^a(psi), so
        # Lu(x) = 2 int_0^pi sin^a(psi) int_0^inf r^(1+a-q) |z - x|^(-2-2s)
        alpha = 0.25
        q = 2.0 - 2.0 * S + 2.0 * alpha

        def oracle(x):
            def ray(psi):
                c = x[0] * math.cos(psi) + x[1] * math.sin(psi)
                val, _ = quad(lambda r: r ** (1.0 + alpha - q)
                              * (r * r - 2.0 * r * c + x @ x) ** (-1.0 - S),
                              0.0, math.inf, epsabs=1e-13, epsrel=1e-12,
                              limit=200)
                return math.sin(psi) ** alpha * val
            val, _ = quad(ray, 0.0, math.pi, epsabs=1e-12, epsrel=1e-11,
                          limit=200)
            return 2.0 * val

        X = np.array([[0.7, -1.3], [-0.4, -0.6]])
        vals, errs, nev = _L_field(const2, S, cf.kelvin(alpha, 2, S), X, cfg)
        for x, v, e in zip(X, vals, errs):
            assert abs(v - oracle(x)) <= e <= 0.005 * abs(v)
        assert nev < 300_000


def family_of(bump, alphas, scales=None):
    """Products x_N^alpha_j times one bump, each optionally scaled."""
    members = []
    for j, al in enumerate(alphas):
        m = cf.Product(cf.HalfSpacePower(2, S, alpha=al), bump)
        members.append(m if scales is None else cf.ScalarMultiple(scales[j], m))
    return tuple(members)


def assert_family_rows(a, family, X, cfg):
    """The family's (k, n) values and errors equal each member's own call
    bit for bit (signs of zero included), and its count is theirs summed."""
    vals, errs, nev = _L_field(a, S, family, X, cfg)
    assert vals.shape == errs.shape == (len(family), X.shape[0])
    total = 0
    for j, m in enumerate(family):
        mv, me, mn = _L_field(a, S, m, X, cfg)
        np.testing.assert_array_equal(vals[j].view(np.int64), mv.view(np.int64))
        np.testing.assert_array_equal(errs[j].view(np.int64), me.view(np.int64))
        total += mn
    assert nev == total


class TestFamily:
    """_L_field on a family of products x_N^alpha_j g with one common
    factor g: the rows are routed once, and each member's row is what the
    member alone gives."""

    # route kernels, each counted by the name _L_field calls it under:
    # mass-only (3), the convolution form's sources (4), excision (5) and
    # the polar evaluation (6)
    KERNELS = ("_mass_only_L", "_conv_source", "_excised_L_compact",
               "apply_L")

    @pytest.mark.parametrize("center,r_in,r_out,X,routes", [
        # clear of the plane: mass-only below it, convolution far away,
        # excision near the support
        ((0.0, 3.0), 0.2, 0.4, [[0.5, -1.0], [0.0, 1.0], [0.1, 3.1]],
         {"_mass_only_L": 3, "_conv_source": 6, "_excised_L_compact": 1}),
        # crossing it: mass-only below it, and excision on the plateau away
        # from the plane, on the plateau next to it and near the plane
        # outside the plateau, in one call
        ((0.0, 0.75), 0.875, 1.0,
         [[0.3, -0.5], [0.0, 0.75], [0.2, 0.05], [1.1, 0.05]],
         {"_mass_only_L": 3, "_excised_L_compact": 1}),
    ], ids=["clear", "crossing"])
    def test_every_route_matches_member_calls(self, monkeypatch, const2, cfg,
                                              center, r_in, r_out, X, routes):
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        bump = cf.Bump(2, S, center=center, r_in=r_in, r_out=r_out)
        # a nested multiple too: its scales apply in the member's own order
        family = family_of(bump, (0.4, 0.7, 0.5), (1.0, -2.5, 3.0))
        family = family[:2] + (cf.ScalarMultiple(-0.7, family[2]),)
        X = np.array(X)
        calls = dict.fromkeys(self.KERNELS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name in self.KERNELS:
                m.setattr(operators, name, counted(name, getattr(operators, name)))
            _L_field(const2, S, family, X, loose)
        # routes 3, 4 and 6 run member by member, 5 once
        assert {k: v for k, v in calls.items() if v} == routes
        assert_family_rows(const2, family, X, loose)
        # and a row does not depend on the rest of the family's batch
        whole, whole_err, _ = _L_field(const2, S, family, X, loose)
        for i in range(X.shape[0]):
            one, one_err, _ = _L_field(const2, S, family, X[i:i + 1], loose)
            assert np.array_equal(one[:, 0], whole[:, i])
            assert np.array_equal(one_err[:, 0], whole_err[:, i])

    def test_a_single_function_keeps_its_shape(self, const2, cfg):
        bump = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        X = np.array([[0.0, 1.0], [0.1, 3.1]])
        (f,) = family_of(bump, (0.4,))
        vals, errs, _ = _L_field(const2, S, f, X, cfg)
        assert vals.shape == errs.shape == (2,)
        one, one_err, _ = _L_field(const2, S, (f,), X, cfg)
        assert one.shape == (1, 2)
        assert np.array_equal(one[0], vals) and np.array_equal(one_err[0], errs)

    @pytest.mark.parametrize("members", [
        lambda b, c: (cf.Product(cf.HalfSpacePower(2, S, alpha=0.4), b),
                      cf.Product(cf.HalfSpacePower(2, S, alpha=0.5), c)),
        lambda b, c: (cf.Product(cf.HalfSpacePower(2, S, alpha=0.4), b), b),
        lambda b, c: (cf.Product(b, cf.HalfSpacePower(2, S, alpha=0.4)),),
        lambda b, c: (cf.ScalarMultiple(0.0, cf.Product(
            cf.HalfSpacePower(2, S, alpha=0.4), b)),),
        lambda b, c: (),
    ], ids=["two_bumps", "bare_factor", "factor_first", "zero_multiple",
            "empty"])
    def test_a_tuple_that_is_no_family_is_refused(self, const2, cfg, members):
        b = cf.Bump(2, S, center=(0.0, 0.75), r_in=0.875, r_out=1.0)
        c = cf.Bump(2, S, center=(0.0, 0.8), r_in=0.875, r_out=1.0)
        with pytest.raises(InputDomainError):
            _L_field(const2, S, members(b, c), np.array([[0.0, 0.75]]), cfg)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
           st.one_of(st.floats(0.1, 0.5), st.floats(0.8, 1.5)),
           st.lists(st.tuples(st.floats(-1.5, 1.5),
                              st.one_of(st.floats(-1.0, -0.02),
                                        st.floats(0.02, 2.0))),
                    min_size=1, max_size=3))
    def test_family_rows_equal_member_rows(self, alphas, height, pts):
        # a bump of radius 0.6 that crosses the plane (height <= 0.5) or
        # clears it (height >= 0.8), and points on any route
        a = cf.ConstantDensity(2)
        bump = cf.Bump(2, S, center=(0.0, height), r_in=0.45, r_out=0.6)
        loose = cf.DEFAULT_CONFIG.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        family = family_of(bump, tuple(alphas))
        X = np.array(pts)
        try:
            for m in family:
                _L_field(a, S, m, X, loose)
        except NonsmoothPointError:
            # a polar row on a kink sphere is refused for every member
            with pytest.raises(NonsmoothPointError):
                _L_field(a, S, family, X, loose)
            return
        assert_family_rows(a, family, X, loose)


def no_polar(monkeypatch):
    """Make every apply_L that the route table calls fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a compact member's row reached apply_L")
    monkeypatch.setattr(operators, "apply_L", refuse)


class TestExcisionForm:
    """Route 5 takes every row of a compact member in N = 2 that the
    convolution form does not, near the boundary plane included: its chords
    stop at the plane and at the support, and its error brackets both
    axes with a nested Gauss-Kronrod pair."""

    # the former complement-form rows (plateau points within 0.1 of the
    # plane) and the former polar rows (step_one_M's four audit points at
    # x_N = 0.05, outside the support) of the criterion-08 inputs
    POINTS = ([[t, xn] for xn in (2e-3, 0.01, 0.05, 0.095) for t in (0.0, 0.3)]
              + [[sg * (math.sqrt(1.0 - 0.75 ** 2) + dt), 0.05]
                 for dt in (0.2, 0.6) for sg in (-1.0, 1.0)])

    @pytest.mark.parametrize("density", ["const2", "cone2"])
    def test_near_plane_rows_cover_a_tight_polar_oracle(
            self, monkeypatch, request, cfg, density):
        a = request.getfixturevalue(density)
        bump = cf.Bump(2, S, center=(0.0, 0.75), r_in=0.875, r_out=1.0)
        family = family_of(bump, (0.75, S))
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        X = np.array(self.POINTS)
        with monkeypatch.context() as m:
            no_polar(m)
            vals, errs, _ = _L_field(a, S, family, X, loose)
        tight = cfg.with_tol(abs_tol=1e-10, rel_tol=1e-10)
        for j, phi in enumerate(family):
            for i, x in enumerate(X):
                ref = cf.apply_L(a, S, phi, x, tight)
                miss = abs(vals[j, i] - ref.value) - ref.abs_error_estimate
                assert miss <= errs[j, i], (j, tuple(x))

    @pytest.mark.parametrize("density", ["const2", "cone2"])
    def test_no_compact_row_reaches_the_polar_route(self, monkeypatch,
                                                    request, cfg, density):
        # a weight whose support crosses the plane, at rows within 0.1 of
        # the plane on its plateau, in its shell, and outside it; and all
        # of step_one_M, both passes and the audit
        a = request.getfixturevalue(density)
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 0.2), r_in=0.2, r_out=0.4))
        X = np.array([[t, xn] for xn in (1e-3, 0.01, 0.05, 0.09)
                      for t in (0.0, 0.1, 0.3, 0.5, 1.0)])
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        no_polar(monkeypatch)
        vals, errs, _ = _L_field(a, S, v, X, loose)
        assert np.all(np.isfinite(vals)) and np.all(errs > 0.0)
        rep = cf.step_one_M(a, S, 0.75, 0.25, cfg)
        assert rep.audit_n > 0 and math.isfinite(rep.M_err)

    def test_the_worst_former_excision_miss_is_covered(self, cone2, cfg):
        # a plateau sample of step_one_M's first pass (k = 2), and its
        # mirror: the former fine-coarse gap read 9.6e-6 at the first
        # against a miss of 8.6e-4 for phi_0.75
        from conefrac.liouville import _step_one_samples
        X = _step_one_samples(0.75, 0.875, 2)
        X = X[np.argsort(np.linalg.norm(np.abs(X) - [0.123, 0.453], axis=1))[:2]]
        assert np.allclose(np.abs(X), [0.1231, 0.4528], atol=1e-4)
        phi = cf.Product(cf.HalfSpacePower(2, S, alpha=0.75),
                         cf.Bump(2, S, center=(0.0, 0.75), r_in=0.875,
                                 r_out=1.0))
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        vals, errs, _ = _L_field(cone2, S, phi, X, loose)
        tight = cfg.with_tol(abs_tol=1e-10, rel_tol=1e-10)
        for x, v, e in zip(X, vals, errs):
            ref = cf.apply_L(cone2, S, phi, x, tight)
            assert abs(v - ref.value) - ref.abs_error_estimate <= e

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.5, max_value=4.0),
           st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=1e-3, max_value=0.1),
           st.sampled_from([0.4, 0.75]), st.booleans())
    def test_rescaling_scales_the_near_plane_field(self, R, x1, xn, alpha,
                                                   cone):
        # L(phi(./R))(R x) = R^(-2s) L phi(x) for a weight whose support
        # crosses the plane, at points within 0.1 of it; the two sides'
        # layouts differ (the ball's radius is capped, the angular grading
        # is not scaled), so they agree within both estimates
        a = (cf.ConePlateauDensity(2, cf.Cone((1.0, 0.0), 0.3), 1.0, 0.25)
             if cone else cf.ConstantDensity(2))
        phi = cf.Product(cf.HalfSpacePower(2, S, alpha=alpha),
                         cf.Bump(2, S, center=(0.0, 0.3), r_in=0.45,
                                 r_out=0.6))
        loose = cf.DEFAULT_CONFIG.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        x = np.array([[x1, xn]])
        v, e, _ = _L_field(a, S, phi, x, loose)
        vr, er, _ = _L_field(a, S, cf.Rescale(phi, R), R * x, loose)
        scale = R ** (-2.0 * S)
        assert abs(vr[0] - scale * v[0]) <= er[0] + scale * e[0]


class TestPairing:
    def test_symmetric_case_has_zero_residual(self, const2, cfg):
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5))
        rep = cf.pairing(const2, S, v, v, 50.0, cfg)
        assert rep.residual == 0.0
        assert rep.I_uLv == pytest.approx(-24.0786744, rel=1e-6)

    def test_symmetric_case_estimate_covers_a_refined_reference(self, const2, cfg):
        # reference: the same route (v times Lv over the support of v) on 16
        # equal panels across the support in x_1 and 30 rows graded toward
        # the plane (ratio 1.5) in x_N, with 6-point Gauss nodes on each,
        # 166 M evaluations; the default grid misses it by 8.2e-3
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5))
        rep = cf.pairing(const2, S, v, v, 50.0, cfg)
        assert abs(rep.I_uLv - (-24.0869119)) <= rep.abs_error_estimate

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

    def test_each_side_evaluates_L_once(self, const2, cfg, monkeypatch):
        # both nested outer rules read one set of L rows per side
        calls = []
        field = operators._L_field

        def counted(*args):
            calls.append(args)
            return field(*args)

        monkeypatch.setattr(operators, "_L_field", counted)
        u = cf.Bump(2, S, center=(0.0, 3.0), r_in=0.2, r_out=0.4)
        v = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.2, r_out=0.4)
        cf.pairing(const2, S, u, v, 50.0, cfg)
        assert len(calls) == 2
        calls.clear()
        cf.pairing(const2, S, v, v, 50.0, cfg)
        assert len(calls) == 1

    def test_criterion_06_pairing_within_its_quadrature_error(self, const2,
                                                              cfg):
        # references from grids finer than the pairing's: I_uLv on 6-point
        # Gauss box grids (two refinements) and I_vLu on a finer support grid
        u = cf.translate_truncate(cf.kelvin(0.25, 2, S))
        v = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5))
        rep = cf.pairing(const2, S, u, v, 3000.0, cfg)
        quad_err = rep.outer_error + rep.row_error
        for ref in (-1.2890252, -1.2890128):
            assert abs(rep.I_uLv - ref) <= quad_err
        assert abs(rep.I_vLu - (-1.2890019)) <= quad_err
        assert quad_err + rep.truncation_bound == pytest.approx(
            rep.abs_error_estimate, rel=1e-15)

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

    def test_correction_refuses_a_point_next_to_a_kink_circle(self, const2, fast_cfg):
        g = cf.HalfSpacePower(2, S, alpha=0.4)
        h = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4)
        # 1e-7 outside the plateau circle, within _REFUSE_FACTOR * |x|
        x = np.array([0.0, 1.6 + 1e-7])
        with pytest.raises(NonsmoothPointError):
            cf.correction_l(const2, S, g, h, x, fast_cfg)

    def test_correction_refuses_a_point_next_to_the_kelvin_origin(self, const2, fast_cfg):
        g = cf.kelvin(0.25, 2, S)
        h = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4)
        # above the on-plane tolerance 1e-9, so not handled as a boundary point
        x = np.array([1e-8, 2e-8])
        with pytest.raises(NonsmoothPointError):
            cf.correction_l(const2, S, g, h, x, fast_cfg)

    def test_pairing_refuses_a_weight_jumping_inside_its_support(self, const2, cfg):
        u = cf.HalfSpacePower(2, S, alpha=0.4)
        # the truncation plane x_N = 0 (a jump, exponent None) cuts the
        # shifted support ball centred at (0, 0.2) with radius 0.5
        v = cf.translate_truncate(cf.Bump(2, S, center=(0.0, 1.2), r_in=0.2, r_out=0.5))
        with pytest.raises(InputDomainError, match="exponent"):
            cf.pairing(const2, S, u, v, 6.0, cfg)

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
