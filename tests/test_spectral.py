"""Directional weights: cone geometry, evaluation, sphere moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

import conefrac as cf
from conefrac.errors import InputDomainError
from conefrac.operators import _L_field
from conefrac.quadrature import _sphere_breakpoints_2d


def constant_moment_2d(s):
    # int_0^{2pi} |sin t|^{2s} dt = 2 B(s + 1/2, 1/2)
    return 2.0 * gamma_fn(s + 0.5) * gamma_fn(0.5) / gamma_fn(s + 1.0)


def step_weight(th):
    # 1 on the caps |theta_1| >= 0.5, 0.25 off them
    return np.where(np.abs(th[:, 0]) >= 0.5, 1.0, 0.25)


def custom_and_plateau(dim):
    """One step weight twice: a custom density declaring its jumps, and the
    cone plateau with the same caps."""
    axis = (1.0,) + (0.0,) * (dim - 1)
    return (cf.CustomDensity(dim, evaluator=step_weight, jumps=(0.5,), axis=axis),
            cf.ConePlateauDensity(dim, cf.Cone(axis, 0.5), 1.0, 0.25))


def bits(values, errors, n_evals):
    return (np.asarray(values, dtype=float).tobytes(),
            np.asarray(errors, dtype=float).tobytes(), n_evals)


class TestCone:
    def test_membership_threshold(self):
        cone = cf.Cone((1.0, 0.0), 0.3)
        edge = math.acos(0.7)
        assert cone.contains((math.cos(0.99 * edge), math.sin(0.99 * edge)))
        assert not cone.contains((math.cos(1.01 * edge), math.sin(1.01 * edge)))

    @pytest.mark.parametrize("axis,tau", [((1.0, 0.0), 0.3), ((0.6, 0.8), 0.5)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_membership_at_the_edge_angle(self, axis, tau, scale):
        # a relative angle step of 1e-9 either side of the edge decides
        # membership, at every scale and on both nappes
        cone = cf.Cone(axis, tau)
        base = math.atan2(axis[1], axis[0])
        edge = math.acos(1.0 - tau)
        for nappe in (0.0, math.pi):
            for side in (1.0, -1.0):
                for f, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
                    phi = base + nappe + side * f * edge
                    y = (scale * math.cos(phi), scale * math.sin(phi))
                    assert cone.contains(y) is inside

    def test_contains_many_with_a_vertex_against_a_scalar_loop(self):
        # as gamma_search asks it: cones with their vertex off the origin,
        # seeded points around them, against the defining inequality
        # evaluated one point at a time with math only
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1.0, 1.0, size=(4_000, 2)) + np.array([0.0, 0.7])
        for axis, tau, vertex in (((0.0, 1.0), 0.3, (0.4, 0.0)),
                                  ((0.6, 0.8), 0.5, (-0.25, 0.05)),
                                  ((1.0, 0.0), 0.9, (0.0, 1.3))):
            cone = cf.Cone(axis, tau, vertex=vertex)
            want = []
            for p in pts:
                rel = [float(p[i]) - vertex[i] for i in range(2)]
                proj = abs(rel[0] * axis[0] + rel[1] * axis[1])
                want.append(proj >= (1.0 - tau) * math.hypot(*rel))
            got = cone.contains_many(pts)
            assert 0 < got.sum() < pts.shape[0]
            assert got.tolist() == want

    def test_double_cone_is_symmetric(self):
        cone = cf.Cone((1.0, 0.0), 0.3)
        assert cone.contains((1.0, 0.0))
        assert cone.contains((-1.0, 0.0))
        assert cone.contains((-0.9, -0.1))

    def test_full_aperture_contains_everything(self):
        cone = cf.Cone((0.0, 1.0), 1.0)
        pts = np.array([[1.0, 0.0], [0.3, -2.0], [0.0, 0.0]])
        assert cone.contains_many(pts).all()

    @pytest.mark.parametrize("axis,tau", [
        ((0.0, 0.0), 0.3),
        ((2.0, 0.0), 0.3),
        ((1.0, 0.0), 0.0),
        ((1.0, 0.0), 1.5),
    ])
    def test_rejects_bad_parameters(self, axis, tau):
        with pytest.raises(InputDomainError):
            cf.Cone(axis, tau)

    def test_vertex_dimension_mismatch(self):
        with pytest.raises(InputDomainError):
            cf.Cone((1.0, 0.0), 0.3, vertex=(0.0, 0.0, 0.0))


class TestDensities:
    def test_constant_values(self):
        a = cf.ConstantDensity(2, 2.5)
        assert a((1.0, 0.0)) == 2.5
        assert a.upper_bound == 2.5
        assert a.is_constant

    def test_zero_constant_allowed_but_degenerate(self):
        a = cf.ConstantDensity(2, 0.0)
        assert a.upper_bound == 0.0

    def test_negative_constant_rejected(self):
        with pytest.raises(InputDomainError):
            cf.ConstantDensity(2, -1.0)

    def test_plateau_values(self, cone2):
        assert cone2((1.0, 0.0)) == 1.0
        assert cone2((-1.0, 0.0)) == 1.0
        assert cone2((0.0, 1.0)) == 0.25
        assert cone2.jump_cosines == (0.7,)

    def test_plateau_without_jump_has_no_cosines(self):
        cone = cf.Cone((1.0, 0.0), 0.3)
        assert cf.ConePlateauDensity(2, cone, 1.0, 1.0).jump_cosines == ()

    @pytest.mark.parametrize("inside,outside", [(0.0, 0.0), (1.0, 2.0), (1.0, -0.1)])
    def test_plateau_rejects_bad_levels(self, inside, outside):
        cone = cf.Cone((1.0, 0.0), 0.3)
        with pytest.raises(InputDomainError):
            cf.ConePlateauDensity(2, cone, inside, outside)

    def test_plateau_requires_origin_vertex(self):
        cone = cf.Cone((1.0, 0.0), 0.3, vertex=(1.0, 1.0))
        with pytest.raises(InputDomainError):
            cf.ConePlateauDensity(2, cone, 1.0, 0.25)

    def test_custom_density_is_symmetrized(self):
        # deliberately odd evaluator; symmetrization must keep the weight even
        a = cf.CustomDensity(2, evaluator=lambda th: 1.0 + th[:, 0])
        assert a((1.0, 0.0)) == pytest.approx(1.0)
        assert a((-1.0, 0.0)) == pytest.approx(1.0)

    def test_custom_density_validation(self):
        with pytest.raises(InputDomainError):
            cf.CustomDensity(2, evaluator=None)
        with pytest.raises(InputDomainError):
            cf.CustomDensity(2, evaluator=lambda th: th[:, 0], jumps=(0.5,))

    def test_custom_density_declares_jumps_with_an_axis(self):
        # jumps and their axis are all a discontinuous weight needs
        ev = lambda th: np.where(np.abs(th[:, 0]) >= 0.5, 1.0, 0.25)
        a = cf.CustomDensity(2, evaluator=ev, jumps=(0.5,), axis=(1, 0))
        assert a.jump_cosines == (0.5,)
        assert a.axis == (1.0, 0.0)
        assert (a((1.0, 0.0)), a((0.0, 1.0))) == (1.0, 0.25)

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(0.0, 2.0 * math.pi), axis_phi=st.floats(0.0, 2.0 * math.pi),
           tau=st.floats(0.05, 0.95), odd=st.floats(-2.0, 2.0))
    def test_weights_are_even_and_jump_only_at_arc_ends(self, phi, axis_phi,
                                                         tau, odd):
        # a(theta) == a(-theta) bit for bit, and the circle rule's arc ends
        # hold every angle where |theta.jump_axis| is a jump cosine
        axis = (math.cos(axis_phi), math.sin(axis_phi))
        c = 1.0 - tau
        plateau = cf.ConePlateauDensity(2, cf.Cone(axis, tau), 1.0, 0.25)
        custom = cf.CustomDensity(
            2, evaluator=lambda th: (odd * th[:, 1]
                                     + np.where(np.abs(th @ axis) >= c, 1.0, 0.5)),
            jumps=(c,), axis=axis, upper=1.0 + abs(odd))
        theta = np.array([[math.cos(phi), math.sin(phi)]])
        for a in (cf.ConstantDensity(2, 1.5), plateau, custom):
            assert a.eval_many(theta).tobytes() == a.eval_many(-theta).tobytes()
        g = math.acos(c)
        jumps = np.array([axis_phi + off for off in (g, -g, math.pi - g, math.pi + g)])
        for a in (plateau, custom):
            ends = _sphere_breakpoints_2d(a, (), (), ())[0]
            gap = (jumps[:, None] - ends[None, :] + math.pi) % (2.0 * math.pi) - math.pi
            assert np.abs(gap).min(axis=1).max() < 1e-9

    def test_eval_requires_unit_directions(self, cone2):
        with pytest.raises(InputDomainError):
            cone2.eval_many(np.array([[2.0, 0.0]]))
        with pytest.raises(InputDomainError):
            cone2.eval_many(np.array([[1.0, 0.0, 0.0]]))


class TestMoments:
    def test_one_dimensional_moment_is_exact(self, cfg):
        res = cf.weighted_sphere_moment(cf.ConstantDensity(1), 0.5, cfg)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("s,tols", [
        pytest.param(0.3, None, id="0.3"),
        pytest.param(0.5, None, id="0.5"),
        pytest.param(0.7, None, id="0.7"),
        pytest.param(0.05, None, id="0.05"),
        pytest.param(0.05, (1e-11, 1e-10), id="0.05-tight")])
    def test_constant_moment_matches_beta_formula_2d(self, s, tols, cfg):
        # |theta_N|^{2s} kinks where the circle crosses the plane; at small s
        # and a tight target the panels there must be graded deep
        if tols is not None:
            cfg = cfg.with_tol(*tols)
        res = cf.weighted_sphere_moment(cf.ConstantDensity(2), s, cfg)
        exact = constant_moment_2d(s)
        assert res.converged
        assert abs(res.value - exact) <= max(res.abs_error_estimate, 1e-10)

    def test_constant_moment_3d(self, cfg):
        # int_{S^2} |theta_3|^{2s} dsigma = 4 pi / (2s + 1), so 2 pi at s = 1/2
        res = cf.weighted_sphere_moment(cf.ConstantDensity(3), 0.5, cfg)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_moment_scales_linearly_in_the_weight(self, cfg):
        one = cf.weighted_sphere_moment(cf.ConstantDensity(2, 1.0), 0.6, cfg)
        three = cf.weighted_sphere_moment(cf.ConstantDensity(2, 3.0), 0.6, cfg)
        assert three.value == pytest.approx(3.0 * one.value, rel=1e-11)

    def test_plateau_moment_brackets(self, cone2, cfg):
        # between the all-outside and all-inside constant moments
        lo = 0.25 * constant_moment_2d(0.5)
        hi = 1.0 * constant_moment_2d(0.5)
        res = cf.weighted_sphere_moment(cone2, 0.5, cfg)
        assert lo < res.value < hi

    def test_directional_moment_of_constant_is_isotropic(self, cfg):
        # int |nu.theta|^{2s} dtheta, s = 1/2, does not depend on the unit
        # vector nu
        a = cf.ConstantDensity(2)

        def moment(nu):
            nu = np.asarray(nu)
            return cf.sphere_quadrature(a, lambda th: np.abs(th @ nu) ** 1.0,
                                        cfg, kink_normals=(nu,))

        r1, r2 = moment((1.0, 0.0)), moment((0.6, 0.8))
        assert r1.value == pytest.approx(r2.value, rel=1e-9)
        assert r1.value == pytest.approx(constant_moment_2d(0.5), rel=1e-9)

    def test_moment_rejects_bad_s(self):
        with pytest.raises(InputDomainError):
            cf.weighted_sphere_moment(cf.ConstantDensity(2), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_moment_positive_for_positive_weight(self, s):
        res = cf.weighted_sphere_moment(cf.ConstantDensity(2, 1.0), s)
        assert res.value > 0.0


class TestDeclaredJumps:
    """A custom density that declares its jumps through jumps and axis is
    split there by every sphere rule and by the excision form, so a custom
    step weight reproduces the plateau with the same caps bit for bit:
    value, error and evaluations."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sphere_moment(self, dim, cfg):
        custom, plateau = (cf.weighted_sphere_moment(a, 0.5, cfg)
                           for a in custom_and_plateau(dim))
        assert bits(custom.value, custom.abs_error_estimate, custom.n_evals) == \
            bits(plateau.value, plateau.abs_error_estimate, plateau.n_evals)

    def test_polar_operator(self, fast_cfg):
        f = cf.Bump(2, 0.5, (0.0, 1.0), 0.6, 1.4)
        custom, plateau = (cf.apply_L(a, 0.5, f, (0.3, 0.9), fast_cfg)
                           for a in custom_and_plateau(2))
        assert bits(custom.value, custom.abs_error_estimate, custom.n_evals) == \
            bits(plateau.value, plateau.abs_error_estimate, plateau.n_evals)

    def test_excision_form(self, cfg):
        # a point inside the bump's support takes the excision form
        f = cf.Bump(2, 0.5, (0.0, 1.0), 0.2, 0.4)
        X = np.array([[0.05, 1.1]])
        custom, plateau = (_L_field(a, 0.5, f, X, cfg)
                           for a in custom_and_plateau(2))
        assert bits(*custom) == bits(*plateau)
