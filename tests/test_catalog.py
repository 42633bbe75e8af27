"""Catalog functions: values, derivatives, metadata, combinators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conefrac as cf
from conefrac.catalog import PlaneKink, _KinkSet
from conefrac.errors import InputDomainError
from conefrac.quadrature import DEFAULT_CONFIG, _assemble_radial

S = 0.5


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    return np.array([
        (f.value(x + h * e) - f.value(x - h * e)) / (2.0 * h)
        for e in np.eye(x.size)
    ])


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei, ej = np.eye(n)[i], np.eye(n)[j]
            out[i, j] = (f.value(x + h * ei + h * ej) - f.value(x + h * ei - h * ej)
                         - f.value(x - h * ei + h * ej) + f.value(x - h * ei - h * ej)) \
                / (4.0 * h * h)
    return out


class TestHalfSpacePower:
    def test_values(self):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        assert f.value((3.0, 2.0)) == pytest.approx(2.0 ** 0.4)
        assert f.value((0.0, -1.0)) == 0.0
        assert f.value((5.0, 0.0)) == 0.0

    def test_vanishes_on_lower_halfspace(self):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        assert f.vanishes_lower_halfspace

    def test_kink_plane(self):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        (kink,) = f.kink_surfaces
        assert kink.normal == (0.0, 1.0)
        assert kink.offset == 0.0
        assert kink.exponent == pytest.approx(0.4)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.0, 1.5])
    def test_exponent_must_lie_in_zero_two_s(self, alpha):
        with pytest.raises(InputDomainError):
            cf.HalfSpacePower(2, S, alpha=alpha)

    def test_gradient_matches_finite_differences(self):
        f = cf.HalfSpacePower(2, S, alpha=0.4)
        x = np.array([0.3, 1.7])
        assert f.gradient(x) == pytest.approx(fd_gradient(f, x), rel=1e-7)


class TestKelvinHalfSpacePower:
    def test_value_formula(self):
        f = cf.KelvinHalfSpacePower(2, S, alpha=0.25)
        x = np.array([0.7, 0.5])
        expected = 0.5 ** 0.25 / np.linalg.norm(x) ** (2.0 - 2.0 * S + 0.5)
        assert f.value(x) == pytest.approx(expected, rel=1e-14)

    def test_decay_exponent(self):
        f = cf.kelvin(0.25, 2, S)
        assert f.radial_exponent == pytest.approx(2.0 - 2.0 * S + 0.5)

    def test_origin_is_singular(self):
        f = cf.kelvin(0.25, 2, S)
        assert (0.0, 0.0) in f.singular_points

    @pytest.mark.parametrize("alpha", [0.0, 0.9, 1.2])
    def test_exponent_validation(self, alpha):
        with pytest.raises(InputDomainError):
            cf.kelvin(alpha, 2, S)


class TestBump:
    def test_plateau_and_support(self):
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        assert f.value((0.4, 0.9)) == 1.0
        assert f.value((0.4, 1.35)) == 1.0
        assert f.value((0.4, 2.0)) == 0.0
        assert 0.0 < f.value((0.4, 1.65)) < 1.0

    def test_support_ball(self):
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        ball = f.support_ball
        assert ball.center == (0.4, 0.9)
        assert ball.radius == 1.0

    def test_radii_ordering_enforced(self):
        with pytest.raises(InputDomainError):
            cf.Bump(2, S, center=(0.0, 0.0), r_in=1.0, r_out=1.0)

    def test_derivatives_match_finite_differences(self):
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        x = np.array([0.4, 1.6])
        assert f.gradient(x) == pytest.approx(fd_gradient(f, x), rel=1e-6)
        assert f.hessian(x) == pytest.approx(fd_hessian(f, x), rel=1e-4, abs=1e-4)

    def test_profile_is_flat_at_the_edges(self):
        # C^inf glue: derivative negligible just inside either radius
        f = cf.Bump(2, S, center=(0.0, 0.0), r_in=0.5, r_out=1.0)
        near_in = np.array([0.0, 0.5 + 1e-4])
        near_out = np.array([0.0, 1.0 - 1e-4])
        assert abs(f.gradient(near_in)[1]) < 1e-2
        assert abs(f.gradient(near_out)[1]) < 1e-2

    def test_whole_space_bump_defaults(self):
        f = cf.WholeSpaceBump(2, S)
        assert f.value((0.0, 0.0)) == 1.0
        assert f.value((4.0, 0.0)) == 0.0
        assert f.value((0.0, -1.2)) > 0.0
        assert not f.vanishes_lower_halfspace


class TestCombinators:
    def test_product_values(self, rng):
        g = cf.HalfSpacePower(2, S, alpha=0.4)
        h = cf.Bump(2, S, center=(0.0, 1.0), r_in=0.25, r_out=0.5)
        prod = cf.Product(g, h)
        X = rng.uniform(-2.0, 2.0, size=(40, 2))
        np.testing.assert_allclose(prod.values(X), g.values(X) * h.values(X), rtol=1e-14)

    def test_product_support_is_the_smaller_ball(self):
        g = cf.HalfSpacePower(2, S, alpha=0.4)
        h = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        ball = cf.Product(g, h).support_ball
        assert ball.center == (0.4, 0.9)
        assert ball.radius == 1.0
        assert cf.Product(g, h).vanishes_lower_halfspace

    def test_scalar_multiple(self):
        f = cf.Bump(2, S, center=(0.0, 0.0), r_in=0.5, r_out=1.0)
        assert cf.ScalarMultiple(0.25, f).value((0.0, 0.0)) == 0.25

    def test_rescale_values_and_support(self):
        f = cf.Bump(2, S, center=(0.4, 0.9), r_in=0.5, r_out=1.0)
        r = cf.Rescale(f, 2.0)
        assert r.value((0.8, 1.8)) == f.value((0.4, 0.9))
        assert r.support_ball.center == (0.8, 1.8)
        assert r.support_ball.radius == 2.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.25, max_value=4.0),
           st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=-1.5, max_value=1.5))
    def test_rescale_roundtrip(self, R, x1, x2):
        f = cf.Bump(2, S, center=(0.0, 0.0), r_in=0.5, r_out=1.0)
        x = np.array([[x1, x2]])
        back = cf.Rescale(cf.Rescale(f, R), 1.0 / R)
        assert back.values(x)[0] == pytest.approx(f.values(x)[0], rel=1e-12, abs=1e-12)

    def test_translate_truncate_values(self):
        base = cf.kelvin(0.25, 2, S)
        f = cf.translate_truncate(base)
        assert f.values(np.array([[0.0, 0.5]]))[0] == pytest.approx(
            base.values(np.array([[0.0, 1.5]]))[0], rel=1e-14)
        assert f.values(np.array([[0.0, -0.5]]))[0] == 0.0
        assert f.vanishes_lower_halfspace
        assert f.singular_points == ()

    def test_zero_and_constant(self):
        X = np.array([[0.3, 0.4], [-1.0, 2.0]])
        assert cf.Zero(2, S).values(X) == pytest.approx([0.0, 0.0])
        assert cf.Constant(2, S, c=3.0).values(X) == pytest.approx([3.0, 3.0])


def _ref_crossings(f, x, theta):
    """Crossing times of x +- t theta with each kink surface of f, one
    surface at a time."""
    out = []
    for k in f.kink_surfaces:
        if isinstance(k, PlaneKink):
            n = np.asarray(k.normal)
            den = float(theta @ n)
            if abs(den) > 1e-14:
                t = abs((k.offset - float(x @ n)) / den)
                if t > 1e-14:
                    out.append(t)
        else:
            d = x - np.asarray(k.center)
            b = float(theta @ d)
            disc = b * b - (float(d @ d) - k.radius ** 2)
            if disc >= 0.0:
                r = math.sqrt(disc)
                out.extend(t for t in (-b - r, -b + r, b - r, b + r) if t > 1e-14)
    return sorted(out)


def _ref_distances(f, x):
    """Distances to the planes, then the spheres, then the singular points."""
    kinks = f.kink_surfaces
    planes = [abs(float(x @ np.asarray(k.normal)) - k.offset)
              for k in kinks if isinstance(k, PlaneKink)]
    spheres = [abs(float(np.linalg.norm(x - np.asarray(k.center))) - k.radius)
               for k in kinks if not isinstance(k, PlaneKink)]
    points = [float(np.linalg.norm(x - np.asarray(p))) for p in f.singular_points]
    return planes + spheres + points


KINK_MEMBERS = {
    "bump": cf.Bump(2, S, center=(0.3, 0.9), r_in=0.5, r_out=1.0),
    "kelvin": cf.kelvin(0.25, 2, S),
    "product": cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                          cf.Bump(2, S, center=(0.0, 1.0), r_in=0.6, r_out=1.4)),
    "rescale": cf.Rescale(cf.Bump(2, S, center=(0.3, 0.9), r_in=0.5, r_out=1.0), 2.0),
    "translate_truncate": cf.translate_truncate(cf.kelvin(0.25, 2, S)),
}


class TestKinkSet:
    @pytest.mark.parametrize("name", sorted(KINK_MEMBERS))
    def test_matches_per_surface_reference(self, name, rng):
        f = KINK_MEMBERS[name]
        kinks = _KinkSet.of(f)
        phi = rng.uniform(0.0, 2.0 * math.pi, 64)
        thetas = np.stack((np.cos(phi), np.sin(phi)), axis=1)
        checked = 0
        for x in rng.uniform(-2.5, 2.5, size=(40, 2)):
            ref_d = _ref_distances(f, x)
            if min(ref_d) < 0.05:
                continue  # crossing times near a surface cancel digits
            checked += 1
            np.testing.assert_allclose(kinks.distances(x), ref_d, rtol=1e-12)
            assert kinks.distance(x) == pytest.approx(min(ref_d), rel=1e-12)
            T = kinks.crossing_times(x, thetas)
            assert T.shape == (64, len(kinks.planes) + 4 * kinks.radii.size)
            for row, th in zip(T, thetas):
                np.testing.assert_allclose(np.sort(row[np.isfinite(row)]),
                                           _ref_crossings(f, x, th), rtol=1e-12)
        assert checked >= 10
        X = rng.uniform(-2.5, 2.5, size=(5, 2))
        np.testing.assert_allclose(kinks.distances(X),
                                   [_ref_distances(f, x) for x in X], rtol=1e-12)

    def test_parallel_ray_and_missed_sphere_are_inf(self):
        kinks = _KinkSet.of(KINK_MEMBERS["product"])
        # along e_1 from (3, 0.5): parallel to x_N = 0, clear of both circles
        T = kinks.crossing_times(np.array([3.0, 0.5]), np.array([[1.0, 0.0]]))
        assert T.shape == (1, 9)
        assert np.isinf(T[0, 0])
        assert np.sum(np.isfinite(T)) == 4  # the rays meet both circles twice
        T = kinks.crossing_times(np.array([3.0, 2.5]), np.array([[0.0, 1.0]]))
        assert np.isinf(T[0, 1:]).all()  # both rays miss both circles
        assert T[0, 0] == pytest.approx(2.5)

    def test_distance_beyond_skips_the_surfaces_through_x(self):
        kinks = _KinkSet.of(KINK_MEMBERS["kelvin"])
        x = np.array([0.8, 0.0])
        assert kinks.distance(x) == 0.0
        assert kinks.distance(x, beyond=1e-9) == pytest.approx(0.8)

    def test_shared_plane_gives_one_task_edge_per_crossing(self, rng):
        f = cf.Product(cf.HalfSpacePower(2, S, alpha=0.4),
                       cf.HalfSpacePower(2, S, alpha=0.3))
        kinks = _KinkSet.of(f)
        assert len(kinks.planes) == 2
        x = np.array([0.2, 0.3])
        phi = rng.uniform(0.0, 2.0 * math.pi, 50)
        thetas = np.stack((np.cos(phi), np.sin(phi)), axis=1)
        tasks, _, _, T0, t_in = _assemble_radial(
            kinks, x, thetas, S, DEFAULT_CONFIG, inner_mode="subtract",
            tail_mode="u_map")
        for k, th in enumerate(thetas):
            mine = tasks["group"] == k
            splits = tasks["hi"][mine & tasks["gh"]]
            cross = abs(x[1] / th[1])
            assert splits.tolist() == ([pytest.approx(cross, rel=1e-14)]
                                       if cross > t_in else [])
            # the inner task, then pieces tiling [t_in, T0] in order
            lo, hi = tasks["lo"][mine], tasks["hi"][mine]
            assert (lo[0], hi[0], lo[1], hi[-1]) == (0.0, t_in, t_in, T0[k])
            np.testing.assert_array_equal(hi[:-1], lo[1:])
