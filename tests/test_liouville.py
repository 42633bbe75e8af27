"""Supersolution machinery: exponent algebra, explicit constructions,
certification, refutation, scans, and the auxiliary experiments."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad

import conefrac as cf
from conefrac import liouville, operators
from conefrac.errors import (AccuracyError, DegenerateConstructionError,
                             InputDomainError)
from conefrac.operators import _L_field
from conefrac.quadrature import DEFAULT_CONFIG


class TestExponentAlgebra:
    def test_critical_exponents_2d(self):
        out = cf.critical_exponents(2, 0.5)
        assert out["halfspace"] == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert out["wholespace"] == pytest.approx(2.0, rel=1e-15)

    def test_wholespace_threshold_is_infinite_for_small_n(self):
        assert cf.critical_exponents(1, 0.75)["wholespace"] == math.inf

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.05, max_value=0.95))
    def test_thresholds_null_the_envelope_exponents(self, N, s):
        ph = cf.critical_exponents(N, s)["halfspace"]
        assert abs(N + s - 2.0 * s * ph / (ph - 1.0)) < 1e-12
        if N > 2.0 * s:
            pw = cf.critical_exponents(N, s)["wholespace"]
            assert abs(N - 2.0 * s * pw / (pw - 1.0)) < 1e-12

    def test_envelope_exponent_values(self):
        assert cf.halfspace_envelope_exponent(2, 0.5, 1.8) == pytest.approx(
            2.5 - 2.25, rel=1e-14)
        assert cf.wholespace_envelope_exponent(2, 0.5, 2.3) == pytest.approx(
            2.0 - 2.3 / 1.3, rel=1e-13)

    def test_envelope_vanishes_at_threshold(self):
        assert cf.halfspace_envelope_exponent(2, 0.5, 5.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
        assert cf.wholespace_envelope_exponent(2, 0.5, 2.0) == pytest.approx(0.0, abs=1e-14)


class TestConstruction:
    def test_reflected_decay_regime(self, cfg):
        con = cf.construct_supersolution(2, 0.5, 1.8, cfg=cfg)
        assert con.regime == "kelvin"
        assert con.alpha == pytest.approx(0.25, rel=1e-12)
        # C_alpha = c_{1/4} * moment = (-pi/4) * 4 exactly
        assert con.C_alpha == pytest.approx(-math.pi, abs=1e-9)
        assert con.eps_max == pytest.approx(math.pi ** 1.25, rel=1e-9)
        assert con.epsilon <= con.eps_max

    def test_translate_truncate_regime(self, cfg):
        con = cf.construct_supersolution(2, 0.5, 2.3, cfg=cfg)
        assert con.regime == "translate_truncate"
        assert con.eps_max == pytest.approx(2.412254, rel=1e-5)

    def test_one_dimensional_regime(self, cfg):
        con = cf.construct_supersolution(1, 0.75, 8.0, cfg=cfg)
        assert con.regime == "oneD_high_s"
        assert con.alpha == pytest.approx(5.0 / 7.0, rel=1e-12)
        assert con.eps_max == pytest.approx(0.823281, rel=1e-5)

    @pytest.mark.parametrize("p", [5.0 / 3.0, 1.2])
    def test_at_or_below_threshold_raises(self, p, cfg):
        with pytest.raises(DegenerateConstructionError):
            cf.construct_supersolution(2, 0.5, p, cfg=cfg)

    def test_requested_epsilon_above_cap_rejected(self, cfg):
        with pytest.raises(InputDomainError):
            cf.construct_supersolution(2, 0.5, 1.8, epsilon=100.0, cfg=cfg)


class TestCertification:
    def test_constructed_function_certifies(self, const2, cfg):
        con = cf.construct_supersolution(2, 0.5, 1.8, cfg=cfg)
        pts = cf.default_certification_points(2, "halfspace")
        pts = pts[pts[:, -1] > 0.0]
        rep = cf.certify(const2, 0.5, 1.8, con.function, pts, cfg)
        assert rep.certified
        assert rep.min_margin >= -rep.tolerance
        assert rep.n_points == 224

    def test_wrong_exponent_fails_certification(self, const2, cfg):
        con = cf.construct_supersolution(2, 0.5, 1.8, cfg=cfg)
        pts = cf.default_certification_points(2, "halfspace")
        pts = pts[pts[:, -1] > 0.0]
        rep = cf.certify(const2, 0.5, 1.5, con.function, pts, cfg)
        assert not rep.certified
        assert rep.min_margin == pytest.approx(-3.383271e-3, rel=1e-3)
        assert tuple(rep.argmin) == pytest.approx((0.0, 10.0), abs=1e-9)

    def test_compact_member_in_one_dimension(self, cfg):
        # the excision form is two-dimensional; a compact member in N = 1
        # takes the polar route at each point instead of raising
        a = cf.ConstantDensity(1)
        f = cf.Bump(1, 0.5, center=(2.0,), r_in=0.5, r_out=1.0)
        X = np.array([[2.1], [2.7]])
        rep = cf.certify(a, 0.5, 2.0, f, X, cfg)
        margins = [-cf.apply_L(a, 0.5, f, x, cfg).value - f.value(x) ** 2.0
                   for x in X]
        assert rep.min_margin == min(margins)
        assert rep.certified

    def test_default_point_sets(self):
        half = cf.default_certification_points(2, "halfspace")
        whole = cf.default_certification_points(2, "wholespace")
        assert half.shape == (224, 2)
        assert whole.shape == (334, 2)
        # the half-space sampler stays on the closed upper half-space
        assert (half[:, -1] >= 0.0).all()

    @pytest.mark.parametrize("N", [0, -1, 2.5])
    def test_default_points_need_a_positive_integer_dimension(self, N):
        with pytest.raises(InputDomainError):
            cf.default_certification_points(N, "halfspace")


class TestRefutation:
    def test_subcritical_family_never_certifies(self, const2, cfg):
        rows = cf.refute_candidate_family(const2, 0.5, 1.5, "halfspace", cfg=cfg)
        assert len(rows) == 15
        assert not any(r.certified for r in rows)
        assert all(r.min_margin < 0.0 for r in rows)

    def test_candidate_exponents_scale_with_s(self, const2, cfg):
        rows = cf.refute_candidate_family(const2, 0.5, 1.5, "halfspace", cfg=cfg)
        alphas = sorted({r.alpha for r in rows})
        assert alphas == pytest.approx([f * 0.5 for f in (0.15, 0.35, 0.55, 0.75, 0.92)])

    @pytest.mark.parametrize("density,mode,points", [
        ("const2", "halfspace", None),
        ("const2", "wholespace", None),
        ("cone2", "halfspace", [[0.3, 0.5], [0.2, -0.7]]),
    ], ids=["const2-halfspace", "const2-wholespace", "cone2-points"])
    def test_rows_equal_certify_of_each_multiple(self, request, cfg, density,
                                                 mode, points):
        # one field per exponent serves all three amplitudes: each row is
        # what certify gives for that multiple of the unit candidate
        a = request.getfixturevalue(density)
        rows = cf.refute_candidate_family(a, 0.5, 1.5, mode, points=points,
                                          cfg=cfg)
        pts = (cf.default_certification_points(2, mode) if points is None
               else np.array(points))
        assert len(rows) == 15
        for r in rows:
            base = cf.kelvin(r.alpha, 2, 0.5)
            if mode == "wholespace":
                base = cf.translate_truncate(base)
            rep = cf.certify(a, 0.5, 1.5, cf.ScalarMultiple(r.epsilon, base),
                             pts, cfg, tolerance=0.0)
            assert r.min_margin.hex() == rep.min_margin.hex()
            assert r.argmin == rep.argmin
            assert r.certified == rep.certified

    @pytest.mark.parametrize("p,points", [
        (1.0, None), (math.nan, None), (math.inf, None), (0.5, None),
        (1.5, [[0.0, math.nan]]), (1.5, [[0.0, 1.0, 2.0]]),
        (1.5, np.zeros((0, 2))), (1.5, np.ones((2, 2, 2))),
    ], ids=["p_one", "p_nan", "p_inf", "p_half", "nonfinite_point",
            "three_coordinates", "no_points", "three_axes"])
    def test_inputs_are_validated(self, const2, cfg, p, points):
        with pytest.raises(InputDomainError):
            cf.refute_candidate_family(const2, 0.5, p, "halfspace",
                                       points=points, cfg=cfg)


class TestScan:
    def test_constant_density_rows(self, const2, cfg):
        rows = cf.liouville_scan(const2, 0.5, [1.5, 1.8], "halfspace", cfg)
        assert [r.certified for r in rows] == [False, True]
        assert all(r.threshold == pytest.approx(5.0 / 3.0) for r in rows)
        assert rows[1].regime == "kelvin"

    def test_cone_density_above_threshold_stays_open(self, cone2, cfg):
        rows = cf.liouville_scan(cone2, 0.5, [1.8], "halfspace", cfg)
        assert rows[0].regime == "not_constructed"
        assert not rows[0].certified

    def test_error_row_names_the_exception(self, const2, cfg, monkeypatch):
        def fail(*args, **kwargs):
            raise AccuracyError("budget exhausted")

        monkeypatch.setattr(liouville, "construct_supersolution", fail)
        rows = cf.liouville_scan(const2, 0.5, [1.5, 1.8], "halfspace", cfg)
        assert rows[0].regime == "kelvin" and rows[0].error == ""
        assert rows[1].regime == "error"
        assert rows[1].error == "AccuracyError: budget exhausted"

    @pytest.mark.parametrize("points", [
        np.ones((2, 3)), [[0.3, 0.5], [0.0, math.nan]], np.zeros((0, 2)),
    ], ids=["three_coordinates", "nonfinite_point", "no_points"])
    def test_points_are_validated(self, const2, cfg, points):
        # malformed points are refused up front, not once per power as an
        # "error" row
        with pytest.raises(InputDomainError):
            cf.liouville_scan(const2, 0.5, [1.5, 1.8], "halfspace", cfg,
                              points=points)

    @pytest.mark.parametrize("mode, p, points", [
        ("wholespace", 2.5, [[0.0, -1.0], [0.5, -2.0]]),
        ("halfspace", 1.8, [[0.0, -1.0]]),
    ], ids=["wholespace", "halfspace"])
    def test_construction_row_names_an_empty_upper_sample(self, const2, cfg,
                                                           mode, p, points):
        # a construction is certified on the sample points above the plane;
        # with none there the row is an error that says so, not one about
        # malformed points
        (row,) = cf.liouville_scan(const2, 0.5, [p], mode, cfg, points=points)
        assert row.regime == "error"
        assert row.error == ("InputDomainError: no sample point lies in the "
                             "upper half-space")


class TestGammaSearch:
    def test_full_aperture_cone(self, cfg):
        res = cf.gamma_search((0.0, 1.0), 1.0, cfg, grid=(0.5, 0.25), n_boundary=50)
        assert res.verified
        assert res.gamma == 0.5
        assert res.monotone
        assert len(res.rows) == 2
        assert res.min_volume - res.three_sigma > 0.0
        # fixed seed, frozen estimate
        assert res.min_volume == pytest.approx(2.531966599160694, rel=1e-9)

    def test_narrow_cone_still_verifies(self, cfg):
        res = cf.gamma_search((0.0, 1.0), 0.1, cfg, grid=(0.1, 0.05), n_boundary=50)
        assert res.verified
        assert 0.0 < res.gamma < 1.0

    def test_tau_validation(self, cfg):
        with pytest.raises(InputDomainError):
            cf.gamma_search((0.0, 1.0), 7.0, cfg)

    def test_boundary_net_floor(self, cfg):
        with pytest.raises(InputDomainError):
            cf.gamma_search((0.0, 1.0), 1.0, cfg, n_boundary=40)


class TestStepOneValidation:
    def test_dimension_restriction(self, cfg):
        with pytest.raises(InputDomainError):
            cf.step_one_M(cf.ConstantDensity(3), 0.5, 0.75, 0.25, cfg)

    def test_alpha_window(self, const2, cfg):
        with pytest.raises(InputDomainError):
            cf.step_one_M(const2, 0.5, 0.05, 0.25, cfg)

    def test_gamma_window(self, const2, cfg):
        with pytest.raises(InputDomainError):
            cf.step_one_M(const2, 0.5, 0.75, 0.0, cfg)


def sup_ratio_misses(a, s, alpha0, gamma0, rep):
    """(region, miss, M_err) at each sampled region's sup point of a
    step_one_M report, the miss taken against a tight polar apply_L of both
    test functions and less that oracle's own error."""
    bump = cf.Bump(2, s, center=(0.0, 1.0 - gamma0), r_in=1.0 - 0.5 * gamma0,
                   r_out=1.0)
    phia = cf.Product(cf.HalfSpacePower(2, s, alpha=alpha0), bump)
    phis = cf.Product(cf.HalfSpacePower(2, s, alpha=s), bump)
    tight = DEFAULT_CONFIG.with_tol(abs_tol=1e-9, rel_tol=1e-9)
    out = []
    for r in rep.regions:
        if not r.n_points:
            continue
        x = np.array(r.sup_x)
        ea, es = (cf.apply_L(a, s, phi, x, tight) for phi in (phia, phis))
        den = phis.values(x[None, :])[0]
        oracle = (-ea.value - es.value) / den
        oracle_err = (ea.abs_error_estimate + es.abs_error_estimate) / den
        out.append((r.region, abs(oracle - r.M_est) - oracle_err, r.M_err))
    return out


class TestCutoffMassField:
    """L of the cutoff's test functions (x_N)_+^alpha times a bump, which
    step_one_M takes from the route table: the excision form at every
    sample and audit point, near the boundary plane too."""

    def test_alpha_near_two_s_near_the_plane_covers_a_tight_oracle(
            self, const2, cfg):
        # with alpha0 = 0.98 and s = 0.5 the power x_N^alpha0 is nearly
        # x_N^(2s), and the plateau points within 0.1 of the plane take the
        # excision form, with chords cut at the plane: its error must be
        # finite and cover a tight polar evaluation
        s, alpha0 = 0.5, 0.98
        bump = cf.Bump(2, s, center=(0.0, 0.5), r_in=0.75, r_out=1.0)
        phi = cf.Product(cf.HalfSpacePower(2, s, alpha=alpha0), bump)
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        X = np.array([[0.0, 0.05], [0.3, 0.08]])
        va, ea, _ = _L_field(const2, s, phi, X, loose)
        vp, ep, _ = operators._excised_L_compact(const2, s, (phi,), X, None)
        assert np.array_equal(va, vp[0]) and np.array_equal(ea, ep[0])
        assert np.all(np.isfinite(ea))
        tight = cfg.with_tol(abs_tol=1e-9, rel_tol=1e-9)
        for x, v, e in zip(X, va, ea):
            ref = cf.apply_L(const2, s, phi, x, tight)
            assert abs(v - ref.value) <= e + ref.abs_error_estimate

    def test_step_one_reports_the_error_of_each_sup_ratio(self, const2, cfg):
        # same field as above (gamma0 = 0.5): the error of L phi_alpha0
        # must be carried by the ratio's error
        s, alpha0 = 0.5, 0.98
        rep = cf.step_one_M(const2, s, alpha0, 0.5, cfg)
        found = [r for r in rep.regions if r.n_points]
        # the plateau's sup is known within 0.2% (a single-ratio
        # completion once charged it 12 of 74)
        interior = next(r for r in found if r.region == "interior")
        assert interior.M_err <= 2e-3 * interior.M_est
        assert (rep.M_est, rep.M_err) in [(r.M_est, r.M_err) for r in found]
        for region, miss, err in sup_ratio_misses(const2, s, alpha0, 0.5, rep):
            assert math.isfinite(err)
            assert miss <= err, region

    @pytest.mark.parametrize("density", ["const2", "cone2"])
    def test_errors_cover_a_polar_oracle_on_criterion_08_inputs(
            self, request, cfg, density):
        # every region's sup ratio, and the audit's largest numerator
        # -L phi_alpha0 - L phi_s at its exterior argmax
        s, alpha0, gamma0 = 0.5, 0.75, 0.25
        a = request.getfixturevalue(density)
        rep = cf.step_one_M(a, s, alpha0, gamma0, cfg)
        for region, miss, err in sup_ratio_misses(a, s, alpha0, gamma0, rep):
            assert miss <= err, region
        bump = cf.Bump(2, s, center=(0.0, 1.0 - gamma0),
                       r_in=1.0 - 0.5 * gamma0, r_out=1.0)
        tight = cfg.with_tol(abs_tol=1e-9, rel_tol=1e-9)
        refs = [cf.apply_L(a, s, cf.Product(cf.HalfSpacePower(2, s, alpha=al),
                                            bump), rep.audit_argmax, tight)
                for al in (alpha0, s)]
        oracle = -sum(r.value for r in refs)
        assert 0.0 < rep.audit_err < math.inf
        assert abs(oracle - rep.audit_max) <= rep.audit_err + sum(
            r.abs_error_estimate for r in refs)

    def test_rows_do_not_depend_on_the_batch(self, const2, cone2, cfg):
        # plateau (two of them near the plane), shell and exterior points,
        # both exponents and both densities: each row alone reads what it
        # reads in the batch, and in the batch of the two-member family
        s, alpha0, h = 0.5, 0.75, 0.75
        bump = cf.Bump(2, s, center=(0.0, h), r_in=0.875, r_out=1.0)
        loose = cfg.with_tol(abs_tol=2e-5, rel_tol=1e-4)
        X = np.array([[0.0, h], [0.3, 0.9], [0.2, 0.05], [-0.4, 0.1],
                      [0.0, h + 0.94], [1.1, 0.9]])
        for a in (const2, cone2):
            family = tuple(cf.Product(cf.HalfSpacePower(2, s, alpha=alpha),
                                      bump) for alpha in (alpha0, s))
            fvals, ferrs, _ = _L_field(a, s, family, X, loose)
            assert fvals.shape == ferrs.shape == (2, X.shape[0])
            for j, phi in enumerate(family):
                vals, errs, _ = _L_field(a, s, phi, X, loose)
                for i in range(X.shape[0]):
                    one, one_err, _ = _L_field(a, s, phi, X[i:i + 1], loose)
                    assert (vals[i], errs[i]) == (one[0], one_err[0])
                    # the family's row of this member reads the same bits
                    assert ([float(fvals[j, i]).hex(), float(ferrs[j, i]).hex()]
                            == [float(one[0]).hex(), float(one_err[0]).hex()])

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_cone_step_one_peak_memory(self):
        # the excision form evaluates its catalog function in chunks of at
        # most 200k nodes, whose temporaries stay near 30 MB; with 2 M-node
        # chunks a cone step_one_M at the criterion-08 inputs once peaked
        # near 190 MB.  A fresh process, so that nothing else this suite ran
        # counts, and its VmHWM, not ru_maxrss: Linux carries ru_maxrss
        # across exec, so a child of this (large) test process would start
        # at its size
        code = ("import conefrac as cf; "
                "a = cf.ConePlateauDensity(2, cf.Cone((1.0, 0.0), 0.3), 1.0, 0.25); "
                "cf.step_one_M(a, 0.5, 0.75, 0.25, cf.DEFAULT_CONFIG); "
                "print(next(l.split()[1] for l in open('/proc/self/status') "
                "if l.startswith('VmHWM:')))")
        src = str(Path(cf.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=src,
                             env={**os.environ, "PYTHONPATH": src})
        peak_mb = int(out.stdout.strip()) / 1024.0
        assert peak_mb <= 120.0


class TestRescaledRows:
    def test_zero_candidate_gives_exact_zero_rows(self, const2, cfg):
        rows = cf.rescaled_inequality_experiment(
            const2, 0.5, 1.8, cf.Zero(2, 0.5), 1.0, [0.5, 2.0], cfg)
        for row in rows:
            assert row.lhs == 0.0
            assert row.rhs == 0.0

    def test_reports_envelope_exponent(self, const2, cfg):
        rows = cf.rescaled_inequality_experiment(
            const2, 0.5, 1.8, cf.kelvin(0.25, 2, 0.5), 3.7, [2.0], cfg)
        assert rows[0].envelope_exponent == pytest.approx(0.25, rel=1e-12)

    def test_lhs_matches_scipy_oracle(self, const2, cfg):
        # second route: adaptive 2d quadrature in cartesian coordinates over
        # the cutoff's support at R = 2, contact parameter 0.25
        u = cf.kelvin(0.25, 2, 0.5)
        (row,) = cf.rescaled_inequality_experiment(
            const2, 0.5, 1.8, u, 3.7, [2.0], cfg)
        phi = cf.Rescale(cf.Bump(2, 0.5, center=(0.0, 0.75), r_in=0.875,
                                 r_out=1.0), 2.0)

        def integrand(y, x1):
            P = np.array([[x1, y]])
            w = y ** 0.5 * phi.values(P)[0]
            if w == 0.0:
                return 0.0
            return u.values(P)[0] ** 1.8 * w

        # the corner singularity at the origin trips the convergence heuristic
        # without hurting the returned estimate; keep the run quiet
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            oracle, oerr = dblquad(integrand, -2.0, 2.0, 0.0, 3.5,
                                   epsabs=1e-9, epsrel=1e-8)
        assert row.lhs == pytest.approx(oracle,
                                        abs=5.0 * (row.lhs_err + oerr) + 1e-3 * abs(oracle))

    def test_candidate_must_vanish_below_plane(self, const2, cfg):
        with pytest.raises(InputDomainError):
            cf.rescaled_inequality_experiment(
                const2, 0.5, 1.8, cf.Constant(2, 0.5), 1.0, [1.0], cfg)
