"""Bound kit, brute-force oracle, sign scans, and the appendix tables.

Oracles here are deliberately primitive: literal re-typings of the finite
series parts, Wronskians of those parts multiplied out at runtime, dense
finite-difference grids, and the closed-form minimizer as the counterpart
of the brute grid search.
"""

import importlib.util
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticetheta import DomainError, HalfPlanePoint, TruncationError, verifier
from latticetheta import polydata
from latticetheta.functionals import FunctionalKind, XYABKind, minimizer, thresholds, w_eval, xyab
from latticetheta.verifier import (
    appendix_margins,
    appendix_poly,
    bound_kit,
    brute_minimize,
    case_c_margin,
    case_d_margin,
    delta_q,
    eval_table,
    mu,
    n0_of,
    over_theta,
    q_of,
    run_suite,
    series_split,
    sigma_bound,
    theta_w1_lower,
    theta_w2_lower,
    under_theta,
    x_monotonicity_scan,
)

W1, W2 = FunctionalKind.W1, FunctionalKind.W2
SQRT3_HALF = math.sqrt(3.0) / 2.0

# the three printed constants our recomputation genuinely misses at 1e-6
DOCUMENTED_MARGIN_MISSES = {"v3_pair_main", "v3_pair_envelope", "pxy_minus_deriv"}
# printed thresholds carrying fewer correct digits than their display
DOCUMENTED_THRESHOLD_MISSES = {"rho1", "rho2", "sigma2b", "alpha0", "theta_alpha0"}


# ---------------------------------------------------------------------------
# bound kit


class TestBoundKit:
    def test_mu_frozen_and_decreasing(self):
        assert mu(1.0) == pytest.approx(3.2279817973522893e-4, rel=1e-12)
        grid = np.linspace(0.25, 4.0, 200)
        vals = [mu(float(x)) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=0.21, max_value=6.0))
    def test_envelope_pair_brackets_center(self, X):
        center = 4 * math.pi * math.exp(-math.pi * X)
        assert under_theta(X) <= center <= over_theta(X)
        assert under_theta(X) > 0

    @pytest.mark.parametrize("X", [1e-6, 1e-5, 1e-4, 1e-3, 0.125])
    def test_mu_matches_a_30_digit_sum(self, X):
        # below X = 3.3e-5 the sum runs past n = 600 before its tail is small
        with mpmath.workdps(30):
            Xm = mpmath.mpf(X)
            terms = (n * n * mpmath.exp(-mpmath.pi * (n * n - 1) * Xm) for n in range(2, 6000))
            ref = mpmath.fsum(terms)
        assert mu(X) == pytest.approx(float(ref), rel=1e-13)

    def test_mu_raises_when_its_tail_cannot_be_certified(self):
        with pytest.raises(TruncationError):
            mu(1e-12)

    @pytest.mark.parametrize("y", [0.002, 0.005, 0.02])
    def test_sigma_1_and_3_match_30_digit_sums(self, y):
        # at y = 0.002 a fixed n < 40 cut-off left sigma_3 2% low
        with mpmath.workdps(30):
            ym = mpmath.mpf(y)
            terms = lambda scale: (
                n * n * mpmath.exp(-mpmath.pi * ym * (n * n - 4) * scale) for n in range(3, 3000)
            )
            ref1, ref3 = mpmath.fsum(terms(1)) / 4, mpmath.fsum(terms(0.5)) / 2
        assert sigma_bound(1, y) == pytest.approx(float(ref1), rel=1e-13)
        assert sigma_bound(3, y) == pytest.approx(float(ref3), rel=1e-13)

    def test_envelope_pair_needs_large_argument(self):
        with pytest.raises(DomainError):
            under_theta(0.15)
        with pytest.raises(DomainError):
            over_theta(0.2)

    def test_delta_q_frozen(self):
        assert q_of(0.5) == pytest.approx(math.pi, abs=1e-15)
        assert delta_q(0.5) == pytest.approx(0.18882258522, abs=1e-10)

    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_delta_q_increases_with_x(self, x):
        assert delta_q(x) < delta_q(x + 0.05)

    def test_n0_steps_past_the_peak(self):
        assert n0_of(0.5) == 2
        assert n0_of(0.2) == 3
        with pytest.raises(DomainError):
            n0_of(0.6)

    @given(st.floats(min_value=0.01, max_value=0.5))
    def test_n0_exceeds_half_reciprocal(self, x):
        assert n0_of(x) > 1 / (2 * x)

    def test_sigma_frozen_values(self):
        assert sigma_bound(1, SQRT3_HALF) == pytest.approx(2.7813754e-6, rel=1e-7)
        assert sigma_bound(2, SQRT3_HALF) == pytest.approx(1.1410573e-3, rel=1e-7)
        assert sigma_bound(3, SQRT3_HALF) == pytest.approx(5.0038878e-3, rel=1e-7)
        assert sigma_bound(4, SQRT3_HALF) == pytest.approx(3.2550113e-7, rel=1e-7)
        with pytest.raises(DomainError):
            sigma_bound(5, 1.0)

    def test_sigma_decreasing_in_y(self):
        for j in (1, 2, 3, 4):
            vals = [sigma_bound(j, y) for y in np.linspace(0.6, 3.0, 50)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_case_margins_frozen(self):
        assert case_c_margin() == pytest.approx(0.15562380609, abs=1e-9)
        assert case_d_margin() == pytest.approx(0.7866071958, abs=1e-8)
        # the faithful long-side endpoint is smaller but still positive
        assert case_d_margin(0.5) == pytest.approx(0.55157729763, abs=1e-9)

    def test_case_margins_positive_on_their_intervals(self):
        # short-side case covers x <= 2/5, long-side case x in [1/3, 1/2]
        for x in np.linspace(0.02, 0.4, 60):
            assert case_c_margin(float(x)) > 0
        for x in np.linspace(1 / 3, 0.5, 60):
            assert case_d_margin(float(x)) > 0

    def test_case_bounds_agree_at_the_interface(self):
        # short-side bound at x = 1/3 equals long-side bound at x = 1/2
        assert case_c_margin(1 / 3) == pytest.approx(case_d_margin(0.5), rel=1e-14)

    def test_w1_lower_bound_frozen_and_positive(self):
        assert theta_w1_lower(SQRT3_HALF, 0.05) == pytest.approx(0.19333973, abs=1e-8)
        for y in np.linspace(SQRT3_HALF, 10.0, 80):
            assert theta_w1_lower(float(y), 0.05) > 0

    def test_w2_lower_bound_frozen_triple(self):
        assert theta_w2_lower(0.0, math.sqrt(15.0) / 4, 20) == pytest.approx(
            0.0450964128, abs=1e-8
        )
        assert theta_w2_lower(0.25, math.sqrt(55.0) / 8, 20) == pytest.approx(
            0.1583739562, abs=1e-8
        )
        assert theta_w2_lower(0.375, SQRT3_HALF, 20) == pytest.approx(
            0.3525036217, abs=1e-8
        )

    def test_bundle_matches_scalars(self):
        kit = bound_kit(0.5, 0.4, 1.0)
        assert kit.mu == mu(0.5)
        assert kit.under_theta == under_theta(0.5)
        assert kit.over_theta == over_theta(0.5)
        assert kit.delta == delta_q(0.4)
        assert kit.q == q_of(0.4)
        assert kit.n0 == n0_of(0.4)
        assert kit.sigma3 == sigma_bound(3, 1.0)


# ---------------------------------------------------------------------------
# brute-force minimization oracle


def theta_30_digits(s, x, y, cut=120):
    """theta(s; x+iy) as a plain double sum at 30 digits, with no package code.

    Every (m, n) with s pi (m^2 y + (mx + n)^2 / y) <= cut: the rows with
    s pi m^2 y <= cut and, in row m, the n within sqrt(y (cut / (s pi) - m^2 y))
    of -mx.  At any y every omitted term is below e^{-cut}.
    """
    xf, yf, reach = float(x), float(y), cut / (s * math.pi)
    with mpmath.workdps(30):
        xm, ym = mpmath.mpf(x), mpmath.mpf(y)
        rate, total = s * mpmath.pi / ym, mpmath.mpf(0)
        for m in range(-int(math.sqrt(reach / yf)), int(math.sqrt(reach / yf)) + 1):
            w, mx, row = math.sqrt(max(yf * (reach - m * m * yf), 0.0)), m * xm, mpmath.mpf(0)
            for n in range(math.ceil(-m * xf - w), math.floor(-m * xf + w) + 1):
                row += mpmath.exp(-rate * (mx + n) ** 2)
            total += mpmath.exp(-rate * (m * ym) ** 2) * row
        return total


def whole_grid_theta(s, xs, ys):
    """theta(s; x+iy) on a grid with one (M, J) cut for every point, from the
    grid's own [y_lo, y_hi]: _theta_grid's sum before it cut per band of rows."""
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    rows = verifier._gauss_cut(s * y_lo, 2 * (1 + math.sqrt(y_hi / s)), 1.0)
    half = verifier._gauss_cut(s / y_hi, 2 * (1 + 1 / math.sqrt(s * y_lo)), 0.5)
    total, rate = 0.0, -s * math.pi / ys
    for m in range(rows, -1, -1):
        f = m * xs - np.rint(m * xs)
        row = sum(np.exp(rate * (f + j) ** 2) for j in range(-half, half + 1))
        total += (2 if m else 1) * np.exp(-s * math.pi * m * m * ys) * row
    return total


def _oracle_mesh(grid_n, kind, shifted):
    grids = verifier._brute_grids(kind, grid_n)
    s_shift, s_plain = (2, 1) if kind is W1 else (1, 2)
    if shifted:
        return s_shift, (grids.xgrid + 1) / 2, grids.ygrid / 2
    return s_plain, grids.xgrid, grids.ygrid


def _scan_mesh(region, s, shifted):
    xs, ys = verifier._region_grid(region, 200)
    return (s, (xs + 1) / 2, ys / 2) if shifted else (s, xs, ys)


# (s, xs, ys) of each mesh the oracle or a scan hands to _theta_grid, y rising down
# axis 0: the oracle's four grids at two sizes; the theta_shifted scan and the plain
# thetas of the w1/w2 scans on D_G2, and the theta scan on Omega_C1, at grid 200
MESHES = {
    f"oracle{n}_{kind.value}_{'shifted' if shifted else 'plain'}": (_oracle_mesh, n, kind, shifted)
    for n in (100, 400)
    for kind in (W1, W2)
    for shifted in (True, False)
}
MESHES.update(
    D_G2_shifted_s1=(_scan_mesh, "D_G2", 1, True),
    D_G2_plain_s1=(_scan_mesh, "D_G2", 1, False),
    D_G2_plain_s2=(_scan_mesh, "D_G2", 2, False),
    Omega_C1_plain_s1=(_scan_mesh, "Omega_C1", 1, False),
)


def _mesh(name):
    make, *args = MESHES[name]
    return make(*args)


class TestThetaGrid:
    @pytest.mark.parametrize("name", MESHES)
    def test_theta_grid_matches_30_digit_sums(self, name):
        # each band's first and last rows carry its least and largest y, where its
        # (M, J) cut binds, three columns each; the oracle's meshes reach y = 0.125
        # after the shift and 3.5 at the top, the scans' y = 10 at the top and 0.0603
        # on Omega_C1's lowest row
        s, xs, ys = _mesh(name)
        values = verifier._theta_grid(s, xs, ys)
        n = ys.shape[0]
        edges = [n * b // verifier._GRID_BANDS for b in range(verifier._GRID_BANDS + 1)]
        for lo, hi in zip(edges, edges[1:]):
            for i in (lo, hi - 1):
                for j in (0, ys.shape[1] // 2, -1):
                    ref = theta_30_digits(s, float(xs[i, j]), float(ys[i, j]))
                    err = (values[i, j] - ref) / ref
                    assert abs(err) <= 1e-15, (name, i, j, float(err))

    @pytest.mark.parametrize("name", MESHES)
    def test_cut_does_not_rest_on_the_order_of_rows(self, name):
        # with y falling down axis 0 the running maxima widen every band's cut; both
        # orders give the one-cut sum to 1e-15 at every point
        s, xs, ys = _mesh(name)
        ref = whole_grid_theta(s, xs, ys)
        forward = verifier._theta_grid(s, xs, ys)
        reversed_rows = verifier._theta_grid(s, xs[::-1], ys[::-1])[::-1]
        for got in (forward, reversed_rows):
            assert np.max(np.abs(got - ref) / ref) <= 1e-15

    def test_theta_grid_rejects_what_it_cannot_certify(self):
        with pytest.raises(DomainError):
            verifier._theta_grid(1, np.zeros(2), np.array([0.0, 1.0]))
        with pytest.raises(TruncationError):
            verifier._theta_grid(1, np.zeros(2), np.array([1e-5, 1.0]))


class TestBruteMinimize:
    @pytest.mark.parametrize(
        "kind, rho",
        [(W1, 0.03), (W1, 0.7), (W1, 2.0), (W2, 0.5), (W2, 10.0)],
    )
    def test_matches_closed_form(self, kind, rho):
        z, val = brute_minimize(kind, rho, grid_n=120)
        ref = minimizer(kind, rho)
        mesh = 2 * max(1.0 / 120, 3.25 / 120)
        assert abs(z.x - ref.z.x) <= mesh
        assert abs(z.y - ref.z.y) <= mesh
        # the Newton refinement actually lands much closer than the mesh guarantee
        assert abs(z.x - ref.z.x) <= 1e-9
        assert abs(z.y - ref.z.y) <= 1e-9
        assert val == pytest.approx(w_eval(kind, rho, ref.z), rel=1e-10)

    def test_plateau_weight_lands_on_the_corner(self):
        z, _ = brute_minimize(W1, 0.05, grid_n=110)
        assert abs(z.x - 0.0) <= 1e-6
        assert abs(z.y - 1.0) <= 1e-6

    def test_value_is_certified_at_the_returned_point(self):
        z, val = brute_minimize(W2, 2.0, grid_n=100)
        assert val == pytest.approx(w_eval(W2, 2.0, z), rel=1e-12)

    def test_rejects_coarse_grids(self):
        with pytest.raises(DomainError):
            brute_minimize(W1, 1.0, grid_n=50)

    @pytest.mark.parametrize("rho", [-1.0, math.nan, math.inf])
    def test_rejects_a_weight_off_the_half_line_before_any_grid(self, rho, monkeypatch):
        monkeypatch.setattr(verifier, "_theta_grid", lambda *args: pytest.fail("grid built"))
        with pytest.raises(DomainError):
            brute_minimize(W1, rho, grid_n=100)

    @pytest.mark.parametrize("kind, rho", [(W1, 0.05), (W1, 0.7), (W2, 10.0)])
    def test_indefinite_jet_returns_the_grid_argmin(self, kind, rho, monkeypatch):
        # with no Newton step to take, the seed is the only iterate: the descent returns
        # the grid argmin and its jet value, and evaluates W nowhere else
        monkeypatch.setattr(verifier, "w_eval", lambda *args: pytest.fail("w_eval called"))
        monkeypatch.setattr(verifier, "_w_jet", lambda *args: [1.0, 0.0, 0.0, 1.0, 2.0, 1.0])
        grids = verifier._brute_grids(kind, 100)
        z, val = verifier._grid_descent(kind, rho, grids, verifier.DEFAULT_TRUNCATION)
        flat = int(np.argmin(grids.shifted + rho * grids.plain))
        assert (z.x, z.y) == (grids.xgrid.flat[flat], grids.ygrid.flat[flat])
        assert val == 1.0

    @pytest.mark.parametrize(
        "kind, name", [(W1, "rho1"), (W1, "sigma1b"), (W2, "rho2"), (W2, "sigma2b")]
    )
    @pytest.mark.parametrize("factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_threshold_weights_land_near_the_closed_form(self, kind, name, factor):
        # at a threshold weight the Hessian at the minimizer degenerates and Newton may
        # stop early; the least-W iterate still lands within 1e-4 of the closed form
        rho = getattr(thresholds(), name) * factor
        z, _ = verifier._grid_descent(
            kind, rho, verifier._brute_grids(kind, 100), verifier.DEFAULT_TRUNCATION
        )
        ref = minimizer(kind, rho).z
        assert max(abs(z.x - ref.x), abs(z.y - ref.y)) <= 1e-4

    def test_w_jets_match_30_digit_sums(self):
        # W = theta(2s; (z+1)/2) + rho theta(1/s; z): the shifted theta's z-partials of
        # order k are 2^-k times its own at (z+1)/2
        from test_kernels import Z_JET_POINTS, assert_jet_close, z_jet_sum

        for x, y in Z_JET_POINTS:
            for kind, (s_shift, s_plain), rho in ((W1, (2, 1), 0.7), (W2, (1, 2), 30.0)):
                shifted = z_jet_sum(s_shift, (x + 1) / 2, y / 2)
                plain = z_jet_sum(s_plain, x, y)
                scales = (1, 0.5, 0.5, 0.25, 0.25, 0.25)
                want = [c * u + rho * v for c, u, v in zip(scales, shifted, plain)]
                got = verifier._w_jet(kind, rho, HalfPlanePoint(x, y), verifier.DEFAULT_TRUNCATION)
                assert_jet_close(got, want)

    @pytest.mark.parametrize("kind, rho", [(k, r) for k, rs in verifier.ORACLE_RHOS for r in rs])
    def test_closed_form_minimizers_are_stationary_points_of_w(self, kind, rho):
        # the axis solver's root is within 1e-10 of a stationary point of the 2-D W:
        # |grad W| <= 1e-10 lambda_min, and there the Hessian is positive definite
        z = minimizer(kind, rho).z
        _, wx, wy, wxx, wxy, wyy = verifier._w_jet(kind, rho, z, verifier.DEFAULT_TRUNCATION)
        lam_min = (wxx + wyy - math.hypot(wxx - wyy, 2 * wxy)) / 2
        assert lam_min > 0
        assert math.hypot(wx, wy) <= 1e-10 * lam_min


# ---------------------------------------------------------------------------
# x-monotonicity scans


class TestMonotonicityScan:
    @pytest.mark.parametrize(
        "target, region, kwargs",
        [
            ("theta_shifted", "D_G2", {}),
            ("theta", "Omega_C1", {}),
            ("w1", "R2", {"rho": 0.05}),
            ("w2", "R2", {"rho": 20.0}),
            ("w1", "R_L", {"rho": 0.5}),
            ("w2", "R_L", {"rho": 2.0}),
        ],
    )
    def test_expected_sign_everywhere(self, target, region, kwargs):
        assert x_monotonicity_scan(target, region, grid_n=60, **kwargs) == []

    def test_wrong_claim_is_detected(self):
        # theta decreases in x left of 1/2, so claiming growth on R2 must fail
        violations = x_monotonicity_scan("theta", "R2", grid_n=60)
        assert len(violations) > 100
        assert all(v.derivative < 0 for v in violations)

    def test_validation(self):
        with pytest.raises(DomainError):
            x_monotonicity_scan("theta", "R3")
        with pytest.raises(DomainError):
            x_monotonicity_scan("w3", "R2")
        with pytest.raises(DomainError):
            x_monotonicity_scan("w1", "R2", grid_n=20)


# ---------------------------------------------------------------------------
# appendix tables


def _series(terms, y, order):
    """Derivative of sum c*sqrt(y)*exp(-r*pi*y/4), literal Leibniz form."""
    coeffs = (1.0, 0.5, -0.25, 0.375, -0.9375)
    total = 0.0
    for r, c in terms:
        rate = r * math.pi / 4
        for i in range(order + 1):
            total += (
                c
                * math.comb(order, i)
                * coeffs[i]
                * y ** (0.5 - i)
                * (-rate) ** (order - i)
                * math.exp(-rate * y)
            )
    return total


def _table(name):
    return verifier._tables()[name]


class TestAppendixTables:
    @pytest.mark.parametrize("y", [1.0, 1.38, 2.2])
    def test_pxy_table_is_the_weighted_wronskian(self, y):
        lhs = eval_table(_table("PXY_plus") + _table("PXY_minus"), y)
        rhs = (16 * y / math.pi) * math.exp(math.pi * y / 4) * (
            _series(polydata.YA_TERMS, y, 2) * _series(polydata.XA_TERMS, y, 1)
            - _series(polydata.XA_TERMS, y, 2) * _series(polydata.YA_TERMS, y, 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("y", [1.0, 1.38, 2.2])
    def test_pab_table_is_the_weighted_wronskian(self, y):
        lhs = eval_table(_table("PAB_plus") + _table("PAB_minus"), y)
        rhs = (4 * y / math.pi) * math.exp(math.pi * y / 2) * (
            _series(polydata.BA_TERMS, y, 2) * _series(polydata.AA_MONOMIALS, y, 1)
            - _series(polydata.AA_MONOMIALS, y, 2) * _series(polydata.BA_TERMS, y, 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("y", [1.0, 1.11, 1.7])
    def test_fxy_table_is_the_weighted_wronskian(self, y):
        lhs = eval_table(_table("FXY_weighted"), y)
        rhs = (512 * y**4 / math.pi) * math.exp(math.pi * y / 4) * (
            _series(polydata.YA_TERMS, y, 4) * _series(polydata.XA_TERMS, y, 2)
            - _series(polydata.YA_TERMS, y, 2) * _series(polydata.XA_TERMS, y, 4)
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("y", [1.0, 1.12, 1.7])
    def test_fab_tables_match_their_two_variants(self, y):
        five_term = tuple(t for t in polydata.AA_MONOMIALS if t[0] != 16)

        def wronskian(terms):
            return (32 * y**4 / math.pi) * math.exp(math.pi * y / 2) * (
                _series(polydata.BA_TERMS, y, 4) * _series(terms, y, 2)
                - _series(polydata.BA_TERMS, y, 2) * _series(terms, y, 4)
            )

        assert eval_table(_table("FAB_weighted"), y) == pytest.approx(
            wronskian(five_term), rel=1e-11
        )
        six_term = verifier._wronskian(polydata.AA_MONOMIALS, polydata.BA_TERMS, 2, 4, 32, 4, 2)
        assert eval_table(six_term, y) == pytest.approx(wronskian(polydata.AA_MONOMIALS), rel=1e-11)

    def test_appendix_poly_dispatch_and_derivative(self):
        h = 1e-5
        for name in (
            "PXY_plus",
            "PXY_minus",
            "PAB_plus",
            "PAB_minus",
            "FXY_weighted",
            "FAB_weighted",
        ):
            fd = (appendix_poly(name, 1.4 + h) - appendix_poly(name, 1.4 - h)) / (2 * h)
            assert appendix_poly(name, 1.4, order=1) == pytest.approx(fd, rel=1e-8)

    def test_appendix_poly_validation(self):
        with pytest.raises(DomainError):
            appendix_poly("PXY", 1.5)
        with pytest.raises(DomainError):
            appendix_poly("PXY_plus", 0.9)
        with pytest.raises(DomainError):
            appendix_poly("PXY_plus", 1.5, order=2)

    def test_margin_rows_match_print_except_documented(self):
        rows = appendix_margins()
        assert len(rows) == 19
        assert len({m.name for m in rows}) == 19
        for m in rows:
            if m.name in DOCUMENTED_MARGIN_MISSES:
                assert m.tol < m.diff < 3e-6, m
            else:
                assert m.diff <= m.tol, m

    def test_pxy_total_increasing_on_500_points(self):
        table = _table("PXY_plus") + _table("PXY_minus")
        for y in np.linspace(1.0, 10.0, 500):
            assert eval_table(table, float(y), order=1) > 0

    def test_fxy_weighted_decreasing_near_one(self):
        for y in np.linspace(1.001, 1.2, 120):
            assert eval_table(_table("FXY_weighted"), float(y), order=1) < 0

    def test_positivity_margins_hold_out_to_ten(self):
        pxy = _table("PXY_plus") + _table("PXY_minus")
        pab = _table("PAB_plus") + _table("PAB_minus")
        for y in np.linspace(1.1, 10.0, 300):
            y = float(y)
            tail = 16 * y * (44 * math.pi + 18 + 36 * y) * math.exp(-4 * math.pi * y)
            assert eval_table(pxy, y) - tail > 0
        for y in np.linspace(1.05, 10.0, 300):
            y = float(y)
            tail = 1352 * math.pi * y**1.5 * math.exp(-6 * math.pi * y)
            assert eval_table(pab, y) - tail > 0

    def test_generated_tables_match_their_derivation(self):
        # the exact runtime derivation against the tool's sympy expansion,
        # which is itself checked against the printed tables
        pytest.importorskip("sympy")
        path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "derive_poly_tables.py"
        spec = importlib.util.spec_from_file_location("derive_poly_tables", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert verifier._tables() == script.derive()


# ---------------------------------------------------------------------------
# series splits


class TestSeriesSplit:
    def test_x_finite_part_is_the_printed_quadrinomial(self):
        y = 1.3
        e = math.exp
        literal = math.sqrt(y) * (
            1 + 4 * e(-math.pi * y) + 4 * e(-2 * math.pi * y) + 4 * e(-4 * math.pi * y)
        )
        assert series_split("Xa", y)[0] == pytest.approx(literal, rel=1e-14)

    def test_y_finite_part_is_the_printed_octonomial(self):
        y = 1.3
        e = math.exp
        literal = math.sqrt(y) * (
            1
            + 2 * e(-math.pi * y / 4)
            + 4 * e(-math.pi * y)
            - 4 * e(-5 * math.pi * y / 4)
            + 4 * e(-2 * math.pi * y)
            + 2 * e(-9 * math.pi * y / 4)
            - 4 * e(-13 * math.pi * y / 4)
            + 4 * e(-4 * math.pi * y)
        )
        assert series_split("Ya", y)[0] == pytest.approx(literal, rel=1e-14)

    def test_a_finite_part_is_monomials_plus_tails(self):
        y = 1.3
        sq, e = math.sqrt(y), math.exp
        v = e(-math.pi * y / 2)
        literal = sq * (1 + 2 * v + 4 * v**4 + 4 * v**5 + 4 * v**8 + 2 * v**9)
        literal += 2 * sq * sum(e(-2 * math.pi * n * n * y) for n in range(2, 8))
        literal += 2 * sq * sum(e(-math.pi * n * n * y / 2) for n in range(4, 12))
        assert series_split("Aa", y)[0] == pytest.approx(literal, rel=1e-14)

    def test_b_finite_part_is_the_printed_quadrinomial(self):
        y = 1.3
        v = math.exp(-math.pi * y / 2)
        literal = math.sqrt(y) * (2 * v - 4 * v**2 + 4 * v**5 + 2 * v**9)
        assert series_split("Ba", y)[0] == pytest.approx(literal, rel=1e-14)

    def test_split_sums_to_certified_value(self):
        for which, kind in (("Xa", XYABKind.X), ("Ya", XYABKind.Y), ("Aa", XYABKind.A), ("Ba", XYABKind.B)):
            for order in (0, 1, 2, 3, 4):
                a, e = series_split(which, 1.45, order)
                assert a + e == pytest.approx(xyab(kind, 1.45, order), rel=1e-12)

    def test_error_signs_at_one(self):
        assert series_split("Xe", 1.0)[1] > 0
        assert series_split("Ye", 1.0)[1] > 0
        assert series_split("Ae", 1.0)[1] > 0
        assert series_split("Be", 1.0)[1] < 0

    @pytest.mark.parametrize("y", [1.0, 1.2, 1.5])
    def test_error_envelopes(self, y):
        # additive slack absorbs binary64 cancellation in full - approx
        slack = 1e-11
        sq = math.sqrt(y)
        for j in range(5):
            _, xe = series_split("Xe", y, j)
            assert abs(xe) <= 10 * (5 * math.pi) ** j * sq * math.exp(-5 * math.pi * y) + slack
            _, ye = series_split("Ye", y, j)
            assert (
                abs(ye)
                <= 5 * (17 * math.pi / 4) ** j * sq * math.exp(-17 * math.pi * y / 4) + slack
            )
            _, ae = series_split("Ae", y, j)
            assert (
                abs(ae)
                <= 6 * (13 * math.pi / 2) ** j * sq * math.exp(-13 * math.pi * y / 2) + slack
            )
            _, be = series_split("Be", y, j)
            assert abs(be) <= 9 * (5 * math.pi) ** j * sq * math.exp(-5 * math.pi * y) + slack

    @pytest.mark.parametrize("y", [1.0, 1.3, 2.0])
    def test_x_tail_explicit_derivative_constants(self, y):
        slack = 1e-12
        sq = math.sqrt(y)
        assert abs(series_split("Xe", y, 1)[1]) <= 41 * math.pi * sq * math.exp(
            -5 * math.pi * y
        ) + slack
        assert abs(series_split("Xe", y, 2)[1]) <= 201 * math.pi**2 * sq * math.exp(
            -5 * math.pi * y
        ) + slack

    def test_y_tail_printed_constants_are_slightly_optimistic(self):
        # The per-term constants 18*pi and 290*pi^2/4 undershoot the true
        # first and second derivative tails near y = 1 by 12-17%; only the
        # looser 5*(17 pi/4)^j coefficient (asserted above) is valid there.
        ye1 = abs(series_split("Ye", 1.0, 1)[1])
        ye2 = abs(series_split("Ye", 1.0, 2)[1])
        assert ye1 > 18 * math.pi * math.exp(-17 * math.pi / 4)
        assert ye2 > (290 * math.pi**2 / 4) * math.exp(-17 * math.pi / 4)
        # past y = 2 the printed constants do hold
        assert abs(series_split("Ye", 2.0, 1)[1]) <= 18 * math.pi * math.sqrt(2) * math.exp(
            -17 * math.pi * 2 / 4
        )

    @pytest.mark.parametrize("y", [1.0, 1.2, 1.5, 2.0, 3.0])
    def test_cross_wronskian_tail_bound(self, y):
        # the statement the per-term constants feed into: the tail part of
        # the XY Wronskian is below (44 pi^2 + 18 pi + 36 pi y) e^{-17 pi y/4}
        ye1 = series_split("Ye", y, 1)[1]
        ye2 = series_split("Ye", y, 2)[1]
        xe1 = series_split("Xe", y, 1)[1]
        xe2 = series_split("Xe", y, 2)[1]
        xp = xyab(XYABKind.X, y, 1)
        xpp = xyab(XYABKind.X, y, 2)
        yap = series_split("Ya", y, 1)[0]
        yapp = series_split("Ya", y, 2)[0]
        lhs = abs(ye2 * xp - ye1 * xpp + yapp * xe1 - xe2 * yap)
        rhs = (44 * math.pi**2 + 18 * math.pi + 36 * math.pi * y) * math.exp(
            -17 * math.pi * y / 4
        )
        assert lhs <= rhs + 1e-12  # slack absorbs cancellation roundoff

    def test_validation(self):
        with pytest.raises(DomainError):
            series_split("Qa", 1.5)
        with pytest.raises(DomainError):
            series_split("Xa", 0.8)
        with pytest.raises(DomainError):
            series_split("Xa", 1.5, order=5)


# ---------------------------------------------------------------------------
# suites


class TestSuites:
    def test_identities_all_pass(self):
        rows = run_suite("identities")
        assert rows and all(r.passed for r in rows)

    def test_thresholds_fail_pattern_is_documented(self):
        rows = run_suite("thresholds")
        failed = {r.name for r in rows if not r.passed}
        assert failed == DOCUMENTED_THRESHOLD_MISSES

    def test_appendix_fail_pattern_is_documented(self):
        rows = run_suite("appendix")
        failed = {r.name for r in rows if not r.passed}
        assert failed == DOCUMENTED_MARGIN_MISSES

    def test_oracle_suite_passes_on_a_modest_grid(self):
        rows = run_suite("oracle", grid_n=110)
        assert len(rows) == 12
        assert all(r.passed for r in rows)

    def test_oracle_suite_builds_each_grid_once(self, monkeypatch):
        # the two rho-free grids per kind are shared by that kind's six weights
        calls = []
        theta_grid = verifier._theta_grid
        counted = lambda *args: calls.append(args[0]) or theta_grid(*args)
        monkeypatch.setattr(verifier, "_theta_grid", counted)
        rows = run_suite("oracle", grid_n=100)
        assert len(calls) == 4
        monkeypatch.setattr(verifier, "_theta_grid", theta_grid)
        tol = 2 * max(1.0 / 100, 3.25 / 100)
        expected = []
        for kind, rhos in verifier.ORACLE_RHOS:
            for rho in rhos:
                closed = minimizer(kind, rho).z
                brute, _ = brute_minimize(kind, rho, 100)
                dev = max(abs(brute.x - closed.x), abs(brute.y - closed.y))
                expected.append((f"{kind.value}_rho{rho:g}", 0.0, dev, tol))
        assert [tuple(r[:4]) for r in rows] == expected
        assert all(r.passed for r in rows)

    def test_oracle_suite_stays_within_its_call_budget(self, monkeypatch):
        # twelve Newton descents, one z-jet lattice pass per step, and no fallback
        from latticetheta import kernels

        calls, passes, original = [], [], kernels._lattice_sum
        monkeypatch.setattr(verifier, "w_eval", lambda *a: calls.append(a) or w_eval(*a))
        monkeypatch.setattr(verifier, "_lattice_sum", lambda *a: passes.append(a) or original(*a))
        monkeypatch.setattr(kernels, "_lattice_sum", lambda *a: passes.append(a) or original(*a))
        run_suite("oracle", grid_n=100)
        assert 0 < len(passes) <= 100
        assert not calls

    def test_oracle_deviations_are_reproducible_across_tail_tolerances(self):
        # W moves by about 1e-14 at tail_tol 1e-14; the Newton descent stops at its rounding
        # bound, so no deviation moves by more than 1e-10, and each is within 1e-9
        rows = run_suite("oracle", grid_n=100)
        tight = run_suite("oracle", verifier.SeriesTruncation(tail_tol=1e-14), grid_n=100)
        assert [r.name for r in rows] == [r.name for r in tight]
        for row, other in zip(rows, tight):
            assert abs(row.computed - other.computed) <= 1e-10, (row, other)
            assert row.computed <= 1e-9 and other.computed <= 1e-9, (row, other)

    def test_all_concatenates(self):
        rows = run_suite("all", grid_n=110)
        names = [r.name for r in rows]
        assert "melin_scaling" in names and "rho1" in names
        assert "delta_q_half" in names and "W2_rho100" in names

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("everything")
