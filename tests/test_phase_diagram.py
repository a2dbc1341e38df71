"""Tests for the two-component interaction functional and phase diagram."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticetheta import functionals, kernels, phase_diagram
from latticetheta.halfplane import IDENTITY, INVERSION, REFLECTION, TRANSLATION, apply, compose
from latticetheta.kernels import (
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    TruncationError,
    theta1d,
    theta2d,
    theta2d_shifted,
)
from latticetheta.phase_diagram import (
    HEXAGONAL_POINT,
    UNIVERSAL_POINTS,
    Alpha0Result,
    CriticalPointReport,
    Displacement,
    PhaseRow,
    alpha_thresholds,
    critical_census,
    energy,
    hessian_universal,
    j_eval,
    optimal_lattice,
    phase_row,
    solve_alpha0,
)

SQUARE = HalfPlanePoint(0.0, 1.0)
THIRD = Displacement(1.0 / 3.0, 1.0 / 3.0)
HALF = Displacement(0.5, 0.5)

# high-precision reference values (60-digit brute double sums, rounded)
J_HEX_THIRD = 0.92037137331794
J_SQUARE_HALF = 0.83462684167407
J_HEX_HALF = 0.94680557073602
ALPHA0 = 0.172356587243
THETA_ALPHA0 = 1.18595532579
ROUGH_BOUND = 0.24194349953804
ALPHA1 = 0.373215507908977825960068839147
ALPHA2 = 0.925649697403935529042866736301


def brute_j(z, a, b, da=0, db=0, reach=40):
    """Plain double sum over the lattice; derivative via the cosine chain."""
    total = 0.0
    order = da + db
    for m in range(-reach, reach + 1):
        for n in range(-reach, reach + 1):
            w = math.exp(-math.pi * ((m * z.x - n) ** 2 / z.y + m * m * z.y))
            ph = 2 * math.pi * (m * a + n * b)
            if order == 0:
                trig = math.cos(ph)
            elif order == 1:
                trig = -math.sin(ph)
            else:
                trig = -math.cos(ph)
            total += w * (2 * math.pi * m) ** da * (2 * math.pi * n) ** db * trig
    return total


points = st.builds(
    HalfPlanePoint,
    st.floats(-0.6, 0.6),
    st.floats(0.7, 3.0),
)
displacements = st.builds(Displacement, st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))


class TestJEval:
    def test_reference_values(self):
        assert j_eval(HEXAGONAL_POINT, THIRD) == pytest.approx(J_HEX_THIRD, rel=1e-13)
        assert j_eval(SQUARE, HALF) == pytest.approx(J_SQUARE_HALF, rel=1e-13)
        assert j_eval(HEXAGONAL_POINT, HALF) == pytest.approx(J_HEX_HALF, rel=1e-13)

    def test_gradient_value_at_square_third(self):
        # six printed digits of the displacement gradient at z = i, d = (1/3, 1/3)
        assert j_eval(SQUARE, THIRD, da_order=1) == pytest.approx(-0.449891, abs=1e-6)

    def test_gradient_symmetry_at_square_third(self):
        da = j_eval(SQUARE, THIRD, da_order=1)
        db = j_eval(SQUARE, THIRD, db_order=1)
        assert abs(da - db) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(points, displacements)
    def test_matches_brute_double_sum(self, z, d):
        assert j_eval(z, d) == pytest.approx(brute_j(z, d.a, d.b), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("da,db", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
    @pytest.mark.parametrize(
        "z,a,b",
        [
            (HalfPlanePoint(0.27, 1.45), 0.23, 0.61),
            (HalfPlanePoint(-0.4, 0.85), 0.77, 0.14),
            (HalfPlanePoint(0.0, 2.3), 1 / 3, 1 / 3),
        ],
    )
    def test_derivatives_match_brute(self, da, db, z, a, b):
        got = j_eval(z, Displacement(a, b), da, db)
        want = brute_j(z, a, b, da, db)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 4.0), st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
    def test_axis_factorization(self, y, a, b):
        lhs = j_eval(HalfPlanePoint(0.0, y), Displacement(a, b))
        assert lhs == pytest.approx(theta1d(y, a) * theta1d(1 / y, b), rel=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(points)
    def test_coincident_displacement_is_theta(self, z):
        assert j_eval(z, Displacement(0, 0)) == pytest.approx(theta2d(1, z), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(points)
    def test_half_half_displacement_identity(self, z):
        want = 2 * theta2d_shifted(2, z) - theta2d(1, z)
        assert j_eval(z, HALF) == pytest.approx(want, rel=1e-11, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(points, displacements)
    def test_periodicity_in_displacement(self, z, d):
        shifted = Displacement(d.a + 3.0, d.b - 2.0)
        assert j_eval(z, shifted) == pytest.approx(j_eval(z, d), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        points,
        displacements,
        st.lists(st.sampled_from([INVERSION, TRANSLATION, REFLECTION]), max_size=6),
    )
    def test_transformation_law(self, z, d, gens):
        """J(z; a, b) = J(w z; M (a, b)) with M = (A, -sign B; -C, sign D), sign = -1
        for a reflecting word: substitute (m, n) -> (m, n) (A, B; C, D)^{-1} in
        the sum; the reflection z -> -conj(z) flips b.  The gradient moves by M^T."""
        w = IDENTITY
        for g in gens:
            w = compose(g, w)
        A, B, C, D = w.matrix
        sign = -1 if w.reflect else 1
        moved = apply(w, z)
        carried = Displacement(A * d.a - sign * B * d.b, -C * d.a + sign * D * d.b)
        ga, gb = j_eval(moved, carried, 1, 0), j_eval(moved, carried, 0, 1)
        scale = 1 + abs(A) + abs(B) + abs(C) + abs(D)
        assert j_eval(z, d) == pytest.approx(j_eval(moved, carried), rel=1e-10, abs=1e-12)
        assert j_eval(z, d, 1, 0) == pytest.approx(A * ga - C * gb, rel=1e-9, abs=1e-10 * scale)
        assert j_eval(z, d, 0, 1) == pytest.approx(
            sign * (D * gb - B * ga), rel=1e-9, abs=1e-10 * scale
        )

    def test_universal_points_are_critical(self):
        rng = random.Random(11)
        for _ in range(20):
            z = HalfPlanePoint(rng.uniform(-0.5, 0.5), rng.uniform(0.72, 2.5))
            for d in UNIVERSAL_POINTS.values():
                grad = math.hypot(j_eval(z, d, 1, 0), j_eval(z, d, 0, 1))
                assert grad <= 1e-10

    @pytest.mark.parametrize("z", [SQUARE, HEXAGONAL_POINT, HalfPlanePoint(0.3, 1.2)])
    def test_origin_is_global_maximum(self, z):
        top = j_eval(z, Displacement(0, 0))
        n = 64
        for i in range(n):
            for j in range(n):
                assert j_eval(z, Displacement(i / n, j / n)) <= top + 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_hexagonal_shell_identity(self, x):
        # the m-weighted sine sum over hexagonal shells cancels exactly,
        # which is why (1/3, 1/3) is critical on the hexagonal lattice
        total = 0.0
        for m in range(-40, 41):
            for n in range(-40, 41):
                total += math.exp(-x * (m * m + n * n - m * n)) * m * math.sin(
                    2 * math.pi * (m + n) / 3
                )
        assert abs(total) <= 1e-12

    def test_hexagonal_third_point_is_critical(self):
        grad = math.hypot(
            j_eval(HEXAGONAL_POINT, THIRD, 1, 0), j_eval(HEXAGONAL_POINT, THIRD, 0, 1)
        )
        assert grad <= 1e-10

    def test_rejects_high_derivative_orders(self):
        with pytest.raises(DomainError):
            j_eval(SQUARE, HALF, da_order=3)
        with pytest.raises(DomainError):
            j_eval(SQUARE, HALF, da_order=2, db_order=1)
        with pytest.raises(DomainError):
            j_eval(SQUARE, HALF, da_order=-1)

    def test_displacement_canonicalization(self):
        d = Displacement(1.25, -0.3)
        assert d.a == pytest.approx(0.25)
        assert d.b == pytest.approx(0.7)
        # x - floor(x) rounds up to 1.0 here; the canonical value is 0
        tiny = Displacement(-1e-17, -(2.0**-60))
        assert (tiny.a, tiny.b) == (0.0, 0.0)
        with pytest.raises(DomainError):
            Displacement(math.nan, 0.0)


class TestHessianUniversal:
    @pytest.mark.parametrize("y", [0.8, 1.0, 1.6])
    @pytest.mark.parametrize("which,d", [("w1", (0.5, 0.0)), ("w2", (0.0, 0.5)), ("w3", (0.5, 0.5))])
    def test_matches_finite_differences(self, y, which, d):
        z = HalfPlanePoint(0.0, y)
        a, b = d
        h = 1e-4

        def J(aa, bb):
            return j_eval(z, Displacement(aa, bb))

        mid = J(a, b)
        haa = (J(a + h, b) - 2 * mid + J(a - h, b)) / h**2
        hbb = (J(a, b + h) - 2 * mid + J(a, b - h)) / h**2
        hab = (J(a + h, b + h) - J(a + h, b - h) - J(a - h, b + h) + J(a - h, b - h)) / (4 * h**2)
        det = haa * hbb - hab * hab
        assert hessian_universal(y, which) == pytest.approx(det, rel=1e-5)

    @pytest.mark.parametrize("y", [0.8, 1.0, 1.6, 2.5])
    def test_matches_analytic_second_partials(self, y):
        z = HalfPlanePoint(0.0, y)
        for which, (a, b) in [("w1", (0.5, 0)), ("w2", (0, 0.5)), ("w3", (0.5, 0.5))]:
            d = Displacement(a, b)
            det = j_eval(z, d, 2, 0) * j_eval(z, d, 0, 2) - j_eval(z, d, 1, 1) ** 2
            assert hessian_universal(y, which) == pytest.approx(det, rel=1e-10)

    @pytest.mark.parametrize("y", [0.7, 1.0, 1.9])
    def test_saddle_and_minimum_signs(self, y):
        assert hessian_universal(y, "w1") < 0
        assert hessian_universal(y, "w2") < 0
        assert hessian_universal(y, "w3") > 0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            hessian_universal(1.0, "w0")
        with pytest.raises(DomainError):
            hessian_universal(-1.0, "w1")


class TestEnergy:
    def test_half_half_collapses_onto_w1(self):
        for alpha in (0.1, 0.45, 0.9):
            for z in (SQUARE, HalfPlanePoint(0.2, 1.4)):
                direct = energy(alpha, z, HALF)
                collapsed = (1 - alpha) * theta2d(1, z) + 2 * alpha * theta2d_shifted(2, z)
                assert direct == pytest.approx(collapsed, rel=1e-12)

    def test_negative_coupling_prefers_coincident_hexagonal(self):
        zs = [HalfPlanePoint(x / 10, y) for x in range(0, 6) for y in (0.87, 1.0, 1.25, 1.6)]
        zs.append(HEXAGONAL_POINT)
        ds = [Displacement(0, 0), HALF, THIRD, Displacement(0, 0.5), Displacement(0.2, 0.7)]
        best = min(
            ((energy(-0.5, z, d), z, d) for z in zs for d in ds), key=lambda t: t[0]
        )
        assert best[1] is HEXAGONAL_POINT
        assert best[2] == Displacement(0, 0)

    def test_rejects_coupling_outside_range(self):
        with pytest.raises(DomainError):
            energy(1.5, SQUARE, HALF)
        with pytest.raises(DomainError):
            energy(-1.0001, SQUARE, HALF)


class TestOptimalLattice:
    def test_band_edges(self):
        a1, a2 = alpha_thresholds()
        assert a1 == pytest.approx(ALPHA1, rel=1e-12)
        assert a2 == pytest.approx(ALPHA2, rel=1e-12)

    def test_branch_classification(self):
        a1, a2 = alpha_thresholds()
        assert optimal_lattice(0.5 * a1).shape == "rhombic"
        assert optimal_lattice(0.5 * (a1 + a2)).shape == "square"
        assert optimal_lattice(0.5 * (a2 + 1)).shape == "rectangular"

    def test_rhombic_angle_range(self):
        for alpha in (0.02, 0.1, 0.2, 0.3, 0.37):
            row = optimal_lattice(alpha)
            assert row.shape == "rhombic"
            assert math.pi / 3 - 1e-12 <= row.angle_or_ratio < math.pi / 2
            # the angle is the argument of the unit-circle minimizer
            assert row.angle_or_ratio == pytest.approx(
                math.atan2(row.z.y, row.z.x), abs=1e-15
            )

    def test_full_coupling_gives_sqrt3_rectangle(self):
        row = optimal_lattice(1.0)
        assert row.shape == "rectangular"
        assert row.angle_or_ratio == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_square_row(self):
        row = optimal_lattice(0.6)
        assert row.shape == "square"
        assert complex(row.z.x, row.z.y) == pytest.approx(1j, abs=1e-12)
        assert row.angle_or_ratio == 1.0

    def test_energy_continuity_across_band_edges(self):
        a1, a2 = alpha_thresholds()
        for edge in (a1, a2):
            below = optimal_lattice(edge - 1e-9).energy
            above = optimal_lattice(edge + 1e-9).energy
            assert abs(below - above) <= 1e-8

    def test_energy_is_minimal_energy(self):
        # the row's energy equals energy() at its own (z, (1/2,1/2)) and beats
        # the same displacement at nearby competitor shapes
        for alpha in (0.2, 0.6, 0.97):
            row = optimal_lattice(alpha)
            assert row.energy == pytest.approx(energy(alpha, row.z, HALF), rel=1e-12)
            for other in (SQUARE, HalfPlanePoint(0.0, 1.3), HalfPlanePoint(0.1, 1.05)):
                assert row.energy <= energy(alpha, other, HALF) + 1e-12

    def test_rejects_couplings_outside_window(self):
        for alpha in (0.0, -0.2, 1.0001):
            with pytest.raises(DomainError):
                optimal_lattice(alpha)

    def test_phase_row_negative_coupling(self):
        row = phase_row(-0.5)
        assert row.shape == "hexagonal"
        assert row.angle_or_ratio == pytest.approx(math.pi / 3)
        assert row.energy == pytest.approx(0.5 * theta2d(1, HEXAGONAL_POINT), rel=1e-12)

    def test_phase_row_positive_coupling_delegates(self):
        assert phase_row(0.4) == optimal_lattice(0.4)

    def test_warm_hexagonal_rows_make_no_kernel_call(self, monkeypatch):
        phase_row.cache_clear()
        alphas = (-1.0, -0.37, -0.0, 0.0)
        expected = [energy(a, HEXAGONAL_POINT, Displacement(0.0, 0.0)) for a in alphas]
        phase_row(-0.5)  # fills the cache

        def kernel(*args, **kwargs):
            raise AssertionError("a warm hexagonal row reached the lattice kernel")

        monkeypatch.setattr(kernels, "_lattice_sum", kernel)  # theta2d, the W and shifted passes
        monkeypatch.setattr(phase_diagram, "_lattice_sum", kernel)  # j_eval, the energy pass
        assert [phase_row(a).energy for a in alphas] == expected
        assert phase_row.cache_info().currsize == 1

    def test_phase_row_shape_consistency_guard(self):
        with pytest.raises(DomainError):
            PhaseRow(0.5, "square", HalfPlanePoint(0.0, 1.5), 1.0, 1.0)
        with pytest.raises(DomainError):
            PhaseRow(0.5, "spiral", SQUARE, 1.0, 1.0)


class TestAlpha0:
    def test_crossing_value(self, monkeypatch):
        # count a cold solve
        for cache in (solve_alpha0, functionals.solve_y_branch, functionals.w_eval):
            cache.cache_clear()
        calls = []
        original = phase_diagram.optimal_lattice
        monkeypatch.setattr(
            phase_diagram,
            "optimal_lattice",
            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs),
        )
        res = solve_alpha0()
        assert isinstance(res, Alpha0Result)
        assert res.alpha0 == pytest.approx(ALPHA0, abs=1e-11)
        assert len(calls) <= 20  # optimal-lattice solves per alpha0

    def test_crossing_angle(self):
        assert solve_alpha0().theta_alpha0 == pytest.approx(THETA_ALPHA0, abs=1e-9)

    def test_rough_bound(self):
        res = solve_alpha0()
        assert res.rough_bound == pytest.approx(ROUGH_BOUND, rel=1e-10)
        assert res.alpha0 <= res.rough_bound

    def test_crossing_balances_energies(self):
        res = solve_alpha0()
        displaced_hex = energy(res.alpha0, HEXAGONAL_POINT, THIRD)
        rhombic = optimal_lattice(res.alpha0).energy
        assert displaced_hex == pytest.approx(rhombic, abs=1e-12)

    def test_crossing_sits_inside_rhombic_band(self):
        a1, _ = alpha_thresholds()
        assert 0 < solve_alpha0().alpha0 < a1

    def test_cached_per_truncation(self):
        solve_alpha0.cache_clear()
        res = solve_alpha0()
        assert solve_alpha0(SeriesTruncation()) is res
        assert solve_alpha0(trunc=SeriesTruncation()) is res
        assert solve_alpha0.cache_info().currsize == 1


class TestCriticalCensus:
    def test_square_lattice_census(self):
        report = critical_census(SQUARE, grid_n=48)
        kinds = {}
        for name, d in UNIVERSAL_POINTS.items():
            entry = report.find(d.a, d.b)
            assert entry is not None, f"universal point {name} missing"
            assert entry.residual <= 1e-10
            kinds[name] = entry.kind
        assert kinds == {"w0": "max", "w1": "saddle", "w2": "saddle", "w3": "min"}
        if report.count != 4:  # conjectured count, recorded but not enforced
            warnings.warn(f"square census found {report.count} points, expected 4")

    def test_hexagonal_lattice_census(self):
        report = critical_census(HEXAGONAL_POINT, grid_n=48)
        third = report.find(1 / 3, 1 / 3)
        assert third is not None
        assert third.residual <= 1e-10
        assert third.kind == "min"
        mirror = report.find(2 / 3, 2 / 3)
        assert mirror is not None and mirror.kind == "min"
        for d in UNIVERSAL_POINTS.values():
            assert report.find(d.a, d.b) is not None
        if report.count != 6:  # conjectured count, recorded but not enforced
            warnings.warn(f"hexagonal census found {report.count} points, expected 6")

    def test_third_point_not_critical_on_square_lattice(self):
        assert j_eval(SQUARE, THIRD, da_order=1) < 0
        report = critical_census(SQUARE, grid_n=48)
        assert report.find(1 / 3, 1 / 3) is None

    def test_rectangular_census_matches_closed_form_signs(self):
        y = 1.5
        report = critical_census(HalfPlanePoint(0.0, y), grid_n=48)
        for which, d in [("w1", (0.5, 0.0)), ("w2", (0.0, 0.5)), ("w3", (0.5, 0.5))]:
            entry = report.find(*d)
            assert entry is not None
            expected = "saddle" if hessian_universal(y, which) < 0 else "min"
            assert entry.kind == expected

    def test_points_are_canonical_and_sorted(self):
        report = critical_census(SQUARE, grid_n=48)
        coords = [(p.d.a, p.d.b) for p in report.points]
        assert coords == sorted(coords)
        assert all(0 <= a < 1 and 0 <= b < 1 for a, b in coords)
        assert report.count == len(report.points)

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            critical_census(SQUARE, grid_n=16)

    @pytest.mark.parametrize("n", [32, 37])
    @pytest.mark.parametrize(
        "x,y", [(0.5, math.sqrt(3) / 2), (3.7, 0.05), (-1.3, 0.4), (0.2, 7.0)]
    )
    def test_gradient_grid_matches_pointwise_partials(self, x, y, n):
        # the census grid is reduced once and gathered back through L; every
        # grid point must agree with its own pointwise kernel pass
        z, trunc = HalfPlanePoint(x, y), SeriesTruncation()
        ga, gb = kernels._table_grid(kernels._torus_table(z, trunc), n)
        for i in range(n):
            for j in range(n):
                pa, pb = kernels._lattice_sum(1, z, ((i / n, j / n),), 1, trunc, math)[0]
                assert abs(ga[i][j] - pa) <= 1e-13 * (1 + abs(pa)), (i, j)
                assert abs(gb[i][j] - pb) <= 1e-13 * (1 + abs(pb)), (i, j)

    @pytest.mark.parametrize(
        "x,y", [(0.5, math.sqrt(3) / 2), (3.7, 0.05), (-1.3, 0.4), (0.2, 7.0)]
    )
    def test_table_partials_match_pointwise_partials(self, x, y):
        z, trunc = HalfPlanePoint(x, y), SeriesTruncation()
        table = kernels._torus_table(z, trunc)
        for a, b in [(0.1, 0.2), (0.37, 0.81), (0.5, 0.5), (0.9, 0.05), (0.25, 0.75), (0, 0)]:
            got = kernels._table_partials(table, a, b)
            want = kernels._lattice_sum(1, z, ((a, b),), 1, trunc, math)[0]
            want += kernels._lattice_sum(1, z, ((a, b),), 2, trunc, math)[0]
            for g, p in zip(got, want):
                assert abs(g - p) <= 1e-13 * (1 + abs(p)), (a, b)

    @pytest.mark.parametrize("x,y", [(0.3, 1.4), (3.7, 0.05)])
    def test_census_raises_with_the_pointwise_bound(self, x, y):
        # the census is cut by its table's own bound: at max_index 2 it raises
        # with that bound at the largest ellipse in the index box
        z, tight = HalfPlanePoint(x, y), SeriesTruncation(max_index=2)
        with pytest.raises(TruncationError) as census:
            critical_census(z, grid_n=32, trunc=tight)
        xr, yr, L = kernels._reduce_point(z, math)
        cap = 2**2 * math.pi / max(1 / yr, yr + xr * xr / yr)
        table_bound = kernels._table_tail(cap, xr, yr, L)
        assert 1e-13 < census.value.achieved_bound == table_bound < math.inf

    def test_census_raises_when_the_chain_rule_growth_passes_a_float(self):
        # z = 1e300 + i reduces through L = (1, 1e300, 0, 1), whose square overflows
        with pytest.raises(TruncationError) as census:
            critical_census(HalfPlanePoint(1e300, 1.0), 32)
        assert census.value.achieved_bound == math.inf

    def test_census_makes_no_lattice_sum_call(self, monkeypatch):
        calls = []
        original = kernels._lattice_sum
        counted = lambda *args: calls.append(args) or original(*args)
        monkeypatch.setattr(kernels, "_lattice_sum", counted)
        monkeypatch.setattr(phase_diagram, "_lattice_sum", counted)
        assert critical_census(HEXAGONAL_POINT, grid_n=32).count == 6
        assert calls == []

    def test_minima_near_half_half_are_not_merged(self):
        # the two minima lie 0.0326 from (1/2, 1/2), closer than two mesh widths
        z = HalfPlanePoint(0.4431, 1.0442)
        for grid_n in (32, 64):
            kinds = [p.kind for p in critical_census(z, grid_n=grid_n).points]
            assert len(kinds) == 6 and kinds.count("min") == 2, grid_n

    @pytest.mark.parametrize("x,y", [(0.4431, 1.0442), (0.23, 1.31)])
    def test_census_points_are_critical_without_b_symmetry(self, x, y):
        # at x not in {0, 1/2} J(a, b) != J(a, -b), so a census that mixed up
        # the sign of b would report points where the gradient does not vanish
        z = HalfPlanePoint(x, y)
        for p in critical_census(z, grid_n=32).points:
            assert math.hypot(j_eval(z, p.d, 1, 0), j_eval(z, p.d, 0, 1)) <= 1e-9, p
            haa, hab, hbb = (j_eval(z, p.d, 2 - q, q) for q in range(3))
            det = haa * hbb - hab * hab
            expected = "saddle" if det < 0 else ("max" if haa < 0 else "min")
            assert p.kind == expected, p

    def test_each_point_is_reported_from_its_best_newton_run(self, monkeypatch):
        # here the first runs to reach the two minima stop at residuals of
        # 3.8e-11 and 3.2e-12, while later runs merged with them reach 1e-16
        runs = []
        original = phase_diagram._newton
        monkeypatch.setattr(
            phase_diagram, "_newton", lambda *args: runs.append(original(*args)) or runs[-1]
        )
        report = critical_census(HalfPlanePoint(0.4394, 0.9162), grid_n=32)
        universal = set(UNIVERSAL_POINTS.values())
        assert {p.d for p in report.points} >= universal  # exact, whatever later runs reach
        minima = [p for p in report.points if p.d not in universal]
        assert [p.kind for p in minima] == ["min", "min"]
        for p in minima:
            merged = [r for r in runs if CriticalPointReport((p,), 1).find(r[0], r[1])]
            assert len(merged) > 1 and p.residual == min(r[2] for r in merged), p
            assert p.residual <= 1e-15, p

    @pytest.mark.parametrize("refine_tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_refine_tol(self, refine_tol):
        with pytest.raises(DomainError):
            critical_census(SQUARE, grid_n=32, refine_tol=refine_tol)

    def test_report_count_guard(self):
        with pytest.raises(DomainError):
            CriticalPointReport(points=(), count=3)
