"""Acceptance criteria, one check per line, at their stated tolerances.

Each check prints ``PASS name: detail`` or ``FAIL name: detail`` and then
asserts, so a verbose run doubles as the acceptance report.  Eight reference
constants (rho1, rho2, sigma2b, alpha0, theta_alpha0, the v3 pair, and the
minus-part derivative at 2.2) are known to disagree with the faithful
recomputation beyond their stated tolerances; those checks fail by design
rather than being weakened, and each failing line shows the computed value,
the reference, and the gap.
"""

import itertools
import math
import random
import time

import pytest

from latticetheta import (
    DEFAULT_TRUNCATION,
    Displacement,
    FunctionalKind,
    HalfPlanePoint,
    XYABKind,
    apply,
    cayley,
    hessian_universal,
    j_eval,
    minimizer,
    quotient_scan,
    solve_alpha0,
    theta2d,
    thresholds,
    w_eval,
    x_monotonicity_scan,
    xyab,
)
from latticetheta.functionals import solve_y_branch
from latticetheta.halfplane import INVERSION, REFLECTION, TRANSLATION2
from latticetheta.phase_diagram import UNIVERSAL_POINTS, alpha_thresholds
from latticetheta.verifier import _brute_grids, _grid_descent, appendix_margins

W1, W2 = FunctionalKind.W1, FunctionalKind.W2
HEX = HalfPlanePoint(0.5, math.sqrt(3.0) / 2.0)
CORNER = HalfPlanePoint(0.0, 1.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def close(name: str, computed: float, stated: float, tol: float) -> None:
    diff = abs(computed - stated)
    report(name, diff <= tol, f"computed={computed!r} stated={stated!r} |diff|={diff:.3e} tol={tol:g}")


# ---------------------------------------------------------------------------
# criterion 1 — trajectory thresholds against their printed values


class TestCriterion1Thresholds:
    def test_rho1_printed(self):
        close("1.rho1", thresholds().rho1, 0.04016680351, 1e-9)

    def test_rho2_printed(self):
        close("1.rho2", thresholds().rho2, 1.190861337, 1e-8)

    def test_sigma2b_printed(self):
        close("1.sigma2b", thresholds().sigma2b, 24.89618074, 1e-6)

    def test_sigma1b_is_the_reciprocal(self):
        th = thresholds()
        close("1.sigma1b_times_rho2", th.sigma1b * th.rho2, 1.0, 1e-12)


# ---------------------------------------------------------------------------
# criterion 2 — band edges and the two-component balance point


class TestCriterion2BandEdges:
    def test_alpha1_printed(self):
        close("2.alpha1", alpha_thresholds()[0], 0.3732155067, 1e-8)

    def test_alpha2_printed(self):
        close("2.alpha2", alpha_thresholds()[1], 0.9256496973, 1e-8)

    def test_alpha0_printed(self):
        close("2.alpha0", solve_alpha0().alpha0, 0.1726645, 1e-5)

    def test_theta_alpha0_printed(self):
        close("2.theta_alpha0", solve_alpha0().theta_alpha0, 1.186248384, 1e-7)

    def test_rough_bound_printed(self):
        close("2.alpha0_rough_bound", solve_alpha0().rough_bound, 0.2419435012, 1e-8)


# ---------------------------------------------------------------------------
# criterion 3 — energy values at the square and hexagonal points


class TestCriterion3CornerValues:
    def test_theta_at_square(self):
        close("3.theta_square", theta2d(1, CORNER), 1.1803, 5e-5)

    def test_theta_at_hexagonal(self):
        close("3.theta_hexagonal", theta2d(1, HEX), 1.1596, 5e-5)


# ---------------------------------------------------------------------------
# criterion 4 — every named appendix margin at printed precision

MARGIN_ROWS = appendix_margins()


class TestCriterion4AppendixMargins:
    @pytest.mark.parametrize("row", MARGIN_ROWS, ids=[m.name for m in MARGIN_ROWS])
    def test_margin(self, row):
        close(f"4.{row.name}", row.computed, row.printed, row.tol)


# ---------------------------------------------------------------------------
# criterion 5 — brute-force oracle equivalence, 12 weights, under 5 minutes


class TestCriterion5OracleEquivalence:
    def test_brute_grid_agrees_with_the_closed_form(self):
        start = time.time()
        grid_n = 400
        mesh = 2 * max(1.0 / grid_n, 3.25 / grid_n)
        cases = [(W1, (0.01, 0.03, 0.4, 0.7, 2.0, 30.0))]
        cases += [(W2, (0.5, 1.0, 2.0, 10.0, 30.0, 100.0))]
        for kind, rhos in cases:
            # the rho-free grids of one kind serve all six of its weights
            grids = _brute_grids(kind, grid_n)
            for rho in rhos:
                closed = minimizer(kind, rho).z
                brute, _ = _grid_descent(kind, rho, grids, DEFAULT_TRUNCATION)
                dev = max(abs(brute.x - closed.x), abs(brute.y - closed.y))
                report(
                    f"5.oracle_{kind.value}_rho{rho:g}",
                    dev <= mesh,
                    f"brute=({brute.x:.8f},{brute.y:.8f}) closed=({closed.x:.8f},{closed.y:.8f}) dev={dev:.2e} tol={mesh:.2e}",
                )
        elapsed = time.time() - start
        report("5.oracle_runtime", elapsed <= 300, f"{elapsed:.1f}s for 12 weights at 400x400")


# ---------------------------------------------------------------------------
# criterion 6 — property suites at their stated tolerances


class TestCriterion6Properties:
    def test_modular_transforms(self):
        rng = random.Random(2)
        worst = 0.0
        for _ in range(25):
            z = HalfPlanePoint(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
            for word in (TRANSLATION2, INVERSION, REFLECTION):
                moved = apply(word, z)
                worst = max(worst, abs(theta2d(1, moved) - theta2d(1, z)))
        report("6.transforms", worst <= 1e-10, f"worst |theta(gz)-theta(z)|={worst:.2e} tol=1e-10")

    def test_scaling_relation(self):
        worst = 0.0
        for s, y in itertools.product((0.5, 1.0, 2.0, 3.0), (0.8, 1.0, 1.5)):
            z = HalfPlanePoint(0.25, y)
            a, b = theta2d(1 / s, z), s * theta2d(s, z)
            worst = max(worst, abs(a - b) / abs(b))
        report("6.scaling", worst <= 1e-10, f"worst rel |theta(1/s)-s theta(s)|={worst:.2e} tol=1e-10")

    def test_group_invariance_of_the_functionals(self):
        rng = random.Random(3)
        worst = 0.0
        for _ in range(15):
            z = HalfPlanePoint(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.8))
            for kind, rho in ((W1, 0.05), (W1, 2.0), (W2, 20.0)):
                base = w_eval(kind, rho, z)
                for word in (TRANSLATION2, INVERSION):
                    worst = max(worst, abs(w_eval(kind, rho, apply(word, z)) - base) / base)
        report("6.group_invariance", worst <= 1e-10, f"worst rel deviation={worst:.2e} tol=1e-10")

    def test_duality(self):
        rng = random.Random(5)
        worst = 0.0
        for _ in range(15):
            z = HalfPlanePoint(rng.uniform(-0.4, 0.4), rng.uniform(1.05, 2.0))
            w = cayley(z)
            for rho in (0.05, 1.0, 20.0):
                a = w_eval(W1, rho, z)
                b = rho * w_eval(W2, 1 / rho, w)
                worst = max(worst, abs(a - b) / a)
        report("6.duality", worst <= 1e-9, f"worst rel duality gap={worst:.2e} tol=1e-9")

    def test_block_functional_equation(self):
        worst = 0.0
        for which in XYABKind:
            for y in (0.5, 0.8, 1.3, 2.4):
                a, b = xyab(which, 1 / y), xyab(which, y)
                worst = max(worst, abs(a - b) / abs(b))
        report("6.block_symmetry", worst <= 1e-10, f"worst rel |H(1/y)-H(y)|={worst:.2e} tol=1e-10")

    def test_derivatives_against_finite_differences(self):
        h, worst = 1e-5, 0.0
        for which, y, order in itertools.product(XYABKind, (0.9, 1.4), (1, 2)):
            fd = (xyab(which, y + h, order - 1) - xyab(which, y - h, order - 1)) / (2 * h)
            worst = max(worst, abs(xyab(which, y, order) - fd) / max(abs(fd), 1e-12))
        report("6.derivative_vs_fd", worst <= 1e-6, f"worst rel deviation={worst:.2e} tol=1e-6")

    def test_quotient_monotonicity_500_points(self):
        bad = 0
        for kind in ("ZofXY", "CofAB"):
            up = quotient_scan(kind, 1.0 + 1e-6, 10.0, 500)
            down = quotient_scan(kind, 0.1, 1.0 - 1e-6, 500)
            bad += (not up.all_positive) + (not down.all_negative)
        report("6.quotient_monotonicity", bad == 0, f"suspect sign patterns={bad} on 500-pt grids")

    def test_x_monotonicity_200_squared(self):
        v1 = x_monotonicity_scan("theta_shifted", "D_G2", 200)
        v2 = x_monotonicity_scan("w1", "R2", 200, rho=0.05)
        v3 = x_monotonicity_scan("w2", "R2", 200, rho=20.0)
        total = len(v1) + len(v2) + len(v3)
        report("6.x_monotonicity", total == 0, f"violations={total} across three 200x200 scans")


# ---------------------------------------------------------------------------
# criterion 7 — critical-point structure of the displacement energy


class TestCriterion7CriticalPoints:
    def test_universal_points_are_critical_everywhere(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(20):
            z = HalfPlanePoint(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0))
            for d in UNIVERSAL_POINTS.values():
                worst = max(worst, abs(j_eval(z, d, 1, 0)), abs(j_eval(z, d, 0, 1)))
        report("7.universal_gradients", worst <= 1e-10, f"worst |grad J|={worst:.2e} at 20 random z")

    def test_third_point_critical_only_at_hexagonal(self):
        d = Displacement(1 / 3, 1 / 3)
        g_hex = max(abs(j_eval(HEX, d, 1, 0)), abs(j_eval(HEX, d, 0, 1)))
        report("7.third_critical_at_hexagonal", g_hex <= 1e-10, f"|grad J|={g_hex:.2e}")
        slope = j_eval(CORNER, d, 1, 0)
        report("7.third_slides_at_square", slope < 0, f"dJ/da at i = {slope:.6f} < 0")

    def test_universal_hessian_signs(self):
        ok = True
        detail = []
        for y in (0.8, 1.0, 1.6):
            d1 = hessian_universal(y, "w1")
            d2 = hessian_universal(y, "w2")
            d3 = hessian_universal(y, "w3")
            ok = ok and d1 < 0 and d2 < 0 and d3 > 0
            detail.append(f"y={y}: {d1:.2e},{d2:.2e},{d3:.2e}")
        report("7.hessian_signs", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 8 — trajectory sweep shape


class TestCriterion8Trajectory:
    @pytest.mark.parametrize(
        "kind, hi, seg_end_attr, arc_start_attr",
        [(W1, 2.0, "sigma1a", "sigma1b"), (W2, 30.0, "sigma2a", "sigma2b")],
    )
    def test_branch_sequence_and_transitions(self, kind, hi, seg_end_attr, arc_start_attr):
        n = 400
        th = thresholds()
        step = hi / (n - 1)
        rhos = [step * k for k in range(n)]
        points = [minimizer(kind, rho) for rho in rhos]
        branches = [p.branch for p in points]
        order = [b for b, _ in itertools.groupby(branches)]
        report(
            f"8.branch_order_{kind.value}",
            order == ["segment", "corner", "arc"],
            f"observed {order} over 400 points",
        )
        seg_end = max(r for r, b in zip(rhos, branches) if b == "segment")
        arc_start = min(r for r, b in zip(rhos, branches) if b == "arc")
        e1 = abs(seg_end - getattr(th, seg_end_attr))
        e2 = abs(arc_start - getattr(th, arc_start_attr))
        report(
            f"8.transitions_{kind.value}",
            e1 <= step and e2 <= step,
            f"segment end off by {e1:.2e}, arc start off by {e2:.2e}, step {step:.2e}",
        )

    def test_segment_heights_strictly_decrease(self):
        th = thresholds()
        ok = True
        for kind, c_of, end in ((W1, lambda r: 2 * r, th.sigma1a), (W2, lambda r: r, th.sigma2a)):
            rhos = [end * k / 60 for k in range(60)]
            ys = [solve_y_branch(kind, c_of(r)) for r in rhos]
            ok = ok and all(a > b for a, b in zip(ys, ys[1:]))
        report("8.segment_heights_decreasing", ok, "both branch height maps strictly decrease")
