"""Kernel tests: Jacobi thetas, the 1-D theta, and the lattice theta.

The ground truth used here is deliberately independent of the implementation:
mpmath's ``jtheta`` for the one-parameter series, and a naive high-precision
double sum over a large square block of the lattice for ``theta2d``.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticetheta
from latticetheta import halfplane, kernels
from latticetheta import (
    DEFAULT_TRUNCATION,
    Displacement,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    TruncationError,
    j_eval,
    jacobi_theta,
    tail_bound,
    theta1d,
    theta2d,
    theta2d_shifted,
)

KIND_TO_MPMATH = {"two": 2, "three": 3, "four": 4}

# Frozen 30-digit references (naive double sum over |m|,|n| <= 60 at dps=30).
THETA_SQUARE = 1.18034059901609622604533794056  # theta(1; i)
THETA_HEX = 1.15959526696392836576999205157  # theta(1; (1+i*sqrt(3))/2)
THETA_TWO_I = 1.42479714118212129930409870308  # theta(1; 2i)
THETA_SHIFTED_13 = 1.00613657882011267126852966486  # theta(2; (1.3i+1)/2)

ys = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)


def mp_jacobi(kind, y, order=0):
    """Reference value of the Jacobi series via mpmath (numerical derivative)."""
    j = KIND_TO_MPMATH[kind]
    f = lambda t: mp.jtheta(j, 0, mp.exp(-mp.pi * t))
    return float(mp.diff(f, y, order)) if order else float(f(y))


def brute_lattice(s, x, y, extent=40):
    """Naive double sum of e^{-s pi |mz+n|^2 / y} over a square block."""
    tot = mp.mpf(0)
    for m in range(-extent, extent + 1):
        my2 = (m * y) ** 2
        for n in range(-extent, extent + 1):
            tot += mp.exp(-s * mp.pi * ((m * x + n) ** 2 + my2) / y)
    return float(tot)


# ---------------------------------------------------------------------------
# jacobi_theta


@pytest.mark.parametrize("kind", ["two", "three", "four"])
@pytest.mark.parametrize("y", [0.13, 0.5, 1.0, 1.3, 2.7, 8.0])
def test_jacobi_matches_mpmath(kind, y):
    assert jacobi_theta(kind, y) == pytest.approx(mp_jacobi(kind, y), rel=1e-13)


@pytest.mark.parametrize("kind", ["two", "three", "four"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jacobi_derivatives_match_mpmath(kind, order):
    for y in (0.7, 1.0, 1.3, 2.2):
        ref = mp_jacobi(kind, y, order)
        assert jacobi_theta(kind, y, order) == pytest.approx(ref, rel=1e-9, abs=1e-12)


@given(ys)
def test_jacobi_modular_transforms(y):
    """theta_3(1/y) = sqrt(y) theta_3(y) and the theta_2 <-> theta_4 swap."""
    r = math.sqrt(y)
    assert jacobi_theta("three", 1 / y) == pytest.approx(r * jacobi_theta("three", y), rel=1e-12)
    assert jacobi_theta("two", 1 / y) == pytest.approx(r * jacobi_theta("four", y), rel=1e-12)
    assert jacobi_theta("four", 1 / y) == pytest.approx(r * jacobi_theta("two", y), rel=1e-12)


@given(ys)
def test_jacobi_duplication(y):
    """theta_4(y) = theta_3(4y) - theta_2(4y)."""
    lhs = jacobi_theta("four", y)
    rhs = jacobi_theta("three", 4 * y) - jacobi_theta("two", 4 * y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(ys)
def test_jacobi_derivative_signs(y):
    assert jacobi_theta("three", y, 1) < 0
    assert jacobi_theta("four", y, 1) > 0


def test_jacobi_domain_errors():
    with pytest.raises(DomainError):
        jacobi_theta("three", 0.0)
    with pytest.raises(DomainError):
        jacobi_theta("three", -1.0)
    with pytest.raises(DomainError):
        jacobi_theta("one", 1.0)
    with pytest.raises(DomainError):
        jacobi_theta("three", 1.0, order=5)


def test_jacobi_truncation_error_carries_bound():
    tight = SeriesTruncation(max_index=1, tail_tol=1e-13)
    for y in (0.9, 1.1):  # the transformed series and the direct one
        with pytest.raises(TruncationError) as exc:
            jacobi_theta("three", y, trunc=tight)
        assert exc.value.achieved_bound > 1e-13


@pytest.mark.parametrize("y", [1e-3, 1e-6])
@pytest.mark.parametrize("kind", ["two", "three", "four"])
def test_jacobi_at_small_y_matches_mpmath_at_30_digits(kind, y):
    """At y < 1 the imaginary transformation sums the dual series at 1/y, where
    the direct series at 1e-3 could not certify its tail within 64 terms.
    theta_4 is about y^{-1/2} e^{-pi/(4y)} there, below the reference's own noise
    (about 1e-34 at order 0), so it is held to an absolute 1e-30."""
    j = KIND_TO_MPMATH[kind]
    with mp.workdps(30):
        f = lambda t: mp.jtheta(j, 0, mp.exp(-mp.pi * t))
        refs = [mp.diff(f, mp.mpf(y), order) for order in range(5)]
        for order, ref in enumerate(refs):
            assert jacobi_theta(kind, y, order) == pytest.approx(float(ref), rel=1e-13, abs=1e-30)
            got = jacobi_theta(kind, mp.mpf(y), order, SeriesTruncation(64, 1e-25), mp.mp)
            assert abs(got - ref) <= 1e-24 * max(abs(ref), 1)


def test_jacobi_past_every_float_at_tiny_y():
    # theta_3(y) = y^{-1/2} to every digit at subnormal y, whose 1/y is inf; the
    # first derivative's gain y^{-3/2} passes every float
    assert jacobi_theta("three", 5.7e-316) == pytest.approx(5.7e-316**-0.5, rel=1e-15)
    with pytest.raises(TruncationError) as exc:
        jacobi_theta("three", 5.7e-316, 1)
    assert exc.value.achieved_bound == math.inf


# ---------------------------------------------------------------------------
# theta1d


def brute_theta1d(X, Y, dY_order=0, extent=120):
    tot = mp.mpf(0)
    for n in range(-extent, extent + 1):
        w = mp.exp(-mp.pi * n * n * X)
        if dY_order:
            tot += -2 * mp.pi * n * mp.sin(2 * mp.pi * n * Y) * w
        else:
            tot += w * mp.cos(2 * mp.pi * n * Y)
    return float(tot)


@pytest.mark.parametrize("X", [0.21, 0.5, 0.999999, 1.0, 1.000001, 2.5])
@pytest.mark.parametrize("Y", [0.0, 0.125, 0.3, 0.5, 0.77, 3.2, -1.4])
@pytest.mark.parametrize("dY_order", [0, 1])
def test_theta1d_matches_brute(X, Y, dY_order):
    ref = brute_theta1d(X, Y, dY_order)
    assert theta1d(X, Y, dY_order) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=-3, max_value=3))
def test_theta1d_periodic_and_even(X, Y):
    v = theta1d(X, Y)
    assert theta1d(X, Y + 1) == pytest.approx(v, rel=1e-12)
    assert theta1d(X, -Y) == pytest.approx(v, rel=1e-12)


@given(st.floats(min_value=0.2, max_value=5.0))
def test_theta1d_special_values(X):
    """At Y = 0 and Y = 1/2 the 1-D theta collapses to theta_3 and theta_4."""
    assert theta1d(X, 0.0) == pytest.approx(jacobi_theta("three", X), rel=1e-12)
    assert theta1d(X, 0.5) == pytest.approx(jacobi_theta("four", X), rel=1e-12)
    # both are critical points of Y -> theta1d(X; Y)
    assert theta1d(X, 0.0, dY_order=1) == pytest.approx(0.0, abs=1e-12)
    assert theta1d(X, 0.5, dY_order=1) == pytest.approx(0.0, abs=1e-12)


def test_theta1d_branch_agreement():
    # the direct and Poisson forms must agree where the branch switches
    for Y in (0.0, 0.2, 0.5):
        lo = theta1d(1.0 - 1e-12, Y)
        hi = theta1d(1.0, Y)
        assert lo == pytest.approx(hi, rel=1e-11)


def test_theta1d_domain_errors():
    with pytest.raises(DomainError):
        theta1d(0.0, 0.3)
    with pytest.raises(DomainError):
        theta1d(1.0, 0.3, dY_order=2)


# ---------------------------------------------------------------------------
# theta2d


@pytest.mark.parametrize(
    "s,x,y",
    [
        (1.0, 0.0, 1.0),
        (1.0, 0.5, math.sqrt(3) / 2),
        (2.0, 0.3, 1.7),
        (1.0, 0.2, 1.4),
        (0.5, 0.1, 0.8),
        (3.0, -0.4, 0.6),
    ],
)
def test_theta2d_matches_brute(s, x, y):
    ref = brute_lattice(s, x, y)
    assert theta2d(s, HalfPlanePoint(x, y)) == pytest.approx(ref, rel=1e-12)


def test_theta2d_frozen_values():
    assert theta2d(1, HalfPlanePoint(0, 1)) == pytest.approx(THETA_SQUARE, rel=1e-13)
    hexagonal = HalfPlanePoint(0.5, math.sqrt(3) / 2)
    assert theta2d(1, hexagonal) == pytest.approx(THETA_HEX, rel=1e-13)
    assert theta2d(1, HalfPlanePoint(0, 2)) == pytest.approx(THETA_TWO_I, rel=1e-13)
    # the hexagonal lattice beats the square one at s = 1
    assert theta2d(1, hexagonal) < theta2d(1, HalfPlanePoint(0, 1))


zs = st.builds(
    HalfPlanePoint,
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.6, max_value=3.0),
)


@settings(max_examples=50)
@given(st.floats(min_value=0.3, max_value=4.0), zs)
def test_theta2d_inversion_functional_equation(s, z):
    """theta(1/s; z) = s * theta(s; z)."""
    assert theta2d(1 / s, z) == pytest.approx(s * theta2d(s, z), rel=1e-11)


@settings(max_examples=50)
@given(st.floats(min_value=0.5, max_value=3.0), zs)
def test_theta2d_modular_invariance(s, z):
    """theta(s; .) is invariant under z -> z+1 and z -> -1/z."""
    v = theta2d(s, z)
    shifted = HalfPlanePoint(z.x + 1, z.y)
    r2 = abs(z) ** 2
    inverted = HalfPlanePoint(-z.x / r2, z.y / r2)
    assert theta2d(s, shifted) == pytest.approx(v, rel=1e-11)
    assert theta2d(s, inverted) == pytest.approx(v, rel=1e-11)


@given(st.floats(min_value=0.4, max_value=3.0), st.floats(min_value=0.5, max_value=3.0))
def test_theta2d_product_form_on_imaginary_axis(s, y):
    """theta(s; iy) = theta_3(sy) theta_3(s/y)."""
    lhs = theta2d(s, HalfPlanePoint(0, y))
    rhs = jacobi_theta("three", s * y) * jacobi_theta("three", s / y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_theta2d_shifted_product_identity():
    # theta(2; (iy+1)/2) = sqrt(y)/2 [th3(4y)th3(y/4) + th2(4y)th4(y/4)]
    for y in (0.8, 1.0, 1.3, 2.4):
        lhs = theta2d_shifted(2, HalfPlanePoint(0, y))
        rhs = (
            math.sqrt(y)
            / 2
            * (
                jacobi_theta("three", 4 * y) * jacobi_theta("three", y / 4)
                + jacobi_theta("two", 4 * y) * jacobi_theta("four", y / 4)
            )
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)
    assert theta2d_shifted(2, HalfPlanePoint(0, 1.3)) == pytest.approx(
        THETA_SHIFTED_13, rel=1e-13
    )


def test_theta2d_domain_errors():
    with pytest.raises(DomainError):
        theta2d(0.0, HalfPlanePoint(0, 1))
    with pytest.raises(DomainError):
        HalfPlanePoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HalfPlanePoint(math.nan, 1.0)
    for bad in ({"tail_tol": math.inf}, {"tail_tol": 0.0}, {"max_index": 1.5}, {"max_index": 0}):
        with pytest.raises(DomainError):
            SeriesTruncation(**bad)


def direct_sum(s, x, y, a=0, b=0, da=0, db=0, cut=40):
    """sum_{m,n} e^{-s pi |m z - n|^2 / y} (2 pi m)^da (2 pi n)^db times the
    matching derivative of cos(2 pi (m a + n b)), at mpmath's working precision.

    At a = b = 0 and da = db = 0 this is theta(s; z); at s = 1 it is J(z; a, b)
    and its displacement partials.  Each row m keeps the n within
    sqrt(cut y / (s pi)) of m x, and the rows end at s pi y m^2 > cut.
    """
    x, y, a, b = mp.mpf(x), mp.mpf(y), mp.mpf(a), mp.mpf(b)
    reach = cut / (s * mp.pi)
    rows, spread = int(mp.sqrt(reach / y)) + 1, int(mp.sqrt(reach * y)) + 1
    total = mp.mpf(0)
    for m in range(-rows, rows + 1):
        centre = int(mp.nint(m * x))
        for n in range(centre - spread, centre + spread + 1):
            w = mp.exp(-s * mp.pi * ((m * x - n) ** 2 / y + m * m * y))
            phase = 2 * mp.pi * (m * a + n * b)
            trig = (mp.cos(phase), -mp.sin(phase), -mp.cos(phase))[da + db]
            total += w * (2 * mp.pi * m) ** da * (2 * mp.pi * n) ** db * trig
    return total


def plain_sum(s, x, y, a=0.0, b=0.0, da=0, db=0):
    """:func:`direct_sum` at 30 digits, as a float."""
    with mp.workdps(30):
        return float(direct_sum(s, x, y, a, b, da, db))


def z_jet_sum(s, x, y, a=0, b=0, cut=60):
    """(J, J_x, J_y, J_xx, J_xy, J_yy) of J(s; z; a, b) in z = x + iy as plain double sums of
    each term's analytic partials, at 30 digits, with the rows and windows of
    :func:`direct_sum`.  A term is e^{-E} cos(2 pi (m a + n b)), E = s pi (d^2/y + m^2 y),
    d = m x - n, and its partials are those of e^{-E}."""
    with mp.workdps(30):
        x, y, a, b = mp.mpf(x), mp.mpf(y), mp.mpf(a), mp.mpf(b)
        reach, c = cut / (s * mp.pi), s * mp.pi
        rows, spread = int(mp.sqrt(reach / y)) + 1, int(mp.sqrt(reach * y)) + 1
        jet = [mp.mpf(0)] * 6
        for m in range(-rows, rows + 1):
            centre = int(mp.nint(m * x))
            for n in range(centre - spread, centre + spread + 1):
                d = m * x - n
                ex, ey = 2 * c * m * d / y, c * (m * m - d * d / y**2)
                exx, exy, eyy = 2 * c * m * m / y, -2 * c * m * d / y**2, 2 * c * d * d / y**3
                w = mp.exp(-c * (d * d / y + m * m * y)) * mp.cos(2 * mp.pi * (m * a + n * b))
                for i, f in enumerate((1, -ex, -ey, ex * ex - exx, ex * ey - exy, ey * ey - eyy)):
                    jet[i] += w * f
        return [float(v) for v in jet]


def assert_jet_close(got, want, rel=1e-10):
    """Each order's partials within ``rel`` of that order's largest reference, or of the
    value where a gradient vanishes by symmetry."""
    for lo, hi in ((0, 1), (1, 3), (3, 6)):
        scale = max(abs(v) for v in want[:1] + want[lo:hi])
        for i in range(lo, hi):
            assert abs(got[i] - want[i]) <= rel * scale, (i, got, want)


# one point of each class of L(1/2, 1/2) mod 1, tiny and large y, |x| = 3 and z = i;
# 2.2821+0.177i, -1.7+0.1i and 0.2+0.05i reduce with C != 0
Z_JET_POINTS = [
    (0.3, 1.4), (2.2821, 0.177), (-1.7, 0.1), (0.2, 0.05), (0.2, 20.0), (3.0, 0.8), (-3.0, 1.3),
    (0.0, 1.0),
]


@pytest.mark.parametrize("x,y", Z_JET_POINTS)
def test_lattice_z_jets_match_30_digit_sums(x, y):
    # theta(s; z) at s = 1/2, 1, 2 and J(z; a, b) at a general and the midpoint displacement
    z = HalfPlanePoint(x, y)
    for s, a, b in [(0.5, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0.23, 0.61), (1, 0.5, 0.5)]:
        (got,) = kernels._lattice_sum(s, z, ((a, b),), 2, DEFAULT_TRUNCATION, math, True)
        assert_jet_close(got, z_jet_sum(s, x, y, a, b))


# far below the fundamental domain, far above it, and far to either side
EXTREME_POINTS = [
    (0.3, 1e-3, 0.23, 0.61),
    (-0.41, 1e-3, 0.77, 0.14),
    (0.2, 1e4, 0.37, 0.004),
    (50.3, 0.8, 0.23, 0.61),
    (-49.85, 1.7, 0.77, 0.14),
]


@pytest.mark.parametrize("x,y,a,b", EXTREME_POINTS)
def test_lattice_kernel_at_extreme_points(x, y, a, b):
    z = HalfPlanePoint(x, y)
    for s in (1.0, 2.0):
        assert theta2d(s, z) == pytest.approx(plain_sum(s, x, y), rel=1e-12)
        shifted = plain_sum(s, (x + 1) / 2, y / 2)
        assert theta2d_shifted(s, z) == pytest.approx(shifted, rel=1e-12)
    d = Displacement(a, b)
    for da, db in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        want = plain_sum(1.0, x, y, a, b, da, db)
        assert j_eval(z, d, da, db) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_lattice_kernel_raises_when_max_index_cannot_certify():
    z = HalfPlanePoint(0.3, 1.4)
    tight = SeriesTruncation(max_index=1, tail_tol=1e-13)
    with pytest.raises(TruncationError) as exc:
        theta2d(1.0, z, tight)
    # the achieved bound is the one tail_bound reports for the index-1 ellipse
    assert exc.value.achieved_bound == tail_bound("lattice", 1, s=1.0, x=0.3, y=1.4)
    assert 1e-13 < exc.value.achieved_bound < math.inf
    with pytest.raises(TruncationError) as exc:
        j_eval(z, Displacement(0.2, 0.7), 1, 1, tight)
    assert exc.value.achieved_bound == tail_bound("lattice", 1, x=0.3, y=1.4, order=2)


@pytest.mark.parametrize("x,y", [(0.1, 1e-320), (1e-300, 1e-300)])
def test_reduction_that_underflows_raises_truncation_error(x, y):
    # |z|^2 underflows to 0 on the way into the fundamental domain
    with pytest.raises(TruncationError) as exc:
        theta2d(1, HalfPlanePoint(x, y))
    assert exc.value.achieved_bound == math.inf


def test_chain_rule_growth_past_a_float_raises_truncation_error():
    # z = 1e300 + i reduces through L = (1, 1e300, 0, 1): the order-2 gain is 1e600
    with pytest.raises(TruncationError) as exc:
        j_eval(HalfPlanePoint(1e300, 1.0), Displacement(0.3, 0.7), 0, 2)
    assert exc.value.achieved_bound == math.inf
    assert kernels._lattice_tail(50.0, 1.0, 0.0, 1.0, 2, (1, 10**300, 0, 1)) == math.inf
    assert math.isfinite(kernels._lattice_tail(50.0, 1.0, 0.0, 1.0, 2, (1, 10**150, 0, 1)))


# each escaped with an OverflowError, a ValueError (NaN to int) or a ZeroDivisionError
PAST_EVERY_FLOAT = {
    "y/s squared overflows (s = 1e-300)": lambda: theta2d(1e-300, HalfPlanePoint(0.0, 1e-8)),
    "y/s squared overflows (y = 1e300)": lambda: theta2d(1, HalfPlanePoint(0.3, 1e300)),
    "y/s squared overflows in W": lambda: latticetheta.w_eval(
        latticetheta.FunctionalKind.W1, 0.7, HalfPlanePoint(0.3, 1e300)
    ),
    "pi y' overflows": lambda: theta2d(1.2e242, HalfPlanePoint(0.5, 6.7e307)),
    "subnormal y: theta": lambda: theta2d(1, HalfPlanePoint(0.3, 1e-320)),
    "subnormal y: J": lambda: j_eval(HalfPlanePoint(0.3, 1e-320), Displacement(0.2, 0.7)),
    "subnormal y: census": lambda: latticetheta.critical_census(HalfPlanePoint(3.7, 1e-320), 32),
    "reduced y underflows: census": lambda: latticetheta.critical_census(
        HalfPlanePoint(3.7, 1e-300), 32
    ),
    "h^2 overflows in J's second partials": lambda: j_eval(
        HalfPlanePoint(0.5, 5.8e-155), Displacement(0.12, 0.1), 0, 2
    ),
    "1-D prefactor overflows": lambda: theta1d(1e-300, 0, 1),
    "1-D guess overflows": lambda: latticetheta.xyab(latticetheta.XYABKind.X, 5.7e-316),
}


@pytest.mark.parametrize("call", PAST_EVERY_FLOAT.values(), ids=PAST_EVERY_FLOAT.keys())
def test_quantities_past_every_float_raise_a_declared_error(call):
    with pytest.raises((DomainError, TruncationError)):
        call()


@pytest.mark.parametrize("ctx", [math, mp.mp], ids=["binary64", "mpmath"])
def test_shifted_theta_far_along_the_real_axis(ctx):
    """At even x, theta(1; (z+1)/2) equals its value at x = 0.  The displacement
    (1/2, 1/2) reaches the reduced point as L (a, b) with L = (1, k, 0, -1), k
    the integer nearest x; reduced mod 1 exactly, no row phase grows with x."""
    at0 = theta2d_shifted(1, HalfPlanePoint(0.0, 1.3), ctx=ctx)
    for x in (1e10, 1e12):
        assert abs(theta2d_shifted(1, HalfPlanePoint(x, 1.3), ctx=ctx) - at0) <= 1e-13
    try:
        far = theta2d_shifted(1, HalfPlanePoint(6.4e307, 1.3), ctx=ctx)
    except (DomainError, TruncationError):
        return
    assert abs(far - at0) <= 1e-13


def test_displacements_are_reduced_exactly():
    # L (a, b) less its nearest integers, against exact rationals, in both backends
    cases = [((3, 10**12, 1, -7), 1 / 3, -0.75), ((-2, 5, 7, -17), -0.3, 0.61)]
    for L, a, b in cases + [((1, 0, 0, -1), 0, 0)]:
        want = [Fraction(l) * Fraction(a) + Fraction(m) * Fraction(b) for l, m in (L[:2], L[2:])]
        want = [float(w - math.floor(w + Fraction(1, 2))) for w in want]
        assert kernels._reduced_shift(L, a, b, math) == tuple(want)
        assert kernels._reduced_shift(L, mp.mpf(a), mp.mpf(b), mp.mp) == tuple(want)


def test_bounds_past_every_float_are_inf_or_zero_and_never_nan():
    # the lattice bound's (y/s)^2 overflows: no bound, as where the majorant has not kicked in
    assert tail_bound("lattice", 5, y=1e300) == math.inf
    # y' = 1.2e-111 after the reduction, so alpha = s pi y' underflows to 0
    tiny = dict(x=-2.85830162105309, y=1.2466530466299887e-73, s=9e-217)
    assert tail_bound("lattice", 40, **tiny) == math.inf
    # a 1-D side whose exponent passes every float drops nothing a float can hold
    assert tail_bound("jacobi", 5, y=2.5e306, order=4) == 0.0
    assert tail_bound("theta1d", 5, X=2.5e306, dY_order=1) == 0.0
    # s pi y' passes every float, but the m = 0 row is the whole sum: theta_3(1)
    theta_3 = jacobi_theta("three", 1.0)
    assert theta2d(1e300, HalfPlanePoint(0.0, 1e300)) == pytest.approx(theta_3, rel=1e-15)


def reduced_by_halfplane(z):
    """``_reduce_point``'s ``L`` from :func:`halfplane.reduce`'s word for ``z - k``."""
    k = math.floor(z.x + 0.5)
    _, word = halfplane.reduce(HalfPlanePoint(z.x - k, z.y), halfplane.GroupId.Gamma)
    (A, B, C, D), p = word.matrix, halfplane.apply(word, HalfPlanePoint(z.x - k, z.y))
    assert not word.reflect
    return p, (A, k * A - B, C, k * C - D)


REDUCTION_POINTS = [
    (0.5, math.sqrt(3) / 2),
    (-0.5, math.sqrt(3) / 2),
    (0.49999999999999994, 0.8660254037844386),
    (0.0, 1.0),
    (-0.3, math.sqrt(1 - 0.09)),
    (math.cos(2.0), math.sin(2.0)),
    (-0.1, math.sqrt(1 - 0.01)),
    (0.5, 0.01),
    (-0.5, 0.01),
    (0.5, 1e-5),
    (-0.5, 0.2),
    (1e6, 1.0),
    (1e17, 1.0),
]


def test_reduce_point_matches_halfplane_reduce():
    rng = random.Random(17)
    seeded = [(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 2)) for _ in range(2000)]
    for x, y in REDUCTION_POINTS + seeded:
        z = HalfPlanePoint(x, y)
        xr, yr, L = kernels._reduce_point(z, math)
        p, want = reduced_by_halfplane(z)
        assert L == want, (x, y)
        assert abs(xr - p.x) <= 1e-9 and abs(yr - p.y) <= 1e-9 * p.y, (x, y)


def test_binary64_kernels_make_no_halfplane_reduce_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("halfplane.reduce called")

    monkeypatch.setattr(halfplane, "reduce", refuse)
    for x, y in [(0.3, 1.4), (-2.7, 0.05), (0.5, math.sqrt(3) / 2)]:
        z = HalfPlanePoint(x, y)
        assert theta2d(1, z) == pytest.approx(plain_sum(1, x, y), rel=1e-12)
        j_eval(z, Displacement(0.3, 0.7), 1, 1)


@pytest.mark.parametrize("s", [1, 2])
def test_extended_thetas_match_50_digit_sums(s):
    # The 30-digit rows come by recurrence; the reference sums every term directly.
    # A tail of 1e-25 is certified, not 1e-27 (the truncation alone leaves up to
    # 4e-27 here), so the recurrences' rounding is checked at a tail of 1e-29.
    for x, y in [(0.3, 10**-2.5), (-1.7, 0.1), (0.5, 1.0), (2.2, 10.0), (-0.05, 100.0)]:
        with mp.workdps(50):
            want = direct_sum(s, x, y, cut=130)
            want_shifted = direct_sum(s, (mp.mpf(x) + 1) / 2, mp.mpf(y) / 2, cut=130)
        for tol, rel in [(1e-25, 1e-25), (1e-29, 1e-27)]:
            with mp.workdps(30):
                got = theta2d(s, HalfPlanePoint(x, y), SeriesTruncation(tail_tol=tol), mp.mp)
                shifted = theta2d_shifted(s, HalfPlanePoint(x, y), SeriesTruncation(tail_tol=tol), mp.mp)
            assert abs(got - want) <= rel * want, (x, y, tol)
            assert abs(shifted - want_shifted) <= rel * want_shifted, (x, y, tol)


@pytest.mark.parametrize(
    "x,y,a,b", [(2.2821, 0.177, 0.3, 0.7), (-0.41, 0.05, 0.77, 0.14), (0.2, 1.3, 0.61, 0.23)]
)
def test_extended_j_partials_at_a_displacement_match_45_digit_sums(x, y, a, b):
    # L mixes a and b in the backend: formed in binary64 they were 8e-15 off here
    tight, z = SeriesTruncation(tail_tol=1e-25), HalfPlanePoint(x, y)
    for order in (0, 1, 2):
        with mp.workdps(30):
            got = kernels._lattice_sum(1, z, ((a, b),), order, tight, mp.mp)[0]
        with mp.workdps(45):
            want = [direct_sum(1, x, y, a, b, order - db, db, cut=110) for db in range(order + 1)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-24 * (1 + abs(w)), (order, g, w)


@pytest.mark.parametrize("x,y,n", [(0.5, 0.9, 32), (-1.3, 0.4, 33), (3.7, 0.05, 35)])
def test_table_grid_matches_30_digit_sums(x, y, n):
    # the grid is taken in the reduced displacement, J(z'; i/n, j/n) at the reduced
    # point z', and is checked against the kernel there at 30 digits
    z, fine = HalfPlanePoint(x, y), SeriesTruncation(max_index=200, tail_tol=1e-30)
    zr = HalfPlanePoint(*kernels._reduce_point(z, math)[:2])
    grid = kernels._table_grid(kernels._torus_table(z, DEFAULT_TRUNCATION)[1], n)
    for i, j in [(0, 0), (1, n - 1), (n // 2, 3), (n - 5, n // 3), (7, 11), (n - 1, n - 2)]:
        with mp.workdps(30):
            want = kernels._lattice_sum(1, zr, ((mp.mpf(i) / n, mp.mpf(j) / n),), 1, fine, mp.mp)[0]
        for q, w in enumerate(want):
            assert abs(grid[q][i][j] - w) <= 1e-12 * (1 + abs(w)), (q, i, j)


# ---------------------------------------------------------------------------
# tail bounds


def test_tail_bound_monotone_in_N():
    for kind, params in [
        ("jacobi", {"y": 0.9}),
        ("jacobi", {"y": 1.4, "order": 3, "theta_kind": "two"}),
        ("theta1d", {"X": 1.1}),
        ("theta1d", {"X": 2.0, "dY_order": 1}),
        ("lattice", {"s": 1.0, "y": 0.9}),
    ]:
        bounds = [tail_bound(kind, N, **params) for N in range(1, 12)]
        finite = [b for b in bounds if math.isfinite(b)]
        assert finite == sorted(finite, reverse=True)
        assert finite[-1] < 1e-3


def test_tail_bound_dominates_actual_error():
    # measure the true discarded tail in high precision so binary64
    # cancellation cannot leak into the comparison; the terms are taken in
    # absolute value (the worst case over the signs of theta_4 and over Y).
    def dropped(N, shift, y, weight):
        us = (n - shift for n in range(N + 1, N + 60))
        return float(2 * mp.fsum(weight(u) * mp.exp(-mp.pi * u * u * y) for u in us))

    with mp.workdps(40):
        for y in (0.8, 1.3, 2.0):
            for N in (1, 2, 3, 5):
                for theta_kind, shift in (("two", 0.5), ("three", 0), ("four", 0)):
                    for order in range(5):
                        true_tail = dropped(N, shift, y, lambda u: (mp.pi * u * u) ** order)
                        bound = tail_bound("jacobi", N, y=y, order=order, theta_kind=theta_kind)
                        assert true_tail <= bound
                for dY_order in (0, 1):
                    true_tail = dropped(N, 0, y, lambda u: (2 * mp.pi * u) ** dY_order)
                    bound = tail_bound("theta1d", N, X=y, dY_order=dY_order)
                    assert true_tail <= bound


@pytest.mark.parametrize("t", [0.29, 0.5, 1.0, 1.7])
def test_parity_parts_match_40_digit_sums(t, monkeypatch):
    """The split theta_3 pass: its even and odd k parts (theta_3(4t) and
    theta_2(4t)) at orders 0..4 match the exact sums, and each part's truncation
    error, seen at 40 digits, stays below the tail bound of the one cut."""
    seen = []
    tail = kernels._series_tail
    monkeypatch.setattr(kernels, "_series_tail", lambda *a: seen.append(tail(*a)) or seen[-1])
    with mp.workdps(40):
        tm = mp.mpf(t)
        term = lambda k, n: 2 * (-mp.pi * k * k) ** n * mp.exp(-mp.pi * k * k * tm)
        sums = lambda first, n: mp.fsum(term(k, n) for k in range(first, 80, 2))
        # k and -k together; k = 0 adds 1 to the even value
        exact = [[(n == 0) + sums(2, n) for n in range(5)], [sums(1, n) for n in range(5)]]
        parts = kernels._theta_series(tm, 0, 0, 4, DEFAULT_TRUNCATION, mp.mp, split=True)
        bound = seen[-1]
        for part, ref in zip(parts, exact):
            for got, want in zip(part, ref):
                assert abs(got - want) <= bound <= DEFAULT_TRUNCATION.tail_tol
    floats = kernels._theta_series(t, 0, 0, 4, DEFAULT_TRUNCATION, math, split=True)
    for part, ref in zip(floats, exact):
        for got, want in zip(part, ref):
            assert got == pytest.approx(float(want), rel=1e-14, abs=2e-13)


def test_1d_series_raise_with_the_tail_bound_at_max_index():
    tight = SeriesTruncation(max_index=2, tail_tol=1e-13)
    for kind in ("two", "three", "four"):
        for order in (0, 3):
            with pytest.raises(TruncationError) as exc:
                jacobi_theta(kind, 1.0, order, tight)
            bound = tail_bound("jacobi", 2, y=1.0, order=order, theta_kind=kind)
            assert exc.value.achieved_bound == bound
            assert 1e-13 < bound < math.inf
            # at y < 1: the transform's series at 1/y, its bound times the chain rule's gain
            with pytest.raises(TruncationError) as exc:
                jacobi_theta(kind, 0.95, order, tight)
            dual = kernels._JACOBI_DUAL[kind]
            bound = tail_bound("jacobi", 2, y=1 / 0.95, order=order, theta_kind=dual)
            gain = kernels._DUAL_GAIN[order] * 0.95 ** (-0.5 - 2 * order)
            assert exc.value.achieved_bound == gain * bound
            assert 1e-13 < bound < exc.value.achieved_bound < math.inf
    for dY_order in (0, 1):
        with pytest.raises(TruncationError) as exc:
            theta1d(1.05, 0.3, dY_order, tight)
        bound = tail_bound("theta1d", 2, X=1.05, dY_order=dY_order)
        assert exc.value.achieved_bound == bound
        assert 1e-13 < bound < math.inf


def lattice_discarded(N, s, x, y, b, order):
    """Largest discarded tail, over the partials of ``order``, of the
    Poisson-summed lattice sum at a point of the fundamental domain once it
    keeps the index-N ellipse, summed term by term in absolute value."""
    alpha, beta = s * mp.pi * y, mp.pi * y / s
    r2 = N * N * mp.pi * y * min(s, 1 / s)
    h = 2 * mp.pi * y / s
    rows, spread = int(mp.sqrt(90 / alpha)) + 1, int(mp.sqrt(90 / beta)) + 2
    tails = [mp.mpf(0)] * (order + 1)
    for m in range(-rows, rows + 1):
        for k in range(-spread, spread + 1):
            d = b + k
            q = alpha * m * m + beta * d * d
            if q <= r2:
                continue
            # a term's factors: 2 pi i m per a, -v per b, and d/db v = h
            u, v = 2 * mp.pi * m, mp.mpc(2 * mp.pi * y * d / s, 2 * mp.pi * m * x)
            weights = [(1,), (abs(u), abs(v)), (u * u, abs(u * v), abs(v * v - h))][order]
            for p, w in enumerate(weights):
                tails[p] += w * mp.exp(-q)
    return mp.sqrt(y / s) * max(tails)


def test_lattice_tail_bound_dominates_actual_error():
    with mp.workdps(40):
        for s, x, y, b in [(1.0, 0.0, 1.0, 0.0), (2.0, 0.4, 0.95, 0.3), (0.5, -0.3, 2.5, 0.45)]:
            for order in (0, 1, 2):
                for N in (1, 2, 3, 5):
                    true_tail = lattice_discarded(N, s, x, y, b, order)
                    bound = tail_bound("lattice", N, s=s, x=x, y=y, order=order)
                    assert float(true_tail) <= bound


def table_discarded(z, r2, order):
    """Largest discarded tail, over the partials of ``order`` in (a, b), of the
    torus table at ``z`` once it keeps ``pi |m z' + n|^2 / y' <= r2`` at the
    reduced point, summed term by term in absolute value."""
    xr, yr, (l0, l1, l2, l3) = kernels._reduce_point(z, mp.mp)
    alpha, beta = mp.pi * yr, mp.pi / yr
    rows, spread = int(mp.sqrt(150 / alpha)) + 1, int(mp.sqrt(150 / beta)) + 2
    tails = [mp.mpf(0)] * (order + 1)
    for m in range(-rows, rows + 1):
        for n in range(int(-m * xr) - spread, int(-m * xr) + spread + 1):
            q = alpha * m * m + beta * (m * xr + n) ** 2
            if q > r2:  # the frequencies in (a, b): L's transpose applied to (m, n)
                ka, kb = 2 * mp.pi * abs(l0 * m + l2 * n), 2 * mp.pi * abs(l1 * m + l3 * n)
                for p in range(order + 1):
                    tails[p] += ka ** (order - p) * kb**p * mp.exp(-q)
    return max(tails)


def test_table_tail_bound_dominates_actual_error():
    # 3.7+0.05i reduces through L = (4, -15, 3, -11): without L's growth the
    # bound falls below the true tail of the second partials
    with mp.workdps(40):
        for x, y in [(3.7, 0.05), (0.5, math.sqrt(3) / 2), (-1.3, 0.4), (0.2, 7.0)]:
            z = HalfPlanePoint(x, y)
            xr, yr, L = kernels._reduce_point(z, math)
            for r2 in (4.0, 10.0, 25.0, 45.0):
                bound = kernels._table_tail(r2, xr, yr, L)
                for order in (0, 1, 2):
                    assert float(table_discarded(z, r2, order)) <= bound, (x, y, r2, order)


def test_z_jet_tail_bound_dominates_actual_error(monkeypatch):
    # the jet summed on a forced ellipse r2 against 30-digit sums of every term: off by no
    # more than the z-jet bound there; all but 0.3+1.4i reduce with C != 0
    points = [(0.3, 1.4, 1, 0, 0), (2.2821, 0.177, 0.5, 0.5, 0.5), (3.7, 0.05, 1, 0.23, 0.61),
              (-1.7, 0.1, 2, 0, 0)]
    for x, y, s, a, b in points:
        z, want = HalfPlanePoint(x, y), z_jet_sum(s, x, y, a, b)
        xr, yr, L = kernels._reduce_point(z, math)
        for r2 in (4.0, 10.0, 25.0):
            monkeypatch.setattr(kernels, "_least_r2", lambda *args: r2)
            (got,) = kernels._lattice_sum(s, z, ((a, b),), 2, DEFAULT_TRUNCATION, math, True)
            bound = kernels._lattice_tail(r2, s, xr, yr, 2, L, True)
            assert max(abs(g - w) for g, w in zip(got, want)) <= bound, (x, y, r2)


def test_tail_bound_rejects_bad_input():
    with pytest.raises(DomainError):
        tail_bound("jacobi", 0, y=1.0)
    with pytest.raises(DomainError):
        tail_bound("jacobi", 3, y=-1.0)
    with pytest.raises(DomainError):
        tail_bound("jacobi", 3, y=1.0, theta_kind="one")
    with pytest.raises(DomainError):
        tail_bound("nonsense", 3, y=1.0)
    with pytest.raises(DomainError):
        tail_bound("lattice", 3, y=1.0, order=3)


# ---------------------------------------------------------------------------
# extended precision backend


def test_extended_precision_backend():
    with mp.workdps(40):
        tight = SeriesTruncation(max_index=256, tail_tol=mp.mpf("1e-35"))
        got = jacobi_theta("three", mp.mpf("1.3"), 2, tight, ctx=mp.mp)
        ref = mp.diff(lambda t: mp.jtheta(3, 0, mp.exp(-mp.pi * t)), mp.mpf("1.3"), 2)
        assert abs(got - ref) < mp.mpf("1e-30")
        z = HalfPlanePoint(mp.mpf("0.3"), mp.mpf("1.2"))
        v_hi = theta2d(2, z, tight, ctx=mp.mp)
        assert abs(v_hi - theta2d(2, HalfPlanePoint(0.3, 1.2))) < 1e-13
