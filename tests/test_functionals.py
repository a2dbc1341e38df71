"""Building blocks X/Y/A/B, thresholds, branch roots, and the minimizer map.

Oracles: mpmath jtheta products with numerically differentiated derivatives,
a vectorized numpy dense scan for the branch root, and finite differences
for the circle-to-line transfer identity.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticetheta import (
    DomainError,
    HalfPlanePoint,
    cayley,
    compose,
    functionals,
    theta2d,
    theta2d_shifted,
)
from latticetheta.functionals import (
    FunctionalKind,
    NoRootError,
    SignReport,
    TrajectoryPoint,
    XYABKind,
    minimizer,
    quotient,
    quotient_derivative,
    quotient_scan,
    solve_y_branch,
    thresholds,
    w_eval,
    xyab,
)
from latticetheta.halfplane import IDENTITY, INVERSION, REFLECTION, TRANSLATION2, apply

SQRT3 = math.sqrt(3.0)

# Frozen 30-digit references (mpmath jtheta products, dps = 30).
RHO1 = 0.0401611445477626751804566006261
RHO2 = 1.19088941292688892582619122699
SIGMA1B = 0.839708531409533987287417822716
SIGMA2B = 24.8996887728317666108537895153
XPP1 = 1.11815670033415  # X''(1)
YPP1 = -0.0898129057383383  # Y''(1)

W1, W2 = FunctionalKind.W1, FunctionalKind.W2
X, Y, A, B = XYABKind.X, XYABKind.Y, XYABKind.A, XYABKind.B

ys = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)


def mp_xyab(which, y, order=0):
    """Independent building-block oracle via mpmath."""
    th = lambda k, t: mp.jtheta(k, 0, mp.exp(-mp.pi * t))
    funcs = {
        X: lambda t: th(3, t) * th(3, 1 / t),
        Y: lambda t: 2 * (th(3, 4 * t) * th(3, 4 / t) + th(2, 4 * t) * th(2, 4 / t)),
        A: lambda t: mp.sqrt(2) * th(3, 2 * t) * th(3, 2 / t),
        B: lambda t: mp.sqrt(2) * th(2, 2 * t) * th(2, 2 / t),
    }
    f = funcs[which]
    return float(mp.diff(f, y, order)) if order else float(f(y))


# ---------------------------------------------------------------------------
# xyab


@pytest.mark.parametrize("which", [X, Y, A, B])
@pytest.mark.parametrize("y", [0.3, 0.7, 1.0, 1.3, 2.6])
def test_xyab_matches_mpmath(which, y):
    assert xyab(which, y) == pytest.approx(mp_xyab(which, y), rel=1e-12)


@pytest.mark.parametrize("which", [X, Y, A, B])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_xyab_derivatives_match_mpmath(which, order):
    for y in (0.8, 1.0, 1.4):
        ref = mp_xyab(which, y, order)
        assert xyab(which, y, order) == pytest.approx(ref, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_xyab_evaluates_only_the_theta_derivatives_it_uses(order, monkeypatch):
    """X = theta_3(y) theta_3(1/y) needs orders 0..order of each factor: one
    parity-split theta_3 pass at y and one at 1/y, asking for no higher order."""
    calls = []
    original = functionals._theta_series
    monkeypatch.setattr(
        functionals,
        "_theta_series",
        lambda *args, **kw: calls.append(args) or original(*args, **kw),
    )
    xyab(X, 1.3, order)
    assert [(args[0], args[3]) for args in calls] == [(1.3, order), (1 / 1.3, order)]


@given(ys)
def test_xyab_reflection_symmetry(y):
    """All four blocks satisfy H(1/y) = H(y)."""
    for which in (X, Y, A, B):
        assert xyab(which, 1 / y) == pytest.approx(xyab(which, y), rel=1e-12)


@given(ys)
def test_xyab_derivative_duality(y):
    """H'(1/y) = -y^2 H'(y) for each block."""
    for which in (X, Y, A, B):
        lhs = xyab(which, 1 / y, 1)
        rhs = -y * y * xyab(which, y, 1)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_xyab_cross_checks_against_lattice_theta():
    for y in (0.8, 1.3, 2.1):
        iy = HalfPlanePoint(0.0, y)
        assert xyab(X, y) == pytest.approx(theta2d(1, iy), rel=1e-10)
        assert xyab(Y, y) == pytest.approx(2 * theta2d_shifted(2, iy), rel=1e-10)
        assert xyab(A, y) == pytest.approx(math.sqrt(2) * theta2d(2, iy), rel=1e-10)
        # theta(1; (iy+1)/2) = (A(y) + B(y)) / sqrt(2)
        assert xyab(B, y) == pytest.approx(
            math.sqrt(2) * theta2d_shifted(1, iy) - xyab(A, y), rel=1e-9
        )
        # sqrt(y)-form: X(y) = sqrt(y) theta_3(y)^2
        from latticetheta import jacobi_theta

        assert xyab(X, y) == pytest.approx(
            math.sqrt(y) * jacobi_theta("three", y) ** 2, rel=1e-12
        )


def test_xyab_second_derivative_matches_finite_difference():
    h = 5e-4
    for which in (X, A):
        fd = (xyab(which, 1.2 + h) - 2 * xyab(which, 1.2) + xyab(which, 1.2 - h)) / h**2
        assert xyab(which, 1.2, 2) == pytest.approx(fd, rel=1e-6)


def test_xyab_domain_errors():
    with pytest.raises(DomainError):
        xyab(X, 0.0)
    with pytest.raises(DomainError):
        xyab(X, 1.0, order=5)


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_values():
    th = thresholds()
    assert xyab(X, 1.0, 2) == pytest.approx(XPP1, rel=1e-11)
    assert xyab(Y, 1.0, 2) == pytest.approx(YPP1, rel=1e-11)
    assert th.rho1 == pytest.approx(RHO1, rel=1e-11)
    assert th.rho2 == pytest.approx(RHO2, rel=1e-11)
    assert th.sigma1b == pytest.approx(SIGMA1B, rel=1e-11)
    assert th.sigma2b == pytest.approx(SIGMA2B, rel=1e-11)


def test_threshold_relations_and_ordering():
    th = thresholds()
    assert th.sigma1a == th.rho1
    assert th.sigma2a == th.rho2
    assert th.sigma1b == pytest.approx(1 / th.rho2, rel=1e-15)
    assert th.sigma2b == pytest.approx(1 / th.rho1, rel=1e-15)
    assert th.rho1 < th.sigma1b < th.rho2 < th.sigma2b


def test_thresholds_cached():
    # the default truncation is one cache entry however it is passed
    thresholds.cache_clear()
    th = thresholds()
    assert thresholds() is th
    assert thresholds(functionals.DEFAULT_TRUNCATION) is th
    assert thresholds(trunc=functionals.DEFAULT_TRUNCATION) is th
    assert thresholds.cache_info().currsize == 1


def test_extended_thresholds_are_cached_per_precision(monkeypatch):
    """mpmath.mp is one object at every precision, so the key carries mp.prec."""
    from latticetheta.functionals import _thresholds

    thresholds.cache_clear()
    precs = []
    original = functionals._quotient_thresholds
    monkeypatch.setattr(
        functionals, "_quotient_thresholds", lambda *a: precs.append(mp.mp.prec) or original(*a)
    )
    asked = []
    for dps in (30, 50, 30):
        with mp.workdps(dps):
            asked.append(mp.mp.prec)
            _thresholds(functionals.DEFAULT_TRUNCATION, mp.mp)
    info = thresholds.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
    assert precs == asked[:2] and asked[0] < asked[1]  # 50 digits were solved afresh


# ---------------------------------------------------------------------------
# w_eval


taus = st.builds(
    HalfPlanePoint,
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(min_value=0.5, max_value=2.5),
)

g2_words = st.lists(
    st.sampled_from([INVERSION, TRANSLATION2, REFLECTION]), min_size=0, max_size=6
).map(lambda gs: _compose_all(gs))


def _compose_all(gens):
    w = IDENTITY
    for g in gens:
        w = compose(g, w)
    return w


@settings(max_examples=60)
@given(taus, st.sampled_from([0.0, 0.3, 2.0]))
def test_w_eval_period_two(tau, rho):
    moved = HalfPlanePoint(tau.x + 2, tau.y)
    for kind in (W1, W2):
        assert w_eval(kind, rho, moved) == pytest.approx(w_eval(kind, rho, tau), rel=1e-12)


@settings(max_examples=40)
@given(taus, g2_words, st.sampled_from([0.1, 1.0, 7.0]))
def test_w_eval_invariant_under_g2(tau, word, rho):
    moved = apply(word, tau)
    for kind in (W1, W2):
        assert w_eval(kind, rho, moved) == pytest.approx(w_eval(kind, rho, tau), rel=1e-10)


@settings(max_examples=30)
@given(taus, st.sampled_from([0.05, 0.5, 2.0, 20.0]))
def test_w_eval_duality(tau, rho):
    """W1,rho(tau) = rho W2,1/rho(w) and the swapped statement."""
    w = cayley(tau)
    assert w_eval(W1, rho, tau) == pytest.approx(rho * w_eval(W2, 1 / rho, w), rel=1e-9)
    assert w_eval(W2, rho, tau) == pytest.approx(rho * w_eval(W1, 1 / rho, w), rel=1e-9)


@settings(max_examples=30)
@given(taus, st.sampled_from([1.0, 2.0]))
def test_shifted_theta_duality(tau, s):
    """theta(s; (tau+1)/2) = theta(s; w) and theta(s; tau) = theta(s; (w+1)/2)."""
    w = cayley(tau)
    lhs = theta2d_shifted(s, tau)
    assert lhs == pytest.approx(theta2d(s, w), rel=1e-10)
    assert theta2d(s, tau) == pytest.approx(theta2d_shifted(s, w), rel=1e-10)


@given(st.floats(min_value=0.4, max_value=2.5), st.sampled_from([0.0, 0.02, 0.7]))
def test_w_eval_axis_identities(y, rho):
    iy = HalfPlanePoint(0.0, y)
    w1 = w_eval(W1, rho, iy)
    assert w1 == pytest.approx(xyab(Y, y) / 2 + rho * xyab(X, y), rel=1e-10)
    w2 = w_eval(W2, rho, iy)
    assert math.sqrt(2) * w2 == pytest.approx((1 + rho) * xyab(A, y) + xyab(B, y), rel=1e-10)
    # H(1/y) = H(y) carries over to the functionals on the axis
    inv = HalfPlanePoint(0.0, 1 / y)
    assert w_eval(W1, rho, inv) == pytest.approx(w1, rel=1e-10)
    assert w_eval(W2, rho, inv) == pytest.approx(w2, rel=1e-10)


def test_w_eval_reads_the_corner_from_a_cache(monkeypatch):
    """At z = i the rho-free thetas are summed once per truncation; a point that
    only compares equal to i (x = -0.0) still goes to the kernel, in one lattice
    pass at s = 1 (W1) or 1/2 (W2) with the displacements (0, 0) and (1/2, 1/2)."""
    from latticetheta import kernels

    corner, signed = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(-0.0, 1.0)
    w_eval.cache_clear()
    for kind in (W1, W2):
        w_eval(kind, 0.7, corner)  # fills the cache
    passes, original = [], kernels._lattice_sum
    monkeypatch.setattr(kernels, "_lattice_sum", lambda *a: passes.append(a) or original(*a))
    for kind, s in ((W1, 1), (W2, 0.5)):
        for z, kernel_passes in ((corner, 0), (signed, 1)):
            shifts = ((0, 0), (0.5, 0.5))
            (plain,), (half,) = original(s, z, shifts, 0, kernels.DEFAULT_TRUNCATION, math)
            passes.clear()
            assert w_eval(kind, 0.7, z) == (plain + half) / 2 + 0.7 * (s * plain)
            assert len(passes) == kernel_passes
    assert w_eval.cache_info().currsize == 2


# one point of each class of L(1/2, 1/2) mod 1 -- (1/2, 1/2), (0, 1/2), (1/2, 0) -- then
# tiny and large y, |x| = 3 and the corner z = i
SHIFT_CLASS_POINTS = [
    (0.3, 1.4), (2.2821, 0.177), (-1.7, 0.1), (0.2, 0.05), (0.2, 20.0), (3.0, 0.8), (-3.0, 1.3),
    (0.0, 1.0),
]


def plain_theta(s, x, y):
    """theta(s; x+iy) at 30 digits by a plain double sum; x and y may be mpf."""
    from test_kernels import direct_sum
    from test_verifier import theta_30_digits

    if 0.06 <= y <= 10:
        return theta_30_digits(s, x, y)
    with mp.workdps(30):
        return direct_sum(s, x, y, cut=60)


@pytest.mark.parametrize("x,y", SHIFT_CLASS_POINTS)
def test_one_pass_thetas_match_plain_double_sums(x, y):
    """theta2d_shifted and W1/W2, each one lattice pass at z, against double sums
    over the lattices of z and of (z+1)/2."""
    z, rho = HalfPlanePoint(x, y), 0.7
    with mp.workdps(30):
        xh, yh = (mp.mpf(x) + 1) / 2, mp.mpf(y) / 2
    shifted = {s: float(plain_theta(s, xh, yh)) for s in (1, 2)}
    plain = {s: float(plain_theta(s, x, y)) for s in (1, 2)}
    for s in (1, 2):
        assert theta2d_shifted(s, z) == pytest.approx(shifted[s], rel=1e-12), s
    assert w_eval(W1, rho, z) == pytest.approx(shifted[2] + rho * plain[1], rel=1e-12)
    assert w_eval(W2, rho, z) == pytest.approx(shifted[1] + rho * plain[2], rel=1e-12)


def test_w_eval_rejects_negative_weight():
    with pytest.raises(DomainError):
        w_eval(W1, -0.1, HalfPlanePoint(0, 1))


def test_circle_to_line_derivative_transfer():
    """On |w| = 1: dW_p/dw1 = rho (w2/(1-w1)) dW_q/dtau2, and the w2 version."""
    h = 1e-5
    for rho, p, q in ((0.5, W1, W2), (2.0, W2, W1), (20.0, W1, W2)):
        for w1 in (0.1, 0.3, 0.45):
            w2 = math.sqrt(1 - w1 * w1)
            tau2 = w2 / (1 - w1)
            d_w1 = (
                w_eval(p, rho, HalfPlanePoint(w1 + h, w2))
                - w_eval(p, rho, HalfPlanePoint(w1 - h, w2))
            ) / (2 * h)
            d_w2 = (
                w_eval(p, rho, HalfPlanePoint(w1, w2 + h))
                - w_eval(p, rho, HalfPlanePoint(w1, w2 - h))
            ) / (2 * h)
            d_tau2 = (
                w_eval(q, 1 / rho, HalfPlanePoint(0, tau2 + h))
                - w_eval(q, 1 / rho, HalfPlanePoint(0, tau2 - h))
            ) / (2 * h)
            assert d_w1 == pytest.approx(rho * (w2 / (1 - w1)) * d_tau2, abs=1e-6)
            assert d_w2 == pytest.approx(-rho * (w1 / (1 - w1)) * d_tau2, abs=1e-6)


# ---------------------------------------------------------------------------
# solve_y_branch


def test_branch_root_at_zero_weight():
    assert solve_y_branch(W1, 0.0) == pytest.approx(SQRT3, abs=1e-10)
    assert solve_y_branch(W2, 0.0) == pytest.approx(SQRT3, abs=1e-10)


@pytest.mark.parametrize(
    "kind,cs",
    [(W1, (0.02, 0.04, 0.07)), (W2, (0.3, 0.6, 1.0)), (W1, "window edge"), (W2, "window edge")],
)
def test_branch_root_residuals(kind, cs, monkeypatch):
    qkind = "ZofXY" if kind is W1 else "CofAB"
    offset = 0.0 if kind is W1 else 1.0
    th = thresholds(functionals.DEFAULT_TRUNCATION)  # the key solve_y_branch uses
    window = 2 * th.rho1 if kind is W1 else th.rho2
    if cs == "window edge":
        cs = (window * (1 - 1e-6),)  # the root sits just above y = 1
    calls = []
    jet = functionals._xyab_jet
    counted = lambda *args: calls.append(args) or jet(*args)
    for c in cs:
        calls.clear()
        solve_y_branch.cache_clear()  # count a cold solve, its root table included
        with monkeypatch.context() as m:
            m.setattr(functionals, "_xyab_jet", counted)
            y = solve_y_branch(kind, c)
        assert len(calls) <= 30  # building-block jets per cold solve
        assert 1.0 < y <= SQRT3
        assert abs(quotient(qkind, y) + offset + c) <= 1e-12


@pytest.mark.parametrize("kind,c_warm,c", [(W1, 0.02, 0.07), (W2, 0.3, 1.0)])
def test_bracket_ends_are_evaluated_once_per_kind(kind, c_warm, c, monkeypatch):
    """The quotient table, bracket ends included, does not depend on c: a solve
    after the first skips its one quotient per node and finds the same root."""
    thresholds(functionals.DEFAULT_TRUNCATION)  # the key solve_y_branch uses
    calls = []
    jet = functionals._quotient_jet
    monkeypatch.setattr(functionals, "_quotient_jet", lambda *a: calls.append(a) or jet(*a))
    solve_y_branch.cache_clear()
    cold = solve_y_branch(kind, c)
    cold_calls = len(calls)
    solve_y_branch.cache_clear()
    solve_y_branch(kind, c_warm)
    calls.clear()
    warm = solve_y_branch(kind, c)
    assert cold_calls - len(calls) == len(functionals._U_NODES)
    ends = [math.exp(math.sqrt(u)) for u in functionals._U_NODES[::8]]
    assert ends == [1 + 1e-9, SQRT3]  # the table's ends are the bracket's, exactly
    assert warm == cold
    assert solve_y_branch.cache_info().currsize == 1


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("kind", [W1, W2])
def test_branch_root_near_the_window_edge(kind, k):
    """At c = window (1 - 10^-k) the root is within the residual target, or,
    where the quotient's noise exceeds it, the residual changes sign within
    one ulp of the root (the solver's bracket was a few ulps wide)."""
    qkind, offset = ("ZofXY", 0.0) if kind is W1 else ("CofAB", 1.0)
    window = 2 * thresholds().rho1 if kind is W1 else thresholds().rho2
    c = window * (1 - 10.0**-k)
    y = solve_y_branch(kind, c)
    assert 1.0 < y <= SQRT3
    around = (math.nextafter(y, 0), y, math.nextafter(y, 2))
    res = [quotient(qkind, t) + offset + c for t in around]
    assert abs(res[1]) <= 1e-12 or min(res) < 0 < max(res)


@pytest.mark.parametrize("kind", [W1, W2])
def test_warm_solves_take_few_quotient_evaluations(kind, monkeypatch):
    """Seeded by the root of the table's cubic Hermite interpolant, a warm solve
    takes at most 2.5 quotients on average over 200 seeded c, and every root
    keeps a residual within the 1e-12 target."""
    qkind, offset = ("ZofXY", 0.0) if kind is W1 else ("CofAB", 1.0)
    window = 2 * thresholds().rho1 if kind is W1 else thresholds().rho2
    solve_y_branch(kind, window / 2)  # fills the root table
    rng = random.Random(7)
    cs = [rng.uniform(0.0, window) for _ in range(200)]
    calls = []
    jet = functionals._quotient_jet
    with monkeypatch.context() as m:
        m.setattr(functionals, "_quotient_jet", lambda *a: calls.append(a) or jet(*a))
        roots = [solve_y_branch(kind, c) for c in cs]
    assert len(calls) / len(cs) <= 2.5
    for c, y in zip(cs, roots):
        assert abs(quotient(qkind, y) + offset + c) <= 1e-12


def test_w2_root_at_the_window_edge_takes_at_most_two_quotients(monkeypatch):
    """At c = window (1 - 1e-8) the W2 root sits at y = 1 + 4.2e-5, in the band
    where the quotient's rounding exceeds the residual target: the seed, and at
    most one Newton step, find it, where the unseeded bracket took 10 quotients."""
    c = thresholds().rho2 * (1 - 1e-8)
    solve_y_branch(W2, c / 2)  # fills the root table
    calls = []
    jet = functionals._quotient_jet
    monkeypatch.setattr(functionals, "_quotient_jet", lambda *a: calls.append(a) or jet(*a))
    y = solve_y_branch(W2, c)
    assert len(calls) <= 2
    assert abs(y - (1 + 4.2e-5)) < 1e-6


def test_branch_root_against_dense_scan():
    """Confirm the c = 0.02 root by a vectorized million-point sign scan."""
    c = 0.02
    n = np.arange(1, 9)[:, None]
    pi = np.pi

    def th3(v):
        return 1 + 2 * np.exp(-pi * n * n * v).sum(axis=0)

    def th3p(v):
        return -2 * pi * (n * n * np.exp(-pi * n * n * v)).sum(axis=0)

    def th2(v):
        return 2 * np.exp(-pi * (n - 0.5) ** 2 * v).sum(axis=0)

    def th2p(v):
        return -2 * pi * ((n - 0.5) ** 2 * np.exp(-pi * (n - 0.5) ** 2 * v)).sum(axis=0)

    y = np.linspace(1 + 1e-6, SQRT3, 1_000_000)
    xp = th3p(y) * th3(1 / y) - th3(y) * th3p(1 / y) / y**2
    yp = 2 * (
        4 * th3p(4 * y) * th3(4 / y)
        - 4 * th3(4 * y) * th3p(4 / y) / y**2
        + 4 * th2p(4 * y) * th2(4 / y)
        - 4 * th2(4 * y) * th2p(4 / y) / y**2
    )
    f = yp / xp + c
    flips = np.nonzero(np.diff(np.sign(f)))[0]
    assert len(flips) == 1
    root = solve_y_branch(W1, c)
    assert y[flips[0]] <= root <= y[flips[0] + 1]


@pytest.mark.parametrize("kind", [W1, W2])
def test_branch_root_monotone_in_weight(kind):
    window = 2 * thresholds().rho1 if kind is W1 else thresholds().rho2
    cs = [window * (i + 1) / 52 for i in range(50)]
    roots = [solve_y_branch(kind, c) for c in cs]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert roots[0] < SQRT3


def test_branch_root_approaches_one_at_window():
    window = 2 * thresholds().rho1
    roots = [solve_y_branch(W1, f * window) for f in (0.9, 0.99, 0.999)]
    assert roots[0] > roots[1] > roots[2]
    assert roots[2] < 1.05


def test_branch_root_window_errors():
    with pytest.raises(NoRootError):
        solve_y_branch(W1, 1.0)
    with pytest.raises(NoRootError):
        solve_y_branch(W1, 2 * thresholds().rho1)
    with pytest.raises(NoRootError):
        solve_y_branch(W2, thresholds().rho2 + 0.1)
    with pytest.raises(DomainError):
        solve_y_branch(W1, -0.01)


# ---------------------------------------------------------------------------
# minimizer


def test_minimizer_documented_points():
    assert minimizer(W1, 0.4).z == HalfPlanePoint(0.0, 1.0)
    assert minimizer(W1, 0.4).branch == "corner"

    top = minimizer(W1, 0.0)
    assert top.branch == "segment"
    assert top.z.y == pytest.approx(SQRT3, abs=1e-10)

    huge = minimizer(W1, 1e3)
    assert huge.branch == "arc"
    assert abs(huge.z) == pytest.approx(1.0, abs=1e-12)
    assert 0.49 < huge.z.x < 0.5


def test_minimizer_segment_root_value():
    got = minimizer(W1, 0.02).z.y
    assert got == pytest.approx(1.4752204787, abs=1e-9)
    # stationarity: Y'/X' = -2 rho at the segment minimizer
    assert quotient("ZofXY", got) == pytest.approx(-0.04, abs=1e-11)


def test_minimizer_corner_plateau():
    th = thresholds()
    for i in range(20):
        rho = th.sigma1a + (th.sigma1b - th.sigma1a) * i / 19
        assert minimizer(W1, rho).z == HalfPlanePoint(0.0, 1.0)
    for i in range(20):
        rho = th.sigma2a + (th.sigma2b - th.sigma2a) * i / 19
        assert minimizer(W2, rho).z == HalfPlanePoint(0.0, 1.0)


def test_minimizer_threshold_ties_are_corner():
    th = thresholds()
    for kind, lo, hi in ((W1, th.sigma1a, th.sigma1b), (W2, th.sigma2a, th.sigma2b)):
        assert minimizer(kind, lo).branch == "corner"
        assert minimizer(kind, hi).branch == "corner"


def test_minimizer_continuous_at_thresholds():
    th = thresholds()
    eps = 1e-6
    before = minimizer(W1, th.sigma1a - eps).z
    assert abs(complex(before.x, before.y) - 1j) < 0.05
    after = minimizer(W1, th.sigma1b + eps).z
    assert abs(complex(after.x, after.y) - 1j) < 0.05


def test_minimizer_beats_sampled_points():
    rng = np.random.default_rng(7)
    samples = []
    while len(samples) < 50:
        x, y = rng.uniform(0, 1), rng.uniform(0.8, 2.2)
        if x * x + y * y > 1:
            samples.append(HalfPlanePoint(x, y))
    for kind, rho in ((W1, 0.02), (W1, 0.4), (W1, 3.0), (W2, 0.5), (W2, 30.0)):
        best = minimizer(kind, rho)
        v = w_eval(kind, rho, best.z)
        for z in samples:
            assert v <= w_eval(kind, rho, z) + 1e-12


def test_minimizer_rejects_negative_weight():
    with pytest.raises(DomainError):
        minimizer(W1, -1.0)


def test_trajectory_point_validation():
    with pytest.raises(DomainError):
        TrajectoryPoint(1.0, HalfPlanePoint(0.3, 1.5), "segment")
    with pytest.raises(DomainError):
        TrajectoryPoint(1.0, HalfPlanePoint(0.0, 1.0), "plateau")


# ---------------------------------------------------------------------------
# axis critical-point census (sign changes of the axis derivative)


def _axis_sign_changes(kind, rho, n=4000):
    ys_grid = np.linspace(0.3, 3.5, n)
    if kind is W1:
        vals = [xyab(Y, t, 1) / 2 + rho * xyab(X, t, 1) for t in ys_grid]
    else:
        vals = [(1 + rho) * xyab(A, t, 1) + xyab(B, t, 1) for t in ys_grid]
    signs = np.sign(vals)
    return int(np.count_nonzero(np.diff(signs)))


@pytest.mark.parametrize(
    "kind,factor,expected",
    [(W1, 0.8, 3), (W1, 1.2, 1), (W2, 0.8, 3), (W2, 1.2, 1)],
)
def test_axis_critical_point_count(kind, factor, expected):
    th = thresholds()
    base = th.rho1 if kind is W1 else th.rho2
    assert _axis_sign_changes(kind, factor * base) == expected


# ---------------------------------------------------------------------------
# quotient scans


def test_quotient_scan_positive_right_of_one():
    report = quotient_scan("ZofXY", 1.01, 5.0, 500)
    assert report.all_positive


def test_quotient_scan_negative_left_of_one():
    report = quotient_scan("CofAB", 0.2, 0.99, 500)
    assert report.all_negative


def test_quotient_scan_zofxy_negative_left_of_one():
    assert quotient_scan("ZofXY", 0.2, 0.99, 200).all_negative
    assert quotient_scan("CofAB", 1.01, 5.0, 200).all_positive


@given(st.floats(min_value=1.05, max_value=4.0))
def test_quotient_symmetry(y):
    for kind in ("ZofXY", "CofAB"):
        assert quotient(kind, 1 / y) == pytest.approx(quotient(kind, y), abs=1e-9)


def test_quotient_lhopital_at_one():
    th = thresholds()
    assert quotient("ZofXY", 1.0) == pytest.approx(-2 * th.rho1, rel=1e-12)
    assert quotient("CofAB", 1.0) == pytest.approx(-1 - th.rho2, rel=1e-12)
    # the quotient's derivative vanishes at y = 1 by the 1/y symmetry
    report = quotient_scan("ZofXY", 0.99, 1.01, 3)
    assert report.zero == 1
    assert report.negative == 1 and report.positive == 1


@pytest.mark.parametrize("dy", [-1e-6, 1e-6, -1e-5, 1e-5, -1e-4, 1e-4, 1e-3, 1e-2])
def test_quotient_derivative_near_one_matches_mpmath(dy):
    """Both N' and D' vanish at y = 1, so the generic formula loses its
    digits there; compare with (N'' D' - N' D'')/D'^2 at 40 digits."""
    th = lambda k, t: mp.jtheta(k, 0, mp.exp(-mp.pi * t))
    blocks = {
        "ZofXY": (
            lambda t: 2 * (th(3, 4 * t) * th(3, 4 / t) + th(2, 4 * t) * th(2, 4 / t)),
            lambda t: th(3, t) * th(3, 1 / t),
        ),
        "CofAB": (
            lambda t: th(2, 2 * t) * th(2, 2 / t),
            lambda t: th(3, 2 * t) * th(3, 2 / t),
        ),
    }
    y = 1 + dy
    for kind, (num, den) in blocks.items():
        with mp.workdps(40):
            ym = mp.mpf(y)
            n1, n2, d1, d2 = (mp.diff(f, ym, k) for f in (num, den) for k in (1, 2))
            ref = float((n2 * d1 - n1 * d2) / d1**2)
        assert quotient_derivative(kind, y) == pytest.approx(ref, rel=1e-3)


@pytest.mark.parametrize("dy", [1e-9, 1e-7, 1e-5, -1e-5])
def test_quotient_near_one_matches_mpmath(dy):
    """Within the expansion radius the quotient is read from the order-4
    expansion at y = 1, not from N'/D' where both nearly vanish."""
    th = lambda k, t: mp.jtheta(k, 0, mp.exp(-mp.pi * t))
    blocks = {
        "ZofXY": (
            lambda t: 2 * (th(3, 4 * t) * th(3, 4 / t) + th(2, 4 * t) * th(2, 4 / t)),
            lambda t: th(3, t) * th(3, 1 / t),
        ),
        "CofAB": (
            lambda t: th(2, 2 * t) * th(2, 2 / t),
            lambda t: th(3, 2 * t) * th(3, 2 / t),
        ),
    }
    y = 1 + dy
    for kind, (num, den) in blocks.items():
        with mp.workdps(40):
            ym = mp.mpf(y)
            ref = float(mp.diff(num, ym, 1) / mp.diff(den, ym, 1))
        assert quotient(kind, y) == pytest.approx(ref, rel=1e-13, abs=0)


def test_rho2_from_the_expansion_matches_40_digits():
    assert thresholds().rho2 == pytest.approx(RHO2, rel=1e-15, abs=0)


@pytest.mark.parametrize("kind,passes", [("ZofXY", 2), ("CofAB", 2)])
@pytest.mark.parametrize("y,order", [(1.4, 2), (0.6, 2), (1 + 1e-5, 4), (1.0, 4)])
def test_quotient_derivative_takes_each_block_from_one_jet(kind, passes, y, order, monkeypatch):
    """Every order of N' and D' comes from two parity-split passes of theta_3,
    at alpha y and at alpha / y: orders 0..2 at a generic point, orders 0..4 of
    the expansion at y = 1."""
    calls = []
    original = functionals._theta_series
    monkeypatch.setattr(
        functionals,
        "_theta_series",
        lambda *args, **kw: calls.append((args[3], kw["split"])) or original(*args, **kw),
    )
    quotient_derivative(kind, y)
    assert calls == [(order, True)] * passes


def test_quotient_scan_validation():
    with pytest.raises(DomainError):
        quotient_scan("ZofXY", 1.0, 0.5, 10)
    with pytest.raises(DomainError):
        quotient_scan("ZofXY", 0.5, 1.0, 1)
    with pytest.raises(DomainError):
        quotient("WofUV", 1.3)


def test_sign_report_shape():
    report = quotient_scan("ZofXY", 1.2, 2.0, 7)
    assert isinstance(report, SignReport)
    assert len(report.ys) == 7 == len(report.values)
    assert report.positive + report.negative + report.zero == 7
