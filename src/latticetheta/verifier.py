"""Independent oracles: brute minimization, sign scans, appendix margins.

Everything here re-derives results of the main modules by a second route —
plain double sums on dense grids, finite differences, and the explicit
exponential-polynomial tables of the monotonicity proofs — and reports them
as (name, expected, computed, tolerance, pass) rows.  Grid scans are pure
and element-wise independent (vectorized with numpy; any parallel map with
a deterministic reduction would do).

Directed rounding on the envelope side is not implemented; the margins are
evaluated in plain binary64, which is orders of magnitude finer than the
margins themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import List, NamedTuple, Tuple

import numpy as np

from . import polydata
from .functionals import (
    FunctionalKind,
    minimizer,
    quotient,
    thresholds,
    w_eval,
    xyab,
    XYABKind,
)
from .halfplane import GroupId, cayley, reduce
from .kernels import (
    DEFAULT_TRUNCATION,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    TruncationError,
    _lattice_sum,
    theta2d,
)
from .polydata import STATED_VALUES, SUITES

__all__ = [
    "BoundKit",
    "CheckRow",
    "MarginRow",
    "mu",
    "under_theta",
    "over_theta",
    "q_of",
    "delta_q",
    "n0_of",
    "sigma_bound",
    "case_c_margin",
    "case_d_margin",
    "theta_w1_lower",
    "theta_w2_lower",
    "bound_kit",
    "brute_minimize",
    "x_monotonicity_scan",
    "appendix_poly",
    "appendix_margins",
    "series_split",
    "run_suite",
    "SUITES",
]


# ---------------------------------------------------------------------------
# proof-machinery scalars (the bound kit)


_MU_RTOL = 1e-17
_MU_MAX_INDEX = 100_000


def _n2_gauss_sum(X: float, n0: int, c: int) -> float:
    """sum_{n >= n0} n^2 e^{-pi (n^2 - c) X}, cut by a certified tail.

    The term ratio r_n = ((n+1)/n)^2 e^{-pi (2n+1) X} decreases in n, so once
    r_n < 1 (past the peak) the tail after term n is at most
    t_n r_n / (1 - r_n).  The sum stops when that bound is below _MU_RTOL of
    the total, and raises TruncationError if the terms up to _MU_MAX_INDEX
    do not get there (for mu, X below about 1.3e-9).
    """
    total, tail = 0.0, math.inf
    for n in range(n0, _MU_MAX_INDEX + 1):
        term = n * n * math.exp(-math.pi * (n * n - c) * X)
        total += term
        ratio = ((n + 1) / n) ** 2 * math.exp(-math.pi * (2 * n + 1) * X)
        if ratio < 1:
            tail = term * ratio / (1 - ratio)
            if tail <= _MU_RTOL * total:
                return total
    raise TruncationError(
        f"sum_(n>={n0}) n^2 e^(-pi (n^2-{c}) X) at X = {X} not certified in {_MU_MAX_INDEX} terms",
        achieved_bound=tail,
    )


def mu(X: float) -> float:
    """mu(X) = sum_{n>=2} n^2 e^{-pi (n^2-1) X}, cut by a certified tail."""
    if not X > 0:
        raise DomainError(f"mu needs X > 0, got {X}")
    return _n2_gauss_sum(X, 2, 1)


def under_theta(X: float) -> float:
    """Lower envelope 4 pi e^{-pi X}(1 - mu(X)) of -theta1d_YY(X; 0)-type sums."""
    if not X > 0.2:
        raise DomainError(f"the envelope pair needs X > 1/5, got {X}")
    return 4 * math.pi * math.exp(-math.pi * X) * (1 - mu(X))


def over_theta(X: float) -> float:
    """Matching upper envelope 4 pi e^{-pi X}(1 + mu(X))."""
    if not X > 0.2:
        raise DomainError(f"the envelope pair needs X > 1/5, got {X}")
    return 4 * math.pi * math.exp(-math.pi * X) * (1 + mu(X))


def q_of(x: float) -> float:
    """q(x) = pi sqrt(1-x)/sqrt(x) for x in (0, 1)."""
    if not 0 < x < 1:
        raise DomainError(f"q needs x in (0, 1), got {x}")
    return math.pi * math.sqrt(1 - x) / math.sqrt(x)


def delta_q(x: float) -> float:
    """The geometric-tail bound delta(x) entering the shifted-theta scans."""
    e = math.exp(-q_of(x))
    g = e / (1 - e)
    return g + 4 * x * e / (1 - e) ** 2 + 4 * x * x * e * (1 + e) / (1 - e) ** 2


def n0_of(x: float) -> int:
    """n0 = [1/(2x)] + 1, the first index past the Gaussian peak."""
    if not 0 < x <= 0.5:
        raise DomainError(f"n0 needs x in (0, 1/2], got {x}")
    return int(1 / (2 * x)) + 1


def sigma_bound(j: int, y: float) -> float:
    """sigma_1..sigma_4: the small tail ratios of the x-monotonicity bounds,
    each cut by the certified tail of :func:`_n2_gauss_sum`."""
    if j == 1:
        return 0.25 * _n2_gauss_sum(y, 3, 4)
    if j == 2:
        return mu(y)
    if j == 3:
        return 0.5 * _n2_gauss_sum(y / 2, 3, 4)
    if j == 4:
        return mu(2 * y)
    raise DomainError(f"sigma index must be 1..4, got {j}")


_SQRT3_HALF = math.sqrt(3.0) / 2.0
# the printed lower-bound triple freezes the tail ratios at y = sqrt(3)/2
_SIGMA3_REF = sigma_bound(3, _SQRT3_HALF)
_SIGMA4_REF = sigma_bound(4, _SQRT3_HALF)


def theta_w1_lower(y: float, rho: float) -> float:
    """Positivity margin of dW1/dx / (4 pi sqrt(y) e^{-5 pi y/4} sin(pi x))."""
    m4 = mu(y / 4)
    return (
        0.5 * (1 - m4)
        - 2 * (1 + sigma_bound(1, y)) * math.exp(-3 * math.pi * y) * (1 + m4)
        - 4 * rho * (1 + sigma_bound(2, y)) * math.exp(-0.75 * math.pi * y) * (1 + mu(y))
    )


def theta_w2_lower(x: float, y: float, rho: float) -> float:
    """Positivity margin of the dW2/dx bound on the three covering rectangles."""
    m2 = mu(y / 2)
    weight = 4 + 4 * rho + 2 * _SIGMA3_REF + 2 * rho * _SIGMA4_REF
    return (1 - m2) - weight * math.cos(math.pi * x) * math.exp(-1.5 * math.pi * y) * (1 + m2)


def case_c_margin(x: float = 0.4) -> float:
    """Positivity margin for the short-side case of the second-shift bound."""
    m = mu(0.5)
    return (1 - m) / (1 + m) - (3 / (10 * x * x)) * math.exp(
        -math.pi * (1 - 4 * x * x) / (8 * x * x)
    )


def case_d_margin(x: float = 0.4) -> float:
    """Positivity margin for the long-side case; printed value sits at x = 2/5."""
    m = mu(0.5)
    return (1 - m) / (1 + m) - (3 * (1 + x) ** 2 / (10 * x * x)) * math.exp(
        -(math.pi / 2) * (((1 + x) / (2 * x)) ** 2 - 1)
    )


@dataclass(frozen=True)
class BoundKit:
    """The proof-machinery scalars evaluated at a common (X, x, y)."""

    mu: float
    under_theta: float
    over_theta: float
    delta: float
    q: float
    n0: int
    sigma1: float
    sigma2: float
    sigma3: float
    sigma4: float


def bound_kit(X: float, x: float, y: float) -> BoundKit:
    return BoundKit(
        mu=mu(X),
        under_theta=under_theta(X),
        over_theta=over_theta(X),
        delta=delta_q(x),
        q=q_of(x),
        n0=n0_of(x),
        sigma1=sigma_bound(1, y),
        sigma2=sigma_bound(2, y),
        sigma3=sigma_bound(3, y),
        sigma4=sigma_bound(4, y),
    )


# ---------------------------------------------------------------------------
# brute-force minimization oracle


_GRID_TOL, _GRID_MAX_INDEX, _GRID_BANDS = 1e-16, 100, 16


def _gauss_cut(c: float, scale: float, offset: float) -> int:
    """Least k with scale * sum_{i >= 0} e^{-pi c (a + i)^2} <= _GRID_TOL / 2, a = k + offset,
    the sum bounded by e^{-pi c a^2} / (1 - e^{-2 pi c a}) as (a + i)^2 >= a^2 + 2ai."""
    for k in range(_GRID_MAX_INDEX + 1):
        a = k + offset
        bound = scale * math.exp(-math.pi * c * a * a) / -math.expm1(-2 * math.pi * c * a)
        if bound <= _GRID_TOL / 2:
            return k
    raise TruncationError(f"theta grid tail not certified in {_GRID_MAX_INDEX} terms", bound)


def _cuts(s: float, ys: np.ndarray) -> Tuple[int, int]:
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if not (y_lo > 0 and math.isfinite(y_hi)):
        raise DomainError(f"theta grid needs 0 < y < inf, got y in [{y_lo}, {y_hi}]")
    rows = _gauss_cut(s * y_lo, 2 * (1 + math.sqrt(y_hi / s)), 1.0)
    return rows, _gauss_cut(s / y_hi, 2 * (1 + 1 / math.sqrt(s * y_lo)), 0.5)


def _theta_grid(s: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """theta(s; x+iy) on a grid to 1e-16: rows 0 <= m <= M (doubled for m > 0, as
    (m, n) ~ (-m, -n)) of e^{-s pi m^2 y} times e^{-s pi d^2/y} over each point's own
    window d = mx - rint(mx) + j, |j| <= J.  Row sums are at most 1 + sqrt(y/s) and column
    sums 1 + 1/sqrt(s y), so over a band's [y_lo, y_hi] M and J leave at most _GRID_TOL / 2
    each (:func:`_gauss_cut`; theta >= 1 makes that relative).  After a check of the whole
    grid, each of _GRID_BANDS bands of rows along axis 0 takes its own (M, J).  Term (m, j)
    is one op over rows [start_j:stop_m], from the first band with J >= |j| to the last with
    M >= m: every band sums at least its own cut (the running maxima of M from below and of
    J from above), whatever the order of y.  The cuts read ys alone: grids sharing ys (a
    scan's x +- h) sum the same terms at every point."""
    _cuts(s, ys)
    edges = sorted({len(ys) * b // _GRID_BANDS for b in range(_GRID_BANDS + 1)})
    rows, half = np.array([_cuts(s, ys[a:b]) for a, b in zip(edges, edges[1:])]).T
    starts = [edges[np.flatnonzero(half >= j)[0]] for j in range(max(half) + 1)]
    total, rate = np.zeros(ys.shape), -s * math.pi / ys
    for m in range(max(rows), -1, -1):
        stop = edges[1 + np.flatnonzero(rows >= m)[-1]]
        f = m * xs[:stop] - np.rint(m * xs[:stop])
        row = np.zeros(f.shape)
        for j in range(-max(half), max(half) + 1):
            start = starts[abs(j)]
            d = f[start:] + j
            d *= d
            row[start:] += np.exp(np.multiply(rate[start:stop], d, out=d), out=d)
        total[:stop] += (2 if m else 1) * np.exp(-s * math.pi * m * m * ys[:stop]) * row
    return total


def _w_parts(
    kind: FunctionalKind, xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The rho-free (shifted, plain) theta grids; W = shifted + rho * plain."""
    shifted = _theta_grid(2 if kind is FunctionalKind.W1 else 1, (xs + 1) / 2, ys / 2)
    plain = _theta_grid(1 if kind is FunctionalKind.W1 else 2, xs, ys)
    return shifted, plain


def _w_grid(kind: FunctionalKind, rho: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    shifted, plain = _w_parts(kind, xs, ys)
    return shifted + rho * plain

_Y_CEIL = 3.5
_Y_CLIP = 0.25
_NEWTON_STEPS = 12


class _BruteGrids(NamedTuple):
    """The mesh of the half-strip, its descent step and one kind's rho-free grids."""

    xgrid: np.ndarray
    ygrid: np.ndarray
    step: float
    shifted: np.ndarray
    plain: np.ndarray


def _brute_grids(kind: FunctionalKind, grid_n: int) -> _BruteGrids:
    if grid_n < 100:
        raise DomainError(f"brute grid must have at least 100 points, got {grid_n}")
    xs = np.linspace(0.0, 1.0, grid_n)
    floor = np.maximum(np.sqrt(np.clip(1.0 - xs * xs, 0.0, None)), _Y_CLIP)
    ts = np.linspace(0.0, 1.0, grid_n)[:, None]
    ygrid = floor[None, :] + (_Y_CEIL - floor[None, :]) * ts
    xgrid = np.broadcast_to(xs[None, :], ygrid.shape)
    step = max(1.0 / grid_n, (_Y_CEIL - float(np.min(floor))) / grid_n)
    return _BruteGrids(xgrid, ygrid, step, *_w_parts(kind, xgrid, ygrid))


def _w_jet(kind: FunctionalKind, rho: float, z: HalfPlanePoint, trunc: SeriesTruncation) -> list:
    """(W, W_x, W_y, W_xx, W_xy, W_yy) at z from one z-jet pass, W as :func:`w_eval` forms it."""
    s = 1 if kind is FunctionalKind.W1 else 0.5
    plain, half = _lattice_sum(s, z, ((0, 0), (0.5, 0.5)), 2, trunc, math, True)
    return [(p + q) / 2 + rho * (s * p) for p, q in zip(plain, half)]


def _grid_descent(
    kind: FunctionalKind, rho: float, grids: _BruteGrids, trunc: SeriesTruncation
) -> Tuple[HalfPlanePoint, float]:
    """Seed at the grid argmin of shifted + rho * plain, then take Newton steps on W's
    z-jet (:func:`_w_jet`), each iterate folded back into D_G2 by W's own group
    (``halfplane.reduce(z, GroupId.G2)``), and stop once the step is below its rounding
    bound: a jet entry is off by far less than 2^-40 |W|, the step by that times
    ``|H^-1| <= tr H / det H``.  Where the Hessian is not positive definite, or the
    steps run out, return the iterate (the seed among them) with the least jet value W."""
    flat = int(np.argmin(grids.shifted + rho * grids.plain))
    z = HalfPlanePoint(float(grids.xgrid.flat[flat]), float(grids.ygrid.flat[flat]))
    best = z, math.inf
    for _ in range(_NEWTON_STEPS):
        w, wx, wy, wxx, wxy, wyy = _w_jet(kind, rho, z, trunc)
        best = (z, w) if w < best[1] else best
        det = wxx * wyy - wxy * wxy
        if not (wxx > 0 and det > 0):
            break
        dx, dy = (wxy * wy - wyy * wx) / det, (wxy * wx - wxx * wy) / det
        if max(abs(dx), abs(dy)) <= 2.0**-40 * abs(w) * (wxx + wyy) / det:
            return z, w
        z = reduce(HalfPlanePoint(z.x + dx, z.y + dy), GroupId.G2)[0]
    return best


def brute_minimize(
    kind: FunctionalKind,
    rho: float,
    grid_n: int = 400,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> Tuple[HalfPlanePoint, float]:
    """Grid-minimize W over the closed fundamental half-strip, then refine.

    The mesh covers x in [0, 1], y from the unit circle (clipped below at
    0.25) up to 3.5; the best node seeds Newton steps on W's certified z-jet,
    one lattice pass each, folded back into D_G2 (:func:`_grid_descent`; where the
    Hessian is indefinite or the steps run out, the iterate with the least W).  The
    theta grids (a stated 1e-16 tail bound, cut per band of mesh rows) do not depend
    on rho (W = shifted + rho * plain); a single call builds them for its one weight,
    while the oracle suite builds them once per kind for every weight.
    """
    if not 0 <= rho < math.inf:
        raise DomainError(f"brute_minimize needs 0 <= rho < inf, got {rho}")
    return _grid_descent(kind, rho, _brute_grids(kind, grid_n), trunc)


# ---------------------------------------------------------------------------
# x-monotonicity scans

_SCAN_CUTOFF_Y = 10.0


class ScanViolation(NamedTuple):
    x: float
    y: float
    derivative: float


# x-interval (lo, width) per region; the floor is |z| = 1, or |z - 1/2| = 1/2 for Omega_C1
_REGIONS = {"D_G2": (0.0, 1.0), "Omega_C1": (0.0, 0.5), "R_L": (0.5, 0.5), "R2": (0.0, 0.5)}


def _region_grid(region: str, grid_n: int):
    """(x, y) grids for the named region's interior."""
    if region not in _REGIONS:
        raise DomainError(f"unknown region {region!r}")
    lo, width = _REGIONS[region]
    u = (np.arange(grid_n) + 0.5) / grid_n
    xs = lo + u[None, :] * width
    floor = np.sqrt(np.clip((xs if region == "Omega_C1" else 1.0) - xs * xs, 0.0, None))
    # offset keeps the scan strictly above the boundary curve
    ys = floor + (_SCAN_CUTOFF_Y - floor) * u[:, None] + 1e-6
    return np.broadcast_to(xs, ys.shape), ys


def x_monotonicity_scan(
    target: str,
    region: str,
    grid_n: int = 200,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    *,
    s: float = 1.0,
    rho: float = 0.05,
) -> List[ScanViolation]:
    """Finite-difference sign check of d/dx on the region's interior.

    Targets: "theta" (expected decreasing on Omega_C1), "theta_shifted"
    (increasing on D_G2), "w1"/"w2" (increasing on R_L and on R2 for small
    weight).  Returns the list of grid points whose derivative takes the
    wrong sign by more than 1e-9 — expected empty.  Unbounded regions are
    scanned up to y = 10; past that every x-derivative term carries a factor
    exp(-pi y/2) < 2e-7 times an O(1) trigonometric sum, far below any
    plausible sign change.
    """
    if grid_n < 50:
        raise DomainError(f"scan grid must have at least 50 points, got {grid_n}")
    xs, ys = _region_grid(region, grid_n)
    h = 1e-5

    expected = -1.0 if (target, region) == ("theta", "Omega_C1") else 1.0
    if target == "theta":
        f = lambda a: _theta_grid(s, a, ys)
    elif target == "theta_shifted":
        f = lambda a: _theta_grid(s, (a + 1) / 2, ys / 2)
    elif target in ("w1", "w2"):
        kind = FunctionalKind.W1 if target == "w1" else FunctionalKind.W2
        f = lambda a: _w_grid(kind, rho, a, ys)
    else:
        raise DomainError(f"unknown scan target {target!r}")

    deriv = (f(xs + h) - f(xs - h)) / (2 * h)
    bad = expected * deriv < -1e-9
    return [
        ScanViolation(float(xs[i, j]), float(ys[i, j]), float(deriv[i, j]))
        for i, j in zip(*np.nonzero(bad))
    ]


# ---------------------------------------------------------------------------
# appendix polynomials and margins


def _wronskian(left, right, lo, hi, weight, y_pow, rate):
    """Exact (weight y^y_pow / pi) e^{rate pi y/4} (right^(hi) left^(lo) - left^(hi) right^(lo)).

    left and right are series term lists (rate_quarters, coeff), and the
    result is a sorted table of (rate_quarters, pi_pow, y_pow, coeff) terms
    with int coefficients.  Monomials are carried as Fraction coefficients
    keyed by (rate_quarters, pi power, 2 * y power).
    """
    from fractions import Fraction  # loaded on first use, not on import

    def diff(terms, k):
        f = {(r, 0, 1): Fraction(c) for r, c in terms}
        for _ in range(k):
            g = {}
            for (r, p, q), c in f.items():
                for key, dc in (((r, p, q - 2), c * q / 2), ((r, p + 1, q), -c * r / 4)):
                    if dc:
                        g[key] = g.get(key, 0) + dc
            f = g
        return f

    acc = {}
    for f, g, sign in ((diff(right, hi), diff(left, lo), 1), (diff(left, hi), diff(right, lo), -1)):
        for (r1, p1, q1), c1 in f.items():
            for (r2, p2, q2), c2 in g.items():
                key = (r1 + r2 - rate, p1 + p2 - 1, (q1 + q2) // 2 + y_pow)
                acc[key] = acc.get(key, 0) + sign * weight * c1 * c2
    return tuple(sorted((*key, int(c)) for key, c in acc.items() if c))


@cache
def _tables():
    """The appendix tables by appendix_poly's names, derived on first use.

    A term (rate_quarters, pi_pow, y_pow, coeff) is the monomial
    coeff * pi**pi_pow * y**y_pow * exp(-rate_quarters*pi*y/4).  With the
    polydata term lists,  P_XY = (16y/pi) e^{pi y/4} (Ya'' Xa' - Xa'' Ya'),
    F_XY = (512y^4/pi) e^{pi y/4} (Ya'''' Xa'' - Ya'' Xa''''),
    P_AB = (4y/pi) e^{pi y/2} (Ba'' Aa' - Aa'' Ba') and
    F_AB = (32y^4/pi) e^{pi y/2} (Ba'''' Aa'' - Ba'' Aa'''').  P_XY and P_AB
    are split as the appendix groups them: the rate-0 monomials (pi*y and
    the constant) and every negative one are "plus", the rest "minus".
    FAB_weighted reproduces the table as printed, whose derivation drops the
    4*exp(-4*pi*y) monomial of the A-series approximant; FAB_derived, the
    Wronskian of all six monomials, is _wronskian(AA_MONOMIALS, BA_TERMS,
    2, 4, 32, 4, 2), which no runtime code reads.  FXY_weighted corrects two misprints: 1465536
    for 1465533, and -1400640*pi**4*y**4 for a garbled monomial.  The
    sympy check against the printed tables is tools/derive_poly_tables.py.
    """
    pd = polydata
    tables = {
        "FXY_weighted": _wronskian(pd.XA_TERMS, pd.YA_TERMS, 2, 4, 512, 4, 1),
        "FAB_weighted": _wronskian(pd.AA_MONOMIALS_5TERM, pd.BA_TERMS, 2, 4, 32, 4, 2),
    }
    for name, table in (
        ("PXY", _wronskian(pd.XA_TERMS, pd.YA_TERMS, 1, 2, 16, 1, 1)),
        ("PAB", _wronskian(pd.AA_MONOMIALS, pd.BA_TERMS, 1, 2, 4, 1, 2)),
    ):
        tables[name + "_plus"] = tuple(t for t in table if t[0] == 0 or t[3] < 0)
        tables[name + "_minus"] = tuple(t for t in table if t[0] != 0 and t[3] > 0)
    return tables


def eval_table(terms, y: float, order: int = 0) -> float:
    """Evaluate a (rate_quarters, pi_pow, y_pow, coeff) table or its order-th y-derivative,
    by Leibniz's rule on y^q e^{-a y} with (y^q)^(i) = q (q - 1) ... (q - i + 1) y^(q - i)."""
    total = 0.0
    for r, p, q, c in terms:
        rate = r * math.pi / 4.0
        base = c * math.pi**p * math.exp(-rate * y)
        term, falling = 0.0, 1
        for i in range(order + 1):
            term += math.comb(order, i) * falling * y ** (q - i) * (-rate) ** (order - i)
            falling *= q - i
        total += base * term
    return total


def appendix_poly(
    name: str,
    y: float,
    order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """One of the transcribed weighted-Wronskian polynomials at y >= 1."""
    tables = _tables()
    if name not in tables:
        raise DomainError(f"unknown appendix table {name!r}; expected one of {sorted(tables)}")
    if not y >= 1:
        raise DomainError(f"appendix polynomials are used on y >= 1, got {y}")
    if order not in (0, 1):
        raise DomainError(f"appendix table derivative order must be 0 or 1, got {order}")
    return eval_table(tables[name], y, order)


class MarginRow(NamedTuple):
    name: str
    computed: float
    printed: float
    diff: float
    tol: float


def _margin(name, computed, printed, tol) -> MarginRow:
    return MarginRow(name, computed, printed, abs(computed - printed), tol)


def appendix_margins(trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> List[MarginRow]:
    """Every named constant of the sign-bound proofs, recomputed from scratch."""
    t = _tables()
    pxy_all = t["PXY_plus"] + t["PXY_minus"]
    pab_all = t["PAB_plus"] + t["PAB_minus"]
    u3 = eval_table(pxy_all, 1.1) - 16 * 1.1 * (
        44 * math.pi + 18 + 36 * 1.1
    ) * math.exp(-4 * math.pi * 1.1)
    uu3 = eval_table(pab_all, 1.05) - 1352 * math.pi * 1.05**1.5 * math.exp(
        -6 * math.pi * 1.05
    )
    v3_env = (72 / 5) * 17**4 * math.pi**3 * math.exp(-4 * math.pi)
    vv3_env = 26**4 * math.pi**3 * math.exp(-6 * math.pi)
    y0 = _SQRT3_HALF
    return [
        _margin("delta_q_half", delta_q(0.5), 0.188822585, 1e-8),
        _margin("case_c_margin", case_c_margin(), 0.1556238052, 1e-6),
        _margin("case_d_margin", case_d_margin(), 0.7866071958, 1e-6),
        _margin("theta_w1_at_sqrt3half", theta_w1_lower(y0, 0.05), 0.1933, 5e-5),
        _margin(
            "theta_w2_rect_a", theta_w2_lower(0.0, math.sqrt(15.0) / 4, 20), 0.0450964128, 1e-6
        ),
        _margin(
            "theta_w2_rect_b", theta_w2_lower(0.25, math.sqrt(55.0) / 8, 20), 0.1583739562, 1e-6
        ),
        _margin("theta_w2_rect_c", theta_w2_lower(0.375, y0, 20), 0.3525036217, 1e-6),
        _margin("sigma1_at_sqrt3half", sigma_bound(1, y0), 2.781e-6, 5e-10),
        _margin("sigma2_at_sqrt3half", sigma_bound(2, y0), 1.14105e-3, 1e-7),
        _margin("sigma3_at_sqrt3half", sigma_bound(3, y0), 5.00388e-3, 1e-7),
        _margin("sigma4_at_sqrt3half", sigma_bound(4, y0), 3.255011e-7, 1e-12),
        _margin("u3_margin", u3, 0.001671778, 1e-7),
        _margin("uu3_margin", uu3, 0.001189906301, 1e-6),
        _margin("v3_pair_main", eval_table(t["FXY_weighted"], 1.11), 158.4646175, 1e-6),
        _margin("v3_pair_envelope", v3_env, 130.0476135, 1e-6),
        _margin("vv3_pair_main", eval_table(t["FAB_weighted"], 1.12), 49.93918473, 1e-6),
        _margin("vv3_pair_envelope", vv3_env, 0.09227517899, 1e-6),
        _margin("pxy_minus_deriv", eval_table(t["PXY_minus"], 2.2, 1), -3.012967072, 1e-6),
        _margin("pab_minus_deriv", eval_table(t["PAB_minus"], 1.82, 1), -3.051954266, 1e-6),
    ]


# ---------------------------------------------------------------------------
# approximate/error series splits

_APPROX_TERMS = {
    "X": polydata.XA_TERMS,
    "Y": polydata.YA_TERMS,
    "B": polydata.BA_TERMS,
}


def _aa_terms() -> Tuple[Tuple[int, int], ...]:
    # finite monomials plus the two convergent tails of the A-approximant
    terms = list(polydata.AA_MONOMIALS)
    terms += [(8 * n * n, 2) for n in range(2, 7)]
    terms += [(2 * n * n, 2) for n in range(4, 12)]
    return tuple(terms)


def series_split(
    which: str,
    y: float,
    order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> Tuple[float, float]:
    """(approximate, error) parts of the X/Y/A/B series at y >= 1.

    Either member name of a pair selects the same split ("Xa" and "Xe" both
    return (Xa, Xe)); the error part is the full certified value minus the
    approximant, which matches the tail expressions of the proofs exactly.
    """
    if which not in ("Xa", "Xe", "Ya", "Ye", "Aa", "Ae", "Ba", "Be"):
        raise DomainError(f"unknown split {which!r}; expected Xa/Xe/Ya/Ye/Aa/Ae/Ba/Be")
    if not y >= 1:
        raise DomainError(f"series splits are used on y >= 1, got {y}")
    if order not in (0, 1, 2, 3, 4):
        raise DomainError(f"split derivative order must be 0..4, got {order}")
    terms = _aa_terms() if which[0] == "A" else _APPROX_TERMS[which[0]]
    approx = eval_table([(r, 0, 0.5, c) for r, c in terms], y, order)
    full = xyab(XYABKind(which[0]), y, order, trunc)
    return approx, full - approx


# ---------------------------------------------------------------------------
# verification report


class CheckRow(NamedTuple):
    name: str
    expected: float
    computed: float
    tol: float
    passed: bool


def _row(name: str, expected: float, computed: float, tol: float) -> CheckRow:
    return CheckRow(name, expected, computed, tol, abs(computed - expected) <= tol)


def _suite_identities(trunc: SeriesTruncation) -> List[CheckRow]:
    z = HalfPlanePoint(0.3, 1.4)
    w = HalfPlanePoint(0.15, 0.95)
    rows = [
        _row("melin_scaling", theta2d(0.5, z, trunc), 2 * theta2d(2.0, z, trunc), 1e-10),
        _row(
            "translation_invariance",
            theta2d(1, z, trunc),
            theta2d(1, HalfPlanePoint(z.x + 1, z.y), trunc),
            1e-10,
        ),
        _row(
            "inversion_invariance",
            theta2d(1, w, trunc),
            theta2d(1, HalfPlanePoint(-w.x / abs(w) ** 2, w.y / abs(w) ** 2), trunc),
            1e-10,
        ),
        _row(
            "product_form_axis",
            theta2d(1, HalfPlanePoint(0.0, 1.7), trunc),
            xyab(XYABKind.X, 1.7, 0, trunc),
            1e-10,
        ),
        _row(
            "quotient_symmetry",
            quotient("ZofXY", 1.7, trunc),
            quotient("ZofXY", 1 / 1.7, trunc),
            1e-9,
        ),
    ]
    tau = HalfPlanePoint(0.35, 1.2)
    wpt = cayley(tau)
    for rho in (0.5, 2.0):
        for kind in (FunctionalKind.W1, FunctionalKind.W2):
            other = FunctionalKind.W2 if kind is FunctionalKind.W1 else FunctionalKind.W1
            lhs, rhs = w_eval(kind, rho, tau, trunc), rho * w_eval(other, 1 / rho, wpt, trunc)
            rows.append(_row(f"duality_{kind.value.lower()}_rho{rho:g}", lhs, rhs, 1e-9))
    return rows


def _suite_thresholds(trunc: SeriesTruncation) -> List[CheckRow]:
    from .phase_diagram import alpha_thresholds, solve_alpha0

    th = thresholds(trunc)
    a1, a2 = alpha_thresholds(trunc)
    alpha0 = solve_alpha0(trunc)
    ref = STATED_VALUES
    return [
        _row("rho1", ref["rho1"], th.rho1, 1e-9),
        _row("rho2", ref["rho2"], th.rho2, 1e-8),
        _row("sigma2b", ref["sigma2b"], th.sigma2b, 1e-6),
        _row("sigma1b_reciprocal", 1.0, th.sigma1b * th.rho2, 1e-12),
        _row("sigma2b_reciprocal", 1.0, th.sigma2b * th.rho1, 1e-12),
        _row("alpha1", ref["alpha1"], a1, 1e-8),
        _row("alpha2", ref["alpha2"], a2, 1e-8),
        _row("alpha0", ref["alpha0"], alpha0.alpha0, 1e-5),
        _row("theta_alpha0", ref["theta_alpha0"], alpha0.theta_alpha0, 1e-7),
        _row("alpha0_rough_bound", ref["alpha0_rough_bound"], alpha0.rough_bound, 1e-8),
    ]


def _suite_appendix(trunc: SeriesTruncation) -> List[CheckRow]:
    return [
        CheckRow(m.name, m.printed, m.computed, m.tol, m.diff <= m.tol)
        for m in appendix_margins(trunc)
    ]


ORACLE_RHOS = (
    (FunctionalKind.W1, (0.01, 0.03, 0.4, 0.7, 2.0, 30.0)),
    (FunctionalKind.W2, (0.5, 1.0, 2.0, 10.0, 30.0, 100.0)),
)


def _suite_oracle(trunc: SeriesTruncation, grid_n: int = 400) -> List[CheckRow]:
    """Brute grid minima against the closed-form minimizer at ORACLE_RHOS.

    The mesh and the two rho-free theta grids are built once per kind per
    call and shared by that kind's six weights; nothing outlives the call.
    """
    rows = []
    for kind, rhos in ORACLE_RHOS:
        grids = _brute_grids(kind, grid_n)
        for rho in rhos:
            closed = minimizer(kind, rho, trunc).z
            brute, _ = _grid_descent(kind, rho, grids, trunc)
            dev = max(abs(brute.x - closed.x), abs(brute.y - closed.y))
            rows.append(_row(f"{kind.value}_rho{rho:g}", 0.0, dev, 2 * grids.step))
    return rows


def run_suite(
    suite: str,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    grid_n: int = 400,
) -> List[CheckRow]:
    """Run one of the named verification suites and return its check rows."""
    if suite == "identities":
        return _suite_identities(trunc)
    if suite == "thresholds":
        return _suite_thresholds(trunc)
    if suite == "appendix":
        return _suite_appendix(trunc)
    if suite == "oracle":
        return _suite_oracle(trunc, grid_n)
    if suite == "all":
        names = ("identities", "thresholds", "appendix", "oracle")
        return [row for name in names for row in run_suite(name, trunc, grid_n)]
    raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES}")
