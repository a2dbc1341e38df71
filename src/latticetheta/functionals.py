"""The competing functionals W1,rho / W2,rho and their minimizer trajectory.

On the imaginary axis both functionals collapse to one-variable combinations
of four building blocks::

    X(y) = theta_3(y)   theta_3(1/y)
    Y(y) = 2 [theta_3(4y) theta_3(4/y) + theta_2(4y) theta_2(4/y)]
    A(y) = sqrt(2) theta_3(2y) theta_3(2/y)
    B(y) = sqrt(2) theta_2(2y) theta_2(2/y)

namely  W1,rho(iy) = Y(y)/2 + rho X(y)  and  sqrt(2) W2,rho(iy) =
(1 + rho) A(y) + B(y).  The stationarity equations along the axis are the
quotient equations Y'/X' + c = 0 and 1 + B'/A' + c = 0, whose unique roots in
(1, sqrt(3)] :func:`solve_y_branch` brackets and seeds from a cached table of
the quotient and finishes by Newton steps inside the Illinois false position that
also finds the phase diagram's alpha0.  Note the factor two: the W1 segment
minimizer at weight rho is the root for c = 2 rho, because differentiating
Y/2 + rho X gives Y'/X' = -2 rho.

The thresholds where the segment branch dies are the L'Hopital limits of the
quotients at y = 1:

    rho1 = -Y''(1) / (2 X''(1))        (W1 leaves the segment)
    rho2 = -1 - B''(1) / A''(1)        (W2 leaves the segment)

Splitting theta_3(t) = sum_k e^{-pi k^2 t} by the parity of k gives theta_3(4t) and
theta_2(4t), so a quotient's two blocks come from two theta_3 passes, at alpha y and
alpha / y (alpha = 1 for X, Y and 1/2 for A, B).  :func:`_quotient_jet` gives each
quotient and its slope at every y > 0, near y = 1 from an order-4 expansion whose value
at 1 is the limit above; the root solver, the public quotients and the thresholds all
read it.  The sigma thresholds of the trajectory theorems are sigma_1a = rho1,
sigma_1b = 1/rho2, sigma_2a = rho2, sigma_2b = 1/rho1.
:func:`minimizer` assembles the full trajectory: segment for small rho,
corner plateau at i, then the unit-circle arc obtained by the Cayley map
from the *other* functional's segment root.  The W printed there (and the phase
diagram's energy, 2 alpha W1,rho) is read off the blocks the root solver ends on:
the forms above on the segment, and rho W_other,1/rho(iy) on the arc.  :func:`w_eval`
stays the lattice pass, valid at every z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .halfplane import on_trajectory
from .kernels import (
    DEFAULT_TRUNCATION,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    _cached,
    _leibniz,
    _reflected,
    _sublattice_pair,
    _theta_series,
)

__all__ = [
    "FunctionalKind",
    "XYABKind",
    "Thresholds",
    "TrajectoryPoint",
    "NoRootError",
    "xyab",
    "thresholds",
    "w_eval",
    "solve_y_branch",
    "minimizer",
    "quotient",
    "quotient_derivative",
    "SignReport",
    "quotient_scan",
]

SQRT3 = math.sqrt(3.0)

_POLISH_RESIDUAL = 1e-12
_EXPANSION_RADIUS = 3e-5
_CORNER = HalfPlanePoint(0.0, 1.0)
_U_ENDS = math.log(1.0 + 1e-9) ** 2, math.log(SQRT3) ** 2  # u = (ln y)^2 at the branch bracket
_U_NODES = tuple((_U_ENDS[0] * (8 - i) + _U_ENDS[1] * i) / 8 for i in range(9))  # ends exact


class NoRootError(ArithmeticError):
    """The branch equation has no root: the weight is past its threshold."""


class FunctionalKind(enum.Enum):
    W1 = "W1"
    W2 = "W2"


class XYABKind(enum.Enum):
    X = "X"
    Y = "Y"
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Thresholds:
    """The two quotient thresholds and the four trajectory thresholds."""

    rho1: float
    rho2: float
    sigma1a: float
    sigma1b: float
    sigma2a: float
    sigma2b: float


@dataclass(frozen=True)
class TrajectoryPoint:
    """A minimizer: weight, location, which trajectory piece it sits on, and the
    functional's value there (set by :func:`minimizer`)."""

    rho: float
    z: HalfPlanePoint
    branch: str  # "segment" | "corner" | "arc"
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.branch not in ("segment", "corner", "arc"):
            raise DomainError(f"unknown branch tag {self.branch!r}")
        if on_trajectory(self.z, 1e-9) is None:
            raise DomainError(f"trajectory point ({self.z.x}, {self.z.y}) is off the curve")


# ---------------------------------------------------------------------------
# building blocks


#: each block's quotient and its place in :func:`_xyab_jet`'s (numerator, denominator)
_BLOCKS = {XYABKind.Y: ("ZofXY", 0), XYABKind.X: ("ZofXY", 1), XYABKind.B: ("CofAB", 0),
           XYABKind.A: ("CofAB", 1)}


def _xyab_jet(kind: str, y: float, order: int, trunc: SeriesTruncation, ctx: Any) -> tuple:
    """The y-jets (orders 0..order) of a quotient's numerator and denominator, (Y, X) or (B, A),
    from parity-split theta_3 passes at alpha y and alpha / y (alpha 1 or 1/2; the second cut
    with :func:`_reflected`'s gain): with (e, o) the even and odd parts at alpha y and (E, O) at
    alpha / y, X = (e + o)(E + O), Y = 2 (e E + o O), A = sqrt(2) e E and B = sqrt(2) o O."""
    if kind not in ("ZofXY", "CofAB"):
        raise DomainError(f"unknown quotient kind {kind!r}; expected 'ZofXY' or 'CofAB'")
    if not y > 0:
        raise DomainError(f"xyab needs y > 0, got {y}")
    alpha = 1.0 if kind == "ZofXY" else 0.5
    e, o = _theta_series(alpha * y, 0, 0, order, trunc, ctx, split=True)
    gain = max(map(abs, _reflected([1.0] * (order + 1), alpha, float(y))))  # on the 1/y pass's tail
    E, O = _theta_series(alpha / y, 0, 0, order, trunc, ctx, scale=gain, split=True)
    if alpha != 1:  # d^n/dy^n f(alpha y) = alpha^n f^(n)
        e, o = ([v * alpha**n for n, v in enumerate(part)] for part in (e, o))
    E, O = _reflected(E, alpha, y), _reflected(O, alpha, y)
    even, odd = _leibniz(e, E), _leibniz(o, O)
    if alpha == 1:
        whole = _leibniz([u + v for u, v in zip(e, o)], [u + v for u, v in zip(E, O)])
        return [2 * (u + v) for u, v in zip(even, odd)], whole
    return [ctx.sqrt(2) * v for v in odd], [ctx.sqrt(2) * v for v in even]


def xyab(
    which: XYABKind,
    y: float,
    order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    ctx: Any = math,
) -> float:
    """Evaluate X, Y, A or B, or a derivative in y up to fourth order."""
    if order not in (0, 1, 2, 3, 4):
        raise DomainError(f"derivative order must be 0..4, got {order}")
    if which not in _BLOCKS:
        raise DomainError(f"unknown building block {which!r}")
    kind, place = _BLOCKS[which]
    return _xyab_jet(kind, y, order, trunc, ctx)[place][order]


# ---------------------------------------------------------------------------
# thresholds


def _quotient_thresholds(trunc: SeriesTruncation, ctx: Any) -> Tuple[float, float]:
    """(rho1, rho2) = (-q_ZofXY(1)/2, -1 - q_CofAB(1)) in binary64, with the
    quotients' L'Hopital values at y = 1 evaluated in ``ctx``."""
    q_zofxy, q_cofab = (_quotient_jet(kind, 1.0, trunc, ctx)[0] for kind in ("ZofXY", "CofAB"))
    return float(-q_zofxy / 2), float(-1 - q_cofab)


def thresholds(trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> Thresholds:
    """Quotient thresholds from the quotients' limits at y = 1.

    rho1 = -Y''(1)/(2 X''(1)) and rho2 = -1 - B''(1)/A''(1); the sigma fields
    are filled by the reciprocal relations of the trajectory theorems.  The
    cache is keyed on the truncation, plus the precision of the backend the
    CLI's extended table passes (``thresholds.cache_info``/``cache_clear``);
    thresholds() and thresholds(DEFAULT_TRUNCATION) share an entry.
    """
    return _thresholds(trunc, math)


def _band_edges(th: Thresholds) -> Tuple[float, float]:
    """(alpha1, alpha2) = (1/(1 + 2 sigma_1b), 1/(1 + 2 sigma_1a)) for the thresholds ``th``."""
    return 1 / (1 + 2 * th.sigma1b), 1 / (1 + 2 * th.sigma1a)


@_cached(thresholds)
def _thresholds(trunc: SeriesTruncation, ctx: Any) -> Thresholds:
    rho1, rho2 = _quotient_thresholds(trunc, ctx)
    return Thresholds(rho1, rho2, rho1, 1 / rho2, rho2, 1 / rho1)  # the sigmas by reciprocity


# ---------------------------------------------------------------------------
# the functionals


def w_eval(
    kind: FunctionalKind,
    rho: float,
    z: HalfPlanePoint,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """W1,rho(z) = theta(2;(z+1)/2) + rho theta(1;z), and the W2 companion
    W2,rho(z) = theta(1;(z+1)/2) + rho theta(2;z), each one lattice pass at z
    (:func:`_w_value`; W2's plain term by the duality theta(2; z) = theta(1/2; z)/2).
    This lattice form holds at every z; the trajectory's printed values come from the
    axis blocks instead, and the tests compare the two.

    The rho-free thetas at the corner z = i are cached, keyed on the truncation plus
    the precision of the backend the CLI's extended ``eval`` passes
    (``w_eval.cache_info``/``cache_clear``)."""
    return _w_value(kind, rho, z, trunc, math)


def _w_value(
    kind: FunctionalKind, rho: float, z: HalfPlanePoint, trunc: SeriesTruncation, ctx: Any
) -> float:
    """:func:`w_eval` in the arithmetic of ``ctx`` (the CLI's extended precision): W =
    shifted + rho * plain with the rho-free thetas theta(2s;(z+1)/2) and theta(1/s;z) at
    s = 1 (W1) and s = 1/2 (W2), both from the pass at s over z (theta(1/s; z) = s
    theta(s; z)).  The corner z = i (x = +0.0 exactly) is read from a cache."""
    if not rho >= 0:
        raise DomainError(f"w_eval needs rho >= 0, got {rho}")
    if kind not in (FunctionalKind.W1, FunctionalKind.W2):
        raise DomainError(f"unknown functional {kind!r}")
    s = 1 if kind is FunctionalKind.W1 else 0.5
    corner = z.x == 0.0 and z.y == 1.0 and math.copysign(1.0, z.x) > 0
    shifted, plain = _corner_parts(s, trunc, ctx) if corner else _sublattice_pair(s, z, trunc, ctx)
    return shifted + rho * (s * plain)


@_cached(w_eval)
def _corner_parts(s: float, trunc: SeriesTruncation, ctx: Any) -> Tuple[float, float]:
    return _sublattice_pair(s, _CORNER, trunc, ctx)


def solve_y_branch(
    kind: FunctionalKind,
    c: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """Root in (1, sqrt(3)] of Y'/X' + c = 0 (W1) or 1 + B'/A' + c = 0 (W2).

    The quotient increases on (1, infinity) and is even in ln y, so it is nearly linear
    in u = (ln y)^2.  A table of it and its slope at nine nodes uniform in u on [1 + 1e-9,
    sqrt(3)], filled on the first solve per kind and truncation (the cache's key:
    ``solve_y_branch.cache_info``/``cache_clear``), brackets the root; from the root of
    its cubic Hermite interpolant :func:`_bracketed_root` takes Newton steps in u, each
    slope read halfway along the step by the cubic's curvature, until the residual is at
    most 1e-12, or, where the quotient's float noise exceeds that, the bracket is a few
    ulps wide.  ``c`` lies in [0, window), the window being 2*rho1 for W1 and rho2 for W2;
    past it there is no root and the minimizer sits at the corner.
    """
    return _branch_root(kind, c, trunc)[0]


def _branch_root(kind: FunctionalKind, c: float, trunc: SeriesTruncation) -> Tuple[float, tuple]:
    """:func:`solve_y_branch`'s root y and the quotient's blocks (Y, X) or (B, A) there, read
    at the end :func:`_bracketed_root` returns: an evaluated iterate or a table node."""
    if not c >= 0:
        raise DomainError(f"solve_y_branch needs c >= 0, got {c}")
    qkind, offset = ("ZofXY", 0.0) if kind is FunctionalKind.W1 else ("CofAB", 1.0)
    if c == 0:  # both numerators vanish at the hexagonal height
        return SQRT3, tuple(jet[0] for jet in _xyab_jet(qkind, SQRT3, 0, trunc, math))
    th = thresholds(trunc)
    if c >= (window := 2 * th.rho1 if kind is FunctionalKind.W1 else th.rho2):
        raise NoRootError(
            f"{kind.value}: c = {c} is past the branch window {window:.12f}; no segment root exists"
        )

    def f(u: float) -> Tuple[float, float]:  # the residual and its slope in u
        q, dq, blocks[u] = _u_jet(qkind, u, trunc)
        r, curv = (offset + q) + c, (2 * c2 + 6 * c3 * (u - a) / h) / (h * h)
        return r, dq - curv * r / (2 * dq)  # the slope halfway along the Newton step
    table = _root_table(qkind, trunc)
    fs = [(offset + q) + c for q, _, _ in table]
    if not fs[0] < 0 < fs[-1]:
        raise NoRootError(
            f"{kind.value}: no sign change on the bracket for c = {c} "
            f"(f(lo) = {fs[0]:.3e}, f(hi) = {fs[-1]:.3e})"
        )
    k = next(i for i, v in enumerate(fs) if v >= 0)  # fs[k - 1] < 0 <= fs[k]
    (a, fa, ma), (b, fb, mb) = ((_U_NODES[i], fs[i], table[i][1]) for i in (k - 1, k))
    blocks = {a: table[k - 1][2], b: table[k][2]}  # the blocks at every u evaluated
    h, s = b - a, fa / (fa - fb)  # the cubic Hermite interpolant: fa + s (c1 + s (c2 + s c3))
    c1, c2, c3 = h * ma, 3 * (fb - fa) - h * (2 * ma + mb), 2 * (fa - fb) + h * (ma + mb)
    for _ in range(3):  # Newton steps on it from the secant root s: the first iterate
        s -= (fa + s * (c1 + s * (c2 + s * c3))) / ((c1 + s * (2 * c2 + 3 * s * c3)) or math.nan)
    u = _bracketed_root(f, a, fa, b, fb, _POLISH_RESIDUAL, a + s * h)
    return math.exp(math.sqrt(u)), blocks[u]


def _u_jet(qkind: str, u: float, trunc: SeriesTruncation) -> Tuple[float, float, tuple]:
    """The quotient, its slope in u = (ln y)^2 and its blocks, at y = e^sqrt(u)."""
    q, dq, blocks = _quotient_jet(qkind, y := math.exp(t := math.sqrt(u)), trunc)
    return q, dq * y / (2 * t), blocks


@_cached(solve_y_branch)
def _root_table(qkind: str, trunc: SeriesTruncation) -> Tuple[Tuple[float, float, tuple], ...]:
    """:func:`_u_jet` at the nodes ``_U_NODES``, which do not depend on c."""
    return tuple(_u_jet(qkind, u, trunc) for u in _U_NODES)


def _bracketed_root(
    f: Callable[[float], Tuple[float, Any]], a: float, fa: float, b: float, fb: float, ftol: float,
    x0: float = math.nan,
) -> float:
    """Root of ``f`` between ``a`` and ``b``, where ``fa`` and ``fb`` differ in sign.

    Illinois false position (M. Dowell and P. Jarratt, BIT 11, 1971): each
    step interpolates the stored end values and replaces the end whose sign
    the new value shares, so the bracket is always kept; an end kept twice
    in a row has its stored value halved, and a step that rounds onto an end
    falls back to the midpoint.  ``f`` returns f(x) and f'(x) or None; with
    a slope, the Newton step from the newest iterate is taken instead when it
    lands strictly inside the bracket, as is a first iterate ``x0``.  Stops once
    an end has |f| <= ``ftol`` or the bracket is a few ulps wide, and returns
    the end with the smaller |f|.
    """
    wa = wb = 1.0  # the halvings of the stored end values
    kept, xn = None, x0  # xn: the Newton step from the newest iterate
    while abs(fa) > ftol and abs(fb) > ftol and abs(b - a) > 4 * math.ulp(max(abs(a), abs(b))):
        x = xn if min(a, b) < xn < max(a, b) else b - wb * fb * (b - a) / (wb * fb - wa * fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        fx, slope = f(x)
        xn = x - fx / slope if slope else math.nan
        if (fx < 0) == (fb < 0):
            b, fb, wb = x, fx, 1.0
            wa, kept = (0.5 * wa if kept == "a" else wa), "a"
        else:
            a, fa, wa = x, fx, 1.0
            wb, kept = (0.5 * wb if kept == "b" else wb), "b"
    return a if abs(fa) <= abs(fb) else b


def minimizer(
    kind: FunctionalKind,
    rho: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> TrajectoryPoint:
    """The minimizer of W1,rho or W2,rho over its fundamental domain.

    Implements the trajectory table: vertical segment below the first
    threshold, the corner i on the plateau (ties included), and past the
    plateau the unit-arc image under the Cayley map of the *other*
    functional's segment root at the reciprocal weight.  Its ``value`` is W there, read
    off the blocks the root solver ends on: W1,rho(iy) = Y/2 + rho X and W2,rho(iy) =
    ((1 + rho) A + B)/sqrt(2) on the segment, rho times the other functional's at 1/rho
    on the arc, and :func:`_w_value`'s cache at the corner.
    """
    if not rho >= 0:
        raise DomainError(f"minimizer needs rho >= 0, got {rho}")

    def segment(kind: FunctionalKind, rho: float) -> Tuple[float, float]:
        if kind is FunctionalKind.W1:
            y, (Y, X) = _branch_root(kind, 2 * rho, trunc)
            return y, Y / 2 + rho * X
        y, (B, A) = _branch_root(kind, rho, trunc)
        return y, ((1 + rho) * A + B) / math.sqrt(2.0)
    th = thresholds(trunc)
    if kind is FunctionalKind.W1:
        seg_end, arc_start, other = th.sigma1a, th.sigma1b, FunctionalKind.W2
    else:
        seg_end, arc_start, other = th.sigma2a, th.sigma2b, FunctionalKind.W1
    if rho < seg_end:
        y, w = segment(kind, rho)
        return TrajectoryPoint(rho, HalfPlanePoint(0.0, y), "segment", w)
    if rho <= arc_start:
        return TrajectoryPoint(rho, _CORNER, "corner", _w_value(kind, rho, _CORNER, trunc, math))
    y, w = segment(other, 1 / rho)
    d = y * y + 1
    return TrajectoryPoint(rho, HalfPlanePoint((y * y - 1) / d, 2 * y / d), "arc", rho * w)


# ---------------------------------------------------------------------------
# quotients and their sign scans


def quotient(kind: str, y: float, trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> float:
    """Y'/X' (kind "ZofXY") or B'/A' (kind "CofAB"), the L'Hopital value at y = 1."""
    return _quotient_jet(kind, y, trunc)[0]


def _quotient_jet(
    kind: str, y: float, trunc: SeriesTruncation, ctx: Any = math
) -> Tuple[float, float, tuple]:
    """The quotient N'/D' (N, D = Y, X or B, A), its y-derivative and the blocks (N, D), at
    every y > 0.

    N' and D' vanish at y = 1, where the generic forms lose their digits to
    rounding, so within ``_EXPANSION_RADIUS`` of 1 N' = d P(d) and D' = d R(d),
    d = y - 1, are expanded to P = N2 + N3 d/2 + N4 d^2/6 (Nk the k-th
    derivative at 1, R alike): the quotient is P/R and its derivative
    (P' R - P R')/R^2, the L'Hopital forms at d = 0, and N, D are the Taylor sums
    of the same jets.  Elsewhere all come from the order-2 jets of N and D, read off
    the same two theta_3 passes."""
    d = y - 1.0
    if abs(d) <= _EXPANSION_RADIUS:
        num, den = _xyab_jet(kind, 1.0, 4, trunc, ctx)
        (n2, n3, n4), (d2, d3, d4) = num[2:], den[2:]
        p, dp = n2 + n3 * d / 2 + n4 * d * d / 6, n3 / 2 + n4 * d / 3
        r, dr = d2 + d3 * d / 2 + d4 * d * d / 6, d3 / 2 + d4 * d / 3
        taylor = lambda f: f[0] + d * (f[1] + d * (f[2] / 2 + d * (f[3] / 6 + d * f[4] / 24)))
        return p / r, (dp * r - p * dr) / (r * r), (taylor(num), taylor(den))
    (n0, n1, n2), (d0, d1, d2) = _xyab_jet(kind, y, 2, trunc, ctx)
    return n1 / d1, (n2 * d1 - n1 * d2) / (d1 * d1), (n0, d0)


def quotient_derivative(kind: str, y: float, trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> float:
    """d/dy of the quotient N'/D' (N, D = Y, X or B, A): the second value of
    :func:`_quotient_jet`."""
    return _quotient_jet(kind, y, trunc)[1]


@dataclass(frozen=True)
class SignReport:
    """Sign pattern of a sampled function: grid, values, and sign counts."""

    ys: Tuple[float, ...]
    values: Tuple[float, ...]
    positive: int
    negative: int
    zero: int

    @property
    def all_positive(self) -> bool:
        return self.negative == 0 and self.zero == 0

    @property
    def all_negative(self) -> bool:
        return self.positive == 0 and self.zero == 0


def quotient_scan(
    kind: str,
    y_lo: float,
    y_hi: float,
    n: int,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    zero_tol: float = 1e-11,
) -> SignReport:
    """Sample the quotient's derivative on a grid and report its signs.

    The quotient has a removable critical point at y = 1; a grid point
    within 3e-5 of it is evaluated by the expansion at y = 1.
    Expected pattern: negative on (0, 1), positive on (1, infinity).
    """
    if not (0 < y_lo < y_hi):
        raise DomainError(f"need 0 < y_lo < y_hi, got ({y_lo}, {y_hi})")
    if n < 2:
        raise DomainError(f"need at least two grid points, got n = {n}")
    ys = [y_lo + (y_hi - y_lo) * i / (n - 1) for i in range(n)]
    values = [quotient_derivative(kind, y, trunc) for y in ys]
    pos = sum(1 for v in values if v > zero_tol)
    neg = sum(1 for v in values if v < -zero_tol)
    return SignReport(tuple(ys), tuple(values), positive=pos, negative=neg, zero=n - pos - neg)
