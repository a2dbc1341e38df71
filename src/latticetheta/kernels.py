"""One- and two-dimensional theta kernels with certified truncation.

This module is the numerical foundation of the package.  It evaluates

* the Jacobi theta functions ``theta_2``, ``theta_3``, ``theta_4`` of a positive
  real argument with their derivatives up to fourth order (by the imaginary
  transformation below 1), and the one-dimensional theta function ``theta1d(X; Y)``
  (its Poisson-summed form for ``X < 1``), through one 1-D series that returns
  orders 0..k of its ``X``-derivatives in one pass, for theta_3 by parity if asked,
* the lattice theta function ``theta2d(s; z)`` for ``z`` in the upper
  half-plane and its midpoint-shifted companion ``theta2d_shifted(s; z)``,
  through one kernel for ``J(s; z; a, b) = sum e^{-s pi |m z - n|^2 / y}
  e^{2 pi i (m a + n b)}``, which is ``theta2d`` at ``a = b = 0`` and J of
  :mod:`phase_diagram` at ``s = 1``: reduce ``z`` into the fundamental domain by
  a Gauss loop on integers, carry the displacements through its matrix, and sum
  the Poisson-summed series on an ellipse certified by a closed-form Gaussian
  bound (the genus-1 case of Deconinck et al., "Computing Riemann theta
  functions", Math. Comp. 73 (2004)), one pass for all displacements; for the
  critical-point census, one certified table of J's terms serves every
  displacement and grid.  The shifted theta is the index-2 sublattice sum
  ``theta(s; (z+1)/2) = [theta(s/2; z) + J(s/2; z; 1/2, 1/2)] / 2`` from one
  pass at ``z``; each term's tail is at most the tolerance, so the half sum's is.
  The same pass gives J's z-jet (value, gradient, Hessian in z) from row moments
  up to ``d^4``, mapped back through the reduction by Wirtinger forms and certified
  by the same Gaussian bound with a degree-4 weight in ``sqrt(Q)``.

Every series is truncated only once a bound certifies the discarded tail
below the requested tolerance; ``tail_bound`` exposes the bounds themselves,
through the functions the sums use, so callers (and tests) can audit them.

All functions are pure.  ``ctx`` selects the arithmetic backend: ``math``
(binary64, the default) forms every term directly; ``mpmath.mp`` runs the same
code in software floats, with the lattice rows' terms built by recurrence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, product, repeat
from operator import mul
from typing import Any

__all__ = [
    "DomainError",
    "TruncationError",
    "HalfPlanePoint",
    "SeriesTruncation",
    "DEFAULT_TRUNCATION",
    "THETA_KINDS",
    "jacobi_theta",
    "theta1d",
    "theta2d",
    "theta2d_shifted",
    "tail_bound",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class TruncationError(ArithmeticError):
    """The tail tolerance could not be certified within ``max_index`` terms.

    The bound that *was* achieved is stored in :attr:`achieved_bound`.
    """

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point ``z = x + iy`` of the open upper half-plane.

    Parameters
    ----------
    x : float
        Horizontal coordinate of the modulus.
    y : float
        Vertical coordinate; must be strictly positive and finite.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"half-plane point must be finite, got ({self.x}, {self.y})")
        if not self.y > 0:
            raise DomainError(f"half-plane point needs y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "HalfPlanePoint":
        return HalfPlanePoint(z.real, z.imag)

    def __abs__(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation policy: cut a series once the certified tail is small.

    Attributes
    ----------
    max_index : int
        Largest summation index that may be used.
    tail_tol : float
        Absolute bound the certified tail must reach before truncation.
    """

    max_index: int = 64
    tail_tol: float = 1e-13

    def __post_init__(self) -> None:
        if not (isinstance(self.max_index, int) and self.max_index >= 1):
            raise DomainError(f"max_index must be a positive integer, got {self.max_index!r}")
        if not 0 < self.tail_tol < math.inf:
            raise DomainError(f"tail_tol must be positive and finite, got {self.tail_tol!r}")


DEFAULT_TRUNCATION = SeriesTruncation()


def _cached(public):
    """The one cache rule: cache a helper on its positional arguments plus the
    precision of any backend among them (``mpmath.mp`` is one object at every
    precision; ``math`` by identity, as a failed lookup on a module costs more than
    the hit), and give ``public`` the cache's ``cache_info``/``cache_clear``."""

    def decorate(helper):
        cached = functools.lru_cache(maxsize=16)(lambda precs, *args: helper(*args))
        public.cache_info, public.cache_clear = cached.cache_info, cached.cache_clear
        key = lambda args: tuple([None if a is math else getattr(a, "prec", None) for a in args])
        return functools.wraps(helper)(lambda *args: cached(key(args), *args))

    return decorate


THETA_KINDS = ("two", "three", "four")

#: (eps, Y) of each Jacobi kind in :func:`_theta_series`
_JACOBI_SHIFTS = {"two": (0.5, 0), "three": (0, 0), "four": (0, 0.5)}


def _series_tail(N: int, X: float, eps: float, p: int, k: int = 0) -> float:
    """Bound on the ``k``-th ``X``-derivative of what :func:`_theta_series` drops
    once it keeps ``|u| < N + 1/2``: past the first omitted ``|u| = t`` on each
    side, the terms ``pi^k u^q e^{-pi u^2 X}`` (``q = p + 2k``) shrink per step
    by at most ``r = ((t+1)/t)^q e^{-pi X (2t+1)}``, so a side sums to at most
    its first term over ``1 - r`` (+inf while ``r >= 1``).  Rounded outward:
    an exponent ``a`` is off by at most ``3 a 2^-53``, which ``e^{-a}`` turns
    into that relative error; the other roundings are below ``16 2^-50``."""
    q, bound = p + 2 * k, 0.0
    t_pos, t_neg = N + 0.5 + (0.5 + eps) % 1.0, N + 0.5 + (0.5 - eps) % 1.0
    for t in (t_pos,) if t_pos == t_neg else (t_pos, t_neg):
        a, b = math.pi * (t * t) * X, math.pi * (2 * t + 1) * X
        if not (first := math.exp(-a)):  # the side underflows, and a or b may pass every float
            continue
        ratio = ((t + 1) / t) ** q * math.exp(-b)
        if ratio >= 1.0:
            return math.inf
        slack = 1.0 + (a + 16.0 + ratio / (1.0 - ratio) * (b + 16.0)) * 2.0**-50
        bound += slack * t**q * first / (1.0 - ratio)
    return math.pi**k * (2 if t_pos == t_neg else 1) * bound


def _theta_series(
    X, eps, Y, k: int, trunc: SeriesTruncation, ctx: Any, p: int = 0, scale: float = 1.0,
    split: bool = False,
) -> list:
    """Orders 0..``k`` in ``X``, in one pass, of ``sum_{u in eps + Z} u^p e^{-pi u^2 X}
    trig(2 pi u Y)`` (``|eps| <= 1/2``, ``p`` 0 or 1, ``trig`` cos or, for
    ``p = 1``, sin, and 1 at ``Y = 0``).  N is the least index at which
    ``scale`` (the caller's prefactor) times the top order's :func:`_series_tail`
    is at most ``trunc.tail_tol``; as ``pi t^2 > 1`` at every omitted ``|u| = t``,
    it covers the lower orders.  That tail is at least ``e^{-pi t^2 X}`` at
    ``t = N + 1 - |eps|`` (twice that if mirrored), so the search starts from
    that Gaussian guess.  An even term at ``eps`` 0 or 1/2 is mirrored: one
    side is summed and doubled.  ``split`` (theta_3) returns the even and odd ``u``
    apart, theta_3(4X) and theta_2(4X): at each order all terms share one sign, so
    each part's tail is at most the whole series' bound.
    """
    Xf, e = float(X), abs(float(eps))
    mirrored = e in (0.0, 0.5) and (p == 0 or Y != 0)
    tol = float(trunc.tail_tol) / scale
    if not tol > 0:  # the prefactor passes every float
        raise TruncationError(f"1-D theta series (X={X}): prefactor {scale}", math.inf)
    guess = math.sqrt(max(math.log((1 + mirrored) / tol), 0.0) / (math.pi * Xf)) - 1 + e
    N = max(1, math.ceil(min(guess, trunc.max_index)))  # the guess may pass every float
    while (bound := _series_tail(N, Xf, float(eps), p, k)) > tol:
        if N == trunc.max_index:
            raise TruncationError(
                f"1-D theta series (X={X}, eps={eps}, Y={Y}, order {k}): tail bound "
                f"{scale * bound:.3e} > tol {trunc.tail_tol:.3e} at max_index={N}",
                achieved_bound=scale * bound,
            )
        N += 1

    if mirrored:  # u = 0 adds 1 to the value at eps = p = 0
        js, shift, weight, start = range(e == 0, N + (e == 0)), e, 2, int(e == p == 0)
    else:  # |u| < N + 1/2 with eps in (-1/2, 1/2], outward so that odd terms cancel
        js, shift, weight, start = sorted(range(-N, N + (eps < 0.5)), key=abs), eps, 1, 0
    pi, exp, trig = ctx.pi, ctx.exp, (ctx.sin if p else ctx.cos) if Y else None
    parts = [[start] + [0] * k, [0] * (k + 1)]  # by the parity of j, if split
    for j in js:
        u = shift + j
        a = -pi * (u * u)
        g = weight * u**p * exp(a * X)
        if trig:
            g *= trig(2 * pi * u * Y)
        sums = parts[split and j & 1]
        for i in range(k + 1):
            sums[i] += g
            g *= a
    return parts if split else parts[0]


#: unsigned Lah numbers L(n, k), n = 1..4, k = 1..n
_LAH = ((1,), (2, 1), (6, 6, 1), (24, 36, 12, 1))


def _reflected(h: list, alpha, y) -> list:
    """The ``y``-jet of ``h(alpha / y)`` from the jet ``h`` at ``x = alpha / y`` (orders 0..4),
    by Faa di Bruno's formula: order n is ``(-1/y)^n sum_k L(n, k) x^k h^(k)``."""
    if len(h) == 3:  # written out at order 2, the quotients' order
        x, r = alpha / y, -1 / y
        return [h[0], r * x * h[1], r * r * x * (2 * h[1] + x * h[2])]
    xs = [v * (alpha / y) ** k for k, v in enumerate(h)]
    return [h[0]] + [(-1 / y) ** n * sum(map(mul, _LAH[n - 1], xs[1:])) for n in range(1, len(h))]


def _leibniz(f: list, g: list) -> list:
    """The jet of a product from the jets of its two factors, by Leibniz's rule."""
    if len(f) == 3:  # written out at order 2, the quotients' order
        return [f[0] * g[0], f[1] * g[0] + f[0] * g[1], f[2] * g[0] + 2 * f[1] * g[1] + f[0] * g[2]]
    return [sum(math.comb(n, i) * f[i] * g[n - i] for i in range(n + 1)) for n in range(len(f))]


#: theta_kind(y) = y^{-1/2} theta_dual(1/y); d^i/dy^i y^{-1/2} = c_i y^{-1/2-i}; and the chain
#: rule's gain at order n, K_n y^{-1/2-2n} with K_n = sum_i C(n, i) |c_i| sum_k L(n - i, k)
_JACOBI_DUAL = {"two": "four", "three": "three", "four": "two"}
_ROOT_JET, _DUAL_GAIN = (1.0, -0.5, 0.75, -1.875, 6.5625), (1.0, 1.5, 4.75, 21.625, 126.5625)


def jacobi_theta(
    kind: str,
    y: float,
    order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    ctx: Any = math,
) -> float:
    """Evaluate a Jacobi theta function or a term-wise ``y``-derivative.

    Parameters
    ----------
    kind : {"two", "three", "four"}
        Which of the three classical series to evaluate::

            theta_2(y) = 2 sum_{n>=1} e^{-pi (n-1/2)^2 y}
            theta_3(y) = 1 + 2 sum_{n>=1} e^{-pi n^2 y}
            theta_4(y) = 1 + 2 sum_{n>=1} (-1)^n e^{-pi n^2 y}

        that is, ``sum_{u in eps + Z} e^{-pi u^2 y} cos(2 pi u Y)`` at ``(eps, Y)``
        = ``(1/2, 0)``, ``(0, 0)`` and ``(0, 1/2)``; at ``y < 1``, that of the
        imaginary transformation theta_kind(y) = y^{-1/2} theta_dual(1/y)
        (Whittaker and Watson, 21.51), cut with its chain rule's gain.
    y : float
        Positive argument.
    order : int
        Derivative order in ``y``, between 0 and 4; at ``y >= 1`` differentiation
        is term-wise (each term picks up a factor ``(-pi u^2)^order``).
    trunc : SeriesTruncation
        Truncation policy.
    ctx : module
        Arithmetic backend (``math`` or ``mpmath.mp``).

    Returns
    -------
    float
        The truncated sum, with certified tail at most ``trunc.tail_tol``.

    Raises
    ------
    DomainError
        If ``y <= 0``, the kind is unknown, or the order is out of range.
    TruncationError
        If the tail bound cannot be certified within ``trunc.max_index``
        (it carries ``tail_bound("jacobi", trunc.max_index, ...)``, at ``y < 1``
        that of the dual at ``1/y`` times the gain), or the gain passes every float.
    """
    if kind not in THETA_KINDS:
        raise DomainError(f"unknown theta kind {kind!r}; expected one of {THETA_KINDS}")
    if not y > 0:
        raise DomainError(f"jacobi_theta needs y > 0, got {y}")
    if order not in (0, 1, 2, 3, 4):
        raise DomainError(f"derivative order must be 0..4, got {order}")
    if y >= 1:
        return _theta_series(y, *_JACOBI_SHIFTS[kind], order, trunc, ctx)[order]
    if (0.5 + 2 * order) * ctx.log(y) < -700:  # the gain passes every float
        raise TruncationError(f"jacobi_theta (y={y}): order-{order} gain past any float", math.inf)
    gain = float(_DUAL_GAIN[order] * y ** (-0.5 - 2 * order))
    h = _theta_series(1 / y, *_JACOBI_SHIFTS[_JACOBI_DUAL[kind]], order, trunc, ctx, 0, gain)
    w = [c / ctx.sqrt(y) / y**i for i, c in enumerate(_ROOT_JET[: order + 1])]
    return _leibniz(w, _reflected(h, 1, y))[order]


def theta1d(
    X: float,
    Y: float,
    dY_order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    ctx: Any = math,
) -> float:
    """The one-dimensional theta function ``sum_n e^{-pi n^2 X} e^{2 pi i n Y}``.

    The sum is real:  ``theta1d(X; Y) = 1 + 2 sum_{n>=1} e^{-pi n^2 X}
    cos(2 pi n Y)``.  For ``X >= 1`` that series is summed, for ``X < 1`` its
    Poisson-summed form ``X^{-1/2} sum_{u in Z - Y} e^{-pi u^2 / X}``, both
    by the 1-D series of :func:`jacobi_theta`, so the effective decay rate
    is always ``max(X, 1/X)``.

    ``dY_order`` (0 or 1) selects the value or the partial derivative in
    ``Y``.  At ``X >= 1`` a ``TruncationError`` carries ``tail_bound("theta1d",
    trunc.max_index, ...)``.
    """
    if not X > 0:
        raise DomainError(f"theta1d needs X > 0, got {X}")
    if dY_order not in (0, 1):
        raise DomainError(f"dY_order must be 0 or 1, got {dY_order}")
    if X >= 1:  # d/dY turns cos(2 pi n Y) into -2 pi n sin(2 pi n Y)
        c, series = (-2 * ctx.pi) ** dY_order, (X, 0, Y)
    else:  # and e^{-pi u^2 / X} (u = n - Y) into 2 pi u / X times it
        c = (2 * ctx.pi / X) ** dY_order / ctx.sqrt(X)
        series = (1 / X, math.floor(float(Y) + 0.5) - Y, 0)
    return c * _theta_series(*series, 0, trunc, ctx, dY_order, abs(float(c)))[0]


def _reduce_point(z: HalfPlanePoint, ctx: Any):
    """``z'``, ``z`` moved into the closure of D_Gamma, and ``L = (l0, l1; l2, l3)``
    with ``J(s; z; a, b) = F(s; z'; L (a, b))`` for ``J`` of :func:`_lattice_sum` and
    ``F`` the same sum with ``m z + n`` in place of ``m z - n``.

    ``(A, B; C, D)`` is :func:`halfplane.reduce`'s Gamma matrix for ``z - k`` (``k`` the
    integer nearest ``x``), by its Gauss loop, boundary rules and sign on the integers alone
    (TruncationError, bound inf, if ``|z|^2`` or ``y'`` underflows or ``pi y'`` overflows);
    ``z'`` is formed in the backend.
    ``n -> -n`` and renumbering ``(m, n)`` by the matrix give ``L = (A, B; C, D) (1, k; 0, -1)``."""
    k = math.floor(float(z.x) + 0.5)
    xf, yf, (A, B, C, D) = float(z.x) - k, float(z.y), (1, 0, 0, 1)
    for _ in range(256):  # translate into [-1/2, 1/2), invert while |z| < 1
        xf, A, B = xf - (t := math.floor(xf + 0.5)), A - t * C, B - t * D
        if (r2 := xf * xf + yf * yf) >= 1.0 or not r2:
            break
        xf, yf, A, B, C, D = -xf / r2, yf / r2, -C, -D, A, B
    if r2 < 1.0:  # |z|^2 underflowed to 0 (or the steps ran out)
        raise TruncationError(f"reduction of z=({z.x}, {z.y}) stops at |z|^2 = {r2}", math.inf)
    if xf < 0.0 and abs(r2 - 1.0) <= 4e-16:  # a tie on the unit circle goes to x >= 0
        xf, A, B, C, D = -xf, -C, -D, A, B
    A, B = (A + C, B + D) if xf == -0.5 else (A, B)  # and x = -1/2 to +1/2
    A, B, C, D = (-A, -B, -C, -D) if (C, D) < (0, 0) else (A, B, C, D)  # halfplane's sign
    one = ctx.exp(0)  # 1 in the backend's type; x - k is exact in it
    x, y = one * z.x - k, one * z.y
    if ctx is math:  # exact numerators: A x + B and C x + D cancel when y is tiny
        p, n = x.as_integer_ratio()
        u, q = (A * p + B * n) / n, (C * p + D * n) / n
    else:
        u, q = A * x + B, C * x + D
    den = q * q + (C * y) ** 2
    if not 0 < math.pi * (yr := y / den) < math.inf:  # y' = 0: at tiny y the float loop lost z
        raise TruncationError(f"reduction of z=({z.x}, {z.y}) gives y' = {yr}", math.inf)
    return (u * q + A * C * y * y) / den, yr, (A, k * A - B, C, k * C - D)


def _lattice_tail(r2: float, s: float, x: float, y: float, order: int, L: tuple, dz=False) -> float:
    """Bound on what :func:`_lattice_sum` discards at the reduced point when it
    keeps ``Q = alpha m^2 + beta d^2 <= r2`` (``alpha = s pi y``, ``beta = pi y/s``).

    A term of an ``order`` partial is at most ``(c sqrt(Q) + c0)^order e^{-Q}``,
    ``c = 2 pi sqrt(max(1, x^2)/alpha + (y/s)^2/beta)``, ``c0 = sqrt(2 pi y/s)``.
    With ``eps = order/(2 r2)`` the factor times ``e^{-eps Q}`` peaks at
    ``Q = r2`` on ``Q > r2``, leaving Gaussians at ``(1 - eps)(alpha, beta)``.
    As ``(u + j)^2 >= u^2 + j^2``, a one-sided run past ``u`` sums to at most
    ``t e^{-u^2}``, ``t(c) = 1 + sqrt(pi/c)/2``: each of the ``2R/sqrt(alpha) + 1``
    rows with ``alpha m^2 <= r2`` drops at most ``2 t(beta') e^{-(1-eps) r2}``
    and the rows beyond ``4 t(alpha') t(beta') e^{-(1-eps) r2}``.  Scaled by
    ``sqrt(y/s)`` and the chain rule's largest gain through ``L``.

    With ``dz``, for the z-jet: a term's (x, y)-factors (``2 pi m d`` and ``(1/2 - Q)/y``,
    ``|m d| <= Q/(2 pi y)``) keep the partials of order <= 2 within ``((Q + 1)/y + 1)^2``,
    degree 4 in ``sqrt(Q)``, and the Wirtinger map back to z gains at most ``3 (1 + |g'|^2
    + |g''|)``, ``g' = e^2``, ``g'' = -2 l2 e^3``, ``e = l0 - l2 z'``."""
    if dz:
        e = abs(complex(L[0] - L[2] * x, -L[2] * y))
        order, growth = 4, 3.0 * (1.0 + e * e * e * e + 2.0 * abs(L[2]) * e * e * e)
    else:
        growth = max(abs(L[0]) + abs(L[2]), abs(L[1]) + abs(L[3])) ** order
    if r2 <= order / 2 or growth > 1.7976931348623157e308:  # or the gain passes every float
        return math.inf
    alpha, beta = s * math.pi * y, math.pi * y / s
    R, shrink = math.sqrt(r2), 1.0 - order / (2.0 * r2)
    t = lambda rate: 1.0 + 0.5 * math.sqrt(math.pi / (shrink * rate))
    try:  # a factor passes every float (** raises where * and / give inf), or a rate is 0
        c = 2.0 * math.pi * math.sqrt(max(1.0, x * x) / alpha + (y / s) ** 2 / beta)
        weight = (c * R + math.sqrt(2.0 * math.pi * y / s)) ** order
        weight = ((r2 + 1.0) / y + 1.0) ** 2 if dz else weight
        rows = 2.0 * R / math.sqrt(alpha) + 1.0 + 2.0 * t(alpha)
        scale = math.sqrt(y / s) * growth * weight * 2.0 * t(beta) * rows
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return scale * math.exp(-r2) if scale < math.inf else math.inf  # never inf * 0 (NaN)


def _least_r2(tail, r2: float, r2_cap: float, trunc: SeriesTruncation, what) -> float:
    """The least ``r2`` from ``min(r2, r2_cap)`` up with ``tail(r2) <= trunc.tail_tol``, or
    TruncationError with the bound at ``r2_cap``, the largest ellipse in the index box."""
    r2, tol = min(r2, r2_cap), float(trunc.tail_tol)
    while (bound := tail(r2)) > tol:
        if r2 >= r2_cap:
            msg = f"{what()}: tail bound {bound:.3e} > tol {tol:.3e} at max_index={trunc.max_index}"
            raise TruncationError(msg, achieved_bound=bound)
        r2 = min(r2 + math.log(bound / tol) + 0.5, r2_cap)
    return r2


def _reduced_shift(L: tuple, a, b, ctx: Any) -> tuple:
    """``L (a, b)`` less its nearest integers (ties up), exact on the binary fractions ``a``,
    ``b`` (floats or mpmath numbers), then rounded once: no row phase loses digits to ``L``."""
    (pa, qa), (pb, qb) = (a.as_integer_ratio(), b.as_integer_ratio()) if ctx is math else [
        (int(ctx.ldexp(v, k)), 1 << k) for v in map(ctx.mpf, (a, b)) for k in [max(-v.exp, 0)]]
    q, h, (l0, l1, l2, l3) = qa * qb, qa * qb // 2, L  # q a power of two
    na, nb = (l0 * pa * qb + l1 * pb * qa + h) % q - h, (l2 * pa * qb + l3 * pb * qa + h) % q - h
    return (na / q, nb / q) if ctx is math else (ctx.mpf(na) / q, ctx.mpf(nb) / q)


def _lattice_sum(
    s: float, z: HalfPlanePoint, shifts: tuple, order: int, trunc: SeriesTruncation, ctx: Any,
    dz: bool = False,
) -> list:
    """For each displacement ``(a, b)`` of ``shifts``, the partials of total ``order``
    (0..2), by ``b``-order, of

        J(s; z; a, b) = sum_{(m,n) in Z^2} e^{-s pi |m z - n|^2 / y} e^{2 pi i (m a + n b)}.

    It is ``F(s; z'; L (a, b))`` of :func:`_reduce_point` (so ``y >= sqrt(3)/2`` bounds
    the terms), whose ``n``-sum is Poisson-summed on the smallest ellipse
    :func:`_lattice_tail` certifies, and ``m < 0`` adds the conjugates of ``m > 0``:

        F(s; z; a, b) = sqrt(y/s) sum_{m, d in b + Z} e^{-s pi y m^2 - pi y d^2/s} e^{2 pi i m (a - x d)}

    One reduction, one ellipse (the bound does not read ``(a, b)``) and one row loop serve
    all displacements.  Binary64 adds each term to its row's sums in index order; another
    backend forms ``L (a, b)`` in its own precision, and the Gaussians and each row's
    phases by recurrence.  With ``dz`` (and ``order`` 2) it returns, at fixed ``(a, b)``, the
    z-jet ``(J, J_x, J_y, J_xx, J_xy, J_yy)`` instead, from the row moments up to ``d^4``.
    """
    xr, yr, L = _reduce_point(z, ctx)
    l0, l1, l2, l3 = L
    sf, xf, yf = float(s), float(xr), float(yr)
    alpha, beta = sf * math.pi * yf, math.pi * yf / sf

    # the ellipse fits the index box |m|, |d| <= max_index; the start covers
    # the bound's polynomial prefactor at most points
    r2_cap = trunc.max_index**2 * min(alpha, beta)
    start = 4.0 + 4.5 * (4 if dz else order) - math.log(float(trunc.tail_tol))
    tail = lambda r2: _lattice_tail(r2, sf, xf, yf, order, L, dz)
    r2 = _least_r2(tail, start, r2_cap, trunc, lambda: f"lattice sum (s={s}, z=({z.x}, {z.y}))")

    # Row m keeps |d| <= sqrt((r2 - alpha m^2) / beta).  A term's partials in a and b
    # carry i U and -(P + i V) (U = 2 pi m, V = U x, P = h d, h = 2 pi y/s, d/db P = h):
    # a row needs only its moments sum g d^p cos(phi), or sin(phi) where p + order is odd.
    pi, exp, cos, sin, ceil, floor = ctx.pi, ctx.exp, ctx.cos, ctx.sin, math.ceil, math.floor
    h, reach, grids = 2 * pi * yr / s, math.sqrt(r2 / beta), []
    if order == 2 and not dz and not h * h < math.inf:  # else h^2 times a 0 moment is NaN
        raise TruncationError(f"lattice sum (s={s}, z=({z.x}, {z.y})): h^2 = inf", math.inf)
    for a, b in shifts:
        ar, t = _reduced_shift(L, a, b, ctx)
        j0 = ceil(-reach - float(t))
        ds = [t + j for j in range(j0, floor(reach - float(t)) + 1)]
        if ctx is math:
            gd = [[exp(-pi * yr * d * d / s) for d in ds]]
        else:  # e^{-h (d + 1)^2 / 2} = e^{-h d^2 / 2} r, r = e^{-h (d + 1/2)}, r gains e^{-h}
            rs = accumulate(repeat(exp(-h), len(ds)), mul, initial=exp(-h * (t + j0 + 0.5)))
            gd = [list(accumulate(rs, mul, initial=exp(-h * (t + j0) ** 2 / 2)))[: len(ds)]]
        for _ in range(4 if dz else order):  # the z-jet's moments run to d^4
            gd.append([w * d for w, d in zip(gd[-1], ds)])
        grids.append((ar, t, float(t), j0, ds, gd, [0] * (6 if dz else order + 1)))  # and its sums
    q = -s * pi * yr
    for m in range(int(math.sqrt(r2 / alpha)) + 1):
        rm = math.sqrt((r2 - alpha * m * m if m else r2) / beta)  # alpha may be inf: no inf * 0
        U, V, weight = 2 * pi * m, 2 * pi * m * xr, 2 * exp(q * m * m) if m else 1
        for ar, t, tf, j0, ds, gd, acc in grids:
            lo, hi = ceil(-rm - tf) - j0, floor(rm - tf) - j0 + 1
            if not m:  # row 0 has phase 0
                M = [0.0 if (p + order) % 2 else sum(g[lo:hi]) for p, g in enumerate(gd)]
            elif ctx is not math:  # phi0 + j delta along the row: f_{j+1} = k f_j - f_{j-1}
                phi, delta = U * (ar - xr * (t + (j0 + lo))), -U * xr
                k = 2 * cos(delta)
                runs = [[f(phi), f(phi + delta)] for f in (cos, sin)[: order + 1]]
                for run, _ in product(runs, range(hi - lo - 2)):
                    run.append(k * run[-1] - run[-2])
                M = [ctx.fdot(g[lo:hi], runs[-((p + order) % 2)]) for p, g in enumerate(gd)]
            elif not order:
                c0, g0 = 0.0, gd[0]
                for j in range(lo, hi):
                    c0 += g0[j] * cos(U * (ar - xr * ds[j]))
                M = (c0,)
            else:
                phis = [U * (ar - xr * d) for d in ds[lo:hi]]
                runs = [list(map(cos, phis)), list(map(sin, phis))]
                M = [sum(map(mul, g[lo:hi], runs[(p + order) % 2])) for p, g in enumerate(gd)]
            if dz:  # F's (x, y)-partials: a term's factors -i U d and c - pi d^2/s
                c0, s1, c2, s3, c4 = M
                c, k = 0.5 / yr - s * pi * m * m, pi / s
                M = (c0, U * s1, c * c0 - k * c2, -U * U * c2, U * (c * s1 - k * s3),
                     (c * c - 0.5 / (yr * yr)) * c0 - 2 * c * k * c2 + k * k * c4)
            elif order == 1:
                M = -U * M[0], V * M[0] - h * M[1]
            elif order == 2:
                c0, s1, c2 = M
                c2 = h * h * c2 - (V * V + h) * c0 - 2 * h * V * s1
                M = -U * U * c0, U * (V * c0 + h * s1), c2
            for p, r in enumerate(M):
                acc[p] += weight * r

    # chain rule back to (a, b): d/da = l0 d/da' + l2 d/db', d/db = l1 d/da' + l3 d/db'
    # or, for the z-jet, Wirtinger forms through z' = g(z): f_z = F_w g', f_zz = F_ww g'^2 + F_w g''
    # and f_zzbar = F_wwbar |g'|^2, with g' = e^2, g'' = -2 l2 e^3, e = l0 - l2 z' (1/(C z + D))
    root, out = ctx.sqrt(yr / s), []
    for *_, acc in grids:
        G = [root * v for v in acc]
        if dz:
            (f, fx, fy, fxx, fxy, fyy), e = G, l0 - l2 * (xr + 1j * yr)
            fw, lap = (fx - 1j * fy) / 2, (fxx + fyy) / 2 * abs(e) ** 4
            fz, fzz = fw * e * e, (fxx - fyy - 2j * fxy) / 4 * e**4 - 2 * l2 * fw * e**3
            G = f, 2 * fz.real, -2 * fz.imag, 2 * fzz.real + lap, -2 * fzz.imag, lap - 2 * fzz.real
        elif order == 1:
            G = l0 * G[0] + l2 * G[1], l1 * G[0] + l3 * G[1]
        elif order == 2:
            G = (l0 * l0 * G[0] + 2 * l0 * l2 * G[1] + l2 * l2 * G[2],
                 l0 * l1 * G[0] + (l0 * l3 + l1 * l2) * G[1] + l2 * l3 * G[2],
                 l1 * l1 * G[0] + 2 * l1 * l3 * G[1] + l3 * l3 * G[2])
        out.append(tuple(G))
    return out


def _table_tail(r2: float, x: float, y: float, L: tuple) -> float:
    """Bound on any partial of order <= 2 of what :func:`_torus_table` drops at the reduced
    point, keeping ``Q = pi y m^2 + pi d^2/y <= r2`` (``d = m x + n``): the Gaussians of
    :func:`_lattice_tail` at ``s = y``, height 1, whose weight at ``x = |z|`` covers the
    frequencies (``max(|m|, |n|) <= |z| sqrt(Q/(pi y))``) and whose order 2 covers 0 and 1."""
    return math.sqrt(y) * _lattice_tail(r2, y, math.hypot(x, y), 1.0, 2, L)


def _torus_table(z: HalfPlanePoint, trunc: SeriesTruncation) -> tuple:
    """``J(1; z; a, b)`` of :func:`_lattice_sum` as ``sum w cos(ka a + kb b)`` (binary64):
    ``L`` and, row ``m >= 0`` by row, a term ``(m, n, w, ka, kb)`` for one of each pair
    ``+-(m, n)`` with ``Q = pi |m z' + n|^2 / y' <= r2`` at the reduced point: ``w = 2
    e^{-Q}`` (1 at the origin), ``(ka, kb) = 2 pi (l0 m + l2 n, l1 m + l3 n)``.  ``r2`` is the
    least :func:`_table_tail` certifies; TruncationError if it leaves ``|m|, |n| <= max_index``."""
    xr, yr, L = _reduce_point(z, math)
    alpha, beta = math.pi * yr, math.pi / yr
    r2_cap = trunc.max_index**2 * math.pi / max(1.0 / yr, yr + xr * xr / yr)
    tail, start = lambda r2: _table_tail(r2, xr, yr, L), 13.0 - math.log(float(trunc.tail_tol))
    r2 = _least_r2(tail, start, r2_cap, trunc, lambda: f"torus table (z=({z.x}, {z.y}))")
    l0, l1, l2, l3 = L
    terms = []
    for m in range(int(math.sqrt(r2 / alpha)) + 1):
        reach = math.sqrt((r2 - alpha * m * m) / beta)
        for n in range(0 if m == 0 else math.ceil(-reach - m * xr), math.floor(reach - m * xr) + 1):
            w = (2 if m or n else 1) * math.exp(-alpha * m * m - beta * (m * xr + n) ** 2)
            terms.append((m, n, w, math.tau * (l0 * m + l2 * n), math.tau * (l1 * m + l3 * n)))
    return L, terms


def _table_partials(table: tuple, a: float, b: float) -> tuple:
    """``J_a, J_b, J_aa, J_ab, J_bb`` of a :func:`_torus_table` at ``(a, b)``, in one pass."""
    (l0, l1, l2, l3), terms = table
    # the phases are formed in the reduced displacement, mod 1
    ar, br = math.tau * ((l0 * a + l1 * b) % 1.0), math.tau * ((l2 * a + l3 * b) % 1.0)
    fa = fb = faa = fab = fbb = 0.0
    for m, n, w, ka, kb in terms:
        phi = m * ar + n * br
        s, c = w * math.sin(phi), w * math.cos(phi)
        fa, fb = fa - ka * s, fb - kb * s
        faa, fab, fbb = faa - ka * ka * c, fab - ka * kb * c, fbb - kb * kb * c
    return fa, fb, faa, fab, fbb


def _table_grid(table: tuple, n: int) -> tuple:
    """``(J_a, J_b)`` of a :func:`_torus_table` at every ``(a, b) = (i/n, j/n)``, as
    ``grid[q][i][j]``: taken at ``(i', j') = L (i, j)``, whose phase ``theta + psi``
    (``theta = 2 pi m i'/n``, ``psi = 2 pi n' j'/n``) separates, and gathered back."""
    (l0, l1, l2, l3), terms = table
    roots = [complex(math.cos(t), math.sin(t)) for t in (math.tau * k / n for k in range(n))]
    rows = terms[-1][0] + 1
    thetas = [[roots[m * i % n] for m in range(rows)] for i in range(n)]  # [i'][m]
    grids = []
    for q in (3, 4):  # J_a from ka, J_b from kb
        cols = [[0j] * rows for _ in range(n)]  # [j'][m]: the row's sum of -w k e^{i psi}
        for term in terms:
            m, nr, k = term[0], term[1], -term[2] * term[q]
            for j, col in enumerate(cols):
                col[m] += k * roots[nr * j % n]
        red = [[sum(map(mul, col, t)).imag for t in thetas] for col in cols]  # [j'][i']
        grids.append([[red[(l2 * i + l3 * j) % n][(l0 * i + l1 * j) % n] for j in range(n)]
                      for i in range(n)])
    return tuple(grids)


def theta2d(
    s: float,
    z: HalfPlanePoint,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    ctx: Any = math,
) -> float:
    """Lattice theta function ``theta(s; z)`` on the unit-covolume lattice:
    ``sum_{(m,n) in Z^2} e^{-s pi |m z + n|^2 / y}``, by the reduced lattice
    kernel (the sum is invariant under SL(2, Z))."""
    if not s > 0:
        raise DomainError(f"theta2d needs s > 0, got {s}")
    return _lattice_sum(s, z, ((0, 0),), 0, trunc, ctx)[0][0]


def theta2d_shifted(
    s: float,
    z: HalfPlanePoint,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    ctx: Any = math,
) -> float:
    """``theta(s; (z+1)/2)`` — the midpoint-shifted lattice theta.

    The lattice of ``(z+1)/2``, scaled by ``sqrt 2``, is the sublattice ``m + n`` even
    of that of ``z``: ``theta(s; (z+1)/2) = [theta(s/2; z) + J(s/2; z; 1/2, 1/2)] / 2``,
    from one lattice pass at ``z``.  Each term's certified tail is at most
    ``trunc.tail_tol``, so the half sum's is too."""
    if not s > 0:
        raise DomainError(f"theta2d_shifted needs s > 0, got {s}")
    return _sublattice_pair(s / 2, z, trunc, ctx)[0]


def _sublattice_pair(s, z: HalfPlanePoint, trunc: SeriesTruncation, ctx: Any) -> tuple:
    """``theta(2s; (z+1)/2)`` and ``theta(s; z)`` from one lattice pass at ``z``."""
    (plain,), (half,) = _lattice_sum(s, z, ((0, 0), (0.5, 0.5)), 0, trunc, ctx)
    return (plain + half) / 2, plain


def tail_bound(kind: str, N: int, **params: float) -> float:
    """Certified tail bounds for the package's series, by family.

    Parameters
    ----------
    kind : {"jacobi", "theta1d", "lattice"}
        * ``jacobi`` — tail of a Jacobi series after index ``N``; parameters
          ``y`` (> 0), optional ``order`` (default 0) and ``theta_kind``
          (default "three").
        * ``theta1d`` — tail of the direct Fourier series after index ``N``;
          parameters ``X`` (> 0), optional ``dY_order``.  Both read the
          bound the 1-D series is cut by.
        * ``lattice`` — tail of the reduced lattice sum behind ``theta2d``
          and ``j_eval`` once it keeps every index up to ``N`` (the ellipse
          ``s m^2 + d^2 / s <= N^2 min(s, 1/s)``); parameters ``y`` (> 0),
          optional ``x`` (0), ``s`` (1) and the partial's ``order`` (0..2, 0).
    N : int
        Last retained index; must be >= 1.

    Returns
    -------
    float
        An upper bound on the discarded tail, monotone non-increasing in
        ``N`` (possibly ``inf`` when the geometric majorant has not kicked
        in yet).
    """
    if N < 1:
        raise DomainError("tail bounds need N >= 1")
    if kind == "jacobi":
        y, theta_kind = params["y"], params.get("theta_kind", "three")
        if not (y > 0 and theta_kind in THETA_KINDS):
            raise DomainError(f"jacobi tail bound needs y > 0 and theta_kind in {THETA_KINDS}")
        return _series_tail(N, y, _JACOBI_SHIFTS[theta_kind][0], 0, int(params.get("order", 0)))
    if kind == "theta1d":
        X, dY_order = params["X"], int(params.get("dY_order", 0))
        if not X > 0:
            raise DomainError("theta1d tail bound needs X > 0")
        return (2 * math.pi) ** dY_order * _series_tail(N, X, 0, dY_order)
    if kind == "lattice":
        s, y, order = params.get("s", 1.0), params["y"], params.get("order", 0)
        if not (s > 0 and y > 0 and order in (0, 1, 2)):
            raise DomainError("lattice bound needs s > 0, y > 0 and order 0, 1 or 2")
        xr, yr, L = _reduce_point(HalfPlanePoint(params.get("x", 0.0), y), math)
        return _lattice_tail(N * N * math.pi * yr * min(s, 1 / s), s, xr, yr, order, L)
    raise DomainError(f"unknown tail bound kind {kind!r}")
