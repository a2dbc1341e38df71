"""Independent reference values for checking the benchmark's outputs.

Nothing here imports latticetheta.  Every sum is the plain lattice double sum
over the ellipse {(m, n) : q(m, n) <= CUTOFF}, where

    q(m, n) = pi ((m x - n)^2 / y + m^2 y) = pi |m z - n|^2 / y.

The ellipse has area CUTOFF in the (m, n) plane for every z, so the cost
does not depend on the point, and each omitted term is below e^-CUTOFF.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# mpmath values at 40 digits from mpmath.jtheta and mp.diff, no package code
RHO1 = 0.040161144547762675
RHO2 = 1.1908894129268889
ALPHA1 = RHO2 / (RHO2 + 2)
ALPHA2 = 1 / (1 + 2 * RHO1)
SQRT3 = math.sqrt(3.0)

# e^-45 < 3e-20, far below every tolerance the checks use
CUTOFF = 45.0


class Sums(NamedTuple):
    """Plain sums at one point z: theta(1; z), theta(2; z) and, for the
    displacement (a, b), J and its two first partials."""

    theta1: float
    theta2: float
    j: float
    j_a: float
    j_b: float


def _lattice(x: float, y: float):
    """Yield (m, n, q) for every lattice point with q(m, n) <= CUTOFF."""
    m_max = int(math.sqrt(CUTOFF / (math.pi * y)))
    for m in range(-m_max, m_max + 1):
        half = math.sqrt(max(CUTOFF - math.pi * m * m * y, 0.0) * y / math.pi)
        center = m * x
        for n in range(math.ceil(center - half), math.floor(center + half) + 1):
            d = m * x - n
            yield m, n, math.pi * (d * d / y + m * m * y)


def sums(x: float, y: float, a: float = 0.0, b: float = 0.0) -> Sums:
    """theta(1; z), theta(2; z), J(z; a, b), dJ/da and dJ/db as plain sums.

    theta(s; z) = sum e^{-s q} and J = sum e^{-q} cos(2 pi (m a + n b)); the
    partials differentiate the cosine.  The theta(2; .) terms are e^{-2q},
    so the same ellipse covers them with room to spare.
    """
    two_pi = 2 * math.pi
    t1 = t2 = j = ja = jb = 0.0
    for m, n, q in _lattice(x, y):
        w = math.exp(-q)
        t1 += w
        t2 += w * w
        phase = two_pi * (m * a + n * b)
        s = math.sin(phase)
        j += w * math.cos(phase)
        ja -= w * two_pi * m * s
        jb -= w * two_pi * n * s
    return Sums(t1, t2, j, ja, jb)


def thetas(x: float, y: float):
    """(theta(1; z), theta(2; z)) as plain sums."""
    t1 = t2 = 0.0
    for _, _, q in _lattice(x, y):
        w = math.exp(-q)
        t1 += w
        t2 += w * w
    return t1, t2


def w_values(rho: float, x: float, y: float):
    """(W1, W2) at z: W1 = theta(2; (z+1)/2) + rho theta(1; z) and
    W2 = theta(1; (z+1)/2) + rho theta(2; z)."""
    p1, p2 = thetas(x, y)
    h1, h2 = thetas((x + 1) / 2, y / 2)
    return h2 + rho * p1, h1 + rho * p2


def close(value: float, expected: float, rtol: float, atol: float) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)
