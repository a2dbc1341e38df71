"""Two-component lattice energy: interaction term, phase diagram, census.

The interaction between the two components sits in

    J(z; a, b) = sum_{(m,n) in Z^2} e^{-pi |m z - n|^2 / y} cos(2 pi (m a + n b)),

a function of the lattice shape ``z`` and the relative displacement
``(a, b)`` in lattice coordinates; the total energy of the two-component
configuration is ``E(z) = theta(1; z) + alpha J(z; a, b)``.  For the
energy-relevant displacement ``(1/2, 1/2)`` the energy collapses onto the
competing functional W1 at weight ``rho = (1 - alpha)/(2 alpha)``, which is
how :func:`optimal_lattice` reduces the phase diagram to the minimizer
trajectory: rhombic lattices for small positive ``alpha``, square in the
middle band, rectangular up to ``alpha = 1``.  The band edges are

    alpha1 = 1/(1 + 2 sigma_1b),   alpha2 = 1/(1 + 2 sigma_1a).

:func:`j_eval` and the census sum J in this one convention, through the
lattice kernel and its torus table at ``s = 1``.  ``critical_census``
enumerates the critical points of ``J(z; ., .)`` on the displacement torus
(one torus table per call: its gradient grid, sign localization and damped
Newton); the four universal points (0,0), (1/2,0), (0,1/2), (1/2,1/2) are
critical for every ``z``, and the census reports torus representatives.  J is
even, so the pairs ``(a, b)`` and ``(1-a, 1-b)`` are listed individually, and
the expected counts are four (square) and six (hexagonal, where (1/3, 1/3)
and (2/3, 2/3) join).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .functionals import FunctionalKind, _band_edges, _bracketed_root, minimizer, thresholds
from .kernels import (
    DEFAULT_TRUNCATION,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    _JACOBI_SHIFTS,
    _cached,
    _lattice_sum,
    _table_grid,
    _table_partials,
    _theta_series,
    _torus_table,
)

__all__ = [
    "Displacement",
    "UNIVERSAL_POINTS",
    "HEXAGONAL_POINT",
    "PhaseRow",
    "Alpha0Result",
    "CriticalPoint",
    "CriticalPointReport",
    "j_eval",
    "hessian_universal",
    "energy",
    "alpha_thresholds",
    "optimal_lattice",
    "phase_row",
    "solve_alpha0",
    "critical_census",
]

HEXAGONAL_POINT = HalfPlanePoint(0.5, math.sqrt(3.0) / 2.0)

_SHAPES = ("hexagonal", "rhombic", "square", "rectangular")


@dataclass(frozen=True)
class Displacement:
    """Relative displacement of the second component, canonical modulo 1."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"displacement must be finite, got ({self.a}, {self.b})")
        for name in ("a", "b"):  # x - floor(x) rounds up to 1 at tiny x < 0
            t = getattr(self, name) - math.floor(getattr(self, name))
            object.__setattr__(self, name, t if t < 1.0 else 0.0)


UNIVERSAL_POINTS = {
    "w0": Displacement(0.0, 0.0),
    "w1": Displacement(0.5, 0.0),
    "w2": Displacement(0.0, 0.5),
    "w3": Displacement(0.5, 0.5),
}


# ---------------------------------------------------------------------------
# the interaction functional


def j_eval(
    z: HalfPlanePoint,
    d: Displacement,
    da_order: int = 0,
    db_order: int = 0,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """J(z; a, b) or a partial derivative in the displacement (total order <= 2),
    certified at every point of the half-plane by the reduced lattice kernel."""
    if da_order not in (0, 1, 2) or db_order not in (0, 1, 2):
        raise DomainError("displacement derivative orders must be 0, 1 or 2")
    if da_order + db_order > 2:
        raise DomainError("total displacement derivative order must be at most 2")
    return _lattice_sum(1, z, ((d.a, d.b),), da_order + db_order, trunc, math)[0][db_order]


def hessian_universal(
    y: float,
    which: str,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """Hessian determinant of (a, b) -> J(iy; a, b) at a universal point.

    At z = iy the functional factorizes, J(iy; a, b) = theta_1d(y; a)
    theta_1d(1/y; b), and the mixed partial vanishes at the universal
    points, so the determinant is the product of the two pure second
    partials, each of the form 4 pi theta'_{3 or 4}:

        w1 = (1/2, 0):  16 pi^2 th4'(y) th3(1/y) th4(y) th3'(1/y)   (< 0)
        w2 = (0, 1/2):  16 pi^2 th3'(y) th4(1/y) th3(y) th4'(1/y)   (< 0)
        w3 = (1/2, 1/2): 16 pi^2 th4'(y) th4(1/y) th4(y) th4'(1/y)  (> 0)

    w1 and w2 are saddles, w3 is a local minimum.
    """
    if not y > 0:
        raise DomainError(f"hessian_universal needs y > 0, got {y}")
    kinds = {"w1": ("four", "three"), "w2": ("three", "four"), "w3": ("four", "four")}
    if which not in kinds:
        raise DomainError(f"unknown universal point {which!r}; expected 'w1', 'w2' or 'w3'")
    f0, f1 = _theta_series(y, *_JACOBI_SHIFTS[kinds[which][0]], 1, trunc, math)
    g0, g1 = _theta_series(1 / y, *_JACOBI_SHIFTS[kinds[which][1]], 1, trunc, math)
    return 16 * math.pi**2 * f1 * g0 * f0 * g1


def energy(
    alpha: float,
    z: HalfPlanePoint,
    d: Displacement,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """Two-component energy theta(1; z) + alpha J(z; a, b), |alpha| <= 1."""
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"coupling must lie in [-1, 1], got {alpha}")
    theta, j = _energy_terms(z, d, trunc)
    return theta + alpha * j


def _energy_terms(z: HalfPlanePoint, d: Displacement, trunc: SeriesTruncation) -> tuple:
    """theta(1; z) and J(z; a, b), the terms of :func:`energy`, from one lattice pass."""
    (theta,), (j,) = _lattice_sum(1, z, ((0, 0), (d.a, d.b)), 0, trunc, math)
    return theta, j


# ---------------------------------------------------------------------------
# phase diagram


@dataclass(frozen=True)
class PhaseRow:
    """One row of the phase diagram: coupling, optimal shape, and energy.

    ``angle_or_ratio`` carries the shape parameter: the rhombic opening
    angle (radians) on the rhombic branch, the aspect ratio on the
    rectangular branch, 1.0 for the square, and pi/3 for the hexagonal
    row of the non-positive-coupling regime.  ``energy`` is theta(1; z) +
    alpha J(z; 1/2, 1/2) = 2 alpha W1,rho(z) on the trajectory, and
    (1 + alpha) theta(1; z0) on the hexagonal row.
    """

    alpha: float
    shape: str
    z: HalfPlanePoint
    angle_or_ratio: float
    energy: float

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise DomainError(f"unknown shape {self.shape!r}")
        if not -1.0 <= self.alpha <= 1.0:
            raise DomainError(f"coupling must lie in [-1, 1], got {self.alpha}")
        tol = 1e-8
        zc = complex(self.z.x, self.z.y)
        ok = {
            "square": abs(zc - 1j) <= tol,
            "rhombic": abs(abs(zc) - 1.0) <= tol and -tol < self.z.x < 0.5 + tol,
            "rectangular": abs(self.z.x) <= tol and self.z.y > 1.0 - tol,
            "hexagonal": abs(zc - complex(0.5, math.sqrt(3.0) / 2)) <= tol,
        }[self.shape]
        if not ok:
            raise DomainError(
                f"shape {self.shape!r} is inconsistent with z = ({self.z.x}, {self.z.y})"
            )


def alpha_thresholds(trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> Tuple[float, float]:
    """(alpha1, alpha2): band edges of the square phase, from the thresholds."""
    return _band_edges(thresholds(trunc))


def optimal_lattice(
    alpha: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> PhaseRow:
    """The optimal lattice for coupling alpha in (0, 1].

    Bridges to the competing functional at rho = (1 - alpha)/(2 alpha) and
    classifies the minimizer branch: arc -> rhombic (opening angle
    arg z = arctan(2y/(y^2-1))), corner -> square, segment -> rectangular
    (aspect ratio y).  The energy is 2 alpha W1,rho(z), by the sublattice
    identity J(z; 1/2, 1/2) = 2 theta(2; (z+1)/2) - theta(1; z), with W read off
    the trajectory's axis blocks (:func:`energy` sums the lattice instead).
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"optimal_lattice needs 0 < alpha <= 1, got {alpha}")
    rho = (1 - alpha) / (2 * alpha)
    point = minimizer(FunctionalKind.W1, rho, trunc)
    z = point.z
    if point.branch == "arc":
        shape, parameter = "rhombic", math.atan2(z.y, z.x)
    elif point.branch == "corner":
        shape, parameter = "square", 1.0
    else:
        shape, parameter = "rectangular", z.y
    return PhaseRow(alpha, shape, z, parameter, 2 * alpha * point.value)


def phase_row(alpha: float, trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> PhaseRow:
    """Phase-diagram row for any alpha in [-1, 1].

    Non-positive couplings favor the coincident hexagonal configuration
    (d = (0,0), energy (1 + alpha) theta(1; z0), summed as theta(1; z0) +
    alpha J(z0; 0, 0) from two terms cached with the truncation as key:
    ``phase_row.cache_info``/``cache_clear``); positive couplings follow
    :func:`optimal_lattice`.
    """
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"coupling must lie in [-1, 1], got {alpha}")
    if alpha <= 0.0:
        t_hex, j_hex = _coincident_hexagonal(trunc)
        return PhaseRow(alpha, "hexagonal", HEXAGONAL_POINT, math.pi / 3, t_hex + alpha * j_hex)
    return optimal_lattice(alpha, trunc)


@_cached(phase_row)
def _coincident_hexagonal(trunc: SeriesTruncation) -> Tuple[float, float]:
    """theta(1; z0) and J(z0; 0, 0), the terms of :func:`energy` at the hexagonal row."""
    return _energy_terms(HEXAGONAL_POINT, UNIVERSAL_POINTS["w0"], trunc)


class Alpha0Result(NamedTuple):
    """Output of :func:`solve_alpha0`: the crossing, its angle, and the
    closed-form upper bound it must respect."""

    alpha0: float
    theta_alpha0: float
    rough_bound: float


def solve_alpha0(trunc: SeriesTruncation = DEFAULT_TRUNCATION) -> Alpha0Result:
    """Coupling below which the displaced hexagonal state beats the rhombic one
    (cached with the truncation as key: ``solve_alpha0.cache_info``/``cache_clear``).

    Solves  theta(1; z0) + alpha J(z0; 1/3, 1/3) = E_rhombic(alpha)  (the
    optimal-lattice energy at displacement (1/2, 1/2)) on [0.10, 0.24] down to
    a few ulps by :func:`~latticetheta.functionals.solve_y_branch`'s root
    finder: the gap has no slope, so it runs as plain Illinois false position.
    Also returns the first-order upper bound

        (theta(1; i) - theta(1; z0)) / (J(z0; 1/3, 1/3) - J(i; 1/2, 1/2)),

    which alpha0 may not exceed.
    """
    return _cached_alpha0(trunc)


@_cached(solve_alpha0)
def _cached_alpha0(trunc: SeriesTruncation) -> Alpha0Result:
    t_hex, j_hex = _energy_terms(HEXAGONAL_POINT, Displacement(1.0 / 3.0, 1.0 / 3.0), trunc)

    def gap(alpha: float) -> Tuple[float, None]:
        return (t_hex + alpha * j_hex) - optimal_lattice(alpha, trunc).energy, None

    lo, hi = 0.10, 0.24
    (glo, _), (ghi, _) = gap(lo), gap(hi)
    if not glo * ghi < 0:
        raise ArithmeticError(
            f"alpha0 bracket failed: gap({lo}) = {glo:.3e}, gap({hi}) = {ghi:.3e}"
        )
    alpha0 = _bracketed_root(gap, lo, glo, hi, ghi, 0.0)

    t_square, j_square = _energy_terms(HalfPlanePoint(0.0, 1.0), UNIVERSAL_POINTS["w3"], trunc)
    rough = (t_square - t_hex) / (j_hex - j_square)
    return Alpha0Result(alpha0, optimal_lattice(alpha0, trunc).angle_or_ratio, rough)


# ---------------------------------------------------------------------------
# critical-point census on the displacement torus


class CriticalPoint(NamedTuple):
    d: Displacement
    kind: str  # "min" | "max" | "saddle" | "degenerate"
    residual: float


@dataclass(frozen=True)
class CriticalPointReport:
    points: Tuple[CriticalPoint, ...]
    count: int

    def __post_init__(self) -> None:
        if self.count != len(self.points):
            raise DomainError("report count must equal the number of points")

    def find(self, a: float, b: float, tol: float = 1e-6) -> Optional[CriticalPoint]:
        """The report entry within torus distance tol of (a, b), if any."""
        return next((p for p in self.points if _torus_distance(p.d.a, p.d.b, a, b) <= tol), None)


def _torus_distance(a: float, b: float, a2: float, b2: float) -> float:
    da, db = abs(a % 1 - a2 % 1), abs(b % 1 - b2 % 1)
    return math.hypot(min(da, 1 - da), min(db, 1 - db))


def _torus_point(L: tuple, a: float, b: float) -> tuple:
    """``L (a, b)`` mod 1, exact on the binary fractions ``a``, ``b``, then rounded once (to
    1.0 at worst, which :class:`Displacement` wraps to 0)."""
    (pa, qa), (pb, qb), (l0, l1, l2, l3) = a.as_integer_ratio(), b.as_integer_ratio(), L
    q, na, nb = qa * qb, l0 * pa * qb + l1 * pb * qa, l2 * pa * qb + l3 * pb * qa
    return na % q / q, nb % q / q


def _newton(table, a, b, refine_tol):
    """Damped Newton for the displacement gradient; returns (a, b, res, ok)."""
    ga, gb, haa, hab, hbb = _table_partials(table, a, b)
    res = math.hypot(ga, gb)
    for _ in range(50):
        det = haa * hbb - hab * hab
        if res <= refine_tol or det == 0.0:
            return a, b, res, res <= refine_tol
        sa = (hbb * ga - hab * gb) / det
        sb = (haa * gb - hab * ga) / det
        for step in (0.5**k for k in range(8)):
            na, nb = a - step * sa, b - step * sb
            partials = _table_partials(table, na, nb)
            nres = math.hypot(*partials[:2])
            if nres < res:
                break
        else:
            return a, b, res, res <= refine_tol
        a, b, res, (ga, gb, haa, hab, hbb) = na % 1.0, nb % 1.0, nres, partials
    return a, b, res, res <= refine_tol


def critical_census(
    z: HalfPlanePoint,
    grid_n: int = 128,
    refine_tol: float = 1e-10,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> CriticalPointReport:
    """All critical points of (a, b) -> J(z; a, b) on the unit torus.

    Grid sign-localization of the gradient and damped Newton, on one torus
    table of J's terms (TruncationError where it leaves ``trunc.max_index``),
    run at the reduced point z' in the table's reduced displacement (a', b'), where
    J(z'; a', b') = J(z; a, b) (the identity map inside D).  There the partials
    carry no factor of the reduction, so far from the strip the residuals, merges
    and kinds below keep their digits; each point is mapped back exactly.  The four
    universal points are seeded unconditionally.  Classification is by the sign of
    the Hessian determinant (and of J_aa when it is positive); a Newton run that
    stalls above ``refine_tol`` (0 < refine_tol < inf) is reported as "degenerate"
    with its achieved residual (the gradient's norm in (a', b')).  Runs within 1e-6
    are one point, reported and classified at the run with the least residual,
    save the universal points, which stay at their exact seeds; points are
    sorted torus representatives in [0, 1)^2, with both of each pair (a, b),
    (1-a, 1-b).
    """
    if grid_n < 32:
        raise DomainError(f"census grid must have at least 32 points, got {grid_n}")
    if not 0 < refine_tol < math.inf:
        raise DomainError(f"refine_tol must be positive and finite, got {refine_tol}")
    (l0, l1, l2, l3), table = _torus_table(z, trunc)
    ga, gb = _table_grid(table, grid_n)

    seeds = [(d.a, d.b) for d in UNIVERSAL_POINTS.values()]
    for i in range(grid_n):
        i1 = (i + 1) % grid_n
        for j in range(grid_n):
            j1 = (j + 1) % grid_n
            ca = (ga[i][j], ga[i1][j], ga[i][j1], ga[i1][j1])
            cb = (gb[i][j], gb[i1][j], gb[i][j1], gb[i1][j1])
            if min(ca) < 0 < max(ca) and min(cb) < 0 < max(cb):
                seeds.append(((i + 0.5) / grid_n, (j + 0.5) / grid_n))

    runs = []  # (a, b, res, ok) of the best Newton run at each point
    for a0, b0 in seeds:
        a, b, res, ok = _newton(table, a0, b0, refine_tol)
        if not ok and res > 1e-5:  # the cell's sign change had no nearby zero
            continue
        same = [k for k, r in enumerate(runs) if _torus_distance(r[0], r[1], a, b) <= 1e-6]
        if not same:
            runs.append((a, b, res, ok))
        elif same[0] >= len(UNIVERSAL_POINTS) and res < runs[same[0]][2]:
            runs[same[0]] = (a, b, res, ok)  # runs[:4] are the universal points, exact
    points = []
    for a, b, res, ok in runs:
        _, _, haa, hab, hbb = _table_partials(table, a, b)
        det = haa * hbb - hab * hab
        if not ok or abs(det) <= 1e-10:
            kind = "degenerate"
        elif det < 0:
            kind = "saddle"
        else:
            kind = "max" if haa < 0 else "min"
        a, b = _torus_point((-l3, -l1, l2, l0), a, b)  # (a, b), by the inverse map
        points.append(CriticalPoint(Displacement(a, b), kind, res))
    points.sort(key=lambda p: (p.d.a, p.d.b))
    return CriticalPointReport(points=tuple(points), count=len(points))
