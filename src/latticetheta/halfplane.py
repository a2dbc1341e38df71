"""Symmetry groups of the half-plane and fundamental-domain reduction.

Three groups act on the upper half-plane in this package:

* ``Gamma`` — the modular group SL(2, Z), acting by fractional-linear maps;
* ``G1`` — generated by the inversion z -> -1/z, the unit translation
  z -> z + 1 and the reflection z -> -conj(z);
* ``G2`` — the same with translation by 2 instead of 1.

A group element is a :class:`MoebiusWord`: an integer matrix (a, b; c, d) of
determinant one together with a flag saying whether the reflection
z -> -conj(z) is applied *before* the fractional-linear map.  ``reduce``
brings any point into the closure of the group's fundamental domain

    D_Gamma = {|z| > 1, -1/2 < x < 1/2}
    D_G1    = {|z| > 1,    0 < x < 1/2}
    D_G2    = {|z| > 1,    0 < x < 1}

and returns the word that performs the reduction.  ``cayley`` is the
half-plane automorphism w = (z - 1)/(z + 1) that exchanges the two
competing-functional pictures; ``on_trajectory`` classifies points against
the minimizer curve (vertical segment, corner at i, unit-circle arc).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .kernels import DomainError, HalfPlanePoint

__all__ = [
    "GroupId",
    "MoebiusWord",
    "ReductionError",
    "IDENTITY",
    "INVERSION",
    "REFLECTION",
    "TRANSLATION",
    "TRANSLATION2",
    "apply",
    "cayley",
    "cayley_inv",
    "compose",
    "on_trajectory",
    "reduce",
]

_REDUCE_MAX_STEPS = 256
_SQRT3 = math.sqrt(3.0)


class ReductionError(RuntimeError):
    """Fundamental-domain reduction failed: |z|^2 underflowed, or it did not terminate."""


class GroupId(enum.Enum):
    """Which symmetry group a reduction is performed for."""

    Gamma = "Gamma"
    G1 = "G1"
    G2 = "G2"


def _canonical_matrix(m: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    # (a,b;c,d) and (-a,-b;-c,-d) act identically; fix the sign of the
    # bottom row so that equal actions compare equal.
    a, b, c, d = m
    if c < 0 or (c == 0 and d < 0):
        return (-a, -b, -c, -d)
    return m


@dataclass(frozen=True)
class MoebiusWord:
    """An element of one of the half-plane symmetry groups.

    The action is ``z -> (a z' + b)/(c z' + d)`` where ``z' = -conj(z)`` if
    ``reflect`` is set and ``z' = z`` otherwise.  ``gens`` records the
    generator sequence that built the word (most recent first), with a run
    of translations as one power such as ``"T^-3"``; it is for debugging
    only and does not participate in equality.
    """

    matrix: Tuple[int, int, int, int] = (1, 0, 0, 1)
    reflect: bool = False
    gens: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        a, b, c, d = self.matrix
        if a * d - b * c != 1:
            raise DomainError(f"Moebius matrix must have determinant 1, got {self.matrix}")
        object.__setattr__(self, "matrix", _canonical_matrix(self.matrix))

    @property
    def is_identity(self) -> bool:
        return self.matrix == (1, 0, 0, 1) and not self.reflect

    def inverse(self) -> "MoebiusWord":
        a, b, c, d = self.matrix
        inv = (d, -b, -c, a)
        if self.reflect:
            inv = _conj_matrix(inv)
        return MoebiusWord(inv, self.reflect, tuple(f"~{g}" for g in reversed(self.gens)))


def _conj_matrix(m: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    # sigma mu sigma for sigma: z -> -conj(z); flips the signs of b and c
    a, b, c, d = m
    return (a, -b, -c, d)


IDENTITY = MoebiusWord()
INVERSION = MoebiusWord((0, -1, 1, 0), gens=("S",))
TRANSLATION = MoebiusWord((1, 1, 0, 1), gens=("T",))
TRANSLATION2 = MoebiusWord((1, 2, 0, 1), gens=("T2",))
REFLECTION = MoebiusWord((1, 0, 0, 1), True, gens=("R",))


def compose(outer: MoebiusWord, inner: MoebiusWord) -> MoebiusWord:
    """The word acting as ``z -> outer(inner(z))``."""
    a2, b2, c2, d2 = outer.matrix
    m1 = _conj_matrix(inner.matrix) if outer.reflect else inner.matrix
    a1, b1, c1, d1 = m1
    m = (
        a2 * a1 + b2 * c1,
        a2 * b1 + b2 * d1,
        c2 * a1 + d2 * c1,
        c2 * b1 + d2 * d1,
    )
    return MoebiusWord(m, outer.reflect != inner.reflect, outer.gens + inner.gens)


def apply(word: MoebiusWord, z: HalfPlanePoint) -> HalfPlanePoint:
    """Apply a group element to a half-plane point."""
    w = complex(z.x, z.y)
    if word.reflect:
        w = -w.conjugate()
    a, b, c, d = word.matrix
    w = (a * w + b) / (c * w + d)
    return HalfPlanePoint(w.real, w.imag)


def reduce(z: HalfPlanePoint, group: GroupId) -> Tuple[HalfPlanePoint, MoebiusWord]:
    """Reduce ``z`` into the closure of the group's fundamental domain.

    Gauss-style loop: translate into the period strip, reflect into the
    right half-strip (G1/G2 only), invert when |z| < 1; repeat.  Returns the
    reduced point together with the word ``w`` such that ``apply(w, z)`` is
    the reduced point.  Boundary ties on |z| = 1 resolve to x >= 0.
    """
    if not isinstance(group, GroupId):
        raise DomainError(f"unknown group {group!r}")
    step = 2 if group is GroupId.G2 else 1
    reflective = group is not GroupId.Gamma
    label = "T" if step == 1 else "T2"

    # carry the word as matrix, flag and labels (oldest first); each step
    # left-multiplies its generator as compose() would
    x, y = z.x, z.y
    a, b, c, d = 1, 0, 0, 1
    reflect, gens = False, []
    for _ in range(_REDUCE_MAX_STEPS):
        # translate into [-step/2, step/2)
        k = -step * math.floor(x / step + 0.5)
        if k:
            x += k
            a, b = a + k * c, b + k * d
            gens.append(f"{label}^{k // step}")
        if reflective and x < 0:
            x = -x
            b, c, reflect = -b, -c, not reflect
            gens.append("R")
        r2 = x * x + y * y
        if r2 >= 1.0 or not r2:
            break
        x, y = -x / r2, y / r2
        a, b, c, d = -c, -d, a, b
        gens.append("S")
    if r2 < 1.0:  # |z|^2 underflowed to 0, or the steps ran out
        raise ReductionError(f"reduction of ({z.x}, {z.y}) stopped at |z|^2 = {r2}")

    # boundary canonicalization
    if x < 0.0 and abs(x * x + y * y - 1.0) <= 4e-16:
        x = -x  # tie on the unit circle: prefer x >= 0
        a, b, c, d = -c, -d, a, b
        gens.append("S")
        if reflective:
            b, c, reflect = -b, -c, not reflect
            gens.append("R")
    if group is GroupId.Gamma and x == -0.5:
        x = 0.5
        a, b = a + c, b + d
        gens.append("T")
    word = MoebiusWord((a, b, c, d), reflect, tuple(reversed(gens))) if gens else IDENTITY
    return HalfPlanePoint(x, y), word


def cayley(z: HalfPlanePoint) -> HalfPlanePoint:
    """The automorphism w = (z - 1)/(z + 1) of the upper half-plane.

    Fixes i and carries the imaginary half-line {iy : y >= sqrt(3)} onto the
    unit-circle arc {|w| = 1, 1/2 <= Re w < 1}.
    """
    w = (complex(z.x, z.y) - 1) / (complex(z.x, z.y) + 1)
    return HalfPlanePoint(w.real, w.imag)


def cayley_inv(w: HalfPlanePoint) -> HalfPlanePoint:
    """Inverse of :func:`cayley`: z = (1 + w)/(1 - w)."""
    z = (1 + complex(w.x, w.y)) / (1 - complex(w.x, w.y))
    return HalfPlanePoint(z.real, z.imag)


def on_trajectory(z: HalfPlanePoint, tol: float = 1e-9) -> Optional[str]:
    """Classify a point against the minimizer trajectory.

    Returns ``"corner"`` for the point i, ``"segment"`` for the vertical
    piece {x = 0, 1 <= y <= sqrt(3)}, ``"arc"`` for the unit-circle piece
    {|z| = 1, 0 <= x < 1/2}, and ``None`` off the curve — all within the
    absolute tolerance ``tol``.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if abs(complex(z.x, z.y) - 1j) <= tol:
        return "corner"
    if abs(z.x) <= tol and 1.0 - tol <= z.y <= _SQRT3 + tol:
        return "segment"
    if abs(abs(z) - 1.0) <= tol and -tol <= z.x < 0.5:
        return "arc"
    return None
