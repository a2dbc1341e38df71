"""Group action, fundamental-domain reduction, Cayley map, trajectory tags."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticetheta import (
    DomainError,
    GroupId,
    HalfPlanePoint,
    MoebiusWord,
    apply,
    cayley,
    cayley_inv,
    compose,
    on_trajectory,
    reduce,
    theta2d,
)
from latticetheta.halfplane import (
    IDENTITY,
    INVERSION,
    REFLECTION,
    TRANSLATION,
    TRANSLATION2,
    ReductionError,
)

SQRT3 = math.sqrt(3.0)

points = st.builds(
    HalfPlanePoint,
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=0.05, max_value=20.0),
)

# random words over the largest generator set (G1 and G2 generators together)
words = st.lists(
    st.sampled_from([INVERSION, TRANSLATION, TRANSLATION2, REFLECTION]),
    min_size=0,
    max_size=8,
).map(lambda gs: _compose_all(gs))


def _compose_all(gens):
    w = IDENTITY
    for g in gens:
        w = compose(g, w)
    return w


def close(p: HalfPlanePoint, q: HalfPlanePoint, tol=1e-12) -> bool:
    return abs(complex(p.x, p.y) - complex(q.x, q.y)) <= tol * max(1.0, abs(q))


# ---------------------------------------------------------------------------
# MoebiusWord and apply


def test_apply_examples():
    z = HalfPlanePoint(0.3, 0.7)
    assert apply(IDENTITY, z) == z
    assert close(apply(INVERSION, HalfPlanePoint(0, 1)), HalfPlanePoint(0, 1))
    moved = apply(MoebiusWord((1, 2, 0, 1)), HalfPlanePoint(0.1, 1.0))
    assert close(moved, HalfPlanePoint(2.1, 1.0))


def test_word_requires_unit_determinant():
    with pytest.raises(DomainError):
        MoebiusWord((2, 0, 0, 1))


def test_sign_canonicalization():
    assert MoebiusWord((-1, 0, 0, -1)) == IDENTITY
    assert MoebiusWord((0, 1, -1, 0)) == INVERSION


@settings(max_examples=100)
@given(words, words, points)
def test_compose_matches_sequential_application(w2, w1, z):
    lhs = apply(compose(w2, w1), z)
    rhs = apply(w2, apply(w1, z))
    assert close(lhs, rhs, 1e-11)


@settings(max_examples=100)
@given(words, points)
def test_inverse_roundtrip(w, z):
    assert close(apply(w.inverse(), apply(w, z)), z, 1e-11)
    assert compose(w.inverse(), w).is_identity


def test_reflection_applied_first():
    # word with reflect acts as z -> mu(-conj(z)); for mu = T this is 1 - x + iy
    w = MoebiusWord((1, 1, 0, 1), reflect=True)
    got = apply(w, HalfPlanePoint(0.3, 0.9))
    assert close(got, HalfPlanePoint(0.7, 0.9))


# ---------------------------------------------------------------------------
# reduce


def test_reduce_documented_examples():
    p, w = reduce(HalfPlanePoint(2.0, 1.0), GroupId.G2)
    assert close(p, HalfPlanePoint(0.0, 1.0))
    assert w.matrix == (1, -2, 0, 1) and not w.reflect

    p, w = reduce(HalfPlanePoint(0.0, 0.5), GroupId.G1)
    assert close(p, HalfPlanePoint(0.0, 2.0))
    assert w == MoebiusWord((0, -1, 1, 0))


def _in_closure(p: HalfPlanePoint, group: GroupId, eps=1e-12) -> bool:
    if abs(p) < 1.0 - eps:
        return False
    lo, hi = {
        GroupId.Gamma: (-0.5, 0.5),
        GroupId.G1: (0.0, 0.5),
        GroupId.G2: (0.0, 1.0),
    }[group]
    return lo - eps <= p.x <= hi + eps


@settings(max_examples=150)
@given(points, st.sampled_from(list(GroupId)))
def test_reduce_lands_in_domain_and_word_maps_there(z, group):
    p, w = reduce(z, group)
    assert _in_closure(p, group)
    assert close(apply(w, z), p, 1e-9)


@settings(max_examples=40)
@given(points, st.sampled_from(list(GroupId)))
def test_reduce_preserves_theta(z, group):
    """The lattice theta is a class function of all three groups."""
    p, _ = reduce(z, group)
    assert theta2d(1, p) == pytest.approx(theta2d(1, z), rel=1e-10)


@settings(max_examples=60)
@given(points, st.sampled_from(list(GroupId)))
def test_reduce_idempotent(z, group):
    p, _ = reduce(z, group)
    q, w = reduce(p, group)
    assert close(q, p, 1e-12)
    # away from the boundary the second word must be the identity
    interior = abs(p) > 1 + 1e-9
    lo = {GroupId.Gamma: -0.5, GroupId.G1: 0.0, GroupId.G2: 0.0}[group]
    hi = {GroupId.Gamma: 0.5, GroupId.G1: 0.5, GroupId.G2: 1.0}[group]
    if interior and lo + 1e-9 < p.x < hi - 1e-9:
        assert w.is_identity


def test_reduce_circle_ties_prefer_right_half():
    for group in GroupId:
        p, _ = reduce(HalfPlanePoint(-0.3, math.sqrt(1 - 0.09)), group)
        assert p.x >= 0.0
        assert abs(abs(p) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "group,label",
    [(GroupId.Gamma, "T^-1000000"), (GroupId.G1, "T^-1000000"), (GroupId.G2, "T2^-500000")],
)
def test_reduce_records_a_translation_run_as_one_power(group, label):
    p, w = reduce(HalfPlanePoint(1e6, 1.0), group)
    assert close(p, HalfPlanePoint(0.0, 1.0))
    assert w.matrix == (1, -1_000_000, 0, 1) and not w.reflect
    assert w.gens == (label,)


@pytest.mark.parametrize("x,y", [(0.1, 1e-320), (1e-300, 1e-300)])
def test_reduce_raises_when_the_modulus_underflows(x, y):
    with pytest.raises(ReductionError, match=r"\|z\|\^2 = 0\.0"):
        reduce(HalfPlanePoint(x, y), GroupId.Gamma)


def test_reduce_rejects_bad_group():
    with pytest.raises(DomainError):
        reduce(HalfPlanePoint(0, 1), "G1")


# ---------------------------------------------------------------------------
# cayley


def test_cayley_pinned_values():
    assert close(cayley(HalfPlanePoint(0, 1)), HalfPlanePoint(0, 1))
    assert close(cayley(HalfPlanePoint(0, SQRT3)), HalfPlanePoint(0.5, SQRT3 / 2))
    assert close(cayley(HalfPlanePoint(0, 2)), HalfPlanePoint(0.6, 0.8))


@given(points)
def test_cayley_roundtrip(z):
    assert close(cayley_inv(cayley(z)), z, 1e-12)
    assert close(cayley(cayley_inv(z)), z, 1e-12)


@given(st.floats(min_value=SQRT3, max_value=50.0))
def test_cayley_maps_half_line_to_arc(y):
    w = cayley(HalfPlanePoint(0, y))
    assert abs(w) == pytest.approx(1.0, abs=1e-12)
    assert 0.5 <= w.x < 1.0


def test_cayley_arc_parametrization():
    # (y^2 - 1 + 2iy)/(y^2 + 1) is the image of iy
    for y in (1.0, 1.7, 4.0):
        w = cayley(HalfPlanePoint(0, y))
        d = y * y + 1
        assert close(w, HalfPlanePoint((y * y - 1) / d, 2 * y / d))


# ---------------------------------------------------------------------------
# on_trajectory


def test_on_trajectory_tags():
    assert on_trajectory(HalfPlanePoint(0, 1.2)) == "segment"
    assert on_trajectory(HalfPlanePoint(0, 1)) == "corner"
    assert on_trajectory(HalfPlanePoint(0.3, 1.5)) is None
    assert on_trajectory(HalfPlanePoint(0, SQRT3)) == "segment"
    assert on_trajectory(HalfPlanePoint(0, 5.0)) is None
    # the arc is the cayley image of the segment's interior: x stays below 1/2
    for y in (1.2, 1.5, 1.73):
        assert on_trajectory(cayley(HalfPlanePoint(0, y))) == "arc"
    # 0.6+0.8i = cayley(2i) is on the unit circle but past the arc's endpoint
    assert on_trajectory(HalfPlanePoint(0.6, 0.8)) is None


def test_on_trajectory_tolerance():
    z = HalfPlanePoint(1e-6, 1.4)
    assert on_trajectory(z, tol=1e-9) is None
    assert on_trajectory(z, tol=1e-5) == "segment"
    with pytest.raises(DomainError):
        on_trajectory(z, tol=0.0)
