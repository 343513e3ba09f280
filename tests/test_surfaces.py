"""Pair surfaces: construction, classification, factorization, membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlines import (
    KineticPoint,
    SurfaceKind,
    classify_surface,
    classify_triple,
    collision_time,
    position_at,
    surface_contains,
    surface_of_pair,
)

from conftest import rational_position, rationals, triples

F = Fraction

PROBE_TIMES = (F(-2), F(-1), F(0), F(1), F(5, 2))


def pairs():
    return triples().map(lambda t: (t[0], t[1]))


class TestSurfaceOfPair:
    def test_saddle_example(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        surf = surface_of_pair(a, b)
        # F = -x + y*t
        assert surf.coefficients() == (F(-1), F(0), F(0), F(1), F(0), F(0), F(0))

    def test_equal_velocity_example(self):
        a = KineticPoint.make("a", (0, 0), (1, 1))
        b = KineticPoint.make("b", (1, 0), (1, 1))
        surf = surface_of_pair(a, b)
        # F = y - t
        assert surf.coefficients() == (F(0), F(0), F(1), F(0), F(0), F(-1), F(0))

    def test_colliding_example(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (2, 0), (0, 0))
        surf = surface_of_pair(a, b)
        # F = y*(2 - t), the determinant's own sign
        assert surf.coefficients() == (F(0), F(0), F(2), F(-1), F(0), F(0), F(0))

    def test_identical_pair_rejected(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (0, 0), (1, 0))
        with pytest.raises(ValueError):
            surface_of_pair(a, b)

    @given(pairs())
    @settings(max_examples=200)
    def test_matches_the_hand_expanded_determinant(self, pair):
        # the pair surface expanded by hand over Fraction, with the free
        # point's row first, against the coefficients read off the triple
        # determinant at three parked points
        a, b = pair
        (pxa, pya), (vxa, vya) = a.pos, a.vel
        (pxb, pyb), (vxb, vyb) = b.pos, b.vel
        assert surface_of_pair(a, b).coefficients() == (
            pya - pyb,
            vya - vyb,
            pxb - pxa,
            vxb - vxa,
            pxa * pyb - pxb * pya,
            pxa * vyb + vxa * pyb - pxb * vya - vxb * pya,
            vxa * vyb - vxb * vya,
        )

    @given(pairs())
    @settings(max_examples=200)
    def test_defining_trajectories_lie_in_zero_set(self, pair):
        a, b = pair
        surf = surface_of_pair(a, b)
        for t in PROBE_TIMES:
            xa, ya = rational_position(a, t)
            xb, yb = rational_position(b, t)
            assert surface_contains(surf, xa, ya, t)
            assert surface_contains(surf, xb, yb, t)


class TestSurfaceContains:
    def test_saddle_membership(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        surf = surface_of_pair(a, b)
        assert surface_contains(surf, F(2), F(1), F(2))
        assert not surface_contains(surf, F(1), F(1), F(2))

    @given(pairs(), rationals(5, 4), st.sampled_from(PROBE_TIMES))
    @settings(max_examples=300)
    def test_segment_points_always_members(self, pair, lam, t):
        a, b = pair
        surf = surface_of_pair(a, b)
        xa, ya = rational_position(a, t)
        xb, yb = rational_position(b, t)
        x = xa + lam * (xb - xa)
        y = ya + lam * (yb - ya)
        assert surface_contains(surf, x, y, t)


def _independent_line_relation(a, b):
    """Skew/parallel/intersecting of the two spacetime trajectories, computed
    from scratch: equal time coordinates force a common parameter, so the
    lines meet iff pos_b - pos_a is a multiple s*(vel_a - vel_b) on both axes."""
    if a.vel == b.vel:
        return "parallel"
    dvx, dvy = a.vel[0] - b.vel[0], a.vel[1] - b.vel[1]
    dpx, dpy = b.pos[0] - a.pos[0], b.pos[1] - a.pos[1]
    # solve s*dv = dp exactly
    if dvx != 0:
        s = dpx / dvx
        return "intersecting" if dvy * s == dpy else "skew"
    # dvx == 0 here, so dvy != 0 and the x-equation needs dpx == 0
    return "intersecting" if dpx == 0 else "skew"


class TestClassifySurface:
    def test_equal_velocity_plane(self):
        a = KineticPoint.make("a", (0, 0), (1, 1))
        b = KineticPoint.make("b", (1, 0), (1, 1))
        cls = classify_surface(a, b)
        assert cls.kind is SurfaceKind.NON_HORIZONTAL_PLANE
        assert cls.collision_time is None
        A, B, C, D = cls.plane
        for t in PROBE_TIMES:
            for p in (a, b):
                x, y = rational_position(p, t)
                assert A * x + B * y + C * t + D == 0

    def test_colliding_pair(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (2, 0), (0, 0))
        cls = classify_surface(a, b)
        assert cls.kind is SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE
        assert cls.collision_time == F(2)
        A, B, C, D = cls.plane
        assert (A, B, C, D) == (F(0), F(-1), F(0), F(0))

    def test_skew_pair(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (0, 1), (0, 1))
        assert classify_surface(a, b).kind is SurfaceKind.HYPERBOLIC_PARABOLOID

    @given(pairs())
    @settings(max_examples=300)
    def test_agrees_with_independent_line_geometry(self, pair):
        a, b = pair
        kind = classify_surface(a, b).kind
        relation = _independent_line_relation(a, b)
        want = {
            "parallel": SurfaceKind.NON_HORIZONTAL_PLANE,
            "intersecting": SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE,
            "skew": SurfaceKind.HYPERBOLIC_PARABOLOID,
        }[relation]
        assert kind is want

    @given(pairs())
    @settings(max_examples=200)
    def test_case2_factorization(self, pair):
        a, b = pair
        cls = classify_surface(a, b)
        if cls.kind is not SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE:
            return
        surf = surface_of_pair(a, b)
        t_c = cls.collision_time
        # the horizontal sheet: F vanishes at t=t_c for every (x, y)
        assert surf.coeff_x + t_c * surf.coeff_xt == 0
        assert surf.coeff_y + t_c * surf.coeff_yt == 0
        assert surf.coeff_1 + t_c * surf.coeff_t + t_c * t_c * surf.coeff_tt == 0
        # the other sheet holds both trajectories
        A, B, C, D = cls.plane
        assert (A, B, C, D) != (0, 0, 0, 0)
        for t in PROBE_TIMES:
            for p in (a, b):
                x, y = rational_position(p, t)
                assert A * x + B * y + C * t + D == 0

    @given(pairs())
    @settings(max_examples=150)
    def test_collision_kind_matches_collision_time(self, pair):
        a, b = pair
        cls = classify_surface(a, b)
        t = collision_time(a, b)
        assert (cls.kind is SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE) == (
            t is not None
        )
        if t is not None:
            assert cls.collision_time == t


class TestThirdPointCrossings:
    @given(triples())
    @settings(max_examples=200)
    def test_triple_times_equal_surface_membership_times(self, trio):
        a, b, c = trio
        surf = surface_of_pair(a, b)
        cls = classify_triple(a, b, c)
        for t in cls.times:
            x, y = position_at(c, t)
            assert surface_contains(surf, x, y, t)
        root_fracs = {t.as_fraction() for t in cls.times if t.is_rational}
        if cls.kind.value != "always_collinear":
            for t in PROBE_TIMES:
                if t in root_fracs:
                    continue
                x, y = rational_position(c, t)
                assert not surface_contains(surf, x, y, t)
