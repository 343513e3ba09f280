"""Kinetic points, scenes, the triple polynomial, and classification."""

import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlines import (
    AlgebraicTime,
    KineticPoint,
    Scene,
    SceneError,
    TripleKind,
    classify_triple,
    collinearity_polynomial,
    collision_time,
    evaluate_at_time,
    position_at,
)

from conftest import make_scene, rational_position, rationals, triples

F = Fraction


class TestSceneValidation:
    def test_duplicate_id_rejected(self):
        with pytest.raises(SceneError, match="duplicate point id 'a'"):
            make_scene(("a", (0, 0), (1, 0)), ("a", (1, 1), (0, 0)))

    def test_duplicate_motion_rejected(self):
        with pytest.raises(SceneError, match="share position and velocity"):
            make_scene(("a", (0, 0), (1, 0)), ("b", (0, 0), (1, 0)))

    @pytest.mark.parametrize("pid", ["", None, 7])
    def test_id_must_be_nonempty_string(self, pid):
        point = KineticPoint(pid, (F(0), F(0)), (F(1), F(0)))
        with pytest.raises(SceneError, match="'id' must be a non-empty string"):
            Scene((point,))

    @pytest.mark.parametrize("pid", ["a\ud800", "\udfff", "x\udc80y"])
    def test_id_must_encode_as_utf8(self, pid):
        # a lone surrogate could not be written to a listing, CSV or SVG
        with pytest.raises(SceneError, match="not encodable as UTF-8"):
            make_scene((pid, (0, 0), (1, 0)), ("b", (1, 1), (0, 0)))

    @pytest.mark.parametrize(
        "pos, vel, name",
        [
            ((0.5, 0), (1, 1), "pos[0]"),
            ((0, 0), (1, "1"), "vel[1]"),
            ((0, None), (1, 1), "pos[1]"),
            ((True, 0), (1, 1), "pos[0]"),
            ((0, 0), (1, False), "vel[1]"),
        ],
    )
    def test_coordinate_must_be_rational(self, pos, vel, name):
        # a float or a string is refused by name, as a coordinate over the
        # digit limit is, not with an AttributeError from the limit check;
        # so is a bool, though it is an int subclass
        message = re.escape(f"point 'a': {name} is not an int or a Fraction")
        with pytest.raises(SceneError, match=message):
            Scene((KineticPoint("a", pos, vel),))

    def test_lookup(self):
        scene = make_scene(("a", (0, 0), (1, 0)), ("b", (1, 1), (0, 0)))
        assert scene.point("b").pos == (F(1), F(1))
        with pytest.raises(SceneError, match="no point with id"):
            scene.point("zzz")

    def test_iteration_and_len(self):
        scene = make_scene(("a", (0, 0), (1, 0)), ("b", (1, 1), (0, 0)))
        assert len(scene) == 2
        assert [p.id for p in scene] == ["a", "b"]


class TestPositionAt:
    def test_rational_translation(self):
        p = KineticPoint.make("p", (0, 0), (1, 0))
        x, y = position_at(p, F(2))
        assert (x.as_fraction(), y.as_fraction()) == (F(2), F(0))

    def test_static_point(self):
        p = KineticPoint.make("p", (1, 1), (0, 0))
        x, y = position_at(p, AlgebraicTime.make(3, 5, 7, 2))
        assert x.as_fraction() == 1 and y.as_fraction() == 1

    def test_sqrt2_scalar_multiple(self):
        p = KineticPoint.make("p", (0, 0), (1, 1))
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        x, y = position_at(p, rt2)
        assert x == y
        assert (x.p, x.q, x.d, x.r) == (0, 1, 2, 1)

    @given(triples().map(lambda t: t[0]), rationals(10, 6))
    def test_rational_paths_agree(self, p, t):
        exact = position_at(p, AlgebraicTime.from_rational(t))
        fast = rational_position(p, t)
        assert (exact[0].as_fraction(), exact[1].as_fraction()) == fast


class TestCollinearityPolynomial:
    def test_quadratic_example(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        c = KineticPoint.make("c", (4, 0), (0, 1))
        assert collinearity_polynomial(a, b, c) == (F(1), F(0), F(-4))

    def test_linear_example(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (1, 0), (0, 0))
        c = KineticPoint.make("c", (2, 1), (0, -1))
        assert collinearity_polynomial(a, b, c) == (F(0), F(-1), F(1))

    def test_static_collinear_points_vanish(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (1, 0), (0, 0))
        c = KineticPoint.make("c", (2, 0), (0, 0))
        assert collinearity_polynomial(a, b, c) == (F(0), F(0), F(0))

    @given(triples(), st.sampled_from([F(-2), F(-1), F(0), F(1), F(3, 2)]))
    @settings(max_examples=300)
    def test_matches_static_determinant_at_samples(self, trio, t):
        a, b, c = trio
        c2, c1, c0 = collinearity_polynomial(a, b, c)
        pa, pb, pc = (rational_position(p, t) for p in trio)
        det = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        assert c2 * t * t + c1 * t + c0 == det

    @given(triples())
    @settings(max_examples=200)
    def test_swap_antisymmetry(self, trio):
        a, b, c = trio
        plain = collinearity_polynomial(a, b, c)
        swapped = collinearity_polynomial(b, a, c)
        assert swapped == tuple(-v for v in plain)


class TestClassifyTriple:
    def test_two_roots(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        c = KineticPoint.make("c", (4, 0), (0, 1))
        cls = classify_triple(a, b, c)
        assert cls.kind is TripleKind.COLLINEAR_AT
        assert [t.as_fraction() for t in cls.times] == [F(-2), F(2)]
        assert not cls.tangential

    def test_never_collinear(self):
        cls = classify_triple(
            KineticPoint.make("a", (0, 0), (0, 0)),
            KineticPoint.make("b", (1, 0), (0, 0)),
            KineticPoint.make("c", (0, 1), (0, 0)),
        )
        assert cls.kind is TripleKind.NEVER_COLLINEAR

    def test_rigid_translation_always_collinear(self):
        cls = classify_triple(
            KineticPoint.make("a", (0, 0), (1, 1)),
            KineticPoint.make("b", (1, 1), (1, 1)),
            KineticPoint.make("c", (2, 2), (1, 1)),
        )
        assert cls.kind is TripleKind.ALWAYS_COLLINEAR

    def test_tangential_double_root(self):
        # det = t^2 - 2t + 1: the triple grazes collinearity at t=1 only
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        c = KineticPoint.make("c", (-1, -2), (0, 1))
        c2, c1, c0 = collinearity_polynomial(a, b, c)
        assert (c2, c1, c0) == (F(1), F(-2), F(1))
        cls = classify_triple(a, b, c)
        assert cls.kind is TripleKind.COLLINEAR_AT
        assert cls.tangential and len(cls.times) == 1
        assert cls.times[0].as_fraction() == F(1)

    @given(triples())
    @settings(max_examples=300)
    def test_at_most_two_times_and_roots_vanish(self, trio):
        cls = classify_triple(*trio)
        assert len(cls.times) <= 2
        poly = collinearity_polynomial(*trio)
        for t in cls.times:
            sign, value = evaluate_at_time(poly, t)
            assert sign == 0 and value.is_zero()
        if len(cls.times) == 2:
            from kineticlines import compare_times

            assert compare_times(cls.times[0], cls.times[1]) == -1

    @given(triples())
    @settings(max_examples=100)
    def test_permutation_invariant(self, trio):
        reference = classify_triple(*trio)
        for perm in permutations(trio):
            cls = classify_triple(*perm)
            assert cls.kind is reference.kind
            assert cls.times == reference.times
            assert cls.tangential == reference.tangential

    def test_nonroot_probe_is_noncollinear(self):
        a = KineticPoint.make("a", (0, 0), (0, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        c = KineticPoint.make("c", (4, 0), (0, 1))
        poly = collinearity_polynomial(a, b, c)
        sign, _ = evaluate_at_time(poly, AlgebraicTime.from_rational(F(3)))
        assert sign != 0


class TestCollisionTime:
    def test_one_dimensional_chase(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (2, 0), (0, 0))
        assert collision_time(a, b) == F(2)

    def test_equal_velocity_never(self):
        a = KineticPoint.make("a", (0, 0), (1, 1))
        b = KineticPoint.make("b", (1, 0), (1, 1))
        assert collision_time(a, b) is None

    def test_inconsistent_axes_never(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (0, 1), (1, 0))
        assert collision_time(a, b) is None

    def test_identical_rejected(self):
        a = KineticPoint.make("a", (0, 0), (1, 0))
        b = KineticPoint.make("b", (0, 0), (1, 0))
        with pytest.raises(ValueError):
            collision_time(a, b)

    @given(triples())
    @settings(max_examples=200)
    def test_collision_positions_agree(self, trio):
        a, b, _ = trio
        t = collision_time(a, b)
        if t is not None:
            assert rational_position(a, t) == rational_position(b, t)

    @given(triples(), rationals(10, 6))
    @settings(max_examples=200)
    def test_no_collision_means_never_equal(self, trio, t):
        a, b, _ = trio
        if collision_time(a, b) is None:
            assert rational_position(a, t) != rational_position(b, t)
