"""Event enumeration, filters, audits, and the independent oracle."""

import importlib.util
import math
import random
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kineticlines.events
import kineticlines.exact_numbers
import kineticlines.kinematics
from kineticlines import (
    AlgebraicTime,
    CollinearityEvent,
    KineticPoint,
    Scene,
    SceneError,
    TripleKind,
    always_collinear_groups,
    audit_bounds,
    brute_force_events,
    classify_triple,
    collinearity_polynomial,
    collision_time,
    compare_times,
    count_k_collinearities,
    enumerate_events,
    events_to_json,
    evaluate_at_time,
    gen_lower_bound,
    gen_no_collinearity,
    gen_no_collinearity_distinct,
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    position_at,
    solve_quadratic,
)
from kineticlines.events import _bf_poly, _bucket_lines, _event_shapes, _line_key
from kineticlines.exact_numbers import RATIONAL_DIGIT_LIMIT
from kineticlines.kinematics import _angular_order, triple_polynomials

from conftest import (
    coords,
    degenerate_scene,
    kinetic_grid,
    make_scene,
    parameter_cube,
    serialized,
)

F = Fraction

CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


def refuse(*args, **kwargs):
    raise AssertionError("called where no call is expected")


def quadratic_pair_scene():
    """Triple with det = t^2 - 4: events at t = -2 and t = 2."""
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (0, 1), (1, 0)),
        ("c", (4, 0), (0, 1)),
    )


def collision_scene():
    """a catches b at t=2 while c watches from off the line."""
    return make_scene(
        ("a", (0, 0), (1, 0)),
        ("b", (2, 0), (0, 0)),
        ("c", (0, 1), (0, 0)),
    )


def always_group_scene():
    """Static column x=0 (permanently collinear) plus two crossing movers."""
    return make_scene(
        ("a1", (0, 0), (0, 0)),
        ("a2", (0, 1), (0, 0)),
        ("a3", (0, 2), (0, 0)),
        ("d", (1, 1), (0, -1)),
        ("e", (2, -2), (0, 1)),
    )


def tangential_scene():
    """One grazing contact at t=1 shared by four points on y=x."""
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (0, 1), (1, 0)),
        ("c", (-1, -2), (0, 1)),
        ("g", (100, 100), (0, 0)),
    )


def triple_collision_scene():
    """a, b and c meet at the origin at t=1, on the lines to d and to e."""
    return make_scene(
        ("a", (-1, 0), (1, 0)),
        ("b", (0, -1), (0, 1)),
        ("c", (-1, -1), (1, 1)),
        ("d", (5, 0), (0, 0)),
        ("e", (0, 5), (0, 0)),
    )


def all_static_collinear_scene():
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (1, 0), (0, 0)),
        ("c", (2, 0), (0, 0)),
    )


HAND_SCENES = [
    quadratic_pair_scene,
    collision_scene,
    always_group_scene,
    tangential_scene,
    triple_collision_scene,
    all_static_collinear_scene,
]


def grid_scenes(rng, count, coord):
    """count valid scenes of 4 to 7 points, each coordinate drawn by coord()."""
    made = 0
    while made < count:
        points = [
            KineticPoint.make(f"p{i}", (coord(), coord()), (coord(), coord()))
            for i in range(rng.randint(4, 7))
        ]
        try:
            scene = Scene(points)
        except SceneError:
            continue
        yield scene
        made += 1


def mixed_denominator_grid_scenes(count, seed):
    """grid_scenes with coordinates from {-2..2}/{1,2,3}."""
    rng = random.Random(seed)
    grid = range(-2, 3)
    return list(
        grid_scenes(rng, count, lambda: Fraction(rng.choice(grid), rng.choice((1, 2, 3))))
    )


class TestEnumerateEvents:
    def test_quadratic_pair(self):
        events = enumerate_events(quadratic_pair_scene())
        assert [t.as_fraction() for t in (e.time for e in events)] == [F(-2), F(2)]
        for e in events:
            assert e.k == 3 and e.members == ("a", "b", "c")
            assert not e.tangential and not e.contains_subcollision

    def test_collision_makes_degenerate_event(self):
        events = enumerate_events(collision_scene())
        assert len(events) == 1
        e = events[0]
        assert e.time.as_fraction() == F(2)
        assert e.members == ("a", "b", "c")
        assert e.contains_subcollision
        # anchors skip the coincident pair (a, b)
        assert e.anchors == ("a", "c")

    def test_always_collinear_member_set_filtered(self):
        assert enumerate_events(all_static_collinear_scene()) == []

    def test_always_group_scene_keeps_real_events(self):
        events = enumerate_events(always_group_scene())
        assert events
        for e in events:
            assert set(e.members) != {"a1", "a2", "a3"}

    def test_tangential_flag_propagates(self):
        events = enumerate_events(tangential_scene())
        by_time = {str(e.time): e for e in events}
        graze = by_time["1/1"]
        assert graze.k == 4 and graze.tangential
        later = by_time["201/1"]
        assert later.members == ("b", "c", "g") and not later.tangential

    def test_members_maximal(self):
        for build in HAND_SCENES:
            scene = build()
            for e in enumerate_events(scene):
                pa = position_at(scene.point(e.anchors[0]), e.time)
                pb = position_at(scene.point(e.anchors[1]), e.time)
                for p in scene.points:
                    px = position_at(p, e.time)
                    orient = (pb[0] - pa[0]) * (px[1] - pa[1]) - (pb[1] - pa[1]) * (
                        px[0] - pa[0]
                    )
                    assert orient.is_zero() == (p.id in e.members)

    def test_anchor_positions_distinct(self):
        for build in HAND_SCENES:
            scene = build()
            for e in enumerate_events(scene):
                pa = position_at(scene.point(e.anchors[0]), e.time)
                pb = position_at(scene.point(e.anchors[1]), e.time)
                assert pa != pb
                assert set(e.anchors) <= set(e.members)

    def test_sorted_by_time_then_members(self):
        for seed in range(5):
            events = enumerate_events(gen_random(6, seed))
            for e1, e2 in zip(events, events[1:]):
                c = compare_times(e1.time, e2.time)
                assert c == -1 or (c == 0 and e1.members < e2.members)

    def test_k_min_filter(self):
        scene = gen_lower_bound(16, 4)
        only_k4 = enumerate_events(scene, k_min=4)
        assert only_k4 and all(e.k >= 4 for e in only_k4)
        with pytest.raises(ValueError):
            enumerate_events(scene, k_min=2)
        rng = random.Random(2014)
        grid = range(-2, 3)
        scenes = [
            *(build() for build in HAND_SCENES),
            scene,
            gen_lower_bound(20, 4),
            gen_lower_bound(12, 4),
            gen_random(12, 1),
            *grid_scenes(rng, 20, lambda: rng.choice(grid)),
        ]
        for s in scenes:
            everything = enumerate_events(s)
            assert enumerate_events(s, 4) == [e for e in everything if e.k >= 4]

    def test_one_triple_irrational_buckets_find_no_lines(self, monkeypatch):
        # every bucket of the tight scenes holds one triple at an irrational
        # time, so none of them may reach _bucket_lines, on either path
        def refuse(*args):
            raise AssertionError("_bucket_lines called")

        monkeypatch.setattr(kineticlines.events, "_bucket_lines", refuse)
        assert len(enumerate_events(gen_tight(8))) == 2 * math.comb(8, 3)
        audit = audit_bounds(gen_tight(8), 3)
        assert audit.event_count == audit.event_count_3 == audit.triple_incidences == 112

    @pytest.mark.parametrize(
        "build", [lambda: gen_lower_bound(16, 4), lambda: sqrt2_scene()], ids=["lower16-4", "sqrt2"]
    )
    def test_lines_found_once_per_kept_bucket(self, build, monkeypatch):
        # each kept bucket's lines are found once for all of its times,
        # save a lone triple's at an irrational time, which needs none
        scene = build()
        buckets = kineticlines.events._buckets(scene)[0]
        calls = []
        bucket_lines = kineticlines.events._bucket_lines
        monkeypatch.setattr(
            kineticlines.events,
            "_bucket_lines",
            lambda key, roots: calls.append(key) or bucket_lines(key, roots),
        )
        for k_min in (3, 4):
            calls.clear()
            assert enumerate_events(scene, k_min)
            want = [
                key
                for key, roots in buckets.items()
                if (k_min == 3 or len(roots) > 1) and (len(key) == 2 or len(roots) > 1)
            ]
            assert want and sorted(calls) == sorted(want)

    def test_k4_sorts_no_time(self, monkeypatch):
        # at k_min >= 4 every one-triple bucket, here all of them, is
        # dropped before its time is built, reduced or sorted
        def refuse_items(module, name):
            original = getattr(module, name)

            def refusing(items):
                if items:
                    raise AssertionError(f"{name} given {len(items)} items")
                return original(items)

            monkeypatch.setattr(module, name, refusing)

        refuse_items(kineticlines.events, "time_order")
        refuse_items(kineticlines.events, "key_times")
        refuse_items(kineticlines.exact_numbers, "square_reduce_all")
        monkeypatch.setattr(kineticlines.exact_numbers, "square_reduce", refuse)
        assert enumerate_events(gen_tight(8), 4) == []

    def test_no_time_hashed(self, monkeypatch):
        # buckets are keyed by root keys and walked by time index, so the
        # event path never hashes an AlgebraicTime
        scenes = [gen_random(10, 1), gen_tight(6), gen_lower_bound(16, 4)]
        want = [enumerate_events(scene) for scene in scenes]
        monkeypatch.setattr(AlgebraicTime, "__hash__", refuse)
        assert [enumerate_events(scene) for scene in scenes] == want

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_random(10, 1), lambda: gen_tight(8), lambda: gen_lower_bound(16, 4)],
    )
    def test_times_built_canonical_with_their_bounds(self, build):
        # key_times skips the canonical check and carries the bounds that
        # time_order sorts by; both must be what the checked path gives
        times = [e.time for e in enumerate_events(build())]
        assert times
        for t in times:
            kineticlines.exact_numbers._check_canonical(t)
            lo, hi = t._bounds(64)
            assert t._bounds64() == (lo, hi)
            assert t.approx() == (lo + hi) / 2**65

    def test_each_time_bounded_once(self, monkeypatch):
        # key_times bounds each kept bucket key's times in one _intervals
        # call, both roots of a pair at once, and time_order and approx
        # (through events_to_json) read them: no _bounds call at all
        bounds, keys = [], []
        intervals = kineticlines.exact_numbers._intervals
        build = kineticlines.events.key_times
        monkeypatch.setattr(AlgebraicTime, "_bounds", refuse)
        monkeypatch.setattr(
            kineticlines.exact_numbers,
            "_intervals",
            lambda *args: bounds.append(args) or intervals(*args),
        )
        monkeypatch.setattr(
            kineticlines.events, "key_times", lambda batch: keys.extend(batch) or build(batch)
        )
        events = enumerate_events(gen_random(10, 1))
        payload = events_to_json(events)
        assert sum(item["time"]["kind"] == "quadratic" for item in payload) > 0
        assert any(len(key) == 4 for key in keys)
        assert len(bounds) == len(keys)
        # every kept bucket has an event here: a rational key one time, a
        # pair key two
        times = {e.time for e in events}
        rational = sum(t.is_rational for t in times)
        assert len(keys) == rational + (len(times) - rational) // 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_random(10, 1),
            lambda: gen_tight(8),
            lambda: gen_lower_bound(16, 4),
            lambda: sqrt2_scene(),
        ],
        ids=["random_10_1", "tight_8", "lower_bound_16_4", "sqrt2"],
    )
    def test_events_built_as_the_checked_constructor_builds_them(self, build):
        # every event must equal the one the checked constructor gives
        # from its own fields
        events = enumerate_events(build())
        assert events
        for e in events:
            checked = CollinearityEvent(
                e.time, e.members, len(e.members), e.anchors, e.tangential, e.contains_subcollision
            )
            assert e == checked and type(e) is CollinearityEvent

    @pytest.mark.parametrize("k", [2, 4])
    def test_checked_constructor_refuses_a_wrong_member_count(self, k):
        e = enumerate_events(quadratic_pair_scene())[0]
        with pytest.raises(ValueError, match="k must equal the member count"):
            CollinearityEvent(e.time, e.members, k, e.anchors, e.tangential, e.contains_subcollision)

    def test_event_json_shape(self):
        e = enumerate_events(quadratic_pair_scene())[0]
        payload = e.to_json()
        assert set(payload) == {
            "time",
            "members",
            "k",
            "anchors",
            "tangential",
            "contains_subcollision",
        }
        assert payload["members"] == ["a", "b", "c"]
        assert payload["k"] == 3

    def test_point_order_does_not_change_output(self):
        rng = random.Random(5)
        for scene in (always_group_scene(), tangential_scene(), gen_lower_bound(9, 3)):
            whole = events_to_json(enumerate_events(scene))
            shuffled = list(scene.points)
            rng.shuffle(shuffled)
            for points in (scene.points[::-1], shuffled):
                assert events_to_json(enumerate_events(Scene(points))) == whole

    def test_repeat_runs_identical(self):
        scene = gen_random(6, 17)
        assert serialized(enumerate_events(scene)) == serialized(enumerate_events(scene))


class TestPerTripleCap:
    def test_no_triple_in_more_than_two_events(self):
        for seed in range(10):
            scene = gen_random(6, seed)
            events = enumerate_events(scene)
            for trio in combinations([p.id for p in scene.points], 3):
                if classify_triple(*(scene.point(i) for i in trio)).kind is (
                    TripleKind.ALWAYS_COLLINEAR
                ):
                    continue
                holding = [e for e in events if set(trio) <= set(e.members)]
                assert len(holding) <= 2


class TestIncidenceIdentity:
    def test_two_routes_agree(self):
        scenes = [build() for build in HAND_SCENES]
        scenes += [gen_random(5, seed) for seed in range(6)]
        scenes += [gen_random(6, seed) for seed in range(3)]
        for scene in scenes:
            events = enumerate_events(scene)
            lhs = 0
            for e in events:
                for trio in combinations(e.members, 3):
                    pts = [scene.point(i) for i in trio]
                    if classify_triple(*pts).kind is TripleKind.ALWAYS_COLLINEAR:
                        continue
                    sign, _ = evaluate_at_time(collinearity_polynomial(*pts), e.time)
                    assert sign == 0
                    lhs += 1
            rhs = 0
            for pts in combinations(scene.points, 3):
                cls = classify_triple(*pts)
                if cls.kind is not TripleKind.COLLINEAR_AT:
                    continue
                ids = {p.id for p in pts}
                for t in cls.times:
                    rhs += sum(
                        1
                        for e in events
                        if compare_times(e.time, t) == 0 and ids <= set(e.members)
                    )
            assert lhs == rhs


def root_incidences(scene):
    """The triple incidences, counted from the triples alone, through the
    oracle's interpolated polynomial rather than the fan the enumerator
    expands. A root whose three points do not all coincide there is one
    member triple of exactly one event. One whose points all meet at X
    is a member triple of every event line through X: one line per
    direction from X to another point, unless its points are collinear
    at every time."""
    count = 0
    for a, b, c in combinations(scene.points, 3):
        for t in solve_quadratic(*_bf_poly(a, b, c)).roots:
            all_meet = t.is_rational and (
                collision_time(a, b) == collision_time(a, c) == t.as_fraction()
            )
            if not all_meet:
                count += 1
                continue
            now = t.as_fraction()
            at = {
                p.id: (p.pos[0] + now * p.vel[0], p.pos[1] + now * p.vel[1])
                for p in scene.points
            }
            x, y = at[a.id]
            lines = {}
            for p in scene.points:
                dx, dy = at[p.id][0] - x, at[p.id][1] - y
                if dx or dy:
                    lines.setdefault(dy / dx if dx else None, []).append(p)
            meet = [p for p in scene.points if at[p.id] == (x, y)]
            count += sum(
                any(any(_bf_poly(*trio)) for trio in combinations(meet + line, 3))
                for line in lines.values()
            )
    return count


class TestDoubleCount:
    """The paper's double count behind 2*C(n,3): every root of a triple
    whose points do not all coincide there is one member triple of exactly
    one event, and root_incidences also places the roots whose points
    meet. A missing member, a split line or a merged line breaks it, at
    sizes the oracle cannot reach."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: gen_random(40, 3), 15_703),
            (lambda: gen_lower_bound(40, 4), 4_000),
            (lambda: gen_tight(12), 440),
            (lambda: gen_lower_bound(20, 4), 500),
            (lambda: gen_lower_bound(12, 4), 388),
        ],
        ids=["random40-3", "lower_bound40-4", "tight12", "lower_bound20-4", "lower_bound12-4"],
    )
    def test_roots_equal_triple_incidences(self, build, expected):
        scene = build()
        assert root_incidences(scene) == expected
        assert audit_bounds(scene, 4).triple_incidences == expected


# (n, seed) draws of degenerate_scene: the oracle runs at n = 8, and
# bench/checks.py's check_events, which tests every non-member against
# every event line (about 0.1 s at n = 12, 0.3 s at n = 16 and 12 s at
# n = 40), up to n = 12
DEGENERATE_DRAWS = [
    *((8, seed) for seed in range(5)),
    *((12, seed) for seed in range(5, 12)),
    *((16, seed) for seed in range(12, 17)),
    (24, 17),
    (32, 18),
    (40, 19),
]


def member_incidences(scene, events):
    """The events' member triples that are not collinear at every time,
    read from the oracle's interpolated polynomials."""
    return sum(
        any(_bf_poly(*(scene.point(m) for m in trio)))
        for e in events
        for trio in combinations(e.members, 3)
    )


class TestDegenerateScenes:
    """Seeded scenes that plant lines at rational and irrational times,
    collisions, always-collinear groups, grazes, equal velocities and
    coordinates near the digit limit, checked past the oracle's cap by
    the double count, an affine map and bench/checks.py."""

    @pytest.mark.parametrize("n, seed", DEGENERATE_DRAWS)
    def test_checks_agree(self, n, seed):
        scene = degenerate_scene(n, seed)
        events = enumerate_events(scene)
        if n <= 8:
            assert_oracle_agrees(scene)
        if n <= 12:
            assert_bench_checks_pass(scene)
        incidences = root_incidences(scene)
        assert audit_bounds(scene, 4).triple_incidences == incidences
        assert member_incidences(scene, events) == incidences
        # an invertible affine map keeps every line and every meeting
        mapped = moved(
            scene,
            lambda p: (F(2, 3) * p.pos[0] - F(1, 5) * p.pos[1] + 4, p.pos[0] + F(3, 2) * p.pos[1]),
            lambda p: (F(2, 3) * p.vel[0] - F(1, 5) * p.vel[1], p.vel[0] + F(3, 2) * p.vel[1]),
        )
        assert serialized(enumerate_events(mapped)) == serialized(events)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_case_is_planted(self, seed):
        scene = degenerate_scene(40, seed)
        events = enumerate_events(scene)
        assert len(always_collinear_groups(scene)) >= 2
        assert any(e.tangential for e in events)
        assert any(e.contains_subcollision for e in events)
        assert any(e.time.is_rational and e.k >= 4 for e in events)
        assert any(not e.time.is_rational and e.k >= 4 for e in events)
        assert len({p.vel for p in scene.points}) < len(scene)
        digits = RATIONAL_DIGIT_LIMIT - 8
        assert any(len(str(c.denominator)) >= digits for p in scene.points for c in p.pos)


class TestOneClassification:
    def test_triple_polynomials_called_once_per_pass(self, monkeypatch):
        # the pipeline looks the fan generator up at this module attribute
        # at call time, once per pass
        scene = gen_lower_bound(16, 4)
        calls = []
        original = kineticlines.events.triple_polynomials

        def counting(points, **options):
            calls.append(points)
            return original(points, **options)

        monkeypatch.setattr(kineticlines.events, "triple_polynomials", counting)
        for run in (lambda: audit_bounds(scene, 4), lambda: enumerate_events(scene)):
            calls.clear()
            run()
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "scene",
        [
            gen_lower_bound(16, 4),
            gen_random(12, 1),
            *mixed_denominator_grid_scenes(4, 2013),
            *(build() for build in HAND_SCENES),
        ],
        ids=[
            "lower_bound16-4",
            "random12-1",
            "grid0",
            "grid1",
            "grid2",
            "grid3",
            *(build.__name__ for build in HAND_SCENES),
        ],
    )
    def test_fan_polynomials_match_classify_triple(self, scene):
        # each fan polynomial is D_a**2*D_b*D_c times the rational
        # determinant, here interpolated from its values at t = -1, 0, 1,
        # and its solve_quadratic report classifies the triple
        def det(a, b, c, t):
            (ax, ay), (bx, by), (cx, cy) = (
                (p.pos[0] + t * p.vel[0], p.pos[1] + t * p.vel[1]) for p in (a, b, c)
            )
            return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

        fan = list(triple_polynomials(scene.points))
        assert [trio for *trio, _, _, _ in fan] == [
            list(trio) for trio in combinations(scene.points, 3)
        ]
        for a, b, c, c2, c1, c0 in fan:
            f_minus, f_zero, f_plus = (det(a, b, c, t) for t in (-1, 0, 1))
            rational = ((f_plus + f_minus) / 2 - f_zero, (f_plus - f_minus) / 2, f_zero)
            assert collinearity_polynomial(a, b, c) == rational
            scale = a.homogeneous[4] ** 2 * b.homogeneous[4] * c.homogeneous[4]
            assert (c2, c1, c0) == tuple(scale * coeff for coeff in rational)
            report = solve_quadratic(c2, c1, c0)
            cls = classify_triple(a, b, c)
            assert report.roots == cls.times
            assert report.double_root == cls.tangential
            assert report.identically_zero == (cls.kind is TripleKind.ALWAYS_COLLINEAR)
            if c1 * c1 - 4 * c2 * c0 < 0:
                assert cls.kind is TripleKind.NEVER_COLLINEAR


class TestCountAndGroups:
    def test_count_matches_enumeration(self):
        scene = gen_lower_bound(16, 4)
        assert count_k_collinearities(scene, 3) == 124
        assert count_k_collinearities(scene, 4) == 44
        assert count_k_collinearities(scene, 5) == 0

    def test_count_k_validated(self):
        with pytest.raises(ValueError):
            count_k_collinearities(quadratic_pair_scene(), 2)

    def test_static_column_group(self):
        scene = make_scene(
            ("a", (0, 0), (0, 0)),
            ("b", (1, 0), (0, 0)),
            ("c", (2, 0), (0, 0)),
            ("d", (0, 1), (0, 0)),
        )
        assert always_collinear_groups(scene) == [("a", "b", "c")]

    def test_two_line_groups(self):
        groups = always_collinear_groups(gen_lower_bound(16, 4))
        assert len(groups) == 2
        assert [len(g) for g in groups] == [8, 8]
        assert all(pid.startswith("a") for pid in groups[0])
        assert all(pid.startswith("b") for pid in groups[1])

    def test_generic_scene_has_no_groups(self):
        for seed in range(5):
            assert always_collinear_groups(gen_random(6, seed)) == []


class TestAuditBounds:
    def test_tight_scene_saturates_bound(self):
        audit = audit_bounds(gen_tight(6), 3)
        assert audit.event_count == 40
        assert audit.bound_3 == 40
        assert audit.passed

    def test_empty_scene_passes(self):
        audit = audit_bounds(gen_no_collinearity(6), 3)
        assert audit.event_count == 0 and audit.passed

    def test_bound_k_skipped_with_always_groups(self):
        audit = audit_bounds(gen_lower_bound(16, 4), 4)
        assert not audit.no_three_always_collinear
        assert audit.passed
        assert audit.event_count == 44
        assert audit.event_count_3 == 124

    def test_no_event_built(self, monkeypatch):
        # audit_bounds counts lines: it builds no event, no time, no
        # radicand reduction and no sort
        scenes = [gen_lower_bound(16, 4), gen_tight(8), *(build() for build in HAND_SCENES)]
        want = [[audit_bounds(s, k) for k in (3, 4)] for s in scenes]
        for name in ("CollinearityEvent", "key_times", "time_order"):
            monkeypatch.setattr(kineticlines.events, name, refuse)
        for name in ("square_reduce", "square_reduce_all"):
            monkeypatch.setattr(kineticlines.exact_numbers, name, refuse)
        monkeypatch.setattr(AlgebraicTime, "make", refuse)
        assert [[audit_bounds(s, k) for k in (3, 4)] for s in scenes] == want

    def test_lone_triple_collision_is_no_line(self):
        # a, b and c meet at the origin at t = 1, the one root triple of
        # its bucket; any fourth point would add a root triple there
        scene = make_scene(
            ("a", (-1, 0), (1, 0)), ("b", (0, -1), (0, 1)), ("c", (-1, -1), (1, 1))
        )
        assert enumerate_events(scene) == brute_force_events(scene) == []
        audit = audit_bounds(scene, 3)
        assert audit.event_count_3 == audit.triple_incidences == 0

    def test_lone_double_root_triple_is_one_line(self):
        # the triple polynomial is (t - 1)**2: at t = 1 a and c meet while
        # b does not, so the one root triple of its bucket is a double root
        # and still one line, tangential with a sub-collision
        scene = make_scene(("a", (0, 0), (0, 0)), ("b", (1, -1), (0, 1)), ("c", (1, 0), (-1, 0)))
        events = enumerate_events(scene)
        assert events == brute_force_events(scene)
        assert [(e.members, e.anchors, e.tangential, e.contains_subcollision) for e in events] == [
            (("a", "b", "c"), ("a", "b"), True, True)
        ]
        audit = audit_bounds(scene, 3)
        assert audit.event_count_3 == audit.triple_incidences == 1

    def test_no_square_reduce_call(self, monkeypatch):
        # the traced run counts calls at this module attribute
        scenes = [*(gen_random(12, seed) for seed in range(4)), gen_lower_bound(16, 4)]
        calls = []
        original = kineticlines.exact_numbers.square_reduce

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(kineticlines.exact_numbers, "square_reduce", counting)
        for s in scenes:
            audit_bounds(s, 3)
        assert calls == []
        enumerate_events(scenes[0])
        # make builds its irrational value through key_times, which reduces
        # with square_reduce_all alone
        assert AlgebraicTime.make(1, 1, 2, 1) == kineticlines.exact_numbers.key_times(
            [(1, 1, 2, 1)]
        )[1]
        assert calls == []

    def test_json_shape(self):
        payload = audit_bounds(quadratic_pair_scene(), 3).to_json()
        assert payload["pass"] is True
        assert payload["n"] == 3 and payload["k"] == 3
        assert payload["bound_3"] == 2 * math.comb(3, 3)
        assert {"event_count", "event_count_3", "triple_incidences"} <= set(payload)


def assert_oracle_agrees(scene):
    """enumerate_events matches the oracle, and audit_bounds counts the
    oracle's events and their member triples that are not always
    collinear, read from the oracle's own interpolated polynomials."""
    oracle = brute_force_events(scene)
    where = [(p.id, p.pos, p.vel) for p in scene.points]
    assert serialized(enumerate_events(scene)) == serialized(oracle), where
    audit = audit_bounds(scene, 3)
    assert audit.event_count_3 == len(oracle), where
    k4 = sum(e.k >= 4 for e in oracle)
    assert audit_bounds(scene, 4).event_count == count_k_collinearities(scene, 4) == k4, where
    assert audit.triple_incidences == member_incidences(scene, oracle), where


def assert_bench_checks_pass(scene):
    """bench/checks.py's check_events, loaded by path, passes the listing:
    it recomputes every field and the order with cofactor determinants
    and Fraction surds, apart from the library and with no size cap."""
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    checks.check_events(checks.SceneModel(scene), enumerate_events(scene))


class TestBruteForceOracle:
    def test_cap_enforced(self):
        scene = gen_random(9, 1)
        with pytest.raises(ValueError, match="cap"):
            brute_force_events(scene)
        assert brute_force_events(scene, max_points=9) is not None

    def test_hand_scenes_agree(self):
        for build in HAND_SCENES:
            assert_oracle_agrees(build())

    def test_time_candidates_restrict(self):
        scene = gen_lower_bound(16, 4)
        at_zero = brute_force_events(scene, time_candidates=[0], max_points=16)
        assert len(at_zero) == 16
        assert all(e.time.as_fraction() == 0 and e.k == 4 for e in at_zero)
        # points listed against id order: the 16 events at one time come
        # out in member order only through the tie-break of the sort
        backwards = Scene(scene.points[::-1], scene.meta)
        assert serialized(
            brute_force_events(backwards, time_candidates=[0], max_points=16)
        ) == serialized([e for e in enumerate_events(backwards) if e.time.as_fraction() == 0])

    def test_time_candidates_canonicalised(self):
        # the triple polynomial is t^2 - 12; sqrt(12) and 2*sqrt(3) are
        # one candidate time under two spellings, so one event
        scene = make_scene(
            ("a", (0, 0), (0, 0)),
            ("b", (1, 0), (0, 1)),
            ("c", (0, -12), (-1, 0)),
        )
        candidates = [AlgebraicTime(0, 1, 12, 1), AlgebraicTime.make(0, 2, 3, 1)]
        events = brute_force_events(scene, time_candidates=candidates)
        assert serialized(events) == serialized(enumerate_events(scene)[1:])
        assert (events[0].time.q, events[0].time.d) == (2, 3)

    def test_degenerate_grid_scenes_agree(self):
        # coordinates from {-2..2} force collisions at event times, shared
        # velocities and always-collinear groups crossed by a mover
        rng = random.Random(2011)
        grid = range(-2, 3)
        for scene in grid_scenes(rng, 60, lambda: rng.choice(grid)):
            assert_oracle_agrees(scene)

    def test_mixed_denominator_grid_scenes_agree(self):
        # coordinates from {-2..2}/{1,2,3}: the points of one time bucket
        # have different homogeneous denominators, so their positions meet
        # only over the bucket's common denominator
        for scene in mixed_denominator_grid_scenes(30, 2012):
            assert_oracle_agrees(scene)

    def test_quadratic_times_agree(self):
        # events at irrational times must match across both implementations
        scene = make_scene(
            ("a", (0, 0), (0, 0)),
            ("b", (0, 1), (1, 0)),
            ("c", (4, 0), (0, 1)),
            ("d", (1, 3), (2, -1)),
        )
        assert serialized(brute_force_events(scene)) == serialized(
            enumerate_events(scene)
        )


def meeting_scene():
    """a, b, c and d meet at (1, 1) at t=2, where the lines to e, to f and
    h, and to g cross: the four coincident triples lie on three events."""
    return make_scene(
        ("a", (-1, 1), (1, 0)),
        ("b", (1, -1), (0, 1)),
        ("c", (-1, -1), (1, 1)),
        ("d", (3, 3), (-1, -1)),
        ("e", (5, 1), (0, 0)),
        ("f", (1, 5), (0, 0)),
        ("g", (4, 4), (0, 0)),
        ("h", (3, 7), (-1, -2)),
    )


def anchor_collision_scene():
    """The two smallest ids, a and b, meet at (2, 0) at t=2, on the line
    y=0 with c and d."""
    return make_scene(
        ("a", (0, 0), (1, 0)),
        ("b", (2, 0), (0, 0)),
        ("c", (4, 2), (0, -1)),
        ("d", (-1, -4), (0, 2)),
        ("e", (3, 5), (1, 1)),
    )


def crossed_column_scene():
    """d and e meet at (0, 3) at t=1, on the static column x=0, which is
    collinear at every time; the lines from there to f and to g cross
    it."""
    return make_scene(
        ("a1", (0, 0), (0, 0)),
        ("a2", (0, 1), (0, 0)),
        ("a3", (0, 2), (0, 0)),
        ("d", (-1, 3), (1, 0)),
        ("e", (1, 4), (-1, -1)),
        ("f", (2, 1), (0, 1)),
        ("g", (-3, 0), (1, 1)),
    )


def rational_events(scene, t):
    return [e for e in enumerate_events(scene) if e.time == AlgebraicTime.from_rational(t)]


class TestLineKeyBuckets:
    """A rational bucket groups its root triples by _line_key."""

    def test_one_line_one_key(self):
        # y = 2x + 1, through negative coordinates
        line = [(0, 1), (1, 3), (-2, -3), (3, 7), (-5, -9)]
        keys = {_line_key(p, q) for p, q in combinations(line, 2)}
        keys |= {_line_key(q, p) for p, q in combinations(line, 2)}
        assert keys == {(1, 2, 1)}
        for p, q in combinations(line, 2):
            dx, dy, c = _line_key(p, q)
            assert all(dx * y - dy * x == c for x, y in line)

    def test_parallel_and_reversed_lines(self):
        assert _line_key((0, 1), (1, 3)) != _line_key((0, 3), (1, 5))
        assert _line_key((0, 0), (-2, -4)) == _line_key((3, 6), (1, 2)) == (1, 2, 0)
        assert _line_key((0, 0), (2, -4)) == (1, -2, 0) != _line_key((0, 0), (2, 4))

    def test_vertical_and_horizontal(self):
        assert _line_key((-4, 5), (-4, -1)) == _line_key((-4, -7), (-4, 0)) == (0, 1, 4)
        assert _line_key((-4, 5), (-4, -1)) != _line_key((4, 5), (4, -1))
        assert _line_key((6, -3), (-2, -3)) == _line_key((-9, -3), (0, -3)) == (1, 0, -3)
        assert _line_key((6, -3), (-2, -3)) != _line_key((6, 3), (-2, 3))

    def test_orders_and_pairs_meet_in_one_event(self):
        # static points on y = 2x + 1 at t = 0; e sits on a, so the triple
        # (e, a, b) reaches the line through its second distinct pair, and
        # (f, g, h) lies on the parallel y = 2x + 3
        scene = make_scene(
            ("a", (0, 1), (0, 0)),
            ("b", (1, 3), (0, 0)),
            ("c", (-2, -3), (0, 0)),
            ("d", (3, 7), (0, 0)),
            ("e", (0, 1), (1, 0)),
            ("f", (0, 3), (0, 0)),
            ("g", (1, 5), (0, 0)),
            ("h", (-1, 1), (0, 0)),
        )
        p = scene.point
        trios = ["abc", "cba", "dca", "eab", "bde", "fgh", "hgf"]
        roots = [(p(u), p(v), p(w), False) for u, v, w in trios]
        lines, positions = _bucket_lines((0, 1), roots)
        shapes = _event_shapes((lines, positions), 3)
        assert [(members, anchors, sub) for members, anchors, _, sub in shapes] == [
            (("a", "b", "c", "d", "e"), ("a", "b"), True),
            (("f", "g", "h"), ("f", "g"), False),
        ]
        assert sum(incidences for _, _, incidences in lines) == len(trios)

    def test_coincident_triples_on_every_line_through_their_point(self):
        scene = meeting_scene()
        at_two = rational_events(scene, 2)
        assert [e.members for e in at_two] == [
            ("a", "b", "c", "d", "e"),
            ("a", "b", "c", "d", "f", "h"),
            ("a", "b", "c", "d", "g"),
        ]
        assert all(e.contains_subcollision for e in at_two)
        assert_oracle_agrees(scene)

    def test_collision_of_the_two_smallest_members(self):
        scene = anchor_collision_scene()
        (e,) = [e for e in rational_events(scene, 2) if e.k == 4]
        assert e.members == ("a", "b", "c", "d") and e.anchors == ("a", "c")
        # (a, b, c) grazes y=0 as (2 - t)**2, so the event is tangential too
        assert e.contains_subcollision and e.tangential
        assert_oracle_agrees(scene)

    def test_always_collinear_column_crossed_at_a_collision(self):
        scene = crossed_column_scene()
        assert always_collinear_groups(scene) == [("a1", "a2", "a3")]
        assert [e.members for e in rational_events(scene, 1)] == [
            ("a1", "a2", "a3", "d", "e"),
            ("d", "e", "f"),
            ("d", "e", "g"),
        ]
        assert_oracle_agrees(scene)

    def test_seeded_unit_grid_scenes_agree(self):
        # coordinates from {-1, 0, 1}: collisions at event times are common,
        # and a seed that puts three points on two event lines is kept
        rng = random.Random(2)
        met = 0
        for scene in grid_scenes(rng, 20, lambda: rng.choice((-1, 0, 1))):
            assert_oracle_agrees(scene)
            events = enumerate_events(scene)
            for t in {e.time for e in events if not e.time.q}:
                at = {p.id: position_at(p, t) for p in scene.points}
                for spot in set(at.values()):
                    meet = {pid for pid, q in at.items() if q == spot}
                    lines = [e for e in events if e.time == t and meet <= set(e.members)]
                    met += len(meet) >= 3 and len(lines) >= 2
        assert met


class TestSampledRootOracle:
    @pytest.mark.parametrize(
        "build",
        [lambda: gen_lower_bound(16, 4), lambda: gen_lower_bound(12, 4), lambda: gen_random(20, 1)],
        ids=["lower_bound_16_4", "lower_bound_12_4", "random_20"],
    )
    def test_sampled_root_times_agree(self, build):
        # times are drawn from every triple root, not from the events, so a
        # time the enumerator drops whole is checked too, at n past the
        # oracle's default cap
        scene = build()
        roots = list(
            dict.fromkeys(
                t for trio in combinations(scene.points, 3) for t in classify_triple(*trio).times
            )
        )
        sample = random.Random(2011).sample(roots, min(10, len(roots)))
        want = [e for e in enumerate_events(scene) if e.time in sample]
        got = brute_force_events(scene, time_candidates=sample, max_points=len(scene))
        assert serialized(got) == serialized(want)


def cube_event_counts(m, ks):
    """The number of events of parameter_cube(m) with at least k members,
    for each k in ks, counted in parameter space with integer cross
    products only.

    At time t a point is at L_t(a, b, c) = (a + t*b, t*c), linear in the
    parameters. At t = 0 every point is on y = 0: one event of all m**3
    points. For t != 0, L_t has rank 2 and kernel (-t, 1, 0), so the line
    of an event pulls back to a lattice plane holding that direction:
    with normal (n1, n2, n3), t = n2/n1, and n1*n2 != 0 (n1 == 0 forces
    n2 == 0, the planes c = const, which move as horizontal lines and are
    collinear at every time). The members are the cube points on the
    plane, and as they span it they are not collinear at every time. So
    there is one event per plane with n1*n2 != 0 spanned by cube points,
    with as many members as the plane holds cube points.
    """
    cube = list(product(range(1, m + 1), repeat=3))
    planes = set()
    for p, q, r in combinations(cube, 3):
        (ux, uy, uz), (vx, vy, vz) = (
            (q[0] - p[0], q[1] - p[1], q[2] - p[2]),
            (r[0] - p[0], r[1] - p[1], r[2] - p[2]),
        )
        normal = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
        if normal[0] * normal[1] == 0:
            continue
        g = math.gcd(*normal) * (1 if normal[0] > 0 else -1)
        n1, n2, n3 = (x // g for x in normal)
        planes.add((n1, n2, n3, n1 * p[0] + n2 * p[1] + n3 * p[2]))
    sizes = [
        sum(n1 * a + n2 * b + n3 * c == offset for a, b, c in cube)
        for n1, n2, n3, offset in planes
    ]
    return [(len(cube) >= k) + sum(size >= k for size in sizes) for k in ks]


class TestParameterCube:
    # many always-collinear triples and buckets of thousands of root
    # triples, whose zero discriminants the fan pass must keep
    KS = (3, 4, 5, 6, 8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_event_counts_match_lattice_planes(self, m):
        scene = parameter_cube(m)
        want = cube_event_counts(m, self.KS)
        assert [audit_bounds(scene, k).event_count for k in self.KS] == want
        assert len(enumerate_events(scene)) == want[0]

    def test_oracle_agrees(self):
        assert_oracle_agrees(parameter_cube(2))

    def test_bench_checks_pass_past_oracle_cap(self):
        assert_bench_checks_pass(parameter_cube(3))


def grid_event_count(k, m):
    """The number of events of kinetic_grid(k, m) with at least k members,
    counted as integer sequences.

    At time t the point of column x is at (x, y + t*x*x). A vertical line
    holds one column, which is collinear at every time, so an event with
    at least k members is a line through one point of each column:
    y_x + t*x*x = alpha*x + beta for x in [1..k]. Its heights y_1..y_k are
    then a quadratic in x with second difference -2*t, and each integer
    sequence in [1..m] with a constant second difference is one event, at
    t = -(second difference)/2. Its k points are not collinear at every
    time, as the velocities (0, x*x) of k >= 3 columns do not lie on a
    line.
    """
    count = 0
    for y1, y2 in product(range(1, m + 1), repeat=2):
        for step in range(-2 * m, 2 * m + 1):
            heights = [y1, y2]
            while len(heights) < k:
                heights.append(2 * heights[-1] - heights[-2] + step)
            count += all(1 <= y <= m for y in heights)
    return count


class TestKineticGrid:
    # always-collinear columns, collisions and multi-line rational
    # buckets, past the oracle's cap
    @pytest.mark.parametrize("k, m, want", [(4, 4, 22), (5, 6, 26), (6, 8, 36), (8, 8, 14)])
    def test_event_counts_match_integer_sequences(self, k, m, want):
        scene = kinetic_grid(k, m)
        assert grid_event_count(k, m) == want
        assert audit_bounds(scene, k).event_count == want
        events = enumerate_events(scene, k)
        assert len(events) == want
        assert all(e.k == k and len({pid.split("_")[0] for pid in e.members}) == k for e in events)

    def test_bench_checks_pass_past_oracle_cap(self):
        assert_bench_checks_pass(kinetic_grid(4, 4))


def sqrt2_scene():
    """Four points, every triple's polynomial a multiple of t^2 - 2: all
    four are collinear at t = -sqrt(2) and at t = sqrt(2) and at no other
    time."""
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (1, 0), (0, 1)),
        ("c", (0, 2), (1, 0)),
        ("d", (2, 2), (1, 2)),
    )


def small_scenes(coordinate=coords()):
    """Scenes of three to six points with distinct motions, each position
    and velocity drawn from coordinate."""
    motions = st.lists(
        st.tuples(coordinate, coordinate), min_size=3, max_size=6, unique=True
    )
    return motions.map(
        lambda ms: Scene(
            tuple(KineticPoint.make(f"p{i}", pos, vel) for i, (pos, vel) in enumerate(ms))
        )
    )


def assert_conjugates_match(scene):
    """Each event at an irrational time (p + q*sqrt(d))/r has an event at
    its conjugate (p - q*sqrt(d))/r with the same members, anchors and
    flags: conjugation fixes the scene's rational motions and keeps
    collinearity and coincidence."""
    by_time: dict[tuple[int, int, int, int], list] = {}
    for e in enumerate_events(scene):
        t = e.time
        by_time.setdefault((t.p, t.q, t.d, t.r), []).append(
            (e.members, e.anchors, e.tangential, e.contains_subcollision)
        )
    for (p, q, d, r), shapes in by_time.items():
        if q:
            assert by_time.get((p, -q, d, r)) == shapes, (p, q, d, r)


class TestConjugatePairs:
    def test_sqrt2_scene_pinned(self, monkeypatch):
        scene = sqrt2_scene()
        roots = solve_quadratic(1, 0, -2).roots
        for k_min in (3, 4):
            got = enumerate_events(scene, k_min)
            assert [(e.time, e.members, e.k, e.anchors) for e in got] == [
                (t, ("a", "b", "c", "d"), 4, ("a", "b")) for t in roots
            ]
            assert not any(e.tangential or e.contains_subcollision for e in got)
        audit = audit_bounds(scene, 4)
        assert (audit.event_count, audit.event_count_3, audit.triple_incidences) == (2, 2, 8)
        assert audit.bound_k == 2 == audit.event_count and audit.passed
        assert_oracle_agrees(scene)
        # one pair bucket of four triples: its lines are found once for
        # both of its times
        calls = []
        components = kineticlines.events._components
        monkeypatch.setattr(
            kineticlines.events,
            "_components",
            lambda trios: calls.append(trios) or components(trios),
        )
        for k_min in (3, 4):
            calls.clear()
            assert len(enumerate_events(scene, k_min)) == 2
            assert len(calls) == 1 and len(calls[0]) == 4
        calls.clear()
        assert audit_bounds(scene, 4).event_count == 2
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_random(10, 1),
            lambda: gen_random(10, 2),
            lambda: gen_random(10, 3),
            lambda: gen_tight(8),
            lambda: gen_tight_ellipse(8),
            sqrt2_scene,
        ],
        ids=["random10-1", "random10-2", "random10-3", "tight8", "tight_ellipse8", "sqrt2"],
    )
    def test_conjugate_times_have_the_same_events(self, build):
        scene = build()
        assert any(e.time.q for e in enumerate_events(scene))
        assert_conjugates_match(scene)

    @given(small_scenes())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_times_on_small_scenes(self, scene):
        assert_conjugates_match(scene)


def irrational_line_scene(rng):
    """A scene of at most 10 points in shuffled order: 4-6 on one line at
    the irrational time t = a + sqrt(b), one or two companions that move
    on the line of two of them at every time, and 1-2 random points.
    Returns the scene and the ids of the points on the line at t.

    The line is y = m*x + c with m = m0 + m1*sqrt(b), c = c0 + c1*sqrt(b).
    A point with rational x-motion has x(t) = X0 + X1*sqrt(b), and
    y(t) = m*x(t) + c is Y0 + Y1*sqrt(b) with Y0 = m0*X0 + b*m1*X1 + c0
    and Y1 = m0*X1 + m1*X0 + c1, which fixes its rational y-motion. A
    companion's motion is an affine combination of its pair's motions.
    """
    b = rng.choice((2, 3, 5, 6, 7, 10))
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    m0, c0, c1 = (rng.randint(-3, 3) for _ in range(3))
    m1 = rng.choice((-2, -1, 1, 2))
    on_line = []
    for _ in range(rng.randint(4, 6)):
        x, vx = rng.randint(-5, 5), rng.randint(-3, 3)
        x0, x1 = x + a * vx, vx
        vy = m0 * x1 + m1 * x0 + c1
        on_line.append(((x, m0 * x0 + b * m1 * x1 + c0 - a * vy), (vx, vy)))
    first, second = on_line[:2]
    weights = (Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(2))
    for lam in rng.sample(weights, rng.randint(1, 2)):
        on_line.append(
            tuple(
                tuple((1 - lam) * u + lam * w for u, w in zip(one, other))
                for one, other in zip(first, second)
            )
        )
    motions = on_line + [
        ((rng.randint(-5, 5), rng.randint(-5, 5)), (rng.randint(-5, 5), rng.randint(-5, 5)))
        for _ in range(rng.randint(1, 2))
    ]
    motions = list(dict.fromkeys(motions))
    rng.shuffle(motions)
    scene = make_scene(*((f"p{i}", pos, vel) for i, (pos, vel) in enumerate(motions)))
    return scene, {f"p{i}" for i, motion in enumerate(motions) if motion in on_line}


class TestIrrationalLineScenes:
    # lines of several root triples at an irrational time, which arrive
    # apart from one another in scene order
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_oracle(self, seed):
        scene, line = irrational_line_scene(random.Random(seed))
        events = enumerate_events(scene)
        assert any(e.time.q and line <= set(e.members) for e in events)
        oracle = brute_force_events(scene, max_points=len(scene))
        assert serialized(events) == serialized(oracle)
        audit = audit_bounds(scene, 3)
        assert audit.event_count_3 == len(oracle)
        assert audit_bounds(scene, 4).event_count == sum(e.k >= 4 for e in oracle)
        # two distinct motions move on one line, so an always-collinear
        # triple's group is every point always collinear with its first two
        groups = {
            tuple(sorted(x.id for x in scene.points if not any(_bf_poly(u, v, x))))
            for u, v, w in combinations(scene.points, 3)
            if not any(_bf_poly(u, v, w))
        }
        assert always_collinear_groups(scene) == sorted(groups)


def union_find_lines(roots):
    """The lines of root records joined by union-find over all three point
    pairs of each record, as sorted (member ids, triple count) tuples."""
    parent = {}

    def find(pair):
        parent.setdefault(pair, pair)
        while parent[pair] != pair:
            parent[pair] = parent[parent[pair]]
            pair = parent[pair]
        return pair

    for a, b, c, _ in roots:
        ab, ac, bc = find((a.id, b.id)), find((a.id, c.id)), find((b.id, c.id))
        parent[ac] = parent[bc] = ab
    members, counts = {}, {}
    for a, b, c, _ in roots:
        line = find((a.id, b.id))
        members.setdefault(line, set()).update((a.id, b.id, c.id))
        counts[line] = counts.get(line, 0) + 1
    return sorted((tuple(sorted(members[line])), counts[line]) for line in members)


class TestComponents:
    # _components looks up only a triple's pairs (a, b) and (a, c); a
    # scene whose records ever needed (b, c), or that split one line, would
    # differ here from a union-find over all three pairs
    SCENES = {
        **{f"degenerate{n}-{s}": partial(degenerate_scene, n, s) for n, s in DEGENERATE_DRAWS},
        "cube3": partial(parameter_cube, 3),
        "grid4x4": partial(kinetic_grid, 4, 4),
        "grid6x8": partial(kinetic_grid, 6, 8),
        **{f"line{s}": lambda s=s: irrational_line_scene(random.Random(s))[0] for s in range(20)},
    }

    @pytest.mark.parametrize("name", SCENES)
    def test_matches_union_find_over_all_pairs(self, name):
        buckets, always = kineticlines.events._buckets(self.SCENES[name]())
        for roots in [roots for key, roots in buckets.items() if len(key) > 2] + [always]:
            got = kineticlines.events._components(roots)
            assert all(not tangential for _, tangential, _ in got)
            assert sorted((tuple(sorted(ids)), count) for ids, _, count in got) == (
                union_find_lines(roots)
            )


def assert_filtered_stream(points):
    """With skip_never_collinear, triple_polynomials yields exactly the
    triples of the full stream that are collinear at some time, in its
    order: c1**2 >= 4*c2*c0, less the nonzero constants; returns the
    filtered stream."""
    every = list(triple_polynomials(points))
    kept = list(triple_polynomials(points, skip_never_collinear=True))
    assert kept == [
        (a, b, c, c2, c1, c0)
        for a, b, c, c2, c1, c0 in every
        if c1 * c1 >= 4 * c2 * c0 and not (c2 == c1 == 0 != c0)
    ]
    return kept


class TestDiscriminantFilter:
    @pytest.mark.parametrize(
        "scene",
        [
            gen_lower_bound(16, 4),
            gen_random(12, 1),
            *mixed_denominator_grid_scenes(4, 2013),
            *(build() for build in HAND_SCENES),
        ],
        ids=[
            "lower_bound16-4",
            "random12-1",
            "grid0",
            "grid1",
            "grid2",
            "grid3",
            *(build.__name__ for build in HAND_SCENES),
        ],
    )
    def test_filtered_stream_is_the_nonnegative_discriminants(self, scene):
        assert_filtered_stream(scene.points)

    @given(
        st.one_of(
            small_scenes(), small_scenes(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_filtered_stream_on_random_scenes(self, scene):
        assert_filtered_stream(scene.points)

    @pytest.mark.parametrize(
        "specs, polynomial",
        [
            # a static column: identically zero, always collinear
            ((("a", (0, 0), (0, 0)), ("b", (1, 0), (0, 0)), ("c", (2, 0), (0, 0))), (0, 0, 0)),
            # tangential_scene's a, b and c: (t - 1)**2, a double root
            ((("a", (0, 0), (0, 0)), ("b", (0, 1), (1, 0)), ("c", (-1, -2), (0, 1))), (1, -2, 1)),
        ],
        ids=["identically_zero", "double_root"],
    )
    def test_zero_discriminant_kept(self, specs, polynomial):
        ((*_, c2, c1, c0),) = assert_filtered_stream(make_scene(*specs).points)
        assert (c2, c1, c0) == polynomial

    def test_nonzero_constant_dropped(self):
        # one shared velocity: the determinant is the constant 1, whose
        # discriminant is zero, yet the triple is never collinear
        scene = make_scene(("a", (0, 0), (1, 1)), ("b", (1, 0), (1, 1)), ("c", (0, 1), (1, 1)))
        assert [row[3:] for row in triple_polynomials(scene.points)] == [(0, 0, 1)]
        assert assert_filtered_stream(scene.points) == []

    def test_negative_discriminant_dropped(self):
        # quadratic_pair_scene moved so its determinant is t**2 + 4
        scene = make_scene(("a", (0, 0), (0, 0)), ("b", (0, 1), (1, 0)), ("c", (-4, 0), (0, 1)))
        assert list(triple_polynomials(scene.points)) != []
        assert list(triple_polynomials(scene.points, skip_never_collinear=True)) == []


def cross_order(fan):
    """The fan's indices ordered by the direction of u0 mod pi with an
    exact cross-product comparator, ties in index order."""
    def upper(entry):
        x, y = entry[0], entry[2]
        return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)

    def compare(i, j):
        (ux, uy), (vx, vy) = upper(fan[i]), upper(fan[j])
        cross = ux * vy - uy * vx
        return (cross < 0) - (cross > 0)

    return sorted(range(len(fan)), key=cmp_to_key(compare))


# the largest integer coordinate a scene admits has this many bits
DIGIT_LIMIT_BITS = (10**RATIONAL_DIGIT_LIMIT).bit_length() - 1


@st.composite
def near_parallel_fans(draw, bits=40):
    """Fan entries (x0, x1, y0, y1) whose directions u0 at t = 0 are
    bits-bit vectors within about 2**(-2*bits) of one another, from a
    primitive (x, y) and its Farey neighbour (x', y'), x'*y - y'*x = 1:
    their sums x + j*x' and multiples, either sign, and at most three
    horizontal entries."""
    y = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    x = draw(st.integers(-(2**bits), 2**bits).filter(lambda x: math.gcd(x, y) == 1))
    ny = -pow(x, -1, y) % y
    nx = (1 + ny * x) // y
    steps = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=12))
    directions = []
    for j in steps:
        scale = draw(st.sampled_from([1, -1, 2, -3]))
        directions.append((scale * (x + j * nx), scale * (y + j * ny)))
    directions += draw(st.lists(st.sampled_from([(1, 0), (-5, 0)]), max_size=3))
    order = draw(st.permutations(directions))
    return [(dx, 0, dy, 0) for dx, dy in order]


def first_fan_verdict(scene, monkeypatch):
    """The certificate's verdict on the scene's first pivot fan, and the
    list of what _angular_order returned while it ran: empty when the fan
    left before it was sorted."""
    kinematics = kineticlines.kinematics
    certify, order = kinematics._fan_never_collinear, kinematics._angular_order
    rings, verdicts = [], []

    def recording_order(fan):
        rings.append(order(fan))
        return rings[-1]

    def recording_certify(fan):
        verdicts.append((certify(fan), rings[:]))
        rings.clear()
        return verdicts[-1][0]

    monkeypatch.setattr(kinematics, "_angular_order", recording_order)
    monkeypatch.setattr(kinematics, "_fan_never_collinear", recording_certify)
    list(triple_polynomials(scene.points, skip_never_collinear=True))
    monkeypatch.undo()
    return verdicts[0]


# one pivot fan per exit of the certificate: the rows (x, y, vx, vy) of
# the points around a pivot at rest at the origin, so each row is its
# entry's u0 and u1, and the exit the fan takes
FAN_EXITS = {
    # all three turn the same way, yet (1, t) and (1, 1 + 3t) are collinear
    # with the origin at t = -1/2
    "first_pair_aligns": ([(1, 0, 0, 1), (1, 1, 0, 3), (0, 1, -1, 0)], "first pair"),
    # the first two turn the same way and never align; the third then
    # has u0 parallel to u1, moves on a fixed line, and has zero sense
    "parallel_u0_u1": ([(1, 0, 0, 1), (0, 1, -1, 0), (1, 1, 2, 2)], "sense"),
    # the third meets the pivot at t = 0: u0 = 0 and zero sense
    "meets_pivot_at_0": ([(1, 0, 0, 1), (0, 1, -1, 0), (0, 0, 1, 2)], "sense"),
    "opposite_senses": ([(1, 0, 0, 1), (0, 1, -1, 0), (1, 1, 1, -1)], "sense"),
    # (1, t) and (-2, -t) both lie on y = 0 at t = 0: the two horizontal
    # entries lead the ring side by side, and theirs is the pair that aligns
    "two_horizontal": ([(1, 0, 0, 1), (0, 1, -1, 0), (-2, 0, 0, -1)], "horizontal pair"),
    # (3, 2t) joins them on y = 0 at t = 0; every aligning pair of the ring
    # is a pair of horizontal entries
    "three_horizontal": (
        [(1, 0, 0, 1), (0, 1, -1, 0), (-2, 0, 0, -1), (3, 0, 0, 2)],
        "horizontal pair",
    ),
    # the one aligning pair holds the horizontal entry, so it is found
    # only if that entry leads the ring
    "one_horizontal": (
        [(1, 0, 0, 1), (0, 1, -1, 0), (3, -3, -2, 3), (-2, -2, 3, -2)],
        "horizontal pair",
    ),
    "wrap_pair_only": (
        [(1, 1, 0, 1), (-1, 1, -1, 0), (0, 2, -2, 1), (-3, 1, 0, -2)],
        "wrap pair",
    ),
}


class TestFanCertificate:
    """The pivot-fan certificate of triple_polynomials: a fan whose
    neighbours in angular order are never collinear with the pivot yields
    nothing, and any other fan goes through the triple loop."""

    @pytest.mark.parametrize(
        "rows, event_count",
        [
            # the pivot's one aligning pair is the wrap pair of its ring
            (((-4, 0, 1, 2), (-4, -2, 0, 3), (1, 4, 0, -3), (1, -1, -1, 2)), 4),
            # the pivot's triple (0, 1, 2) is 3*(t - 2)**2: a double root
            (((-2, -2, 3, -2), (4, 2, 0, 1), (4, 4, 0, 0), (1, -2, 2, 2)), 3),
        ],
        ids=["wrap", "tangent"],
    )
    def test_pinned_fans_keep_their_events(self, rows, event_count):
        # each row is (x, y, vx, vy), pivot first
        scene = make_scene(*((str(i), (x, y), (vx, vy)) for i, (x, y, vx, vy) in enumerate(rows)))
        events = enumerate_events(scene)
        assert len(events) == event_count
        assert serialized(events) == serialized(brute_force_events(scene))
        assert assert_filtered_stream(scene.points)

    @pytest.mark.parametrize("name", FAN_EXITS)
    def test_each_exit_keeps_the_stream(self, name, monkeypatch):
        rows, exit = FAN_EXITS[name]
        scene = make_scene(
            ("o", (0, 0), (0, 0)),
            *((f"p{i}", (x, y), (vx, vy)) for i, (x, y, vx, vy) in enumerate(rows)),
        )
        # the pivot's pair (j, k) aligns when its triple's discriminant is
        # nonnegative
        aligns = {
            frozenset((j, k)): c1 * c1 >= 4 * c2 * c0
            for ((j, _), (k, _)), (*_, c2, c1, c0) in zip(
                combinations(enumerate(rows), 2), triple_polynomials(scene.points)
            )
        }
        senses = [x * vy - y * vx for x, y, vx, vy in rows]
        verdict, rings = first_fan_verdict(scene, monkeypatch)
        assert not verdict
        assert aligns[frozenset((0, 1))] == (exit == "first pair")
        if exit in ("first pair", "sense"):
            assert rings == []
        else:
            assert min(senses) > 0 or max(senses) < 0
        if exit == "sense":
            assert min(senses) <= 0 <= max(senses)
        elif exit != "first pair":
            ((*ring,),) = rings
            pairs = [frozenset(pair) for pair in zip(ring[-1:] + ring, ring)]
            aligning = [pair for pair in pairs if aligns[pair]]
            if exit == "wrap pair":
                assert aligning == [pairs[0]]
            else:
                # the horizontal entries lead the ring, in index order
                horizontal = [j for j, row in enumerate(rows) if row[1] == 0]
                assert ring[: len(horizontal)] == horizontal
                assert aligning
                if len(horizontal) == 1:
                    assert all(ring[0] in pair for pair in aligning)
                else:
                    assert aligning[0] == frozenset(ring[:2])
                    assert all(pair <= set(horizontal) for pair in aligning)
        assert assert_filtered_stream(scene.points)
        assert serialized(enumerate_events(scene)) == serialized(brute_force_events(scene))

    @staticmethod
    def assert_exact_order(fan):
        # every fan, two or more horizontal entries included
        assert _angular_order(fan) == cross_order(fan)

    @given(near_parallel_fans())
    @settings(max_examples=200, deadline=None)
    def test_angular_order_is_exact(self, fan):
        self.assert_exact_order(fan)

    @given(near_parallel_fans(bits=DIGIT_LIMIT_BITS))
    @settings(max_examples=100, deadline=None)
    def test_angular_order_is_exact_at_the_digit_limit(self, fan):
        # the keys' shift at its largest: 2**-S below the cotangent gap
        # of two 212-bit directions
        self.assert_exact_order(fan)

    @pytest.mark.parametrize("build", [gen_no_collinearity, gen_no_collinearity_distinct])
    def test_circle_families_certify_every_pivot(self, build, monkeypatch):
        kinematics = kineticlines.kinematics
        certify, order = kinematics._fan_never_collinear, kinematics._angular_order
        tested, rings, fans = set(), [], []

        class Coordinate(int):
            """A coordinate of fan entry `entry`; a product of two entries'
            coordinates is part of an exact test of that pair."""

            def __mul__(self, other):
                if isinstance(other, Coordinate) and other.entry != self.entry:
                    tested.add(frozenset((self.entry, other.entry)))
                return int(self) * int(other)

            __rmul__ = __mul__

        def tagged(j, value):
            coordinate = Coordinate(value)
            coordinate.entry = j
            return coordinate

        def recording_order(fan):
            rings.append(order(fan))
            return rings[-1]

        def recording_certify(fan):
            tested.clear()
            rings.clear()
            certified = certify([tuple(tagged(j, v) for v in entry) for j, entry in enumerate(fan)])
            fans.append((fan, certified, set(tested), rings[:]))
            return certified

        monkeypatch.setattr(kinematics, "_angular_order", recording_order)
        monkeypatch.setattr(kinematics, "_fan_never_collinear", recording_certify)
        n = 60
        assert list(triple_polynomials(build(n).points, skip_never_collinear=True)) == []
        assert [len(fan) for fan, _, _, _ in fans] == list(range(n - 1, 1, -1))
        for fan, certified, pairs, (ring,) in fans:
            m = len(fan)
            assert certified
            assert sorted(ring) == list(range(m))
            neighbours = {frozenset(pair) for pair in zip(ring[-1:] + ring, ring)}
            # the first pair, then the m neighbours of the ring, each pair
            # recomputed here with a negative discriminant
            assert pairs == neighbours | {frozenset((0, 1))}
            assert len(pairs) <= m + 1
            for j, k in map(sorted, pairs):
                (ux0, ux1, uy0, uy1), (vx0, vx1, vy0, vy1) = fan[j], fan[k]
                c2 = ux1 * vy1 - uy1 * vx1
                c0 = ux0 * vy0 - uy0 * vx0
                c1 = (ux0 + ux1) * (vy0 + vy1) - (uy0 + uy1) * (vx0 + vx1) - c2 - c0
                assert c1 * c1 < 4 * c2 * c0


def moved(scene, pos_of, vel_of, id_of=lambda pid: pid):
    """The scene with every point's motion and id mapped."""
    return Scene(
        tuple(KineticPoint.make(id_of(p.id), pos_of(p), vel_of(p)) for p in scene.points)
    )


METAMORPHIC_SCENES = {
    "random20-1": lambda: gen_random(20, 1),
    "random20-2": lambda: gen_random(20, 2),
    "tight8": lambda: gen_tight(8),
    "lower_bound16-4": lambda: gen_lower_bound(16, 4),
    "cube3": lambda: parameter_cube(3),
    "grid6-8": lambda: kinetic_grid(6, 8),
}


@pytest.mark.parametrize("name", sorted(METAMORPHIC_SCENES))
class TestMetamorphic:
    """Maps of the scene whose effect on the event listing is known exactly,
    checked at sizes beyond the oracle's cap."""

    def test_uniform_scaling_keeps_listing(self, name):
        scene = METAMORPHIC_SCENES[name]()
        c = F(7, 3)
        scaled = moved(
            scene,
            lambda p: (c * p.pos[0], c * p.pos[1]),
            lambda p: (c * p.vel[0], c * p.vel[1]),
        )
        assert events_to_json(enumerate_events(scaled)) == events_to_json(
            enumerate_events(scene)
        )

    def test_velocity_boost_keeps_listing(self, name):
        scene = METAMORPHIC_SCENES[name]()
        wx, wy = F(5, 11), F(-2)
        boosted = moved(
            scene, lambda p: p.pos, lambda p: (p.vel[0] + wx, p.vel[1] + wy)
        )
        assert events_to_json(enumerate_events(boosted)) == events_to_json(
            enumerate_events(scene)
        )

    @pytest.mark.parametrize(
        "matrix, offset",
        [
            (((F(2, 3), F(-1, 5)), (F(1, 7), F(3, 2))), (F(-4, 9), F(5, 2))),
            (((F(1, 2), F(3)), (F(5, 4), F(-2, 3))), (F(7, 11), F(-1, 6))),
        ],
        ids=["det-positive", "det-negative"],
    )
    def test_affine_map_keeps_listing(self, name, matrix, offset):
        # an invertible affine map of the plane, applied at every time,
        # keeps collinearity and coincidence, so members, anchors, flags
        # and times all stay
        scene = METAMORPHIC_SCENES[name]()
        (m00, m01), (m10, m11) = matrix
        assert m00 * m11 - m01 * m10 != 0
        bx, by = offset
        mapped = moved(
            scene,
            lambda p: (m00 * p.pos[0] + m01 * p.pos[1] + bx, m10 * p.pos[0] + m11 * p.pos[1] + by),
            lambda p: (m00 * p.vel[0] + m01 * p.vel[1], m10 * p.vel[0] + m11 * p.vel[1]),
        )
        assert events_to_json(enumerate_events(mapped)) == events_to_json(
            enumerate_events(scene)
        )

    def test_time_shift_moves_times(self, name):
        scene = METAMORPHIC_SCENES[name]()
        tau = F(-5, 7)
        shifted = moved(
            scene,
            lambda p: (p.pos[0] + tau * p.vel[0], p.pos[1] + tau * p.vel[1]),
            lambda p: p.vel,
        )
        a, b = tau.numerator, tau.denominator
        expected = [
            CollinearityEvent(
                time=AlgebraicTime.make(
                    e.time.p * b - a * e.time.r, e.time.q * b, e.time.d, e.time.r * b
                ),
                members=e.members,
                k=e.k,
                anchors=e.anchors,
                tangential=e.tangential,
                contains_subcollision=e.contains_subcollision,
            )
            for e in enumerate_events(scene)
        ]
        assert enumerate_events(shifted) == expected

    @pytest.mark.parametrize("s", [F(-1), F(-3, 2)], ids=["reversal", "scale-3/2"])
    def test_velocity_scaling_divides_times(self, name, s):
        # positions at t/s match the original positions at t, so members,
        # anchors and flags stay; s < 0 reverses the order of the times
        scene = METAMORPHIC_SCENES[name]()
        scaled = moved(scene, lambda p: p.pos, lambda p: (s * p.vel[0], s * p.vel[1]))
        a, b = s.numerator, s.denominator
        events = enumerate_events(scene)
        rank = {}
        for e in events:
            rank.setdefault(e.time, -len(rank))
        expected = [
            CollinearityEvent(
                time=AlgebraicTime.make(e.time.p * b, e.time.q * b, e.time.d, e.time.r * a),
                members=e.members,
                k=e.k,
                anchors=e.anchors,
                tangential=e.tangential,
                contains_subcollision=e.contains_subcollision,
            )
            for e in sorted(events, key=lambda e: (rank[e.time], e.members))
        ]
        assert enumerate_events(scaled) == expected

    def test_relabelling_permutes_members(self, name):
        scene = METAMORPHIC_SCENES[name]()
        ids = [p.id for p in scene.points]
        shuffled = ids[:]
        random.Random(name).shuffle(shuffled)
        new_id = dict(zip(ids, ("x" + pid for pid in shuffled)))
        relabelled = moved(scene, lambda p: p.pos, lambda p: p.vel, new_id.__getitem__)
        events = enumerate_events(scene)
        rank = {}
        for e in events:
            rank.setdefault(e.time, len(rank))
        expected = sorted(
            (
                (e.time, tuple(sorted(new_id[m] for m in e.members)), e.tangential,
                 e.contains_subcollision)
                for e in events
            ),
            key=lambda item: (rank[item[0]], item[1]),
        )
        got = enumerate_events(relabelled)
        assert [
            (e.time, e.members, e.tangential, e.contains_subcollision) for e in got
        ] == expected
        assert all(set(e.anchors) <= set(e.members) for e in got)
