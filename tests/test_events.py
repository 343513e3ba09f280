"""Event enumeration, filters, audits, and the independent oracle."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kineticlines.events
import kineticlines.exact_numbers
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
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    position_at,
    solve_quadratic,
)
from kineticlines.events import _bf_poly, _bucket_lines, _line_events, _line_key
from kineticlines.kinematics import triple_polynomials

from conftest import coords, make_scene, serialized

F = Fraction


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

    def test_one_triple_irrational_buckets_skip_bucket_events(self, monkeypatch):
        # every bucket of the tight scenes holds one triple at an irrational
        # time, so none of them may reach _bucket_lines, on either path
        def refuse(*args):
            raise AssertionError("_bucket_lines called")

        monkeypatch.setattr(kineticlines.events, "_bucket_lines", refuse)
        assert len(enumerate_events(gen_tight(8))) == 2 * math.comb(8, 3)
        audit = audit_bounds(gen_tight(8), 3)
        assert audit.event_count == audit.event_count_3 == audit.triple_incidences == 112

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
        # key_times computes each time's bounds once, and time_order and
        # approx (through events_to_json) read them: no _bounds call at all
        bounds = []
        interval = kineticlines.exact_numbers._interval
        monkeypatch.setattr(AlgebraicTime, "_bounds", refuse)
        monkeypatch.setattr(
            kineticlines.exact_numbers,
            "_interval",
            lambda *args: bounds.append(args) or interval(*args),
        )
        events = enumerate_events(gen_random(10, 1))
        payload = events_to_json(events)
        assert sum(item["time"]["kind"] == "quadratic" for item in payload) > 0
        assert len(bounds) == len({e.time for e in events})

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


class TestOneClassification:
    def test_triple_polynomials_called_once_per_pass(self, monkeypatch):
        # the pipeline looks the fan generator up at this module attribute
        # at call time, once per pass
        scene = gen_lower_bound(16, 4)
        calls = []
        original = kineticlines.events.triple_polynomials

        def counting(points):
            calls.append(points)
            return original(points)

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
        AlgebraicTime.make(1, 1, 2, 1)
        assert calls == [2]

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
    assert audit.triple_incidences == sum(
        any(_bf_poly(*(scene.point(m) for m in trio)))
        for e in oracle
        for trio in combinations(e.members, 3)
    ), where


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
        events = _line_events(AlgebraicTime.from_rational(0), (lines, positions), 3)
        assert [(e.members, e.anchors, e.contains_subcollision) for e in events] == [
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


def small_scenes():
    """Scenes of three to six points with distinct motions."""
    motions = st.lists(st.tuples(coords(), coords()), min_size=3, max_size=6, unique=True)
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
            lambda links: calls.append(links) or components(links),
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
