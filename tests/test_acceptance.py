"""Acceptance gate: one test per headline claim, at its stated tolerance.

Each test prints a single summary line (visible with -s, kept in the
captured output otherwise) and enforces the claim's runtime budget with
a monotonic clock, so a pass here means the numbers, not vibes.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from kineticlines import (
    KineticPoint,
    SurfaceKind,
    TripleKind,
    always_collinear_groups,
    audit_bounds,
    brute_force_events,
    classify_surface,
    classify_triple,
    collinearity_polynomial,
    count_k_collinearities,
    enumerate_events,
    evaluate_at_time,
    gen_lower_bound,
    gen_no_collinearity,
    gen_no_collinearity_distinct,
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    surface_contains,
    surface_of_pair,
    verify_tight_certificate,
)

from conftest import make_scene, rational_position, serialized

F = Fraction


def report(num, text):
    print(f"criterion {num} PASS: {text}")


def test_criterion_1_tight_scenes_saturate_the_ceiling():
    started = time.monotonic()
    counts = {}
    for n in range(3, 8):
        scene = gen_tight(n)
        events = enumerate_events(scene)
        counts[n] = len(events)
        assert len(events) == 2 * math.comb(n, 3)
        assert all(e.k == 3 for e in events)
        assert verify_tight_certificate(scene).passed
    elapsed = time.monotonic() - started
    assert counts == {3: 2, 4: 8, 5: 20, 6: 40, 7: 70}
    assert elapsed < 10.0
    report(1, f"tight n=3..7 gave (2,8,20,40,70) events, all k=3, certified, {elapsed:.2f}s")


def test_criterion_2_ellipse_variant_same_counts_distinct_speeds():
    for n in range(3, 7):
        scene = gen_tight_ellipse(n)
        events = enumerate_events(scene)
        assert len(events) == 2 * math.comb(n, 3)
        assert all(e.k == 3 for e in events)
        speeds = [p.vel[0] ** 2 + p.vel[1] ** 2 for p in scene.points]
        assert len(set(speeds)) == n
        assert verify_tight_certificate(scene).passed
    report(2, "ellipse n=3..6 matched (2,8,20,40) with pairwise distinct speeds")


def test_criterion_3_circle_families_have_zero_events():
    started = time.monotonic()
    for n in range(3, 13):
        assert enumerate_events(gen_no_collinearity(n)) == []
        stretched = gen_no_collinearity_distinct(n)
        assert enumerate_events(stretched) == []
        speeds = [p.vel[0] ** 2 + p.vel[1] ** 2 for p in stretched.points]
        assert len(set(speeds)) == n
        for a, b in combinations(stretched.points, 2):
            assert a.vel[0] * b.vel[1] - a.vel[1] * b.vel[0] != 0
    for build in (gen_no_collinearity, gen_no_collinearity_distinct):
        scene = build(200)
        assert enumerate_events(scene) == []
        assert audit_bounds(scene, 3).event_count_3 == 0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(3, f"both circle families n=3..12 and n=200 produced zero events, {elapsed:.2f}s")


def test_criterion_4_two_line_regime_hits_the_lower_bound():
    started = time.monotonic()
    scene = gen_lower_bound(16, 4)
    assert count_k_collinearities(scene, 4) >= 30
    events = enumerate_events(scene)
    at_zero_k4 = [e for e in events if e.k == 4 and e.time.as_fraction() == 0]
    assert len(at_zero_k4) == 16
    assert serialized(brute_force_events(scene, max_points=16)) == serialized(events)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, f"lower_bound(16,4): count>=30, 16 k=4 events at t=0, oracle-equal, {elapsed:.2f}s")


def test_criterion_5_cluster_regime_big_event_at_zero():
    scene = gen_lower_bound(10, 5)
    events = enumerate_events(scene, k_min=5)
    at_zero = [e for e in events if e.time.as_fraction() == 0]
    assert len(at_zero) >= 1
    groups = always_collinear_groups(scene)
    for e in enumerate_events(scene):
        for group in groups:
            assert len(set(e.members) & set(group)) <= math.ceil(e.k / 2)
    report(5, f"lower_bound(10,5): {len(at_zero)} event(s) k>=5 at t=0, group overlap bounded")


def test_criterion_6_random_scenes_respect_the_ceilings():
    started = time.monotonic()
    for seed in range(500):
        scene = gen_random(6, seed)
        assert audit_bounds(scene, 3).passed, f"seed {seed} failed the k=3 audit"
        assert audit_bounds(scene, 4).passed, f"seed {seed} failed the k=4 audit"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(6, f"500 random n=6 scenes passed the k=3 and k=4 audits, {elapsed:.2f}s")


def test_criterion_7_every_triple_has_at_most_two_times():
    started = time.monotonic()
    rng = random.Random(7)

    def coord():
        return F(rng.randint(-30, 30), rng.randint(1, 5))

    checked = 0
    for _ in range(10_000):
        pts = [
            KineticPoint.make(f"p{i}", (coord(), coord()), (coord(), coord()))
            for i in range(3)
        ]
        cls = classify_triple(*pts)
        if cls.kind is TripleKind.ALWAYS_COLLINEAR:
            continue
        assert len(cls.times) <= 2
        poly = collinearity_polynomial(*pts)
        for t in cls.times:
            sign, _ = evaluate_at_time(poly, t)
            assert sign == 0
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(7, f"10000 random triples: <=2 times each, all re-substituted to zero, {elapsed:.2f}s")


def _surface_samples(rng, a, b, surf):
    # ten exact points on the moving line, each must satisfy the surface
    for _ in range(10):
        t = F(rng.randint(-8, 8), rng.randint(1, 4))
        s = F(rng.randint(-8, 8), rng.randint(1, 4))
        ax, ay = rational_position(a, t)
        bx, by = rational_position(b, t)
        px = ax + s * (bx - ax)
        py = ay + s * (by - ay)
        assert surface_contains(surf, px, py, t)


def test_criterion_8_surface_classification_with_membership():
    rng = random.Random(8)

    def coord(bound=9):
        return F(rng.randint(-bound, bound), rng.randint(1, 4))

    def point(pid, pos, vel):
        return KineticPoint.make(pid, pos, vel)

    pairs = []
    while len(pairs) < 34:  # equal velocities
        pa, pb = (coord(), coord()), (coord(), coord())
        if pa == pb:
            continue
        v = (coord(), coord())
        pairs.append((point("a", pa, v), point("b", pb, v), SurfaceKind.NON_HORIZONTAL_PLANE, None))
    while len(pairs) < 67:  # built to collide at a chosen nonzero time
        va, vb = (coord(), coord()), (coord(), coord())
        if va == vb:
            continue
        tc = F(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((-1, 1))
        spot = (coord(), coord())
        pa = (spot[0] - tc * va[0], spot[1] - tc * va[1])
        pb = (spot[0] - tc * vb[0], spot[1] - tc * vb[1])
        pairs.append(
            (point("a", pa, va), point("b", pb, vb), SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE, tc)
        )
    while len(pairs) < 100:  # skew by independent check
        a = point("a", (coord(), coord()), (coord(), coord()))
        b = point("b", (coord(), coord()), (coord(), coord()))
        dv = (b.vel[0] - a.vel[0], b.vel[1] - a.vel[1])
        dp = (b.pos[0] - a.pos[0], b.pos[1] - a.pos[1])
        if dv == (0, 0):
            continue
        if dv[0] != 0:
            meets = dp[1] - dp[0] / dv[0] * dv[1] == 0
        else:
            meets = dp[0] == 0
        if meets:
            continue
        pairs.append((a, b, SurfaceKind.HYPERBOLIC_PARABOLOID, None))

    for a, b, expected, tc in pairs:
        cls = classify_surface(a, b)
        assert cls.kind is expected
        surf = surface_of_pair(a, b)
        if expected is SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE:
            assert cls.collision_time == tc
            ca, cb, cc, cd = cls.plane
            # expanding (t - tc)(ca x + cb y + cc t + cd) must give the surface back
            assert surf.coeff_xt == ca and surf.coeff_x == -tc * ca
            assert surf.coeff_yt == cb and surf.coeff_y == -tc * cb
            assert surf.coeff_tt == cc
            assert surf.coeff_t == cd - tc * cc
            assert surf.coeff_1 == -tc * cd
        _surface_samples(rng, a, b, surf)
    report(8, "100 pairs classified (34 plane, 33 two-plane factored, 33 saddle), 10 samples each")


def test_criterion_9_oracle_equivalence_everywhere():
    scenes = []
    for n in range(3, 7):
        scenes.append(gen_tight(n))
        scenes.append(gen_tight_ellipse(n))
        scenes.append(gen_no_collinearity(n))
        scenes.append(gen_no_collinearity_distinct(n))
    scenes.append(gen_lower_bound(6, 3))  # coincident clusters: collisions
    scenes.append(gen_lower_bound(5, 3))  # one all-coincident cluster
    scenes.append(
        make_scene(  # head-on collision inside an event
            ("a", (0, 0), (1, 0)),
            ("b", (2, 0), (0, 0)),
            ("c", (0, 1), (0, 0)),
        )
    )
    scenes.append(
        make_scene(  # permanent column plus two crossing movers
            ("a1", (0, 0), (0, 0)),
            ("a2", (0, 1), (0, 0)),
            ("a3", (0, 2), (0, 0)),
            ("d", (1, 1), (0, -1)),
            ("e", (2, -2), (0, 1)),
        )
    )
    for n in (4, 5, 6):
        for seed in range(10):
            scenes.append(gen_random(n, seed))
    for scene in scenes:
        assert serialized(enumerate_events(scene)) == serialized(brute_force_events(scene))
    report(9, f"enumerate and brute force agreed on all {len(scenes)} scenes")
