"""Generated scene families and the exact tight-scene certificate."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kineticlines import (
    ConstructionParams,
    Scene,
    count_k_collinearities,
    enumerate_events,
    gen_lower_bound,
    gen_no_collinearity,
    gen_no_collinearity_distinct,
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    scene_to_json,
    verify_tight_certificate,
)
from kineticlines.constructions import CONSTRUCTION_KINDS

from conftest import rational_position

F = Fraction

PROBE_TIMES = [F(0), F(1), F(-2), F(7, 3)]


class TestParams:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown construction"):
            ConstructionParams(name="spiral", n=5)

    def test_lower_bound_requires_k(self):
        with pytest.raises(ValueError, match="requires k"):
            ConstructionParams(name="lower_bound", n=16)

    def test_k_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="does not take k"):
            ConstructionParams(name="tight", n=5, k=4)

    def test_build_dispatches(self):
        scene = ConstructionParams(name="random", n=4, seed=9).build()
        assert scene.meta["construction"] == "random"
        assert len(scene.points) == 4
        lower = ConstructionParams(name="lower_bound", n=16, k=4).build()
        assert lower.meta["regime"] == "two_line"
        # every kind builds what its generator builds, with the settings
        # that the kind takes passed through and the others ignored
        direct = {
            "lower_bound": (9, 3, gen_lower_bound(9, 3)),
            "no_collinearity": (6, None, gen_no_collinearity(6)),
            "no_collinearity_distinct": (6, None, gen_no_collinearity_distinct(6)),
            "random": (6, None, gen_random(6, 9, 7)),
            "tight": (5, None, gen_tight(5, 12)),
            "tight_ellipse": (5, None, gen_tight_ellipse(5, 12)),
        }
        assert tuple(direct) == CONSTRUCTION_KINDS
        for name, (n, k, scene) in direct.items():
            params = ConstructionParams(
                name=name, n=n, k=k, precision_bits=12, seed=9, coord_bound=7
            )
            assert params.build() == scene


class TestTight:
    def test_first_point_coordinates(self):
        # the widest angle is 7*pi/4: velocity (cos, sin) = (r2/2, -r2/2)
        # and position -(r2-1)*(cos, sin), rounded onto the dyadic grid
        bits = 40
        scene = gen_tight(3, precision_bits=bits)
        p1 = scene.point("p1")
        r2 = math.sqrt(2)
        tol = 2 ** -bits
        assert abs(p1.vel[0] - r2 / 2) <= tol
        assert abs(p1.vel[1] + r2 / 2) <= tol
        assert abs(p1.pos[0] - (r2 - 2) / 2) <= tol
        assert abs(p1.pos[1] - (2 - r2) / 2) <= tol
        assert p1.pos[0].denominator <= 1 << bits

    def test_unit_speeds(self):
        scene = gen_tight(5)
        for p in scene.points:
            speed_sq = p.vel[0] ** 2 + p.vel[1] ** 2
            assert abs(speed_sq - 1) < F(1, 1 << 38)

    def test_event_counts_saturate(self):
        for n in (3, 4, 5):
            events = enumerate_events(gen_tight(n))
            assert len(events) == 2 * math.comb(n, 3)
            assert all(e.k == 3 for e in events)

    def test_certificate_passes(self):
        for n in (3, 5, 7):
            cert = verify_tight_certificate(gen_tight(n))
            assert cert.passed
            assert cert.triples_checked == math.comb(n, 3)
            assert cert.failing_triples == ()

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            gen_tight(2)


    def test_negative_precision_rejected(self):
        for gen in (gen_tight, gen_tight_ellipse):
            with pytest.raises(ValueError, match="precision_bits must be non-negative, got -1"):
                gen(4, precision_bits=-1)

    def test_precision_over_digit_limit_refused_at_once(self):
        # 2**212 < 10**64 < 2**213: a 213-bit grid's denominator is over
        # the scene digit limit, and the refusal comes before pi is computed
        for gen in (gen_tight, gen_tight_ellipse):
            assert len(gen(4, precision_bits=212)) == 4
            for bits in (213, 40_000, 10**7):
                start = time.perf_counter()
                with pytest.raises(ValueError, match="at most 212"):
                    gen(4, precision_bits=bits)
                assert time.perf_counter() - start < 0.1


# (generator, n, bits, failing certificate triples, sha256 of
# json.dumps(scene_to_json(scene), sort_keys=True)), pinned when mpmath
# computed the coordinates at bits + 64 bits of precision; the integer fixed point must reproduce every scene exactly.
# At n=40 a 16-bit grid is too coarse to keep every triple tight, so the
# certificate fails there on a fixed set of triples.
TIGHT_DIGESTS = [
    (gen_tight, 3, 16, 0, "f0c9ef260cecd8fc5f230490173a51ba67c663719447fdd023f30f1c8174aeda"),
    (gen_tight, 3, 40, 0, "d244f9eadd44d91c0f238291e346114657fa49576a3524b4e3edecb6b71dd33d"),
    (gen_tight, 3, 128, 0, "431d4024a1a961133c456bc0afe8747bb375e0e859300c651941f7be4431013f"),
    (gen_tight, 3, 200, 0, "b7d98af85308335f8712b02a19c6269f92d8b2a19b55ee59be98d4c21cdd37d4"),
    (gen_tight, 10, 16, 0, "edb27d65c30bc122ca2b10324bd351571567d4132bcf478f783130d86d58c48f"),
    (gen_tight, 10, 40, 0, "07128c1ed9d96e0229c24ab9fef97aad409920613f6c94a6b295456079bc09b2"),
    (gen_tight, 10, 128, 0, "1e863e724ed782739ea4c42c1ab2b557bfaa3fd14f16f88608b6742ad186d4c8"),
    (gen_tight, 10, 200, 0, "a7bdbb1aa262d872c0bdc19265c3bd3c6f067155837f8d920593a66fab4a4513"),
    (gen_tight, 40, 16, 249, "8646e64296d9fcaf5a13246d4e9bbb547fa8bf55923f0d82cd6178dc69f968b4"),
    (gen_tight, 40, 40, 0, "f154a1bee50bf08752afdb3d3dcc5d305b5c0c0a28f40821bf35addb3becac88"),
    (gen_tight, 40, 128, 0, "d175d2166605b34553dd3471d786ac8721257ec7ab7c6e874d9b6eae59e78baf"),
    (gen_tight, 40, 200, 0, "1fd7d913c33b40b50d3eb779cbefc9630ace9969089748a4bccdefaf02ced67f"),
    (gen_tight_ellipse, 3, 16, 0, "bb18528831465e1c599ad2253b4128e2b0e07bbf3f68583b7d733587a870f525"),
    (gen_tight_ellipse, 3, 40, 0, "e34e3ccbce411d36b21db1ca09e36dd26575c515d040aa6e7111bd1c23d32e45"),
    (gen_tight_ellipse, 3, 128, 0, "0b2b2a29ff65b261bb246e62ba8538b4bd26011a5e7c892664f09c16020ac55e"),
    (gen_tight_ellipse, 3, 200, 0, "6788a85ab3a89c8819d547c509f7ee946c95c5d25318895d13a6cd08031fbd23"),
    (gen_tight_ellipse, 10, 16, 0, "48846e887e494006ff69b116e0037599472841285bc855cf785c2d2c95a2887b"),
    (gen_tight_ellipse, 10, 40, 0, "98188c241f3615e6f5a45057c01eaa2eda95e622a373cc0b8b4b3c84fb2bfb40"),
    (gen_tight_ellipse, 10, 128, 0, "c524ea918eb52ddd7fa3c0faa326d840920ab974854b36aa045660cb31299800"),
    (gen_tight_ellipse, 10, 200, 0, "1d1b50584eeff6dacc25cbf2cef5a1fe36e9f5b362756b3a19693768578b26cd"),
    (gen_tight_ellipse, 40, 16, 230, "361e6d3d4ef8714783613a9697146fb59d613a4902af40a58d53caddf69659b7"),
    (gen_tight_ellipse, 40, 40, 0, "f28116e10d836ba9478cbe3fd50f802fea61021e175e0e496bfe0b90ded38c6c"),
    (gen_tight_ellipse, 40, 128, 0, "dbc49b899083e6c4b716f0bbe924d0208ae9cfc6b0c0fc3166db4cf1c6b87283"),
    (gen_tight_ellipse, 40, 200, 0, "518197af07cca73fe6ce20234532ccb49365c6a5cda79237a24f7bb2f3cef3d7"),
]


@pytest.mark.parametrize(
    "gen, n, bits, failing, digest",
    TIGHT_DIGESTS,
    ids=[f"{g.__name__}-n{n}-bits{b}" for g, n, b, _, _ in TIGHT_DIGESTS],
)
def test_tight_scene_digest_pinned(gen, n, bits, failing, digest):
    scene = gen(n, precision_bits=bits)
    text = json.dumps(scene_to_json(scene), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    cert = verify_tight_certificate(scene)
    assert cert.triples_checked == math.comb(n, 3)
    assert len(cert.failing_triples) == failing
    assert cert.passed == (failing == 0)


def test_tight_scenes_need_no_third_party_module():
    # a None entry in sys.modules makes any import of mpmath fail
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import kineticlines\n"
        "assert len(kineticlines.gen_tight(6).points) == 6\n"
        "assert len(kineticlines.gen_tight_ellipse(6).points) == 6\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestTightEllipse:
    def test_counts_and_distinct_speeds(self):
        scene = gen_tight_ellipse(5)
        events = enumerate_events(scene)
        assert len(events) == 2 * math.comb(5, 3)
        speeds = [p.vel[0] ** 2 + p.vel[1] ** 2 for p in scene.points]
        assert len(set(speeds)) == len(speeds)

    def test_certificate_passes(self):
        assert verify_tight_certificate(gen_tight_ellipse(4)).passed


class TestCertificateGuards:
    def test_foreign_scene_rejected(self):
        with pytest.raises(ValueError, match="tight construction"):
            verify_tight_certificate(gen_random(5, 0))

    def test_faked_meta_fails_honestly(self):
        # a static collinear triple dressed up in tight metadata must be
        # reported as failing, not accepted
        base = gen_random(3, 2)
        fake = Scene(
            base.points,
            meta={
                "construction": "tight",
                "order_by_angle": [p.id for p in base.points],
            },
        )
        cert = verify_tight_certificate(fake)
        assert not cert.passed
        assert cert.failing_triples


class TestNoCollinearity:
    def test_exact_circle_identities(self):
        scene = gen_no_collinearity(12)
        for p in scene.points:
            x, y = p.pos
            vx, vy = p.vel
            assert x * x + y * y == 1
            assert x * vx + y * vy == 0
            assert vx * vx + vy * vy == 1
        for t in PROBE_TIMES:
            for p in scene.points:
                px, py = rational_position(p, t)
                assert px * px + py * py == 1 + t * t

    def test_no_events(self):
        assert enumerate_events(gen_no_collinearity(8)) == []

    def test_distinct_variant_identities(self):
        scene = gen_no_collinearity_distinct(10)
        for t in PROBE_TIMES:
            for p in scene.points:
                px, py = rational_position(p, t)
                assert (px / 2) ** 2 + py ** 2 == 1 + t * t
        speeds = [p.vel[0] ** 2 + p.vel[1] ** 2 for p in scene.points]
        assert len(set(speeds)) == len(speeds)
        # directions pairwise non-parallel
        for i, p in enumerate(scene.points):
            for q in scene.points[i + 1:]:
                assert p.vel[0] * q.vel[1] - p.vel[1] * q.vel[0] != 0

    def test_distinct_variant_no_events(self):
        assert enumerate_events(gen_no_collinearity_distinct(8)) == []


class TestLowerBound:
    def test_two_line_shape(self):
        scene = gen_lower_bound(16, 4)
        assert len(scene.points) == 16
        meta = scene.meta
        assert meta["regime"] == "two_line"
        assert meta["per_family"] == 4
        assert meta["discarded_points"] == 0
        ids = [p.id for p in scene.points]
        assert sum(1 for i in ids if i.startswith("a")) == 8
        assert sum(1 for i in ids if i.startswith("b")) == 8
        xs = {p.pos[0] for p in scene.points}
        assert xs == {F(0), F(1)}

    def test_two_line_discards_remainder(self):
        scene = gen_lower_bound(18, 4)
        assert len(scene.points) == 16
        assert scene.meta["discarded_points"] == 2

    def test_two_line_k_events_at_zero(self):
        at_zero = [
            e
            for e in enumerate_events(gen_lower_bound(16, 4), k_min=4)
            if e.time.as_fraction() == 0
        ]
        assert len(at_zero) == 16

    def test_cluster_shape(self):
        scene = gen_lower_bound(10, 5)
        assert scene.meta["regime"] == "cluster"
        assert scene.meta["cluster_sizes"] == [5, 5]
        assert all(size >= math.ceil(5 / 2) for size in scene.meta["cluster_sizes"])
        sites = {p.pos for p in scene.points}
        assert sites == {(F(1), F(1)), (F(2), F(4))}
        # velocities unique across the whole scene
        vels = [p.vel for p in scene.points]
        assert len(set(vels)) == len(vels)

    def test_cluster_big_event_at_zero(self):
        events = [
            e
            for e in enumerate_events(gen_lower_bound(10, 5), k_min=5)
            if e.time.as_fraction() == 0
        ]
        assert events and max(e.k for e in events) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_lower_bound(16, 2)
        with pytest.raises(ValueError):
            gen_lower_bound(3, 4)


class TestRandom:
    def test_seed_determinism(self):
        a = gen_random(6, 42)
        b = gen_random(6, 42)
        assert [(p.id, p.pos, p.vel) for p in a.points] == [
            (p.id, p.pos, p.vel) for p in b.points
        ]
        c = gen_random(6, 43)
        assert [(p.pos, p.vel) for p in a.points] != [(p.pos, p.vel) for p in c.points]

    def test_coordinates_bounded(self):
        scene = gen_random(8, 5, coord_bound=10)
        for p in scene.points:
            for v in (*p.pos, *p.vel):
                assert abs(v) <= 10
                assert v.denominator <= 4

    def test_scene_always_valid(self):
        # duplicate-motion retry must leave every scene constructible
        for seed in range(30):
            scene = gen_random(5, seed, coord_bound=2)
            assert len(scene.points) == 5

    def test_too_few_motions_rejected(self):
        # refused before drawing: a coordinate set with fewer distinct
        # motions than n would otherwise redraw forever
        with pytest.raises(ValueError, match="coord_bound must be non-negative"):
            gen_random(3, 0, coord_bound=-1)
        with pytest.raises(ValueError, match="1 distinct motions"):
            gen_random(2, 0, coord_bound=0)
        # {0, +-1, +-1/2, +-1/3, +-1/4} per coordinate
        with pytest.raises(ValueError, match="6561 distinct motions"):
            gen_random(9**4 + 1, 0, coord_bound=1)
        assert len(gen_random(1, 0, coord_bound=0)) == 1

    def test_bounds_hold(self):
        for seed in range(10):
            n = len(gen_random(6, seed).points)
            count = count_k_collinearities(gen_random(6, seed), 3)
            assert count <= 2 * math.comb(n, 3)


@pytest.mark.parametrize(
    "build",
    [lambda: gen_random(0, 1), lambda: gen_no_collinearity(0), lambda: gen_no_collinearity_distinct(0)],
    ids=["random", "no_collinearity", "no_collinearity_distinct"],
)
def test_empty_scene_refused(build):
    with pytest.raises(ValueError, match="n must be positive"):
        build()
