import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from kineticlines import CollinearityEvent, KineticPoint, Scene
from kineticlines.exact_numbers import RATIONAL_DIGIT_LIMIT


def rationals(bound: int = 50, max_den: int = 12):
    return st.fractions(
        min_value=Fraction(-bound), max_value=Fraction(bound), max_denominator=max_den
    )


def coords(bound: int = 20, max_den: int = 8):
    return st.tuples(rationals(bound, max_den), rationals(bound, max_den))


def kinetic_points(label: str):
    return st.builds(lambda pos, vel: KineticPoint.make(label, pos, vel), coords(), coords())


def triples():
    """Three points with pairwise distinct motions, as a valid scene would hold."""
    return st.tuples(kinetic_points("a"), kinetic_points("b"), kinetic_points("c")).filter(
        lambda t: len({(p.pos, p.vel) for p in t}) == 3
    )


def event_key(e: CollinearityEvent):
    return (str(e.time), e.members, e.anchors, e.tangential, e.contains_subcollision)


def serialized(events):
    return [event_key(e) for e in events]


def rational_position(point: KineticPoint, t) -> tuple[Fraction, Fraction]:
    """pos + t * vel at a rational t, in Fractions, apart from position_at."""
    return (point.pos[0] + t * point.vel[0], point.pos[1] + t * point.vel[1])


def make_scene(*specs) -> Scene:
    return Scene(
        tuple(KineticPoint.make(pid, pos, vel) for pid, pos, vel in specs)
    )


def parameter_cube(m: int) -> Scene:
    """The point (a, 0) moving with velocity (b, c), for each (a, b, c) in
    [1..m]**3: m**3 points, all on y = 0 at t = 0."""
    return make_scene(
        *((f"{a}{b}{c}", (a, 0), (b, c)) for a, b, c in product(range(1, m + 1), repeat=3))
    )


def kinetic_grid(k: int, m: int) -> Scene:
    """The point (x, y) moving with velocity (0, x**2), for x in [1..k] and
    y in [1..m]: k always-collinear columns of m points each."""
    return make_scene(
        *((f"{x}_{y}", (x, y), (0, x * x)) for x, y in product(range(1, k + 1), range(1, m + 1)))
    )


def far_time_scene() -> Scene:
    """A valid scene whose one event is at a rational time near 10**313,
    beyond float range. a is parked at the origin, and b and c share the
    velocity (1/q1, 1/q2); x, y and b make the determinant
    b*y + t/(q1*q2*q3), so abc is collinear once, at t = -b*y*q1*q2*q3."""
    q1, q2, q3 = 10**63 + 7, 10**63 + 9, 10**63 + 13
    y = pow(q2 * q3, -1, q1)
    x_wide = (y * q2 * q3 - 1) // q1
    x = x_wide % q3
    b = (x - x_wide) // q3
    vel = (Fraction(1, q1), Fraction(1, q2))
    return make_scene(
        ("a", (0, 0), (0, 0)),
        ("b", (b, 0), vel),
        ("c", (Fraction(x, q3), y), vel),
    )


def degenerate_scene(n: int, seed: int) -> Scene:
    """A seeded scene of n points that plants, as far as n allows and in
    a seeded order, every case the event pipeline branches on, then fills
    up with random points and shuffles:
    - a k-point line at a rational time t0, k = 4..6, one of its points
      at about RATIONAL_DIGIT_LIMIT - 6 digits per numerator and
      denominator, so that an affine map with small rationals stays
      under the limit, and a point that meets another of its points at
      t0, which puts it on the line too;
    - a k-point line at an irrational time a + sqrt(b);
    - collisions of two, three and four points at rational times, the
      first at t0 or at the graze's time;
    - two always-collinear groups, one with a shared velocity and one
      with velocities V + lam*E for positions A + lam*D;
    - a tangential graze: a triple whose polynomial is c*(t - s)**2;
    - two points with equal velocities.
    """
    rng = random.Random(seed)

    def small(bound=6):
        return rng.randint(-bound, bound)

    def time():
        return Fraction(small(4), rng.randint(1, 3))

    def velocity():
        return (small(3), small(3))

    def at(x, t, v):
        # the motion through x at time t with velocity v
        return ((x[0] - t * v[0], x[1] - t * v[1]), v)

    def moving_line(size, shared):
        # positions A + lam*D and velocities V + lam*E: on one line at
        # every time; a shared velocity is E = 0
        (ax, ay), (dx, dy) = (small(), small()), (rng.randint(1, 3), small(3))
        vx, vy = velocity()
        ex, ey = (0, 0) if shared else (rng.randint(1, 2), small(2))
        return [
            ((ax + lam * dx, ay + lam * dy), (vx + lam * ex, vy + lam * ey))
            for lam in rng.sample(range(-4, 5), size)
        ]

    t0 = time()
    px, py, dx, dy = small(), small(), rng.randint(1, 3), small(3)
    digits = 10 ** (RATIONAL_DIGIT_LIMIT - 7)
    near_limit = Fraction(rng.randrange(digits, 10 * digits), rng.randrange(digits, 10 * digits))
    line = [
        at((px + lam * dx, py + lam * dy), t0, velocity())
        for lam in [*rng.sample(range(-5, 6), rng.randint(3, 5)), near_limit]
    ]
    first_pos, first_vel = line[0]
    meet = (first_pos[0] + t0 * first_vel[0], first_pos[1] + t0 * first_vel[1])
    partner = at(meet, t0, (first_vel[0] + rng.randint(1, 2), first_vel[1] - 1))

    b = rng.choice((2, 3, 5, 6, 7))
    a = Fraction(small(3), rng.randint(1, 2))
    m0, c0, c1, m1 = small(3), small(3), small(3), rng.choice((-2, -1, 1, 2))
    irrational_line = []
    for _ in range(rng.randint(4, 5)):
        # at t = a + sqrt(b), x is X0 + X1*sqrt(b) and y = m*x + c with
        # m = m0 + m1*sqrt(b), c = c0 + c1*sqrt(b)
        x, vx = small(5), small(3)
        x0, x1 = x + a * vx, vx
        vy = m0 * x1 + m1 * x0 + c1
        irrational_line.append(((x, m0 * x0 + b * m1 * x1 + c0 - a * vy), (vx, vy)))

    # the triple of points at rest at 0, at (0, 1) + t*(1, 0) and at
    # (-1, -2) + t*(0, 1) grazes collinearity at t = 1, as (t - 1)**2; an
    # invertible linear map M, a shift by s in time and a common velocity W
    # keep it a graze, at t = 1 + s
    (m00, m01), (m10, m11) = rng.choice((((1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, -2), (3, 1))))
    s, (wx, wy), (ox, oy) = time(), velocity(), (small(), small())
    graze = []
    for (x, y), (vx, vy) in (((0, 0), (0, 0)), ((0, 1), (1, 0)), ((-1, -2), (0, 1))):
        ux, uy = m00 * vx + m01 * vy, m10 * vx + m11 * vy
        graze.append(
            (
                (m00 * x + m01 * y + ox - s * ux, m10 * x + m11 * y + oy - s * uy),
                (ux + wx, uy + wy),
            )
        )

    t1, t2, t3 = rng.choice((t0, 1 + s)), time(), time()
    x1, x2, x3 = (small(), small()), (small(), small()), (small(), small())
    pair = [at(x1, t1, (i, small(2))) for i in (-1, 2)]
    three = [at(x2, t2, v) for v in ((1, 0), (0, 1), (-1, rng.randint(2, 3)))]
    four = [at(x3, t3, v) for v in ((1, 1), (0, -1), (-2, 1), (2, rng.randint(-3, -2)))]
    shared = velocity()
    equal = [((small(), small()), shared), ((small(), small()), shared)]

    plants = [
        line + [partner],
        irrational_line,
        pair,
        three,
        four,
        moving_line(rng.randint(3, 4), True),
        moving_line(rng.randint(3, 4), False),
        graze,
        equal,
    ]
    rng.shuffle(plants)
    motions: dict = {}
    for plant in plants:
        if len(motions) + len(plant) <= n:
            motions.update(
                dict.fromkeys(
                    (tuple(map(Fraction, pos)), tuple(map(Fraction, vel))) for pos, vel in plant
                )
            )
    while len(motions) < n:
        pos = (Fraction(small(8), rng.randint(1, 3)), Fraction(small(8)))
        motions.setdefault((pos, (Fraction(small(4)), Fraction(small(4), rng.randint(1, 2)))))
    order = list(motions)
    rng.shuffle(order)
    return make_scene(*((f"p{i}", pos, vel) for i, (pos, vel) in enumerate(order)))
