from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from kineticlines import CollinearityEvent, KineticPoint, Scene


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
