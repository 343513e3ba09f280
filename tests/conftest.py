from fractions import Fraction

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


def make_scene(*specs) -> Scene:
    return Scene(
        tuple(KineticPoint.make(pid, pos, vel) for pid, pos, vel in specs)
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
