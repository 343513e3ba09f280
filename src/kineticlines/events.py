"""Enumeration of k-collinearity events.

An event is a pair (line, time): at that exact time, at least three scene
points lie on the line, they do not all coincide, and the member set is
not collinear at every time. Events are maximal: members are every scene
point on the line at that time.

Enumeration is three layers: buckets, lines, events. _buckets makes one
pass over pivot fans (kinematics.triple_polynomials), which yields only
the triples that are collinear at some time, and puts every triple whose
polynomial has a root into a bucket under each of its
exact_numbers.root_keys keys: plain integers, a rational time's
lowest-terms pair, or one key for an irrational conjugate pair
a -+ sqrt(b), whose two times hold the same triples. The enumeration
path here expands no determinant and tests no discriminant.
_bucket_lines finds a bucket's lines with their member ids, tangential
flags and triple incidences: a rational bucket groups its triples by the
integer key of their line, and one ordered pass that joins each triple
to the line of a pair it shares with an earlier one (_components) serves
irrational buckets and always_collinear_groups.

enumerate_events alone builds events: the times of the kept buckets from
one exact_numbers.key_times call, each kept bucket's event shapes
(members, anchors and flags, with no time) found once before the walk
over times, the walk's order from time_order (the carried bounds, with
an exact comparison only where two overlap), and at each time one event
per shape of its bucket.
audit_bounds and count_k_collinearities stop at lines and count a pair
bucket's twice, with no time built, no radicand reduced, no sort and no
event object.

brute_force_events re-derives the same list from scratch for small scenes
and shares only the exact-number layer with the enumeration path, so the
two act as independent implementations of one contract.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exact_numbers import (
    AlgebraicTime,
    RootKey,
    key_times,
    root_keys,
    solve_quadratic,
    time_order,
)
from .kinematics import KineticPoint, Scene, TimeLike, triple_polynomials

# unused here; bench/tracing.py wraps these module attributes
from .exact_numbers import compare_times  # noqa: F401
from .kinematics import classify_triple, position_at  # noqa: F401

__all__ = [
    "CollinearityEvent",
    "BoundAudit",
    "enumerate_events",
    "count_k_collinearities",
    "always_collinear_groups",
    "audit_bounds",
    "brute_force_events",
]


@dataclass(frozen=True, slots=True)
class CollinearityEvent:
    """One maximal (line, time) collinearity event.

    members are the ids of every point on the line at the event time,
    sorted. anchors are the first two members (in sorted order) with
    distinct positions there; they span the event line. tangential is set
    when some member triple only touches collinearity at this time (a
    double root). contains_subcollision is set when some, but not all,
    members coincide at the event time. k must be the member count.
    """

    time: AlgebraicTime
    members: tuple[str, ...]
    k: int
    anchors: tuple[str, str]
    tangential: bool
    contains_subcollision: bool

    def __post_init__(self):
        if self.k != len(self.members):
            raise ValueError("k must equal the member count")

    def to_json(self) -> dict:
        return {
            "time": self.time.to_json(),
            "members": list(self.members),
            "k": self.k,
            "anchors": list(self.anchors),
            "tangential": self.tangential,
            "contains_subcollision": self.contains_subcollision,
        }


# a root triple a, b, c and whether the root is double
_Root = tuple[KineticPoint, KineticPoint, KineticPoint, bool]
# a bucket's lines and positions, as _bucket_lines returns them
_Lines = tuple[list[list], Optional[dict[str, tuple[int, int]]]]
# an event with no time: members, anchors, tangential, contains_subcollision
_Shape = tuple[tuple[str, ...], tuple[str, str], bool, bool]


def _components(roots: Sequence[_Root]) -> list[list]:
    """Triples joined through shared pairs into lines, each line as
    [its point ids, False, its triple count], the format of _bucket_lines.

    One pass in the order given: a triple (a, b, c) joins the line of the
    first of its pairs (a, b), (a, c) that one already has, or opens a
    new line, and then all three pairs point to that line, since a later
    triple may hold (b, c) as its own first or second pair. The
    records must be in combinations order of scene.points, as
    triple_polynomials yields them and _buckets appends them. Every triple
    is on one line, so no records give none.

    The callers pass the root triples of an irrational time or the
    always-collinear triples. In both, every pair is distinct and spans
    one line (two distinct motions meet at most once, at a rational time,
    and a group moves on the line of any two of its points), so no triple
    joins a wrong line, and no two lines need merging: each triple after a
    line's first shares its pair (a, b) or (a, c) with an earlier triple
    of that line. The first triple has the line's lowest point p1 as
    pivot. A later triple (u, v, w) with u != p1 shares (u, v) with
    (p1, u, v) or (u, w) with (p1, u, w), both earlier, and one of them is
    a record, for were both always collinear, (u, v, w) would be too. If
    u == p1, the first triple is some (p1, a, b) with a <= v. When a == v,
    (p1, v, w) is that triple or shares (p1, v) with it. When a < v, it
    shares (p1, v) with (p1, a, v) or (p1, w) with (p1, a, w), both
    earlier, one of them a record by the same argument. (A triple
    collinear at t that is not always collinear is a root triple of t; in
    a group every triple is always collinear.)
    """
    lines: list[list] = []
    line_of: dict[tuple[str, str], list] = {}
    for a, b, c, _ in roots:
        ab, ac, bc = (a.id, b.id), (a.id, c.id), (b.id, c.id)
        line = line_of.get(ab) or line_of.get(ac)
        if line is None:
            lines.append(line := [set(), False, 0])
        line[0].update((a.id, b.id, c.id))
        line[2] += 1
        line_of[ab] = line_of[ac] = line_of[bc] = line
    return lines


def _line_key(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int, int]:
    """The line through the distinct integer points p and q, as (dx, dy, c):
    (dx, dy) is q - p over its gcd, signed so that dx > 0, or dx == 0 and
    dy > 0, and every point (x, y) of the line has dx*y - dy*x == c."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = math.gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy, dx * p[1] - dy * p[0])


def _buckets(scene: Scene) -> tuple[dict[RootKey, list[_Root]], list[_Root]]:
    """Every triple in a bucket under each of its root keys, and the
    always-collinear triples, each list in combinations order.

    One pass over the pivot fans of triple_polynomials, looked up on this
    module at call time, gives the integer polynomial of each triple that
    is collinear at some time; the generator drops the rest, which have
    no real root and are not identically zero, so an identically zero
    polynomial still arrives. root_keys reports each: an identically zero
    polynomial is an always-collinear triple, and a double root is
    tangential. Equal times have equal keys, so a bucket
    holds every root triple at its time. An integer polynomial with the
    root a + sqrt(b) or a - sqrt(b), b a rational non-square, has both,
    so one pair bucket under (a, b), with one record per triple, holds
    every root triple at each of the two.
    """
    by_key: dict[RootKey, list[_Root]] = {}
    always = []
    for a, b, c, c2, c1, c0 in triple_polynomials(
        scene.points, skip_never_collinear=True
    ):
        keys, identically_zero, double_root = root_keys(c2, c1, c0)
        if identically_zero:
            always.append((a, b, c, double_root))
        for key in keys:
            by_key.setdefault(key, []).append((a, b, c, double_root))
    return by_key, always


def _bucket_lines(key: RootKey, roots: Sequence[_Root]) -> _Lines:
    """The lines of the bucket at key, each as [member ids, tangential,
    triple incidences], and the integer positions of the bucket's points
    (None for a pair key: conjugating a + sqrt(b) to a - sqrt(b) fixes
    the scene's rational motions, so its two times have the same lines).

    Two points distinct at t span one line, and a root triple with such a
    pair lies on that line only. A line is the points of the root triples
    on it: members are their union, tangential the OR of their flags. A
    triple whose points all coincide at t joins no line. Every line has
    at least three members and is one event.

    A rational bucket keys each root triple by its line, from integer
    positions over one denominator: P and Q are its first two points at
    distinct positions, and the key is (dx, dy, dx*P.y - dy*P.x) with
    (dx, dy) = (Q - P) / gcd, signed so that dx > 0, or dx == 0 and
    dy > 0 (_line_key). Any two distinct points of a line give its one
    key, so equal keys are exactly one line.

    Completeness: let S = (u, v, w) be a root triple, u and v distinct at
    t, and x a point on its line at t. Some root triple with a distinct
    pair holds x, and so lies on that line: (u, v, x) if it is not always
    collinear, since a triple collinear at t that is not always collinear
    has a root there. Otherwise x moves on the line uv, so neither
    (u, x, w) nor (v, x, w) is always collinear, or S would be. Both are
    root triples, and x is distinct from u or from v at t, so one of them
    has a distinct pair. The members of a line are therefore every point
    on it at t.

    Irrational times need no positions: two distinct motions meet at most
    once, at a rational time (kinematics.collision_time), so at an
    irrational t every pair is distinct, the anchors are the first two
    members, and no members coincide. Triples sharing a pair there share
    its line, and _components finds the lines in one pass over the root
    triples in their order, with no two of its lines to merge.

    One triple: by completeness, a fourth point on the line of a
    bucket's one root triple would put a second root triple there, so the
    line is one event of exactly those three points, or none when they
    all meet at t. Three points that meet at t0 make the triple
    polynomial (t - t0)**2 * cross(u, v), u and v the velocity
    differences, so that root is double: a one-triple bucket with a
    simple root is one line of three members and one incidence.
    enumerate_events builds such a bucket's one shape at an irrational t
    (the sorted ids, the first two of them, no flag), and audit_bounds
    counts it at any t, with no call here; at k_min >= 4 enumerate_events
    drops every one-triple bucket.

    Incidences: a member triple that is not always collinear is collinear
    at t, so it is a root triple of the bucket. One with a distinct pair
    belongs to its own line's event only; a coincident one to every event
    whose line equation its position satisfies.
    """
    if len(key) > 2:
        # every pair is distinct at an irrational time, and no root is double
        return _components(roots), None
    # integer positions at t = num/den over the one denominator
    # den*lcm(D), so that coincidence is tuple equality and a line has an
    # integer key. _components cannot serve here: it joins a triple to a
    # line through a shared pair, and at a rational t a pair can coincide
    # and span no line. With (p1, a, w) always collinear and v meeting p1
    # at t, the root triple (p1, v, w) has no distinct pair that an
    # earlier triple has seen.
    num, den = key
    forms = {pt.id: pt.homogeneous for root in roots for pt in root[:3]}
    common = math.lcm(*(form[4] for form in forms.values()))
    positions = {
        pid: ((x * den + vx * num) * (common // d), (y * den + vy * num) * (common // d))
        for pid, (x, y, vx, vy, d) in forms.items()
    }
    lines: dict[tuple[int, int, int], list] = {}
    coincident: list[tuple[int, int]] = []
    for pa, pb, pc, tangential in roots:
        qa, qb, qc = positions[pa.id], positions[pb.id], positions[pc.id]
        q = qb if qb != qa else qc
        if q == qa:
            coincident.append(qa)
            continue
        line = lines.setdefault(_line_key(qa, q), [set(), False, 0])
        line[0].update((pa.id, pb.id, pc.id))
        line[1] = line[1] or tangential
        line[2] += 1
    # 35 of a lower-bound-audit pass's 36 rational buckets have no
    # coincident triple; without this test, which spares each of their
    # lines the sum, the pass took 4.4-6.2% longer (medians of 80 paired
    # in-process passes at seeds 1 and 2)
    if coincident:
        # a coincident triple lies on every line through its one position
        for (dx, dy, c), line in lines.items():
            line[2] += sum(dx * y - dy * x == c for x, y in coincident)
    return list(lines.values()), positions


def _event_shapes(bucket: _Lines, k_min: int) -> list[_Shape]:
    """The events of a bucket with at least k_min members, ordered by
    member tuple, from the lines and positions that _bucket_lines gives,
    each as (members, anchors, tangential, contains_subcollision): the
    same at every time of the bucket, which enumerate_events stamps on."""
    lines, positions = bucket
    shapes = []
    for ids, tangential, _ in lines:
        if len(ids) < k_min:
            continue
        members = tuple(sorted(ids))
        anchors = members[:2]
        subcollision = False
        if positions is not None:
            anchors = next(
                (u, v) for u, v in combinations(members, 2) if positions[u] != positions[v]
            )
            subcollision = len({positions[m] for m in members}) < len(members)
        shapes.append((members, anchors, tangential, subcollision))
    # member tuples are distinct within a bucket, so they alone decide
    shapes.sort()
    return shapes


def enumerate_events(scene: Scene, k_min: int = 3) -> list[CollinearityEvent]:
    """All collinearity events with at least k_min members, sorted by time
    (ties broken by the member tuple). Deterministic for a given scene.

    The kept buckets of _buckets become their AlgebraicTimes in one
    key_times call, a pair key giving its two, and time_order orders the
    times by index, by the bounds key_times built, comparing two times
    exactly only where their bounds overlap, with no time hashed.
    Each kept bucket's event shapes (_event_shapes) are found once,
    before the walk over times, and listed once per time of the bucket,
    in key_times' order, so a pair key's two times share one list; a
    one-triple bucket at an irrational time is its own one shape and needs
    no lines. The walk stamps each time onto its shape list. At
    k_min >= 4 a one-triple bucket holds no event (see _bucket_lines) and
    is dropped before either step.
    """
    if k_min < 3:
        raise ValueError("k_min must be at least 3")
    kept = [item for item in _buckets(scene)[0].items() if k_min == 3 or len(item[1]) > 1]
    times = key_times([key for key, _ in kept])
    shapes = []
    for key, roots in kept:
        # every bucket of random-scenes and tight-extremal is one triple
        # at an irrational time; through _bucket_lines and the one-pass
        # _components their op_ref.p50 was 4.2% and 5.7% worse (medians
        # of 10 alternating pairs, 0/10 better on each)
        if len(key) > 2 and len(roots) == 1:
            a, b, c, _ = roots[0]
            members = tuple(sorted((a.id, b.id, c.id)))
            bucket_shapes = [(members, members[:2], False, False)]
        else:
            bucket_shapes = _event_shapes(_bucket_lines(key, roots), k_min)
        # one list per time: key_times gives a rational key (num, den) one
        # time and a pair key two, so shapes[j] serves times[j]
        shapes += [bucket_shapes] * (len(key) // 2)
    return [
        CollinearityEvent(times[j], members, len(members), anchors, tangential, subcollision)
        for j in time_order(times)
        for members, anchors, tangential, subcollision in shapes[j]
    ]


def count_k_collinearities(scene: Scene, k: int) -> int:
    """Number of events whose member count is at least k, counted by
    audit_bounds."""
    return audit_bounds(scene, k).event_count


def always_collinear_groups(scene: Scene) -> list[tuple[str, ...]]:
    """Maximal point sets (size >= 3) collinear at every time.

    Two always-collinear triples that share a pair move on the one line
    through that pair, whose points meet at most once, so the groups are
    the always-collinear triples of _buckets joined over shared pairs.
    """
    return sorted(tuple(sorted(ids)) for ids, _, _ in _components(_buckets(scene)[1]))


@dataclass(frozen=True)
class BoundAudit:
    """Event counts checked against the combinatorial ceilings.

    event_count counts events of size >= k; event_count_3 counts all
    events. bound_3 = 2*C(n,3) applies unconditionally; bound_k =
    floor(2*C(n,3) / C(k,3)) applies when no three points are always
    collinear. triple_incidences sums, over events, the member triples
    that are not always collinear.
    """

    n: int
    k: int
    event_count: int
    event_count_3: int
    triple_incidences: int
    bound_3: int
    bound_k: int
    no_three_always_collinear: bool
    passed: bool

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
        return payload


def audit_bounds(scene: Scene, k: int) -> BoundAudit:
    """Count the events and check the counts against both ceilings.

    The counts come from the lines of each bucket, in the one pass over
    the pivot fans that enumerate_events makes, but with no event built:
    no time, no sort, no member tuple, anchors or flags. A one-triple
    bucket with a simple root is one line of three members with one
    incidence (see _bucket_lines). A pair bucket's lines, members and
    incidences count at both its times.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    buckets, always = _buckets(scene)
    count_3 = count_k = incidences = 0
    for key, roots in buckets.items():
        times = len(key) // 2
        # a simple root: one line of its three points (see _bucket_lines),
        # as in 119 of the 155 buckets of a lower-bound-audit pass, which
        # took 17.9% and 16.8% longer through _bucket_lines at seeds 1 and
        # 2 (medians of 80 paired in-process passes, 0 and 5 faster)
        if len(roots) == 1 and not roots[0][3]:
            count_3 += times
            count_k += times * (k == 3)
            incidences += times
            continue
        lines = _bucket_lines(key, roots)[0] * times
        count_3 += len(lines)
        for ids, _, count in lines:
            count_k += len(ids) >= k
            incidences += count
    n = len(scene)
    bound_3 = 2 * math.comb(n, 3)
    bound_k = bound_3 // math.comb(k, 3)
    # a group exists exactly when some triple is always collinear
    no_three_always = not always
    passed = count_3 <= bound_3 and (not no_three_always or count_k <= bound_k)
    return BoundAudit(
        n=n,
        k=k,
        event_count=count_k,
        event_count_3=count_3,
        triple_incidences=incidences,
        bound_3=bound_3,
        bound_k=bound_k,
        no_three_always_collinear=no_three_always,
        passed=passed,
    )


# --- independent oracle ----------------------------------------------------
#
# Everything below re-derives events without touching the enumeration path
# above or the kinematics helpers: triple polynomials come from orientation
# samples at three times, positions and orientations are recomputed locally,
# each triple's polynomial and roots are found once, under its sorted ids,
# and member sets are grown from anchor pairs per candidate time.


def _bf_position(p: KineticPoint, t: TimeLike) -> tuple[TimeLike, TimeLike]:
    return (t * p.vel[0] + p.pos[0], t * p.vel[1] + p.pos[1])


def _bf_orientation(pa, pb, pc) -> TimeLike:
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def _bf_poly(
    a: KineticPoint, b: KineticPoint, c: KineticPoint
) -> tuple[Fraction, Fraction, Fraction]:
    # degree <= 2, so values at t = -1, 0, 1 pin the polynomial down
    f_minus, f_zero, f_plus = (
        _bf_orientation(*(_bf_position(p, Fraction(t)) for p in (a, b, c))) for t in (-1, 0, 1)
    )
    c2 = (f_plus + f_minus) / 2 - f_zero
    c1 = (f_plus - f_minus) / 2
    return (c2, c1, f_zero)


# the largest scene brute_force_events takes unless its caller raises the cap
ORACLE_CAP = 8


def brute_force_events(
    scene: Scene,
    time_candidates: Optional[Iterable[TimeLike]] = None,
    max_points: int = ORACLE_CAP,
) -> list[CollinearityEvent]:
    """Oracle re-derivation of the full event list for small scenes.

    Collects every triple root (or uses the supplied candidate times),
    then at each time grows member sets from every anchor pair and applies
    the event filters from first principles. Refuses scenes larger than
    max_points unless the caller raises the cap explicitly.
    """
    n = len(scene)
    if n > max_points:
        raise ValueError(f"scene has {n} points; the oracle cap is {max_points}")

    # both keyed by a triple's ids in sorted order, as combinations of
    # sorted ids yield them
    @cache
    def poly_of(trio: tuple[str, str, str]) -> tuple[Fraction, Fraction, Fraction]:
        return _bf_poly(*map(scene.point, trio))

    @cache
    def report_of(trio: tuple[str, str, str]):
        return solve_quadratic(*poly_of(trio))

    times: set[AlgebraicTime] = set()
    if time_candidates is None:
        for trio in combinations(sorted(p.id for p in scene.points), 3):
            times.update(report_of(trio).roots)
    else:
        for t in time_candidates:
            times.add(
                AlgebraicTime.make(t.p, t.q, t.d, t.r)
                if isinstance(t, AlgebraicTime)
                else AlgebraicTime.from_rational(t)
            )

    events: list[CollinearityEvent] = []
    for t in times:
        positions = {p.id: _bf_position(p, t) for p in scene.points}
        seen: set[tuple[str, ...]] = set()
        for a, b in combinations(scene.points, 2):
            pa, pb = positions[a.id], positions[b.id]
            if pa == pb:
                continue
            members = tuple(
                sorted(
                    pid
                    for pid, pw in positions.items()
                    if _bf_orientation(pa, pb, pw).is_zero()
                )
            )
            if len(members) < 3 or members in seen:
                continue
            seen.add(members)
            if all(poly_of(trio) == (0, 0, 0) for trio in combinations(members, 3)):
                continue
            anchors = next(
                (u, v) for u, v in combinations(members, 2) if positions[u] != positions[v]
            )
            tangential = any(
                (report := report_of(trio)).double_root
                and report.roots == (t,)
                and len({positions[m] for m in trio}) > 1
                for trio in combinations(members, 3)
            )
            events.append(
                CollinearityEvent(
                    time=t,
                    members=members,
                    k=len(members),
                    anchors=anchors,
                    tangential=tangential,
                    contains_subcollision=len({positions[m] for m in members}) < len(members),
                )
            )
    # every time here is canonical, so == on times is equality of values
    return sorted(events, key=lambda e: (e.time, e.members))
