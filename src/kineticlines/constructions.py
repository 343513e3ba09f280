"""Scene generators with known extremal or degenerate behavior.

Families:
  tight / tight_ellipse   n unit-speed (resp. distinct-speed) points whose
                          triples each turn collinear exactly twice, so the
                          event count hits 2*C(n,3).
  no_collinearity         points riding a growing circle; no three are ever
                          collinear and no two ever collide.
  no_collinearity_distinct  stretched variant with pairwise distinct speeds
                          and pairwise non-parallel directions.
  lower_bound             many k-member events: two drifting columns when n
                          is large relative to k, else coincident clusters
                          on a parabola.
  random                  seeded scenes with small rational coordinates.

The tight families need cosines, sines and a square root of irrational
angles. These are computed with Python integers alone, in fixed point
with 96 guard bits (pi by Machin's formula, Taylor series, math.isqrt),
and rounded half up onto a dyadic grid at a caller-chosen precision;
every generated scene is exact rational input from there on.
verify_tight_certificate re-checks, per instance and on the integer
triple polynomials, the sign pattern that forces each triple of a tight
scene to have two collinearity times.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact_numbers import RATIONAL_DIGIT_LIMIT
from .kinematics import KineticPoint, Scene, triple_polynomials

__all__ = [
    "ConstructionParams",
    "gen_tight",
    "gen_tight_ellipse",
    "gen_no_collinearity",
    "gen_no_collinearity_distinct",
    "gen_lower_bound",
    "gen_random",
    "TightCertificate",
    "verify_tight_certificate",
]

DEFAULT_PRECISION_BITS = 40
# fractional bits the tight scenes carry beyond their dyadic grid
_GUARD_BITS = 96


def _arccot(x: int, one: int) -> int:
    """arccot(x) = arctan(1/x) for an integer x > 1, in fixed point with
    one = 2**frac, by its alternating Taylor series."""
    power = total = one // x
    k, sign = 3, -1
    while power:
        power //= x * x
        total += sign * (power // k)
        k, sign = k + 2, -sign
    return total


def _sin_cos(a: int, one: int) -> tuple[int, int]:
    """(sin, cos) of a/one for 0 < a/one < 1, in fixed point with one = 2**frac."""
    terms = []
    term, k = one, 0
    while term:
        terms.append(term)
        k += 1
        term = term * a // (one * k)
    return (
        sum(terms[1::4]) - sum(terms[3::4]),
        sum(terms[0::4]) - sum(terms[2::4]),
    )


def _tight_scene(construction: str, n: int, bits: int, speed_of) -> Scene:
    """Points i = 1..n at angle theta = 3*pi/2 + pi/(4i): velocity
    speed * (cos, sin)(theta), position -s * (cos, sin)(theta), with
    s = chord - sqrt(chord**2 - 1) and chord = cos(theta) - sin(theta).
    Each coordinate is rounded half up onto the grid 2**-bits.

    The arithmetic is fixed point on integers, one = 2**(bits + 96): pi by
    Machin's formula, sin and cos of a = pi/(4i) by Taylor series
    (cos(theta) = sin(a), sin(theta) = -cos(a)), the square root by
    math.isqrt. speed_of(ct, one) maps cos(theta) to the speed in the same
    fixed point. Why 96 guard bits are enough: each truncated series term
    and each product is off by less than one unit of 2**-(bits + 96), and
    the square root enlarges the error before it by chord /
    sqrt(chord**2 - 1), about sqrt(i). Against the same computation with
    400 guard bits the total stays under 150 units for i <= 2000 and
    bits <= 200, while half a grid step is 2**95 units. So a coordinate
    rounds as its exact value does unless that value lies within this
    error of a rounding tie.
    """
    if n < 3:
        raise ValueError("tight scenes need n >= 3")
    if bits < 0:
        raise ValueError(f"precision_bits must be non-negative, got {bits}")
    # a coordinate's denominator is 2**bits, which must stay under the
    # scene digit limit; refused before pi is computed to that precision
    max_bits = (10**RATIONAL_DIGIT_LIMIT - 1).bit_length() - 1
    if bits > max_bits:
        raise ValueError(f"precision_bits must be at most {max_bits} (digit limit), got {bits}")
    frac = bits + _GUARD_BITS
    one = 1 << frac
    pi = 4 * (4 * _arccot(5, one) - _arccot(239, one))

    def grid(value: int) -> Fraction:
        return Fraction((value + (1 << (_GUARD_BITS - 1))) >> _GUARD_BITS, 1 << bits)

    points = []
    for i in range(1, n + 1):
        ct, cos_a = _sin_cos(pi // (4 * i), one)
        chord = ct + cos_a
        s = chord - math.isqrt(chord * chord - one * one)
        speed = speed_of(ct, one)
        points.append(
            KineticPoint.make(
                f"p{i}",
                (grid((-s * ct) >> frac), grid((s * cos_a) >> frac)),
                (grid((speed * ct) >> frac), grid((-speed * cos_a) >> frac)),
            )
        )
    return Scene(
        tuple(points),
        meta={
            "construction": construction,
            "n": n,
            "precision_bits": bits,
            "order_by_angle": [f"p{i}" for i in range(n, 0, -1)],
        },
    )


def gen_tight(n: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Scene:
    """Unit-speed scene whose event count reaches 2*C(n,3), all triples.

    The count holds only when verify_tight_certificate passes on the
    scene; the generator does not run it (O(n**3)). A grid too coarse for
    n rounds some triples out of the construction: gen_tight(40, 16) has
    249 failing triples and 19740 events instead of 19760. Raise
    precision_bits for large n.
    """
    return _tight_scene("tight", n, precision_bits, lambda ct, one: one)


def gen_tight_ellipse(n: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Scene:
    """Tight-style scene with pairwise distinct speeds 1 / (1 - cos(theta)/2).

    As for gen_tight, 2*C(n,3) events are reached only when
    verify_tight_certificate passes; at gen_tight_ellipse(40, 16), 230
    triples fail. Raise precision_bits for large n.
    """
    return _tight_scene(
        "tight_ellipse", n, precision_bits, lambda ct, one: 2 * one * one // (2 * one - ct)
    )


def _circle_param(i: int) -> tuple[Fraction, Fraction]:
    # rational point on the unit circle from the tangent half-angle s
    s = Fraction(i + 1, i)
    x = (1 - s * s) / (1 + s * s)
    y = 2 * s / (1 + s * s)
    return x, y


def _circle_scene(construction: str, n: int, stretch: int) -> Scene:
    """Points i = 1..n at _circle_param(i) = (x, y) with x stretched by
    stretch: position (stretch*x, y), velocity (stretch*y, -x)."""
    if n < 1:
        raise ValueError("n must be positive")
    points = []
    for i in range(1, n + 1):
        x, y = _circle_param(i)
        points.append(KineticPoint.make(f"p{i}", (stretch * x, y), (stretch * y, -x)))
    return Scene(tuple(points), meta={"construction": construction, "n": n})


def gen_no_collinearity(n: int) -> Scene:
    """Points on the unit circle rotating outward: position p, velocity p
    turned a quarter turn, so |p + t v|^2 = 1 + t^2 for every point and
    all n stay on a common circle at every time. No event ever occurs and
    no two points ever meet."""
    return _circle_scene("no_collinearity", n, 1)


def gen_no_collinearity_distinct(n: int) -> Scene:
    """Ellipse variant of gen_no_collinearity: x is stretched by 2, so the
    points ride x^2/4 + y^2 = 1 + t^2. Speeds are pairwise distinct
    (|v|^2 = 1 + 3 y^2 with distinct y^2) and directions are pairwise
    non-parallel."""
    return _circle_scene("no_collinearity_distinct", n, 2)


def gen_lower_bound(n: int, k: int) -> Scene:
    """Scene with many events of k or more members.

    With n >= k*k: k families of n//k points on the columns x=0 and x=1,
    family i drifting at (0, i-1). Family points pass each other inside
    each column, and every coincidence spot pairs with every spot on the
    other column to give a k-member event. Leftover points (n mod k) are
    omitted and counted in meta["discarded_points"].

    With k <= n < k*k: n//k clusters of coincident points on the parabola
    y = x^2, point j moving at (j, j^2) with j unique across the scene.
    At t=0 each pair of cluster sites spans a line holding two whole
    clusters. No three points are ever always collinear in this regime.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if n < k:
        raise ValueError("n must be at least k")
    points = []
    if n >= k * k:
        m = n // k
        for fam in range(1, k + 1):
            side, idx = ("a", fam) if fam <= k // 2 else ("b", fam - k // 2)
            x = Fraction(0) if side == "a" else Fraction(1)
            for j in range(1, m + 1):
                points.append(
                    KineticPoint.make(
                        f"{side}{idx}_{j}", (x, Fraction(j)), (Fraction(0), Fraction(fam - 1))
                    )
                )
        meta = {
            "construction": "lower_bound",
            "regime": "two_line",
            "n": n,
            "k": k,
            "per_family": m,
            "discarded_points": n - m * k,
        }
    else:
        clusters = n // k
        base, rem = divmod(n, clusters)
        sizes = [base + 1] * rem + [base] * (clusters - rem)
        j = 0
        for ci, size in enumerate(sizes, start=1):
            site = (Fraction(ci), Fraction(ci * ci))
            for _ in range(size):
                j += 1
                points.append(
                    KineticPoint.make(f"c{ci}_{j}", site, (Fraction(j), Fraction(j * j)))
                )
        meta = {
            "construction": "lower_bound",
            "regime": "cluster",
            "n": n,
            "k": k,
            "cluster_sizes": sizes,
            "discarded_points": 0,
        }
    return Scene(tuple(points), meta=meta)


def gen_random(n: int, seed: int, coord_bound: int = 100) -> Scene:
    """Seeded scene with coordinates num/den, |num| <= coord_bound and
    den <= 4. Motions (position, velocity) are redrawn on collision with
    an earlier point's motion, so the scene is always valid. ValueError,
    before anything is drawn, when coord_bound is negative or n exceeds
    the number of distinct motions."""
    if n < 1:
        raise ValueError("n must be positive")
    if coord_bound < 0:
        raise ValueError("coord_bound must be non-negative")
    # the distinct coordinates are 0 and +-p/q in lowest terms, 1 <= p <=
    # coord_bound: any p for q = 1, odd p for q = 2 and 4, p prime to 3 for
    # q = 3
    b = coord_bound
    motions = (1 + 2 * (b + 2 * ((b + 1) // 2) + b - b // 3)) ** 4
    if n > motions:
        raise ValueError(
            f"n = {n} exceeds the {motions} distinct motions of coord_bound = {coord_bound}"
        )
    rng = _random.Random(seed)

    def coord():
        return Fraction(rng.randint(-coord_bound, coord_bound), rng.randint(1, 4))

    points = []
    motions = set()
    for i in range(1, n + 1):
        while True:
            pos = (coord(), coord())
            vel = (coord(), coord())
            if (pos, vel) not in motions:
                motions.add((pos, vel))
                break
        points.append(KineticPoint.make(f"p{i}", pos, vel))
    return Scene(
        tuple(points),
        meta={"construction": "random", "n": n, "seed": seed, "coord_bound": coord_bound},
    )


# each construction kind's builder from a ConstructionParams, in
# alphabetical order of kind
_BUILDERS = {
    "lower_bound": lambda params: gen_lower_bound(params.n, params.k),
    "no_collinearity": lambda params: gen_no_collinearity(params.n),
    "no_collinearity_distinct": lambda params: gen_no_collinearity_distinct(params.n),
    "random": lambda params: gen_random(params.n, params.seed, params.coord_bound),
    "tight": lambda params: gen_tight(params.n, params.precision_bits),
    "tight_ellipse": lambda params: gen_tight_ellipse(params.n, params.precision_bits),
}
CONSTRUCTION_KINDS = tuple(_BUILDERS)


@dataclass(frozen=True)
class ConstructionParams:
    """Validated request for one generated scene.

    k applies to lower_bound only; precision_bits to the tight family;
    seed and coord_bound to random. Inapplicable settings are ignored.
    """

    name: str
    n: int
    k: Optional[int] = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    seed: int = 0
    coord_bound: int = 100

    def __post_init__(self):
        if self.name not in CONSTRUCTION_KINDS:
            raise ValueError(
                f"unknown construction {self.name!r}; choose from {CONSTRUCTION_KINDS}"
            )
        if self.name == "lower_bound":
            if self.k is None:
                raise ValueError("lower_bound requires k")
        elif self.k is not None:
            raise ValueError(f"construction {self.name!r} does not take k")

    def build(self) -> Scene:
        return _BUILDERS[self.name](self)


@dataclass(frozen=True)
class TightCertificate:
    """Exact-arithmetic sign check that every triple of a tight scene turns
    collinear exactly twice: each triple polynomial must be nonzero at
    t=0 and have the opposite sign at t = +/-T, so it owns one root on
    each side of zero and both inside (-T, T). That makes it genuinely
    quadratic with no test of its own: with c2 == 0 the values at +T and
    -T sum to 2*c0, so they cannot both have the sign opposite to c0."""

    passed: bool
    triples_checked: int
    failing_triples: tuple[tuple[str, str, str], ...]


# T of the tight certificate: each triple's two roots must lie in (-T, T),
# so that at t = +-T the polynomial has the sign opposite to its sign at 0
_CERTIFICATE_T = 1 << 20


def verify_tight_certificate(scene: Scene) -> TightCertificate:
    order = scene.meta.get("order_by_angle")
    if scene.meta.get("construction") not in ("tight", "tight_ellipse") or not order:
        raise ValueError("scene was not produced by a tight construction")
    pts = [scene.point(pid) for pid in order]
    failing = []
    checked = 0
    # the sign tests below do not depend on the polynomial's positive scale
    for a, b, c, c2, c1, c0 in triple_polynomials(pts):
        checked += 1
        at_plus = (c2 * _CERTIFICATE_T + c1) * _CERTIFICATE_T + c0
        at_minus = (c2 * _CERTIFICATE_T - c1) * _CERTIFICATE_T + c0
        if not (c0 * at_plus < 0 and c0 * at_minus < 0):
            failing.append((a.id, b.id, c.id))
    return TightCertificate(
        passed=not failing,
        triples_checked=checked,
        failing_triples=tuple(failing),
    )
