"""The ruled surface swept in (x, y, t)-space by the line through two moving points.

For points a and b the function
F(x, y, t) = det[[x, y, 1], [x_a(t), y_a(t), 1], [x_b(t), y_b(t), 1]]
vanishes exactly on the union of the lines through a(t) and b(t), one per
time slice. F is linear in x and y and quadratic in t, so seven rational
coefficients describe it completely, and its zero set is one of three
shapes depending on how the two trajectories relate.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .exact_numbers import AlgebraicTime
from .kinematics import KineticPoint, TimeLike, collinearity_polynomial, collision_time

__all__ = [
    "SurfaceClass",
    "SurfaceKind",
    "SurfacePolynomial",
    "classify_surface",
    "surface_contains",
    "surface_of_pair",
]

Plane = tuple[Fraction, Fraction, Fraction, Fraction]

# points parked at (0, 0), (1, 0) and (0, 1), where surface_of_pair reads F
_PARKED = tuple(KineticPoint.make("", pos, (0, 0)) for pos in ((0, 0), (1, 0), (0, 1)))


@dataclass(frozen=True)
class SurfacePolynomial:
    """F(x, y, t) = (coeff_x + coeff_xt*t)*x + (coeff_y + coeff_yt*t)*y
    + coeff_1 + coeff_t*t + coeff_tt*t*t, all coefficients rational."""

    coeff_x: Fraction
    coeff_xt: Fraction
    coeff_y: Fraction
    coeff_yt: Fraction
    coeff_1: Fraction
    coeff_t: Fraction
    coeff_tt: Fraction

    def evaluate(self, x: TimeLike, y: TimeLike, t: TimeLike) -> AlgebraicTime:
        """Exact value of F at a point whose coordinates may be quadratic."""
        tv = t if isinstance(t, AlgebraicTime) else AlgebraicTime.from_rational(t)
        return (
            x * (tv * self.coeff_xt + self.coeff_x)
            + y * (tv * self.coeff_yt + self.coeff_y)
            + tv * tv * self.coeff_tt
            + tv * self.coeff_t
            + self.coeff_1
        )

    def coefficients(self) -> tuple[Fraction, ...]:
        """The seven coefficients in field order."""
        return astuple(self)


class SurfaceKind(Enum):
    NON_HORIZONTAL_PLANE = "non_horizontal_plane"
    HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE = "horizontal_plus_non_horizontal_plane"
    HYPERBOLIC_PARABOLOID = "hyperbolic_paraboloid"


@dataclass(frozen=True)
class SurfaceClass:
    """Shape of the pair surface.

    plane holds (A, B, C, D) with A*x + B*y + C*t + D = 0 for the planar
    sheet that is not horizontal, when one exists. collision_time is the
    t of the horizontal sheet t = t_c in the degenerate colliding case.
    """

    kind: SurfaceKind
    plane: Optional[Plane]
    collision_time: Optional[Fraction]


def surface_of_pair(a: KineticPoint, b: KineticPoint) -> SurfacePolynomial:
    """The seven coefficients of F for the pair (a, b).

    F(x, y, t) is det(a, b, P) for a point P parked at (x, y), the cyclic
    shift of the rows above. So collinearity_polynomial(a, b, P) at P =
    (0, 0) gives the t-only block, and since F is linear in x and y, its
    differences at (1, 0) and (0, 1) give the x and y blocks.
    """
    if a.pos == b.pos and a.vel == b.vel:
        raise ValueError("pair surface needs two distinct kinetic points")
    (tt, t, one), (_, xt, x), (_, yt, y) = (collinearity_polynomial(a, b, p) for p in _PARKED)
    return SurfacePolynomial(x - one, xt - t, y - one, yt - t, one, t, tt)


def classify_surface(a: KineticPoint, b: KineticPoint) -> SurfaceClass:
    """Classify the pair surface by how the two trajectories relate.

    Equal velocities give a single non-horizontal plane. A collision at
    t_c splits F into (t_c - t) times a non-horizontal plane, so the zero
    set is that plane together with the horizontal plane t = t_c. Skew
    trajectories give a hyperbolic paraboloid (no planar factor).
    """
    surf = surface_of_pair(a, b)
    if a.vel == b.vel:
        # the t-dependent blocks vanish identically for a rigid pair
        plane = (surf.coeff_x, surf.coeff_y, surf.coeff_t, surf.coeff_1)
        return SurfaceClass(SurfaceKind.NON_HORIZONTAL_PLANE, plane, None)
    t_c = collision_time(a, b)
    if t_c is not None:
        plane = _linear_factor(surf, t_c)
        return SurfaceClass(
            SurfaceKind.HORIZONTAL_PLUS_NON_HORIZONTAL_PLANE, plane, t_c
        )
    return SurfaceClass(SurfaceKind.HYPERBOLIC_PARABOLOID, None, None)


def _linear_factor(surf: SurfacePolynomial, t_c: Fraction) -> Plane:
    """Divide F by (t - t_c); every block of F vanishes at t_c when the
    pair collides there, so the quotient is the plane A*x + B*y + C*t + D."""
    plane_a = surf.coeff_xt
    plane_b = surf.coeff_yt
    plane_c = surf.coeff_tt
    plane_d = surf.coeff_t + t_c * surf.coeff_tt
    exact = (
        surf.coeff_x == -t_c * plane_a
        and surf.coeff_y == -t_c * plane_b
        and surf.coeff_1 == -t_c * plane_d
    )
    if not exact:
        raise RuntimeError("pair surface did not factor at its collision time")
    return (plane_a, plane_b, plane_c, plane_d)


def surface_contains(
    surf: SurfacePolynomial, x: TimeLike, y: TimeLike, t: TimeLike
) -> bool:
    """Exact membership test of a spacetime point in the surface."""
    return surf.evaluate(x, y, t).is_zero()
