"""Exact enumeration of collinearity events among points moving along lines.

A scene is a finite set of kinetic points, each with rational position
and velocity. The library finds every (line, time) pair at which three
or more points are collinear, in exact arithmetic: event times live in
quadratic number fields and are compared symbolically, never by float.
"""

from .exact_numbers import (
    AlgebraicTime,
    QuadraticRootReport,
    compare_times,
    evaluate_at_time,
    parse_rational,
    rational_str,
    solve_quadratic,
    square_reduce,
)
from .kinematics import (
    KineticPoint,
    Scene,
    SceneError,
    TripleClassification,
    TripleKind,
    classify_triple,
    collinearity_polynomial,
    collision_time,
    position_at,
    position_at_rational,
)
from .surfaces import (
    SurfaceClass,
    SurfaceKind,
    SurfacePolynomial,
    classify_surface,
    surface_contains,
    surface_of_pair,
)
from .events import (
    BoundAudit,
    CollinearityEvent,
    always_collinear_groups,
    audit_bounds,
    brute_force_events,
    count_k_collinearities,
    enumerate_events,
)
from .constructions import (
    ConstructionParams,
    TightCertificate,
    gen_lower_bound,
    gen_no_collinearity,
    gen_no_collinearity_distinct,
    gen_random,
    gen_tight,
    gen_tight_ellipse,
    verify_tight_certificate,
)
from .sceneio import (
    SCENE_VERSION,
    events_to_csv,
    events_to_json,
    load_scene,
    save_scene,
    scene_from_json,
    scene_to_json,
)
from .render import render_at_events, render_scene

__version__ = "0.1.0"

__all__ = [
    "AlgebraicTime",
    "QuadraticRootReport",
    "compare_times",
    "evaluate_at_time",
    "parse_rational",
    "rational_str",
    "solve_quadratic",
    "square_reduce",
    "KineticPoint",
    "Scene",
    "SceneError",
    "TripleClassification",
    "TripleKind",
    "classify_triple",
    "collinearity_polynomial",
    "collision_time",
    "position_at",
    "position_at_rational",
    "SurfaceClass",
    "SurfaceKind",
    "SurfacePolynomial",
    "classify_surface",
    "surface_contains",
    "surface_of_pair",
    "BoundAudit",
    "CollinearityEvent",
    "always_collinear_groups",
    "audit_bounds",
    "brute_force_events",
    "count_k_collinearities",
    "enumerate_events",
    "ConstructionParams",
    "TightCertificate",
    "gen_lower_bound",
    "gen_no_collinearity",
    "gen_no_collinearity_distinct",
    "gen_random",
    "gen_tight",
    "gen_tight_ellipse",
    "verify_tight_certificate",
    "SCENE_VERSION",
    "events_to_csv",
    "events_to_json",
    "load_scene",
    "save_scene",
    "scene_from_json",
    "scene_to_json",
    "render_at_events",
    "render_scene",
    "__version__",
]
