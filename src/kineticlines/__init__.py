"""Exact enumeration of collinearity events among points moving along lines.

A scene is a finite set of kinetic points, each with rational position
and velocity. The library finds every (line, time) pair at which three
or more points are collinear, in exact arithmetic: event times live in
quadratic number fields and are compared symbolically, never by float.

Each module's __all__ is its public list; the package re-exports them.
"""

from .exact_numbers import *
from .kinematics import *
from .surfaces import *
from .events import *
from .constructions import *
from .sceneio import *
from .render import *

__version__ = "0.1.0"

__all__ = [
    *exact_numbers.__all__,
    *kinematics.__all__,
    *surfaces.__all__,
    *events.__all__,
    *constructions.__all__,
    *sceneio.__all__,
    *render.__all__,
    "__version__",
]
