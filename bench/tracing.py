"""Spans around the library's public functions, for the traced run only.

Each function is wrapped at every module attribute the program looks it up
by at call time; the untraced run never installs a wrapper. A span is
(name, start, end, parent index), appended to an in-memory list. A span's
self time is its duration minus the durations of its child spans, which
cannot overlap in one thread.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

GENERATE = "constructions.generate"

# (module, attribute, span name)
WRAP_POINTS = (
    ("kineticlines", "gen_random", GENERATE),
    ("kineticlines", "gen_tight", GENERATE),
    ("kineticlines", "gen_tight_ellipse", GENERATE),
    ("kineticlines", "gen_no_collinearity_distinct", GENERATE),
    ("kineticlines", "gen_lower_bound", GENERATE),
    ("kineticlines", "enumerate_events", "events.enumerate_events"),
    ("kineticlines", "audit_bounds", "events.audit_bounds"),
    ("kineticlines", "events_to_json", "sceneio.events_to_json"),
    ("kineticlines.events", "always_collinear_groups", "events.always_collinear_groups"),
    ("kineticlines.events", "classify_triple", "kinematics.classify_triple"),
    ("kineticlines.events", "position_at", "kinematics.position_at"),
    ("kineticlines.events", "compare_times", "exact_numbers.compare_times"),
    ("kineticlines.exact_numbers", "compare_times", "exact_numbers.compare_times"),
    ("kineticlines.kinematics", "solve_quadratic", "exact_numbers.solve_quadratic"),
    ("kineticlines.exact_numbers", "square_reduce", "exact_numbers.square_reduce"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAP_POINTS))

# results counted at the boundary where they are produced
TALLIES = {"kinematics.classify_triple": lambda result: bool(result.times)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.tallies: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.tallies = Counter()

    def wrap(self, name: str, fn):
        tally = TALLIES.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if tally is not None and tally(result):
                self.tallies[name] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every point in WRAP_POINTS, and restore the originals after."""
        saved = []
        try:
            for module_name, attr, name in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, name: str, fn, *args):
        """Run fn(*args) under a root span of its own."""
        return self.wrap(name, fn)(*args)

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds per span name over the spans recorded."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def to_json(self) -> dict:
        """Spans with times in microseconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_us", "duration_us", "parent"],
            "spans": [
                [name, round((start - origin) * 1e6, 3), round((end - start) * 1e6, 3), parent]
                for name, start, end, parent in self.spans
            ],
        }
