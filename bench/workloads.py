"""The benchmark's workloads: which scenes, one pass over them, and checks.

Every workload is a fixed list of scenes built from the seed before any
timing starts. One operation is one pass over the whole list, so every
operation does identical work. The library is reached only through
attributes of the `kineticlines` module, looked up at call time, so the
traced run can wrap them in place.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Case:
    """One scene of a workload; k is the audit threshold where one applies."""

    label: str
    scene: object
    n: int = 0
    k: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (kl, seed, tiny) -> list[Case]
    run_pass: Callable  # (kl, cases) -> list of outputs, one per case
    check: Callable  # (kl, cases, outputs) -> None, raises CheckError
    events_of: Callable  # (kl, case, output) -> the case's event list


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _shuffled(kl, scene, rng: random.Random):
    """The same scene with its points in a seeded order. Events are sorted
    by time and sorted member ids, so the event list does not change."""
    points = list(scene.points)
    rng.shuffle(points)
    return kl.Scene(tuple(points), meta=dict(scene.meta))


# --- random-scenes: enumerate_events + events_to_json -----------------------

RANDOM_N, RANDOM_SCENES = 10, 8


def _build_random(kl, seed, tiny):
    n, count = (6, 2) if tiny else (RANDOM_N, RANDOM_SCENES)
    rng = _rng("random-scenes", seed)
    cases = []
    while len(cases) < count:
        scene_seed = rng.getrandbits(32)
        scene = kl.gen_random(n, scene_seed)
        # the member-count identity needs points that never meet
        if not checks.SceneModel(scene).meeting_times():
            cases.append(Case(f"random(n={n},seed={scene_seed})", scene))
    return cases


def _pass_random(kl, cases):
    out = []
    for case in cases:
        events = kl.enumerate_events(case.scene)
        text = json.dumps(kl.events_to_json(events), indent=2, sort_keys=True)
        out.append((events, text))
    return out


def _check_random(kl, cases, outputs):
    for case, (events, text) in zip(cases, outputs):
        model = checks.SceneModel(case.scene)
        checks.check_events(model, events)
        checks.check_generic_counts(model, events)
        listing = json.loads(text)
        checks.require(len(listing) == len(events), f"{case.label}: listing length")
        for entry, e in zip(listing, events):
            time = entry.get("time") if isinstance(entry, dict) else None
            approx = time.get("approx") if isinstance(time, dict) else None
            checks.require(
                entry == _event_json(e, approx),
                f"{case.label}: events_to_json differs from {e}",
            )


def _event_json(e, approx) -> dict:
    """The listing entry of one event, written out by the benchmark itself.
    A quadratic time's float hint must be within 1e-12 of its value."""
    t = e.time
    if t.q == 0:
        time = {"kind": "rational", "value": f"{t.p}/{t.r}"}
    else:
        value = checks.surd_float(checks.surd_of_time(t))
        checks.require(
            isinstance(approx, float) and abs(approx - value) <= 1e-12 * max(1.0, abs(value)),
            f"approx {approx} of {t} is not {value}",
        )
        time = {"kind": "quadratic", "p": str(t.p), "q": str(t.q), "d": t.d, "r": str(t.r),
                "approx": approx}
    return {
        "time": time,
        "members": list(e.members),
        "k": e.k,
        "anchors": list(e.anchors),
        "tangential": e.tangential,
        "contains_subcollision": e.contains_subcollision,
    }


# --- tight-extremal: enumerate_events on the 2*C(n,3) scenes ---------------

TIGHT_N = 10


def _build_tight(kl, seed, tiny):
    n = 5 if tiny else TIGHT_N
    rng = _rng("tight-extremal", seed)
    return [
        Case(f"tight(n={n})", _shuffled(kl, kl.gen_tight(n), rng)),
        Case(f"tight_ellipse(n={n})", _shuffled(kl, kl.gen_tight_ellipse(n), rng)),
    ]


def _pass_enumerate(kl, cases):
    return [kl.enumerate_events(case.scene) for case in cases]


def _check_tight(kl, cases, outputs):
    for case, events in zip(cases, outputs):
        model = checks.SceneModel(case.scene)
        checks.check_events(model, events)
        checks.check_generic_counts(model, events)
        checks.check_tight(model, events)


# --- no-collinearity: enumerate_events where no triple has a root ----------

NO_COLLINEARITY_N = 40


def _build_no_collinearity(kl, seed, tiny):
    n = 8 if tiny else NO_COLLINEARITY_N
    rng = _rng("no-collinearity", seed)
    scene = kl.gen_no_collinearity_distinct(n)
    return [Case(f"no_collinearity_distinct(n={n})", _shuffled(kl, scene, rng))]


def _check_no_collinearity(kl, cases, outputs):
    for case, events in zip(cases, outputs):
        checks.check_no_collinearity(checks.SceneModel(case.scene), events)


# --- lower-bound-audit: audit_bounds in both regimes -----------------------

LOWER_BOUND_PARAMS = ((20, 4), (12, 4))  # two columns, three clusters
LOWER_BOUND_TINY = ((9, 3), (8, 4))


def _build_lower_bound(kl, seed, tiny):
    rng = _rng("lower-bound-audit", seed)
    return [
        Case(f"lower_bound(n={n},k={k})", _shuffled(kl, kl.gen_lower_bound(n, k), rng), n, k)
        for n, k in (LOWER_BOUND_TINY if tiny else LOWER_BOUND_PARAMS)
    ]


def _pass_audit(kl, cases):
    return [kl.audit_bounds(case.scene, case.k) for case in cases]


def _lower_bound_events(kl, case, audit):
    return kl.enumerate_events(case.scene)


def _check_lower_bound(kl, cases, outputs):
    for case, audit in zip(cases, outputs):
        events = kl.enumerate_events(case.scene)
        check_lower_bound_events(kl, case, audit, events)


def check_lower_bound_events(kl, case, audit, events):
    model = checks.SceneModel(case.scene)
    checks.check_events(model, events)
    oracle = kl.brute_force_events(case.scene, max_points=len(case.scene))
    checks.check_lower_bound(model, case.n, case.k, audit, events, oracle)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random-scenes", _build_random, _pass_random, _check_random,
            lambda kl, case, out: out[0],
        ),
        Workload(
            "tight-extremal", _build_tight, _pass_enumerate, _check_tight,
            lambda kl, case, out: out,
        ),
        Workload(
            "no-collinearity", _build_no_collinearity, _pass_enumerate,
            _check_no_collinearity, lambda kl, case, out: out,
        ),
        Workload(
            "lower-bound-audit", _build_lower_bound, _pass_audit, _check_lower_bound,
            _lower_bound_events,
        ),
    )
}


def digest(kl, workload: Workload, cases, outputs) -> str:
    """sha256 over the events_to_json listing of every case, in order."""
    h = hashlib.sha256()
    for case, out in zip(cases, outputs):
        listing = kl.events_to_json(workload.events_of(kl, case, out))
        h.update(json.dumps(listing, sort_keys=True).encode())
    return h.hexdigest()
