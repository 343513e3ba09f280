"""Command line interface.

Subcommands:
  generate      build a scene from a named construction, write scene JSON
  events        list a scene's collinearity events (JSON or CSV) on stdout
  count         print the number of events with at least k members
  pair-surface  classify the surface swept by a pair's collinear locus
  verify        audit event counts against the combinatorial ceilings,
                optionally cross-checking the independent brute-force oracle
  render        write one SVG snapshot per requested time (or per event)

Exit codes: 0 success, 1 unreadable input or I/O failure, 2 bad usage or
bad argument values, 3 audit or oracle failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .constructions import CONSTRUCTION_KINDS, DEFAULT_PRECISION_BITS, ConstructionParams
from .events import (
    ORACLE_CAP,
    audit_bounds,
    brute_force_events,
    count_k_collinearities,
    enumerate_events,
)
from .exact_numbers import parse_rational, rational_str
from .kinematics import SceneError
from .render import render_at_events, render_scene
from .sceneio import events_to_csv, events_to_json, json_text, load_scene, save_scene
from .surfaces import classify_surface, surface_of_pair

__all__ = ["main", "run"]


def _cmd_generate(args) -> int:
    params = ConstructionParams(
        name=args.construction,
        n=args.n,
        k=args.k,
        precision_bits=args.precision_bits,
        seed=args.seed,
        coord_bound=args.coord_bound,
    )
    try:
        scene = params.build()
    except SceneError as exc:
        # no input was read: an unbuildable scene comes from the arguments
        raise ValueError(str(exc)) from exc
    save_scene(scene, args.output)
    print(f"{args.construction} n={len(scene)} -> {args.output}")
    return 0


def _cmd_events(args) -> int:
    scene = load_scene(args.scene)
    events = enumerate_events(scene, args.kmin)
    if args.format == "csv":
        sys.stdout.write(events_to_csv(events))
    else:
        sys.stdout.write(json_text(events_to_json(events)))
    return 0


def _cmd_count(args) -> int:
    scene = load_scene(args.scene)
    print(count_k_collinearities(scene, args.k))
    return 0


def _cmd_pair_surface(args) -> int:
    scene = load_scene(args.scene)
    try:
        a = scene.point(args.a)
        b = scene.point(args.b)
    except SceneError as exc:
        # a bad id on the command line is a usage problem, not a bad file
        raise ValueError(str(exc)) from exc
    surf = surface_of_pair(a, b)
    cls = classify_surface(a, b)
    payload = {
        "pair": [a.id, b.id],
        "surface": {name: rational_str(v) for name, v in asdict(surf).items()},
        "kind": cls.kind.value,
        "plane": [rational_str(v) for v in cls.plane] if cls.plane is not None else None,
        "collision_time": (
            rational_str(cls.collision_time) if cls.collision_time is not None else None
        ),
    }
    sys.stdout.write(json_text(payload))
    return 0


def _cmd_verify(args) -> int:
    scene = load_scene(args.scene)
    if args.oracle and len(scene) > ORACLE_CAP:
        raise ValueError(
            f"--oracle is capped at {ORACLE_CAP} points; scene has {len(scene)}"
        )
    audit = audit_bounds(scene, args.k)
    payload = audit.to_json()
    ok = audit.passed
    if args.oracle:
        oracle_match = events_to_json(enumerate_events(scene, 3)) == events_to_json(
            brute_force_events(scene)
        )
        payload["oracle_match"] = oracle_match
        ok = ok and oracle_match
    sys.stdout.write(json_text(payload))
    return 0 if ok else 3


def _cmd_render(args) -> int:
    scene = load_scene(args.scene)
    if args.at_events:
        events, svgs = render_at_events(scene, args.kmin)
        names = [f"event{i:03d}_k{e.k}.svg" for i, e in enumerate(events)]
    else:
        svgs = render_scene(scene, args.times)
        names = [
            f"t{i:03d}_{t.numerator}_{t.denominator}.svg"
            for i, t in enumerate(args.times)
        ]
    # rendered first, so a render that fails leaves no directory behind
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, svg in zip(names, svgs):
        target = out_dir / name
        target.write_text(svg, encoding="utf-8")
        print(target)
    return 0


def _time_arg(text: str) -> Fraction:
    """A rational time from the command line, under the scene digit limit."""
    try:
        return parse_rational(text)
    except (ValueError, OverflowError) as exc:
        # argparse turns only ValueError and TypeError into usage errors
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kineticlines",
        description="exact collinearity events of points moving along lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a scene from a named construction")
    p.add_argument("--construction", required=True, choices=CONSTRUCTION_KINDS)
    p.add_argument("--n", required=True, type=int, help="number of points requested")
    p.add_argument("--k", type=int, default=None, help="member target (lower_bound only)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (random only)")
    p.add_argument(
        "--precision-bits",
        type=int,
        default=DEFAULT_PRECISION_BITS,
        help="dyadic rounding precision (tight constructions)",
    )
    p.add_argument("--coord-bound", type=int, default=100, help="coordinate bound (random only)")
    p.add_argument("-o", "--output", required=True, help="scene file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("events", help="list collinearity events on stdout")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--kmin", type=int, default=3, help="smallest member count to report")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("count", help="print the number of events with >= k members")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("pair-surface", help="classify a pair's collinearity surface")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("a", help="first point id")
    p.add_argument("b", help="second point id")
    p.set_defaults(func=_cmd_pair_surface)

    p = sub.add_parser("verify", help="audit event counts against the ceilings")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--k", type=int, default=3, help="member count to audit")
    p.add_argument(
        "--oracle",
        action="store_true",
        help=f"also require oracle agreement (scenes up to {ORACLE_CAP} points)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="write SVG snapshots")
    p.add_argument("scene", help="scene JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--times", nargs="+", type=_time_arg, help="rational times, e.g. 0 1/2 -3"
    )
    group.add_argument(
        "--at-events", action="store_true", help="one snapshot per event, at the event time"
    )
    p.add_argument("--kmin", type=int, default=3, help="event filter for --at-events")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a coordinate over the digit limit is a bad value, not an unreadable file
        return 2 if isinstance(exc.__cause__, OverflowError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
