"""Print each workload's event count and the sha256 of its events_to_json
listing, for one seed (default 1). The figures are informative only: the
benchmark checks outputs with its own arithmetic, not against a digest.

    python3 bench/digests.py [--seed N]
"""

from __future__ import annotations

import argparse

from run import load_library
from workloads import WORKLOADS, digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    kl = load_library()
    for name, workload in WORKLOADS.items():
        cases = workload.build(kl, args.seed, False)
        outputs = workload.run_pass(kl, cases)
        events = sum(len(workload.events_of(kl, c, o)) for c, o in zip(cases, outputs))
        sha = digest(kl, workload, cases, outputs)
        print(f"{name:18} seed {args.seed}  events {events:5}  {sha}")


if __name__ == "__main__":
    main()
