"""Self-test of the benchmark: every check must reject a corrupted output,
and every workload must run end to end at a tiny size.

    python3 bench/selftest.py

Exits 0 when all cases pass, 1 otherwise, listing each case on stdout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads
from run import BENCH_DIR, OUT_DIR, load_library

ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def corruptions(kl, scene, events):
    """(name, corrupted copy of events) for a list of at least two events."""
    first = events[0]
    spare = next(p.id for p in scene.points if p.id not in first.members)
    members = tuple(sorted(first.members + (spare,)))
    t = first.time
    flipped = dataclasses.replace(first, tangential=not first.tangential)
    return [
        ("dropped event", events[:-1]),
        ("extra member", [dataclasses.replace(first, members=members, k=len(members))]
         + events[1:]),
        ("swapped order", [events[1], events[0]] + events[2:]),
        ("perturbed time", [dataclasses.replace(first, time=kl.AlgebraicTime.make(
            t.p + 1, t.q, t.d, t.r))] + events[1:]),
        ("flipped flag", [flipped] + events[1:]),
    ]


class SelfTest:
    def __init__(self):
        self.failures = 0

    def report(self, ok: bool, name: str, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        self.failures += not ok

    def expect_rejected(self, name: str, check, *args) -> None:
        try:
            check(*args)
        except checks.CheckError as exc:
            self.report(True, name, f"rejected ({exc})")
        else:
            self.report(False, name, "accepted a corrupted output")

    def expect_accepted(self, name: str, check, *args) -> None:
        try:
            check(*args)
        except checks.CheckError as exc:
            self.report(False, name, f"rejected the true output ({exc})")
        else:
            self.report(True, name, "accepted the true output")

    def corrupted_outputs(self, kl) -> None:
        wl = workloads.WORKLOADS
        # random-scenes: the listing is remade from the corrupted events, so
        # only the event checks can reject it
        w = wl["random-scenes"]
        cases = w.build(kl, 1, True)
        outputs = w.run_pass(kl, cases)
        self.expect_accepted("random-scenes", w.check, kl, cases, outputs)
        for name, bad in corruptions(kl, cases[0].scene, outputs[0][0]):
            text = json.dumps(kl.events_to_json(bad), indent=2, sort_keys=True)
            self.expect_rejected(
                f"random-scenes, {name}", w.check, kl, cases, [(bad, text)] + outputs[1:]
            )

        w = wl["tight-extremal"]
        cases = w.build(kl, 1, True)
        outputs = w.run_pass(kl, cases)
        self.expect_accepted("tight-extremal", w.check, kl, cases, outputs)
        for name, bad in corruptions(kl, cases[0].scene, outputs[0]):
            self.expect_rejected(
                f"tight-extremal, {name}", w.check, kl, cases, [bad] + outputs[1:]
            )

        w = wl["no-collinearity"]
        cases = w.build(kl, 1, True)
        outputs = w.run_pass(kl, cases)
        self.expect_accepted("no-collinearity", w.check, kl, cases, outputs)
        ids = sorted(p.id for p in cases[0].scene.points)[:3]
        fake = kl.CollinearityEvent(
            kl.AlgebraicTime.from_rational(0), tuple(ids), 3, (ids[0], ids[1]), False, False
        )
        self.expect_rejected("no-collinearity, extra event", w.check, kl, cases, [[fake]])

        w = wl["lower-bound-audit"]
        cases = w.build(kl, 1, True)
        audits = w.run_pass(kl, cases)
        self.expect_accepted("lower-bound-audit", w.check, kl, cases, audits)
        for case, audit in zip(cases, audits):
            events = kl.enumerate_events(case.scene)
            for name, bad in corruptions(kl, case.scene, events):
                self.expect_rejected(
                    f"lower-bound-audit {case.label}, {name}",
                    workloads.check_lower_bound_events, kl, case, audit, bad,
                )
            wrong = dataclasses.replace(audit, event_count=audit.event_count + 1)
            self.expect_rejected(
                f"lower-bound-audit {case.label}, audit count",
                workloads.check_lower_bound_events, kl, case, wrong, events,
            )

    def tiny_runs(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                name = f"tiny run {workload['name']} --trace {trace}"
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                     workload["name"], "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--tiny"],
                    capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
                )
                if done.returncode != 0:
                    self.report(False, name, f"exit {done.returncode}: {done.stderr[-500:]}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                units = {m: v["unit"] for m, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in spec[group]}
                ok = (
                    result["correct"] is True
                    and result["failed"] == 0
                    and result["attempted"] >= 1
                    and units == want
                )
                self.report(ok, name, json.dumps(result)[:200] if not ok else "")

    def without_sources(self) -> None:
        """Only BENCHMARK.json and the benchmark: exit nonzero, print nothing."""
        bare = OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / BENCH_DIR.name).mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy(path, bare / BENCH_DIR.name)
        done = subprocess.run(
            [sys.executable, str(Path(BENCH_DIR.name) / "run.py"), "--workload",
             "random-scenes", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
        )
        shutil.rmtree(bare)
        self.report(
            done.returncode != 0 and not done.stdout.strip(),
            "run without the library sources",
            f"exit {done.returncode}",
        )


def main() -> int:
    kl = load_library()
    test = SelfTest()
    test.corrupted_outputs(kl)
    test.tiny_runs()
    test.without_sources()
    print(f"{test.failures} failures")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
