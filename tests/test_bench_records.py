"""The committed benchmark records at the repository root: each
BENCH_*.json parses, its parent and change runs of every workload gave one
listing digest, and each digest is one that bench/README.md lists. Files
are read only; no benchmark runs here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_digests_match_and_are_listed(path):
    record = json.loads(path.read_text())
    readme = (ROOT / "bench" / "README.md").read_text()
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        digests = workload["digests"]
        assert digests["parent"] and digests["parent"] == digests["change"], name
        for digest in digests["parent"]:
            assert digest in readme, (name, digest)
