"""Every ``BENCH_<slug>.json`` at the root of the checkout is a performance
record that meets the evidence rule of ROADMAP aim 1: it parses, names its
own slug, the parent commit it was measured against and the commands that
made it, and records the machine (nproc, Python and numpy versions)."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_meets_the_evidence_rule(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert path.name == f"BENCH_{record['slug']}.json"
    assert re.fullmatch(r"[0-9a-f]{7,40}", record["parent"])
    assert record["commands"]
    machine = record["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    for name in ("python", "numpy"):
        assert re.fullmatch(r"\d+\.\d+(\.\d+)?\S*", machine[name])
