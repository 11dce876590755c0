"""The committed benchmark records: every BENCH_*.json at the repository root
parses and says how it was measured (command, host, method)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("command", "host", "method")


def record_problems(text: str) -> list[str]:
    """What keeps a record's text from being a well-formed record."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(record, dict):
        return ["not a JSON object"]
    return [f"no {key!r}" for key in REQUIRED if not record.get(key)]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_well_formed(path):
    assert record_problems(path.read_text()) == []


def test_detects_a_malformed_record():
    assert record_problems('{"command": "x", "host": "y"')[0].startswith("not JSON")
    assert record_problems("[1]") == ["not a JSON object"]
    assert record_problems('{"command": "x", "method": ""}') == ["no 'host'", "no 'method'"]
