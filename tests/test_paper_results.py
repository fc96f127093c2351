"""PAPER_RESULTS.json and EXPERIMENTS.md cite each other, and every check held.

``benchmarks/paper.py`` writes the JSON; these tests only read files, so
they run no experiment.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _results() -> dict:
    return json.loads((ROOT / "PAPER_RESULTS.json").read_text())


def _cited_keys() -> list[str]:
    lines = (ROOT / "EXPERIMENTS.md").read_text().splitlines()
    return [key for line in lines if line.startswith("Results: PAPER_RESULTS.json")
            for key in re.findall(r'"([^"]+)"', line)]


def test_every_cited_key_is_recorded():
    cited = _cited_keys()
    assert cited
    assert sorted(set(cited) - set(_results())) == []


def test_every_recorded_block_is_cited():
    assert sorted(set(_results()) - set(_cited_keys())) == []


def test_every_recorded_check_passed():
    results = _results()
    assert all(block["checks"] for block in results.values())
    failed = [f"{key}.{name}" for key, block in results.items()
              for name, verdict in block["checks"].items() if verdict is not True]
    assert failed == []
