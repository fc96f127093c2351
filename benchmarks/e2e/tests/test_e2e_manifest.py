"""BENCHMARK.json and the code name the same metrics and workloads."""

import json
import re

import measure
import workloads
from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_has_exactly_the_contract_keys():
    assert set(manifest()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest()["paths"] == ["benchmarks/e2e"]


def test_metric_names_and_units_match_the_code_exactly():
    doc = manifest()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == measure.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == list(measure.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(measure.PER_LAYER)


def test_names_and_units_are_well_formed_and_unique():
    doc = manifest()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_bounds_and_setup_metric():
    doc = manifest()
    by_name = {m["name"]: m for m in doc["end_to_end"]}
    assert by_name["setup_s"]["unit"] == "s" and by_name["setup_s"]["better"] == "lower"
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert by_name["setup_s"]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_match_the_code():
    doc = manifest()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
