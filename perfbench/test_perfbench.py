"""Tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench
"""

import json

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
ALL = list(workloads.WORKLOADS)


def tiny_run(workload: str, trace: bool) -> dict:
    return run.run_workload(workload, seed=11, seconds=0.1, trace=trace, tiny=True)["result"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ALL


@pytest.mark.parametrize("workload", ALL)
def test_workload_runs_and_prints_the_declared_end_to_end_metrics(workload):
    result = tiny_run(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_prints_the_declared_per_layer_metrics(workload):
    result = tiny_run(workload, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    # self times partition the traced time, so the layers account for run_s
    assert 0.95 < result["metrics"]["trace.coverage"]["value"] < 1.01


def _corrupt(payload: dict) -> dict:
    """Damage one field of a CLI payload that the workload's oracle reads."""
    if "reports" in payload:
        payload["fail"] += 1
    elif "betti" in payload:
        payload["betti"]["0"] = payload["betti"].get("0", 0) + 1
    elif "facets" in payload:
        if payload["facets"]:
            payload["facets"].pop()
        else:
            payload["facets"].append(payload["ground"][:1])
    elif "status" in payload:
        payload["status"] = "fail"
    elif "verdict" in payload:
        payload["verdict"] = "no" if payload["verdict"] != "no" else "yes"
    elif "valid" in payload:
        payload["valid"] = False
    elif "strong" in payload:
        payload["strong"] = False
    elif "fail" in payload:
        payload["fail"] += 1
    elif "pass" in payload:
        payload["pass"] = False
    return payload


@pytest.mark.parametrize("workload", ALL)
def test_corrupted_output_raises_fail_frac(workload, monkeypatch):
    dump = json.dump
    monkeypatch.setattr(json, "dump", lambda obj, fp, **kw: dump(_corrupt(obj), fp, **kw))
    result = tiny_run(workload, trace=True)
    assert not result["correct"]
    assert result["metrics"]["checks.fail_frac"]["value"] > 0


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    value, percentile, beyond = run.tail([float(i) for i in range(1, 14)])
    assert (value, beyond) == (7.0, 6) and percentile == pytest.approx(100 * 7 / 13)


def test_stage_lines_map_to_declared_stage_metrics():
    lines = ["instance set: 1225 complexes", "forest theorem done (223 forests)",
             "path-free/path-missing done (2919 digraphs)", "strong/homology consistency done"]
    names = [run.stage_name(line) for line in lines]
    assert names == ["instance_set", "forest_theorem", "path_free_path_missing",
                     "strong_homology_consistency"]
    assert all(f"verify.stage.{n}_s" in PER_LAYER for n in names)
