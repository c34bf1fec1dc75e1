"""Smoke test of the benchmark at tiny sizes (about 30 s on 2 cores).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that corrupted CLI output is counted as a failure, that the interior-statistic
reference command matches reference.json and catches a small drift, and that a
traced run stops when a public function the workload needs is never called.
"""

import copy
import json
import math

import pytest

import run as bench

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sim_p10": {"config": {"p": 10, "true_rank": 3, "n": 200, "reps": 6}},
    "null_local_t2": {"config": {"p": 8, "true_rank": 2, "n": 2000, "reps": 6,
                                 "local_null_tau": 1.0}},
    "rank_csv": {"rows": 2000, "cols": 30},
}


def tiny(name: str) -> dict:
    spec = copy.deepcopy(bench.WORKLOADS[name])
    spec.update(copy.deepcopy(TINY[name]))
    return spec


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    run = bench.run_workload(tiny(name), seed=5, seconds=0.5, trace=trace, reference=None)
    result = run["result"]
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


def _corrupt(payload: dict) -> dict:
    if "rank_estimate" in payload:
        payload["rank_estimate"] += 1
    elif "statistics" in payload:
        payload["statistics"][0] = 1.5
    else:
        payload["steps"][1]["reached"] += 1
    return payload


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_corrupted_cli_output_counts_as_failure(name, monkeypatch):
    real_invoke = bench.invoke
    corrupted = []

    def invoke(args, mode, workdir):
        inv = real_invoke(args, mode, workdir)
        if args and not corrupted:
            inv.stdout = json.dumps(_corrupt(json.loads(inv.stdout))).encode()
            corrupted.append(args)
        return inv

    monkeypatch.setattr(bench, "invoke", invoke)
    result = bench.run_workload(tiny(name), seed=5, seconds=0.5, trace=False,
                                reference=None)["result"]
    assert corrupted
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1


def test_reference_comparison_is_exact_on_decisions_and_tight_on_floats():
    ref = {"steps": [{"k": 1, "rejected": True, "statistic": 0.25}], "rank_estimate": 1}
    close = copy.deepcopy(ref)
    close["steps"][0]["statistic"] += 1e-13
    assert bench.compare_reference(ref, close) == []
    for path, value in ((("steps", 0, "statistic"), 0.25 + 1e-9),
                        (("steps", 0, "rejected"), False),
                        (("rank_estimate",), 2)):
        changed = copy.deepcopy(ref)
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert bench.compare_reference(ref, changed)


def test_interior_reference_matches_and_catches_a_small_drift(tmp_path):
    _, expected = bench.load_reference("sim_p10", bench.WORKLOADS["sim_p10"])
    assert all(0.0 < step["statistic"] < 1.0 for step in expected["steps"])
    inputs = bench.make_inputs(bench.INTERIOR_SPEC, bench.BASELINE_SEED, tmp_path)
    inv = bench.invoke(inputs.args, "off", tmp_path)
    assert bench.Tally().check(bench.INTERIOR_SPEC, inputs, inv, reference=expected)
    drifted = copy.deepcopy(expected)
    drifted["steps"][-1]["statistic"] += 1e-10
    assert not bench.Tally().check(bench.INTERIOR_SPEC, inputs, inv, reference=drifted)


def test_interior_inputs_do_not_overwrite_the_workload_inputs(tmp_path):
    seed = bench.BASELINE_SEED
    workload = bench.make_inputs(tiny("rank_csv"), seed, tmp_path)
    interior = bench.make_inputs(bench.INTERIOR_SPEC, seed, tmp_path)
    assert workload.args[1] != interior.args[1]


def test_traced_run_fails_loudly_when_a_needed_function_is_never_called():
    spec = tiny("null_local_t2")
    spec["needs"] = spec["needs"] + ["sequential.run_sequence"]
    with pytest.raises(bench.BenchError, match="sequential.run_sequence called zero times"):
        bench.run_workload(spec, seed=5, seconds=0.5, trace=True, reference=None)


def test_exits_nonzero_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "sim_p10", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
