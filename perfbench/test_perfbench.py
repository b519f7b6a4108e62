"""Self-test of the benchmark: a tiny pass of every workload, traced and not.

    python3 -m pytest perfbench -q

It asserts that each run checks out, that every end-to-end and per-layer
metric named in BENCHMARK.json appears with its unit, that counts repeat
for one seed, and that traced self times cover the traced operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("pdbio.structure_copies", "pdbio.atoms_copied", "optimize.refine_evals",
          "optimize.saec_evals", "optimize.evals_per_solve", "benchmarks.objective_calls",
          "energy.pair_distances.c4", "pdbio.bytes_per_atom")


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(name: str, trace: bool) -> dict:
    result, failures, _ = workloads.run(name, seed=3, seconds=0.01, trace=trace, tiny=True)
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_spec_matches_code():
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert _units("end_to_end") == workloads.END_TO_END
    assert _units("per_layer") == workloads.per_layer_units()


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    metrics = _run(name, trace=False)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics(name):
    metrics = _run(name, trace=True)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    parts = [k for k in value if k.endswith(".self_ms") and k != "optimize.saec_self_ms"]
    parts += ["builder.placement_self_ms", "builder.objective_ms", "builder.other_self_ms"]
    assert sum(value[k] for k in set(parts)) == pytest.approx(value["trace.op_ms"], rel=1e-6)
    if name == "build":
        assert value["builder.mutate_ms"] > 0 and value["pdbio.structure_copies"] > 0
        assert value["optimize.us_per_eval.full_sum"] > 0
    if name == "optimizer":
        assert value["benchmarks.objective_calls"] > 0
    if name == "files":
        assert value["energy.audit_growth_exp"] > 1 and value["cli.build_s"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_for_one_seed(name):
    first, second = (_run(name, trace=True) for _ in range(2))
    for key in COUNTS:
        assert first[key]["value"] == second[key]["value"], key
