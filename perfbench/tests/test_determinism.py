import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
SEED = 0
# Counts that must repeat exactly across runs on one seed.
COUNTS = (
    "distance.iterations",
    "models.node_evals",
    "fisher.directional_form.calls",
    "hausdorff.cover_sets",
)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def zoo():
    return workloads.build_models()


@pytest.mark.parametrize("name", ["sweep", "geodesic", "cover"])
def test_counts_repeat_and_tracing_changes_no_output(name, zoo, tmp_path):
    workload = workloads.WORKLOADS[name](zoo, tmp_path)
    # One untraced round, then the same round traced.
    values, runs = metrics.traced(workload, SEED, 1e-9, tmp_path / "a.jsonl", {})
    again = tracing.Tracer()
    with tracing.patched(again):
        runs.append(workloads.run(workload, SEED, rounds=1, tracer=again))
    repeat = metrics.layer_values(again)

    assert [r.rounds for r in runs] == [1, 1, 1]
    assert metrics.all_correct(runs)
    for key in COUNTS:
        assert values[key] == repeat[key], key
    # distance.iterations is also visible without tracing, in the results.
    untraced = sum(r.info.get("iterations", 0) for r in runs[0].records)
    assert values["distance.iterations"] == untraced
    if name != "geodesic":
        assert values["distance.fisher_distance.calls"] == values["distance.iterations"] == 0
    else:
        assert values["hausdorff.greedy_cover.calls"] == 0
        assert values["distance.fisher_distance.calls"] == len(workloads.criterion_pairs())
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"} <= set(
        metrics.end_to_end(runs[0])
    )


def test_inputs_depend_only_on_the_seed(zoo, tmp_path):
    workload = workloads.Sweep(zoo, tmp_path)

    def argv(seed):
        rng = np.random.default_rng(seed)
        return [[op.run.args[0] for op in workload.draw_round(rng, i)] for i in range(3)]

    assert argv(7) == argv(7)
    assert argv(7) != argv(8)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
