"""Quick-mode smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload briefly (``--seconds 1``), untraced and traced, and
checks that the result line names every metric BENCHMARK.json lists, each
with its unit; that the inputs hash a run prints is the one its seed gives
(the same for the same seed, another for a holdout seed); and that without
the package sources the benchmark fails without printing a result.  A
``cli_session`` cycle is one full round of CLI calls, so this takes a few
minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, 7, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    printed = [ln.split()[1] for ln in lines if ln.startswith("inputs_sha256")]
    cls = workloads.WORKLOADS[workload]
    assert printed == [workloads.inputs_hash(cls(None).make_inputs(7))]


@pytest.mark.parametrize("workload", ["sweep_map", "fit_batch"])
def test_same_seed_same_counts(workload):
    # a run's work is fixed before it starts, so machine speed cannot change it
    first, second = (json.loads(_run(ROOT, workload, 7, 0).stdout.strip().splitlines()[-1])
                     for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    make = workloads.WORKLOADS[workload](None).make_inputs
    assert workloads.inputs_hash(make(7)) == workloads.inputs_hash(make(7))
    assert workloads.inputs_hash(make(7)) != workloads.inputs_hash(make(8))


def test_fails_without_the_package(tmp_path):
    # a checkout holding only the benchmark files, without the package
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 7, 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
