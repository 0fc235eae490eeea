"""Tiny-N smoke test of the benchmark harness.

Run from the repository root with ``python -m pytest -q perfbench``. Each
workload runs at a tiny size in both modes, and its printed metrics must
be exactly the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_spec(name: str, tmp_path: Path) -> dict:
    if name == "configs":
        paths = []
        for cfg in ({"alpha": 2.0, "mode": "add", "m": 2}, {"alpha": [0.0, 4.0], "mode": "subtract", "m": 2}):
            path = tmp_path / f"tiny_{cfg['mode']}.json"
            path.write_text(json.dumps(cfg))
            paths.append(str(path))
        return {"kind": "configs", "configs": paths}
    # Subtraction uses |alpha| = 4: at |alpha| = 2 the mass below 2m is so
    # large that the exact protocol departs from the ideal-state mean law.
    return {
        "scale_add": {"kind": "protocol", "alpha": 2.0, "mode": "add", "m": 2},
        "scale_subtract": {"kind": "protocol", "alpha": 4.0, "mode": "subtract", "m": 2},
        "oracle": {"kind": "oracle", "dim": 8, "trials": 2},
    }[name]


def test_declared_workloads_are_the_harness_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_reports_declared_metrics(name, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, spec=tiny_spec(name, tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert "trace check: span counts match the expected calls" in lines
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_functions_are_restored(tmp_path, monkeypatch, capsys):
    import tpjc.dynamics
    import tpjc.fock

    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    argv = ["--workload", "scale_add", "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    assert run.main(argv, spec=tiny_spec("scale_add", tmp_path)) == 0
    capsys.readouterr()
    assert tpjc.dynamics.fidelity is tpjc.fock.fidelity
    assert not hasattr(tpjc.fock.fidelity, "__wrapped__")
    assert not hasattr(tpjc.dynamics.pass_add, "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(40)]) == (29.25, "p75 of 40")
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, "max of 3")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "configs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
