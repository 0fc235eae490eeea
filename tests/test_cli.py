"""Command-line interface: exit codes, diagnostics, output files."""

import json

import pytest

from tpjc.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    data = {"alpha": [3.0, 0.0], "mode": "add", "m": 2}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_run_command(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(config), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "mean photon" in captured.out
    assert (out_dir / "result.json").exists()
    assert (out_dir / "fidelity_series.csv").exists()


def test_run_rejects_bad_config(tmp_path, capsys):
    config = write_config(tmp_path, mode="sideways")
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "invalid config" in captured.err


@pytest.mark.parametrize("alpha", [float("nan"), [3.0, float("inf")]])
def test_run_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    # json writes these as the NaN / Infinity literals that json.loads accepts
    config = write_config(tmp_path, alpha=alpha)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err and "finite" in err


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid config" in capsys.readouterr().err


def test_run_rejects_undersized_dim_with_minimum(tmp_path, capsys):
    config = write_config(tmp_path, dim=10)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "minimum" in captured.err


def test_run_surfaces_truncation_error(tmp_path, capsys):
    # policy-minimum dim but a far tighter tail tolerance: the ladder guard trips
    config = write_config(
        tmp_path, alpha=[5.0, 0.0], m=50, tolerances={"tail_tol": 1e-16}
    )
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "truncation too small" in captured.err
    assert "dim" in captured.err


def test_oracle_check_command(capsys):
    rc = main(["oracle-check", "--dim", "16", "--trials", "3", "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "max_deviation" in captured.out


def test_oracle_check_writes_report(tmp_path):
    report_path = tmp_path / "oracle.json"
    rc = main(
        ["oracle-check", "--dim", "16", "--trials", "3", "--seed", "7", "--out", str(report_path)]
    )
    assert rc == 0
    data = json.loads(report_path.read_text())
    assert data["dim"] == 16
    assert data["comparisons"] == 9
    assert data["passed"] is True


def test_oracle_check_rejects_large_dim(capsys):
    rc = main(["oracle-check", "--dim", "4096", "--trials", "1"])
    assert rc == 2
    assert "invalid config" in capsys.readouterr().err


def test_approx_table_stdout(capsys):
    rc = main(["approx-table", "--max-j", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "j,add_error,subtract_error"
    assert len(lines) == 7
    assert lines[1].startswith("0,")
    assert "nan" in lines[1]


def test_approx_table_file_deterministic(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(["approx-table", "--max-j", "50", "--out", str(path_a)]) == 0
    assert main(["approx-table", "--max-j", "50", "--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_shipped_configs_are_valid():
    from pathlib import Path

    from tpjc.experiment import load_config

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("add_alpha5.json", "subtract_alpha12.json"):
        config = load_config(configs / name)
        assert config.m == 50
        assert config.dim is not None
