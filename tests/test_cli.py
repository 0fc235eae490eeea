"""Command-line interface: exit codes, diagnostics, output files."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tpjc
from tpjc import dynamics, fock_distribution, make_coherent
from tpjc.cli import main
from tpjc.experiment import _result_json, load_result, parse_config


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


@pytest.mark.parametrize("mode", ["ADD", " add", ["add"]])
def test_run_accepts_mode_only_as_documented(tmp_path, capsys, mode):
    config = write_config(tmp_path, mode=mode)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: invalid config: mode must be 'add' or 'subtract', got {mode!r}\n"


def test_cli_is_the_one_config_file_runner():
    assert not hasattr(tpjc, "run")


@pytest.mark.parametrize("alpha", [float("nan"), [3.0, float("inf")]])
def test_run_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    # json writes these as the NaN / Infinity literals that json.loads accepts
    config = write_config(tmp_path, alpha=alpha)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err and "finite" in err


def _with_tolerances(shipped, tolerances):
    path = Path(__file__).resolve().parent.parent / "configs" / shipped
    return {**json.loads(path.read_text()), "tolerances": tolerances}


@pytest.mark.parametrize(
    "data",
    [
        {"alpha": 1, "mode": "subtract", "m": 40, "tolerances": {"norm_tol": float("nan")}},
        {"alpha": 1, "mode": "subtract", "m": 40, "tolerances": {"tail_tol": float("inf")}},
        _with_tolerances("subtract_alpha12.json", {"norm_tol": 1}),
        {"alpha": 45, "mode": "subtract", "m": 10, "dim": 2800, "tolerances": {"tail_tol": 1e-22}},
        {"alpha": 45, "mode": "add", "m": 10, "dim": 2800, "tolerances": {"tail_tol": 1e-22}},
    ],
    ids=["nan-norm_tol", "inf-tail_tol", "norm_tol-of-one", "tiny-tail_tol-subtract", "tiny-tail_tol-add"],
)
def test_run_rejects_tolerances_field(tmp_path, capsys, data):
    # every guard on the run path gates at DEFAULT_TOL; only dim moves a run past one
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: invalid config: unknown config fields: ['tolerances']\n"


def test_run_rejects_config_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: invalid config: config must be a JSON object\n"


def test_run_reports_uncreatable_output_directory(tmp_path, capsys):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "add_alpha5.json"
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["run", str(shipped), "--out", str(taken)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot create output directory {taken}: ")


@pytest.mark.parametrize(
    "text",
    [
        '{"alpha": 1e200, "mode": "add", "m": 1}',
        '{"alpha": 1e150, "mode": "add", "m": 1}',
        '{"alpha": 1e10, "mode": "add", "m": 1}',
        '{"alpha": [1.7e308, 1.7e308], "mode": "add", "m": 1}',
        '{"alpha": 1, "mode": "add", "m": 1%s}' % ("0" * 400),
        '{"alpha": 1, "mode": "add", "m": 1, "dim": 1%s}' % ("0" * 30),
        '{"alpha": 1, "mode": "add", "m": 1, "dim": 1%s}' % ("0" * 5000),
    ],
)
def test_run_rejects_dim_beyond_array_range(tmp_path, capsys, text):
    # finite numbers whose Fock dimension overflows a float or an array
    # length, and an integer literal beyond the parser's digit limit
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"alpha": 1e10, "mode": "add", "m": 1}',
        '{"alpha": 1e154, "mode": "add", "m": 1}',
        '{"alpha": 1e200, "mode": "add", "m": 1}',
        '{"alpha": [1.7e308, 1.7e308], "mode": "add", "m": 1}',
        '{"alpha": 1, "mode": "add", "m": 1, "dim": 1%s}' % ("0" * 30),
        '{"alpha": 1, "mode": "add", "m": 1, "dim": 1%s}' % ("0" * 200),
    ],
    ids=["alpha_1e10", "alpha_1e154", "alpha_1e200", "alpha_pair_1.7e308", "dim_1e30", "dim_1e200"],
)
def test_run_prices_an_over_long_dim_as_its_own_window(tmp_path, capsys, text):
    # N's own arrays are over the budget, so W = N and the window bound never
    # sees the |alpha|; the bytes of 1e154 and of dim 10^200 are past the float range
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "budget" in err and " levels and a W=" in err and "needs N=" in err


@pytest.mark.parametrize("alpha, m", [([0, 3], 40), (45, 1300), (3, 10**9)])
def test_run_that_removes_all_mass_stops_before_the_first_pass(
    tmp_path, capsys, monkeypatch, alpha, m
):
    # the m-step subtraction removes the most mass; the run names its m, where
    # it used to run passes until the k-step target's mass ran out. At m = 10^9
    # it checks S_m alone: a list of S_0 .. S_m first would take ~32 GB
    calls = []
    for name in ("_band_passes", "_branch_passes"):
        kernel = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    config = write_config(tmp_path, alpha=alpha, mode="subtract", m=m)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: subtraction with m={m} removes mass ")
    assert calls == []


@pytest.mark.parametrize("alpha", [1e5, 1e9])
def test_run_rejects_config_over_memory_budget(tmp_path, capsys, alpha):
    # finite sizes whose window matrix would not fit: before the budget
    # check, alpha 1e9 ended in a MemoryError traceback
    config = write_config(tmp_path, alpha=alpha, m=1)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err and "budget" in err and "W=" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["add", "subtract"])
def test_config_at_alpha_300_is_within_memory_budget(mode):
    from tpjc.experiment import parse_config

    assert parse_config({"alpha": 300, "mode": mode, "m": 50}).resolved_dim() > 90_000


def test_run_vacuum_reports_undefined_mandel_q(tmp_path, capsys):
    config = write_config(tmp_path, alpha=0, mode="add", m=0)
    out_dir = tmp_path / "out"
    rc = main(["run", str(config), "--out", str(out_dir)])
    assert rc == 0
    assert "Mandel Q = undefined" in capsys.readouterr().out
    result = json.loads((out_dir / "result.json").read_text())
    assert result["mandel_q_final"] is None
    assert any("Mandel Q is undefined" in w for w in result["warnings"])
    assert result["mandel_q_predicted"] is None
    assert json.loads((out_dir / "mandel_q.json").read_text()) == {
        "mandel_q_final": None,
        "mandel_q_predicted": None,
    }
    loaded = load_result(out_dir / "result.json")
    assert loaded.mandel_q_final is None
    assert loaded.mandel_q_predicted is None
    assert loaded.mean_photon_final == 0.0


@pytest.mark.parametrize(
    "data",
    [{"alpha": 100, "mode": "add", "m": 50}, {"alpha": [36, 27], "mode": "subtract", "m": 10}],
    ids=["add-100-50", "subtract-45-10"],
)
def test_run_writes_the_rows_of_its_window(tmp_path, capsys, data):
    # both distributions list j = lo .. N-1, the window the passes ran on, and
    # psi0 holds at most WINDOW_MASS_TOL of its mass below it
    out_dir = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, **data)), "--out", str(out_dir)]) == 0
    config = parse_config(data)
    p = fock_distribution(make_coherent(config.alpha, config.dim))
    lo = dynamics.window_start(int(np.argmax(np.cumsum(p) > dynamics.WINDOW_MASS_TOL)), config.m, config.mode)
    assert lo > 0 and np.sum(p[:lo]) <= dynamics.WINDOW_MASS_TOL
    levels = list(range(lo, config.dim))
    on_disk = json.loads((out_dir / "result.json").read_text())
    assert [j for j, _ in on_disk["initial_dist"]] == [j for j, _ in on_disk["final_dist"]] == levels
    csv_rows = (out_dir / "fock_dist.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in csv_rows] == levels
    result = load_result(out_dir / "result.json")
    assert result.initial_dist == list(zip(levels, p[lo:].tolist()))
    (tmp_path / "again.json").write_text(_result_json(result))
    assert (tmp_path / "again.json").read_bytes() == (out_dir / "result.json").read_bytes()


OUTPUT_NAMES = ("result.json", "fock_dist.csv", "fidelity_series.csv", "mandel_q.json", "mean_photon.json")


def failing_write(monkeypatch, name):
    """Make writing ``name`` or its temporary file fail, once it is open, as on a full disk."""
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if (self.name == name or self.name.startswith(f".{name}.")) and ("x" in mode or "w" in mode):
            handle.close()
            raise OSError(28, "No space left on device")
        return handle

    monkeypatch.setattr(Path, "open", open_then_fail)


@pytest.mark.parametrize("how", ["write-fails", "name-is-a-directory"])
@pytest.mark.parametrize("name", OUTPUT_NAMES)
def test_run_outputs_land_all_or_nothing(tmp_path, capsys, monkeypatch, name, how):
    # a failure on any one of the five files leaves the previous run's five as they
    # were (the one a directory holds stays that directory) and no temporary behind
    out_dir = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, m=2)), "--out", str(out_dir)]) == 0
    if how == "write-fails":
        failing_write(monkeypatch, name)
    else:
        (out_dir / name).unlink()
        (out_dir / name).mkdir()
    before = {f.name: f.read_bytes() for f in out_dir.iterdir() if f.is_file()}
    capsys.readouterr()
    assert main(["run", str(write_config(tmp_path, m=1)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out_dir / name}: ")
    assert {f.name: f.read_bytes() for f in out_dir.iterdir() if f.is_file()} == before
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(OUTPUT_NAMES)



def test_run_through_a_symlinked_output_replaces_the_file_it_names(tmp_path):
    # the link stays a link and the file it names gets the run's bytes, as a fresh
    # run writes them; no temporary remains beside the link or the file
    out_dir, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["run", str(write_config(tmp_path, m=2)), "--out", str(out_dir)]) == 0
    (tmp_path / "elsewhere").mkdir()
    target = tmp_path / "elsewhere" / "result.json"
    target.write_text("old")
    (out_dir / "result.json").unlink()
    (out_dir / "result.json").symlink_to(target)
    config = write_config(tmp_path, m=1)
    assert main(["run", str(config), "--out", str(out_dir)]) == 0
    assert main(["run", str(config), "--out", str(fresh)]) == 0
    assert (out_dir / "result.json").is_symlink()
    assert target.read_bytes() == (fresh / "result.json").read_bytes()
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(OUTPUT_NAMES)
    assert [f.name for f in target.parent.iterdir()] == ["result.json"]


@pytest.mark.parametrize("kind", ["fifo", "link-to-fifo", "symlink-loop"])
@pytest.mark.parametrize("name", ["result.json", "mean_photon.json"])
def test_run_onto_an_output_that_is_not_a_regular_file_writes_nothing(tmp_path, capsys, name, kind):
    # a name held by a pipe (or a device), directly or through a link, or a symlink
    # loop: one line, exit 1, before any file is written or the pipe is opened
    out_dir = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, m=2)), "--out", str(out_dir)]) == 0
    path = out_dir / name
    path.unlink()
    if kind == "symlink-loop":
        path.symlink_to(name)
    else:
        os.mkfifo(tmp_path / "pipe" if kind == "link-to-fifo" else path)
        if kind == "link-to-fifo":
            path.symlink_to(tmp_path / "pipe")
    before = {f.name: f.read_bytes() for f in out_dir.iterdir() if f.name != name}
    capsys.readouterr()
    assert main(["run", str(write_config(tmp_path, m=1)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {path}: ")
    assert {f.name: f.read_bytes() for f in out_dir.iterdir() if f.name != name} == before
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(OUTPUT_NAMES)
    assert path.is_symlink() or path.is_fifo()

def test_run_over_previous_outputs_writes_a_fresh_runs_bytes(tmp_path):
    # the five files replace the previous run's, as a fresh run writes them and with
    # the mode a plain write gives a new file, and no temporary is left
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert main(["run", str(write_config(tmp_path, m=2)), "--out", str(reused)]) == 0
    config = write_config(tmp_path, m=1)
    assert main(["run", str(config), "--out", str(reused)]) == 0
    assert main(["run", str(config), "--out", str(fresh)]) == 0
    assert sorted(f.name for f in reused.iterdir()) == sorted(OUTPUT_NAMES)
    (tmp_path / "plain").write_text("")
    plain_mode = (tmp_path / "plain").stat().st_mode
    for name in OUTPUT_NAMES:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        assert (reused / name).stat().st_mode == plain_mode


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        b'\xff\xfe{"alpha": 1, "mode": "add", "m": 1}',
        b'\xff\xfe{"alpha": 1, "mode": "add", "m": 10}',
        b'{"alpha": 1, "mode": "\x80"}',
        b"[" * 100000,
    ],
    ids=["utf16-bom-odd", "utf16-bom-even", "not-utf8", "deep-nesting"],
)
def test_run_rejects_undecodable_config(tmp_path, capsys, raw):
    # a UTF-16 byte-order mark over UTF-8 text (odd and even length), bytes
    # that are not UTF-8, and nesting deeper than the parser's recursion limit
    config = tmp_path / "config.json"
    config.write_bytes(raw)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_undersized_dim_with_minimum(tmp_path, capsys):
    config = write_config(tmp_path, dim=10)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "minimum" in captured.err


def test_run_surfaces_truncation_error(tmp_path, capsys, monkeypatch):
    # no config at or above the sizing policy trips a guard, so shrink the
    # policy the config is checked against; make_coherent still suggests the real one
    monkeypatch.setattr("tpjc.experiment.default_dim", lambda alpha, added_photons=0: 10)
    config = write_config(tmp_path, alpha=5, m=1)
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (
        "error: truncation too small: coherent tail mass 9.998e-01 exceeds "
        "tail_tol=1.000e-10; enlarge dim=10; suggested minimum dim is 99\n"
    )


@pytest.mark.parametrize("code", [1, 3])
def test_run_that_fails_creates_no_output_directory(tmp_path, capsys, monkeypatch, code):
    # exit 1: the subtraction removes all the mass; exit 3: the coherent build
    # trips its guard, by the route test_run_surfaces_truncation_error takes
    if code == 1:
        config = write_config(tmp_path, alpha=[0, 3], mode="subtract", m=40)
    else:
        monkeypatch.setattr("tpjc.experiment.default_dim", lambda alpha, added_photons=0: 10)
        config = write_config(tmp_path, alpha=5, m=1)
    rc = main(["run", str(config), "--out", str(tmp_path / "out" / "run")])
    assert rc == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_oracle_check_command(capsys):
    rc = main(["oracle-check", "--dim", "16", "--trials", "3", "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "max_deviation" in captured.out


def test_oracle_check_writes_report(tmp_path, capsys):
    report_path = tmp_path / "oracle.json"
    args = ["oracle-check", "--dim", "16", "--trials", "3", "--seed", "7"]
    assert main([*args, "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["dim"] == 16
    assert data["comparisons"] == 9
    assert data["passed"] is True
    # the report's bytes as released, numbers in shortest float repr, in the
    # file and on stdout alike
    capsys.readouterr()
    assert main(args) == 0
    for report in (report_path.read_bytes(), capsys.readouterr().out.encode()):
        digest = hashlib.sha256(report).hexdigest()
        assert digest == "4aa445ab2059b36fff69f77cb6eebb5e728d83ea0a76c24b27a0c100a46e60f0"


def test_oracle_check_reports_unwritable_report(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    rc = main(["oracle-check", "--dim", "8", "--trials", "1", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {path}: ")


REPORTS = pytest.mark.parametrize(
    "args",
    [["approx-table", "--max-j", "5"], ["oracle-check", "--dim", "8", "--trials", "1"]],
    ids=["approx-table", "oracle-check"],
)


@REPORTS
def test_report_write_that_fails_keeps_the_previous_report(tmp_path, capsys, monkeypatch, args):
    # a report is written as a run's files are: a write that fails once the file is
    # open leaves the previous report's bytes and no temporary behind
    path = tmp_path / "report"
    assert main([*args[:-1], "3", "--out", str(path)]) == 0
    before = path.read_bytes()
    failing_write(monkeypatch, path.name)
    capsys.readouterr()
    assert main([*args, "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


@REPORTS
def test_report_through_a_symlink_replaces_the_file_it_names(tmp_path, capsys, args):
    # the link stays a link; the file it names gets the report, and no temporary remains
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "report"
    target.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main([*args, "--out", str(link)]) == 0
    assert capsys.readouterr().out == f"wrote {link}\n"
    assert main(args) == 0
    assert link.is_symlink() and target.read_text() == capsys.readouterr().out
    assert sorted(f.name for f in tmp_path.rglob("*")) == ["link", "real", "report"]


@REPORTS
def test_report_to_a_pipe_is_written_in_place(tmp_path, capsys, args):
    # a target that is not a regular file (a pipe here, /dev/null alike) is opened and
    # written, never replaced by a renamed temporary
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*args, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert main(args) == 0
    assert received == [capsys.readouterr().out.removeprefix(f"wrote {fifo}\n")]
    assert fifo.is_fifo() and [f.name for f in tmp_path.iterdir()] == ["pipe"]


@REPORTS
@pytest.mark.parametrize("out", ["missing/r", ".", "/", "loop"])
def test_report_to_an_unwritable_target_is_one_line(tmp_path, capsys, monkeypatch, args, out):
    # a missing directory, a directory (whose name may be empty) or a symlink loop:
    # one diagnostic line and exit 1, never a traceback
    monkeypatch.chdir(tmp_path)
    Path("loop").symlink_to("loop")
    assert main([*args, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["loop"]


def test_oracle_check_reports_failure(capsys, monkeypatch):
    def too_fast(n, gt):  # the closed form's Rabi angle, 1% too large
        return 1.01 * gt * np.sqrt((n + 2.0) * (n + 1.0))

    monkeypatch.setattr("tpjc.dynamics.rabi_angle", too_fast)
    rc = main(["oracle-check", "--dim", "8", "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    report = json.loads(captured.out)
    assert report["max_deviation"] == pytest.approx(0.3375, abs=5e-5)
    assert report["passed"] is False
    assert captured.err == "FAIL: max deviation 3.375e-01 exceeds 1.0e-08\n"


def test_oracle_check_reports_eigh_failure(capsys, monkeypatch):
    def eigh_fails(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
    rc = main(["oracle-check", "--dim", "8", "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: eigh failed on the 16x16 Hamiltonian\n"


def test_oracle_check_rejects_large_dim(capsys):
    rc = main(["oracle-check", "--dim", "4096", "--trials", "1"])
    assert rc == 2
    assert "invalid config" in capsys.readouterr().err


def test_oracle_check_rejects_negative_seed(capsys):
    rc = main(["oracle-check", "--dim", "16", "--trials", "1", "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "invalid config" in err and "seed" in err


def test_approx_table_stdout(capsys):
    rc = main(["approx-table", "--max-j", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "j,add_error,subtract_error"
    assert len(lines) == 7
    assert lines[1].startswith("0,")
    assert "nan" in lines[1]


@pytest.mark.parametrize("max_j", ["-1", "1000001"])
def test_approx_table_rejects_max_j_out_of_range(capsys, max_j):
    assert main(["approx-table", "--max-j", max_j]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "max_j must be in [0, 1000000]" in captured.err


@pytest.mark.parametrize(
    "args",
    [["approx-table", "--max-j", "50"], ["oracle-check", "--dim", "16", "--trials", "3"]],
    ids=["approx-table", "oracle-check"],
)
def test_report_stdout_equals_out_file(tmp_path, capsys, args):
    path_a = tmp_path / "a"
    path_b = tmp_path / "b"
    assert main([*args, "--out", str(path_a)]) == 0
    assert main([*args, "--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    assert capsys.readouterr().out == f"wrote {path_a}\nwrote {path_b}\n"
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == path_a.read_bytes()


def test_approx_table_default_bytes(capsys):
    # the default --max-j is 200; digest of its table as released, numbers
    # in shortest float repr
    assert main(["approx-table"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5b7a755604eb60faa753348032e0e60cac983d0d27684cb487f25219f8195fbe"


def test_shipped_configs_are_valid():
    from tpjc.experiment import load_config

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("add_alpha5.json", "subtract_alpha12.json"):
        config = load_config(configs / name)
        assert config.m == 50
        assert type(config.dim) is int


# sha256 of the files `tpjc run` writes for each shipped config. A change
# meant to leave results alone must leave these bytes alone; a change that
# alters them on purpose updates the digests and says why. The fidelities
# (in fidelity_series.csv and result.json) are the band kernel's sums: BLAS
# matrix-vector products per block of bands, then one sum over the blocks (the
# path rule keeps both configs on that kernel, off the branch kernel);
# subtract_alpha12's mandel_q_predicted is the Q of the ideal 50-step
# subtracted state. Numbers are written as Python's shortest
# float repr, which reads back to the same float64 as the 17-digit form these
# files had before ("-0.8", not "-0.80000000000000004"; "1.0", not "1"), so
# the digests changed with no value; add_alpha5's mean_photon.json and
# subtract_alpha12's mandel_q.json needed all 17 digits and kept their bytes.
# subtract_alpha12's targets are renormalized by (1 - S)^(-1/2) at every S,
# where they once skipped it below S = 1e-12; that raised F(29)..F(34) by
# 4.4e-16 .. 6.0e-13 and changed its result.json and fidelity_series.csv.
# The band kernel, which replaced a row sweep of the W x W matrix, sums F in
# another order: 29 of add_alpha5's 51 F values and 20 of subtract_alpha12's
# moved by 1 or 2 ulp (at most 2.2e-16), so both configs' result.json and
# fidelity_series.csv changed; every distribution, mean and Q kept its bytes.
# Each pass is now scored against psi0 shifted by 2k, and a subtract F is then
# multiplied by (1 - S_k)^(-1/2) twice instead of the target being divided by
# it: 10 of subtract_alpha12's 51 F values moved by 1 or 2 ulp (at most
# 2.2e-16), so its result.json and fidelity_series.csv changed; add_alpha5's
# F values are bit-identical, and every other byte of both configs held.
# The band kernel now runs in the co-moving frame on the levels the base vector
# holds, 121 of add_alpha5's 256, so its BLAS products sum shorter rows and F
# sums over 4 blocks, not 8: 5 of add_alpha5's 51 F values (k = 7, 8, 33, 35,
# 49) rose by 1 ulp (1.1e-16), each toward the 80-bit reference (tests/
# test_reference80.py's loop at dim 256: at k = 49, 9.4e-16 -> 8.3e-16; the
# largest distance, 9.7e-16, is unchanged), so its result.json and
# fidelity_series.csv changed. subtract_alpha12's F values are bit-identical,
# and every distribution, mean and Q byte of both configs held.
# The pass machinery now runs in one direction, an addition's window read from
# its top level down, so add_alpha5's band kernel sums each BLAS product over
# its levels in the reverse order: 20 of its 51 F values moved by 1 or 2 ulp
# (at most 2.2e-16), and its largest distance to the 80-bit reference (at
# k = 50) went 9.7e-16 -> 1.08e-15, so its result.json and fidelity_series.csv
# changed. subtract_alpha12's F values are bit-identical, and every
# distribution, mean and Q byte of both configs held.
SHIPPED_OUTPUT_SHA256 = {
    "add_alpha5.json": {
        "result.json": "8678899139b387e498d4cfc1f50f4308dfcf58931836c83c9f6d3a404619870c",
        "fock_dist.csv": "4fb1b2546bca7cf4e0ca4d5e8178d5c2baed01c4868c4c902e9b81d044f08ca9",
        "fidelity_series.csv": "eb367c77fc09aa0dfdd8f1df37043ca3db84e03ca0cd6f2edd3db8e2a64caaa3",
        "mandel_q.json": "e9435127e5e2024f68823fcd541bf3b174cf544fa657d08d74a1997b1fa056a2",
        "mean_photon.json": "6b15512fe900b92abfd827905160742be79bf03744159162433f5031111bd41b",
    },
    "subtract_alpha12.json": {
        "result.json": "332b1fba2b0362070180c53563a83238f387057ee43311b0d7e031bd660ca49a",
        "fock_dist.csv": "9b8921142ef2626dd0035bffbead3c2846633bff526b67c74edf5ed9eb6f6f20",
        "fidelity_series.csv": "e673a56e5c01c12444fbc59432c0db3a8ac5994035dc603c527644f479c182fa",
        "mandel_q.json": "063a42eb6d474f686d5baf24e34a8884485675f0957313713769f732ab5aa843",
        "mean_photon.json": "c75cbbb1723efdd59df5fad242baccd8d7ac08df80ddfacaee167ecdb1e1e2c2",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_OUTPUT_SHA256))
def test_shipped_config_output_bytes(tmp_path, name):
    config = Path(__file__).resolve().parent.parent / "configs" / name
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 0
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())
    }
    assert digests == SHIPPED_OUTPUT_SHA256[name]


def _cli_process(*args):
    """``PYTHONPATH=src python -m tpjc.cli ARGS`` from the repository root,
    as README gives it: the module's own ``sys.exit(main())``, in a process."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "tpjc.cli", *args]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_cli_module_exits_with_main_code(tmp_path):
    out_dir = tmp_path / "out"
    done = _cli_process("run", "configs/add_alpha5.json", "--out", str(out_dir))
    assert done.returncode == 0, done.stderr
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())
    }
    assert digests == SHIPPED_OUTPUT_SHA256["add_alpha5.json"]

    config = tmp_path / "no_m.json"
    config.write_text(json.dumps({"alpha": 5.0, "mode": "add"}))
    bad_out = tmp_path / "bad_out"
    done = _cli_process("run", str(config), "--out", str(bad_out))
    assert done.returncode == 2
    assert done.stderr == "error: invalid config: missing required config field 'm'\n"
    assert done.stdout == ""
    assert not bad_out.exists()
