"""Workloads of the tpjc benchmark: inputs, one op, and its checks.

A workload is built from a spec (a JSON-able dict) and the seed. Building
it is the set-up the benchmark times. ``op`` is the unit timed; ``check``
verifies the op's outputs with tolerances (never byte digests, so a
deliberate change of output bytes does not break the benchmark) and
returns the quality figures the report prints.

Every call into tpjc goes through a module attribute looked up at call
time, so the tracer's patches reach it.
"""

from __future__ import annotations

import cmath
import io
import math
import random
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import tpjc.cli
from tpjc import dynamics, experiment, fock, sg

# Largest accepted |<n>_final - law| in photons. The exact protocol differs
# from the ideal ladder law by the Rabi linearization error: 5e-3 on the
# shipped add config, 8e-4 on the subtract config, 1e-6 at |alpha| = 45.
MEAN_LAW_TOL = 0.05

# Files `tpjc run` writes for a config with the default outputs.
RUN_OUTPUT_FILES = (
    "result.json",
    "fock_dist.csv",
    "fidelity_series.csv",
    "mandel_q.json",
    "mean_photon.json",
)


class CheckFailed(Exception):
    """An op's outputs failed a correctness check."""


def _law(psi0, m: int, mode) -> float:
    if mode is sg.Mode.ADD:
        return fock.mean_photon(psi0) + 2.0 * m
    return sg.subtracted_mean_predict(psi0, m)


def _check_protocol(label, fidelity_series, final_dist, mean_final, m, law, norm_tol) -> dict:
    if len(fidelity_series) != m + 1:
        raise CheckFailed(f"{label}: {len(fidelity_series)} fidelities, expected {m + 1}")
    fids = [f for _, f in fidelity_series]
    if not all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in fids):
        raise CheckFailed(f"{label}: fidelity outside [0, 1]")
    drift = abs(math.fsum(p for _, p in final_dist) - 1.0)
    if not drift <= norm_tol:
        raise CheckFailed(f"{label}: trace drift {drift:.3e} exceeds norm_tol {norm_tol:.1e}")
    law_err = abs(mean_final - law)
    if not law_err <= MEAN_LAW_TOL:
        raise CheckFailed(f"{label}: |<n> - law| = {law_err:.3e} exceeds {MEAN_LAW_TOL}")
    return {f"infidelity_final.{label}": 1.0 - fids[-1], f"mean_law_err.{label}": law_err}


class ConfigsWorkload:
    """`tpjc run <config> --out <dir>`, in process, on each config in turn."""

    def __init__(self, spec: dict, seed: int, root: Path, scratch: Path) -> None:
        self.runs = []
        for i, rel in enumerate(spec["configs"]):
            path = root / rel
            cfg = experiment.load_config(path)
            dim = cfg.resolved_dim()
            psi0 = fock.make_coherent(cfg.alpha, dim, cfg.tolerances)
            self.runs.append(
                {
                    "label": path.stem,
                    "path": str(path),
                    "out": scratch / f"out{i}",
                    "m": cfg.m,
                    "dim": dim,
                    "law": _law(psi0, cfg.m, cfg.mode),
                    "norm_tol": cfg.tolerances.norm_tol,
                }
            )
        self.work = sum(r["m"] for r in self.runs)
        self.work_unit = "protocol passes"
        self.expected_calls = {
            "dynamics.pass": self.work,
            "fock.fidelity": sum(r["m"] + 1 for r in self.runs),
            "cli.main": len(self.runs),
        }
        self.info = {
            "N": [r["dim"] for r in self.runs],
            "bytes_per_matrix": [r["dim"] ** 2 * 16 for r in self.runs],
            "m": [r["m"] for r in self.runs],
        }

    def prepare(self) -> None:
        for r in self.runs:
            shutil.rmtree(r["out"], ignore_errors=True)

    def op(self):
        codes = []
        with redirect_stdout(io.StringIO()):
            for r in self.runs:
                codes.append(tpjc.cli.main(["run", r["path"], "--out", str(r["out"])]))
        return codes

    def check(self, codes) -> dict:
        quality = {}
        for r, code in zip(self.runs, codes):
            if code != 0:
                raise CheckFailed(f"{r['label']}: tpjc run exited {code}")
            missing = [f for f in RUN_OUTPUT_FILES if not (r["out"] / f).is_file()]
            if missing:
                raise CheckFailed(f"{r['label']}: missing outputs {missing}")
            res = experiment.load_result(r["out"] / "result.json")
            quality.update(
                _check_protocol(
                    r["label"], res.fidelity_series, res.final_dist,
                    res.mean_photon_final, r["m"], r["law"], r["norm_tol"],
                )
            )
        quality["bytes_written"] = sum(
            f.stat().st_size for r in self.runs for f in r["out"].iterdir()
        )
        return quality

    def work_done(self, codes) -> int:
        return self.work


class ProtocolWorkload:
    """`dynamics.run_protocol` on a coherent state whose phase comes from
    the seed, so the density matrix is genuinely complex."""

    def __init__(self, spec: dict, seed: int, root: Path, scratch: Path) -> None:
        phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        self.alpha = spec["alpha"] * cmath.exp(1j * phase)
        self.mode = sg.Mode(spec["mode"])
        self.m = spec["m"]
        gain = 2 * self.m if self.mode is sg.Mode.ADD else 0
        dim = fock.default_dim(self.alpha, gain)
        self.psi0 = fock.make_coherent(self.alpha, dim)
        self.law = _law(self.psi0, self.m, self.mode)
        self.label = f"{self.mode.value}_alpha{spec['alpha']:g}"
        self.work_unit = "protocol passes"
        self.expected_calls = {
            "dynamics.pass": self.m,
            "fock.fidelity": self.m + 1,
            "dynamics.run_protocol": 1,
        }
        self.info = {
            "N": dim,
            "bytes_per_matrix": dim * dim * 16,
            "m": self.m,
            "alpha": [self.alpha.real, self.alpha.imag],
        }

    def prepare(self) -> None:
        pass

    def op(self):
        return dynamics.run_protocol(self.psi0, self.m, self.mode)

    def check(self, result) -> dict:
        return _check_protocol(
            self.label, result.fidelity_series, result.final_dist,
            result.mean_photon_final, self.m, self.law, fock.DEFAULT_TOL.norm_tol,
        )

    def work_done(self, result) -> int:
        return self.m


class OracleWorkload:
    """`experiment.oracle_check` with the `tpjc oracle-check` defaults and
    the benchmark seed."""

    def __init__(self, spec: dict, seed: int, root: Path, scratch: Path) -> None:
        self.dim = spec["dim"]
        self.trials = spec["trials"]
        self.seed = seed
        self.work_unit = "oracle comparisons"
        comparisons = self.trials * len(experiment.ORACLE_CHECK_TIMES)
        self.expected_calls = {
            "dynamics.evolve_oracle": comparisons,
            "dynamics.evolve_closed_form": comparisons,
        }
        self.info = {
            "N": self.dim,
            "bytes_per_matrix": (2 * self.dim) ** 2 * 16,
            "trials": self.trials,
        }

    def prepare(self) -> None:
        pass

    def op(self):
        return experiment.oracle_check(dim=self.dim, trials=self.trials, seed=self.seed)

    def check(self, report) -> dict:
        if report.comparisons != self.trials * len(report.times):
            raise CheckFailed(f"oracle: {report.comparisons} comparisons, expected {self.trials * len(report.times)}")
        if not report.passed:
            raise CheckFailed(f"oracle: max deviation {report.max_deviation:.3e} over the bound")
        return {"oracle_max_dev": report.max_deviation}

    def work_done(self, report) -> int:
        return report.comparisons


KINDS = {"configs": ConfigsWorkload, "protocol": ProtocolWorkload, "oracle": OracleWorkload}


def build(spec: dict, seed: int, root: Path, scratch: Path):
    return KINDS[spec["kind"]](spec, seed, root, scratch)
