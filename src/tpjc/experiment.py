"""Config-driven experiment runner with machine-readable outputs.

One JSON config describes one protocol run (coherent base, direction,
repetition count). The runner executes the pass iteration, then writes
``result.json`` (the full result) and four summary files, always the
same five. Every number is written as Python's shortest repr that reads
back to the same float64, and the pipeline contains no randomness
outside the explicitly seeded oracle check, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from .dynamics import (
    ProtocolResult,
    approx_error,
    evolve_closed_form,
    evolve_oracle,
    first_level_bound,
    hamiltonian_eig,
    run_protocol,
    window_start,
)
from .errors import ConfigInvalid, IoFailure, ZeroMeanPhoton
from .fock import DEFAULT_TOL, Tolerances, default_dim, make_coherent
from .sg import Mode, ideal_state, mandel_q, mandel_q_coherent_predict

# `tpjc oracle-check`: default dim, trials and seed, the fixed angles gt it
# compares at, and its pass bound. `tpjc approx-table`: default largest j.
ORACLE_CHECK_DIM = 64
ORACLE_CHECK_TRIALS = 100
ORACLE_CHECK_SEED = 42
ORACLE_CHECK_TIMES = (0.3, math.pi, 7.1)
ORACLE_CHECK_BOUND = 1e-8
APPROX_TABLE_MAX_J = 200

# Largest memory a run may need: W x W float64s, a conservative bound on the band run's
# block, scratch and base vector, plus 96 B per level (about six complex arrays) for
# make_coherent. Whole runs peak at 390-441 B per level, mostly N-row result lists and
# output strings; the W^2 term, 7-8x that peak, covers them. Fixed, so host-independent.
MEMORY_BUDGET = 2 << 30


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run; ``dim`` is its resolved Fock truncation N."""

    alpha: complex
    mode: Mode
    m: int
    dim: int

    # The run needs neither (its guards gate at DEFAULT_TOL); perfbench reads both.
    @property
    def tolerances(self) -> Tolerances:
        return DEFAULT_TOL

    def resolved_dim(self) -> int:
        return self.dim


# ---------------------------------------------------------------------------
# config parsing


def _parse_alpha(raw) -> complex:
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise ConfigInvalid(f"alpha must be a number or a [re, im] pair, got {raw!r}")
    # json accepts NaN and Infinity literals and integers beyond the float
    # range; the sizing policy takes none of them.
    if not all(abs(x) <= sys.float_info.max for x in parts):
        raise ConfigInvalid(f"alpha must be finite, got {raw!r}")
    return complex(parts[0], parts[1])


def _integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` if it is an int (a bool is not) in [lo, hi], else ConfigInvalid."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigInvalid(f"{name} must be {span}, got {value}")
    return value


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a decoded config object and resolve its dim; raises
    ConfigInvalid with the offending field named."""
    if not isinstance(data, dict):
        raise ConfigInvalid("config must be a JSON object")
    known = {"alpha", "mode", "m", "dim"}
    unknown = set(data) - known
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    for required in ("alpha", "mode", "m"):
        if required not in data:
            raise ConfigInvalid(f"missing required config field {required!r}")

    alpha = _parse_alpha(data["alpha"])
    try:
        mode = Mode(data["mode"])
    except ValueError:
        raise ConfigInvalid(f"mode must be 'add' or 'subtract', got {data['mode']!r}") from None

    m = _integer("m", data["m"], 0)

    try:
        minimum = default_dim(alpha, 2 * m if mode is Mode.ADD else 0)
    except OverflowError:  # |alpha|^2 or the photon gain is beyond the float range
        minimum = math.inf

    dim = data.get("dim")
    dim = minimum if dim is None else _integer("dim", dim, 1)
    if dim < minimum:
        raise ConfigInvalid(
            f"dim={dim} below the sizing policy for alpha={alpha}, m={m}, "
            f"mode={mode.value}; computed minimum is {minimum}"
        )
    # An N whose own arrays are over budget (one that is infinite or past intp) is its
    # own window, so its |alpha| skips the bound; Decimal formats an int past float range.
    levels = dim * 6 * 16
    width = dim if levels > MEMORY_BUDGET else dim - window_start(first_level_bound(alpha), m, mode)
    need = width * width * 8 + levels
    if need > MEMORY_BUDGET:
        size = f"{need:.3g}" if need <= sys.float_info.max else f"{Decimal(need):.3g}"
        raise ConfigInvalid(
            f"alpha={alpha}, m={m}, mode={mode.value} needs N={dim} levels and a "
            f"W={width} window, {size} bytes, over the {MEMORY_BUDGET} byte budget"
        )
    return ExperimentConfig(alpha=alpha, mode=mode, m=m, dim=dim)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    # ValueError: JSONDecodeError, UnicodeDecodeError, or an integer literal
    # over the digit limit. RecursionError: nesting deeper than the limit.
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# serialization (shortest round-trip float repr, deterministic bytes)


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def emit_json(result: ProtocolResult, path: str | Path) -> None:
    """Full result as JSON, one line per ProtocolResult field, in field order."""
    lines = ",\n".join(
        f"  {json.dumps(f.name)}: {json.dumps(getattr(result, f.name))}" for f in fields(result)
    )
    _write_text(path, "{\n" + lines + "\n}\n")


def _number(value, nullable: bool = False) -> float | None:
    if type(value) in (int, float) or (nullable and value is None):
        return None if value is None else float(value)
    raise TypeError(f"expected a number, got {value!r}")


def load_result(path: str | Path) -> ProtocolResult:
    try:
        data = json.loads(Path(path).read_text())
        warnings = data["warnings"]
        if type(warnings) is not list or not all(type(w) is str for w in warnings):
            raise TypeError(f"warnings must be a list of strings, got {warnings!r}")
        return ProtocolResult(
            fidelity_series=[(_integer("k", k, 0), _number(f)) for k, f in data["fidelity_series"]],
            initial_dist=[(_integer("j", j, 0), _number(p)) for j, p in data["initial_dist"]],
            final_dist=[(_integer("j", j, 0), _number(p)) for j, p in data["final_dist"]],
            mean_photon_initial=_number(data["mean_photon_initial"]),
            mean_photon_final=_number(data["mean_photon_final"]),
            mandel_q_final=_number(data["mandel_q_final"], nullable=True),
            mandel_q_predicted=_number(data["mandel_q_predicted"], nullable=True),
            warnings=warnings,
        )
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    # ValueError: not JSON or a bad pair; RecursionError/OverflowError: nesting or a number
    # past its limit; KeyError/TypeError/ConfigInvalid: a missing, mistyped or negative field
    except (ValueError, RecursionError, KeyError, TypeError, ConfigInvalid, OverflowError) as exc:
        raise IoFailure(f"{path} is not a valid result file: {exc!r}") from exc


def _fields_json(obj, *names: str) -> str:
    """The named attributes of ``obj`` as one JSON object on one line."""
    return json.dumps({name: getattr(obj, name) for name in names}) + "\n"


def _csv(header: str, *columns) -> str:
    """``header``, then line i: each column's i-th value, written with str
    (not repr, which numpy 2 writes as ``np.float64(...)``). Columns are
    formatted with map, which costs less per cell than unpacking each row."""
    lines = [",".join(cells) for cells in zip(*(map(str, c) for c in columns))]
    return header + "\n" + "\n".join(lines) + "\n"


def emit_fidelity_csv(result: ProtocolResult, path: str | Path) -> None:
    _write_text(path, _csv("k,fidelity", *zip(*result.fidelity_series)))


def emit_distribution_csv(result: ProtocolResult, path: str | Path) -> None:
    j, p_initial = zip(*result.initial_dist)
    _, p_final = zip(*result.final_dist)
    _write_text(path, _csv("j,p_initial,p_final", j, p_initial, p_final))


# ---------------------------------------------------------------------------
# standalone analyses


def approx_error_table(max_j: int) -> list[tuple[int, float, float]]:
    """(j, add-branch error, subtract-branch error) for j = 0..max_j.

    The subtract branch has a zero reference value below j = 2; those
    entries are NaN. max_j is bounded at 10^6: the rows take ~430 B each.
    """
    _integer("max_j", max_j, 0, 10**6)
    rows = []
    for j in range(max_j + 1):
        add_err = approx_error(j, Mode.ADD)
        sub_err = approx_error(j, Mode.SUBTRACT) if j >= 2 else float("nan")
        rows.append((j, add_err, sub_err))
    return rows


def approx_table_csv(rows: list[tuple[int, float, float]]) -> str:
    return _csv("j,add_error,subtract_error", *zip(*rows))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of comparing the closed-form propagator with the dense oracle."""

    dim: int
    trials: int
    seed: int
    times: tuple[float, ...]
    comparisons: int
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= ORACLE_CHECK_BOUND


def _random_joint_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    # Top two excited amplitudes are zeroed so the closed form's
    # truncation guard is satisfied exactly.
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw[dim - 2 : dim] = 0.0
    raw /= np.linalg.norm(raw)
    return raw


def oracle_check(
    dim: int = ORACLE_CHECK_DIM,
    trials: int = ORACLE_CHECK_TRIALS,
    seed: int = ORACLE_CHECK_SEED,
) -> OracleReport:
    """Evolve seeded random joint states with both propagators for each
    angle gt in ``ORACLE_CHECK_TIMES`` and report the worst vector-norm
    deviation. The Hamiltonian is decomposed once, for every comparison."""
    _integer("oracle check dim", dim, 3, 128)
    _integer("oracle check trials", trials, 0)
    _integer("oracle check seed", seed, 0)
    eig = hamiltonian_eig(dim)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        state = _random_joint_state(rng, dim)
        for t in ORACLE_CHECK_TIMES:
            delta = evolve_closed_form(state, t) - evolve_oracle(state, t, eig)
            worst = max(worst, float(np.linalg.norm(delta)))
    return OracleReport(
        dim=dim,
        trials=trials,
        seed=seed,
        times=ORACLE_CHECK_TIMES,
        comparisons=trials * len(ORACLE_CHECK_TIMES),
        max_deviation=worst,
    )


def oracle_report_json(report: OracleReport) -> str:
    return _fields_json(report, *(f.name for f in fields(report)), "passed")


# ---------------------------------------------------------------------------
# top-level run


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> tuple[ProtocolResult, list[Path]]:
    """Execute the configured protocol and write its five files."""
    psi0 = make_coherent(config.alpha, config.dim)
    result = run_protocol(psi0, config.m, config.mode)
    # Q of the ideal m-step state. The closed form is exact for addition, a
    # shift of a Poisson distribution; subtraction also drops the low levels.
    # At zero mean photon number Q is undefined, as run_protocol records it.
    try:
        if config.mode is Mode.ADD or config.m == 0:
            q_predicted = mandel_q_coherent_predict(config.alpha, config.m, config.mode)
        else:
            q_predicted = mandel_q(ideal_state(psi0, config.m, config.mode))
    except ZeroMeanPhoton:
        q_predicted = None
    result = replace(result, mandel_q_predicted=q_predicted)

    # only now, so a run that fails leaves no directory behind
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: {exc}") from exc
    names = ("result.json", "fock_dist.csv", "fidelity_series.csv", "mandel_q.json", "mean_photon.json")
    written = [out / name for name in names]
    result_json, dist_csv, fidelity_csv, q_json, mean_json = written
    emit_json(result, result_json)
    emit_distribution_csv(result, dist_csv)
    emit_fidelity_csv(result, fidelity_csv)
    _write_text(q_json, _fields_json(result, "mandel_q_final", "mandel_q_predicted"))
    _write_text(mean_json, _fields_json(result, "mean_photon_initial", "mean_photon_final"))
    return result, written
