"""Config parsing, experiment runner, renderers, determinism."""

import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpjc import (
    DEFAULT_TOL,
    AllMassRemoved,
    ConfigInvalid,
    ExperimentConfig,
    IoFailure,
    Mode,
    TruncationTooSmall,
    approx_error,
    approx_error_table,
    build_hamiltonian,
    evolve_closed_form,
    load_config,
    load_result,
    make_coherent,
    mandel_q,
    mandel_q_coherent_predict,
    oracle_check,
    run_experiment,
    run_protocol,
    subtract_photons_ideal,
)
from tpjc import sg
from tpjc.cli import main
from tpjc.dynamics import WINDOW_MASS_TOL, first_level_bound, window_start
from tpjc.experiment import (
    MEMORY_BUDGET,
    ORACLE_CHECK_TIMES,
    _distribution_csv,
    _fidelity_csv,
    _random_joint_state,
    _result_json,
    parse_config,
)


def write_config(tmp_path, name="config.json", **overrides):
    data = {"alpha": [3.0, 0.0], "mode": "add", "m": 2}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# config validation


def test_parse_minimal_config():
    config = parse_config({"alpha": 5.0, "mode": "add", "m": 50})
    assert config.alpha == 5.0 + 0.0j
    assert config.mode is Mode.ADD
    assert config.m == 50
    assert config.dim == math.ceil(25 + 50 + 100 + 24)


def test_parse_alpha_pair():
    config = parse_config({"alpha": [3.0, 4.0], "mode": "subtract", "m": 1})
    assert config.alpha == 3.0 + 4.0j
    assert config.dim == math.ceil(25 + 50 + 24)


def test_config_holds_only_the_run():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["alpha", "mode", "m", "dim"]
    with pytest.raises(TypeError):
        ExperimentConfig(alpha=5, mode=Mode.ADD, m=1, dim=99, tolerances=DEFAULT_TOL)
    config = parse_config({"alpha": 5.0, "mode": "add", "m": 1, "dim": 120})
    assert config.tolerances is DEFAULT_TOL
    assert config.resolved_dim() == config.dim == 120


def test_run_gates_the_coherent_build_at_default_tol(tmp_path):
    # dim 30 loses 18% of |5>'s mass; no config object can loosen the guard
    config = ExperimentConfig(alpha=5, mode=Mode.SUBTRACT, m=1, dim=30)
    with pytest.raises(TruncationTooSmall):
        run_experiment(config, tmp_path / "out")


def test_config_rejects_undersized_dim():
    with pytest.raises(ConfigInvalid) as excinfo:
        parse_config({"alpha": 5.0, "mode": "add", "m": 50, "dim": 100})
    assert str(math.ceil(25 + 50 + 100 + 24)) in str(excinfo.value)


@pytest.mark.parametrize(
    "bad",
    [
        {"mode": "add", "m": 1},
        {"alpha": 5.0, "m": 1},
        {"alpha": 5.0, "mode": "add"},
        {"alpha": "five", "mode": "add", "m": 1},
        {"alpha": 5.0, "mode": "both", "m": 1},
        {"alpha": 5.0, "mode": "add", "m": -1},
        {"alpha": 5.0, "mode": "add", "m": 1.5},
        {"alpha": 5.0, "mode": "add", "m": 1, "g": 0.0},
        {"alpha": 5.0, "mode": "add", "m": 1, "outputs": ["plots"]},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"bogus": 1e-9}},
        {"alpha": 5.0, "mode": "add", "m": 1, "extra_field": 1},
        {"alpha": 5.0, "mode": "add", "m": 1, "g": 1.0},
        {"alpha": float("nan"), "mode": "add", "m": 1},
        {"alpha": float("inf"), "mode": "add", "m": 1},
        {"alpha": [3.0, float("nan")], "mode": "add", "m": 1},
        {"alpha": [float("-inf"), 0.0], "mode": "add", "m": 1},
        {"alpha": 1, "mode": "subtract", "m": 40, "tolerances": {"norm_tol": float("nan")}},
        {"alpha": 1, "mode": "subtract", "m": 40, "tolerances": {"tail_tol": float("inf")}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"herm_tol": float("-inf")}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"tail_tol": 10**400}},
        {"alpha": [1.0, -(10**400)], "mode": "add", "m": 1},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"herm_tol": 1e-10}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"psd_tol": 1e-8}},
        # no config field selects outputs: every run writes the same five
        # files, and the oracle report and the approx table come from their
        # subcommands
        {"alpha": 5.0, "mode": "add", "m": 1, "outputs": ["oracle_check"]},
        {"alpha": 5.0, "mode": "add", "m": 1, "outputs": ["approx_error_table"]},
        {
            "alpha": 5.0,
            "mode": "add",
            "m": 1,
            "outputs": ["fock_dist", "fidelity_series", "mandel_q", "mean_photon"],
        },
        # tolerances is not a config field either, whatever it holds: every
        # guard on the run path gates at DEFAULT_TOL
        {"alpha": 12.0, "mode": "subtract", "m": 50, "tolerances": {"norm_tol": 1}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"tail_tol": 1.0}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"tail_tol": 1e-22}},
        {"alpha": 5.0, "mode": "add", "m": 1, "tolerances": {"tail_tol": 0}},
    ],
)
def test_config_rejects_invalid_fields(bad):
    with pytest.raises(ConfigInvalid):
        parse_config(bad)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(bad)


# Values as json.loads can produce them: NaN, +-Infinity and integers of
# any size included.
_number = st.one_of(
    st.integers(-(10**30), 10**30),
    st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e150, 1e200]),
)
_primitive = st.one_of(st.none(), st.booleans(), _number, st.text("adsubtrcN1e ", max_size=9))
_small = st.floats(-30.0, 30.0)
# A config of the right kinds in each field, then at most one field (or
# one unknown name) set to any primitive, so most draws get past the
# early checks and reach the sizing policy.
_configs = st.builds(
    lambda base, override: {**base, **override},
    st.fixed_dictionaries(
        {
            "alpha": st.one_of(
                _small, _number, st.lists(st.one_of(_small, _number), min_size=2, max_size=2)
            ),
            "mode": st.sampled_from(["add", "subtract"]),
            "m": st.one_of(st.integers(0, 60), st.integers(0, 10**30), st.just(10**400)),
        },
        optional={"dim": st.one_of(st.integers(1, 10**4), _number)},
    ),
    st.dictionaries(
        st.sampled_from(["alpha", "mode", "m", "dim", "tolerances", "outputs", "extra_field"]),
        _primitive,
        max_size=1,
    ),
)


@pytest.mark.parametrize("m", [10, 50])
@pytest.mark.parametrize("mode", ["add", "subtract"])
@pytest.mark.parametrize("alpha", [12.0, 45.0, [100 * math.cos(0.7), 100 * math.sin(0.7)], 300.0])
def test_budget_window_bound_is_below_protocol_window(alpha, mode, m):
    # the budget never assumes a narrower window than run_protocol simulates
    config = parse_config({"alpha": alpha, "mode": mode, "m": m})
    p0 = np.abs(make_coherent(config.alpha, config.dim).amps) ** 2
    first = int(np.argmax(np.cumsum(p0) > WINDOW_MASS_TOL))
    budget_lo = window_start(first_level_bound(config.alpha), m, config.mode)
    assert budget_lo <= window_start(first, m, config.mode)


def test_no_config_at_the_sizing_policy_trips_a_guard():
    # every guard on the run path gates at DEFAULT_TOL, and a config's dim is
    # at or above the sizing policy, where none of them trips
    for alpha in (0.1, 1, 3, [2, 7], 10, 20):
        for mode in ("add", "subtract"):
            for m in (0, 1, 7, 50):
                config = parse_config({"alpha": alpha, "mode": mode, "m": m})
                psi0 = make_coherent(config.alpha, config.dim)
                try:
                    run_protocol(psi0, config.m, config.mode)
                except AllMassRemoved:
                    pass


@settings(max_examples=200, deadline=None)
@given(_configs)
@example({"alpha": 1e200, "mode": "add", "m": 1})
@example({"alpha": 1.0, "mode": "add", "m": 1, "dim": 10**30})
@example({"alpha": 1.0, "mode": "add", "m": 1, "dim": 10**200})
def test_parse_config_returns_runnable_config_or_rejects(data):
    try:
        config = parse_config(data)
    except ConfigInvalid:
        return
    dim = config.dim
    assert type(dim) is int and 1 <= dim <= np.iinfo(np.intp).max
    assert math.isfinite(abs(config.alpha))
    # W^2 float64s plus the coherent build's arrays fit the budget
    width = dim - window_start(first_level_bound(config.alpha), config.m, config.mode)
    assert width * width * 8 + dim * 6 * 16 <= MEMORY_BUDGET
    assert config.tolerances is DEFAULT_TOL


# Configs small enough to run in milliseconds (|alpha| <= 4, m <= 6,
# dim <= 200) with the field strategies above, then at most
# one field that does not size the run set to any primitive.
_tiny_alpha = st.floats(-2.8, 2.8)
_tiny_configs = st.builds(
    lambda base, override: {**base, **override},
    st.fixed_dictionaries(
        {
            "alpha": st.one_of(
                st.floats(-4.0, 4.0), st.lists(_tiny_alpha, min_size=2, max_size=2)
            ),
            "mode": st.sampled_from(["add", "subtract"]),
            "m": st.integers(0, 6),
        },
        optional={"dim": st.integers(1, 200)},
    ),
    st.dictionaries(
        st.sampled_from(["mode", "tolerances", "outputs", "extra_field"]), _primitive, max_size=1
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_tiny_configs.map(lambda d: json.dumps(d).encode()), st.binary(max_size=64)))
@example(b"\xff\xfe{}")
@example(b"[" * 100000)
def test_cli_run_exits_with_a_documented_code(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(raw)
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# runner


def test_run_small_experiment(tmp_path):
    config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    result, written = run_experiment(load_config(config_path), out_dir)
    assert [p.name for p in written] == [
        "result.json",
        "fock_dist.csv",
        "fidelity_series.csv",
        "mandel_q.json",
        "mean_photon.json",
    ]
    assert all(p.parent == out_dir and p.exists() for p in written)
    assert len(result.fidelity_series) == 3
    assert result.fidelity_series[0][0] == 0
    assert result.fidelity_series[0][1] == pytest.approx(1.0, abs=1e-12)
    assert result.mandel_q_predicted == pytest.approx(-4.0 / 13.0)


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "data",
    [
        json.loads((SHIPPED / "add_alpha5.json").read_text()),
        json.loads((SHIPPED / "subtract_alpha12.json").read_text()),
        {"alpha": 100, "mode": "add", "m": 50},
    ],
    ids=["add_alpha5", "subtract_alpha12", "add_alpha100"],
)
def test_memory_budget_prices_more_than_a_run_allocates(tmp_path, data):
    # W^2 float64s plus 96 B per level, against the whole run's tracemalloc peak:
    # 0.23 / 0.55 MB, 0.27 / 0.85 MB and 1.3 / 35.8 MB (116 B per level, most of it
    # make_coherent's; the result rows are the W = 2036 of the run's window) here
    config = parse_config(data)
    width = config.dim - window_start(first_level_bound(config.alpha), config.m, config.mode)
    tracemalloc.start()
    try:
        run_experiment(config, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < width * width * 8 + config.dim * 96


@pytest.mark.parametrize(
    "name, built",
    [("add_alpha5.json", []), ("subtract_alpha12.json", [50])],
    ids=["add_alpha5", "subtract_alpha12"],
)
def test_run_builds_a_ladder_state_only_for_the_subtract_q_prediction(monkeypatch, tmp_path, name, built):
    # run_protocol builds none; a subtract run's predicted Q is the m-step state's
    calls = []
    for builder in ("add_photons_ideal", "subtract_photons_ideal"):
        build = getattr(sg, builder)
        monkeypatch.setattr(sg, builder, lambda psi, m, f=build: calls.append(m) or f(psi, m))
    assert main(["run", str(SHIPPED / name), "--out", str(tmp_path / "out")]) == 0
    assert calls == built


def test_run_predicts_subtract_q_of_the_ideal_state(tmp_path):
    # at |alpha|^2 = 9 the two subtraction steps drop low components the
    # shift form leaves out, so it would report 4/5 instead
    config = parse_config({"alpha": 3.0, "mode": "subtract", "m": 2})
    result, _ = run_experiment(config, tmp_path / "out")
    psi0 = make_coherent(3.0, config.dim)
    expected = mandel_q(subtract_photons_ideal(psi0, 2)[0])
    assert result.mandel_q_predicted == expected
    assert abs(expected - mandel_q_coherent_predict(3.0, 2, Mode.SUBTRACT)) > 1e-3


def test_run_m0_distribution_unchanged(tmp_path):
    config_path = write_config(tmp_path, m=0)
    result, _ = run_experiment(load_config(config_path), tmp_path / "out")
    assert result.final_dist == result.initial_dist


def test_run_is_deterministic(tmp_path):
    config_path = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    _, written_a = run_experiment(load_config(config_path), out_a)
    _, written_b = run_experiment(load_config(config_path), out_b)
    assert [p.name for p in written_a] == [p.name for p in written_b]
    for pa, pb in zip(written_a, written_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_propagates_warnings_to_result_file(tmp_path):
    config_path = write_config(tmp_path, mode="subtract", m=2)
    out_dir = tmp_path / "out"
    result, _ = run_experiment(load_config(config_path), out_dir)
    assert any("low-component mass" in w for w in result.warnings)
    on_disk = json.loads((out_dir / "result.json").read_text())
    assert on_disk["warnings"] == result.warnings


# ---------------------------------------------------------------------------
# renderers


def small_result(tmp_path, m=2):
    config_path = write_config(tmp_path, m=m)
    result, _ = run_experiment(load_config(config_path), tmp_path / "out")
    return result


def test_fidelity_csv_layout(tmp_path):
    result = small_result(tmp_path, m=2)
    lines = _fidelity_csv(result).strip().splitlines()
    assert lines[0] == "k,fidelity"
    assert len(lines) == 1 + 3  # header + m+1 rows
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_distribution_csv_layout(tmp_path):
    result = small_result(tmp_path)
    lines = _distribution_csv(result).strip().splitlines()
    assert lines[0] == "j,p_initial,p_final"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-9


def test_csv_serializes_17_significant_digits(tmp_path):
    result = small_result(tmp_path)
    for line in _fidelity_csv(result).strip().splitlines()[1:]:
        text = line.split(",")[1]
        assert float(text) == dict(result.fidelity_series)[int(line.split(",")[0])]


@pytest.mark.parametrize("alpha", [0, [3.0, 0.5]], ids=["vacuum", "complex"])
def test_outputs_read_back_exactly(tmp_path, alpha):
    config = parse_config({"alpha": alpha, "mode": "add", "m": 2 if alpha else 0})
    out = tmp_path / "out"
    result, _ = run_experiment(config, out)

    def cells(name):
        lines = (out / name).read_text().splitlines()[1:]
        return [tuple(map(float, line.split(","))) for line in lines]

    dist = [(j, p, q) for (j, p), (_, q) in zip(result.initial_dist, result.final_dist)]
    assert cells("fock_dist.csv") == dist
    assert cells("fidelity_series.csv") == result.fidelity_series

    # every float field loads as a float, F(0) = 1 and zero means included
    on_disk = json.loads((out / "result.json").read_text())
    series = on_disk["fidelity_series"] + on_disk["initial_dist"] + on_disk["final_dist"]
    assert all(type(k) is int and type(x) is float for k, x in series)
    scalars = ("mean_photon_initial", "mean_photon_final", "mandel_q_final", "mandel_q_predicted")
    for name in ("result.json", "mandel_q.json", "mean_photon.json"):
        data = json.loads((out / name).read_text())
        for key in (k for k in scalars if k in data):
            assert data[key] == getattr(result, key)
            assert data[key] is None or type(data[key]) is float


def test_json_round_trip(tmp_path):
    result = small_result(tmp_path)
    path = tmp_path / "round.json"
    path.write_text(_result_json(result))
    loaded = load_result(path)
    assert loaded == result


@pytest.mark.parametrize(
    "text",
    ['{"fidelity_series": [[0, 1', "{}", None, "[" * 100_000],
    ids=["truncated", "empty", "missing", "nested_past_recursion_limit"],
)
def test_load_result_rejects_corrupt_file(tmp_path, text):
    path = tmp_path / "result.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(IoFailure, match="result.json"):
        load_result(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("warnings", "oops"),
        ("warnings", [1]),
        ("mean_photon_initial", "2.5"),
        ("mean_photon_initial", True),
        ("mean_photon_final", None),
        ("mean_photon_final", 10**400),
        ("mean_photon_final", math.nan),
        ("mandel_q_final", "0.1"),
        ("mandel_q_predicted", False),
        ("fidelity_series", [[0, "1.0"]]),
        ("fidelity_series", [[0, 1.0], [1, math.inf]]),
        ("fidelity_series", [[0.5, 1.0]]),
        ("fidelity_series", [[0, 1.0], [5, 1.0]]),
        ("fidelity_series", [[1, 1.0], [1, 1.0]]),
        ("fidelity_series", []),
        ("initial_dist", [[True, 1.0]]),
        ("final_dist", [[-1, 1.0]]),
        ("initial_dist", lambda rows: [[j, math.nan] for j, _ in rows]),
        ("final_dist", lambda rows: [[j, -math.inf] for j, _ in rows]),
    ],
    ids=[
        "warnings_str",
        "warnings_int_item",
        "mean_str",
        "mean_bool",
        "mean_null",
        "mean_past_float",
        "mean_nan",
        "q_str",
        "q_bool",
        "fidelity_str",
        "fidelity_infinity",
        "index_float",
        "passes_gap",
        "passes_from_one",
        "no_passes",
        "index_bool",
        "index_negative",
        "initial_nan",
        "final_minus_infinity",
    ],
)
def test_load_result_rejects_a_misshapen_field(tmp_path, field, value):
    # a run writes finite numbers only, and passes k = 0, 1, ..., m; a callable value
    # rewrites the field's rows
    path = tmp_path / "result.json"
    data = json.loads(_result_json(small_result(tmp_path)))
    data[field] = value(data[field]) if callable(value) else value
    path.write_text(json.dumps(data))
    with pytest.raises(IoFailure, match="result.json is not a valid result file"):
        load_result(path)


def both_dists(edit):
    """A result file edit that applies ``edit`` to both distributions' rows alike."""
    return lambda d: d.update(initial_dist=edit(d["initial_dist"]), final_dist=edit(d["final_dist"]))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(final_dist=d["final_dist"][:-1]),
        lambda d: d.update(final_dist=[[j + 1, p] for j, p in d["final_dist"]]),
        both_dists(lambda rows: []),
        both_dists(lambda rows: rows[::-1]),
        both_dists(lambda rows: rows[:3] + rows[4:]),
        both_dists(lambda rows: rows[:1] + rows),
    ],
    ids=["final-shorter", "final-one-level-up", "no-rows", "descending", "gap", "repeated-level"],
)
def test_load_result_rejects_rows_off_one_window(tmp_path, edit):
    # a run writes both distributions on the same levels lo, lo + 1, ..., N - 1
    path = tmp_path / "result.json"
    data = json.loads(_result_json(small_result(tmp_path)))
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(IoFailure, match="result.json is not a valid result file"):
        load_result(path)


# ---------------------------------------------------------------------------
# standalone analyses


def test_oracle_check_passes():
    report = oracle_check(dim=24, trials=5, seed=1)
    assert report.comparisons == 15
    assert report.max_deviation <= 1e-8
    assert report.passed


@pytest.mark.parametrize(
    "wrong_angle",
    [
        lambda n, gt: 1.01 * gt * np.sqrt((n + 2.0) * (n + 1.0)),
        lambda n, gt: gt * np.where(n >= 0, n + 1.5, 0.0),
    ],
    ids=["rate_1.01x", "linearized_root"],
)
def test_oracle_check_fails_a_wrong_rabi_angle(monkeypatch, wrong_angle):
    # the oracle's Hamiltonian must not share the closed form's Rabi angle,
    # or a wrong angle would change both sides and still pass; both wrong
    # angles keep |0, g> and |1, g> dark, as the true one does
    monkeypatch.setattr("tpjc.dynamics.rabi_angle", wrong_angle)
    report = oracle_check(dim=16, trials=3, seed=7)
    assert not report.passed


def test_oracle_check_zero_trials():
    report = oracle_check(dim=24, trials=0, seed=1)
    assert report.comparisons == 0
    assert report.max_deviation == 0.0
    assert report.passed


def test_oracle_check_deterministic():
    a = oracle_check(dim=16, trials=4, seed=9)
    b = oracle_check(dim=16, trials=4, seed=9)
    assert a == b


def test_oracle_check_decomposes_the_hamiltonian_once(monkeypatch):
    dim, trials, seed = 16, 4, 9
    # the reference decomposes H anew for every comparison
    rng = np.random.default_rng(seed)
    reference = 0.0
    for _ in range(trials):
        state = _random_joint_state(rng, dim)
        for t in ORACLE_CHECK_TIMES:
            evals, evecs = np.linalg.eigh(build_hamiltonian(dim))
            oracle = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ state))
            reference = max(reference, float(np.linalg.norm(evolve_closed_form(state, t) - oracle)))

    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = oracle_check(dim=dim, trials=trials, seed=seed)
    assert calls == [(2 * dim, 2 * dim)]
    assert report.max_deviation == reference


@pytest.mark.parametrize(
    "field, value",
    [("dim", 16.5), ("trials", 2.5), ("seed", 1.5), ("dim", True), ("trials", True), ("seed", True)],
)
def test_oracle_check_rejects_a_non_integer_argument(field, value):
    # a bool is an int to Python, but trials=True would run one trial
    args = {"dim": 16, "trials": 2, "seed": 1, field: value}
    with pytest.raises(ConfigInvalid, match=rf"^oracle check {field} must be an integer, got {value!r}$"):
        oracle_check(**args)


def test_oracle_check_validates_dim():
    with pytest.raises(ConfigInvalid):
        oracle_check(dim=256, trials=1, seed=0)


def test_oracle_check_rejects_negative_seed():
    with pytest.raises(ConfigInvalid, match="seed"):
        oracle_check(dim=16, trials=1, seed=-1)


def test_approx_error_table_shape():
    rows = approx_error_table(10)
    assert len(rows) == 11
    assert rows[0][0] == 0
    assert math.isnan(rows[0][2]) and math.isnan(rows[1][2])
    assert rows[2][2] > 0
    assert rows[3][1] == pytest.approx(6.2305898749053634e-3)


def test_approx_error_table_subtract_column_is_the_add_column_two_rows_down():
    # at the largest admitted max_j, bitwise: the subtract branch is the add branch at j - 2
    j, add, sub = (np.array(column) for column in zip(*approx_error_table(10**6)))
    assert j.tolist() == list(range(10**6 + 1))
    assert np.isnan(sub[:2]).all() and not np.isnan(sub[2:]).any()
    assert sub[2:].tobytes() == add[:-2].tobytes()
    assert sub[2:].tobytes() == approx_error(j[2:], Mode.SUBTRACT).tobytes()
    assert add.tobytes() == approx_error(j, Mode.ADD).tobytes()


# Every count the experiment layer takes, as (name in the message, call, lo,
# hi): one integer rule, one message shape for a non-int (a bool included)
# and one for a value out of range.
_COUNT_SITES = [
    ("m", lambda v: parse_config({"alpha": 3.0, "mode": "add", "m": v}), 0, None),
    ("dim", lambda v: parse_config({"alpha": 3.0, "mode": "add", "m": 1, "dim": v}), 1, None),
    ("oracle check dim", lambda v: oracle_check(dim=v, trials=0, seed=1), 3, 128),
    ("oracle check trials", lambda v: oracle_check(dim=16, trials=v, seed=1), 0, None),
    ("oracle check seed", lambda v: oracle_check(dim=16, trials=0, seed=v), 0, None),
    ("max_j", approx_error_table, 0, 10**6),
]


def _count_cases():
    for name, call, lo, hi in _COUNT_SITES:
        for value in (2.5, True, "3"):
            message = f"{name} must be an integer, got {value!r}"
            yield pytest.param(call, value, message, id=f"{name}-{value!r}")
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        for value in (lo - 1,) if hi is None else (lo - 1, hi + 1):
            message = f"{name} must be {span}, got {value}"
            yield pytest.param(call, value, message, id=f"{name}-{value}")


@pytest.mark.parametrize("call, value, message", _count_cases())
def test_every_count_is_checked_by_one_integer_rule(call, value, message):
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        call(value)
