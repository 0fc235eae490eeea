"""Propagator, dense oracle, pass maps, protocol, approximation table."""

import cmath
import math
import re

import numpy as np
import pytest

from tpjc import (
    DensityMatrix,
    DiagonalizationFailure,
    DimensionMismatch,
    FockVector,
    LOW_MASS_TOL,
    Mode,
    TruncationTooSmall,
    add_photons_ideal,
    approx_error,
    build_hamiltonian,
    default_dim,
    evolve_closed_form,
    evolve_oracle,
    fidelity,
    fock_distribution,
    ideal_state,
    low_component_mass,
    make_coherent,
    make_fock,
    mandel_q,
    mean_photon,
    pass_add,
    pass_subtract,
    pure_density,
    rabi_angle,
    run_protocol,
    subtract_photons_ideal,
)
from tpjc import dynamics

# cos^2(pi sqrt(27*26)) and sin^2 of the same, at 60-digit precision.
PASS_ADD_25_STAY = 0.00021962083683362364
PASS_ADD_25_MOVE = 0.99978037916316638


def random_joint_state(rng, dim):
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw[dim - 2 : dim] = 0.0
    raw /= np.linalg.norm(raw)
    return raw


def random_density(rng, dim, zero_top=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if zero_top:
        a[dim - zero_top :, :] = 0.0
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


# ---------------------------------------------------------------------------
# Rabi angle


def test_rabi_angle():
    # the angle is gt sqrt((n+2)(n+1)), increasing in n
    assert rabi_angle(0, 2.0) == pytest.approx(2.0 * math.sqrt(2.0))
    values = rabi_angle(np.arange(20), 2.0)
    assert np.all(np.diff(values) > 0)
    # Omega(n-2) leaves |0, g> and |1, g> dark
    assert rabi_angle(-2, 1.0) == 0.0
    assert rabi_angle(-1, 1.0) == 0.0


# ---------------------------------------------------------------------------
# closed-form propagator


def test_evolve_t0_identity():
    rng = np.random.default_rng(1)
    state = random_joint_state(rng, 24)
    out = evolve_closed_form(state, 0.0)
    assert np.linalg.norm(out - state) < 1e-15


def test_evolve_vacuum_excited_block():
    # |0, e> oscillates against |2, g> at Omega(0) = g sqrt(2)
    dim = 16
    state = np.zeros(2 * dim, dtype=complex)
    state[0] = 1.0
    for gt in (0.3, 0.7, 2.0):
        out = evolve_closed_form(state, gt)
        assert abs(out[0] - math.cos(math.sqrt(2.0) * gt)) < 1e-14
        assert abs(out[dim + 2] - (-1j) * math.sin(math.sqrt(2.0) * gt)) < 1e-14
        others = np.concatenate([out[1 : dim + 2], out[dim + 3 :]])
        assert np.all(others == 0.0)


def test_evolve_vacuum_ground_is_dark():
    dim = 12
    state = np.zeros(2 * dim, dtype=complex)
    state[dim] = 1.0
    for gt in (0.5, math.pi, 9.0):
        out = evolve_closed_form(state, gt)
        assert np.linalg.norm(out - state) == 0.0


def test_evolve_guards_top_excited_amplitudes():
    dim = 16
    state = np.zeros(2 * dim, dtype=complex)
    state[dim - 1] = 1.0
    with pytest.raises(TruncationTooSmall):
        evolve_closed_form(state, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_evolve_below_three_levels_is_dark_or_truncated(dim):
    # Every level is dark in the ground component and in the top two of the
    # excited one, so the propagator's shifted slices are empty.
    rng = np.random.default_rng(dim)
    zeros = np.zeros(dim, dtype=complex)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for gt in (0.0, 0.3, math.pi, 7.1, 1e6):
        out = evolve_closed_form(np.concatenate([zeros, g]), gt)
        assert np.all(out[:dim] == 0.0)
        assert np.all(out[dim:] == g)
    for j in range(dim):
        e = zeros.copy()
        e[j] = 1e-3
        with pytest.raises(TruncationTooSmall):
            evolve_closed_form(np.concatenate([e, g]), math.pi)


def test_evolve_preserves_joint_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        state = random_joint_state(rng, 48)
        out = evolve_closed_form(state, math.pi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian and oracle


def test_hamiltonian_matrix_elements():
    dim = 8
    h = build_hamiltonian(dim)
    # in units of g
    assert h[dim + 2, 0] == math.sqrt(2.0)
    assert h[dim + 5, 3] == pytest.approx(math.sqrt(5.0 * 4.0))
    # no coupling inside the excited or ground blocks
    assert np.all(h[:dim, :dim] == 0.0)
    assert np.all(h[dim:, dim:] == 0.0)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_hamiltonian_needs_three_levels():
    with pytest.raises(ValueError):
        build_hamiltonian(2)


def test_oracle_t0_identity_and_unitarity():
    rng = np.random.default_rng(6)
    state = random_joint_state(rng, 20)
    out0 = evolve_oracle(state, 0.0)
    assert np.linalg.norm(out0 - state) < 1e-12
    out = evolve_oracle(state, math.pi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def _eigh_fails(h):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_oracle_reports_eigh_failure(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _eigh_fails)
    state = random_joint_state(np.random.default_rng(6), 8)
    with pytest.raises(DiagonalizationFailure, match=r"^eigh failed on the 16x16 Hamiltonian$"):
        evolve_oracle(state, math.pi)


def test_closed_form_matches_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        state = random_joint_state(rng, 48)
        for gt in (0.3, math.pi, 7.1):
            delta = evolve_closed_form(state, gt) - evolve_oracle(state, gt)
            worst = max(worst, np.linalg.norm(delta))
    assert worst < 1e-8


def test_closed_form_matches_oracle_g_not_one():
    rng = np.random.default_rng(15)
    state = random_joint_state(rng, 32)
    # the angle of coupling g = 0.37 over t = 5
    gt = 0.37 * 5.0
    assert np.linalg.norm(evolve_closed_form(state, gt) - evolve_oracle(state, gt)) < 1e-10


@pytest.mark.parametrize("propagator", [evolve_closed_form, evolve_oracle])
def test_propagators_check_shape_and_keep_their_input(propagator):
    # a joint state is one 1-d array of 2N amplitudes
    for shape in [(4, 4), 0, 7]:
        with pytest.raises(DimensionMismatch, match="2N"):
            propagator(np.zeros(shape, dtype=complex), 1.0)
    state = random_joint_state(np.random.default_rng(3), 8)
    before = state.copy()
    state.flags.writeable = False  # any write into the input raises
    out = propagator(state, math.pi)
    assert out.shape == state.shape and not np.shares_memory(out, state)
    np.testing.assert_array_equal(state, before)


# ---------------------------------------------------------------------------
# pass maps


def test_pass_add_on_fock_25():
    rho = pure_density(make_fock(25, 64))
    out = pass_add(rho)
    stay = out.elems[25, 25].real
    move = out.elems[27, 27].real
    assert abs(stay - PASS_ADD_25_STAY) < 1e-14
    assert abs(move - PASS_ADD_25_MOVE) < 1e-14
    assert abs(stay + move - 1.0) < 1e-14


def test_pass_add_trace_and_hermiticity():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 40)
    out = pass_add(rho)
    assert abs(out.trace() - 1.0) < 1e-12
    assert out.hermiticity_defect() < 1e-14


def test_pass_add_guards_top_mass():
    with pytest.raises(TruncationTooSmall):
        pass_add(pure_density(make_fock(63, 64)))


def test_pass_subtract_vacuum_dark():
    rho = pure_density(make_fock(0, 16))
    out = pass_subtract(rho)
    np.testing.assert_array_equal(out.elems, rho.elems)


def test_pass_subtract_trace_preserving():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 40, zero_top=0)
    out = pass_subtract(rho)
    assert abs(out.trace() - 1.0) < 1e-12
    assert out.hermiticity_defect() < 1e-14


def test_pass_maps_match_reduced_evolution():
    # one pass = evolve the pure state with the qubit attached at gt = pi,
    # then trace the qubit out
    rng = np.random.default_rng(14)
    dim = 48
    psi = FockVector(
        np.concatenate(
            [
                (rng.standard_normal(dim - 2) + 1j * rng.standard_normal(dim - 2)),
                np.zeros(2),
            ]
        )
    ).normalized()
    zeros = np.zeros(dim)
    for state, pass_map in [
        (np.concatenate([psi.amps, zeros]), pass_add),
        (np.concatenate([zeros, psi.amps]), pass_subtract),
    ]:
        out = evolve_closed_form(state, math.pi)
        e, g = out[:dim], out[dim:]
        reduced = np.outer(e, e.conj()) + np.outer(g, g.conj())
        np.testing.assert_allclose(pass_map(pure_density(psi)).elems, reduced, atol=1e-12)


# ---------------------------------------------------------------------------
# single-pass consistency with the ideal ladder states


def test_single_pass_approximates_photon_addition():
    rng = np.random.default_rng(16)
    dim = 64
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw[:3] = 0.0  # support on j >= 3
    raw[dim - 2 :] = 0.0
    psi = FockVector(raw).normalized()

    out = evolve_closed_form(np.concatenate([psi.amps, np.zeros(dim)]), math.pi)
    ideal = add_photons_ideal(psi, 1)
    overlap_sq = abs(np.vdot(ideal.amps, out[dim:])) ** 2

    p = fock_distribution(psi)
    # sqrt((j+2)(j+1)) < j+2, so (j+2) * relative error bounds the absolute
    # detuning of each block from the half-integer multiple of pi
    eps = sum(
        p[j] * (math.pi * (j + 2) * approx_error(j, Mode.ADD)) ** 2
        for j in range(3, dim)
        if p[j] > 0
    )
    assert overlap_sq >= 1.0 - eps
    # the qubit ends (approximately) flipped to the ground state
    assert float(np.linalg.norm(out[:dim])) ** 2 <= eps


def test_single_pass_approximates_photon_subtraction():
    rng = np.random.default_rng(18)
    dim = 64
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw[:6] = 0.0  # support on j >= 6
    psi = FockVector(raw).normalized()

    out = evolve_closed_form(np.concatenate([np.zeros(dim), psi.amps]), math.pi)
    ideal, _ = subtract_photons_ideal(psi, 1)
    overlap_sq = abs(np.vdot(ideal.amps, out[:dim])) ** 2

    p = fock_distribution(psi)
    eps = sum(
        p[j] * (math.pi * j * approx_error(j, Mode.SUBTRACT)) ** 2
        for j in range(6, dim)
        if p[j] > 0
    )
    assert overlap_sq >= 1.0 - eps
    assert float(np.linalg.norm(out[dim:])) ** 2 <= eps


# ---------------------------------------------------------------------------
# closed-form ladder states against the operator product


def _parity(amps):
    """(-1)^n: flips the sign of the odd Fock components."""
    return amps * np.where(np.arange(amps.size) % 2 == 0, 1.0, -1.0)


def _raise(amps):
    """Bare V^dag, |n> -> |n+1>; the top amplitude leaves the space."""
    out = np.zeros_like(amps)
    out[1:] = amps[:-1]
    return out


def _lower(amps):
    """Bare V, |n> -> |n-1>, with V|0> = 0."""
    out = np.zeros_like(amps)
    out[:-1] = amps[1:]
    return out


def ladder_by_operators(psi, m, mode):
    """[i V^dag^2 (-1)^n]^m or [i V^2 (-1)^n]^m, one operator at a time."""
    shift = _raise if mode is Mode.ADD else _lower
    amps = psi.amps
    for _ in range(m):
        amps = 1j * shift(shift(_parity(amps)))
    return amps


# |3-2i|^2 = 13 puts mass above LOW_MASS_TOL below 2m for every m > 0, so
# subtraction renormalizes; at |5+6i|^2 = 61 it stays below for m <= 7.
@pytest.mark.parametrize("alpha", [3.0 - 2.0j, 5.0 + 6.0j])
@pytest.mark.parametrize("m", [0, 1, 2, 7])
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_closed_form_ladder_equals_operator_product(mode, m, alpha):
    psi = make_coherent(alpha, default_dim(alpha, 14))
    expected = ladder_by_operators(psi, m, mode)
    if mode is Mode.ADD:
        out = add_photons_ideal(psi, m)
    else:
        out, low_mass = subtract_photons_ideal(psi, m)
        assert low_mass == low_component_mass(psi, m)
        if low_mass > LOW_MASS_TOL:
            expected = expected / np.sqrt(1.0 - low_mass)
    np.testing.assert_array_equal(out.amps, expected)


# ---------------------------------------------------------------------------
# protocol


def full_space_loop(psi, m, mode):
    rho = pure_density(psi)
    series = [(0, fidelity(rho, psi))]
    for k in range(1, m + 1):
        rho = pass_add(rho) if mode is Mode.ADD else pass_subtract(rho)
        series.append((k, fidelity(rho, ideal_state(psi, k, mode))))
    return series, rho


@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_protocol_equals_loop_over_public_passes(mode):
    # The sweep scores each pass with a blocked matrix-vector product, which
    # sums in another order than fidelity's, so F may differ by 2 ulp of 1.
    # At real alpha both paths round the distribution alike; at complex
    # alpha the sweep's real matrix drops the phases, which moves the
    # distribution by about 1 ulp and the mean and Q by a few ulp of the mean.
    m = 6
    for alpha in (3.0, 2.5 + 1.5j):
        psi = make_coherent(alpha, default_dim(alpha, 2 * m))
        result = run_protocol(psi, m, mode)
        series, rho = full_space_loop(psi, m, mode)
        p = fock_distribution(rho)

        assert [k for k, _ in result.fidelity_series] == [k for k, _ in series]
        for (_, f), (_, f_ref) in zip(result.fidelity_series, series):
            assert abs(f - f_ref) <= 4.4e-16
        assert result.initial_dist == [
            (j, float(q)) for j, q in enumerate(fock_distribution(pure_density(psi)))
        ]
        if alpha.imag == 0:
            assert result.final_dist == [(j, float(q)) for j, q in enumerate(p)]
            assert result.mean_photon_final == mean_photon(rho)
            assert result.mandel_q_final == mandel_q(rho)
        else:
            assert [j for j, _ in result.final_dist] == list(range(psi.dim))
            assert max(abs(q - q_ref) for (_, q), q_ref in zip(result.final_dist, p)) <= 2.2e-16
            assert abs(result.mean_photon_final - mean_photon(rho)) <= 1e-14
            assert abs(result.mandel_q_final - mandel_q(rho)) <= 1e-14


def assert_matches_full_space(result, series, rho, atol):
    p = fock_distribution(rho)
    assert [k for k, _ in result.fidelity_series] == [k for k, _ in series]
    np.testing.assert_allclose(
        [f for _, f in result.fidelity_series], [f for _, f in series], rtol=0, atol=atol
    )
    assert [j for j, _ in result.final_dist] == list(range(rho.dim))
    np.testing.assert_allclose([q for _, q in result.final_dist], p, rtol=0, atol=atol)
    assert abs(result.mean_photon_final - mean_photon(rho)) <= 1e-12
    assert abs(result.mandel_q_final - mandel_q(rho)) <= 1e-12


@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_windowed_protocol_matches_full_space(mode):
    # at |alpha|^2 = 400 the levels below 230 hold < 1e-20 of the mass,
    # so run_protocol simulates a window with lo > 0; over 50 passes the
    # subtracted state sinks 100 levels, deep enough to need its window
    # lowered by 2m
    m = 50
    alpha = 20.0 * cmath.exp(0.7j)
    psi = make_coherent(alpha, default_dim(alpha, 2 * m if mode is Mode.ADD else 0))
    result = run_protocol(psi, m, mode)
    series, rho = full_space_loop(psi, m, mode)

    assert result.final_dist[0][1] == 0.0 < fock_distribution(rho)[0]  # outside the window
    assert_matches_full_space(result, series, rho, atol=1e-14)


def even_cat(alpha, dim):
    amps = make_coherent(alpha, dim).amps.copy()
    amps[1::2] = 0.0
    return FockVector(amps).normalized()


def random_phase_state(dim):
    rng = np.random.default_rng(21)
    amps = make_coherent(4.0, dim).amps * np.exp(2j * np.pi * rng.random(dim))
    return FockVector(amps)


@pytest.mark.parametrize(
    "make_state, real",
    [
        (lambda dim: make_coherent(4.0 * cmath.exp(1.1j), dim), True),
        (lambda dim: even_cat(4.0 * cmath.exp(0.3j), dim), True),
        (random_phase_state, False),
    ],
    ids=["complex-alpha-coherent", "even-cat", "random-phase"],
)
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_sweep_matches_full_space(mode, make_state, real):
    # lo = 0 here; the cat's support skips every odd level, and the random
    # phases do not step by one constant, so that state runs complex
    m = 12
    psi = make_state(default_dim(4.0, 2 * m))
    assert dynamics._has_phase_ramp(psi.amps) is real
    result = run_protocol(psi, m, mode)
    series, rho = full_space_loop(psi, m, mode)
    assert_matches_full_space(result, series, rho, atol=1e-14)


def test_coherent_states_run_real_up_to_the_memory_budget():
    # parse_config budgets a float64 window matrix for every coherent input
    # it admits; |alpha| = 800 is near the largest it admits
    for alpha in (300.0 * cmath.exp(0.7j), 800.0 * cmath.exp(2.9j)):
        psi = make_coherent(alpha, default_dim(alpha, 100))
        assert dynamics._has_phase_ramp(psi.amps)


def test_subtract_window_guards_bottom_mass():
    # a window starting at level 5 with all its mass on its bottom level:
    # V^2 would push it below the window
    lo, dim = 5, 13
    padded = np.zeros((dim - lo + 4, dim - lo + 4), dtype=complex)
    buf = padded[2:-2, 2:-2]
    buf[0, 0] = 1.0
    u = np.zeros(dim - lo)
    c, s = dynamics._pass_diagonals(lo, dim, Mode.SUBTRACT)
    with pytest.raises(TruncationTooSmall, match="bottom-two"):
        dynamics._sweep(padded, c, np.pad(s, 2), u, Mode.SUBTRACT, lo)
    # at lo = 0 the same mass sits on the dark level |0> and stays put
    c, s = dynamics._pass_diagonals(0, dim - lo, Mode.SUBTRACT)
    dynamics._sweep(padded, c, np.pad(s, 2), u, Mode.SUBTRACT)
    assert buf[0, 0] == 1.0


def test_sweep_guards_top_mass():
    # all the mass on the top level, which V^dag^2 would push out of the space
    dim = 13
    padded = np.zeros((dim + 4, dim + 4))
    padded[dim + 1, dim + 1] = 1.0
    c, s = dynamics._pass_diagonals(0, dim, Mode.ADD)
    with pytest.raises(TruncationTooSmall, match="top-two"):
        dynamics._sweep(padded, c, np.pad(s, 2), np.zeros(dim), Mode.ADD)


def _trip_evolve_top_two():
    state = np.zeros(32, dtype=complex)
    state[15] = 1.0
    evolve_closed_form(state, 1.0)


def _trip_sweep_top_two():
    padded = np.zeros((17, 17))
    padded[14, 14] = 1.0
    c, s = dynamics._pass_diagonals(0, 13, Mode.ADD)
    dynamics._sweep(padded, c, np.pad(s, 2), np.zeros(13), Mode.ADD)


def _trip_sweep_bottom_two():
    padded = np.zeros((12, 12))
    padded[2, 2] = 1.0
    c, s = dynamics._pass_diagonals(5, 13, Mode.SUBTRACT)
    dynamics._sweep(padded, c, np.pad(s, 2), np.zeros(8), Mode.SUBTRACT, 5)


@pytest.mark.parametrize(
    "trip, what, fix",
    [
        (lambda: make_coherent(5, 10), "coherent tail mass", "enlarge dim=10; suggested minimum dim is 99"),
        (
            lambda: add_photons_ideal(make_coherent(5, 80), 10),
            "largest of the top 20 amplitudes",
            "enlarge dim=80",
        ),
        (_trip_evolve_top_two, "largest top-two excited amplitude", "enlarge dim=16"),
        (lambda: pass_add(pure_density(make_fock(63, 64))), "top-two diagonal mass", "enlarge dim=64"),
        (_trip_sweep_top_two, "top-two diagonal mass", "enlarge dim=13"),
        (_trip_sweep_bottom_two, "bottom-two diagonal mass", "the window starts at lo=5"),
    ],
    ids=["coherent", "add_ideal", "evolve", "pass_add", "sweep_top", "sweep_bottom"],
)
def test_truncation_guards_share_one_message_shape(trip, what, fix):
    with pytest.raises(TruncationTooSmall) as info:
        trip()
    value = r"\d\.\d{3}e[+-]\d\d"
    shape = rf"{re.escape(what)} {value} exceeds tail_tol=1\.000e-10; {re.escape(fix)}"
    assert re.fullmatch(shape, str(info.value)), str(info.value)


def test_protocol_m0_is_identity():
    psi = make_coherent(3, 64)
    result = run_protocol(psi, 0, Mode.ADD)
    assert len(result.fidelity_series) == 1
    assert result.fidelity_series[0][0] == 0
    assert result.fidelity_series[0][1] == pytest.approx(1.0, abs=1e-12)
    assert result.final_dist == result.initial_dist
    assert result.mean_photon_final == result.mean_photon_initial


@pytest.mark.parametrize("alpha", [3 * cmath.exp(0.4j), 7 + 2j], ids=["3e^0.4i", "7+2i"])
def test_protocol_m0_is_identity_at_complex_alpha(alpha):
    # the window diagonal is seeded from |c|^2 itself, not the real path's
    # |c| |c|, which was an ulp off on most levels; below lo zeros are by design
    psi = make_coherent(alpha, default_dim(alpha))
    result = run_protocol(psi, 0, Mode.ADD)
    p = np.array([q for _, q in result.initial_dist])
    lo = int(np.argmax(np.cumsum(p) > dynamics.WINDOW_MASS_TOL))
    assert result.final_dist[lo:] == result.initial_dist[lo:]
    assert all(q == 0.0 for _, q in result.final_dist[:lo])


def test_protocol_small_add_run():
    psi = make_coherent(3, 80)
    result = run_protocol(psi, 3, Mode.ADD)
    assert len(result.fidelity_series) == 4
    assert result.fidelity_series[0][1] == pytest.approx(1.0, abs=1e-12)
    fids = [f for _, f in result.fidelity_series]
    assert all(0.0 <= f <= 1.0 for f in fids)
    assert all(b <= a + 1e-6 for a, b in zip(fids, fids[1:]))
    assert fids[1] >= 0.99
    assert abs(result.mean_photon_final - (9.0 + 6.0)) < 0.01
    assert abs(sum(p for _, p in result.final_dist) - 1.0) < 1e-10
    assert result.warnings == []


def test_protocol_subtract_warns_on_low_components():
    psi = make_coherent(3, 80)
    result = run_protocol(psi, 2, Mode.SUBTRACT)
    assert any("low-component mass" in w for w in result.warnings)


def test_protocol_mean_photon_matches_distribution():
    psi = make_coherent(4, 90)
    result = run_protocol(psi, 2, Mode.ADD)
    mean_from_dist = sum(j * p for j, p in result.final_dist)
    assert abs(mean_from_dist - result.mean_photon_final) < 1e-10


# ---------------------------------------------------------------------------
# linearized-Rabi error table


def test_approx_error_reference_points():
    assert abs(approx_error(3, Mode.ADD) - 6.2305898749053634e-3) < 1e-15
    assert abs(approx_error(6, Mode.SUBTRACT) - 4.1580220928045413e-3) < 1e-15


def test_approx_error_monotone_decreasing():
    add_errors = [approx_error(j, Mode.ADD) for j in range(201)]
    assert all(b < a for a, b in zip(add_errors, add_errors[1:]))
    sub_errors = [approx_error(j, Mode.SUBTRACT) for j in range(2, 201)]
    assert all(b < a for a, b in zip(sub_errors, sub_errors[1:]))


def test_approx_error_asymptotics():
    err = approx_error(100, Mode.ADD)
    assert err < 1.3e-5
    # err ~ 1/(8 j^2) for large j
    assert abs(approx_error(200, Mode.ADD) * 8 * 200**2 - 1.0) < 0.05


def test_approx_error_domain():
    with pytest.raises(ValueError):
        approx_error(-1, Mode.ADD)
    with pytest.raises(ValueError):
        approx_error(1, Mode.SUBTRACT)
