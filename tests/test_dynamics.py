"""Propagator, dense oracle, pass maps, protocol, approximation table."""

import cmath
import functools
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpjc import (
    DEFAULT_TOL,
    DensityMatrix,
    DiagonalizationFailure,
    DimensionMismatch,
    FockVector,
    Mode,
    TpjcError,
    TruncationTooSmall,
    add_photons_ideal,
    approx_error,
    build_hamiltonian,
    default_dim,
    evolve_closed_form,
    evolve_oracle,
    fidelity,
    fock_distribution,
    hamiltonian_eig,
    ideal_state,
    load_config,
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
from tpjc import dynamics, experiment, sg

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
    eig = hamiltonian_eig(20)
    out0 = evolve_oracle(state, 0.0, eig)
    assert np.linalg.norm(out0 - state) < 1e-12
    out = evolve_oracle(state, math.pi, eig)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def _eigh_fails(h):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_oracle_reports_eigh_failure(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _eigh_fails)
    with pytest.raises(DiagonalizationFailure, match=r"^eigh failed on the 16x16 Hamiltonian$"):
        hamiltonian_eig(8)


def test_oracle_rejects_an_eigendecomposition_of_another_dim():
    state = random_joint_state(np.random.default_rng(6), 8)
    with pytest.raises(DimensionMismatch, match=r"18x18 Hamiltonian, the state has 2N = 16"):
        evolve_oracle(state, math.pi, hamiltonian_eig(9))


def test_closed_form_matches_oracle():
    rng = np.random.default_rng(8)
    eig = hamiltonian_eig(48)
    worst = 0.0
    for _ in range(20):
        state = random_joint_state(rng, 48)
        for gt in (0.3, math.pi, 7.1):
            delta = evolve_closed_form(state, gt) - evolve_oracle(state, gt, eig)
            worst = max(worst, np.linalg.norm(delta))
    assert worst < 1e-8


def test_closed_form_matches_oracle_g_not_one():
    rng = np.random.default_rng(15)
    state = random_joint_state(rng, 32)
    # the angle of coupling g = 0.37 over t = 5
    gt = 0.37 * 5.0
    delta = evolve_closed_form(state, gt) - evolve_oracle(state, gt, hamiltonian_eig(32))
    assert np.linalg.norm(delta) < 1e-10


@pytest.mark.parametrize(
    "propagator",
    [evolve_closed_form, lambda state, gt: evolve_oracle(state, gt, hamiltonian_eig(8))],
    ids=["evolve_closed_form", "evolve_oracle"],
)
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


@pytest.mark.parametrize("lo", [0, 30])
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_pass_diagonals_are_the_rabi_angle_in_kernel_order(mode, lo):
    # kernel order reads the window from its top level down for ADD, so a pass moves
    # every entry two places toward index 0 in both modes, and the two entries whose
    # move would leave the window come first; C and S are built in that order, not
    # handed out as reversed views
    dim = lo + 40
    levels = np.arange(dim - 1, lo - 1, -1) if mode is Mode.ADD else np.arange(lo, dim)
    theta = rabi_angle(levels - (0 if mode is Mode.ADD else 2), math.pi)
    c, s = dynamics._pass_diagonals(lo, dim, mode)
    assert c.flags.c_contiguous and s.flags.c_contiguous
    assert np.array_equal(c, np.cos(theta))
    assert np.array_equal(s[2:], np.sin(theta)[2:])
    assert np.flatnonzero(s == 0.0).tolist() == [0, 1]


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


# Subtraction divides by sqrt(1 - S) at every S: at |3-2i|^2 = 13 the removed
# mass S is large for every m > 0, at |5+6i|^2 = 61 it is below 1e-12 for m <= 7.
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
    # The band kernel scores each pass band by band, block by block, which
    # sums in another order than fidelity's, so F may differ by 2 ulp of 1.
    # At real alpha both paths round the distribution alike; at complex
    # alpha the diagonal chain starts from |c|^2, where the loop's rho holds
    # conj(c) c, which moves the distribution by about 1 ulp and the mean and
    # Q by a few ulp of the mean.
    m = 6
    for alpha in (3.0, 2.5 + 1.5j):
        psi = make_coherent(alpha, default_dim(alpha, 2 * m))
        result = run_protocol(psi, m, mode)
        series, rho = full_space_loop(psi, m, mode)
        p = fock_distribution(rho)

        assert [k for k, _ in result.fidelity_series] == [k for k, _ in series]
        for (_, f), (_, f_ref) in zip(result.fidelity_series, series):
            assert abs(f - f_ref) <= 4.4e-16
        assert result.initial_dist == [(j, float(q)) for j, q in enumerate(fock_distribution(psi))]
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
    # the result lists the run's window [lo, N), and the full-space run holds at
    # most WINDOW_MASS_TOL below it
    p = fock_distribution(rho)
    assert [k for k, _ in result.fidelity_series] == [k for k, _ in series]
    np.testing.assert_allclose(
        [f for _, f in result.fidelity_series], [f for _, f in series], rtol=0, atol=atol
    )
    lo = result.final_dist[0][0]
    levels = list(range(lo, rho.dim))
    assert [j for j, _ in result.final_dist] == [j for j, _ in result.initial_dist] == levels
    assert np.sum(p[:lo]) <= dynamics.WINDOW_MASS_TOL
    np.testing.assert_allclose([q for _, q in result.final_dist], p[lo:], rtol=0, atol=atol)
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

    assert result.final_dist[0][0] > 0 and fock_distribution(rho)[0] > 0  # level 0 is outside the window
    assert_matches_full_space(result, series, rho, atol=1e-14)


def even_cat(alpha, dim):
    amps = make_coherent(alpha, dim).amps.copy()
    amps[1::2] = 0.0
    return FockVector(amps).normalized()


def random_phase_state(dim):
    rng = np.random.default_rng(21)
    amps = make_coherent(4.0, dim).amps * np.exp(2j * np.pi * rng.random(dim))
    return FockVector(amps)


def broad_state(dim, mode, real):
    """Random magnitudes on every level but, for ADD, the top 8 (the headroom
    of 4 passes), so the bands fill the window; with a phase ramp (real path)
    or random phases."""
    rng = np.random.default_rng(dim)
    amps = 0.5 + rng.random(dim)
    if mode is Mode.ADD:
        amps[dim - 8 :] = 0.0
    phases = 1.1 * np.arange(dim) if real else 2.0 * np.pi * rng.random(dim)
    return FockVector(amps * np.exp(1j * phases)).normalized()


def level_diagonals(lo, dim, mode):
    """_pass_diagonals' C and S on the levels lo .. dim-1, read back in level order."""
    return tuple(a[dynamics._kernel_order(mode)] for a in dynamics._pass_diagonals(lo, dim, mode))


def in_kernel_order(name, mode, *args):
    """dynamics.<name> on level-order inputs: every array argument (amplitudes, diagonal, C, S)
    is read in ``mode``'s kernel order, top level first for ADD, and _band_range's range and
    _photon_chain's diagonal come back on levels."""
    order = dynamics._kernel_order(mode)
    result = getattr(dynamics, name)(*(a[order] if isinstance(a, np.ndarray) else a for a in args))
    if name == "_band_range" and mode is Mode.ADD:
        return args[0].size - result[1], args[0].size - result[0]
    if name == "_photon_chain":
        return result[0][order], result[1]
    return result


def protocol_window(psi, m, mode):
    """run_protocol's initial diagonal, lo and the C, S of its window, in level order."""
    p = fock_distribution(psi)
    lo = dynamics.window_start(int(np.argmax(np.cumsum(p) > dynamics.WINDOW_MASS_TOL)), m, mode)
    return (p, lo, *level_diagonals(lo, psi.dim, mode))


def window_amps(psi, lo):
    """The amplitudes _passes hands either kernel: |psi| on [lo, N) on the real path."""
    v = psi.amps[lo:]
    return np.abs(v) if dynamics._has_phase_ramp(v) else v


# The path rule replaced: the band kernel, or the branch kernel with every history.
# The distribution is still the chain's.
PHOTON_CHAIN = dynamics._photon_chain
FORCED_STAYS = {
    "band": lambda *args: (PHOTON_CHAIN(*args)[0], None),
    "branch": lambda p, m, *args: (PHOTON_CHAIN(p, m, *args)[0], m),
}


def forced_run(psi, m, mode, kernel):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_photon_chain", FORCED_STAYS[kernel])
        return run_protocol(psi, m, mode)


def assert_kernels_match_full_space_and_each_other(psi, m, mode):
    series, rho = full_space_loop(psi, m, mode)
    band, branch = (forced_run(psi, m, mode, kernel) for kernel in FORCED_STAYS)
    for result in (band, branch):
        assert_matches_full_space(result, series, rho, atol=1e-14)
    for read in (lambda r: r.fidelity_series, lambda r: r.final_dist):
        np.testing.assert_allclose(
            [x for _, x in read(branch)], [x for _, x in read(band)], rtol=0, atol=1e-14
        )


# Windows on the band kernel's block edges: one block, one block and one
# band, two blocks and one band; each on the real and the complex path.
BLOCK_EDGE_WIDTHS = [(width, real) for width in (32, 33, 65) for real in (True, False)]


@pytest.mark.parametrize(
    "make_state, real, dim, m",
    [
        (lambda dim, _: make_coherent(4.0 * cmath.exp(1.1j), dim), True, default_dim(4.0, 24), 12),
        (lambda dim, _: even_cat(4.0 * cmath.exp(0.3j), dim), True, default_dim(4.0, 24), 12),
        (lambda dim, _: random_phase_state(dim), False, default_dim(4.0, 24), 12),
        *[(functools.partial(broad_state, real=real), real, w, 4) for w, real in BLOCK_EDGE_WIDTHS],
    ],
    ids=["complex-alpha-coherent", "even-cat", "random-phase"]
    + [f"{'ramp' if real else 'random'}-W{w}" for w, real in BLOCK_EDGE_WIDTHS],
)
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_band_passes_match_full_space(mode, make_state, real, dim, m):
    # lo = 0 here, so the window is all dim levels; the cat's support skips
    # every odd level, and random phases do not step by one constant, so
    # those states run complex. Each kernel runs: the branch kernel with F = m
    # drops no history, so both run the exact map
    psi = make_state(dim, mode)
    assert dynamics._has_phase_ramp(psi.amps) is real
    assert_kernels_match_full_space_and_each_other(psi, m, mode)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(0, 8),
    st.sampled_from(list(Mode)),
)
def test_kernels_match_full_space_at_small_alpha(r, phase, m, mode):
    alpha = r * cmath.exp(1j * phase)
    psi = make_coherent(alpha, default_dim(alpha, 2 * m))
    try:
        ideal_state(psi, m, mode)
    except TpjcError:
        assume(False)
    assert_kernels_match_full_space_and_each_other(psi, m, mode)


# perfbench's scale_* phase at its default seed
SCALE_PHASE = random.Random(0).uniform(0.0, 2.0 * math.pi)


def dense_window_scores(amps, lo, m, mode):
    """F(0..m) of the pass map on the window [lo, lo + W) of ``amps``, as a dense
    W x W loop whose C and S come from rabi_angle and whose moves drop by slicing
    what leaves the window (the arithmetic of _full_pass, which runs at lo = 0);
    pass k is scored against ``amps`` shifted 2k with the ladder phases (-1)^(jk)."""
    width = amps.size
    theta = rabi_angle(lo + np.arange(width) - (0 if mode is Mode.ADD else 2), np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rho = np.outer(amps, amps.conj())
    scores = []
    for k in range(m + 1):
        if k:
            moved = s[:, None] * rho * s
            rho = c[:, None] * rho * c
            if mode is Mode.ADD:
                rho[2:, 2:] += moved[:-2, :-2]
            else:
                rho[:-2, :-2] += moved[2:, 2:]
        target = np.zeros_like(amps)
        if mode is Mode.ADD:
            target[2 * k :] = amps[: width - 2 * k]
        else:
            target[: width - 2 * k] = amps[2 * k :]
        target *= (-1.0) ** (k * np.arange(width))
        scores.append(np.vdot(target, rho @ target).real)
    return np.array(scores)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "mode, lo", [(Mode.ADD, 0), (Mode.ADD, 30), (Mode.SUBTRACT, 30)], ids=["add-0", "add-30", "subtract-30"]
)
def test_kernels_drop_what_leaves_the_window(mode, lo, real):
    # mass on every level of the window, the two a pass pushes out included, and
    # no pre-pass guard: both kernels run the dense window map, each with C and S
    # read-only, so neither can move the edge S sets
    width, m = 70, 4
    rng = np.random.default_rng(width)
    amps = 0.5 + rng.random(width)
    amps /= np.linalg.norm(amps)
    if not real:
        amps = amps * np.exp(2j * np.pi * rng.random(width))
    c, s = level_diagonals(lo, lo + width, mode)
    c.flags.writeable = s.flags.writeable = False
    expected = dense_window_scores(amps, lo, m, mode)
    band = in_kernel_order("_band_passes", mode, amps, m, c, s)
    branch = in_kernel_order("_branch_passes", mode, amps, m, c, s, m)
    for scores in (band, branch):
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-14)


def band_window(alpha, dim, real):
    """|alpha>'s amplitudes at ``dim`` as the band kernel gets them at lo = 0: |v| on the real
    path, else with seeded random phases, which run complex."""
    amps = np.abs(make_coherent(alpha, dim).amps)
    return amps if real else amps * np.exp(2j * np.pi * np.random.default_rng(dim).random(dim))


# (|alpha|, dim, mode) -> the range [lo, hi) the band kernel keeps over 50 passes: the shipped
# configs' inputs, cut at the top at alpha = 5 and at the bottom at alpha = 12, in either mode
BAND_RANGES = {
    (5.0, 256, Mode.ADD): (0, 121),
    (5.0, 256, Mode.SUBTRACT): (0, 127),
    (12.0, 320, Mode.ADD): (11, 320),
    (12.0, 320, Mode.SUBTRACT): (15, 320),
}


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("alpha, dim, mode", BAND_RANGES, ids=lambda v: getattr(v, "name", v))
def test_band_kernel_keeps_its_range_and_matches_the_full_pass_loop(alpha, dim, mode, real):
    # the shipped configs' inputs in both modes, against the dense _full_pass loop on the
    # window: the co-moving frame keeps only the range, and its certificate holds the
    # scores within WINDOW_MASS_TOL, far below rounding
    m = 50
    amps = band_window(alpha, dim, real)
    c, s = level_diagonals(0, dim, mode)
    assert in_kernel_order("_band_range", mode, amps, m) == BAND_RANGES[alpha, dim, mode]
    band = in_kernel_order("_band_passes", mode, amps, m, c, s)
    np.testing.assert_allclose(band, dense_window_scores(amps, 0, m, mode), rtol=0, atol=1e-15)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_band_kernel_error_is_within_its_certificate(monkeypatch, mode, real):
    # WINDOW_MASS_TOL = 1e-4 cuts both ends of alpha = 12, at delta ~ 4e-6 and eps ~ 3e-8: F
    # then moves by ~5e-12, far above rounding, and by no more than the certificate
    # 2 delta ||a||_1 + (k + 1) eps ||a||_1^2, which is a worst case: a dropped entry
    # a_u a_v is scored against a_u a_v, so F moves by about delta^2
    m = 20
    amps = band_window(12.0, 320, real)
    c, s = level_diagonals(0, amps.size, mode)
    exact = dense_window_scores(amps, 0, m, mode)
    monkeypatch.setattr(dynamics, "WINDOW_MASS_TOL", 1e-4)
    lo, hi = in_kernel_order("_band_range", mode, amps, m)
    mag, l1 = np.abs(amps), np.sum(np.abs(amps))
    below, above = mag[:lo], mag[hi:]
    delta, eps = (below.sum(), above.max()) if mode is Mode.SUBTRACT else (above.sum(), below.max())
    bound = 2 * delta * l1 + (np.arange(m + 1) + 1) * eps * l1 * l1
    assert 0 < lo < hi < amps.size and min(delta, eps) > 1e-8 and bound[-1] <= 1e-4
    error = np.abs(in_kernel_order("_band_passes", mode, amps, m, c, s) - exact)
    assert 1e-12 < np.max(error) and np.all(error <= bound)


def test_band_kernel_memory_is_its_range_not_its_window():
    # at |alpha| = 5, m = 2000 the add window is W = 4099 levels, of which the
    # kernel keeps A = 121: two B x A blocks, numpy's 64 KB broadcast buffer, and
    # vectors of W or m, where one W x W float64 array is 134 MB
    m = 2000
    psi = make_coherent(5.0, default_dim(5.0, 2 * m))
    p, lo, c, s = protocol_window(psi, m, Mode.ADD)
    amps = window_amps(psi, lo)
    assert (lo, amps.size, in_kernel_order("_band_range", Mode.ADD, amps, m)) == (0, 4099, (0, 121))
    tracemalloc.start()
    try:
        scores = in_kernel_order("_band_passes", Mode.ADD, amps, m, c, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dynamics.BAND_BLOCK * 121 * 8 + 65536 + 4 * (4099 + m) * 8
    assert 0.99 < scores[-1] <= 1.0


def smallest_certified_stays(q, m):
    """The smallest F whose union bound C(m, F+1) q^(F+1) on the trace of the histories
    with more stays, q = max c_n^2, is at most WINDOW_MASS_TOL."""
    return next(f for f in range(m + 1) if math.comb(m, f + 1) * q ** (f + 1) <= dynamics.WINDOW_MASS_TOL)


def capped_chain(cap, mode, *args):
    """_photon_chain(*args) in ``mode``'s kernel order with ``cap`` in place of _stay_cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_stay_cap", cap)
        return in_kernel_order("_photon_chain", mode, *args)


def no_cap(m, width):
    """Split rows up to T_m, which is empty, so the chain never drops them."""
    return m


def exact_stays(p, m, mode, c, s):
    """The smallest F whose dropped histories hold at most WINDOW_MASS_TOL after every
    pass, from the chain with no cap."""
    return capped_chain(no_cap, mode, p, m, c, s)[1]


def chain_tails(patch):
    """One list per chain run from now on: the traces of T_0 .. T_cap after each pass that
    holds them, the refusing pass included, as the chain folds them into its running max."""
    runs = []

    class Numpy:  # numpy as the chain reads it, with that one call recorded
        def __getattr__(self, name):
            return getattr(np, name)

        def maximum(self, worst, tails, **kwargs):
            runs[-1].append(tails.copy())
            return np.maximum(worst, tails, **kwargs)

    chain = dynamics._photon_chain
    patch.setattr(dynamics, "np", Numpy())
    patch.setattr(dynamics, "_photon_chain", lambda *args: runs.append([]) or chain(*args))
    return runs


@pytest.mark.parametrize(
    "alpha",
    [20.0, 45.0 * cmath.exp(1j * SCALE_PHASE), 100.0 * cmath.exp(0.7j)],
    ids=["20", "45-scale", "100e^0.7i"],
)
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_branch_kernel_matches_band_kernel_where_it_drops_histories(mode, alpha):
    # at m = 10 the exact certificate keeps 2 or 3 stays of 10, never more than the
    # union bound: the dropped histories hold <= WINDOW_MASS_TOL, so the kernels
    # differ by rounding alone
    m = 10
    psi = make_coherent(alpha, default_dim(alpha, 2 * m if mode is Mode.ADD else 0))
    p, lo, c, s = protocol_window(psi, m, mode)
    stays = exact_stays(p[lo:], m, mode, c, s)
    assert 2 <= stays <= 3
    assert stays <= smallest_certified_stays(float(np.max(c * c)), m)
    amps = window_amps(psi, lo)
    band = in_kernel_order("_band_passes", mode, amps, m, c, s)
    branch = in_kernel_order("_branch_passes", mode, amps, m, c, s, stays)
    np.testing.assert_allclose(branch, band, rtol=0, atol=1e-15)


def history_squares(amps, k, mode, c, s):
    """(stays, ||x||^2) of each of the 2^k histories x = K_k .. K_1 amps, K a stay C or a
    move that shifts S x two levels up (ADD) or down, dropping what leaves the window."""
    out = []
    for history in itertools.product((True, False), repeat=k):
        x = amps.copy()
        for stay in history:
            if stay:
                x = c * x
            else:
                moved = np.zeros_like(x)
                if mode is Mode.ADD:
                    moved[2:] = (s * x)[:-2]
                else:
                    moved[:-2] = (s * x)[2:]
                x = moved
        out.append((sum(history), np.vdot(x, x).real))
    return out


# Windows with mass on every level, the two a pass pushes out included: lo = 0 and
# lo > 0, both modes, real and complex amplitudes; one large-alpha window where
# stays are rare, so the tails fall below WINDOW_MASS_TOL; and one with mass on the
# two leaving levels alone, where only stays survive, so each tail is largest
# right after the pass that first fills it and F must read every pass, not the last
def certificate_window(width, lo, mode, seed):
    if seed == "alpha45":
        psi = make_coherent(45.0, default_dim(45.0))
        return psi.amps[lo : lo + width]
    amps = np.zeros(width, dtype=complex)
    if seed == "edge":
        amps[slice(-2, None) if mode is Mode.ADD else slice(0, 2)] = [0.6, 0.8j]
        return amps
    rng = np.random.default_rng(seed)
    amps = (0.5 + rng.random(width)) * np.exp(2j * np.pi * rng.random(width))
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize(
    "width, lo, m, seed",
    [
        (12, 0, 8, 1), (40, 0, 6, 2), (40, 30, 8, 3), (25, 100, 5, 4),
        (40, 2015, 8, "alpha45"), (12, 2000, 8, "edge"),
    ],
    ids=["W12-lo0", "W40-lo0", "W40-lo30", "W25-lo100", "alpha45-W40", "edge-W12"],
)
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_stay_certificate_is_the_dropped_trace_of_the_enumerated_histories(mode, width, lo, m, seed):
    amps = certificate_window(width, lo, mode, seed)
    c, s = level_diagonals(lo, lo + width, mode)
    p = np.abs(amps) ** 2
    q = float(np.max(c * c))
    with pytest.MonkeyPatch.context() as patch:
        runs = chain_tails(patch)
        capped_chain(no_cap, mode, p, m, c, s)
    (chain,) = runs
    dropped = np.zeros((m, m + 1))  # dropped[k - 1, f]: the histories with > f stays after pass k
    for k in range(1, m + 1):
        histories = history_squares(amps, k, mode, c, s)
        dropped[k - 1] = [sum(w for stays, w in histories if stays > f) for f in range(m + 1)]
        # the union bound the chain replaces holds too
        bound = [math.comb(k, f + 1) * q ** (f + 1) for f in range(m + 1)]
        assert np.all(dropped[k - 1] <= np.array(bound) * (1 + 1e-12))
    np.testing.assert_allclose(chain, dropped, rtol=1e-12, atol=0)
    smallest = next(f for f in range(m + 1) if np.all(dropped[:, f] <= dynamics.WINDOW_MASS_TOL))
    cap = dynamics._stay_cap(m, width)
    expected = smallest if cap is not None and smallest <= cap else None
    assert in_kernel_order("_photon_chain", mode, p, m, c, s)[1] == expected
    if seed == "alpha45":
        assert 0 < expected < m  # rare stays: some histories dropped, some kept
    if seed == "edge":
        assert np.max(dropped[:, smallest - 1]) > dynamics.WINDOW_MASS_TOL >= dropped[-1, smallest - 1]
    for f in range(m + 1):  # under a cap of f: F where F <= f, else None
        assert capped_chain(lambda m, width: f, mode, p, m, c, s)[1] == (smallest if smallest <= f else None)


def branch_rows(m, stays):
    """The rows of W the branch kernel updates over a run, and the rows it holds at once."""
    updated = m + sum(math.comb(m + 1, f + 1) for f in range(1, stays + 1))
    held = 1 + sum(math.comb(m - 1, f) for f in range(stays))
    return updated, held


@pytest.mark.parametrize("m", [1, 2, 10, 16, 50, 300])
@pytest.mark.parametrize("width", [64, 896, 10**12])
def test_stay_cap_is_the_largest_count_where_branches_cost_less(width, m):
    # and where they hold no more rows than the band kernel's block and scratch;
    # any count up to F = m, where the branches are every history; by brute force
    # over every count
    fits = [
        f
        for f in range(m + 1)
        if branch_rows(m, f)[0] < m * (width + 1) / 2 and branch_rows(m, f)[1] <= 2 * dynamics.BAND_BLOCK
    ]
    assert fits == list(range(len(fits)))  # the counts that fit run from 0 up
    assert dynamics._stay_cap(m, width) == (fits[-1] if fits else None)


@pytest.mark.parametrize(
    "alpha, m, mode, dim, stays, passes",
    [
        (5.0, 7000, Mode.ADD, None, None, 2),  # accepted by parse_config
        (5.0, 50, Mode.ADD, 256, None, 2),  # configs/add_alpha5.json: F = 8 holds too many rows
        (12.0, 50, Mode.SUBTRACT, 320, None, 2),  # configs/subtract_alpha12.json: F = 26
        (45.0 * cmath.exp(1j * SCALE_PHASE), 10, Mode.ADD, None, 2, 10),
        (45.0 * cmath.exp(1j * SCALE_PHASE), 10, Mode.SUBTRACT, None, 2, 10),
        (100.0 * cmath.exp(0.7j), 50, Mode.ADD, None, 2, 50),
        (100.0, 2, Mode.ADD, None, 2, 2),  # F = m: every history
        (20.0, 10, Mode.ADD, None, 3, 10),  # the union bound's F = 4 held too many rows
    ],
    ids=[
        "add-5-7000", "add_alpha5", "subtract_alpha12", "scale_add", "scale_subtract",
        "add-100-50", "add-100-2", "add-20-10",
    ],
)
def test_path_rule_is_taken_without_a_pass(monkeypatch, alpha, m, mode, dim, stays, passes):
    # the rule reads the chain alone, which drops its split rows at its first pass whose
    # histories past the cap hold more than WINDOW_MASS_TOL: `passes` is that pass, or m
    psi = make_coherent(alpha, dim or default_dim(alpha, 2 * m if mode is Mode.ADD else 0))
    p, lo, c, s = protocol_window(psi, m, mode)
    calls, runs = counted_kernels(monkeypatch), chain_tails(monkeypatch)
    assert in_kernel_order("_photon_chain", mode, p[lo:], m, c, s)[1] == stays
    assert (calls, [len(tails) for tails in runs]) == ([], [passes])


def test_path_rule_refuses_branches_that_would_outgrow_an_admitted_run(monkeypatch):
    # parse_config admits this N. The union bound certified F = 11, which would hold
    # 30 828 rows of W = 16 197, 4 GB; the exact F = 5 updates fewer rows than the band
    # kernel, but would still hold 1942 rows, 30 times its 64. The chain that refuses it
    # holds its split rows and their moves, two (cap + 2) x W arrays, for 3 of 16 passes
    alpha, m, dim = 7.4, 16, 16200
    experiment.parse_config({"alpha": alpha, "mode": "add", "m": m, "dim": dim})
    p, lo, c, s = protocol_window(make_coherent(alpha, dim), m, Mode.ADD)
    width, cap = dim - lo, dynamics._stay_cap(m, dim - lo)
    stays = exact_stays(p[lo:], m, Mode.ADD, c, s)
    updated, held = branch_rows(m, stays)
    assert (lo, stays, cap) == (3, 5, 2)
    assert smallest_certified_stays(float(np.max(c * c)), m) == 11
    assert branch_rows(m, 11)[1] * width * 8 > experiment.MEMORY_BUDGET
    assert updated < m * (width + 1) / 2
    assert held > 2 * dynamics.BAND_BLOCK
    runs = chain_tails(monkeypatch)
    tracemalloc.start()
    try:
        assert in_kernel_order("_photon_chain", Mode.ADD, p[lo:], m, c, s)[1] is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(tails) for tails in runs] == [3]
    assert peak <= (2 * (cap + 2) + 4) * width * 8  # and numpy's broadcast buffer and the tails


def counted_kernels(patch, names=("_band_passes", "_branch_passes")):
    """The names of the dynamics functions called from now on, in call order: by default the
    pass kernels."""
    calls = []
    for name in names:
        kernel = getattr(dynamics, name)
        patch.setattr(dynamics, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args))
    return calls


def test_shipped_configs_run_the_band_kernel_and_the_scale_runs_the_branch_kernel(monkeypatch):
    # at alpha = 5 stays are not rare (F = 8 of 50), and alpha = 12's
    # subtract window reaches |0>, where C' = 1 (F = 26 of 50)
    calls = counted_kernels(monkeypatch)
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("add_alpha5.json", "subtract_alpha12.json"):
        config = load_config(configs / name)
        run_protocol(make_coherent(config.alpha, config.dim), config.m, config.mode)
    assert calls == ["_band_passes"] * 2
    calls.clear()
    for mode in Mode:
        alpha = 45.0 * cmath.exp(1j * SCALE_PHASE)
        run_protocol(make_coherent(alpha, default_dim(alpha, 20 if mode is Mode.ADD else 0)), 10, mode)
    assert calls == ["_branch_passes"] * 2


def test_protocol_runs_the_chain_once_before_either_kernel(monkeypatch):
    # one chain run gives both the final distribution and the stay count
    calls = counted_kernels(monkeypatch, ("_photon_chain", "_band_passes", "_branch_passes"))
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "add_alpha5.json")
    run_protocol(make_coherent(config.alpha, config.dim), config.m, config.mode)
    alpha = 45.0 * cmath.exp(1j * SCALE_PHASE)
    run_protocol(make_coherent(alpha, default_dim(alpha, 20)), 10, Mode.ADD)
    assert calls == ["_photon_chain", "_band_passes", "_photon_chain", "_branch_passes"]


def test_coherent_states_run_real_up_to_the_memory_budget():
    # parse_config prices a float64 run for every coherent input
    # it admits; |alpha| = 800 is near the largest it admits
    for alpha in (300.0 * cmath.exp(0.7j), 800.0 * cmath.exp(2.9j)):
        psi = make_coherent(alpha, default_dim(alpha, 100))
        assert dynamics._has_phase_ramp(psi.amps)


def test_subtract_chain_keeps_mass_on_the_dark_vacuum():
    # at lo = 0 all the mass on the bottom level |0>, where S' vanishes, stays put
    p = np.zeros(8)
    p[0] = 1.0
    c, s = level_diagonals(0, 8, Mode.SUBTRACT)
    for m in (1, 5):
        assert np.array_equal(in_kernel_order("_photon_chain", Mode.SUBTRACT, p, m, c, s)[0], p)


# Caps of the chain's split rows: its own, one it never drops them at, and none at all
CHAIN_CAPS = [dynamics._stay_cap, no_cap, lambda m, width: None]


def assert_chain_is_the_dense_diagonal(psi, m, mode):
    # the chain from rho_0's diagonal, on the whole space, after every pass, whether
    # it holds split rows to the end, drops them or holds none
    rho = pure_density(psi)
    p = np.diagonal(rho.elems).real
    c, s = level_diagonals(0, psi.dim, mode)
    for k in range(1, m + 1):
        rho = dynamics._full_pass(rho, mode)
        for cap in CHAIN_CAPS:
            assert np.array_equal(capped_chain(cap, mode, p, k, c, s)[0], np.diagonal(rho.elems).real)


@pytest.mark.parametrize(
    "make_state, real",
    [
        (lambda dim: make_coherent(3.0, dim), True),
        (lambda dim: make_coherent(2.5 * cmath.exp(1.1j), dim), True),
        (lambda dim: random_phase_state(dim), False),
    ],
    ids=["real-alpha", "complex-alpha", "random-phase"],
)
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_diagonal_chain_is_the_dense_passes_diagonal(mode, make_state, real):
    m = 8
    psi = make_state(default_dim(4.0, 2 * m))
    assert dynamics._has_phase_ramp(psi.amps) is real
    assert_chain_is_the_dense_diagonal(psi, m, mode)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(0, 8),
    st.sampled_from(list(Mode)),
    st.booleans(),
)
def test_diagonal_chain_is_the_dense_passes_diagonal_at_small_alpha(r, phase, m, mode, real):
    # off the real path the phases are random, so no ramp survives
    alpha = r * cmath.exp(1j * phase)
    psi = make_coherent(alpha, default_dim(alpha, 2 * m))
    if not real:
        rng = np.random.default_rng(m)
        psi = FockVector(psi.amps * np.exp(2j * np.pi * rng.random(psi.dim)))
    assert_chain_is_the_dense_diagonal(psi, m, mode)


@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT], ids=["scale_add", "scale_subtract"])
def test_distribution_does_not_depend_on_the_kernel(mode):
    # the chain is the one source of the final distribution, so the band kernel
    # and the branch kernel with every history give the same bytes; F sums in
    # another order on each
    alpha = 45.0 * cmath.exp(1j * SCALE_PHASE)
    psi = make_coherent(alpha, default_dim(alpha, 20 if mode is Mode.ADD else 0))
    band, branch = (forced_run(psi, 10, mode, kernel) for kernel in FORCED_STAYS)
    assert np.array_equal([q for _, q in branch.final_dist], [q for _, q in band.final_dist])
    assert branch.mean_photon_final == band.mean_photon_final
    assert branch.mandel_q_final == band.mandel_q_final
    np.testing.assert_allclose(
        [f for _, f in branch.fidelity_series], [f for _, f in band.fidelity_series], rtol=0, atol=4.4e-16
    )


def test_phase_ramp_is_checked_on_the_window(monkeypatch):
    # at scale_add's input the window is W = 896 of N = 2519 levels, and the
    # check reads the window alone, so it costs O(W), not O(N)
    alpha = 45.0 * cmath.exp(1j * SCALE_PHASE)
    psi = make_coherent(alpha, default_dim(alpha, 20))
    has_phase_ramp = dynamics._has_phase_ramp
    sizes = []
    monkeypatch.setattr(dynamics, "_has_phase_ramp", lambda v: sizes.append(v.size) or has_phase_ramp(v))
    run_protocol(psi, 10, Mode.ADD)
    assert (psi.dim, sizes) == (2519, [896])


def test_protocol_builds_each_strided_view_once(monkeypatch):
    # one sliding window each over C, S and the base vector serves every
    # block of bands: at W = 256 there are 8 blocks, so views per block make 24
    psi = make_coherent(5, 256)
    view = np.lib.stride_tricks.sliding_window_view
    calls = []
    monkeypatch.setattr(
        np.lib.stride_tricks, "sliding_window_view", lambda *args: calls.append(1) or view(*args)
    )
    run_protocol(psi, 50, Mode.ADD)
    assert len(calls) == 3


def test_protocol_allocates_no_window_square_array():
    # at |alpha| = 45, m = 10 the add window is W = 896 of N = 2519 levels; the
    # bands, BAND_BLOCK at a time, and the one base vector the targets are
    # shifted views of stay under half of one float64 W x W array. The branch
    # kernel the run takes holds 11 rows of W, no more than the band kernel's 64,
    # and the chain two (cap + 2) x W arrays, cap = 3, or with no split rows a few
    # vectors of W
    m = 10
    psi = make_coherent(45.0, default_dim(45.0, 2 * m))
    p, lo, c, s = protocol_window(psi, m, Mode.ADD)
    width = psi.dim - lo
    assert width == 896
    stays = in_kernel_order("_photon_chain", Mode.ADD, p[lo:], m, c, s)[1]
    assert (stays, dynamics._stay_cap(m, width)) == (2, 3)
    amps = window_amps(psi, lo)
    peaks = {}
    for name, run in [
        ("run_protocol", lambda: run_protocol(psi, m, Mode.ADD)),
        ("band", lambda: in_kernel_order("_band_passes", Mode.ADD, amps, m, c, s)),
        ("branch", lambda: in_kernel_order("_branch_passes", Mode.ADD, amps, m, c, s, stays)),
        ("unsplit chain", lambda: capped_chain(lambda m, width: None, Mode.ADD, p[lo:], m, c, s)),
        ("chain", lambda: in_kernel_order("_photon_chain", Mode.ADD, p[lo:], m, c, s)),
    ]:
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["run_protocol"] < width * width * 8 / 2
    assert peaks["band"] < width * width * 8 / 2
    assert peaks["branch"] <= peaks["band"]
    assert peaks["unsplit chain"] < 8 * width * 8
    assert peaks["chain"] <= (2 * (3 + 2) + 4) * width * 8 + 65536  # and numpy's broadcast buffer


def test_protocol_stores_no_target_per_pass():
    # at |alpha| = 3, m = 200 the add window is all N = W = 463 levels, and m + 1
    # stored float64 targets would outweigh everything else the run holds
    m = 200
    psi = make_coherent(3.0, default_dim(3.0, 2 * m))
    assert psi.dim == 463
    first = int(np.argmax(np.cumsum(np.abs(psi.amps) ** 2) > dynamics.WINDOW_MASS_TOL))
    assert dynamics.window_start(first, m, Mode.ADD) == 0
    tracemalloc.start()
    try:
        run_protocol(psi, m, Mode.ADD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (m + 1) * psi.dim * 8


def _smallest_add_dim(alpha, m):
    """The smallest dim at which add_photons_ideal(make_coherent(alpha, dim), m) passes."""
    dim = default_dim(alpha, 2 * m)
    while True:
        try:
            add_photons_ideal(make_coherent(alpha, dim - 1), m)
        except TruncationTooSmall:
            return dim
        dim -= 1


def _edge_mass_before_each_pass(psi, m, mode):
    """lo and, before each pass k + 1 <= m, the mass on the window edge that
    pass pushes out (ADD: the top two levels; SUBTRACT: the bottom two),
    from the diagonal chain p'_i = c_i^2 p_i + s_j^2 p_j, j = i -+ 2."""
    p0, lo, c, s = protocol_window(psi, m, mode)
    p, edges = p0[lo:], []
    for _ in range(m):
        edges.append(p[-2:].sum() if mode is Mode.ADD else p[:2].sum())
        p = in_kernel_order("_photon_chain", mode, p, 1, c, s)[0]
    return lo, edges


@pytest.mark.parametrize(
    "alpha, m, mode, windowed",
    [
        (5.0, 50, Mode.ADD, False),
        (20.0 * cmath.exp(0.7j), 50, Mode.ADD, True),
        (20.0 * cmath.exp(0.7j), 50, Mode.SUBTRACT, True),
        (45.0, 300, Mode.SUBTRACT, True),
    ],
    ids=["add-5", "add-20e^0.7i", "subtract-20e^0.7i", "subtract-45"],
)
def test_pre_pass_guards_bound_every_edge_mass_a_pass_pushes_out(alpha, m, mode, windowed):
    # why the band passes carry no guard: once the m-step decision passes, the top
    # two levels (add, at the smallest dim add_photons_ideal admits) hold at
    # most 2m tail_tol^2 before every pass, and the bottom two of a window
    # with lo > 0 (subtract, at the policy dim) at most WINDOW_MASS_TOL
    dim = _smallest_add_dim(alpha, m) if mode is Mode.ADD else default_dim(alpha)
    psi = make_coherent(alpha, dim)
    lo, edges = _edge_mass_before_each_pass(psi, m, mode)
    assert (lo > 0) is windowed
    bound = 2 * m * DEFAULT_TOL.tail_tol**2 if mode is Mode.ADD else dynamics.WINDOW_MASS_TOL
    assert max(edges) <= bound
    if mode is Mode.ADD:
        assert len(run_protocol(psi, m, mode).fidelity_series) == m + 1


def _trip_evolve_top_two():
    state = np.zeros(32, dtype=complex)
    state[15] = 1.0
    evolve_closed_form(state, 1.0)


@pytest.mark.parametrize(
    "trip, what, fix",
    [
        (lambda: make_coherent(5, 10), "coherent tail mass", "enlarge dim=10; suggested minimum dim is 99"),
        # the sizing policy overflows at |alpha|^2 = inf, so no dim is suggested
        (lambda: make_coherent(1e200, 10), "coherent tail mass", "enlarge dim=10 or raise tail_tol"),
        (
            lambda: add_photons_ideal(make_coherent(5, 80), 10),
            "largest of the top 20 amplitudes",
            "enlarge dim=80",
        ),
        (_trip_evolve_top_two, "largest top-two excited amplitude", "enlarge dim=16"),
        (lambda: pass_add(pure_density(make_fock(63, 64))), "top-two diagonal mass", "enlarge dim=64"),
    ],
    ids=["coherent", "coherent_1e200", "add_ideal", "evolve", "pass_add"],
)
def test_truncation_guards_share_one_message_shape(trip, what, fix):
    with pytest.raises(TruncationTooSmall) as info:
        trip()
    value = r"\d\.\d{3}e[+-]\d\d"
    shape = rf"{re.escape(what)} {value} exceeds tail_tol=1\.000e-10; {re.escape(fix)}"
    assert re.fullmatch(shape, str(info.value)), str(info.value)


@pytest.mark.parametrize("m", [0, 1, 7])
@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_protocol_builds_each_ladder_state_once(monkeypatch, mode, m):
    # a run builds no ladder state, not even the one the name counts from: every
    # pass is scored against a shift of psi0, and the truncation decision reads
    # psi0 itself (test_imports forbids dynamics importing a builder directly)
    built = []
    for name in ("ideal_state", "add_photons_ideal", "subtract_photons_ideal"):
        build = getattr(sg, name)
        monkeypatch.setattr(sg, name, lambda *args, f=build: built.append(args[1]) or f(*args))
    run_protocol(make_coherent(3, 80), m, mode)
    assert built == []


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(-1, 16),
    st.sampled_from(list(Mode)),
    st.integers(1, 50),
)
def test_protocol_raises_what_its_m_step_state_raises_before_any_pass(r, phase, m, mode, dim):
    # the run's truncation decision is the m-step ladder state's, in its words
    try:
        psi = make_coherent(r * cmath.exp(1j * phase), dim)
    except TruncationTooSmall:
        assume(False)
    try:
        ideal_state(psi, m, mode)
        expected = None
    except (ValueError, TpjcError) as exc:
        expected = exc
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_kernels(patch)
        if expected is None:
            run_protocol(psi, m, mode)
            assert len(calls) == 1
        else:
            with pytest.raises(type(expected)) as info:
                run_protocol(psi, m, mode)
            assert type(info.value) is type(expected) and str(info.value) == str(expected)
            assert calls == []


@pytest.mark.parametrize("mode", [Mode.ADD, Mode.SUBTRACT])
def test_protocol_rejects_negative_m(mode):
    with pytest.raises(ValueError, match=r"^m must be >= 0$"):
        run_protocol(make_coherent(3, 80), -1, mode)


def test_protocol_m0_is_identity():
    psi = make_coherent(3, 64)
    result = run_protocol(psi, 0, Mode.ADD)
    assert len(result.fidelity_series) == 1
    assert result.fidelity_series[0][0] == 0
    assert result.fidelity_series[0][1] == pytest.approx(1.0, abs=1e-12)
    assert result.final_dist == result.initial_dist
    assert result.mean_photon_final == result.mean_photon_initial


@pytest.mark.parametrize(
    "alpha, windowed", [(3 * cmath.exp(0.4j), False), (7 + 2j, True)], ids=["3e^0.4i", "7+2i"]
)
def test_protocol_m0_is_identity_at_complex_alpha(alpha, windowed):
    # the window diagonal is seeded from |c|^2 itself, not the real path's
    # |c| |c|, which was an ulp off on most levels; the rows list the window,
    # below which psi holds at most WINDOW_MASS_TOL
    psi = make_coherent(alpha, default_dim(alpha))
    result = run_protocol(psi, 0, Mode.ADD)
    p = fock_distribution(psi)
    lo = int(np.argmax(np.cumsum(p) > dynamics.WINDOW_MASS_TOL))
    assert (lo > 0) is windowed
    assert result.initial_dist == list(enumerate(p.tolist()))[lo:]
    assert result.final_dist == result.initial_dist
    assert np.sum(p[:lo]) <= dynamics.WINDOW_MASS_TOL


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


# j up to the table's 10^6: every j below 20000, a stride above, and the top
APPROX_J = np.unique(np.r_[np.arange(20000), np.arange(20000, 10**6, 97), 10**6 - 1, 10**6])


@pytest.mark.parametrize("branch", list(Mode))
def test_approx_error_on_an_int_array_is_the_scalar_calls_bitwise(branch):
    j = APPROX_J[APPROX_J >= (0 if branch is Mode.ADD else 2)]
    errors = approx_error(j, branch)
    assert errors.dtype == np.float64 and errors.shape == j.shape
    scalars = [approx_error(int(k), branch) for k in j]
    assert all(type(e) is float for e in scalars)
    assert errors.tobytes() == np.array(scalars).tobytes()


@pytest.mark.parametrize(
    "branch, below, message",
    [
        (Mode.ADD, -1, "j must be >= 0"),
        (Mode.SUBTRACT, -1, "j must be >= 0"),
        (Mode.SUBTRACT, 0, "subtract branch needs j >= 2 for a nonzero reference"),
        (Mode.SUBTRACT, 1, "subtract branch needs j >= 2 for a nonzero reference"),
    ],
)
def test_approx_error_on_an_array_raises_the_scalar_error_below_the_domain(branch, below, message):
    # one value below the branch's domain fails the whole array, as the scalar call fails
    for j in (below, np.array([below, 5, 10**6]), np.array([10**6, below])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            approx_error(j, branch)


@pytest.mark.parametrize("dim", [1, 2, 3, 64])
@pytest.mark.parametrize("gt", [0.3, math.pi, 7.1])
def test_closed_form_scales_a_ground_basis_state_by_the_rabi_angle_two_levels_down(dim, gt):
    # |n, g> pairs with |n-2, e>: it keeps cos[Omega(n-2) t] of itself, exactly 1 on the
    # dark |0, g> and |1, g>, and moves -i sin[Omega(n-2) t] to |n-2, e>
    for n in range(dim):
        state = np.zeros(2 * dim, dtype=complex)
        state[dim + n] = 1.0
        expected = np.zeros(2 * dim, dtype=complex)
        expected[dim + n] = np.cos(rabi_angle(n - 2, gt))
        if n >= 2:
            expected[n - 2] = -1j * np.sin(rabi_angle(n - 2, gt))
        assert np.array_equal(evolve_closed_form(state, gt), expected)


def test_protocol_that_an_add_target_would_stop_stops_before_the_first_pass(monkeypatch):
    # the m-step target's top 2m amplitudes cover every k-step target's top 2k
    calls = counted_kernels(monkeypatch)
    with pytest.raises(TruncationTooSmall, match="largest of the top 40 amplitudes"):
        run_protocol(make_coherent(3, 40), 20, Mode.ADD)
    assert calls == []
