"""Ideal ladder states, nonlinear operators, photon statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpjc import (
    AllMassRemoved,
    FockVector,
    Mode,
    TruncationTooSmall,
    ZeroMeanPhoton,
    add_photons_ideal,
    apply_A,
    apply_annihilation,
    eigen_residual,
    fock_distribution,
    ideal_state,
    low_component_mass,
    make_coherent,
    make_fock,
    mandel_q,
    mandel_q_coherent_predict,
    mean_photon,
    subtract_photons_ideal,
    subtracted_mean_predict,
)

# sum_{k<2} e^{-144} 144^k / k! = 145 e^{-144}, evaluated at 60-digit precision.
LOW_MASS_ALPHA12_M1 = 4.1972284518900354e-61


def random_state(rng, dim, zero_top=0):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if zero_top:
        raw[dim - zero_top :] = 0.0
    return FockVector(raw / np.linalg.norm(raw))


# ---------------------------------------------------------------------------
# photon addition


def test_add_zero_steps_is_identity():
    psi = make_coherent(3, 60)
    np.testing.assert_array_equal(add_photons_ideal(psi, 0).amps, psi.amps)


def test_add_single_fock_state():
    # one step on |3>: i * (-1)^3 |5> = -i |5>
    out = add_photons_ideal(make_fock(3, 12), 1)
    expected = np.zeros(12, dtype=complex)
    expected[5] = -1j
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_add_mean_shift_coherent_m50():
    psi = make_coherent(5, 250)
    out = add_photons_ideal(psi, 50)
    assert abs(mean_photon(out) - 125.0) < 1e-8
    assert abs(out.norm() - 1.0) < 1e-10


def test_add_guards_truncation():
    # dim 80 holds the coherent state; its top 20 amplitudes are not negligible
    psi = make_coherent(5, 80)
    with pytest.raises(TruncationTooSmall, match="top 20 amplitudes"):
        add_photons_ideal(psi, 10)


def test_add_preserves_distribution_shape_exactly():
    rng = np.random.default_rng(2)
    m = 3
    psi = random_state(rng, 40, zero_top=2 * m)
    out = add_photons_ideal(psi, m)
    p_in = fock_distribution(psi)
    p_out = fock_distribution(out)
    np.testing.assert_array_equal(p_out[2 * m :], p_in[: 40 - 2 * m])
    assert np.all(p_out[: 2 * m] == 0.0)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_add_mean_shift_property(data):
    m = data.draw(st.integers(min_value=0, max_value=5))
    dim = data.draw(st.integers(min_value=2 * m + 2, max_value=48))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    psi = random_state(np.random.default_rng(seed), dim, zero_top=2 * m)
    out = add_photons_ideal(psi, m)
    assert abs(out.norm() - 1.0) <= 2 * m * 1e-10 + 1e-12
    assert abs(mean_photon(out) - mean_photon(psi) - 2 * m) < 1e-9


# ---------------------------------------------------------------------------
# photon subtraction


def test_subtract_single_fock_state():
    out, low_mass = subtract_photons_ideal(make_fock(7, 12), 1)
    expected = np.zeros(12, dtype=complex)
    expected[5] = -1j
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)
    assert low_mass == 0.0


def test_subtract_two_term_state_renormalizes():
    v = np.zeros(8, dtype=complex)
    v[0] = v[2] = 1 / math.sqrt(2)
    out, low_mass = subtract_photons_ideal(FockVector(v), 1)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1j
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)
    assert abs(low_mass - 0.5) < 1e-12
    assert mean_photon(out) == 0.0


@pytest.mark.parametrize("m", [32, 34])
def test_subtract_renormalizes_at_tiny_removed_mass(m):
    # S is 2.4e-14 at m = 32 and 6.0e-13 at m = 34, far above rounding, so
    # only the division by sqrt(1 - S) normalizes the state to rounding
    out, _ = subtract_photons_ideal(make_coherent(12, 320), m)
    assert abs(np.vdot(out.amps, out.amps).real - 1.0) <= 4.4e-16


def test_subtract_mean_shift_coherent_m50():
    psi = make_coherent(12, 300)
    out, low_mass = subtract_photons_ideal(psi, 50)
    # the exact mean follows the general low-component formula
    assert abs(mean_photon(out) - subtracted_mean_predict(psi, 50)) < 1e-9
    assert low_mass < 1e-4


def test_subtract_all_mass_removed():
    with pytest.raises(AllMassRemoved):
        subtract_photons_ideal(make_fock(0, 8), 1)


def test_subtract_then_add_restores_up_to_phase():
    psi = make_coherent(7, 160)
    for m in (1, 2, 3):
        down, low_mass = subtract_photons_ideal(psi, m)
        assert low_mass < 1e-12
        back = add_photons_ideal(down, m)
        overlap = abs(np.vdot(back.amps, psi.amps))
        assert overlap >= 1.0 - 1e-8


def test_subtracted_mean_predict_matches_state():
    rng = np.random.default_rng(17)
    for m in (1, 2):
        psi = random_state(rng, 30)
        out, _ = subtract_photons_ideal(psi, m)
        assert abs(mean_photon(out) - subtracted_mean_predict(psi, m)) < 1e-12


def test_subtraction_and_mean_predictor_agree_on_all_mass_removed():
    # low mass 1 - 1e-12: past the builder's 1 - norm_tol threshold, where
    # the predictor's (1 - S)^-1 would return 2.99956 for a true mean of 3
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[5] = math.sqrt(1.0 - 1e-12), 1e-6
    psi = FockVector(amps)
    with pytest.raises(AllMassRemoved):
        subtract_photons_ideal(psi, 1)
    with pytest.raises(AllMassRemoved):
        subtracted_mean_predict(psi, 1)


def test_low_component_mass():
    assert low_component_mass(make_fock(0, 8), 1) == 1.0
    assert low_component_mass(make_fock(5, 8), 2) == 0.0
    value = low_component_mass(make_coherent(12, 320), 1)
    assert abs(value - LOW_MASS_ALPHA12_M1) < 1e-63


@pytest.mark.parametrize("reader", [low_component_mass, subtracted_mean_predict])
def test_subtraction_readers_reject_negative_m(reader):
    # low_component_mass owns the check; at m = -1, amps[:2m] is all but the top two levels
    with pytest.raises(ValueError, match=r"^m must be >= 0$"):
        reader(make_coherent(3, 80), -1)


def test_ideal_state_dispatch():
    psi = make_coherent(3, 80)
    np.testing.assert_array_equal(
        ideal_state(psi, 2, Mode.ADD).amps, add_photons_ideal(psi, 2).amps
    )
    np.testing.assert_array_equal(
        ideal_state(psi, 1, Mode.SUBTRACT).amps, subtract_photons_ideal(psi, 1)[0].amps
    )


# ---------------------------------------------------------------------------
# nonlinear operators


def test_apply_A_add_zeroes_blocked_component():
    # a lowers |2> to sqrt(2)|1>; the m=1 add factor vanishes at n=1
    out = apply_A(make_fock(2, 8), 1, Mode.ADD)
    assert np.all(out.amps == 0.0)


def test_apply_A_subtract_on_fock_one():
    out = apply_A(make_fock(1, 8), 1, Mode.SUBTRACT)
    expected = np.zeros(8, dtype=complex)
    expected[0] = math.sqrt(3.0)
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_apply_A_m0_is_annihilation():
    rng = np.random.default_rng(23)
    psi = random_state(rng, 20)
    for mode in Mode:
        np.testing.assert_allclose(
            apply_A(psi, 0, mode).amps, apply_annihilation(psi).amps, atol=1e-15
        )


def test_eigen_residual_add():
    res = eigen_residual(5, 1, Mode.ADD, 250)
    assert res.minus_alpha <= 1e-6
    assert res.expected == res.minus_alpha
    assert res.plus_alpha > 1.0
    # holds down to modest coherent amplitudes, |alpha|^2 >= 4m + 10
    assert eigen_residual(4, 1, Mode.ADD, 120).best <= 1e-6


def test_eigen_residual_subtract():
    res = eigen_residual(12, 1, Mode.SUBTRACT, 350)
    assert res.minus_alpha <= 1e-6
    assert res.plus_alpha > 1.0


def test_eigen_residual_sign_alternates_with_m():
    for m in range(1, 5):
        res = eigen_residual(5, m, Mode.ADD, 300)
        assert res.expected <= 1e-6
        assert res.best == res.expected
        other = res.plus_alpha if m % 2 == 1 else res.minus_alpha
        assert other > 1.0


def test_eigen_residual_vacuum_trivial():
    res = eigen_residual(0, 0, Mode.ADD, 16)
    assert res.best == 0.0


# ---------------------------------------------------------------------------
# Mandel Q


def test_mandel_q_coherent_is_zero():
    assert abs(mandel_q(make_coherent(5, 200))) < 1e-8


def test_mandel_q_fock_state():
    assert mandel_q(make_fock(7, 16)) == pytest.approx(-1.0, abs=1e-12)


def test_mandel_q_vacuum_raises():
    with pytest.raises(ZeroMeanPhoton):
        mandel_q(make_fock(0, 4))


def test_mandel_q_added_coherent_matches_prediction():
    psi = make_coherent(5, 250)
    out = add_photons_ideal(psi, 1)
    predicted = mandel_q_coherent_predict(5, 1, Mode.ADD)
    assert abs(predicted - (-2.0 / 27.0)) < 1e-15
    assert abs(mandel_q(out) - predicted) < 1e-8


def test_mandel_q_coherent_predict_subtract_and_edges():
    # +2m / (|alpha|^2 - 2m) for subtraction
    assert abs(mandel_q_coherent_predict(12, 1, Mode.SUBTRACT) - 2.0 / 142.0) < 1e-15
    with pytest.raises(ZeroMeanPhoton):  # |alpha|^2 = 2m leaves no mean photon number
        mandel_q_coherent_predict(2, 2, Mode.SUBTRACT)
    for mode in Mode:
        assert mandel_q_coherent_predict(5, 0, mode) == 0.0
        with pytest.raises(ZeroMeanPhoton):  # the vacuum has no mean photon number
            mandel_q_coherent_predict(0, 0, mode)


def test_mandel_q_signs_for_ideal_states():
    psi5 = make_coherent(5, 150)
    psi12 = make_coherent(12, 300)
    for m in (1, 5, 10):
        assert mandel_q(add_photons_ideal(psi5, m)) < 0.0
        assert mandel_q(subtract_photons_ideal(psi12, m)[0]) > 0.0
