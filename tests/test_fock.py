"""Fock-space core: constructors, the annihilation operator, metrics."""

import math
import re

import numpy as np
import pytest

from tpjc import (
    AllMassRemoved,
    DensityMatrix,
    DimensionMismatch,
    FockVector,
    Tolerances,
    TruncationTooSmall,
    apply_annihilation,
    default_dim,
    fidelity,
    fock_distribution,
    make_coherent,
    make_fock,
    mandel_q,
    mean_photon,
    pure_density,
)

# e^{-12.5} * 5^25 / sqrt(25!), evaluated at 60-digit precision.
C25_COHERENT_5 = 0.28199814089469711617


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(raw / np.linalg.norm(raw))


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_alpha_zero_is_vacuum():
    psi = make_coherent(0, 8)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_array_equal(psi.amps, expected)


def test_coherent_mean_photon_is_alpha_squared():
    psi = make_coherent(5, 200)
    assert abs(mean_photon(psi) - 25.0) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 4.0, 6.0, 9.0])
def test_coherent_mean_across_alphas(alpha):
    dim = max(default_dim(alpha), math.ceil(4 * alpha * alpha))
    psi = make_coherent(alpha, dim)
    assert abs(mean_photon(psi) - alpha * alpha) <= 1e-10 * dim


def test_coherent_mode_amplitude_matches_direct_evaluation():
    psi = make_coherent(5, 200)
    c25 = psi.amps[25]
    assert c25.imag == 0.0
    assert c25.real > 0.0
    assert abs(c25.real - C25_COHERENT_5) < 1e-13
    # Poisson mode at an integer mean ties the two largest weights.
    mags = np.abs(psi.amps)
    assert np.all(mags <= mags[25] + 1e-15)
    assert abs(mags[24] - mags[25]) < 1e-15


def test_coherent_complex_alpha_phases():
    alpha = 2.0 + 1.5j
    psi = make_coherent(alpha, 60)
    r = abs(alpha)
    direct = np.array(
        [
            math.exp(-0.5 * r * r) * alpha**j / math.sqrt(math.factorial(j))
            for j in range(30)
        ]
    )
    np.testing.assert_allclose(psi.amps[:30], direct, atol=1e-12)


def test_coherent_rejects_too_small_truncation():
    with pytest.raises(TruncationTooSmall):
        make_coherent(5, 10)


def test_coherent_guard_suggests_only_a_larger_dim():
    # the policy's dim for alpha 2 is 48, so at dim 70 naming it would
    # suggest a smaller space
    with pytest.raises(TruncationTooSmall) as info:
        make_coherent(2, 70, Tolerances(tail_tol=0.0))
    message = str(info.value)
    assert message.startswith("coherent tail mass ")
    assert message.endswith(" exceeds tail_tol=0.000e+00; enlarge dim=70 or raise tail_tol")


def test_coherent_accepts_policy_dim_at_large_alpha():
    # 1 - sum p_j over ~10^6 terms rounds to ~8e-10, above tail_tol, while
    # the true tail beyond the policy dim is below 1e-20
    dim = default_dim(1000)
    psi = make_coherent(1000, dim)
    assert psi.dim == dim
    assert abs(psi.norm() - 1.0) < 1e-12


def test_default_dim_policy():
    assert default_dim(5, 100) == math.ceil(25 + 50 + 100 + 24)
    assert default_dim(12) == math.ceil(144 + 120 + 24)


# ---------------------------------------------------------------------------
# field operators


def test_annihilation_and_number():
    assert np.allclose(apply_annihilation(make_fock(1, 8)).amps, make_fock(0, 8).amps)
    assert mean_photon(make_fock(4, 8)) == 4.0
    psi = make_coherent(5, 200)
    residual = apply_annihilation(psi).amps - 5.0 * psi.amps
    assert np.linalg.norm(residual) < 1e-8


# ---------------------------------------------------------------------------
# moments and distributions


def test_fock_state_moments():
    psi = make_fock(7, 16)
    assert mean_photon(psi) == 7.0
    assert mandel_q(psi) == -1.0


def test_coherent_moments_poisson():
    psi = make_coherent(5, 200)
    assert abs(mean_photon(psi) - 25.0) < 1e-10
    assert abs(mandel_q(psi)) < 1e-8


def test_distribution_fock_and_coherent():
    assert np.array_equal(fock_distribution(make_fock(2, 6)), [0, 0, 1, 0, 0, 0])
    psi = make_coherent(5, 200)
    p = fock_distribution(psi)
    expected = np.array(
        [math.exp(-25.0) * 25.0**j / math.factorial(j) for j in range(40)]
    )
    np.testing.assert_allclose(p[:40], expected, atol=1e-12)
    assert abs(np.sum(p) - 1.0) < 1e-12


def test_distribution_of_density_matrix_sums_to_one():
    rng = np.random.default_rng(5)
    psi = random_state(rng, 24)
    p = fock_distribution(pure_density(psi))
    assert abs(np.sum(p) - 1.0) < 1e-12
    assert np.all(p >= -1e-15)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_pure_state_with_itself():
    psi = make_coherent(2, 40)
    assert fidelity(pure_density(psi), psi) == pytest.approx(1.0, rel=1e-12)


def test_fidelity_orthogonal_fock_states():
    assert fidelity(pure_density(make_fock(3, 8)), make_fock(4, 8)) == 0.0


def test_fidelity_mixed_diagonal():
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    v = np.zeros(4, dtype=complex)
    v[0] = v[1] = 1 / math.sqrt(2)
    assert fidelity(rho, FockVector(v)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_for_pure_states():
    rng = np.random.default_rng(9)
    a = random_state(rng, 16)
    b = random_state(rng, 16)
    f_ab = fidelity(pure_density(a), b)
    f_ba = fidelity(pure_density(b), a)
    assert abs(f_ab - f_ba) < 1e-12
    assert abs(f_ab - abs(np.vdot(b.amps, a.amps)) ** 2) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(pure_density(make_fock(0, 4)), make_fock(0, 5))


# ---------------------------------------------------------------------------
# types


def test_vector_is_immutable():
    psi = make_fock(0, 4)
    with pytest.raises(ValueError):
        psi.amps[0] = 2.0


def test_density_matrix_validation():
    rho = pure_density(make_coherent(1, 20))
    assert abs(rho.trace() - 1.0) <= 1e-10
    assert rho.hermiticity_defect() <= 1e-10
    assert np.linalg.eigvalsh(rho.elems)[0] >= -1e-8


@pytest.mark.parametrize("amps", [np.ones((2, 2)), np.ones(0)], ids=["2-d", "empty"])
def test_vector_rejects_a_non_vector(amps):
    message = f"FockVector needs a 1-d amplitude array of length >= 1, got shape {amps.shape}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        FockVector(amps)


def test_zero_vector_cannot_be_normalized():
    with pytest.raises(AllMassRemoved, match=r"^cannot normalize a zero vector$"):
        FockVector(np.zeros(4)).normalized()


@pytest.mark.parametrize("elems", [np.ones((2, 3)), np.ones(4), np.ones((0, 0))], ids=["2x3", "1-d", "empty"])
def test_density_matrix_rejects_a_non_square_array(elems):
    message = f"DensityMatrix needs a square 2-d array, got shape {elems.shape}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        DensityMatrix(elems)


@pytest.mark.parametrize("n", [-1, 4])
def test_fock_state_rejects_an_index_outside_the_space(n):
    with pytest.raises(DimensionMismatch, match=rf"^Fock index {n} outside \[0, 4\)$"):
        make_fock(n, 4)


def test_coherent_state_rejects_an_empty_space():
    with pytest.raises(DimensionMismatch, match=r"^dim must be >= 1$"):
        make_coherent(1.0, 0)


def test_tolerance_defaults():
    tol = Tolerances()
    assert tol.norm_tol == 1e-10
    assert tol.tail_tol == 1e-10
