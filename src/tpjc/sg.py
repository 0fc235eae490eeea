"""Ideal 2m-photon added and subtracted states and their statistics.

The states are built from the bare (Susskind-Glogower) ladder operators:

    added:      [ i V^dag^2 (-1)^n ]^m |psi>
    subtracted: (1 - S)^(-1/2) [ i V^2 (-1)^n ]^m |psi>,
                S = sum_{k<2m} |c_k|^2

Addition is a pure index shift with phases, so it preserves the shape of
the Fock distribution and raises the mean photon number by exactly 2m.
Subtraction removes the lowest 2m components (mass S) and always
renormalizes by (1 - S)^(-1/2).

Added/subtracted coherent states are eigenstates of the nonlinear
operators implemented in :func:`apply_A`, with eigenvalue (-1)^m * alpha:
the parity factors alternate the amplitude signs relative to the base
coherent state once per repetition, flipping the eigenvalue sign with the
parity of m (verified numerically by :func:`eigen_residual`, which reports
the residuals for both signs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AllMassRemoved, ZeroMeanPhoton
from .fock import (
    DEFAULT_TOL,
    DensityMatrix,
    FockVector,
    _check_edge,
    _moments,
    apply_annihilation,
    fock_distribution,
    make_coherent,
    mean_photon,
)


class Mode(enum.Enum):
    """Direction of the two-photon ladder protocol."""

    ADD = "add"
    SUBTRACT = "subtract"


def low_component_mass(psi: FockVector, m: int) -> float:
    """Probability mass sum_{k < 2m} |c_k|^2 removed by m subtraction steps."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k = min(2 * m, psi.dim)
    return float(np.sum(np.abs(psi.amps[:k]) ** 2))


def _ladder_guard(psi: FockVector, m: int, mode: Mode) -> float:
    """S_m (0 for ADD) once psi's m-step ladder state passes its guard on the top 2m or low 2m levels."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if mode is Mode.ADD:
        top = float(np.max(np.abs(psi.amps[max(0, psi.dim - 2 * m):]), initial=0.0))
        _check_edge(top, f"largest of the top {2 * m} amplitudes", f"enlarge dim={psi.dim}")
        return 0.0
    low_mass = low_component_mass(psi, m)
    if low_mass >= 1.0 - DEFAULT_TOL.norm_tol:
        raise AllMassRemoved(f"subtraction with m={m} removes mass {low_mass:.12f} (all of the state)")
    return low_mass


def _truncation_decision(psi: FockVector, m: int, mode: Mode) -> np.ndarray:
    """S_0 .. S_m (zeros for ADD) once the m-step guard passes (a unit psi then has 2m < N).
    It bounds every k <= m step's guard and every edge mass the passes push out (the diagonal
    moves two levels a pass: an ADD run's top two hold <= 2m tail_tol^2), so no failing run starts."""
    _ladder_guard(psi, m, mode)
    return np.array([low_component_mass(psi, k) if mode is Mode.SUBTRACT else 0.0 for k in range(m + 1)])


def _ladder_phases(size: int, m: int) -> np.ndarray:
    """i^m (-1)^(k m) for k < size: the phase m ladder steps leave at landing
    index k (a shift by two keeps the parity, so the m parity factors agree)."""
    return (1.0, 1j, -1.0, -1j)[m % 4] * (-1.0) ** (m * np.arange(size))


def add_photons_ideal(psi: FockVector, m: int) -> FockVector:
    """Apply [i V^dag^2 (-1)^n]^m: i^m (-1)^(j m) c_j lands at index j + 2m.

    Norm-preserving up to the truncation guard: the top 2m amplitudes must
    be negligible since each step shifts the state up by two.
    """
    _ladder_guard(psi, m, Mode.ADD)
    kept = max(0, psi.dim - 2 * m)
    out = np.zeros(psi.dim, dtype=complex)
    out[psi.dim - kept :] = _ladder_phases(kept, m) * psi.amps[:kept]
    return FockVector(out)


def subtract_photons_ideal(psi: FockVector, m: int) -> tuple[FockVector, float]:
    """Apply (1 - S)^(-1/2) [i V^2 (-1)^n]^m; returns (state, S).

    The map puts i^m (-1)^(j m) c_{j+2m} at index j and divides by
    sqrt(1 - S), S being the low-component mass it removes. Below
    S ~ 1.1e-16, 1 - S rounds to 1 and the division is exact.
    """
    low_mass = _ladder_guard(psi, m, Mode.SUBTRACT)
    kept = max(0, psi.dim - 2 * m)
    out = np.zeros(psi.dim, dtype=complex)
    out[:kept] = _ladder_phases(kept, m) * psi.amps[psi.dim - kept :] / np.sqrt(1.0 - low_mass)
    return FockVector(out), low_mass


def subtracted_mean_predict(psi: FockVector, m: int) -> float:
    """Mean photon number of the subtracted state, from the base state alone.

    (1 - S)^(-1) [ <n> - 2m + sum_{k<2m} (2m - k) |c_k|^2 ]

    The (2m - k) weight accounts for components removed below the shift
    distance; it reduces to <n> - 2m when the low components vanish.
    """
    low_mass = _ladder_guard(psi, m, Mode.SUBTRACT)
    k = np.arange(min(2 * m, psi.dim))
    correction = float(np.sum((2.0 * m - k) * np.abs(psi.amps[: k.size]) ** 2))
    return (mean_photon(psi) - 2.0 * m + correction) / (1.0 - low_mass)


def ideal_state(psi: FockVector, m: int, mode: Mode) -> FockVector:
    """The ideal ladder state with m steps in direction ``mode`` from ``psi``."""
    return add_photons_ideal(psi, m) if mode is Mode.ADD else subtract_photons_ideal(psi, m)[0]


# ---------------------------------------------------------------------------
# nonlinear annihilation operators


def apply_A(state: FockVector, m: int, mode: Mode) -> FockVector:
    """Deformed annihilation operator f(n) a with the n-dependent factor left of a:

        f(n)^2 = (n + 1 -+ 2m)/(n + 1),   - for ADD, + for SUBTRACT

    clipped at 0. For ADD it is negative on components below 2m - 1;
    genuine 2m-added states carry no amplitude there, so the factor is
    defined as 0 on them. For SUBTRACT the clip never acts.
    """
    lowered = apply_annihilation(state)
    sign = -1.0 if mode is Mode.ADD else 1.0
    n = np.arange(state.dim, dtype=float)
    f2 = np.maximum((n + sign * 2.0 * m + 1.0) / (n + 1.0), 0.0)
    return FockVector(np.sqrt(f2) * lowered.amps)


@dataclass(frozen=True)
class EigenResidual:
    """Residual norms of the eigenvalue relation for both candidate signs."""

    minus_alpha: float
    plus_alpha: float
    expected: float  # residual at the numerically verified sign (-1)^m alpha

    @property
    def best(self) -> float:
        return min(self.minus_alpha, self.plus_alpha)


def eigen_residual(alpha: complex, m: int, mode: Mode, dim: int) -> EigenResidual:
    """Check that the ideal ladder coherent state is an eigenstate of apply_A.

    Returns || A |state> - lambda |state> || for lambda = -alpha and
    lambda = +alpha. The realized eigenvalue is (-1)^m alpha, so
    ``expected`` picks the minus_alpha residual for odd m and plus_alpha
    for even m.
    """
    base = make_coherent(alpha, dim)
    state = ideal_state(base, m, mode)
    image = apply_A(state, m, mode)
    r_minus = float(np.linalg.norm(image.amps - (-alpha) * state.amps))
    r_plus = float(np.linalg.norm(image.amps - alpha * state.amps))
    expected = r_minus if m % 2 == 1 else r_plus
    return EigenResidual(minus_alpha=r_minus, plus_alpha=r_plus, expected=expected)


# ---------------------------------------------------------------------------
# photon statistics


def mandel_q(state: FockVector | DensityMatrix) -> float:
    """Mandel Q = (<n^2> - <n>^2)/<n> - 1; negative is sub-Poissonian."""
    return _mandel_q(fock_distribution(state))


def _mandel_q(p: np.ndarray, start: int = 0) -> float:
    mean, second = _moments(p, start)
    if mean == 0.0:
        raise ZeroMeanPhoton("Mandel Q undefined for zero mean photon number")
    variance = second - mean * mean
    return variance / mean - 1.0


def mandel_q_coherent_predict(alpha: complex, m: int, mode: Mode) -> float:
    """Q of the ideal ladder coherent state: -+ 2m / (|alpha|^2 +- 2m).

    A +-2m shift of the Fock distribution keeps the Poissonian variance
    |alpha|^2 and moves the mean by +-2m, so addition is always
    sub-Poissonian and subtraction super-Poissonian.
    """
    sign = -1.0 if mode is Mode.ADD else 1.0
    denom = abs(alpha) ** 2 - sign * 2.0 * m
    if denom == 0.0:
        raise ZeroMeanPhoton("shifted state has zero mean photon number")
    return sign * (2.0 * m / denom) if m else 0.0
