"""The m-pass fidelity series against an 80-bit reference.

The reference runs the dense pass loop of ``dynamics._full_pass`` in
np.longdouble from the run's own float64 psi0, with C and S taken from a
longdouble pi, and scores pass k against psi0 shifted by 2k with the
ladder phases i^k (-1)^(jk), over sqrt(1 - S_k) for subtraction. Its
rounding is ~2000x below float64's, so its distance to run_protocol is
the float64 run's own error.
"""

import cmath

import numpy as np
import pytest

from tpjc import FockVector, Mode, default_dim, make_coherent, run_protocol

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="np.longdouble is not wider than float64 on this platform, so it is no reference",
)

# Largest |F - F_80| and |p - p_80| accepted. The float64 run's C is off by
# up to 1.6e-13 below n = 300, since its angle pi sqrt((n+2)(n+1)) rounds at
# ~1e3, but F feels C only through c_n^2 ~ (pi / 8n)^2. The worst distances
# measured on the cases below are 1.08e-15 in F and 2.3e-16 on one level.
F_BOUND = 2e-15
P_BOUND = 1e-15


def reference_80(psi: FockVector, m: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """F_80(0..m) and the final distribution of m dense passes from |psi><psi|."""
    v = psi.amps.astype(np.clongdouble)
    dim = v.size
    n = np.arange(dim, dtype=np.longdouble) - (0 if mode is Mode.ADD else 2)
    theta = 4 * np.arctan(np.longdouble(1)) * np.sqrt((n + 2) * (n + 1))
    c, s = np.cos(theta), np.sin(theta)
    p = (v * v.conj()).real
    sign = np.where(np.arange(dim) % 2, -1, 1).astype(np.longdouble)
    rho = np.outer(v, v.conj())
    series = []
    for k in range(m + 1):
        if k:
            out = c[:, None] * rho * c
            moved = s[:, None] * rho * s
            if mode is Mode.ADD:
                out[2:, 2:] += moved[:-2, :-2]
            else:
                out[:-2, :-2] += moved[2:, 2:]
            rho = out
        kept = max(0, dim - 2 * k)
        phase = 1j**k * sign[:kept] ** k
        target = np.zeros(dim, dtype=np.clongdouble)
        if mode is Mode.ADD:
            target[dim - kept :] = phase * v[:kept]
        else:
            target[:kept] = phase * v[dim - kept :] / np.sqrt(1 - np.sum(p[: 2 * k]))
        series.append((target.conj() @ rho @ target).real)
    return np.array(series), np.diagonal(rho).real


def random_phase_state(r: float, dim: int, seed: int) -> FockVector:
    """|alpha>'s magnitudes at |alpha| = r with seeded random phases: not a
    phase ramp, so run_protocol takes its complex path."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, dim)
    return FockVector(np.abs(make_coherent(r, dim).amps) * np.exp(1j * phases))


def _coherent(alpha, m, mode):
    return make_coherent(alpha, default_dim(alpha, 2 * m if mode is Mode.ADD else 0))


CASES = {
    "add_5_m50": (lambda: _coherent(5.0, 50, Mode.ADD), 50, Mode.ADD),
    "add_3_m30": (lambda: _coherent(3.0, 30, Mode.ADD), 30, Mode.ADD),
    "subtract_12_m50": (lambda: _coherent(12.0, 50, Mode.SUBTRACT), 50, Mode.SUBTRACT),
    "subtract_5_m10": (lambda: _coherent(5.0, 10, Mode.SUBTRACT), 10, Mode.SUBTRACT),
    "add_6e^0.7i_m20": (lambda: _coherent(6.0 * cmath.exp(0.7j), 20, Mode.ADD), 20, Mode.ADD),
    "subtract_random_phase_m6": (lambda: random_phase_state(4.0, 64, 7), 6, Mode.SUBTRACT),
}


@pytest.mark.parametrize("case", CASES)
def test_protocol_is_within_rounding_of_the_80_bit_reference(case):
    build, m, mode = CASES[case]
    psi = build()
    result = run_protocol(psi, m, mode)
    f_80, p_80 = reference_80(psi, m, mode)
    f = np.array([value for _, value in result.fidelity_series])
    p = np.array([value for _, value in result.final_dist])
    assert np.max(np.abs(f - f_80)) <= F_BOUND
    assert np.max(np.abs(p - p_80)) <= P_BOUND
