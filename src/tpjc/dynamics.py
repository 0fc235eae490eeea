"""Two-photon Jaynes-Cummings dynamics on resonance.

Everything here is in the interaction picture of the resonant model
(field frequency = half the qubit splitting), where the interaction
g (a^2 sigma+ + a^dag^2 sigma-) exchanges photons in pairs with the
n-dependent rate Omega(n) = g sqrt((n+2)(n+1)). The propagator couples
each pair (|n, e>, |n+2, g>) as an independent 2x2 rotation and leaves
|0, g> and |1, g> dark.

The closed-form propagator is applied as index shifts and diagonal
scalings; :func:`evolve_oracle` re-derives the same evolution by dense
Hermitian eigendecomposition of the Hamiltonian and exists purely to
cross-check the closed form.

One protocol pass evolves for gt = pi and re-prepares the qubit, which
reduces to the exact field-only maps :func:`pass_add` / :func:`pass_subtract`.
Both directions run through one in-place kernel; :func:`run_protocol`
iterates it on a private buffer, so a run holds two live N x N matrices
(the state and one scratch). Iterating m passes approximates the ideal
2m-photon ladder states of :mod:`tpjc.sg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagonalizationFailure, DimensionMismatch, TruncationTooSmall
from .fock import (
    DEFAULT_TOL,
    LOW_MASS_TOL,
    DensityMatrix,
    FockVector,
    QubitFieldState,
    Tolerances,
    WarningLog,
    _moments,
    _overlap,
    fidelity,  # noqa: F401  (kept as tpjc.dynamics.fidelity; perfbench's smoke test reads it)
    mean_photon,
)
from .sg import Mode, SgStateSpec, _mandel_q, ideal_state, low_component_mass


@dataclass(frozen=True)
class TpjcParams:
    """Coupling rate g (1/time) and evolution time t."""

    g: float
    t: float

    def __post_init__(self) -> None:
        if not self.g > 0.0:
            raise ValueError(f"coupling g must be positive, got {self.g}")
        if self.t < 0.0:
            raise ValueError(f"time t must be non-negative, got {self.t}")


def rabi_angle(n, gt: float):
    """Rotation angle Omega(n) t = gt sqrt((n+2)(n+1)) of the pair (|n, e>, |n+2, g>).

    At gt = g it is the rate Omega(n). It vanishes at n = -1 and n = -2,
    so Omega(n-2) leaves |1, g> and |0, g> dark.
    """
    return gt * np.sqrt((n + 2.0) * (n + 1.0))


def _block_diagonals(dim: int, gt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos/sin of Omega(n) t and cos of Omega(n-2) t as diagonal arrays."""
    n = np.arange(dim, dtype=float)
    theta = rabi_angle(n, gt)
    return np.cos(theta), np.sin(theta), np.cos(rabi_angle(n - 2.0, gt))


def evolve_closed_form(
    state: QubitFieldState,
    params: TpjcParams,
    tol: Tolerances = DEFAULT_TOL,
) -> QubitFieldState:
    """Closed-form propagator:

        e' = cos[Omega(n) t] e  - i sin[Omega(n) t] V^2 g
        g' = -i V^dag^2 sin[Omega(n) t] e + cos[Omega(n-2) t] g

    The excited component is raised by two, so its top two amplitudes
    must be negligible or they would leave the truncated space.
    """
    dim = state.dim
    e, g = state.e_amps, state.g_amps
    top = float(np.max(np.abs(e[max(0, dim - 2):])))
    if top > tol.tail_tol:
        raise TruncationTooSmall(
            f"top-two excited amplitudes reach {top:.3e} (> tail_tol={tol.tail_tol:.3e}); "
            f"enlarge dim={dim}"
        )
    gt = params.g * params.t
    cos_w, sin_w, cos_wm = _block_diagonals(dim, gt)

    v2g = np.zeros(dim, dtype=complex)
    if dim > 2:
        v2g[: dim - 2] = g[2:]
    e_new = cos_w * e - 1j * sin_w * v2g

    sin_e = sin_w * e
    raised = np.zeros(dim, dtype=complex)
    if dim > 2:
        raised[2:] = sin_e[: dim - 2]
    g_new = -1j * raised + cos_wm * g
    return QubitFieldState(e_new, g_new)


def build_hamiltonian(dim: int, g: float) -> np.ndarray:
    """Dense 2N x 2N interaction Hamiltonian g (a^2 sigma+ + a^dag^2 sigma-).

    Basis ordering: rows 0..N-1 are |n, e>, rows N..2N-1 are |n, g>.
    The only nonzero elements couple |n, e> <-> |n+2, g> with
    g sqrt((n+2)(n+1)); the diagonal vanishes on resonance in the
    interaction picture.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3 to hold a two-photon exchange, got {dim}")
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    n = np.arange(dim - 2)
    elem = rabi_angle(n, g)
    h[dim + n + 2, n] = elem
    h[n, dim + n + 2] = elem
    return h


def evolve_oracle(state: QubitFieldState, params: TpjcParams) -> QubitFieldState:
    """exp(-i H t) via dense Hermitian eigendecomposition.

    Independent of the closed form; used to certify it.
    """
    dim = state.dim
    h = build_hamiltonian(dim, params.g)
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationFailure(f"eigh failed on the {2 * dim}x{2 * dim} Hamiltonian") from exc
    vec = np.concatenate([state.e_amps, state.g_amps])
    phases = np.exp(-1j * evals * params.t)
    out = evecs @ (phases * (evecs.conj().T @ vec))
    return QubitFieldState(out[:dim], out[dim:])


# ---------------------------------------------------------------------------
# exact density-matrix maps for one pass at gt = pi


def _pass_diagonals(dim: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """C, S at gt = pi (g cancels): angle Omega(n) t for ADD, Omega(n-2) t for SUBTRACT."""
    theta = rabi_angle(np.arange(dim) - (0 if mode is Mode.ADD else 2), np.pi)
    return np.cos(theta), np.sin(theta)


def _pass_inplace(buf: np.ndarray, tmp: np.ndarray, c, s, mode: Mode, tol: Tolerances) -> None:
    """buf <- C buf C + V^dag^2 S buf S V^2 (ADD) or C buf C + V^2 S buf S V^dag^2
    (SUBTRACT), in place; ``tmp`` is scratch of the same shape. Rows are scaled
    before columns, (c_i rho_ij) c_j, as the matrix products round.
    """
    dim = buf.shape[0]
    if mode is Mode.ADD:
        top_mass = float(np.real(buf[dim - 2, dim - 2] + buf[dim - 1, dim - 1]))
        if top_mass > tol.tail_tol:
            raise TruncationTooSmall(
                f"top-two diagonal mass {top_mass:.3e} exceeds tail_tol={tol.tail_tol:.3e}; "
                f"enlarge dim={dim}"
            )
    np.multiply(buf, s[:, None], out=tmp)
    tmp *= s[None, :]
    buf *= c[:, None]
    buf *= c[None, :]
    if mode is Mode.ADD:
        buf[2:, 2:] += tmp[: dim - 2, : dim - 2]
    else:
        buf[: dim - 2, : dim - 2] += tmp[2:, 2:]


def _pass(rho: DensityMatrix, mode: Mode, tol: Tolerances) -> DensityMatrix:
    buf = np.array(rho.elems)
    _pass_inplace(buf, np.empty_like(buf), *_pass_diagonals(rho.dim, mode), mode, tol)
    return DensityMatrix(buf)


def pass_add(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """One excited-qubit pass at gt = pi:

        rho' = C rho C + V^dag^2 S rho S V^2,
        C = cos[pi sqrt((n+2)(n+1))], S = sin[...]

    Trace-preserving provided the top two diagonal entries are negligible
    (they are shifted out of the truncation by V^dag^2).
    """
    return _pass(rho, Mode.ADD, tol)


def pass_subtract(rho: DensityMatrix) -> DensityMatrix:
    """One ground-qubit pass at gt = pi:

        rho' = C' rho C' + V^2 S' rho S' V^dag^2,
        C' = cos[pi sqrt(n(n-1))], S' = sin[...]

    Exactly trace-preserving with no truncation guard: S' vanishes on
    |0> and |1>, so nothing leaks at the bottom, and V^2 only moves mass
    downward.
    """
    return _pass(rho, Mode.SUBTRACT, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# iterated protocol


@dataclass(frozen=True)
class ProtocolResult:
    """Everything an experiment run records about one protocol execution."""

    fidelity_series: list[tuple[int, float]]
    initial_dist: list[tuple[int, float]]
    final_dist: list[tuple[int, float]]
    mean_photon_initial: float
    mean_photon_final: float
    mandel_q_final: float
    mandel_q_predicted: float | None
    warnings: list[str]


def _dist_pairs(p: np.ndarray) -> list[tuple[int, float]]:
    return [(j, float(p[j])) for j in range(p.size)]


def run_protocol(
    psi0: FockVector,
    m: int,
    mode: Mode,
    dim: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
    warnings: WarningLog | None = None,
) -> ProtocolResult:
    """Iterate m passes from rho_0 = |psi0><psi0|, tracking fidelity.

    After pass k the fidelity F(k) = <target_k| rho_k |target_k> is
    recorded against the ideal ladder state with k steps built from the
    same initial state; F(0) = 1 by construction. The passes run in place
    on a private matrix, which is never wrapped (a wrap copies).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if warnings is None:
        warnings = WarningLog()
    if dim is not None:
        if dim < psi0.dim:
            raise DimensionMismatch(f"dim={dim} smaller than initial state dim={psi0.dim}")
        if dim > psi0.dim:
            padded = np.zeros(dim, dtype=complex)
            padded[: psi0.dim] = psi0.amps
            psi0 = FockVector(padded)

    if mode is Mode.SUBTRACT:
        base_low_mass = low_component_mass(psi0, m)
        if base_low_mass > LOW_MASS_TOL:
            warnings.add(
                f"protocol: initial state has low-component mass {base_low_mass:.6e}; "
                "subtraction targets use the renormalized form"
            )

    v = psi0.amps
    rho = np.outer(v, v.conj())
    tmp = np.empty_like(rho)
    c, s = _pass_diagonals(psi0.dim, mode)
    series: list[tuple[int, float]] = [(0, _overlap(rho, v))]
    initial_dist = _dist_pairs(np.real(np.diag(rho)))

    for k in range(1, m + 1):
        _pass_inplace(rho, tmp, c, s, mode, tol)
        target = ideal_state(SgStateSpec(psi0, k, mode), tol)
        series.append((k, _overlap(rho, target.amps)))

    final_dist = np.real(np.diag(rho))
    return ProtocolResult(
        fidelity_series=series,
        initial_dist=initial_dist,
        final_dist=_dist_pairs(final_dist),
        mean_photon_initial=mean_photon(psi0),
        mean_photon_final=_moments(final_dist)[0],
        mandel_q_final=_mandel_q(final_dist),
        mandel_q_predicted=None,
        warnings=list(warnings),
    )


# ---------------------------------------------------------------------------
# linearized Rabi-frequency approximation quality


def approx_error(j: int, branch: Mode) -> float:
    """Relative error of the linearized Rabi root at Fock index j.

    ADD branch:      sqrt((j+2)(j+1)) vs j + 3/2
    SUBTRACT branch: sqrt(j(j-1))     vs j - 1/2   (needs j >= 2)

    Decreases like 1/(8 j^2) for large j.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if branch is Mode.ADD:
        exact = rabi_angle(j, 1.0)
        approx = j + 1.5
    else:
        if j < 2:
            raise ValueError("subtract branch needs j >= 2 for a nonzero reference")
        exact = rabi_angle(j - 2, 1.0)
        approx = j - 0.5
    return float(abs(approx - exact) / exact)
