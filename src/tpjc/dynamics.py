"""Two-photon Jaynes-Cummings dynamics on resonance.

Everything here is in the interaction picture of the resonant model
(field frequency = half the qubit splitting), where the interaction
g (a^2 sigma+ + a^dag^2 sigma-) exchanges photons in pairs with the
n-dependent rate Omega(n) = g sqrt((n+2)(n+1)). The propagator couples
each pair (|n, e>, |n+2, g>) as an independent 2x2 rotation and leaves
|0, g> and |1, g> dark. Only the product gt enters, so the propagators
take the angle gt and the Hamiltonian is in units of g.

The closed-form propagator is applied as index shifts and diagonal
scalings; :func:`evolve_oracle` re-derives the same evolution by dense
Hermitian eigendecomposition of the Hamiltonian and exists purely to
cross-check the closed form.

One protocol pass evolves for gt = pi and re-prepares the qubit, which
reduces to the exact field-only maps :func:`pass_add` / :func:`pass_subtract`.
:func:`run_protocol` runs the same map as an in-place, row-blocked sweep
that also scores each pass, on one matrix (float64 for coherent inputs)
over the occupied Fock window [lo, N). Iterating m passes approximates
the ideal 2m-photon ladder states of :mod:`tpjc.sg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagonalizationFailure, DimensionMismatch, ZeroMeanPhoton
from .fock import (
    LOW_MASS_TOL,
    DensityMatrix,
    FockVector,
    _check_edge,
    _moments,
    _unit_clamp,
    fidelity,  # noqa: F401  (kept as tpjc.dynamics.fidelity; perfbench's smoke test reads it)
    mean_photon,
)
from .sg import Mode, _mandel_q, ideal_state, low_component_mass


def rabi_angle(n, gt: float):
    """Rotation angle Omega(n) t = gt sqrt((n+2)(n+1)) of the pair (|n, e>, |n+2, g>).

    At gt = 1 it is Omega(n) / g. It vanishes at n = -1 and n = -2,
    so Omega(n-2) leaves |1, g> and |0, g> dark.
    """
    return gt * np.sqrt((n + 2.0) * (n + 1.0))


def _joint_dim(state: np.ndarray) -> int:
    """N of a joint qubit-field state: 2N amplitudes in the basis of
    :func:`build_hamiltonian`, |n, e> at n and |n, g> at N + n."""
    if state.ndim != 1 or state.size == 0 or state.size % 2:
        raise DimensionMismatch(
            f"a joint state needs a 1-d array of 2N >= 2 amplitudes, got shape {state.shape}"
        )
    return state.size // 2


def evolve_closed_form(state: np.ndarray, gt: float) -> np.ndarray:
    """Closed-form propagator on the 2N joint vector (e, g) = (state[:N], state[N:]):

        e' = cos[Omega(n) t] e  - i sin[Omega(n) t] V^2 g
        g' = -i V^dag^2 sin[Omega(n) t] e + cos[Omega(n-2) t] g

    Returns a fresh array. The excited component is raised by two, so its
    top two amplitudes must be negligible or they would leave the
    truncated space.
    """
    dim = _joint_dim(state)
    e, g = state[:dim], state[dim:]
    top = float(np.max(np.abs(e[max(0, dim - 2):])))
    _check_edge(top, "largest top-two excited amplitude", f"enlarge dim={dim}")
    n = np.arange(dim, dtype=float)
    theta = rabi_angle(n, gt)
    cos_w, sin_w = np.cos(theta), np.sin(theta)

    v2g = np.zeros(dim, dtype=complex)
    v2g[: dim - 2] = g[2:]
    e_new = cos_w * e - 1j * sin_w * v2g

    sin_e = sin_w * e
    raised = np.zeros(dim, dtype=complex)
    raised[2:] = sin_e[: dim - 2]
    g_new = -1j * raised + np.cos(rabi_angle(n - 2.0, gt)) * g
    return np.concatenate([e_new, g_new])


def build_hamiltonian(dim: int) -> np.ndarray:
    """Dense 2N x 2N interaction Hamiltonian a^2 sigma+ + a^dag^2 sigma-, in units of g.

    Basis ordering: rows 0..N-1 are |n, e>, rows N..2N-1 are |n, g>.
    The only nonzero elements couple |n, e> <-> |n+2, g> with
    sqrt((n+2)(n+1)); the diagonal vanishes on resonance in the
    interaction picture.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3 to hold a two-photon exchange, got {dim}")
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    n = np.arange(dim - 2)
    elem = np.sqrt((n + 2.0) * (n + 1.0))
    h[dim + n + 2, n] = elem
    h[n, dim + n + 2] = elem
    return h


def evolve_oracle(state: np.ndarray, gt: float) -> np.ndarray:
    """exp(-i H gt) on the 2N joint vector, H in units of g, via dense
    Hermitian eigendecomposition; returns a fresh array.

    Independent of the closed form; used to certify it.
    """
    dim = _joint_dim(state)
    h = build_hamiltonian(dim)
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationFailure(f"eigh failed on the {2 * dim}x{2 * dim} Hamiltonian") from exc
    return evecs @ (np.exp(-1j * evals * gt) * (evecs.conj().T @ state))


# ---------------------------------------------------------------------------
# exact density-matrix maps for one pass at gt = pi


def _pass_diagonals(lo: int, dim: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """C, S at gt = pi (g cancels) on the levels n = lo .. dim-1: angle
    Omega(n) t for ADD, Omega(n-2) t for SUBTRACT."""
    theta = rabi_angle(lo + np.arange(dim - lo) - (0 if mode is Mode.ADD else 2), np.pi)
    return np.cos(theta), np.sin(theta)


def _full_pass(rho: DensityMatrix, mode: Mode) -> DensityMatrix:
    c, s = _pass_diagonals(0, rho.dim, mode)
    r = rho.elems
    out = c[:, None] * r * c
    moved = s[:, None] * r * s
    if mode is Mode.ADD:
        out[2:, 2:] += moved[:-2, :-2]
    else:
        out[:-2, :-2] += moved[2:, 2:]
    return DensityMatrix(out)


def pass_add(rho: DensityMatrix) -> DensityMatrix:
    """One excited-qubit pass at gt = pi:

        rho' = C rho C + V^dag^2 S rho S V^2,
        C = cos[pi sqrt((n+2)(n+1))], S = sin[...]

    Trace-preserving provided the top two diagonal entries are negligible
    (they are shifted out of the truncation by V^dag^2).
    """
    _check_edge(np.trace(rho.elems[-2:, -2:]).real, "top-two diagonal mass", f"enlarge dim={rho.dim}")
    return _full_pass(rho, Mode.ADD)


def pass_subtract(rho: DensityMatrix) -> DensityMatrix:
    """One ground-qubit pass at gt = pi:

        rho' = C' rho C' + V^2 S' rho S' V^dag^2,
        C' = cos[pi sqrt(n(n-1))], S' = sin[...]

    Exactly trace-preserving with no truncation guard: S' vanishes on
    |0> and |1>, so nothing leaks at the bottom, and V^2 only moves mass
    downward.
    """
    return _full_pass(rho, Mode.SUBTRACT)


# Rows the sweep updates per block. A block, its source rows and the
# scratch stay in cache while the block is scored. 32-64 measured fastest
# on a 2-vCPU host with OpenBLAS; 8 was clearly slower.
SWEEP_ROWS = 32


def _sweep(buf: np.ndarray, c, s_buf, u: np.ndarray, mode: Mode, lo: int = 0) -> float:
    """One pass, rounded as :func:`pass_add` / :func:`pass_subtract` round,
    in place on the window rho = buf[2:-2, 2:-2] (levels lo .. N-1, any
    dtype; two zero levels pad each side), ``SWEEP_ROWS`` rows at a time.
    ``c`` is C on the window's levels, ``s_buf`` S on buf's, zero on the
    padding. Returns <u| rho' |u>.

    Row i reads the old row i -+ 2, so ADD runs bottom-up and SUBTRACT
    top-down, reading each source row before it is overwritten. The rows a
    pass pushes out (ADD: the top two; SUBTRACT at lo > 0: the bottom two)
    must hold negligible mass.
    """
    rho = buf[2:-2, 2:-2]
    w = rho.shape[0]
    if mode is Mode.ADD:
        _check_edge(np.trace(rho[-2:, -2:]).real, "top-two diagonal mass", f"enlarge dim={lo + w}")
    elif lo > 0:
        fix = f"the window starts at lo={lo}"
        _check_edge(np.trace(rho[:2, :2]).real, "bottom-two diagonal mass", fix)
    q = 0 if mode is Mode.ADD else 4  # rho's row i receives buf's old row i + q
    scratch = np.empty((SWEEP_ROWS, w), dtype=buf.dtype)
    y = np.empty(w, dtype=np.result_type(buf, u))
    starts = range(0, w, SWEEP_ROWS)
    for a in reversed(starts) if mode is Mode.ADD else starts:
        b = min(a + SWEEP_ROWS, w)
        src = buf[a + q : b + q, q : q + w]
        moved = np.multiply(src, s_buf[a + q : b + q, None], out=scratch[: b - a])
        moved *= s_buf[q : q + w]
        blk = rho[a:b]
        blk *= c[a:b, None]
        blk *= c
        blk += moved
        np.matmul(blk, u, out=y[a:b])
    return float(np.vdot(u, y).real)


# ---------------------------------------------------------------------------
# iterated protocol

# Levels below the first index where the initial state's cumulative mass
# exceeds this are left out of the simulated window. Dropping that much
# mass moves fidelities, means and Q by less than double-precision rounding.
WINDOW_MASS_TOL = 1e-20

# Largest ||c - |c| e^{i psi}|| (psi_{j+2} - psi_j constant) that the float64
# path ignores; results move by about as much. It is above the rounding of
# make_coherent's phases at every size the run's memory budget admits.
PHASE_RAMP_TOL = 1e-9


def _has_phase_ramp(v: np.ndarray) -> bool:
    """Whether arg c_{j+2} - arg c_j is one constant on the support of ``v``.
    The pass map moves rho_{i-2,j-2} to rho_ij, so it then keeps
    rho_ij = e^{i(psi_i - psi_j)} R_ij with R real."""
    flat = v * np.exp(-0.5j * np.angle(np.vdot(v[:-2], v[2:])) * np.arange(v.size))
    for parity in (0, 1):  # flat's phase is now constant on each parity
        flat[parity::2] *= np.exp(-1j * np.angle(np.sum(flat[parity::2])))
    return float(np.linalg.norm(flat - np.abs(flat))) <= PHASE_RAMP_TOL


@dataclass(frozen=True)
class ProtocolResult:
    """Everything an experiment run records about one protocol execution."""

    fidelity_series: list[tuple[int, float]]
    initial_dist: list[tuple[int, float]]
    final_dist: list[tuple[int, float]]
    mean_photon_initial: float
    mean_photon_final: float
    mandel_q_final: float | None  # None when the final mean photon number is 0
    mandel_q_predicted: float | None
    warnings: list[str]


def _dist_pairs(p: np.ndarray) -> list[tuple[int, float]]:
    return [(j, float(p[j])) for j in range(p.size)]


def run_protocol(psi0: FockVector, m: int, mode: Mode) -> ProtocolResult:
    """Iterate m passes from rho_0 = |psi0><psi0|, tracking fidelity.

    After pass k the fidelity F(k) = <target_k| rho_k |target_k> is
    recorded against the ideal ladder state with k steps built from the
    same initial state; F(0) = 1 by construction. Each pass is one sweep
    of a private matrix, which also scores it. The matrix is float64 R,
    rho_ij = e^{i(psi_i - psi_j)} R_ij, scored with u_j = (-1)^(jk) |t_j|,
    when psi0's phases pass ``_has_phase_ramp`` (coherent states, even and
    odd cats); otherwise it is rho itself, complex.

    The matrix covers only the Fock window [lo, N). lo is the first index
    where psi0's cumulative mass exceeds ``WINDOW_MASS_TOL``, lowered by 2m
    for SUBTRACT (mass moves down two levels per pass) and clamped at 0.
    ADD moves mass only upward, so nothing enters the window from below.
    The final distribution is re-embedded on 0 .. N-1. If its mean photon
    number is 0, Mandel Q is undefined: ``mandel_q_final`` is None and a
    warning says so.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    warnings: list[str] = []
    if mode is Mode.SUBTRACT:
        base_low_mass = low_component_mass(psi0, m)
        if base_low_mass > LOW_MASS_TOL:
            warnings.append(
                f"protocol: initial state has low-component mass {base_low_mass:.6e}; "
                "subtraction targets use the renormalized form"
            )

    v = psi0.amps
    p0 = np.real(v * v.conj())
    lo = int(np.argmax(np.cumsum(p0) > WINDOW_MASS_TOL))
    if mode is Mode.SUBTRACT:
        lo = max(0, lo - 2 * m)
    real = _has_phase_ramp(v)
    sign = (-1.0) ** np.arange(lo, psi0.dim)

    def target(k: int) -> np.ndarray:
        amps = ideal_state(psi0, k, mode).amps[lo:]
        return sign**k * np.abs(amps) if real else amps

    w = target(0)
    buf = np.zeros((w.size + 4, w.size + 4), dtype=w.dtype)
    rho = np.outer(w, w.conj(), out=buf[2:-2, 2:-2])
    # |c|^2 as initial_dist has it: the real path's |c| |c| can be an ulp off
    np.fill_diagonal(rho, p0[lo:])
    c, s = _pass_diagonals(lo, psi0.dim, mode)
    s_buf = np.pad(s, 2)
    series: list[tuple[int, float]] = [(0, _unit_clamp(np.vdot(w, rho @ w).real))]
    for k in range(1, m + 1):
        series.append((k, _unit_clamp(_sweep(buf, c, s_buf, target(k), mode, lo))))

    final_dist = np.zeros(psi0.dim)
    final_dist[lo:] = np.real(np.diag(rho))
    try:
        q_final = _mandel_q(final_dist)
    except ZeroMeanPhoton:
        q_final = None
        warnings.append("protocol: final mean photon number is 0; Mandel Q is undefined")
    return ProtocolResult(
        fidelity_series=series,
        initial_dist=_dist_pairs(p0),
        final_dist=_dist_pairs(final_dist),
        mean_photon_initial=mean_photon(psi0),
        mean_photon_final=_moments(final_dist)[0],
        mandel_q_final=q_final,
        mandel_q_predicted=None,
        warnings=warnings,
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
