"""Truncated Fock-space states, elementary field operators, and metrics.

The simulation space is spanned by the number states |0> .. |N-1>. Pure
states are amplitude vectors, mixed states dense N x N matrices. The
annihilation operator acts as an index shift with a diagonal scaling on
the amplitude array; nothing is materialized as a dense operator matrix
(the dense route lives in :mod:`tpjc.dynamics` as the verification
oracle).

Normalization policy: named constructors (``make_fock``, ``make_coherent``,
``pure_density``) return normalized states; the raw operator application
``apply_annihilation`` does not renormalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMassRemoved, DimensionMismatch, TruncationTooSmall


@dataclass(frozen=True)
class Tolerances:
    """Thresholds that gate a run and never change a value it computes:
    ``tail_tol`` bounds every truncation guard, ``norm_tol`` the mass a
    subtraction may remove."""

    norm_tol: float = 1e-10
    tail_tol: float = 1e-10


DEFAULT_TOL = Tolerances()

# The threshold of run_protocol's low-mass warning: the low-component mass S
# of a subtraction run's initial state above which the run says so.
LOW_MASS_TOL = 1e-12


def _check_edge(value: float, what: str, fix: str, tol: Tolerances = DEFAULT_TOL) -> None:
    """The one truncation guard: ``value`` (an amplitude or a mass at the
    edge of a truncated space) must not exceed ``tol.tail_tol``."""
    if value > tol.tail_tol:
        raise TruncationTooSmall(f"{what} {value:.3e} exceeds tail_tol={tol.tail_tol:.3e}; {fix}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FockVector:
    """Pure field state: complex amplitudes c_j over |0> .. |dim-1>.

    Instances are immutable; operations return fresh vectors. The stored
    amplitudes are only guaranteed normalized when produced by a
    constructor or an explicitly normalizing operation.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amps)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch(
                f"FockVector needs a 1-d amplitude array of length >= 1, got shape {arr.shape}"
            )
        object.__setattr__(self, "amps", _readonly(arr))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise AllMassRemoved("cannot normalize a zero vector")
        return FockVector(self.amps / n)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed field state: N x N complex matrix, Hermitian and unit trace."""

    elems: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.elems)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(
                f"DensityMatrix needs a square 2-d array, got shape {arr.shape}"
            )
        object.__setattr__(self, "elems", _readonly(arr))

    @property
    def dim(self) -> int:
        return self.elems.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.elems).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.elems - self.elems.conj().T)))


# ---------------------------------------------------------------------------
# constructors


def make_fock(n: int, dim: int) -> FockVector:
    """Number state |n> on a dim-dimensional space."""
    if not 0 <= n < dim:
        raise DimensionMismatch(f"Fock index {n} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


# tol: the one override left, for library callers; perfbench's harness passes
# a config's tolerances here. Every other guard gates at DEFAULT_TOL.
def make_coherent(alpha: complex, dim: int, tol: Tolerances = DEFAULT_TOL) -> FockVector:
    """Coherent state |alpha>: c_j = exp(-|alpha|^2/2) alpha^j / sqrt(j!).

    Amplitudes are evaluated in log space so large |alpha| cannot overflow
    the intermediate powers. The Poisson mass beyond the truncation must
    not exceed ``tol.tail_tol``; the truncated vector is renormalized.

    The tail is the smaller of two estimates. Above the mean it is bounded
    directly: the Poisson ratio p_{k+1}/p_k = |alpha|^2/(k+1) is at most
    q = |alpha|^2/(dim+1) for k >= dim, so the tail is at most
    p_dim / (1 - q). The complement 1 - sum p_j is exact up to rounding,
    which is what counts when the tail is large, but that rounding over
    ~dim terms would swamp a tail near ``tail_tol`` at large dim.
    """
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    r = abs(alpha)
    if r == 0.0:
        return make_fock(0, dim)
    j = np.arange(dim)
    log_fact = np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim)
    log_mag = -0.5 * r * r + j * math.log(r) - 0.5 * log_fact
    mag = np.exp(log_mag)
    q = r * r / (dim + 1)
    log_p_dim = -r * r + 2.0 * dim * math.log(r) - math.lgamma(dim + 1.0)
    bound = math.exp(log_p_dim) / (1.0 - q) if q < 1.0 else math.inf
    tail = min(bound, max(0.0, 1.0 - float(np.sum(mag * mag))))
    # past |alpha| ~ 1.3e154 the policy overflows, and the message names no dim
    suggested = default_dim(alpha) if math.isfinite(r * r) else dim
    if suggested > dim:
        fix = f"enlarge dim={dim}; suggested minimum dim is {suggested}"
    else:
        fix = f"enlarge dim={dim} or raise tail_tol"
    _check_edge(tail, "coherent tail mass", fix, tol)
    phase = np.exp(1j * np.angle(complex(alpha)) * j)
    return FockVector(mag * phase).normalized()


def pure_density(psi: FockVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    v = psi.amps
    return DensityMatrix(np.outer(v, v.conj()))


def default_dim(alpha: complex, added_photons: int = 0) -> int:
    """Truncation sizing policy: Poisson bulk (mean + 10 sigma) plus the
    photon gain of the protocol plus margin.

    Sized so every truncation guard holds for coherent bases: the top
    ``added_photons`` amplitudes stay two orders of magnitude below the
    default tail_tol for |alpha| up to ~100 and up to 50 passes.
    """
    r = abs(alpha)
    return math.ceil(r * r + 10.0 * r + added_photons + 24)


# ---------------------------------------------------------------------------
# field operator (does not renormalize)


def apply_annihilation(psi: FockVector) -> FockVector:
    """Harmonic-oscillator annihilation a: out_j = sqrt(j+1) c_{j+1}."""
    out = np.zeros(psi.dim, dtype=complex)
    j = np.arange(psi.dim - 1)
    out[: psi.dim - 1] = np.sqrt(j + 1.0) * psi.amps[1:]
    return FockVector(out)


# ---------------------------------------------------------------------------
# metrics


def fock_distribution(state: FockVector | DensityMatrix) -> np.ndarray:
    """Fock-state probabilities p_j = |c_j|^2 (pure) or rho_jj (mixed)."""
    if isinstance(state, FockVector):
        return np.abs(state.amps) ** 2
    return np.real(np.diag(state.elems)).copy()


def _moments(p: np.ndarray, start: int = 0) -> tuple[float, float]:
    """First and second moments of the distribution ``p`` on the levels start, start + 1, ..."""
    j = np.arange(start, start + p.size, dtype=float)
    return float(np.sum(j * p)), float(np.sum(j * j * p))


def mean_photon(state: FockVector | DensityMatrix) -> float:
    """First moment sum_j j p_j of the Fock distribution."""
    return _moments(fock_distribution(state))[0]


def _unit_clamp(value) -> float:
    return float(min(1.0, max(0.0, value)))


def fidelity(rho: DensityMatrix, target: FockVector) -> float:
    """Overlap <target| rho |target>, clamped to [0, 1].

    For a pure rho = |psi><psi| this is |<target|psi>|^2.
    """
    if rho.dim != target.dim:
        raise DimensionMismatch(f"density matrix dim {rho.dim} != target dim {target.dim}")
    amps = target.amps
    return _unit_clamp(np.real(amps.conj() @ rho.elems @ amps))
