"""Two-photon Jaynes-Cummings dynamics on resonance.

Everything here is in the interaction picture of the resonant model
(field frequency = half the qubit splitting), where the interaction
g (a^2 sigma+ + a^dag^2 sigma-) exchanges photons in pairs with the
n-dependent rate Omega(n) = g sqrt((n+2)(n+1)). The propagator couples
each pair (|n, e>, |n+2, g>) as an independent 2x2 rotation and leaves
|0, g> and |1, g> dark. Only the product gt enters, so the propagators
take the angle gt and the Hamiltonian is in units of g.

The closed-form propagator is applied as index shifts and diagonal
scalings; :func:`evolve_oracle` re-derives the same evolution from a dense
Hermitian eigendecomposition of the Hamiltonian, :func:`hamiltonian_eig`,
made once per N and reused for every state and angle; it exists purely
to cross-check the closed form.

One protocol pass evolves for gt = pi and re-prepares the qubit, which
reduces to the exact field-only maps :func:`pass_add` / :func:`pass_subtract`.
:func:`run_protocol` picks the occupied Fock window [lo, N), scores pass k
against psi0 shifted by 2k over its norm, and reports distributions on the window
alone: m passes approximate the ideal 2m-photon ladder states of :mod:`tpjc.sg`.
The map keeps each band rho_{i,i+d} apart, so on the diagonal it is a closed chain.
:func:`_passes` reads the window in kernel order, top level first for ADD, where every pass
moves an entry two places toward index 0, and :func:`_pass_diagonals` builds C and S in it,
S zero on the first two entries, which drops what a pass pushes out of the window. It runs
the chain once, :func:`_photon_chain`, for the final distribution and the stay count F, then
one of two kernels, which compute F(k) only and own how rho is stored (float64 for coherent
inputs). :func:`_band_passes` runs the map on the bands d >= 0 of one matrix in the co-moving
frame y = i + 2k, where every target is psi0 itself, a move keeps y and a stay shifts it up by
2; it keeps only the A entries [lo, hi) of :func:`_band_range`, found once from psi0, at a
certified cost to F of at most 2 delta ||a||_1 + (k + 1) eps ||a||_1^2 <= WINDOW_MASS_TOL, so a
run costs m A^2 / 2 entry updates where the window would cost m W^2 / 2. :func:`_branch_passes`
runs the operator sum rho_k = sum x x^dag over the branches x = K_k .. K_1 v, K a stay C or a
move: far up the ladder c_n^2 ~ (pi / 8n)^2, so it keeps only the branches with at most F
stays. F is the smallest count whose dropped branches hold at most WINDOW_MASS_TOL of the
trace after every pass, read exactly from the chain split by stay count, and only up to
:func:`_stay_cap`, the largest F whose row updates cost less than the band kernel's and whose
rows held at once are no more than its block and scratch.
"""

from __future__ import annotations

import math
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
    fock_distribution,
)
from .sg import Mode, _mandel_q, _truncation_decision


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

    |n, g> pairs with |n-2, e>: cos[Omega(n-2) t] is cos[Omega(n) t] two levels up, 1 on |0, g>, |1, g>.
    Returns a fresh array. The excited component is raised by two, so its
    top two amplitudes must be negligible or they would leave the
    truncated space.
    """
    dim = _joint_dim(state)
    e, g = state[:dim], state[dim:]
    top = float(np.max(np.abs(e[max(0, dim - 2):])))
    _check_edge(top, "largest top-two excited amplitude", f"enlarge dim={dim}")
    theta = rabi_angle(np.arange(dim, dtype=float), gt)
    cos_w, sin_w = np.cos(theta), np.sin(theta)
    cos_g = np.concatenate([np.ones(2), cos_w])[:dim]  # cos[Omega(n-2) t]

    v2g = np.concatenate([g[2:], np.zeros(2)])[:dim]
    e_new = cos_w * e - 1j * sin_w * v2g
    raised = np.concatenate([np.zeros(2), sin_w * e])[:dim]  # V^dag^2 sin[Omega(n) t] e
    g_new = -1j * raised + cos_g * g
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


def hamiltonian_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of :func:`build_hamiltonian` (dim), by
    dense Hermitian eigendecomposition: the input of :func:`evolve_oracle`."""
    try:
        return np.linalg.eigh(build_hamiltonian(dim))
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationFailure(f"eigh failed on the {2 * dim}x{2 * dim} Hamiltonian") from exc


def evolve_oracle(state: np.ndarray, gt: float, eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """exp(-i H gt) on the 2N joint vector, H in units of g, from its
    eigendecomposition ``eig = hamiltonian_eig(N)``; returns a fresh array.

    Independent of the closed form; used to certify it. One decomposition
    serves every state and angle at its N.
    """
    dim = _joint_dim(state)
    evals, evecs = eig
    if evecs.shape != (2 * dim, 2 * dim):
        raise DimensionMismatch(
            f"the eigendecomposition is of a {evecs.shape[0]}x{evecs.shape[0]} Hamiltonian, "
            f"the state has 2N = {2 * dim} amplitudes"
        )
    return evecs @ (np.exp(-1j * evals * gt) * (evecs.conj().T @ state))


# ---------------------------------------------------------------------------
# exact density-matrix maps for one pass at gt = pi


def _kernel_order(mode: Mode) -> slice:
    """A window's levels in kernel order, top level first for ADD: every pass moves an entry toward 0."""
    return slice(None, None, -1 if mode is Mode.ADD else 1)


def _pass_diagonals(lo: int, dim: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """C, S at gt = pi (g cancels) on the levels n = lo .. dim-1 in kernel order: angle
    Omega(n) t for ADD, Omega(n-2) t for SUBTRACT. S is zero on the first two entries, whose
    move leaves the window, so every map built on it drops what a pass pushes out of [lo, dim)."""
    theta = rabi_angle(np.arange(lo, dim)[_kernel_order(mode)] - (0 if mode is Mode.ADD else 2), np.pi)
    s = np.sin(theta)
    s[:2] = 0.0
    return np.cos(theta), s


def _full_pass(rho: DensityMatrix, mode: Mode) -> DensityMatrix:
    c, s = (a[_kernel_order(mode)] for a in _pass_diagonals(0, rho.dim, mode))  # in level order
    r = rho.elems
    out = c[:, None] * r * c
    moved = s[:, None] * r * s
    up, down = slice(2, None), slice(None, -2)
    to, fro = (up, down) if mode is Mode.ADD else (down, up)
    out[to, to] += moved[fro, fro]
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


# Bands the kernel carries through all m passes at a time: a block and its
# scratch stay in cache. On a 2-vCPU host 16 ran 10-30% slower than 32, and
# 64 up to 15% faster for up to 1.5x the peak memory.
BAND_BLOCK = 32


def _band_range(amps, m: int) -> tuple[int, int]:
    """The entries [lo, hi) of ``amps`` that :func:`_band_passes` keeps: the narrowest range
    whose certificate 2 delta ||a||_1 + (m + 1) eps ||a||_1^2 is at most WINDOW_MASS_TOL, with
    delta the sum of |a| below lo, where entries enter, and eps the largest |a| from hi up,
    where they leave."""
    mag = np.abs(amps[::-1])  # exit end first, entry end last
    l1 = mag.sum()
    # [t]: the exit end's term of a cut t entries below the top, [b]: the entry end's of one b below it
    exit_cost = (m + 1) * l1 * l1 * np.concatenate([[0.0], np.maximum.accumulate(mag)])
    entry_cost = 2 * l1 * np.concatenate([np.cumsum(mag[::-1])[::-1], [0.0]])
    fits = exit_cost <= WINDOW_MASS_TOL  # a prefix: eps only grows with t
    bottoms = np.searchsorted(-entry_cost, exit_cost[fits] - WINDOW_MASS_TOL)  # the first b that fits each t
    top = int(np.argmin(bottoms - np.arange(bottoms.size)))
    return mag.size - max(top, int(bottoms[top])), mag.size - top


def _band_passes(amps, m: int, c, s) -> np.ndarray:
    """F(0..m) of m passes from rho = |a><a| on a Fock window in kernel order, a = ``amps``, whose
    C and S are ``c`` and ``s``. rho is held as its bands b_d(y) = rho_{y,y+d}, d >= 0 (a pass
    keeps the difference), BAND_BLOCK at a time, each entry rounded as :func:`_full_pass` rounds
    it: float64 R, rho_ij = e^{i(psi_i - psi_j)} R_ij, when ``amps`` is |v| (:func:`_passes`
    hands |v| where v's phases pass ``_has_phase_ramp``), else complex.

    The bands live in the co-moving frame y = i + 2k of entry i after pass k, where pass k's
    target is ``amps`` at y itself: the k-step ladder state but for its norm and its phases
    i^k (-1)^(jk), (-1)^(dk) on band d. A move keeps y, and a stay shifts it up by 2, so C and S
    are read at the source entry i through views offset by 2(k - 1) a pass. Only y in [lo, hi)
    of :func:`_band_range`, found once from ``amps``, is kept, A = hi - lo entries: bands d >= A
    drop out, the blocks are B x A, and a run costs m A^2 / 2 entry updates. Entries enter
    [lo, hi) only past lo, where the cut drops delta = sum |a_y| of the base, and leave it only
    by a stay past hi, where every later target reads |a_y| <= eps, and are dropped there. The
    map's weights |c_u c_v| + |s_u s_v| <= 1, so it does not grow sum |rho_uv|, which starts at
    ||a||_1^2; each entry dropped on leaving is scored at most eps on every later pass. So for
    unit ``amps`` |F~(k) - F(k)| <= 2 delta ||a||_1 + (k + 1) eps ||a||_1^2 against the map on
    the whole window, at most WINDOW_MASS_TOL, times 1 / (1 - S_k) on a SUBTRACT F. S drops what
    leaves the window, and C and S read zero past it.
    """
    lo, hi = _band_range(amps, m)
    width = hi - lo
    base = np.concatenate([amps[lo:hi], np.zeros(BAND_BLOCK - 1)])  # base[y - lo] is a_y, zero past hi
    # c, s on the entries pass 1 .. m reads, from its lowest: y - 2(k - 1)
    first, stop = lo - 2 * max(m - 1, 0), hi + BAND_BLOCK - 1
    pads = np.zeros(max(-first, 0)), np.zeros(max(stop - c.size, 0))  # zeros off the window
    c, s = (np.concatenate([pads[0], a[max(first, 0) : stop], pads[1]]) for a in (c, s))
    # row q of a view is its vector from q on; block d0 reads columns d0:
    c_v, s_v, targets = (np.lib.stride_tricks.sliding_window_view(a, width) for a in (c, s, base))
    scores = np.zeros((m + 1, -(-width // BAND_BLOCK)))  # F(k)'s share from each block
    buffers = np.empty((2, BAND_BLOCK * width), dtype=base.dtype)
    for j, d0 in enumerate(reversed(range(0, width, BAND_BLOCK))):  # this order fixes F's sums and the pins
        n = width - d0  # row r of a block is band d0 + r on y < lo + n, and target row r is a_{y+d0+r}
        c_d, s_d, t_d, t_0 = c_v[:, d0:], s_v[:, d0:], targets[:, d0:], base[:n].conj()
        # pass k takes rho from block (k - 1) % 2 to the other: its moves, and its stays shifted
        # by two on the flat form. A stay that leaves [lo, hi) goes past its band's end, where no
        # target reads it, up to the row's last two. Those two entries per row are zeroed first,
        # so no row takes the next's
        flat = list(buffers[:, : BAND_BLOCK * n])
        blocks = [a.reshape(BAND_BLOCK, n) for a in flat]
        plans = [
            (x, moved, x[:-1, -2:], to[2:], fro[:-2])
            for x, moved, fro, to in zip(blocks, blocks[::-1], flat, flat[::-1])
        ]
        rho, spare = blocks
        np.multiply(np.conj(t_d, out=rho), base[:n], out=rho)
        weight = np.where(d0 + np.arange(BAND_BLOCK), 2.0, 1.0)  # band -d is conj(band d); band 0 counts once
        odd = weight * (-1.0) ** (d0 + np.arange(BAND_BLOCK))  # odd k's (-1)^(dk)
        for k in range(m + 1):
            if k:
                x, moved, edge, to, fro = plans[(k - 1) % 2]
                q = 2 * (m - k)  # y's entry before pass k is entry q + y - lo of c, s
                np.multiply(x, s[q : q + n], out=moved)
                moved *= s_d[q : q + BAND_BLOCK]
                x *= c[q : q + n]
                x *= c_d[q : q + BAND_BLOCK]
                edge.fill(0.0)
                to += fro
                rho, spare = moved, x
            np.multiply(rho, t_d, out=spare)
            scores[k, j] = (odd if k % 2 else weight) @ (spare @ t_0).real
    return scores.sum(axis=1)


def _branch_passes(amps, m: int, c, s, stays: int) -> np.ndarray:
    """What :func:`_band_passes` returns, from the branches x = K_k .. K_1 a with at
    most ``stays`` stays K = C; every other K is a move S, two entries toward 0.
    rho_k = sum x x^dag, so F(k) sums |<t_k|x>|^2 over the k-pass branches. Each
    branch is one row over the window, of |v| on the real path (a pass keeps the
    phase ramp, so each target overlap's phase is one constant). A row with a moves
    keeps entry i at i - 2a, so a move or a stay multiplies it in place by a
    shifted view of S or C. Branches run depth-first over their first stay and,
    below it, pass by pass, in one buffer per stay count f of C(m-1, f-1) rows.
    S is zero where a move would leave the window, so no row holds an entry past it.
    """
    width = amps.size
    pad = np.zeros(2 * m)  # moves read C and S up to 2m below the window, scores the base up to 2m above it
    c, s, base = np.concatenate([pad, c]), np.concatenate([pad, s]), np.concatenate([amps, pad])
    # t_k on entry j is i^k (-1)^(jk) a_{j+2k} but for a sign, and both drop out of |<t_k|x>|^2
    targets = (base.conj(), (base * (-1.0) ** np.arange(base.size)).conj())

    def frame(a):  # the entries of c, s under a row with a moves: entry j of the window is 2m + j
        return slice(2 * (m - a), 2 * (m - a) + width)

    def score(rows, k, f):  # rows with f stays after pass k: t_k on entry j reads base at j + 2f
        overlaps = rows @ targets[k % 2][2 * f : 2 * f + width]
        scores[k] += np.vdot(overlaps, overlaps).real

    scores = np.zeros(m + 1)
    bufs = [np.empty((math.comb(m - 1, f), width), dtype=amps.dtype) for f in range(stays)]
    moves = amps.copy()[None]  # the branch with no stay
    score(moves, 0, 0)
    for first in range(1, m + 1):  # the branches whose first stay is pass `first`
        if stays:
            counts = [1] + [0] * (stays - 1)
            np.multiply(moves, c[frame(first - 1)], out=bufs[0][:1])
            score(bufs[0][:1], first, 1)
            for k in range(first + 1, m + 1):
                for f in range(min(stays, k - first + 1), 0, -1):  # so f - 1's rows are read unmoved
                    buf, n = bufs[f - 1], counts[f - 1]
                    if n:  # none where f stays are first reached
                        buf[:n] *= s[frame(k - f - 1)]
                    if f > 1:
                        counts[f - 1] = n + counts[f - 2]
                        np.multiply(bufs[f - 2][: counts[f - 2]], c[frame(k - f)], out=buf[n : counts[f - 1]])
                    score(buf[: counts[f - 1]], k, f)
        moves *= s[frame(first - 1)]
        score(moves, first, 0)
    return scores


# ---------------------------------------------------------------------------
# iterated protocol

# Levels below the first index where the initial state's cumulative mass
# exceeds this are left out of the simulated window. Dropping that much
# mass moves fidelities, means and Q by less than double-precision rounding.
# S drops what a pass pushes out of the window (_pass_diagonals), and no pass
# checks how much: the diagonal moves two levels a pass, so before pass k <= m a
# SUBTRACT window's bottom two hold at most this (mass from below that index) if
# lo > 0 and are dark at lo = 0; sg._ladder_guard bounds an ADD window's top two.
WINDOW_MASS_TOL = 1e-20


def first_level_bound(alpha: complex) -> int:
    """At or below the first level where |alpha>'s cumulative mass exceeds
    WINDOW_MASS_TOL, by the Poisson tail P(n <= |alpha|^2 - t) <= exp(-t^2 / 2|alpha|^2)."""
    r = abs(alpha)
    return math.floor(r * r - math.sqrt(-2.0 * math.log(WINDOW_MASS_TOL)) * r)


def window_start(first: int, m: int, mode: Mode) -> int:
    """lo of an m-pass run's window [lo, N) from its first level with mass."""
    return max(0, first - (2 * m if mode is Mode.SUBTRACT else 0))  # SUBTRACT moves mass down


def _stay_cap(m: int, width: int) -> int | None:
    """The largest stay count F :func:`_branch_passes` may run for m passes on a window of
    ``width`` levels, or None where F = 0 already fails. The branches with at most F stays
    update m + sum_{f=1..F} C(m+1, f+1) rows of W, the band kernel at most m (W+1)/2 per level
    (m (A+1)/2 on its range of A <= W levels, which the rule does not compute); they
    hold 1 + sum_{f<F} C(m-1, f) rows of W at once, the band kernel its block and scratch,
    2 BAND_BLOCK rows. F grows only while the branches cost less and hold no more, so every
    count read as a float stays below that cost. F = m keeps every history.
    """
    band = m * (width + 1) / 2
    rows, held, cap = m, 1, None  # the branch with no stay
    for stays in range(m + 1):
        if rows >= band or held > 2 * BAND_BLOCK:
            break
        cap = stays
        rows += math.comb(m + 1, stays + 2)  # the branches with stays + 1 stays, over all passes
        held += math.comb(m - 1, stays)  # the buffer of the branches with stays + 1 stays
    return cap


def _photon_chain(p, m: int, c, s) -> tuple[np.ndarray, int | None]:
    """The diagonal after m passes from diagonal ``p`` on a window with C, S = ``c``, ``s``, and
    the stay count F of :func:`_branch_passes`, or None where the band kernel runs. A pass keeps
    each band apart, so the diagonal is a closed chain, p'_i = c_i^2 p_i + s_{i+2}^2 p_{i+2}
    (the micromaser photon-number rate equation), in O(m W). Split by stay count it certifies F:
    with T_f(n) the diagonal of the histories with more than f stays and T_{-1} the whole one, a
    stay moves c_n^2 T_{f-1}(n) into T_f and a move keeps f, T'_f(n) = c_n^2 T_{f-1}(n) +
    s_{n+2}^2 T_f(n+2). Rows T_{-1} .. T_cap, cap = :func:`_stay_cap`, are one array updated
    in place beside one scratch of its size, each entry rounded as :func:`_full_pass` rounds
    rho_ii; S drops what leaves the window. F is the smallest f whose T_f holds at most
    WINDOW_MASS_TOL of the trace after every pass: those histories sum to a positive semidefinite
    sum x x^dag of that trace, so no F and no level moves by more. At the first pass where T_cap
    holds more, or where the cap is None, only row T_{-1} is kept, and F is None."""
    width = p.size
    cap = _stay_cap(m, width)
    # rows T_{-1} .. T_cap and their moves, or T_{-1} alone as one 1-d row, which updates in half the time
    rows, moved = np.zeros((2, width) if cap is None else (2, cap + 2, width))
    flat, flat_moved = rows.reshape(-1), moved.reshape(-1)
    flat[:width] = p
    worst = np.zeros(0 if cap is None else cap + 1)  # each T_f's largest trace so far
    for _ in range(m):
        np.multiply(rows, s, out=moved)
        moved *= s
        rows *= c
        rows *= c
        flat[width:] = flat[:-width]  # a stay adds one: T_f takes T_{f-1}'s stays, T_{-1} keeps its own
        # S is zero on each row's first two entries, so a row's last two take +0.0 from the next
        flat[:-2] += flat_moved[2:]
        if rows.ndim > 1:
            np.maximum(worst, rows[1:].sum(axis=1), out=worst)
            if worst[-1] > WINDOW_MASS_TOL:
                rows, moved = flat, flat_moved = rows[0], moved[0]
    stays = None if rows.ndim == 1 else int(np.argmax(worst <= WINDOW_MASS_TOL))
    return flat[:width].copy(), stays  # row T_{-1}, apart from the rows, so the kernel runs without them


def _passes(v, p, lo: int, m: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """F(0..m) and the final diagonal on the window [lo, N) of m passes from |v><v|, whose
    diagonal on the window is ``p``; every map runs on the window in kernel order. The chain
    gives the diagonal and the stay count; F is scored on the window's |v| where it has a phase
    ramp, by :func:`_branch_passes` where that count is certified, else by :func:`_band_passes`."""
    order = _kernel_order(mode)
    c, s = _pass_diagonals(lo, lo + p.size, mode)
    amps = (np.abs(v[lo:]) if _has_phase_ramp(v[lo:]) else v[lo:])[order]
    final, stays = _photon_chain(p[order], m, c, s)
    scores = _band_passes(amps, m, c, s) if stays is None else _branch_passes(amps, m, c, s, stays)
    return scores, final[order]


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
    """Everything an experiment run records about one protocol execution. The two
    distributions list the run's Fock window j = lo .. N-1, where psi0 held all but
    WINDOW_MASS_TOL of its mass and the passes ran; the means and Q are theirs."""

    fidelity_series: list[tuple[int, float]]
    initial_dist: list[tuple[int, float]]
    final_dist: list[tuple[int, float]]
    mean_photon_initial: float
    mean_photon_final: float
    mandel_q_final: float | None  # None when the final mean photon number is 0
    mandel_q_predicted: float | None
    warnings: list[str]


def _dist_pairs(p: np.ndarray, lo: int) -> list[tuple[int, float]]:
    return list(enumerate(p.tolist(), lo))


def run_protocol(psi0: FockVector, m: int, mode: Mode) -> ProtocolResult:
    """Iterate m passes from rho_0 = |psi0><psi0|, tracking fidelity.

    After pass k the fidelity F(k) = <target_k| rho_k |target_k> is recorded
    against the ideal ladder state with k steps from psi0, psi0 shifted by 2k
    levels over its norm (:mod:`tpjc.sg`); F(0) = 1. :func:`_passes` runs
    the passes on the Fock window [lo, N) of :func:`window_start`, from the
    first index where psi0's cumulative mass exceeds ``WINDOW_MASS_TOL``, and
    the result's distributions list that window. The
    run builds no ladder state: the m-step one's guards, checked on psi0 before
    any pass, are its one truncation decision. At a final mean photon number
    of 0 Mandel Q is undefined: ``mandel_q_final`` is None and a warning says so.
    """
    low = _truncation_decision(psi0, m, mode)  # S_0 .. S_m, before any pass
    warnings: list[str] = []
    if low[-1] > LOW_MASS_TOL:
        warnings.append(
            f"protocol: initial state has low-component mass {low[-1]:.6e}; "
            "subtraction targets use the renormalized form"
        )

    p0 = fock_distribution(psi0)
    lo = window_start(int(np.argmax(np.cumsum(p0) > WINDOW_MASS_TOL)), m, mode)
    initial = p0[lo:]
    scores, final = _passes(psi0.amps, initial, lo, m, mode)
    r = 1.0 / np.sqrt(1.0 - low)  # the k-step target is the shift over sqrt(1 - S_k)
    series = [(k, _unit_clamp(f)) for k, f in enumerate(scores * r * r)]
    try:
        q_final = _mandel_q(final, lo)
    except ZeroMeanPhoton:
        q_final = None
        warnings.append("protocol: final mean photon number is 0; Mandel Q is undefined")
    return ProtocolResult(
        fidelity_series=series,
        initial_dist=_dist_pairs(initial, lo),
        final_dist=_dist_pairs(final, lo),
        mean_photon_initial=_moments(initial, lo)[0],
        mean_photon_final=_moments(final, lo)[0],
        mandel_q_final=q_final,
        mandel_q_predicted=None,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# linearized Rabi-frequency approximation quality


def approx_error(j, branch: Mode):
    """Relative error |n + 3/2 - Omega(n)/g| / (Omega(n)/g) of the linearized Rabi root.

    n = j on the ADD branch and n = j - 2 on SUBTRACT: the ground-state pair of
    |j, g> is the excited pair two levels down, sqrt(j(j-1)) vs j - 1/2 (needs
    j >= 2). ``j`` is an int, giving a float, or an int array, giving an array.
    Decreases like 1/(8 j^2) for large j.
    """
    j = np.asarray(j)
    if np.any(j < 0):
        raise ValueError("j must be >= 0")
    n = j - (0 if branch is Mode.ADD else 2)
    if np.any(n < 0):
        raise ValueError("subtract branch needs j >= 2 for a nonzero reference")
    exact = rabi_angle(n, 1.0)
    err = abs(n + 1.5 - exact) / exact
    return float(err) if err.ndim == 0 else err
