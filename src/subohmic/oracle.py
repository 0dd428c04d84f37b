r"""Exact-diagonalization ground truth on small discretized baths.

The discretized model lives on ``spin (x) Fock^L`` with ``n_boson`` levels
per mode, ordered spin-slowest / last-mode-fastest.  The exact Krylov ground
state provides two checks of the displaced-oscillator ansatz evaluated on
the same finite model: the variational bound on the energy and the overlap
(fidelity) with the ansatz expanded in the truncated Fock basis.  The
fidelity's collapse with system size at fixed truncation, driven by the
diverging low-frequency occupations of the magnetized state, is the
desk-scale analogue of what large-scale tensor-network studies observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import hessenberg
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConvergenceError, DomainError, SizeError
from .model import DiscretizedBath, ModelParams, bath_as_measures, discretize_bath
from .variational import Functional, VariationalState

_DIMENSION_CAP = 2_000_000
_DENSE_CUTOFF = 64
_KRYLOV_VECTORS = 12  # Lanczos vectors ARPACK keeps; ground_state says why so few
_MAX_ITER = 10_000
_ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class OracleConfig:
    """Size and basis of the exact-diagonalization run."""

    n_modes: int
    n_boson: int
    which_basis: str = "star"

    def __post_init__(self):
        if self.n_modes < 1:
            raise DomainError("OracleConfig: need n_modes >= 1")
        if self.n_boson < 2:
            raise DomainError("OracleConfig: need n_boson >= 2")
        if self.which_basis not in ("star", "chain"):
            raise DomainError(f"OracleConfig: unknown basis {self.which_basis!r}")
        if self.dimension > _DIMENSION_CAP:
            raise SizeError(
                f"OracleConfig: dimension {self.dimension} exceeds cap {_DIMENSION_CAP}")

    @property
    def dimension(self) -> int:
        return 2 * self.n_boson**self.n_modes


@dataclass(frozen=True)
class OracleResult:
    """Exact vs variational energies and their overlap on one discrete model."""

    energy_exact: float
    energy_ado_discrete: float
    fidelity: float
    truncation_loss: float
    converged_nb: bool


class FidelityResult(NamedTuple):
    fidelity: float
    truncation_loss: float


def _modes(bath: DiscretizedBath,
           which_basis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # (mode energies, hoppings, spin couplings, transform[n, l] from star
    # mode l to mode n).  The chain is the Householder tridiagonalization of
    # the arrowhead [[0, g^T], [g, diag(w)]]: the reflections leave row 0
    # alone, so |g| couples to site 0 only, and a zero g reflects nothing,
    # which is the star form.  Column signs make every hop >= 0
    w, g = bath.frequencies, bath.couplings
    if which_basis == "star":
        return w, np.zeros(bath.n_modes - 1), g, np.eye(bath.n_modes)
    arrow = np.diag(np.concatenate(([0.0], w)))
    arrow[0, 1:] = arrow[1:, 0] = g
    h, q = hessenberg(arrow, calc_q=True)
    sub = np.diag(h, -1)
    sign = np.cumprod(np.where(sub < 0.0, -1.0, 1.0))
    coupling = np.zeros(bath.n_modes)
    coupling[0] = abs(sub[0])
    return np.diag(h)[1:], np.abs(sub[1:]), coupling, sign[:, None] * q[1:, 1:].T


def build_hamiltonian(bath: DiscretizedBath, p: ModelParams, cfg: OracleConfig) -> sp.csr_matrix:
    """Sparse Hamiltonian of the discretized model, filled straight into CSR.

    ``H = -(delta/2) sx + (sz/2) sum_l g_l (a_l + a_l^+) + sum_l w_l n_l``
    on the product basis with spin slowest and the last mode fastest.  In
    the chain basis the same modes are tridiagonalized first (unitarily
    equivalent spectrum): site 0 alone couples to the spin and neighbours
    hop, ``t_l (a_l^+ a_{l+1} + h.c.)``.  The star basis is the chain form
    with zero hopping.

    Every term moves a row's column by a fixed offset: ``x_l`` by
    ``+-nb^(L-1-l)``, the hop ``t_l`` by ``+-(nb^(L-1-l) - nb^(L-2-l))`` and
    the spin flip by ``+-nb^L``.  Taking the terms in ascending offset
    order, one pass counts each row's entries into ``indptr`` and a second
    writes ``indices`` (int32) and ``data`` with every row's columns
    ascending.  Exact zeros (the vacuum diagonal) are not stored.  The
    scratch is a few arrays of length ``dim``: the build's peak memory is
    about 1.3-1.4 times the bytes of the matrix it returns.
    """
    if bath.n_modes != cfg.n_modes:
        raise DomainError("build_hamiltonian: bath size disagrees with config")
    nb = cfg.n_boson
    L = cfg.n_modes

    freqs, hop, site_coupling, _ = _modes(bath, cfg.which_basis)

    dim_b = nb**L
    stride = [nb ** (L - 1 - l) for l in range(L)]
    index = np.arange(dim_b, dtype=np.int32)
    occ = [index // k % nb for k in stride]
    sqrt_n = np.sqrt(np.arange(nb, dtype=float))
    top = nb - 1
    diag = np.zeros(dim_b)
    for l in range(L):
        diag += freqs[l] * occ[l]

    def terms():
        # (column offset, rows, values, odd in sz) of one spin block's
        # entries, offsets ascending; each row meets a column only once
        def coupling(l, step):
            n = occ[l]
            rows = np.flatnonzero(n > 0 if step < 0 else n < top)
            return (step * stride[l], rows,
                    0.5 * (site_coupling[l] * sqrt_n[n[rows] + (step > 0)]), True)

        def hopping(l, step):
            n, m = occ[l], occ[l + 1]
            if step < 0:  # a_l^+ a_{l+1}
                rows = np.flatnonzero((n > 0) & (m < top))
                amp = sqrt_n[n[rows]] * sqrt_n[m[rows] + 1]
            else:
                rows = np.flatnonzero((n < top) & (m > 0))
                amp = sqrt_n[n[rows] + 1] * sqrt_n[m[rows]]
            return step * (stride[l] - stride[l + 1]), rows, hop[l] * amp, False

        for l in range(L):
            if site_coupling[l] != 0.0:
                yield coupling(l, -1)
            if l < L - 1 and hop[l] != 0.0:
                yield hopping(l, -1)
        yield 0, np.flatnonzero(diag), diag[diag != 0.0], False
        for l in reversed(range(L)):
            if l < L - 1 and hop[l] != 0.0:
                yield hopping(l, 1)
            if site_coupling[l] != 0.0:
                yield coupling(l, 1)

    # a spin-up row is its block's entries, then the flip at +nb^L; the
    # spin-down row of the same bath state is the flip at -nb^L, then the
    # same entries with the coupling's sign reversed
    counts = np.ones(dim_b, dtype=np.int32)
    for _, rows, _, _ in terms():
        counts[rows] += 1
    indptr = np.zeros(2 * dim_b + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:dim_b + 1])
    half = int(indptr[dim_b])
    indptr[dim_b + 1:] = indptr[1:dim_b + 1] + half
    indices = np.empty(2 * half, dtype=np.int32)
    data = np.empty(2 * half)
    head = indptr[:dim_b].copy()
    for offset, rows, values, odd in terms():
        at = head[rows]
        indices[at] = rows + offset
        data[at] = values
        at += half + 1
        indices[at] = rows + (offset + dim_b)
        data[at] = -values if odd else values
        head[rows] += 1
    flip = -0.5 * p.delta
    indices[head] = index + dim_b
    data[head] = flip
    indices[indptr[dim_b:-1]] = index
    data[indptr[dim_b:-1]] = flip
    return sp.csr_matrix((data, indices, indptr), shape=(2 * dim_b, 2 * dim_b))


class _CountingOperator(LinearOperator):
    """Wraps a sparse matrix and counts matrix-vector applications."""

    def __init__(self, h: sp.csr_matrix):
        super().__init__(dtype=float, shape=h.shape)
        self._h = h
        self.matvecs = 0

    def _matvec(self, v):
        self.matvecs += 1
        return self._h @ v


def _max_abs_row_sum(h: sp.csr_matrix) -> float:
    """``max_i sum_j |h_ij|``, summed over blocks of rows so that no copy
    of ``h`` or of its data is made."""
    best = 0.0
    for lo in range(0, h.shape[0], _ROW_BLOCK):
        ptr = h.indptr[lo:lo + _ROW_BLOCK + 1]
        starts = ptr[:-1][ptr[:-1] < ptr[1:]]  # empty rows would repeat a start
        if starts.size:
            sums = np.add.reduceat(np.abs(h.data[ptr[0]:ptr[-1]]), starts - ptr[0])
            best = max(best, float(sums.max()))
    return best


def ground_state(h: sp.spmatrix, count_matvecs: bool = False):
    """Lowest eigenpair by a Krylov method with a fixed all-ones start.

    Deterministic; the residual ``|H v - E v|`` is verified against
    ``1e-10`` times an infinity-norm scale of ``H``.  Dimensions up to 64
    are handled densely.  Returns ``(energy, vector)`` with the vector's
    largest-magnitude component made positive, plus the matvec count when
    requested.

    The restarted Lanczos keeps ``_KRYLOV_VECTORS = 12`` vectors of ``dim``
    floats.  Each step reorthogonalizes against all kept vectors, and at
    these sparsities that, not the matvec, sets the cost: a smaller subspace
    takes more matvecs (1.3-1.7x those of 36 vectors) but less time,
    and a third of the memory.  12 is the smallest size with which no 4x8
    or 5x8 oracle run was slower than with 36.
    """
    h = h.tocsr()
    dim = h.shape[0]
    scale = max(1.0, _max_abs_row_sum(h))
    if dim <= _DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(h.toarray())
        energy, vec = float(vals[0]), vecs[:, 0]
        matvecs = 0
    else:
        v0 = np.ones(dim) / math.sqrt(dim)
        op = _CountingOperator(h) if count_matvecs else h
        try:
            vals, vecs = eigsh(op, k=1, which="SA", v0=v0, maxiter=_MAX_ITER,
                               ncv=min(dim - 1, _KRYLOV_VECTORS), tol=0)
        except Exception as exc:
            raise ConvergenceError(f"ground_state: Krylov solve failed: {exc}") from exc
        energy, vec = float(vals[0]), vecs[:, 0]
        matvecs = op.matvecs if count_matvecs else 0
    resid = float(np.linalg.norm(h @ vec - energy * vec))
    if resid > 1e-10 * scale:
        raise ConvergenceError(
            f"ground_state: residual {resid:.2e} above 1e-10 * {scale:.2e}")
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0.0:
        vec = -vec
    if count_matvecs:
        return energy, vec, matvecs
    return energy, vec


def ado_on_discrete(bath: DiscretizedBath, p: ModelParams) -> tuple[float, VariationalState]:
    """Variational minimization with sums over the discrete modes.

    Same kernels as the continuum solver, with the mode list acting as the
    spectral measure.  Unless the minimum lies strictly below the fully
    displaced configuration's energy, the complete localized state is
    returned so the state stays consistent with the reported energy.
    """
    if np.all(bath.couplings == 0.0):
        return -0.5 * p.delta, VariationalState.build(0.0, p.delta)
    fn = Functional.measures(p.delta, *bath_as_measures(bath))
    m, energy, dt = fn.minimize()
    if energy < fn.static:  # so dt > 0 and |m| < 1: energy(m) is static otherwise
        return energy, VariationalState.build(m, dt)
    return fn.static, VariationalState.build(1.0, 0.0)


def discrete_critical_coupling(s: float, delta: float, omega_c: float,
                               n_modes: int) -> float:
    """Coupling where the discrete model's variational minimizer magnetizes.

    Few-mode baths localize through a first-order-like jump of the
    minimizer rather than a sign change of the quadratic Landau
    coefficient, so the onset of ``m > 1e-6`` is bisected directly
    (for the continuum both definitions coincide).  Relative tolerance
    ``1e-3`` in the coupling.
    """
    def magnetized(alpha: float) -> bool:
        p = ModelParams(s=s, alpha=alpha, delta=delta, omega_c=omega_c)
        bath = discretize_bath(p, n_modes)
        _, state = ado_on_discrete(bath, p)
        return state.m > 1e-6

    lo = 1e-3
    while magnetized(lo):
        lo /= 4.0
        if lo < 1e-9:
            raise ConvergenceError("discrete_critical_coupling: no delocalized side")
    hi = lo
    for _ in range(60):
        hi *= 1.3
        if magnetized(hi):
            break
        lo = hi
    else:
        raise ConvergenceError("discrete_critical_coupling: no transition in range")
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if magnetized(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _coherent_vector(f: float, nb: int) -> np.ndarray:
    """Truncated coherent-state amplitudes ``e^{-f^2/2} f^k / sqrt(k!)``."""
    if f == 0.0:
        vec = np.zeros(nb)
        vec[0] = 1.0
        return vec
    k = np.arange(nb)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, nb)))))
    sign = np.sign(f) ** k
    log_amp = -0.5 * f * f + k * math.log(abs(f)) - 0.5 * log_fact
    return sign * np.exp(log_amp)


def ado_vector(state: VariationalState, bath: DiscretizedBath,
               cfg: OracleConfig) -> tuple[np.ndarray, float]:
    """ADO state expanded in the truncated product basis.

    Returns the (unnormalized) vector and the norm lost to truncation; the
    loss feeds the fidelity directly since the overlap is taken without
    re-normalizing.
    """
    nb = cfg.n_boson
    fp_per_g, fm_per_g = state.f_pm(bath.frequencies)
    basis = _modes(bath, cfg.which_basis)[3]
    f_plus = basis @ (bath.couplings * np.asarray(fp_per_g))
    f_minus = basis @ (bath.couplings * np.asarray(fm_per_g))

    def branch(fs: np.ndarray) -> np.ndarray:
        vec = np.array([1.0])
        for f in fs:
            vec = np.kron(vec, _coherent_vector(float(f), nb))
        return vec

    psi_plus = branch(f_plus)
    psi_minus = branch(f_minus)
    vec = np.concatenate([state.c_plus * psi_plus, state.c_minus * psi_minus])
    norm_sq = float(vec @ vec)
    return vec, max(0.0, 1.0 - norm_sq)


def fidelity(ado: VariationalState, bath: DiscretizedBath,
             exact_vector: np.ndarray, cfg: OracleConfig) -> FidelityResult:
    """Overlap magnitude of the truncated ADO expansion with the exact state.

    The ADO vector is *not* re-normalized after truncation, so norm lost to
    the Fock cutoff suppresses the fidelity.
    """
    vec, loss = ado_vector(ado, bath, cfg)
    if exact_vector.shape != vec.shape:
        raise DomainError("fidelity: basis mismatch between state and vector")
    f = float(abs(np.dot(vec, exact_vector)))
    return FidelityResult(f, loss)


def run_oracle(p: ModelParams, cfg: OracleConfig) -> OracleResult:
    """End-to-end oracle run: discretize, diagonalize, compare to the ansatz.
    ``converged_nb``: two more Fock levels move the energy <= 1e-6 relative.
    Both bases are checked against the dimension cap before any work."""
    try:
        cfg_up = OracleConfig(cfg.n_modes, cfg.n_boson + 2, cfg.which_basis)
    except SizeError as exc:
        raise SizeError(f"run_oracle: basis of the convergence re-solve at n_boson = "
                        f"{cfg.n_boson + 2}: {exc}") from None
    bath = discretize_bath(p, cfg.n_modes)
    e_exact, vec = ground_state(build_hamiltonian(bath, p, cfg))
    e_ado, state = ado_on_discrete(bath, p)
    fid = fidelity(state, bath, vec, cfg)
    e_up, _ = ground_state(build_hamiltonian(bath, p, cfg_up))
    converged = abs(e_up - e_exact) <= 1e-6 * max(1.0, abs(e_exact))
    return OracleResult(
        energy_exact=e_exact,
        energy_ado_discrete=e_ado,
        fidelity=fid.fidelity,
        truncation_loss=fid.truncation_loss,
        converged_nb=converged,
    )
