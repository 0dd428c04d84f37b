import builtins
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from subohmic import oracle
from subohmic.errors import ConvergenceError, DomainError, SizeError
from subohmic.critical import critical_coupling_numeric
from subohmic.model import ModelParams, bath_as_measures, discretize_bath
from subohmic.oracle import (
    OracleConfig,
    _modes,
    ado_on_discrete,
    ado_vector,
    build_hamiltonian,
    discrete_critical_coupling,
    fidelity,
    ground_state,
    run_oracle,
)
from subohmic.variational import Functional, minimize_energy

S, DELTA, WC = 0.3, 1.0, 10.0
ALPHA_C_NUM = 0.032649799936969884


def discrete_state_energy(m, f_plus, f_minus, bath, delta):
    """Energy of any ADO configuration on a discrete bath, not only the
    optimal one: for variational-bound and stationarity checks."""
    w, g = bath.frequencies, bath.couplings
    q = math.sqrt(max(0.0, 1.0 - m * m))
    overlap = math.exp(-0.5 * float(np.sum((f_plus - f_minus) ** 2)))
    e_plus = float(np.sum(w * f_plus**2 + g * f_plus))
    e_minus = float(np.sum(w * f_minus**2 - g * f_minus))
    return (-0.5 * delta * q * overlap
            + 0.5 * (1.0 + m) * e_plus + 0.5 * (1.0 - m) * e_minus)


def params(alpha, s=S, delta=DELTA):
    return ModelParams(s=s, alpha=alpha, delta=delta, omega_c=WC)


def dense_hamiltonian(bath, delta, nb, basis):
    """``H`` from dense krons, spin slowest and the last mode fastest: the
    modes ``b_l = sum_k basis[l, k] a_k`` (identity for the star basis) give
    the bath term ``sum_lk T_lk b_l^+ b_k`` with ``T = basis diag(w)
    basis^T`` and the coupling ``(sz/2) sum_l (basis g)_l (b_l + b_l^+)``."""
    L = bath.n_modes
    t = basis @ np.diag(bath.frequencies) @ basis.T
    c = basis @ bath.couplings
    a = np.diag(np.sqrt(np.arange(1.0, nb)), 1)

    def on_mode(l):
        out = np.eye(1)
        for k in range(L):
            out = np.kron(out, a if k == l else np.eye(nb))
        return out

    b = [on_mode(l) for l in range(L)]
    h_bath = sum(t[l, k] * b[l].T @ b[k] for l in range(L) for k in range(L))
    h_coup = sum(c[l] * (b[l] + b[l].T) for l in range(L))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    return (-0.5 * delta * np.kron(sx, np.eye(nb**L)) + 0.5 * np.kron(sz, h_coup)
            + np.kron(np.eye(2), h_bath))


class TestOracleConfig:
    def test_dimension_cap(self):
        with pytest.raises(SizeError):
            OracleConfig(n_modes=10, n_boson=10)

    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(n_modes=0, n_boson=4)
        with pytest.raises(DomainError):
            OracleConfig(n_modes=2, n_boson=1)
        with pytest.raises(DomainError):
            OracleConfig(n_modes=2, n_boson=4, which_basis="wilson")


class TestBuildHamiltonian:
    def test_hermitian_by_construction(self):
        p = params(0.03)
        bath = discretize_bath(p, 3)
        h = build_hamiltonian(bath, p, OracleConfig(3, 5)).toarray()
        assert np.abs(h - h.T).max() == 0.0

    def test_displaced_oscillator_limit(self):
        # delta ~ 0: ground energy is the static shift -g^2/(4w)
        p = params(0.05, delta=1e-12)
        bath = discretize_bath(p, 1)
        g, w = bath.couplings[0], bath.frequencies[0]
        assert g / w < 1.0
        e, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(1, 20)))
        assert e == pytest.approx(-g * g / (4 * w), abs=1e-10)

    def test_decoupled_limit(self):
        p = params(1e-12)
        bath = discretize_bath(p, 2)
        e, vec = ground_state(build_hamiltonian(bath, p, OracleConfig(2, 4)))
        assert e == pytest.approx(-0.5 * DELTA, abs=1e-9)
        # ground state is |+x> (x) vacuum: equal spin amplitudes on vacuum
        nb = 4
        vac_up = vec[0]
        vac_dn = vec[nb * nb]
        assert abs(vac_up) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert vac_up == pytest.approx(vac_dn, rel=1e-6)

    @pytest.mark.parametrize("which_basis", ["star", "chain"])
    @pytest.mark.parametrize("n_modes, nb", [(1, 4), (2, 3), (3, 2), (3, 4)])
    def test_matches_dense_reference(self, n_modes, nb, which_basis):
        p = params(0.1, delta=0.7)
        bath = discretize_bath(p, n_modes)
        basis = _modes(bath, which_basis)[3]
        h = build_hamiltonian(bath, p, OracleConfig(n_modes, nb, which_basis))
        want = dense_hamiltonian(bath, p.delta, nb, basis)
        tol = 1e-12 * np.max(np.abs(want))
        dense = h.toarray()
        assert np.max(np.abs(dense - want)) <= tol
        # at most 2L + 3 diagonals, offsets strictly ascending, whose dense
        # form has exactly the reference's nonzeros; the chain basis's dense
        # reference carries rounding-level entries where H is zero
        assert isinstance(h, sp.dia_matrix)
        assert np.all(np.diff(h.offsets) > 0)
        assert len(h.offsets) <= 2 * n_modes + 3
        nnz = np.count_nonzero(dense)
        assert nnz == np.count_nonzero(np.abs(want) > tol)
        if which_basis == "star":
            assert nnz == np.count_nonzero(want)
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("n_modes, nb, which_basis", [(4, 8, "star"), (4, 8, "chain"), (3, 2, "chain")])
    def test_matvec_adds_each_row_in_column_order(self, n_modes, nb, which_basis):
        # ascending offsets make the DIA matvec add each row's terms in
        # ascending column order, bit for bit the matvec of sorted CSR; the
        # oracle's printed digits rest on this
        p = params(0.1, delta=0.7)
        h = build_hamiltonian(discretize_bath(p, n_modes), p, OracleConfig(n_modes, nb, which_basis))
        csr = h.tocsr()
        csr.sort_indices()
        v = np.random.default_rng(5).normal(size=h.shape[0])
        assert np.array_equal(h @ v, csr @ v)

    @pytest.mark.parametrize("n_modes, nb, which_basis", [(5, 8, "star"), (4, 8, "chain")])
    def test_build_peak_memory_near_the_matrix(self, n_modes, nb, which_basis):
        # traced peak of the build, temporaries included, against the bytes of
        # the diagonals it returns; a sum of sparse krons reads ~2.9x
        p = params(0.03)
        bath = discretize_bath(p, n_modes)
        cfg = OracleConfig(n_modes, nb, which_basis)
        tracemalloc.start()
        try:
            h = build_hamiltonian(bath, p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (h.data.nbytes + h.offsets.nbytes)

    def test_polaron_beats_both_product_states(self):
        p = params(0.05)
        bath = discretize_bath(p, 1)
        g, w = bath.couplings[0], bath.frequencies[0]
        e, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(1, 24)))
        assert e < -0.5 * DELTA
        assert e < -g * g / (4 * w)


class TestGroundState:
    def test_two_level(self):
        h = sp.csr_matrix(np.array([[0.0, -0.5], [-0.5, 0.0]]))
        e, vec = ground_state(h)
        assert e == pytest.approx(-0.5, rel=1e-12)
        assert np.allclose(np.abs(vec), 1 / math.sqrt(2))

    def test_residual_and_determinism(self):
        p = params(0.03)
        bath = discretize_bath(p, 3)
        h = build_hamiltonian(bath, p, OracleConfig(3, 6))
        e1, v1 = ground_state(h)
        e2, v2 = ground_state(h)
        assert e1 == e2
        assert np.array_equal(v1, v2)
        resid = np.linalg.norm(h @ v1 - e1 * v1)
        assert resid <= 1e-10 * max(1.0, abs(h).sum(axis=1).max())

    def test_scale_is_the_largest_absolute_row_sum(self, monkeypatch):
        # the residual is checked against 1e-10 * max_i sum_j |H_ij|, in the
        # units of H: the same bound relative to H at delta 0.7 and at 1e-6
        # of that, where every row sum is below 1.  The flip diagonals hold
        # -delta/2 in their out-of-range padding, so a sum over the stored
        # diagonals overshoots by delta/2
        for unit in (1.0, 1e-6):
            p = ModelParams(s=S, alpha=0.1, delta=0.7 * unit, omega_c=WC * unit)
            for n_modes, nb, which_basis in [(4, 8, "star"), (4, 8, "chain"), (3, 2, "chain")]:
                h = build_hamiltonian(discretize_bath(p, n_modes), p,
                                      OracleConfig(n_modes, nb, which_basis))
                floats = []
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "float", lambda x: floats.append(builtins.float(x))
                                  or floats[-1], raising=False)
                    ground_state(h)
                want = np.abs(h.toarray()).sum(axis=1).max()
                naive = np.abs(h.data).sum(axis=0).max()
                assert naive - want == pytest.approx(0.5 * p.delta, rel=1e-12)
                assert (want > 1.0) == (unit == 1.0)
                assert floats[0] == pytest.approx(want, rel=1e-14)  # ground_state's scale

    @pytest.mark.parametrize("unit", [1.0, 1e-6])
    def test_inaccurate_eigenpair_is_refused_in_any_unit(self, monkeypatch, unit):
        # a Krylov pair whose residual is 3e-10 of the largest absolute row
        # sum fails the check in any unit of H, also where every row sum is
        # below 1
        p = ModelParams(s=S, alpha=0.1, delta=0.7 * unit, omega_c=WC * unit)
        h = build_hamiltonian(discretize_bath(p, 3), p, OracleConfig(3, 4))
        energy, vec = ground_state(h)
        scale = float(abs(h).sum(axis=1).max())
        kick = np.zeros_like(vec)
        kick[0] = 1.0
        kick *= 3e-10 * scale / np.linalg.norm(h @ kick - energy * kick)
        bad = (vec + kick) / np.linalg.norm(vec + kick)
        assert np.linalg.norm(h @ bad - energy * bad) == pytest.approx(3e-10 * scale, rel=0.01)
        monkeypatch.setattr(oracle, "eigsh", lambda *a, **k: (np.array([energy]), bad[:, None]))
        with pytest.raises(ConvergenceError, match="residual"):
            ground_state(h)

    @pytest.mark.parametrize("which_basis", ["star", "chain"])
    def test_krylov_memory_is_a_small_subspace(self, which_basis):
        # everything eigsh holds is counted in vectors of dim floats; 36
        # kept Lanczos vectors alone would read about 78
        p = params(0.03)
        h = build_hamiltonian(discretize_bath(p, 4), p, OracleConfig(4, 8, which_basis))
        tracemalloc.start()
        try:
            ground_state(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 8 * h.shape[0]

    @pytest.mark.parametrize("which_basis", ["star", "chain"])
    @pytest.mark.parametrize("n_modes, nb, dense", [(3, 6, True), (4, 8, False)])
    def test_localized_phase_converges(self, n_modes, nb, dense, which_basis):
        # deep in the localized phase the lowest two levels form a parity
        # doublet split by ~1e-4 of the energy or less; the Krylov solve must
        # still meet its residual contract and find the lower level
        s = 0.4
        p = params(30.0 * critical_coupling_numeric(s, DELTA, WC), s=s)
        h = build_hamiltonian(discretize_bath(p, n_modes), p, OracleConfig(n_modes, nb, which_basis))
        assert h.shape[0] > oracle._DENSE_CUTOFF
        e, vec = ground_state(h)
        assert np.linalg.norm(h @ vec - e * vec) <= 1e-10 * max(1.0, abs(h).sum(axis=1).max())
        if dense:
            lowest = np.linalg.eigvalsh(h.toarray())[:2]
            assert lowest[1] - lowest[0] < 1e-4 * abs(lowest[0])  # the doublet is there
            assert e == pytest.approx(lowest[0], rel=0.0, abs=1e-12 * max(1.0, abs(lowest[0])))

    def test_variational_bound_against_ado(self):
        p = params(0.5 * ALPHA_C_NUM)
        bath = discretize_bath(p, 4)
        e, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(4, 8)))
        e_ado, _ = ado_on_discrete(bath, p)
        assert e <= e_ado + 1e-9

    def test_bound_over_random_states(self):
        p = params(0.04)
        bath = discretize_bath(p, 3)
        e_exact, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(3, 12)))
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            m = rng.uniform(-0.95, 0.95)
            f_plus = rng.normal(scale=0.4, size=3)
            f_minus = rng.normal(scale=0.4, size=3)
            e_trial = discrete_state_energy(m, f_plus, f_minus, bath, DELTA)
            assert e_exact <= e_trial + 1e-9

    def test_nb_monotonicity(self):
        p = params(0.05)
        bath = discretize_bath(p, 3)
        energies = []
        for nb in (4, 6, 8, 10):
            e, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(3, nb)))
            energies.append(e)
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestAdoOnDiscrete:
    def test_free_limit(self):
        p = params(1e-12)
        bath = discretize_bath(p, 3)
        e, state = ado_on_discrete(bath, p)
        assert e == pytest.approx(-0.5 * DELTA, rel=1e-9)
        assert state.m == 0.0

    def test_pure_static_shift(self):
        # tunneling ~ 0: energy is the fully displaced value and the
        # effective tunneling dies (the magnetization is degenerate there)
        p = params(0.05, delta=1e-12)
        bath = discretize_bath(p, 1)
        g, w = bath.couplings[0], bath.frequencies[0]
        e, state = ado_on_discrete(bath, p)
        assert e == pytest.approx(-g * g / (4 * w), rel=1e-9)
        assert state.delta_tilde <= 1e-9

    def test_energy_matches_general_functional(self):
        p = params(0.04)
        bath = discretize_bath(p, 5)
        e, state = ado_on_discrete(bath, p)
        fp_per_g, fm_per_g = state.f_pm(bath.frequencies)
        e_alt = discrete_state_energy(
            state.m, bath.couplings * fp_per_g, bath.couplings * fm_per_g,
            bath, DELTA)
        assert e == pytest.approx(e_alt, rel=1e-10)

    @staticmethod
    def _static_crossings(s, delta, n_modes):
        # couplings bisected next to where the delocalized branch at m = 0
        # rises through the static energy, a few of them within (1e-13, 1e-6)
        # above it; the bracket comes from a coarse scan, so no digit is pinned
        def gap(alpha):
            p = params(alpha, s=s, delta=delta)
            fn = Functional.measures(delta, *bath_as_measures(discretize_bath(p, n_modes)))
            return float(fn.branch(0.0)) - fn.static, fn.static

        alphas = np.geomspace(0.1, 3.0, 100)
        signs = [gap(a)[0] > 0.0 for a in alphas]
        k = signs.index(True)
        assert k > 0
        lo, hi = alphas[k - 1], alphas[k]
        near = []
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            above, static = gap(mid)
            if 1e-13 * max(1.0, abs(static)) < above < 1e-6:
                near.append(mid)
            lo, hi = (lo, mid) if above > 0.0 else (mid, hi)
        assert len(near) >= 3
        return near

    @pytest.mark.parametrize("m_zero_only", [False, True])
    @pytest.mark.parametrize("s, n_modes", [(0.3, 2), (0.3, 3), (0.5, 4)])
    def test_returned_state_owns_the_energy(self, s, n_modes, m_zero_only, monkeypatch):
        # a returned state with tunneling and |m| < 1 carries its own branch
        # energy; any other returned state carries the static energy.  Where
        # branch(0) lies above static, a magnetized root of the full minimizer
        # undercuts both, so minimize's fall-back to the localized state only
        # meets its case when the curve offers no root and the m = 0
        # candidate stands alone: an empty span of y
        delta = 10.0
        near = self._static_crossings(s, delta, n_modes)
        if m_zero_only:
            init = Functional.__init__
            monkeypatch.setattr(Functional, "__init__",
                                lambda fn, *args: init(fn, *args[:-1], (1.0, 1.0)))
        for alpha in near:
            p = params(alpha, s=s, delta=delta)
            bath = discretize_bath(p, n_modes)
            e, state = ado_on_discrete(bath, p)
            fn = Functional.measures(delta, *bath_as_measures(bath))
            if state.delta_tilde > 0.0 and abs(state.m) < 1.0:
                assert abs(float(fn.branch(state.m)) - e) <= 1e-13 * max(1.0, abs(fn.static))
            else:
                assert e == fn.static and (state.m, state.delta_tilde) == (1.0, 0.0)

    def test_converges_to_continuum(self):
        p = params(0.02)
        e_cont = Functional.of(p).energy(0.0)
        sol = minimize_energy(p)
        assert sol.sz == 0.0
        e64, _ = ado_on_discrete(discretize_bath(p, 64), p)
        assert e64 == pytest.approx(e_cont, abs=1e-6)


class TestBasisIndependence:
    def test_star_vs_chain(self):
        p = params(0.02)
        bath = discretize_bath(p, 4)
        cfg_star = OracleConfig(4, 8, "star")
        cfg_chain = OracleConfig(4, 8, "chain")
        e_star, v_star = ground_state(build_hamiltonian(bath, p, cfg_star))
        e_chain, v_chain = ground_state(build_hamiltonian(bath, p, cfg_chain))
        assert abs(e_star - e_chain) <= 1e-9
        _, state = ado_on_discrete(bath, p)
        f_star = fidelity(state, bath, v_star, cfg_star)
        f_chain = fidelity(state, bath, v_chain, cfg_chain)
        assert abs(f_star.fidelity - f_chain.fidelity) <= 1e-6

    @pytest.mark.parametrize("n_modes, nb", [(2, 3), (3, 5)])
    def test_chain_is_star_at_zero_coupling(self, n_modes, nb):
        # no coupling, no collective mode: the chain form is the star form
        # (dims 18 and 250 take the dense and the Krylov path)
        p = params(0.0)
        bath = discretize_bath(p, n_modes)
        eps, hop, coupling, basis = _modes(bath, "chain")
        assert np.array_equal(eps, bath.frequencies) and not hop.any() and not coupling.any()
        assert np.array_equal(basis, np.eye(n_modes))
        _, state = ado_on_discrete(bath, p)
        out = {}
        for which_basis in ("star", "chain"):
            cfg = OracleConfig(n_modes, nb, which_basis)
            e, vec = ground_state(build_hamiltonian(bath, p, cfg))
            out[which_basis] = e, fidelity(state, bath, vec, cfg).fidelity
        assert out["chain"][0] == pytest.approx(out["star"][0], rel=0.0, abs=1e-12)
        assert out["chain"][1] == pytest.approx(out["star"][1], rel=0.0, abs=1e-12)
        assert out["star"] == pytest.approx((-0.5 * DELTA, 1.0), rel=0.0, abs=1e-12)


class TestFidelity:
    def test_free_limit_is_unity(self):
        p = params(1e-12)
        bath = discretize_bath(p, 3)
        cfg = OracleConfig(3, 6)
        _, vec = ground_state(build_hamiltonian(bath, p, cfg))
        _, state = ado_on_discrete(bath, p)
        f = fidelity(state, bath, vec, cfg)
        assert f.fidelity == pytest.approx(1.0, abs=1e-9)
        assert f.truncation_loss < 1e-12

    def test_weak_coupling_high_overlap(self):
        p = params(0.3 * ALPHA_C_NUM)
        bath = discretize_bath(p, 4)
        cfg = OracleConfig(4, 8)
        _, vec = ground_state(build_hamiltonian(bath, p, cfg))
        _, state = ado_on_discrete(bath, p)
        f = fidelity(state, bath, vec, cfg)
        assert f.fidelity >= 0.99
        assert f.truncation_loss <= 0.10

    def test_truncation_loss_flags_low_confidence(self):
        # strong coupling with a tiny Fock space: the ansatz barely fits
        ac5 = 0.122  # discrete 5-mode onset, pinned approximately
        p = params(2.0 * ac5)
        bath = discretize_bath(p, 5)
        cfg = OracleConfig(5, 2)
        _, state = ado_on_discrete(bath, p)
        vec, loss = ado_vector(state, bath, cfg)
        assert loss > 0.10
        _, ed_vec = ground_state(build_hamiltonian(bath, p, cfg))
        f = fidelity(state, bath, ed_vec, cfg)
        assert f.truncation_loss == loss

    def test_ado_vector_norm_consistency(self):
        p = params(0.05)
        bath = discretize_bath(p, 3)
        cfg = OracleConfig(3, 14)
        _, state = ado_on_discrete(bath, p)
        vec, loss = ado_vector(state, bath, cfg)
        assert float(vec @ vec) == pytest.approx(1.0 - loss, rel=1e-12)
        assert 0.0 <= loss < 0.05


class TestDiscreteCriticalCoupling:
    def test_onset_bracketing(self):
        ac = discrete_critical_coupling(S, DELTA, WC, 5)
        p_below = params(0.98 * ac)
        p_above = params(1.02 * ac)
        _, st_below = ado_on_discrete(discretize_bath(p_below, 5), p_below)
        _, st_above = ado_on_discrete(discretize_bath(p_above, 5), p_above)
        assert st_below.m <= 1e-6
        assert st_above.m > 1e-6

    def test_decreases_toward_continuum(self):
        acs = [discrete_critical_coupling(S, DELTA, WC, L) for L in (2, 4, 6)]
        assert all(b < a for a, b in zip(acs, acs[1:]))
        assert acs[-1] > ALPHA_C_NUM


class TestRunOracle:
    def test_record_fields(self):
        p = params(0.5 * ALPHA_C_NUM)
        result = run_oracle(p, OracleConfig(3, 8))
        assert result.energy_exact <= result.energy_ado_discrete + 1e-9
        assert 0.0 <= result.fidelity <= 1.0
        assert result.converged_nb

    def test_resolve_basis_checked_before_any_work(self, monkeypatch):
        # 4x8 (dim 8192) fits a cap of 10,000; its n_boson + 2 re-solve
        # (dim 20,000) does not, and nothing is built before that is known
        monkeypatch.setattr(oracle, "_DIMENSION_CAP", 10_000)
        cfg = OracleConfig(4, 8)

        def no_build(*args):
            raise AssertionError("build_hamiltonian called")

        monkeypatch.setattr(oracle, "build_hamiltonian", no_build)
        with pytest.raises(SizeError, match="re-solve.*20000"):
            run_oracle(params(0.02), cfg)
