import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from occupation_reference import occupation_total
from subohmic.chain import chain_map, chain_occupations
from subohmic.errors import DomainError
from subohmic.model import ModelParams, discretize_bath, spectral_moment
from subohmic.numerics import fit_power_law, jacobi_recurrence
from subohmic.oracle import _modes
from subohmic.variational import (
    Functional,
    VariationalState,
    minimize_energy,
)

S, DELTA, WC = 0.3, 1.0, 10.0
ALPHA_C_NUM = 0.032649799936969884


def params(alpha, s=S):
    return ModelParams(s=s, alpha=alpha, delta=DELTA, omega_c=WC)


def _naive_lanczos(omegas, weights, n):
    # deliberately plain reference implementation (no reorthogonalization)
    v = np.sqrt(weights) / math.sqrt(np.sum(weights))
    vs = [v]
    eps, hop = [], []
    for k in range(n):
        u = omegas * vs[k]
        if k > 0:
            u = u - hop[k - 1] * vs[k - 1]
        a = float(vs[k] @ u)
        eps.append(a)
        u = u - a * vs[k]
        if k == n - 1:
            break
        b = float(np.linalg.norm(u))
        hop.append(b)
        vs.append(u / b)
    return np.array(eps), np.array(hop)


def _eigenvector_gauss(p, extra, order):
    # Golub-Welsch with eigenvectors: weight = mass * (first component)^2
    x, v = eigh_tridiagonal(*jacobi_recurrence(p.s + extra, order))
    return p.omega_c * x, spectral_moment(p, extra) * v[0] ** 2


def _poly_rows(rep, mass, x):
    # p_n(x) orthonormal for the measure of mass ``mass``, by plain recurrence
    out = np.empty((rep.n_sites, x.size))
    out[0] = 1.0 / math.sqrt(mass)
    out[1] = (x - rep.site_energies[0]) * out[0] / rep.hoppings[0]
    for k in range(1, rep.n_sites - 1):
        out[k + 1] = ((x - rep.site_energies[k]) * out[k]
                      - rep.hoppings[k - 1] * out[k - 1]) / rep.hoppings[k]
    return out


class TestChainMap:
    def test_first_site_energy(self):
        rep = chain_map(params(0.1), 4)
        # first moment ratio of the w^s measure on [0, omega_c]
        assert rep.site_energies[0] == pytest.approx(WC * 1.3 / 2.3, rel=1e-12)

    def test_system_coupling_quarter_mass(self):
        p = params(0.1)
        rep = chain_map(p, 4)
        assert rep.system_coupling**2 == pytest.approx(
            0.25 * spectral_moment(p, 0.0), rel=1e-12)

    def test_asymptotics_by_site_50(self):
        rep = chain_map(params(0.1), 60)
        assert rep.site_energies[50] == pytest.approx(WC / 2.0, rel=0.01)
        assert rep.hoppings[50] == pytest.approx(WC / 4.0, rel=0.01)

    def test_against_independent_tridiagonalization(self):
        # reference: plain Lanczos on scipy's 2000-point Gauss-Jacobi rule
        # for w^s dw (accurate for s > 0), not on the library's own rules
        p = params(0.1)
        x, w = roots_jacobi(2000, 0.0, S)
        eps_ref, hop_ref = _naive_lanczos(0.5 * WC * (x + 1.0), w, 21)
        rep = chain_map(p, 21)
        assert np.allclose(rep.site_energies[:20], eps_ref[:20], rtol=1e-8)
        assert np.allclose(rep.hoppings[:20], hop_ref[:20], rtol=1e-8)

    def test_orthonormal_basis(self):
        # the oracle's star-to-chain map of a discrete bath
        _, _, _, basis = _modes(discretize_bath(params(0.1), 120), "chain")
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(120))) < 1e-8

    def test_discrete_modes_roundtrip(self):
        p = params(0.05)
        bath = discretize_bath(p, 6)
        eps, hop, _, basis = _modes(bath, "chain")
        # orthogonal transform preserves the one-body spectrum
        h_chain = np.diag(eps) + np.diag(hop, 1) + np.diag(hop, -1)
        got = np.sort(np.linalg.eigvalsh(h_chain))
        assert np.allclose(got, bath.frequencies, rtol=1e-10)
        assert np.allclose(basis @ basis.T, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 6, 40])
    def test_discrete_chain_form_matches_closed_form(self, n_modes):
        # tridiagonalizing the n-mode Gauss bath reproduces its first n coefficients
        p = params(0.1)
        eps, hop, coupling, _ = _modes(discretize_bath(p, n_modes), "chain")
        g_norm = coupling[0]
        rep = chain_map(p, n_modes)
        assert np.allclose(eps, rep.site_energies, rtol=1e-12, atol=0.0)
        assert np.allclose(hop, rep.hoppings, rtol=1e-12, atol=0.0)
        assert 0.5 * g_norm == pytest.approx(rep.system_coupling, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            chain_map(params(0.1), 0)
        with pytest.raises(DomainError):
            chain_map(ModelParams(s=S, alpha=0.0, delta=DELTA, omega_c=WC), 5)


class TestOccupations:
    def test_free_bath_unoccupied(self):
        p = ModelParams(s=S, alpha=0.0, delta=DELTA, omega_c=WC)
        st = VariationalState(0.0, DELTA)
        rep = chain_map(params(0.01), 10)
        occ = chain_occupations(st, p, rep)
        assert np.all(occ.n_av == 0.0)
        assert occ.frame == "bare"

    def test_fully_localized_state_is_the_static_shift(self):
        # m = 1, dt = 0: w phi = -1/2 on the + branch, so site 0 holds
        # (int dmu/w)^2 / (4 mass) = alpha (1 + s) / (2 s^2), and the
        # frame displaced by m = 1 removes the whole shift
        p = params(0.5)
        state = VariationalState(1.0, 0.0)
        rep = chain_map(p, 30)
        bare = chain_occupations(state, p, rep).n_av
        assert bare[0] == pytest.approx(p.alpha * (1.0 + S) / (2.0 * S * S), rel=1e-10)
        assert np.all(np.isfinite(bare)) and np.all(bare > 0.0)
        assert np.all(chain_occupations(state, p, rep, m_frame=1.0).n_av == 0.0)

    def test_occupations_past_the_float_square_of_the_coupling(self):
        # d ~ alpha, so d^2 leaves the floats at alpha = 1e154 while n_av ~
        # alpha still fits; under the suite's warnings-as-errors no overflow
        # warning may be raised
        p = params(1e154)
        sol = minimize_energy(p)
        occ = chain_occupations(sol.state, p, chain_map(p, 400))
        assert sol.sz == 1.0
        assert np.all(np.isfinite(occ.n_av))
        assert occ.n_av[0] == pytest.approx(1e154 * (1.0 + S) / (2.0 * S * S), rel=1e-10)

    def test_delocalized_profile_decays(self):
        p = params(0.015)
        sol = minimize_energy(p)
        rep = chain_map(p, 120)
        occ = chain_occupations(sol.state, p, rep)
        assert sol.sz == 0.0
        # monotone decay above the quadrature noise floor
        tail = occ.n_av[5:60]
        visible = tail > 1e-25 * occ.n_av[0]
        assert np.all(np.diff(np.log(tail[visible])) < 0.0)
        assert occ.n_av[40] < 1e-12 * occ.n_av[0]

    def test_total_occupation_matches_star_basis(self):
        p = params(0.015)
        sol = minimize_energy(p)
        rep = chain_map(p, 400)
        occ = chain_occupations(sol.state, p, rep)
        star_total = occupation_total(sol.state, p)
        assert float(np.sum(occ.n_av)) == pytest.approx(star_total, rel=0.01)

    def test_localized_matches_two_rule_reference(self):
        # a fixed magnetized state against order-2528 rules for dmu (smooth
        # part) and dmu/w (the 1/w part), built from eigenvectors
        p = params(1.2 * ALPHA_C_NUM)
        st = VariationalState(0.5, 0.1)
        rep = chain_map(p, 400)
        m, dt = st.m, st.delta_tilde
        q = math.sqrt(1 - m * m)
        x0, w0 = _eigenvector_gauss(p, 0.0, 2528)
        x1, w1 = _eigenvector_gauss(p, -1.0, 2528)
        mass = spectral_moment(p, 0.0)
        d_sing = _poly_rows(rep, mass, x1) @ (w1 * -(0.5 * m * dt) / (dt + q * x1))
        d_smooth = _poly_rows(rep, mass, x0) @ (w0 * 0.5 * q / (dt + q * x0))
        want = st.c_plus**2 * (d_sing - d_smooth)**2 + st.c_minus**2 * (d_sing + d_smooth)**2
        got = chain_occupations(st, p, rep).n_av
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)

    def test_localized_power_law_tail(self):
        p = params(1.2 * ALPHA_C_NUM)
        sol = minimize_energy(p)
        assert sol.sz > 0.3
        rep = chain_map(p, 400)
        occ = chain_occupations(sol.state, p, rep)
        ns = np.arange(20, 201, dtype=float)
        fit = fit_power_law(ns, occ.n_av[20:201])
        assert fit.exponent == pytest.approx(1.0 - 2.0 * S, abs=0.1)


@pytest.fixture(scope="module")
def localized():
    p = params(1.2 * ALPHA_C_NUM)
    sol = minimize_energy(p)
    rep = chain_map(p, 400)
    bare = chain_occupations(sol.state, p, rep)
    return p, sol, rep, bare


class TestDisplacedFrame:
    def test_noop_at_m_zero(self):
        # the displaced frame of an unmagnetized state is the bare frame
        p = params(0.02)
        st = VariationalState(0.0, Functional.of(p).dt(0.0))
        rep = chain_map(p, 12)
        occ = chain_occupations(st, p, rep, m_frame=st.m)
        assert occ.frame == "bare"
        assert np.array_equal(occ.n_av, chain_occupations(st, p, rep).n_av)

    def test_shift_cancels_infrared_tail(self, localized):
        # the frame of chain_occupations(m_frame=m) shifts each shape by m/(2w)
        p, sol, rep, bare = localized
        m, dt = sol.sz, sol.state.delta_tilde
        q = math.sqrt(1 - m * m)
        w = np.geomspace(1e-8, 1e-4, 5)
        fp, _ = sol.state.f_pm(w)
        shifted = fp + m / (2 * w)
        # residual is the smooth -q(1-m)/(2(dt+qw)) branch, finite at w -> 0
        want = -q * (1 - m) / (2 * (dt + q * w))
        assert np.allclose(shifted, want, rtol=1e-6)

    def test_displaced_profile_decays(self, localized):
        p, sol, rep, bare = localized
        disp = chain_occupations(sol.state, p, rep, m_frame=sol.state.m)
        assert disp.frame.startswith("displaced")
        # the power-law tail disappears: residual far below 1% of bare
        assert disp.n_av[200] < 1e-2 * bare.n_av[200]
        assert disp.n_av[200] < disp.n_av[5]

    def test_wrong_frame_leaves_quadratic_residual(self, localized):
        p, sol, rep, bare = localized
        m = sol.sz
        off = 0.1
        tails = {}
        for m_frame in (m - off, m + off):
            occ = chain_occupations(sol.state, p, rep, m_frame=m_frame)
            tails[m_frame] = occ.n_av[200]
        # residual tail prefactor scales as (m - m_frame)^2
        want = (off / m) ** 2
        assert tails[m - off] / bare.n_av[200] == pytest.approx(want, rel=1e-3)
        assert tails[m + off] / bare.n_av[200] == pytest.approx(want, rel=1e-3)

    def test_frame_shift_exactness(self, localized):
        # total occupation via shifted shapes equals the direct quadratic form
        p, sol, rep, bare = localized
        disp = chain_occupations(sol.state, p, rep, m_frame=sol.state.m)
        m, dt = sol.sz, sol.state.delta_tilde
        q = math.sqrt(1 - m * m)
        from subohmic.model import bath_measure_rule

        rule = bath_measure_rule(p, n=1000)
        w = rule.nodes
        shifted_p = -q * (1 - m) / (2 * (dt + q * w))
        shifted_m = +q * (1 + m) / (2 * (dt + q * w))
        cp2 = 0.5 * (1 + m)
        cm2 = 0.5 * (1 - m)
        star_total = float(np.dot(rule.weights, cp2 * shifted_p**2 + cm2 * shifted_m**2))
        assert float(np.sum(disp.n_av)) == pytest.approx(star_total, rel=1e-6)
