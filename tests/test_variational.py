import math

import numpy as np
import pytest
import scipy.integrate

from occupation_reference import occupation_density, occupation_total
from subohmic.errors import ConvergenceError, DomainError
from subohmic.critical import critical_coupling_closed, critical_coupling_numeric
from subohmic.model import ModelParams, bath_as_measures, bath_measures, discretize_bath
from subohmic.numerics import QuadratureRule, power_rule
from subohmic.variational import (
    Functional,
    VariationalState,
    minimize_energy,
    observables,
    solve_delta_tilde_scaling,
    static_shift_energy,
    _overlap_integral,
    _safe_step,
    _solve_delta_tilde,
)

S, DELTA, WC = 0.3, 1.0, 10.0
ALPHA_C_NUM = 0.032649799936969884  # pinned by the 1e-8 bisection in test_critical


def params(alpha, s=S, delta=DELTA, omega_c=WC):
    return ModelParams(s=s, alpha=alpha, delta=delta, omega_c=omega_c)


def landau_stencil(branch):
    """Reference ``(c0, c1, c2)`` of ``branch = c0 + c1 m^2 + c2 m^4 +
    O(m^6)``: central finite differences with the self-consistency re-solved
    at ``m = 0, h/2, h, 2h`` (the branch is even), Richardson-extrapolated
    from steps ``h = 1e-3`` and ``h/2``."""
    h = 1e-3
    e0, e_half, e_h, e_2h = (branch(m) for m in (0.0, h / 2, h, 2 * h))

    def second(e1, hh):
        return (e1 - 2.0 * e0 + e1) / (hh * hh)

    def fourth(e2, e1, hh):
        return (e2 - 4.0 * e1 + 6.0 * e0 - 4.0 * e1 + e2) / hh**4

    c1 = (4.0 * second(e_half, h / 2) - second(e_h, h)) / 3.0 / 2.0
    c2 = (16.0 * fourth(e_h, e_half, h / 2) - fourth(e_2h, e_h, h)) / 15.0 / 24.0
    return e0, c1, c2


def rhs_independent(dt, m, p):
    """Self-consistency right-hand side via adaptive quadrature (oracle)."""
    q = math.sqrt(1.0 - m * m)
    f = lambda w: (1 - m * m) * w**p.s / (dt + q * w) ** 2
    cut = min(max(100.0 * dt / q, 1e-12), 0.5 * p.omega_c)
    val = 0.0
    for lo, hi in ((0.0, cut), (cut, p.omega_c)):
        piece, err = scipy.integrate.quad(
            f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=800)
        assert err < 1e-7 * max(1.0, abs(piece))
        val += piece
    return p.delta * math.exp(-p.alpha * p.omega_c ** (1 - p.s) * val)


class TestDisplacements:
    def test_symmetric_at_zero_m(self):
        w = np.array([0.2, 1.0, 5.0])
        fp, fm = VariationalState(0.0, 0.8).f_pm(w)
        assert np.allclose(fp, -1.0 / (2.0 * (0.8 + w)), rtol=1e-14)
        assert np.allclose(fp, -fm, rtol=1e-14)

    def test_full_localization(self):
        fp, fm = VariationalState(1.0, 0.0).f_pm(2.0)
        assert fp == pytest.approx(-1.0 / 4.0, rel=1e-14)
        assert fm == pytest.approx(-1.0 / 4.0, rel=1e-14)

    def test_literal_values(self):
        # m = 0.5, dt = 1, w = 1
        q = math.sqrt(0.75)
        fp, fm = VariationalState(0.5, 1.0).f_pm(1.0)
        assert fp == pytest.approx(-(0.5 + q) / (2 * (1 + q)), rel=1e-14)
        assert fm == pytest.approx(-(0.5 - q) / (2 * (1 + q)), rel=1e-14)

    def test_infrared_divergence_flagged_not_raised(self):
        fp, fm = VariationalState(0.4, 0.8).f_pm(0.0)
        assert fp == -math.inf and fm == -math.inf
        fp0, fm0 = VariationalState(0.0, 0.8).f_pm(0.0)
        assert fp0 == pytest.approx(-1.0 / 1.6)
        assert fm0 == pytest.approx(+1.0 / 1.6)

    def test_sign_change_at_crossover(self):
        m, dt = 0.6, 0.7
        q = math.sqrt(1 - m * m)
        w_star = m * dt / q
        fp_lo, fm_lo = VariationalState(m, dt).f_pm(w_star / 50)
        fp_hi, fm_hi = VariationalState(m, dt).f_pm(w_star * 50)
        # slow modes: same sign, ratio -> 1; fast modes: opposite, ratio -> -1
        assert fp_lo / fm_lo == pytest.approx(1.0, abs=0.05)
        assert fp_hi / fm_hi == pytest.approx(-1.0, abs=0.05)
        _, fm_at = VariationalState(m, dt).f_pm(w_star)
        assert abs(fm_at) < 1e-15


class TestVariationalState:
    def test_amplitude_identities(self):
        for m in (0.0, 0.25, 0.9, 1.0):
            st = VariationalState(m, 0.5)
            assert st.c_plus**2 + st.c_minus**2 == pytest.approx(1.0, abs=1e-12)
            assert st.c_plus**2 - st.c_minus**2 == pytest.approx(m, abs=1e-12)

    def test_silbey_harris_symmetry(self):
        st = VariationalState(0.0, 0.7)
        w = np.geomspace(1e-3, 10.0, 30)
        fp, fm = st.f_pm(w)
        assert np.allclose(fp, -fm, rtol=1e-14)


class TestDeltaTildeExact:
    def test_non_finite_residual_raises(self):
        # weights next to the float maximum overflow the overlap integral; the
        # descent once stepped by NaN from there and returned dt = delta
        rule = QuadratureRule(np.array([1e-3, 2e-3]), np.array([1e308, 1e308]))
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="residual"):
            _solve_delta_tilde(0.0, 1.0, rule)

    def test_step_past_the_float_range(self):
        # (1 - K)^2 overflows from K ~ 1.3e154 on, where the step is taken in
        # units of K: the positive root of K d^2/2 + (1 - K) d = g either way
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for g, k in ((3.0, 1e153), (3.0, 1e155), (1e-3, 1e300), (1e190, 1e200)):
                kk = mpmath.mpf(k)
                want = ((kk - 1) + mpmath.sqrt((kk - 1) ** 2 + 2 * kk * g)) / kk
                assert _safe_step(g, k) == pytest.approx(float(want), rel=4e-16), (g, k)
        # in range the step keeps the bits of (1 - K) ** 2, which differ from
        # (1 - K) * (1 - K) for some K
        for k in np.linspace(0.0, 3.0, 3001).tolist():
            r = math.sqrt(max(0.0, (1.0 - k) ** 2 + 2.0 * k * 0.37))
            want = 2.0 * 0.37 / ((1.0 - k) + r) if k < 1.0 else ((k - 1.0) + r) / k
            assert _safe_step(0.37, k) == want

    def test_free_limit(self):
        assert Functional.of(params(0.0)).dt(0.0) == DELTA
        assert Functional.of(params(0.0)).dt(0.5) == DELTA

    def test_endpoint_convention(self):
        # complete localization carries the dt = 0 solution
        assert Functional.of(params(0.05)).dt(1.0) == 0.0
        assert Functional.of(params(0.05)).dt(-1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.01, 0.03, 0.06])
    @pytest.mark.parametrize("m", [0.0, 0.4, 0.9])
    def test_residual(self, alpha, m):
        p = params(alpha)
        dt = Functional.of(p).dt(m)
        assert dt > 0
        mu0, _ = bath_measures(p)
        q = math.sqrt(1 - m * m)
        rhs = p.delta * math.exp(-0.5 * _overlap_integral(dt, q, mu0))
        assert abs(dt - rhs) <= 1e-10 * dt

    def test_against_dense_scan_oracle(self):
        # largest root located independently: dense scan + bisection on the
        # adaptive-quadrature right-hand side
        p = params(0.05)
        grid = np.geomspace(1e-6, 1.0, 200)
        gap = np.array([rhs_independent(x, 0.0, p) - x for x in grid])
        crossings = np.flatnonzero(np.diff(np.sign(gap)) != 0)
        assert crossings.size >= 1
        lo, hi = grid[crossings[-1]], grid[crossings[-1] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if rhs_independent(mid, 0.0, p) - mid > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert Functional.of(p).dt(0.0) == pytest.approx(oracle, rel=1e-9)

    def test_largest_root_property(self):
        p = params(0.05)
        mu0, _ = bath_measures(p)
        dt = _solve_delta_tilde(0.0, p.delta, mu0)
        for x in np.linspace(dt * 1.01, p.delta, 7):
            rhs = p.delta * math.exp(-0.5 * _overlap_integral(x, 1.0, mu0))
            assert rhs < x

    def test_fold_next_to_collapse(self):
        # g dips to 4e-7 above zero at m = 0.3075 and just below it at 0.3076;
        # fixed-point steps used to crawl through the fold until the
        # iterations ran out
        p = ModelParams(s=0.3615428321408152, alpha=0.025753458228936033,
                        delta=1.0, omega_c=100.0)
        mu0, _ = bath_measures(p)
        assert Functional.of(p).dt(0.3075) == 0.0
        dt = Functional.of(p).dt(0.3076)
        assert dt > 0.1
        q = math.sqrt(1.0 - 0.3076**2)
        assert abs(dt - p.delta * math.exp(-0.5 * _overlap_integral(dt, q, mu0))) <= 1e-10 * dt

    def test_collapse_at_strong_coupling(self):
        # the finite root disappears just below alpha = 0.1 at these params
        assert Functional.of(params(0.099)).dt(0.0) > 0.2
        assert Functional.of(params(0.12)).dt(0.0) == 0.0


class TestDeltaTildeScaling:
    def test_free_limit(self):
        assert solve_delta_tilde_scaling(0.0, params(0.0)) == DELTA

    @pytest.mark.parametrize("alpha", [0.005, 0.02, 0.05])
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.9])
    def test_defining_residual(self, alpha, m):
        p = params(alpha)
        dt = solve_delta_tilde_scaling(m, p)
        s, t = p.s, 1.0 - p.s
        q = math.sqrt(1 - m * m)
        big_c = (p.alpha * math.pi * s / math.sin(math.pi * s)) * (p.omega_c * q) ** t
        big_d = p.delta * math.exp(p.alpha / t)
        rhs = big_d * math.exp(-big_c * dt ** (-t))
        assert abs(dt - rhs) <= 1e-10 * dt

    def test_agrees_with_exact_solver(self):
        # wide-band corrections are O(delta/omega_c) = 0.1 here
        p = params(0.05)
        dt_e = Functional.of(p).dt(0.0)
        dt_s = solve_delta_tilde_scaling(0.0, p)
        assert dt_s == pytest.approx(dt_e, rel=0.03)

    def test_agrees_tightly_at_large_cutoff(self):
        p = params(0.002, omega_c=1000.0)
        dt_e = Functional.of(p).dt(0.0)
        dt_s = solve_delta_tilde_scaling(0.0, p)
        assert dt_s == pytest.approx(dt_e, rel=1e-4)

    def test_overflowing_cutoff_scale_is_a_domain_error(self):
        # D = delta exp(alpha/(1-s)) = e^1598 and dt(0) ~ D: no float holds either
        p = ModelParams(s=0.9853351796933449, alpha=23.3394277363693,
                        delta=887.8577120892148, omega_c=10.462982712806163)
        with pytest.raises(DomainError, match="overflows"):
            Functional.of(p, "scaling").minimize()

    def test_finite_root_beyond_an_overflowing_cutoff_scale(self):
        # alpha/(1-s) = 5000 overflows D, yet dt(0) ~ omega_c (z -> alpha as s -> 1)
        p = params(0.5, s=0.9999)
        dt = Functional.of(p, "scaling").dt(0.0)
        t = 1.0 - p.s
        big_c = (p.alpha * math.pi * p.s / math.sin(math.pi * p.s)) * p.omega_c**t
        log_rhs = math.log(p.delta) + p.alpha / t - big_c * dt ** (-t)
        assert 0.0 < dt < p.omega_c
        assert abs(math.log(dt) - log_rhs) <= 1e-12 * p.alpha / t

    def test_underflowing_span_leaves_the_delocalized_root(self):
        # the span's ends (t b)^(1/t) and the stationary point (4a)^(1/t) lie
        # below the smallest float: no magnetized candidate, and dt(0) is the
        # self-consistent root
        p = ModelParams(s=0.9819482931810822, alpha=5.682664212666706e-07,
                        delta=0.09835335067386136, omega_c=4.155329280869263)
        fn = Functional.of(p, "scaling")
        m, energy, dt = fn.minimize()
        t = 1.0 - p.s
        big_c = (p.alpha * math.pi * p.s / math.sin(math.pi * p.s)) * p.omega_c**t
        assert m == 0.0 and dt == fn.dt(0.0)
        assert abs(math.log(dt) - (math.log(p.delta) + p.alpha / t - big_c * dt ** (-t))) <= 1e-14
        ms = np.linspace(0.0, 0.999, 1000)
        assert energy <= min(fn.energy(m) for m in ms.tolist())


class TestEnergies:
    def test_free_energy_curve(self):
        p = params(0.0)
        for m in (0.0, 0.3, 0.8):
            assert Functional.of(p).energy(m) == pytest.approx(
                -0.5 * math.sqrt(1 - m * m), rel=1e-14)
        assert Functional.of(p).energy(0.0) == -0.5

    def test_static_limit(self):
        p = params(0.07)
        assert Functional.of(p).energy(1.0) == pytest.approx(
            -p.alpha * p.omega_c / (2 * p.s), rel=1e-12)
        assert static_shift_energy(p) == pytest.approx(-7.0 / 6.0, rel=1e-12)

    def test_even_symmetry(self):
        p = params(0.04)
        for m in (0.1, 0.45, 0.8):
            assert Functional.of(p).energy(m) == pytest.approx(Functional.of(p).energy(-m), rel=1e-14)

    def test_identity_with_independent_form(self):
        # E = -dt q/2 - (1/4) int dmu/w + (q^2 dt^2/4) int dmu / (w (dt+q w)^2)
        p = params(0.05)
        mu0, mu_m1 = bath_measures(p)
        for m in (0.0, 0.35, 0.75):
            dt = Functional.of(p).dt(m)
            q = math.sqrt(1 - m * m)
            w = mu_m1.nodes
            alt = (-0.5 * dt * q - 0.25 * mu_m1.total_mass
                   + 0.25 * q * q * dt * dt
                   * float(np.dot(mu_m1.weights, 1.0 / (dt + q * w) ** 2)))
            assert Functional.of(p).energy(m) == pytest.approx(alt, rel=1e-12)

    def test_energy_below_tunneling_bound(self):
        p = params(0.05)
        for m in (0.0, 0.4):
            dt = Functional.of(p).dt(m)
            assert Functional.of(p).energy(m) <= -0.5 * dt * math.sqrt(1 - m * m) + 1e-12

    def test_scaling_matches_exact_at_large_cutoff(self):
        p = params(0.0008, omega_c=1000.0)
        for m in (0.0, 0.5):
            ee = Functional.of(p).energy(m)
            es = Functional.of(p, "scaling").energy(m)
            assert es == pytest.approx(ee, rel=5e-3)

    def test_scaling_free_limit_depends_on_prefactor(self):
        # tunneling term -dt q / 2; with the prefactor 1 it would be -delta
        p = params(0.0)
        fn = Functional.of(p, "scaling")
        assert fn.energy(0.0) == -0.5 * DELTA
        assert fn.energy(0.0) - 0.5 * fn.dt(0.0) == -DELTA

    def test_localized_limit_of_scaling(self):
        p = params(0.05)
        assert Functional.of(p, "scaling").energy(1.0) == pytest.approx(static_shift_energy(p))


class TestPrefactorResolution:
    """The wide-band energy's tunneling prefactor is fixed by requiring the
    scaling functional to reproduce the closed-form critical coupling."""

    def test_half_reproduces_closed_form(self):
        from subohmic.critical import critical_coupling_closed

        s, delta, wc = 0.3, 1.0, 1000.0
        alpha_closed, _ = critical_coupling_closed(s, delta, wc)

        def c1_at(alpha, kappa):
            p = ModelParams(s=s, alpha=alpha, delta=delta, omega_c=wc)
            half = Functional.of(p, "scaling")
            # prefactor kappa: E_kappa = E_half - (kappa - 1/2) dt q; the
            # curve, and so Functional.c1, knows only kappa = 1/2, but the
            # stencil reads the branch alone
            return landau_stencil(lambda m: half.branch(m)
                                  - (kappa - 0.5) * half.dt(m) * math.sqrt(1.0 - m * m))[1]

        # derived prefactor 1/2: c1 crosses zero within ~alpha/(1-s) of the
        # closed form (the residual finite-coupling correction)
        lo, hi = 0.8 * alpha_closed, 1.2 * alpha_closed
        assert c1_at(lo, 0.5) > 0 > c1_at(hi, 0.5)
        # alternative prefactor 1.0 misses the closed form by a wide margin
        assert c1_at(lo, 1.0) > 0 and c1_at(hi, 1.0) > 0

    def test_default_is_half(self):
        # at alpha = 0 the wide-band branch is the tunneling term alone
        fn = Functional.of(params(0.0), "scaling")
        for m in (0.0, 0.3, 0.8):
            assert fn.branch(m) == -0.5 * DELTA * math.sqrt((1 - m) * (1 + m))


def zero_bump(w):
    return np.zeros_like(w)


def shape_energy(p, m, dt, bump_p=zero_bump, bump_m=zero_bump, eps=0.0):
    """ADO energy of the optimal shapes at ``(m, dt)`` plus ``eps`` times a
    bump on either branch, from the shapes themselves: the true branch
    overlap and the bath terms against ``dmu / w``, for any ``dt > 0``."""
    mu0, mu_m1 = bath_measures(p)
    q_nodes0, w0 = mu0.nodes, mu0.weights
    q_nodes1, w1 = mu_m1.nodes, mu_m1.weights
    q = math.sqrt(1 - m * m)
    u_p = -(m * dt + q * q_nodes1) / (2 * (dt + q * q_nodes1))
    u_m = -(m * dt - q * q_nodes1) / (2 * (dt + q * q_nodes1))
    u_p = u_p + eps * q_nodes1 * bump_p(q_nodes1)
    u_m = u_m + eps * q_nodes1 * bump_m(q_nodes1)
    diff = -q / (dt + q * q_nodes0) + eps * (bump_p(q_nodes0) - bump_m(q_nodes0))
    overlap = math.exp(-0.5 * float(np.dot(w0, diff**2)))
    i_plus = float(np.dot(w1, u_p * (1 + u_p)))
    i_minus = float(np.dot(w1, u_m * (1 - u_m)))
    return (-0.5 * q * p.delta * overlap
            + 0.5 * (1 + m) * i_plus - 0.5 * (1 - m) * i_minus)


class TestStationarity:
    def test_shape_perturbations_never_lower_energy(self):
        p = params(0.05)
        bumps = [
            lambda w: np.ones_like(w),
            lambda w: w / (1.0 + w),
            lambda w: np.exp(-((w - 3.0) ** 2)),
        ]
        for m in (0.0, 0.5):
            dt = Functional.of(p).dt(m)
            e_opt = shape_energy(p, m, dt)
            assert e_opt == pytest.approx(Functional.of(p).energy(m), rel=1e-12)
            for bump in bumps:
                for eps in (1e-6, -1e-6):
                    assert shape_energy(p, m, dt, bump, zero_bump, eps) >= e_opt - 1e-10 * p.delta
                    assert shape_energy(p, m, dt, zero_bump, bump, eps) >= e_opt - 1e-10 * p.delta

    def test_delta_tilde_perturbations_never_lower_energy(self):
        p = params(0.05)
        for m in (0.0, 0.5):
            dt = Functional.of(p).dt(m)
            e_opt = shape_energy(p, m, dt)
            assert e_opt == pytest.approx(Functional.of(p).branch(m), rel=1e-12)
            for eps in (1e-6, -1e-6):
                assert shape_energy(p, m, dt * (1 + eps)) >= e_opt - 1e-10 * p.delta


class TestMinimizeEnergy:
    def test_grid_sign_change_survives_refinement(self):
        # the residual at the span's upper end reads -4.4e-16 on the grid and
        # +4.4e-16 in a scalar call, as a matrix product and a dot can round
        # it: the root is that end, whose m = sqrt(3)/2 has the lower energy
        lo, hi = 1e-3, 10.0

        def residual(ys):
            tiny = 4.4e-16 if np.ndim(ys) == 0 else -4.4e-16
            return (hi - ys) / hi + np.where(ys == hi, tiny, 0.0)

        fn = Functional(1.0, 0.0, lambda m: 5.0 if m > 0.0 else 0.1, residual,
                        lambda ys: 0.5 * ys, (lo, hi))
        m, e, dt = fn.minimize()
        assert (m, dt) == (math.sqrt(0.75), 5.0)
        assert e == pytest.approx(-0.625, rel=1e-15)

    def test_delocalized_phase(self):
        p = params(0.5 * ALPHA_C_NUM)
        sol = minimize_energy(p)
        assert sol.sz == 0.0
        dt = Functional.of(p).dt(0.0)
        assert sol.sx == pytest.approx(dt / p.delta, rel=1e-12)
        # dense grid confirms the minimum sits at m = 0
        grid = np.linspace(0.0, 0.999, 500)
        energies = [Functional.of(p).energy(m) for m in grid]
        assert int(np.argmin(energies)) == 0

    def test_localized_phase(self):
        p = params(1.5 * ALPHA_C_NUM)
        sol = minimize_energy(p)
        assert sol.sz > 0.1
        assert sol.energy < Functional.of(p).energy(0.0)
        grid = np.linspace(0.0, 0.999, 800)
        oracle_m = grid[int(np.argmin([Functional.of(p).energy(m) for m in grid]))]
        assert sol.sz == pytest.approx(oracle_m, abs=2e-3)

    def test_square_root_growth(self):
        m1 = minimize_energy(params(ALPHA_C_NUM * (1 + 1e-3))).sz
        m4 = minimize_energy(params(ALPHA_C_NUM * (1 + 4e-3))).sz
        assert m4 / m1 == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("s, omega_c", [(0.3, 10.0), (0.1, 100.0)])
    def test_mean_field_exponent_down_to_reduced_coupling_1e_5(self, s, omega_c):
        # beta = 1/2 makes the ratio 10^(-1/2); at reduced coupling 1e-5 the
        # magnetized minimum undercuts m = 0 by only ~4e-11 of the energy
        alpha_c = critical_coupling_numeric(s, DELTA, omega_c)
        m_5, m_4 = (minimize_energy(params(alpha_c * (1.0 + r), s=s, omega_c=omega_c)).sz
                    for r in (1e-5, 1e-4))
        assert m_5 / m_4 == pytest.approx(10.0**-0.5, rel=1e-3)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.4])
    def test_magnetization_resolved_next_to_the_transition(self, s):
        # the energy is flat in m here, but M is a root of the stationarity
        # equation, so a last-bit change of alpha moves it only by rounding
        alpha_c = critical_coupling_numeric(s, DELTA, WC)
        for reduced in (1e-4, 1e-3):
            alpha = alpha_c * (1.0 + reduced)
            m = minimize_energy(params(alpha, s=s)).sz
            assert m > 0.0
            for _ in range(3):
                alpha = math.nextafter(alpha, math.inf)
                assert minimize_energy(params(alpha, s=s)).sz == pytest.approx(m, rel=1e-10)

    def test_minimum_next_to_full_polarization_is_found(self):
        # a 4-mode Gauss bath whose largest-root branch dips below the m = 0
        # energy only at m ~ 0.979; a 2001-point grid on [0.9, 1] confirms it
        p = ModelParams(s=0.3913257300935681, alpha=0.2574701735381716, delta=1.0, omega_c=10.0)
        fn = Functional.measures(p.delta, *bath_as_measures(discretize_bath(p, 4)))
        m, e, dt = fn.minimize()
        assert m == pytest.approx(0.9789521287, abs=1e-8)
        assert e == pytest.approx(-2.5564453459, abs=1e-10)
        assert e < fn.energy(0.0) - 3e-4
        grid = np.linspace(0.9, 1.0, 2001)
        assert e <= min(fn.energy(m) for m in grid.tolist())
        assert dt == fn.dt(m)

    def test_collapsed_tunneling_is_full_localization(self):
        # past alpha ~ 1e3 the tunneling collapses at every m: every m has the
        # static energy, and the state is the fully localized one, not m = 0
        sol = minimize_energy(params(1e100))
        assert (sol.sz, sol.sx, sol.entanglement) == (1.0, 0.0, 0.0)
        assert sol.state.delta_tilde == 0.0
        assert sol.energy == Functional.of(params(1e100)).static
        ms = [minimize_energy(params(10.0**k)).sz for k in range(1, 201)]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        assert ms[-1] == 1.0

    def test_scaling_functional_route(self):
        p = params(0.001, omega_c=1000.0)
        sol = minimize_energy(p, functional="scaling")
        assert sol.sz == 0.0
        assert sol.energy == pytest.approx(Functional.of(p, "scaling").energy(0.0), rel=1e-12)


class TestObservables:
    def test_delocalized_entropy(self):
        p = params(0.02)
        sol = minimize_energy(p)
        r = sol.sx
        want = -sum(x * math.log2(x) for x in ((1 + r) / 2, (1 - r) / 2))
        assert sol.entanglement == pytest.approx(want, rel=1e-12)
        assert 0.0 <= sol.entanglement <= 1.0
        assert sol.occupation_finite

    def test_fully_localized_product_state(self):
        st = VariationalState(1.0, 0.0)
        p = params(0.2)
        sol = observables(st, p, energy=static_shift_energy(p))
        assert sol.sx == 0.0
        assert sol.entanglement == 0.0
        assert sol.crossover_scale == math.inf
        assert not sol.occupation_finite

    def test_crossover_scale(self):
        st = VariationalState(0.6, 0.8)
        sol = observables(st, params(0.05), energy=-1.0)
        assert sol.crossover_scale == pytest.approx(0.6 * 0.8 / math.sqrt(0.64), rel=1e-12)

    def test_sx_bounds(self):
        for alpha in (0.01, 0.04, 0.08):
            sol = minimize_energy(params(alpha))
            assert 0.0 <= sol.sx <= 1.0
            assert abs(sol.sz) <= 1.0


class TestOccupation:
    def test_delocalized_density_formula(self):
        p = params(0.03)
        dt = Functional.of(p).dt(0.0)
        st = VariationalState(0.0, dt)
        from subohmic.model import spectral_density

        w = np.array([0.05, 0.7, 4.0])
        want = spectral_density(w, p) / math.pi / (4.0 * (dt + w) ** 2)
        assert np.allclose(occupation_density(st, p, w), want, rtol=1e-12)

    def test_infrared_divergence_when_magnetized(self):
        p = params(0.05)
        st = VariationalState(0.5, Functional.of(p).dt(0.5))
        w_small = np.array([1e-6, 1e-5])
        n = occupation_density(st, p, w_small)
        ratio = n[1] / n[0]
        assert ratio == pytest.approx(10.0 ** (p.s - 2.0), rel=0.01)
        assert occupation_total(st, p) == math.inf

    def test_total_occupation_converged(self):
        p = params(0.03)
        dt = Functional.of(p).dt(0.0)
        st = VariationalState(0.0, dt)
        total = occupation_total(st, p)
        assert total > 0
        for order in (100, 200):
            rule = power_rule(p.s, p.omega_c, order,
                              2.0 * p.alpha * p.omega_c ** (1 - p.s))
            alt = float(np.dot(rule.weights, 0.25 / (dt + rule.nodes) ** 2))
            assert alt == pytest.approx(total, rel=1e-8)


class TestLandauAndSusceptibility:
    def test_free_limit_quarter_delta(self):
        fn = Functional.of(params(1e-14))
        assert fn.c1() == pytest.approx(DELTA / 4.0, rel=1e-6)
        assert landau_stencil(fn.branch)[0] == pytest.approx(-0.5, rel=1e-9)

    def test_c1_vanishes_at_critical_coupling(self):
        assert abs(Functional.of(params(ALPHA_C_NUM)).c1()) <= 1e-6 * DELTA

    def test_quartic_positive_at_criticality(self):
        _, _, c2 = landau_stencil(Functional.of(params(ALPHA_C_NUM)).branch)
        assert c2 > 0

    def test_susceptibility_monotone_growth(self):
        # chi = 1/(4 c1) grows toward the transition and has no finite
        # delocalized value beyond it
        c1s = [Functional.of(params(f * ALPHA_C_NUM)).c1() for f in (0.3, 0.6, 0.9, 0.99)]
        assert all(0.0 < b < a for a, b in zip(c1s, c1s[1:]))
        assert Functional.of(params(1.2 * ALPHA_C_NUM)).c1() < 0.0

    @pytest.mark.parametrize("kind", ["exact", "scaling"])
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.44])
    @pytest.mark.parametrize("omega_c", [10.0, 100.0])
    def test_c1_matches_stencil(self, kind, s, omega_c):
        # the closed form against the finite differences, whose rounding
        # error, amplified by 1/h^2, reaches a few 1e-7 relative at 0.99
        alpha_c = critical_coupling_numeric(s, DELTA, omega_c, kind)
        for ratio in (0.5, 0.99, 1.2):
            fn = Functional.of(params(ratio * alpha_c, s=s, omega_c=omega_c), kind)
            c1 = fn.c1()
            assert c1 == pytest.approx(landau_stencil(fn.branch)[1], rel=1e-6)
            assert (c1 > 0.0) == (ratio < 1.0)

    def test_c1_vanishes_where_tunneling_collapses(self):
        # the branch is the flat static energy there
        fn = Functional.of(params(0.12))
        assert fn.dt(0.0) == 0.0
        assert fn.c1() == 0.0 == landau_stencil(fn.branch)[1]

    def test_scaling_critical_coupling_is_lambert_w_of_closed_form(self):
        alpha_closed, _ = critical_coupling_closed(S, DELTA, WC)
        alpha_c = critical_coupling_numeric(S, DELTA, WC, "scaling")
        assert alpha_c * math.exp(-alpha_c) == pytest.approx(alpha_closed, rel=1e-14)
        assert abs(Functional.of(params(alpha_c), "scaling").c1()) <= 1e-14 * DELTA


class TestDomainErrors:
    def test_energy_rejects_m_outside(self):
        with pytest.raises(DomainError):
            Functional.of(params(0.05)).energy(1.5)
        with pytest.raises(DomainError):
            Functional.of(params(0.05), "bogus")
        with pytest.raises(DomainError):
            VariationalState(1.5, 0.5).f_pm(1.0)
