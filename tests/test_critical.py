import math

import numpy as np
import pytest

from subohmic.errors import DomainError
from subohmic.critical import (
    SweepTable,
    critical_coupling_closed,
    critical_coupling_numeric,
    critical_point,
    extract_exponents,
    phase_diagram,
    sweep_alpha,
)
from subohmic.model import ModelParams
from subohmic.numerics import FitResult, fit_power_law
from subohmic.variational import minimize_energy, solve_delta_tilde_scaling

S, DELTA, WC = 0.3, 1.0, 10.0

# pinned by this module's own 1e-8 bisection on first verified run
ALPHA_C_S03_WC10 = 0.032649799936969884
ALPHA_C_S04_WC10 = 0.05485655098845235


class TestClosedForm:
    def test_reference_value(self):
        alpha_c, dt_c = critical_coupling_closed(0.3, 1.0, 10.0)
        want = (math.sin(0.3 * math.pi) * math.exp(-0.15)
                / (2 * math.pi * 0.7)) * 0.1**0.7
        assert alpha_c == pytest.approx(want, rel=1e-14)
        assert alpha_c == pytest.approx(0.0315890, abs=5e-7)
        assert dt_c == pytest.approx(math.exp(-0.3 / 1.4), rel=1e-14)

    def test_small_s_linear_vanishing(self):
        values = [critical_coupling_closed(s, 1.0, 10.0)[0] for s in (1e-4, 2e-4)]
        assert values[1] / values[0] == pytest.approx(2.0, rel=1e-2)

    def test_cutoff_scaling_law(self):
        s = 0.3
        a1 = critical_coupling_closed(s, 1.0, 10.0)[0]
        a2 = critical_coupling_closed(s, 1.0, 20.0)[0]
        assert a1 / a2 == pytest.approx(2.0 ** (1 - s), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_coupling_closed(0.6, 1.0, 10.0)
        with pytest.raises(DomainError):
            critical_coupling_closed(0.3, -1.0, 10.0)


class TestNumericCoupling:
    def test_pinned_values(self):
        assert critical_coupling_numeric(0.3, 1.0, 10.0) == pytest.approx(
            ALPHA_C_S03_WC10, rel=1e-7)
        assert critical_coupling_numeric(0.4, 1.0, 10.0) == pytest.approx(
            ALPHA_C_S04_WC10, rel=1e-7)

    def test_transition_definition(self):
        ac = ALPHA_C_S03_WC10
        below = minimize_energy(ModelParams(s=S, alpha=0.999 * ac, delta=DELTA, omega_c=WC))
        above = minimize_energy(ModelParams(s=S, alpha=1.001 * ac, delta=DELTA, omega_c=WC))
        assert below.sz == 0.0
        assert above.sz > 1e-6

    def test_matches_closed_form_in_scaling_regime(self):
        ac_num = critical_coupling_numeric(0.3, 1.0, 1000.0)
        ac_closed = critical_coupling_closed(0.3, 1.0, 1000.0)[0]
        assert ac_num == pytest.approx(ac_closed, rel=0.01)

    def test_scaling_without_transition_is_a_domain_error(self):
        # alpha e^-alpha never reaches a closed form above 1/e
        with pytest.raises(DomainError, match="no c1 zero"):
            critical_coupling_numeric(0.45, 1.0, 0.3, functional="scaling")

    def test_critical_point_record(self):
        cp = critical_point(0.3, 1.0, 10.0)
        assert cp.alpha_c_numeric == pytest.approx(ALPHA_C_S03_WC10, rel=1e-7)
        assert 0.0 < cp.sx_c < 1.0
        assert cp.ratio == pytest.approx(1.0336, abs=2e-3)

    def test_critical_point_scaling_functional(self):
        # the critical tunneling comes from the same functional as alpha_c,
        # solved in units of omega_c
        cp = critical_point(0.3, 1.0, 10.0, functional="scaling")
        p_c = ModelParams(s=0.3, alpha=cp.alpha_c_numeric, delta=1.0, omega_c=10.0)
        assert cp.delta_tilde_c == solve_delta_tilde_scaling(0.0, p_c.in_cutoff_units()) * 10.0
        assert cp.sx_c == cp.delta_tilde_c


@pytest.fixture(scope="module")
def table():
    ac = ALPHA_C_S03_WC10
    alphas = ac * np.array([0.6, 0.8, 0.95, 1.0 - 1e-3, 1.0 + 1e-3,
                            1.02, 1.05, 1.1])
    return sweep_alpha(S, DELTA, WC, alphas)


@pytest.fixture(scope="module")
def solver_fits():
    ac = critical_coupling_numeric(S, DELTA, WC)
    red = np.geomspace(1e-4, 1e-2, 10)
    alphas = np.sort(np.concatenate([ac * (1 - red), ac * (1 + red)]))
    return sweep_alpha(S, DELTA, WC, alphas), ac


class TestSweep:
    def test_delocalized_rows_have_zero_m(self, table):
        ac = ALPHA_C_S03_WC10
        below = table.alphas < ac * (1 - 1e-4)
        assert np.all(table.m[below] == 0.0)

    def test_m_monotone_no_reentrance(self, table):
        assert np.all(np.diff(table.m) >= -1e-7)

    def test_no_hysteresis_stateless(self, table):
        again = sweep_alpha(S, DELTA, WC, table.alphas)
        assert np.array_equal(again.m, table.m)
        assert np.array_equal(again.energy, table.energy)

    def test_entanglement_peaks_at_transition(self, table):
        ac = ALPHA_C_S03_WC10
        k = int(np.argmax(table.entanglement))
        assert abs(table.alphas[k] - ac) <= 0.03 * ac

    def test_entanglement_monotone_around_transition(self, table):
        # grows all the way up to the transition, falls beyond it
        below = table.alphas <= ALPHA_C_S03_WC10
        assert np.all(np.diff(table.entanglement[below]) > 0)
        above = table.alphas >= ALPHA_C_S03_WC10 * 1.01
        assert np.all(np.diff(table.entanglement[above]) < 0)

    def test_order_of_limits(self, table):
        # c1 root vs first magnetized grid row agree within the grid spacing
        ac = ALPHA_C_S03_WC10
        first = table.alphas[np.flatnonzero(table.m > 1e-6)[0]]
        spacing = np.max(np.diff(table.alphas))
        assert abs(first - ac) <= spacing + 1e-12

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            sweep_alpha(S, DELTA, WC, [0.02, 0.01])

    def test_failed_row_recorded(self):
        # a negative coupling is outside the model's domain: that row alone fails
        out = sweep_alpha(S, DELTA, WC, [-0.01, 0.01])
        assert out.status == ["DomainError", "ok"]
        assert len(out.failures) == 1 and out.failures[0][0] == 0
        assert isinstance(out.failures[0][1], DomainError)
        assert math.isnan(out.m[0]) and out.m[1] == 0.0

    def test_overflowing_measure_is_a_row_error(self):
        # the energy bound -alpha omega_c / (2 s) is finite at 1e307, not at
        # 1e308; the rows before it are fully localized
        out = sweep_alpha(S, DELTA, WC, [1e306, 1e307, 1e308])
        assert out.status == ["ok", "ok", "DomainError"]
        assert np.all(out.m[:2] == 1.0) and np.all(np.isfinite(out.energy[:2]))
        assert "overflows" in str(out.failures[0][1])

    def test_status_of_a_table_built_directly(self):
        # one status per row, derived from the failures
        cols = {k: np.full(3, np.nan) for k in ("m", "sx", "entanglement", "energy", "c1")}
        table = SweepTable(alphas=np.array([0.01, 0.02, 0.03]), **cols)
        assert table.status == ["ok", "ok", "ok"]
        table = SweepTable(alphas=table.alphas, failures=[(1, DomainError("row 1"))], **cols)
        assert table.status == ["ok", "DomainError", "ok"]


class TestExponents:
    def test_synthetic_exact(self):
        red = np.geomspace(1e-4, 1e-2, 9)
        alphas = np.sort(np.concatenate([1.0 - red, 1.0 + red]))
        m = np.where(alphas > 1.0, np.sqrt(np.maximum(alphas - 1.0, 0.0)), 0.0)
        c1 = np.where(alphas < 1.0, 0.25 * (1.0 - alphas), -1.0)
        from subohmic.critical import SweepTable

        table = SweepTable(
            alphas=alphas, m=m, sx=np.ones_like(alphas),
            entanglement=np.zeros_like(alphas), energy=np.zeros_like(alphas),
            c1=c1)
        beta, gamma = extract_exponents(table, 1.0)
        assert beta.exponent == pytest.approx(0.5, abs=1e-12)
        assert gamma.exponent == pytest.approx(1.0, abs=1e-12)
        assert isinstance(beta, FitResult)

    def test_edge_rows_enter_for_any_last_bit_of_alpha_c(self):
        # couplings built as alpha_c (1 -/+ r) with r from exactly lo to hi;
        # the data wiggle off a power law, so a dropped row moves both fits
        from subohmic.critical import SweepTable

        red = np.geomspace(1e-4, 1e-2, 12)
        wiggle = np.exp(0.05 * np.sin(np.arange(red.size)))
        want_beta = fit_power_law(red, np.sqrt(red) * wiggle).exponent
        want_gamma = -fit_power_law(red, 1.0 / (red * wiggle)).exponent
        for base in np.geomspace(1e-3, 1.0, 25).tolist():
            alpha_c = base
            for _ in range(4):
                alpha_c = math.nextafter(alpha_c, math.inf)
                alphas = np.concatenate([alpha_c * (1 - red), alpha_c * (1 + red)])
                m = np.concatenate([np.zeros(red.size), np.sqrt(red) * wiggle])
                c1 = np.concatenate([0.25 * red * wiggle, -np.ones(red.size)])
                table = SweepTable(alphas=alphas, m=m, sx=np.ones_like(alphas),
                                   entanglement=np.zeros_like(alphas),
                                   energy=np.zeros_like(alphas), c1=c1)
                beta, gamma = extract_exponents(table, alpha_c)
                assert beta.exponent == pytest.approx(want_beta, rel=1e-9), alpha_c
                assert gamma.exponent == pytest.approx(want_gamma, rel=1e-9), alpha_c

    def test_solver_beta(self, solver_fits):
        table, ac = solver_fits
        beta, _ = extract_exponents(table, ac)
        assert beta.exponent == pytest.approx(0.5, abs=0.01)

    def test_solver_gamma(self, solver_fits):
        table, ac = solver_fits
        _, gamma = extract_exponents(table, ac)
        assert gamma.exponent == pytest.approx(1.0, abs=0.02)

    def test_window_halving_stability(self, solver_fits):
        table, ac = solver_fits
        beta_full, gamma_full = extract_exponents(table, ac, window=(1e-4, 1e-2))
        beta_half, gamma_half = extract_exponents(table, ac, window=(1e-4, 1e-3))
        assert abs(beta_full.exponent - beta_half.exponent) < 0.01
        assert abs(gamma_full.exponent - gamma_half.exponent) < 0.01

    def test_too_few_rows(self):
        from subohmic.critical import SweepTable

        table = SweepTable(
            alphas=np.array([1.1]), m=np.array([0.3]), sx=np.array([0.5]),
            entanglement=np.array([0.1]), energy=np.array([-1.0]),
            c1=np.array([-0.1]))
        with pytest.raises(DomainError):
            extract_exponents(table, 1.0)


class TestPhaseDiagram:
    def test_grid_shape_and_scaling(self):
        rows = phase_diagram([0.2, 0.3], 1.0, [10.0, 100.0])
        assert len(rows) == 4
        by_key = {(r["s"], r["omega_c"]): r for r in rows}
        for s in (0.2, 0.3):
            r10 = by_key[(s, 10.0)]
            r100 = by_key[(s, 100.0)]
            want = 10.0 ** -(1.0 - s)
            assert r100["alpha_c_closed"] / r10["alpha_c_closed"] == pytest.approx(
                want, rel=1e-12)
            # finite-cutoff corrections are still a few percent at omega_c = 10
            assert r100["alpha_c_numeric"] / r10["alpha_c_numeric"] == pytest.approx(
                want, rel=0.04)

    def test_monotone_in_s_and_cutoff(self):
        rows = phase_diagram([0.1, 0.2, 0.3, 0.4], 1.0, [10.0])
        acs = [r["alpha_c_numeric"] for r in rows]
        assert all(b > a for a, b in zip(acs, acs[1:]))

    def test_per_point_failure_recorded(self):
        rows = phase_diagram([0.3, 0.7], 1.0, [10.0])
        ok = [r for r in rows if not r["error"]]
        bad = [r for r in rows if r["error"]]
        assert len(ok) == 1 and len(bad) == 1
        assert math.isnan(bad[0]["alpha_c_numeric"])
        assert [r["status"] for r in rows] == ["ok", "DomainError"]
        assert isinstance(bad[0]["error"], DomainError)
