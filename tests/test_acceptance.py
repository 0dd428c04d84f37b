"""Acceptance suite: one test per contract criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live)."""

import math
import time

import numpy as np
import pytest

from subohmic.chain import chain_map, chain_occupations
from subohmic.cli import main as cli_main
from subohmic.critical import (
    critical_coupling_closed,
    critical_coupling_numeric,
    extract_exponents,
    sweep_alpha,
)
from subohmic.model import ModelParams, bath_measures, discretize_bath
from subohmic.numerics import fit_power_law, lambert_w0
from subohmic.oracle import (
    OracleConfig,
    ado_on_discrete,
    build_hamiltonian,
    discrete_critical_coupling,
    fidelity,
    ground_state,
)
from subohmic.variational import (
    Functional,
    minimize_energy,
    solve_delta_tilde_scaling,
    _overlap_integral,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def alpha_c_wc10():
    return {s: critical_coupling_numeric(s, 1.0, 10.0) for s in (0.1, 0.2, 0.3, 0.4)}


@pytest.fixture(scope="module")
def alpha_c_wc1000():
    return {s: critical_coupling_numeric(s, 1.0, 1000.0) for s in (0.1, 0.2, 0.3, 0.4)}


def test_criterion_01_lambert_w_property_suite():
    t0 = time.perf_counter()
    xs = np.concatenate([
        np.geomspace(1e-10, 1e6, 9000) ,
        -math.exp(-1.0) + np.geomspace(1e-10, math.exp(-1.0) * 0.999, 1000),
    ])
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "lambert-w", ok,
            f"worst residual {worst:.2e} over {xs.size} points in {elapsed:.2f}s")


def test_criterion_02_self_consistency_residuals():
    t0 = time.perf_counter()
    s, delta, wc = 0.3, 1.0, 10.0
    alpha_closed, _ = critical_coupling_closed(s, delta, wc)
    alphas = np.geomspace(0.1, 2.0, 20) * alpha_closed
    ms = np.linspace(0.0, 0.95, 20)
    worst_exact = worst_scaling = 0.0
    for alpha in alphas:
        p = ModelParams(s=s, alpha=float(alpha), delta=delta, omega_c=wc)
        mu0, _ = bath_measures(p)
        for m in ms:
            q = math.sqrt(1.0 - m * m)
            dt = Functional.of(p).dt(float(m))
            assert dt > 0.0
            rhs = delta * math.exp(-0.5 * _overlap_integral(dt, q, mu0))
            worst_exact = max(worst_exact, abs(dt - rhs) / dt)

            dts = solve_delta_tilde_scaling(float(m), p)
            assert dts > 0.0
            t = 1.0 - s
            big_c = (alpha * math.pi * s / math.sin(math.pi * s)) * (wc * q) ** t
            big_d = delta * math.exp(alpha / t)
            rhs_s = big_d * math.exp(-big_c * dts ** (-t))
            worst_scaling = max(worst_scaling, abs(dts - rhs_s) / dts)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-10 and worst_scaling <= 1e-10 and elapsed < 10.0
    _report(2, "self-consistency", ok,
            f"residuals exact {worst_exact:.2e} / scaling {worst_scaling:.2e} "
            f"on 20x20 grid in {elapsed:.1f}s")


def test_criterion_03_variational_bound(alpha_c_wc10):
    t0 = time.perf_counter()
    violations = []
    worst_gap_weak = 0.0
    for s in (0.2, 0.3, 0.4):
        ac = alpha_c_wc10[s]
        for L in (2, 3, 4):
            for factor in (0.3, 0.7, 1.5):
                p = ModelParams(s=s, alpha=factor * ac, delta=1.0, omega_c=10.0)
                bath = discretize_bath(p, L)
                cfg = OracleConfig(n_modes=L, n_boson=10)
                e_exact, _ = ground_state(build_hamiltonian(bath, p, cfg))
                e_ado, _ = ado_on_discrete(bath, p)
                if not e_exact <= e_ado + 1e-9:
                    violations.append((s, L, factor, e_exact, e_ado))
                if factor == 0.3:
                    worst_gap_weak = max(worst_gap_weak,
                                         (e_ado - e_exact) / abs(e_exact))
    elapsed = time.perf_counter() - t0
    ok = not violations and worst_gap_weak <= 0.02 and elapsed < 120.0
    _report(3, "variational-bound", ok,
            f"{len(violations)} violations, weak-coupling gap "
            f"{worst_gap_weak:.2%} in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def exponent_fits(alpha_c_wc10):
    fits = {}
    for s in (0.1, 0.2, 0.3, 0.4):
        t0 = time.perf_counter()
        ac = alpha_c_wc10[s]
        red = np.geomspace(1e-4, 1e-2, 12)
        alphas = np.sort(np.concatenate([ac * (1 - red), ac * (1 + red)]))
        table = sweep_alpha(s, 1.0, 10.0, alphas)
        beta, gamma = extract_exponents(table, ac)
        fits[s] = (beta, gamma, time.perf_counter() - t0)
    return fits


def test_criterion_04_order_parameter_exponent(exponent_fits):
    betas = {s: fit[0].exponent for s, fit in exponent_fits.items()}
    slowest = max(fit[2] for fit in exponent_fits.values())
    ok = all(abs(b - 0.5) <= 0.01 for b in betas.values()) and slowest < 60.0
    detail = ", ".join(f"s={s}: {b:.4f}" for s, b in sorted(betas.items()))
    _report(4, "beta=1/2", ok, f"{detail} (slowest {slowest:.1f}s)")


def test_criterion_05_susceptibility_exponent(exponent_fits):
    gammas = {s: fit[1].exponent for s, fit in exponent_fits.items()}
    ok = all(abs(g - 1.0) <= 0.02 for g in gammas.values())
    detail = ", ".join(f"s={s}: {g:.4f}" for s, g in sorted(gammas.items()))
    _report(5, "gamma=1", ok, detail)


def test_criterion_06_coherence_at_criticality(alpha_c_wc1000):
    t0 = time.perf_counter()
    worst = 0.0
    for s, ac in alpha_c_wc1000.items():
        p = ModelParams(s=s, alpha=ac, delta=1.0, omega_c=1000.0)
        sx_c = Functional.of(p).dt(0.0) / p.delta
        predicted = math.exp(-s / (2.0 * (1.0 - s)))
        worst = max(worst, abs(sx_c / predicted - 1.0))

    # derivative jump at s = 0.3: quadratic-fit slopes on both sides
    s = 0.3
    ac = alpha_c_wc1000[s]
    rel = np.array([2e-3, 4e-3, 6e-3, 8e-3, 1e-2])

    def sx_at(alpha):
        return minimize_energy(
            ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=1000.0)).sx

    sx_lo = [sx_at(ac * (1 - r)) for r in rel]
    sx_hi = [sx_at(ac * (1 + r)) for r in rel]

    def slope(rs, values):
        quad = np.polyfit(rs, values, 2)
        lin = np.polyfit(rs, values, 1)
        return quad[1], abs(quad[1] - lin[0])

    slope_lo, err_lo = slope(-rel[::-1], sx_lo[::-1])
    slope_hi, err_hi = slope(rel, sx_hi)
    jump = abs(slope_hi - slope_lo)
    continuous = abs(sx_lo[0] - sx_hi[0]) < 0.02
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and continuous and jump > 10.0 * (err_lo + err_hi)
    _report(6, "coherence-at-alpha_c", ok,
            f"sx_c off by {worst:.2%} max; slope jump {jump:.3f} vs "
            f"10x error {10 * (err_lo + err_hi):.3f} in {elapsed:.0f}s")


def test_criterion_07_entanglement_cusp(alpha_c_wc10):
    t0 = time.perf_counter()
    s = 0.3
    ac = alpha_c_wc10[s]
    steps = np.arange(-20, 21)
    alphas = ac * (1.0 + 1e-3 * steps)
    table = sweep_alpha(s, 1.0, 10.0, alphas)
    k = int(np.argmax(table.entanglement))
    off_by = abs(steps[k])
    elapsed = time.perf_counter() - t0
    ok = off_by <= 1
    _report(7, "entanglement-cusp", ok,
            f"argmax at {off_by} grid steps from alpha_c "
            f"(spacing 1e-3 alpha_c) in {elapsed:.0f}s")


def test_criterion_08_critical_coupling_conventions(alpha_c_wc1000):
    t0 = time.perf_counter()
    ratios = {}
    for s, ac in alpha_c_wc1000.items():
        closed, _ = critical_coupling_closed(s, 1.0, 1000.0)
        ratios[s] = ac / closed
    spread = max(ratios.values()) / min(ratios.values()) - 1.0

    s = 0.3
    scaled = []
    for wc in (1e2, 1e3, 1e4):
        ac = (alpha_c_wc1000[s] if wc == 1e3
              else critical_coupling_numeric(s, 1.0, wc))
        scaled.append(ac * wc ** (1.0 - s))
    law_dev = max(abs(a / b - 1.0) for a, b in zip(scaled, scaled[1:]))
    elapsed = time.perf_counter() - t0
    ok = spread <= 0.02 and law_dev <= 0.01
    detail = ", ".join(f"s={s_}: {r:.4f}" for s_, r in sorted(ratios.items()))
    _report(8, "alpha_c-conventions", ok,
            f"ratio num/closed {detail}; spread {spread:.2%}; "
            f"cutoff-scaling deviation {law_dev:.2%} in {elapsed:.0f}s")


def test_criterion_09_chain_occupation_asymptotics(alpha_c_wc10):
    t0 = time.perf_counter()
    results = []
    for s in (0.2, 0.3, 0.4):
        ac = alpha_c_wc10[s]
        p = ModelParams(s=s, alpha=1.2 * ac, delta=1.0, omega_c=10.0)
        sol = minimize_energy(p)
        assert sol.sz > 0.0
        rep = chain_map(p, 400)
        bare = chain_occupations(sol.state, p, rep)
        ns = np.arange(20, 201, dtype=float)
        fit = fit_power_law(ns, bare.n_av[20:201])
        disp = chain_occupations(sol.state, p, rep, m_frame=sol.state.m)
        tail_ratio = disp.n_av[200] / bare.n_av[200]
        decays = disp.n_av[200] < disp.n_av[5]
        results.append((s, fit.exponent, tail_ratio, decays))
    elapsed = time.perf_counter() - t0
    ok = (all(abs(expo - (1 - 2 * s)) <= 0.1 for s, expo, _, _ in results)
          and all(r < 0.01 and d for _, _, r, d in results)
          and elapsed < 60.0)
    detail = "; ".join(
        f"s={s}: exponent {expo:.3f} (want {1 - 2 * s:.1f}), "
        f"displaced tail {ratio:.1e}" for s, expo, ratio, _ in results)
    _report(9, "chain-occupations", ok, f"{detail} in {elapsed:.0f}s")


def test_criterion_10_fidelity_collapse():
    t0 = time.perf_counter()
    s, delta, wc, nb = 0.3, 1.0, 10.0, 6
    # reference transition of the largest scanned discretization; the
    # smaller baths are still delocalized there, which is the point: at
    # fixed coupling the ansatz overlap collapses once the growing system
    # crosses into the magnetized regime
    ac = discrete_critical_coupling(s, delta, wc, 5)
    fs = {}
    for factor in (1.2, 0.5):
        alpha = factor * ac
        p = ModelParams(s=s, alpha=alpha, delta=delta, omega_c=wc)
        row = []
        for L in (2, 3, 4, 5):
            bath = discretize_bath(p, L)
            cfg = OracleConfig(n_modes=L, n_boson=nb)
            _, vec = ground_state(build_hamiltonian(bath, p, cfg))
            _, state = ado_on_discrete(bath, p)
            row.append(fidelity(state, bath, vec, cfg).fidelity)
        fs[factor] = row
    monotone = all(b < a for a, b in zip(fs[1.2], fs[1.2][1:]))
    collapse = fs[1.2][-1] < 0.9
    weak_ok = all(f >= 0.99 for f in fs[0.5])
    elapsed = time.perf_counter() - t0
    ok = monotone and collapse and weak_ok and elapsed < 300.0
    above = ", ".join(f"{f:.4f}" for f in fs[1.2])
    below = ", ".join(f"{f:.4f}" for f in fs[0.5])
    _report(10, "fidelity-collapse", ok,
            f"F(L=2..5) at 1.2 alpha_c: {above}; at 0.5 alpha_c: {below} "
            f"in {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    jobs = [
        ["solve", "--s", "0.3", "--alpha", "0.02", "--delta", "1",
         "--omega-c", "10"],
        ["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
         "--alpha-grid", "0.01:0.04:4"],
        ["critical", "--s", "0.3", "--delta", "1", "--omega-c", "10"],
        ["phase-diagram", "--s-grid", "0.2:0.3:2", "--delta", "1",
         "--omega-c-list", "10"],
        ["chain", "--s", "0.3", "--alpha", "0.1", "--delta", "1",
         "--omega-c", "10", "--n-sites", "10"],
        ["chain", "--s", "0.3", "--alpha", "0.04", "--delta", "1",
         "--omega-c", "10", "--n-sites", "10", "--occupations"],
        ["oracle", "--s", "0.3", "--alpha", "0.015", "--delta", "1",
         "--omega-c", "10", "--n-modes", "2", "--n-boson", "5"],
        ["exponents", "--s", "0.3", "--delta", "1", "--omega-c", "10",
         "--points-per-side", "5"],
    ]
    mismatched = []
    for i, args in enumerate(jobs):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        assert cli_main(args + ["--output", str(a)]) == 0
        assert cli_main(args + ["--output", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatched.append(args[0])
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _report(11, "cli-determinism", ok,
            f"{len(jobs)} commands re-run byte-identical"
            + (f"; mismatches: {mismatched}" if mismatched else "")
            + f" in {elapsed:.0f}s")
