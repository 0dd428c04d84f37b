"""Property tests of the self-consistency kernel, the energy functional and
its minimizer, the continuum bath rules, the critical point, the
exact-diagonalization oracle and the Lambert W function.

The kernel is checked against an independent largest-root search written
here: a dense downward scan of ``g(u) = u - log(delta) + I(e^u)/2`` followed
by ``brentq`` on the first sign change.  Since ``g'(u) <= 1``, ``g`` cannot
fall by more than the scan spacing ``h`` between two samples, so a scan whose
samples all exceed ``h`` proves that no root was skipped; examples where that
proof fails, or where the root is too ill-conditioned to fix to 1e-12, are
discarded rather than compared.  The kernel's one step rule is checked on
its own: from any point above the largest root it must not pass that root.
"""

import contextlib
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from subohmic import variational
from subohmic.cli import main
from subohmic.critical import (_critical_root, critical_coupling_closed,
                               critical_coupling_numeric, critical_point)
from subohmic.errors import ConvergenceError, DomainError
from subohmic.model import (DiscretizedBath, ModelParams, bath_as_measures, bath_measures,
                            discretize_bath)
from subohmic.numerics import lambert_w0, power_rule_log
from subohmic.oracle import OracleConfig, ado_on_discrete, build_hamiltonian, ground_state
from subohmic.variational import (Functional, VariationalState, _q_of, _safe_step,
                                  _solve_delta_tilde, minimize_energy, static_shift_energy)

COLLAPSE = 1e-12
SCAN_STEP = 0.01
MIN_SLOPE = 0.05  # g'(u*) below this makes a 1e-12 comparison meaningless

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def _g(u, q, delta, nodes, weights):
    # vectorized over u; an independent evaluation of the log-space residual
    dt = np.exp(np.atleast_1d(u))[:, None]
    overlap = q * q * np.sum(weights / (dt + q * nodes) ** 2, axis=1)
    return np.atleast_1d(u) - math.log(delta) + 0.5 * overlap


def largest_root_reference(m, delta, rule):
    """``(dt, slope)`` of the largest root, ``(0, None)`` when it lies below
    ``1e-12 * delta``, or ``None`` when the scan cannot decide."""
    q = math.sqrt(1.0 - m * m)
    top = math.log(delta)
    bottom = top + math.log(COLLAPSE)
    us = np.arange(top, bottom - SCAN_STEP, -SCAN_STEP)
    gs = _g(us, q, delta, rule.nodes, rule.weights)
    negative = np.flatnonzero(gs < 0.0)
    k = int(negative[0]) if negative.size else us.size
    if np.any(gs[: max(k - 1, 0)] <= SCAN_STEP):
        return None  # a narrow dip between samples cannot be excluded
    if not negative.size:
        return 0.0, None
    root = brentq(lambda u: float(_g(u, q, delta, rule.nodes, rule.weights)[0]),
                  us[k], us[k - 1], xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200)
    if abs(root - bottom) < 1e-6:
        return None  # too close to the collapse threshold to call
    if root < bottom:
        return 0.0, None
    dt = math.exp(root)
    slope = 1.0 - q * q * dt * float(np.sum(rule.weights / (dt + q * rule.nodes) ** 3))
    return dt, slope


def assert_matches_reference(ms, delta, rule):
    checked = 0
    for m in ms:
        dt = _solve_delta_tilde(m, delta, rule)
        ref = largest_root_reference(m, delta, rule)
        if ref is None or (ref[1] is not None and ref[1] < MIN_SLOPE):
            continue
        checked += 1
        want, _ = ref
        if want == 0.0:
            assert dt == 0.0, (m, dt)
        else:
            assert dt == pytest.approx(want, rel=1e-12, abs=0.0), (m, dt, want)
    assume(checked > 0)


magnetizations = st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4)


@SETTINGS
@given(s=st.floats(0.1, 0.9), log_alpha=st.floats(math.log(1e-3), math.log(0.5)),
       omega_c=st.sampled_from([5.0, 10.0, 100.0]), ms=magnetizations)
def test_kernel_matches_reference_on_continuum(s, log_alpha, omega_c, ms):
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=omega_c)
    mu0, _ = bath_measures(p)
    assert_matches_reference(ms, p.delta, mu0)


@SETTINGS
@given(log_freqs=st.lists(st.floats(math.log(1e-3), math.log(20.0)), min_size=1, max_size=5,
                         unique=True),
       couplings=st.lists(st.floats(0.05, 4.0), min_size=5, max_size=5),
       delta=st.floats(0.1, 5.0), ms=magnetizations)
def test_kernel_matches_reference_on_discrete_baths(log_freqs, couplings, delta, ms):
    # strong low-frequency modes make g non-convex, with several root pairs
    w = np.exp(sorted(log_freqs))
    assume(np.all(np.diff(w) > 1e-9))
    mu0, _ = bath_as_measures(DiscretizedBath(w, np.array(couplings[: w.size])))
    assert_matches_reference(ms, delta, mu0)


def test_newton_step_across_a_root_pair_is_refused():
    # g < 0 only between the unstable root (dt ~ 0.012) and the largest one
    # (dt ~ 0.074).  A Newton step from log(delta), where g' ~ 0.13, lands
    # below both, where g > 0 again, and a descent that took it would end at
    # the collapsed root; the safe step must stop short of the largest root.
    bath = DiscretizedBath(
        np.array([0.004514939543181209, 0.3699824738469502, 2.566882354559983,
                  3.2548522096444885]),
        np.array([0.03128668083909647, 0.014544969437564044, 7.106703091794307,
                  0.020152835687044447]))
    mu0, _ = bath_as_measures(bath)
    delta, m = 2.9665669455427133, 0.19392190592330333
    want, slope = largest_root_reference(m, delta, mu0)
    assert want > 0.0 and slope > MIN_SLOPE
    assert _solve_delta_tilde(m, delta, mu0) == pytest.approx(want, rel=1e-12)


def test_root_above_the_collapse_floor_is_returned():
    # one mode, w = 1 and g^2 = 46, at m = 0: I = 46/(1 + dt)^2 puts the
    # largest root at dt ~ e^-23 ~ 1.03e-10, above 1e-12 delta, so it is kept
    mu0, _ = bath_as_measures(DiscretizedBath(np.array([1.0]), np.array([math.sqrt(46.0)])))
    dt = _solve_delta_tilde(0.0, 1.0, mu0)
    assert dt > 0.0
    big_i = float(np.sum(mu0.weights / (dt + mu0.nodes) ** 2))
    assert abs(dt - math.exp(-0.5 * big_i)) <= 1e-12 * dt, dt


def assert_safe_step_keeps_g_nonnegative(q, delta, rule, log_offset):
    # from any u with g(u) > 0 the step may not reach a point with g < 0, up
    # to the rounding of both ends; u is drawn just above the kernel's root,
    # where the step's lower bound on g is tightest
    log_delta = math.log(delta)

    def g_k_scale(u):
        dt = math.exp(u)
        den = dt + q * rule.nodes
        big_i = q * q * float(np.sum(rule.weights / den**2))
        k = q * q * dt * float(np.sum(rule.weights / den**3))
        return u - log_delta + 0.5 * big_i, k, abs(u) + abs(log_delta) + 0.5 * big_i

    root = _solve_delta_tilde(math.sqrt((1.0 - q) * (1.0 + q)), delta, rule)
    u = (math.log(root) if root > 0.0 else log_delta - 40.0) + math.exp(log_offset)
    g, k, scale = g_k_scale(u)
    assume(g > 0.0)
    step = _safe_step(g, k)
    assert step > 0.0
    for t in np.linspace(0.0, 1.0, 17)[1:].tolist():
        g_t, _, scale_t = g_k_scale(u - t * step)
        assert g_t >= -8.0 * np.finfo(float).eps * (scale + scale_t), (t, g_t)


log_qs = st.floats(math.log(1e-4), 0.0)
log_offsets = st.floats(math.log(1e-14), math.log(30.0))


@SETTINGS
@given(s=st.floats(0.1, 0.9), log_alpha=st.floats(math.log(1e-3), math.log(0.5)),
       omega_c=st.sampled_from([5.0, 10.0, 100.0]), log_q=log_qs, log_offset=log_offsets)
def test_safe_step_stays_above_the_root_on_continuum(s, log_alpha, omega_c, log_q, log_offset):
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=omega_c)
    assert_safe_step_keeps_g_nonnegative(math.exp(log_q), p.delta, bath_measures(p)[0],
                                         log_offset)


@SETTINGS
@given(log_freqs=st.lists(st.floats(math.log(1e-3), math.log(20.0)), min_size=1, max_size=6,
                         unique=True),
       couplings=st.lists(st.floats(0.05, 4.0), min_size=6, max_size=6),
       delta=st.floats(0.1, 5.0), log_q=log_qs, log_offset=log_offsets)
def test_safe_step_stays_above_the_root_on_discrete_baths(log_freqs, couplings, delta, log_q,
                                                          log_offset):
    w = np.exp(sorted(log_freqs))
    assume(np.all(np.diff(w) > 1e-9))
    mu0, _ = bath_as_measures(DiscretizedBath(w, np.array(couplings[: w.size])))
    assert_safe_step_keeps_g_nonnegative(math.exp(log_q), delta, mu0, log_offset)


def _traffic_rows():
    # the kernel's inputs, row by row, as the benchmark's commands make them:
    # minimize_energy and critical_point at s in [0.1, 0.45], omega_c 10 or
    # 100 and alpha in [0.5, 2] alpha_c (interactive-mix: 14 minimizations
    # to 2 critical points a block; critical_point solves for its critical
    # tunneling by a root of its own and adds no kernel rows), ado_on_discrete
    # on 4- and 5-mode discretize_bath baths at omega_c = 10 and alpha in
    # [0.3, 1.5] alpha_c (oracle-ed); see perfbench/workloads.py
    seen, solve = [], variational._solve_delta_tilde

    def recording(m, delta, mu0):
        seen.append((m, delta, mu0))
        return solve(m, delta, mu0)

    rng = np.random.default_rng(11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "_solve_delta_tilde", recording)
        for k in range(28):
            s, omega_c = rng.uniform(0.1, 0.45), (10.0, 100.0)[k % 2]
            alpha = rng.uniform(0.5, 2.0) * critical_coupling_closed(s, 1.0, omega_c)[0]
            minimize_energy(ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=omega_c))
        for k in range(4):
            critical_point(rng.uniform(0.1, 0.45), 1.0, (10.0, 100.0)[k % 2])
        for n_modes in (4, 4, 5, 4, 4, 5):
            s = rng.uniform(0.1, 0.45)
            alpha = rng.uniform(0.3, 1.5) * critical_coupling_closed(s, 1.0, 10.0)[0]
            p = ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=10.0)
            ado_on_discrete(discretize_bath(p, n_modes), p)
    return seen


def _iterations_to_converge(m, delta, mu0, cap=64):
    with pytest.MonkeyPatch.context() as mp:
        for n in range(1, cap + 1):
            mp.setattr(variational, "_FIXED_POINT_MAX_ITER", n)
            try:
                _solve_delta_tilde(m, delta, mu0)
                return n
            except ConvergenceError:
                pass
    pytest.fail(f"_solve_delta_tilde did not converge in {cap} iterations at m={m!r}, "
                f"delta={delta!r}, {mu0.nodes.size} nodes")


# Iterations the kernel needs on _traffic_rows, summed: each row counts the
# smallest iteration cap at which it converges.  Lower it when the kernel improves.
WORK_TOTAL = 248


def test_kernel_iteration_total_within_record():
    rows = _traffic_rows()
    assert len(rows) >= 50
    total = sum(_iterations_to_converge(*row) for row in rows)
    assert total <= WORK_TOTAL


@SETTINGS
@given(s=st.floats(0.1, 0.9), log_alpha=st.floats(math.log(1e-3), math.log(0.5)),
       omega_c=st.sampled_from([5.0, 10.0, 100.0]), m=st.floats(1e-6, 0.999))
def test_energies_are_bitwise_even(s, log_alpha, omega_c, m):
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=omega_c)
    fn = Functional.of(p)
    assert fn.energy(-m) == fn.energy(m)
    assert fn.branch(-m) == fn.branch(m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.floats(0.02, 0.98), log_omega_c=st.floats(0.0, math.log(1e3)),
       log_alpha=st.floats(math.log(1e-3), 0.0))
def test_static_is_the_energy_at_full_polarization(s, log_omega_c, log_alpha):
    # minimize offers no m = 1 candidate, since energy(+-1) is static, which
    # every energy value already lies at or below; for the exact functional
    # the quadrature static is the closed form to within a few ulp
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=math.exp(log_omega_c))
    exact = Functional.of(p)
    want = static_shift_energy(p)
    assert abs(exact.static - want) <= 1e-14 * abs(want), (exact.static, want)
    scaling = Functional.of(p, "scaling")
    assert scaling.static == want
    discrete = Functional.measures(p.delta, *bath_as_measures(discretize_bath(p, 4)))
    for fn in (exact, scaling, discrete):
        assert fn.energy(1.0) == fn.energy(-1.0) == fn.static


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.floats(0.02, 0.98), log_alpha=st.floats(math.log(1e-6), math.log(100.0)),
       log_delta=st.floats(math.log(1e-2), math.log(1e2)),
       log_omega_c=st.floats(math.log(0.5), math.log(1e3)), m=st.floats(0.0, 1.0))
def test_exact_functional_gives_a_spin_state(s, log_alpha, log_delta, log_omega_c, m):
    # dt <= delta makes r = |(sx, sz)| <= 1 for the full functional, at the
    # minimum and at any m, over the CLI fuzz ranges; observables raises
    # past 1 + 1e-12, which only the wide-band tunneling reaches
    delta = math.exp(log_delta)
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=delta, omega_c=math.exp(log_omega_c))
    fn = Functional.of(p)
    for m_k, dt in (fn.minimize()[::2], (m, fn.dt(m))):
        r = math.hypot(_q_of(m_k) * dt / delta, m_k)
        assert r <= 1.0 + 1e-12, (m_k, dt, r)


def shape_energy(m, dt, delta, mu0, mu_m1):
    """ADO energy of the optimal shapes at ``(m, dt)``, from the shapes: the
    true branch overlap and the bath terms in ``u = w phi`` against ``dmu/w``."""
    q = math.sqrt(1.0 - m * m)
    overlap = math.exp(-0.5 * q * q * float(np.sum(mu0.weights / (dt + q * mu0.nodes) ** 2)))
    w = mu_m1.nodes
    u_p = -(m * dt + q * w) / (2.0 * (dt + q * w))
    u_m = -(m * dt - q * w) / (2.0 * (dt + q * w))
    return (-0.5 * q * delta * overlap
            + 0.5 * (1.0 + m) * float(np.dot(mu_m1.weights, u_p * (1.0 + u_p)))
            - 0.5 * (1.0 - m) * float(np.dot(mu_m1.weights, u_m * (1.0 - u_m))))


def wide_band_energy(m, dt, p):
    # -dt q/2 - alpha omega_c/(2s) + [alpha pi omega_c (1-s) q^2 / (2 sin pi s)] (dt/(omega_c q))^s
    q = math.sqrt(1.0 - m * m)
    a = p.alpha * math.pi * p.omega_c * (1.0 - p.s) / (2.0 * math.sin(math.pi * p.s))
    return (-0.5 * dt * q - p.alpha * p.omega_c / (2.0 * p.s)
            + a * q * q * (dt / (p.omega_c * q)) ** p.s)


def assert_branch_matches(fn, ms, energy_at):
    # the branch is static minus a correction, so its rounding is relative to
    # |static| where the correction cancels most of it (branch far above
    # static, never the energy there) and to |branch| wherever it wins
    for m in ms:
        dt, got = fn.dt(m), fn.branch(m)
        if dt == 0.0:
            assert got == fn.static
        else:
            want = energy_at(m, dt)
            assert abs(got - want) <= 1e-13 * max(abs(want), abs(fn.static)), (m, got, want)


@SETTINGS
@given(s=st.floats(0.1, 0.9), log_alpha=st.floats(math.log(1e-3), math.log(0.5)),
       omega_c=st.sampled_from([5.0, 10.0, 100.0, 1000.0]), ms=magnetizations)
def test_branch_is_the_shape_energy_on_continuum(s, log_alpha, omega_c, ms):
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=omega_c)
    mu0, mu_m1 = bath_measures(p)
    assert_branch_matches(Functional.of(p), ms,
                          lambda m, dt: shape_energy(m, dt, p.delta, mu0, mu_m1))
    assert_branch_matches(Functional.of(p, "scaling"), ms, lambda m, dt: wide_band_energy(m, dt, p))


@SETTINGS
@given(log_freqs=st.lists(st.floats(math.log(1e-3), math.log(20.0)), min_size=1, max_size=6,
                         unique=True),
       couplings=st.lists(st.floats(0.05, 4.0), min_size=6, max_size=6),
       delta=st.floats(0.1, 5.0), ms=magnetizations)
def test_branch_is_the_shape_energy_on_discrete_baths(log_freqs, couplings, delta, ms):
    w = np.exp(sorted(log_freqs))
    assume(np.all(np.diff(w) > 1e-9))
    mu0, mu_m1 = bath_as_measures(DiscretizedBath(w, np.array(couplings[: w.size])))
    assert_branch_matches(Functional.measures(delta, mu0, mu_m1), ms,
                          lambda m, dt: shape_energy(m, dt, delta, mu0, mu_m1))


@SETTINGS
@given(s=st.floats(0.1, 0.9), log_alpha=st.floats(math.log(1e-3), math.log(0.5)),
       max_iter=st.integers(1, 3), ms=magnetizations)
def test_exhausted_iterations_raise(s, log_alpha, max_iter, ms):
    # with too few iterations the kernel raises; whatever it returns is the
    # fully converged answer
    p = ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0, omega_c=10.0)
    mu0, _ = bath_measures(p)
    for m in ms:
        full = _solve_delta_tilde(m, p.delta, mu0)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(variational, "_FIXED_POINT_MAX_ITER", max_iter)
                short = _solve_delta_tilde(m, p.delta, mu0)
        except ConvergenceError as exc:
            assert "residual" in str(exc)
        else:
            assert short == full


def test_one_iteration_is_not_enough(monkeypatch):
    p = ModelParams(s=0.3, alpha=0.03, delta=1.0, omega_c=10.0)
    mu0, _ = bath_measures(p)
    monkeypatch.setattr(variational, "_FIXED_POINT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="residual"):
        _solve_delta_tilde(0.2, p.delta, mu0)


def assert_minimum_is_its_own_energy(fn):
    # minimize scores each candidate as energy(m) does, so the returned
    # energy and tunneling are those of its m, bit for bit
    m, e, dt = fn.minimize()
    assert e == fn.energy(m), (m, e, fn.energy(m))
    assert dt == fn.dt(m), (m, dt, fn.dt(m))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.floats(0.1, 0.45), ratio=st.floats(0.5, 2.0), omega_c=st.sampled_from([10.0, 100.0]),
       kind=st.sampled_from(["exact", "scaling", 2, 3, 4, 5, 6]))
def test_minimum_is_its_own_energy(s, ratio, omega_c, kind):
    # the benchmark's ranges: exact, wide-band and 2-6-mode discrete functionals
    alpha = ratio * critical_coupling_closed(s, 1.0, omega_c)[0]
    p = ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=omega_c)
    if isinstance(kind, int):
        fn = Functional.measures(p.delta, *bath_as_measures(discretize_bath(p, kind)))
    else:
        fn = Functional.of(p, kind)
    assert_minimum_is_its_own_energy(fn)


def test_minimum_is_its_own_energy_at_a_last_bit_split():
    # scoring the candidates in one multi-row product would put this energy 1 ulp off energy(m)
    p = ModelParams(s=0.15121709941536948, alpha=0.017432696010010445, delta=1.0, omega_c=10.0)
    assert_minimum_is_its_own_energy(Functional.of(p))


# 4001 uniform points plus a geometric ladder in q = sqrt(1 - m^2) down to
# q = 1e-4, where strongly coupled discrete baths develop narrow wells
DENSE_M = np.unique(np.concatenate([np.linspace(0.0, 1.0, 4001),
                                    np.sqrt(1.0 - np.geomspace(1e-4, 1.0, 17)[:-1] ** 2)]))


def assert_minimum_undercuts_dense_grid(fn):
    m, e, dt = fn.minimize()
    assert e <= min(fn.energy(x) for x in DENSE_M.tolist()) + 1e-12 * abs(e), (m, e)
    assert dt == fn.dt(m)


@SETTINGS
@given(s=st.floats(0.1, 0.45), omega_c=st.sampled_from([5.0, 10.0, 100.0]),
       ratio=st.floats(0.3, 8.0), kind=st.sampled_from(["exact", "scaling"]))
def test_minimum_undercuts_dense_grid_on_continuum(s, omega_c, ratio, kind):
    alpha = ratio * critical_coupling_closed(s, 1.0, omega_c)[0]
    assert_minimum_undercuts_dense_grid(
        Functional.of(ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=omega_c), kind))


@SETTINGS
@given(log_freqs=st.lists(st.floats(math.log(1e-3), math.log(20.0)), min_size=1, max_size=5,
                         unique=True),
       couplings=st.lists(st.floats(0.05, 4.0), min_size=5, max_size=5),
       delta=st.floats(0.1, 5.0))
def test_minimum_undercuts_dense_grid_on_discrete_baths(log_freqs, couplings, delta):
    w = np.exp(sorted(log_freqs))
    assume(np.all(np.diff(w) > 1e-9))
    mu0, mu_m1 = bath_as_measures(DiscretizedBath(w, np.array(couplings[: w.size])))
    assert_minimum_undercuts_dense_grid(Functional.measures(delta, mu0, mu_m1))


def test_minimum_between_close_stationary_points():
    # the mode at w = 1 alone would peak its term of Phi(y) at exactly 1; the
    # mode at w = 20 lifts it into two roots of Phi = 1 a factor ~1.4 apart in
    # y, which a y grid of four or fewer points per decade puts in one cell;
    # the global minimum is the magnetized one
    bath = DiscretizedBath(np.array([1.0, 20.0]), np.array([2.0, 7.2]))
    fn = Functional.measures(1.6, *bath_as_measures(bath))
    ys = np.geomspace(0.1, 10.0, 20001)
    r = fn._residual(ys)
    roots = ys[np.flatnonzero(np.signbit(r[:-1]) != np.signbit(r[1:]))]
    assert roots.size == 2 and roots[1] / roots[0] < 2.0
    assert_minimum_undercuts_dense_grid(fn)
    m, e, _ = fn.minimize()
    assert m > 0.5 and e < fn.energy(0.0) - 1e-4


def test_minimum_between_stationary_points_in_one_coarse_grid_cell():
    # the mode at w = 26 lifts the w = 1 mode's term of Phi(y), which peaks
    # at exactly 1, into two roots of Phi = 1 a factor 1.34 apart: one cell
    # of a 5-per-decade y grid over the span holds both, so its residual
    # shows no sign change there, and the 8-per-decade grid splits them,
    # each root at least 0.17 of a cell from a grid point
    bath = DiscretizedBath(np.array([1.0, 26.0]), np.array([2.0, 10.0]))
    fn = Functional.measures(1.7, *bath_as_measures(bath))
    ys = np.geomspace(0.1, 10.0, 20001)
    r = fn._residual(ys)
    roots = ys[np.flatnonzero(np.signbit(r[:-1]) != np.signbit(r[1:]))]
    assert roots.size == 2

    def cells(per_decade):
        lo, hi = fn._span
        grid = np.geomspace(lo, hi, 2 + int(per_decade * (math.log10(hi) - math.log10(lo))))
        return np.searchsorted(grid, roots).tolist()

    assert cells(5)[0] == cells(5)[1] and cells(8)[0] != cells(8)[1]
    assert_minimum_undercuts_dense_grid(fn)
    m, e, _ = fn.minimize()
    assert m > 0.4 and e < fn.energy(0.0) - 2e-4


def _cli_payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    if not text.startswith("#"):
        return code, json.loads(text) if text else None
    header, *rows = (line.split(",") for line in text.splitlines()[1:])
    return code, {name: [row[i] for row in rows] for i, name in enumerate(header)}


# fields whose rounding is absolute: a fit's log-space misfit, which is a
# relative misfit of its data already, and the oracle's truncated norm 1 - |v|^2
_ABSOLUTE = ("beta_residual", "gamma_residual", "truncation_loss")


def _assert_same_numbers(a, b, scale_free, where):
    # JSON fields one by one, to 1e-10 relative (absolute for _ABSOLUTE); CSV
    # columns against their largest magnitude, since an occupation tail
    # reaches the chain rule's cancellation noise
    assert a.keys() == b.keys(), where
    for key, x in a.items():
        y = b[key]
        if isinstance(x, list):
            try:
                xs, ys = np.array(x, dtype=float), np.array(y, dtype=float)
            except ValueError:  # the status column
                assert x == y, (where, key)
                continue
            tol = 1e-10 * np.max(np.abs(xs))
            assert np.all(np.abs(xs - ys) <= tol), (where, key, xs, ys)
        elif isinstance(x, float) and not isinstance(x, bool):
            if key in scale_free:
                y = y / scale_free[key]
            tol = {"abs": 1e-10} if key in _ABSOLUTE else {"rel": 1e-10, "abs": 0.0}
            assert y == pytest.approx(x, **tol), (where, key)
        else:
            assert x == y, (where, key)


@SETTINGS
@given(s=st.floats(0.1, 0.45), ratio=st.floats(2.0, 1e3), log_scale=st.floats(-7.0, 7.0),
       f=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)),
       frame=st.sampled_from(["bare", "displaced"]))
def test_outputs_are_invariant_under_scaling_delta_and_omega_c(s, ratio, log_scale, f, frame):
    # (delta, omega_c) -> lam (delta, omega_c) at fixed s and alpha scales the
    # Hamiltonian by lam: every output in units of delta and omega_c stays.
    # The coupling keeps 10% from alpha_c, where M = sqrt(1 - q^2) turns
    # ill-conditioned (its relative rounding grows like eps / (1 - q))
    lam = math.exp(log_scale)
    alpha_c = critical_coupling_numeric(s, 1.0, ratio)
    a = repr(f * alpha_c)
    commands = (
        ["solve", "--alpha", a],
        ["critical"],
        ["sweep", "--alpha-grid", f"{0.6 * alpha_c!r}:{1.6 * alpha_c!r}:3"],
        ["exponents", "--points-per-side", "3"],
        ["oracle", "--alpha", a, "--n-modes", "2", "--n-boson", "3"],
        ["chain", "--alpha", a, "--n-sites", "12", "--occupations", "--frame", frame],
    )
    for argv in commands:
        base = _cli_payload([*argv, "--s", repr(s), "--delta", "1.0", "--omega-c", repr(ratio)])
        scaled = _cli_payload([*argv, "--s", repr(s), "--delta", repr(lam),
                               "--omega-c", repr(ratio * lam)])
        assert base[0] == 0 and scaled[0] == 0, (argv, base, scaled)
        _assert_same_numbers(base[1], scaled[1], {"delta": lam, "omega_c": lam}, argv)


@SETTINGS
@given(s=st.floats(0.05, 0.49), log_ratio=st.floats(math.log(2.0), math.log(1e4)),
       delta=st.floats(0.1, 10.0))
def test_critical_root_is_the_sign_change_of_c1(s, log_ratio, delta):
    omega_c = delta * math.exp(log_ratio)
    alpha_c, d = _critical_root(s, delta, omega_c)
    # the root is the largest fixed point at alpha_c, not another one
    p_c = ModelParams(s=s, alpha=alpha_c, delta=delta, omega_c=omega_c)
    assert d == pytest.approx(Functional.of(p_c).dt(0.0), rel=1e-12, abs=0.0)
    for kind in ("exact", "scaling"):
        alpha_c = critical_coupling_numeric(s, delta, omega_c, kind)
        c1 = [Functional.of(ModelParams(s=s, alpha=alpha_c * f, delta=delta, omega_c=omega_c),
                            kind).c1() for f in (1.0 - 1e-6, 1.0 + 1e-6)]
        assert c1[0] > 0.0 > c1[1], (kind, c1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.floats(0.05, 0.49), log_omega_c=st.floats(0.0, math.log(1e3)),
       log_delta=st.floats(math.log(0.1), math.log(10.0)))
def test_critical_tunneling_is_the_functional_dt(s, log_omega_c, log_delta):
    # critical_point reports the d of its own root, solving no second dt(0)
    delta, omega_c = math.exp(log_delta), math.exp(log_omega_c)
    cp = critical_point(s, delta, omega_c)
    p_c = ModelParams(s=s, alpha=cp.alpha_c_numeric, delta=delta, omega_c=omega_c)
    want = Functional.of(p_c).dt(0.0)
    assert abs(cp.delta_tilde_c - want) <= 1e-14 * want, (cp.delta_tilde_c, want)
    assert cp.sx_c == cp.delta_tilde_c / delta


def _power_moment(sigma, k, y, omega_c):
    # int_0^omega_c w^sigma (y + w)^-k dw, from Euler's integral of 2F1 at 30 digits
    with mpmath.workdps(30):
        a = mpmath.mpf(sigma) + 1
        return float(mpmath.mpf(omega_c) ** a / (a * mpmath.mpf(y) ** k)
                     * mpmath.hyp2f1(k, a, a + 1, -mpmath.mpf(omega_c) / y))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=st.floats(0.02, 0.95), log_eta=st.floats(math.log(1e-7), math.log(1e3)),
       log_omega_c=st.floats(0.0, math.log(1e3)), log_alpha=st.floats(math.log(1e-3), 0.0),
       k=st.sampled_from([2, 3]))
def test_bath_rules_match_hypergeometric_moments(s, log_eta, log_omega_c, log_alpha, k):
    # both rules of the continuum pair, for a pole at y = eta omega_c anywhere
    # in the range the log rule covers: dmu (w^s) and dmu/w (w^(s-1)), with
    # dmu = 2 alpha omega_c^(1-s) w^s dw
    omega_c, alpha = math.exp(log_omega_c), math.exp(log_alpha)
    y = math.exp(log_eta) * omega_c
    pair = bath_measures(ModelParams(s=s, alpha=alpha, delta=1.0, omega_c=omega_c))
    for sigma, rule in zip((s, s - 1.0), pair):
        got = float(np.dot(rule.weights, 1.0 / (y + rule.nodes) ** k))
        want = 2.0 * alpha * omega_c ** (1.0 - s) * _power_moment(sigma, k, y, omega_c)
        assert abs(got - want) <= 1e-14 * want, (sigma, got, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=st.floats(0.02, 0.95), log_omega_c=st.floats(0.0, math.log(1e3)),
       log_alpha=st.floats(math.log(1e-3), math.log(1e3)))
def test_bath_pair_is_one_rule(s, log_omega_c, log_alpha):
    # dmu is the dmu/w rule with its weights times its nodes, up to the
    # rounding of scaling each by alpha
    mu0, mu_m1 = bath_measures(ModelParams(s=s, alpha=math.exp(log_alpha), delta=1.0,
                                           omega_c=math.exp(log_omega_c)))
    assert np.array_equal(mu0.nodes, mu_m1.nodes)
    want = mu_m1.nodes * mu_m1.weights
    assert np.all(np.abs(mu0.weights - want) <= 2.0 * np.spacing(want))


@SETTINGS
@given(s=st.floats(0.1, 0.45), omega_c=st.sampled_from([10.0, 100.0]),
       f=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)))
def test_shared_pair_matches_two_independent_rules(s, omega_c, f):
    # the functional on the shared pair against one on the rules of w^s and
    # w^(s-1), each with a Gauss-Jacobi head of its own
    alpha = f * critical_coupling_numeric(s, 1.0, omega_c)
    prefactor = 2.0 * alpha * omega_c ** (1.0 - s)
    shared = Functional.measures(1.0, *bath_measures(ModelParams(s, alpha, 1.0, omega_c)))
    apart = Functional.measures(1.0, power_rule_log(s, omega_c, prefactor),
                                power_rule_log(s - 1.0, omega_c, prefactor))
    (m, e, _), (m_apart, e_apart, _) = shared.minimize(), apart.minimize()
    assert abs(e - e_apart) <= 1e-13 * abs(e_apart)
    assert abs(m - m_apart) <= 1e-10 * m_apart


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.1, 0.3, 0.4]), log_unit=st.floats(math.log(1e-9), math.log(1e3)))
@example(s=0.3, log_unit=math.log(1e-3))
def test_minimizer_is_invariant_under_scaling_delta(s, log_unit):
    # at reduced coupling 1e-5 the magnetized minimum undercuts m = 0 by only
    # ~4e-11 delta; (delta, omega_c) -> lam (delta, omega_c) scales the energy
    # by lam and leaves m, so the tie that decides it is in units of delta
    lam = math.exp(log_unit)
    alpha = (1.0 + 1e-5) * critical_coupling_numeric(s, 1.0, 10.0)
    m, e, dt = Functional.of(ModelParams(s, alpha, 1.0, 10.0)).minimize()
    m_lam, e_lam, dt_lam = Functional.of(ModelParams(s, alpha, lam, 10.0 * lam)).minimize()
    assert m > 0.0
    assert m_lam == pytest.approx(m, rel=1e-8)
    assert e_lam / lam == pytest.approx(e, rel=1e-12)
    assert dt_lam / lam == pytest.approx(dt, rel=1e-12)


# Small baths with displacements g/(2w) <= 0.4, so that 12 Fock levels per
# mode leave a truncation error near 1e-12 in the low spectrum.
N_BOSON = 12
small_baths = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(math.log(0.3), math.log(5.0)), min_size=n, max_size=n, unique=True),
    st.lists(st.floats(0.05, 0.8), min_size=n, max_size=n),
    st.floats(0.1, 3.0),
    st.one_of(st.none(), st.integers(0, n - 1))))


def _small_bath(spec):
    # decoupled: the index of one mode whose coupling is zero (a hop that
    # is zero up to rounding in the chain basis), or None
    log_freqs, ratios, delta, decoupled = spec
    w = np.exp(sorted(log_freqs))
    assume(np.all(np.diff(w) > 1e-6))
    g = np.array(ratios) * w
    if decoupled is not None:
        g[decoupled] = 0.0
    # the oracle reads only delta from the model parameters
    return DiscretizedBath(w, g), ModelParams(s=0.5, alpha=0.1, delta=delta, omega_c=10.0)


@SETTINGS
@given(spec=small_baths)
def test_star_and_chain_bases_share_the_spectrum(spec):
    bath, p = _small_bath(spec)
    lowest = []
    for basis in ("star", "chain"):
        h = build_hamiltonian(bath, p, OracleConfig(bath.n_modes, N_BOSON, basis))
        v0 = np.ones(h.shape[0]) / math.sqrt(h.shape[0])
        lowest.append(np.sort(eigsh(h, k=4, which="SA", v0=v0, tol=0)[0]))
    scale = max(1.0, float(np.max(np.abs(lowest[0]))))
    assert np.max(np.abs(lowest[0] - lowest[1])) <= 1e-10 * scale


@SETTINGS
@given(spec=small_baths)
def test_variational_bound_on_small_baths(spec):
    bath, p = _small_bath(spec)
    e_exact, _ = ground_state(build_hamiltonian(bath, p, OracleConfig(bath.n_modes, N_BOSON)))
    e_ado, _ = ado_on_discrete(bath, p)
    assert e_exact <= e_ado + 1e-9


@SETTINGS
@given(x=st.one_of(st.floats(-math.exp(-1.0), 0.0), st.floats(0.0, 1e6)))
def test_lambert_w0_inverts_w_exp_w(x):
    w = lambert_w0(x)
    assert w >= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.one_of(st.floats(-1.0, 1.0), st.floats()),
       dt=st.one_of(st.floats(0.0, 1e300), st.floats()))
def test_state_holds_only_in_range_input_and_its_amplitudes_follow_from_m(m, dt):
    # the state stores m and dt alone; the amplitudes are read off m
    if not (abs(m) <= 1.0 and 0.0 <= dt < math.inf):
        with pytest.raises(DomainError):
            VariationalState(m, dt)
        return
    state = VariationalState(m, dt)
    assert (state.m, state.delta_tilde) == (m, dt)
    assert abs(state.c_plus**2 + state.c_minus**2 - 1.0) <= 1e-15
    assert abs(state.c_plus**2 - state.c_minus**2 - m) <= 1e-15


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.one_of(st.floats(-(1.0 - 1e-12), 1.0 - 1e-12),
                   st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
def test_q_is_within_four_eps_of_exact(m):
    # q = sqrt(1 - m^2) at 60 digits; next to |m| = 1, 1 - m*m would lose
    # the digits that m*m rounds away
    with mpmath.workdps(60):
        want = mpmath.sqrt(1 - mpmath.mpf(m) ** 2)
        got = VariationalState(m, 0.0).q
        assert abs(mpmath.mpf(got) - want) <= 4.0 * np.finfo(float).eps * want
