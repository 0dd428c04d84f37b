import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from subohmic.errors import BracketError, ConvergenceError, DomainError
from subohmic.numerics import (
    QuadratureRule,
    _jacobi_unit,
    find_root,
    fit_power_law,
    jacobi_recurrence,
    lambert_w0,
    power_rule,
    power_rule_log,
)


def integrate(f, rule):
    # a rule carries its weight function: sum(weights * f(nodes))
    return float(np.dot(rule.weights, f(rule.nodes)))


def _bisect_lambert(x, tol=1e-14):
    # independent oracle: bisection on w e^w = x
    lo, hi = -1.0, max(1.0, math.log(max(x, 1.0)) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(math.e) - 1.0) < 1e-14

    def test_against_bisection(self):
        assert abs(lambert_w0(1.0) - _bisect_lambert(1.0)) < 1e-12
        assert abs(lambert_w0(1.0) - 0.5671432904097838) < 1e-12

    def test_against_scipy(self):
        for x in np.geomspace(1e-10, 1e8, 50):
            assert lambert_w0(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-12, abs=1e-14)
        for x in (-0.35, -0.2, -0.05, -1e-6):
            assert lambert_w0(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-10)

    def test_round_trip_bulk(self):
        xs = np.geomspace(1e-12, 1e6, 10_000)
        for x in xs:
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_near_branch_point(self):
        x = -math.exp(-1.0) + 1e-10
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12
        assert w > -1.0

    def test_converges_next_to_branch_point(self):
        # W is ill-conditioned here and Halley steps stall at rounding level;
        # every point must still meet the residual contract without raising
        xs = np.concatenate([-math.exp(-1.0) + np.geomspace(1e-16, 1e-2, 2000),
                             np.linspace(-math.exp(-1.0), -0.3577, 20001)[1:]])
        for x in xs.tolist():
            w = lambert_w0(x)
            assert w >= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_branch_point_clamp(self):
        assert lambert_w0(-math.exp(-1.0)) == -1.0
        assert lambert_w0(-math.exp(-1.0) - 5e-15) == -1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-math.exp(-1.0) - 1e-12)
        with pytest.raises(DomainError):
            lambert_w0(float("nan"))


class TestQuadrature:
    def test_rule_invariants(self):
        rule = power_rule(0.3, 10.0, 50)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.order == 50

    def test_rejects_bad_rule(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[1.0, 0.5], weights=[1.0, 1.0])
        with pytest.raises(DomainError):
            QuadratureRule(nodes=[0.5, 1.0], weights=[1.0, -1.0])

    @pytest.mark.parametrize("nodes, weights", [
        ([0.5, 1.0], [1.0, math.nan]), ([0.5, 1.0], [math.inf, 1.0]),
        ([math.nan], [1.0]), ([0.5, math.nan], [1.0, 1.0]), ([-math.inf, 1.0], [1.0, 1.0]),
        ([0.5, math.inf], [1.0, 1.0]),
    ])
    def test_rejects_non_finite_rule(self, nodes, weights):
        # NaN passes the order and sign comparisons, so it is refused on its own
        with pytest.raises(DomainError, match="finite"):
            QuadratureRule(nodes=nodes, weights=weights)

    def test_scaled_rule_rechecks_only_the_weights(self):
        rule = QuadratureRule(nodes=[0.5, 1.0], weights=[1e-10, 1e300])
        doubled = rule.scaled(2.0)
        assert doubled.nodes is rule.nodes
        assert np.array_equal(doubled.weights, [2e-10, 2e300])
        # overflow to inf, underflow to 0, and factors no measure has
        for factor in (1e9, 1e-320, 0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                rule.scaled(factor)

    def test_power_weight_constant(self):
        # int_0^1 w^0.3 dw = 1/1.3, the weight lives in the rule
        rule = power_rule(0.3, 1.0, 20)
        assert integrate(lambda w: np.ones_like(w), rule) == pytest.approx(
            1.0 / 1.3, rel=1e-13)

    @pytest.mark.parametrize("kind", ["gauss", "log"])
    def test_power_moments(self, kind):
        s = 0.3
        upper = 10.0
        if kind == "gauss":
            rule = power_rule(s, upper, 80)
        else:
            rule = power_rule_log(s, upper)
        for k in range(6):
            got = integrate(lambda w, k=k: w ** float(k), rule)
            want = upper ** (s + k + 1) / (s + k + 1)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 24, 400, 928])
    @pytest.mark.parametrize("sigma", [-0.95, -0.87, -0.55, 0.05, 0.3, 0.45])
    def test_gauss_rule_exact_to_degree_2n_minus_1(self, sigma, n):
        # int_0^1 w^(k + sigma) dw = 1/(k + sigma + 1) for every k <= 2n - 1,
        # also as sigma approaches -1 (the dmu/w rules of small s)
        rule = power_rule(sigma, 1.0, n)
        power = np.ones(n)
        worst = 0.0
        for k in range(2 * n):
            worst = max(worst, abs(float(rule.weights @ power) * (k + sigma + 1.0) - 1.0))
            power *= rule.nodes
        assert worst <= 1e-10

    def test_against_adaptive_oracle(self):
        # w^0.3 / (1+w)^2 on [0, 10]; adaptive refinement is the reference
        oracle, err = scipy.integrate.quad(
            lambda w: w**0.3 / (1 + w) ** 2, 0, 10, epsabs=1e-13, epsrel=1e-13,
            limit=400)
        assert err < 1e-10
        rule = power_rule(0.3, 10.0, 120)
        got = integrate(lambda w: 1.0 / (1 + w) ** 2, rule)
        assert got == pytest.approx(oracle, abs=1e-10)
        rule_log = power_rule_log(0.3, 10.0)
        got_log = integrate(lambda w: 1.0 / (1 + w) ** 2, rule_log)
        assert got_log == pytest.approx(oracle, abs=1e-10)

    def test_singular_weight_exponent(self):
        # integrable singularity w^(s-1) handled by the rule itself
        rule = power_rule(-0.7, 2.0, 60)
        assert integrate(lambda w: np.ones_like(w), rule) == pytest.approx(
            2.0**0.3 / 0.3, rel=1e-12)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2, 0.0, 5.0, tol=1e-12) == pytest.approx(2.0)

    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2, 0.0, 2.0, tol=1e-13) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1, -1.0, 1.0)

    def test_messages_print_plain_floats(self):
        with pytest.raises(BracketError) as err:
            find_root(lambda x: x * x + 1, np.float64(-1.0), np.float64(0.5))
        assert str(err.value) == "find_root: no sign change on [-1.0, 0.5]"
        with pytest.raises(ConvergenceError) as err:
            find_root(lambda x: math.copysign(1.0, x - 1e-300), np.float64(-1.0),
                      np.float64(1.0), tol=np.float64(0.0))
        assert "np.float64" not in str(err.value) and "[-1.0, 1.0]" in str(err.value)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x
        assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)

    def test_exhausted_iterations_raise(self):
        # the root sits at 1e-300 and a tol below it asks for ~4 eps |x| there:
        # 200 bisections of [-1, 1] do not get that close
        for tol in (0.0, 5e-324):
            with pytest.raises(ConvergenceError):
                find_root(lambda x: math.copysign(1.0, x - 1e-300), -1.0, 1.0, tol=tol)

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError):
            find_root(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, -1.0, 2.0)
        with pytest.raises(BracketError):
            find_root(lambda x: math.nan if x < 0.0 else x - 0.5, -1.0, 2.0)

    def test_numpy_scalar_tol_runs_in_plain_floats(self):
        # a numpy tol would turn the steps after the first minimal one into
        # numpy scalar arithmetic, which warns on overflow; the slow triple
        # root takes such steps
        def f(x):
            return (x - 0.3) ** 3

        got = find_root(f, -1.0, 2.0, tol=np.float64(1e-12))
        assert type(got) is float
        assert got == find_root(f, -1.0, 2.0, tol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-155])
    def test_zero_interpolation_divisor_bisects_like_brentq(self, scale):
        # the inverse-quadratic divisor dblk dpre (fblk - fpre) underflows to 0
        # here; brentq's C code gets inf or NaN from it and bisects
        def f(x):
            return scale * ((x - 0.3) ** 3 + 0.1 * (x - 0.3))

        want = brentq(f, -5.0, 5.0, xtol=1e-12, rtol=4.0 * np.finfo(float).eps, maxiter=200)
        assert find_root(f, -5.0, 5.0) == want


_SMOOTH = (
    lambda x, r, a, b: math.expm1(a * (x - r)) + b * (x - r) ** 3,
    lambda x, r, a, b: math.tanh(a * (x - r)) + 1e-3 * b * (x - r),
    lambda x, r, a, b: math.sin(a * x) - 0.9 * math.tanh(b - r),
    lambda x, r, a, b: (x - r) * ((x - b) ** 2 + a) - 0.1 * b,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(range(len(_SMOOTH))), r=st.floats(-2.0, 2.0),
       a=st.floats(0.05, 8.0), b=st.floats(0.0, 3.0), lo=st.floats(-6.0, -2.0),
       hi=st.floats(2.0, 6.0), log_tol=st.floats(-16.0, -2.0))
def test_find_root_is_brentq_bit_for_bit(kind, r, a, b, lo, hi, log_tol):
    def f(x):
        return _SMOOTH[kind](x, r, a, b)

    f_lo, f_hi = f(lo), f(hi)
    assume(f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo)
    tol = 10.0 ** log_tol
    want = brentq(f, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    assert find_root(f, lo, hi, tol=tol) == want


def test_dense_nodes_match_the_tridiagonal_solver():
    # the numpy nodes of every rule order up to 64 against scipy's tridiagonal
    # eigenvalues, on the bath exponents sigma = s (dmu) and s - 1 (dmu / w)
    for s in np.linspace(0.01, 0.99, 99).tolist():
        for sigma in (s, s - 1.0):
            for n in range(4, 65, 4):
                nodes, _ = _jacobi_unit(n, sigma)
                want = eigvalsh_tridiagonal(*jacobi_recurrence(sigma, n))
                assert np.all(np.abs(nodes - want) <= 2.0 * np.spacing(np.abs(want)))


class TestFitPowerLaw:
    def test_pure_power(self):
        xs = np.geomspace(0.1, 10, 12)
        fit = fit_power_law(xs, xs**0.4)
        assert fit.exponent == pytest.approx(0.4, abs=1e-13)
        assert fit.residual < 1e-12

    def test_prefactor(self):
        xs = np.geomspace(0.5, 50, 9)
        fit = fit_power_law(xs, 3.0 / xs)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-13)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)

    def test_rejects_bad_data(self):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
