import math

import numpy as np
import pytest
import scipy.integrate

from subohmic.errors import DomainError
from subohmic.model import (
    DiscretizedBath,
    ModelParams,
    bath_as_measures,
    bath_measure_rule,
    bath_measures,
    discretize_bath,
    spectral_density,
    spectral_moment,
)


@pytest.fixture
def params():
    return ModelParams(s=0.3, alpha=0.1, delta=1.0, omega_c=10.0)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(s=0.0, alpha=0.1, delta=1.0, omega_c=10.0)
        with pytest.raises(DomainError):
            ModelParams(s=1.0, alpha=0.1, delta=1.0, omega_c=10.0)
        with pytest.raises(DomainError):
            ModelParams(s=0.3, alpha=-0.1, delta=1.0, omega_c=10.0)
        with pytest.raises(DomainError):
            ModelParams(s=0.3, alpha=0.1, delta=0.0, omega_c=10.0)
        with pytest.raises(DomainError):
            ModelParams(s=0.3, alpha=0.1, delta=1.0, omega_c=-1.0)

    @pytest.mark.parametrize("name", ["s", "alpha", "delta", "omega_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        values = {"s": 0.3, "alpha": 0.1, "delta": 1.0, "omega_c": 10.0, name: value}
        with pytest.raises(DomainError, match=f"{name}=.*not finite"):
            ModelParams(**values)

    def test_in_cutoff_units(self):
        p = ModelParams(s=0.3, alpha=0.1, delta=1.0, omega_c=8.0)
        assert p.in_cutoff_units() == ModelParams(s=0.3, alpha=0.1, delta=0.125, omega_c=1.0)

    @pytest.mark.parametrize("delta, omega_c", [(1e-300, 1e300), (1e-310, 1.0),
                                                (1e300, 1e-10)])
    def test_ratio_outside_the_normal_floats_rejected(self, delta, omega_c):
        p = ModelParams(s=0.3, alpha=0.1, delta=delta, omega_c=omega_c)
        with pytest.raises(DomainError, match="delta/omega_c"):
            p.in_cutoff_units()

    def test_theory_valid_flag(self):
        assert ModelParams(s=0.3, alpha=0.1, delta=1.0, omega_c=10.0).theory_valid
        assert not ModelParams(s=0.7, alpha=0.1, delta=1.0, omega_c=10.0).theory_valid


class TestSpectralDensity:
    def test_at_cutoff(self, params):
        # exponents cancel at the cutoff
        assert spectral_density(params.omega_c, params) == pytest.approx(
            2.0 * math.pi * params.alpha * params.omega_c, rel=1e-14)

    def test_at_zero(self, params):
        assert spectral_density(0.0, params) == 0.0

    def test_value(self, params):
        # 2 pi * 0.1 * 10^0.7 at omega = 1
        want = 2.0 * math.pi * 0.1 * 10.0**0.7
        assert spectral_density(1.0, params) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(3.1490523, abs=5e-7)

    def test_hard_cutoff(self, params):
        assert spectral_density(10.0 + 1e-12, params) == 0.0
        assert spectral_density(25.0, params) == 0.0

    def test_continuous_below_cutoff(self, params):
        w = np.linspace(1e-6, params.omega_c - 1e-9, 1000)
        j = spectral_density(w, params)
        assert np.all(np.isfinite(j))
        assert np.all(np.diff(j) > 0)

    def test_negative_frequency(self, params):
        with pytest.raises(DomainError):
            spectral_density(-1.0, params)


class TestDiscretizeBath:
    def test_single_mode(self, params):
        bath = discretize_bath(params, 1)
        # one-point Gauss rule sits at the measure's mean
        assert bath.frequencies[0] == pytest.approx(
            params.omega_c * 1.3 / 2.3, rel=1e-12)
        assert bath.couplings[0] ** 2 == pytest.approx(
            2 * params.alpha * params.omega_c**2 / 1.3, rel=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    def test_sum_rule(self, params, n_modes):
        bath = discretize_bath(params, n_modes)
        total = np.sum(bath.couplings**2)
        assert total == pytest.approx(spectral_moment(params, 0.0), rel=1e-12)

    @pytest.mark.parametrize("n_modes", [2, 4, 6])
    def test_moment_preservation(self, params, n_modes):
        bath = discretize_bath(params, n_modes)
        for k in range(2 * n_modes):
            got = float(np.sum(bath.couplings**2 * bath.frequencies**k))
            want = spectral_moment(params, float(k))
            assert got == pytest.approx(want, rel=1e-10)

    def test_moments_against_adaptive_quadrature(self, params):
        bath = discretize_bath(params, 4)
        for k in range(8):
            want, err = scipy.integrate.quad(
                lambda w, k=k: spectral_density(w, params) / math.pi * w**k,
                0.0, params.omega_c, epsabs=1e-12, epsrel=1e-12, limit=200)
            got = float(np.sum(bath.couplings**2 * bath.frequencies**k))
            assert got == pytest.approx(want, rel=1e-10)

    def test_validation(self, params):
        with pytest.raises(DomainError):
            discretize_bath(params, 0)
        with pytest.raises(DomainError):
            DiscretizedBath(frequencies=[2.0, 1.0], couplings=[1.0, 1.0])


class TestSpectralMoment:
    def test_cutoff_power_past_the_floats(self):
        # omega_c^2 leaves the floats, where a float power raises OverflowError
        with pytest.raises(DomainError, match="overflows"):
            spectral_moment(ModelParams(s=0.3, alpha=1.0, delta=1.0, omega_c=1e200), 0.0)


class TestMeasures:
    def test_measure_rule_moments(self, params):
        for extra, rule in zip((0.0, -1.0), bath_measures(params)):
            for k in range(3):
                got = float(np.dot(rule.weights, rule.nodes ** float(k)))
                want = spectral_moment(params, k + extra)
                assert got == pytest.approx(want, rel=1e-10)

    def test_inverse_moment_is_static_energy_scale(self, params):
        _, mu_m1 = bath_measures(params)
        # (1/4) int dmu/w = alpha omega_c / (2 s)
        assert 0.25 * mu_m1.total_mass == pytest.approx(
            params.alpha * params.omega_c / (2 * params.s), rel=1e-10)

    def test_discrete_measure_equivalence(self, params):
        bath = discretize_bath(params, 6)
        mu0, mu_m1 = bath_as_measures(bath)
        assert mu0.total_mass == pytest.approx(spectral_moment(params, 0.0), rel=1e-12)
        assert mu_m1.total_mass == pytest.approx(
            float(np.sum(bath.couplings**2 / bath.frequencies)), rel=1e-14)

    def test_alpha_zero_rejected(self):
        p = ModelParams(s=0.3, alpha=0.0, delta=1.0, omega_c=10.0)
        with pytest.raises(DomainError):
            bath_measure_rule(p, 8)
        # also once the pair of the same (s, omega_c) is cached at another alpha
        bath_measures(ModelParams(s=0.3, alpha=0.1, delta=1.0, omega_c=10.0))
        with pytest.raises(DomainError):
            bath_measures(p)
