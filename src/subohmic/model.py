r"""Spin-boson model definition: parameters, spectral density, bath measures.

The model is a two-level system with tunneling amplitude ``delta`` coupled
through ``(sigma_z / 2) * sum_l g_l (a_l + a_l^+)`` to oscillators with a
power-law spectral density

    J(w) = 2 pi alpha omega_c^(1-s) w^s        for 0 <= w <= omega_c,

and a hard cutoff above ``omega_c``.  All bath influence enters through the
spectral measure ``dmu(w) = J(w) dw / pi``; both the continuum quadrature
rules and the finite Gauss discretizations built here represent that measure.

The ground state and the transition depend on ``(s, alpha, delta /
omega_c)`` alone.  The solvers therefore work in units of ``omega_c``:
:meth:`ModelParams.in_cutoff_units` is the one conversion where a problem
enters them, and their dimensionful results are multiplied by ``omega_c`` on
the way out and checked by :func:`finite_or_overflow`.  The functions here
take a :class:`ModelParams` in any units and answer in the same units.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import QuadratureRule, power_rule, power_rule_log


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs: bath exponent ``s``, coupling ``alpha``, tunneling
    ``delta`` and cutoff ``omega_c`` (hbar = 1 throughout).

    ``s`` is accepted anywhere in (0, 1); :attr:`theory_valid` marks the
    sub-ohmic window s < 0.5 where the mean-field critical analysis applies.
    """

    s: float
    alpha: float
    delta: float
    omega_c: float

    def __post_init__(self):
        for name in ("s", "alpha", "delta", "omega_c"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"ModelParams: {name}={getattr(self, name)!r} is not finite")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"ModelParams: s={self.s!r} outside (0, 1)")
        if self.alpha < 0.0:
            raise DomainError(f"ModelParams: alpha={self.alpha!r} negative")
        if self.delta <= 0.0:
            raise DomainError(f"ModelParams: delta={self.delta!r} must be positive")
        if self.omega_c <= 0.0:
            raise DomainError(f"ModelParams: omega_c={self.omega_c!r} must be positive")

    @property
    def theory_valid(self) -> bool:
        return self.s < 0.5

    def in_cutoff_units(self) -> "ModelParams":
        """The same problem in units of ``omega_c``: ``(s, alpha, delta /
        omega_c, 1)``.

        Raises :class:`DomainError` when ``delta / omega_c`` is not a normal
        float: 0 or subnormal, where it has lost its digits, or inf.
        """
        ratio = self.delta / self.omega_c
        if not sys.float_info.min <= ratio < math.inf:
            raise DomainError(f"delta/omega_c = {self.delta!r}/{self.omega_c!r} = {ratio!r} "
                              f"is not a normal float")
        return ModelParams(self.s, self.alpha, ratio, 1.0)


def finite_or_overflow(what: str, value: float) -> float:
    """``value``, or a :class:`DomainError` saying that ``what`` overflows
    where it is not finite (plain-float products past the floats read inf)."""
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows: {value!r}")
    return value


def spectral_density(omega, p: ModelParams):
    """``J(w) = 2 pi alpha omega_c^(1-s) w^s`` for ``w <= omega_c``, else 0.

    Accepts scalars or arrays; negative frequencies raise :class:`DomainError`.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise DomainError("spectral_density: negative frequency")
    out = np.where(
        w <= p.omega_c,
        2.0 * math.pi * p.alpha * p.omega_c ** (1.0 - p.s) * w**p.s,
        0.0,
    )
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def spectral_moment(p: ModelParams, k: float) -> float:
    """Analytic moment ``(1/pi) int J(w) w^k dw = 2 alpha omega_c^(k+2) / (s+k+1)``."""
    if p.s + k + 1.0 <= 0.0:
        raise DomainError(f"spectral_moment: moment k={k} diverges at w=0")
    try:
        scale = p.omega_c ** (k + 2.0)
    except OverflowError:  # a float power past the floats raises where a product reads inf
        scale = math.inf
    return finite_or_overflow(f"spectral_moment: moment k={k}",
                              2.0 * p.alpha * scale / (p.s + k + 1.0))


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite mode list (w_l, g_l) standing in for the continuum measure.

    ``sum(g_l^2 * w_l^k)`` reproduces the measure's moments up to order
    ``2 * len - 1`` when built by :func:`discretize_bath`.
    """

    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.frequencies, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        if w.ndim != 1 or w.shape != g.shape:
            raise DomainError("DiscretizedBath: frequencies/couplings must be equal-length 1-d")
        if w.size and (np.any(w <= 0.0) or np.any(np.diff(w) <= 0.0)):
            raise DomainError("DiscretizedBath: frequencies must be positive and increasing")
        if np.any(g < 0.0):
            raise DomainError("DiscretizedBath: couplings must be non-negative")
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "couplings", g)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


def discretize_bath(p: ModelParams, n_modes: int) -> DiscretizedBath:
    """Gauss discretization of the spectral measure ``(1/pi) J(w) dw``.

    The mode frequencies are the Gauss nodes and ``g_l = sqrt(weight_l)``,
    so every moment of the measure up to order ``2 n_modes - 1`` is exact.
    """
    if n_modes < 1:
        raise DomainError("discretize_bath: need n_modes >= 1")
    if p.alpha == 0.0:
        rule = power_rule(p.s, p.omega_c, int(n_modes), 1.0)
        return DiscretizedBath(rule.nodes, np.zeros_like(rule.nodes))
    rule = bath_measure_rule(p, int(n_modes))
    bath = DiscretizedBath(rule.nodes, np.sqrt(rule.weights))
    total = float(np.sum(bath.couplings**2))
    expected = spectral_moment(p, 0.0)
    if abs(total - expected) > 1e-8 * expected:
        raise DomainError("discretize_bath: sum rule violated (quadrature construction failed)")
    return bath


def bath_measure_rule(p: ModelParams, n: int, extra_exponent: float = 0.0) -> QuadratureRule:
    """The n-point Gauss rule of ``(1/pi) J(w) w^extra dw`` on ``[0,
    omega_c]``: exact moments, from the measure's closed-form recurrence;
    used for discretization and chain occupations."""
    if p.alpha == 0.0:
        raise DomainError("bath_measure_rule: measure vanishes at alpha=0")
    return power_rule(p.s + extra_exponent, p.omega_c, n,
                      2.0 * p.alpha * p.omega_c ** (1.0 - p.s))


@lru_cache(maxsize=256)
def _unit_measures(s: float, omega_c: float) -> tuple[QuadratureRule, QuadratureRule]:
    # one rule, of dmu/w: its closed-form head recurrence divides by (s - 1) + 2 - 1
    if (s - 1.0) + 2.0 <= 1.0:
        raise DomainError(f"bath_measures: s={s!r} too small, s - 1 is -1 to rounding")
    mu_m1 = power_rule_log(s - 1.0, omega_c, 2.0 * omega_c ** (1.0 - s))
    # dmu's weights are node x weight on checked nodes: the extreme products bound
    # them all, so these two plain-float products (no numpy warning) stand in for
    # the constructor's checks
    nodes, weights = mu_m1.nodes, mu_m1.weights
    if not (0.0 < float(nodes[0]) * float(weights.min())
            and float(nodes[-1]) * float(weights.max()) < math.inf):
        raise DomainError(f"bath_measures: the weights of dmu are not finite and positive "
                          f"at s={s!r}, omega_c={omega_c!r}")
    return QuadratureRule._checked_by_caller(nodes, nodes * weights), mu_m1


def bath_measures(p: ModelParams) -> tuple[QuadratureRule, QuadratureRule]:
    """The pair of composite rules for ``dmu`` and ``dmu / w``.

    ``dmu / w`` is :func:`~subohmic.numerics.power_rule_log` of ``w^(s -
    1)``: an 8-node Gauss-Jacobi head, then a cached template of
    Gauss-Legendre decades scaled to ``omega_c``, whose accuracy is uniform
    in the position of rational-integrand structure down to ``1e-7 *
    omega_c``.  ``dmu`` is the same rule with its weights times its nodes,
    so both share every node and one head.  They carry the
    self-consistency and energy integrals.  The measure is linear in
    ``alpha``: the pair is built and fully checked once per ``(s,
    omega_c)`` at ``alpha = 1`` (cached), and its weights are scaled by
    ``alpha``, which re-checks only that they stay finite and positive.
    The solvers call it in units of ``omega_c``, so at ``omega_c = 1``.
    """
    if p.alpha == 0.0:
        raise DomainError("bath_measures: measure vanishes at alpha=0")
    return tuple(mu.scaled(p.alpha) for mu in _unit_measures(p.s, p.omega_c))


def bath_as_measures(bath: DiscretizedBath) -> tuple[QuadratureRule, QuadratureRule]:
    """Discrete-bath analogue of :func:`bath_measures`.

    The mode list is itself a measure: ``sum_l g_l^2 f(w_l)`` plays the role
    of ``int f dmu``, so the same variational kernels run on both.  A
    decoupled mode carries no measure and is left out.
    """
    coupled = bath.couplings != 0.0
    w = bath.frequencies[coupled]
    g2 = bath.couplings[coupled] ** 2
    return QuadratureRule(w, g2), QuadratureRule(w, g2 / w)
