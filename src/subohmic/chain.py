r"""Mapping of the bath onto a nearest-neighbor oscillator chain.

The star-coupled bath with measure ``dmu = (1/pi) J(w) dw`` is unitarily
equivalent to a semi-infinite chain whose site energies and hoppings are the
three-term recurrence coefficients of the orthonormal polynomials of
``dmu``, known in closed form for the hard-cutoff power law.  The spin
couples only to site 0 with strength ``t_(-1) = sqrt(mass) / 2`` (the 1/2
absorbs the ``sigma_z / 2`` prefactor of the coupling term, fixed so that
tridiagonalizing an n-mode Gauss discretization reproduces the same
spectrum as the star form).

Because each branch of the ADO state is a product of coherent states, its
per-site mean occupations are exact quadratic forms of the displacement
shapes expanded in the polynomial basis; no state vectors are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import ModelParams, bath_measure_rule, spectral_moment
from .numerics import jacobi_recurrence, orthonormal_polys
from .variational import VariationalState


@dataclass(frozen=True)
class ChainRepresentation:
    """Tridiagonal chain image of the bath.

    ``site_energies[n]`` and ``hoppings[n]`` (between sites n and n+1) are
    the recurrence diagonal and off-diagonal; both approach ``omega_c / 2``
    and ``omega_c / 4`` respectively along the chain for the hard-cutoff
    power-law measure.  ``system_coupling`` is the spin-to-site-0 strength.
    """

    site_energies: np.ndarray
    hoppings: np.ndarray
    system_coupling: float

    @property
    def n_sites(self) -> int:
        return self.site_energies.size


@dataclass(frozen=True)
class OccupationProfile:
    """Mean boson number per chain site, in the stated frame."""

    n_av: np.ndarray
    frame: str

    def __post_init__(self):
        n_av = np.asarray(self.n_av, dtype=float)
        if np.any(n_av < -1e-15) or not np.all(np.isfinite(n_av)):
            raise DomainError("OccupationProfile: occupations must be finite and >= 0")
        object.__setattr__(self, "n_av", np.maximum(n_av, 0.0))


def chain_map(p: ModelParams, n_sites: int) -> ChainRepresentation:
    """Recurrence coefficients of the spectral measure, in closed form.

    ``dmu`` is ``w^s dw`` on ``[0, omega_c]`` up to a constant, so the chain
    is ``omega_c`` times the shifted Jacobi(0, s) recurrence.
    """
    if n_sites < 1:
        raise DomainError("chain_map: need n_sites >= 1")
    if p.alpha == 0.0:
        raise DomainError("chain_map: no bath at alpha = 0")
    diag, off = jacobi_recurrence(p.s, n_sites)
    return ChainRepresentation(
        site_energies=p.omega_c * diag,
        hoppings=p.omega_c * off,
        system_coupling=0.5 * math.sqrt(spectral_moment(p, 0.0)),
    )


def chain_occupations(state: VariationalState, p: ModelParams,
                      chain: ChainRepresentation,
                      m_frame: float = 0.0) -> OccupationProfile:
    """Mean boson number per chain site of the ADO state.

    Site ``n`` of each coherent branch carries displacement ``d_n = int p_n
    phi dmu`` (the shapes expanded in the chain basis), hence ``N_av(n) =
    C+^2 d_{n,+}^2 + C-^2 d_{n,-}^2``.  ``w phi`` is integrated against the
    Gauss rule of ``dmu / w``, so the infrared singularity of the shapes'
    ``1/w`` parts sits in the quadrature weight, not the integrand.

    A non-zero ``m_frame`` shifts the frame by the mean-field displacement
    ``m_frame/(2 w)`` per unit coupling, which at the state's own ``m``
    cancels the shapes' infrared ``-m/(2 w)`` tail; 0 is the bare frame.
    """
    if p.alpha == 0.0:
        return OccupationProfile(np.zeros(chain.n_sites), "bare")
    m = state.m
    dt = state.delta_tilde
    q = state.q
    rule = bath_measure_rule(p, max(2 * chain.n_sites + 128, 256), extra_exponent=-1.0)
    w = rule.nodes

    # w phi_pm = -(m dt / 2) / (dt + q w)  -/+  q w / (2 (dt + q w)), and the
    # fully localized state (m = 1, dt = 0) is its limit, the static shift -m/2
    if q == 0.0 and dt == 0.0:
        sing, smooth = -0.5 * m, 0.0
    else:
        sing = -(0.5 * m * dt) / (dt + q * w)
        smooth = 0.5 * q * w / (dt + q * w)
    if m_frame != 0.0:
        sing = sing + 0.5 * m_frame
        frame_name = f"displaced({m_frame:g})"
    else:
        frame_name = "bare"

    # the rows start from p_0 = 1; dividing d by sqrt(mass) makes them orthonormal for
    # dmu, before squaring, since d^2 alone overflows where the coupling is past ~1e154
    f_plus = rule.weights * (sing - smooth)
    f_minus = rule.weights * (sing + smooth)
    d = np.array([(row @ f_plus, row @ f_minus) for row in
                  orthonormal_polys(chain.site_energies, chain.hoppings, w)])
    d2 = np.square(d / math.sqrt(spectral_moment(p, 0.0)))
    n_av = state.c_plus**2 * d2[:, 0] + state.c_minus**2 * d2[:, 1]
    return OccupationProfile(n_av, frame_name)
