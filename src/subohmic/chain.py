r"""Mapping of the bath onto a nearest-neighbor oscillator chain.

The star-coupled bath with measure ``dmu = (1/pi) J(w) dw`` is unitarily
equivalent to a semi-infinite chain whose site energies and hoppings are the
three-term recurrence coefficients of the orthonormal polynomials of
``dmu``.  The spin couples only to site 0 with strength
``t_(-1) = sqrt(mass) / 2`` (the 1/2 absorbs the ``sigma_z / 2`` prefactor
of the coupling term, fixed so that tridiagonalizing an n-mode Gauss
discretization reproduces the same spectrum as the star form).

Because each branch of the ADO state is a product of coherent states, its
per-site mean occupations are exact quadratic forms of the displacement
shapes expanded in the polynomial basis; no state vectors are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, bath_measure_rule
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
    n_sites: int

    def __post_init__(self):
        eps = np.asarray(self.site_energies, dtype=float)
        hop = np.asarray(self.hoppings, dtype=float)
        if eps.size != self.n_sites or hop.size != self.n_sites - 1:
            raise DomainError("ChainRepresentation: inconsistent lengths")
        object.__setattr__(self, "site_energies", eps)
        object.__setattr__(self, "hoppings", hop)


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


def _lanczos_tridiagonalize(nodes: np.ndarray, weights: np.ndarray,
                            n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stieltjes/Lanczos recurrence of the discrete measure sum(w_i d_{x_i}).

    Lanczos on ``diag(nodes)`` started from ``sqrt(weights)`` with full
    reorthogonalization; returns (diagonal, off-diagonal, basis V) where the
    rows of V are the orthonormal Krylov vectors.  The leading ``n_sites``
    coefficients equal the continuum ones whenever the discrete measure is
    the continuum measure's own Gauss rule of order > n_sites.
    """
    n_points = nodes.size
    if n_sites > n_points:
        raise DomainError("tridiagonalize: need at least n_sites quadrature points")
    v = np.sqrt(weights)
    v = v / np.linalg.norm(v)
    basis = np.empty((n_sites, n_points))
    basis[0] = v
    eps = np.empty(n_sites)
    hop = np.empty(max(n_sites - 1, 0))
    for k in range(n_sites):
        u = nodes * basis[k]
        if k > 0:
            u -= hop[k - 1] * basis[k - 1]
        eps[k] = basis[k] @ u
        u -= eps[k] * basis[k]
        # full reorthogonalization keeps the Gram residual at machine level
        u -= basis[: k + 1].T @ (basis[: k + 1] @ u)
        if k == n_sites - 1:
            break
        norm = np.linalg.norm(u)
        if norm <= 0.0:
            raise ConvergenceError(
                "tridiagonalize: Krylov space exhausted; increase quadrature order")
        hop[k] = norm
        basis[k + 1] = u / norm
    return eps, hop, basis


_CHAIN_QUAD_PAD = 64


def chain_map(p: ModelParams, n_sites: int) -> ChainRepresentation:
    """Recurrence coefficients of the spectral measure, Stieltjes style.

    The measure's own Gauss rule (order ``2 n_sites`` at least) makes the
    discrete Stieltjes coefficients exact for the continuum measure.  A Gram
    residual above ``1e-8`` raises with a request for higher quadrature
    order.
    """
    if n_sites < 1:
        raise DomainError("chain_map: need n_sites >= 1")
    if p.alpha == 0.0:
        raise DomainError("chain_map: no bath at alpha = 0")
    order = max(2 * n_sites, n_sites + _CHAIN_QUAD_PAD)
    rule = bath_measure_rule(p, n=order, kind="gauss")
    eps, hop, basis = _lanczos_tridiagonalize(rule.nodes, rule.weights, n_sites)
    gram = basis @ basis.T
    resid = float(np.max(np.abs(gram - np.eye(n_sites))))
    if resid > 1e-8:
        raise ConvergenceError(
            f"chain_map: orthogonality loss {resid:.2e}; increase quadrature order")
    mass = rule.total_mass
    return ChainRepresentation(
        site_energies=eps,
        hoppings=hop,
        system_coupling=0.5 * math.sqrt(mass),
        n_sites=n_sites,
    )


def _orthonormal_poly_values(chain: ChainRepresentation, mass: float,
                             x: np.ndarray) -> np.ndarray:
    """Values ``P[n, i] = p_n(x_i)`` of the orthonormal polynomials.

    Upward three-term recurrence with the chain's coefficients; stable for
    nodes inside the measure's support.
    """
    n = chain.n_sites
    out = np.empty((n, x.size))
    out[0] = 1.0 / math.sqrt(mass)
    if n == 1:
        return out
    eps = chain.site_energies
    hop = chain.hoppings
    out[1] = (x - eps[0]) * out[0] / hop[0]
    for k in range(1, n - 1):
        out[k + 1] = ((x - eps[k]) * out[k] - hop[k - 1] * out[k - 1]) / hop[k]
    return out


def chain_occupations(state: VariationalState, p: ModelParams,
                      chain: ChainRepresentation,
                      m_frame: float = 0.0) -> OccupationProfile:
    """Mean boson number per chain site of the ADO state.

    Site ``n`` of each coherent branch carries displacement ``d_n = int p_n
    phi dmu`` (the shapes expanded in the chain basis), hence ``N_av(n) =
    C+^2 d_{n,+}^2 + C-^2 d_{n,-}^2``.  The ``1/w`` parts of the shapes are
    integrated against ``dmu / w`` rules so the infrared singularity sits in
    the quadrature weight, not the integrand.

    A non-zero ``m_frame`` shifts the frame by the mean-field displacement
    ``m_frame/(2 w)`` per unit coupling, which at the state's own ``m``
    cancels the shapes' infrared ``-m/(2 w)`` tail; 0 is the bare frame.
    """
    if p.alpha == 0.0:
        return OccupationProfile(np.zeros(chain.n_sites), "bare")
    m = state.m
    dt = state.delta_tilde
    q = math.sqrt(max(0.0, 1.0 - m * m))
    order = max(2 * chain.n_sites + 128, 256)
    mu0 = bath_measure_rule(p, n=order, kind="gauss")
    mu_m1 = bath_measure_rule(p, n=order, extra_exponent=-1.0, kind="gauss")
    mass = mu0.total_mass

    p0 = _orthonormal_poly_values(chain, mass, mu0.nodes)
    pm1 = _orthonormal_poly_values(chain, mass, mu_m1.nodes)

    # phi_pm = -(m dt / 2) * 1/(w (dt + q w))  -/+  q / (2 (dt + q w))
    sing_0 = -(0.5 * m * dt) / (dt + q * mu_m1.nodes)  # multiplies dmu/w
    smooth = 0.5 * q / (dt + q * mu0.nodes)            # multiplies dmu
    if m_frame != 0.0:
        sing_0 = sing_0 + 0.5 * m_frame
        frame_name = f"displaced({m_frame:g})"
    else:
        frame_name = "bare"

    d_sing = pm1 @ (mu_m1.weights * sing_0)
    d_smooth = p0 @ (mu0.weights * smooth)
    d_plus = d_sing - d_smooth
    d_minus = d_sing + d_smooth
    n_av = state.c_plus**2 * d_plus**2 + state.c_minus**2 * d_minus**2
    return OccupationProfile(n_av, frame_name)
