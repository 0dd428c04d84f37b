"""Boson occupation of the ADO state, the reference for the chain and
variational tests: per unit frequency from the displacement shapes, and
integrated on the continuum quadrature rule."""

import math

import numpy as np

from subohmic.model import bath_measures, spectral_density


def occupation_density(state, p, omega):
    """``n(w) = (1/pi) J(w) [C+^2 (f+/g)^2 + C-^2 (f-/g)^2]``; behaves like
    ``w^(s-2)`` as ``w -> 0`` whenever ``m != 0``, so the total occupation
    diverges in the magnetized phase."""
    fp, fm = state.f_pm(omega)
    return (spectral_density(omega, p) / math.pi) * (state.c_plus**2 * np.asarray(fp) ** 2
                                                     + state.c_minus**2 * np.asarray(fm) ** 2)


def occupation_total(state, p):
    """Integrated boson occupation; ``inf`` in the magnetized phase."""
    if state.m != 0.0:
        return math.inf
    if p.alpha == 0.0:
        return 0.0
    mu0, _ = bath_measures(p)
    return float(np.dot(mu0.weights, 0.25 / (state.delta_tilde + mu0.nodes) ** 2))
