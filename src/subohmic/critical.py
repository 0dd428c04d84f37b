r"""Critical coupling, phase diagrams and critical-exponent extraction.

The localization transition sits where the quadratic Landau coefficient of
the energy in the magnetization changes sign, ``c1(alpha_c) = 0``.  In the
wide-band limit this has the closed form

    alpha_c = sin(pi s) e^{-s/2} / (2 pi (1-s)) * (delta / omega_c)^(1-s),

with critical effective tunneling ``delta * exp(-s / (2 (1-s)))``.  The
numeric route solves ``c1 = 0`` of the chosen functional directly, the full
one by one scalar root in the critical tunneling; the wide-band one gives
``alpha_c e^{-alpha_c}`` equal to the closed form.  Both are always reported
side by side because different normalization conventions for the coupling
are in circulation (they differ by powers of ``omega_c / delta``) and the
ratio makes the comparison to other work explicit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError
from .model import ModelParams, bath_measures, finite_or_overflow
from .numerics import FitResult, find_root, fit_power_law, lambert_w0
from .variational import (FUNCTIONALS, Functional, VariationalState, inverse_square, observables,
                          spin_vector, static_shift_energy)

_ROW_ERRORS = (DomainError, ConvergenceError, BracketError)  # recorded per row
_FIT_WINDOW = (1e-4, 1e-2)  # reduced-coupling window for exponent fits
_WINDOW_SLACK = 1e-9  # relative; a row at a window edge is not dropped for rounding


@dataclass(frozen=True)
class CriticalPoint:
    """Location and character of the transition at fixed (s, delta, omega_c)."""

    s: float
    delta: float
    omega_c: float
    alpha_c_numeric: float
    alpha_c_closed: float
    delta_tilde_c: float
    sx_c: float

    @property
    def ratio(self) -> float:
        return self.alpha_c_numeric / self.alpha_c_closed


@dataclass
class SweepTable:
    """Row-per-coupling solver output behind magnetization/coherence plots.

    ``failures`` holds ``(index, exception)`` for each failed row.
    """

    alphas: np.ndarray
    m: np.ndarray
    sx: np.ndarray
    entanglement: np.ndarray
    energy: np.ndarray
    c1: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def status(self) -> list[str]:
        """Per row, ``"ok"`` or the class name of the error the row raised."""
        failed = {i: type(exc).__name__ for i, exc in self.failures}
        return [failed.get(i, "ok") for i in range(self.alphas.size)]


def _require_subohmic_window(s: float) -> None:
    if not 0.0 < s < 0.5:
        raise DomainError(
            f"s={s!r} outside (0, 0.5); the mean-field critical analysis "
            "does not apply there")


def critical_coupling_closed(s: float, delta: float, omega_c: float) -> tuple[float, float]:
    """Closed-form wide-band critical coupling and effective tunneling.

    Returns ``(alpha_c, delta_tilde_c)`` with ``delta_tilde_c = delta *
    exp(-s / (2 (1-s)))``, the self-consistent tunneling at criticality
    implied jointly with the critical-coupling formula.
    """
    _require_subohmic_window(s)
    if delta <= 0.0 or omega_c <= 0.0:
        raise DomainError("critical_coupling_closed: need delta, omega_c > 0")
    alpha_c = (math.sin(math.pi * s) * math.exp(-0.5 * s)
               / (2.0 * math.pi * (1.0 - s))) * (delta / omega_c) ** (1.0 - s)
    dt_c = delta * math.exp(-s / (2.0 * (1.0 - s)))
    return alpha_c, dt_c


def critical_coupling_numeric(s: float, delta: float, omega_c: float,
                              functional: str = "exact") -> float:
    """Coupling where :meth:`~subohmic.variational.Functional.c1` of
    ``functional`` crosses zero: one scalar root for the full functional
    (:func:`_critical_root`); the wide-band ``c1 = dt/4 - a dt^s``, ``a``
    linear in ``alpha``, with the Lambert-W ``dt`` gives ``alpha_c
    e^{-alpha_c} = alpha_closed``."""
    _require_subohmic_window(s)
    if functional not in FUNCTIONALS:
        raise DomainError(f"unknown functional {functional!r}")
    if functional == "scaling":
        alpha_closed = critical_coupling_closed(s, delta, omega_c)[0]
        if alpha_closed > math.exp(-1.0):
            raise DomainError(f"critical_coupling_numeric: no c1 zero, {alpha_closed!r} > 1/e")
        return -lambert_w0(-alpha_closed)
    return _critical_root(s, delta, omega_c)[0]


def _critical_root(s: float, delta: float, omega_c: float) -> tuple[float, float]:
    """``(alpha_c, d)`` of the full functional, ``d`` the critical ``dt(0)``.

    On the unit-coupling measure ``dmu_1``, ``c1 = (d/4) (1 - alpha d
    K1(d))`` vanishes at ``alpha = 1/(d K1(d))``, and the self-consistency
    becomes ``log(delta/d) = I1(d) / (2 d K1(d))``, with ``I1 = int
    dmu_1/(d+w)^2 = s J - B``, ``d K1 = d int dmu_1/(w (d+w)^2) = (1-s) J +
    B`` (by parts; ``J = int dmu_1/(w (d+w))``, ``B = 2 omega_c/(d +
    omega_c) > 0``).  The right side lies in ``(0, s/(2(1-s)))``, so ``log
    d`` has a root within ``s/(2(1-s))`` below ``log delta``.  Solved in
    units of ``omega_c``; ``d`` is returned in those of ``delta``."""
    p1 = ModelParams(s=s, alpha=1.0, delta=delta, omega_c=omega_c).in_cutoff_units()
    mu1, mu1_m1 = bath_measures(p1)
    log_delta = math.log(p1.delta)

    def d_k1(d: float) -> float:
        k1 = float(inverse_square(d, mu1_m1))
        if k1 < sys.float_info.min:  # (d + w)^2 past ~1e308: K1 has lost its digits
            raise DomainError(f"critical root: delta/omega_c = {p1.delta!r} too large, "
                              f"int dmu/(w (d + w)^2) underflows at d = {d!r}")
        return d * k1

    def gap(u: float) -> float:  # log(delta/d) - I1/(2 d K1) at d = e^u
        d = math.exp(u)
        return log_delta - u - 0.5 * float(inverse_square(d, mu1)) / d_k1(d)

    d = math.exp(find_root(gap, log_delta - 0.5 * s / (1.0 - s), log_delta, tol=1e-15))
    return 1.0 / d_k1(d), d * omega_c


def critical_point(s: float, delta: float, omega_c: float,
                   functional: str = "exact") -> CriticalPoint:
    """Numeric and closed-form critical data assembled in one record; the
    critical coupling and tunneling both come from ``functional``: for the
    full one, the coupling and ``dt(0)`` of the same root
    (:func:`_critical_root`), for the wide-band one the Lambert-W ``dt(0)``
    at its critical coupling.  ``sx_c`` is :func:`~subohmic.variational.spin_vector`'s
    at ``m = 0``, which raises where the wide-band ``dt_c`` exceeds ``delta``."""
    alpha_closed, _ = critical_coupling_closed(s, delta, omega_c)
    if functional == "exact":
        alpha_num, dt_c = _critical_root(s, delta, omega_c)
    else:
        alpha_num = critical_coupling_numeric(s, delta, omega_c, functional)
        p_c = ModelParams(s=s, alpha=alpha_num, delta=delta, omega_c=omega_c)
        dt_c = Functional.of(p_c.in_cutoff_units(), functional).dt(0.0) * omega_c
    return CriticalPoint(
        s=s, delta=delta, omega_c=omega_c,
        alpha_c_numeric=alpha_num,
        alpha_c_closed=alpha_closed,
        delta_tilde_c=dt_c,
        sx_c=spin_vector(0.0, dt_c, delta)[0],
    )


def sweep_alpha(s: float, delta: float, omega_c: float,
                alphas: Sequence[float], functional: str = "exact") -> SweepTable:
    """Ground state and Landau ``c1`` per coupling, both from the row's
    :class:`~subohmic.variational.Functional` in units of ``omega_c``, and
    reported in those of ``delta``; rows are independent.

    A row that raises a domain, convergence or bracket error is filled with
    NaN and recorded in ``failures``; the sweep continues.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.size and np.any(np.diff(alphas) <= 0.0):
        raise DomainError("sweep_alpha: alphas must be strictly increasing")
    n = alphas.size
    cols = {k: np.full(n, np.nan) for k in ("m", "sx", "ent", "energy", "c1")}
    failures: list = []
    for i, alpha in enumerate(alphas.tolist()):
        try:
            p = ModelParams(s=s, alpha=alpha, delta=delta, omega_c=omega_c)
            fn = Functional.of(p.in_cutoff_units(), functional)
            finite_or_overflow("energy", static_shift_energy(p))  # the energy lies below it
            m, e, dt = fn.minimize()
            energy = finite_or_overflow("energy", e * omega_c)
            sol = observables(VariationalState(m, dt * omega_c), p, energy=energy)
            c1 = fn.c1() * omega_c
        except _ROW_ERRORS as exc:
            failures.append((i, exc))
            continue
        cols["m"][i], cols["sx"][i], cols["ent"][i] = sol.sz, sol.sx, sol.entanglement
        cols["energy"][i], cols["c1"][i] = sol.energy, c1

    return SweepTable(
        alphas=alphas, m=cols["m"], sx=cols["sx"], entanglement=cols["ent"],
        energy=cols["energy"], c1=cols["c1"], failures=failures,
    )


def extract_exponents(table: SweepTable, alpha_c: float,
                      window: tuple[float, float] = _FIT_WINDOW) -> tuple[FitResult, FitResult]:
    """Order-parameter and susceptibility exponents from a sweep.

    ``beta``: slope of ``log m`` vs ``log (alpha - alpha_c)/alpha_c`` above
    the transition.  ``gamma``: magnitude of the divergence of ``chi = 1/(4
    c1)`` below it (the returned ``exponent`` field holds gamma itself, i.e.
    minus the raw log-log slope).  Both fits use rows whose reduced coupling
    falls inside ``window``, widened by ``1e-9`` relative: ``red`` is
    recomputed from couplings built as ``alpha_c (1 -/+ r)``, so a row at an
    edge of the window lies within rounding of it.
    """
    lo, hi = window[0] * (1.0 - _WINDOW_SLACK), window[1] * (1.0 + _WINDOW_SLACK)
    red = (table.alphas - alpha_c) / alpha_c

    above = (red >= lo) & (red <= hi) & (table.m > 0.0) & np.isfinite(table.m)
    if np.count_nonzero(above) < 3:
        raise DomainError("extract_exponents: too few localized rows in fit window")
    beta = fit_power_law(red[above], table.m[above])

    below = (-red >= lo) & (-red <= hi) & (table.c1 > 0.0) & np.isfinite(table.c1)
    if np.count_nonzero(below) < 3:
        raise DomainError("extract_exponents: too few delocalized rows in fit window")
    chi = 1.0 / (4.0 * table.c1[below])
    raw = fit_power_law(-red[below], chi)
    gamma = FitResult(exponent=-raw.exponent, prefactor=raw.prefactor,
                      residual=raw.residual)
    return beta, gamma


def phase_diagram(s_grid: Sequence[float], delta: float,
                  omega_c_list: Sequence[float],
                  functional: str = "exact") -> list[dict]:
    """Critical couplings over a grid of (s, omega_c), rows independent.

    Each row carries both the numeric and closed-form values.  A point that
    raises a domain, convergence or bracket error keeps NaN values, its
    ``status`` names the error's class (``"ok"`` otherwise) and ``error``
    holds the exception (``None`` otherwise); the grid continues.
    """
    rows = []
    for s in map(float, s_grid):  # plain floats, so error messages print no numpy reprs
        for wc in map(float, omega_c_list):
            row = {"s": s, "omega_c": wc,
                   "alpha_c_numeric": math.nan, "alpha_c_closed": math.nan,
                   "status": "ok", "error": None}
            try:
                row["alpha_c_closed"] = critical_coupling_closed(s, delta, wc)[0]
                row["alpha_c_numeric"] = critical_coupling_numeric(
                    s, delta, wc, functional)
            except _ROW_ERRORS as exc:
                row["status"], row["error"] = type(exc).__name__, exc
            rows.append(row)
    return rows
