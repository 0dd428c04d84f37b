r"""Asymmetrically displaced oscillator (ADO) ground state of the model.

The trial state is ``C+ |+>|phi+>  +  C- |->|phi->`` with each spin branch
dressed by its own product of displaced oscillators, displacement ``f_{l,pm}
= g_l * phi_pm(w_l)``.  At fixed magnetization ``m = C+^2 - C-^2`` the
optimal per-unit-coupling shapes are

    phi_pm(w) = -(m*dt pm q*w) / (2 w (dt + q*w)),      q = sqrt(1 - m^2),

where the effective tunneling ``dt`` solves the self-consistency

    dt = delta * exp[ -(q^2 / 2) int dmu(w) / (dt + q w)^2 ],

with ``dmu = (1/pi) J(w) dw``.  The variational energy at the optimum is

    E(m) = -(dt q / 2) + (1+m)/2 int (phi+ + w phi+^2) dmu
                       - (1-m)/2 int (phi- - w phi-^2) dmu.

In moments of the measure, at any ``(m, dt)`` with the shapes above,

    E(m, dt) = -(q delta / 2) e^{-I/2} - (1/4) int dmu/w
               + (q^2 dt^2 / 4) int dmu / (w (dt + q w)^2),   I = q^2 int dmu/(dt + q w)^2.

On the self-consistent curve, parametrized by ``y = dt / q``, ``I = int
dmu/(y + w)^2`` no longer holds ``m``: ``dt(y) = delta e^{-I(y)/2}`` and
``m(y) = sqrt(1 - (dt/y)^2)`` are explicit, and since ``E`` is stationary in
``dt`` there, ``dE/dq = -(dt/2) (1 - Phi(y))`` with ``Phi(y) = y int dmu /
(w (y + w)^2)``.  Every magnetized stationary point is a root of the scalar
equation ``Phi(y) = 1``, which holds no ``m``, and ``Phi(y) <= (int dmu/w) /
y`` puts the roots below ``int dmu / w``.  The wide-band energy is not
stationary in ``dt``, but its curve is explicit as well: ``E_s(y) = dt^2 [A
y^(s-2) omega_c^(-s) - 1/(2y)] - alpha omega_c / (2s)`` with ``dt = D
e^{-B y^(s-1)}``, ``A = alpha pi omega_c (1-s) / (2 sin pi s)``, ``B =
(alpha pi s / sin pi s) omega_c^(1-s)`` and ``D = delta e^{alpha/(1-s)}``;
its largest roots lie at ``y > ((1-s) B)^(1/(1-s))``, and there ``(2/dt)
dE_s/dq = Phi_s(y) - 1`` with the wide-band ``Phi_s(y) = 4 A omega_c^(-s)
y^(s-1)``.

At a self-consistent point ``delta e^{-I/2} = dt``, so the moment form
reduces to the curve alone,

    E(m) = E_static - (q dt / 4) (2 - Phi(dt / q)),    E_static = -(1/4) int dmu/w,

which is also ``E_s`` at any ``dt``, with ``Phi_s`` and ``E_static = -alpha
omega_c / (2s)``.  Where ``dt`` collapses to 0 the energy is ``E_static``.
The tunneling prefactor 1/2 of ``E_s`` is the large-cutoff limit of the full
functional and reproduces the closed-form critical coupling; a prefactor 1
does not.

Everything below is written against a generic measure pair (continuum
quadrature rules or a discrete mode list), so the same kernels serve the
continuum solver and the exact-diagonalization cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError
from .model import ModelParams, bath_measures
from .numerics import QuadratureRule, find_root, lambert_w0

_COLLAPSE_FRACTION = 1e-12  # iterates below this * delta count as the dt = 0 root
_NEWTON_TOL = 1e-13  # step in log dt at which a root is accepted
_FIXED_POINT_MAX_ITER = 10_000
_LOG_COLLAPSE = math.log(_COLLAPSE_FRACTION)
_EPS = float(np.finfo(float).eps)
_LOG_FLOAT_MAX = 708.0  # e^(+-708) are normal floats
FUNCTIONALS = ("exact", "scaling")  # the full cutoff integral and its wide-band limit


def _q_of(m: float) -> float:
    # q = sqrt(1 - m^2) as sqrt((1-m)(1+m)), clamped at 0: 1 - m*m would carry the
    # rounding of m*m, 1.25e-9 relative at q = 1e-4; this stays within 4 eps
    return math.sqrt(max(0.0, (1.0 - m) * (1.0 + m)))


@dataclass(frozen=True)
class VariationalState:
    """ADO state: magnetization ``m`` and effective tunneling ``delta_tilde``.

    The amplitudes follow from ``m``, so ``c_plus**2 + c_minus**2 = 1`` and
    ``c_plus**2 - c_minus**2 = m`` hold by construction.
    """

    m: float
    delta_tilde: float

    def __post_init__(self):
        if not (abs(self.m) <= 1.0 and 0.0 <= self.delta_tilde < math.inf):
            raise DomainError(f"VariationalState: need |m| <= 1 and 0 <= delta_tilde < inf, "
                              f"got {self!r}")

    @property
    def c_plus(self) -> float:
        return math.sqrt(0.5 * (1.0 + self.m))

    @property
    def c_minus(self) -> float:
        return math.sqrt(0.5 * (1.0 - self.m))

    @property
    def q(self) -> float:
        """``sqrt(1 - m^2) = 2 c_plus c_minus``."""
        return _q_of(self.m)

    def f_pm(self, omega):
        """Optimal displacement shapes ``(f+/g, f-/g)`` at frequency ``omega``
        (multiply by ``g_l`` for physical displacements).

        At ``omega = 0`` with ``m != 0`` the shape diverges like ``-m / (2 w)``;
        the divergence is returned as ``-inf * sign(m)`` rather than raised, since
        it is a physical feature of the magnetized state (flagged downstream via
        ``occupation_finite``).
        """
        m, delta_tilde = self.m, self.delta_tilde
        w = np.asarray(omega, dtype=float)
        scalar = np.isscalar(omega) or np.ndim(omega) == 0
        q = _q_of(m)
        if q == 0.0 and delta_tilde == 0.0:
            # fully localized static shift, the limit of the general formula
            with np.errstate(divide="ignore"):
                f = -math.copysign(1.0, m) / (2.0 * w)
            return (float(f), float(f)) if scalar else (f, f)
        den = 2.0 * w * (delta_tilde + q * w)
        with np.errstate(divide="ignore", invalid="ignore"):
            fp = -(m * delta_tilde + q * w) / den
            fm = -(m * delta_tilde - q * w) / den
        if np.any(w == 0.0):
            at0_p = -np.inf * np.sign(m) if m != 0.0 else -1.0 / (2.0 * delta_tilde)
            at0_m = -np.inf * np.sign(m) if m != 0.0 else +1.0 / (2.0 * delta_tilde)
            fp = np.where(w == 0.0, at0_p, fp)
            fm = np.where(w == 0.0, at0_m, fm)
        if scalar:
            return float(fp), float(fm)
        return fp, fm


@dataclass(frozen=True)
class GroundStateSolution:
    """Energy-minimizing ADO state together with its spin/bath observables."""

    state: VariationalState
    energy: float
    sx: float
    entanglement: float
    crossover_scale: float

    @property
    def sz(self) -> float:
        return self.state.m

    @property
    def occupation_finite(self) -> bool:  # the shapes' -m/(2 w) tail diverges otherwise
        return self.state.m == 0.0


# ---------------------------------------------------------------------------
# self-consistent effective tunneling
# ---------------------------------------------------------------------------


def _overlap_integral(dt: float, q: float, mu0: QuadratureRule) -> float:
    # q^2 * int dmu / (dt + q w)^2; the branch-overlap exponent is -half of it
    w = mu0.nodes
    return q * q * float(np.dot(mu0.weights, 1.0 / (dt + q * w) ** 2))


def inverse_square(ys, mu: QuadratureRule):
    """``int dmu / (y + w)^2`` on the rule ``mu`` at each ``y`` of ``ys`` (scalar or 1-d)."""
    # one reciprocal, no temporaries: the minimizer's (y, node) tables are a few hundred kB
    inv = np.add.outer(ys, mu.nodes)
    np.reciprocal(inv, out=inv)
    inv *= inv
    return np.dot(inv, mu.weights)


def _safe_step(g: float, k: float) -> float:
    # each term of K = dt q^2 int dmu/(dt+qw)^3 gives K(u) >= e^(u-hi) K(hi) for u <= hi, so
    # g(hi-d) >= g - d + K (1 - e^-d) >= g - (1-K) d - K d^2/2 >= 0 up to its positive root,
    # which tends to the Newton step g/(1-K) as g -> 0
    try:
        r = math.sqrt(max(0.0, (1.0 - k) ** 2 + 2.0 * k * g))
    except OverflowError:  # (1 - K)^2 past the floats, so K > 1e154: the same root over K
        c = 1.0 - 1.0 / k
        return c + math.sqrt(c * c + 2.0 * g / k)
    return 2.0 * g / ((1.0 - k) + r) if k < 1.0 else ((k - 1.0) + r) / k


def _solve_delta_tilde(m: float, delta: float, mu0: QuadratureRule) -> float:
    """Largest fixed point of ``dt = delta * exp(-overlap/2)`` at ``m``; 0 at
    ``|m| = 1``.

    Descends on ``g(u) = u - log(delta) + I/2`` in ``u = log dt`` from ``u =
    log(delta)``, where ``g >= 0``, with ``I = q^2 int dmu/(dt+qw)^2`` and
    ``g' = 1 - K``, ``K = dt q^2 int dmu/(dt+qw)^3``.  Each step is the
    largest one that provably keeps ``g >= 0``, so no step passes the largest
    root, and next to it the step is Newton's.  Roots below ``1e-12 * delta``
    count as ``dt = 0``: ``I`` only grows as ``dt`` falls, so once ``I/2``
    exceeds ``log(1e12)`` no root is left above that floor.  Raises
    :class:`ConvergenceError` after ``_FIXED_POINT_MAX_ITER`` steps.
    """
    if abs(m) >= 1.0:
        return 0.0
    q, wt = _q_of(m), mu0.weights
    q2, qw = q * q, q * mu0.nodes
    log_delta = math.log(delta)
    floor = log_delta + _LOG_COLLAPSE
    u, g = log_delta, math.inf
    for _ in range(_FIXED_POINT_MAX_ITER):
        dt = float(np.exp(u))  # numpy's exp; math.exp differs in the last bit for ~5% of u
        inv = 1.0 / (dt + qw)
        inv2 = inv * inv
        big_i, k = q2 * float(inv2 @ wt), q2 * dt * float((inv2 * inv) @ wt)
        g = u - log_delta + 0.5 * big_i
        if not math.isfinite(g):
            raise ConvergenceError(f"_solve_delta_tilde: residual g = {g!r} at m={m!r}, "
                                   f"dt={dt!r}")
        if 0.5 * big_i > -_LOG_COLLAPSE:  # so g > 0 from here down to the floor
            return 0.0
        step = _safe_step(g, k)
        if step <= _NEWTON_TOL:
            u -= step
        elif g > 8.0 * _EPS * (abs(u) + abs(log_delta) + 0.5 * big_i):
            u -= step
            if u < floor:  # the largest root lies below the floor: dt = 0
                return 0.0
            continue
        return math.exp(u) if u >= floor else 0.0
    raise ConvergenceError(
        f"_solve_delta_tilde: fixed point at m={m!r} unconverged after "
        f"{_FIXED_POINT_MAX_ITER} iterations; residual g = {g:.3e}")


def solve_delta_tilde_scaling(m: float, p: ModelParams) -> float:
    """Effective tunneling in the wide-band (large cutoff) limit, the
    Lambert-W root of ``Functional.of(p, "scaling")``."""
    return Functional.of(p, "scaling").dt(m)


# ---------------------------------------------------------------------------
# the energy functional
# ---------------------------------------------------------------------------


def static_shift_energy(p: ModelParams) -> float:
    """Energy of the fully localized state: ``-alpha omega_c / (2 s)``."""
    return -p.alpha * p.omega_c / (2.0 * p.s)


def _clamped_root(base: float, t: float) -> float:
    """``base^(1/t)`` for ``base >= 0``, taken in logs and clamped into the
    normal floats; 0 stays 0."""
    if base == 0.0:
        return 0.0
    return math.exp(min(max(math.log(base) / t, -_LOG_FLOAT_MAX), _LOG_FLOAT_MAX))


_Y_GRID_PER_DECADE = 8  # one mode's term of Phi stays above half its peak over a factor 34 in y


class Functional:
    """The ADO energy of one bath as a function of the magnetization ``m``:
    ``dt(m)`` (the largest self-consistent root, 0 where it collapses), the
    finite-tunneling ``branch(m)`` and ``energy(m) = min(branch, static)``,
    which is ``static`` at ``|m| = 1``.  (The intermediate unstable fixed
    point always lies above the static branch.)

    One ``Functional`` holds its self-consistent curve, the pairs ``(m, dt =
    q y)`` of the module docstring: the constructor takes the bath's
    tunneling ``delta``, the unit of the energy tie in :meth:`minimize`, the
    kernel ``solve(m) -> dt``, the curve's stationarity residual
    ``residual(ys) = (2/dt) dE/dq``, which vanishes exactly at the magnetized
    stationary points of the branch, its tunneling ``curve_dt(ys)``, and a
    ``span`` of ``y`` that holds every such point on the largest-root branch.
    The branch energy at a pair is ``static - (q dt/4) (1 - residual(dt/q))``.
    """

    def __init__(self, delta: float, static: float, solve: Callable[[float], float],
                 residual: Callable[[np.ndarray], np.ndarray],
                 curve_dt: Callable[[np.ndarray], np.ndarray], span: tuple[float, float]):
        self.delta, self.static = delta, static
        self._solve, self._residual, self._curve_dt, self._span = solve, residual, curve_dt, span

    @classmethod
    def measures(cls, delta: float, mu0: QuadratureRule, mu_m1: QuadratureRule) -> "Functional":
        """Functional on the measure pair ``dmu``, ``dmu / w`` (continuum rules
        or a discrete mode list), with ``static = -(1/4) int dmu / w``, the
        fully displaced oscillators at dead tunneling."""
        # I = int dmu/(y+w)^2 and dE/dq = -(dt/2)(1 - Phi), Phi(y) = y int dmu/(w (y+w)^2);
        # Phi <= (int dmu/w)/y bounds the roots, and dt = q y >= 1e-12 delta
        def residual(ys):
            return ys * inverse_square(ys, mu_m1) - 1.0

        def curve_dt(ys):
            return delta * np.exp(-0.5 * inverse_square(ys, mu0))

        return cls(delta, -0.25 * mu_m1.total_mass, lambda m: _solve_delta_tilde(m, delta, mu0),
                   residual, curve_dt, (_COLLAPSE_FRACTION * delta, mu_m1.total_mass))

    @classmethod
    def of(cls, p: ModelParams, kind: str = "exact") -> "Functional":
        """The ``"exact"`` functional on the full cutoff integral, whose
        ``static`` is the quadrature ``-(1/4) int dmu / w`` (within a few ulp
        of :func:`static_shift_energy`), or its ``"scaling"`` (wide-band)
        limit, whose ``static`` is :func:`static_shift_energy`.  At ``alpha =
        0`` both are the free energy, taken in the wide-band form, which needs
        no bath rules.

        The wide-band self-consistency is ``dt = D exp(-C dt^(s-1))`` with
        ``D = delta exp(alpha/(1-s))`` and ``C = (alpha pi s / sin(pi s))
        (omega_c q)^(1-s)``.  Substituting ``z = (1-s) C dt^(s-1)`` gives ``z
        e^{-z} = (1-s) C D^(s-1)``, solved on the branch with ``z < 1`` (the
        largest root) by ``z = -W0(-(1-s) C D^(s-1))``.  When the W argument
        drops below ``-1/e`` no finite root survives and ``dt = 0``; at
        ``alpha = 0`` the argument is 0 and ``dt = delta``.
        """
        if kind not in FUNCTIONALS:
            raise DomainError(f"unknown functional {kind!r}")
        if kind == "exact" and p.alpha != 0.0:
            return cls.measures(p.delta, *bath_measures(p))
        # on the curve E_s(y) = dt^2 [a y^(s-2) - 1/(2y)] + const, dt = D exp(-b x), x = y^(s-1);
        # with v = t b x = 2 s a x: y^2 dE_s/dy / dt^2 = (2v - s)(v - 1)/(2s) and dq/dy =
        # (dt/y^2)(v - 1), so (2/dt) dE/dq = 4 a x - 1; the largest dt root needs v < 1, and
        # the span holds v = s/2
        s, t, sin = p.s, 1.0 - p.s, math.sin(math.pi * p.s)
        a = p.alpha * math.pi * t * p.omega_c ** t / (2.0 * sin)
        b = p.alpha * math.pi * s * p.omega_c ** t / sin
        c_unit = p.alpha * math.pi * s / sin  # C at omega_c q = 1
        # D overflows once alpha/t passes ~709, so it is kept as its log and
        # D^(-t) = delta^(-t) e^(-alpha) is formed without it
        log_d = math.log(p.delta) + p.alpha / t
        d_pow = p.delta ** -t * math.exp(-p.alpha)

        def solve_one(m: float) -> float:
            if abs(m) >= 1.0:
                return 0.0
            big_c = c_unit * (p.omega_c * _q_of(m)) ** t
            arg = t * big_c * d_pow
            if arg > math.exp(-1.0):
                return 0.0
            z = -lambert_w0(-arg)
            try:  # z = 0 where arg is 0 (alpha = 0 or underflow): dt = D
                dt = p.delta * math.exp(p.alpha / t) if z <= 0.0 else (t * big_c / z) ** (1.0 / t)
            except OverflowError:
                dt = math.inf
            if dt == math.inf:
                raise DomainError(f"wide-band dt at m={m!r} overflows: D = delta exp(alpha/(1-s)) "
                                  f"= e^{log_d:.6g}")
            return dt

        def residual(ys):
            return 4.0 * a * ys ** (s - 1.0) - 1.0

        def curve_dt(ys):
            with np.errstate(over="ignore"):  # an infinite dt has q = dt/y > 1: no candidate
                return np.exp(log_d - b * ys ** (s - 1.0))

        # the span's ends leave the floats for t -> 0; clamped to e^(+-708)
        # it still holds every root with |log y| < 708
        span = (_clamped_root(t * b, t), _clamped_root(2.0 * (b * t + (2.0 - s) * a), t))
        return cls(p.delta, static_shift_energy(p), solve_one, residual, curve_dt, span)

    def dt(self, m: float) -> float:
        """Effective tunneling, the largest self-consistent root."""
        return self._solve(m)

    def branch(self, m: float) -> float:
        """Finite-tunneling branch energy at the self-consistent ``dt``."""
        return self._branch(m, self._solve(m))

    def energy(self, m: float) -> float:
        """``min(branch, static)``; ``static`` at ``|m| = 1``."""
        return min(self.branch(m), self.static)

    def _branch(self, m: float, dt: float) -> float:
        # static - (q dt/4)(1 - residual(dt/q)) on a self-consistent pair; a collapsed
        # or fully polarized pair stays static and never reaches the residual, inf at y = 0
        if abs(m) > 1.0:
            raise DomainError("Functional: |m| must be <= 1")
        if dt <= 0.0 or abs(m) >= 1.0:
            return self.static
        q = _q_of(m)
        return self.static - 0.25 * q * dt * (1.0 - float(self._residual(dt / q)))

    def minimize(self) -> tuple[float, float, float]:
        """Minimum of the even :meth:`energy` over ``m`` in ``[0, 1]``: ``(m,
        E, dt)``.

        The search runs along the self-consistent curve ``y = dt/q`` (module
        docstring): every sign change of the curve's stationarity residual on
        a log-``y`` grid over its ``span`` is refined to a root, and each
        root's ``m`` gets a cold solve, whose ``dt`` is the largest root there
        and is returned.  A root whose curve point is a smaller root at its
        ``m`` thus only adds one more value of :meth:`energy`.  The best root
        must undercut ``m = 0`` by ``1e-13 max(delta, |E|)`` to win.  ``m =
        1`` needs no candidate of its own: the energy there is ``static``,
        which no value of :meth:`energy` exceeds, and unless the winner lies
        strictly below it, as when the tunneling collapses at every ``m``,
        the result is the fully localized ``(1, static, 0)``.
        """
        # past y ~ 1e154, reached only at couplings whose tunneling has long
        # collapsed, (y + w)^2 overflows and its reciprocal reads 0
        with np.errstate(over="ignore"):
            residual, roots = self._residual, []
            lo, hi = self._span
            if hi > lo:
                decades = math.log10(hi) - math.log10(lo)  # hi / lo can overflow
                # geometric, as np.geomspace builds it but several times faster
                grid = np.exp(np.linspace(math.log(lo), math.log(hi),
                                          2 + int(_Y_GRID_PER_DECADE * decades)))
                grid[0], grid[-1] = lo, hi
                r = residual(grid)
                for k in np.flatnonzero(np.signbit(r[:-1]) != np.signbit(r[1:])).tolist():
                    try:
                        roots.append(find_root(lambda y: float(residual(y)),
                                               grid[k], grid[k + 1], tol=_EPS * grid[k]))
                    except BracketError:
                        # the grid's matrix product and the scalar call's dot can round a
                        # residual that is 0 to rounding at one end to opposite signs: that
                        # end is the root
                        roots.append(grid[k] if abs(r[k]) < abs(r[k + 1]) else grid[k + 1])
            ys = np.array(roots)
            qs = self._curve_dt(ys) / ys
            ms = [0.0] + [_q_of(q) for q in qs.tolist() if 0.0 < q < 1.0]  # m = sqrt(1 - q^2)
            dts = [self.dt(m) for m in ms]  # one cold solve per m, so dt(m) comes back bit for bit
            es = [min(self._branch(m, dt), self.static) for m, dt in zip(ms, dts)]
        j = min(range(1, len(es)), key=es.__getitem__, default=0)
        if j and es[j] >= es[0] - 1e-13 * max(self.delta, abs(es[0])):
            j = 0
        if es[j] < self.static:  # so dt > 0 and |m| < 1: energy(m) is static otherwise
            return ms[j], es[j], dts[j]
        return 1.0, self.static, 0.0

    def c1(self) -> float:
        """Landau coefficient of ``branch = c0 + c1 m^2 + O(m^4)``, whose zero
        locates the transition: ``dt`` depends on ``m`` only through ``q``,
        so ``c1 = -(1/2) dE/dq = -(dt/4) residual(dt)`` at ``q = 1``, one
        solve of ``dt(0)``; 0 where that collapses to the static energy."""
        dt = self.dt(0.0)
        return -0.25 * dt * float(self._residual(dt)) if dt > 0.0 else 0.0


# ---------------------------------------------------------------------------
# ground state, observables
# ---------------------------------------------------------------------------


def minimize_energy(p: ModelParams, functional: str = "exact") -> GroundStateSolution:
    """Ground state over the magnetization (positive branch by convention)."""
    m, e, dt = Functional.of(p, functional).minimize()
    return observables(VariationalState(m, dt), p, energy=e)


def spin_vector(m: float, dt: float, delta: float) -> tuple[float, float]:
    """``(sx, r)`` of the state ``(m, dt)``: ``<sigma_x> = sqrt(1 - m^2) dt /
    delta`` (twice the amplitude product times the branch overlap) and the
    spin vector length ``r = sqrt(sx^2 + m^2)``.

    Raises :class:`DomainError` when ``r > 1 + 1e-12``, which no spin state
    has.  ``dt <= delta`` keeps ``r <= 1`` for the full functional, but the
    wide-band tunneling, up to ``D = delta e^(alpha/(1-s))``, can exceed
    ``delta`` when ``omega_c`` is not much larger than ``delta``.
    """
    sx = _q_of(m) * dt / delta
    r = math.hypot(sx, m)
    if r > 1.0 + 1e-12:
        raise DomainError(f"spin vector length {r:.6g} > 1 (sx = {sx:.6g}, M = {m:.6g}): "
                          f"dt/delta = {dt / delta:.6g}, outside the wide-band limit "
                          f"omega_c >> delta")
    return sx, r


def observables(state: VariationalState, p: ModelParams, energy: float) -> GroundStateSolution:
    """Populate spin observables and bath flags for a given state.

    ``sx`` and ``r`` come from :func:`spin_vector`, which raises past ``r =
    1``; the spin-bath entanglement is the binary entropy of ``p_pm = (1 pm
    r)/2``, in bits.  ``crossover_scale = m dt / sqrt(1-m^2)`` separates slow
    modes (same-sign, mean-field-like displacements) from fast, adiabatically
    dressing ones.
    """
    m, dt, q = state.m, state.delta_tilde, state.q
    sx, r = spin_vector(m, dt, p.delta)
    ent = _binary_entropy_bits(0.5 * (1.0 + min(r, 1.0)))
    crossover = math.inf if q == 0.0 and m != 0.0 else (m * dt / q if q > 0.0 else 0.0)
    return GroundStateSolution(state=state, energy=float(energy), sx=sx, entanglement=ent,
                               crossover_scale=crossover)


def _binary_entropy_bits(prob: float) -> float:
    out = 0.0
    for x in (prob, 1.0 - prob):
        if x > 0.0:
            out -= x * math.log2(x)
    return out
