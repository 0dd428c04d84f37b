r"""Special functions and generic 1-d numerical kernels.

Everything here is a pure function of its inputs: the orthogonal
polynomials of power-law measures ``c * w^sigma dw`` on ``[0, upper]`` and
their quadrature rules, the principal branch of the Lambert W function, a
bracketing root finder and log-log power-law fitting.  All routines are
deterministic; identical inputs give bit-identical outputs.  Only numpy is
imported here: scipy's tridiagonal eigensolver is loaded on first use, by
Gauss rules above order 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError

_INV_E = math.exp(-1.0)
_EPS = float(np.finfo(float).eps)
_DENSE_MAX_N = 64  # Gauss rules up to this order take their nodes from a dense eigvalsh
_ROOT_MAX_ITER = 200


def lambert_w0(x: float) -> float:
    """Principal branch ``W0(x)`` of ``w * exp(w) = x`` for real ``x >= -1/e``.

    Halley iteration from a piecewise initial guess (branch-point series
    near ``-1/e``, ``log1p`` in the middle, asymptotic expansion for large
    arguments), until the step or the residual ``|w e^w - x|`` reaches
    rounding level.  The result satisfies ``|w e^w - x| <= 1e-12 * max(1,
    |x|)``; :class:`ConvergenceError` is raised if neither test is met in
    100 steps.

    Arguments up to ``1e-14`` below ``-1/e`` are clamped onto the branch
    point; anything lower raises :class:`DomainError`.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("lambert_w0: argument is NaN")
    if x <= -_INV_E:
        if x < -_INV_E - 1e-14:
            raise DomainError(f"lambert_w0: x={x!r} below -1/e")
        return -1.0
    if x == 0.0:
        return 0.0

    if x < -0.2:
        # series around the branch point w(-1/e) = -1
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
    elif x < 3.0:
        w = math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    # next to -1/e the step test alone is never met: W is ill-conditioned there,
    # so the iteration also stops once the residual is at rounding level,
    # relative to |x| so that small arguments keep full relative precision
    f_tol = 4.0 * _EPS * abs(x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        if w1 == 0.0:
            w += 1e-12
            continue
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 2e-16 * (2.0 + abs(w)) or abs(f) <= f_tol:
            return w
    raise ConvergenceError(f"lambert_w0: x={x!r} unconverged after 100 Halley steps; "
                           f"residual {abs(f):.3e}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights representing a measure on an interval.

    ``weights @ f(nodes)`` approximates the integral of ``f`` against the
    measure the rule was built for; the weight function is folded into
    ``weights``, so integrating the constant 1 returns the measure's mass.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("QuadratureRule: nodes/weights must be equal-length 1-d arrays")
        # array methods, not np.any, which costs more on these short arrays
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise DomainError("QuadratureRule: nodes and weights must be finite")
        if (nodes[1:] <= nodes[:-1]).any():
            raise DomainError("QuadratureRule: nodes must be strictly increasing")
        if (weights <= 0.0).any():
            raise DomainError("QuadratureRule: weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def scaled(self, factor: float) -> "QuadratureRule":
        """The rule of ``factor`` times this measure, on the same nodes.

        Of the constructor's checks only those that scaling can break are
        made again: a weight that underflows to 0 (NaN or a factor <= 0
        fails the same test) and a total mass that overflows to inf."""
        # as plain floats the products overflow to inf without numpy's warning; the
        # scaled weights' own sum differs from factor * mass by far less than 1e-12
        weights = self.weights
        if weights.size and not (0.0 < factor * float(weights.min())
                                 and factor * float(weights.sum()) * (1.0 + 1e-12) < math.inf):
            raise DomainError(f"QuadratureRule: weights times {factor!r} are not finite "
                              f"and positive, or their sum overflows")
        return QuadratureRule._checked_by_caller(self.nodes, factor * weights)

    @classmethod
    def _checked_by_caller(cls, nodes: np.ndarray, weights: np.ndarray) -> "QuadratureRule":
        # a rule whose arrays the caller has shown to pass the constructor's checks
        rule = object.__new__(cls)
        object.__setattr__(rule, "nodes", nodes)
        object.__setattr__(rule, "weights", weights)
        return rule

    @property
    def order(self) -> int:
        return self.nodes.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def jacobi_recurrence(sigma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``n`` recurrence coefficients (the Jacobi matrix's diagonal and
    ``n - 1`` off-diagonals) of the orthonormal polynomials of ``w^sigma dw``
    on ``[0, 1]``: the shifted Jacobi(0, sigma) weight, in closed form (Chin,
    Rivas, Huelga & Plenio, J. Math. Phys. 51, 092109 (2010)).
    """
    a = sigma + 2.0 * np.arange(n, dtype=float)
    diag = np.empty(n)
    diag[0] = (sigma + 1.0) / (sigma + 2.0)  # the general formula is 0/0 at sigma = 0
    diag[1:] = 0.5 * (1.0 + sigma * sigma / (a[1:] * (a[1:] + 2.0)))
    k1 = np.arange(1, n, dtype=float)  # k + 1, with a[k + 1] = sigma + 2k + 2
    off = k1 * (k1 + sigma) / (a[1:] * np.sqrt((a[1:] - 1.0) * (a[1:] + 1.0)))
    return diag, off


def orthonormal_polys(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> Iterator[np.ndarray]:
    """Rows ``p_0(x), p_1(x), ...`` of the polynomials with recurrence
    coefficients ``diag``/``off``, one per coefficient in ``diag``.

    Upward three-term recurrence from ``p_0 = 1``: orthonormal for the measure
    scaled to unit mass, and stable for ``x`` inside its support.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    yield cur
    for k in range(diag.size - 1):
        # at k = 0, off[-1] multiplies p_(-1) = 0
        prev, cur = cur, ((x - diag[k]) * cur - off[k - 1] * prev) / off[k]
        yield cur


@lru_cache(maxsize=256)
def _jacobi_unit(n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    # Golub-Welsch Gauss rule for w^sigma dw on [0, 1]: the nodes are the
    # Jacobi matrix's eigenvalues, the Christoffel weights 1/sum_k p_k^2 are
    # summed without an eigenvector matrix; the cache is bounded because
    # every new bath exponent adds keys.  Small orders diagonalize the dense
    # matrix with numpy and sum node by node in plain floats, several times
    # faster than numpy rows at these sizes and rounded alike; only large
    # orders load scipy's tridiagonal solver and sum row by row
    diag, off = jacobi_recurrence(sigma, n)
    if n <= _DENSE_MAX_N:
        nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
        d, o, norms = diag.tolist(), off.tolist(), []
        for x in nodes.tolist():
            prev, cur, norm = 0.0, 1.0, 1.0
            for k in range(n - 1):  # orthonormal_polys' recurrence, at one node
                prev, cur = cur, ((x - d[k]) * cur - (o[k - 1] * prev if k else 0.0)) / o[k]
                norm += cur * cur
            norms.append(norm)
        return nodes, 1.0 / ((sigma + 1.0) * np.array(norms))
    from scipy.linalg import eigvalsh_tridiagonal

    nodes = eigvalsh_tridiagonal(diag, off)
    norm = np.zeros(n)
    for row in orthonormal_polys(diag, off, nodes):
        norm += row * row
    return nodes, 1.0 / ((sigma + 1.0) * norm)


def power_rule(sigma: float, upper: float, n: int, prefactor: float = 1.0) -> QuadratureRule:
    """Gauss rule for the measure ``prefactor * w^sigma dw`` on ``[0, upper]``.

    Exact for integrands that are polynomials of degree ``<= 2n - 1``
    multiplying the (possibly singular, ``sigma > -1``) weight.
    """
    if sigma <= -1.0:
        raise DomainError(f"power_rule: exponent {sigma} not integrable at 0")
    if upper <= 0.0 or n < 1 or prefactor <= 0.0:
        raise DomainError("power_rule: need upper > 0, n >= 1, prefactor > 0")
    nodes, weights = _jacobi_unit(int(n), float(sigma))
    return QuadratureRule(upper * nodes, prefactor * upper ** (sigma + 1.0) * weights)


_LOG_HEAD_FRACTION = 1e-8
_LOG_HEAD_N = 8
_LOG_SEGMENT_N = 32


@lru_cache(maxsize=None)
def _log_panels() -> tuple[np.ndarray, np.ndarray]:
    # the panel template at upper = 1: Gauss-Legendre nodes on the decades
    # [1e-8, 1e-7], ..., [0.1, 1] and, per node, half the panel width times
    # the Legendre weight
    x, w = np.polynomial.legendre.leggauss(_LOG_SEGMENT_N)
    n_decades = int(round(-math.log10(_LOG_HEAD_FRACTION)))
    edges = _LOG_HEAD_FRACTION * 10.0 ** np.arange(n_decades + 1.0)
    edges[-1] = 1.0
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return np.ravel(mid[:, None] + half[:, None] * x), np.ravel(half[:, None] * w)


def power_rule_log(sigma: float, upper: float, prefactor: float = 1.0) -> QuadratureRule:
    """Composite rule for ``prefactor * w^sigma dw`` on ``[0, upper]``.

    An 8-node Gauss-Jacobi head, the rule of ``w^sigma``, handles the
    endpoint singularity on ``[0, 1e-8 * upper]``.  Geometric decades of
    32-node Gauss-Legendre panels cover the rest; they are one cached
    template at ``upper = 1``, scaled by ``upper``.  Accuracy is uniform for
    integrands with structure anywhere in ``(1e-7 * upper, upper)``, e.g.
    rational factors whose pole distance from the interval is many orders of
    magnitude smaller than ``upper``.  Below ``1e-7 * upper`` the head alone
    resolves the pole, and the accuracy falls off.  Against 30-digit
    ``hyp2f1`` for ``int w^sigma (y + w)^-k dw`` (``k = 2, 3``, ``sigma = s``
    and ``s - 1``, ``s`` in [0.02, 0.95]) the worst relative error is 2e-15
    at ``y = 3e-8 * upper``, 5e-10 at ``1e-8``, 2e-5 at ``3e-9``, 9e-3 at
    ``1e-9`` and between 1 and 14 from ``1e-13`` to ``1e-10``.  The rule of
    ``w^(sigma + 1)`` on the same nodes is this one's weights times its
    nodes, which is how the continuum bath pair shares one rule
    (:func:`~subohmic.model.bath_measures`).
    """
    if sigma <= -1.0:
        raise DomainError(f"power_rule_log: exponent {sigma} not integrable at 0")
    if upper <= 0.0 or prefactor <= 0.0:
        raise DomainError("power_rule_log: need upper > 0, prefactor > 0")
    head_nodes, head_weights = _jacobi_unit(_LOG_HEAD_N, float(sigma))
    cut = _LOG_HEAD_FRACTION * upper
    x, half_w = _log_panels()
    nodes = np.concatenate([cut * head_nodes, upper * x])
    weights = np.concatenate([cut ** (sigma + 1.0) * head_weights,
                              upper ** (sigma + 1.0) * half_w * x**sigma])
    return QuadratureRule(nodes, prefactor * weights)


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of ``f`` inside ``[lo, hi]``, which must bracket a sign change.

    Brent's zeroin, step for step the one of scipy's ``brentq`` (so results
    agree bit for bit): each step interpolates (secant or inverse quadratic)
    inside the block ``[xcur, xblk]`` of the sign change when that shrinks
    the block fast enough, and bisects otherwise.  The returned abscissa is
    within ``tol + 4 eps |x|`` of a sign change of ``f``.  The steps run in
    plain floats whatever the argument types; an interpolation that divides
    by zero bisects, as brentq does with the inf or NaN it gets.  Raises
    :class:`BracketError` when ``f(lo)`` and ``f(hi)`` have the same sign
    (or one is NaN), and :class:`ConvergenceError` when ``f`` turns NaN or
    200 steps do not reach that width.
    """
    lo, hi, tol = float(lo), float(hi), float(tol)  # plain floats, in the messages too
    xpre, xcur = lo, hi
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise BracketError(f"find_root: no sign change on [{lo!r}, {hi!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):  # the sign change moved: xpre ends the block
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + 4.0 * _EPS * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic through the three points
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # brentq's C code gets inf or NaN here, and bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(f"find_root: f is NaN at x={xcur!r}")
    raise ConvergenceError(f"find_root: bracket [{lo!r}, {hi!r}] not narrowed to {tol!r} "
                           f"after {_ROOT_MAX_ITER} steps; last x={xcur!r}")


@dataclass(frozen=True)
class FitResult:
    """Power-law fit ``y = prefactor * x**exponent`` from log-log least squares.

    ``residual`` is the root-mean-square misfit in log space.
    """

    exponent: float
    prefactor: float
    residual: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Least-squares line in (log x, log y); the slope is the exponent."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3:
        raise DomainError("fit_power_law: need at least 3 points")
    if x.shape != y.shape:
        raise DomainError("fit_power_law: xs and ys must have equal length")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("fit_power_law: data must be strictly positive")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
