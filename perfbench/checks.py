"""Correctness checks on CLI outputs, run outside the timed region.

Each check takes the command and the text the CLI wrote to ``--output`` and
returns ``None`` when the output is correct, else a one-line reason.  The
tolerances are those of the acceptance suite.  CSV columns are read by
header name and JSON fields by key, so added columns or fields (a future
``status`` column, say) do not break the checks.
"""

from __future__ import annotations

import json
import math

from subohmic.critical import critical_coupling_closed, critical_coupling_numeric
from subohmic.model import ModelParams, bath_measures

SELF_CONSISTENCY_RTOL = 1e-10
BETA, BETA_TOL = 0.50, 0.01
GAMMA, GAMMA_TOL = 1.00, 0.02
CRITICAL_RATIO_BAND = (0.95, 1.15)
VARIATIONAL_SLACK = 1e-9
# Sweep rows within this relative distance of alpha_c are not asked for the
# sign of M: a grid point can fall arbitrarily close to the transition, where
# the Landau energy gain (~ r^2) drops below the minimizer's resolution.  At
# r = 1e-4 the gain is still orders of magnitude above it.
TRANSITION_BAND = 1e-4


class CheckFailure(Exception):
    pass


def _json(text: str) -> dict:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None
    if record.get("has_nonfinite") is not False:
        raise CheckFailure("record has non-finite fields")
    return record


def _csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckFailure("CSV has no header")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CheckFailure(f"CSV row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _floats(rows: list[dict], column: str) -> list[float]:
    try:
        values = [float(r[column]) for r in rows]
    except KeyError:
        raise CheckFailure(f"CSV has no column {column!r}") from None
    except ValueError as exc:
        raise CheckFailure(f"column {column!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckFailure(f"column {column!r} has non-finite values")
    return values


def _params(cmd) -> ModelParams:
    return ModelParams(s=cmd.opt("--s"), alpha=cmd.opt("--alpha"),
                       delta=cmd.opt("--delta"), omega_c=cmd.opt("--omega-c"))


def check_solve(cmd, text: str) -> None:
    r = _json(text)
    p = _params(cmd)
    m, dt = r["M"], r["delta_tilde"] * p.delta
    if not 0.0 <= m <= 1.0:
        raise CheckFailure(f"M={m!r} outside [0, 1]")
    if not dt > 0.0:
        raise CheckFailure(f"delta_tilde={dt!r} is not positive")
    q = math.sqrt(1.0 - m * m)
    mu0, _ = bath_measures(p)
    overlap = q * q * sum(w / (dt + q * x) ** 2 for x, w in zip(mu0.nodes, mu0.weights))
    resid = abs(dt - p.delta * math.exp(-0.5 * overlap)) / dt
    if resid > SELF_CONSISTENCY_RTOL:
        raise CheckFailure(f"self-consistency residual {resid:.3e} > {SELF_CONSISTENCY_RTOL:g}")


def check_sweep(cmd, text: str) -> None:
    rows = _csv(text)
    n = int(cmd.opt("--alpha-grid").rsplit(":", 1)[1])
    if len(rows) != n:
        raise CheckFailure(f"{len(rows)} rows, expected {n}")
    for col in ("sx", "entanglement", "energy", "c1"):
        _floats(rows, col)
    alphas, ms = _floats(rows, "alpha"), _floats(rows, "M")
    alpha_c = critical_coupling_numeric(cmd.opt("--s"), cmd.opt("--delta"), cmd.opt("--omega-c"))
    for a, m in zip(alphas, ms):
        r = a / alpha_c - 1.0
        if r < -TRANSITION_BAND and m != 0.0:
            raise CheckFailure(f"M={m!r} at alpha={a!r} below alpha_c={alpha_c!r}")
        if r > TRANSITION_BAND and not m > 0.0:
            raise CheckFailure(f"M={m!r} at alpha={a!r} above alpha_c={alpha_c!r}")


def check_exponents(cmd, text: str) -> None:
    r = _json(text)
    if abs(r["beta"] - BETA) > BETA_TOL:
        raise CheckFailure(f"beta={r['beta']!r} not {BETA} +- {BETA_TOL}")
    if abs(r["gamma"] - GAMMA) > GAMMA_TOL:
        raise CheckFailure(f"gamma={r['gamma']!r} not {GAMMA} +- {GAMMA_TOL}")


def check_critical(cmd, text: str) -> None:
    r = _json(text)
    closed, _ = critical_coupling_closed(cmd.opt("--s"), cmd.opt("--delta"), cmd.opt("--omega-c"))
    if abs(r["alpha_c_closed"] - closed) > 1e-12 * closed:
        raise CheckFailure(f"alpha_c_closed={r['alpha_c_closed']!r}, expected {closed!r}")
    lo, hi = CRITICAL_RATIO_BAND
    ratio = r["alpha_c_numeric"] / closed
    if not lo <= ratio <= hi:
        raise CheckFailure(f"numeric/closed ratio {ratio!r} outside [{lo}, {hi}]")


def check_chain(cmd, text: str) -> None:
    rows = _csv(text)
    n = cmd.opt("--n-sites")
    if len(rows) != n:
        raise CheckFailure(f"{len(rows)} rows, expected {n}")
    if any(v < 0.0 for v in _floats(rows, "n_av")):
        raise CheckFailure("negative site occupation")


def check_oracle(cmd, text: str) -> None:
    r = _json(text)
    e_exact, e_ado = r["energy_exact"], r["energy_ado_discrete"]
    if not e_exact <= e_ado + VARIATIONAL_SLACK:
        raise CheckFailure(f"variational bound broken: E_exact={e_exact!r} > E_ado={e_ado!r}")
    if not 0.0 <= r["fidelity"] <= 1.0:
        raise CheckFailure(f"fidelity={r['fidelity']!r} outside [0, 1]")


CHECKS = {
    "solve": check_solve,
    "sweep": check_sweep,
    "exponents": check_exponents,
    "critical": check_critical,
    "chain": check_chain,
    "oracle": check_oracle,
}


def failure(cmd, exit_code, text: str | None, error: str | None) -> str | None:
    """Why a command failed, or ``None`` when it succeeded and its output checks."""
    if error is not None:
        return error
    if exit_code != 0:
        return f"exit code {exit_code}"
    if text is None:
        return "no output file written"
    try:
        CHECKS[cmd.kind](cmd, text)
    except CheckFailure as exc:
        return str(exc)
    except (KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
