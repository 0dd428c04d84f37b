r"""Command-line front end: solve, sweep, locate and characterize the transition.

Commands map one-to-one onto library operations and emit plot-ready CSV for
tables or JSON for scalar records.  Output is deterministic: no timestamps,
fixed column order, repeatable float formatting; files are written
atomically, through the per-process temp file ``<output>.<pid>.tmp`` and a
rename.  Stdout carries only that payload; the one-line summary of each
command goes to stderr.  Energies are reported in units of ``delta`` and
frequencies in units of ``omega_c`` unless ``--raw-units`` is given.  Each
command has one option table: its flags and its config-file keys are
exactly the options it reads.

Exit codes: 0 success, 2 domain error, 3 numerical non-convergence,
64 usage error.  A ``sweep`` or ``phase-diagram`` row that fails is written
with its error class in the ``status`` column, and the command exits with
the code of its first failed row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .errors import BracketError, ConvergenceError, DomainError
from .model import ModelParams, finite_or_overflow
from .variational import FUNCTIONALS, minimize_energy

_SCHEMA_VERSION = "1"


class _Option(NamedTuple):
    """One setting, named by its config-file key; its flag is ``--key`` with
    ``_`` turned into ``-``.  ``kind`` is ``float``, ``int``, ``str``, ``bool``
    or the tuple of allowed strings; ``default`` applies when neither a flag
    nor the config file sets it."""

    kind: object
    default: object = None
    help: str | None = None


_OPTIONS = {
    "s": _Option(float),
    "alpha": _Option(float),
    "delta": _Option(float),
    "omega_c": _Option(float),
    "output": _Option(str),
    "raw_units": _Option(bool, False),
    "functional": _Option(FUNCTIONALS, "exact"),
    "alpha_grid": _Option(str, help="lo:hi:n linear grid"),
    "s_grid": _Option(str, help="lo:hi:n"),
    "omega_c_list": _Option(str, help="comma-separated cutoffs"),
    "n_sites": _Option(int, 50),
    "occupations": _Option(bool, False),
    "frame": _Option(("bare", "displaced"), "bare"),
    "n_modes": _Option(int, 4),
    "n_boson": _Option(int, 8),
    "basis": _Option(("star", "chain"), "star"),
    "window": _Option(str, "1e-4:1e-2", "reduced-coupling lo:hi"),
    "points_per_side": _Option(int, 12),
}

@dataclass
class RunConfig:
    """One fully resolved invocation: a command plus its parameters."""

    command: str
    options: dict = field(default_factory=dict)

    def params(self) -> ModelParams:
        """Model parameters from the options.  ``alpha`` is required by the
        commands that take ``--alpha``; for the others it is 0."""
        keys = _COMMANDS[self.command].options
        missing = [k for k in ("s", "alpha", "delta", "omega_c")
                   if k in keys and self.options.get(k) is None]
        if missing:
            raise DomainError(f"missing required parameter(s): {', '.join(missing)}")
        return ModelParams(
            s=self.options["s"],
            alpha=self.options["alpha"] if "alpha" in keys else 0.0,
            delta=self.options["delta"],
            omega_c=self.options["omega_c"],
        )

    def unit(self, scale: float) -> float:
        """Reporting unit of a quantity measured in ``scale``; 1 with ``--raw-units``."""
        return 1.0 if self.options["raw_units"] else scale


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _cast(key: str, value: str):
    kind = _OPTIONS[key].kind
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(value)
        return value
    return kind(value)


def load_config(path: str | Path, command: str) -> dict:
    """Parse the line-oriented ``key = value`` config format for ``command``.

    Blank lines and ``#`` comments are ignored; a key outside the command's
    option table, a malformed line and a bad value are errors that name the
    offending line number.
    """
    keys = _COMMANDS[command].options
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r} for {command}, "
                              f"which takes {', '.join(keys)}")
        try:
            out[key] = _cast(key, value)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return out


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise DomainError(f"bad grid spec {spec!r}, expected lo:hi:n") from exc
    if n < 1 or hi < lo:
        raise DomainError(f"bad grid spec {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_list(spec: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad list spec {spec!r}, expected comma-separated numbers") from exc
    if not values:
        raise DomainError(f"bad list spec {spec!r}, expected at least one number")
    return values


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _sanitize_record(record: dict) -> dict:
    out = {}
    nonfinite = False
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            nonfinite = True
            value = _format_float(value)
        out[key] = value
    out["schema_version"] = _SCHEMA_VERSION
    out["has_nonfinite"] = nonfinite
    return out


def _write_atomic(path: str | Path, text: str) -> None:
    # a fixed temp name per process, created owner-only (0600) without
    # following a symlink planted there, then renamed over path
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Output(NamedTuple):
    """What a command produced: the payload for stdout or ``--output``, a
    one-line summary for stderr, and the first per-row failure, if any."""

    text: str
    summary: str
    failure: Exception | None = None


def _reported(name: str, value: float, unit: float) -> float:
    """``value`` in its reporting unit: a finite result whose quotient leaves
    the floats (plain floats, so no numpy warning) is a domain error naming
    the ratio ``name``; a result that is already infinite stays so."""
    ratio = float(value) / unit
    return finite_or_overflow(name, ratio) if math.isfinite(value) else ratio


def _csv_text(table_name: str, header: Sequence[str], rows) -> str:
    lines = [f"# subohmic {__version__} {table_name} schema_version={_SCHEMA_VERSION}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_float(x) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _json_text(record: dict) -> str:
    # the flat record as json.dumps(indent=2, sort_keys=True) lays it out, but from
    # the C encoder, which an indent turns off: the items' separator carries the indent
    items = json.dumps(_sanitize_record(record), sort_keys=True, separators=(",\n  ", ": "))
    return "{\n  " + items[1:-1] + "\n}\n"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig) -> _Output:
    p = cfg.params()
    functional = cfg.options["functional"]
    sol = minimize_energy(p, functional=functional)
    e_unit = cfg.unit(p.delta)
    record = {
        "command": "solve",
        "s": p.s, "alpha": p.alpha, "delta": p.delta, "omega_c": p.omega_c,
        "functional": functional,
        "raw_units": cfg.options["raw_units"],
        "M": sol.sz,
        "energy": _reported("energy/delta", sol.energy, e_unit),
        "sx": sol.sx,
        "entanglement": sol.entanglement,
        "delta_tilde": _reported("delta_tilde/delta", sol.state.delta_tilde, e_unit),
        "crossover_scale": _reported("crossover_scale/omega_c", sol.crossover_scale,
                                     cfg.unit(p.omega_c)),
        "occupation_finite": sol.occupation_finite,
        "theory_valid": p.theory_valid,
    }
    return _Output(_json_text(record),
                   f"solve: M={_format_float(sol.sz)} energy/delta="
                   f"{_format_float(sol.energy / p.delta)} sx={_format_float(sol.sx)}")


def _cmd_sweep(cfg: RunConfig) -> _Output:
    from .critical import sweep_alpha

    p = cfg.params()
    grid_spec = cfg.options.get("alpha_grid")
    if not grid_spec:
        raise DomainError("sweep: --alpha-grid lo:hi:n is required")
    alphas = _parse_grid(grid_spec)
    e_unit = cfg.unit(p.delta)
    table = sweep_alpha(p.s, p.delta, p.omega_c, alphas, functional=cfg.options["functional"])
    failures = dict(table.failures)
    rows = []
    for i, row in enumerate(zip(table.alphas.tolist(), table.m.tolist(), table.sx.tolist(),
                                table.entanglement.tolist(), table.energy.tolist(),
                                table.c1.tolist())):
        if i not in failures:
            try:  # a row whose energy or c1 leaves the floats in units of delta fails
                row = row[:4] + (_reported("energy/delta", row[4], e_unit),
                                 _reported("c1/delta", row[5], e_unit))
            except DomainError as exc:
                failures[i] = exc
        rows.append(row + ("ok",) if i not in failures
                    else (row[0],) + (math.nan,) * 5 + (type(failures[i]).__name__,))
    n_loc = sum(1 for row in rows if row[1] > 1e-6)
    return _Output(
        _csv_text("sweep", ["alpha", "M", "sx", "entanglement", "energy", "c1", "status"], rows),
        f"sweep: {len(rows)} rows, {n_loc} localized, {len(failures)} failures",
        failures[min(failures)] if failures else None)


def _cmd_critical(cfg: RunConfig) -> _Output:
    from .critical import critical_point

    p = cfg.params()
    functional = cfg.options["functional"]
    cp = critical_point(p.s, p.delta, p.omega_c, functional=functional)
    record = {
        "command": "critical",
        "s": cp.s, "delta": cp.delta, "omega_c": cp.omega_c,
        "functional": functional,
        "alpha_c_numeric": cp.alpha_c_numeric,
        "alpha_c_closed": cp.alpha_c_closed,
        "ratio_numeric_to_closed": cp.ratio,
        "delta_tilde_c": cp.delta_tilde_c / cfg.unit(cp.delta),
        "sx_c": cp.sx_c,
    }
    return _Output(_json_text(record),
                   f"critical: alpha_c_numeric={_format_float(cp.alpha_c_numeric)} "
                   f"alpha_c_closed={_format_float(cp.alpha_c_closed)} "
                   f"ratio={_format_float(cp.ratio)}")


def _cmd_phase_diagram(cfg: RunConfig) -> _Output:
    from .critical import phase_diagram

    s_spec = cfg.options.get("s_grid")
    wc_spec = cfg.options.get("omega_c_list")
    delta = cfg.options.get("delta")
    if not s_spec or not wc_spec or delta is None:
        raise DomainError("phase-diagram: --s-grid, --omega-c-list and --delta are required")
    rows = phase_diagram(_parse_grid(s_spec), delta, _parse_list(wc_spec),
                         functional=cfg.options["functional"])
    csv_rows = [
        (r["s"], r["omega_c"], r["alpha_c_numeric"], r["alpha_c_closed"], r["status"])
        for r in rows
    ]
    errors = [r["error"] for r in rows if r["error"] is not None]
    return _Output(
        _csv_text("phase-diagram", ["s", "omega_c", "alpha_c_numeric", "alpha_c_closed", "status"],
                  csv_rows),
        f"phase-diagram: {len(rows)} points, {len(errors)} failures",
        errors[0] if errors else None)


def _cmd_chain(cfg: RunConfig) -> _Output:
    from .chain import chain_map, chain_occupations

    p = cfg.params()
    w_unit = cfg.unit(p.omega_c)
    rep = chain_map(p, cfg.options["n_sites"])
    if cfg.options["occupations"]:
        sol = minimize_energy(p)
        m_frame = sol.state.m if cfg.options["frame"] == "displaced" else 0.0
        profile = chain_occupations(sol.state, p, rep, m_frame=m_frame)
        rows = [(n, float(x)) for n, x in enumerate(profile.n_av)]
        return _Output(_csv_text(f"chain-occupations frame={profile.frame}", ["n", "n_av"], rows),
                       f"chain: M={_format_float(sol.sz)} frame={profile.frame} "
                       f"total={_format_float(float(np.sum(profile.n_av)))}")
    rows = []
    for n in range(rep.n_sites):
        hop = rep.hoppings[n] / w_unit if n < rep.n_sites - 1 else math.nan
        rows.append((n, float(rep.site_energies[n] / w_unit), float(hop)))
    return _Output(_csv_text("chain-coefficients", ["n", "eps_n", "t_n"], rows),
                   f"chain: {rep.n_sites} sites, "
                   f"t_minus1={_format_float(rep.system_coupling / w_unit)}")


def _cmd_oracle(cfg: RunConfig) -> _Output:
    from .oracle import OracleConfig, run_oracle

    p = cfg.params()
    ocfg = OracleConfig(n_modes=cfg.options["n_modes"], n_boson=cfg.options["n_boson"],
                        which_basis=cfg.options["basis"])
    result = run_oracle(p, ocfg)
    e_unit = cfg.unit(p.delta)
    record = {
        "command": "oracle",
        "s": p.s, "alpha": p.alpha, "delta": p.delta, "omega_c": p.omega_c,
        "n_modes": ocfg.n_modes, "n_boson": ocfg.n_boson, "basis": ocfg.which_basis,
        "raw_units": cfg.options["raw_units"],
        "energy_exact": result.energy_exact / e_unit,
        "energy_ado_discrete": result.energy_ado_discrete / e_unit,
        "fidelity": result.fidelity,
        "truncation_loss": result.truncation_loss,
        "converged_nb": result.converged_nb,
    }
    return _Output(_json_text(record),
                   f"oracle: F={_format_float(result.fidelity)} "
                   f"E_exact/delta={_format_float(result.energy_exact / p.delta)}")


def _cmd_exponents(cfg: RunConfig) -> _Output:
    from .critical import critical_coupling_numeric, extract_exponents, sweep_alpha

    p = cfg.params()
    if not p.theory_valid:
        raise DomainError("exponents: mean-field exponents require s < 0.5")
    window_spec = cfg.options["window"]
    try:
        lo_s, hi_s = window_spec.split(":")
        window = (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise DomainError(f"bad window spec {window_spec!r}, expected lo:hi") from exc
    if not 0.0 < window[0] < window[1]:
        raise DomainError(f"bad window spec {window_spec!r}, need 0 < lo < hi")
    n_side = cfg.options["points_per_side"]
    if n_side < 1:
        raise DomainError(f"exponents: --points-per-side must be positive, got {n_side}")
    functional = cfg.options["functional"]
    alpha_c = critical_coupling_numeric(p.s, p.delta, p.omega_c, functional)
    red = np.geomspace(window[0], window[1], n_side)
    alphas = np.sort(np.concatenate([alpha_c * (1 - red), alpha_c * (1 + red)]))
    table = sweep_alpha(p.s, p.delta, p.omega_c, alphas, functional=functional)
    beta, gamma = extract_exponents(table, alpha_c, window=window)
    record = {
        "command": "exponents",
        "s": p.s, "delta": p.delta, "omega_c": p.omega_c,
        "functional": functional,
        "alpha_c_numeric": alpha_c,
        "window_lo": window[0], "window_hi": window[1],
        "beta": beta.exponent, "beta_prefactor": beta.prefactor,
        "beta_residual": beta.residual,
        # chi = 1/(4 c1) is an inverse energy: its prefactor is given per 1/delta
        "gamma": gamma.exponent, "gamma_prefactor": gamma.prefactor * cfg.unit(p.delta),
        "gamma_residual": gamma.residual,
    }
    return _Output(_json_text(record), f"exponents: beta={_format_float(beta.exponent)} "
                                        f"gamma={_format_float(gamma.exponent)}, "
                                        f"{len(table.failures)} failures",
                   table.failures[0][1] if table.failures else None)


class _Command(NamedTuple):
    help: str
    options: tuple  # keys of _OPTIONS: the command's flags and config-file keys
    handler: Callable[[RunConfig], _Output]


_COMMANDS = {
    "solve": _Command("ground state at one coupling",
                      ("s", "alpha", "delta", "omega_c", "functional", "raw_units", "output"),
                      _cmd_solve),
    "sweep": _Command("ground state along a coupling grid",
                      ("s", "delta", "omega_c", "alpha_grid", "functional", "raw_units",
                       "output"), _cmd_sweep),
    "critical": _Command("critical coupling, numeric and closed form",
                         ("s", "delta", "omega_c", "functional", "raw_units", "output"),
                         _cmd_critical),
    "phase-diagram": _Command("critical couplings over (s, omega_c)",
                              ("s_grid", "delta", "omega_c_list", "functional", "output"),
                              _cmd_phase_diagram),
    "chain": _Command("chain coefficients or site occupations",
                      ("s", "alpha", "delta", "omega_c", "n_sites", "occupations", "frame",
                       "raw_units", "output"), _cmd_chain),
    "oracle": _Command("exact diagonalization cross-check",
                       ("s", "alpha", "delta", "omega_c", "n_modes", "n_boson", "basis",
                        "raw_units", "output"), _cmd_oracle),
    "exponents": _Command("critical exponent fits",
                          ("s", "delta", "omega_c", "window", "points_per_side", "functional",
                           "raw_units", "output"), _cmd_exponents),
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    try:
        out = _COMMANDS[cfg.command].handler(cfg)
        if cfg.options["output"]:
            try:
                _write_atomic(cfg.options["output"], out.text)
            except OSError as exc:
                raise DomainError(
                    f"cannot write output {cfg.options['output']}: {exc.strerror or exc}") from exc
        else:
            sys.stdout.write(out.text)
        print(out.summary, file=sys.stderr)
        if out.failure is not None:
            raise out.failure
        return 0
    except DomainError as exc:
        print(f"subohmic {cfg.command}: domain error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError) as exc:
        print(f"subohmic {cfg.command}: did not converge: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import, and then kept for the process
    # no abbreviations: a flag another command takes, or a prefix of one of
    # this command's (--omega-c of --omega-c-list), is a usage error
    parser = _Parser(prog="subohmic", allow_abbrev=False,
                     description="Variational ground state of the sub-ohmic spin-boson model")
    parser.add_argument("--version", action="version", version=f"subohmic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, allow_abbrev=False)
        sp.add_argument("--config", type=str, default=None,
                        help="key = value file; flags override file values")
        for key in command.options:
            opt = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if opt.kind is bool:
                sp.add_argument(flag, dest=key, action="store_true", default=None, help=opt.help)
            elif isinstance(opt.kind, tuple):
                sp.add_argument(flag, dest=key, choices=opt.kind, default=None, help=opt.help)
            else:
                sp.add_argument(flag, dest=key, type=opt.kind, default=None, help=opt.help)
    return parser


def parse_args(argv: Sequence[str] | None = None) -> RunConfig:
    """Resolve argv and optional config file into a :class:`RunConfig`.

    Precedence: built-in defaults < config file < explicit flags.
    """
    ns = _parser().parse_args(argv)
    options = {key: _OPTIONS[key].default for key in _COMMANDS[ns.command].options}
    if ns.config:
        options.update(load_config(ns.config, ns.command))
    for key, value in vars(ns).items():
        if key not in ("command", "config") and value is not None:
            options[key] = value
    return RunConfig(command=ns.command, options=options)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = parse_args(argv)
    except DomainError as exc:
        print(f"subohmic: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
