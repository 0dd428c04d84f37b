"""Seeded CLI command lists for the benchmark workloads.

A workload is an endless sequence of *blocks*; block ``k`` of seed ``n`` is
always the same list of commands.  Inside a block, every drawn parameter of
a command kind is stratified: the ``m`` commands of that kind take the
values ``lo + (hi - lo) * (i + j) / m`` for ``i = 0 .. m-1`` in a seeded
random order, where the jitter ``j`` walks a golden-ratio (Kronecker)
sequence over the block index from a seeded offset.  Each block therefore
covers the parameter ranges evenly, and consecutive blocks fill the gaps
left by earlier ones, so a run's medians depend little on the seed.

Couplings are multiples of the closed-form critical coupling, so every
workload sees both phases whatever ``s`` and ``omega_c`` are drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from subohmic.critical import critical_coupling_closed

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
S_RANGE = (0.1, 0.45)
OMEGA_CS = (10.0, 100.0)
DELTA = 1.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, its flags, and the ground-state rows
    it reports (for ``rows_per_s``)."""

    kind: str
    flags: tuple  # ((flag, value), ...) in argv order; value None for a switch
    rows: int

    def opt(self, flag: str):
        for name, value in self.flags:
            if name == flag:
                return value
        return None

    @property
    def argv(self) -> list[str]:
        out = [self.kind]
        for name, value in self.flags:
            out.append(name)
            if value is not None:
                out.append(value if isinstance(value, str) else repr(value))
        return out


def _cmd(kind: str, s: float, omega_c: float, rows: int, *flags) -> Command:
    return Command(kind, (("--s", s), ("--delta", DELTA), ("--omega-c", omega_c)) + flags, rows)


def _alpha_c(s: float, omega_c: float) -> float:
    return critical_coupling_closed(s, DELTA, omega_c)[0]


class _Draws:
    """Stratified, seeded parameter draws for one block."""

    def __init__(self, workload: str, seed: int, block: int):
        self._prefix = f"{workload}/{seed}"
        self._rng = random.Random(f"{self._prefix}/{block}")
        self._block = block

    def _jitter(self, key: str) -> float:
        offset = random.Random(f"{self._prefix}/{key}").random()
        return (offset + self._block * GOLDEN) % 1.0

    def uniform(self, key: str, m: int, lo: float, hi: float) -> list[float]:
        j = self._jitter(key)
        values = [lo + (hi - lo) * (i + j) / m for i in range(m)]
        self._rng.shuffle(values)
        return values

    def balanced(self, m: int, choices: tuple) -> list:
        # equal counts of each choice (m is a multiple of len(choices))
        values = [choices[i % len(choices)] for i in range(m)]
        self._rng.shuffle(values)
        return values

    def shuffle(self, items: list) -> list:
        self._rng.shuffle(items)
        return items


SWEEP_POINTS = 41
POINTS_PER_SIDE = 20
CHAIN_SITES = 400


def interactive_mix(seed: int, block: int) -> list[Command]:
    """12 solve : 2 critical : 2 chain --occupations, each with fresh (s, alpha)."""
    d = _Draws("interactive-mix", seed, block)
    cmds = []
    n = 12
    for s, f, wc in zip(d.uniform("solve.s", n, *S_RANGE),
                        d.uniform("solve.alpha", n, 0.5, 2.0),
                        d.balanced(n, OMEGA_CS)):
        cmds.append(_cmd("solve", s, wc, 1, ("--alpha", f * _alpha_c(s, wc))))
    for s, wc in zip(d.uniform("critical.s", 2, *S_RANGE),
                     d.balanced(2, OMEGA_CS)):
        cmds.append(_cmd("critical", s, wc, 0))
    for s, f, wc, frame in zip(d.uniform("chain.s", 2, *S_RANGE),
                               d.uniform("chain.alpha", 2, 0.5, 2.0),
                               d.balanced(2, OMEGA_CS),
                               d.balanced(2, ("bare", "displaced"))):
        cmds.append(_cmd("chain", s, wc, 1, ("--alpha", f * _alpha_c(s, wc)),
                         ("--occupations", None), ("--n-sites", CHAIN_SITES), ("--frame", frame)))
    return d.shuffle(cmds)


def sweep_batch(seed: int, block: int) -> list[Command]:
    """sweep (41 rows), exponents, sweep, exponents; s and omega_c stratified."""
    d = _Draws("sweep-batch", seed, block)
    sweeps = []
    for s, wc in zip(d.uniform("sweep.s", 2, *S_RANGE), d.balanced(2, OMEGA_CS)):
        ac = _alpha_c(s, wc)
        grid = f"{0.5 * ac!r}:{2.0 * ac!r}:{SWEEP_POINTS}"
        sweeps.append(_cmd("sweep", s, wc, SWEEP_POINTS, ("--alpha-grid", grid)))
    fits = []
    for s, wc in zip(d.uniform("exponents.s", 2, *S_RANGE),
                     d.balanced(2, OMEGA_CS)):
        fits.append(_cmd("exponents", s, wc, 2 * POINTS_PER_SIDE,
                         ("--points-per-side", POINTS_PER_SIDE)))
    return [sweeps[0], fits[0], sweeps[1], fits[1]]


ORACLE_SHAPES = ((4, 8, "star"), (4, 8, "chain"), (5, 8, "star"))
ORACLE_OMEGA_C = 10.0


def oracle_ed(seed: int, block: int) -> list[Command]:
    """One oracle run per shape in ORACLE_SHAPES at 0.3-1.5 alpha_c."""
    d = _Draws("oracle-ed", seed, block)
    cmds = []
    for n_modes, n_boson, basis in ORACLE_SHAPES:
        key = f"oracle.{n_modes}x{n_boson}.{basis}"
        s = d.uniform(key + ".s", 1, *S_RANGE)[0]
        f = d.uniform(key + ".alpha", 1, 0.3, 1.5)[0]
        alpha = f * _alpha_c(s, ORACLE_OMEGA_C)
        cmds.append(_cmd("oracle", s, ORACLE_OMEGA_C, 1, ("--alpha", alpha), ("--n-modes", n_modes),
                         ("--n-boson", n_boson), ("--basis", basis)))
    return cmds


def _warmup(kinds: tuple) -> list[Command]:
    # small fixed inputs that finish lazy imports and first-call set-up of
    # each command kind; drawn parameters never equal them, so no timed
    # command finds their cached quadrature rules
    s, wc = 0.2, 10.0
    a = _alpha_c(s, wc)
    table = {
        "solve": _cmd("solve", s, wc, 1, ("--alpha", a)),
        "critical": _cmd("critical", s, wc, 0),
        "chain": _cmd("chain", s, wc, 1, ("--alpha", a), ("--occupations", None),
                      ("--n-sites", 20)),
        "sweep": _cmd("sweep", s, wc, 3, ("--alpha-grid", f"{a!r}:{2 * a!r}:3")),
        "exponents": _cmd("exponents", s, wc, 6, ("--points-per-side", 3)),
        "oracle": _cmd("oracle", s, wc, 1, ("--alpha", a), ("--n-modes", 3), ("--n-boson", 4)),
    }
    return [table[k] for k in kinds]


@dataclass(frozen=True)
class Workload:
    name: str
    block: object  # (seed, block index) -> list[Command]
    kinds: tuple
    nominal_block_s: float  # block time at the seed commit; sizes the traced run

    def warmup(self) -> list[Command]:
        return _warmup(self.kinds)

    def blocks_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_block_s))


# sweep-batch runs when named on the command line; BENCHMARK.json leaves it
# out, because its pure-Python commands swing most with the host's speed and
# two workloads leave room for longer runs (see "left_out" in baseline.json).
WORKLOADS = {
    w.name: w for w in (
        Workload("interactive-mix", interactive_mix, ("solve", "critical", "chain"), 1.05),
        Workload("sweep-batch", sweep_batch, ("sweep", "exponents"), 6.6),
        Workload("oracle-ed", oracle_ed, ("oracle",), 7.4),
    )
}
