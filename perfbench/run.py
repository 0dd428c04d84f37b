"""Benchmark of the ``subohmic`` CLI, driven in-process as one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload interactive-mix --seed 1 --seconds 50 --trace 0

The client calls ``subohmic.cli.main`` with ``--output`` and sends the next
command only when the previous one has returned.  Commands come in seeded
blocks (see ``workloads.py``): block ``k`` of a seed is always the same.
With ``--trace 0`` the client runs blocks 0, 1, 2, ... for ``--seconds``
(whole blocks, at least one) and the end-to-end metrics are reported.
With ``--trace 1`` a fixed number of blocks, as many as took half of
``--seconds`` at the commit that defined the benchmark, runs once plain and
once under the span tracer of ``spans.py``, so every work counter depends
only on the seed and ``--seconds``, and the per-layer metrics are reported.
Every output is checked (``checks.py``) after the timed blocks.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# BLAS/OpenMP threads of every process the benchmark runs.  One thread keeps
# floating-point reductions, and so the iteration counts, identical from run
# to run, and stays within nproc on any machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_LAUNCHES = 5
TAIL_BEYOND = 10


@dataclass
class Outcome:
    cmd: object
    block: int
    seconds: float
    exit_code: object
    text: str | None
    stdout: str
    stderr: str
    error: str | None
    failure: str | None = None


class Client:
    """Closed-loop client: one CLI command at a time, in this process."""

    def __init__(self, cli):
        self.cli = cli  # the module, so a traced ``main`` is looked up per call
        self.tracer = None  # set while a traced pass runs
        self.output = OUT_DIR / "cli-output"
        self.sent = 0

    def send(self, cmd, block: int) -> Outcome:
        self.output.unlink(missing_ok=True)
        argv = cmd.argv + ["--output", str(self.output)]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if self.tracer is not None:
            self.tracer.command = self.sent
        self.sent += 1
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails this command, not the run
                error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        text = self.output.read_text(encoding="utf-8") if self.output.exists() else None
        return Outcome(cmd, block, elapsed, code, text, out.getvalue(), err.getvalue(), error)


def run_blocks(client: Client, workload, seed: int, n_blocks: int) -> list[list[Outcome]]:
    return [[client.send(cmd, k) for cmd in workload.block(seed, k)] for k in range(n_blocks)]


def run_for(client: Client, workload, seed: int, seconds: float) -> list[list[Outcome]]:
    """Blocks 0, 1, 2, ... until the next one, at the mean pace of those
    already run, would end after ``seconds``; at least one block."""
    blocks: list[list[Outcome]] = []
    t0 = perf_counter()
    while True:
        k = len(blocks)
        blocks.append([client.send(cmd, k) for cmd in workload.block(seed, k)])
        if (perf_counter() - t0) * (k + 2) / (k + 1) > seconds:
            return blocks


def measure_setup() -> float:
    """Median time for a fresh interpreter to import ``subohmic.cli`` (and
    with it numpy and scipy) and be ready for its first command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = "import subohmic.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch only warms the file cache
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if line.strip() != b"ready" or status != 0:
            raise RuntimeError(f"set-up launch failed with exit code {status}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond
    it: ``(value, percentile, sample count)``.  With ten samples or fewer
    no percentile qualifies, and the maximum is reported at 100."""
    xs = sorted(latencies)
    n = len(xs)
    rank = n - TAIL_BEYOND  # 1-based nearest rank
    if rank < 1:
        return xs[-1], 100.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def end_to_end(blocks: list[list[Outcome]], setup_s: float) -> tuple[dict, list[str]]:
    outcomes = [o for b in blocks for o in b]
    latencies = [o.seconds for o in outcomes]
    tail_s, tail_pct, n = tail(latencies)
    rows = sum(o.cmd.rows for o in outcomes if o.failure is None)
    metrics = {
        "wall_s": (statistics.median(sum(o.seconds for o in b) for b in blocks), "s"),
        "cmd_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "cmd_ms.tail": (1e3 * tail_s, "ms"),
        "rows_per_s": (rows / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"wall_s: median over {len(blocks)} blocks of the block's summed command latencies",
        f"cmd_ms.tail: p{tail_pct:.1f} of {n} command latencies",
        f"rows_per_s: {rows} ground-state rows",
        f"setup_s: median of {SETUP_LAUNCHES} fresh launches",
    ]
    return metrics, notes


def prepare() -> bool:
    """Put the checkout's ``src`` first on the import path and pin the BLAS
    threads; False when there is no package to benchmark.  Runs before
    numpy is first imported, by this process or by a child."""
    if not (SRC / "subohmic" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def check_all(outcomes: list[Outcome]) -> list[Outcome]:
    """Check every command's output; returns the commands that failed."""
    import checks

    for o in outcomes:
        o.failure = checks.failure(o.cmd, o.exit_code, o.text, o.error)
    return [o for o in outcomes if o.failure is not None]


def clear_caches() -> None:
    """Empty every functools cache in the ``subohmic`` namespaces, so a second
    pass over the same commands starts as cold as the first."""
    for name, module in list(sys.modules.items()):
        if name == "subohmic" or name.startswith("subohmic."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def traced_run(client: Client, workload, seed: int, seconds: float, spans_path: Path,
               header: dict) -> tuple[list, dict, list[str]]:
    """Half the blocks of ``seconds``, run plain and then traced; returns
    both passes' blocks, the per-layer metrics and notes on the run."""
    from spans import Tracer

    n_blocks = workload.blocks_for(0.5 * seconds)
    plain = run_blocks(client, workload, seed, n_blocks)
    clear_caches()
    client.tracer = tracer = Tracer()
    tracer.install()
    try:
        traced = run_blocks(client, workload, seed, n_blocks)
    finally:
        tracer.uninstall()
        client.tracer = None
    tracer.dump(spans_path, header)
    metrics, absent = tracer.layer_metrics()
    plain_s = sum(o.seconds for b in plain for o in b)
    traced_s = sum(o.seconds for b in traced for o in b)
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    notes = [f"traced {n_blocks} blocks: {traced_s:.3f} s traced, {plain_s:.3f} s plain"]
    notes += [f"absent: {name}" for name in absent]
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"perfbench: no subohmic package in {SRC}", file=sys.stderr)
        return 2
    import subohmic.cli as cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 64
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **stamp()}
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))

    client = Client(cli)
    for cmd in workload.warmup():
        client.send(cmd, -1)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        blocks, metrics, notes = traced_run(client, workload, args.seed, args.seconds,
                                            OUT_DIR / f"{tag}-spans.json", info)
        failed = check_all([o for b in blocks for o in b])
    else:
        setup_s = measure_setup()
        blocks = run_for(client, workload, args.seed, args.seconds)
        failed = check_all([o for b in blocks for o in b])
        # after the checks: rows_per_s counts only rows that passed them
        metrics, notes = end_to_end(blocks, setup_s)
    client.output.unlink(missing_ok=True)

    outcomes = [o for b in blocks for o in b]
    record = dict(info)
    record["commands"] = [
        {"block": o.block, "argv": o.cmd.argv, "seconds": o.seconds, "exit_code": o.exit_code,
         "failure": o.failure, "stdout": o.stdout, "stderr": o.stderr} for o in outcomes]
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for note in notes:
        print(note)
    for o in failed:
        print(f"FAILED block {o.block}: {' '.join(o.cmd.argv)}: {o.failure}")
    print(f"fail_frac: {len(failed)}/{len(outcomes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
