"""Self-test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py [workload ...]

1. Runs report exactly the metrics, and units, that ``BENCHMARK.json``
   declares.
2. Two traced runs of one seed must report identical work counters (every
   per-layer metric whose unit is a count, flops or bytes) for each named
   workload, by default all of them.
3. A corrupted output must be counted as a failed command: a real oracle
   record is checked once as written and once with its exact energy moved
   above the variational one, and other corruptions (a non-finite sweep
   row, a non-zero exit, a missing output file) are checked the same way.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run

COUNTER_UNITS = ("count", "flop", "B")
SECONDS = "4"  # one block per pass on every workload


def bench_run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: run had failed commands")
    return result["metrics"]


def check_declared(metrics: dict, declared: list[dict], what: str) -> None:
    """The run reports exactly the metrics BENCHMARK.json declares, in its units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise AssertionError(f"{what} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(want.items()))}")


def check_counters_repeat(workload: str, declared: list[dict]) -> None:
    first, second = (bench_run(workload, 5, SECONDS, 1) for _ in range(2))
    check_declared(first, declared, f"{workload} traced")
    counters = [k for k, v in first.items() if v["unit"] in COUNTER_UNITS]
    differ = {k: (first[k]["value"], second[k]["value"]) for k in counters
              if first[k]["value"] != second[k]["value"]}
    if differ:
        raise AssertionError(f"{workload}: counters differ between runs: {differ}")
    if not any(first[k]["value"] for k in counters):
        raise AssertionError(f"{workload}: every counter is zero")
    print(f"ok  {workload}: {len(counters)} counters repeat exactly")


def check_corruption_counted() -> None:
    import subohmic.cli as cli
    from workloads import WORKLOADS, Command

    run.OUT_DIR.mkdir(exist_ok=True)
    client = run.Client(cli)
    oracle = client.send(WORKLOADS["oracle-ed"].warmup()[0], 0)
    sweep = client.send(WORKLOADS["sweep-batch"].warmup()[0], 0)
    client.output.unlink(missing_ok=True)
    if run.check_all([oracle, sweep]):
        raise AssertionError(f"clean outputs failed: {oracle.failure} / {sweep.failure}")

    record = json.loads(oracle.text)
    record["energy_exact"] = record["energy_ado_discrete"] + 1e-6
    lines = sweep.text.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0].split(",")
    row = lines[-1].split(",")
    row[header.index("M")] = "nan"
    bad_solve = Command("solve", (("--s", 0.3), ("--alpha", 0.05), ("--delta", 1.0),
                                  ("--omega-c", 10.0)), 1)
    corrupted = [
        dataclasses.replace(oracle, text=json.dumps(record)),
        dataclasses.replace(sweep, text="\n".join(lines[:-1] + [",".join(row)]) + "\n"),
        dataclasses.replace(oracle, exit_code=3),
        run.Outcome(bad_solve, 0, 0.1, 0, None, "", "", None),
    ]
    failed = run.check_all([oracle, sweep] + corrupted)
    if failed != corrupted:
        raise AssertionError(f"expected the {len(corrupted)} corrupted outputs to fail, "
                             f"got {[o.failure for o in failed]}")
    for o in failed:
        print(f"ok  counted as failed: {o.failure}")


def main(argv: list[str]) -> int:
    if not run.prepare():
        print(f"selftest: no subohmic package in {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_corruption_counted()
        check_declared(bench_run("interactive-mix", 5, "1", 0), declared["end_to_end"], "untraced")
        print("ok  untraced run reports the declared end-to-end metrics")
        for workload in argv or list(WORKLOADS):
            check_counters_repeat(workload, declared["per_layer"])
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
