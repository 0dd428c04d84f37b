"""Compare the CLI output of two source trees on a fixed corpus of commands.

Usage: ``python tools/outdiff.py OTHER_TREE``

Runs every command of the corpus through ``subohmic.cli.main`` once against
``OTHER_TREE/src`` and once against this tree's ``src``, each tree in its own
fresh Python process with one BLAS thread.  For each command it prints both
exit codes and whether stdout is byte-identical; for each changed JSON field
or CSV column it prints the largest relative and absolute change.  Exits 0
when every command gives the same exit code and the same bytes, 1 otherwise.

The corpus is read, not copied, from where it is kept: the jobs of
acceptance criterion 11 and the extreme inputs of ``tests/test_cli.py`` (as
literals, from the test sources), and seed-11 blocks 0-3 of the
``interactive-mix`` workload (from ``perfbench/workloads.py``).
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, BLOCKS = 11, range(4)

# runs in each tree's process: the corpus on stdin, [code, stdout, stderr] per command out
_RUNNER = r"""
import contextlib, io, json, sys, traceback
from subohmic.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _literal(path: Path, name: str):
    # the literal first assigned to ``name`` in a source file, at any depth
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name}: no literal {name}")


def corpus() -> list[list[str]]:
    """The argv lists compared, in a fixed order."""
    jobs = _literal(ROOT / "tests" / "test_acceptance.py", "jobs")  # criterion 11's
    cli_tests = ROOT / "tests" / "test_cli.py"
    unit_bath = _literal(cli_tests, "_UNIT_BATH")
    extreme = [argv[:1] + unit_bath + argv[1:] for argv, _ in
               _literal(cli_tests, "EXTREME_INPUTS")]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import interactive_mix

    mix = [cmd.argv for block in BLOCKS for cmd in interactive_mix(SEED, block)]
    return jobs + extreme + mix


def run_tree(tree: Path, commands: list[list[str]]) -> list[list]:
    """``[exit code, stdout, stderr]`` of each command against ``tree/src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(commands),
                          capture_output=True, text=True, env=env, cwd=tree, check=True)
    return json.loads(proc.stdout)


def _fields(text: str) -> dict:
    # a JSON record's fields, or a CSV table's columns; comment lines are kept whole
    if not text.startswith("#"):
        return json.loads(text) if text else {}
    lines = text.splitlines()
    header, *rows = (line.split(",") for line in lines[1:])
    return {"#": lines[0], **{name: [row[i] for row in rows] for i, name in enumerate(header)}}


def _as_float(x):
    try:
        return float(x) if not isinstance(x, bool) else None
    except (TypeError, ValueError):
        return None


def field_changes(old: str, new: str) -> list[str]:
    """One line per changed field or column: its largest relative and
    absolute change, or its old and new values where they are not numbers."""
    a, b = _fields(old), _fields(new)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        xs, ys = (x, y) if isinstance(x, list) and isinstance(y, list) else ([x], [y])
        pairs = [(_as_float(u), _as_float(v)) for u, v in zip(xs, ys)]
        numeric = len(xs) == len(ys) and all(u is not None and v is not None for u, v in pairs)
        if not numeric:
            lines.append(f"{key}: {x!r} -> {y!r}" if len(repr(x)) + len(repr(y)) < 160
                         else f"{key}: changed")
            continue
        rel = abs_ = 0.0
        for u, v in pairs:
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            d = abs(u - v)
            if not math.isfinite(d):  # a value that turned inf or NaN, from 0 too
                abs_ = rel = math.inf
                continue
            abs_ = max(abs_, d)
            rel = max(rel, d / max(abs(u), abs(v)))
        lines.append(f"{key}: max rel {rel:.3g}, max abs {abs_:.3g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 64
    other = Path(args[0]).resolve()
    commands = corpus()
    before, after = run_tree(other, commands), run_tree(ROOT, commands)
    differ = 0
    for argv, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(commands, before, after):
        same = code_a == code_b and out_a == out_b
        differ += not same
        print(f"{'identical' if same else 'CHANGED  '} exit {code_a} -> {code_b}  "
              f"{' '.join(argv)}")
        if code_a != code_b:
            for tag, err in (("-", err_a), ("+", err_b)):
                print(f"    {tag} {(err.strip().splitlines() or [''])[-1]}")
        if out_a and out_b and out_a != out_b:
            for line in field_changes(out_a, out_b):
                print(f"    {line}")
    print(f"{len(commands)} commands, {len(commands) - differ} identical, {differ} changed "
          f"({other} -> {ROOT})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
