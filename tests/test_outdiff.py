import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "outdiff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("outdiff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_trees_report_every_command_identical():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *rows, summary = proc.stdout.splitlines()
    assert len(rows) > 80  # criterion 11, the extreme inputs, four interactive-mix blocks
    assert all(row.startswith("identical ") for row in rows), rows
    assert summary.startswith(f"{len(rows)} commands, {len(rows)} identical, 0 changed")


def test_a_perturbed_field_and_column_are_reported():
    tool = _tool()
    record = {"command": "solve", "M": 0.5, "energy": -1.0}
    old, new = json.dumps(record), json.dumps({**record, "energy": -1.0 + 2.0 ** -40})
    assert tool.field_changes(old, new) == ["energy: max rel 9.09e-13, max abs 9.09e-13"]
    table = "# subohmic chain-occupations\nn,n_av\n0,{}\n1,0.25\n"
    assert tool.field_changes(table.format("0.5"), table.format("0.4")) == [
        "n_av: max rel 0.2, max abs 0.1"]
    # a row that failed: its numbers turned NaN, from 0 as well
    sweep = "# subohmic sweep\nalpha,M,status\n0.5,{},{}\n"
    assert tool.field_changes(sweep.format("0", "ok"), sweep.format("nan", "DomainError")) == [
        "M: max rel inf, max abs inf", "status: ['ok'] -> ['DomainError']"]
