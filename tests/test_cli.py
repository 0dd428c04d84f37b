import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subohmic
from subohmic.cli import (_COMMANDS, _OPTIONS, load_config, main, parse_args, _json_text,
                          _sanitize_record)
from subohmic.critical import sweep_alpha
from subohmic.errors import DomainError


def run_cli(args):
    return main(args)


# finite results whose quotient by delta leaves the floats
_REPORTING_UNIT_OVERFLOW = ["--s", "0.3", "--delta", "1e-100", "--omega-c", "1e10"]
_WIDE_BAND_OVERFLOW = ["--s", "0.9853351796933449", "--delta", "887.8577120892148",
                       "--omega-c", "10.462982712806163", "--functional", "scaling"]


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ns = 0.3\nalpha = 0.02\n\ndelta = 1.0\nomega_c = 10\n")
        out = load_config(cfg, "solve")
        assert out == {"s": 0.3, "alpha": 0.02, "delta": 1.0, "omega_c": 10.0}

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.3\nalpha_C = 0.02\n")
        with pytest.raises(DomainError) as err:
            load_config(cfg, "solve")
        assert ":2:" in str(err.value)
        assert "alpha_C" in str(err.value)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s 0.3\n")
        with pytest.raises(DomainError) as err:
            load_config(cfg, "solve")
        assert ":1:" in str(err.value)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.3\nalpha = 0.01\ndelta = 1\nomega_c = 10\n")
        rc = parse_args(["solve", "--config", str(cfg), "--s", "0.4"])
        assert rc.options["s"] == 0.4
        assert rc.options["alpha"] == 0.01

    def test_empty_file_plus_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        rc = parse_args(["solve", "--config", str(cfg), "--s", "0.3",
                         "--alpha", "0.0", "--delta", "1", "--omega-c", "10"])
        assert rc.params().s == 0.3

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        code = run_cli(["solve", "--config", str(cfg), "--s", "0.3", "--alpha", "0.05",
                        "--delta", "1", "--omega-c", "10"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(cfg) in err[0]


class TestOutputFile:
    ARGS = ["solve", "--s", "0.3", "--alpha", "0.05", "--delta", "1", "--omega-c", "10"]

    def test_written_owner_only_and_no_temp_file_left(self, tmp_path):
        out = tmp_path / "solve.json"
        out.write_text("stale")
        assert run_cli(self.ARGS + ["--output", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "solve"
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert os.listdir(tmp_path) == ["solve.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the rename onto a directory fails after the temp file is written
        out = tmp_path / "solve.json"
        out.mkdir()
        assert run_cli(self.ARGS + ["--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert os.listdir(tmp_path) == ["solve.json"] and out.is_dir()

    def test_symlink_at_the_temp_name_is_not_followed(self, tmp_path, capsys):
        out, target = tmp_path / "solve.json", tmp_path / "target"
        target.write_text("keep")
        tmp = tmp_path / f"solve.json.{os.getpid()}.tmp"
        tmp.symlink_to(target)
        assert run_cli(self.ARGS + ["--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert target.read_text() == "keep" and tmp.is_symlink() and not out.exists()


class TestSolveCommand:
    def test_free_limit_record(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        code = run_cli(["solve", "--s", "0.3", "--alpha", "0.0", "--delta", "1",
                        "--omega-c", "10", "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["M"] == 0.0
        assert record["energy"] == -0.5
        assert record["sx"] == 1.0
        assert record["schema_version"] == "1"
        summary = capsys.readouterr().err
        assert "M=0" in summary

    def test_missing_parameter_exit_2(self):
        assert run_cli(["solve", "--s", "0.3", "--alpha", "0.0"]) == 2

    def test_stdout_is_the_json_record(self, capsys):
        code = run_cli(["solve", "--s", "0.3", "--alpha", "0.02", "--delta", "1",
                        "--omega-c", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["command"] == "solve"
        assert captured.err.startswith("solve: M=")

    def test_domain_error_exit_2(self):
        assert run_cli(["solve", "--s", "1.3", "--alpha", "0.0", "--delta", "1",
                        "--omega-c", "10"]) == 2

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                             ("--delta", "inf"), ("--omega-c", "nan")])
    def test_non_finite_input_exit_2(self, flag, value, capsys):
        args = {"--s": "0.3", "--alpha": "0.02", "--delta": "1", "--omega-c": "10", flag: value}
        assert run_cli(["solve", *[x for kv in args.items() for x in kv]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and "not finite" in captured.err

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.3\nalpha = nan\ndelta = 1\nomega_c = 10\n")
        assert run_cli(["solve", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha=nan is not finite" in captured.err

    def test_unwritable_output_exit_2_names_path(self, tmp_path, capsys):
        out = tmp_path / "no_dir" / "x.json"
        code = run_cli(["solve", "--s", "0.3", "--alpha", "0.05", "--delta", "1",
                        "--omega-c", "10", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert not out.parent.exists()

    def test_collapsed_tunneling_is_fully_localized(self, capsys):
        assert run_cli(["solve", "--s", "0.3", "--alpha", "1e100", "--delta", "1",
                        "--omega-c", "10"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["M"], record["sx"], record["entanglement"]) == (1.0, 0.0, 0.0)

    def test_spin_vector_beyond_one_exit_2(self, capsys):
        # the wide-band dt = 1.0052 delta would print sx = 1.00523 > 1
        assert run_cli(["solve", *_WIDE_BAND_OVERFLOW, "--alpha", "0.001"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "domain error" in err and "wide-band limit" in err and "sx = 1.00523" in err

    def test_wide_band_overflow_exit_2(self, capsys):
        assert run_cli(["solve", *_WIDE_BAND_OVERFLOW, "--alpha", "23.3394277363693"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "domain error" in err and "overflows" in err

    def test_energy_past_the_floats_in_units_of_delta_exit_2(self, capsys):
        # the raw energy -1.7e210 is finite; over delta = 1e-100 it is not
        args = ["solve", *_REPORTING_UNIT_OVERFLOW, "--alpha", "1e200"]
        assert run_cli(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["subohmic solve: domain error: energy/delta overflows: -inf"]
        assert run_cli(args + ["--raw-units"]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["energy"])

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--nope", "1"])
        assert exc.value.code == 64

    def test_unknown_command_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["transmogrify"])
        assert exc.value.code == 64


class TestSweepCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--alpha-grid", "0.01:0.03:3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# subohmic")
        assert lines[1] == "alpha,M,sx,entanglement,energy,c1,status"
        assert len(lines) == 2 + 3
        assert all(line.endswith(",ok") for line in lines[2:])

    def test_stdout_is_the_csv_table(self, capsys):
        code = run_cli(["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--alpha-grid", "0.01:0.02:2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "alpha,M,sx,entanglement,energy,c1,status"
        assert len(lines) == 2 + 2

    def test_failed_row_shown_and_exit_2(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--alpha-grid=-0.01:0.01:2", "--output", str(out)])
        assert code == 2
        rows = out.read_text().splitlines()[2:]
        assert rows[0].startswith("-0.01,nan,") and rows[0].endswith(",DomainError")
        assert rows[1].endswith(",ok")

    def test_wide_band_overflow_fails_its_row(self, tmp_path, capsys):
        # D = delta exp(alpha/(1-s)) overflows from alpha ~ 10.4 on; below
        # that the wide-band dt exceeds delta (sx = 1.00523 and 2.1e230), which
        # no spin state allows, and the first such row sets the summary
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", *_WIDE_BAND_OVERFLOW, "--alpha-grid", "0.001:23.3394277363693:4",
                        "--output", str(out)])
        assert code == 2
        rows = [row.split(",") for row in out.read_text().splitlines()[2:]]
        assert [row[-1] for row in rows] == ["DomainError"] * 4
        assert all(cell == "nan" for row in rows for cell in row[1:-1])
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "wide-band limit" in err[1] and "sx = 1.00523" in err[1]
        table = sweep_alpha(0.9853351796933449, 887.8577120892148, 10.462982712806163,
                            np.linspace(0.001, 23.3394277363693, 4), functional="scaling")
        messages = [str(exc) for _, exc in table.failures]
        assert ["wide-band limit" in msg for msg in messages] == [True, True, False, False]
        assert ["overflows" in msg for msg in messages] == [False, False, True, True]

    def test_energy_past_the_floats_in_units_of_delta_fails_its_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", *_REPORTING_UNIT_OVERFLOW, "--alpha-grid", "1e200:2e200:2",
                        "--output", str(out)])
        assert code == 2
        rows = out.read_text().splitlines()[2:]
        assert rows == ["1e+200,nan,nan,nan,nan,nan,DomainError",
                        "2e+200,nan,nan,nan,nan,nan,DomainError"]
        err = capsys.readouterr().err.splitlines()
        assert err == ["sweep: 2 rows, 0 localized, 2 failures",
                       "subohmic sweep: domain error: energy/delta overflows: -inf"]

    def test_bad_grid_exit_2(self):
        assert run_cli(["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--alpha-grid", "oops"]) == 2


class TestCriticalCommand:
    def test_record_contains_both_couplings(self, tmp_path):
        out = tmp_path / "crit.json"
        code = run_cli(["critical", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["alpha_c_numeric"] == pytest.approx(0.0326498, rel=1e-4)
        assert record["alpha_c_closed"] == pytest.approx(0.0315890, rel=1e-4)
        assert record["ratio_numeric_to_closed"] == pytest.approx(1.0336, rel=1e-3)

    def test_refuses_outside_validity_window(self):
        assert run_cli(["critical", "--s", "0.7", "--delta", "1",
                        "--omega-c", "10"]) == 2

    def test_wide_band_spin_vector_beyond_one_exit_2(self, capsys):
        # at omega_c = delta the wide-band dt_c = 1.0615 delta would print sx_c > 1
        assert run_cli(["critical", "--s", "0.3", "--delta", "1", "--omega-c", "1",
                        "--functional", "scaling"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "domain error" in err and "wide-band limit" in err and "sx = 1.06152" in err

    def test_nonconvergence_exit_3(self, monkeypatch):
        from subohmic import cli
        from subohmic.errors import ConvergenceError

        def boom(cfg):
            raise ConvergenceError("no transition in range")

        monkeypatch.setitem(cli._COMMANDS, "critical",
                            cli._COMMANDS["critical"]._replace(handler=boom))
        assert run_cli(["critical", "--s", "0.3", "--delta", "1",
                        "--omega-c", "10"]) == 3


class TestChainCommand:
    def test_coefficient_table(self, tmp_path):
        out = tmp_path / "chain.csv"
        code = run_cli(["chain", "--s", "0.3", "--alpha", "0.1", "--delta", "1",
                        "--omega-c", "10", "--n-sites", "6", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,eps_n,t_n"
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(1.3 / 2.3, rel=1e-10)  # omega_c units

    def test_occupations_table(self, tmp_path):
        out = tmp_path / "occ.csv"
        code = run_cli(["chain", "--s", "0.3", "--alpha", "0.02", "--delta", "1",
                        "--omega-c", "10", "--n-sites", "12", "--occupations",
                        "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,n_av"
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert values[0] > values[6] > values[11] >= 0.0


class TestOracleCommand:
    def test_record(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = run_cli(["oracle", "--s", "0.3", "--alpha", "0.015", "--delta", "1",
                        "--omega-c", "10", "--n-modes", "2", "--n-boson", "6",
                        "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["energy_exact"] <= record["energy_ado_discrete"] + 1e-9
        assert record["fidelity"] > 0.99

    def test_chain_basis_at_zero_coupling(self, capsys):
        # the chain form of a zero coupling vector once divided by its zero norm
        code = run_cli(["oracle", "--s", "0.3", "--alpha", "0", "--delta", "1",
                        "--omega-c", "10", "--n-modes", "2", "--n-boson", "3", "--basis", "chain"])
        out, err = capsys.readouterr()
        assert code == 0
        assert len(err.splitlines()) == 1 and err.startswith("oracle: F=")
        record = json.loads(out)
        assert record["energy_exact"] == pytest.approx(-0.5, abs=1e-12)
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-12)


class TestExponentsCommand:
    def test_record(self, tmp_path):
        out = tmp_path / "exp.json"
        code = run_cli(["exponents", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--points-per-side", "6", "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["beta"] == pytest.approx(0.5, abs=0.01)
        assert record["gamma"] == pytest.approx(1.0, abs=0.02)

    def test_failed_row_exit_3(self, tmp_path, monkeypatch, capsys):
        # one sweep row fails; the fit still runs on the others, but the
        # failure must show in the summary and the exit code
        import subohmic.critical
        from subohmic.errors import ConvergenceError

        real, calls = subohmic.critical.observables, []

        def observables(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise ConvergenceError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(subohmic.critical, "observables", observables)
        out = tmp_path / "exp.json"
        assert run_cli(["exponents", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "1 failures" in err and "injected" in err
        assert "gamma" in json.loads(out.read_text())

    def test_gamma_prefactor_per_inverse_delta(self, capsys):
        # chi = 1/(4 c1) is an inverse energy: in units of 1/delta its
        # prefactor depends on delta / omega_c alone; --raw-units keeps 1/energy
        def record(delta, omega_c, *flags):
            assert run_cli(["exponents", "--s", "0.3", "--delta", delta, "--omega-c", omega_c,
                            "--points-per-side", "3", *flags]) == 0
            return json.loads(capsys.readouterr().out)

        unit = record("1", "10")
        assert record("2", "20")["gamma_prefactor"] == pytest.approx(
            unit["gamma_prefactor"], rel=1e-10)
        assert record("2", "20", "--raw-units")["gamma_prefactor"] == pytest.approx(
            0.5 * unit["gamma_prefactor"], rel=1e-10)
        assert record("1", "10", "--raw-units") == unit

    def test_refuses_outside_validity_window(self):
        assert run_cli(["exponents", "--s", "0.6", "--delta", "1",
                        "--omega-c", "10"]) == 2

    @pytest.mark.parametrize("flag", ["--window=0:1e-2", "--window=1e-2:1e-4",
                                      "--window=-1e-3:1e-2", "--window=nan:1e-2",
                                      "--points-per-side=0", "--points-per-side=-2"])
    def test_bad_window_or_count_exit_2_before_solving(self, flag, monkeypatch, capsys):
        import subohmic.critical

        def unexpected(*args, **kwargs):
            raise AssertionError("solved before validating the input")

        monkeypatch.setattr(subohmic.critical, "critical_coupling_numeric", unexpected)
        assert run_cli(["exponents", "--s", "0.3", "--delta", "1", "--omega-c", "10",
                        flag]) == 2
        assert "domain error" in capsys.readouterr().err


class TestPhaseDiagramCommand:
    def test_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = run_cli(["phase-diagram", "--s-grid", "0.2:0.4:2", "--delta", "1",
                        "--omega-c-list", "10", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "s,omega_c,alpha_c_numeric,alpha_c_closed,status"
        assert len(lines) == 2 + 2

    def test_failed_point_shown_and_exit_2(self, tmp_path, capsys):
        # s = 0.6 lies outside the window of the mean-field analysis
        out = tmp_path / "pd.csv"
        code = run_cli(["phase-diagram", "--s-grid", "0.3:0.6:2", "--delta", "1",
                        "--omega-c-list", "10", "--output", str(out)])
        assert code == 2
        rows = out.read_text().splitlines()[2:]
        assert rows[0].endswith(",ok")
        assert rows[1].startswith("0.6,10,nan,nan,") and rows[1].endswith(",DomainError")
        assert "domain error" in capsys.readouterr().err

    def test_rejected_s_is_printed_as_a_plain_float(self, tmp_path, capsys):
        code = run_cli(["phase-diagram", "--s-grid", "0.1:0.8:8", "--omega-c-list", "10,100",
                        "--delta", "1", "--output", str(tmp_path / "pd.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "s=0.5 outside" in err and "np.float64" not in err

    @pytest.mark.parametrize("spec", [" ", ",", ", ,"])
    def test_empty_cutoff_list_exit_2(self, spec, capsys):
        assert run_cli(["phase-diagram", "--s-grid", "0.3:0.3:1", "--delta", "1",
                        "--omega-c-list", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "domain error" in err and "at least one number" in err

    def test_non_finite_cutoff_row_shown_and_exit_2(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        code = run_cli(["phase-diagram", "--s-grid", "0.3:0.3:1", "--delta", "1",
                        "--omega-c-list", "10,nan", "--output", str(out)])
        assert code == 2
        rows = out.read_text().splitlines()[2:]
        assert rows[0].endswith(",ok")
        assert rows[1] == "0.3,nan,nan,nan,DomainError"
        assert "not finite" in capsys.readouterr().err


class TestOptionTables:
    """Each command accepts exactly the options it reads, as flags and as
    config-file keys."""

    # a valid input per command and, per option of its table, arguments that
    # must change stdout or the exit code when appended to it; an option that
    # acts only together with another names that one too, in both runs
    BASE = {
        "solve": ["--s", "0.3", "--alpha", "0.02", "--delta", "2", "--omega-c", "20"],
        "sweep": ["--s", "0.3", "--delta", "2", "--omega-c", "20", "--alpha-grid", "0.01:0.03:2"],
        "critical": ["--s", "0.3", "--delta", "2", "--omega-c", "20"],
        "phase-diagram": ["--s-grid", "0.2:0.3:2", "--delta", "1", "--omega-c-list", "10"],
        "chain": ["--s", "0.3", "--alpha", "0.04", "--delta", "1", "--omega-c", "10",
                  "--n-sites", "4"],
        "oracle": ["--s", "0.3", "--alpha", "0.015", "--delta", "1", "--omega-c", "10",
                   "--n-modes", "2", "--n-boson", "3"],
        "exponents": ["--s", "0.3", "--delta", "2", "--omega-c", "20", "--points-per-side", "3"],
    }
    CHANGE = {
        "s": ["--s", "0.25"], "alpha": ["--alpha", "0.03"], "delta": ["--delta", "3"],
        "omega_c": ["--omega-c", "30"], "functional": ["--functional", "scaling"],
        "raw_units": ["--raw-units"], "output": ["--output", "OUT"],
        "alpha_grid": ["--alpha-grid", "0.01:0.03:3"], "s_grid": ["--s-grid", "0.2:0.3:3"],
        "omega_c_list": ["--omega-c-list", "10,20"], "n_sites": ["--n-sites", "5"],
        "occupations": ["--occupations"], "frame": ["--frame", "displaced"],
        "n_modes": ["--n-modes", "3"], "n_boson": ["--n-boson", "4"],
        "basis": ["--basis", "chain"], "window": ["--window", "1e-3:1e-2"],
        "points_per_side": ["--points-per-side", "4"],
    }
    WITH = {("chain", key): ["--occupations"] for key in ("alpha", "delta", "omega_c", "frame")}

    @staticmethod
    def _run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_option_changes_stdout_or_exit_code(self, command, tmp_path):
        for key in _COMMANDS[command].options:
            base = [command, *self.BASE[command], *self.WITH.get((command, key), [])]
            change = [str(tmp_path / "out") if x == "OUT" else x for x in self.CHANGE[key]]
            before = self._run(base)
            assert before[0] == 0, (base, before)
            assert self._run(base + change) != before, (command, key)

    @pytest.mark.parametrize("flag", [["--s", "0.3"], ["--omega-c", "10"], ["--raw-units"]])
    def test_phase_diagram_rejects_options_it_does_not_read(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase-diagram", *self.BASE["phase-diagram"], *flag])
        assert exc.value.code == 64
        assert flag[0] in capsys.readouterr().err

    def test_config_key_of_another_command_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.3\nalpha = 0.02\ndelta = 1\nomega_c = 10\nwindow = 1e-4:1e-3\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{cfg}:5: unknown key 'window' for solve" in err

    def test_every_key_outside_the_table_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for name, command in _COMMANDS.items():
            for key in _OPTIONS:
                cfg.write_text(f"{key} = 1\n")
                if key in command.options:
                    try:
                        load_config(cfg, name)
                    except DomainError as exc:  # a value outside the key's choices
                        assert "bad value" in str(exc)
                else:
                    with pytest.raises(DomainError, match=f":1: unknown key '{key}'"):
                        load_config(cfg, name)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        jobs = [
            (["solve", "--s", "0.3", "--alpha", "0.02", "--delta", "1",
              "--omega-c", "10"], "solve.json"),
            (["sweep", "--s", "0.3", "--delta", "1", "--omega-c", "10",
              "--alpha-grid", "0.01:0.04:4"], "sweep.csv"),
            (["critical", "--s", "0.3", "--delta", "1", "--omega-c", "10"],
             "crit.json"),
            (["chain", "--s", "0.3", "--alpha", "0.1", "--delta", "1",
              "--omega-c", "10", "--n-sites", "8"], "chain.csv"),
            (["oracle", "--s", "0.3", "--alpha", "0.015", "--delta", "1",
              "--omega-c", "10", "--n-modes", "2", "--n-boson", "5"],
             "oracle.json"),
        ]
        for args, name in jobs:
            a = tmp_path / ("a_" + name)
            b = tmp_path / ("b_" + name)
            assert run_cli(args + ["--output", str(a)]) == 0
            assert run_cli(args + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), name


class TestNonFiniteEncoding:
    def test_sanitizer(self):
        record = _sanitize_record({"x": math.inf, "y": -math.inf, "z": math.nan,
                                   "ok": 1.5})
        assert record["x"] == "inf"
        assert record["y"] == "-inf"
        assert record["z"] == "nan"
        assert record["ok"] == 1.5
        assert record["has_nonfinite"] is True
        text = json.dumps(record)
        assert "Infinity" not in text and "NaN" not in text

    def test_record_layout_is_json_indent_2(self):
        # the record text is what json.dumps(indent=2, sort_keys=True) gives
        record = {"command": "solve", "b": True, "n": 3, "x": -0.1, "big": 1e300, "neg": -math.inf,
                  "quote": 'a "b", c:\n\\ d', "none": None, "unicode": "\u00e9"}
        want = json.dumps(_sanitize_record(record), indent=2, sort_keys=True) + "\n"
        assert _json_text(record) == want

    def test_all_finite_flag(self):
        record = _sanitize_record({"ok": 1.5})
        assert record["has_nonfinite"] is False


class TestDefaults:
    def test_defaults_fill_unset_options(self):
        rc = parse_args(["chain", "--s", "0.3", "--alpha", "0.1", "--delta", "1",
                         "--omega-c", "10"])
        assert rc.options["n_sites"] == 50
        assert rc.options["frame"] == "bare"
        assert rc.options["occupations"] is False

    @pytest.mark.parametrize("args", [
        ["chain", "--alpha", "0.1", "--n-sites", "0"],
        ["oracle", "--alpha", "0.015", "--n-modes", "0"],
        ["oracle", "--alpha", "0.015", "--n-modes", "2", "--n-boson", "0"],
        ["exponents", "--points-per-side", "0"],
    ])
    def test_explicit_zero_count_is_not_the_default(self, args):
        assert run_cli(args + ["--s", "0.3", "--delta", "1", "--omega-c", "10"]) == 2

    def test_zero_count_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.3\nalpha = 0.1\ndelta = 1\nomega_c = 10\nn_sites = 0\n")
        assert parse_args(["chain", "--config", str(cfg)]).options["n_sites"] == 0
        assert run_cli(["chain", "--config", str(cfg)]) == 2

    def test_config_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("functional = bogus\n")
        with pytest.raises(DomainError, match=":1:"):
            load_config(cfg, "solve")

    def test_parser_built_once(self):
        from subohmic import cli

        first = cli._parser()
        assert run_cli(["solve", "--s", "0.3", "--alpha", "0.0", "--delta", "1",
                        "--omega-c", "10"]) == 0
        assert cli._parser() is first


class TestRequiredAlpha:
    @pytest.mark.parametrize("command", ["solve", "chain", "oracle"])
    def test_missing_alpha_exit_2(self, command, capsys):
        code = run_cli([command, "--s", "0.3", "--delta", "1", "--omega-c", "10"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err


def _run_python(*args):
    # a fresh interpreter on this checkout's package, so stderr is what a user sees
    env = dict(os.environ)
    src = str(Path(subohmic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_variational_commands_load_no_scipy(tmp_path):
    # scipy takes most of a fresh process's start-up; only oracle and
    # chain --occupations (its large Gauss rule) may load it
    script = f"""
import sys
at_start = {{m.split(".")[0] for m in sys.modules}}
import subohmic.cli as cli
out = {str(tmp_path / "out")!r}
base = ["--s", "0.3", "--delta", "1", "--omega-c", "10"]
for argv in (["solve", "--alpha", "0.05"] + base, ["critical"] + base,
             ["sweep", "--alpha-grid", "0.01:0.05:5"] + base,
             ["exponents", "--points-per-side", "3"] + base,
             ["phase-diagram", "--s-grid", "0.2:0.4:3", "--omega-c-list", "10", "--delta", "1"]):
    assert cli.main(argv + ["--output", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
loaded = {{m.split(".")[0] for m in sys.modules}} - at_start
print(sorted(loaded - sys.stdlib_module_names - {{"numpy", "subohmic"}}))
assert cli.main(["chain", "--alpha", "0.05", "--occupations"] + base + ["--output", out]) == 0
print("scipy.linalg" in sys.modules)
"""
    res = _run_python("-c", script)
    assert res.returncode == 0, res.stderr
    # nor any other third-party package; the last line shows that the check
    # sees an import when one happens
    assert res.stdout.splitlines() == ["[]", "[]", "True"]


def test_wide_band_solve_prints_only_its_summary():
    # find_root once took a numpy tol from the minimizer and ran this solve in
    # numpy scalar arithmetic, which printed an overflow RuntimeWarning
    res = _run_python("-m", "subohmic.cli", "solve", "--s", "0.9794148864171522",
                      "--alpha", "0.000238804056666098", "--delta", "0.33998794561569706",
                      "--omega-c", "155.39225567288008", "--functional", "scaling")
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    err = res.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("solve: M="), err
    assert json.loads(res.stdout)["command"] == "solve"


def _assert_csv(text, numbers=None):
    # every cell of the first ``numbers`` columns (all by default) is a number, nan included
    lines = text.splitlines()
    assert lines[0].startswith("# subohmic ")
    header = lines[1].split(",")
    assert len(lines) > 2
    for line in lines[2:]:
        cells = line.split(",")
        assert len(cells) == len(header), line
        for cell in cells[:numbers]:
            float(cell)


_LOG_UNIFORM = {"alpha": (1e-6, 100.0), "delta": (1e-2, 1e2), "omega_c": (0.5, 1e3)}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command=st.sampled_from(["solve", "solve-scaling", "critical", "critical-scaling",
                                "chain", "chain-occupations"]),
       s=st.floats(0.02, 0.98),
       logs=st.fixed_dictionaries({k: st.floats(math.log(lo), math.log(hi))
                                   for k, (lo, hi) in _LOG_UNIFORM.items()}),
       n_sites=st.integers(2, 12), frame=st.sampled_from(["bare", "displaced"]))
def test_cli_exit_codes_stderr_and_payload(command, s, logs, n_sites, frame):
    # any solve, critical or chain input exits 0, 2 or 3 with exactly one
    # stderr line (a warning counts as one), and stdout is the payload it claims
    kind, _, variant = command.partition("-")
    x = {k: math.exp(v) for k, v in logs.items()}
    argv = [kind, "--s", repr(s), "--delta", repr(x["delta"]), "--omega-c", repr(x["omega_c"])]
    if kind != "critical":
        argv += ["--alpha", repr(x["alpha"])]
    if variant == "scaling":
        argv += ["--functional", "scaling"]
    if kind == "chain":
        argv += ["--n-sites", str(n_sites)]
        if variant == "occupations":
            argv += ["--occupations", "--frame", frame]
    _check_exit_stderr_payload(argv)


_UNIT_BATH = ["--delta", "1", "--omega-c", "10"]


# each case's flags after the unit bath, and its exit code, or its exit code and
# what its one stderr line says; tools/outdiff.py reads this list as a literal
EXTREME_INPUTS = [
    # s - 1 is -1 to rounding: the Gauss-Jacobi head of dmu / w has no rule
    (["solve", "--s", "1e-16", "--alpha", "0.02"], 2),
    (["solve", "--s", "1e-17", "--alpha", "0.02"], 2),
    (["solve", "--s", "1e-15", "--alpha", "0.02"], 2),  # the head rule's weights turn negative
    (["critical", "--s", "1e-17"], 2),
    (["chain", "--s", "1e-17", "--alpha", "0.02", "--occupations"], 2),
    # the grid and the scalar residual round the span's upper end to opposite signs
    (["solve", "--s", "1e-9", "--alpha", "0.02"], 0),
    (["solve", "--s", "2.3e-16", "--alpha", "0.02"], 0),
    # (1 - K)^2 overflows in the tunneling descent's step
    (["solve", "--s", "0.3", "--alpha", "1e154"], 0),
    (["solve", "--s", "0.3", "--alpha", "1e200"], 0),
    # d^2 of the chain displacements overflows, n_av ~ alpha does not
    (["chain", "--s", "0.3", "--alpha", "1e154", "--occupations", "--n-sites", "400"], 0),
    # the descent's step 2 K g overflowed to an infinite step, and dt to 0 at g = -inf
    (["solve", "--s", "0.3", "--alpha", "1e148"], 0),
    # K, then the overlap integral, left the floats in the descent, which
    # stepped by NaN: the tunneling collapses at every m
    (["solve", "--s", "0.3", "--alpha", "1e295"], (0, "M=1 ")),
    (["solve", "--s", "0.3", "--alpha", "1e306"], (0, "M=1 ")),
    (["solve", "--s", "0.1", "--omega-c", "100", "--alpha", "1e300"], (0, "M=1 ")),
    # in units of omega_c, int dmu / w = 2 alpha / s is finite at 1e307 and
    # sums past the floats at 1e308; the occupations' total overflows first
    (["solve", "--s", "0.3", "--alpha", "1e307"], (0, "M=1 ")),
    (["solve", "--s", "0.3", "--alpha", "1e308"], (2, "overflows")),
    (["chain", "--s", "0.3", "--alpha", "1e307", "--occupations"], (2, "overflows")),
    (["chain", "--s", "0.3", "--alpha", "1e306", "--occupations"], (2, "overflows")),
    # the energy bound -alpha omega_c / (2 s) overflows: a domain error before the
    # descent, whose overlap integral in units of omega_c would leave the floats
    (["solve", "--s", "0.3", "--alpha", "1e306", "--delta", "1", "--omega-c", "1e10"],
     (2, "energy overflows")),
    (["chain", "--s", "0.3", "--alpha", "1e306", "--delta", "1", "--omega-c", "1e10",
      "--occupations"], (2, "energy overflows")),
    # delta / omega_c leaves the normal floats
    (["critical", "--s", "0.3", "--delta", "1e-300", "--omega-c", "1e300"],
     (2, "delta/omega_c")),
    (["solve", "--s", "0.3", "--alpha", "0.05", "--delta", "1e300", "--omega-c", "1e-10"],
     (2, "delta/omega_c")),
    # the critical root's integrals underflow: (d + w)^2 passes the floats
    (["critical", "--s", "0.3", "--omega-c", "1e-200"], (2, "delta/omega_c")),
    # the problem of --delta 1 --omega-c 10 at other scales: the rules were built
    # at the raw cutoff, whose weights underflowed or whose moment overflowed
    (["solve", "--s", "0.3", "--alpha", "0.05", "--delta", "1e-151", "--omega-c", "1e-150"],
     (0, "M=0.829831110601 ")),
    (["solve", "--s", "0.3", "--alpha", "0.05", "--delta", "1e-180", "--omega-c", "1e-179"],
     (0, "M=0.829831110601 ")),
    (["chain", "--s", "0.3", "--alpha", "1", "--omega-c", "1e200", "--occupations"], 0),
    # the overlap integral leaves the floats where the energy bound does not: a
    # collapse, whose energy then overflows only in units of delta
    (["solve", "--s", "0.3", "--alpha", "1e306", "--delta", "1e-10", "--omega-c", "1"],
     (2, "energy/delta overflows")),
    (["solve", "--s", "0.3", "--alpha", "1e306", "--delta", "1e-10", "--omega-c", "1",
      "--raw-units"], (0, "M=1 ")),
    (["solve", "--s", "0.3", "--alpha", "1e307", "--delta", "1e-12", "--omega-c", "1"],
     (2, "energy/delta overflows")),
    (["chain", "--s", "0.3", "--alpha", "1e305", "--delta", "1e-10", "--omega-c", "1",
      "--occupations"], (0, "M=1 ")),
    # a finite energy whose quotient by delta leaves the floats fails its sweep row
    (["sweep", "--s", "0.3", "--alpha-grid", "1e200:2e200:2", "--delta", "1e-100",
      "--omega-c", "1e10"], (2, "energy/delta overflows")),
]


@pytest.mark.parametrize("argv, want", EXTREME_INPUTS)
def test_extreme_inputs_exit_codes_stderr_and_payload(argv, want):
    # a case's own flags come last, so they override the unit bath; a case
    # can also name what its one stderr line says
    want, says = want if isinstance(want, tuple) else (want, "")
    code, out, line = _check_exit_stderr_payload(argv[:1] + _UNIT_BATH + argv[1:])
    assert code == want
    assert says in line
    for row in out.splitlines():  # only a failed sweep row, which names its error, holds NaN
        assert "nan" not in row or row.endswith("Error"), row


def _check_exit_stderr_payload(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3), (argv, lines)
    if argv[0] == "sweep":
        # the table is written whatever its rows did, and a failed row adds its error line
        assert len(lines) == (1 if code == 0 else 2), (argv, lines)
        _assert_csv(out.getvalue(), numbers=-1)
        return code, out.getvalue(), lines[-1]
    assert len(lines) == 1, (argv, lines)
    if code != 0:
        assert out.getvalue() == ""
    elif argv[0] == "chain":
        _assert_csv(out.getvalue())
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]
    return code, out.getvalue(), lines[0]
