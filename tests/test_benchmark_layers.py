"""The benchmark's per-layer tracer (``perfbench/spans.py``) names library
functions and the arguments its counters read by string, and reports a name
it cannot find as absent instead of failing.  These tests fail instead, so a
traced layer cannot disappear from the benchmark unnoticed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# not library functions: energies and the self-consistent dt are evaluated
# inside Functional methods, which the tracer does not wrap, the
# magnetization comes from a root on the self-consistent curve, not a
# minimizer, and the Landau c1 from Functional.c1 in closed form
ALREADY_ABSENT = {"variational.energy_exact", "variational.branch_energy_exact",
                  "variational.energy_measures", "variational.solve_delta_tilde_exact",
                  "numerics.minimize_scalar", "variational.landau_coefficients"}

# arguments read by the tracer's hooks and by its matvec-counting call
HOOK_ARGUMENTS = [
    ("model.bath_measures", "p"),
    ("chain.chain_map", "n_sites"),
    ("critical.sweep_alpha", "alphas"),
    ("oracle.ground_state", "h"),
    ("oracle.ground_state", "count_matvecs"),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target):
    layer, name = target.split(".")
    return getattr(importlib.import_module(f"subohmic.{layer}"), name, None)


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("target", [t for t in TARGETS if t not in ALREADY_ABSENT])
def test_traced_target_is_callable(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("target, argument", HOOK_ARGUMENTS)
def test_hooked_argument_is_a_parameter(target, argument):
    assert target in TARGETS
    assert argument in inspect.signature(_resolve(target)).parameters
