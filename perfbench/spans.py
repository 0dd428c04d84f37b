"""Per-layer tracing from outside the library.

:class:`Tracer` replaces each function named in :data:`TARGETS` by a
wrapper in every ``subohmic`` namespace that bound it (``minimize_energy``
lives in ``variational`` and is imported into ``critical`` and ``cli``), so
intra-module calls and lazy ``from .x import y`` imports are traced too.
Each call records a span: name, start, end, parent span and the id of the
CLI command it belongs to.  Spans are kept in flat in-memory arrays and
written out once, by :meth:`Tracer.dump`.  A target that no longer exists
is reported as absent instead of failing.  No library file is changed, and
:meth:`Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "critical", "variational", "model", "numerics", "chain", "oracle")

TARGETS = (
    "cli.main",
    "critical.critical_coupling_numeric",
    "critical.sweep_alpha",
    "variational.minimize_energy",
    "variational.energy_exact",
    "variational.branch_energy_exact",
    "variational.energy_measures",
    "variational.solve_delta_tilde_exact",
    "variational.landau_coefficients",
    "numerics.minimize_scalar",
    "numerics.find_root",
    "numerics.fit_power_law",
    "model.bath_measures",
    "model.bath_measure_rule",
    "model.discretize_bath",
    "chain.chain_map",
    "chain.chain_occupations",
    "oracle.build_hamiltonian",
    "oracle.ground_state",
    "oracle.ado_on_discrete",
    "oracle.fidelity",
)


def _arg(fn, name: str):
    """Getter for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    index = params.index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]
    return get


# Work counters taken from a call's arguments and result.  Each factory gets
# the original function and returns hook(args, kwargs, result) -> dict.

def _bath_measures_hook(fn):
    p = _arg(fn, "p")

    def hook(args, kwargs, result):
        q = p(args, kwargs)
        return {"key": (q.s, q.alpha, q.omega_c), "nodes": result[0].order}
    return hook


def _rule_order_hook(fn):
    return lambda args, kwargs, result: {"order": result.order}


def _chain_map_hook(fn):
    n_sites = _arg(fn, "n_sites")
    return lambda args, kwargs, result: {"sites": int(n_sites(args, kwargs))}


def _sweep_hook(fn):
    alphas = _arg(fn, "alphas")
    return lambda args, kwargs, result: {"rows": len(alphas(args, kwargs))}


def _hamiltonian_hook(fn):
    return lambda args, kwargs, result: {"dim": result.shape[0], "nnz": result.nnz}


def _ground_state_hook(fn):
    h = _arg(fn, "h")

    def hook(args, kwargs, result):
        m = h(args, kwargs)
        out = {"dim": m.shape[0], "nnz": m.nnz}
        if len(result) == 3:
            out["matvecs"] = result[2]
        return out
    return hook


HOOKS = {
    "model.bath_measures": _bath_measures_hook,
    "model.bath_measure_rule": _rule_order_hook,
    "chain.chain_map": _chain_map_hook,
    "critical.sweep_alpha": _sweep_hook,
    "oracle.build_hamiltonian": _hamiltonian_hook,
    "oracle.ground_state": _ground_state_hook,
}

_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _plain(fn):
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        return result, result
    return call


def _counting_ground_state(fn):
    """Call ``ground_state`` with ``count_matvecs=True`` and hand the caller
    the result shape it asked for; plain if the flag no longer exists."""
    if "count_matvecs" not in inspect.signature(fn).parameters:
        return _plain(fn)

    def call(*args, **kwargs):
        if "count_matvecs" in kwargs or len(args) > 1:
            result = fn(*args, **kwargs)
            return result, result
        result = fn(*args, count_matvecs=True, **kwargs)
        return result[:2], result
    return call


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.absent: list[str] = []
        self.command = -1
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"subohmic.{layer}")
            except ImportError:
                pass
        namespaces = [m for k, m in sys.modules.items()
                      if k == "subohmic" or k.startswith("subohmic.")]
        for target in TARGETS:
            layer, func = target.split(".")
            orig = getattr(modules.get(layer), func, None)
            if not callable(orig):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patched.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def _wrap(self, target: str, fn):
        name_id = len(self.names)
        self.names.append(target)
        try:
            hook = HOOKS[target](fn) if target in HOOKS else None
        except ValueError:  # the argument the hook reads was renamed
            hook = None
        call = (_counting_ground_state if target == "oracle.ground_state" else _plain)(fn)
        stack, attrs = self._stack, self.attrs
        names, parents, cmds, starts, ends = self.name, self.parent, self.cmd, self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.command)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result, full = call(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    attrs[sid] = hook(args, kwargs, full)
                except _HOOK_ERRORS:
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def dump(self, path, header: dict) -> None:
        """Write every span, columnar, as one JSON document."""
        doc = dict(header)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(), "parent": self.parent.tolist(),
            "cmd": self.cmd.tolist(), "start": self.start.tolist(), "end": self.end.tolist(),
        }
        doc["attrs"] = {str(k): d for k, d in self.attrs.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics by name, as ``{name: (value, unit)}``, plus the
        names whose function or counter was not found."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        ids = {name: k for k, name in enumerate(self.names)}
        by_name: dict[int, list[int]] = {k: [] for k in range(len(self.names))}
        for i in range(n):
            by_name[self.name[i]].append(i)

        def spans(target):
            return by_name.get(ids.get(target, -1), [])

        def calls(target):
            return len(spans(target))

        def self_s(target):
            return sum((dur[i] - child[i] for i in spans(target)), 0.0)

        def total_s(target):
            return sum((dur[i] for i in spans(target)), 0.0)

        def under(target, ancestor_prefix):
            # spans of target with an ancestor whose name starts with the prefix
            count = 0
            for i in spans(target):
                j = self.parent[i]
                while j >= 0:
                    if self.names[self.name[j]].startswith(ancestor_prefix):
                        count += 1
                        break
                    j = self.parent[j]
            return count

        absent = set()

        def attr_values(target, key):
            values = [self.attrs[i][key] for i in spans(target)
                      if key in self.attrs.get(i, {})]
            if spans(target) and not values:
                absent.add(f"{target}.{key}")
            return values

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict = {}
        e = "variational.energy_exact"
        m[e + ".calls"] = (calls(e), "count")
        m[e + ".self_s"] = (self_s(e), "s")
        mini = "variational.minimize_energy"
        m[e + ".per_minimize"] = (ratio(under(e, mini), calls(mini)), "count")
        m[mini + ".calls"] = (calls(mini), "count")
        m[mini + ".total_s"] = (total_s(mini), "s")
        for t in ("variational.solve_delta_tilde_exact", "numerics.minimize_scalar",
                  "variational.branch_energy_exact", "numerics.find_root",
                  "model.bath_measure_rule", "chain.chain_occupations"):
            m[t + ".calls"] = (calls(t), "count")
            m[t + ".self_s"] = (self_s(t), "s")

        b = "model.bath_measures"
        m[b + ".calls"] = (calls(b), "count")
        m[b + ".distinct"] = (len(set(attr_values(b, "key"))), "count")
        m[b + ".nodes"] = (max(attr_values(b, "nodes"), default=0), "count")
        m[b + ".self_s"] = (self_s(b), "s")

        lc = "variational.landau_coefficients"
        m[lc + ".calls"] = (calls(lc), "count")
        m[lc + ".total_s"] = (total_s(lc), "s")
        cc = "critical.critical_coupling_numeric"
        m[cc + ".total_s"] = (total_s(cc), "s")
        m[cc + ".c1_evals"] = (ratio(under(lc, cc), calls(cc)), "count")
        sw = "critical.sweep_alpha"
        rows = sum(attr_values(sw, "rows"))
        m[sw + ".rows"] = (rows, "count")
        m[sw + ".total_s"] = (total_s(sw), "s")
        m[sw + ".s_per_row"] = (ratio(total_s(sw), rows), "s")
        m["numerics.fit_power_law.self_s"] = (self_s("numerics.fit_power_law"), "s")

        cm = "chain.chain_map"
        m[cm + ".calls"] = (calls(cm), "count")
        m[cm + ".self_s"] = (self_s(cm), "s")
        m[cm + ".sites"] = (sum(attr_values(cm, "sites")), "count")
        m[cm + ".flops_computed"] = (self._lanczos_flops(spans(cm), ids), "flop")

        gs = "oracle.ground_state"
        matvecs = sum(attr_values(gs, "matvecs"))
        # computed CSR matvec traffic: an 8-byte value and a 4-byte column index
        # per nonzero; per row, read x, write y and a 4-byte row pointer
        moved = 0
        for i in spans(gs):
            a = self.attrs.get(i, {})
            if "matvecs" in a:
                moved += a["matvecs"] * (12 * a["nnz"] + 20 * a["dim"])
        m[gs + ".calls"] = (calls(gs), "count")
        m[gs + ".self_s"] = (self_s(gs), "s")
        m[gs + ".matvecs"] = (matvecs, "count")
        m[gs + ".ms_per_matvec"] = (ratio(1e3 * self_s(gs), matvecs), "ms")
        m[gs + ".bytes_per_matvec_computed"] = (ratio(moved, matvecs), "B")
        bh = "oracle.build_hamiltonian"
        m[bh + ".calls"] = (calls(bh), "count")
        m[bh + ".self_s"] = (self_s(bh), "s")
        m[bh + ".dim"] = (sum(attr_values(bh, "dim")), "count")
        m[bh + ".nnz"] = (sum(attr_values(bh, "nnz")), "count")

        m["oracle.ado_on_discrete.self_s"] = (self_s("oracle.ado_on_discrete"), "s")
        em = "variational.energy_measures"
        m[em + ".self_s"] = (self_s(em), "s")
        m[em + ".calls_in_oracle"] = (under(em, "oracle."), "count")
        m["oracle.fidelity.self_s"] = (self_s("oracle.fidelity"), "s")
        m["model.discretize_bath.self_s"] = (self_s("model.discretize_bath"), "s")
        m["cli.main.self_s"] = (self_s("cli.main"), "s")

        missing = sorted(absent) + [f"{t} (function not found)" for t in self.absent]
        return m, missing

    def _lanczos_flops(self, chain_spans: list[int], ids: dict) -> int:
        """Computed flops of full-reorthogonalization Lanczos per chain map:
        ``N (2 n (n+1) + 10 n)`` for ``n`` sites over an ``N``-node rule, the
        rule order taken from the ``bath_measure_rule`` call made inside."""
        rule_id = ids.get("model.bath_measure_rule", -1)
        order: dict[int, int] = {}
        for i in range(len(self.start)):
            parent = self.parent[i]
            if self.name[i] == rule_id and parent >= 0:
                order[parent] = order.get(parent, 0) + self.attrs.get(i, {}).get("order", 0)
        total = 0
        for i in chain_spans:
            n, big_n = self.attrs.get(i, {}).get("sites", 0), order.get(i, 0)
            total += big_n * (2 * n * (n + 1) + 10 * n)
        return total
