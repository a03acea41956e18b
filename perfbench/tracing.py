"""Spans and counters around champbribe's layer entry points.

The tracer patches the package from outside: each hooked function is
replaced, in every champbribe module that holds it, by a wrapper that
records a span (name, start, end, parent span, solve id) and feeds a
collector with the call's arguments and result.  Spans stay in memory and
are written once, when the run ends.  A hook whose module or attribute is
gone (for example after the dense DP kernel is deleted) is listed in
`missing` and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class.
HOOKS = (
    ("champbribe.core", "instance_from_dict", "core.decode"),
    ("champbribe.core", "normalize_instance", "core.normalize"),
    ("champbribe.solvers", "build_bribe_value_milp", "solvers.build_model"),
    ("champbribe.solvers", "build_prob_value_milp", "solvers.build_model"),
    ("champbribe.milp", "solve_milp", "milp.bnb"),
    ("champbribe.milp", "_branch_and_bound", "milp.bnb_round"),
    ("champbribe.milp", "_simplex", "milp.lp"),
    ("champbribe.milp", "integralize_solution", "milp.integralize"),
    ("champbribe.dp", "budget_sweep", "dp.sweep"),
    ("champbribe.dp", "BudgetSweep.witness", "dp.witness"),
    ("champbribe._dpkernel_py", "transition_compact", "dp.kernel"),
)
# Called too often for a span each: counted and timed only.
COUNTED = (("champbribe.milp", "LogSum.sign", "milp.logsum_sign"),)
# A compiled kernel, when built, replaces the NumPy twin under the same span.
OPTIONAL = (("champbribe._dpkernel", "transition_compact", "dp.kernel"),)


def _resolve(modname: str, attr: str):
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, solve id)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}  # span name -> hook not found
        self.solve_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.solve_id)

    def install(self) -> None:
        for hooks, wrap, required in ((HOOKS, self._spanned, True), (OPTIONAL, self._spanned, False),
                                      (COUNTED, self._counted, True)):
            for modname, attr, name in hooks:
                found = _resolve(modname, attr)
                if found is None:
                    if required:
                        self.missing[name] = f"{modname}.{attr}"
                    continue
                self._patch(*found, wrap(name, found[2]))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _patch(self, owner, name, fn, wrapper) -> None:
        """Replace fn on its owner and in every champbribe module importing it by name."""
        targets = [owner] + [
            m for key, m in list(sys.modules.items())
            if key.startswith("champbribe") and m is not owner and getattr(m, name, None) is fn
        ]
        for target in targets:
            self._undo.append((target, name, fn))
            setattr(target, name, wrapper)

    def _spanned(self, name, fn):
        collect = getattr(self, "_collect_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if collect is not None:
                collect(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name + "_s"] += perf_counter() - start
                counts[name + "s"] += 1

        return wrapper

    # -- collectors: counts read from arguments and results ---------------------

    def _collect_solvers_build_model(self, args, result):
        model = result[0]
        self.counts["solvers.models"] += 1
        self.counts["solvers.cols"] += model.num_variables
        self.counts["solvers.rows"] += len(model.rows)

    def _collect_milp_lp(self, args, result):
        self.counts["milp.lp_infeasible"] += result[0] == "infeasible"  # milp.INFEASIBLE

    def _collect_dp_sweep(self, args, result):
        inst = args[0]
        self.counts["dp.table_cells"] += inst.num_challengers * (inst.budget + 1)

    def _collect_dp_kernel(self, args, result):
        rmap = args[2]
        used = len(result[1])
        self.counts["dp.candidates"] += rmap.shape[0] * (rmap.shape[1] - 1)
        self.counts["dp.row_values"] += used
        self.counts["dp.row_values_max"] = max(self.counts["dp.row_values_max"], used)

    # -- summaries ----------------------------------------------------------------

    def times(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _, _), c in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - c
            calls[name] += 1
        return total, own, calls

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced solves; absent where a hook is missing."""
        total, own, calls = self.times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0

        # (span names the metrics need, metrics); solvers.extract_s is the self
        # time of solve_fpt_*, so it needs every layer that solve calls hooked.
        groups = (
            (("core.decode",), {"core.decode_s": total["core.decode"]}),
            (("core.normalize",), {"core.normalize_s": total["core.normalize"]}),
            (("solvers.build_model",), {
                "solvers.build_model_s": total["solvers.build_model"],
                "solvers.model_cols": ratio(c["solvers.cols"], c["solvers.models"]),
                "solvers.model_rows": ratio(c["solvers.rows"], c["solvers.models"]),
            }),
            (("core.normalize", "solvers.build_model", "milp.bnb", "milp.integralize"), {
                "solvers.extract_s": own["solve.fpt-bribes"] + own["solve.fpt-probs"],
            }),
            (("dp.sweep",), {
                "dp.sweep_s": total["dp.sweep"],
                "dp.table_cells": c["dp.table_cells"],
            }),
            (("dp.witness",), {"dp.witness_s": total["dp.witness"]}),
            (("dp.kernel",), {
                "dp.kernel_s": total["dp.kernel"],
                "dp.kernel_calls": calls["dp.kernel"],
                "dp.candidates": c["dp.candidates"],
                "dp.row_values_max": c["dp.row_values_max"],
                "dp.value_yield": ratio(c["dp.row_values"], c["dp.candidates"]),
            }),
            (("dp.sweep", "dp.kernel"), {"dp.sweep_self_s": total["dp.sweep"] - total["dp.kernel"]}),
            (("milp.bnb",), {"milp.bnb_s": total["milp.bnb"]}),
            (("milp.bnb", "milp.bnb_round"), {
                "milp.precision_rounds": ratio(calls["milp.bnb_round"], calls["milp.bnb"]),
            }),
            (("milp.lp",), {
                "milp.lp_s": total["milp.lp"],
                "milp.lp_solves": calls["milp.lp"],
                "milp.lp_infeasible_frac": ratio(c["milp.lp_infeasible"], calls["milp.lp"]),
            }),
            (("milp.integralize",), {"milp.integralize_s": total["milp.integralize"]}),
            (("milp.logsum_sign",), {
                "milp.logsum_signs": c["milp.logsum_signs"],
                "milp.logsum_sign_s": c["milp.logsum_sign_s"],
            }),
        )
        return {k: v for needs, metrics in groups if not self.missing.keys() & set(needs)
                for k, v in metrics.items()}
