"""The benchmark's tracer still finds and fires every package hook it patches.

`perfbench/tracing.py` reads its per-layer metrics by wrapping named
functions of the package from outside.  A rename or a deletion there makes
metrics that `BENCHMARK.json` declares go absent, so this test runs the
unmodified tracer over one small solve per route.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAYLOAD = {
    "players": [
        {"entries": [{"bribe": 0, "p": "1/2"}, {"bribe": 1, "p": "1"}]},
        {"entries": [{"bribe": 0, "p": "1/3"}, {"bribe": 2, "p": "2/3"}]},
    ],
    "budget": 1,
    "threshold": "1/3",
}


def test_every_declared_layer_metric_is_reported():
    from champbribe import core, solvers

    tracing = _load_tracing()
    routes = {
        "dp": "solve_dp",
        "fpt-bribes": "solve_fpt_bribe_values",
        "fpt-probs": "solve_fpt_prob_values",
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inst = core.instance_from_dict(PAYLOAD)
        for route, fn in routes.items():
            tracer.solve_id += 1
            result = tracer.span("solve." + route, getattr(solvers, fn), inst)
            assert result.best_probability == Fraction(1, 3)
    finally:
        tracer.uninstall()

    assert tracer.missing == {}
    _, _, calls = tracer.times()
    assert {name for _, _, name in tracing.HOOKS} <= set(calls)
    metrics = tracer.layer_metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - {"trace.overhead_frac"}
    assert expected <= set(metrics)
    for name in ("dp.kernel_calls", "milp.lp_solves", "solvers.model_cols"):
        assert metrics[name] > 0, name
