"""One round of a workload: a fresh process that imports, decodes and solves.

Reads one JSON job from stdin and writes one JSON result to stdout.  It is
started by `run.py` with the checkout's `src` first on PYTHONPATH.

    {"instances": [...], "routes": [...], "trace": 0 | 1, "spans_path": path}

The round times `import champbribe` plus decoding every instance (its
set-up), then solves every (instance, route) pair once, in turn, with no
extra threads.  Every solve is timed here, around the public solver call,
witness included.  A host-speed sampler (hostspeed.py) runs in the round's
process throughout, and every time goes back both as measured and at the
reference speed.  Answers go back unchecked; the caller checks them
outside the timed region.  With trace 1 the package's layer entry points
are wrapped (tracing.py) before decoding, and the per-layer metrics and
spans of the round are returned and written.
"""

from __future__ import annotations

import json
import resource
import sys
from statistics import median
from time import perf_counter

import hostspeed

ROUTES = {"dp": "solve_dp", "fpt-bribes": "solve_fpt_bribe_values", "fpt-probs": "solve_fpt_prob_values"}


def _answer(result) -> dict:
    best = result.best_probability
    return {
        "best": None if best is None else str(best),
        "decision": bool(result.decision),
        "witness": None if result.witness is None else list(result.witness.choices),
    }


def solve_all(insts, routes, tracer=None):
    """Solve every (instance, route) pair once; ([instance, route, start, end], answers)."""
    from champbribe import solvers

    fns = {r: getattr(solvers, ROUTES[r]) for r in routes}
    times, answers = [], []
    for i, inst in enumerate(insts):
        for route in routes:
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = fns[route](inst)
                else:
                    tracer.solve_id += 1
                    result = tracer.span("solve." + route, fns[route], inst)
            except Exception as exc:  # a failed solve is counted, not fatal
                t1 = perf_counter()
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                t1 = perf_counter()
                answer = _answer(result)
            times.append([i, route, t0, t1])
            answers.append({"instance": i, "route": route, **answer})
    return times, answers


def _backends() -> dict:
    import champbribe
    from champbribe import core, dp, milp

    rat = getattr(milp, "_rat", None)
    empty = core.instance_from_dict({"players": [], "budget": 0, "threshold": "0"})
    return {
        "package": champbribe.__file__,
        "dp_backend": getattr(dp.budget_sweep(empty), "backend", "absent"),
        "rational": "absent" if rat is None else f"{rat.__module__}.{rat.__qualname__}",
    }


def main() -> int:
    job = json.load(sys.stdin)
    sampler = hostspeed.Sampler()
    sampler.start()
    start = perf_counter()
    from champbribe import core

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    insts = [core.instance_from_dict(d) for d in job["instances"]]
    setup_end = perf_counter()
    times, answers = solve_all(insts, job["routes"], tracer)
    sampler.stop()
    out = {
        # (measured, reference) seconds
        "setup_s": sampler.reference_s(start, setup_end),
        "times": [[i, route, *sampler.reference_s(t0, t1)] for i, route, t0, t1 in times],
        "probes": len(sampler.samples),
        "probe_s": median(t for _, _, t in sampler.samples),
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        out.update(layers=tracer.layer_metrics(), missing_hooks=tracer.missing)
        with open(job["spans_path"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve"], "spans": tracer.spans}, fh)
    out.update(_backends())
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
