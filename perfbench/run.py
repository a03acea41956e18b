"""champbribe benchmark: exact-solve workloads, timed closed loop, checked by oracles.

Run from the repository root:

    python3 perfbench/run.py --workload dp-scale --seed 1 --seconds 25 --trace 0

The run makes the workload's instances for the seed, times SETUP_ROUNDS
fresh processes that only import champbribe and decode them, and then runs
rounds back to back until `--seconds` is spent: each round is a fresh
process (worker.py) that imports champbribe, decodes the instances and
solves every (instance, route) pair once.  One client, closed loop.  Fresh processes
make each time a median over memory layouts as well as over moments.
Every time metric is in reference seconds: the measured interval rescaled
to a fixed host speed by a probe that runs in the round's own process
(hostspeed.py), because the shared host's speed moves by up to 2x between
seconds.  The measured times are printed in the report lines.
Afterwards, outside any timed region, every answer is checked against an
independent exact oracle (oracle.py).  Lines starting with "#" describe
the run; the last line is one JSON object:

    {"correct": bool, "attempted": solves, "failed": solves that raised or
     failed their check, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones from
tracing.py (median over traced rounds) plus the tracing overhead.  The run
record and, when traced, the spans are written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import geometric_mean, median, quantiles
from time import perf_counter

import oracle
import workloads

ROUND_TIMEOUT_S = 150
# Fresh processes that only import and decode, before the solving rounds:
# one set-up reads 0.12-0.24 s from process to process, so the median of
# the few solving rounds alone moves by a quarter from run to run.
SETUP_ROUNDS = 10
WORKER = Path(__file__).resolve().parent / "worker.py"


def _round(job: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _per_pair(rounds: list[dict], measured: bool = False) -> dict:
    """(instance, route) -> solve times in reference (or measured) seconds, one per round."""
    times: dict = {}
    for r in rounds:
        for i, route, *t in r["times"]:
            times.setdefault((i, route), []).append(t[0 if measured else 1])
    return times


def _wall(times: dict, route: str | None = None) -> float:
    """Time to solve the set once: sum over pairs of the median solve time."""
    return sum(median(ts) for (_, r), ts in times.items() if route in (None, r))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield", "_rounds")):
        return "ratio"
    return "count"


def _p90(samples: list[float]) -> str:
    """p90 with its sample count, only when ten or more samples lie beyond it."""
    beyond = len(samples) // 10
    if beyond < 10:
        return f"p90 n/a ({len(samples)} samples, {beyond} beyond p90)"
    return f"p90={quantiles(samples, n=10)[-1]:.6f}s ({len(samples)} samples, {beyond} beyond)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "champbribe" / "__init__.py").is_file():
        print(f"perfbench: no champbribe package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    spec = workloads.WORKLOADS[args.workload]
    routes = spec["routes"]
    insts = workloads.make(args.workload, args.seed)

    start = perf_counter()
    setups = [_round({"instances": insts, "routes": [], "trace": 0}, env)["setup_s"]
              for _ in range(SETUP_ROUNDS)]
    plain, traced = [], []
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        t0 = perf_counter()
        res = _round({"instances": insts, "routes": routes, "trace": int(tracing),
                      "spans_path": str(out_dir / f"{tag}-round{len(traced)}-spans.json")}, env)
        (traced if tracing else plain).append(res)
        now = perf_counter()
        if now - start + 0.5 * (now - t0) >= args.seconds and (traced or not args.trace):
            break
    rounds = plain + traced
    package = Path(rounds[0]["package"]).resolve()
    if src.resolve() not in package.parents:
        print(f"perfbench: imported champbribe from {package}, not from {src}", file=sys.stderr)
        return 2

    # Oracles: outside every timed region, one check per solve attempted.
    exps = [oracle.expected(d, use_brute=args.workload == "small-batch") for d in insts]
    answers = [a for r in rounds for a in r["answers"]]
    failures = oracle.check_answers(insts, exps, answers)
    attempted, failed = len(answers), len(failures)

    times = _per_pair(plain)
    measured = _per_pair(plain, measured=True)
    per_route = {}
    for route in routes:
        rt = [t for (_, r), ts in times.items() if r == route for t in ts]
        per_route[route] = {
            "wall_s": _wall(times, route),
            "measured_wall_s": _wall(measured, route),
            # Median over the route's pairs of each pair's median (see solve_s.p50).
            "p50_s": median(median(ts) for (_, r), ts in times.items() if r == route),
            "p90": _p90(rt),
            "solves": sum(a["route"] == route for a in answers),
            "failed": sum(r == route for _, r, _ in failures),
        }
    setups += [r["setup_s"] for r in plain]  # (measured, reference)
    if args.trace:
        layers = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = _wall(_per_pair(traced)) / _wall(times) - 1
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": median(ref for _, ref in setups), "unit": "s"},
            "wall_s": {"value": _wall(times), "unit": "s"},
            # Each route's median, combined by geometric mean: solve times form
            # clusters by route and by instance, and a median of samples pooled
            # over clusters falls in the gap between two and jumps with their edges.
            "solve_s.p50": {"value": geometric_mean(st["p50_s"] for st in per_route.values()),
                            "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "dp_backend": rounds[0]["dp_backend"],
        "rational": rounds[0]["rational"],
        "routes": per_route,
        "properties": workloads.properties(insts),
        "why": spec["why"],
        "left_out": workloads.LEFT_OUT,
        "load": "closed loop, one client, no extra threads",
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": [ref for _, ref in setups],
        "measured_setup_samples_s": [m for m, _ in setups],
        "probes_per_round": median(r["probes"] for r in rounds),
        "probe_s": median(r["probe_s"] for r in rounds),
        "missing_hooks": traced[0]["missing_hooks"] if traced else {},
    }
    print("# record " + json.dumps(record))
    for route, st in per_route.items():
        print(f"# route {route}: wall_s={st['wall_s']:.6f} (measured {st['measured_wall_s']:.6f}) "
              f"p50={st['p50_s']:.6f}s {st['p90']} failed={st['failed']}/{st['solves']}")
    print(f"# fail_frac={failed / attempted:.6f} ({failed} of {attempted} solves; "
          f"{attempted} oracle checks)")
    for i, r, why in failures[:10]:
        print(f"# FAIL instance {i} {r}: {why}")
    for hook in record["missing_hooks"].values():
        print(f"# hook {hook} not found: its metrics are absent")
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics, "failures": failures}, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
