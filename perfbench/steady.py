"""Run-to-run steadiness of the end-to-end metrics, judged against their bounds.

Run from the repository root:

    python3 perfbench/steady.py --workloads dp-scale,small-batch --seeds 1-10

For each workload it runs `run.py` once per seed, with the run length from
BENCHMARK.json, and prints for every metric the median, the quartiles and
the spread: the distance between the quartiles (statistics.quantiles, n=4)
as a share of the median.  A metric whose spread exceeds its bound is
reported as unresolved: a change to it cannot be told from noise.  With
--sets 2 the seeds are run a second time, offset by 100, and a metric is
also unresolved when the second set's spread exceeds its bound or the two
medians differ by more than it, in either direction.  Every run must report correct=true.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect answers\n{out}")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"# {workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
          flush=True)
    return values


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    unresolved = 0
    for workload in args.workloads.split(","):
        sets = []
        for offset in (0, 100)[: args.sets]:
            runs = [_run(bench, workload, s + offset) for s in _seeds(args.seeds)]
            sets.append({k: [r[k] for r in runs] for k in bounds})
        for name, bound in bounds.items():
            med, q1, q3, spread = _spread(sets[0][name])
            status = "ok" if spread <= bound else "UNRESOLVED"
            line = (f"{workload:12} {name:12} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={spread:.3f} bound={bound}")
            if len(sets) == 2:
                med2, _, _, spread2 = _spread(sets[1][name])
                drift = med2 / med - 1
                line += f" second median={med2:.6g} spread={spread2:.3f} drift={drift:+.3f}"
                if spread2 > bound or abs(drift) > bound:
                    status = "UNRESOLVED"
            unresolved += status != "ok"
            print(f"{line} {status}", flush=True)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
