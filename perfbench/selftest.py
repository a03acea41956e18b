"""Self-test of the benchmark's oracles and answer checks.

Run from the repository root (about ten seconds):

    python3 perfbench/selftest.py

1. The Pareto-frontier oracle equals brute-force enumeration, in optimum and
   in cheapest cost reaching the threshold, on every small-batch instance.
2. The package's own answers on small-batch instances pass every check.
3. Each answer with its optimum perturbed, or its witness changed in one
   entry, fails its check, so it would raise the run's failed count.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from champbribe import core  # noqa: E402

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bump_optimum(answer: dict) -> dict:
    best = answer["best"]
    return {**answer, "best": "1/2" if best is None else str(Fraction(best) + Fraction(1, 10**12))}


def _shift_witness(inst: dict, answer: dict) -> dict | None:
    """The answer with one witness entry moved to the next entry, or None."""
    witness = answer["witness"]
    for k, player in enumerate(inst["players"] if witness else ()):
        size = len(player["entries"])
        if size >= 2:
            changed = list(witness)
            changed[k] = changed[k] % size + 1
            return {**answer, "witness": changed}
    return None


def main() -> int:
    problems = []
    insts = workloads.make("small-batch", 1)
    for i, d in enumerate(insts):
        if oracle.expected(d) != oracle.expected(d, use_brute=True):
            problems.append(f"instance {i}: frontier oracle disagrees with brute force")

    sample = insts[:150]
    exps = [oracle.expected(d) for d in sample]
    decoded = [core.instance_from_dict(d) for d in sample]
    _, answers = worker.solve_all(decoded, ("dp", "fpt-bribes", "fpt-probs"))
    for i, route, why in oracle.check_answers(sample, exps, answers):
        problems.append(f"instance {i} {route}: correct answer rejected: {why}")

    bumped = [_bump_optimum(a) for a in answers]
    shifted = [s for a in answers if (s := _shift_witness(sample[a["instance"]], a))]
    raised = [{**answers[0], "error": "RuntimeError: injected"}]
    for name, wrong in (("perturbed optimum", bumped), ("shifted witness", shifted),
                        ("raised", raised)):
        caught = len(oracle.check_answers(sample, exps, wrong))
        print(f"{name}: {caught} of {len(wrong)} caught")
        if caught != len(wrong):
            problems.append(f"{name}: only {caught} of {len(wrong)} caught")

    for line in problems[:20]:
        print("FAIL " + line)
    print(f"selftest: {len(insts)} oracle comparisons, {len(answers)} answers checked, "
          f"{'FAIL' if problems else 'pass'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
