"""Independent exact oracles and the per-solve correctness check.

Nothing here imports champbribe: instances are read from the benchmark's
own dicts, and every probability is exact (a `fractions.Fraction`, or an
unreduced integer pair inside `frontier`).  The oracles run outside the
timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def vectors(inst: dict) -> list[list[tuple[int, Fraction]]]:
    return [[(e["bribe"], Fraction(e["p"])) for e in p["entries"]] for p in inst["players"]]


def frontier(inst: dict) -> list[tuple[int, int, int]]:
    """Pareto frontier of (cost <= B, win probability) over all plans.

    Points are (cost, numerator, denominator), unreduced so that no gcd
    runs; they ascend in both cost and probability, and each is the
    cheapest plan cost reaching its probability.  Empty when no plan fits
    the budget.
    """
    budget = inst["budget"]
    front = [(0, 1, 1)]
    for vec in vectors(inst):
        cands = sorted(
            ((c + b, n * p.numerator, d * p.denominator)
             for c, n, d in front for b, p in vec if c + b <= budget),
            key=lambda cand: cand[0],
        )
        front = []
        for c, n, d in cands:
            if front and n * front[-1][2] <= front[-1][1] * d:
                continue
            if front and front[-1][0] == c:
                front.pop()
            front.append((c, n, d))
    return front


def brute(inst: dict) -> tuple[Fraction | None, int | None]:
    """(best probability within B, cheapest cost reaching the threshold), by enumeration."""
    vecs = vectors(inst)
    t = Fraction(inst["threshold"])
    best = min_cost = None
    for plan in product(*vecs):
        cost = sum(b for b, _ in plan)
        prob = Fraction(1)
        for _, p in plan:
            prob *= p
        if cost <= inst["budget"] and (best is None or prob > best):
            best = prob
        if cost <= inst["budget"] and prob >= t and (min_cost is None or cost < min_cost):
            min_cost = cost
    return best, min_cost


def expected(inst: dict, use_brute: bool = False) -> dict:
    """The facts every route's answer is checked against."""
    t = Fraction(inst["threshold"])
    if use_brute:
        best, min_cost = brute(inst)
    else:
        front = frontier(inst)
        best = Fraction(front[-1][1], front[-1][2]) if front else None
        min_cost = next((c for c, n, d in front if n * t.denominator >= t.numerator * d), None)
    return {"best": best, "min_cost": min_cost, "threshold": t}


def check(inst: dict, exp: dict, route: str, answer: dict) -> str | None:
    """None when `answer` is correct for `route`, else the reason it is not.

    `answer` holds the solver's reported `best` ("num/den" or None),
    `decision` and `witness` (1-based entry per challenger, or None).
    dp and fpt-bribes report the optimum within B; fpt-probs reports the
    cheapest plan reaching the threshold, so its witness cost is checked.
    """
    if answer.get("error"):
        return f"raised {answer['error']}"
    best = None if answer["best"] is None else Fraction(answer["best"])
    witness = answer["witness"]
    if witness is not None:
        vecs = vectors(inst)
        if len(witness) != len(vecs) or not all(1 <= j <= len(v) for j, v in zip(witness, vecs)):
            return f"witness {witness} does not index the bribe vectors"
        cost = sum(v[j - 1][0] for j, v in zip(witness, vecs))
        prob = Fraction(1)
        for j, v in zip(witness, vecs):
            prob *= v[j - 1][1]
        if cost > inst["budget"]:
            return f"witness cost {cost} exceeds budget {inst['budget']}"
        if prob != best:
            return f"witness evaluates to {prob}, reported {best}"
    if route == "fpt-probs":
        want = exp["min_cost"] is not None
        if answer["decision"] != want:
            return f"decision {answer['decision']}, oracle {want}"
        if not want and (best is not None or witness is not None):
            return "a no reports a probability or a plan"
        if want and (witness is None or cost != exp["min_cost"]):
            got = None if witness is None else cost
            return f"witness cost {got}, cheapest is {exp['min_cost']}"
        if want and prob < exp["threshold"]:
            return f"witness probability {prob} is below the threshold"
        return None
    if best != exp["best"]:
        return f"optimum {best}, oracle {exp['best']}"
    if (witness is None) != (best is None):
        return "witness presence does not match the optimum"
    want = best is not None and best >= exp["threshold"]
    if answer["decision"] != want:
        return f"decision {answer['decision']}, oracle {want}"
    return None


def check_answers(insts: list[dict], exps: list[dict], answers: list[dict]) -> list[tuple]:
    """(instance, route, reason) for every answer that fails its check."""
    failures = []
    for a in answers:
        why = check(insts[a["instance"]], exps[a["instance"]], a["route"], a)
        if why:
            failures.append((a["instance"], a["route"], why))
    return failures
