"""Batch verification suites: cross-solver agreement and reduction equivalence.

Each suite runs a seeded batch, returns a `SuiteReport`, and is shared
verbatim by the command-line `verify` subcommand and the acceptance tests.
Failures carry human-readable descriptions of the offending instance.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from . import generators
from .core import BribePlan, CbcctInstance, evaluate_plan, normalize_instance
from .cup import bracket_distribution, cup_win_probability, solve_cup_bruteforce
from .dp import budget_sweep
from .knapsack import (
    SmallKSumInstance,
    solve_mpk_bruteforce,
    solve_pkp_bruteforce,
    solve_small_ksum_bruteforce,
)
from .milp import (
    FormalLog,
    LogSum,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpVariable,
    OPTIMAL,
    integralize_solution,
    is_totally_unimodular,
    solve_lp_exact,
    solve_milp,
)
from .reductions import (
    chain_preconditions_met,
    cbcct_to_cup,
    cup_choices_from_plan,
    ksum_to_pkp,
    mpk_to_cbcct,
    pkp_to_mpk,
    shift_ksum,
    verify_reduction,
)
from .solvers import (
    build_bribe_value_milp,
    build_prob_value_milp,
    solve_bruteforce,
    solve_dp,
    solve_fpt_bribe_values,
    solve_fpt_prob_values,
)


@dataclass
class SuiteReport:
    name: str
    total: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def pass_count(self) -> int:
        return self.total - len(self.failures)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {self.pass_count}/{self.total} pass [{status}] ({self.elapsed:.2f}s)"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> SuiteReport:
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - start
        return report

    return wrapper


def _check_witness(report, label, inst, result) -> None:
    if result.witness is None:
        return
    cost, prob = evaluate_plan(inst, result.witness)
    if cost > inst.budget:
        report.failures.append(f"{label}: witness cost {cost} exceeds budget {inst.budget}")
    if result.best_probability is not None and prob != result.best_probability:
        report.failures.append(
            f"{label}: witness evaluates to {prob}, result claims {result.best_probability}"
        )


@_timed
def suite_solver_agreement(count: int = 500, seed: int = 0) -> SuiteReport:
    """Brute force, DP, and both MILP routes agree on seeded random instances."""
    report = SuiteReport("solver-agreement", total=count)
    rng = generators.split_rng(seed, "agree-params")
    yes = 0
    for idx in range(count):
        n = rng.randint(0, 6)
        budget = rng.randint(0, 20)
        inst = generators.gen_cbcct(seed, n, 3, budget, index=idx)
        label = f"instance {idx} (n={n}, B={budget})"
        brute = solve_bruteforce(inst)
        results = [brute, solve_dp(inst), solve_fpt_bribe_values(inst)]
        for r in results:
            if r.best_probability != brute.best_probability or r.decision != brute.decision:
                report.failures.append(
                    f"{label}: {r.algorithm} returned {r.best_probability}/{r.decision}, "
                    f"brute force returned {brute.best_probability}/{brute.decision}"
                )
            _check_witness(report, f"{label} {r.algorithm}", inst, r)
        probs = solve_fpt_prob_values(inst)
        if probs.decision != brute.decision:
            report.failures.append(
                f"{label}: fpt-probs decision {probs.decision} != brute {brute.decision}"
            )
        _check_witness(report, f"{label} fpt-probs", inst, probs)
        yes += brute.decision
    report.details["yes_rate"] = yes / count if count else 0.0
    return report


@_timed
def suite_normalization(count: int = 200, seed: int = 1) -> SuiteReport:
    """Normalizing vectors never changes the optimum at any budget 0..B.

    Frontiers are canonical, so comparing the two sweeps' frontiers compares
    every budget.
    """
    report = SuiteReport("normalization-equivalence", total=count)
    rng = generators.split_rng(seed, "norm-params")
    for idx in range(count):
        n = rng.randint(1, 6)
        budget = rng.randint(0, 20)
        inst = generators.gen_cbcct(seed, n, 3, budget, normalize=False, index=idx)
        inst = generators.make_nonmonotone(inst)
        if all(v.monotone for v in inst.bribe_vectors):
            report.failures.append(f"instance {idx}: not actually non-monotone")
            continue
        before = budget_sweep(inst).frontier()
        after = budget_sweep(normalize_instance(inst)).frontier()
        if before != after:
            # Below the first differing breakpoint the sweeps agree; at its budget they differ.
            i = next(i for i, (a, b) in enumerate(zip_longest(before, after)) if a != b)
            report.failures.append(
                f"instance {idx}: sweep changed under normalization (first diff at budget "
                f"{min(cost for cost, _ in before[i : i + 1] + after[i : i + 1])})"
            )
    return report


SCALE_VALUE_POOL = (0, 500, 1000, 2500, 6000)
SCALE_PROB_POOL = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@_timed
def suite_dp_scale(
    n: int = 1000,
    budget: int = 10**5,
    lmax: int = 4,
    seed: int = 2,
) -> SuiteReport:
    """One large DP solve; exactness spot-checked through the witness."""
    report = SuiteReport("dp-scale", total=1)
    inst = generators.gen_cbcct(
        seed, n, lmax, budget, SCALE_VALUE_POOL, SCALE_PROB_POOL, canonical=True
    )
    sweep = budget_sweep(inst)
    best = sweep.best_at()
    witness = sweep.witness()
    if best is None or witness is None:
        report.failures.append("scale instance unexpectedly infeasible")
        return report
    cost, prob = evaluate_plan(inst, witness)
    if prob != best:
        report.failures.append(f"witness probability {prob} != reported {best}")
    if cost > budget:
        report.failures.append(f"witness cost {cost} exceeds budget {budget}")
    smaller = sweep.best_at(budget // 2)
    if smaller is not None and smaller > best:
        report.failures.append("sweep is not monotone in the budget")
    report.details["digits"] = len(str(best.numerator))
    return report


@_timed
def suite_value_agreement(count: int = 8, seed: int = 8) -> SuiteReport:
    """Optimal values of both FPT routes against the DP sweep, past brute force.

    Scale-pool instances.  Every fourth one has n in 100..150 and B = 50n;
    the rest have n in 20..40, a threshold drawn at B = 1000n and a budget
    cut to a random B <= 200n, so both decisions occur.  On every instance
    the fpt-bribes optimum must equal `best_at(B)`.  On the small ones the
    fpt-probs witness must cost exactly `min_cost_for(threshold)`, the least
    b with best_at(b) >= threshold, and on a "no" no b <= B may reach it.
    """
    report = SuiteReport("value-agreement", total=count)
    rng = generators.split_rng(seed, "value-params")
    yes = no = 0
    for idx in range(count):
        large = idx % 4 == 0
        n = rng.randint(100, 150) if large else rng.randint(20, 40)
        inst = generators.gen_cbcct(
            seed, n, 4, (50 if large else 1000) * n, SCALE_VALUE_POOL, SCALE_PROB_POOL,
            canonical=True, index=idx,
        )
        if not large:
            inst = CbcctInstance(inst.bribe_vectors, rng.randint(0, 200 * n), inst.threshold)
        label = f"instance {idx} (n={n}, B={inst.budget})"
        sweep = budget_sweep(inst)
        bribes = solve_fpt_bribe_values(inst)
        if bribes.best_probability != sweep.best_at():
            report.failures.append(
                f"{label}: fpt-bribes optimum {bribes.best_probability} != dp {sweep.best_at()}"
            )
        _check_witness(report, f"{label} fpt-bribes", inst, bribes)
        if large:
            continue
        need = sweep.min_cost_for(inst.threshold)
        probs = solve_fpt_prob_values(inst)
        yes += probs.decision
        no += not probs.decision
        if probs.decision != (need is not None):
            report.failures.append(
                f"{label}: fpt-probs decision {probs.decision}, dp minimum budget {need}"
            )
        elif probs.decision:
            cost = evaluate_plan(inst, probs.witness).cost
            if cost != need:
                report.failures.append(f"{label}: fpt-probs witness costs {cost}, dp needs {need}")
        _check_witness(report, f"{label} fpt-probs", inst, probs)
    report.details["yes"] = yes
    report.details["no"] = no
    return report


def _fractional_submatrix(model: MilpModel) -> list[list[Fraction]]:
    frac = model.fractional_columns()
    rows = []
    for row in model.rows:
        coeffs = [row.coeffs[j] for j in frac]
        if any(isinstance(c, FormalLog) or c != 0 for c in coeffs):
            rows.append([Fraction(c) for c in coeffs])
    return rows


@_timed
def suite_milp_integrality(count: int = 100, seed: int = 3, tu_cap: int = 12) -> SuiteReport:
    """TU structure and integral optima on FPT model builds.

    `solve_milp`'s optimum must be all-integral as returned, and
    `integralize_solution` must hand it back unchanged at equal objective.
    """
    report = SuiteReport("milp-integrality", total=count)
    rng = generators.split_rng(seed, "milp-params")
    built = 0
    tu_checked = 0
    idx = 0
    while built < count:
        idx += 1
        n = rng.randint(1, 6)
        inst = generators.gen_cbcct(seed, n, 3, rng.randint(0, 20), index=idx)
        # Keep both models feasible: budget covers the cheapest plan, and the
        # threshold stays within the best reachable product (budget aside).
        min_cost = sum(v.entries[0].bribe for v in inst.bribe_vectors)
        reachable = Fraction(1)
        for v in inst.bribe_vectors:
            reachable *= max(v.probabilities())
        threshold = min(max(inst.threshold, Fraction(1, 64)), reachable)
        inst = CbcctInstance(inst.bribe_vectors, max(inst.budget, min_cost), threshold)
        for build in (build_bribe_value_milp, build_prob_value_milp):
            if built >= count:
                break
            built += 1
            label = f"build {built} ({build.__name__}, n={n})"
            model, _ = build(normalize_instance(inst))
            sub = _fractional_submatrix(model)
            if sub and len(sub) <= tu_cap and len(sub[0]) <= tu_cap:
                tu_checked += 1
                if not is_totally_unimodular(sub, cap=tu_cap):
                    report.failures.append(f"{label}: fractional submatrix is not TU")
            mixed = solve_milp(model)
            if mixed.status != OPTIMAL:
                report.failures.append(f"{label}: solve_milp returned {mixed.status}")
                continue
            if any(x.denominator != 1 for x in mixed.assignment):
                report.failures.append(f"{label}: solve_milp's optimum is not integral")
            integral = integralize_solution(model, mixed)
            if integral.assignment != mixed.assignment:
                report.failures.append(f"{label}: integralize_solution changed an integral optimum")
            if integral.objective_value != mixed.objective_value:
                report.failures.append(
                    f"{label}: integralized objective {integral.objective_value} "
                    f"!= mixed optimum {mixed.objective_value}"
                )
    report.total = built
    report.details["tu_checked"] = tu_checked
    return report


@_timed
def suite_ksum_chain(n_max: int = 6, magnitude: int = 3) -> SuiteReport:
    """Exhaustive k-sum -> shifted -> product knapsack -> multicolored knapsack.

    Covers every value multiset with n <= n_max, |s_i| <= magnitude, and
    k in {2, 3}; every decision depends only on the multiset, so this covers
    all instances in that range.  The k-sum legs must keep the decision;
    their mismatches on instances below the k >= 4 regime are reported but
    are not failures.  The pkp -> mpk leg must keep the decision and the
    optimal product on every instance.
    """
    from itertools import combinations_with_replacement

    report = SuiteReport("ksum-chain", total=0)
    precondition_mismatches: list[str] = []
    values = range(-magnitude, magnitude + 1)
    for n in range(1, n_max + 1):
        for k in (2, 3):
            if k > n:
                continue
            for combo in combinations_with_replacement(values, n):
                report.total += 1
                label = f"S={list(combo)}, k={k}"
                source = SmallKSumInstance(tuple(combo), k)
                shifted = shift_ksum(source)
                src = solve_small_ksum_bruteforce(source)
                mid = solve_small_ksum_bruteforce(shifted)
                if src.decision != mid.decision:
                    report.failures.append(f"{label}: shift changed the decision")
                    continue
                knapsack = ksum_to_pkp(shifted)
                pkp = solve_pkp_bruteforce(knapsack)
                if pkp.decision != mid.decision:
                    note = f"{label}: k-sum says {mid.decision}, knapsack says {pkp.decision}"
                    if chain_preconditions_met(shifted):
                        report.failures.append(note)
                    else:
                        precondition_mismatches.append(note)
                mpk = solve_mpk_bruteforce(pkp_to_mpk(knapsack))
                if (mpk.decision, mpk.best_product) != (pkp.decision, pkp.best_product):
                    report.failures.append(
                        f"{label}: knapsack says {pkp.decision} at {pkp.best_product}, "
                        f"multicolored knapsack says {mpk.decision} at {mpk.best_product}"
                    )
    report.details["precondition_mismatches"] = precondition_mismatches
    return report


@_timed
def suite_mpk_chain(count: int = 200, seed: int = 4) -> SuiteReport:
    """Multicolored knapsack -> challenge-the-champ decision preservation."""
    report = SuiteReport("mpk-chain", total=count)
    rng = generators.split_rng(seed, "mpk-params")
    for idx in range(count):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        inst = generators.gen_mpk(seed, sizes, index=idx)
        chain = verify_reduction(
            inst, mpk_to_cbcct(inst), solve_mpk_bruteforce, solve_bruteforce
        )
        if not chain.equivalent:
            report.failures.append(
                f"instance {idx} (classes {sizes}): knapsack says "
                f"{chain.source_decision}, tournament says {chain.target_decision}"
            )
        else:
            mpk = solve_mpk_bruteforce(inst)
            cbc = solve_bruteforce(mpk_to_cbcct(inst))
            if mpk.best_product is not None and cbc.best_probability is not None:
                if mpk.best_product != cbc.best_probability:
                    report.failures.append(
                        f"instance {idx}: optimal product {mpk.best_product} != "
                        f"optimal probability {cbc.best_probability}"
                    )
    return report


@_timed
def suite_cup_chain(count: int = 100, seed: int = 5, plan_equality_instances: int = 20) -> SuiteReport:
    """Challenge-the-champ -> cup decision preservation and per-plan equality."""
    report = SuiteReport("cup-chain", total=count)
    rng = generators.split_rng(seed, "cup-params")
    for idx in range(count):
        n = rng.randint(1, 3)
        inst = generators.gen_cbcct(seed, n, 3, rng.randint(0, 10), index=idx)
        image = cbcct_to_cup(inst)
        chain = verify_reduction(inst, image, solve_bruteforce, solve_cup_bruteforce)
        if not chain.equivalent:
            report.failures.append(
                f"instance {idx} (n={n}): tournament says {chain.source_decision}, "
                f"cup says {chain.target_decision}"
            )
            continue
        src = solve_bruteforce(inst)
        tgt = solve_cup_bruteforce(image)
        if (src.best_probability is None) != (tgt.best_probability is None):
            report.failures.append(f"instance {idx}: feasibility mismatch on image")
        elif src.best_probability is not None and src.best_probability != tgt.best_probability:
            report.failures.append(
                f"instance {idx}: best {src.best_probability} != cup best {tgt.best_probability}"
            )
        if idx < plan_equality_instances:
            from itertools import product as iter_product

            for choices in iter_product(*(range(1, len(v) + 1) for v in inst.bribe_vectors)):
                plan = BribePlan(choices)
                direct = evaluate_plan(inst, plan).win_probability
                via_cup = cup_win_probability(image, cup_choices_from_plan(plan))
                if direct != via_cup:
                    report.failures.append(
                        f"instance {idx} plan {choices}: direct {direct} != cup {via_cup}"
                    )
                    break
    return report


@_timed
def suite_lp_unit(draws: int = 1000, seed: int = 6) -> SuiteReport:
    """Worked LP/MILP examples plus the formal-log comparison law."""
    report = SuiteReport("lp-unit", total=0)

    def fr(x) -> Fraction:
        return Fraction(x)

    def check(label: str, ok: bool) -> None:
        report.total += 1
        if not ok:
            report.failures.append(label)

    # max x1+x2 s.t. x1<=2, x2<=3 -> 5 at (2, 3)
    m1 = MilpModel(
        (MilpVariable("x1"), MilpVariable("x2")),
        (
            MilpRow((fr(1), fr(0)), "<=", fr(2)),
            MilpRow((fr(0), fr(1)), "<=", fr(3)),
        ),
        MilpObjective((fr(1), fr(1)), "max"),
    )
    s1 = solve_lp_exact(m1)
    check("box LP", s1.status == OPTIMAL and s1.objective_value == 5 and s1.assignment == (2, 3))

    # max 2x1+x2 s.t. x1+x2<=4, x1<=3 -> 7 at (3, 1)
    m2 = MilpModel(
        (MilpVariable("x1"), MilpVariable("x2")),
        (
            MilpRow((fr(1), fr(1)), "<=", fr(4)),
            MilpRow((fr(1), fr(0)), "<=", fr(3)),
        ),
        MilpObjective((fr(2), fr(1)), "max"),
    )
    s2 = solve_lp_exact(m2)
    check("vertex LP", s2.status == OPTIMAL and s2.objective_value == 7 and s2.assignment == (3, 1))

    # max x1 s.t. x1 <= -1 -> infeasible with x >= 0
    m3 = MilpModel(
        (MilpVariable("x1"),),
        (MilpRow((fr(1),), "<=", fr(-1)),),
        MilpObjective((fr(1),), "max"),
    )
    check("infeasible LP", solve_lp_exact(m3).status == "infeasible")

    # max x s.t. 2x <= 3, x integer -> 1
    m4 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=5),),
        (MilpRow((fr(2),), "<=", fr(3)),),
        MilpObjective((fr(1),), "max"),
    )
    s4 = solve_milp(m4)
    check("floor MILP", s4.status == OPTIMAL and s4.assignment == (1,) and s4.objective_value == 1)

    # max x+y s.t. x+2y <= 4, x <= 1, x integer -> x=1, y=3/2
    m5 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=10), MilpVariable("y")),
        (
            MilpRow((fr(1), fr(2)), "<=", fr(4)),
            MilpRow((fr(1), fr(0)), "<=", fr(1)),
        ),
        MilpObjective((fr(1), fr(1)), "max"),
    )
    s5 = solve_milp(m5)
    check(
        "mixed MILP",
        s5.status == OPTIMAL
        and s5.assignment == (1, Fraction(3, 2))
        and s5.objective_value == Fraction(5, 2),
    )

    # x >= 1/3, x <= 2/3, x integer -> infeasible
    m6 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=5),),
        (
            MilpRow((fr(1),), ">=", Fraction(1, 3)),
            MilpRow((fr(1),), "<=", Fraction(2, 3)),
        ),
        MilpObjective((fr(1),), "max"),
    )
    check("integer-slice MILP", solve_milp(m6).status == "infeasible")

    # Formal-log comparison law against direct rational product comparison.
    rng = generators.split_rng(seed, "logs")
    bad = 0
    for _ in range(draws):
        base_count = rng.randint(1, 4)
        bases = [
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(base_count)
        ]
        k1 = [rng.randint(0, 6) for _ in range(base_count)]
        k2 = [rng.randint(0, 6) for _ in range(base_count)]
        lhs = LogSum.zero()
        rhs = LogSum.zero()
        p1 = Fraction(1)
        p2 = Fraction(1)
        for q, a, b in zip(bases, k1, k2):
            lhs = lhs + LogSum.of(q, a)
            rhs = rhs + LogSum.of(q, b)
            p1 *= q**a
            p2 *= q**b
        if (lhs.compare(rhs) >= 0) != (p1 >= p2):
            bad += 1
    report.total += draws
    if bad:
        report.failures.append(f"formal-log law failed on {bad}/{draws} draws")
    return report


@_timed
def suite_bracket_normalization(count: int = 100, seed: int = 7) -> SuiteReport:
    """Bracket win probabilities over all players sum to exactly 1."""
    report = SuiteReport("bracket-normalization", total=count)
    rng = generators.split_rng(seed, "bracket-params")
    for idx in range(count):
        rounds = rng.randint(1, 3)
        inst = generators.gen_cup(seed, rounds, index=idx)
        choices = {
            pair: rng.randint(1, len(vec)) for pair, vec in sorted(inst.pairwise.items())
        }
        dist = bracket_distribution(inst, choices)
        total = sum(dist.values(), Fraction(0))
        if total != 1:
            report.failures.append(f"instance {idx}: probabilities sum to {total}")
    return report


SUITES = {
    "solver-agreement": suite_solver_agreement,
    "normalization": suite_normalization,
    "dp-scale": suite_dp_scale,
    "milp-integrality": suite_milp_integrality,
    "value-agreement": suite_value_agreement,
    "ksum-chain": suite_ksum_chain,
    "mpk-chain": suite_mpk_chain,
    "cup-chain": suite_cup_chain,
    "lp-unit": suite_lp_unit,
    "bracket-normalization": suite_bracket_normalization,
}
