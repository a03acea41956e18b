"""Batch verification suites: cross-solver agreement and reduction equivalence.

Each suite runs a seeded batch, returns a `SuiteReport`, and is shared
verbatim by the command-line `verify` subcommand and the acceptance tests.
Failures carry human-readable descriptions of the offending instance.  Each
instance runs under `SuiteReport.instance`, so an error it raises, such as
a cap refusal, is that instance's failure and the suite goes on.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, zip_longest

from . import generators
from .core import BribePlan, CbcctInstance, evaluate_plan, normalize_instance
from .cup import bracket_distribution, cup_win_probability, solve_cup_bruteforce
from .dp import budget_sweep
from .errors import ChampBribeError
from .knapsack import (
    SmallKSumInstance,
    solve_mpk_bruteforce,
    solve_pkp_bruteforce,
    solve_small_ksum_bruteforce,
)
from .milp import (
    LogSum,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpVariable,
    OPTIMAL,
    integralize_solution,
    integrality_defect,
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
)
from .solvers import (
    SolveResult,
    build_bribe_value_milp,
    build_prob_value_milp,
    solve_bruteforce,
    solve_dp,
    solve_fpt_bribe_values,
    solve_fpt_prob_values,
)


@dataclass
class SuiteReport:
    """A suite's outcome.  `failures` holds every failure line, and `failed`
    the keys of the instances they name: one instance may fail several ways,
    so it is `failed` that `pass_count` subtracts."""

    name: str
    total: int = 0
    failures: list[str] = field(default_factory=list)
    failed: set = field(default_factory=set)
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

    def fail(self, key, message: str) -> None:
        """Record one failure line against the instance `key`."""
        self.failures.append(message)
        self.failed.add(key)

    @contextmanager
    def instance(self, label: str):
        """Run the checks of the instance `label`: a `ChampBribeError` they
        raise, such as a cap refusal, fails that instance and the suite
        goes on to the next."""
        try:
            yield
        except ChampBribeError as exc:
            self.fail(label, f"{label}: {type(exc).__name__}: {exc}")

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def pass_count(self) -> int:
        return self.total - len(self.failed)

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


def _check_witness(report, label, inst, result) -> int | None:
    """Check that `result` has a witness exactly when it reports a
    probability, and that the witness fits `inst`'s budget and is worth that
    probability.  Returns the witness's cost, None without one; failures
    count against `label`."""
    route = f"{label} {result.algorithm}"
    if result.witness is None:
        if result.best_probability is not None:
            report.fail(label, f"{route}: reports {result.best_probability} without a witness")
        return None
    cost, prob = evaluate_plan(inst, result.witness)
    if cost > inst.budget:
        report.fail(label, f"{route}: witness cost {cost} exceeds budget {inst.budget}")
    if prob != result.best_probability:
        report.fail(
            label, f"{route}: witness evaluates to {prob}, result claims {result.best_probability}"
        )
    return cost


# `_check_route`'s `need` when no DP ran: fpt-probs' least budget is unknown.
_NO_DP = object()


def _check_route(report, label, inst, result, best, need=_NO_DP) -> None:
    """Check one route's `result` on `inst` against the oracle optimum `best`
    at B (None when no plan fits); failures count against `label`.

    Every route but fpt-probs must report `best` and decide by it.  fpt-probs
    reports its cheapest plan that reaches the threshold, so it must decide
    as `best` does and, on a yes, report at most `best`.  Where the DP gives
    `need = min_cost_for(threshold)`, fpt-probs must also say yes exactly
    when `need` is not None, with a witness that costs exactly `need`.  Then
    the witness is checked.
    """
    route = f"{label} {result.algorithm}"
    prob, yes = result.best_probability, result.decision
    decision = best is not None and best >= inst.threshold
    if result.algorithm != "fpt-probs":
        wrong = (prob, yes) != (best, decision)
    else:
        wrong = yes != decision or yes and (prob is None or prob > best)
    if wrong:
        report.fail(
            label,
            f"{route}: says {yes} at {prob}, oracle optimum {best}, threshold {inst.threshold}",
        )
    cost = _check_witness(report, label, inst, result)
    if need is not _NO_DP and (yes != (need is not None) or yes and cost != need):
        report.fail(label, f"{route}: says {yes} at witness cost {cost}, dp minimum budget {need}")


def _check_same(report, label, source, image) -> None:
    """Compare two (name, decision, optimum) triples, such as a reduction's
    source and image: decisions and optima must be equal."""
    if source[1:] != image[1:]:
        (a, a_says, a_best), (b, b_says, b_best) = source, image
        report.fail(label, f"{label}: {a} says {a_says} at {a_best}, {b} says {b_says} at {b_best}")


def _check_integrality(report, key, label, model) -> None:
    """Run `integrality_defect` on `model`, counted in `details`; a defect
    fails the instance `key`."""
    report.details["integrality_checked"] = report.details.get("integrality_checked", 0) + 1
    defect = integrality_defect(model)
    if defect is not None:
        report.fail(key, f"{label}: {defect}")


# Every fifth agreement instance draws raw vectors from this pool, so the
# routes meet leading zeros, zero-only challengers and dominated entries.
ZERO_PROB_POOL = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@_timed
def suite_solver_agreement(count: int = 500, seed: int = 0) -> SuiteReport:
    """Brute force, DP, and both MILP routes agree on seeded random instances."""
    report = SuiteReport("solver-agreement", total=count)
    rng = generators.split_rng(seed, "agree-params")
    yes = decided = 0
    for idx in range(count):
        n = rng.randint(0, 6)
        budget = rng.randint(0, 20)
        raw = idx % 5 == 4
        label = f"instance {idx} (n={n}, B={budget})"
        with report.instance(label):
            inst = generators.gen_cbcct(
                seed, n, 3, budget, generators.DEFAULT_VALUE_POOL,
                ZERO_PROB_POOL if raw else generators.DEFAULT_PROB_POOL, normalize=not raw,
                index=idx,
            )
            brute = solve_bruteforce(inst)
            for route in (solve_dp, solve_fpt_bribe_values, solve_fpt_prob_values):
                _check_route(report, label, inst, route(inst), brute.best_probability)
            _check_route(report, label, inst, brute, brute.best_probability)
            yes += brute.decision
            decided += 1
    # An instance that raised has no decision, so the rate is over the others.
    report.details["yes_rate"] = yes / decided if decided else 0.0
    report.details["errored"] = count - decided
    report.details["zero_pool_instances"] = count // 5
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
        label = f"instance {idx}"
        with report.instance(label):
            inst = generators.gen_cbcct(seed, n, 3, budget, normalize=False, index=idx)
            inst = generators.make_nonmonotone(inst)
            if all(v.monotone for v in inst.bribe_vectors):
                report.fail(label, f"{label}: not actually non-monotone")
                continue
            before = budget_sweep(inst).frontier()
            after = budget_sweep(normalize_instance(inst)).frontier()
            if before != after:
                # Below the first differing breakpoint the sweeps agree; at its budget they differ.
                i = next(i for i, (a, b) in enumerate(zip_longest(before, after)) if a != b)
                report.fail(
                    label,
                    f"{label}: sweep changed under normalization (first diff at budget "
                    f"{min(cost for cost, _ in before[i : i + 1] + after[i : i + 1])})"
                )
    return report


SCALE_VALUE_POOL = (0, 500, 1000, 2500, 6000)
SCALE_PROB_POOL = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# The scale values moved off their common factor 500, so their gcd is 1.
GCD1_VALUE_POOL = (0, 499, 1000, 2501, 6007)


@_timed
def suite_dp_scale(
    n: int = 1000,
    budget: int = 10**5,
    lmax: int = 4,
    seed: int = 2,
) -> SuiteReport:
    """One large DP solve; exactness spot-checked through the witness."""
    report = SuiteReport("dp-scale", total=1)
    label = "scale instance"
    with report.instance(label):
        inst = generators.gen_cbcct(
            seed, n, lmax, budget, SCALE_VALUE_POOL, SCALE_PROB_POOL, canonical=True
        )
        sweep = budget_sweep(inst)
        best = sweep.best_at()
        if best is None:
            report.fail(label, f"{label} unexpectedly infeasible")
            return report
        dp = SolveResult(best, sweep.witness(), best >= inst.threshold, "dp")
        _check_witness(report, label, inst, dp)
        smaller = sweep.best_at(budget // 2)
        if smaller is not None and smaller > best:
            report.fail(label, "sweep is not monotone in the budget")
        report.details["digits"] = len(str(best.numerator))
    return report


# Prime-denominator pool: (q - 1 - (i mod 3)) / q over the first eight odd
# primes, so the challengers' denominators differ and exact ties are rare.
PRIME_PROB_POOL = tuple(
    Fraction(q - 1 - i % 3, q) for i, q in enumerate((3, 5, 7, 11, 13, 17, 19, 23))
)


def _value_instances(count: int, seed: int):
    """(label, instance, large) for suite_value_agreement, in draw order."""
    rng = generators.split_rng(seed, "value-params")
    for idx in range(count):
        large = idx % 4 == 0
        n = rng.randint(100, 150) if large else rng.randint(20, 40)
        inst = generators.gen_cbcct(
            seed, n, 4, (50 if large else 1000) * n, SCALE_VALUE_POOL, SCALE_PROB_POOL,
            canonical=True, index=idx,
        )
        if not large:
            inst = CbcctInstance(inst.bribe_vectors, rng.randint(0, 200 * n), inst.threshold)
        yield f"instance {idx} (n={n}, B={inst.budget})", inst, large
    rng = generators.split_rng(seed, "value-primes")
    for k in range(count // 4):
        n = rng.randint(20, 40)
        # Negative indices: generator streams that no scale-pool instance uses.
        inst = generators.gen_cbcct(
            seed, n, 4, 1000 * n, SCALE_VALUE_POOL, PRIME_PROB_POOL, canonical=True, index=-1 - k
        )
        inst = CbcctInstance(inst.bribe_vectors, rng.randint(0, 200 * n), inst.threshold)
        yield f"prime-pool instance {k} (n={n}, B={inst.budget})", inst, False
    rng = generators.split_rng(seed, "value-primes-large")
    for k in range(count // 8):
        n = rng.randint(100, 150)
        inst = generators.gen_cbcct(
            seed, n, 4, 1000 * n, SCALE_VALUE_POOL, PRIME_PROB_POOL, canonical=True,
            index=-1 - count // 4 - k,
        )
        yield f"large prime-pool instance {k} (n={n}, B={inst.budget})", inst, True


@_timed
def suite_value_agreement(count: int = 8, seed: int = 8) -> SuiteReport:
    """Optimal values of both FPT routes against the DP sweep, past brute force.

    `count` scale-pool instances.  Every fourth one has n in 100..150 and
    B = 50n; the rest have n in 20..40, a threshold drawn at B = 1000n and a
    budget cut to a random B <= 200n, so both decisions occur.  Then count // 4
    more small instances and count // 8 large ones (n in 100..150, B = 1000n),
    each from a stream of their own, take their probabilities from
    PRIME_PROB_POOL; the large ones load the DP with big numerators.  On every
    instance the fpt-bribes optimum must equal `best_at(B)`.  On the small ones
    the fpt-probs witness must cost exactly `min_cost_for(threshold)`, the
    least b with best_at(b) >= threshold, and on a "no" no b <= B may reach it.
    `details` reports the widest DP row (breakpoints) and the largest top-row
    numerator (bits) met.
    """
    report = SuiteReport("value-agreement", total=count + count // 4 + count // 8)
    yes = no = width = bits = 0
    for label, inst, large in _value_instances(count, seed):
        with report.instance(label):
            sweep = budget_sweep(inst)
            width = max(width, *(len(row.starts) for row in sweep._rows[1:]))
            bits = max(bits, sweep._top[-1].bit_length() if sweep._top else 0)
            best = sweep.best_at()
            _check_route(report, label, inst, solve_fpt_bribe_values(inst), best)
            if large:
                continue
            probs = solve_fpt_prob_values(inst)
            yes += probs.decision
            no += not probs.decision
            _check_route(report, label, inst, probs, best, sweep.min_cost_for(inst.threshold))
    report.details["yes"] = yes
    report.details["no"] = no
    report.details["prime_pool_instances"] = count // 4 + count // 8
    report.details["dp_row_width_max"] = width
    report.details["dp_numerator_bits_max"] = bits
    return report


@_timed
def suite_fpt_scale(count: int = 10, seed: int = 9) -> SuiteReport:
    """The two FPT routes as each other's oracle, at n in the thousands.

    Instances with n in 3000..10**4 and two budgets B and B' drawn up to
    100n, `count` over the scale pools and the same draws again over the
    gcd-1 value pool, on which the row gcd rule of `solve_milp` cannot
    shrink the budget row and fpt-bribes still branches deep.  The
    threshold t is the fpt-bribes optimum at B', a value on the frontier,
    so the fpt-probs decision at B falls on either side of it.  At B, both
    routes are checked by `_check_route` with the fpt-bribes optimum as the
    oracle.  Both models of each draw must pass `integrality_defect`, the
    bribe-value one before any solve.  No DP is run: at seed 9
    `budget_sweep` solves the ten scale-pool draws and six of the gcd-1
    ones, but refuses gcd-1 draws 1, 3, 6 and 9 at `CANDIDATE_CAP`.
    """
    report = SuiteReport("fpt-scale", total=2 * count)
    yes = no = 0
    for pool_name, values in (("scale", SCALE_VALUE_POOL), ("gcd-1", GCD1_VALUE_POOL)):
        rng = generators.split_rng(seed, "fpt-scale-params")
        for idx in range(count):
            n = rng.randint(3000, 10**4)
            budget, other = rng.randint(0, 100 * n), rng.randint(0, 100 * n)
            label = f"{pool_name} instance {idx} (n={n}, B={budget}, B'={other})"
            with report.instance(label):
                drawn = generators.gen_cbcct(
                    seed, n, 4, budget, values, SCALE_PROB_POOL, canonical=True, index=idx
                )
                vectors = drawn.bribe_vectors
                model = build_bribe_value_milp(normalize_instance(drawn))[0]
                _check_integrality(report, label, f"{label} build_bribe_value_milp", model)
                at_other = solve_fpt_bribe_values(CbcctInstance(vectors, other, Fraction(0)))
                inst = CbcctInstance(vectors, budget, at_other.best_probability)
                model = build_prob_value_milp(normalize_instance(inst))[0]
                _check_integrality(report, label, f"{label} build_prob_value_milp", model)
                bribes = solve_fpt_bribe_values(inst)
                probs = solve_fpt_prob_values(inst)
                for result in (bribes, probs):
                    _check_route(report, label, inst, result, bribes.best_probability)
                yes += probs.decision
                no += not probs.decision
    report.details["yes"] = yes
    report.details["no"] = no
    return report


@_timed
def suite_milp_integrality(count: int = 100, seed: int = 3) -> SuiteReport:
    """The integrality check and integral optima on FPT model builds.

    Every build must pass `integrality_defect`, `solve_milp`'s optimum must
    be all-integral as returned, and `integralize_solution` must hand it
    back unchanged at equal objective.
    """
    report = SuiteReport("milp-integrality", total=count)
    rng = generators.split_rng(seed, "milp-params")
    built = 0
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
            with report.instance(label):
                model, _ = build(normalize_instance(inst))
                _check_integrality(report, label, label, model)
                mixed = solve_milp(model)
                if mixed.status != OPTIMAL:
                    report.fail(label, f"{label}: solve_milp returned {mixed.status}")
                    continue
                if any(x.denominator != 1 for x in mixed.assignment):
                    report.fail(label, f"{label}: solve_milp's optimum is not integral")
                integral = integralize_solution(model, mixed)
                if integral.assignment != mixed.assignment:
                    report.fail(label, f"{label}: integralize_solution changed an integral optimum")
                if integral.objective_value != mixed.objective_value:
                    report.fail(
                        label,
                        f"{label}: integralized objective {integral.objective_value} "
                        f"!= mixed optimum {mixed.objective_value}"
                    )
    report.total = built
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
                with report.instance(label):
                    source = SmallKSumInstance(tuple(combo), k)
                    shifted = shift_ksum(source)
                    src = solve_small_ksum_bruteforce(source)
                    mid = solve_small_ksum_bruteforce(shifted)
                    if src.decision != mid.decision:
                        report.fail(label, f"{label}: shift changed the decision")
                        continue
                    knapsack = ksum_to_pkp(shifted)
                    pkp = solve_pkp_bruteforce(knapsack)
                    if pkp.decision != mid.decision:
                        note = f"{label}: k-sum says {mid.decision}, knapsack says {pkp.decision}"
                        if chain_preconditions_met(shifted):
                            report.fail(label, note)
                        else:
                            precondition_mismatches.append(note)
                    mpk = solve_mpk_bruteforce(pkp_to_mpk(knapsack))
                    _check_same(
                        report, label, ("knapsack", pkp.decision, pkp.best_product),
                        ("multicolored knapsack", mpk.decision, mpk.best_product),
                    )
    report.details["precondition_mismatches"] = precondition_mismatches
    return report


@_timed
def suite_mpk_chain(count: int = 200, seed: int = 4) -> SuiteReport:
    """Multicolored knapsack -> challenge-the-champ: the decision and the
    optimum (None when nothing is affordable) must carry over."""
    report = SuiteReport("mpk-chain", total=count)
    rng = generators.split_rng(seed, "mpk-params")
    for idx in range(count):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        label = f"instance {idx} (classes {sizes})"
        with report.instance(label):
            inst = generators.gen_mpk(seed, sizes, index=idx)
            mpk = solve_mpk_bruteforce(inst)
            cbc = solve_bruteforce(mpk_to_cbcct(inst))
            _check_same(
                report, label, ("knapsack", mpk.decision, mpk.best_product),
                ("tournament", cbc.decision, cbc.best_probability),
            )
    return report


PLAN_EQUALITY_INSTANCES = 20


@_timed
def suite_cup_chain(count: int = 100, seed: int = 5) -> SuiteReport:
    """Challenge-the-champ -> cup: the decision and the optimum (None when
    nothing is affordable) must carry over, and on the first
    `PLAN_EQUALITY_INSTANCES` images so must every plan's win probability."""
    report = SuiteReport("cup-chain", total=count)
    rng = generators.split_rng(seed, "cup-params")
    for idx in range(count):
        n = rng.randint(1, 3)
        budget = rng.randint(0, 10)
        label = f"instance {idx} (n={n})"
        with report.instance(label):
            inst = generators.gen_cbcct(seed, n, 3, budget, index=idx)
            image = cbcct_to_cup(inst)
            src = solve_bruteforce(inst)
            tgt = solve_cup_bruteforce(image)
            _check_same(
                report, label, ("tournament", src.decision, src.best_probability),
                ("cup", tgt.decision, tgt.best_probability),
            )
            if idx < PLAN_EQUALITY_INSTANCES:
                for choices in product(*(range(1, len(v) + 1) for v in inst.bribe_vectors)):
                    plan = BribePlan(choices)
                    direct = evaluate_plan(inst, plan).win_probability
                    via_cup = cup_win_probability(image, cup_choices_from_plan(plan))
                    if direct != via_cup:
                        report.fail(
                            label,
                            f"instance {idx} plan {choices}: direct {direct} != cup {via_cup}"
                        )
                        break
    return report


# Seeded pure-integer models that `suite_lp_unit` checks by lattice enumeration.
LP_UNIT_MODELS = 200


def _draw_bounded_milp(rng) -> MilpModel:
    """2-3 integer columns with upper bounds 0-4 and 1-3 rows of small rationals."""
    width = rng.randint(2, 3)

    def coeffs():
        return {j: Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for j in range(width)}

    variables = [MilpVariable(f"x{j}", True, rng.randint(0, 4)) for j in range(width)]
    rows = [
        MilpRow(coeffs(), rng.choice(("<=", "<=", ">=", "==")), Fraction(rng.randint(-4, 16), 2))
        for _ in range(rng.randint(1, 3))
    ]
    return MilpModel(variables, rows, MilpObjective(coeffs(), rng.choice(("max", "min"))))


def _lattice_point_value(model: MilpModel, x) -> Fraction | None:
    """The objective at the integer point x within the bounds; None if x is infeasible."""
    if any(xj.denominator != 1 or not 0 <= xj <= v.upper for xj, v in zip(x, model.variables)):
        return None
    for row in model.rows:
        lhs = Fraction(sum(c * x[j] for j, c in row.coeffs.items()))
        if not {"<=": lhs <= row.rhs, "==": lhs == row.rhs, ">=": lhs >= row.rhs}[row.relation]:
            return None
    return Fraction(sum(c * x[j] for j, c in model.objective.coeffs.items()))


def _lattice_optimum(model: MilpModel) -> Fraction | None:
    """Best objective over every integer point in the bounding box; None if none is feasible."""
    values = [
        value
        for x in product(*(range(v.upper + 1) for v in model.variables))
        if (value := _lattice_point_value(model, x)) is not None
    ]
    if not values:
        return None
    return max(values) if model.objective.sense == "max" else min(values)


@_timed
def suite_lp_unit(draws: int = 1000, seed: int = 6) -> SuiteReport:
    """Worked LP/MILP examples, seeded bounded integer models against lattice
    enumeration, and the formal-log comparison law."""
    report = SuiteReport("lp-unit")

    # max x1+x2 s.t. x1<=2, x2<=3 -> 5 at (2, 3)
    m1 = MilpModel(
        (MilpVariable("x1"), MilpVariable("x2")),
        (MilpRow({0: 1}, "<=", 2), MilpRow({1: 1}, "<=", 3)),
        MilpObjective({0: 1, 1: 1}, "max"),
    )

    # max 2x1+x2 s.t. x1+x2<=4, x1<=3 -> 7 at (3, 1)
    m2 = MilpModel(
        (MilpVariable("x1"), MilpVariable("x2")),
        (MilpRow({0: 1, 1: 1}, "<=", 4), MilpRow({0: 1}, "<=", 3)),
        MilpObjective({0: 2, 1: 1}, "max"),
    )

    # max x1 s.t. x1 <= -1 -> infeasible with x >= 0
    m3 = MilpModel(
        (MilpVariable("x1"),),
        (MilpRow({0: 1}, "<=", -1),),
        MilpObjective({0: 1}, "max"),
    )

    # max x s.t. 2x <= 3, x integer -> 1
    m4 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=5),),
        (MilpRow({0: 2}, "<=", 3),),
        MilpObjective({0: 1}, "max"),
    )

    # max x+y s.t. x+2y <= 4, x <= 1, x integer -> x=1, y=3/2
    m5 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=10), MilpVariable("y")),
        (MilpRow({0: 1, 1: 2}, "<=", 4), MilpRow({0: 1}, "<=", 1)),
        MilpObjective({0: 1, 1: 1}, "max"),
    )

    # x >= 1/3, x <= 2/3, x integer -> infeasible
    m6 = MilpModel(
        (MilpVariable("x", is_integer=True, upper=5),),
        (MilpRow({0: 1}, ">=", Fraction(1, 3)), MilpRow({0: 1}, "<=", Fraction(2, 3))),
        MilpObjective({0: 1}, "max"),
    )
    worked = [  # (label, solver, model, (status, assignment, objective value))
        ("box LP", solve_lp_exact, m1, (OPTIMAL, (2, 3), 5)),
        ("vertex LP", solve_lp_exact, m2, (OPTIMAL, (3, 1), 7)),
        ("infeasible LP", solve_lp_exact, m3, ("infeasible", None, None)),
        ("floor MILP", solve_milp, m4, (OPTIMAL, (1,), 1)),
        ("mixed MILP", solve_milp, m5, (OPTIMAL, (1, Fraction(3, 2)), Fraction(5, 2))),
        ("integer-slice MILP", solve_milp, m6, ("infeasible", None, None)),
    ]
    report.total = len(worked) + LP_UNIT_MODELS + draws
    for label, solve, model, expected in worked:
        with report.instance(label):
            s = solve(model)
            if (s.status, s.assignment, s.objective_value) != expected:
                report.fail(label, label)

    # Seeded bounded integer models: the status and optimum must match
    # enumeration, and the reported point must be a feasible lattice point.
    rng = generators.split_rng(seed, "lp-unit-models")
    statuses: dict[str, int] = {}
    for idx in range(LP_UNIT_MODELS):
        model = _draw_bounded_milp(rng)
        label = f"seeded model {idx}"
        with report.instance(label):
            best = _lattice_optimum(model)
            sol = solve_milp(model)
            statuses[sol.status] = statuses.get(sol.status, 0) + 1
            if best is None:
                ok = sol.status == "infeasible"
            else:
                ok = (
                    sol.status == OPTIMAL
                    and sol.objective_value == best
                    and _lattice_point_value(model, sol.assignment) == best
                )
            if not ok:
                report.fail(
                    label,
                    f"{label}: {sol.status} {sol.objective_value} at {sol.assignment}, "
                    f"enumeration {best}",
                )
    report.details["seeded_models"] = statuses

    # Formal-log comparison law against direct rational product comparison.
    rng = generators.split_rng(seed, "logs")
    for draw in range(draws):
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
            report.fail(draw, f"formal-log law failed on draw {draw}: {bases} to {k1} and {k2}")
    return report


@_timed
def suite_bracket_normalization(count: int = 100, seed: int = 7) -> SuiteReport:
    """Bracket win probabilities over all players sum to exactly 1."""
    report = SuiteReport("bracket-normalization", total=count)
    rng = generators.split_rng(seed, "bracket-params")
    for idx in range(count):
        rounds = rng.randint(1, 3)
        label = f"instance {idx}"
        with report.instance(label):
            inst = generators.gen_cup(seed, rounds, index=idx)
            choices = {
                pair: rng.randint(1, len(vec)) for pair, vec in sorted(inst.pairwise.items())
            }
            dist = bracket_distribution(inst, choices)
            total = sum(dist.values(), Fraction(0))
            if total != 1:
                report.fail(label, f"{label}: probabilities sum to {total}")
    return report


SUITES = {
    "solver-agreement": suite_solver_agreement,
    "normalization": suite_normalization,
    "dp-scale": suite_dp_scale,
    "milp-integrality": suite_milp_integrality,
    "value-agreement": suite_value_agreement,
    "fpt-scale": suite_fpt_scale,
    "ksum-chain": suite_ksum_chain,
    "mpk-chain": suite_mpk_chain,
    "cup-chain": suite_cup_chain,
    "lp-unit": suite_lp_unit,
    "bracket-normalization": suite_bracket_normalization,
}
