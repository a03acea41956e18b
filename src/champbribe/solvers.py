"""CBCCT solvers: exhaustive oracle, budget DP, and two MILP-based routes.

All four return a `SolveResult` whose witness (when present) costs at most
the budget and evaluates exactly to the reported probability.  Every player
selects exactly one entry of its bribe vector; if even the cheapest entries
exceed the budget there is no plan at all, which every solver reports as a
"no" with no witness.

The MILP routes group challengers by (probability profile, bribe-value set):
under monotone vectors two players sharing both have identical vectors, so a
solution only needs to say how many players of each group are bribed with
each value.  The two routes share one model builder and one solve routine,
oriented either way: the bribe-value model counts bribes per (value, value
set) and maximizes the formal-log win probability under the budget; the
probability-value model counts them per (probability, profile) and
minimizes the budget needed to reach the threshold.

The optimum is integral by construction.  The branch-and-bound incumbent is
a vertex of its node LP, and its integer columns are integral.  Fixing them
leaves a vertex of the block over the per-group columns, a 0-1 matrix with
exactly two ones per column (one linking row, one group-size row), hence
totally unimodular, with an integral right-hand side (the fixed integer
counts on the linking rows, the group sizes on the others).  So that
vertex, and with it the whole incumbent, is integral, and
`milp.integralize_solution` hands it back unchanged; it re-solves an LP
only for a mixed optimum that is not a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from . import dp
from .core import (
    BribePlan,
    BribeVector,
    CbcctInstance,
    evaluate_plan,
    normalize_instance,
)
from .errors import CapExceededError, ModelError, SolverError
from .milp import (
    FormalLog,
    INFEASIBLE,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpVariable,
    OPTIMAL,
    integralize_solution,
    solve_milp,
)

ProbabilityProfile = tuple[Fraction, ...]
BribeValueSet = tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    best_probability: Fraction | None
    witness: BribePlan | None
    decision: bool
    algorithm: str


def probability_profile(v: BribeVector) -> ProbabilityProfile:
    """The set of probability values of a vector, as a sorted tuple."""
    return tuple(sorted(set(v.probabilities())))


def bribe_value_set(v: BribeVector) -> BribeValueSet:
    return tuple(sorted(set(v.bribe_values())))


def _min_cost(inst: CbcctInstance) -> int:
    return sum(v.entries[0].bribe for v in inst.bribe_vectors)


def _first_entries_plan(inst: CbcctInstance) -> BribePlan:
    return BribePlan((1,) * inst.num_challengers)


def _result(inst: CbcctInstance, plan: BribePlan | None, algorithm: str) -> SolveResult:
    if plan is None:
        return SolveResult(None, None, False, algorithm)
    _, prob = evaluate_plan(inst, plan)
    return SolveResult(prob, plan, prob >= inst.threshold, algorithm)


def solve_bruteforce(inst: CbcctInstance, plan_cap: int = 10**7) -> SolveResult:
    """Enumerate every plan; ties go to the lexicographically smallest one."""
    total = 1
    for v in inst.bribe_vectors:
        total *= len(v)
    if total > plan_cap:
        raise CapExceededError(f"{total} plans exceed the brute-force cap of {plan_cap}")
    best: Fraction | None = None
    best_plan: BribePlan | None = None
    for choices in iter_product(*(range(1, len(v) + 1) for v in inst.bribe_vectors)):
        plan = BribePlan(choices)
        cost, prob = evaluate_plan(inst, plan)
        if cost <= inst.budget and (best is None or prob > best):
            best = prob
            best_plan = plan
    if best is None:
        return SolveResult(None, None, False, "brute")
    return SolveResult(best, best_plan, best >= inst.threshold, "brute")


def solve_dp(inst: CbcctInstance) -> SolveResult:
    """Budget DP; exact agreement with `solve_bruteforce` including witnesses."""
    sweep = dp.budget_sweep(inst)
    best = sweep.best_at()
    if best is None:
        return SolveResult(None, None, False, "dp")
    return SolveResult(best, sweep.witness(), best >= inst.threshold, "dp")


# -- the FPT models ----------------------------------------------------------------


@dataclass(frozen=True)
class VariableMap:
    """Column bookkeeping for the FPT models.

    int_cols maps each counting variable's key to its column; frac_cols maps
    each (profile, value, value set) per-group variable to its column.
    group_players lists the challenger indices (input order) of each
    (profile, value set) group.
    """

    int_cols: dict
    frac_cols: dict
    group_players: dict
    num_int: int


def _grouping(inst: CbcctInstance) -> dict[tuple[ProbabilityProfile, BribeValueSet], list[int]]:
    """Challenger indices of each realized (profile, value set) group, sorted by key."""
    groups: dict[tuple[ProbabilityProfile, BribeValueSet], list[int]] = {}
    for idx, v in enumerate(inst.bribe_vectors):
        if not v.monotone:
            raise ModelError(f"challenger {idx + 1} has a non-monotone bribe vector")
        groups.setdefault((probability_profile(v), bribe_value_set(v)), []).append(idx)
    return dict(sorted(groups.items()))


def _check_positive_probabilities(inst: CbcctInstance) -> None:
    for idx, v in enumerate(inst.bribe_vectors):
        if any(e.losing_probability == 0 for e in v.entries):
            raise ModelError(
                f"challenger {idx + 1} has a zero probability entry; "
                "log-domain models need positive probabilities"
            )


def _build_fpt_milp(inst: CbcctInstance, by_value: bool) -> tuple[MilpModel, VariableMap]:
    """The FPT model in either orientation.

    Per-group variables y[P, v', V'] count the players of each (profile P,
    value set V') group bribed with value v' (probability p(P, v', V'), the
    matching entry of the sorted profile, since monotone vectors align sorted
    values with sorted probabilities).  Integer variables sum them over the
    groups sharing a value set (by_value: one per (value, value set)) or a
    profile (otherwise: one per (probability, profile)).  The head row is
    the budget row over integer columns (by_value) or the formal-log
    threshold row; the objective maximizes the formal-log win probability
    (by_value) or minimizes the spent budget.  Rows are ordered so that
    everything touching the per-group columns forms the tail block: head
    row, then the linking rows, then the group-size rows.
    """
    _check_positive_probabilities(inst)
    if not by_value and inst.threshold == 0:
        raise ModelError("threshold 0 is trivially satisfiable; no model to build")
    groups = _grouping(inst)
    side = 1 if by_value else 0  # the half of a group key the integer columns count over
    n = inst.num_challengers

    variables: list[MilpVariable] = []
    int_cols: dict = {}
    for counted in sorted({key[side] for key in groups}):
        for item in counted:
            int_cols[(item, counted)] = len(variables)
            variables.append(
                MilpVariable(f"x[{item},{set(counted)}]", is_integer=True, upper=n)
            )
    objective: list = [Fraction(0)] * len(variables)
    frac_cols: dict = {}
    linked: dict = {key: [] for key in int_cols}
    for prof, vs in groups:
        for prob, value in zip(prof, vs):
            linked[(value, vs) if by_value else (prob, prof)].append(len(variables))
            frac_cols[(prof, value, vs)] = len(variables)
            variables.append(MilpVariable(f"y[{set(prof)},{value},{set(vs)}]"))
            objective.append(FormalLog(prob) if by_value else Fraction(value))
    total = len(variables)

    def row(terms, relation: str, rhs) -> MilpRow:
        coeffs: list = [Fraction(0)] * total
        for col, coeff in terms:
            coeffs[col] = coeff
        return MilpRow(tuple(coeffs), relation, rhs)

    if by_value:
        head = [(col, Fraction(value)) for (value, _), col in int_cols.items()]
        rows = [row(head, "<=", Fraction(inst.budget))]
    else:
        head = [(col, FormalLog(prob)) for (prob, _), col in int_cols.items()]
        rows = [row(head, ">=", FormalLog(inst.threshold))]
    for key, col in int_cols.items():
        terms = [(col, Fraction(-1))] + [(c, Fraction(1)) for c in linked[key]]
        rows.append(row(terms, "==", Fraction(0)))
    for (prof, vs), players in groups.items():
        terms = [(frac_cols[(prof, value, vs)], Fraction(1)) for value in vs]
        rows.append(row(terms, "==", Fraction(len(players))))

    sense = "max" if by_value else "min"
    model = MilpModel(tuple(variables), tuple(rows), MilpObjective(tuple(objective), sense))
    return model, VariableMap(int_cols, frac_cols, groups, len(int_cols))


def build_bribe_value_milp(inst: CbcctInstance) -> tuple[MilpModel, VariableMap]:
    """FPT model parameterized by the number of distinct bribe values.

    Integer variables count bribes per (value, value set); the model
    maximizes the formal-log win probability under the budget.
    """
    return _build_fpt_milp(inst, by_value=True)


def build_prob_value_milp(inst: CbcctInstance) -> tuple[MilpModel, VariableMap]:
    """FPT model parameterized by the number of distinct probability values.

    Integer variables count bribes per (probability, profile); budget and
    threshold swap roles relative to `build_bribe_value_milp`, so the model
    minimizes the spent budget subject to a formal-log threshold row.
    """
    return _build_fpt_milp(inst, by_value=False)


# -- solving and witness extraction ----------------------------------------------


def _drop_zero_entries(inst: CbcctInstance) -> CbcctInstance | None:
    """Instance restricted to positive-probability entries; None if a vector empties."""
    vectors = []
    for v in inst.bribe_vectors:
        kept = tuple(e for e in v.entries if e.losing_probability > 0)
        if not kept:
            return None
        vectors.append(BribeVector(kept))
    return CbcctInstance(tuple(vectors), inst.budget, inst.threshold)


def _plan_from_assignment(inst: CbcctInstance, vmap: VariableMap, assignment) -> BribePlan:
    """Assemble a plan from the integral per-group counts.

    Within a group, ascending bribe values are assigned to players in input
    order (group members are interchangeable).  Entry indices are then looked
    up in the original vectors by (bribe, probability), which is unique per
    vector.  Raises `SolverError` if a count is negative or not integral, or
    if a group's counts do not add up to its players.
    """
    bought: dict = {key: [] for key in vmap.group_players}
    for (prof, value, vs), col in vmap.frac_cols.items():
        count = assignment[col]
        if count.denominator != 1 or count < 0:
            raise SolverError(f"per-group count {count} in column {col} is not a count")
        bought[(prof, vs)] += [(value, prof[vs.index(value)])] * int(count)
    choices = [0] * inst.num_challengers
    for key, players in vmap.group_players.items():
        if len(bought[key]) != len(players):
            raise SolverError(
                f"per-group counts cover {len(bought[key])} of the {len(players)} players of a group"
            )
        for player, (value, prob) in zip(players, sorted(bought[key])):
            choices[player] = next(
                j
                for j, e in enumerate(inst.bribe_vectors[player].entries, start=1)
                if e.bribe == value and e.losing_probability == prob
            )
    return BribePlan(tuple(choices))


def _solve_fpt(inst: CbcctInstance, by_value: bool) -> SolveResult:
    """Normalize, restrict to positive probabilities, solve, integralize, extract."""
    algorithm = "fpt-bribes" if by_value else "fpt-probs"
    if inst.num_challengers == 0:
        return _result(inst, BribePlan(()), algorithm)
    no = SolveResult(None, None, False, algorithm)
    if _min_cost(inst) > inst.budget:
        return no
    if not by_value and inst.threshold == 0:
        return _result(inst, _first_entries_plan(inst), algorithm)
    restricted = _drop_zero_entries(normalize_instance(inst))
    if restricted is not None:
        # Through the public builders: perfbench/tracing.py times them by name.
        build = build_bribe_value_milp if by_value else build_prob_value_milp
        model, vmap = build(restricted)
        solution = solve_milp(model)
    if restricted is None or solution.status == INFEASIBLE:
        # No all-positive plan exists within the budget, so every feasible plan
        # wins with probability 0: below the probability route's threshold,
        # which is positive here.
        return _result(inst, _first_entries_plan(inst), algorithm) if by_value else no
    if solution.status != OPTIMAL:
        raise SolverError(f"{algorithm} MILP ended with status {solution.status}")
    if not by_value and solution.objective_value > inst.budget:
        return no
    # The incumbent is integral already (module docstring), so this returns it
    # as it is; perfbench/tracing.py still times the call by name.
    integral = integralize_solution(model, solution)
    return _result(inst, _plan_from_assignment(inst, vmap, integral.assignment), algorithm)


def solve_fpt_bribe_values(inst: CbcctInstance) -> SolveResult:
    """MILP route whose integer-variable count depends on distinct bribe values."""
    return _solve_fpt(inst, by_value=True)


def solve_fpt_prob_values(inst: CbcctInstance) -> SolveResult:
    """MILP route whose integer-variable count depends on distinct probabilities.

    Minimizes the budget needed to reach the threshold; the decision compares
    that minimum against the available budget.  On a yes, the witness is the
    extracted cheapest plan (its probability, which is at least the
    threshold, is reported); on a no, no probability is reported.
    """
    return _solve_fpt(inst, by_value=False)
