"""CBCCT solvers: exhaustive oracle, budget DP, and two MILP-based routes.

All four return a `SolveResult` whose witness (when present) costs at most
the budget and evaluates exactly to the reported probability.  Every player
selects exactly one entry of its bribe vector; if even the cheapest entries
exceed the budget there is no plan at all, which every solver reports as a
"no" with no witness.

The MILP routes group challengers by (probability profile, bribe-value set).
A monotone vector lists both in ascending order, so its group key is the
pair of its probability and price tuples.  An entry of probability 0 has
no log, so the models never buy it: the grouping leaves it out of the key
(a monotone vector can hold one only as its first entry), and two players
share a group iff their positive entries are equal.  When a challenger has no
positive entry, or no plan of positive entries fits the budget, every plan
is worth 0; `fpt-bribes` then answers with the all-first plan and
`fpt-probs` with "no".  A solution only needs to say how many players of
each group are bribed with each value.  The two routes share one
model builder, one column layout and one solve routine, oriented either
way: the bribe-value model counts bribes per (value, value set) and
maximizes the formal-log win probability under the budget; the
probability-value model counts them per (probability, profile) and
minimizes the budget needed to reach the threshold.  The witness is read
back from the per-group columns, which follow the integer columns group by
group, and each count's price names the entry it buys.

The integer columns that share a bribe value (value 0 left out) or a
probability differ only in the value set or profile they count over, so
the LP can move a fractional split from one to another at equal cost.
Each such set is one of the model's `branch_groups`, and `solve_milp`
splits a group's sum before any single column, which closes those
symmetric subtrees (orbital branching).

The optimum is integral by construction.  The branch-and-bound incumbent is
a vertex of its node LP, and its integer columns are integral.  Fixing them
leaves a vertex of the block over the per-group columns, a 0-1 matrix with
exactly two ones per column (one linking row, one group-size row), hence
totally unimodular, with an integral right-hand side (the fixed integer
counts on the linking rows, the group sizes on the others).  So that
vertex, and with it the whole incumbent, is integral, and
`milp.integralize_solution` hands it back unchanged; it re-solves an LP
only for a mixed optimum that is not a vertex.  `milp.integrality_defect`
checks this structure in linear time, on every model that the
`milp-integrality` and `fpt-scale` suites build.

Two presolve rules of `solve_milp` act on these models.  The budget row of
the bribe-value model lies on integer columns with int coefficients, so it
is divided by the gcd of the bribe values and its rhs rounded down (by 500
on the scale pool).  The probability-value model minimizes an int cost,
and the structure above passes `integrality_defect`, so every integral
vertex costs a multiple of the prices' gcd and branch and bound prunes a
node that cannot beat the incumbent by that step; there the check runs on
the solve path, at most once per solve.  The formal-log objective of the
bribe-value model never has a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from . import dp
from .core import (
    BribePlan,
    CbcctInstance,
    evaluate_plan,
    map_distinct,
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

# A monotone vector's positive (probabilities, prices), both strictly increasing.
GroupKey = tuple[tuple[Fraction, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SolveResult:
    best_probability: Fraction | None
    witness: BribePlan | None
    decision: bool
    algorithm: str


def _min_cost(inst: CbcctInstance) -> int:
    return sum(v.entries[0].bribe for v in inst.bribe_vectors)


def _first_entries_plan(inst: CbcctInstance) -> BribePlan:
    return BribePlan((1,) * inst.num_challengers)


def _result(inst: CbcctInstance, plan: BribePlan, algorithm: str) -> SolveResult:
    _, prob = evaluate_plan(inst, plan)
    return SolveResult(prob, plan, prob >= inst.threshold, algorithm)


PLAN_CAP = 10**7  # most plans `solve_bruteforce` enumerates


def solve_bruteforce(inst: CbcctInstance) -> SolveResult:
    """Enumerate at most `PLAN_CAP` plans; ties go to the lexicographically smallest one."""
    total = 1
    for v in inst.bribe_vectors:
        total *= len(v)
    if total > PLAN_CAP:
        raise CapExceededError(f"{total} plans exceed the brute-force cap of {PLAN_CAP}")
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
    """Column layout of an FPT model.

    group_players maps each group key (probabilities, prices) to its
    challenger indices in input order, groups in sorted key order.  Columns
    0 .. num_int - 1 are the integer counting columns.  The per-group
    columns follow them, group by group in the order of group_players, one
    per entry of the group's vectors in ascending price.
    """

    group_players: dict[GroupKey, list[int]]
    num_int: int


def _grouping(inst: CbcctInstance) -> dict[GroupKey, list[int]]:
    """Challenger indices of each realized group, sorted by key.

    Each distinct vector object is checked and keyed once.  A zero-probability
    entry has no log, so it is left out of the key and with it out of the
    model's columns; a monotone vector can hold one only as its first entry.
    Raises `ModelError` on a vector that is not monotone or that has no
    positive entry.
    """
    groups: dict = {}
    members: dict = {}  # id(vector) -> its group's player list
    for idx, v in enumerate(inst.bribe_vectors):
        players = members.get(id(v))
        if players is None:
            if not v.monotone:
                raise ModelError(f"challenger {idx + 1} has a non-monotone bribe vector")
            probs, values = v.probabilities(), v.bribe_values()
            if not probs[0]:
                probs, values = probs[1:], values[1:]
            if not probs:
                raise ModelError(
                    f"challenger {idx + 1} has no positive probability entry; "
                    "log-domain models need one"
                )
            # The key is looked up by its probabilities' exact int ratios, which
            # hash far faster than Fractions.
            ratios = tuple(map(Fraction.as_integer_ratio, probs))
            players = members[id(v)] = groups.setdefault((ratios, values), ((probs, values), []))[1]
        players.append(idx)
    return dict(sorted(groups.values()))


def _set_name(items) -> str:
    """A sorted profile or value set as ``{a, b/c, ...}``, for variable names."""
    return "{" + ", ".join(map(str, items)) + "}"


def _build_fpt_milp(inst: CbcctInstance, by_value: bool) -> tuple[MilpModel, VariableMap]:
    """The FPT model in either orientation.

    Per-group variables y[P, v', V'] count the players of each (profile P,
    value set V') group bribed with value v' (probability p(P, v', V'), the
    matching entry of the sorted profile, since monotone vectors align sorted
    values with sorted probabilities).  Integer variables sum them over the
    groups sharing a value set (by_value: one per (value, value set)) or a
    profile (otherwise: one per (probability, profile)).  The per-group
    columns follow the integer columns in the layout of `VariableMap`.  The
    head row is the budget row over integer columns (by_value) or the
    formal-log threshold row; the objective maximizes the formal-log win
    probability (by_value) or minimizes the spent budget.  Rows are ordered
    so that everything touching the per-group columns forms the tail block:
    head row, then the linking rows, then the group-size rows.

    The integer columns that share a value (by_value, value 0 left out) or a
    probability are interchangeable up to their sets, so each such set of
    two or more is a branch group of the model, lowest column first.
    """
    if not by_value and inst.threshold == 0:
        raise ModelError("threshold 0 is trivially satisfiable; no model to build")
    groups = _grouping(inst)
    n = inst.num_challengers

    # Small int ids for the distinct profiles (the groups come sorted by
    # profile, so equal ones are adjacent) and value sets, in sorted order.
    profiles: list = []
    group_ids = []
    value_sets = sorted({vs for _, vs in groups})
    vs_id = {vs: i for i, vs in enumerate(value_sets)}
    for prof, vs in groups:
        if not profiles or profiles[-1] != prof:
            profiles.append(prof)
        group_ids.append((len(profiles) - 1, vs_id[vs]))
    prof_names = list(map(_set_name, profiles))
    vs_names = list(map(_set_name, value_sets))

    # The integer columns of counted set c are base[c] + position in c, and
    # items[col] is the value or probability column col counts.
    counted_sets, names = (value_sets, vs_names) if by_value else (profiles, prof_names)
    variables: list[MilpVariable] = []
    base = []
    items = []
    for counted, name in zip(counted_sets, names):
        base.append(len(variables))
        for item in counted:
            items.append(item)
            variables.append(MilpVariable(f"x[{item},{name}]", is_integer=True, upper=n))
    num_int = len(variables)
    # The linking row of integer column c reads -x_c + (the per-group
    # columns that c counts) == 0; each per-group column joins its row as
    # it is laid out.
    linking: list[dict] = [{col: -1} for col in range(num_int)]
    sizes = []
    objective: dict = {}
    for ((prof, vs), players), (pid, vid) in zip(groups.items(), group_ids):
        first = base[vid if by_value else pid]
        start = len(variables)
        for t, (prob, value) in enumerate(zip(prof, vs)):
            linking[first + t][len(variables)] = 1
            objective[len(variables)] = FormalLog(prob) if by_value else value
            variables.append(MilpVariable(f"y[{prof_names[pid]},{value},{vs_names[vid]}]"))
        sizes.append(MilpRow(dict.fromkeys(range(start, len(variables)), 1), "==", len(players)))

    if by_value:
        head = MilpRow(dict(enumerate(items)), "<=", inst.budget)
    else:
        logs = {col: FormalLog(prob) for col, prob in enumerate(items)}
        head = MilpRow(logs, ">=", FormalLog(inst.threshold))
    rows = [head, *(MilpRow(coeffs, "==", 0) for coeffs in linking), *sizes]

    sharing: dict = {}
    for col, item in enumerate(items):
        if item != 0:
            sharing.setdefault(item, []).append(col)
    branch_groups = [cols for cols in sharing.values() if len(cols) > 1]

    sense = "max" if by_value else "min"
    model = MilpModel(
        tuple(variables), tuple(rows), MilpObjective(objective, sense), branch_groups
    )
    return model, VariableMap(groups, num_int)


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


def _plan_from_assignment(inst: CbcctInstance, vmap: VariableMap, assignment) -> BribePlan:
    """Assemble a plan from the integral per-group counts.

    The per-group columns are walked from `vmap.num_int` in the layout of
    `VariableMap`.  Within a group, ascending prices are assigned to players
    in input order (group members are interchangeable).  Each price names
    one entry of the player's vector in `inst`, since prices rise strictly,
    so `inst` may hold the caller's vectors from before normalization, with
    the zero-probability entries that the model leaves out.  Raises
    `SolverError` if a count is negative or not integral, or if a group's
    counts do not add up to its players.
    """
    col = vmap.num_int
    choices = [0] * inst.num_challengers
    # price -> 1-based entry index, once per distinct vector object
    index = map_distinct(lambda v: {b: j for j, b in enumerate(v.bribe_values(), 1)}, inst.bribe_vectors)
    for (_, prices), players in vmap.group_players.items():
        bought = []
        for price in prices:
            count = assignment[col]
            if count.denominator != 1 or count < 0:
                raise SolverError(f"per-group count {count} in column {col} is not a count")
            bought += [price] * int(count)
            col += 1
        if len(bought) != len(players):
            raise SolverError(
                f"per-group counts cover {len(bought)} of the {len(players)} players of a group"
            )
        for player, price in zip(players, bought):
            choices[player] = index[player][price]
    return BribePlan(tuple(choices))


def _solve_fpt(inst: CbcctInstance, by_value: bool) -> SolveResult:
    """Normalize, solve, integralize, extract."""
    algorithm = "fpt-bribes" if by_value else "fpt-probs"
    no = SolveResult(None, None, False, algorithm)
    if _min_cost(inst) > inst.budget:
        return no
    if not by_value and inst.threshold == 0:
        return _result(inst, _first_entries_plan(inst), algorithm)
    normalized = normalize_instance(inst)
    # A normalized vector can end in probability 0 only as its single entry.
    positive = all(v.entries[-1].losing_probability for v in normalized.bribe_vectors)
    if positive:
        # Through the public builders: perfbench/tracing.py times them by name.
        build = build_bribe_value_milp if by_value else build_prob_value_milp
        model, vmap = build(normalized)
        solution = solve_milp(model)
    if not positive or solution.status == INFEASIBLE:
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
