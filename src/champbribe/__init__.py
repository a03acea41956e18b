"""Exact solvers, reductions, and verification for tournament bribery.

The package covers constructive bribery in challenge-the-champ tournaments
(exhaustive, pseudo-polynomial DP, and two MILP-based fixed-parameter
solvers), the product-knapsack family it reduces from, cup-tournament
bribery it reduces to, and a fully exact rational LP/MILP engine with
formal-logarithm objectives and a linear-time check that fixing a model's
integer columns leaves only integral vertices.
"""

from .core import (
    BribeEntry,
    BribePlan,
    BribeVector,
    CbcctInstance,
    evaluate_plan,
    instance_from_dict,
    instance_to_dict,
    normalize_bribe_vector,
    normalize_instance,
)
from .cup import CupInstance, cup_win_probability, solve_cup_bruteforce
from .errors import (
    CapExceededError,
    ChampBribeError,
    InstanceError,
    ModelError,
    PlanError,
    ReductionError,
    SolverError,
)
from .knapsack import (
    MpkInstance,
    PkpInstance,
    PkpItem,
    SmallKSumInstance,
    solve_mpk_bruteforce,
    solve_pkp_bruteforce,
    solve_pkp_dp,
    solve_small_ksum_bruteforce,
)
from .milp import (
    FormalLog,
    LogSum,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpSolution,
    MilpVariable,
    integralize_solution,
    integrality_defect,
    solve_lp_exact,
    solve_milp,
)
from .rational import Rational, format_rational, parse_rational
from .reductions import (
    cbcct_to_cup,
    ksum_to_pkp,
    mpk_to_cbcct,
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

__version__ = "0.1.0"
