"""Exact LP/MILP engine: simplex, branch and bound, formal logs, the
integrality check, rounding."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from champbribe import (
    CapExceededError,
    FormalLog,
    LogSum,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpVariable,
    ModelError,
    SolverError,
    integralize_solution,
    integrality_defect,
    solve_lp_exact,
    solve_milp,
    verify,
)
from champbribe import milp
from champbribe.milp import (
    EQ, GE, LE, _approx_log_row, _Pivots, _simplex, _Tableau, ln_bounds,
)


def F(*args):
    return Fraction(*args)


def model(var_specs, rows, obj, sense="max"):
    variables = tuple(
        MilpVariable(name, is_integer=integer, upper=upper)
        for name, integer, upper in var_specs
    )
    # Rows and objective are written densely here; the model takes them as
    # column -> coefficient mappings.
    return MilpModel(
        variables,
        tuple(MilpRow(dict(enumerate(c)), rel, rhs) for c, rel, rhs in rows),
        MilpObjective(dict(enumerate(obj)), sense),
    )


def rational_model(rows, obj, nvars, sense="max"):
    return model(
        [(f"x{j}", False, None) for j in range(nvars)],
        rows,
        obj,
        sense,
    )


# -- LP ---------------------------------------------------------------------


class TestSolveLpExact:
    def test_box(self):
        m = rational_model(
            [((F(1), F(0)), "<=", F(2)), ((F(0), F(1)), "<=", F(3))], (F(1), F(1)), 2
        )
        s = solve_lp_exact(m)
        assert s.status == "optimal"
        assert s.assignment == (2, 3)
        assert s.objective_value == 5

    def test_two_constraint_vertex(self):
        # Oracle: enumerate the vertices of {x1+x2<=4, x1<=3, x>=0}.
        vertices = [(0, 0), (3, 0), (3, 1), (0, 4)]
        best = max(2 * x1 + x2 for x1, x2 in vertices)
        assert best == 7
        m = rational_model(
            [((F(1), F(1)), "<=", F(4)), ((F(1), F(0)), "<=", F(3))], (F(2), F(1)), 2
        )
        s = solve_lp_exact(m)
        assert s.objective_value == best
        assert s.assignment == (3, 1)

    def test_infeasible(self):
        m = rational_model([((F(1),), "<=", F(-1))], (F(1),), 1)
        assert solve_lp_exact(m).status == "infeasible"

    def test_unbounded(self):
        m = rational_model([((F(-1),), "<=", F(1))], (F(1),), 1)
        assert solve_lp_exact(m).status == "unbounded"

    def test_equality_and_ge_rows(self):
        m = rational_model(
            [((F(1), F(1)), "==", F(3)), ((F(1), F(0)), ">=", F(1))],
            (F(0), F(1)),
            2,
        )
        s = solve_lp_exact(m)
        assert s.status == "optimal"
        assert s.assignment == (1, 2)

    def _cold_solve_against_oracle(self, rows, obj):
        # A cold solve straight on the tableau, checked against vertex
        # enumeration and for integer rows, whatever its status.
        n = len(obj)
        tab = _Tableau(
            [({j: c for j, c in enumerate(coeffs) if c}, rel, rhs) for coeffs, rel, rhs in rows],
            n,
            _Pivots(milp.PIVOT_CAP),
        )
        objective = _objective(obj)
        status, x = _simplex(tab, objective)
        _assert_integer_rows(tab)
        best, any_vertex = _vertex_enumeration(rows, obj, n)
        assert (status == "optimal") == any_vertex
        if any_vertex:
            assert tab.z == best == _objective_value(objective, x)
        return status, x

    def test_redundant_equality_rows(self):
        rows = [((F(1), F(1)), "==", F(3)), ((F(2), F(2)), "==", F(6))]
        status, x = self._cold_solve_against_oracle(rows, (F(1), F(2)))
        assert status == "optimal" and x == (0, 3)

    def test_inconsistent_equality_rows(self):
        rows = [((F(1), F(1)), "==", F(3)), ((F(1), F(1)), "==", F(4))]
        status, _ = self._cold_solve_against_oracle(rows, (F(1), F(2)))
        assert status == "infeasible"

    def test_upper_bounds_respected(self):
        m = model([("x", False, F(5, 2))], [], (F(1),))
        s = solve_lp_exact(m)
        assert s.assignment == (F(5, 2),)

    def test_empty_model(self):
        m = rational_model([], (), 0)
        s = solve_lp_exact(m)
        assert s.status == "optimal" and s.assignment == ()

    def test_rejects_log_constraint_rows(self):
        m = model(
            [("x", False, None)],
            [((FormalLog(F(1, 2)),), ">=", FormalLog(F(1, 4)))],
            (F(1),),
        )
        with pytest.raises(ModelError):
            solve_lp_exact(m)

    def test_rejects_mixed_objective(self, monkeypatch):
        # Refused by both solvers before any pivot, so also where phase 1
        # alone would end the solve as infeasible.  Both row sets start
        # phase 1 with a pivot.
        def spend(pivots):
            raise AssertionError("pivoted before the objective was checked")

        monkeypatch.setattr(_Pivots, "spend", spend)
        feasible = [((F(1), F(1)), ">=", F(1))]
        infeasible = [((F(1), F(1)), ">=", F(2)), ((F(1), F(1)), "<=", F(1))]
        for solve in (solve_lp_exact, solve_milp):
            for rows in (feasible, infeasible):
                m = model(
                    [("x", False, None), ("y", False, None)], rows, (F(2), FormalLog(F(1, 2)))
                )
                with pytest.raises(ModelError, match="mixes"):
                    solve(m)

    def test_log_objective(self):
        # max x*log(1/2) + y*log(3/4) over x+y >= 2, x,y <= 2 minimizes decay:
        # log(3/4) > log(1/2), so all weight goes to y.
        m = model(
            [("x", False, F(2)), ("y", False, F(2))],
            [((F(1), F(1)), ">=", F(2))],
            (FormalLog(F(1, 2)), FormalLog(F(3, 4))),
        )
        s = solve_lp_exact(m)
        assert s.assignment == (0, 2)
        assert s.objective_value.compare(LogSum.of(F(3, 4), 2)) == 0

    def test_degenerate_cycling_guard(self):
        # Classic degenerate LP; Bland's rule must terminate.
        m = rational_model(
            [
                ((F(1, 4), F(-8), F(-1), F(9)), "<=", F(0)),
                ((F(1, 2), F(-12), F(-1, 2), F(3)), "<=", F(0)),
                ((F(0), F(0), F(1), F(0)), "<=", F(1)),
            ],
            (F(3, 4), F(-20), F(1, 2), F(-6)),
            4,
        )
        s = solve_lp_exact(m)
        assert s.status == "optimal"
        assert s.objective_value == F(5, 4)

    def test_vertex_enumeration_oracle_agreement(self):
        # Random small LPs against brute-force vertex enumeration.
        import itertools
        import random

        rng = random.Random(2024)
        for _ in range(80):
            n = rng.randint(1, 3)
            rows = [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    rng.choice(("<=", "<=", ">=", "==")),
                    F(rng.randint(-4, 8)),
                )
                for _ in range(rng.randint(1, 4))
            ]
            obj = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            got = solve_lp_exact(rational_model(rows, obj, n))
            best, any_vertex = _vertex_enumeration(rows, obj, n)
            if got.status == "optimal":
                assert any_vertex
                assert got.objective_value == best
            elif got.status == "infeasible":
                assert not any_vertex

    def test_vertex_has_full_rank_tight_set(self):
        # The returned point must be a vertex: tight constraints span R^n.
        rows = [
            ((F(1), F(2), F(1)), "<=", F(7)),
            ((F(3), F(1), F(0)), "<=", F(5)),
            ((F(0), F(1), F(2)), "<=", F(4)),
        ]
        m = rational_model(rows, (F(1), F(1), F(1)), 3)
        s = solve_lp_exact(m)
        assert s.status == "optimal"
        tight = []
        for coeffs, rel, rhs in rows:
            if sum(c * x for c, x in zip(coeffs, s.assignment)) == rhs:
                tight.append(list(coeffs))
        for j, x in enumerate(s.assignment):
            if x == 0:
                row = [F(0)] * 3
                row[j] = F(1)
                tight.append(row)
        assert _rank(tight) == 3


def _vertex_enumeration(rows, obj, n):
    """LP oracle: the best objective value over every vertex (`_vertices`)."""
    values = [sum(c * v for c, v in zip(obj, point)) for point in _vertices(rows, n)]
    return (max(values) if values else None), bool(values)


def _vertices(rows, n):
    """Every basic feasible point of the constraint system."""
    planes = [(coeffs, rhs) for coeffs, _, rhs in rows]
    for j in range(n):
        axis = [Fraction(0)] * n
        axis[j] = Fraction(1)
        planes.append((tuple(axis), Fraction(0)))
    for subset in itertools.combinations(range(len(planes)), n):
        point = _solve_square([planes[i][0] for i in subset], [planes[i][1] for i in subset], n)
        if point is None or any(v < 0 for v in point):
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * v for c, v in zip(coeffs, point))
            if (rel == "<=" and lhs > rhs) or (rel == ">=" and lhs < rhs) or (
                rel == "==" and lhs != rhs
            ):
                ok = False
                break
        if ok:
            yield point


def _solve_square(A, b, n):
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _rank(rows):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


class TestWeakDuality:
    def test_explicit_dual_pair(self):
        # Primal: max 2x1+x2 st x1+x2<=4, x1<=3. Dual: min 4y1+3y2 st
        # y1+y2>=2, y1>=1. Optima must coincide exactly.
        primal = rational_model(
            [((F(1), F(1)), "<=", F(4)), ((F(1), F(0)), "<=", F(3))], (F(2), F(1)), 2
        )
        dual = rational_model(
            [((F(1), F(1)), ">=", F(2)), ((F(1), F(0)), ">=", F(1))],
            (F(4), F(3)),
            2,
            sense="min",
        )
        p = solve_lp_exact(primal)
        d = solve_lp_exact(dual)
        assert p.objective_value == d.objective_value == 7


# -- MILP -------------------------------------------------------------------


class TestSolveMilp:
    def test_floor_of_relaxation(self):
        m = model([("x", True, 5)], [((F(2),), "<=", F(3))], (F(1),))
        s = solve_milp(m)
        assert s.status == "optimal" and s.assignment == (1,) and s.objective_value == 1

    def test_two_branch_enumeration(self):
        # Oracle: x in {0, 1}; best y = (4-x)/2; objective x + y maximized at x=1.
        best = max(x + F(4 - x, 2) for x in (0, 1))
        assert best == F(5, 2)
        m = model(
            [("x", True, 10), ("y", False, None)],
            [((F(1), F(2)), "<=", F(4)), ((F(1), F(0)), "<=", F(1))],
            (F(1), F(1)),
        )
        s = solve_milp(m)
        assert s.assignment == (1, F(3, 2))
        assert s.objective_value == best

    def test_empty_integer_slice(self):
        m = model(
            [("x", True, 5)],
            [((F(1),), ">=", F(1, 3)), ((F(1),), "<=", F(2, 3))],
            (F(1),),
        )
        assert solve_milp(m).status == "infeasible"

    def test_unbounded_relaxation_reported(self):
        m = model([("x", True, 5), ("y", False, None)], [], (F(0), F(1)))
        assert solve_milp(m).status == "unbounded"

    def test_integer_variable_needs_upper_bound(self):
        m = model([("x", True, None)], [((F(1),), "<=", F(3))], (F(1),))
        with pytest.raises(ModelError):
            solve_milp(m)

    def test_minimization(self):
        m = model(
            [("x", True, 9)],
            [((F(3),), ">=", F(7))],
            (F(1),),
            sense="min",
        )
        s = solve_milp(m)
        assert s.assignment == (3,) and s.objective_value == 3

    def test_log_threshold_row(self):
        # (1/2)**x >= 1/8 caps x at 3; maximizing x must land exactly there.
        m = model(
            [("x", True, 10)],
            [((FormalLog(F(1, 2)),), ">=", FormalLog(F(1, 8)))],
            (F(2),),
        )
        s = solve_milp(m)
        assert s.assignment == (3,)
        assert s.objective_value == 6

    def test_log_threshold_boundary_exact(self):
        # The boundary is attainable: (1/2)**2 = 1/4 >= 1/4 counts.
        m = model(
            [("x", True, 10)],
            [((FormalLog(F(1, 2)),), ">=", FormalLog(F(1, 4)))],
            (F(1),),
        )
        assert solve_milp(m).assignment == (2,)

    def test_log_threshold_infeasible_when_unreachable(self):
        # (3/4)**x >= 7/8 only at x = 0; forcing x >= 1 kills it.
        m = model(
            [("x", True, 10)],
            [
                ((FormalLog(F(3, 4)),), ">=", FormalLog(F(7, 8))),
                ((F(1),), ">=", F(1)),
            ],
            (F(1),),
        )
        assert solve_milp(m).status == "infeasible"

    def test_log_row_on_fractional_column_rejected(self):
        m = model(
            [("x", False, None)],
            [((FormalLog(F(1, 2)),), ">=", FormalLog(F(1, 4)))],
            (F(1),),
        )
        with pytest.raises(ModelError):
            solve_milp(m)

    def test_log_threshold_hairline_gaps(self):
        # Thresholds within 2**-200 of (1/2)**3: the rational approximation
        # of the log row cannot separate them, so the exact leaf check and
        # the precision-doubling restart must.
        eps = F(1, 2**200)
        for threshold, expect in ((F(1, 8) + eps, 2), (F(1, 8) - eps, 3), (F(1, 8), 3)):
            m = model(
                [("x", True, 10)],
                [((FormalLog(F(1, 2)),), ">=", FormalLog(threshold))],
                (F(1),),
            )
            assert solve_milp(m).assignment == (expect,)

    def test_lattice_oracle_agreement(self):
        # Random bounded pure-integer models against full lattice enumeration.
        import itertools
        import random

        rng = random.Random(77)
        group_rng = random.Random(177)
        for _ in range(80):
            n = rng.randint(1, 3)
            ub = rng.randint(1, 4)
            rows = [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    rng.choice(("<=", "<=", ">=")),
                    F(rng.randint(-3, 9), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            obj = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            m = model([(f"x{j}", True, ub) for j in range(n)], rows, obj)
            got, grouped = solve_milp(m), solve_milp(_with_branch_groups(m, group_rng))
            assert grouped.status == got.status
            assert grouped.objective_value == got.objective_value
            best = None
            for point in itertools.product(range(ub + 1), repeat=n):
                ok = all(
                    (
                        sum(c * v for c, v in zip(coeffs, point)) <= rhs
                        if rel == "<="
                        else sum(c * v for c, v in zip(coeffs, point)) >= rhs
                    )
                    for coeffs, rel, rhs in rows
                )
                if ok:
                    val = sum(c * v for c, v in zip(obj, point))
                    if best is None or val > best:
                        best = val
            if best is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective_value == best

    def test_lattice_oracle_log_objective(self):
        # Deeper pure-integer models (n <= 5) with a formal-log objective:
        # the optimum must be the largest product prod(q_j ** x_j) over the
        # feasible lattice points, compared exactly.
        import itertools
        import math
        import random

        rng = random.Random(78)
        group_rng = random.Random(178)
        pool = (F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(1), F(4, 3), F(3, 2))
        for _ in range(30):
            n = rng.randint(3, 5)
            ub = rng.randint(1, 3)
            rows = [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    rng.choice(("<=", "<=", ">=")),
                    F(rng.randint(-3, 9), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            qs = [rng.choice(pool) for _ in range(n)]
            m = model(
                [(f"x{j}", True, ub) for j in range(n)], rows, tuple(FormalLog(q) for q in qs)
            )
            got, grouped = solve_milp(m), solve_milp(_with_branch_groups(m, group_rng))
            assert grouped.status == got.status
            assert grouped.objective_value == got.objective_value
            best = None
            for point in itertools.product(range(ub + 1), repeat=n):
                if _feasible([(dict(enumerate(c)), rel, rhs) for c, rel, rhs in rows], point):
                    value = math.prod((q**v for q, v in zip(qs, point)), start=F(1))
                    best = value if best is None else max(best, value)
            if best is None:
                assert got.status == "infeasible"
                continue
            assert got.status == "optimal"
            assert all(x.denominator == 1 for x in got.assignment)
            value = math.prod((q ** int(x) for q, x in zip(qs, got.assignment)), start=F(1))
            assert value == best
            assert got.objective_value == LogSum.of(best)

    def test_mixed_oracle_agreement(self):
        # Mixed models against enumerating the integer columns and solving
        # the continuous rest with `solve_lp_exact`.  Every row ties a
        # continuous column to the integer ones with a right-hand side over
        # 2 or 3, so optima fall between multiples of the objective
        # coefficients' gcd: a bound rule that prunes any node within that
        # gcd of the incumbent, right for pure-integer models only, gets 21
        # of these 300 draws wrong.
        import random

        rng = random.Random(91)
        seen = set()
        for _ in range(300):
            m, n_int = _draw_mixed_model(rng)
            got, best = solve_milp(m), _mixed_optimum(m, n_int)
            seen.add(got.status)
            if best is None:
                assert got.status == "infeasible"
                continue
            assert got.status == "optimal" and got.objective_value == best
            assert all(x.denominator == 1 for x in got.assignment[:n_int])
        assert seen == {"optimal", "infeasible"}

    def test_row_gcd_floors_a_le_row(self, monkeypatch):
        # 2x + 2y <= 5 over integer columns is x + y <= 2, whose root LP is
        # integral: one LP, where the untightened row puts x = 5/2 and branches.
        lps = _count_lps(monkeypatch)
        m = model([("x", True, 5), ("y", True, 5)], [((2, 2), LE, 5)], (1, 1))
        assert milp._split_log_rows(m, {0, 1})[0] == [({0: 1, 1: 1}, LE, 2)]
        s = solve_milp(m)
        assert s.objective_value == 2 and lps == [1]

    def test_row_gcd_ceils_a_ge_row(self, monkeypatch):
        lps = _count_lps(monkeypatch)
        m = model([("x", True, 5), ("y", True, 5)], [((3, 3), GE, F(4))], (1, 1), "min")
        assert milp._split_log_rows(m, {0, 1})[0] == [({0: 1, 1: 1}, GE, 2)]
        s = solve_milp(m)
        assert s.objective_value == 2 and lps == [1]

    def test_row_gcd_eq_row_off_the_gcd_is_infeasible(self, monkeypatch):
        # The LP relaxation of 2x + 4y == 3 is feasible (x = 3/2); the gcd
        # shows at once that no integer point is.
        lps = _count_lps(monkeypatch)
        m = model([("x", True, 5), ("y", True, 5)], [((2, 4), EQ, 3)], (1, 1))
        assert solve_milp(m).status == "infeasible" and lps == [1]
        for rhs, status in ((F(1, 2), "infeasible"), (6, "optimal")):
            m = model([("x", True, 5), ("y", True, 5)], [((2, 4), EQ, rhs)], (1, 1))
            assert solve_milp(m).status == status

    def test_row_gcd_leaves_other_rows_as_they_are(self):
        # A continuous column, or a Fraction coefficient, keeps the row whole:
        # max x + y with 2x + 2y <= 5 and y continuous is 5/2, not 2.
        m = model([("x", True, 5), ("y", False, 5)], [((2, 2), LE, 5)], (1, 1))
        assert milp._split_log_rows(m, {0})[0] == [({0: 2, 1: 2}, LE, 5)]
        assert solve_milp(m).objective_value == F(5, 2)
        m = model([("x", True, 5), ("y", True, 5)], [((F(2), 2), LE, 5)], (1, 1))
        assert milp._split_log_rows(m, {0, 1})[0] == [({0: 2, 1: 2}, LE, 5)]
        assert solve_milp(m).objective_value == 2

    def test_objective_grid_cuts_the_lp_count(self, monkeypatch):
        # Every objective value of an integer point is a multiple of 3, so
        # once x1 = 3 scores 9, no node with a bound below 12 can improve on
        # it.  With the integrality check made to fail, the grid is off.
        m = model([("x0", True, 3), ("x1", True, 3)], [((5, 4), LE, 16)], (3, 3))
        checks = []

        def check(model):
            checks.append(model)
            return real(model)

        real = milp.integrality_defect
        monkeypatch.setattr(milp, "integrality_defect", check)
        lps = _count_lps(monkeypatch)
        on = solve_milp(m)
        assert (on.objective_value, lps, len(checks)) == (9, [3], 1)
        monkeypatch.setattr(milp, "integrality_defect", lambda model: "off")
        lps[0] = 0
        off = solve_milp(m)
        assert (off.objective_value, off.assignment, lps) == (9, on.assignment, [13])

    def test_branch_groups_are_validated(self):
        m = model([("x", True, 3), ("y", True, 3), ("z", False, None)], [], (F(1), F(1), F(1)))
        assert m.branch_groups == ()
        assert dataclasses.replace(m, branch_groups=[[1, 0]]).branch_groups == ((1, 0),)
        for bad in ([()], [(0, 0)], [(0, 2)], [(0, 3)], [(-1,)]):
            with pytest.raises(ModelError):
                dataclasses.replace(m, branch_groups=bad)

    def test_group_sum_is_split_first(self, monkeypatch):
        # max x + y + z with 2x + 2y + 2z <= 5: the root LP puts x = 5/2, and
        # the group {x, y} has the fractional sum, so the first split is
        # x + y <= 2 / x + y >= 3, not x <= 2 / x >= 3.
        m = model(
            [("x", True, 5), ("y", True, 5), ("z", True, 5)],
            [((F(2), F(2), F(2)), "<=", F(5))],
            (F(1), F(1), F(1)),
        )
        m = dataclasses.replace(m, branch_groups=[(0, 1)])
        splits = []
        real = _Tableau.add_bound

        def add_bound(tab, cols, relation, value):
            splits.append((tuple(cols), relation, value))
            return real(tab, cols, relation, value)

        monkeypatch.setattr(_Tableau, "add_bound", add_bound)
        s = solve_milp(m)
        assert s.objective_value == 2
        assert splits[:2] == [((0, 1), GE, 3), ((0, 1), LE, 2)]

    def test_log_objective_with_log_row_is_rejected_at_once(self):
        # Such reduced costs would carry the log row's 2**128-scale
        # coefficients into the exponents of a power comparison, which
        # could not be evaluated.
        m = model(
            [("x", True, 4), ("y", True, 4)],
            [((FormalLog(F(1, 2)), FormalLog(F(3, 4))), ">=", FormalLog(F(1, 5)))],
            (FormalLog(F(2, 3)), FormalLog(F(5, 7))),
        )
        with pytest.raises(ModelError, match="formal-log objective"):
            solve_milp(m)

    def test_pivot_cap(self, monkeypatch):
        # The LP relaxation takes 3 pivots from the slack basis and its
        # optimum y = 5/2 needs branching, whose dual pivots count as well.
        m = model(
            [("x", True, 10), ("y", True, 10)],
            [((F(2), F(2)), "<=", F(5)), ((F(3), F(-2)), "<=", F(2))],
            (F(1), F(2)),
        )
        assert solve_milp(m).assignment == (0, 2)
        monkeypatch.setattr(milp, "PIVOT_CAP", 3)
        assert solve_lp_exact(m).assignment == (0, F(5, 2))
        with pytest.raises(CapExceededError):
            solve_milp(m)
        monkeypatch.setattr(milp, "PIVOT_CAP", 2)
        with pytest.raises(CapExceededError):
            solve_lp_exact(m)


class TestFormalLogObjectives:
    """'max' and 'min' formal-log objectives that put one argument on
    several columns, against vertex enumeration (LP) and the lattice (MILP).
    The value of x is sum(x_j * log q_j), compared exactly as `LogSum`s."""

    POOL = (F(1, 3), F(1, 2), F(3, 4), F(5, 4), F(2))

    def test_min_with_a_shared_argument(self):
        # min x log(1/2) + y log(1/2) + z log(3/4) with x + y + z <= 3 and
        # x, y <= 1: log(1/2) < log(3/4) < 0, so x = y = 1 and z = 1, with
        # value log(3/16) below log(9/32) at x = 1, z = 2.
        m = model(
            [("x", True, 1), ("y", True, 1), ("z", True, 2)],
            [((F(1), F(1), F(1)), "<=", F(3))],
            (FormalLog(F(1, 2)), FormalLog(F(1, 2)), FormalLog(F(3, 4))),
            sense="min",
        )
        for s in (solve_lp_exact(m), solve_milp(m)):
            assert s.assignment == (1, 1, 1)
            assert s.objective_value == LogSum.of(F(3, 16))

    def _draws(self, seed, sense, integer):
        """40 random models with columns in [0, ub], as (model, n, ub, rows,
        arguments), whose objective puts the argument of column 0 on at
        least one more column."""
        import random

        rng = random.Random(seed)
        for _ in range(40):
            n, ub = rng.randint(2, 4), rng.randint(1, 3)
            rows = [
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    rng.choice(("<=", "<=", ">=")),
                    F(rng.randint(-3, 9), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            qs = [rng.choice(self.POOL) for _ in range(n)]
            qs[rng.randrange(1, n)] = qs[0]
            variables = [(f"x{j}", integer, ub) for j in range(n)]
            yield model(variables, rows, tuple(map(FormalLog, qs)), sense), n, ub, rows, qs

    @staticmethod
    def _best(values, sense):
        best = values[0]
        for v in values[1:]:
            if (v > best) if sense == "max" else (best > v):
                best = v
        return best

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_lp_against_vertex_enumeration(self, sense):
        optimal = 0
        for m, n, ub, rows, _ in self._draws(31, sense, False):
            got = solve_lp_exact(m)
            bounds = [(tuple(F(i == j) for i in range(n)), "<=", F(ub)) for j in range(n)]
            values = [_objective_value(m.objective, p) for p in _vertices(rows + bounds, n)]
            if not values:
                assert got.status == "infeasible"
                continue
            optimal += 1
            assert got.status == "optimal"
            assert _feasible([(r.coeffs, r.relation, r.rhs) for r in m.rows], got.assignment)
            best = self._best(values, sense)
            assert got.objective_value == _objective_value(m.objective, got.assignment) == best
        assert optimal >= 20

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_milp_against_the_lattice(self, sense):
        optimal = 0
        for m, n, ub, _, qs in self._draws(32, sense, True):
            got = solve_milp(m)
            sparse = [(r.coeffs, r.relation, r.rhs) for r in m.rows]
            products = [
                math.prod((q**v for q, v in zip(qs, point)), start=F(1))
                for point in itertools.product(range(ub + 1), repeat=n)
                if _feasible(sparse, point)
            ]
            if not products:
                assert got.status == "infeasible"
                continue
            optimal += 1
            best = max(products) if sense == "max" else min(products)
            assert got.status == "optimal"
            assert _feasible(sparse, got.assignment)
            value = _objective_value(m.objective, got.assignment)
            assert got.objective_value == value == LogSum.of(best)
        assert optimal >= 20


def _count_lps(monkeypatch) -> list:
    """A one-element list counting the LP solves of `solve_milp` from now on."""
    lps = [0]
    simplex = milp._simplex

    def counted(tab, objective):
        lps[0] += 1
        return simplex(tab, objective)

    monkeypatch.setattr(milp, "_simplex", counted)
    return lps


def _draw_mixed_model(rng):
    """1-3 integer columns with upper bounds 0-4, then 1-2 continuous ones
    with upper bounds in halves; 1-2 rows, each with a nonzero entry on a
    continuous column; objective entries in {-1, 0, 1}, +-1 on the
    continuous columns.  Returns the model and its integer column count."""
    n_int, n_cont = rng.randint(1, 3), rng.randint(1, 2)
    n = n_int + n_cont
    variables = [MilpVariable(f"x{j}", True, rng.randint(0, 4)) for j in range(n_int)]
    variables += [
        MilpVariable(f"y{j}", False, F(rng.randint(1, 6), rng.randint(1, 2))) for j in range(n_cont)
    ]
    rows = []
    for _ in range(rng.randint(1, 2)):
        coeffs = {j: rng.randint(-3, 3) for j in range(n)}
        coeffs[rng.randrange(n_int, n)] = rng.choice((-3, -2, -1, 1, 2, 3))
        rel = rng.choice((LE, LE, GE))
        rows.append(MilpRow(coeffs, rel, F(rng.randint(-3, 9), rng.choice((2, 3)))))
    obj = {j: rng.choice((-1, 0, 1, 1)) for j in range(n_int)}
    obj.update({j: rng.choice((-1, 1)) for j in range(n_int, n)})
    sense = rng.choice(("max", "min"))
    return MilpModel(variables, rows, MilpObjective(obj, sense)), n_int


def _mixed_optimum(m, n_int):
    """The optimum of a `_draw_mixed_model` model, or None if infeasible:
    every integer point, with the continuous rest solved by `solve_lp_exact`."""
    cont = m.variables[n_int:]
    cont_obj = MilpObjective(
        {j - n_int: c for j, c in m.objective.coeffs.items() if j >= n_int}, m.objective.sense
    )
    sign = 1 if m.objective.sense == "max" else -1
    best = None
    for point in itertools.product(*(range(v.upper + 1) for v in m.variables[:n_int])):

        def fixed(coeffs):
            return sum(coeffs.get(j, 0) * x for j, x in enumerate(point))

        rows = [
            MilpRow(
                {j - n_int: c for j, c in r.coeffs.items() if j >= n_int},
                r.relation,
                r.rhs - fixed(r.coeffs),
            )
            for r in m.rows
        ]
        lp = solve_lp_exact(MilpModel(cont, rows, cont_obj))
        if lp.status == "optimal":
            value = fixed(m.objective.coeffs) + lp.objective_value
            if best is None or sign * value > sign * best:
                best = value
    return best


def _with_branch_groups(m, rng):
    """`m` with up to two random branch groups over its integer columns."""
    cols = m.integer_columns()
    groups = [rng.sample(cols, rng.randint(1, len(cols))) for _ in range(rng.randint(0, 2))]
    return dataclasses.replace(m, branch_groups=groups)


def _assert_integer_rows(tab):
    """Each row is an int vector over one positive row denominator, reduced by
    its gcd, with its basic column's entry equal to that denominator.  Each
    objective row is an int vector of the same form, zero on every basic
    column; a rational objective has one, a formal-log one one per log
    argument."""
    assert len(tab.body) == len(tab.rhs) == len(tab.den) == len(tab.basis)
    for row, rhs, den, b in zip(tab.body, tab.rhs, tab.den, tab.basis):
        assert type(rhs) is int and type(den) is int and den > 0
        assert all(type(x) is int and x != 0 for x in row.values())
        assert math.gcd(den, rhs, *row.values()) == 1
        assert row[b] == den
        assert sum(b in other for other in tab.body) == 1
    assert len(tab.cost) == len(tab.cost_rhs) == len(tab.cost_den)
    assert len(tab.cost) == 1 if tab.args is None else len(tab.args) == len(tab.cost)
    for row, rhs, den in zip(tab.cost, tab.cost_rhs, tab.cost_den):
        assert type(rhs) is int and type(den) is int and den > 0
        assert all(type(x) is int and x != 0 for x in row.values())
        assert math.gcd(den, rhs, *row.values()) == 1
        assert not any(b in row for b in tab.basis)


class TestWarmStart:
    """A child re-optimised by dual simplex from its parent's final tableau
    agrees with a cold solve (dual simplex phase 1, then primal simplex) of
    the same rows plus its bounds, and every solve, cold or warm, leaves
    integer rows (`_assert_integer_rows`).  A bound is on one basic column
    or on the sum of a set of columns with nonbasic members."""

    def _check(self, seed, objective_of, cases):
        import random

        rng = random.Random(seed)
        seen = {"phase 1": 0, "infeasible": 0, "warm": 0, "sets": 0}
        for _ in range(cases):
            n = rng.randint(1, 4)
            rows = [
                (
                    {j: c for j in range(n) if (c := F(rng.randint(-3, 3)))},
                    rng.choice((LE, LE, GE, EQ)),
                    F(rng.randint(-2, 8), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 4))
            ]
            rows += [({j: F(1)}, LE, F(rng.randint(1, 6))) for j in range(n)]
            objective = objective_of(rng, n)
            tab = _Tableau(rows, n, _Pivots(milp.PIVOT_CAP))
            # Phase 1 has work when a row is an equation or starts infeasible.
            seen["phase 1"] += -1 in tab.basis or min(tab.rhs) < 0
            status, x = _simplex(tab, objective)
            _assert_integer_rows(tab)
            bounds = []
            while status == "optimal" and len(bounds) < 4:
                basic = [b for b in tab.basis if b < n]
                if not basic:
                    break
                # One basic column, or a set of columns, basic or not.
                if rng.random() < 0.5:
                    cols = [rng.choice(basic)]
                else:
                    cols = rng.sample(range(n), rng.randint(1, n))
                    seen["sets"] += any(j not in tab.basis for j in cols)
                total = sum(x[j] for j in cols)
                if rng.random() < 0.5:
                    bound = (dict.fromkeys(cols, F(1)), LE, total // 1 - rng.randint(0, 1))
                else:
                    bound = (dict.fromkeys(cols, F(1)), GE, -(-total // 1) + rng.randint(0, 1))
                bound = (bound[0], bound[1], F(bound[2]))
                bounds.append(bound)
                tab.add_bound(cols, bound[1], bound[2])
                status, x = _simplex(tab, objective)
                _assert_integer_rows(tab)
                cold = _Tableau(rows + bounds, n, _Pivots(milp.PIVOT_CAP))
                cold_status, cold_x = _simplex(cold, objective)
                _assert_integer_rows(cold)
                seen["warm"] += 1
                assert status == cold_status
                if status == "infeasible":
                    seen["infeasible"] += 1
                    continue
                assert status == "optimal"
                assert _feasible(rows + bounds, x)
                value = _objective_value(objective, x)
                assert tab.z == cold.z == value == _objective_value(objective, cold_x)
        assert min(seen.values()) > 0, seen

    def test_rational_objective(self):
        self._check(11, lambda rng, n: _objective([F(rng.randint(-3, 3)) for _ in range(n)]), 150)

    def test_log_objective(self):
        pool = (F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 4), F(2))
        self._check(
            12, lambda rng, n: _objective([FormalLog(rng.choice(pool)) for _ in range(n)]), 100
        )


def _objective(coeffs):
    return MilpObjective(dict(enumerate(coeffs)), "max")


def _objective_value(objective, x):
    """sum(c_j * x_j) over the entries of `objective`: a Fraction, or a
    LogSum of the terms x_j * log q_j for formal-log coefficients."""
    logs = any(isinstance(c, FormalLog) for c in objective.coeffs.values())
    total = LogSum.zero() if logs else F(0)
    for j, c in objective.coeffs.items():
        total = total + (LogSum.of(c.argument, x[j]) if isinstance(c, FormalLog) else c * x[j])
    return total


def _feasible(rows, x):
    for coeffs, rel, rhs in rows:
        lhs = sum(c * x[j] for j, c in coeffs.items())
        if not {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[rel]:
            return False
    return all(v >= 0 for v in x)


# -- formal logarithms --------------------------------------------------------


class TestFormalLog:
    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            FormalLog(F(0))
        with pytest.raises(ModelError):
            FormalLog(F(-1, 2))

    def test_sign_basics(self):
        assert LogSum.of(F(1, 2)).sign() == -1
        assert LogSum.of(F(3, 2)).sign() == 1
        assert LogSum.of(F(1)).sign() == 0
        assert (LogSum.of(F(1, 2)) + LogSum.of(F(2))).sign() == 0

    # Dependent arguments: 1/4, 1/2, 2, 4 and 8 are powers of 2, and 9/16
    # is (3/4)**2.
    LN_POOL = (F(1, 4), F(1, 2), F(2), F(4), F(8), F(3, 4), F(9, 16), F(1, 3), F(5, 3))

    @given(
        st.lists(
            st.tuples(st.sampled_from(LN_POOL), st.integers(-6, 6), st.integers(1, 4)),
            max_size=5,
        )
    )
    @example([(F(1, 4), 1, 1), (F(1, 2), -2, 1)])
    @example([(F(1, 4), 1, 2), (F(2), 1, 1)])
    @example([(F(9, 16), 3, 1), (F(3, 4), -6, 1), (F(8), 1, 3), (F(1, 2), 1, 1)])
    @example([(F(9, 16), 1, 1), (F(3, 4), -2, 1), (F(5, 3), 1, 4)])
    def test_ln_sign_against_products(self, terms):
        # sum(num / den * ln a) has the sign of prod(a ** (num * L / den)) - 1
        # for L the lcm of the den; exact zeros come from dependent arguments.
        terms = [(a, num, den) for a, num, den in terms if num]
        lcm = math.lcm(*(den for _, _, den in terms)) if terms else 1
        product = F(1)
        for a, num, den in terms:
            product *= a ** (num * lcm // den)
        got = milp._ln_sign([(a.numerator, a.denominator, num, den) for a, num, den in terms])
        assert got == (product > 1) - (product < 1)
        lhs = LogSum.zero()
        for a, num, den in terms:
            lhs = lhs + LogSum.of(a, F(num, den))
        assert lhs.sign() == got

    def test_rational_coefficients(self):
        # (1/2)*log(1/4) == log(1/2)
        lhs = LogSum.of(F(1, 4), F(1, 2))
        assert lhs.compare(LogSum.of(F(1, 2))) == 0

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value="1/9", max_value=9, max_denominator=9),
                st.integers(0, 8),
                st.integers(0, 8),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_comparison_law(self, triples):
        lhs = LogSum.zero()
        rhs = LogSum.zero()
        p1 = F(1)
        p2 = F(1)
        for q, a, b in triples:
            lhs = lhs + LogSum.of(q, a)
            rhs = rhs + LogSum.of(q, b)
            p1 *= q**a
            p2 *= q**b
        assert (lhs.compare(rhs) > 0) == (p1 > p2)
        assert (lhs.compare(rhs) == 0) == (p1 == p2)

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value="1/9", max_value=9, max_denominator=9),
                st.integers(-4, 4),
                st.integers(-4, 4),
            ),
            min_size=1,
            max_size=4,
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def test_number_protocol(self, triples, f):
        # a = log(pa) and b = log(pb); every operation the simplex uses must
        # agree with the exact rational products.
        a = LogSum.zero()
        b = LogSum.zero()
        pa = F(1)
        pb = F(1)
        for q, i, j in triples:
            a = a + LogSum.of(q, i)
            b = b + LogSum.of(q, j)
            pa *= q**i
            pb *= q**j
        assert (a > b) == (pa > pb)
        assert (a == b) == (pa == pb)
        assert (a > 0) == (pa > 1)
        assert (-a > 0) == (pa < 1)
        assert bool(a) == (pa != 1)
        assert ((a + b) > 0) == (pa * pb > 1)
        assert ((a - b) > b) == (pa > pb * pb)
        # f = n/d with d > 0: f*a > b iff n*a > d*b iff pa^n > pb^d.
        assert (a * f > b) == (pa**f.numerator > pb**f.denominator)
        assert bool(a * f) == (f != 0 and pa != 1)

    @given(
        st.fractions(min_value="1/100", max_value=100, max_denominator=100),
        st.integers(8, 64),
    )
    def test_ln_bounds_bracket(self, q, bits):
        import math

        lo, hi = ln_bounds(q, bits)
        assert lo <= hi
        assert hi - lo <= F(1, 2**bits)
        true = math.log(q)
        assert float(lo) <= true + 1e-12 and true - 1e-12 <= float(hi)

    @pytest.mark.parametrize("bits", [8, 128, 300])
    def test_ln_bounds_of_a_huge_rational(self, bits):
        # A 12 000-bit numerator over a 10 500-bit denominator, against
        # decimal's correctly rounded ln at 120 digits (error far below
        # 2**-300).
        import decimal
        import random

        rng = random.Random(bits)
        q = F(rng.getrandbits(12_000) | 1 << 11_999, rng.getrandbits(10_500) | 1 << 10_499)
        lo, hi = ln_bounds(q, bits)
        assert lo <= hi and hi - lo < F(1, 2**bits)
        assert all(x.denominator & (x.denominator - 1) == 0 for x in (lo, hi))  # dyadic
        ctx = decimal.Context(prec=120)
        true = ctx.ln(ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))
        slack = decimal.Decimal(10) ** -110

        def dec(x):
            return ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))

        assert dec(lo) <= ctx.add(true, slack) and ctx.subtract(true, slack) <= dec(hi)
        assert ln_bounds(1 / q, bits) == (-hi, -lo)

    def test_fixed_point_atanh_brackets_at_few_bits(self):
        # At w <= 64 fractional bits a missing rounding step or tail term
        # shows against decimal's ln at 80 digits.
        import decimal
        import random

        rng = random.Random(3)
        ctx = decimal.Context(prec=80)
        for _ in range(3000):
            y = rng.randint(3, 10**6)
            x, w = rng.randint(0, y // 3), rng.randint(1, 64)
            ratio = ctx.divide(decimal.Decimal(y + x), decimal.Decimal(y - x))
            true = ctx.multiply(ctx.ln(ratio), decimal.Decimal(2**w))
            assert milp._atanh2(x, y, w, False) <= true <= milp._atanh2(x, y, w, True)

    @pytest.mark.parametrize("bits", [8, 64, 128])
    def test_approx_log_row_is_a_dyadic_outer_approximation(self, bits):
        pool = (F(1, 1000), F(1, 4), F(1, 2), F(3, 4), F(2**200 - 1, 2**200), F(1),
                F(5, 4), F(2), F(7, 3), F(10**6))
        head = {j: FormalLog(q) for j, q in enumerate(pool)}
        for t in pool:
            coeffs, relation, rhs = _approx_log_row(MilpRow(head, GE, FormalLog(t)), bits)
            assert relation == GE
            assert all(c != 0 for c in coeffs.values())
            for j, q in enumerate(pool):
                c = coeffs.get(j, F(0))
                assert (c * 2**bits).denominator == 1
                assert c >= ln_bounds(q, bits)[1]
            assert (rhs * 2**bits).denominator == 1
            assert rhs <= ln_bounds(t, bits)[0]


# -- the integrality check -----------------------------------------------------


def _tu_by_subdeterminants(matrix):
    """Independent oracle: enumerate every square submatrix determinant."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    for size in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[Fraction(matrix[i][j]) for j in cols] for i in rows]
                if _det(sub) not in (-1, 0, 1):
                    return False
    return True


def _det(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, n):
            f = mat[i][col] / mat[col][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


def _block(matrix, rhs=1):
    """The rows `matrix` <= rhs over continuous columns only."""
    return rational_model([(row, LE, rhs) for row in matrix], [0] * len(matrix[0]), len(matrix[0]))


def _two_per_column(rng, m, n):
    """A random 0/+-1 m x n matrix with at most two nonzeros per column."""
    mat = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), rng.randint(0, min(2, m))):
            mat[i][j] = rng.choice((-1, 1))
    return mat


class TestIntegralityDefect:
    def test_identity(self):
        assert integrality_defect(_block([[1, 0], [0, 1]])) is None

    def test_determinant_two(self):
        assert "2-colouring" in integrality_defect(_block([[1, 1], [-1, 1]]))

    def test_three_by_two_interval_matrix(self):
        assert integrality_defect(_block([[1, 0], [1, 1], [0, 1]])) is None

    def test_entry_outside_pm_one(self):
        assert "on continuous column 0" in integrality_defect(_block([[2]]))
        assert "on continuous column 0" in integrality_defect(_block([[F(1, 2)]]))

    def test_odd_cycle(self):
        # Three rows, each pair sharing a column with two +1s: no 2-colouring.
        triangle = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert "2-colouring" in integrality_defect(_block(triangle))
        assert not _tu_by_subdeterminants(triangle)

    def test_three_nonzeros_in_a_column(self):
        # This column is TU on its own, but it lies outside the class the
        # check decides, so it is refused.
        assert "more than two" in integrality_defect(_block([[1], [-1], [1]]))

    def test_fractional_rhs_on_a_touching_row(self):
        assert "rhs" in integrality_defect(_block([[1, 0], [1, 1]], rhs=F(1, 2)))
        m = model([("x", True, 3), ("y", False, None)], [([F(1, 2), 0], LE, F(1, 2))], [1, 1])
        assert integrality_defect(m) is None  # the row touches no continuous column

    def test_integer_column_coefficients_on_a_touching_row(self):
        int_and_cont = [("x", True, 3), ("y", False, None)]
        assert integrality_defect(model(int_and_cont, [([3, 1], EQ, 4)], [1, 1])) is None
        m = model(int_and_cont, [([F(1, 2), 1], EQ, 1)], [1, 1])
        assert "integer column 0" in integrality_defect(m)
        m = model(int_and_cont, [([FormalLog(2), 1], GE, 1)], [1, 1])
        assert "integer column 0" in integrality_defect(m)

    def test_continuous_upper_bounds(self):
        for upper, ok in ((None, True), (2, True), (F(4, 2), True), (F(1, 2), False)):
            m = model([("y", False, upper)], [([1], LE, 1)], [1])
            assert (integrality_defect(m) is None) == ok, upper

    def test_matches_subdeterminant_oracle_with_two_nonzeros_per_column(self):
        import random

        rng = random.Random(5)
        verdicts = set()
        for _ in range(400):
            mat = _two_per_column(rng, rng.randint(1, 5), rng.randint(1, 5))
            accepted = integrality_defect(_block(mat)) is None
            assert accepted == _tu_by_subdeterminants(mat), mat
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_sound_on_unrestricted_matrices(self):
        import random

        rng = random.Random(6)
        verdicts = set()
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
            accepted = integrality_defect(_block(mat)) is None
            if accepted:
                assert _tu_by_subdeterminants(mat), mat
            verdicts.add(accepted)
        assert verdicts == {True, False}


# -- integral rounding ----------------------------------------------------------


class TestIntegralize:
    def _transportation_model(self):
        # Integer var w plus a 2x2 transportation block over x11,x12,x21,x22
        # with supplies (2, 1) and demands (1, 2); all unit objective weights,
        # so every feasible point is optimal and fractional optima exist.
        variables = (
            MilpVariable("w", is_integer=True, upper=3),
            MilpVariable("x11"),
            MilpVariable("x12"),
            MilpVariable("x21"),
            MilpVariable("x22"),
        )
        rows = (
            MilpRow({0: 1}, "<=", 1),
            MilpRow({1: 1, 2: 1}, "==", 2),
            MilpRow({3: 1, 4: 1}, "==", 1),
            MilpRow({1: 1, 3: 1}, "==", 1),
            MilpRow({2: 1, 4: 1}, "==", 2),
        )
        obj = MilpObjective(dict.fromkeys(range(5), 1), "max")
        return MilpModel(variables, rows, obj)

    def test_transportation_block(self, monkeypatch):
        m = self._transportation_model()
        lp_models = []

        def counted(restricted):
            lp_models.append(restricted)
            return solve_lp_exact(restricted)

        monkeypatch.setattr(milp, "solve_lp_exact", counted)
        # Oracle: enumerate integral transportation solutions.
        integral_points = [
            (x11, x12, x21, x22)
            for x11 in range(3)
            for x12 in range(3)
            for x21 in range(2)
            for x22 in range(3)
            if x11 + x12 == 2 and x21 + x22 == 1 and x11 + x21 == 1 and x12 + x22 == 2
        ]
        assert integral_points  # the rounded solution must be one of these
        mixed = solve_milp(m)
        assert mixed.status == "optimal"
        # Feed a deliberately fractional optimum through the rounding routine.
        from champbribe.milp import MilpSolution

        handmade = MilpSolution(
            "optimal",
            (F(1), F(1, 2), F(3, 2), F(1, 2), F(1, 2)),
            mixed.objective_value,
        )
        rounded = integralize_solution(m, handmade)
        assert len(lp_models) == 1  # a non-vertex optimum takes the restricted LP
        assert all(x.denominator == 1 for x in rounded.assignment)
        assert rounded.objective_value == mixed.objective_value
        assert tuple(int(x) for x in rounded.assignment[1:]) in integral_points

    def test_already_integral_keeps_objective(self):
        m = self._transportation_model()
        mixed = solve_milp(m)
        rounded = integralize_solution(m, mixed)
        assert rounded.objective_value == mixed.objective_value

    def test_fractional_integer_column_is_rejected(self):
        # Integer w <= 1 and fractional x, y with -w + x + y == 0, maximizing x:
        # w = 1/2 breaks the precondition even though the point is feasible.
        variables = (
            MilpVariable("w", is_integer=True, upper=1),
            MilpVariable("x"),
            MilpVariable("y"),
        )
        rows = (MilpRow({0: -1, 1: 1, 2: 1}, "==", 0),)
        m = MilpModel(variables, rows, MilpObjective({1: 1}, "max"))
        from champbribe.milp import MilpSolution

        mixed = MilpSolution("optimal", (F(1, 2), F(1, 2), F(0)), F(1, 2))
        with pytest.raises(SolverError):
            integralize_solution(m, mixed)

    def test_tail_block_convention_enforced(self):
        variables = (MilpVariable("w", is_integer=True, upper=3), MilpVariable("x"))
        rows = (
            MilpRow({1: 1}, "<=", 2),  # touches the fractional column
            MilpRow({0: 1}, "<=", 1),  # int-only row after it: violation
        )
        m = MilpModel(variables, rows, MilpObjective({0: 1, 1: 1}, "max"))
        from champbribe.milp import MilpSolution

        mixed = MilpSolution("optimal", (F(1), F(2)), F(3))
        with pytest.raises(ModelError):
            integralize_solution(m, mixed)


class TestModelInput:
    VARS = (MilpVariable("x"), MilpVariable("y"))

    def test_zero_entries_are_dropped(self):
        row = MilpRow({0: 0, 1: F(0), 2: 3}, "<=", 1)
        obj = MilpObjective({0: F(0), 1: FormalLog(F(1, 2))}, "max")
        assert row.coeffs == {2: 3}
        assert obj.coeffs == {1: FormalLog(F(1, 2))}
        assert rational_model([((0, 2), "<=", 4)], (1, 0), 2).rows[0].coeffs == {1: 2}

    @pytest.mark.parametrize("col", [-1, 2, 7, "0", F(1)])
    def test_entry_outside_the_columns(self, col):
        ok = MilpObjective({0: 1}, "max")
        with pytest.raises(ModelError):
            MilpModel(self.VARS, (MilpRow({col: 1}, "<=", 1),), ok)
        with pytest.raises(ModelError):
            MilpModel(self.VARS, (), MilpObjective({col: 1}, "max"))

    @pytest.mark.parametrize("bad", [1.5, 0.5, "1/2", "3/4", "no", None, 1j])
    def test_value_of_another_type(self, bad):
        with pytest.raises(ModelError):
            FormalLog(bad)
        with pytest.raises(ModelError):
            MilpVariable("x", is_integer=bad)
        with pytest.raises(ModelError):
            MilpRow({0: bad}, "<=", 1)
        with pytest.raises(ModelError):
            MilpRow({0: 1}, "<=", bad)
        with pytest.raises(ModelError):
            MilpObjective({0: bad}, "max")

    @pytest.mark.parametrize("bad", [1.5, "2", FormalLog(F(2))])
    def test_upper_bound_of_another_type(self, bad):
        with pytest.raises(ModelError):
            MilpVariable("x", upper=bad)

    @pytest.mark.parametrize("place", [
        "row column", "objective column", "branch group", "row coefficient",
        "objective coefficient", "rhs", "upper bound", "formal log argument",
    ])
    def test_bools_are_refused(self, place):
        # True == 1 and False == 0, so a bool would silently read as a
        # column index or a number.
        ints = tuple(MilpVariable(name, is_integer=True, upper=3) for name in "xy")
        ok_row, ok_obj = MilpRow({0: 1}, "<=", 1), MilpObjective({0: 1}, "max")
        build = {
            "row column": lambda: MilpModel(ints, (MilpRow({True: 1}, "<=", 3),), ok_obj),
            "objective column": lambda: MilpModel(ints, (ok_row,), MilpObjective({True: 1}, "max")),
            "branch group": lambda: MilpModel(ints, (ok_row,), ok_obj, [(0, True)]),
            "row coefficient": lambda: MilpRow({0: True}, "<=", 3),
            "objective coefficient": lambda: MilpObjective({0: False, 1: 1}, "max"),
            "rhs": lambda: MilpRow({0: 1}, "<=", True),
            "upper bound": lambda: MilpVariable("x", is_integer=True, upper=True),
            "formal log argument": lambda: FormalLog(True),
        }[place]
        with pytest.raises(ModelError):
            build()

    def test_value_check_order(self):
        # Formal logs are tested before ints and Fractions; what is accepted
        # stays the same, next to formal logs too: bools refused, int and
        # Fraction subclasses taken.
        class Half(Fraction):
            pass

        class Two(int):
            pass

        log = FormalLog(F(1, 2))
        for bad in (True, False):
            with pytest.raises(ModelError):
                MilpRow({0: log, 1: bad}, ">=", log)
            with pytest.raises(ModelError):
                MilpRow({0: bad, 1: log}, ">=", log)
            with pytest.raises(ModelError):
                MilpObjective({0: log, 1: bad}, "max")
            with pytest.raises(ModelError):
                MilpRow({0: 1}, "<=", bad)
        for ok in (Half(1, 2), Two(2), 3, F(3, 4), log):
            assert MilpRow({0: ok}, "<=", 1).coeffs == {0: ok}
            assert MilpObjective({0: ok}, "max").coeffs == {0: ok}

    def test_dense_coefficients_are_rejected(self):
        with pytest.raises(ModelError):
            MilpRow((1, 0), "<=", 1)
        with pytest.raises(ModelError):
            MilpObjective([1, 0], "max")

    def test_int_fraction_and_log_values(self):
        m = MilpModel(
            (MilpVariable("x", is_integer=True, upper=3), MilpVariable("y")),
            (
                MilpRow({0: FormalLog(F(2))}, ">=", FormalLog(F(3))),
                MilpRow({0: 1, 1: F(1, 2)}, "<=", 3),
            ),
            MilpObjective({0: -1, 1: 1}, "max"),
        )
        s = solve_milp(m)
        assert s.status == "optimal" and s.assignment == (2, 2) and s.objective_value == 0


class TestDump:
    def test_dump_mentions_logs_and_rationals(self):
        m = model(
            [("x", True, 4), ("y", False, None)],
            [((F(3, 2), F(0)), "<=", F(7, 2))],
            (FormalLog(F(1, 2)), FormalLog(F(1))),
        )
        text = m.dump()
        assert "log(1/2)" in text
        assert "3/2 x" in text
        assert "<= 7/2" in text
        assert "integer" in text


class TestLpUnitSuite:
    def test_seed_reaches_the_engine(self, monkeypatch):
        # Each seed draws its own bounded integer models, with both optimal
        # and infeasible ones among them, and all match lattice enumeration.
        solved = {}
        for seed in (6, 13):
            models = solved[seed] = []

            def recording(m, *args, **kwargs):
                models.append(m.dump())
                return solve_milp(m, *args, **kwargs)

            monkeypatch.setattr(verify, "solve_milp", recording)
            report = verify.suite_lp_unit(draws=0, seed=seed)
            assert report.passed, report.failures[:3]
            assert set(report.details["seeded_models"]) == {"optimal", "infeasible"}
            assert len(models) == 3 + verify.LP_UNIT_MODELS
        assert solved[6][:3] == solved[13][:3]
        assert len(set(solved[6][3:]) & set(solved[13][3:])) < verify.LP_UNIT_MODELS // 10

    def test_enumeration_catches_a_relaxed_optimum(self, monkeypatch):
        # An engine that returned the LP relaxation's optimum must fail.
        monkeypatch.setattr(verify, "solve_milp", lambda m: solve_lp_exact(m))
        report = verify.suite_lp_unit(draws=0, seed=6)
        assert any(f.startswith("seeded model") for f in report.failures)
