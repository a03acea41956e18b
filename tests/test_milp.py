"""Exact LP/MILP engine: simplex, branch and bound, formal logs, TU, rounding."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from champbribe import (
    CapExceededError,
    FormalLog,
    LogSum,
    MilpModel,
    MilpObjective,
    MilpRow,
    MilpVariable,
    ModelError,
    integralize_solution,
    is_totally_unimodular,
    solve_lp_exact,
    solve_milp,
)
from champbribe import milp
from champbribe.milp import EQ, GE, LE, _dot, _Pivots, _simplex, _Tableau, ln_bounds


def F(*args):
    return Fraction(*args)


def model(var_specs, rows, obj, sense="max"):
    variables = tuple(
        MilpVariable(name, is_integer=integer, upper=upper)
        for name, integer, upper in var_specs
    )
    return MilpModel(
        variables,
        tuple(MilpRow(tuple(c), rel, rhs) for c, rel, rhs in rows),
        MilpObjective(tuple(obj), sense),
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

    def test_rejects_mixed_objective(self):
        m = model(
            [("x", False, None), ("y", False, None)],
            [((F(1), F(1)), "<=", F(1))],
            (F(2), FormalLog(F(1, 2))),
        )
        with pytest.raises(ModelError):
            solve_lp_exact(m)

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
    """LP oracle: evaluate every basic point of the constraint system."""
    import itertools

    planes = [(coeffs, rhs) for coeffs, _, rhs in rows]
    for j in range(n):
        axis = [Fraction(0)] * n
        axis[j] = Fraction(1)
        planes.append((tuple(axis), Fraction(0)))
    best = None
    any_vertex = False
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
        if not ok:
            continue
        any_vertex = True
        val = sum(c * v for c, v in zip(obj, point))
        if best is None or val > best:
            best = val
    return best, any_vertex


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
            got = solve_milp(m)
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
            got = solve_milp(m)
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


class TestWarmStart:
    """A child re-optimised by dual simplex from its parent's final tableau
    agrees with a cold two-phase solve of the same rows plus its bounds."""

    def _check(self, seed, objective_of, cases):
        import random

        rng = random.Random(seed)
        seen = {"artificials": 0, "infeasible": 0, "warm": 0}
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
            seen["artificials"] += tab.art_start < tab.total
            status, x = _simplex(tab, objective)
            bounds = []
            while status == "optimal" and len(bounds) < 4:
                basic = [b for b in tab.basis if b < n]
                if not basic:
                    break
                j = rng.choice(basic)
                if rng.random() < 0.5:
                    bound = ({j: F(1)}, LE, x[j] // 1 - rng.randint(0, 1))
                else:
                    bound = ({j: F(1)}, GE, -(-x[j] // 1) + rng.randint(0, 1))
                bound = (bound[0], bound[1], F(bound[2]))
                bounds.append(bound)
                tab.add_bound(j, bound[1], bound[2])
                status, x = _simplex(tab, objective)
                cold = _Tableau(rows + bounds, n, _Pivots(milp.PIVOT_CAP))
                cold_status, cold_x = _simplex(cold, objective)
                seen["warm"] += 1
                assert status == cold_status
                if status == "infeasible":
                    seen["infeasible"] += 1
                    continue
                assert status == "optimal"
                assert _feasible(rows + bounds, x)
                assert tab.z == cold.z == _dot(objective, x) == _dot(objective, cold_x)
        assert min(seen.values()) > 0, seen

    def test_rational_objective(self):
        self._check(11, lambda rng, n: [F(rng.randint(-3, 3)) for _ in range(n)], 150)

    def test_log_objective(self):
        pool = (F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 4), F(2))
        self._check(12, lambda rng, n: [LogSum.of(rng.choice(pool)) for _ in range(n)], 100)


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


# -- total unimodularity -------------------------------------------------------


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


class TestTotallyUnimodular:
    def test_identity(self):
        assert is_totally_unimodular([[1, 0], [0, 1]])

    def test_determinant_two(self):
        assert not is_totally_unimodular([[1, 1], [-1, 1]])

    def test_three_by_two_interval_matrix(self):
        assert is_totally_unimodular([[1, 0], [1, 1], [0, 1]])

    def test_entry_outside_pm_one(self):
        assert not is_totally_unimodular([[2]])
        assert not is_totally_unimodular([[Fraction(1, 2)]])

    def test_dimension_cap(self):
        with pytest.raises(CapExceededError):
            is_totally_unimodular([[1] * 13], cap=12)

    def test_matches_subdeterminant_oracle_on_random_matrices(self):
        import random

        rng = random.Random(5)
        agree = 0
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.choice((-1, 0, 0, 1, 1)) for _ in range(n)] for _ in range(m)]
            assert is_totally_unimodular(mat) == _tu_by_subdeterminants(mat)
            agree += 1
        assert agree == 60


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
            MilpRow((F(1), F(0), F(0), F(0), F(0)), "<=", F(1)),
            MilpRow((F(0), F(1), F(1), F(0), F(0)), "==", F(2)),
            MilpRow((F(0), F(0), F(0), F(1), F(1)), "==", F(1)),
            MilpRow((F(0), F(1), F(0), F(1), F(0)), "==", F(1)),
            MilpRow((F(0), F(0), F(1), F(0), F(1)), "==", F(2)),
        )
        obj = MilpObjective((F(1), F(1), F(1), F(1), F(1)), "max")
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

    def test_tail_block_convention_enforced(self):
        variables = (MilpVariable("w", is_integer=True, upper=3), MilpVariable("x"))
        rows = (
            MilpRow((F(0), F(1)), "<=", F(2)),  # touches the fractional column
            MilpRow((F(1), F(0)), "<=", F(1)),  # int-only row after it: violation
        )
        m = MilpModel(variables, rows, MilpObjective((F(1), F(1)), "max"))
        from champbribe.milp import MilpSolution

        mixed = MilpSolution("optimal", (F(1), F(2)), F(3))
        with pytest.raises(ModelError):
            integralize_solution(m, mixed)


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
