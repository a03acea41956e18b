"""Exact rational LP/MILP engine with formal-logarithm cost handling.

Everything here is exact: tableaux hold `fractions.Fraction` entries in
sparse rows, each a map from column to nonzero entry, so a pivot touches
nonzeros only.  LP rows are in that form from the model on.  Logarithmic
quantities are never evaluated numerically.  A coefficient ``log q`` is
carried as `FormalLog(q)`; linear combinations of formal logs (`LogSum`) are
ordered by comparing the corresponding rational products exactly, so every
pivoting and bounding decision that involves logarithms reduces to
big-integer arithmetic.  A `LogSum` supports the arithmetic and comparisons
the simplex needs, so one simplex and one branch and bound serve rational
and formal-log objectives alike.

Formal logs are allowed in objectives, where only *comparisons* of log
combinations are ever needed.  They are rejected inside LP constraint rows:
pivoting on an irrational entry would leave the rational field, so no exact
vertex could be reported.  `solve_milp` does accept one structured exception,
a ``>=`` row whose coefficients are formal logs on integer columns only
(the shape produced by the probability-threshold model).  Such a row is
replaced by a certified rational outer approximation for the relaxations and
re-checked exactly (as a rational product inequality) whenever a candidate
incumbent has integral values; if the approximation ever admits a spurious
candidate, its precision is doubled and the search restarts.

Branch and bound is depth-first with deterministic branching: lowest
fractional integer column first, floor branch first.  Each precision
round solves its root cold, by two-phase primal simplex with Bland's rule
(termination over speed).  A child starts from its parent's final
tableau with the branching bound appended as one row, which leaves the
basis dual feasible, and is re-optimised by a dual simplex with a
Bland-type rule.  `PIVOT_CAP` bounds the pivots of one solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import CapExceededError, ModelError, SolverError

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)


# -- formal logarithms --------------------------------------------------------


@dataclass(frozen=True)
class FormalLog:
    """The value log(argument) for a positive rational argument, unevaluated."""

    argument: Fraction

    def __post_init__(self) -> None:
        arg = Fraction(self.argument)
        if arg <= 0:
            raise ModelError(f"formal log argument must be positive, got {arg}")
        object.__setattr__(self, "argument", arg)

    def __repr__(self) -> str:
        return f"log({self.argument})"


class LogSum:
    """Exact linear combination sum(coeff * log(arg)) of formal logarithms.

    Comparisons reduce to exact rational product comparisons: after clearing
    denominators, sum(m_i * log(q_i)) >= 0 holds iff the product of q_i**m_i
    over positive m_i is at least the product over negative m_i.

    As a number it supports ``+``, ``-``, unary ``-``, ``*`` by a rational,
    ``bool``, ``==`` and ``>`` against another `LogSum` or against 0; every
    comparison and truth test costs one `sign` call.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        self.terms = {
            arg: coeff for arg, coeff in (terms or {}).items() if arg != 1 and coeff != 0
        }

    @classmethod
    def zero(cls) -> "LogSum":
        return cls()

    @classmethod
    def of(cls, argument: Fraction, coeff: Fraction | int = 1) -> "LogSum":
        return cls({Fraction(argument): Fraction(coeff)})

    def __add__(self, other: "LogSum") -> "LogSum":
        merged = dict(self.terms)
        for arg, coeff in other.terms.items():
            merged[arg] = merged.get(arg, Fraction(0)) + coeff
        return LogSum(merged)

    def __sub__(self, other: "LogSum") -> "LogSum":
        merged = dict(self.terms)
        for arg, coeff in other.terms.items():
            merged[arg] = merged.get(arg, Fraction(0)) - coeff
        return LogSum(merged)

    def __neg__(self) -> "LogSum":
        return LogSum({a: -c for a, c in self.terms.items()})

    def __mul__(self, factor) -> "LogSum":
        return LogSum({a: c * factor for a, c in self.terms.items()})

    def sign(self) -> int:
        """Exact sign of the represented real number."""
        if not self.terms:
            return 0
        denom_lcm = math.lcm(*(coeff.denominator for coeff in self.terms.values()))
        up = Fraction(1)
        down = Fraction(1)
        for arg, coeff in self.terms.items():
            m = int(coeff * denom_lcm)
            if m > 0:
                up *= arg**m
            elif m < 0:
                down *= arg**-m
        if up > down:
            return 1
        if up < down:
            return -1
        return 0

    def compare(self, other: "LogSum") -> int:
        return (self - other).sign()

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __gt__(self, other) -> bool:
        if isinstance(other, LogSum):
            return self.compare(other) > 0
        if other == 0:
            return self.sign() > 0
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, LogSum):
            return self.compare(other) == 0
        if other == 0:
            return self.sign() == 0
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "LogSum(0)"
        parts = [f"{c}*log({a})" for a, c in sorted(self.terms.items())]
        return "LogSum(" + " + ".join(parts) + ")"


@lru_cache(maxsize=None)
def ln_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= ln(q) <= hi with width below 2**-bits.

    Uses ln(x) = 2*atanh((x-1)/(x+1)) with exact partial sums and a geometric
    tail bound, after reducing the argument to [1, 2) by powers of two.
    """
    q = Fraction(q)
    if q <= 0:
        raise ModelError(f"ln_bounds requires a positive argument, got {q}")
    if q == 1:
        return Fraction(0), Fraction(0)
    if q < 1:
        lo, hi = ln_bounds(1 / q, bits)
        return -hi, -lo
    # q > 1: find k with q / 2**k in [1, 2)
    k = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** k > q:
        k -= 1
    if q / Fraction(2) ** (k + 1) >= 1:
        k += 1
    r = q / Fraction(2) ** k
    assert 1 <= r < 2
    lo, hi = _atanh_ln_bounds(r, bits + max(k.bit_length(), 1) + 2)
    if k:
        lo2, hi2 = _atanh_ln_bounds(Fraction(2), bits + k.bit_length() + 2)
        lo, hi = lo + k * lo2, hi + k * hi2
    return lo, hi


def _atanh_ln_bounds(r: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Bounds for ln(r), 1 <= r <= 2, via the atanh series."""
    if r == 1:
        return Fraction(0), Fraction(0)
    z = (r - 1) / (r + 1)  # in (0, 1/3]
    z2 = z * z
    tol = Fraction(1, 2**bits)
    total = Fraction(0)
    power = z
    i = 0
    while True:
        total += power / (2 * i + 1)
        power *= z2
        i += 1
        tail = power / ((2 * i + 1) * (1 - z2))
        if 2 * tail < tol:
            lo = 2 * total
            return lo, lo + 2 * tail


# -- model types ---------------------------------------------------------------


@dataclass(frozen=True)
class MilpVariable:
    """A nonnegative variable; lower bound is fixed at 0."""

    name: str
    is_integer: bool = False
    upper: Fraction | int | None = None


@dataclass(frozen=True)
class MilpRow:
    coeffs: tuple
    relation: str
    rhs: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.relation not in _RELATIONS:
            raise ModelError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class MilpObjective:
    coeffs: tuple
    sense: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.sense not in ("max", "min"):
            raise ModelError(f"objective sense must be 'max' or 'min', got {self.sense!r}")


@dataclass(frozen=True)
class MilpModel:
    variables: tuple[MilpVariable, ...]
    rows: tuple[MilpRow, ...]
    objective: MilpObjective

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rows", tuple(self.rows))
        n = len(self.variables)
        for i, row in enumerate(self.rows):
            if len(row.coeffs) != n:
                raise ModelError(f"row {i} has {len(row.coeffs)} coefficients for {n} variables")
        if len(self.objective.coeffs) != n:
            raise ModelError("objective length does not match variable count")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def integer_columns(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.is_integer]

    def fractional_columns(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if not v.is_integer]

    def dump(self) -> str:
        """Plain-text LP-style listing (rationals as num/den, logs as log(num/den))."""

        def fmt(c) -> str:
            return repr(c) if isinstance(c, FormalLog) else str(Fraction(c))

        def terms(coeffs) -> str:
            parts = [
                f"{fmt(c)} {v.name}"
                for c, v in zip(coeffs, self.variables)
                if isinstance(c, FormalLog) or c != 0
            ]
            return " + ".join(parts) if parts else "0"

        lines = [f"{self.objective.sense} {terms(self.objective.coeffs)}", "s.t."]
        for row in self.rows:
            lines.append(f"  {terms(row.coeffs)} {row.relation} {fmt(row.rhs)}")
        for v in self.variables:
            bound = f"0 <= {v.name}" + (f" <= {Fraction(v.upper)}" if v.upper is not None else "")
            lines.append(f"  {bound}" + ("  integer" if v.is_integer else ""))
        return "\n".join(lines)


OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


@dataclass(frozen=True)
class MilpSolution:
    status: str
    assignment: tuple[Fraction, ...] | None = None
    objective_value: object = None

    def __getitem__(self, j: int) -> Fraction:
        if self.assignment is None:
            raise SolverError(f"no assignment available (status {self.status})")
        return self.assignment[j]


# -- exact simplex -------------------------------------------------------------


def _is_log(c) -> bool:
    return isinstance(c, FormalLog)


class _Pivots:
    """Simplex pivots spent by one solve, shared by all of its tableaux."""

    __slots__ = ("spent", "cap")

    def __init__(self, cap: int):
        self.spent = 0
        self.cap = cap

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.cap:
            raise CapExceededError(f"the exact solve needs more than {self.cap} simplex pivots")


class _Tableau:
    """Sparse simplex tableau over exact rationals, maximizing.

    Each row is a dict from column index to its nonzero entry; a column
    absent from a row holds zero there.  Columns are the structural ones,
    then one slack per inequality row, then one artificial per ``>=`` or
    ``==`` row; phase 1 drops the artificials, and each branching bound
    appends one more slack.  `cost` holds the reduced costs (dense) and `z`
    the objective value of the current basis; both are None until
    `_simplex` first prices the tableau.  Every pivot is charged to
    `pivots`, which the tableaux of one solve share.
    """

    def __init__(self, rows, num_structural: int, pivots: _Pivots):
        # rows: (sparse coeffs {col: nonzero} over structural cols, relation,
        # Fraction rhs).  Pivots mutate rows in place, so each is copied here
        # and the caller's rows stay as they were.
        self.n = num_structural
        self.pivots = pivots
        self.cost = None
        self.z = None
        norm = []
        for coeffs, rel, rhs in rows:
            if rhs < 0:
                entries = {j: -c for j, c in coeffs.items()}
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            else:
                entries = dict(coeffs)
            norm.append((entries, rel, rhs))
        num_slack = sum(1 for _, rel, _ in norm if rel != EQ)
        num_art = sum(1 for _, rel, _ in norm if rel != LE)
        self.art_start = self.n + num_slack
        self.total = self.art_start + num_art
        self.body: list[dict] = []
        self.rhs: list = []
        self.basis: list[int] = []
        s = self.n
        a = self.art_start
        one = Fraction(1)
        for row, rel, rhs in norm:
            if rel == LE:
                row[s] = one
                self.basis.append(s)
                s += 1
            else:
                if rel == GE:
                    row[s] = -one
                    s += 1
                row[a] = one
                self.basis.append(a)
                a += 1
            self.body.append(row)
            self.rhs.append(rhs)

    def copy(self) -> "_Tableau":
        twin = object.__new__(_Tableau)
        twin.__dict__.update(self.__dict__)
        twin.body = [dict(row) for row in self.body]
        twin.rhs = self.rhs[:]
        twin.basis = self.basis[:]
        twin.cost = self.cost[:]
        return twin

    def _pivot(self, i: int, j: int) -> None:
        self.pivots.spend()
        body, rhs = self.body, self.rhs
        piv = body[i][j]
        if piv != 1:
            inv = 1 / Fraction(piv)
            body[i] = {l: x * inv for l, x in body[i].items()}
            rhs[i] *= inv
        row_i = body[i]
        for k, row in enumerate(body):
            f = row.get(j)
            if f is None or k == i:
                continue
            f = -f
            for l, y in row_i.items():
                x = row.get(l)
                if x is None:
                    row[l] = f * y
                else:
                    x += f * y
                    if x:
                        row[l] = x
                    else:
                        del row[l]
            rhs[k] += f * rhs[i]
        self._eliminate(self.cost[j], row_i, rhs[i])
        self.basis[i] = j

    def _eliminate(self, cb, row: dict, rhs) -> None:
        """Subtract cb times a basic row from the reduced costs and objective."""
        if not cb:
            return
        cost = self.cost
        for l, x in row.items():
            cost[l] -= cb * x
        self.z += cb * rhs

    def price(self, objective) -> None:
        """Reduced costs of `objective` (zero past it) for the current basis."""
        zero = objective[0] * 0 if objective else Fraction(0)
        self.cost = list(objective) + [zero] * (self.total - len(objective))
        self.z = zero
        for i, b in enumerate(self.basis):
            self._eliminate(self.cost[b], self.body[i], self.rhs[i])

    def primal(self, allowed: int) -> str:
        """Primal simplex with Bland's rule; columns >= allowed never enter."""
        body, rhs, cost = self.body, self.rhs, self.cost
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(body):
                a = row.get(enter)
                if a is not None and a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def dual(self) -> str:
        """Dual simplex from a dual feasible basis, with a Bland-type rule.

        The leaving row is the one with a negative rhs whose basic column is
        lowest; the entering column has a negative entry there and the least
        ratio cost / entry, the lowest column winning ties.  A leaving row
        with no such column proves the LP infeasible.
        """
        body, rhs, basis, cost = self.body, self.rhs, self.basis, self.cost
        while True:
            leave = -1
            for i, b in enumerate(rhs):
                if b < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            row = body[leave]
            enter = -1
            best = None
            for l in sorted(l for l, a in row.items() if a < 0):
                ratio = cost[l] * (1 / row[l])
                if best is None or best > ratio:
                    best = ratio
                    enter = l
            if enter < 0:
                return INFEASIBLE
            self._pivot(leave, enter)

    def end_phase_one(self) -> None:
        """Drive leftover artificials out of the basis (or drop their redundant
        rows), then drop the artificial columns."""
        art = self.art_start
        for i in range(len(self.body) - 1, -1, -1):
            if self.basis[i] < art:
                continue
            pivot_col = min((l for l in self.body[i] if l < art), default=None)
            if pivot_col is None:
                del self.body[i], self.rhs[i], self.basis[i]
            else:
                self._pivot(i, pivot_col)
        for row in self.body:
            for l in [l for l in row if l >= art]:
                del row[l]
        self.total = art

    def add_bound(self, j: int, relation: str, value: Fraction) -> None:
        """Append x_j <= value (LE) or x_j >= value (GE) for a basic column j.

        The row is written in the current basis: x_j's row substituted for
        x_j, plus a new slack, which is basic and may be negative.  Reduced
        costs do not change, so an optimal tableau stays dual feasible.
        """
        sign = 1 if relation == LE else -1
        r = self.basis.index(j)
        s = self.total
        self.total += 1
        self.cost.append(self.z * 0)
        row = {l: -sign * x for l, x in self.body[r].items() if l != j}
        row[s] = Fraction(1)
        self.body.append(row)
        self.rhs.append(sign * (value - self.rhs[r]))
        self.basis.append(s)


def _simplex(tab: _Tableau, objective):
    """Optimise `tab` in place, maximizing; return (status, assignment or None).

    A fresh tableau (slack and artificial basis, not yet priced) is solved
    cold: phase 1, then phase 2 on `objective` (a list of Fraction, or of
    LogSum for a formal-log objective), both by primal simplex with Bland's
    rule.  A tableau that has been solved to optimality and then given a
    bound by `add_bound` keeps its reduced costs, which are still dual
    feasible, and is re-optimised by the dual simplex; `objective` is
    already priced into it.
    """
    if tab.cost is not None:
        status = tab.dual()
    else:
        if tab.art_start < tab.total:
            # Phase 1: maximize -sum(artificials).
            num_art = tab.total - tab.art_start
            tab.price([Fraction(0)] * tab.art_start + [Fraction(-1)] * num_art)
            if tab.primal(tab.art_start) != OPTIMAL or tab.z != 0:
                return INFEASIBLE, None
            tab.end_phase_one()
        tab.price(objective)
        status = tab.primal(tab.total)
    if status != OPTIMAL:
        return status, None
    values = [Fraction(0)] * tab.n
    for i, b in enumerate(tab.basis):
        if b < tab.n:
            values[b] = tab.rhs[i]
    return OPTIMAL, tuple(values)


def _model_lp_rows(model: MilpModel, extra_rows=()):
    """Model rows plus upper-bound rows, as sparse rational triples for the simplex."""
    rows = []
    for row in model.rows:
        if any(_is_log(c) for c in row.coeffs) or _is_log(row.rhs):
            raise ModelError("constraint rows with formal-log coefficients are not LP-solvable")
        coeffs = {j: Fraction(c) for j, c in enumerate(row.coeffs) if c}
        rows.append((coeffs, row.relation, Fraction(row.rhs)))
    for j, v in enumerate(model.variables):
        if v.upper is not None:
            rows.append(({j: 1}, LE, Fraction(v.upper)))
    rows.extend(extra_rows)
    return rows


def _objective_vector(model: MilpModel, negate: bool = False) -> list:
    """The objective as Fractions, or as LogSums when any coefficient is a formal log."""
    coeffs = model.objective.coeffs
    if any(_is_log(c) for c in coeffs):
        if any(not _is_log(c) and c != 0 for c in coeffs):
            raise ModelError("objective mixes nonzero rational and formal-log coefficients")
        vec = [LogSum.of(c.argument) if _is_log(c) else LogSum.zero() for c in coeffs]
    else:
        vec = [Fraction(c) for c in coeffs]
    return [-c for c in vec] if negate else vec


def _dot(vec: list, assignment: Sequence[Fraction]):
    """sum(c * x), a Fraction or a LogSum like the entries of `vec`."""
    total = vec[0] * 0 if vec else Fraction(0)
    for c, x in zip(vec, assignment):
        if x:
            total += c * x
    return total


def _objective_value(model: MilpModel, assignment: Sequence[Fraction]):
    return _dot(_objective_vector(model), assignment)


def solve_lp_exact(model: MilpModel) -> MilpSolution:
    """Optimal vertex of the LP relaxation (integrality flags ignored).

    Exact two-phase simplex with Bland's anti-cycling rule, within
    `PIVOT_CAP` pivots.  Objectives may carry formal-log coefficients;
    constraint rows must be rational.
    """
    tab = _Tableau(_model_lp_rows(model), model.num_variables, _Pivots(PIVOT_CAP))
    objective = _objective_vector(model, negate=model.objective.sense == "min")
    status, assignment = _simplex(tab, objective)
    if status != OPTIMAL:
        return MilpSolution(status)
    return MilpSolution(OPTIMAL, assignment, _objective_value(model, assignment))


# -- branch and bound ----------------------------------------------------------

# Bits of the first log-row approximation, doubled per restart, and the most
# restarts before `solve_milp` gives up.  One `solve_milp` (or
# `solve_lp_exact`) call spends at most `PIVOT_CAP` simplex pivots over all
# its rounds and nodes, then raises `CapExceededError`.
LOG_START_BITS = 128
LOG_MAX_ROUNDS = 24
PIVOT_CAP = 10**5


class _NeedsMorePrecision(Exception):
    pass


def _split_log_rows(model: MilpModel):
    """Separate structured formal-log rows from plain rational rows."""
    log_rows = []
    plain = []
    int_cols = set(model.integer_columns())
    for idx, row in enumerate(model.rows):
        has_log = any(_is_log(c) for c in row.coeffs) or _is_log(row.rhs)
        if not has_log:
            plain.append(row)
            continue
        if row.relation != GE or not _is_log(row.rhs):
            raise ModelError("formal-log rows must be '>=' with a formal-log right-hand side")
        support = []
        for j, c in enumerate(row.coeffs):
            if _is_log(c):
                support.append((j, c.argument))
            elif c != 0:
                raise ModelError("formal-log rows cannot mix rational coefficients")
        if any(j not in int_cols for j, _ in support):
            raise ModelError("formal-log rows may involve integer columns only")
        log_rows.append((support, row.rhs.argument))
    return plain, log_rows


def _approx_log_row(support, rhs_arg: Fraction, bits: int):
    """Sparse rational outer approximation of sum(x_j * ln q_j) >= ln(rhs_arg)."""
    coeffs = {j: hi for j, arg in support if (hi := ln_bounds(arg, bits)[1])}
    return coeffs, GE, ln_bounds(rhs_arg, bits)[0]


def _log_row_satisfied(support, rhs_arg: Fraction, assignment) -> bool:
    product = Fraction(1)
    for j, arg in support:
        e = assignment[j]
        if e.denominator != 1:
            raise SolverError("exact log check requires integral values")
        product *= arg ** int(e)
    return product >= rhs_arg


def solve_milp(model: MilpModel) -> MilpSolution:
    """Exact branch-and-bound over LP relaxations.

    Integer variables must carry finite upper bounds.  Branching is
    deterministic: depth-first, lowest fractional integer column first,
    floor branch first.  An unbounded relaxation is reported as unbounded.
    More than `PIVOT_CAP` pivots in all raise `CapExceededError`.
    """
    for v in model.variables:
        if v.is_integer and v.upper is None:
            raise ModelError(f"integer variable {v.name} needs a finite upper bound")
    plain_rows, log_rows = _split_log_rows(model)
    base_model = MilpModel(model.variables, tuple(plain_rows), model.objective)
    bits = LOG_START_BITS
    pivots = _Pivots(PIVOT_CAP)
    for _ in range(LOG_MAX_ROUNDS):
        try:
            return _branch_and_bound(model, base_model, log_rows, bits, pivots)
        except _NeedsMorePrecision:
            bits *= 2
    raise SolverError("log-row approximation failed to converge")


def _branch_and_bound(model, base_model, log_rows, bits: int, pivots: _Pivots) -> MilpSolution:
    """One precision round: a cold root, then children re-optimised warm."""
    n = model.num_variables
    objective = _objective_vector(base_model, negate=model.objective.sense == "min")
    approx = [_approx_log_row(sup, rhs, bits) for sup, rhs in log_rows]
    base_rows = _model_lp_rows(base_model, extra_rows=approx)
    int_cols = model.integer_columns()

    incumbent = None
    incumbent_val = None
    nodes = [_Tableau(base_rows, n, pivots)]
    while nodes:
        tab = nodes.pop()
        status, assignment = _simplex(tab, objective)
        if status == INFEASIBLE:
            continue
        if status == UNBOUNDED:
            return MilpSolution(UNBOUNDED)
        if incumbent_val is not None and not tab.z > incumbent_val:
            continue
        frac_col = next((j for j in int_cols if assignment[j].denominator != 1), None)
        if frac_col is not None:
            # Both children start from this optimal tableau: the ceiling one
            # from a copy, the floor one (explored first) in place.
            v = assignment[frac_col] // 1
            ceil = tab.copy()
            ceil.add_bound(frac_col, GE, Fraction(v + 1))
            tab.add_bound(frac_col, LE, Fraction(v))
            nodes += (ceil, tab)
            continue
        if not all(_log_row_satisfied(sup, rhs, assignment) for sup, rhs in log_rows):
            raise _NeedsMorePrecision
        incumbent = assignment
        incumbent_val = tab.z
    if incumbent is None:
        return MilpSolution(INFEASIBLE)
    return MilpSolution(OPTIMAL, incumbent, _objective_value(model, incumbent))


# -- total unimodularity -------------------------------------------------------


def is_totally_unimodular(matrix: Sequence[Sequence], cap: int = 12) -> bool:
    """True iff every square submatrix has determinant in {-1, 0, 1}.

    Decided via the Ghouila-Houri row-signing criterion, which is equivalent
    to the subdeterminant definition; the dimension cap keeps the exponential
    sweep at desk scale.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m > cap or n > cap:
        raise CapExceededError(f"matrix {m}x{n} exceeds the {cap}x{cap} cap")
    if any(len(r) != n for r in rows):
        raise ModelError("ragged matrix")
    entries = [[int(x) if Fraction(x) in (-1, 0, 1) else None for x in r] for r in rows]
    if any(x is None for r in entries for x in r):
        return False
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if not _has_equitable_signing([entries[i] for i in subset], n):
                return False
    return True


def _has_equitable_signing(rows: list[list[int]], n: int) -> bool:
    """Is there a +/-1 signing of `rows` with all column sums in {-1, 0, 1}?"""
    m = len(rows)
    suffix = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for j in range(n):
            suffix[i][j] = suffix[i + 1][j] + abs(rows[i][j])

    cur = [0] * n

    def feasible(i: int) -> bool:
        if i == m:
            return all(-1 <= s <= 1 for s in cur)
        for sign in (1, -1) if i else (1,):  # first row sign fixed by symmetry
            ok = True
            for j in range(n):
                if rows[i][j]:
                    cur[j] += sign * rows[i][j]
                    if abs(cur[j]) > 1 + suffix[i + 1][j]:
                        ok = False
            if ok and feasible(i + 1):
                return True
            for j in range(n):
                if rows[i][j]:
                    cur[j] -= sign * rows[i][j]
            if not ok:
                continue
        return False

    return feasible(0)


# -- integral rounding (all-integer optimum from a mixed one) -------------------


def integralize_solution(model: MilpModel, mixed: MilpSolution) -> MilpSolution:
    """Round a mixed optimum to an all-integer one of equal objective value.

    Requires integral values on the integer columns, a totally unimodular
    fractional-column submatrix (caller-asserted), integral residual
    right-hand sides, and the row convention that all rows touching
    fractional columns form the tail block of the model.  An optimum whose
    every column is already integral is returned as it is; this is always
    the case for a vertex, such as the incumbent of `solve_milp`, under these
    preconditions.  Only a mixed optimum that is not a vertex is rounded: the
    restricted LP over the fractional columns is re-solved to a vertex, which
    is then integral, and spliced back in.
    """
    if mixed.status != OPTIMAL or mixed.assignment is None:
        raise SolverError("integralize_solution requires an optimal mixed solution")
    frac_cols = model.fractional_columns()
    int_cols = model.integer_columns()
    touching = [
        i
        for i, row in enumerate(model.rows)
        if any(_is_log(row.coeffs[j]) or row.coeffs[j] != 0 for j in frac_cols)
    ]
    if touching and touching != list(range(len(model.rows) - len(touching), len(model.rows))):
        raise ModelError("rows touching fractional columns must form the tail block")
    if all(x.denominator == 1 for x in mixed.assignment):
        return mixed

    sub_vars = tuple(model.variables[j] for j in frac_cols)
    sub_rows = []
    for i in touching:
        row = model.rows[i]
        residual = Fraction(row.rhs)
        for j in int_cols:
            c = row.coeffs[j]
            if c != 0:
                residual -= Fraction(c) * mixed.assignment[j]
        sub_rows.append(MilpRow(tuple(row.coeffs[j] for j in frac_cols), row.relation, residual))
    sub_obj = MilpObjective(
        tuple(model.objective.coeffs[j] for j in frac_cols), model.objective.sense
    )
    restricted = MilpModel(sub_vars, tuple(sub_rows), sub_obj)
    sub = solve_lp_exact(restricted)
    if sub.status != OPTIMAL:
        raise SolverError(f"restricted LP is {sub.status}; integralize preconditions violated")

    merged = list(mixed.assignment)
    for pos, j in enumerate(frac_cols):
        merged[j] = sub.assignment[pos]
    merged_t = tuple(merged)
    return MilpSolution(OPTIMAL, merged_t, _objective_value(model, merged_t))
