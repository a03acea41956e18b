"""Exact rational LP/MILP engine with formal-logarithm cost handling.

Everything here is exact.  A tableau row is an integer vector over one row
denominator, sparse (a map from column to nonzero int numerator, so a pivot
touches nonzeros only) and reduced by one gcd after every update.  The
reduced costs are rows of the same form, updated by the same step: one row
for a rational objective, one per distinct log argument for a formal-log
objective, read from the model's `MilpObjective` as it is.  Logarithmic
quantities are never evaluated numerically.  A coefficient ``log q`` is
carried as `FormalLog(q)`, and the sign of a combination sum(e * log q) is
one exact comparison of integer powers (`_ln_sign`), with the exponents
divided by their gcd first, so every pivoting and bounding decision that
involves logarithms reduces to big-integer arithmetic, and one simplex and
one branch and bound serve rational and formal-log objectives alike.
Values leave the tableau as `fractions.Fraction`, and the objective value
as a `Fraction` or, for a formal-log objective, a `LogSum`.

Formal logs are allowed in objectives, where only *comparisons* of log
combinations are ever needed.  They are rejected inside LP constraint rows:
pivoting on an irrational entry would leave the rational field, so no exact
vertex could be reported.  `solve_milp` does accept one structured exception,
a ``>=`` row whose coefficients are formal logs on integer columns only
(the shape produced by the probability-threshold model).  Such a row is
replaced by a certified dyadic outer approximation for the relaxations and
re-checked exactly (as a rational product inequality) whenever a candidate
incumbent has integral values; if the approximation ever admits a spurious
candidate, its precision is doubled and the search restarts.

Branch and bound is depth-first with deterministic branching, floor branch
first.  It splits the sum of the first of the model's branch groups (sets
of interchangeable integer columns) whose sum is fractional, else the
lowest fractional integer column.  Splitting an orbit's sum first is
orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, 2011): it
closes the symmetric subtrees that splitting one member at a time leaves
open.  One dual simplex with a Bland-type rule is the only way to primal
feasibility.  Each precision round solves its root cold: the dual simplex
under zero costs (dual feasible in every basis) reaches a feasible basis,
and primal simplex with Bland's rule (termination over speed) then
optimises.  A child starts from its parent's final tableau with its bound
on a column or a group sum appended as one row, which leaves the basis
dual feasible, and is re-optimised by the same dual simplex.  `PIVOT_CAP`
bounds the pivots of one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceededError, ModelError, SolverError

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)


# -- formal logarithms --------------------------------------------------------


def _rational(x) -> bool:
    """Is `x` an int or a Fraction?  A bool is not: True would read as 1."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@dataclass(frozen=True)
class FormalLog:
    """The value log(argument) for a positive int or Fraction, unevaluated."""

    argument: Fraction

    def __post_init__(self) -> None:
        if not _rational(self.argument):
            raise ModelError(f"formal log argument {self.argument!r} is not an int or a Fraction")
        if self.argument <= 0:
            raise ModelError(f"formal log argument must be positive, got {self.argument}")
        object.__setattr__(self, "argument", Fraction(self.argument))

    def __repr__(self) -> str:
        return f"log({self.argument})"


class LogSum:
    """Exact linear combination sum(coeff * log(arg)) of formal logarithms.

    Formal-log objective values leave the tableau as LogSums, which branch
    and bound compares; models carry `FormalLog` coefficients instead.
    Comparisons reduce to exact integer product comparisons (`_ln_sign`):
    after clearing denominators, sum(m_i * log(q_i)) >= 0 holds iff the
    product of q_i**m_i over positive m_i is at least the product over
    negative m_i.

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
        """Exact sign of the represented real number (`_ln_sign`)."""
        return _ln_sign([
            (a.numerator, a.denominator, c.numerator, c.denominator) for a, c in self.terms.items()
        ])

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


def _is_log(c) -> bool:
    return isinstance(c, FormalLog)


def _ln_sign(terms) -> int:
    """Exact sign of sum(num / den * ln(p / q)) over (p, q, num, den) in
    `terms`, for ints p, q, den > 0 with p != q and num != 0.

    Terms that all have one sign decide it at once.  Otherwise the
    coefficients are scaled by the lcm of their denominators to int
    exponents e, which are divided by their gcd, and the sign is that of
    prod((p / q)**e) - 1: one comparison of two int products.
    """
    pos = neg = False
    for p, q, num, _ in terms:
        if (num > 0) == (p > q):
            pos = True
        else:
            neg = True
    if not (pos and neg):
        return pos - neg
    den = math.lcm(*(t[3] for t in terms))
    exps = [num * (den // d) for _, _, num, d in terms]
    g = math.gcd(*exps)
    up = down = 1
    for (p, q, _, _), e in zip(terms, exps):
        e //= g
        if e > 0:
            up *= p**e
            down *= q**e
        else:
            up *= q**-e
            down *= p**-e
    return (up > down) - (up < down)


@lru_cache(maxsize=None)
def ln_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Certified dyadic bounds lo <= ln(q) <= hi with width below 2**-bits.

    For q > 1 write q = r * 2**k with r in [1, 2), and let a_lo / 2**w and
    a_hi / 2**w be the floor and the ceiling of r on the grid 2**-w.  ln is
    increasing, so ln(a_lo / 2**w) + k ln 2 bounds ln(q) below and the
    ceiling's sum bounds it above; each log is summed on ints at w bits
    (`_atanh2`).  w starts at bits + bitlen(k) + 16 and grows until the
    bracket is narrow enough.  q < 1 is bounded through 1/q.
    """
    q = Fraction(q)
    if q <= 0:
        raise ModelError(f"ln_bounds requires a positive argument, got {q}")
    if q == 1:
        return Fraction(0), Fraction(0)
    if q < 1:
        lo, hi = ln_bounds(1 / q, bits)
        return -hi, -lo
    num, den = q.numerator, q.denominator
    k = num.bit_length() - den.bit_length()
    if den << k > num:
        k -= 1
    w = bits + k.bit_length() + 16
    while True:
        one = 1 << w
        a_lo, rest = divmod(num << w, den << k)
        a_hi = a_lo + (rest != 0)
        lo = _atanh2(a_lo - one, a_lo + one, w, False) + k * _ln2(w, False)
        hi = _atanh2(a_hi - one, a_hi + one, w, True) + k * _ln2(w, True)
        if (hi - lo) << bits < one:
            return Fraction(lo, one), Fraction(hi, one)
        w += 16


def _div(a: int, b: int, up: bool) -> int:
    """a / b rounded up or down to an int, for b > 0."""
    return -(-a // b) if up else a // b


def _atanh2(x: int, y: int, w: int, up: bool) -> int:
    """A bound on 2**w * ln((y + x) / (y - x)) = 2**w * 2 atanh(x/y), above
    if `up` and below otherwise, for 0 <= x/y <= 1/3.

    The series 2 * sum z**(2i+1) / (2i+1) is summed on ints at w fractional
    bits, every division rounded the same way.  Rounded down, the partial
    sum is a lower bound.  Rounded up, the sum stops once the next power is
    at most one unit and adds 9/8 of it: the terms left sum to at most that
    power times 1 / (1 - z**2) <= 9/8.
    """
    one = 1 << w
    power = _div(x << w, y, up)
    z2 = _div(power * power, one, up)
    total, i = 0, 1
    while power > up:
        total += _div(power, i, up)
        power = _div(power * z2, one, up)
        i += 2
    if up:
        total += _div(9 * power, 8, up)
    return 2 * total


@lru_cache(maxsize=None)
def _ln2(w: int, up: bool) -> int:
    """A bound on 2**w * ln 2 as ln(4/3) + ln(3/2), above if `up`."""
    return _atanh2(1, 7, w, up) + _atanh2(1, 5, w, up)


# -- model types ---------------------------------------------------------------


def _nonzero_entries(coeffs, *values) -> dict:
    """`coeffs` (a dict column -> coefficient) without its zero entries,
    once it and `values` are checked to hold ints, Fractions and FormalLogs
    only (`_rational`).  The FormalLog test goes first: `_rational`'s
    isinstance check on `Fraction`, an ABC, is slow to refuse a FormalLog."""
    if not isinstance(coeffs, dict):
        raise ModelError(f"coefficients {coeffs!r} are not a dict from column index to value")
    for c in (*coeffs.values(), *values):
        if not (_is_log(c) or _rational(c)):
            raise ModelError(f"model value {c!r} is not an int, a Fraction or a FormalLog")
    return {j: c for j, c in coeffs.items() if c != 0}


@dataclass(frozen=True)
class MilpVariable:
    """A nonnegative variable; lower bound is fixed at 0."""

    name: str
    is_integer: bool = False
    upper: Fraction | int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.is_integer, bool):
            raise ModelError(f"is_integer {self.is_integer!r} is not a bool")
        if self.upper is not None and not _rational(self.upper):
            raise ModelError(f"upper bound {self.upper!r} is not an int or a Fraction")


@dataclass(frozen=True)
class MilpRow:
    """The constraint sum(coeffs[j] * x_j) `relation` `rhs`.

    `coeffs` is a dict from each column index to its nonzero coefficient; a
    column absent from it has coefficient 0, and zero entries are dropped
    here.  A coefficient or rhs is an int (not a bool), a Fraction or a
    FormalLog, and a column index an int.
    """

    coeffs: dict
    relation: str
    rhs: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _nonzero_entries(self.coeffs, self.rhs))
        if self.relation not in _RELATIONS:
            raise ModelError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class MilpObjective:
    """Maximize or minimize sum(coeffs[j] * x_j).

    `coeffs` is a dict from each column index to its nonzero coefficient,
    as in `MilpRow`.  The coefficients are all rational or all formal logs.
    """

    coeffs: dict
    sense: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _nonzero_entries(self.coeffs))
        if self.sense not in ("max", "min"):
            raise ModelError(f"objective sense must be 'max' or 'min', got {self.sense!r}")


@dataclass(frozen=True)
class MilpModel:
    """A MILP over nonnegative columns.

    `branch_groups` are sets of integer columns whose sum branch and bound
    splits before any single column (see `solve_milp`); they add no row and
    no column, and the default is none.
    """

    variables: tuple[MilpVariable, ...]
    rows: tuple[MilpRow, ...]
    objective: MilpObjective
    branch_groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "branch_groups", tuple(map(tuple, self.branch_groups)))
        n = len(self.variables)
        for i, row in enumerate((self.objective, *self.rows)):
            bad = [j for j in row.coeffs if not (type(j) is int and 0 <= j < n)]
            if bad:
                what = f"row {i - 1}" if i else "objective"
                raise ModelError(
                    f"{what} has an entry on column {bad[0]!r}, not an int in 0..{n - 1}"
                )
        int_cols = set(self.integer_columns())
        for group in self.branch_groups:
            if (not group or len(set(group)) < len(group) or not int_cols.issuperset(group)
                    or any(type(j) is not int for j in group)):
                raise ModelError(f"branch group {group!r} is not a set of integer columns")

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
            parts = [f"{fmt(c)} {self.variables[j].name}" for j, c in sorted(coeffs.items())]
            return " + ".join(parts) if parts else "0"

        lines = [f"{self.objective.sense} {terms(self.objective.coeffs)}", "s.t."]
        for row in self.rows:
            lines.append(f"  {terms(row.coeffs)} {row.relation} {fmt(row.rhs)}")
        for v in self.variables:
            bound = f"0 <= {v.name}" + (f" <= {v.upper}" if v.upper is not None else "")
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


def _reduced(row: dict, rhs: int, den: int) -> tuple[dict, int, int]:
    """An integer row divided by the gcd of its denominator, rhs and entries."""
    g = math.gcd(den, rhs, *row.values())
    if g == 1:
        return row, rhs, den
    return {l: x // g for l, x in row.items()}, rhs // g, den // g


def _clear(rows: list, rhs: list, den: list, j: int, row_i: dict, rhs_i: int, p: int,
           skip: int = -1) -> None:
    """Eliminate column j from every row of (`rows`, `rhs`, `den`) but `skip`
    by the pivot row (`row_i`, `rhs_i`) over `p`, whose entry at j is p > 0.

    Row k becomes (row_k * p - f * row_i) / (den_k * p), f its entry at j,
    with p and f divided by their gcd first, and is then reduced by its gcd.
    Constraint rows and objective rows are updated by this one step.
    """
    for k, row in enumerate(rows):
        f = row.get(j)
        if f is None or k == skip:
            continue
        g = math.gcd(p, f)
        q, f = p // g, f // g
        if q != 1:
            row = {l: x * q for l, x in row.items()}
        for l, y in row_i.items():
            x = row.get(l, 0) - f * y
            if x:
                row[l] = x
            else:
                del row[l]
        rows[k], rhs[k], den[k] = _reduced(row, rhs[k] * q - f * rhs_i, den[k] * q)


class _Tableau:
    """Sparse simplex tableau over exact rationals, maximizing.

    Row i is an integer vector over one row denominator: `body[i]` maps each
    column to its nonzero int numerator (a column absent from a row holds
    zero there), `rhs[i]` is an int and `den[i]` an int > 0, so the row reads
    body[i] / den[i] and rhs[i] / den[i].  A basic column's entry equals its
    row's `den`, and after every update a row is divided by the gcd of its
    denominator, rhs and entries (fraction-free in the manner of Edmonds,
    1967, one row at a time).  Columns are the structural ones, then one
    slack per inequality row (a ``>=`` row is negated into ``<=`` form),
    and each branching bound appends one more slack.  A slack starts basic
    and may be negative; an ``==`` row starts with no basic column, marked
    -1 in `basis` until `feasible` gives it one.

    The reduced costs are integer rows of the same form, updated by the same
    step (`_clear`): `cost[k]`, `cost_rhs[k]` and `cost_den[k]`, whose rhs is
    the numerator of -z.  A rational objective is one row.  A formal-log
    objective is one row per distinct log argument, `args[k]`, and the
    reduced cost of column l is sum(cost[k][l] / cost_den[k] * log args[k]);
    its sign is one exact power comparison (`_ln_sign`).  `args` is None for
    a rational objective.  `cost` is None until `_simplex` first solves the
    tableau, and `z` reads the objective value of the current basis as a
    Fraction or a `LogSum`.  Every pivot is charged to `pivots`, which the
    tableaux of one solve share.
    """

    def __init__(self, rows, num_structural: int, pivots: _Pivots):
        # rows: (coeffs {structural col: nonzero int or Fraction}, relation,
        # rhs), as a `MilpRow` holds them.  Each row is scaled by the lcm of
        # its denominators, and a ``>=`` row is negated into ``<=`` form.
        self.n = num_structural
        self.pivots = pivots
        self.cost = None
        self.cost_rhs: list[int] = []
        self.cost_den: list[int] = []
        self.args = None
        self.body: list[dict] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        s = self.n
        for coeffs, rel, rhs in rows:
            den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            scale = -den if rel == GE else den
            row = {j: int(c * scale) for j, c in coeffs.items()}
            if rel == EQ:
                self.basis.append(-1)
            else:
                row[s] = den
                self.basis.append(s)
                s += 1
            self._append(row, int(rhs * scale), den)
        self.total = s

    def _append(self, row: dict, rhs: int, den: int) -> None:
        row, rhs, den = _reduced(row, rhs, den)
        self.body.append(row)
        self.rhs.append(rhs)
        self.den.append(den)

    @property
    def z(self):
        """The objective value of the current basis; None before pricing."""
        if self.cost is None:
            return None
        if self.args is None:
            return Fraction(-self.cost_rhs[0], self.cost_den[0])
        terms = zip(self.args, self.cost_rhs, self.cost_den)
        return LogSum({a: Fraction(-r, d) for a, r, d in terms})

    def copy(self) -> "_Tableau":
        twin = object.__new__(_Tableau)
        twin.__dict__.update(self.__dict__)
        twin.body = [dict(row) for row in self.body]
        twin.rhs = self.rhs[:]
        twin.den = self.den[:]
        twin.basis = self.basis[:]
        twin.cost = [dict(row) for row in self.cost]
        twin.cost_rhs = self.cost_rhs[:]
        twin.cost_den = self.cost_den[:]
        return twin

    def _pivot(self, i: int, j: int) -> None:
        self.pivots.spend()
        row_i, rhs_i = self.body[i], self.rhs[i]
        p = row_i[j]
        if p < 0:
            row_i, rhs_i, p = {l: -x for l, x in row_i.items()}, -rhs_i, -p
        row_i, rhs_i, p = _reduced(row_i, rhs_i, p)
        self.body[i], self.rhs[i], self.den[i] = row_i, rhs_i, p
        _clear(self.body, self.rhs, self.den, j, row_i, rhs_i, p, i)
        _clear(self.cost, self.cost_rhs, self.cost_den, j, row_i, rhs_i, p)
        self.basis[i] = j

    def price(self, objective: MilpObjective) -> None:
        """Objective rows of the `MilpObjective` for the current basis, to
        maximize: one row of its rational coefficients, or one row per
        distinct argument q != 1 with 1 on each column of coefficient log q,
        all negated for a 'min' sense."""
        sign = -1 if objective.sense == "min" else 1
        if _log_objective(objective):
            by_arg: dict = {}
            for j, c in objective.coeffs.items():
                if c.argument != 1:
                    by_arg.setdefault(c.argument, {})[j] = sign
            self.args = tuple(by_arg)
            rows = list(by_arg.values())
        else:
            self.args = None
            rows = [{j: c * sign for j, c in objective.coeffs.items()}]
        self.cost, self.cost_rhs, self.cost_den = [], [], []
        for coeffs in rows:
            den = math.lcm(*(c.denominator for c in coeffs.values()))
            row = {j: c.numerator * (den // c.denominator) for j, c in coeffs.items()}
            row, rhs, den = _reduced(row, 0, den)
            self.cost.append(row)
            self.cost_rhs.append(rhs)
            self.cost_den.append(den)
        for i, b in enumerate(self.basis):
            _clear(self.cost, self.cost_rhs, self.cost_den,
                   b, self.body[i], self.rhs[i], self.den[i])

    def _sign(self, combine) -> int:
        """Sign of a combination of reduced costs.  `combine` maps one
        objective row to an int: the combination is that int for a rational
        objective, and sum(combine(cost[k]) / cost_den[k] * log args[k]) for
        a formal-log one, whose sign is one `_ln_sign`."""
        if self.args is None:
            x = combine(self.cost[0])
            return (x > 0) - (x < 0)
        terms = []
        for a, row, den in zip(self.args, self.cost, self.cost_den):
            num = combine(row)
            if num:
                terms.append((a.numerator, a.denominator, num, den))
        return _ln_sign(terms)

    def primal(self) -> str:
        """Primal simplex with Bland's rule from a primal feasible basis."""
        body, rhs, cost = self.body, self.rhs, self.cost
        while True:
            # The lowest column with a positive reduced cost, among the
            # columns that have a nonzero entry in an objective row.
            if self.args is None:
                enter = min((l for l, c in cost[0].items() if c > 0), default=-1)
            else:
                enter = next(
                    (l for l in sorted(set().union(*cost))
                     if self._sign(lambda row: row.get(l, 0)) > 0),
                    -1,
                )
            if enter < 0:
                return OPTIMAL
            # Least ratio rhs / a: the row denominator cancels, and the
            # ratios are compared by cross-multiplying their positive a.
            leave = -1
            for i, row in enumerate(body):
                a = row.get(enter)
                if a is not None and a > 0:
                    if leave >= 0:
                        here, there = rhs[i] * best_a, rhs[leave] * a
                        if here > there or (here == there and self.basis[i] > self.basis[leave]):
                            continue
                    leave, best_a = i, a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def dual(self) -> str:
        """Dual simplex from a dual feasible basis, with a Bland-type rule.

        The leaving row is the one with a negative rhs whose basic column is
        lowest; the entering column has a negative entry a there and the
        least ratio cost / a, the lowest column winning ties.  Two ratios
        are compared by cross-multiplying their entries (both negative), so
        a rational comparison is one of ints and a formal-log one is one
        `_ln_sign`.  A leaving row with no such column proves the LP
        infeasible.
        """
        body, rhs, basis = self.body, self.rhs, self.basis
        while True:
            leave = -1
            for i, b in enumerate(rhs):
                if b < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            row = body[leave]
            enter = -1
            for l, a in row.items():
                if a >= 0:
                    continue
                if enter >= 0:
                    # The sign of cost_l / a - cost_e / a_e, times a * a_e > 0.
                    e, a_e = enter, row[enter]
                    s = self._sign(lambda r: r.get(l, 0) * a_e - r.get(e, 0) * a)
                    if s > 0 or (s == 0 and l > e):
                        continue
                enter = l
            if enter < 0:
                return INFEASIBLE
            self._pivot(leave, enter)

    def feasible(self) -> str:
        """Phase 1 of a fresh tableau: reach a primal feasible basis, or
        prove there is none, by the dual simplex under zero costs.

        Zero reduced costs are dual feasible in every basis.  Each ``==``
        row, which has no basic column yet, first pivots on its lowest
        column: earlier pivots have eliminated every basic column from it,
        so that column is basic nowhere else.  An ``==`` row left with no
        entries is redundant and is deleted; its rhs must then be zero.
        Every ``==`` row is handled before returning, so each row keeps a
        basic column even when the LP is infeasible.
        """
        self.cost, self.cost_rhs, self.cost_den, self.args = [{}], [0], [1], None
        consistent = True
        i = 0
        while i < len(self.body):
            if self.basis[i] < 0:
                if not self.body[i]:
                    consistent = consistent and not self.rhs[i]
                    del self.body[i], self.rhs[i], self.den[i], self.basis[i]
                    continue
                self._pivot(i, min(self.body[i]))
            i += 1
        return self.dual() if consistent else INFEASIBLE

    def add_bound(self, cols, relation: str, value: Fraction) -> None:
        """Append sum(x_j for j in cols) <= value (LE) or >= value (GE).

        The row is written in the current basis: each basic member's row is
        substituted for it, a nonbasic member is taken as it is, and a new
        slack is added, which is basic and may be negative.  Reduced costs
        do not change (the new slack has none), so an optimal tableau stays
        dual feasible.
        """
        sign = 1 if relation == LE else -1
        where = {b: i for i, b in enumerate(self.basis)}
        subs = [where[j] for j in cols if j in where]
        # Scaled by the lcm of the bound's and the substituted rows' denominators.
        den = math.lcm(value.denominator, *(self.den[r] for r in subs))
        row = {j: sign * den for j in cols if j not in where}
        rhs = sign * value.numerator * (den // value.denominator)
        for r in subs:
            f = -sign * (den // self.den[r])
            for l, x in self.body[r].items():
                if l != self.basis[r]:
                    row[l] = row.get(l, 0) + f * x
            rhs += f * self.rhs[r]
        row = {l: x for l, x in row.items() if x}
        s = self.total
        self.total += 1
        row[s] = den
        self.basis.append(s)
        self._append(row, rhs, den)


def _simplex(tab: _Tableau, objective: MilpObjective):
    """Optimise `tab` in place for the `MilpObjective`, maximizing (a 'min'
    objective negated); return (status, assignment or None).

    A fresh tableau (slack basis, not yet priced) is solved cold: phase 1
    by `feasible`, the dual simplex under zero costs, then phase 2 on
    `objective`, priced into the tableau's integer objective rows, by primal
    simplex with Bland's rule.  A tableau that has been solved to optimality
    and then given a bound by `add_bound` keeps its objective rows, which
    are still dual feasible, and is re-optimised by the dual simplex;
    `objective` is already priced into it.
    """
    if tab.cost is not None:
        status = tab.dual()
    else:
        status = tab.feasible()
        if status == OPTIMAL:
            tab.price(objective)
            status = tab.primal()
    if status != OPTIMAL:
        return status, None
    values = [Fraction(0)] * tab.n
    for i, b in enumerate(tab.basis):
        if b < tab.n:
            values[b] = Fraction(tab.rhs[i], tab.den[i])
    return OPTIMAL, tuple(values)


def _log_objective(objective: MilpObjective) -> bool:
    """Are the coefficients of `objective` formal logs?  A mix of formal-log
    and rational coefficients raises `ModelError`."""
    logs = sum(map(_is_log, objective.coeffs.values()))
    if 0 < logs < len(objective.coeffs):
        raise ModelError("objective mixes nonzero rational and formal-log coefficients")
    return logs > 0


# -- branch and bound ----------------------------------------------------------

# Bits of the first log-row approximation, doubled per restart, and the most
# restarts before `solve_milp` gives up.  One `solve_milp` call spends at
# most `PIVOT_CAP` simplex pivots over all its rounds and nodes, then raises
# `CapExceededError`.
LOG_START_BITS = 128
LOG_MAX_ROUNDS = 24
PIVOT_CAP = 10**5


class _NeedsMorePrecision(Exception):
    pass


def _split_log_rows(model: MilpModel, int_cols: set):
    """The model's rational rows as (coeffs, relation, rhs), each row over
    integer columns `int_cols` with int coefficients divided by their gcd
    (`solve_milp`), and its structured formal-log rows."""
    log_rows = []
    plain = []
    for row in model.rows:
        coeffs, rel, rhs = row.coeffs, row.relation, row.rhs
        logs = sum(map(_is_log, coeffs.values()))
        if not logs and not _is_log(rhs):
            if (coeffs and int_cols.issuperset(coeffs)
                    and all(type(c) is int for c in coeffs.values())):
                g = math.gcd(*coeffs.values())
                if rel == EQ and rhs % g:
                    coeffs, rhs = {}, 1  # 0 == 1: no integer point satisfies the row
                elif g > 1 or type(rhs) is not int:
                    coeffs = {j: c // g for j, c in coeffs.items()}
                    rhs = -(-rhs // g) if rel == GE else rhs // g
            plain.append((coeffs, rel, rhs))
            continue
        if rel != GE or not _is_log(rhs):
            raise ModelError("formal-log rows must be '>=' with a formal-log right-hand side")
        if logs < len(coeffs):
            raise ModelError("formal-log rows cannot mix rational coefficients")
        if not int_cols.issuperset(coeffs):
            raise ModelError("formal-log rows may involve integer columns only")
        log_rows.append(row)
    return plain, log_rows


def _approx_log_row(row: MilpRow, bits: int):
    """Sparse rational outer approximation of the row sum(x_j * log q_j) >= log t.

    Each coefficient is an upper bound on ln q_j rounded up, and the
    right-hand side a lower bound on ln t rounded down, to the grid
    2**-bits, so the row's denominator is at most 2**bits.
    """
    grid = 1 << bits
    coeffs = {j: math.ceil(ln_bounds(c.argument, bits)[1] * grid) for j, c in row.coeffs.items()}
    rhs = Fraction(math.floor(ln_bounds(row.rhs.argument, bits)[0] * grid), grid)
    return {j: Fraction(c, grid) for j, c in coeffs.items() if c}, GE, rhs


def _log_row_satisfied(row: MilpRow, assignment) -> bool:
    """Exactly prod(q_j ** x_j) >= t, for the row and an integral assignment."""
    product = Fraction(1)
    for j, c in row.coeffs.items():
        e = assignment[j]
        if e.denominator != 1:
            raise SolverError("exact log check requires integral values")
        product *= c.argument ** int(e)
    return product >= row.rhs.argument


def solve_milp(model: MilpModel) -> MilpSolution:
    """Exact branch-and-bound over LP relaxations.

    Integer variables must carry finite upper bounds.  Branching is
    deterministic and depth-first, floor branch first.  A node with a
    fractional integer column branches on the first of `model.branch_groups`
    whose sum s is fractional (sum <= floor(s), then sum >= ceil(s)), and on
    the lowest fractional integer column when no group sum is fractional.
    The objective value is read from the incumbent node's final tableau.
    An unbounded relaxation is reported as unbounded.  More than `PIVOT_CAP`
    pivots in all raise `CapExceededError`.  An objective that mixes
    rational and formal-log coefficients raises `ModelError`, and so does a
    formal-log one with a formal-log row: the row's dyadic coefficients
    would enter the formal-log reduced costs as exponents too large to
    compare.

    Two exact presolve rules (Achterberg, Bixby, Gu, Rothberg and
    Weninger, "Presolve reductions in mixed integer programming", 2020)
    tighten the relaxations without changing the integer points or the
    optimum.  Row gcd: a rational row whose columns are all integer and
    whose coefficients are all `int` is divided by their gcd g, the rhs of
    a ``<=`` row rounded down and that of a ``>=`` row up, and an ``==``
    row whose rhs g does not divide makes the model infeasible.  Every
    other row, one with a `Fraction` coefficient or a continuous column
    among them, is left as it is.  Objective grid: when every objective
    coefficient is an `int`, with gcd g, and `integrality_defect(model)` is
    None, every integral vertex has its objective value on gZ, so a node
    whose bound is below incumbent + g cannot improve on the incumbent and
    is pruned.  The check runs at most once per solve, when a bound first
    falls within that window.
    """
    int_cols, bounds = [], []
    for j, v in enumerate(model.variables):
        if v.is_integer:
            if v.upper is None:
                raise ModelError(f"integer variable {v.name} needs a finite upper bound")
            int_cols.append(j)
        if v.upper is not None:
            bounds.append(({j: 1}, LE, v.upper))
    plain, log_rows = _split_log_rows(model, set(int_cols))
    if _log_objective(model.objective) and log_rows:
        raise ModelError("a formal-log objective cannot be combined with formal-log rows")
    obj = model.objective.coeffs.values()
    grid = [math.gcd(*obj) if all(type(c) is int for c in obj) else 0, model]
    rows = plain + bounds
    bits = LOG_START_BITS
    pivots = _Pivots(PIVOT_CAP)
    for _ in range(LOG_MAX_ROUNDS):
        try:
            status, incumbent, z = _branch_and_bound(
                model, rows, log_rows, int_cols, bits, pivots, grid
            )
        except _NeedsMorePrecision:
            bits *= 2
            continue
        if z is not None and model.objective.sense == "min":
            z = -z
        return MilpSolution(status, incumbent, z)
    raise SolverError("log-row approximation failed to converge")


def solve_lp_exact(model: MilpModel) -> MilpSolution:
    """Optimal vertex of the LP relaxation: `solve_milp` on a copy of the
    model whose columns are all continuous, with the same rows and
    objective and no branch groups.

    With no integer column, branch and bound is its root alone: exact
    simplex with Bland's anti-cycling rules (dual simplex to a feasible
    basis, then primal), within `PIVOT_CAP` pivots.  Objectives may carry
    formal-log coefficients (not mixed with rational ones); a constraint
    row with a formal log is refused, since `solve_milp` takes those on
    integer columns only.
    """
    relaxed = tuple(MilpVariable(v.name, False, v.upper) for v in model.variables)
    return solve_milp(MilpModel(relaxed, model.rows, model.objective))


def _on_grid(grid: list) -> bool:
    """Whether the objective grid [g, model] of `solve_milp` holds.  The
    first call runs `integrality_defect` on the model and keeps the answer
    in place, as g or 0."""
    if grid[1] is not None:
        grid[:] = grid[0] * (integrality_defect(grid[1]) is None), None
    return grid[0] > 0


def _branch_and_bound(model, rows, log_rows, int_cols, bits: int, pivots: _Pivots, grid):
    """One precision round: a cold root, then children re-optimised warm.

    `rows` are the model's rational LP rows, `log_rows` its formal-log rows
    and `int_cols` its integer columns in order.  A node whose bound is
    below incumbent + g, for `grid` = [g, ...], is pruned when `_on_grid`
    (g is 0 without a grid).  Returns (status, incumbent or None, the
    incumbent node's maximized objective value `z` or None).
    """
    approx = [_approx_log_row(row, bits) for row in log_rows]
    step = grid[0]

    incumbent = None
    incumbent_val = None
    nodes = [_Tableau(rows + approx, model.num_variables, pivots)]
    while nodes:
        tab = nodes.pop()
        status, assignment = _simplex(tab, model.objective)
        if status == INFEASIBLE:
            continue
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        if incumbent_val is not None:
            z = tab.z
            if not z > incumbent_val or step and z < incumbent_val + step and _on_grid(grid):
                continue
        frac_col = next((j for j in int_cols if assignment[j].denominator != 1), None)
        if frac_col is not None:
            # Split the first branch group with a fractional sum, else the
            # lowest fractional column.  Both children start from this
            # optimal tableau: the ceiling one from a copy, the floor one
            # (explored first) in place.
            sums = ((g, sum(assignment[j] for j in g)) for g in model.branch_groups)
            fallback = ((frac_col,), assignment[frac_col])
            cols, total = next(((g, t) for g, t in sums if t.denominator != 1), fallback)
            v = total // 1
            ceil = tab.copy()
            ceil.add_bound(cols, GE, Fraction(v + 1))
            tab.add_bound(cols, LE, Fraction(v))
            nodes += (ceil, tab)
            continue
        if not all(_log_row_satisfied(row, assignment) for row in log_rows):
            raise _NeedsMorePrecision
        incumbent = assignment
        incumbent_val = tab.z
    return (INFEASIBLE, None, None) if incumbent is None else (OPTIMAL, incumbent, incumbent_val)


# -- integrality of the continuous block ---------------------------------------


def _integral(x) -> bool:
    return _rational(x) and x.denominator == 1


def integrality_defect(model: MilpModel) -> str | None:
    """None if fixing the integer columns at integers leaves only integral
    vertices, else one line saying why that is not shown.

    Exact on its class, in time linear in the nonzeros: every entry on the
    continuous columns is 1 or -1, at most two per column, and the rows
    that touch them take a 2-colouring that splits the two rows of a column
    when their signs are equal and joins them when they differ, which makes
    the block totally unimodular (Heller and Tompkins, 1956; Schrijver,
    1986, ch. 19).  Those rows need integral right-hand sides and integral
    coefficients on the integer columns (a formal log is not), and every
    continuous upper bound must be integral or absent.
    """
    cont = set(model.fractional_columns())
    hits: dict[int, list] = {j: [] for j in cont}  # column -> [(row, sign)]
    for i, row in enumerate(model.rows):
        if row.coeffs.keys().isdisjoint(cont):
            continue
        if not _integral(row.rhs):
            return f"row {i} has rhs {row.rhs!r}, not an integer"
        for j, c in row.coeffs.items():
            if j in cont and c in (1, -1):
                hits[j].append((i, c))
            elif j in cont or not _integral(c):
                kind = "continuous" if j in cont else "integer"
                return f"row {i} has coefficient {c!r} on {kind} column {j}"
    adjacent: dict[int, list] = {}  # row -> [(row, must the colours differ)]
    for j, rows in hits.items():
        upper = model.variables[j].upper
        if upper is not None and not _integral(upper):
            return f"continuous column {j} has upper bound {upper}, not an integer"
        if len(rows) > 2:
            return f"continuous column {j} has {len(rows)} nonzeros, more than two"
        if len(rows) == 2:
            (a, s), (b, t) = rows
            adjacent.setdefault(a, []).append((b, s == t))
            adjacent.setdefault(b, []).append((a, s == t))
    colour: dict[int, bool] = {}
    for root in adjacent:
        queue = [] if root in colour else [root]
        colour.setdefault(root, False)
        for a in queue:  # breadth first over the rows joined to root
            for b, differ in adjacent[a]:
                if b not in colour:
                    colour[b] = colour[a] ^ differ
                    queue.append(b)
                elif colour[b] != colour[a] ^ differ:
                    return f"rows {a} and {b} close a cycle that no signed 2-colouring fits"
    return None


# -- integral rounding (all-integer optimum from a mixed one) -------------------


def integralize_solution(model: MilpModel, mixed: MilpSolution) -> MilpSolution:
    """Round a mixed optimum to an all-integer one of equal objective value.

    Requires integral values on the integer columns (a `SolverError`
    otherwise), a model that passes `integrality_defect` (not checked here:
    the `milp-integrality` and `fpt-scale` suites run it on the FPT models),
    and the row convention that all rows touching fractional columns form
    the tail block of the model.  An optimum whose every column is already
    integral is returned as it is; this is always the case for a vertex,
    such as the incumbent of `solve_milp`, under these preconditions.  Only
    a mixed optimum that is not a vertex is rounded: the restricted LP over
    the fractional columns is re-solved to a vertex, which is then
    integral, and spliced back in.
    """
    if mixed.status != OPTIMAL or mixed.assignment is None:
        raise SolverError("integralize_solution requires an optimal mixed solution")
    frac_cols = model.fractional_columns()
    int_cols = model.integer_columns()
    pos = {j: p for p, j in enumerate(frac_cols)}
    touching = [i for i, row in enumerate(model.rows) if not pos.keys().isdisjoint(row.coeffs)]
    if touching and touching != list(range(len(model.rows) - len(touching), len(model.rows))):
        raise ModelError("rows touching fractional columns must form the tail block")
    if any(mixed.assignment[j].denominator != 1 for j in int_cols):
        raise SolverError("integralize_solution requires integral values on the integer columns")
    if all(x.denominator == 1 for x in mixed.assignment):
        return mixed

    sub_rows = []
    for i in touching:
        row = model.rows[i]
        residual = row.rhs - sum(c * mixed[j] for j, c in row.coeffs.items() if j not in pos)
        coeffs = {pos[j]: c for j, c in row.coeffs.items() if j in pos}
        sub_rows.append(MilpRow(coeffs, row.relation, residual))
    sub_obj = {pos[j]: c for j, c in model.objective.coeffs.items() if j in pos}
    restricted = MilpModel(
        tuple(model.variables[j] for j in frac_cols),
        tuple(sub_rows),
        MilpObjective(sub_obj, model.objective.sense),
    )
    sub = solve_lp_exact(restricted)
    if sub.status != OPTIMAL:
        raise SolverError(f"restricted LP is {sub.status}; integralize preconditions violated")

    merged = list(mixed.assignment)
    for p, j in enumerate(frac_cols):
        merged[j] = sub.assignment[p]
    log = _log_objective(model.objective)
    terms = (LogSum.of(c.argument, x) if log else c * x
             for j, c in model.objective.coeffs.items() if (x := merged[j]))
    return MilpSolution(OPTIMAL, tuple(merged), sum(terms, LogSum.zero() if log else Fraction(0)))
