"""Acceptance criteria, one test per criterion, each printed as PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact rational equality; the wall-clock budgets
are asserted as stated.
"""

from champbribe import verify


def _report_line(criterion: str, report, limit_s: float) -> None:
    status = "PASS" if report.passed and report.elapsed < limit_s else "FAIL"
    print(
        f"{status} {criterion}: {report.pass_count}/{report.total} checks, "
        f"{report.elapsed:.2f}s (limit {limit_s:.0f}s)"
    )


def _assert_report(criterion: str, report, limit_s: float) -> None:
    _report_line(criterion, report, limit_s)
    assert report.passed, f"{criterion}: " + "; ".join(report.failures[:5])
    assert report.elapsed < limit_s, (
        f"{criterion} took {report.elapsed:.1f}s, over the {limit_s:.0f}s budget"
    )


def test_criterion_1_solver_agreement():
    """500 seeded instances: all solver routes agree exactly; < 120 s."""
    report = verify.suite_solver_agreement(count=500, seed=0)
    _assert_report("criterion-1 solver-agreement", report, 120.0)


def test_criterion_2_normalization_equivalence():
    """200 deliberately non-monotone instances, full budget sweep; < 60 s."""
    report = verify.suite_normalization(count=200, seed=1)
    _assert_report("criterion-2 normalization-equivalence", report, 60.0)


def test_criterion_3_dp_scale():
    """n=1000, B=100000, lmax=4 in < 30 s with exactness retained."""
    report = verify.suite_dp_scale(n=1000, budget=10**5, lmax=4, seed=2)
    _assert_report("criterion-3 dp-scale", report, 30.0)


def test_criterion_4_milp_integrality():
    """100 FPT-model builds: the integrality check on every build and exact
    integral rounding; < 120 s."""
    report = verify.suite_milp_integrality(count=100, seed=3)
    _assert_report("criterion-4 milp-integrality", report, 120.0)
    assert report.details["integrality_checked"] == report.total


def test_criterion_5_ksum_chain():
    """Exhaustive small k-sum chain (n<=6, k in {2,3}, |s|<=3); < 60 s.

    Mismatches on instances below the k>=4 regime are reported, not failed;
    zero are expected, and any on a regime-satisfying instance is a failure.
    """
    report = verify.suite_ksum_chain(n_max=6, magnitude=3)
    _assert_report("criterion-5 ksum-chain", report, 60.0)
    mismatches = report.details["precondition_mismatches"]
    if mismatches:
        print(f"  documented proof-precondition artifacts: {len(mismatches)}")
        for note in mismatches[:5]:
            print(f"    {note}")


def test_criterion_6_mpk_chain():
    """200 seeded multicolored-knapsack instances, decision preserved; < 60 s."""
    report = verify.suite_mpk_chain(count=200, seed=4)
    _assert_report("criterion-6 mpk-chain", report, 60.0)


def test_criterion_7_cup_chain():
    """100 instances with <= 3 challengers through the cup embedding; < 120 s."""
    report = verify.suite_cup_chain(count=100, seed=5)
    _assert_report("criterion-7 cup-chain", report, 120.0)


def test_criterion_8_lp_unit_contracts():
    """Worked LP/MILP examples and the formal-log law on 1000 draws; < 30 s."""
    report = verify.suite_lp_unit(draws=1000, seed=6)
    _assert_report("criterion-8 lp-unit", report, 30.0)


def test_criterion_9_bracket_normalization():
    """100 random cups: win probabilities sum to exactly 1; < 30 s."""
    report = verify.suite_bracket_normalization(count=100, seed=7)
    _assert_report("criterion-9 bracket-normalization", report, 30.0)


def test_criterion_10_value_agreement():
    """FPT optima equal the DP sweep's at n = 100-150 and n = 20-40; < 60 s.

    fpt-bribes must reach best_at(B); the fpt-probs witness must cost exactly
    the least budget at which the sweep reaches the threshold.
    """
    report = verify.suite_value_agreement(count=8, seed=8)
    _assert_report("criterion-10 value-agreement", report, 60.0)
    assert report.details["yes"] > 0 and report.details["no"] > 0


def test_criterion_11_fpt_scale():
    """Both FPT routes check each other at n = 3000-10**4; < 30 s.

    fpt-probs must say yes exactly when the fpt-bribes optimum reaches the
    threshold, and its witness probability must not exceed that optimum.
    Both models of every draw pass the integrality check.
    """
    report = verify.suite_fpt_scale(count=4, seed=9)
    _assert_report("criterion-11 fpt-scale", report, 30.0)
    assert report.details["yes"] > 0 and report.details["no"] > 0
    assert report.details["integrality_checked"] == 2 * report.total
