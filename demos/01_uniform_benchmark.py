"""Uniform benchmark walkthrough.

Match values uniform on [0,1], search costs uniform on [0, 0.18], so the
evenness of the cost distribution is 1/0.18 and the maximal censorship
threshold lands at 0.4: firms reveal match values below 0.4 and pool
everything above into one signal at 0.7.  The script solves for the
threshold, verifies candidate strategies, cross-checks with the LP oracle,
and prints the welfare ladder.
"""

import numpy as np

from censearch import (
    MarketConfig,
    PiecewisePolyDist,
    build_problem,
    consumer_surplus,
    expected_search_length,
    solve_a_max,
    solve_br,
    upper_censorship,
    verify_uce,
)

F = PiecewisePolyDist.uniform(0.0, 1.0)
H = PiecewisePolyDist.uniform(0.0, 0.18)
market = MarketConfig(F, H, n=50)

a_max, case, attained = solve_a_max(F, H)
print(f"maximal censorship threshold: {a_max:.6f}  (case {case}, attained={attained})")
print(f"pooled signal sits at E[v | v >= a] = {(1 + a_max) / 2:.3f}")

print("\nverification sweep at n = 50:")
for a in (0.0, 0.2, 0.4, 0.45, 0.5):
    rep = verify_uce(F, H, a, market.n)
    flags = ", ".join(k for k, v in rep.checks.items() if not v) or "all checks pass"
    print(f"  a = {a:4.2f}: {rep.verdict:11s} margin={rep.margin:+.2e}  ({flags})")

print("\nLP best-response oracle (duopoly, 801-point grid):")
for a in (0.4, 0.45):
    best = solve_br(build_problem(upper_censorship(F, a), F, H, 2, 801)).value
    gap = max(0.0, best - 1 / 2)
    print(f"  a = {a:4.2f}: best deviation gain over 1/n = {gap:.3e}")

print("\nwelfare ladder (n = 2):")
for a in np.linspace(0.0, 0.4, 5):
    cs = consumer_surplus(F, H, float(a), 2)
    ell = expected_search_length(F, float(a), 2)
    print(f"  a = {a:4.2f}: consumer surplus {cs:.5f}, search length {ell:.3f}")
print("\nmore disclosure helps consumers even though they search longer.")
