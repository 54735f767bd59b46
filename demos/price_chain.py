"""Sign dynamics of successive price moves.

Right after a move the queues are redrawn, so move directions form a
two-state chain with stay probability p_cont. Real books refill the just-
swept side thinly, which puts most replenishment mass on {ask >= bid} and
drives p_cont below one half: moves tend to reverse, and lag covariances
alternate in sign while decaying geometrically.
"""

import math

from lobq import analytics
from lobq.model import ModelParams, sample_move_signs
from lobq.presets import CITI_LIKE_F

params = ModelParams.from_rates(1.0, 1.3)
f = CITI_LIKE_F

pc = analytics.p_cont(f, params)
print(f"replenishment mass on {{ask >= bid}}: {f.upper_mass():.2f}")
print(f"p_cont = {pc:.5f}  (below 1/2: successive moves anticorrelated)")

chains, moves, burn = 1000, 300, 30
signs = sample_move_signs(params, f, chains, moves + burn, seed=11)
x = signs[:, burn:].astype(float)

print(f"\nlag covariances of the +-1 move sequence ({chains * moves} moves):")
print(f"{'k':>3} {'(2 p_cont - 1)^(k-1)':>22} {'simulated':>12} {'std err':>10}")
for k in range(1, 6):
    theory = analytics.autocov_moves(k, f, params)
    prod = x * x if k == 1 else x[:, : -(k - 1)] * x[:, k - 1 :]
    est = prod.mean()
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    print(f"{k:3d} {theory:22.6f} {est:12.6f} {se:10.6f}")

print("\nconditional distribution of the k-th next move from bid=2, ask=1:")
for k in (1, 2, 3, 5, 10):
    print(f"  P[move {k} is up] = {analytics.p_n(k, 2, 1, f, params):.5f}")
print("(the state's information decays geometrically at rate |2 p_cont - 1|)")
