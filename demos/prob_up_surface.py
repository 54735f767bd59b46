"""Probability that the next move is up, as a function of the book state.

For balanced flow the two queues race as a symmetric planar walk, and the
probability that the ask side empties first has a closed-form integral that
depends only on the queue sizes. The surface below rises with bid depth and
falls with ask depth; the diagonal is exactly one half. A linear solve of
the same exit problem on a truncated grid (xval's Sylvester oracle)
confirms it.
"""

from lobq import analytics, xval
from lobq.model import ModelParams

n_max = 10
print(f"phi(bid, ask) for bid, ask in 1..{n_max} (balanced flow)")
header = "bid\\ask " + "".join(f"{p:>8d}" for p in range(1, n_max + 1))
print(header)
for n in range(1, n_max + 1):
    row = [analytics.prob_up_balanced(n, p) for p in range(1, n_max + 1)]
    print(f"{n:7d} " + "".join(f"{v:8.4f}" for v in row))

params = ModelParams.from_rates(1.0, 1.0)
cfg = xval.OracleConfig(queue_truncation=200)
dev = 0.0
for n in range(1, n_max + 1):
    for p in range(1, n_max + 1):
        exact, _ = xval.oracle_dirichlet(n, p, params, cfg)
        dev = max(dev, abs(analytics.prob_up_balanced(n, p) - exact))
print(f"\nmax |transform kernel - linear solve| on the grid: {dev:.2e}")

print("\nunbalanced flow has no closed form in the queue sizes; the same")
print("transform integral gives it. At lam=1, mu+theta=1.3:")
up = ModelParams.from_rates(1.0, 1.3)
for n, p in ((1, 1), (3, 1), (1, 3), (5, 2)):
    print(f"  phi({n},{p}) = {analytics.prob_up(n, p, up):.5f}")
