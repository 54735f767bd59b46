"""End-to-end workflow: simulate a session, log every event, estimate back.

The estimators are pure counting: per-side event rates over the covered
span, and the histogram of post-move queue snapshots for the replenishment
law. The last step compares the realized window volatility of the logged
price with the model prediction computed from order-flow quantities alone,
without ever looking at prices.
"""

import os
import tempfile

from lobq import estimation
from lobq.analytics import depth
from lobq.model import ModelParams, SimConfig, simulate
from lobq.presets import CITI_LIKE_F

params = ModelParams(lam=500.0, mu=350.0, theta=155.0, tick=0.01)
horizon = 600.0

path, log = simulate(params, CITI_LIKE_F, SimConfig(seed=20, horizon_time=horizon),
                     collect_events=True)
print(f"simulated {len(log)} events, {len(path)} price changes over {horizon:.0f} s")

with tempfile.TemporaryDirectory() as tmp:
    log_file = os.path.join(tmp, "events.csv")
    log.to_csv(log_file)
    print(f"event log: {os.path.getsize(log_file) / 1e6:.1f} MB")
    log = estimation.parse_event_log(log_file)

result = estimation.estimate_intensities(log)
print(f"\nlambda_hat    = {result.lambda_hat:9.1f}  (true {params.lam})")
print(f"mu_theta_hat  = {result.mu_theta_hat:9.1f}  (true {params.mu_theta})")
print(f"balance |mu_theta - lam| / lam = {result.balance_diagnostic:.3f}")

f_hat = estimation.estimate_replenishment(log, tick=params.tick)
tv = 0.5 * sum(
    abs(CITI_LIKE_F.as_dict().get(k, 0.0) - f_hat.as_dict().get(k, 0.0))
    for k in set(CITI_LIKE_F.as_dict()) | set(f_hat.as_dict())
)
print(f"\nreplenishment histogram: {len(f_hat.items())} atoms, "
      f"total variation to truth {tv:.3f}")
print(f"depth D(f_hat) = {depth(f_hat):.3f}  (true {depth(CITI_LIKE_F):.3f})")
print(f"mass on (ask >= bid) = {f_hat.upper_mass():.3f}")

window = 10.0
report = estimation.predicted_vs_realized(log, window=window)
row = report["assets"][0]
print(f"\nwindow = {window:.0f} s")
print(f"sqrt(lambda_hat / D_hat)    = {row['sqrt_lambda_over_depth']:.3f}")
print(f"predicted window volatility = {row['predicted_sigma']:.4f}")
print(f"realized window volatility  = {row['realized_sigma']:.4f}")
print(f"realized / predicted        = {row['realized_over_predicted']:.3f}")
