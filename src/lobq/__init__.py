"""Two-queue Markovian limit order book.

An event-driven simulator of the best bid/ask queue pair together with a
closed-form analytics engine (duration law, up-move probabilities, price
chain statistics, diffusion-limit volatilities), count-based estimation from
tick-event logs, and a cross-validation harness that certifies every formula
against exact oracles and Monte Carlo.
"""

from .analytics import (
    TailLaw,
    autocov_moves,
    depth,
    expected_duration,
    expected_duration_f,
    hitting_laplace,
    p_cont,
    p_n,
    prob_up,
    prob_up_balanced,
    psi,
    queue_survival,
    survival_curve,
    survival_duration,
    tail_law,
    vol_balanced,
    vol_balanced_window,
    vol_unbalanced,
)
from .estimation import (
    EstimationError,
    EstimationResult,
    estimate_intensities,
    estimate_replenishment,
    parse_event_log,
    predicted_vs_realized,
    realized_volatility,
)
from .model import (
    BookState,
    EventLog,
    InsufficientPathError,
    ModelParams,
    PricePath,
    QueueDist,
    SimConfig,
    rescaled_series,
    sample_first_passage,
    sample_move_signs,
    sample_price_at,
    simulate,
    step,
)
from .numerics import QuadratureError, QuadSpec, bessel_i_scaled, integrate_finite, integrate_semi_infinite
from .xval import (
    ComparisonReport,
    CriterionResult,
    OracleConfig,
    OracleError,
    mc_compare,
    oracle_dirichlet,
    oracle_survival,
    run_criterion,
    run_suite,
)

__version__ = "0.1.0"
