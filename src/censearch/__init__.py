"""Upper-censorship equilibria of competitive information disclosure in
consumer-search markets.

Firms commit to signal structures about horizontally differentiated match
values; consumers with heterogeneous search costs sample firms in random
order with recall and stop at signals clearing their reservation cutoff.
The package computes the interim demand a signal earns, certifies which
censorship thresholds survive deviations, solves for the maximal threshold
from the cost distribution's average slope, stress-tests every verdict with
an LP best-response oracle, and replays the whole game by Monte Carlo.
"""

from .dists import (
    MarketConfig,
    PiecewisePolyDist,
    Tolerances,
    dist_from_json,
    incremental_benefit,
    mean,
    mpc_check,
    reservation_value,
    truncated_mean_above,
)
from .costshape import (
    CostShapeReport,
    assumption_diag_check,
    average_slope,
    concavity_tail_start,
    cost_shape_report,
    critical_min_set,
    crossing_solution,
    global_min_slope,
    scan_table,
    slope_derivative,
    smallest_local_min,
)
from .demand import (
    DemandCurve,
    demand_margins,
    expected_payoff,
    interim_demand,
    jump_size,
    type_demand,
)
from .censorship import (
    CensorshipReport,
    PriceFunctionReport,
    deviation_net_gain,
    equilibrium_set,
    is_downward_closed,
    solve_a_max,
    threshold_from_cost,
    upper_censorship,
    verify_price_function,
    verify_uce,
    virtual_demand,
)
from .oracle import BRProblem, BRSolution, build_problem, solve_br
from .welfare import (
    alpha_stretch,
    classify_density_shape,
    consumer_surplus,
    consumer_surplus_type,
    expected_search_length,
    fosd_compare,
    uniform_interpolate,
)
from .simulate import SimConfig, SimOutcome, simulate_deviation, simulate_market

__version__ = "0.1.0"
