"""tarifflab: welfare-optimal, revenue-adequate retail electricity tariffs.

Computes optimal two-part and linear (volumetric) tariffs for a regulated
retailer facing stochastic wholesale prices and stochastic, inter-temporally
coupled demand, sweeps revenue targets into Pareto fronts, calibrates the
demand model from hourly load/price data, and cross-checks every solver
against brute-force grid oracles.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentMismatch,
    DimensionMismatch,
    EmptyFeasibleSet,
    IndependenceWarning,
    InfeasibleTarget,
    InvalidRegime,
    MalformedRow,
    MissingHour,
    ModelFileError,
    NegativePrice,
    NonConvergence,
    NonFiniteValue,
    NonPositiveLoad,
    PriceSignWarning,
    ScaleNonPositive,
    SingleScenario,
    SingularJacobian,
    TariffLabError,
    TooFewPoints,
    ZeroExpectedDemand,
)
from .model import (
    TARIFF_FAMILIES,
    DemandModel,
    LinearDemandModel,
    ScenarioSet,
    Tariff,
    WelfareReport,
    elasticity_matrix,
    expected_demand,
    flat_rate_elasticity,
    phi_bar,
    retailer_surplus,
    welfare_gains,
)
from .oracle import (
    GridSpec,
    RsConstraint,
    SettlementLedger,
    grid_argmax_welfare,
    settle_scenarios,
)
from .solvers import (
    Assumption1Report,
    RamseySolution,
    check_assumption1,
    monopoly_price,
    planner_bound_gain,
    solve_adjusted_flat,
    solve_fixed_A_two_part,
    solve_flat_linear,
    solve_linear,
    solve_two_part,
)
from .pareto import (
    FrontSlope,
    ParetoFront,
    ParetoPoint,
    default_revenue_grid,
    front_slope_report,
    sweep,
)
from .ingest import (
    CalibrationConfig,
    ModelFilePayload,
    RawSeries,
    RevenueBaseline,
    baseline_tariff,
    calibrate_demand,
    estimate_moments,
    parse_csv,
    read_model_file,
    revenue_baseline,
    toeplitz_kernel,
    write_model_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
