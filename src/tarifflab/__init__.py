"""tarifflab: welfare-optimal, revenue-adequate retail electricity tariffs.

Computes optimal two-part and linear (volumetric) tariffs for a regulated
retailer facing stochastic wholesale prices and stochastic, inter-temporally
coupled demand, sweeps revenue targets into Pareto fronts, calibrates the
demand model from hourly load/price data, and cross-checks every solver
against brute-force grid oracles.

Public names are imported from their module on first use (PEP 562), so
`import tarifflab` and each command load only the modules they need.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, grouped by the module that defines it
_EXPORTS = {
    "errors": (
        "AlignmentMismatch",
        "DimensionMismatch",
        "EmptyFeasibleSet",
        "IndependenceWarning",
        "InfeasibleTarget",
        "InvalidRegime",
        "MalformedRow",
        "MissingHour",
        "ModelFileError",
        "NegativePrice",
        "NonConvergence",
        "NonFiniteValue",
        "NonPositiveLoad",
        "PriceSignWarning",
        "ScaleNonPositive",
        "SingleScenario",
        "SingularJacobian",
        "TariffLabError",
        "TooFewPoints",
        "ZeroExpectedDemand",
    ),
    "model": (
        "TARIFF_FAMILIES",
        "DemandModel",
        "LinearDemandModel",
        "ScenarioSet",
        "Tariff",
        "WelfareReport",
        "elasticity_matrix",
        "expected_demand",
        "flat_rate_elasticity",
        "phi_bar",
        "retailer_surplus",
        "welfare_gains",
    ),
    "oracle": (
        "GridSpec",
        "RsConstraint",
        "SettlementLedger",
        "grid_argmax_welfare",
        "settle_scenarios",
    ),
    "solvers": (
        "Assumption1Report",
        "RamseySolution",
        "check_assumption1",
        "monopoly_price",
        "planner_bound_gain",
        "solve_adjusted_flat",
        "solve_fixed_A_two_part",
        "solve_flat_linear",
        "solve_linear",
        "solve_two_part",
    ),
    "pareto": (
        "FrontSlope",
        "ParetoFront",
        "ParetoPoint",
        "default_revenue_grid",
        "front_slope_report",
        "sweep",
    ),
    "ingest": (
        "CalibrationConfig",
        "ModelFilePayload",
        "RawSeries",
        "RevenueBaseline",
        "baseline_tariff",
        "calibrate_demand",
        "estimate_moments",
        "parse_csv",
        "parse_inputs",
        "read_model_file",
        "revenue_baseline",
        "toeplitz_kernel",
        "write_model_file",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
