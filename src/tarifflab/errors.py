"""Exception and warning types raised across the package."""


class TariffLabError(Exception):
    """Base class for all tarifflab errors."""


class DimensionMismatch(TariffLabError):
    """A price or demand vector does not match the model's period count."""


class ZeroExpectedDemand(TariffLabError):
    """Elasticities are undefined where expected demand is not positive."""


class NonConvergence(TariffLabError):
    """An iterative solver exhausted its iteration budget."""


class SingularJacobian(TariffLabError):
    """The mean demand Jacobian is numerically singular."""


class InfeasibleTarget(TariffLabError):
    """The revenue target exceeds what any price in the family can collect."""

    def __init__(self, target: float, feasible_range: tuple[float, float]):
        self.target = target
        self.feasible_range = feasible_range
        lo, hi = feasible_range
        super().__init__(
            f"infeasible revenue target {target!r}: feasible range is [{lo!r}, {hi!r}]"
        )


class InvalidRegime(TariffLabError):
    """The revenue target falls below the large-F regime boundary."""

    def __init__(self, target: float, regime_floor: float):
        self.target = target
        self.regime_floor = regime_floor
        super().__init__(
            f"revenue target {target!r} is below the large-F regime floor "
            f"{regime_floor!r}"
        )


class MalformedRow(TariffLabError):
    """A CSV row failed structural validation; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MissingHour(TariffLabError):
    """A day in an hourly series is missing one of its hours."""

    def __init__(self, day: int, hour: int):
        self.day = day
        self.hour = hour
        super().__init__(f"day {day} is missing hour {hour}")


class NegativePrice(TariffLabError, ValueError):
    """A wholesale price is below zero; carries the day label and hour.

    Also a ValueError, which `ScenarioSet` raises for the same condition.
    """

    def __init__(self, day: int, hour: int):
        self.day = day
        self.hour = hour
        super().__init__(f"day {day} hour {hour}: wholesale prices must be nonnegative")


class NonFiniteValue(TariffLabError):
    """A CSV value parsed to NaN or infinity."""

    def __init__(self, line: int):
        self.line = line
        super().__init__(f"line {line}: non-finite value")


class AlignmentMismatch(TariffLabError):
    """Load and price series do not cover the same days/periods."""


class SingleScenario(TariffLabError):
    """Moment estimation needs at least two days; covariance is undefined for one."""


class NonPositiveLoad(TariffLabError):
    """Calibration requires strictly positive total mean consumption."""


class ScaleNonPositive(TariffLabError):
    """The elasticity target must be negative to yield a positive demand slope."""


class TooFewPoints(TariffLabError):
    """Slope reporting needs at least three feasible front points."""


class EmptyFeasibleSet(TariffLabError):
    """No grid point satisfies the revenue constraint; the band is too tight."""


class ModelFileError(TariffLabError):
    """A model file is structurally invalid; carries file/line context."""

    def __init__(self, path, line: int | None, reason: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {reason}")


class PriceSignWarning(UserWarning):
    """A solver produced a negative price or negative expected demand."""


class IndependenceWarning(UserWarning):
    """Scenario prices and demand states look correlated; the planner bound
    computed under independence is not a certified upper bound."""
