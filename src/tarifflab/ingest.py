"""Data ingestion and demand-model calibration.

Hourly load and day-ahead price CSVs (`day,hour,value`) become per-day
scenarios; the demand matrix is a geometric-decay Toeplitz kernel scaled so
the model reproduces a target aggregate own-price elasticity at the utility's
flat rate. The calibrated model round-trips: demand at the flat rate equals
the observed consumption scenario by scenario.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import numbers
import os
import pickle
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from ._forkjoin import Forked
from .errors import (
    AlignmentMismatch,
    MalformedRow,
    MissingHour,
    ModelFileError,
    NegativePrice,
    NonFiniteValue,
    NonPositiveLoad,
    ScaleNonPositive,
    SingleScenario,
    TariffLabError,
)
from .model import (
    LinearDemandModel,
    ScenarioSet,
    Tariff,
    flat_rate_elasticity,
    phi_bar,
    scenario_moments,
)

SERIES_KINDS = ("load", "price")
# the factor that takes each price unit `fit` reads to $/kWh
PRICE_UNITS = {"kwh": 1.0, "mwh": 1e-3}
MODEL_FORMAT = "tarifflab-model/1"


@dataclass(frozen=True)
class CalibrationConfig:
    """Calibration inputs: the utility's flat tariff and the target elasticity.

    `flat_rate` is pi_CE in $/kWh, `connection_charge` is A_CE in
    $/customer/day, `elasticity_target` the aggregate own-price elasticity at
    the flat rate (negative for downward-sloping demand), `alpha` the
    geometric decay of the inter-temporal substitution kernel.
    """

    flat_rate: float = 0.172
    elasticity_target: float = -0.3
    alpha: float = 0.2
    customers: int = 2_200_000
    connection_charge: float = 0.52

    def __post_init__(self):
        # plain floats and an int, so a numpy scalar neither computes the
        # kernel scale in its own precision nor writes its repr as provenance
        for name in ("flat_rate", "elasticity_target", "alpha", "connection_charge"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:  # an int or Fraction beyond the float range
                raise ValueError(f"{name} is too large for a float") from None
        if not isinstance(self.customers, numbers.Integral):
            raise ValueError(f"customers must be an integer, got {self.customers!r}")
        object.__setattr__(self, "customers", int(self.customers))
        for name in ("flat_rate", "elasticity_target", "connection_charge"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.flat_rate > 0:
            raise ValueError("flat rate must be positive")
        # alpha = 0 is the identity-kernel limit (no substitution)
        if not 0 <= self.alpha < 1:
            raise ValueError("kernel decay must lie in [0, 1)")
        if self.customers < 1:
            raise ValueError("need at least one customer")


@dataclass(frozen=True)
class RawSeries:
    """A dense (days x hours) block parsed from one CSV."""

    values: np.ndarray
    day_labels: tuple[int, ...]

    @property
    def days(self) -> int:
        return self.values.shape[0]

    @property
    def periods(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RevenueBaseline:
    """Gross revenue and net (surplus) revenue of the flat baseline, $/cycle."""

    gross: float
    net: float


def _decode(data: bytes, error, first_line: int = 1) -> str:
    """`data` as text, newlines untranslated; a byte that is not UTF-8 raises
    `error(line, reason)` with the 1-based line it sits on, counting `data`
    as starting on `first_line`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise error(
            line, f"not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})"
        ) from None


def parse_csv(path, kind: str) -> RawSeries:
    """Parse an hourly series CSV with header `day,hour,value`.

    Days are re-indexed densely from 0 (sorted by their original labels);
    every day must carry exactly the hours 0..N-1 where N is the largest
    hour seen. The file must be UTF-8. Errors carry the 1-based line number.

    A clean file is read by numpy's C reader straight from its bytes
    (`_parse_dense`); anything else, every error included, goes through the
    row-by-row reader `_parse_rows`. Both give the same RawSeries on a file
    both accept.
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
    return _parse_bytes(Path(path).read_bytes(), kind)


def _parse_bytes(data: bytes, kind: str) -> RawSeries:
    """`parse_csv` of a file's bytes."""
    series = _parse_dense(data, kind)
    if series is None:
        _decode(data, MalformedRow)  # locate a byte that is not UTF-8 first
        series = _parse_rows(data, kind)
    return series


def parse_inputs(
    load_path, prices_path, price_unit: str = "kwh"
) -> tuple[RawSeries, RawSeries]:
    """`fit`'s load and price series, each parsed as `parse_csv` does with an
    error that names its file, the prices scaled to $/kWh. A forked child
    (`Forked`) parses the prices bytes, read first, while this process parses
    the load; a child that does not deliver, the prices' error included,
    leaves them to this process after the load, as two serial parses would."""
    if price_unit not in PRICE_UNITS:
        raise ValueError(f"price unit must be one of {tuple(PRICE_UNITS)}")
    data = None  # a file that cannot be read is read again after the load
    with contextlib.suppress(OSError):
        data = Path(prices_path).read_bytes()

    def prices():
        series = _parse_named(prices_path, data, "price")
        scaled = series.values * PRICE_UNITS[price_unit]
        return [pickle.dumps(dataclasses.replace(series, values=scaled))]

    with Forked(prices) as child:
        load = _parse_named(load_path, None, "load")
        return load, pickle.loads(b"".join(child.blocks()))


def _parse_named(path, data: bytes | None, kind: str) -> RawSeries:
    """`_parse_bytes` of `data` (None: the file's); a parse error names the file."""
    try:
        return _parse_bytes(Path(path).read_bytes() if data is None else data, kind)
    except TariffLabError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# a clean file's header, with LF or CRLF line ends
_HEADERS = (b"day,hour,value\n", b"day,hour,value\r\n")
# the bytes a clean file's rows are made of: digits, separators, line ends
# and the number syntax float() reads; quotes, spaces, NUL, nan/inf and
# anything not ASCII are left to the row-by-row reader
_CLEAN_BYTES = b"0123456789,\r\n.eE+-"
# what is left of a clean file once its clean bytes are deleted
_HEADER_RESIDUE = _HEADERS[0].translate(None, _CLEAN_BYTES)
_ROW_DTYPE = np.dtype([("day", np.int64), ("hour", np.int64), ("value", np.float64)])


def _parse_dense(data: bytes, kind: str) -> RawSeries | None:
    """Parse of a clean CSV's bytes, or None to leave the file to `_parse_rows`.

    Clean means the exact header, then `day,hour,value` rows of clean bytes
    ending in LF or CRLF (blank lines are skipped, as the row reader skips
    them; a CR that does not end a line leaves the file to it) whose labels are
    int64 integers that cover hours 0..N-1 of every day exactly once, with
    finite values and, for load, none negative. Labels and values are read
    as int() and float() read them, so the result is the same bit for bit.
    """
    if not data.startswith(_HEADERS):
        return None
    if data.translate(None, _CLEAN_BYTES) != _HEADER_RESIDUE:
        return None
    if data.count(b"\r") != data.count(b"\r\n"):
        return None
    # nothing but line ends after the header: no rows (and loadtxt would warn)
    start = data.index(b"\n") + 1
    if data.count(b"\n", start) + data.count(b"\r", start) == len(data) - start:
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(data), dtype=_ROW_DTYPE, delimiter=",", comments=None,
            skiprows=1, ndmin=1,
        )
    except ValueError:
        return None
    day, hour, values = rows["day"], rows["hour"], rows["value"]
    if not np.isfinite(values).all() or (kind == "load" and (values < 0).any()):
        return None
    if hour.min() < 0:  # the row reader names the line
        return None

    periods = int(hour.max()) + 1
    if rows.size % periods:
        return None
    # rows already in (day, hour) order are the order lexsort would give
    if not _fills_block(day, hour, periods):
        order = np.lexsort((hour, day))
        day, hour, values = day[order], hour[order], values[order]
        if not _fills_block(day, hour, periods):
            return None
    return RawSeries(
        values=np.ascontiguousarray(values).reshape(-1, periods),
        day_labels=tuple(day[::periods].tolist()),
    )


def _fills_block(day: np.ndarray, hour: np.ndarray, periods: int) -> bool:
    """Whether rows labelled `day`, `hour`, in this order, are a (days x
    periods) block: each day's hours 0..N-1 in turn, days ascending."""
    day = day.reshape(-1, periods)
    return bool(
        (hour.reshape(-1, periods) == np.arange(periods)).all()
        and (day == day[:, :1]).all()
        and (np.diff(day[:, 0]) > 0).all()
    )


def _located_rows(reader):
    """Rows of a csv reader; a `csv.Error` (say an over-long field) is located."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None


def _parse_rows(data: bytes, kind: str) -> RawSeries:
    """Row-by-row reader of a UTF-8 CSV's bytes: any CSV the `csv` module
    reads, every error located."""
    cells: dict[tuple[int, int], float] = {}
    # decoded a chunk at a time, so no whole copy of the text is held
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = _located_rows(csv.reader(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "empty file, expected header day,hour,value") from None
        if [h.strip() for h in header] != ["day", "hour", "value"]:
            raise MalformedRow(1, f"expected header day,hour,value, got {header!r}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
            try:
                day = int(row[0])
                hour = int(row[1])
            except ValueError:
                raise MalformedRow(line, f"day/hour must be integers: {row!r}") from None
            try:
                value = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"value is not a number: {row[2]!r}") from None
            if not math.isfinite(value):
                raise NonFiniteValue(line)
            if hour < 0:
                raise MalformedRow(line, f"hour must be nonnegative, got {hour}")
            if kind == "load" and value < 0:
                raise MalformedRow(line, f"load must be nonnegative, got {value!r}")
            if (day, hour) in cells:
                raise MalformedRow(line, f"duplicate day {day} hour {hour}")
            cells[(day, hour)] = value
    if not cells:
        raise MalformedRow(2, "no data rows")

    periods = max(h for _, h in cells) + 1
    labels = sorted({d for d, _ in cells})
    # every cell is checked before the block is allocated, so a stray huge
    # hour label is a MissingHour, not a days x hours allocation
    for day in labels:
        for hour in range(periods):
            if (day, hour) not in cells:
                raise MissingHour(day, hour)
    values = np.array([[cells[day, hour] for hour in range(periods)] for day in labels])
    return RawSeries(values=values, day_labels=tuple(labels))


def estimate_moments(load: RawSeries, prices: RawSeries) -> ScenarioSet:
    """Pair aligned days into equiprobable (price, consumption) scenarios.

    The returned set's internal moments are population (1/J) moments; the
    unbiased 1/(J-1) estimate is available from
    `ScenarioSet.sample_cross_covariance`. At least two days are required,
    otherwise the covariance has no sample estimate at all. A negative price
    raises NegativePrice naming its day label and hour.
    """
    if load.days != prices.days or load.periods != prices.periods:
        raise AlignmentMismatch(
            f"load is {load.days}x{load.periods}, prices are "
            f"{prices.days}x{prices.periods}"
        )
    if load.day_labels != prices.day_labels:
        raise AlignmentMismatch("load and price files cover different days")
    if load.days < 2:
        raise SingleScenario("need at least two days to estimate moments")
    negative = np.argwhere(prices.values < 0)
    if negative.size:
        day, hour = negative[0]
        raise NegativePrice(prices.day_labels[day], int(hour))
    return ScenarioSet(lams=prices.values, omegas=load.values)


def toeplitz_kernel(periods: int, alpha: float) -> np.ndarray:
    """Geometric-decay kernel K[k, t] = alpha^|k - t| (positive definite)."""
    idx = np.arange(periods)
    return np.power(float(alpha), np.abs(idx[:, None] - idx[None, :]))


def calibrate_demand(
    consumption: ScenarioSet, config: CalibrationConfig
) -> LinearDemandModel:
    """Fit the demand matrix and recover demand states from flat-rate data.

    The kernel fixes the shape of the price response; its scale c comes from
    matching the aggregate own-price elasticity at the flat rate:
    c = -eps_target * total_load / (rate * 1'K 1). Demand states are then
    Omega_j = x_j + G 1 rate, so the model reproduces each observed day
    exactly at the flat rate.
    """
    if config.elasticity_target >= 0:
        raise ScaleNonPositive(
            f"elasticity target must be negative, got {config.elasticity_target!r}"
        )
    xhat = consumption.omega_bar
    total = float(xhat.sum())
    if total <= 0:
        raise NonPositiveLoad(f"mean total consumption is {total!r}")
    n = consumption.periods
    kernel = toeplitz_kernel(n, config.alpha)
    ones = np.ones(n)
    scale = -config.elasticity_target * total / (
        config.flat_rate * float(ones @ kernel @ ones)
    )
    G = scale * kernel
    # same expression the demand path evaluates, so the round trip
    # D(1 * rate, Omega_j) = x_j holds to one rounding of the addition
    omegas = consumption.omegas + G @ np.full(n, config.flat_rate)
    model = LinearDemandModel(
        G=G,
        scenarios=ScenarioSet(lams=consumption.lams, omegas=omegas),
        customers=config.customers,
    )
    realized = flat_rate_elasticity(model, config.flat_rate)
    target = config.elasticity_target
    if abs(realized - target) > 1e-9 * max(1.0, abs(target)):
        raise ValueError(
            f"calibration round-trip failed: realized elasticity {realized!r} "
            f"for target {target!r}"
        )
    return model


def baseline_tariff(model: LinearDemandModel, config: CalibrationConfig) -> Tariff:
    """The utility's incumbent flat two-part tariff T_CE."""
    return Tariff(
        connection_charge=config.connection_charge,
        prices=np.full(model.periods, config.flat_rate),
        family="adjusted-flat",
    )


def revenue_baseline(
    model: LinearDemandModel, config: CalibrationConfig
) -> RevenueBaseline:
    """Gross and net revenue of the flat baseline on the calibrated model.

    Gross is billed volume plus connection charges; net subtracts the
    wholesale procurement cost (it is the expected retailer surplus and the
    natural revenue target F for tariff comparisons).
    """
    flat = np.full(model.periods, config.flat_rate)
    dbar = model.mean_demand(flat)
    fixed = model.customers * config.connection_charge
    gross = float(dbar.sum()) * config.flat_rate + fixed
    net = phi_bar(model, flat) + fixed
    return RevenueBaseline(gross=gross, net=net)


# --- model file -------------------------------------------------------------
#
# Line-oriented `key = values` text, floats written with repr() so they
# round-trip bit-exactly. Everything above the provenance block is the
# payload; reruns on identical inputs produce byte-identical payloads.
# Schema (order fixed by the writer):
#
#   format = tarifflab-model/1
#   periods = <int>
#   customers = <int>
#   g = <N*N floats, row-major>
#   lambda_bar = <N floats>
#   omega_bar = <N floats>
#   sigma_lambda_omega = <N*N floats, row-major, 1/J population convention>
#   sigma_convention = population-ddof0
#   scenario_count = <int J>
#   scenario.<j>.lambda = <N floats>
#   scenario.<j>.omega = <N floats>
#   baseline.flat_rate = <float>            (optional)
#   baseline.connection_charge = <float>    (optional)
#   provenance.<key> = <string>             (optional block, created last)
#
# Beside it the writer leaves a memo, `<model file>.npz`: the payload the
# reader parses from that text, stored as binary arrays under the text's
# sha256 digest. The reader takes the payload from the memo when the digests
# match and the memo is well formed, and parses the text otherwise.


@dataclass(frozen=True)
class ModelFilePayload:
    """Raw model-file contents; semantic validation happens in `to_model`.

    `digest` is the `file_digest` of the file the payload was read from.
    """

    periods: int
    customers: int
    G: np.ndarray
    lams: np.ndarray
    omegas: np.ndarray
    baseline_flat_rate: float | None = None
    baseline_connection_charge: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)
    digest: str | None = None

    def to_model(self) -> LinearDemandModel:
        return LinearDemandModel(
            G=self.G,
            scenarios=ScenarioSet(lams=self.lams, omegas=self.omegas),
            customers=self.customers,
        )

    def baseline_tariff(self) -> Tariff | None:
        if self.baseline_flat_rate is None or self.baseline_connection_charge is None:
            return None
        return Tariff(
            connection_charge=self.baseline_connection_charge,
            prices=np.full(self.periods, self.baseline_flat_rate),
            family="adjusted-flat",
        )


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(map(repr, np.asarray(v, dtype=float).ravel().tolist()))


def _head_lines(model: LinearDemandModel):
    ss = model.scenarios
    yield f"format = {MODEL_FORMAT}"
    yield f"periods = {model.periods}"
    yield f"customers = {model.customers}"
    yield f"g = {_fmt_vector(model.G)}"
    yield f"lambda_bar = {_fmt_vector(ss.lambda_bar)}"
    yield f"omega_bar = {_fmt_vector(ss.omega_bar)}"
    yield f"sigma_lambda_omega = {_fmt_vector(ss.sigma_lambda_omega)}"
    yield "sigma_convention = population-ddof0"
    yield f"scenario_count = {ss.n_scenarios}"


def _scenario_lines(ss: ScenarioSet, days: range):
    for j in days:
        yield f"scenario.{j}.lambda = {_fmt_vector(ss.lams[j])}"
        yield f"scenario.{j}.omega = {_fmt_vector(ss.omegas[j])}"


def _tail_lines(baseline, provenance):
    if baseline is not None:
        yield f"baseline.flat_rate = {_fmt_vector(baseline.flat_rate)}"
        yield f"baseline.connection_charge = {_fmt_vector(baseline.connection_charge)}"
    for key, value in provenance.items():
        yield f"provenance.{key} = {value}"


def _encoded(lines):
    for line in lines:
        yield f"{line}\n".encode("utf-8")


def _written_payload(path: Path, model, head: list[str], tail: list[str], provenance):
    """The payload the reader parses from the lines `head`, the model's
    scenario lines and `tail`; ValueError if it would refuse them, naming
    the provenance entry a refused line or a changed read-back comes from."""
    ss = model.scenarios
    # each tail line's provenance entry (None for a baseline line); a line
    # break in one starts a line of its own in the file
    owners = [None] * (len(tail) - len(provenance)) + [*provenance.items()]
    numbered, entry_on = [*enumerate(head, start=1)], {}
    line_no = len(head) + 2 * ss.n_scenarios
    for text, entry in zip(tail, owners):
        for part in f"{text}\n".splitlines():
            line_no += 1
            numbered.append((line_no, part))
            entry_on[line_no] = entry
    try:
        payload = _payload(path, numbered, ss)
    except ModelFileError as exc:
        entry = entry_on.get(exc.line)
        if entry is None:
            raise ValueError(f"the model file would not read back: {exc}") from None
    else:
        entry = next(
            ((key, value) for key, value in provenance.items()
             if payload.provenance.get(f"{key}") != f"{value}"),
            None,
        )
        if entry is None:
            return payload
    raise ValueError(
        "provenance values must be single-line, and each entry must read back "
        "as written (key and value unpadded, value non-empty, no ' = ' in the "
        f"key); got {entry[0]!r}: {entry[1]!r}"
    )


def write_model_file(
    path,
    model: LinearDemandModel,
    *,
    baseline: CalibrationConfig | None = None,
    provenance: dict[str, str] | None = None,
) -> None:
    """Write the model file a line at a time, then its memo.

    The lines around the scenario rows are formatted once and read back by
    the reader's rules (`_written_payload`): a file it would refuse raises
    ValueError before a child is forked or the file is opened, leaving no
    file and truncating no old one. A forked child (`Forked`) formats the
    second half of the scenario lines while this process writes the lines
    before them. The payload read back is the memo, stored under the digest
    of the bytes written (`_write_memo`).
    """
    provenance = provenance or {}
    path = Path(path)
    ss = model.scenarios
    second = range(ss.n_scenarios // 2, ss.n_scenarios)
    head = [*_head_lines(model)]
    tail = [*_tail_lines(baseline, provenance)]
    payload = _written_payload(path, model, head, tail, provenance)
    ending = b"".join(_encoded(tail))  # text that is not UTF-8 is refused here
    digest = hashlib.sha256()
    with (
        Forked(lambda: _encoded(_scenario_lines(ss, second))) as child,
        path.open("wb") as fh,
    ):
        first = _encoded(chain(head, _scenario_lines(ss, range(second.start))))
        for data in chain(first, child.blocks(), [ending]):
            digest.update(data)
            fh.write(data)
    _write_memo(path, dataclasses.replace(payload, digest="sha256:" + digest.hexdigest()))


def memo_path(path) -> Path:
    """The memo of model file `path`: `<path>.npz`, beside it."""
    path = Path(path)
    return path.with_name(path.name + ".npz")


# the payload's arrays, stored as arrays; its other fields go in the JSON header
_MEMO_ARRAYS = ("G", "lams", "omegas")
_MEMO_HEADER = tuple(
    f.name for f in dataclasses.fields(ModelFilePayload) if f.name not in _MEMO_ARRAYS
)


def _write_memo(path: Path, payload: ModelFilePayload) -> None:
    """Store `payload`, the reader's parse of `path`, keyed on its digest.

    The memo goes through a temp file and `os.replace`, so a reader sees an
    old memo or the new one, never part of one. Nothing is stored for a path
    that is not a regular file, or when the memo cannot be written; an old
    memo then stays, stale, and is ignored.
    """
    if not path.is_file():
        return
    header = {k: getattr(payload, k) for k in _MEMO_HEADER}
    memo = memo_path(path)
    tmp = memo.with_name(f"{memo.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(
                fh,
                header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                **{k: np.ascontiguousarray(getattr(payload, k)) for k in _MEMO_ARRAYS},
            )
        os.replace(tmp, memo)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _floats(text: str) -> tuple[int, np.ndarray | None]:
    """How many whitespace-separated fields `text` has, and their float
    values (None if one is not a number); `_checked` judges the result."""
    parts = text.split()
    try:
        return len(parts), np.fromiter(map(float, parts), float, len(parts))
    except ValueError:
        return len(parts), None


def _checked(path, line_no: int, floats, expect: int, what: str) -> np.ndarray:
    count, values = floats
    if count != expect:
        raise ModelFileError(
            path, line_no, f"{what}: expected {expect} values, got {count}"
        )
    if values is None:
        raise ModelFileError(path, line_no, f"{what}: non-numeric value")
    if not np.isfinite(values).all():
        raise ModelFileError(path, line_no, f"{what}: non-finite value")
    return values


def _model_lines(path: Path):
    """(line number, line) of a model file, numbered as `str.splitlines`
    numbers them, read one newline-ended chunk at a time.

    A chunk ends at a newline, which no UTF-8 sequence spans, so decoding
    chunk by chunk finds the byte a whole-file decode would; its error is
    raised as soon as the chunk is read.
    """
    line_no = 0
    with path.open("rb") as fh:
        for chunk_no, chunk in enumerate(fh, start=1):
            text = _decode(
                chunk, lambda line, reason: ModelFileError(path, line, reason), chunk_no
            )
            for line in text.splitlines():
                line_no += 1
                yield line_no, line


def read_model_file(path) -> ModelFilePayload:
    """A model file's raw payload, from its memo if that is current, else
    from the text.

    The file is hashed once. The memo is used if it loads without pickle,
    carries the file's digest, and holds finite float64 arrays, G N x N and
    the scenarios J x N for its header's N; in every other case the text is
    parsed (`_parse_model_text`). The digest goes into the payload either way.
    """
    path = Path(path)
    digest = file_digest(path)
    payload = _read_memo(path, digest) or _parse_model_text(path)
    return dataclasses.replace(payload, digest=digest)


def _read_memo(path: Path, digest: str) -> ModelFilePayload | None:
    """The payload the memo of `path` holds under `digest`, or None."""
    # any fault of a memo (missing, truncated, not a zip, a member missing or
    # of the wrong type) only sends the read to the text, so none is raised;
    # the file is opened here so that it is closed whatever np.load raises
    try:
        with memo_path(path).open("rb") as fh, np.load(fh, allow_pickle=False) as memo:
            header = json.loads(memo["header"].tobytes())
            if header["digest"] != digest:
                return None
            payload = ModelFilePayload(
                **{k: header[k] for k in _MEMO_HEADER},
                **{k: np.ascontiguousarray(memo[k]) for k in _MEMO_ARRAYS},
            )
        n, j = payload.periods, len(payload.lams)
    except Exception:
        return None
    rates = (payload.baseline_flat_rate, payload.baseline_connection_charge)
    shapes = ((n, n), (j, n), (j, n))
    if not (
        all(type(v) is int and v >= 1 for v in (n, j, payload.customers))
        and all(r is None or type(r) is float and math.isfinite(r) for r in rates)
        and type(payload.provenance) is dict
        and all(type(v) is str for v in payload.provenance.values())
        and all(
            a.dtype == np.float64 and a.shape == shape and np.isfinite(a).all()
            for a, shape in zip((payload.G, payload.lams, payload.omegas), shapes)
        )
    ):
        return None
    return payload


def _parse_model_text(path: Path) -> ModelFilePayload:
    """Parse a model file's text into its raw payload (`_payload`), in one
    pass over its lines."""
    return _payload(path, _model_lines(path))


def _payload(path, numbered_lines, scenarios=None) -> ModelFilePayload:
    """The raw payload of a model file's (line number, line) pairs.

    Structural problems (missing keys, wrong counts, fewer than one period
    or customer, non-finite numbers, inconsistent stored moments) raise
    ModelFileError with file/line context.
    Semantic conditions on G (symmetry, positive definiteness) are *not*
    enforced here; `to_model` applies them, and the check command reports
    them as named diagnostics.

    Scenario rows are converted to floats as they are read and judged once
    the header keys are known. A byte that is not UTF-8 is reported before
    any other error, so a line error is held until every line is read.
    `scenarios`, a J x N `ScenarioSet`, stands in for the scenario lines: its
    rows are finite and of N values already, and its moments are computed.
    """
    entries: dict[str, tuple[int, str]] = {}
    scenario_rows: dict[str, tuple[int, tuple[int, np.ndarray | None]]] = {}
    provenance: dict[str, str] = {}
    line_error = None
    for line_no, raw in numbered_lines:
        line = raw.strip()
        if line_error or not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            line_error = ModelFileError(
                path, line_no, f"expected 'key = value', got {raw!r}"
            )
            continue
        key = key.strip()
        if key.startswith("provenance."):
            provenance[key[len("provenance."):]] = value
            continue
        if key in entries or key in scenario_rows:
            line_error = ModelFileError(path, line_no, f"duplicate key {key!r}")
        elif key.startswith("scenario."):
            scenario_rows[key] = (line_no, _floats(value))
        else:
            entries[key] = (line_no, value.strip())
    if line_error:
        raise line_error

    def need(key: str) -> tuple[int, str]:
        if key not in entries:
            raise ModelFileError(path, None, f"missing key {key!r}")
        return entries[key]

    line_no, fmt = need("format")
    if fmt != MODEL_FORMAT:
        raise ModelFileError(path, line_no, f"unsupported format {fmt!r}")

    def need_int(key: str) -> int:
        line_no, text = need(key)
        try:
            return int(text)
        except ValueError:
            raise ModelFileError(path, line_no, f"{key} must be an integer") from None

    periods = need_int("periods")
    customers = need_int("customers")
    if periods < 1:
        raise ModelFileError(path, entries["periods"][0], "periods must be >= 1")
    if customers < 1:
        raise ModelFileError(path, entries["customers"][0], "customers must be >= 1")
    count = need_int("scenario_count")
    if count < 1:
        raise ModelFileError(path, entries["scenario_count"][0], "need scenarios")

    line_no, text = need("g")
    G = _checked(path, line_no, _floats(text), periods * periods, "g").reshape(
        periods, periods
    )
    if scenarios is not None:
        lams, omegas = scenarios.lams, scenarios.omegas
        moments = scenarios.lambda_bar, scenarios.omega_bar, scenarios.sigma_lambda_omega
    else:
        # rows come from the file's entries, so a scenario_count larger than
        # the file stops at the first missing key instead of allocating up front
        rows: dict[str, list[np.ndarray]] = {"lambda": [], "omega": []}
        for j in range(count):
            for kind, out in rows.items():
                key = f"scenario.{j}.{kind}"
                if key not in scenario_rows:
                    raise ModelFileError(
                        path, entries["scenario_count"][0],
                        f"scenario_count is {count} but {key!r} is missing",
                    )
                line_no, floats = scenario_rows[key]
                out.append(_checked(path, line_no, floats, periods, key))
        lams, omegas = np.array(rows["lambda"]), np.array(rows["omega"])
        moments = scenario_moments(lams, omegas)

    # stored moments are derived; verify them against the scenarios so silent
    # file edits are caught at load time
    keys = ("lambda_bar", "omega_bar", "sigma_lambda_omega")
    for key, expected in zip(keys, moments):
        line_no, text = need(key)
        stored = _checked(path, line_no, _floats(text), expected.size, key)
        scale = max(1.0, float(np.abs(expected).max()))
        if float(np.abs(stored - expected.ravel()).max()) > 1e-9 * scale:
            raise ModelFileError(path, line_no, f"{key} disagrees with scenarios")

    flat_rate, charge = (
        float(_checked(path, entries[key][0], _floats(entries[key][1]), 1, key)[0])
        if key in entries else None
        for key in ("baseline.flat_rate", "baseline.connection_charge")
    )

    return ModelFilePayload(
        periods=periods,
        customers=customers,
        G=G,
        lams=lams,
        omegas=omegas,
        baseline_flat_rate=flat_rate,
        baseline_connection_charge=charge,
        provenance=provenance,
    )


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def fit_provenance(
    load_path, prices_path, config: CalibrationConfig, created: str,
    price_unit: str = "kwh",
) -> dict[str, str]:
    """`fit`'s record: input digests, each calibration field, the price unit."""
    return {
        "command": "fit",
        "tool_version": __version__,
        "load_digest": file_digest(load_path),
        "prices_digest": file_digest(prices_path),
        **{f.name: repr(getattr(config, f.name)) for f in dataclasses.fields(config)},
        "sigma_note": "stored sigma is population (1/J); estimation reports 1/(J-1)",
        "price_unit": price_unit,
        "created": created,
    }
