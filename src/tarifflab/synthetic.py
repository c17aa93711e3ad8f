"""Bundled synthetic summer dataset (92 days x 24 h).

The original utility consumption data is not redistributable, so the package
ships a synthetic stand-in generated from a fixed seed and calibrated to the
same summary statistics: ~35 GWh/day of aggregate residential load (so that
gross revenue at the default flat tariff lands near $7.2M/day for 2.2M
customers) and day-ahead prices averaging ~3.5 c/kWh with an afternoon peak.
A shared daily heat index drives both series, giving the mild positive
price/load correlation seen in practice.

Regenerate with `python -m tarifflab.synthetic --out-dir <dir>`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from ._forkjoin import Forked

DEFAULT_SEED = 20150601
DEFAULT_DAYS = 92
DEFAULT_PERIODS = 24

# aggregate daily energy target, kWh (2.2M customers x ~16 kWh/day)
_TOTAL_DAILY_KWH = 35.2e6
# mean day-ahead price level, $/kWh
_PRICE_LEVEL = 0.035

LOAD_FILENAME = "synthetic_load.csv"
PRICES_FILENAME = "synthetic_prices.csv"


def _hour_shapes(periods: int) -> tuple[np.ndarray, np.ndarray]:
    h = np.arange(periods)
    evening = np.exp(-0.5 * ((h - 19.0) / 3.0) ** 2)
    morning = np.exp(-0.5 * ((h - 8.0) / 2.0) ** 2)
    load_shape = 0.75 + 0.55 * evening + 0.18 * morning
    load_shape /= load_shape.mean()
    afternoon = np.exp(-0.5 * ((h - 16.0) / 3.5) ** 2)
    price_shape = 0.70 + 0.85 * afternoon
    price_shape /= price_shape.mean()
    return load_shape, price_shape


def synthetic_series(
    days: int = DEFAULT_DAYS,
    periods: int = DEFAULT_PERIODS,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (load, prices) arrays of shape (days, periods).

    Load in kWh (aggregate across customers), prices in $/kWh. Deterministic
    in (days, periods, seed).
    """
    rng = np.random.default_rng(seed)
    load_shape, price_shape = _hour_shapes(periods)

    # AR(1) daily heat index shared by both series
    heat = np.empty(days)
    shocks = rng.standard_normal(days)
    heat[0] = shocks[0]
    for j in range(1, days):
        heat[j] = 0.7 * heat[j - 1] + np.sqrt(1 - 0.7**2) * shocks[j]

    load_noise = rng.standard_normal((days, periods))
    price_noise = rng.standard_normal((days, periods))
    # day-level price shocks independent of the heat index (fuel costs,
    # outages) keep the load/price correlation away from 1
    price_day_shock = rng.standard_normal(days)

    base_hourly = _TOTAL_DAILY_KWH / periods
    load_factor = 1.0 + 0.10 * heat[:, None] + 0.03 * load_noise
    load = base_hourly * load_shape[None, :] * np.clip(load_factor, 0.3, None)

    price_factor = (
        1.0
        + 0.18 * heat[:, None]
        + 0.14 * price_day_shock[:, None]
        + 0.10 * price_noise
    )
    prices = _PRICE_LEVEL * price_shape[None, :] * np.clip(price_factor, 0.15, None)
    return load, prices


def _labels(count: int) -> np.ndarray:
    """The text `f"{i},"` of each i in range(count), one uint8 row each,
    right-aligned in NUL bytes."""
    i = np.arange(count)[:, None]
    power = 10 ** np.arange(len(str(count - 1)) - 1, -1, -1)
    digits = (i // power % 10 + ord("0")) * ((i >= power) | (power == 1))
    return np.hstack([digits, np.full((count, 1), ord(","))]).astype(np.uint8)


def _series_bytes(values: np.ndarray) -> bytes:
    """The CSV text of a (days x periods) block, one `day,hour,value` row per cell."""
    from ._floatfmt import lines

    days, periods = values.shape
    labels = np.hstack([np.repeat(_labels(days), periods, axis=0),
                        np.tile(_labels(periods), (days, 1))])
    return b"day,hour,value\n" + lines(values.reshape(-1, 1), labels)


def write_synthetic_csvs(
    out_dir,
    days: int = DEFAULT_DAYS,
    periods: int = DEFAULT_PERIODS,
    seed: int = DEFAULT_SEED,
) -> tuple[Path, Path]:
    """Write the load and price CSVs; a forked child (`Forked`) formats the
    prices while this process formats and writes the load."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    load, prices = synthetic_series(days, periods, seed)
    load_path = out_dir / LOAD_FILENAME
    prices_path = out_dir / PRICES_FILENAME
    from . import _floatfmt  # noqa: F401 -- imported once, before the fork
    with Forked(lambda: [_series_bytes(prices)]) as child:
        load_path.write_bytes(_series_bytes(load))
        prices_path.write_bytes(b"".join(child.blocks()))
    return load_path, prices_path


def bundled_dataset_paths() -> tuple[Path, Path]:
    """Paths of the packaged synthetic load and price CSVs."""
    # imported here: it costs `python -m tarifflab.synthetic` start-up time
    from importlib import resources

    data = resources.files("tarifflab") / "data"
    return Path(str(data / LOAD_FILENAME)), Path(str(data / PRICES_FILENAME))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tarifflab.synthetic",
        description="regenerate the bundled synthetic dataset",
    )
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--periods", type=int, default=DEFAULT_PERIODS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    for name, least in (("days", 1), ("periods", 1), ("seed", 0)):
        if getattr(args, name) < least:
            parser.error(f"--{name} must be at least {least}, got {getattr(args, name)}")
    try:
        load_path, prices_path = write_synthetic_csvs(
            args.out_dir, args.days, args.periods, args.seed
        )
        print(f"wrote {load_path}")
        print(f"wrote {prices_path}")
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
    except BrokenPipeError:
        # stdout was closed; both files are already written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
