"""Independent output checker for the tarifflab benchmark.

Everything here is recomputed from the generated load and price CSVs with
numpy alone; `tarifflab` is never imported, so a fault in the package cannot
hide itself by being used to check its own output.

The reference is the linear-quadratic model of the paper with the CLI's
default calibration:

    G = c K,  K[k, t] = alpha^|k - t|,  c = -eps * 1'xbar / (rate * 1'K1)
    Omega_j = x_j + G 1 rate
    phi(pi) = (pi - lam_bar)'(omega_bar - G pi) - tr Sigma

and the closed forms of each tariff family:

    two-part       pi = lam_bar, A = (F - phi(lam_bar)) / M,
                   dSW = 1/2 (pi_b - lam_bar)' G (pi_b - lam_bar)
    linear         pi = lam_bar + s d,  d = G^-1 omega_bar - lam_bar,
                   s = 2c / (1 + sqrt(1 - 4c)),  c = (F + tr Sigma) / d'Gd
    flat           lowest root r of phi(r 1) = F (a scalar quadratic)
    fixed-A        linear at the residual F - M A_b
    adjusted-flat  flat at the residual F - M A_b

Tolerances come from the solver's own acceptance rule, |rs - F| <=
rs_tol * max(1, |F|) with rs_tol = 1e-8, and from its bisection width
s_tol = 1e-13. Near the monopoly end the margin is flat in the markup, so a
revenue error e moves the markup by up to sqrt(e / d'Gd) rather than
e / slope; the price tolerance takes the smaller of the two bounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the CLI's `fit` defaults, which every workload uses
FLAT_RATE = 0.172
ELASTICITY = -0.3
ALPHA = 0.2
CUSTOMERS = 2_200_000
CONNECTION_CHARGE = 0.52

# the solver defaults the tolerances are derived from
RS_TOL = 1e-8
S_TOL = 1e-13
# relative size of floating-point rounding in sums of a few thousand terms
ROUND = 1e-12

FAMILIES = (
    "two-part-optimal",
    "linear-optimal",
    "flat-linear",
    "fixed-A-two-part",
    "adjusted-flat",
)
STEPS = 41


def load_series(path) -> np.ndarray:
    """Dense (days, hours) array from a `day,hour,value` CSV."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    days = raw[:, 0].astype(np.int64)
    hours = raw[:, 1].astype(np.int64)
    labels, day_index = np.unique(days, return_inverse=True)
    periods = int(hours.max()) + 1
    if raw.shape[0] != labels.size * periods:
        raise ValueError(f"{path}: not every day has hours 0..{periods - 1}")
    out = np.full((labels.size, periods), np.nan)
    out[day_index, hours] = raw[:, 2]
    if np.isnan(out).any():
        raise ValueError(f"{path}: duplicate or missing (day, hour) cells")
    return out


@dataclass
class Bounds:
    """Feasible range [lo, hi] of the target a family's volumetric part meets."""

    lo: float
    hi: float


class Reference:
    """The calibrated model and closed-form tariffs, recomputed from CSVs."""

    def __init__(self, load_csv, price_csv):
        self.load_csv = Path(load_csv)
        self.price_csv = Path(price_csv)
        x = load_series(load_csv)
        lams = load_series(price_csv)
        if x.shape != lams.shape:
            raise ValueError("load and price CSVs disagree in shape")
        self.x = x
        self.lams = lams
        self.J, self.N = x.shape
        n = self.N
        idx = np.arange(n)
        kernel = ALPHA ** np.abs(idx[:, None] - idx[None, :]).astype(float)
        total = float(x.mean(axis=0).sum())
        self.G = -ELASTICITY * total / (FLAT_RATE * float(kernel.sum())) * kernel
        self.omegas = x + self.G @ np.full(n, FLAT_RATE)
        self.lam_bar = lams.mean(axis=0)
        self.om_bar = self.omegas.mean(axis=0)
        self.sigma = (lams - self.lam_bar).T @ (self.omegas - self.om_bar) / self.J
        self.tr_sigma = float(np.trace(self.sigma))
        self.M = CUSTOMERS
        self.pi_b = np.full(n, FLAT_RATE)
        self.A_b = CONNECTION_CHARGE
        self.rs_b = self.phi(self.pi_b) + self.M * self.A_b
        # Ramsey ray and flat quadratic
        self.d = np.linalg.solve(self.G, self.om_bar) - self.lam_bar
        self.dGd = float(self.d @ self.G @ self.d)
        ones = np.ones(n)
        g1 = self.G @ ones
        self.flat_a = float(ones @ g1)
        self.flat_b = float(ones @ self.om_bar + self.lam_bar @ g1)
        self.flat_c0 = float(self.lam_bar @ self.om_bar) + self.tr_sigma
        # absolute rounding allowance for margins, $/cycle
        price_scale = 1.0 + float(np.abs(self.lam_bar).max() + np.abs(self.d).max())
        self.noise = ROUND * max(1.0, price_scale * float(np.abs(self.om_bar).sum()))
        self.linear = Bounds(-self.tr_sigma, 0.25 * self.dGd - self.tr_sigma)
        self.flat = Bounds(-math.inf, self.flat_b**2 / (4.0 * self.flat_a) - self.flat_c0)

    # --- welfare functionals -------------------------------------------------

    def phi(self, pi) -> float:
        pi = np.asarray(pi, dtype=float)
        return float((pi - self.lam_bar) @ (self.om_bar - self.G @ pi)) - self.tr_sigma

    def settle(self, pi, charge: float) -> float:
        """Mean per-scenario retailer margin M A + (pi - lam_j)'D_j(pi)."""
        pi = np.asarray(pi, dtype=float)
        demand = self.omegas - self.G @ pi
        margins = np.einsum("jt,jt->j", pi[None, :] - self.lams, demand)
        return self.M * charge + float(margins.mean())

    def cs(self, pi, charge: float) -> float:
        pi = np.asarray(pi, dtype=float)
        return 0.5 * float(pi @ self.G @ pi) - float(pi @ self.om_bar) - self.M * charge

    def band(self, target: float) -> float:
        """The solver's revenue acceptance band around `target`."""
        return RS_TOL * max(1.0, abs(target))

    # --- closed forms --------------------------------------------------------

    def two_part_dsw(self) -> float:
        gap = self.pi_b - self.lam_bar
        return 0.5 * float(gap @ self.G @ gap)

    def linear_price(self, target: float) -> tuple[np.ndarray, np.ndarray]:
        """Ramsey price at `target` and its per-period tolerance."""
        c = min(max((target + self.tr_sigma) / self.dGd, 0.0), 0.25)
        s = 2.0 * c / (1.0 + math.sqrt(1.0 - 4.0 * c))
        err = self.band(target) + self.noise
        ds = S_TOL + _root_shift(err, slope=(1.0 - 2.0 * s) * self.dGd, curvature=self.dGd)
        tol = ds * np.abs(self.d) + ROUND * (np.abs(self.lam_bar) + np.abs(self.d))
        return self.lam_bar + s * self.d, tol

    def flat_rate(self, target: float) -> tuple[float, float]:
        """Low root of the flat margin at `target` and its tolerance."""
        a, b = self.flat_a, self.flat_b
        c = self.flat_c0 + target
        disc = max(b * b - 4.0 * a * c, 0.0)
        rate = 2.0 * c / (b + math.sqrt(disc))
        peak = b / (2.0 * a)
        err = self.band(target) + self.noise
        tol = S_TOL * max(1.0, abs(peak), abs(rate))
        tol += _root_shift(err, slope=math.sqrt(disc), curvature=a)
        return rate, tol + ROUND * max(1.0, abs(rate))

    def family_bounds(self, family: str) -> Bounds | None:
        if family == "two-part-optimal":
            return None
        if family in ("linear-optimal", "fixed-A-two-part"):
            return self.linear
        return self.flat

    def family_target(self, family: str, F: float) -> float:
        """Target the family's volumetric part must meet on its own."""
        if family in ("fixed-A-two-part", "adjusted-flat"):
            return F - self.M * self.A_b
        return F

    def expected(self, family: str, F: float):
        """(prices, price tolerance, connection charge) the family must give at F."""
        target = self.family_target(family, F)
        if family == "two-part-optimal":
            tol = ROUND * np.abs(self.lam_bar)
            return self.lam_bar.copy(), tol, (F - self.phi(self.lam_bar)) / self.M
        if family in ("linear-optimal", "fixed-A-two-part"):
            pi, tol = self.linear_price(target)
        else:
            rate, rtol = self.flat_rate(target)
            pi, tol = np.full(self.N, rate), np.full(self.N, rtol)
        charge = 0.0 if family in ("linear-optimal", "flat-linear") else self.A_b
        return pi, tol, charge

    def is_feasible(self, family: str, F: float) -> bool | None:
        """True or False when clear, None inside the rounding guard of an edge."""
        bounds = self.family_bounds(family)
        if bounds is None:
            return True
        target = self.family_target(family, F)
        slack = self.band(target)
        lo_gap = target - (bounds.lo - slack)
        hi_gap = (bounds.hi + slack) - target
        if min(lo_gap, hi_gap) > self.noise:
            return True
        if min(lo_gap, hi_gap) < -self.noise:
            return False
        return None


def _root_shift(err: float, slope: float, curvature: float) -> float:
    """Largest root move a margin error `err` allows on a concave quadratic.

    With margin m(s) = peak - curvature (u - s)^2 and slope 2 curvature u at
    the root, an error e moves the root by u - sqrt(u^2 - e/curvature), which
    is below both 2e/slope and sqrt(e/curvature).
    """
    bound = math.sqrt(err / curvature)
    if slope > 0:
        bound = min(bound, 2.0 * err / slope)
    return bound


# --- rows of the front CSV (written by both `solve --out` and `pareto --out`) --


@dataclass
class Row:
    family: str
    F: float
    delta_cs: float
    delta_rs: float
    delta_sw: float
    feasible: bool
    prices: np.ndarray


def read_rows(text: str) -> list[Row]:
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[:6] != ["family", "F", "delta_cs", "delta_rs", "delta_sw", "feasible"]:
        raise ValueError(f"unexpected front CSV header {header[:6]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"front CSV row has {len(cells)} cells, header {len(header)}")
        if cells[5] not in ("true", "false"):
            raise ValueError(f"feasible flag {cells[5]!r}")
        rows.append(
            Row(
                family=cells[0],
                F=float(cells[1]),
                delta_cs=float(cells[2]),
                delta_rs=float(cells[3]),
                delta_sw=float(cells[4]),
                feasible=cells[5] == "true",
                prices=np.array([float(c) for c in cells[6:]]),
            )
        )
    return rows


def check_row(ref: Reference, row: Row) -> list[str]:
    """Every property a single (family, F) row must have."""
    where = f"{row.family} F={row.F!r}"
    if row.family not in FAMILIES:
        return [f"{where}: unknown family"]
    if row.prices.size != ref.N:
        return [f"{where}: {row.prices.size} prices for {ref.N} periods"]
    feasible = ref.is_feasible(row.family, row.F)
    if not row.feasible:
        errors = []
        values = [row.delta_cs, row.delta_rs, row.delta_sw, *row.prices]
        if not all(math.isnan(v) for v in values):
            errors.append(f"{where}: infeasible row carries numbers")
        if feasible is True:
            errors.append(f"{where}: marked infeasible inside the feasible range")
        return errors
    if feasible is False:
        return [f"{where}: marked feasible outside the feasible range"]
    if not np.isfinite(row.prices).all():
        return [f"{where}: non-finite price"]

    errors = []
    pi_ref, pi_tol, charge = ref.expected(row.family, row.F)
    gap = np.abs(row.prices - pi_ref)
    if (gap > pi_tol).any():
        t = int(np.argmax(gap - pi_tol))
        errors.append(
            f"{where}: price {t} is {float(row.prices[t])!r}, closed form "
            f"{float(pi_ref[t])!r} (tolerance {pi_tol[t]:.3g})"
        )
    band = ref.band(ref.family_target(row.family, row.F)) + ref.noise
    settled = ref.settle(row.prices, charge)
    if abs(settled - row.F) > band:
        errors.append(
            f"{where}: settlement revenue {settled!r} misses target by "
            f"{settled - row.F:.3g} (band {band:.3g})"
        )
    if abs(row.delta_rs - (row.F - ref.rs_b)) > band + ref.noise:
        errors.append(f"{where}: delta_rs {row.delta_rs!r} is not F - rs_baseline")
    dcs = ref.cs(row.prices, charge) - ref.cs(ref.pi_b, ref.A_b)
    cs_tol = ref.noise + ROUND * abs(ref.cs(ref.pi_b, ref.A_b))
    if abs(row.delta_cs - dcs) > cs_tol:
        errors.append(f"{where}: delta_cs {row.delta_cs!r}, recomputed {dcs!r}")
    if abs(row.delta_sw - (row.delta_cs + row.delta_rs)) > cs_tol:
        errors.append(f"{where}: delta_sw is not delta_cs + delta_rs")
    if row.family == "two-part-optimal":
        dsw = ref.two_part_dsw()
        if abs(row.delta_sw - dsw) > cs_tol + ref.noise:
            errors.append(f"{where}: delta_sw {row.delta_sw!r}, Corollary 2 gives {dsw!r}")
    if row.family in ("flat-linear", "adjusted-flat") and np.ptp(row.prices) != 0.0:
        errors.append(f"{where}: flat family with unequal prices")
    return errors


def check_front(ref: Reference, rows: list[Row]) -> list[str]:
    """Row checks plus the properties a whole 5-family sweep must have."""
    errors = [e for row in rows for e in check_row(ref, row)]
    by_family: dict[str, list[Row]] = {f: [] for f in FAMILIES}
    for row in rows:
        by_family.setdefault(row.family, []).append(row)
    grids = {f: [r.F for r in rs] for f, rs in by_family.items()}
    for family, grid in grids.items():
        if len(grid) != STEPS:
            errors.append(f"{family}: {len(grid)} rows, expected {STEPS}")
    if errors:
        return errors
    grid = np.array(grids[FAMILIES[0]])
    if any(g != list(grid) for g in grids.values()):
        errors.append("families were swept over different targets")
    lo, hi = ref.linear.lo, ref.linear.hi
    expect = np.linspace(lo, hi, STEPS)
    if float(np.abs(grid - expect).max()) > ref.noise + ROUND * max(abs(lo), abs(hi)):
        errors.append(f"default grid [{grid[0]!r}, {grid[-1]!r}] is not [{lo!r}, {hi!r}]")

    def sw_tol(row: Row) -> float:
        """Welfare error the row's price tolerance allows: |grad SW| . tol."""
        _, tol, _ = ref.expected(row.family, row.F)
        grad = ref.G @ (ref.lam_bar - row.prices)
        return float(np.abs(grad) @ tol) + ref.noise

    # nested families: more freedom never lowers welfare at the same target
    chains = [
        ("two-part-optimal", "linear-optimal", "flat-linear"),
        ("two-part-optimal", "fixed-A-two-part", "adjusted-flat"),
    ]
    for i in range(STEPS):
        for chain in chains:
            for wide, narrow in zip(chain, chain[1:]):
                a, b = by_family[wide][i], by_family[narrow][i]
                if not (a.feasible and b.feasible):
                    continue
                if a.delta_sw < b.delta_sw - sw_tol(a) - sw_tol(b):
                    errors.append(
                        f"F={a.F!r}: {wide} delta_sw {a.delta_sw!r} below {narrow} "
                        f"{b.delta_sw!r}"
                    )
    # Corollary 2: the two-part welfare gain does not depend on F
    sw = np.array([r.delta_sw for r in by_family["two-part-optimal"]])
    spread = float(sw.max() - sw.min())
    if spread > 2 * ref.noise + ROUND * float(np.abs(sw).max()):
        errors.append(f"two-part delta_sw varies with F by {spread:.3g}")
    # Corollary 3: the linear front delta_rs(delta_cs) is concave
    pts = sorted(
        (r.delta_cs, r.delta_rs) for r in by_family["linear-optimal"] if r.feasible
    )
    slopes = [
        (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:]) if x1 != x0
    ]
    for k, (s0, s1) in enumerate(zip(slopes, slopes[1:])):
        if s1 > s0 + 1e-7:
            errors.append(f"linear front not concave at segment {k + 1}: {s0!r} -> {s1!r}")
    return errors


def mutation_self_test(ref: Reference, rows: list[Row]) -> list[str]:
    """The checker must reject a 1e-6 relative price change and a flipped flag.

    Both mutations are applied to the interior linear-optimal row, where the
    Ramsey price is pinned to ~1e-9 relative; at the monopoly end the square-
    root sensitivity would rightly accept a change that small.
    """
    linear = [r for r in rows if r.family == "linear-optimal"]
    row = linear[len(linear) // 2]
    if not row.feasible:
        return ["self-test: interior linear row is infeasible"]
    errors = []
    perturbed = Row(**{**row.__dict__, "prices": row.prices * (1.0 + 1e-6)})
    if not check_row(ref, perturbed):
        errors.append("self-test: a price perturbed by 1e-6 relative was accepted")
    # flipped as the program writes an infeasible point, so only the feasible
    # range can tell it apart
    nan = math.nan
    flipped = Row(row.family, row.F, nan, nan, nan, False, np.full(ref.N, nan))
    if not check_row(ref, flipped):
        errors.append("self-test: a flipped feasible flag was accepted")
    return errors


# --- other outputs -------------------------------------------------------------


def _digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_model_file(ref: Reference, path) -> list[str]:
    """The fitted model file must carry the reference model exactly."""
    entries = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key.strip()] = value.strip()

    def floats(key: str) -> np.ndarray:
        return np.array(entries.get(key, "").split(), dtype=float)

    errors = []
    if entries.get("format") != "tarifflab-model/1":
        errors.append("model file: wrong format line")
    if entries.get("periods") != str(ref.N) or entries.get("scenario_count") != str(ref.J):
        return errors + ["model file: wrong periods or scenario count"]
    if entries.get("customers") != str(CUSTOMERS):
        errors.append("model file: wrong customer count")

    def close(key: str, got: np.ndarray, want: np.ndarray, rel: float) -> None:
        if got.shape != want.shape:
            errors.append(f"model file: {key} has {got.size} values, expected {want.size}")
            return
        scale = max(1.0, float(np.abs(want).max()))
        gap = float(np.abs(got - want).max())
        if gap > rel * scale:
            errors.append(f"model file: {key} off by {gap:.3g} (scale {scale:.3g})")

    close("g", floats("g"), ref.G.ravel(), ROUND)
    close("lambda_bar", floats("lambda_bar"), ref.lam_bar, ROUND)
    close("omega_bar", floats("omega_bar"), ref.om_bar, ROUND)
    close("sigma_lambda_omega", floats("sigma_lambda_omega"), ref.sigma.ravel(), 1e-9)
    lams = np.array([floats(f"scenario.{j}.lambda") for j in range(ref.J)])
    omegas = np.array([floats(f"scenario.{j}.omega") for j in range(ref.J)])
    if lams.shape != ref.lams.shape or not np.array_equal(lams, ref.lams):
        errors.append("model file: price scenarios differ from the price CSV")
    close("scenario omegas", omegas, ref.omegas, ROUND)
    if floats("baseline.flat_rate").tolist() != [FLAT_RATE]:
        errors.append("model file: wrong baseline flat rate")
    if floats("baseline.connection_charge").tolist() != [CONNECTION_CHARGE]:
        errors.append("model file: wrong baseline connection charge")
    if entries.get("provenance.load_digest") != _digest(ref.load_csv):
        errors.append("model file: load digest does not match the load CSV")
    if entries.get("provenance.prices_digest") != _digest(ref.price_csv):
        errors.append("model file: price digest does not match the price CSV")
    return errors


def _stdout_value(text: str, prefix: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0])
            except (IndexError, ValueError):
                return None
    return None


def check_fit_stdout(ref: Reference, text: str) -> list[str]:
    errors = []
    if f"periods: {ref.N}  scenarios: {ref.J}" not in text:
        errors.append("fit: missing or wrong periods/scenarios line")
    eps = _stdout_value(text, "realized elasticity at flat rate: ")
    if eps is None or abs(eps - ELASTICITY) > 1e-9:
        errors.append(f"fit: realized elasticity {eps!r}, target {ELASTICITY!r}")
    tr = _stdout_value(text, "tr cov(lambda, Omega): ")
    if tr is None or abs(tr - ref.tr_sigma) > 1e-9 * max(1.0, abs(ref.tr_sigma)):
        errors.append(f"fit: tr cov {tr!r}, recomputed {ref.tr_sigma!r}")
    return errors


def check_solve_csv(ref: Reference, path, family: str, target: float | None) -> list[str]:
    """One `solve --out` row; `target` None means the baseline's own surplus."""
    rows = read_rows(Path(path).read_text())
    if len(rows) != 1 or rows[0].family != family or not rows[0].feasible:
        return [f"solve {family}: expected one feasible {family} row"]
    want = ref.rs_b if target is None else target
    if abs(rows[0].F - want) > ref.noise:
        return [f"solve {family}: target {rows[0].F!r}, expected {want!r}"]
    return check_row(ref, rows[0])


CHECK_NAMES = (
    "G-symmetric",
    "G-positive-definite",
    "assumption-1",
    "gradient-identity",
    "hessian-identity",
    "phi-settlement",
    "oracle-two-part",
    "oracle-linear",
    "planner-bound",
)


def check_check_output(ref: Reference, text: str) -> list[str]:
    """The battery must report every named check, and its claims must hold."""
    got = []
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL", "SKIP"):
            got.append((rest.partition(":")[0], status))
    grid_status = "SKIP" if ref.N > 3 else "PASS"
    want = [(n, grid_status if n.startswith("oracle-") else "PASS") for n in CHECK_NAMES]
    errors = []
    if got != want:
        errors.append(f"check: statuses {got!r}, expected {want!r}")
    if "all checks passed" not in text:
        errors.append("check: no 'all checks passed' line")
    # the claims behind the PASS lines, recomputed
    try:
        np.linalg.cholesky(ref.G)
    except np.linalg.LinAlgError:
        errors.append("check: reference G is not positive definite")
    for pi in (ref.lam_bar, ref.pi_b, ref.lam_bar + 0.3 * ref.d):
        settled, analytic = ref.settle(pi, 0.0), ref.phi(pi)
        if abs(settled - analytic) > 1e-10 * max(1.0, abs(analytic)):
            errors.append("check: settlement and closed-form margins disagree")
    return errors


def check_svg(path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"svg: not well-formed XML ({exc})"]
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    missing = [f for f in FAMILIES if f not in texts]
    return [f"svg: no legend entry for {missing}"] if missing else []


def check_manifest(out_path, model_path, command: str) -> list[str]:
    path = Path(str(out_path) + ".manifest.json")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest {path.name}: unreadable ({exc})"]
    errors = []
    if manifest.get("command") != command:
        errors.append(f"manifest {path.name}: command {manifest.get('command')!r}")
    if manifest.get("inputs", {}).get("model") != _digest(model_path):
        errors.append(f"manifest {path.name}: model digest does not match")
    return errors
