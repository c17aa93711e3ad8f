"""Named diagnostic checks behind the `check` command.

Each check returns a CheckResult; the battery is also exercised directly by
the test suite. Gradient/Hessian identities are verified by central finite
differences: first derivatives use `model.central_difference` with
h = 1e-5 * max(1, |pi_k|); second derivatives use the four-point stencil
below with h = 1e-3 * max(1, |pi_k|) because the targets are exactly
quadratic (no truncation error) and the larger step suppresses cancellation
noise at utility scale. The checks give both a function of a (K, N) stack
of price vectors, as `phi_bar` and `consumer_surplus_gain` are, so a
gradient is one call on its 2N points and a Hessian one call per stencil
row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndependenceWarning
from .ingest import ModelFilePayload
from .model import (
    DemandModel,
    LinearDemandModel,
    Tariff,
    central_difference,
    consumer_surplus_gain,
    expected_demand,
    phi_bar,
    welfare_gains,
)
from .oracle import GridSpec, grid_argmax_welfare_bands, settle_scenarios
from .solvers import (
    check_assumption1,
    monopoly_price,
    planner_bound_gain,
    solve_linear,
    solve_two_part,
)

HESS_H_SCALE = 1e-3

fd_gradient = central_difference


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def fd_hessian(f, pi: np.ndarray) -> np.ndarray:
    """Four-point finite-difference Hessian of f at pi, with steps
    h_i = HESS_H_SCALE * max(1, |pi_i|).

    f maps a (K, N) stack of price vectors to K values. Row i of the
    stencil (pi +- h_i e_i, then pi +- h_i e_i +- h_j e_j for j > i) is
    evaluated in one call, so f is called N + 1 times; rows are built one
    at a time to keep the stencil's memory at O(N^2).
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    hs = np.array([HESS_H_SCALE * max(1.0, abs(pi[t])) for t in range(n)])
    out = np.empty((n, n))
    f0 = f(pi[np.newaxis])[0]
    for i in range(n):
        m = n - 1 - i
        cols = np.arange(i + 1, n)
        points = np.repeat(pi[np.newaxis], 2 + 4 * m, axis=0)
        points[0, i] += hs[i]
        points[1, i] -= hs[i]
        # corners (+,+), (+,-), (-,+), (-,-) of each pair (i, j > i)
        corners = points[2:].reshape(4, m, n)
        corners[:2, :, i] += hs[i]
        corners[2:, :, i] -= hs[i]
        corners[0::2, np.arange(m), cols] += hs[cols]
        corners[1::2, np.arange(m), cols] -= hs[cols]
        values = f(points)
        out[i, i] = (values[0] - 2.0 * f0 + values[1]) / hs[i] ** 2
        pp, pm, mp, mm = values[2:].reshape(4, m)
        out[i, cols] = out[cols, i] = (pp - pm - mp + mm) / (4.0 * hs[i] * hs[cols])
    return out


def _sample_prices(model: LinearDemandModel, count: int, seed: int) -> np.ndarray:
    """Seeded random price vectors between the cost level and the monopoly range."""
    rng = np.random.default_rng(seed)
    lam = model.scenarios.lambda_bar
    pim = monopoly_price(model, verify=False)
    lo = 0.5 * lam
    hi = 1.2 * np.maximum(pim, lam + 1e-3)
    return lo + rng.random((count, model.periods)) * (hi - lo)


def check_gradient_identity(model: LinearDemandModel, baseline: Tariff) -> CheckResult:
    """FD gradient of the consumer-surplus gain must equal -E[D(pi)]."""
    rel_tol = 1e-6
    worst = 0.0
    for pi in _sample_prices(model, 10, seed=0):
        grad = fd_gradient(
            lambda p: consumer_surplus_gain(model, p, baseline), pi, stacked=True
        )
        dbar = expected_demand(model, pi)
        scale = max(1.0, float(np.abs(dbar).max()))
        worst = max(worst, float(np.abs(grad + dbar).max()) / scale)
    status = "PASS" if worst <= rel_tol else "FAIL"
    return CheckResult(
        "gradient-identity", status, f"max relative error {worst:.3e} (tol {rel_tol:g})"
    )


def check_hessian_identity(model: LinearDemandModel) -> CheckResult:
    """FD Hessian of the retailer surplus must be -2G, eigenvalues negative."""
    rel_tol = 1e-5
    worst = 0.0
    eig_ok = True
    for pi in _sample_prices(model, 3, seed=1):
        hess = fd_hessian(lambda p: phi_bar(model, p), pi)
        scale = max(1.0, float(np.abs(model.G).max()))
        worst = max(worst, float(np.abs(hess + 2.0 * model.G).max()) / scale)
        eig_ok = eig_ok and bool(np.linalg.eigvalsh(0.5 * (hess + hess.T))[-1] < 0)
    status = "PASS" if worst <= rel_tol and eig_ok else "FAIL"
    return CheckResult(
        "hessian-identity",
        status,
        f"max relative error {worst:.3e} (tol {rel_tol:g}), "
        f"eigenvalues {'negative' if eig_ok else 'NOT all negative'}",
    )


def check_phi_settlement(model: LinearDemandModel) -> CheckResult:
    """Analytic margin must match the per-scenario settlement average."""
    rel_tol = 1e-10
    worst = 0.0
    for pi in _sample_prices(model, 5, seed=2):
        tariff = Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
        settled = settle_scenarios(model, tariff).mean_margin
        analytic = phi_bar(model, pi)
        worst = max(worst, abs(settled - analytic) / max(1.0, abs(analytic)))
    status = "PASS" if worst <= rel_tol else "FAIL"
    return CheckResult(
        "phi-settlement", status, f"max relative gap {worst:.3e} (tol {rel_tol:g})"
    )


def check_assumption1_result(model: LinearDemandModel) -> CheckResult:
    lam = model.scenarios.lambda_bar
    pim = monopoly_price(model, verify=False)
    samples = [lam, 0.5 * (lam + pim), pim]
    report = check_assumption1(model, samples)
    eigs = ", ".join(f"{e:.3e}" for e in report.max_eigenvalues)
    status = "PASS" if report.passed else "FAIL"
    return CheckResult("assumption-1", status, f"max symmetric eigenvalues [{eigs}]")


# multiples of the per-grid-step rs variation tried for the constrained
# oracle: too narrow leaves near-curve grid points sparse, too wide lets the
# argmax chase rs slack, and the workable width depends on how the constraint
# curve happens to thread the grid
BAND_LADDER = (0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0)


def rs_cell_scale(model: DemandModel, pi: np.ndarray, step: float) -> float:
    """rs variation across one grid step at pi (sets the band scale)."""
    grad = fd_gradient(lambda p: phi_bar(model, p), pi, stacked=True)
    return max(float(np.abs(grad).max()) * step, 1e-12)


def check_oracles(
    model: LinearDemandModel, baseline: Tariff
) -> tuple[CheckResult, CheckResult]:
    """Two-part and Ramsey solutions against one exhaustive price-grid pass.

    The 400-step grid spans [0, 1.25 max pi_M] in every period, so it is
    searched only for N <= 3; above that both checks SKIP. The unconstrained
    argmax checks the two-part price; the `BAND_LADDER` bands around a
    mid-range revenue target check the Ramsey price.
    """
    if model.periods > 3:
        detail = f"N={model.periods} > 3"
        return (
            CheckResult("oracle-two-part", "SKIP", detail),
            CheckResult("oracle-linear", "SKIP", detail),
        )
    pim = monopoly_price(model, verify=False)
    hi = float(max(np.max(pim) * 1.25, 1.0))
    grid = GridSpec.cube(0.0, hi, steps=400, dims=model.periods)
    step = grid.max_step

    pistar = solve_two_part(model, 0.0).prices
    lo = phi_bar(model, model.scenarios.lambda_bar)
    target = 0.5 * (lo + phi_bar(model, pim))
    solution = solve_linear(model, target)
    cell = rs_cell_scale(model, solution.prices, step)
    bands = [mult * cell for mult in BAND_LADDER]
    free, *banded = grid_argmax_welfare_bands(
        model, baseline, target, [None, *bands], grid
    )

    gap = float(np.abs(pistar - free[0]).max())
    status = "PASS" if gap <= step * (1 + 1e-9) else "FAIL"
    two_part = CheckResult(
        "oracle-two-part", status,
        f"solver/grid gap {gap:.4g} vs one step {step:.4g}",
    )

    best_gap = math.inf
    best_band = math.nan
    for band, best in zip(bands, banded):
        if best is None:
            continue
        gap = float(np.abs(solution.prices - best[0]).max())
        if gap < best_gap:
            best_gap, best_band = gap, band
    if not math.isfinite(best_gap):
        return two_part, CheckResult("oracle-linear", "FAIL", "no feasible grid point")
    status = "PASS" if best_gap <= step * (1 + 1e-9) else "FAIL"
    return two_part, CheckResult(
        "oracle-linear", status,
        f"solver/grid gap {best_gap:.4g} vs one step {step:.4g} "
        f"(band {best_band:.3g})",
    )


def check_planner_bound(model: LinearDemandModel, baseline: Tariff) -> CheckResult:
    tol = 1e-9
    tp = solve_two_part(model, 0.0)
    sw_star = welfare_gains(model, tp, baseline).delta_sw
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bound = planner_bound_gain(model, baseline)
    a2 = any(issubclass(w.category, IndependenceWarning) for w in caught)
    gap = abs(sw_star - bound)
    scale = max(1.0, abs(bound))
    status = "PASS" if gap <= tol * scale else "FAIL"
    note = "A2 warning fired" if a2 else "A2 looks satisfied"
    return CheckResult(
        "planner-bound", status, f"gap {gap:.3e} (tol {tol:g} rel); {note}"
    )


def run_model_checks(payload: ModelFilePayload) -> list[CheckResult]:
    """Full battery on a model-file payload; structural G checks run first."""
    results = []
    G = payload.G
    scale = max(1.0, float(np.abs(G).max()))
    sym_gap = float(np.abs(G - G.T).max())
    sym_ok = sym_gap <= 1e-12 * scale
    results.append(
        CheckResult(
            "G-symmetric", "PASS" if sym_ok else "FAIL", f"max asymmetry {sym_gap:.3e}"
        )
    )
    pd_ok = False
    if sym_ok:
        try:
            np.linalg.cholesky(G)
            pd_ok = True
        except np.linalg.LinAlgError:
            pd_ok = False
    detail = "Cholesky succeeded" if pd_ok else "Cholesky failed"
    results.append(
        CheckResult("G-positive-definite", "PASS" if pd_ok else "FAIL", detail)
    )
    if not (sym_ok and pd_ok):
        return results

    model = payload.to_model()
    baseline = payload.baseline_tariff()
    if baseline is None:
        # internal reference tariff; every check below is baseline-invariant
        baseline = Tariff(
            connection_charge=0.0,
            prices=1.25 * model.scenarios.lambda_bar + 0.01,
            family="two-part-optimal",
        )

    results.append(check_assumption1_result(model))
    results.append(check_gradient_identity(model, baseline))
    results.append(check_hessian_identity(model))
    results.append(check_phi_settlement(model))

    results.extend(check_oracles(model, baseline))
    results.append(check_planner_bound(model, baseline))
    return results
