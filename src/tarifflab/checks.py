"""Named diagnostic checks behind the `check` command.

Each check returns a CheckResult; the battery is also exercised directly by
the test suite. Gradient/Hessian identities are verified by finite
differences: first derivatives use `model.central_difference` with
h = 1e-5 * max(1, |pi_k|); second derivatives use the one-sided stencil of
`fd_hessian` with steps 2h, h = 1e-3 * max(1, |pi_k|). The margin is exactly
quadratic, so the stencil has no truncation error; it needs only the
N(N+1)/2 + N + 1 points that determine a quadratic, and the large step
suppresses cancellation noise at utility scale. The checks give both a
function of a (K, N) stack of price vectors, as `phi_bar` and the surplus
term `_cs_term` are, so a gradient is one call on its 2N points and a
Hessian N calls of at most 2N + 1 points each. Errors fold with
`np.maximum`, which keeps a NaN, and every tolerance test fails on NaN.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndependenceWarning
from .ingest import ModelFilePayload
from .model import (
    FD_STEP,
    DemandModel,
    LinearDemandModel,
    Tariff,
    _cs_term,
    central_difference,
    checked_baseline,
    expected_demand,
    g_screen,
    phi_bar,
    welfare_gains,
)
from .oracle import GridSpec, _grid_argmax_lagrangian, settle_scenarios
from .solvers import (
    _feasible_range,
    check_assumption1,
    planner_bound_gain,
    rs_tolerance,
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
    """One-sided finite-difference Hessian of f at pi, with steps 2 h_i,
    h_i = HESS_H_SCALE * max(1, |pi_i|).

    H_ii = (f(pi + 4h_i e_i) - 2 f(pi + 2h_i e_i) + f(pi)) / 4h_i^2 and
    H_ij = (f(pi + 2h_i e_i + 2h_j e_j) - f(pi + 2h_i e_i) - f(pi + 2h_j e_j)
    + f(pi)) / 4h_i h_j: N(N+1)/2 + N + 1 points, exact for a quadratic.
    f maps a (K, N) stack of price vectors to K values. It is called first
    on the 2N + 1 axis points, then once per row i < N - 1 on its corners
    j > i: N calls in all, none on more than 2N + 1 rows, so memory stays
    O(N^2).
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    hs = np.array([HESS_H_SCALE * max(1.0, abs(pi[t])) for t in range(n)])
    axis = np.repeat(pi[np.newaxis], 2 * n + 1, axis=0)
    axis[1 + np.arange(n), np.arange(n)] += 2.0 * hs
    axis[1 + n + np.arange(n), np.arange(n)] += 4.0 * hs
    values = f(axis)
    f0, once, twice = values[0], values[1 : n + 1], values[n + 1 :]
    out = np.empty((n, n))
    out[np.arange(n), np.arange(n)] = (twice - 2.0 * once + f0) / (4.0 * hs**2)
    for i in range(n - 1):
        cols = np.arange(i + 1, n)
        corners = np.repeat(axis[1 + i][np.newaxis], n - 1 - i, axis=0)
        corners[np.arange(n - 1 - i), cols] += 2.0 * hs[cols]
        pp = f(corners)
        out[i, cols] = out[cols, i] = (pp - once[i] - once[cols] + f0) / (
            4.0 * hs[i] * hs[cols]
        )
    return out


def _sample_prices(model: LinearDemandModel, count: int, seed: int) -> np.ndarray:
    """Seeded random price vectors between the cost level and the monopoly range."""
    rng = np.random.default_rng(seed)
    lam = model.scenarios.lambda_bar
    pim = _feasible_range(model).monopoly[0]
    lo = 0.5 * lam
    hi = 1.2 * np.maximum(pim, lam + 1e-3)
    return lo + rng.random((count, model.periods)) * (hi - lo)


def check_gradient_identity(model: LinearDemandModel) -> CheckResult:
    """FD gradient of the consumer surplus f = pi' G pi / 2 - pi' omega_bar
    must equal -E[D(pi)], relative to max(1, max|E[D]|), within 1e-6 or the
    larger rounding floor 4 eps |f(pi)| / FD_STEP of the values it
    differences (none if f is not finite). f leaves out the terms no
    gain's gradient sees: the benefit offset, M A and a baseline's surplus."""
    rel_tol = 1e-6
    worst = floor = 0.0
    for pi in _sample_prices(model, 10, seed=0):
        grad = fd_gradient(lambda p: _cs_term(model, p), pi, stacked=True)
        dbar = expected_demand(model, pi)
        scale = max(1.0, float(np.abs(dbar).max()))
        worst = np.maximum(worst, float(np.abs(grad + dbar).max()) / scale)
        f = _cs_term(model, pi)
        floor = np.maximum(floor, 4 * np.finfo(float).eps * abs(f) / (FD_STEP * scale))
    tol = max(rel_tol, floor) if np.isfinite(floor) else rel_tol
    status = "PASS" if worst <= tol else "FAIL"
    return CheckResult(
        "gradient-identity", status, f"max relative error {worst:.3e} (tol {tol:.3g})"
    )


def check_hessian_identity(model: LinearDemandModel) -> CheckResult:
    """FD Hessian of the retailer surplus must be -2G, eigenvalues negative."""
    rel_tol = 1e-5
    worst = 0.0
    eig_ok = True
    for pi in _sample_prices(model, 3, seed=1):
        hess = fd_hessian(lambda p: phi_bar(model, p), pi)
        scale = max(1.0, float(np.abs(model.G).max()))
        worst = np.maximum(worst, float(np.abs(hess + 2.0 * model.G).max()) / scale)
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
        worst = np.maximum(worst, abs(settled - analytic) / max(1.0, abs(analytic)))
    status = "PASS" if worst <= rel_tol else "FAIL"
    return CheckResult(
        "phi-settlement", status, f"max relative gap {worst:.3e} (tol {rel_tol:g})"
    )


def check_assumption1_result(model: LinearDemandModel) -> CheckResult:
    ends = _feasible_range(model)
    lam, pim = ends.two_part[0], ends.monopoly[0]
    samples = [lam, 0.5 * (lam + pim), pim]
    report = check_assumption1(model, samples)
    eigs = ", ".join(f"{e:.3e}" for e in report.max_eigenvalues)
    status = "PASS" if report.passed else "FAIL"
    return CheckResult("assumption-1", status, f"max symmetric eigenvalues [{eigs}]")


# multiples of the per-grid-step rs variation a banded grid search
# (`grid_argmax_welfare` with an `RsConstraint`) tries: too narrow leaves
# near-curve grid points sparse, too wide lets the argmax chase rs slack.
# `check` searches no band; the oracle-equivalence acceptance test does.
BAND_LADDER = (0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0)


def rs_cell_scale(model: DemandModel, pi: np.ndarray, step: float) -> float:
    """rs variation across one grid step at pi (the `BAND_LADDER` unit)."""
    grad = fd_gradient(lambda p: phi_bar(model, p), pi, stacked=True)
    return max(float(np.abs(grad).max()) * step, 1e-12)


def check_oracles(
    model: LinearDemandModel, baseline: Tariff
) -> tuple[CheckResult, CheckResult]:
    """Two-part and Ramsey solutions against one exhaustive price-grid pass.

    The 400-step grid spans [0, 1.25 max pi_M] in every period, so it is
    searched only for N <= 3; above that both checks SKIP. Welfare and the
    margin are concave, so the Ramsey price at a mid-range target F is the
    unconstrained argmax of delta_sw + mu * phi_bar at its own multiplier
    mu = gamma - 1, and the two-part price is the argmax at mu = 0. Each
    argmax must lie within one grid step of the solver's price. The grid
    cannot see a price for the wrong F, so the Ramsey price must also settle,
    scenario by scenario, to a margin within `rs_tolerance(F)` of F.
    """
    if model.periods > 3:
        detail = f"N={model.periods} > 3"
        return (
            CheckResult("oracle-two-part", "SKIP", detail),
            CheckResult("oracle-linear", "SKIP", detail),
        )
    pim, phi_max = _feasible_range(model).monopoly
    hi = float(max(np.max(pim) * 1.25, 1.0))
    grid = GridSpec.cube(0.0, hi, steps=400, dims=model.periods)
    step = grid.max_step

    pistar = solve_two_part(model, 0.0).prices
    target = 0.5 * (_feasible_range(model).two_part[1] + phi_max)
    solution = solve_linear(model, target)
    mu = solution.gamma - 1.0
    (free, _), (ramsey, _) = _grid_argmax_lagrangian(model, baseline, grid, (0.0, mu))

    gap = float(np.abs(pistar - free).max())
    status = "PASS" if gap <= step * (1 + 1e-9) else "FAIL"
    two_part = CheckResult(
        "oracle-two-part", status,
        f"solver/grid gap {gap:.4g} vs one step {step:.4g}",
    )

    steps = float(np.abs(solution.prices - ramsey).max()) / step
    settled = settle_scenarios(model, solution.tariff).mean_margin
    share = abs(settled - target) / rs_tolerance(target)
    status = "PASS" if steps <= 1 + 1e-9 and share <= 1.0 else "FAIL"
    return two_part, CheckResult(
        "oracle-linear", status,
        f"solver/grid gap {steps:.3g} steps at mu {mu:.4g}; settled margin "
        f"off target by {share:.3g} of tolerance",
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
    asymmetry, symmetric, definite = g_screen(payload.G)
    results = [
        CheckResult("G-symmetric", "PASS" if symmetric else "FAIL",
                    f"max asymmetry {asymmetry:.3e}"),
        CheckResult("G-positive-definite", "PASS" if definite else "FAIL",
                    "Cholesky succeeded" if definite else "Cholesky failed"),
    ]
    if not definite:
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
    else:
        checked_baseline(model, baseline)

    results.append(check_assumption1_result(model))
    results.append(check_gradient_identity(model))
    results.append(check_hessian_identity(model))
    results.append(check_phi_settlement(model))

    results.extend(check_oracles(model, baseline))
    results.append(check_planner_bound(model, baseline))
    return results
