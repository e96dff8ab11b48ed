"""Fitting the population distribution to paired BrAC/TAC episodes.

The fit minimizes the squared misfit between model TAC and measured TAC,
summed over episodes and over the measured TAC instants, with the measured
BrAC driving the model as a zero-order-hold input.  Decision variables are
the support upper bounds, the normal location, and the Cholesky factor of
the covariance; the lower support bounds stay pinned at zero unless
explicitly released.

The model is linear and time invariant, so each episode's TAC is the BrAC
convolved with the population kernel h_l = sum_c p_c qbar2_c g_l(qbar1_c),
where g is the unit-gain kernel of one cell from the spectral core in
``forward_model``.  The gradient is exact for the discrete model: with
residuals r, d cost / d theta = 2 sum_l (dh_l / d theta) corr_l(r, u), one
correlation per episode.  dh/dtheta follows by the chain rule from the
derivative of g in the diffusivity (closed form in the core) and from the
derivatives of the cell weights, closed-form edge and corner terms in every
parameter: in the location and covariance, and through the moving mesh lines
in the support bounds (moving the support moves the cells themselves).

The fit is judged against the data energy E, the sum of squared measured TAC
over the fit instants, so its verdict does not depend on the data's units.
It has converged when the projected gradient over E meets tol * (1 + cost /
E) (stop rule "gradient"), or when L-BFGS-B ended on its own relative-
reduction test at cost <= 1e-12 E ("cost_floor", noise-free data fitted to
rounding).  The optimizer sees the cost scaled so that its first trial step
has a fixed length in the parameters.

Without a starting point the fit is seeded by single-subject fits of each
episode.  The input gain q2 enters the single-subject output linearly, so
each seed fit is a variable-projection problem (Golub & Pereyra 1973): the
best q2 for a given diffusivity q1 is one scalar least-squares value, and
only q1 is searched, on a log grid (one batched kernel evaluation) refined
by bounded Brent; both are capped at ``_Q_MAX``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import density, forward_model
from .data_io import Episode, check_training_episodes
from .density import PopulationParams
from .errors import ConfigurationError, NumericalError, ParameterError
from .grid_basis import DiscretizationGrid

_DEFAULT_TOL = 1e-6
_DEFAULT_MAX_ITER = 500
_RIDGE = 1e-4    # floor of the start covariance's smallest eigenvalue


def _active(fit_lower: bool) -> slice:
    """The decision variables' slice of ``density.PARAMETER_NAMES``: all nine,
    or all but the lower support bounds a1, a2, which are then held."""
    return slice(0 if fit_lower else 2, None)


def active_parameter_names(fit_lower: bool = False) -> tuple[str, ...]:
    """Order of the decision variables in packed vectors and gradients."""
    return density.PARAMETER_NAMES[_active(fit_lower)]


def pack_theta(params: PopulationParams, fit_lower: bool = False) -> np.ndarray:
    low = params.chol
    return np.array([*params.a, *params.b, *params.mu, low[0, 0], low[1, 0],
                     low[1, 1]])[_active(fit_lower)]


def unpack_theta(theta: np.ndarray, a: np.ndarray,
                 fit_lower: bool = False) -> PopulationParams:
    """Inverse of ``pack_theta``; ``a`` gives the lower bounds when they are
    held, and is not read otherwise."""
    full = np.empty(len(density.PARAMETER_NAMES))
    active = _active(fit_lower)
    full[:active.start] = np.ravel(a)[:active.start]
    full[active] = theta
    low = np.array([[full[6], 0.0], [full[7], full[8]]])
    return PopulationParams(a=full[:2], b=full[2:4], mu=full[4:6],
                            sigma=low @ low.T)


def _check_episodes(episodes: list[Episode], grid: DiscretizationGrid) -> None:
    check_training_episodes(episodes, grid.tau)
    for ep in episodes:
        if ep.fit_indices.size == 0:
            raise ConfigurationError(
                f"episode {ep.ident!r} has no usable TAC instants on the grid")


def _kernel_count(episodes: list[Episode]) -> int:
    return max(ep.u.size - 1 for ep in episodes)


def _model_tac(kernel: np.ndarray, ep: Episode) -> np.ndarray:
    """Model TAC at the episode's fit instants: the BrAC convolved with the
    lag kernel."""
    u = ep.u[:-1]
    return np.convolve(kernel[:u.size], u)[:u.size][ep.fit_indices - 1]


def _residuals(kernel: np.ndarray, ep: Episode) -> np.ndarray:
    """Model minus measured TAC at the episode's fit instants."""
    return _model_tac(kernel, ep) - ep.y[ep.fit_indices]


def cost(params: PopulationParams, episodes: list[Episode],
         grid: DiscretizationGrid) -> float:
    """Sum of squared TAC residuals at the measured instants, all episodes."""
    _check_episodes(episodes, grid)
    grid = grid.rebind(params)
    mean = forward_model.impulse_kernels(
        forward_model.assemble(params, grid),
        _kernel_count(episodes)).sum(axis=0)
    total = 0.0
    for ep in episodes:
        resid = _residuals(mean, ep)
        total += float(resid @ resid)
    return total


def _mean_kernel_derivatives(sys: forward_model.DiscreteTimeOps,
                             dw: np.ndarray, kern: np.ndarray,
                             dkern: np.ndarray) -> np.ndarray:
    """d h_l / d theta, shape (n_par, count), for the population kernel
    h = sum_c w2_c g(w1_c / p_c) with g the unit-gain cell kernel and dw the
    derivatives of (p, w1, w2) per parameter, (n_par, 3, m1, m2)."""
    # cells flattened with the first index fastest, as the assembly's
    flat = dw.swapaxes(2, 3).reshape(*dw.shape[:2], -1)
    d_p, d_w1, d_w2 = flat[:, 0], flat[:, 1], flat[:, 2]
    # zero-mass cells contribute nothing and their weight derivatives have
    # underflowed with them; freeze their conditional means
    alive = sys.p > 0.0
    d_gain = np.where(alive, d_w2, 0.0)
    # p * qbar2 * d qbar1, with p * d qbar1 = d w1 - qbar1 * d p
    d_diffusivity = np.where(alive, sys.qbar2 * (d_w1 - sys.qbar1 * d_p), 0.0)
    return d_gain @ kern + d_diffusivity @ dkern


def cost_and_gradient(params: PopulationParams, episodes: list[Episode],
                      grid: DiscretizationGrid,
                      fit_lower: bool = False) -> tuple[float, np.ndarray]:
    """Total cost and its gradient in the packed parameter vector."""
    _check_episodes(episodes, grid)
    grid = grid.rebind(params)
    weights = density.moment_weights(params, grid.pm1, grid.pm2)
    sys = forward_model.assemble_from_weights(weights, grid)
    kern, dkern = forward_model._spectral_kernel_derivatives(
        grid.spatial, sys.qbar1, grid.tau, _kernel_count(episodes))
    mean = (sys.p * sys.qbar2) @ kern
    dw = density.moment_weight_derivatives(params, grid.pm1, grid.pm2,
                                           weights)[_active(fit_lower)]
    d_mean = _mean_kernel_derivatives(sys, dw, kern, dkern)
    total = 0.0
    grad = np.zeros(d_mean.shape[0])
    for ep in episodes:
        u = ep.u[:-1]
        resid = _residuals(mean, ep)
        total += float(resid @ resid)
        rvec = np.zeros(u.size)
        rvec[ep.fit_indices - 1] = resid
        # d cost / d h_l = 2 sum_k r_k u_{k-l}: residuals correlated with u
        corr = np.convolve(rvec[::-1], u)[:u.size][::-1]
        grad += 2.0 * (d_mean[:, :u.size] @ corr)
    return total, grad


# ---------------------------------------------------------------------------
# per-episode deterministic calibration, used to seed the population fit


@dataclass(frozen=True)
class DeterministicFit:
    """Single-subject parameter estimate for one episode."""

    q: np.ndarray
    cost: float
    boundary: bool    # gain clipped to 0 or _Q_MAX, or q1 at a grid end
    ident: str = ""


# log-spaced diffusivity nodes scanned before the 1-D refinement; the floor
# keeps every modal rate positive (at q1 = 0 all but one vanish)
_Q1_FLOOR = 1e-3
_Q_MAX = 8.0    # caps both the diffusivity and the input gain
_Q1_NODES = 48
_BRENT_XATOL = 1e-9


def _unit_gain_outputs(ep: Episode, grid: DiscretizationGrid,
                       q1) -> np.ndarray:
    """Unit-gain model TAC at the episode's fit instants, one row per q1."""
    q1 = np.atleast_1d(q1)
    det = forward_model.deterministic_ops(
        np.column_stack([q1, np.ones_like(q1)]), grid.spatial, grid.tau)
    kern = forward_model.impulse_kernels(det, _kernel_count([ep]))
    return np.array([_model_tac(g, ep) for g in kern])


def _project_gain(m: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best input gain per row of m, clipped to [0, _Q_MAX]; returns the gains,
    the costs and whether the clip was active."""
    my = m @ y
    mm = np.einsum("ij,ij->i", m, m)
    free = np.divide(my, mm, out=np.zeros_like(my), where=mm > 0.0)
    gain = np.clip(free, 0.0, _Q_MAX)
    resid = gain[:, None] * m - y[None, :]
    return gain, np.einsum("ij,ij->i", resid, resid), gain != free


def fit_episode_deterministic(ep: Episode,
                              grid: DiscretizationGrid) -> DeterministicFit:
    """Fit the single-subject model to one episode by variable projection.

    The model TAC is q2 times the unit-gain output m(q1), so for a fixed
    diffusivity the best input gain is the scalar least-squares value
    <m, y> / <m, m> clipped to [0, _Q_MAX], and the fit is a 1-D problem in
    q1 (Golub & Pereyra 1973).  The projected cost is scanned on a log grid of
    q1 over [1e-3, _Q_MAX] (one batched kernel evaluation), then refined by
    bounded Brent on log q1 between the best node's neighbours; the better of
    the refined point and the best node is kept.  A result on the boundary
    (gain clipped to 0 or _Q_MAX, or q1 at either end of the grid) is flagged:
    it usually means the TAC channel carries no usable signal.
    """
    from scipy.optimize import minimize_scalar     # loaded by the fit alone

    _check_episodes([ep], grid)
    y = ep.y[ep.fit_indices]
    logs = np.linspace(math.log(_Q1_FLOOR), math.log(_Q_MAX), _Q1_NODES)
    gains, costs, clipped = _project_gain(
        _unit_gain_outputs(ep, grid, np.exp(logs)), y)
    i = int(np.argmin(costs))
    best = (logs[i], gains[i], costs[i], clipped[i])

    def projected(log_q1):
        g, c, k = _project_gain(_unit_gain_outputs(ep, grid, math.exp(log_q1)), y)
        return g[0], c[0], k[0]

    lo, hi = logs[max(i - 1, 0)], logs[min(i + 1, logs.size - 1)]
    res = minimize_scalar(lambda x: projected(x)[1], bounds=(lo, hi),
                          method="bounded", options={"xatol": _BRENT_XATOL})
    refined = (res.x, *projected(res.x))
    if refined[2] < best[2]:
        best = refined
    log_q1, gain, val, clip = best
    q = np.array([math.exp(log_q1), gain])
    end = 1e-3 * (logs[-1] - logs[0])
    boundary = bool(clip or log_q1 <= logs[0] + end or log_q1 >= logs[-1] - end)
    return DeterministicFit(q=q, cost=float(val), boundary=boundary,
                            ident=ep.ident)




def initial_guess(per_episode_qs) -> PopulationParams:
    """Population starting point from per-episode estimates.

    Location and covariance are the sample mean and covariance of the
    estimates (ridged when near-singular); the support is [0, mu + 4 sigma]
    componentwise.
    """
    qs = np.asarray(per_episode_qs, dtype=float).reshape(-1, 2)
    if qs.shape[0] == 0:
        raise ConfigurationError("need at least one per-episode estimate")
    mu = qs.mean(axis=0)
    if qs.shape[0] > 1:
        sig = np.cov(qs, rowvar=False)
    else:
        sig = np.zeros((2, 2))
    if np.linalg.eigvalsh(sig).min() < _RIDGE:
        sig = sig + _RIDGE * np.eye(2)
    b = mu + 4.0 * np.sqrt(np.diag(sig))
    return PopulationParams(a=np.zeros(2), b=b, mu=mu, sigma=sig)


# ---------------------------------------------------------------------------
# population-level optimization


@dataclass
class FitResult:
    """Outcome of a population fit."""

    params: PopulationParams
    cost: float
    grad_norm: float        # sup norm of the projected gradient at the end
    converged: bool
    n_iter: int
    message: str
    fit_lower: bool
    stop: str | None = None  # convergence rule met: "gradient", "cost_floor"
    failed_evals: int = 0   # evaluations that raised (scored above the rest)
    log: list[dict] = field(default_factory=list)
    per_episode: list[DeterministicFit] = field(default_factory=list)

    def save(self, params_path, log_path=None) -> None:
        density.save_params(self.params, params_path)
        if log_path is not None:
            with open(log_path, "w", encoding="ascii") as fh:
                for rec in self.log:
                    fh.write(json.dumps(rec) + "\n")
                fh.write(json.dumps({
                    "event": "done", "cost": self.cost,
                    "grad_norm": self.grad_norm, "converged": self.converged,
                    "iterations": self.n_iter, "message": self.message,
                    "stop": self.stop, "failed_evals": self.failed_evals,
                }) + "\n")


# L-BFGS-B's box per parameter of ``density.PARAMETER_NAMES``
_BOUNDS = np.array([(0.0, 49.0), (0.0, 49.0),      # support lower bounds
                    (1e-2, 50.0), (1e-2, 50.0),    # support upper bounds
                    (-10.0, 10.0), (-10.0, 10.0),  # location
                    (1e-6, 10.0), (-10.0, 10.0), (1e-6, 10.0)])  # chol entries


def _projected_grad_norm(theta: np.ndarray, grad: np.ndarray,
                         bounds: np.ndarray) -> float:
    lo, hi = bounds.T
    held = ((theta <= lo + 1e-12) & (grad > 0)) | ((theta >= hi - 1e-12) & (grad < 0))
    return float(np.max(np.abs(np.where(held, 0.0, grad)))) if grad.size else 0.0


def _data_energy(episodes: list[Episode]) -> float:
    """Sum of squared measured TAC over the fit instants, all episodes."""
    energy = sum(float(ep.y[ep.fit_indices] @ ep.y[ep.fit_indices])
                 for ep in episodes)
    if not energy > 0.0:
        raise ConfigurationError(
            "every episode's TAC is zero at its fit instants; nothing to fit")
    return energy


# L-BFGS-B's own relative-reduction stop counts as convergence only when the
# cost has reached this fraction of the data energy (noise-free data fitted
# to rounding)
_COST_FLOOR = 1e-12
# sup-norm length of L-BFGS-B's first trial step in the packed parameters
_FIRST_STEP = 0.1


def fit_population(episodes: list[Episode], grid: DiscretizationGrid,
                   init: PopulationParams | None = None, *,
                   fit_lower: bool = False, tol: float = _DEFAULT_TOL,
                   max_iter: int = _DEFAULT_MAX_ITER) -> FitResult:
    """Projected quasi-Newton fit of the population distribution.

    The verdict is measured against the data energy E, the sum of squared
    measured TAC over the fit instants, so it does not depend on the data's
    units.  The fit has converged when the projected-gradient sup norm over
    E is at most tol * (1 + cost / E) (stop rule "gradient"), or when
    L-BFGS-B ended on its own relative-reduction test with cost <= 1e-12 * E
    ("cost_floor": noise-free data fitted to rounding, where the gradient
    test can no longer be met).  Iteration stops at the first rule met or
    after max_iter iterations.

    L-BFGS-B starts from the identity Hessian, so its first trial step is
    the projected gradient itself, whose length depends on the cost's units.
    The optimizer therefore minimizes the cost divided by its starting
    projected-gradient sup norm over 0.1, which makes that step move no
    parameter by more than 0.1 whatever the units (E when that gradient
    vanishes or cannot be evaluated).  Reported costs and gradients stay in
    data units.  An evaluation that raises is scored above every score seen
    so far, flat, so the line search backtracks; ``failed_evals`` counts
    every evaluation that raised, the start's included.  When no starting
    point is supplied, each episode is first fit deterministically and the
    estimates seed the population parameters.
    """
    from scipy.optimize import minimize     # loaded by the fit alone

    _check_episodes(episodes, grid)
    energy = _data_energy(episodes)
    per_episode: list[DeterministicFit] = []
    if init is None:
        per_episode = [fit_episode_deterministic(ep, grid) for ep in episodes]
        init = initial_guess([f.q for f in per_episode])
    bounds = _BOUNDS[_active(fit_lower)]
    theta0 = np.clip(pack_theta(init, fit_lower), *bounds.T)
    fixed_a = init.a.copy()
    log: list[dict] = []
    cache: dict[str, object] = {}
    failed = 0
    last = perf_counter()
    failures = (ParameterError, NumericalError, np.linalg.LinAlgError)

    def evaluate(theta):
        """Cost and gradient in data units; the latest point is cached."""
        if "theta" not in cache or not np.array_equal(cache["theta"], theta):
            params = unpack_theta(theta, fixed_a, fit_lower)
            val, grad = cost_and_gradient(params, episodes, grid, fit_lower)
            cache.update(theta=theta.copy(), val=val, grad=grad)
        return cache["val"], cache["grad"]

    def gradient_met(val: float, pg: float) -> bool:
        return pg / energy <= tol * (1.0 + val / energy)

    try:
        scale = _projected_grad_norm(theta0, evaluate(theta0)[1], bounds) / _FIRST_STEP
    except failures:
        failed, scale = failed + 1, 0.0
    if not 0.0 < scale < math.inf:
        scale = energy

    worst = 0.0     # highest finite score returned so far

    def objective(theta):
        nonlocal failed, worst
        try:
            val, grad = evaluate(theta)
        except failures:
            failed += 1
            return 2.0 * worst + 1.0, np.zeros_like(theta)
        if math.isfinite(val):
            worst = max(worst, val / scale)
        return val / scale, grad / scale

    def callback(xk):
        nonlocal last
        now = perf_counter()
        val = cache.get("val", math.nan)
        grad = cache.get("grad")
        pg = _projected_grad_norm(xk, grad, bounds) if grad is not None else math.nan
        log.append({"event": "iterate", "iteration": len(log), "cost": val,
                    "projected_grad": pg, "theta": np.asarray(xk).tolist(),
                    "seconds": now - last})
        last = now
        if grad is not None and np.all(cache["theta"] == xk) \
                and gradient_met(val, pg):
            raise StopIteration

    res = minimize(objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
                   callback=callback,
                   options={"maxiter": max_iter, "maxfun": 40 * max_iter,
                            "gtol": 0.0, "ftol": 1e-14})
    theta = np.asarray(res.x, dtype=float)
    params = unpack_theta(theta, fixed_a, fit_lower)
    stop = None
    try:
        val, grad = evaluate(theta)
        pg = _projected_grad_norm(theta, grad, bounds)
        if gradient_met(val, pg):
            stop = "gradient"
        elif res.status == 0 and val <= _COST_FLOOR * energy:
            stop = "cost_floor"
    except failures:
        failed += 1
        val = math.inf
        pg = math.inf
    return FitResult(params=params, cost=val, grad_norm=pg,
                     converged=stop is not None, n_iter=int(res.nit),
                     message=str(res.message), fit_lower=fit_lower,
                     stop=stop, failed_evals=failed, log=log,
                     per_episode=per_episode)
