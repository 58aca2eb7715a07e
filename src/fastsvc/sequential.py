"""Coordinate-ascent restricted-likelihood maximization with per-target caches.

One coordinate step optimizes a single varying coefficient's (rho, alpha)
pair while all others stay fixed. Everything that does not depend on the
target parameters is factorized once into a cache; each likelihood
evaluation then costs O(L^3) regardless of how many coefficients vary and,
because it runs on compressed moments, regardless of N.

Derivation sketch. Keep the Gram's own column order and let ``s`` be the
shrinkage scale vector with ones on the fixed block and on the target block
``t``. The target-free system is

    R = diag(s) G diag(s) + J_off,    m = s * (W'y)

where ``J_off`` adds 1 to every random-effect diagonal except the target's,
so ``R`` is the penalized matrix of the model without the target's random
effect, bordered by the target's raw Gram block (no +I). With ``r = R^{-1} m``
the cached moment solve, ``T = R^{-1}[t, t]`` and ``V`` the target shrinkage
diagonal, the penalized matrix is ``P = D R D + E_t E_t'`` with ``D`` the
identity except ``V`` on the target block and ``E_t`` the target's identity
columns. A rank-L Woodbury update and the block-determinant formula
|A||D - B'A^{-1}B| give

    coefficient solve:  w = (V^2 + T)^{-1} r_t,
                        z   = r - R^{-1}[:, t] w,   then z_t = V w
    log-determinant:    ln|P| = ln|R| + ln|V^2 + T|
    residual term:      d = (y'y - r'm) + r_t'w

The last line is ``y'y - z'(s o W'y)`` at the solve, the identity the
compressed route uses. Its first part, ``y'y - r'm``, is the same identity
for the target-free system, so ``likelihood._penalized_solve`` builds,
factors and solves ``R`` as it does the compressed route's ``P``. That part
cancels almost completely near good fits but does not depend on the
target's (rho, alpha), so it is accumulated once per cache in extended
precision; ``r_t'w`` is a nonnegative quadratic form. Every expression stays finite as any rho
approaches 0, so collapsed coefficients need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from .compression import CompressedMoments
from .errors import FastSvcError, SingularBlock, SingularInnerMatrix
from .likelihood import (
    LikelihoodResult,
    ShrinkageParams,
    _assemble_loglik,
    _check_counts,
    _clamp_cancelled,
    _penalized_solve,
    scale_vector,
    spd_factor,
    v_diag,
)

#: optimizer box for the variance ratio (log scale inside the search)
RHO_BOUNDS = (1e-6, 1e6)

#: optimizer box for the scale exponent
ALPHA_BOUNDS = (0.0, 4.0)

#: restart points (rho, alpha) for the per-coordinate simplex search
RESTARTS = ((0.1, 0.5), (1.0, 1.0), (1.0, 2.0))

#: rho at or below this multiple of its lower bound collapses the coefficient
COLLAPSE_FACTOR = 1.5


@dataclass(frozen=True)
class PerKCache:
    """Target-independent factorizations for one coordinate step.

    Nothing here depends on the target coefficient's (rho, alpha); rebuilding
    with different off-target parameters changes it, varying the target's
    must not. Vectors and rows follow the Gram's column order.
    """

    block: slice              # the target's columns in the Gram
    moment_solve: np.ndarray  # r = R^{-1} m, (m,)
    rinv_target: np.ndarray   # R^{-1}[:, block], (m, L)
    t_block: np.ndarray       # R^{-1}[block, block] (symmetric)
    logdet_r: float           # ln|R|
    residual: float           # y'y - r'm, the target-free part of d
    values: np.ndarray        # basis eigenvalues (L,)
    yty: float
    n_obs: int
    n_cov: int


def build_cache(moments: CompressedMoments, params: ShrinkageParams,
                target: int) -> PerKCache:
    """Factor the off-target system once for coordinate step ``target``.

    ``target`` indexes the varying-coefficient list. Cost is cubic in
    ``K + K_v L``; every subsequent target evaluation is O(L^3).
    """
    n, k = moments.n_obs, moments.n_cov
    _check_counts(n, k)
    kv = moments.k_varying
    if params.k_varying != kv:
        raise ValueError("params length must match the number of varying coefficients")
    if not 0 <= target < kv:
        raise ValueError(f"target {target} outside [0, {kv})")
    block = moments.block(target)

    s = scale_vector(moments, params)
    s[block] = 1.0
    off_target = np.r_[k:block.start, block.stop:moments.size]
    factor, logdet_r, moment_solve, residual = _penalized_solve(
        moments, s, off_target, SingularBlock)
    # the target's identity columns, without an m x m identity
    target_cols = np.eye(moments.size, moments.n_basis, -block.start)
    rinv_target = sla.cho_solve(factor, target_cols)
    t_block = 0.5 * (rinv_target[block] + rinv_target[block].T)

    return PerKCache(
        block=block,
        moment_solve=moment_solve,
        rinv_target=rinv_target,
        t_block=t_block,
        logdet_r=logdet_r,
        residual=residual,
        values=moments.values,
        yty=moments.yty,
        n_obs=n,
        n_cov=k,
    )


def fast_loglik(cache: PerKCache, rho: float, alpha: float) -> LikelihoodResult:
    """Restricted log-likelihood at target (rho, alpha), off-target fixed.

    One L x L Cholesky per call serves both the Woodbury-updated coefficient
    solve and the block-determinant expansion of ln|P|.
    """
    k, block = cache.n_cov, cache.block
    vt = v_diag(rho, alpha, cache.values)

    inner = cache.t_block + np.diag(vt ** 2)
    factor, logdet_inner = spd_factor(inner, error=SingularInnerMatrix)
    r_t = cache.moment_solve[block]
    w = sla.cho_solve(factor, r_t)

    z = cache.moment_solve - cache.rinv_target @ w
    z[block] = vt * w
    d_theta = _clamp_cancelled(cache.residual + float(r_t @ w), cache.yty,
                               "residual term")
    loglik = _assemble_loglik(cache.logdet_r + logdet_inner, d_theta,
                              cache.n_obs, k, cache.yty)
    return LikelihoodResult(
        loglik=loglik,
        b_hat=z[:k],
        u_hat=z[k:].reshape(-1, vt.shape[0]),
        d_theta=d_theta,
        sigma2_hat=d_theta / (cache.n_obs - k),
    )


def optimize_k(cache: PerKCache, params: ShrinkageParams, target: int,
               budget: int = 120):
    """Maximize the target coordinate's restricted likelihood.

    Derivative-free simplex search over (log rho, alpha) with fixed restarts,
    never returning a point worse than the incoming one. Returns
    ``(rho, alpha, loglik, n_eval)``; on total optimizer failure the incoming
    parameters come back unchanged.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lo = np.log(RHO_BOUNDS[0])
    hi = np.log(RHO_BOUNDS[1])
    n_eval = 0

    def objective(x):
        nonlocal n_eval
        n_eval += 1
        try:
            return -fast_loglik(cache, float(np.exp(x[0])), float(x[1])).loglik
        except FastSvcError:
            return np.inf

    rho_in = float(params.rho[target])
    alpha_in = float(params.alpha[target])
    try:
        best_ll = fast_loglik(cache, rho_in, alpha_in).loglik
    except FastSvcError:
        best_ll = -np.inf
    n_eval += 1
    best = (rho_in, alpha_in)

    bounds = [(lo, hi), ALPHA_BOUNDS]
    per_start = max(10, (budget - 1) // len(RESTARTS))
    for rho0, alpha0 in RESTARTS:
        x0 = np.array([np.clip(np.log(rho0), lo, hi),
                       np.clip(alpha0, *ALPHA_BOUNDS)])
        res = minimize(objective, x0, method="Nelder-Mead", bounds=bounds,
                       options={"maxfev": per_start, "xatol": 1e-4, "fatol": 1e-7})
        if np.isfinite(res.fun) and -res.fun > best_ll:
            best_ll = -res.fun
            best = (float(np.exp(res.x[0])), float(res.x[1]))
    return best[0], best[1], best_ll, n_eval


@dataclass
class FitTrace:
    """Sweep-by-sweep record of the coordinate ascent."""

    sweep_logliks: list = field(default_factory=list)
    eval_counts: list = field(default_factory=list)
    collapsed: np.ndarray | None = None
    converged: bool = False
    reason: str = ""

    @property
    def n_sweeps(self) -> int:
        return len(self.sweep_logliks)


def fit_sequential(moments: CompressedMoments,
                   init: ShrinkageParams | None = None,
                   tol: float = 1e-5,
                   max_sweeps: int = 30,
                   budget: int = 120):
    """Sweep the varying coefficients until the likelihood gain drops below tol.

    Each coordinate step rebuilds its cache at the current off-target
    parameters and maximizes the target pair. A coefficient whose optimal
    rho pins at the lower search bound is collapsed to a constant (rho set
    to exactly 0) and skipped in later sweeps. The returned result is
    recomputed from the compressed likelihood at the final parameters.

    Returns
    -------
    (ShrinkageParams, LikelihoodResult, FitTrace)
    """
    from .likelihood import compressed_restricted_loglik

    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    kv = moments.k_varying
    params = init if init is not None else ShrinkageParams.constant(kv)
    if params.k_varying != kv:
        raise ValueError("init length must match the number of varying coefficients")

    trace = FitTrace(collapsed=np.zeros(kv, dtype=bool))
    collapse_at = COLLAPSE_FACTOR * RHO_BOUNDS[0]
    prev_ll = -np.inf
    for sweep in range(max_sweeps):
        ll = prev_ll
        counts = []
        for a in range(kv):
            if trace.collapsed[a]:
                continue
            cache = build_cache(moments, params, a)
            rho, alpha, ll_a, n_eval = optimize_k(cache, params, a, budget=budget)
            counts.append(n_eval)
            if np.isfinite(ll_a):
                ll = ll_a
            if rho <= collapse_at:
                trace.collapsed[a] = True
                rho = 0.0
            params = params.with_entry(a, rho, alpha)
        trace.sweep_logliks.append(ll)
        trace.eval_counts.append(counts)
        if trace.collapsed.all():
            trace.converged = True
            trace.reason = "all coefficients collapsed to constants"
            break
        if sweep > 0 and ll - prev_ll < tol:
            trace.converged = True
            trace.reason = f"sweep gain {ll - prev_ll:.3e} below tol"
            break
        prev_ll = ll
    else:
        trace.reason = f"max_sweeps={max_sweeps} reached"

    final = compressed_restricted_loglik(moments, params)
    return params, final, trace
