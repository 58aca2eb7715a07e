"""Coordinate-ascent restricted-likelihood maximization with per-target caches.

One coordinate step optimizes a single varying coefficient's (rho, alpha)
pair while all others stay fixed. Everything that does not depend on the
target parameters is factorized once into a cache; each likelihood
evaluation then costs O(L^3) regardless of how many coefficients vary and,
because it runs on compressed moments, regardless of N.

Derivation sketch. Order the penalized matrix ``P`` as [fixed block, other
varying blocks, target block] and pull the off-target shrinkage scalings out
of it. What remains is

    R = [[P_rest, Bt], [Bt', M_tt]]

where ``P_rest`` is the penalized matrix of the model without the target's
random effect and ``M_tt`` is the target's raw Gram block (no +I). With
``T`` the lower-right block of ``R^{-1}`` and ``V`` the target shrinkage
diagonal, a rank-L Woodbury update and the block-determinant formula
|A||D - B'A^{-1}B| give

    coefficient solve:  w = (V^2 + T)^{-1} r_t,
                        z_target = V w,
                        z_rest   = r_rest - R^{-1}[:, target] w
    log-determinant:    ln|P| = ln|R| + ln|V^2 + T|

with ``r = R^{-1} m`` the cached moment solve. Both expressions stay finite
as any rho approaches 0, so collapsed coefficients need no special casing.
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
    must not.
    """

    target: int               # position within the varying list
    n_rest: int               # size of the non-target part
    moment_solve: np.ndarray  # r = R^{-1} m, order [fixed, others..., target]
    rinv_target: np.ndarray   # R^{-1}[:, target block], (m, L)
    t_block: np.ndarray       # lower-right L x L block of R^{-1} (symmetric)
    logdet_r: float           # ln|R|
    m_stack: np.ndarray       # scaled moments s * m, same order (s = 1 on target)
    values: np.ndarray        # basis eigenvalues (L,)
    yty: float
    n_obs: int
    n_cov: int
    n_basis: int
    k_varying: int


def build_cache(moments: CompressedMoments, params: ShrinkageParams,
                target: int) -> PerKCache:
    """Factor the off-target system once for coordinate step ``target``.

    ``target`` indexes the varying-coefficient list. Cost is cubic in
    ``K + (K_v - 1) L``; every subsequent target evaluation is O(L^3).
    """
    k, L, m = moments.n_cov, moments.n_basis, moments.size
    kv = moments.k_varying
    if params.k_varying != kv:
        raise ValueError("params length must match the number of varying coefficients")
    if not 0 <= target < kv:
        raise ValueError(f"target {target} outside [0, {kv})")

    # scale: ones on fixed and target blocks, off-target shrinkage elsewhere
    s = np.ones(m)
    for a in range(kv):
        if a != target:
            s[moments.block(a)] = v_diag(params.rho[a], params.alpha[a], moments.values)

    t_cols = np.arange(moments.block(target).start, moments.block(target).stop)
    rest_cols = np.concatenate([np.arange(k)]
                               + [np.arange(moments.block(a).start, moments.block(a).stop)
                                  for a in range(kv) if a != target])
    perm = np.concatenate([rest_cols, t_cols])

    R = (moments.gram * np.outer(s, s))[np.ix_(perm, perm)]
    n_rest = rest_cols.size
    diag_pen = np.arange(k, n_rest)  # off-target random-effect diagonals
    R[diag_pen, diag_pen] += 1.0

    factor, logdet_r = spd_factor(R, error=SingularBlock)
    m_stack = (s * moments.gy)[perm]
    moment_solve = sla.cho_solve(factor, m_stack)
    rhs = np.zeros((m, L))
    rhs[n_rest:, :] = np.eye(L)
    rinv_target = sla.cho_solve(factor, rhs)
    t_block = 0.5 * (rinv_target[n_rest:] + rinv_target[n_rest:].T)

    return PerKCache(
        target=target,
        n_rest=n_rest,
        moment_solve=moment_solve,
        rinv_target=rinv_target,
        t_block=t_block,
        logdet_r=logdet_r,
        m_stack=m_stack,
        values=moments.values,
        yty=moments.yty,
        n_obs=moments.n_obs,
        n_cov=k,
        n_basis=L,
        k_varying=kv,
    )


def fast_loglik(cache: PerKCache, rho: float, alpha: float) -> LikelihoodResult:
    """Restricted log-likelihood at target (rho, alpha), off-target fixed.

    One L x L Cholesky per call serves both the Woodbury-updated coefficient
    solve and the block-determinant expansion of ln|P|.
    """
    _check_counts(cache.n_obs, cache.n_cov)
    k, L = cache.n_cov, cache.n_basis
    vt = v_diag(rho, alpha, cache.values)

    inner = cache.t_block + np.diag(vt ** 2)
    factor, logdet_inner = spd_factor(inner, error=SingularInnerMatrix)
    r_t = cache.moment_solve[cache.n_rest:]
    w = sla.cho_solve(factor, r_t)

    z_target = vt * w
    z_rest = cache.moment_solve[: cache.n_rest] - cache.rinv_target[: cache.n_rest] @ w
    logdet_p = cache.logdet_r + logdet_inner

    # d = y'y - z'm at the solve; accumulate in extended precision
    m_rest, m_t = cache.m_stack[: cache.n_rest], cache.m_stack[cache.n_rest:]
    zm = (z_rest.astype(np.longdouble) @ m_rest.astype(np.longdouble)
          + z_target.astype(np.longdouble) @ (vt * m_t).astype(np.longdouble))
    d_theta = _clamp_cancelled(float(np.longdouble(cache.yty) - zm), cache.yty,
                               "residual term")

    loglik = _assemble_loglik(logdet_p, d_theta, cache.n_obs, k, cache.yty)

    # reassemble coefficients in original varying order
    u_hat = np.empty((cache.k_varying, L))
    others = [a for a in range(cache.k_varying) if a != cache.target]
    for pos, a in enumerate(others):
        u_hat[a] = z_rest[k + pos * L: k + (pos + 1) * L]
    u_hat[cache.target] = z_target
    return LikelihoodResult(
        loglik=loglik,
        b_hat=z_rest[:k].copy(),
        u_hat=u_hat,
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
    recomputed from the compressed likelihood at the final parameters as a
    consistency check.

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
