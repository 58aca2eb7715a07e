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
effect, bordered by the target's raw Gram block (no +I). With ``V`` the
target shrinkage diagonal and ``E_t`` the target's identity columns, the
penalized matrix is ``P = D R D + E_t E_t'`` with ``D`` the identity except
``V`` on the target block. With ``T = R^{-1}[t, t]`` and ``r_t`` the target
rows of ``R^{-1} m``, a rank-L Woodbury update and the block-determinant
formula |A||D - B'A^{-1}B| give

    log-determinant:    ln|P| = ln|R| + ln|V^2 + T|
    residual term:      d = (y'y - m'R^{-1}m) + r_t'w,   w = (V^2 + T)^{-1} r_t

The last line is ``y'y - z'(s o W'y)`` at the solve, the identity the
compressed route uses; the solve itself (``z_t = V w``, off the target
``z = R^{-1}(m - E_t w)``) is not formed here, because the search reads only
the likelihood and the fit takes its coefficients from the compressed route.

Cache. ``likelihood._penalized_solve`` factors ``R = F F'`` and
forward-substitutes ``y_f = F^{-1} m`` once, as it does the compressed
route's ``P``, so the first part of ``d`` is ``y'y - |y_f|^2``. It cancels
almost completely near good fits but does not depend on the target's
(rho, alpha), so it is summed once per cache in extended precision;
``r_t'w`` is a nonnegative quadratic form. With ``X_t = F^{-1} E_t``,
``T = X_t'X_t`` and ``r_t = X_t'y_f``. Forward substitution on identity
columns leaves ``X_t`` zero above the target's first row, and ``R`` lays the
target block out last, so ``X_t`` is zero except in its last L rows, where
it is ``F_tt^{-1}``, the inverse of the trailing L x L block of ``F``:
``T = (F_tt F_tt')^{-1}`` and ``r_t = F_tt'^{-1} y_f[t]`` cost O(L^3) once ``F``
is there, and no cache array has m rows. An off-target coefficient at
rho = 0 is an identity block of ``R`` with no coupling and no moment, so
``_penalized_solve`` leaves its block out and a step factors a smaller
matrix. Every expression stays finite as any rho approaches 0, so
collapsed coefficients need no other special casing.

Gradient. With ``A = V^2 + T`` only ``V = rho diag(lambda ** (alpha / 2))``
depends on the target's parameters, and ``d ln|A| / d v_l = 2 v_l [A^{-1}]_ll``,
``d(d) / d v_l = -2 v_l w_l^2``, ``d v_l / d ln rho = v_l`` and
``d v_l / d alpha = v_l ln(lambda_l) / 2``. With
``g_l = v_l^2 ((N - K) w_l^2 / d - [A^{-1}]_ll)`` the loglik's gradient is

    d loglik / d ln rho = sum_l g_l,    d loglik / d alpha = sum_l g_l ln(lambda_l) / 2

``diag(A^{-1})`` is the column sums of squares of the inverse Cholesky
factor of ``A``, one triangular inverse per evaluation. Every ``g_l``
carries ``v_l^2``, so the gradient in ln rho vanishes like rho^2 as rho
approaches 0: the likelihood is flat there, so ``optimize_k`` decides
collapse against the exact rho = 0 likelihood, not by where its search ends.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack
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
    spd_factor,
    v_diag,
)

#: optimizer box for the variance ratio (log scale inside the search)
RHO_BOUNDS = (1e-6, 1e6)

#: optimizer box for the scale exponent
ALPHA_BOUNDS = (0.0, 4.0)

#: starting points (rho, alpha) of the first sweep's coordinate searches, and
#: of any later step whose incoming evaluation fails
RESTARTS = ((0.1, 0.5), (1.0, 1.0), (1.0, 2.0))

#: L-BFGS-B stops when the projected gradient (nats per unit of log rho or
#: alpha) is below this
GRAD_GTOL = 1e-5

#: a coefficient whose best loglik beats the collapsed one (rho = 0) by less
#: than this many nats collapses
COLLAPSE_MARGIN = 1e-6

#: name, coordinate (0 = log rho, 1 = alpha) and value of each end of the box
BOX_ENDS = (("rho_min", 0, np.log(RHO_BOUNDS[0])), ("rho_max", 0, np.log(RHO_BOUNDS[1])),
            ("alpha_min", 1, ALPHA_BOUNDS[0]), ("alpha_max", 1, ALPHA_BOUNDS[1]))

#: distance in (log rho, alpha) within which a final pair lies on a box end;
#: rounding only, the search projects its points onto the box
BOUND_ATOL = 1e-9

_log = logging.getLogger("fastsvc")


@dataclass(frozen=True)
class PerKCache:
    """Target-independent factorizations for one coordinate step.

    Nothing here depends on the target coefficient's (rho, alpha); rebuilding
    with different off-target parameters changes it, varying the target's
    must not. It holds what ``fast_loglik`` reads and nothing with m rows:
    ``T = X_t'X_t`` and ``r_t = X_t'y_f`` from the forward substitution
    ``X_t = F^{-1} E_t`` of the target's identity columns (zero above the
    target's rows, which come last), ``ln|R|`` and the target-free residual.
    """

    t_block: np.ndarray       # T = R^{-1}[t, t], (L, L) symmetric
    r_t: np.ndarray           # target rows of R^{-1} m, (L,)
    logdet_r: float           # ln|R|
    residual: float           # y'y - |y_f|^2, the target-free part of d
    values: np.ndarray        # basis eigenvalues (L,)
    yty: float
    n_obs: int
    n_cov: int


def build_cache(moments: CompressedMoments, params: ShrinkageParams,
                target: int) -> PerKCache:
    """Factor the off-target system once for coordinate step ``target``.

    ``target`` indexes the varying-coefficient list. Cost is cubic in the
    kept size ``K + K_v L`` (less L for each collapsed off-target
    coefficient); every subsequent target evaluation is O(L^3).
    """
    n, k = moments.n_obs, moments.n_cov
    _check_counts(n, k)
    kv = moments.k_varying
    if params.k_varying != kv:
        raise ValueError("params length must match the number of varying coefficients")
    if not 0 <= target < kv:
        raise ValueError(f"target {target} outside [0, {kv})")

    F, logdet_r, y_f, residual, _ = _penalized_solve(moments, params, SingularBlock,
                                                     target=target)
    L = moments.n_basis
    # the target's rows come last: X_t = F^{-1} E_t is F_tt^{-1} there and
    # zero above, so T and r_t come from the trailing block alone
    f_tt = np.asfortranarray(F[-L:, -L:])
    r_t = blas.dtrsv(f_tt, y_f[-L:], lower=1, trans=1)
    inverse, _ = lapack.dpotri(f_tt, lower=1, overwrite_c=1)
    t_block = np.tril(inverse)
    t_block += np.tril(inverse, -1).T

    return PerKCache(
        t_block=t_block,
        r_t=r_t,
        logdet_r=logdet_r,
        residual=residual,
        values=moments.values,
        yty=moments.yty,
        n_obs=n,
        n_cov=k,
    )


def fast_loglik(cache: PerKCache, rho: float, alpha: float) -> LikelihoodResult:
    """Restricted log-likelihood at target (rho, alpha), off-target fixed.

    One L x L Cholesky per call serves the Woodbury-updated residual term,
    the block-determinant expansion of ln|P| and the gradient of the loglik
    in (log rho, alpha), returned as ``grad`` (its triangular inverse costs
    about as much as the rest of the call). ``b_hat`` and ``u_hat`` are None:
    the search reads only the likelihood and its gradient.
    """
    k = cache.n_cov
    vt = v_diag(rho, alpha, cache.values)

    inner = cache.t_block.copy()
    inner.flat[:: vt.shape[0] + 1] += vt ** 2
    factor, logdet_inner = spd_factor(inner, error=SingularInnerMatrix)
    w, _ = lapack.dpotrs(factor[0], cache.r_t, lower=1)

    d_theta = _clamp_cancelled(cache.residual + float(cache.r_t @ w), cache.yty,
                               "residual term")
    nmk = cache.n_obs - k
    loglik = _assemble_loglik(cache.logdet_r + logdet_inner, d_theta,
                              cache.n_obs, k, cache.yty)
    # diag(A^{-1}) from the inverse factor; cho_factor leaves the input's
    # entries in the other triangle, so they are zeroed before inverting
    factor_inv, _ = lapack.dtrtri(np.tril(factor[0]), lower=1)
    g = vt ** 2 * (nmk * w ** 2 / d_theta
                   - np.einsum("ij,ij->j", factor_inv, factor_inv))
    return LikelihoodResult(
        loglik=loglik,
        b_hat=None,
        u_hat=None,
        d_theta=d_theta,
        sigma2_hat=d_theta / nmk,
        grad=np.array([g.sum(), 0.5 * (g @ np.log(cache.values))]),
    )


class _BudgetSpent(Exception):
    """The search asked for an evaluation beyond its budget."""


def optimize_k(cache: PerKCache, params: ShrinkageParams, target: int,
               budget: int = 120, sweep: int = 0, failures: dict | None = None):
    """Maximize the target coordinate's restricted likelihood.

    L-BFGS-B on the analytic gradient over the box in (log rho, alpha),
    started from each of ``RESTARTS`` in the first sweep (``sweep == 0``)
    or when the incoming evaluation fails, and otherwise from the incoming
    pair alone, clipped into the box. The incoming pair is evaluated first
    in every case. The search minimizes ``-loglik / (N - K)`` with the
    gradient tolerance scaled alike, so its one convergence test is the
    projected gradient in nats, ``GRAD_GTOL``. The box is closed on every
    side, so the first L-BFGS-B step is the raw gradient: per residual degree
    of freedom it moves O(1), where in nats (hundreds of them) it jumped to a
    corner of the box. The gradient in log rho vanishes as rho approaches 0,
    so the search may stop short of the bound there; the exactly collapsed
    loglik (rho = 0) is then evaluated, and when the best point beats it by
    less than ``COLLAPSE_MARGIN`` nats the step returns rho = 0 with that
    loglik.

    At most ``budget`` calls of ``fast_loglik``. A failed evaluation is
    counted in ``failures`` (error class name -> count) and never aborts
    the step. Returns ``(rho, alpha, loglik, n_eval)``, never a point worse
    than the incoming one; on total failure the incoming parameters come
    back unchanged.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lo = np.log(RHO_BOUNDS[0])
    hi = np.log(RHO_BOUNDS[1])
    box = [(lo, hi), ALPHA_BOUNDS]
    per_dof = 1.0 / (cache.n_obs - cache.n_cov)
    # no relative-reduction stop (ftol): a step from a small scaled gradient
    # is short, and its small gain would end the search far above gtol
    options = dict(ftol=0.0, gtol=GRAD_GTOL * per_dof)
    failures = {} if failures is None else failures
    n_eval = 0

    def evaluate(rho, alpha):
        """One counted ``fast_loglik`` call; None when it fails."""
        nonlocal n_eval
        if n_eval >= budget:
            raise _BudgetSpent
        n_eval += 1
        try:
            return fast_loglik(cache, rho, alpha)
        except FastSvcError as exc:
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
            return None

    def point(rho, alpha):
        return np.array([np.clip(np.log(max(rho, RHO_BOUNDS[0])), lo, hi),
                         np.clip(alpha, *ALPHA_BOUNDS)])

    def search(best, x0):
        """Best ``(loglik, rho, alpha)`` of ``best`` and the points L-BFGS-B
        evaluates from ``x0``."""

        def objective(x):
            nonlocal best
            rho, alpha = float(np.exp(x[0])), float(x[1])
            res = evaluate(rho, alpha)
            if res is None:  # reads as +inf, which no search accepts
                return np.inf, np.zeros(2)
            if res.loglik > best[0]:
                best = (res.loglik, rho, alpha)
            return -per_dof * res.loglik, -per_dof * res.grad

        try:
            minimize(objective, x0, method="L-BFGS-B", jac=True, bounds=box,
                     options=options)
        except _BudgetSpent:
            pass
        return best

    rho_in = float(params.rho[target])
    alpha_in = float(params.alpha[target])
    incoming = evaluate(rho_in, alpha_in)
    best = (-np.inf if incoming is None else incoming.loglik, rho_in, alpha_in)
    starts = RESTARTS if sweep == 0 or incoming is None else ((rho_in, alpha_in),)
    for rho0, alpha0 in starts:
        best = search(best, point(rho0, alpha0))

    if n_eval < budget:
        collapsed = evaluate(0.0, best[2])
        if collapsed is not None and collapsed.loglik > best[0] - COLLAPSE_MARGIN:
            return 0.0, best[2], collapsed.loglik, n_eval
    return best[1], best[2], best[0], n_eval


@dataclass
class FitTrace:
    """Sweep-by-sweep record of the coordinate ascent."""

    sweep_logliks: list = field(default_factory=list)
    eval_counts: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # error class -> failed evaluations
    collapsed: np.ndarray | None = None
    converged: bool = False
    reason: str = ""
    at_bound: dict = field(default_factory=dict)  # coefficient -> names of the
                                                  # box ends its final pair is on
    cache_s: float = 0.0   # summed build_cache wall time
    search_s: float = 0.0  # summed optimize_k wall time

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
    parameters and maximizes the target pair with ``optimize_k``, which
    searches from ``RESTARTS`` in the first sweep and from the incoming pair
    in later ones. A coefficient for which
    ``optimize_k`` returns rho = 0 (its best loglik is within
    ``COLLAPSE_MARGIN`` of the collapsed one) is a constant from then on and
    is skipped in later sweeps. Failed evaluations are
    summed by error class in ``FitTrace.failed``, and the wall time of the
    cache builds and of the searches in ``cache_s`` and ``search_s``. A
    non-collapsed coefficient that ends on an end of the search box is
    listed in ``FitTrace.at_bound`` and named in one warning on the
    ``fastsvc`` logger. The returned result is recomputed from the
    compressed likelihood at the final parameters.

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
    prev_ll = -np.inf
    for sweep in range(max_sweeps):
        ll = prev_ll
        counts = []
        for a in range(kv):
            if trace.collapsed[a]:
                continue
            t0 = time.perf_counter()
            cache = build_cache(moments, params, a)
            t1 = time.perf_counter()
            rho, alpha, ll_a, n_eval = optimize_k(cache, params, a, budget=budget,
                                                  sweep=sweep, failures=trace.failed)
            trace.cache_s += t1 - t0
            trace.search_s += time.perf_counter() - t1
            counts.append(n_eval)
            if np.isfinite(ll_a):
                ll = ll_a
            trace.collapsed[a] = rho == 0.0
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

    trace.at_bound = bounds_reached(params, trace.collapsed)
    if trace.at_bound:
        _log.warning("the search box binds: %s", "; ".join(
            f"varying coefficient {a} ends on {', '.join(ends)}"
            for a, ends in trace.at_bound.items()))
    final = compressed_restricted_loglik(moments, params)
    return params, final, trace


def bounds_reached(params: ShrinkageParams, collapsed: np.ndarray) -> dict:
    """Map each non-collapsed coefficient whose rho or alpha lies on an end
    of ``RHO_BOUNDS`` or ``ALPHA_BOUNDS`` to the names of those ends.

    rho is compared in log space, where the search runs and whose box end
    it returns as ``exp(log(1e-6)) = 1.0000000000000004e-06``; an end
    within ``BOUND_ATOL`` counts as reached.
    """
    reached = {}
    for a in np.flatnonzero(~collapsed):
        x = (np.log(params.rho[a]), params.alpha[a])
        ends = [name for name, i, end in BOX_ENDS if abs(x[i] - end) <= BOUND_ATOL]
        if ends:
            reached[int(a)] = ends
    return reached
