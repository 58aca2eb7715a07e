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

Cache. Write ``F`` for the Cholesky factor of ``R`` with the target's rows
last and ``y_f = F^{-1} m``. The first part of ``d`` is ``y'y - |y_f|^2``;
it cancels almost completely near good fits but does not depend on the
target's (rho, alpha), so it is summed once per cache in extended precision,
and ``r_t'w`` is a nonnegative quadratic form. With ``X_t = F^{-1} E_t``,
``T = X_t'X_t`` and ``r_t = X_t'y_f``. Forward substitution on identity
columns leaves ``X_t`` zero above the target's rows, where it is
``F_tt^{-1}``, the inverse of the trailing L x L block of ``F``:
``T = (F_tt F_tt')^{-1}`` and ``r_t = F_tt'^{-1} y_f[t]``. That trailing block
is the factor of the target's conditional Gram ``C_tt``, the Schur
complement of everything else in ``R``, and ``y_f[t] = F_tt^{-1} c_t`` with
``c_t`` the target's conditional moments. So a cache needs only ``C_tt``,
``c_t``, ``ln|R_SS|`` and ``y'y - |y_S|^2`` of the rest ``S``; it holds no
array with m rows.

Conditioning. Eliminating a set ``S`` of blocks from a system whose other
blocks ``H`` are scaled by ``D_H`` leaves ``D_H C_HH D_H`` (+ I) with

    C_HH = G_HH - G_HS D_S R_SS^{-1} D_S G_SH,   c_H = gy_H - G_HS D_S R_SS^{-1} D_S gy_S

because ``R_HS = D_H G_HS D_S``: the conditional Gram ``C_HH`` and moments
``c_H`` do not depend on the kept blocks' parameters, and eliminating more
blocks later works on them as on the Gram. ``_eliminate`` does it with
one factor of the scaled, penalized ``R_SS = F_S F_S'``, a ``dtrsm`` for
``X = F_S^{-1} D_S G_SH``, a ``dsyrk`` for ``C_HH = G_HH - X'X`` and a
``dgemv`` for ``c_H = gy_H - X'y_S``. An off-target coefficient at rho = 0 is
an identity block with no coupling and no moment, so it is dropped, and a
step factors a smaller system. Every expression stays finite as any rho
approaches 0, so collapsed coefficients need no other special casing.

Sweep. Within a sweep, the coefficients after the current step still hold
last sweep's pairs and those before it are final, so ``fit_sequential``
halves each sweep's targets recursively: it eliminates the fixed block and
the second half at their current pairs once for every step in the first
half, recurses, then eliminates the fixed block and the updated first half
from the same moments for the second half. An elimination of half of an
n-row system costs ``n^3 / 24`` flops for its factor and ``n^3 / 8`` each for
the ``dtrsm`` and the ``dsyrk``, so the root's two cost ``7 m^3 / 12`` and
each level below a quarter of the level above: a sweep costs about
``7 m^3 / 9`` flops plus one L x L factor per step, against ``m^3 / 3`` per
step for factoring ``R`` afresh (3.4 times as much at K_v = 8). The singularity
guard of ``spd_factor`` runs on every factor of the tree: each piece is at
least as well conditioned as the whole ``R``, so a system the whole factor
would have rejected can pass piece by piece.

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

Hessian. Write ``u_l = v_l^2 = rho^2 lambda_l^alpha``, ``B = A^{-1}``,
``n = N - K`` and ``G_l = (n w_l^2 / d - B_ll) / 2 = d loglik / d u_l``.
With ``dB_ll / du_m = -B_lm^2``, ``dw_l / du_m = -B_lm w_m`` and
``dd / du_m = -w_m^2``,

    d^2 loglik / du_l du_m = B_lm^2 / 2 - (n / d) w_l B_lm w_m
                             + (n / 2d^2) w_l^2 w_m^2.

The Jacobian of ``u`` in x = (ln rho, alpha) is ``J = [2u, u o ln(lambda)]``
(L x 2), so the gradient is ``J'G`` and the Hessian

    H = J'(B o B)J / 2 - (n/d) (w o J)'B(w o J) + (n / 2d^2) (J'w^2)(J'w^2)'
        + sum_l G_l [[4 u_l, 2 u_l ln(lambda_l)], [2 u_l ln(lambda_l), u_l ln(lambda_l)^2]]

where the last term is the second derivative of ``u`` itself. ``hessian``
forms it from the inverse factor ``Z`` the gradient already computed:
``B = Z'Z`` is one ``dsyrk`` and the L x 2 products are ``dsymm`` calls, so
only the Newton search pays for it.

Search. Sweep 0 runs L-BFGS-B from each of ``RESTARTS``; a later step
starts next to its optimum, at the incoming pair, and takes projected
Newton steps on the box (Bertsekas, SIAM J. Control Optim. 1982) with ``H``
made positive definite by taking absolute values of its eigenvalues, as in
Newton and average-information REML for variance components (Gilmour,
Thompson & Cullis, Biometrics 1995). ``optimize_k`` has the rule.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

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
    _factor_penalized,
    _gather,
    _merged,
    _mirror_lower,
    _squares,
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

#: both searches stop when the projected gradient (nats per unit of log rho
#: or alpha) is below this
GRAD_GTOL = 1e-5

#: Newton search: Armijo constant of the backtracking line search, which
#: halves the step until the decrease holds and gives up below NEWTON_MIN_T
NEWTON_ARMIJO = 1e-4
NEWTON_MIN_T = 1e-6

#: Newton search: the line search also gives up when the decrease the step
#: predicts, t |g'step|, is at most this many units of rounding of f; such a
#: decrease cannot be told from the rounding of the loglik
NEWTON_ROUNDING_ULPS = 8

#: Newton search: largest step in (log rho, alpha), max-norm, before the
#: projection onto the box; a factor e^2 in rho
NEWTON_MAX_STEP = 2.0

#: Newton search: the Hessian's eigenvalues e are replaced by
#: max(|e|, NEWTON_EIG_REL * max|e| + NEWTON_EIG_ABS), so a saddle or a flat
#: direction still gives a descent step of bounded length
NEWTON_EIG_REL = 1e-6
NEWTON_EIG_ABS = 1e-12

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
    ``T`` is kept as its lower triangle in Fortran order, zero above, so a
    copy of it is ready for LAPACK's lower Cholesky and leaves a factor
    with nothing above its diagonal.
    """

    t_lower: np.ndarray       # lower triangle of T = R^{-1}[t, t], (L, L),
                              # Fortran order, zero above the diagonal
    t_abs_colsum: np.ndarray  # column sums of |T|, (L,)
    r_t: np.ndarray           # target rows of R^{-1} m, (L,)
    logdet_r: float           # ln|R|
    residual: float           # y'y - |y_f|^2, the target-free part of d
    values: np.ndarray        # basis eigenvalues (L,)
    log_values: np.ndarray    # their logarithms (L,)
    yty: float
    n_obs: int
    n_cov: int


@dataclass(frozen=True)
class ConditionedMoments:
    """Compressed moments with some blocks eliminated at fixed parameters.

    ``gram`` and ``gy`` are the conditional Gram and moments (module
    docstring) of the columns left: the fixed block's first ``n_fixed``
    columns (all K of them, or none once it is eliminated), then one L-block
    per coefficient of ``coefs``, in that order, all unscaled. ``residual``
    is ``y'y - |y_S|^2`` and ``logdet`` is ``ln|R_SS|`` of what has been
    eliminated. ``of`` wraps the moments themselves, with nothing
    eliminated.
    """

    gram: np.ndarray          # conditional Gram, symmetric, Fortran order
    gy: np.ndarray            # conditional moments
    residual: np.longdouble   # y'y - |y_S|^2, in extended precision
    logdet: float             # ln|R_SS|
    n_fixed: int              # fixed-block columns still in gram
    coefs: tuple              # varying coefficients whose blocks follow
    moments: CompressedMoments

    @classmethod
    def of(cls, moments: CompressedMoments) -> "ConditionedMoments":
        return cls(moments.gram, moments.gy, np.longdouble(moments.yty), 0.0,
                   moments.n_cov, tuple(range(moments.k_varying)), moments)


def _eliminate(cond: ConditionedMoments, params: ShrinkageParams,
               keep) -> ConditionedMoments:
    """Condition ``cond`` on everything but the blocks of the coefficients
    in ``keep``, at the parameters in ``params``.

    The eliminated part ``S`` is the fixed block and every other block whose
    scale is not identically zero (a collapsed block is dropped). One
    ``_factor_penalized`` of ``R_SS``, a ``dtrsm``, a ``dsyrk`` and a
    ``dgemv`` give the kept blocks' conditional Gram and moments (module
    docstring); nothing returned depends on the kept blocks' parameters. The
    factor is freed before the conditional Gram is allocated, so the peak is
    the larger of ``|S|^2 + |S||H|`` and ``|S||H| + |H|^2`` doubles. Raises
    ``SingularBlock`` when ``R_SS`` is singular.
    """
    L, nf = cond.moments.n_basis, cond.n_fixed
    eliminated, scales, kept, coefs = [slice(0, nf)], [np.ones(nf)], [], []
    for i, a in enumerate(cond.coefs):
        span = slice(nf + i * L, nf + (i + 1) * L)
        if a in keep:
            kept.append(span)
            coefs.append(a)
            continue
        v = v_diag(params.rho[a], params.alpha[a], cond.moments.values)
        if v.any():
            eliminated.append(span)
            scales.append(v)
    eliminated, kept = _merged(eliminated), _merged(kept)
    s = np.concatenate(scales)
    gy = np.concatenate([cond.gy[r] for r in kept])
    if not s.size:
        return replace(cond, gram=_gather(cond.gram, kept, kept), gy=gy,
                       n_fixed=0, coefs=tuple(coefs))

    F, logdet_s, y_s = _factor_penalized(cond.gram, cond.gy, eliminated, s, nf,
                                         SingularBlock)
    panel = _gather(cond.gram, eliminated, kept)
    panel *= s[:, None]
    panel = blas.dtrsm(1.0, F, panel, lower=1, overwrite_b=1)  # X = F_S^{-1} D_S G_SH
    del F
    gram = blas.dsyrk(-1.0, panel, beta=1.0, c=_gather(cond.gram, kept, kept),
                      trans=1, lower=1, overwrite_c=1)
    _mirror_lower(gram)
    gy = blas.dgemv(-1.0, panel, y_s, beta=1.0, y=gy, trans=1, overwrite_y=1)
    return ConditionedMoments(gram, gy, cond.residual - _squares(y_s),
                              cond.logdet + logdet_s, 0, tuple(coefs), cond.moments)


def build_cache(moments: CompressedMoments | ConditionedMoments,
                params: ShrinkageParams, target: int) -> PerKCache:
    """Factor the off-target system once for coordinate step ``target``.

    ``target`` indexes the varying-coefficient list. ``moments`` is the
    compressed moments, or moments already conditioned on some blocks, as
    ``fit_sequential`` passes them; its other blocks are eliminated at
    ``params`` (``_eliminate``) down to the target's L x L conditional Gram,
    whose factor gives the cache. From the compressed moments the cost is
    cubic in the kept size ``K + K_v L`` (less L for each collapsed
    off-target coefficient); every subsequent target evaluation is O(L^3).
    Raises ``SingularBlock`` when the off-target system is singular.
    """
    cond = (moments if isinstance(moments, ConditionedMoments)
            else ConditionedMoments.of(moments))
    source = cond.moments
    n, k = source.n_obs, source.n_cov
    _check_counts(n, k)
    if params.k_varying != source.k_varying:
        raise ValueError("params length must match the number of varying coefficients")
    if target not in cond.coefs:
        raise ValueError(f"target {target} is not among the blocks {list(cond.coefs)}")

    leaf = _eliminate(cond, params, (target,))
    L = source.n_basis
    (f_tt, _), logdet_tt = spd_factor(leaf.gram, error=SingularBlock)
    y_t = blas.dtrsv(f_tt, leaf.gy, lower=1)
    r_t = blas.dtrsv(f_tt, y_t, lower=1, trans=1)
    t_lower, _ = lapack.dpotri(f_tt, lower=1, overwrite_c=1)
    t_lower[np.triu_indices(L, 1)] = 0.0
    t_abs = np.abs(t_lower)
    # T's column j is its lower column j and, above the diagonal, row j
    t_abs_colsum = t_abs.sum(axis=0) + t_abs.sum(axis=1) - t_abs.diagonal()

    return PerKCache(
        t_lower=t_lower,
        t_abs_colsum=t_abs_colsum,
        r_t=r_t,
        logdet_r=leaf.logdet + logdet_tt,
        residual=float(leaf.residual - _squares(y_t)),
        values=source.values,
        log_values=np.log(source.values),
        yty=source.yty,
        n_obs=n,
        n_cov=k,
    )


@dataclass(frozen=True)
class StepEvaluation(LikelihoodResult):
    """A ``fast_loglik`` result with the pieces ``hessian`` reuses."""

    factor_inv: np.ndarray | None = None  # Z = F^{-1} for A = F F', lower
                                          # triangular, zero above
    w: np.ndarray | None = None           # A^{-1} r_t
    u: np.ndarray | None = None           # v^2 = rho^2 lambda^alpha


def fast_loglik(cache: PerKCache, rho: float, alpha: float) -> StepEvaluation:
    """Restricted log-likelihood at target (rho, alpha), off-target fixed.

    One L x L Cholesky per call serves the Woodbury-updated residual term,
    the block-determinant expansion of ln|P| and the gradient of the loglik
    in (log rho, alpha), returned as ``grad`` (its triangular inverse costs
    about as much as the rest of the call). ``b_hat`` and ``u_hat`` are None:
    the search reads only the likelihood and its gradient. The condition
    estimate takes the exact 1-norm ``max_j (sum_i |T_ij| + u_j)`` of
    ``A = T + diag(u)``, exact because ``T_jj > 0``.
    """
    k = cache.n_cov
    u = v_diag(rho, alpha, cache.values) ** 2

    inner = cache.t_lower.copy(order="F")
    inner.ravel(order="K")[:: u.shape[0] + 1] += u
    factor, logdet_inner = spd_factor(inner, error=SingularInnerMatrix,
                                      anorm=float(np.max(cache.t_abs_colsum + u)))
    w, _ = lapack.dpotrs(factor[0], cache.r_t, lower=1)

    d_theta = _clamp_cancelled(cache.residual + float(cache.r_t @ w), cache.yty,
                               "residual term")
    nmk = cache.n_obs - k
    loglik = _assemble_loglik(cache.logdet_r + logdet_inner, d_theta,
                              cache.n_obs, k, cache.yty)
    # diag(A^{-1}) from the inverse factor, zero above its diagonal like the
    # factor it overwrites
    factor_inv, _ = lapack.dtrtri(factor[0], lower=1, overwrite_c=1)
    g = u * (nmk * w ** 2 / d_theta - np.einsum("ij,ij->j", factor_inv, factor_inv))
    return StepEvaluation(
        loglik=loglik,
        b_hat=None,
        u_hat=None,
        d_theta=d_theta,
        sigma2_hat=d_theta / nmk,
        grad=np.array([g.sum(), 0.5 * (g @ cache.log_values)]),
        factor_inv=factor_inv,
        w=w,
        u=u,
    )


def hessian(cache: PerKCache, res: StepEvaluation) -> np.ndarray:
    """Exact 2 x 2 Hessian of the loglik in (log rho, alpha) at ``res``.

    Built from the inverse factor, ``w`` and ``u`` that ``fast_loglik``
    left on ``res`` (the module docstring has the formula): one ``dsyrk``
    for ``B = A^{-1}``, two ``dsymm`` products with the L x 2 Jacobian
    ``J = [2u, u ln(lambda)]`` and 2 x 2 contractions: about 200 us against
    470 us for an evaluation at L = 199 on two cores, paid only by the Newton
    search.
    """
    nmk = cache.n_obs - cache.n_cov
    d, w, u, log_values = res.d_theta, res.w, res.u, cache.log_values
    b = blas.dsyrk(1.0, res.factor_inv, trans=1, lower=1)  # lower triangle of B
    jac = np.column_stack([2.0 * u, u * log_values])
    wjac = w[:, None] * jac
    bb_jac = blas.dsymm(1.0, b * b, jac, lower=1)
    b_wjac = blas.dsymm(1.0, b, wjac, lower=1)
    jw2 = jac.T @ w ** 2
    h = (0.5 * np.einsum("li,lj->ij", jac, bb_jac)
         - (nmk / d) * np.einsum("li,lj->ij", wjac, b_wjac)
         + (0.5 * nmk / d ** 2) * np.outer(jw2, jw2))
    # the chain rule's second-derivative term, sum_l G_l d^2 u_l / dx dx'
    gu = 0.5 * u * (nmk * w ** 2 / d - b.diagonal())
    h[0, 0] += 4.0 * gu.sum()
    h[0, 1] += 2.0 * (gu @ log_values)
    h[1, 0] = h[0, 1]
    h[1, 1] += gu @ log_values ** 2
    return h


class _BudgetSpent(Exception):
    """The search asked for an evaluation beyond its budget."""


class CoordinateStep(tuple):
    """``optimize_k``'s ``(rho, alpha, loglik, n_eval)``, carrying how the
    step searched (``search``: ``"lbfgsb"`` or ``"newton"``), its failed
    evaluations (``n_failed``) and the loglik's gradient in (log rho, alpha)
    at the returned pair (``grad``, nats; NaN when no evaluation succeeded)
    as attributes."""

    def __new__(cls, rho, alpha, loglik, n_eval, search, n_failed, grad):
        step = super().__new__(cls, (rho, alpha, loglik, n_eval))
        step.search, step.n_failed, step.grad = search, n_failed, grad
        return step


def _modified_newton_step(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``-H^{-1} g`` for a 1 x 1 or 2 x 2 symmetric ``h`` whose eigenvalues
    ``e`` are replaced by ``max(|e|, NEWTON_EIG_REL * max|e| + NEWTON_EIG_ABS)``.

    The 2 x 2 eigenpairs are the closed form: the rotation angle
    ``theta = atan2(2 h01, h00 - h11) / 2`` gives the eigenvector
    ``(cos, sin)`` of ``mean + radius`` and ``(-sin, cos)`` of
    ``mean - radius``.
    """
    if h.shape == (1, 1):
        mag = abs(h[0, 0])
        return -g / max(mag, NEWTON_EIG_REL * mag + NEWTON_EIG_ABS)
    a, b, c = h[0, 0], h[0, 1], h[1, 1]
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    mag = np.abs([mean + radius, mean - radius])
    mag = np.maximum(mag, NEWTON_EIG_REL * mag.max() + NEWTON_EIG_ABS)
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    cs, sn = np.cos(theta), np.sin(theta)
    c1 = (cs * g[0] + sn * g[1]) / mag[0]
    c2 = (cs * g[1] - sn * g[0]) / mag[1]
    return -np.array([cs * c1 - sn * c2, sn * c1 + cs * c2])


def optimize_k(cache: PerKCache, params: ShrinkageParams, target: int,
               budget: int = 120, sweep: int = 0, failures: dict | None = None):
    """Maximize the target coordinate's restricted likelihood.

    Both searches run over the box in (log rho, alpha) and minimize
    ``f = -loglik / (N - K)``, stopping when the projected gradient's
    max-norm is at most ``GRAD_GTOL / (N - K)`` (``GRAD_GTOL`` nats). The
    incoming pair is evaluated first in every case.

    In the first sweep (``sweep == 0``), or when the incoming evaluation
    fails or the incoming pair lies outside the box, L-BFGS-B on the
    analytic gradient runs from each of ``RESTARTS``.
    The box is closed on every side, so its first step is the raw gradient:
    per residual degree of freedom it moves O(1), where in nats (hundreds of
    them) it jumped to a corner of the box. Its long first steps also reach
    optima at a corner that a Newton search from the restarts ends short of.

    Otherwise a projected Newton search on the exact Hessian (module
    docstring) runs from the incoming pair, reusing its evaluation. Each iteration frees the coordinates that are
    not on a box end with the gradient pushing outward, takes
    ``-H_free^{-1} g_free`` with ``H``'s eigenvalues made positive by
    ``_modified_newton_step``, caps its max-norm at ``NEWTON_MAX_STEP``,
    projects it onto the box and backtracks by halving until the Armijo
    decrease ``NEWTON_ARMIJO`` holds (a failed evaluation is a rejected
    step). It gives up when the step factor falls below ``NEWTON_MIN_T`` or
    the decrease the unprojected step predicts is within
    ``NEWTON_ROUNDING_ULPS`` roundings of ``f``.

    The gradient in log rho vanishes as rho approaches 0, so a search may
    stop short of the bound there; the exactly collapsed loglik (rho = 0) is
    then evaluated, and when the best point beats it by less than
    ``COLLAPSE_MARGIN`` nats the step returns rho = 0 with that loglik.

    At most ``budget`` calls of ``fast_loglik``. A failed evaluation is
    counted in ``failures`` (error class name -> count) and never aborts
    the step. Returns a ``CoordinateStep``, the tuple
    ``(rho, alpha, loglik, n_eval)``, never a point worse than the incoming
    one; on total failure the incoming parameters come back unchanged.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lower = np.array([np.log(RHO_BOUNDS[0]), ALPHA_BOUNDS[0]])
    upper = np.array([np.log(RHO_BOUNDS[1]), ALPHA_BOUNDS[1]])
    per_dof = 1.0 / (cache.n_obs - cache.n_cov)
    gtol = GRAD_GTOL * per_dof
    # no relative-reduction stop (ftol): a step from a small scaled gradient
    # is short, and its small gain would end the search far above gtol
    options = dict(ftol=0.0, gtol=gtol)
    failures = {} if failures is None else failures
    n_eval = n_failed = 0

    def evaluate(rho, alpha):
        """One counted ``fast_loglik`` call; None when it fails."""
        nonlocal n_eval, n_failed
        if n_eval >= budget:
            raise _BudgetSpent
        n_eval += 1
        try:
            return fast_loglik(cache, rho, alpha)
        except FastSvcError as exc:
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
            n_failed += 1
            return None

    def point(rho, alpha):
        return np.clip([np.log(max(rho, RHO_BOUNDS[0])), alpha], lower, upper)

    rho_in = float(params.rho[target])
    alpha_in = float(params.alpha[target])
    best = (-np.inf, rho_in, alpha_in, np.full(2, np.nan))

    def tracked(x):
        """``evaluate`` at ``x = (log rho, alpha)``, kept in ``best`` when
        it improves on it."""
        nonlocal best
        rho, alpha = float(np.exp(x[0])), float(x[1])
        res = evaluate(rho, alpha)
        if res is not None and res.loglik > best[0]:
            best = (res.loglik, rho, alpha, res.grad)
        return res

    def lbfgsb(x0):
        def objective(x):
            res = tracked(x)
            if res is None:  # reads as +inf, which no search accepts
                return np.inf, np.zeros(2)
            return -per_dof * res.loglik, -per_dof * res.grad

        minimize(objective, x0, method="L-BFGS-B", jac=True,
                 bounds=list(zip(lower, upper)), options=options)

    def newton(x, res):
        f = -per_dof * res.loglik
        rounding = NEWTON_ROUNDING_ULPS * np.finfo(float).eps
        while True:
            g = -per_dof * res.grad
            if np.max(np.abs(np.clip(x - g, lower, upper) - x)) <= gtol:
                return
            free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
            h = -per_dof * hessian(cache, res)
            step = np.zeros(2)
            step[free] = _modified_newton_step(h[np.ix_(free, free)], g[free])
            step *= min(1.0, NEWTON_MAX_STEP / np.max(np.abs(step)))
            descent = -(g @ step)  # > 0: H_free was made positive definite
            t = 1.0
            while True:
                if t < NEWTON_MIN_T or t * descent <= rounding * abs(f):
                    return
                x_t = np.clip(x + t * step, lower, upper)
                res_t = tracked(x_t)
                if res_t is not None:
                    f_t = -per_dof * res_t.loglik
                    if f_t < f + NEWTON_ARMIJO * min(g @ (x_t - x), 0.0):
                        break
                t *= 0.5
            x, res, f = x_t, res_t, f_t

    search = "lbfgsb"
    try:
        incoming = evaluate(rho_in, alpha_in)
        if incoming is not None:
            best = (incoming.loglik, rho_in, alpha_in, incoming.grad)
            if (sweep > 0 and RHO_BOUNDS[0] <= rho_in <= RHO_BOUNDS[1]
                    and ALPHA_BOUNDS[0] <= alpha_in <= ALPHA_BOUNDS[1]):
                search = "newton"
        if search == "newton":
            newton(point(rho_in, alpha_in), incoming)
        else:
            for rho0, alpha0 in RESTARTS:
                lbfgsb(point(rho0, alpha0))
    except _BudgetSpent:
        pass

    ll, rho, alpha, grad = best
    if n_eval < budget:
        collapsed = evaluate(0.0, alpha)
        if collapsed is not None and collapsed.loglik > ll - COLLAPSE_MARGIN:
            return CoordinateStep(0.0, alpha, collapsed.loglik, n_eval, search,
                                  n_failed, collapsed.grad)
    return CoordinateStep(rho, alpha, ll, n_eval, search, n_failed, grad)


@dataclass
class FitTrace:
    """Sweep-by-sweep record of the coordinate ascent."""

    failed: dict = field(default_factory=dict)  # error class -> failed evaluations
    collapsed: np.ndarray | None = None
    converged: bool = False
    reason: str = ""
    at_bound: dict = field(default_factory=dict)  # coefficient -> names of the
                                                  # box ends its final pair is on
    cache_s: float = 0.0   # summed wall time of the caches: build_cache and
                           # the eliminations of the sweep's tree
    search_s: float = 0.0  # summed optimize_k wall time
    steps: list = field(default_factory=list)  # one dict per coordinate step,
    # in order: sweep, target, search ("lbfgsb" | "newton"), start and end
    # (rho, alpha), loglik, n_eval, n_failed, collapsed, and grad, the end
    # point's gradient in (log rho, alpha) in nats

    @property
    def n_sweeps(self) -> int:
        return self.steps[-1]["sweep"] + 1 if self.steps else 0

    @property
    def eval_counts(self) -> list:
        """Each step's evaluations, one list per sweep."""
        counts = [[] for _ in range(self.n_sweeps)]
        for step in self.steps:
            counts[step["sweep"]].append(step["n_eval"])
        return counts

    @property
    def sweep_logliks(self) -> list:
        """Each sweep's last finite step loglik, carried over from the sweep
        before (-inf before the first) when it has none."""
        lls = []
        for step in self.steps:
            if step["sweep"] == len(lls):
                lls.append(lls[-1] if lls else -np.inf)
            if np.isfinite(step["loglik"]):
                lls[-1] = step["loglik"]
        return lls


def fit_sequential(moments: CompressedMoments,
                   init: ShrinkageParams | None = None,
                   tol: float = 1e-5,
                   max_sweeps: int = 30,
                   budget: int = 120):
    """Sweep the varying coefficients until the likelihood gain drops below tol.

    Each coordinate step builds its cache at the current off-target
    parameters and maximizes the target pair with ``optimize_k``, which
    searches with L-BFGS-B from ``RESTARTS`` in the first sweep and with
    projected Newton steps from the incoming pair in later ones. The caches
    of a sweep come from one tree of eliminations (module docstring): the
    sweep's targets are halved recursively, in order, and each half is
    stepped through on the moments conditioned on the fixed block and the
    other half at their current pairs; ``build_cache`` turns the moments
    conditioned on all but the target into its cache. A coefficient for
    which ``optimize_k`` returns rho = 0 (its best loglik is within
    ``COLLAPSE_MARGIN`` of the collapsed one) is a constant from then on: it
    is dropped from later eliminations and skipped in later sweeps. Failed
    evaluations are summed by error class in ``FitTrace.failed``, and the
    wall time of the caches (eliminations and ``build_cache``) and of the
    searches in ``cache_s`` and ``search_s``. Each coordinate step is
    recorded in ``FitTrace.steps`` and logged at DEBUG on the ``fastsvc``
    logger. A non-collapsed coefficient that ends on an end of the search
    box is listed in ``FitTrace.at_bound`` and named in one warning on the
    ``fastsvc`` logger. The returned result is recomputed from the
    compressed likelihood at the final parameters. ``SingularBlock`` from
    any elimination or cache propagates.

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

    _check_counts(moments.n_obs, moments.n_cov)
    trace = FitTrace(collapsed=np.zeros(kv, dtype=bool))

    def take_step(cond, a, sweep):
        nonlocal params
        t0 = time.perf_counter()
        cache = build_cache(cond, params, a)
        t1 = time.perf_counter()
        step = optimize_k(cache, params, a, budget=budget, sweep=sweep,
                          failures=trace.failed)
        trace.cache_s += t1 - t0
        trace.search_s += time.perf_counter() - t1
        rho, alpha, ll_a, n_eval = step
        record = dict(sweep=sweep, target=a, search=step.search,
                      start=(float(params.rho[a]), float(params.alpha[a])),
                      end=(rho, alpha), loglik=float(ll_a), n_eval=n_eval,
                      n_failed=step.n_failed, collapsed=rho == 0.0,
                      grad=[float(v) for v in step.grad])
        trace.steps.append(record)
        _log.debug("sweep %d, varying coefficient %d: %s from (%.6g, %.6g) to "
                   "(%.6g, %.6g), loglik %.9g, %d evaluations (%d failed), "
                   "gradient (%.3g, %.3g)", sweep, a, step.search, *record["start"],
                   rho, alpha, ll_a, n_eval, step.n_failed, *record["grad"])
        trace.collapsed[a] = rho == 0.0
        params = params.with_entry(a, rho, alpha)

    def visit(cond, targets, sweep):
        """Step through ``targets``, whose blocks are all ``cond`` holds
        besides the fixed block, eliminating one half for the other."""
        if len(targets) <= 1:
            for a in targets:
                take_step(cond, a, sweep)
            return
        half = len(targets) // 2
        for part in (targets[:half], targets[half:]):
            t0 = time.perf_counter()
            sub = _eliminate(cond, params, part)
            trace.cache_s += time.perf_counter() - t0
            visit(sub, part, sweep)
            del sub  # before the next half's elimination allocates

    root = ConditionedMoments.of(moments)
    for sweep in range(max_sweeps):
        visit(root, [a for a in range(kv) if not trace.collapsed[a]], sweep)
        if trace.collapsed.all():
            trace.converged = True
            trace.reason = "all coefficients collapsed to constants"
            break
        lls = trace.sweep_logliks
        if sweep > 0 and lls[-1] - lls[-2] < tol:
            trace.converged = True
            trace.reason = f"sweep gain {lls[-1] - lls[-2]:.3e} below tol"
            break
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
