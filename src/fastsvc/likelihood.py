"""Restricted log-likelihood of the mixed-model form, in two equivalent routes.

Model: ``y = X b + sum_k (x_k o E) V_k u_k + eps`` with ``u_k, eps`` i.i.d.
Gaussian sharing the residual variance, and per-coefficient shrinkage
``V_k = rho_k * diag(lambda ** (alpha_k / 2))``. Integrating out ``b`` and
profiling the residual variance gives

    loglik = -1/2 ln|P| - (N - K)/2 * (1 + ln(2 pi d / (N - K)))

where ``P`` is the penalized normal-equation matrix and ``d`` is the sum of
the squared residual norm and of all squared random-effect norms.

``direct_restricted_loglik`` assembles N-sized matrices (slow oracle).
``compressed_restricted_loglik`` works purely off precompressed inner
products, so its cost is independent of N. There ``d`` is the penalized
residual sum of squares ``d = y'y - z'(s o W'y)`` at the solve ``z`` of the
shrinkage-scaled system ``P z = s o W'y``; with ``P = F F'`` it is
``y'y - |F^{-1}(s o W'y)|^2``, read off one forward substitution (the
penalized least-squares form of lme4, Bates et al., JSS 2015).
``_penalized_solve`` forms, factors and solves that system in two
Schur-complement halves; ``_factor_penalized``, its core, also factors the
pieces that ``sequential`` eliminates to build its per-target caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .compression import CompressedMoments, SvcDesign
from .errors import (
    InsufficientData,
    NegativeResidualNorm,
    NonPositiveEigenvalue,
    PerfectFit,
    SingularP,
    SizeGuardExceeded,
)

#: condition estimate below this reciprocal triggers a singularity error
RCOND_LIMIT = 1e-12

#: relative residual-norm level treated as an exact (degenerate) fit
PERFECT_FIT_TOL = 1e-24

#: compressed residual norms in [-CANCEL_TOL * y'y, 0) are rounding, clamp to 0
CANCEL_TOL = 1e-6

#: direct route refuses N above this, like the exact eigenbasis
DIRECT_SIZE_GUARD = 5000


@dataclass(frozen=True)
class ShrinkageParams:
    """Per-varying-coefficient shrinkage: variance ratio and scale exponent.

    ``rho[a] >= 0`` is the random-effect-to-residual standard deviation ratio
    of the a-th varying coefficient; ``alpha[a]`` is the eigenvalue power
    controlling its spatial scale (larger = smoother, larger-scale surface).
    """

    rho: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=np.float64)).copy()
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=np.float64)).copy()
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "alpha", alpha)
        if rho.shape != alpha.shape:
            raise ValueError("rho and alpha must have the same length")
        if not np.isfinite(rho).all() or not np.isfinite(alpha).all():
            raise ValueError("shrinkage parameters must be finite")
        if (rho < 0).any():
            raise ValueError("rho must be nonnegative")

    @classmethod
    def constant(cls, k_varying: int, rho: float = 0.5, alpha: float = 1.0):
        return cls(np.full(k_varying, rho), np.full(k_varying, alpha))

    def with_entry(self, a: int, rho: float, alpha: float) -> "ShrinkageParams":
        r, al = self.rho.copy(), self.alpha.copy()
        r[a], al[a] = rho, alpha
        return ShrinkageParams(r, al)

    @property
    def k_varying(self) -> int:
        return int(self.rho.shape[0])


@dataclass(frozen=True)
class LikelihoodResult:
    """Restricted log-likelihood value and the coefficient solve behind it.

    A coordinate step's ``fast_loglik`` returns the likelihood, the residual
    term and the gradient, not the coefficients: the search reads none of
    them, and the fit takes its coefficients from the compressed route."""

    loglik: float
    b_hat: np.ndarray | None  # (K,) fixed effects; None on a coordinate step
    u_hat: np.ndarray | None  # (K_v, L) standardized random effects per
                              # varying coef; None on a coordinate step
    d_theta: float      # squared residual norm + sum of squared u norms
    sigma2_hat: float   # profiled residual variance d / (N - K)
    grad: np.ndarray | None = None  # d loglik / d(log rho, alpha) of a
                                    # coordinate step's target, if computed


def v_diag(rho: float, alpha: float, values: np.ndarray) -> np.ndarray:
    """Shrinkage diagonal ``rho * values ** (alpha / 2)``; values must be > 0."""
    lam = np.asarray(values, dtype=np.float64)
    if np.any(lam <= 0.0):
        raise NonPositiveEigenvalue("shrinkage scaling needs positive eigenvalues")
    return rho * lam ** (0.5 * alpha)


def spd_factor(P: np.ndarray, error: type = SingularP, anorm: float | None = None):
    """Cholesky of a symmetric PD matrix with a cheap condition estimate.

    Factors ``P`` in place, so callers pass a matrix they own. LAPACK takes
    Fortran order; a C-ordered ``P`` is factored through its transpose,
    which for a symmetric matrix is the same matrix, so nothing is copied.
    The 1-norm of ``P`` is ``anorm`` when the caller knows it, else it comes
    from ``dlange`` without an ``|P|`` temporary. Returns
    ``((factor, lower), logdet)``; the factor's other triangle still holds
    entries of ``P``. Raises ``error`` when the factorization fails or the
    reciprocal 1-norm condition estimate falls below ``RCOND_LIMIT``.

    The guard judges the matrix it is given. A coordinate step's caches
    factor the target-free system in Schur-complement pieces
    (``sequential._eliminate``), and the compressed likelihood factors ``P``
    in two (``_penalized_solve``), each piece guarded here; a Schur
    complement is at least as well conditioned as the matrix it comes from,
    so a system whose whole factor fails the limit can pass piece by piece.
    """
    a = P if P.flags.f_contiguous else P.T
    if anorm is None:
        anorm = lapack.dlange(b"1", a)
    try:
        c, low = sla.cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise error(f"matrix not positive definite: {exc}") from exc
    rcond, info = lapack.dpocon(c, anorm, uplo=b"L")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_LIMIT:
        raise error(f"condition estimate too poor (rcond={rcond:.3e})")
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return (c, low), logdet


def scale_vector(moments_or_design, params: ShrinkageParams) -> np.ndarray:
    """Stacked shrinkage diagonal: ones on the fixed block, then each V_k."""
    src = moments_or_design
    k, L, lam = src.n_cov, src.n_basis, src.values
    kv = params.k_varying
    v = np.ones(k + kv * L)
    for a in range(kv):
        v[k + a * L: k + (a + 1) * L] = v_diag(params.rho[a], params.alpha[a], lam)
    return v


def _clamp_cancelled(value: float, yty: float, what: str) -> float:
    """A residual norm recovered by subtracting nearly equal terms: values in
    ``[-CANCEL_TOL * y'y, 0)`` are rounding and become 0, lower ones raise."""
    if value < 0.0:
        if value < -CANCEL_TOL * yty:
            raise NegativeResidualNorm(f"{what} {value:.3e} below -tolerance")
        return 0.0
    return value


def _assemble_loglik(logdet: float, d_theta: float, n: int, k: int,
                     yty: float) -> float:
    if d_theta <= PERFECT_FIT_TOL * max(yty, np.finfo(float).tiny):
        raise PerfectFit("residual term is numerically zero; likelihood undefined")
    nmk = n - k
    return -0.5 * logdet - 0.5 * nmk * (1.0 + np.log(2.0 * np.pi * d_theta / nmk))


def _check_counts(n: int, k: int):
    if n <= k:
        raise InsufficientData(f"need N > K, got N={n}, K={k}")


def direct_restricted_loglik(design: SvcDesign, params: ShrinkageParams) -> LikelihoodResult:
    """Slow-path restricted log-likelihood from full N-sized matrices.

    Builds the stacked design ``W = [X, (x_k o E) V_k ...]``, solves the
    penalized normal equations, and measures the residual directly on the
    data vector. Gated to modest N; the compressed route is the fast path.
    """
    n, k = design.n_obs, design.n_cov
    _check_counts(n, k)
    if n > DIRECT_SIZE_GUARD:
        raise SizeGuardExceeded(f"N={n} exceeds direct-likelihood guard {DIRECT_SIZE_GUARD}")
    varying = design.varying
    if params.k_varying != varying.size:
        raise ValueError("params length must match the number of varying coefficients")
    L = design.n_basis

    E = design.rows(0, n)
    blocks = [design.X]
    for a, j in enumerate(varying):
        vk = v_diag(params.rho[a], params.alpha[a], design.values)
        blocks.append(design.X[:, j: j + 1] * E * vk[None, :])
    W = np.concatenate(blocks, axis=1)
    m = W.shape[1]

    P = W.T @ W
    idx = np.arange(k, m)
    P[idx, idx] += 1.0
    rhs = W.T @ design.y
    factor, logdet = spd_factor(P)
    z = sla.cho_solve(factor, rhs)

    resid = design.y - W @ z
    u = z[k:]
    d_theta = float(resid @ resid + u @ u)
    loglik = _assemble_loglik(logdet, d_theta, n, k, design.y @ design.y)
    return LikelihoodResult(
        loglik=loglik,
        b_hat=z[:k].copy(),
        u_hat=u.reshape(varying.size, L).copy(),
        d_theta=d_theta,
        sigma2_hat=d_theta / (n - k),
    )


def _merged(ranges) -> list:
    """Non-empty slices in increasing order, adjacent ones joined."""
    out = []
    for r in ranges:
        if r.start == r.stop:
            continue
        if out and out[-1].stop == r.start:
            out[-1] = slice(out[-1].start, r.stop)
        else:
            out.append(r)
    return out


def _gather(gram: np.ndarray, rows: list, cols: list,
            col_scale: np.ndarray | None = None) -> np.ndarray:
    """Fortran-ordered copy of ``gram`` restricted to the slices ``rows`` and
    ``cols``, with its columns multiplied by ``col_scale`` when given.

    One copy per pair of ranges: a fancy-index gather of the kept rows and
    columns cost as much as the pruning saves at m = 1600.
    """
    def spans(ranges):
        stops = np.cumsum([r.stop - r.start for r in ranges])
        return [slice(hi - (r.stop - r.start), hi) for r, hi in zip(ranges, stops)]

    row_spans, col_spans = spans(rows), spans(cols)
    out = np.empty((row_spans[-1].stop, col_spans[-1].stop), order="F")
    for r, out_r in zip(rows, row_spans):
        for c, out_c in zip(cols, col_spans):
            if col_scale is None:
                out[out_r, out_c] = gram[r, c]
            else:
                np.multiply(gram[r, c], col_scale[out_c], out=out[out_r, out_c])
    return out


def _squares(y: np.ndarray) -> np.longdouble:
    """``|y|^2`` summed in extended precision: it is subtracted from a
    residual norm that it almost cancels near good fits."""
    y_ext = y.astype(np.longdouble)
    return y_ext @ y_ext


def _factor_penalized(gram: np.ndarray, gy: np.ndarray, ranges: list, s: np.ndarray,
                      n_fixed: int, error: type):
    """Factor the scaled, penalized system on the Gram's ``ranges`` and
    forward-substitute its moments.

    The system is ``P = diag(s) G diag(s)`` plus 1 on every diagonal after
    the first ``n_fixed``, with ``G`` the Gram restricted to ``ranges``
    (merged slices, in order) and ``s`` the scale of its columns. It is
    factored in place as ``P = F F'``, and ``y_f = F^{-1} (s o gy)`` on the
    same columns. Returns ``(F, ln|P|, y_f)``; ``F`` is lower triangular and
    its other triangle holds entries of ``P``. ``error`` is raised when
    ``P`` is singular.
    """
    P = _gather(gram, ranges, ranges, s)
    P *= s[:, None]
    penalized = np.arange(n_fixed, s.shape[0])
    P[penalized, penalized] += 1.0
    (F, _), logdet = spd_factor(P, error=error)
    y_f = blas.dtrsv(F, s * np.concatenate([gy[r] for r in ranges]), lower=1)
    return F, logdet, y_f


def _mirror_lower(c: np.ndarray):
    """Copy the lower triangle of the square ``c`` onto its upper one."""
    for j in range(1, c.shape[0]):
        c[:j, j] = c[j, :j]


def _cut(ranges: list, at: int):
    """The slices ``ranges`` split at position ``at`` of their concatenation,
    as ``(head, tail)``."""
    head, tail, start = [], [], 0
    for r in ranges:
        mid = min(max(r.start + at - start, r.start), r.stop)
        head.append(slice(r.start, mid))
        tail.append(slice(mid, r.stop))
        start += r.stop - r.start
    return _merged(head), _merged(tail)


def _penalized_solve(moments: CompressedMoments, params: ShrinkageParams, error: type):
    """Solve the scaled, penalized Gram system in two halves.

    The system is ``P = diag(s) gram diag(s)`` plus 1 on every random-effect
    diagonal, with ``s = scale_vector(moments, params)``, and its right-hand
    side is ``b = s o W'y``. A random-effect block whose scale is identically
    zero (rho = 0) is an identity block of ``P`` with no coupling and no
    moment, so it is left out: its ln|P| term and its solve are 0.

    What is kept is split into its leading half ``S`` and the rest ``H``.
    With ``P_SS = F_S F_S'`` (``_factor_penalized``), ``X = F_S^{-1} P_SH``
    and the Schur complement ``C = P_HH - X'X = F_C F_C'``, the factor of
    ``P`` is ``[[F_S, 0], [X', F_C]]``: ``ln|P| = ln|P_SS| + ln|C|``, the
    forward substitution is ``y_S = F_S^{-1} b_S`` and
    ``y_H = F_C^{-1}(b_H - X'y_S)``, and the back substitution is
    ``z_H = F_C'^{-1} y_H`` and ``z_S = F_S'^{-1}(y_S - X z_H)``. ``F_S`` is
    freed before ``C`` is formed and factored again for ``z_S``, so beside
    the Gram at most half of ``P``'s doubles are held (``F_S`` with ``X``,
    then ``X`` with ``C``), where one factor of ``P`` would hold all of them.
    A fit's final likelihood then stays below the peaks of its compression
    and its sweeps, whichever coefficients collapse, so the fit's peak does
    not follow the data. ``spd_factor`` guards ``P_SS`` and ``C``.

    Returns ``(ln|P|, d, z, kept)``: ``d = y'y - |y_S|^2 - |y_H|^2`` is
    summed in extended precision and not yet clamped, and ``z`` is the solve
    on the Gram columns ``kept``, in the system's order. ``error`` is raised
    when ``P`` is singular.
    """
    k = moments.n_cov
    s = scale_vector(moments, params)
    blocks = [moments.block(a) for a in range(moments.k_varying)
              if s[moments.block(a)].any()]
    ranges = _merged([slice(0, k)] + blocks)
    kept = np.concatenate([np.arange(r.start, r.stop) for r in ranges])
    n_head = (kept.shape[0] + 1) // 2
    head, tail = _cut(ranges, n_head)
    s_head, s_tail = s[kept[:n_head]], s[kept[n_head:]]
    F, logdet, y_s = _factor_penalized(moments.gram, moments.gy, head, s_head, k, error)
    residual = np.longdouble(moments.yty) - _squares(y_s)
    if not tail:
        return logdet, float(residual), blas.dtrsv(F, y_s, lower=1, trans=1), kept

    panel = _gather(moments.gram, head, tail, s_tail)
    panel *= s_head[:, None]
    panel = blas.dtrsm(1.0, F, panel, lower=1, overwrite_b=1)  # X = F_S^{-1} P_SH
    del F
    c = _gather(moments.gram, tail, tail, s_tail)
    c *= s_tail[:, None]
    penalized = np.arange(max(k - n_head, 0), s_tail.shape[0])
    c[penalized, penalized] += 1.0
    c = blas.dsyrk(-1.0, panel, beta=1.0, c=c, trans=1, lower=1, overwrite_c=1)
    _mirror_lower(c)  # spd_factor's 1-norm reads both triangles
    (f_c, _), logdet_c = spd_factor(c, error=error)
    b_tail = s_tail * np.concatenate([moments.gy[r] for r in tail])
    y_h = blas.dtrsv(f_c, blas.dgemv(-1.0, panel, y_s, beta=1.0, y=b_tail, trans=1),
                     lower=1)
    z_h = blas.dtrsv(f_c, y_h, lower=1, trans=1)
    del c, f_c
    w = blas.dgemv(-1.0, panel, z_h, beta=1.0, y=y_s)  # y_S - X z_H
    del panel
    F, _, _ = _factor_penalized(moments.gram, moments.gy, head, s_head, k, error)
    z_s = blas.dtrsv(F, w, lower=1, trans=1)
    return (logdet + logdet_c, float(residual - _squares(y_h)),
            np.concatenate([z_s, z_h]), kept)


def compressed_restricted_loglik(moments: CompressedMoments,
                                 params: ShrinkageParams) -> LikelihoodResult:
    """N-free restricted log-likelihood from compressed inner products.

    The penalized matrix is the scaled Gram ``P = diag(s) gram diag(s) + J``
    (J adds 1 to each random-effect diagonal) and the residual term is
    ``d = y'y - z'(s o W'y) = y'y - |y_f|^2`` with ``y_f = F^{-1}(s o W'y)``
    and ``P = F F'``; the solve ``z = F'^{-1} y_f`` is one back substitution,
    0 in the blocks of collapsed coefficients. ``_penalized_solve`` forms
    ``F`` in two Schur-complement halves. The subtraction cancels
    almost completely near good fits: small negative values are clamped to 0
    and grossly negative ones raise.
    """
    n, k = moments.n_obs, moments.n_cov
    _check_counts(n, k)
    if params.k_varying != moments.k_varying:
        raise ValueError("params length must match the number of varying coefficients")

    logdet, residual, z_kept, kept = _penalized_solve(moments, params, SingularP)
    z = np.zeros(moments.size)
    z[kept] = z_kept
    d_theta = _clamp_cancelled(residual, moments.yty, "compressed residual term")
    loglik = _assemble_loglik(logdet, d_theta, n, k, moments.yty)
    return LikelihoodResult(
        loglik=loglik,
        b_hat=z[:k].copy(),
        u_hat=z[k:].reshape(moments.k_varying, moments.n_basis).copy(),
        d_theta=d_theta,
        sigma2_hat=d_theta / (n - k),
    )
