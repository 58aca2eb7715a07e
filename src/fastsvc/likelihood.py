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
``_eliminate`` conditions the moments on some of the system's blocks: the
Schur complement of one elimination, held as ``ConditionedMoments``.
``sequential`` builds each sweep's per-target caches from a tree of them,
and ``_penalized_solve`` solves the whole system from one, split where a
sweep's root splits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    The guard judges the matrix it is given. ``_eliminate`` factors a
    system in Schur-complement pieces, for a coordinate step's caches and
    for the compressed likelihood alike, each piece guarded here; a Schur
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


def _factor_penalized(gram: np.ndarray, b: np.ndarray, ranges: list, s: np.ndarray,
                      n_fixed: int, error: type):
    """Factor the scaled, penalized system on the Gram's ``ranges`` and
    forward-substitute the moments ``b`` of the same columns.

    The system is ``P = diag(s) G diag(s)`` plus 1 on every diagonal after
    the first ``n_fixed``, with ``G`` the Gram restricted to ``ranges``
    (merged slices, in order) and ``s`` the scale of its columns. It is
    factored in place as ``P = F F'``, and ``y_f = F^{-1} (s o b)``.
    Returns ``(F, ln|P|, y_f)``; ``F`` is lower triangular and its other
    triangle holds entries of ``P``. ``error`` is raised when ``P`` is
    singular.
    """
    P = _gather(gram, ranges, ranges, s)
    P *= s[:, None]
    penalized = np.arange(n_fixed, s.shape[0])
    P[penalized, penalized] += 1.0
    (F, _), logdet = spd_factor(P, error=error)
    return F, logdet, blas.dtrsv(F, s * b, lower=1)


def _mirror_lower(c: np.ndarray):
    """Copy the lower triangle of the square ``c`` onto its upper one."""
    for j in range(1, c.shape[0]):
        c[:j, j] = c[j, :j]


@dataclass(frozen=True)
class ConditionedMoments:
    """Compressed moments with some blocks eliminated at fixed parameters.

    ``gram`` and ``gy`` are the conditional Gram and moments (``_eliminate``)
    of the columns left: the fixed block's first ``n_fixed`` columns (all K
    of them, or none once it is eliminated), then one L-block per
    coefficient of ``coefs``, in that order, all unscaled. ``residual`` is
    ``y'y - |y_S|^2`` and ``logdet`` is ``ln|R_SS|`` of what has been
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


def _split(cond: ConditionedMoments, params: ShrinkageParams, keep):
    """The Gram ranges of ``cond`` that ``_eliminate`` eliminates, with their
    scale, and those it keeps, with their coefficients, as
    ``(eliminated, s, kept, coefs)``: the fixed block and every block not in
    ``keep`` whose scale is not identically zero are eliminated (a collapsed
    block is dropped)."""
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
    return _merged(eliminated), np.concatenate(scales), _merged(kept), tuple(coefs)


def _eliminate(cond: ConditionedMoments, params: ShrinkageParams, keep,
               error: type) -> ConditionedMoments:
    """Condition ``cond`` on everything but the blocks of the coefficients
    in ``keep``, at the parameters in ``params``.

    Eliminating the blocks ``S`` (``_split``) from a system whose kept
    blocks ``H`` are scaled by ``D_H`` leaves ``D_H C_HH D_H`` (+ I) with

        C_HH = G_HH - G_HS D_S R_SS^{-1} D_S G_SH,   c_H = gy_H - G_HS D_S R_SS^{-1} D_S gy_S

    because ``R_HS = D_H G_HS D_S``: the conditional Gram ``C_HH`` and
    moments ``c_H`` do not depend on the kept blocks' parameters, and
    eliminating more blocks later works on them as on the Gram. One
    ``_factor_penalized`` of the scaled, penalized ``R_SS = F_S F_S'``, a
    ``dtrsm`` for ``X = F_S^{-1} D_S G_SH``, a ``dsyrk`` for
    ``C_HH = G_HH - X'X`` and a ``dgemv`` for ``c_H = gy_H - X'y_S`` give
    them. The factor is freed before the conditional Gram is allocated, so
    the peak is the larger of ``|S|^2 + |S||H|`` and ``|S||H| + |H|^2``
    doubles. Raises ``error`` when ``R_SS`` is singular.
    """
    eliminated, s, kept, coefs = _split(cond, params, keep)
    gy = np.concatenate([cond.gy[r] for r in kept])
    if not s.size:
        return replace(cond, gram=_gather(cond.gram, kept, kept), gy=gy,
                       n_fixed=0, coefs=coefs)

    F, logdet_s, y_s = _factor_penalized(
        cond.gram, np.concatenate([cond.gy[r] for r in eliminated]), eliminated, s,
        cond.n_fixed, error)
    panel = _gather(cond.gram, eliminated, kept)
    panel *= s[:, None]
    panel = blas.dtrsm(1.0, F, panel, lower=1, overwrite_b=1)  # X = F_S^{-1} D_S G_SH
    del F
    gram = blas.dsyrk(-1.0, panel, beta=1.0, c=_gather(cond.gram, kept, kept),
                      trans=1, lower=1, overwrite_c=1)
    _mirror_lower(gram)
    gy = blas.dgemv(-1.0, panel, y_s, beta=1.0, y=gy, trans=1, overwrite_y=1)
    return ConditionedMoments(gram, gy, cond.residual - _squares(y_s),
                              cond.logdet + logdet_s, 0, coefs, cond.moments)


def _penalized_solve(moments: CompressedMoments, params: ShrinkageParams, error: type):
    """Solve the scaled, penalized Gram system in two Schur-complement halves.

    The system is ``P = diag(s) gram diag(s)`` plus 1 on every random-effect
    diagonal, with ``s`` one on the fixed block and ``V_k`` on each
    coefficient's, and its right-hand side is ``b = s o W'y``. A block whose
    scale is identically zero (rho = 0) is an identity block of ``P`` with
    no coupling and no moment, so it is left out: its ln|P| term and its
    solve are 0.

    The split is a sweep's root split (``sequential.fit_sequential``): the
    kept part ``H`` is the first half of the live coefficients (a lone one
    is kept by itself), and ``S`` is the fixed block with the rest.
    ``_eliminate`` leaves ``ln|P_SS|``, ``y'y - |y_S|^2`` and the
    conditional Gram and moments of ``H``, whose scaled, penalized form is
    the Schur complement ``C = F_C F_C'`` with ``y_H = F_C^{-1}(s_H o c_H)``:
    ``ln|P| = ln|P_SS| + ln|C|``, ``d = y'y - |y_S|^2 - |y_H|^2`` and
    ``z_H = F_C'^{-1} y_H``. ``P_SS`` is factored again for
    ``z_S = P_SS^{-1}(b_S - P_SH z_H)``. Beside the Gram, this holds no more
    than the elimination (``|S|^2 + |S||H|``, then ``|S||H| + |H|^2``
    doubles) or ``C`` with its scaled copy (``2|H|^2``): about half of
    ``P``'s doubles for an even count of live coefficients, which the sweeps'
    root elimination holds too. ``spd_factor`` guards ``P_SS`` and ``C``.

    Returns ``(ln|P|, d, z)``: ``d`` is summed in extended precision and not
    yet clamped, and ``z`` is the solve in the Gram's order, 0 on the
    collapsed blocks. ``error`` is raised when ``P`` is singular.
    """
    root = ConditionedMoments.of(moments)
    live = [a for a in range(moments.k_varying) if params.rho[a] != 0.0]
    keep = live[:max(len(live) // 2, 1)]
    eliminated, s_s, kept, _ = _split(root, params, keep)
    b_s = np.concatenate([moments.gy[r] for r in eliminated])
    z_h = np.empty(0)
    if keep:
        cond = _eliminate(root, params, keep, error)
        s_h = np.concatenate([v_diag(params.rho[a], params.alpha[a], moments.values)
                              for a in keep])
        F, logdet_c, y_h = _factor_penalized(cond.gram, cond.gy, [slice(0, s_h.size)],
                                             s_h, 0, error)
        logdet, residual = cond.logdet + logdet_c, cond.residual - _squares(y_h)
        z_h = blas.dtrsv(F, y_h, lower=1, trans=1)
        del cond, F
        panel = _gather(moments.gram, eliminated, kept)
        # scipy's BLAS, not numpy's @: a numpy matmul wakes numpy's own
        # OpenBLAS threads, which then slow every later scipy Cholesky
        # (threefold at m = 1600)
        b_s = blas.dgemv(-1.0, panel, s_h * z_h, beta=1.0, y=b_s, overwrite_y=1)
        del panel
    F, logdet_s, y_s = _factor_penalized(moments.gram, b_s, eliminated, s_s,
                                         moments.n_cov, error)
    if not keep:
        logdet, residual = logdet_s, np.longdouble(moments.yty) - _squares(y_s)
    z = np.zeros(moments.size)
    z[np.r_[tuple(eliminated + kept)]] = np.concatenate(
        [blas.dtrsv(F, y_s, lower=1, trans=1), z_h])
    return logdet, float(residual), z


def compressed_restricted_loglik(moments: CompressedMoments,
                                 params: ShrinkageParams) -> LikelihoodResult:
    """N-free restricted log-likelihood from compressed inner products.

    The penalized matrix is the scaled Gram ``P = diag(s) gram diag(s) + J``
    (J adds 1 to each random-effect diagonal) and the residual term is
    ``d = y'y - z'(s o W'y) = y'y - |y_f|^2`` with ``y_f = F^{-1}(s o W'y)``
    and ``P = F F'``; the solve ``z = F'^{-1} y_f`` is one back substitution,
    0 in the blocks of collapsed coefficients. ``_penalized_solve`` forms
    ``F`` in two Schur-complement pieces. The subtraction cancels
    almost completely near good fits: small negative values are clamped to 0
    and grossly negative ones raise.
    """
    n, k = moments.n_obs, moments.n_cov
    _check_counts(n, k)
    if params.k_varying != moments.k_varying:
        raise ValueError("params length must match the number of varying coefficients")

    logdet, residual, z = _penalized_solve(moments, params, SingularP)
    d_theta = _clamp_cancelled(residual, moments.yty, "compressed residual term")
    loglik = _assemble_loglik(logdet, d_theta, n, k, moments.yty)
    return LikelihoodResult(
        loglik=loglik,
        b_hat=z[:k].copy(),
        u_hat=z[k:].reshape(moments.k_varying, moments.n_basis).copy(),
        d_theta=d_theta,
        sigma2_hat=d_theta / (n - k),
    )
