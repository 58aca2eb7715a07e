"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, dense algebra, exhaustive
enumeration) and shares no code path with the package internals it checks.
"""

import itertools

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from fastsvc.compression import SvcDesign, compress
from fastsvc.eigenbasis import exact_basis
from fastsvc.errors import FastSvcError
from fastsvc.geometry import mst_max_edge
from fastsvc.likelihood import ShrinkageParams, compressed_restricted_loglik, v_diag
from fastsvc.sequential import (
    ALPHA_BOUNDS,
    COLLAPSE_MARGIN,
    GRAD_GTOL,
    RESTARTS,
    RHO_BOUNDS,
    fast_loglik,
)


# -- geometry ----------------------------------------------------------------

def naive_pairwise(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i, j] = np.sqrt((a[i, 0] - b[j, 0]) ** 2 + (a[i, 1] - b[j, 1]) ** 2)
    return out


def _prufer_to_edges(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    seq = list(seq)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the leaf list sorted by inserting in order
            import bisect
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def minimax_spanning_edge(points):
    """Minimum over all spanning trees of the maximum edge, by enumerating
    every labeled tree via Prufer sequences. Feasible for n <= 8."""
    pts = np.asarray(points, float)
    n = len(pts)
    D = naive_pairwise(pts, pts)
    if n == 2:
        return D[0, 1]
    best = np.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        longest = max(D[i, j] for i, j in _prufer_to_edges(seq, n))
        best = min(best, longest)
    return best


def prim_max_edge(points):
    """Longest edge of the Euclidean MST by Prim's algorithm on the complete
    distance graph: O(N^2) time, O(N) memory, no de-duplication or
    triangulation. Returns the longest squared edge's square root."""
    pts = np.asarray(points, float)
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    best = (x - x[0]) ** 2 + (y - y[0]) ** 2
    best[0] = np.inf
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    max_edge_sq = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(best))
        max_edge_sq = max(max_edge_sq, best[j])
        in_tree[j] = True
        d2 = (x - x[j]) ** 2 + (y - y[j]) ** 2
        np.minimum(best, d2, out=best)
        best[in_tree] = np.inf
    return float(np.sqrt(max_edge_sq))


def lloyd_kmeans(points, n_knots, seed, max_iter=100):
    """Plain Lloyd k-means with ++ seeding: every pass takes the ``argmin``
    of the full ``cdist`` matrix, so ties go to the lowest index. Empty
    clusters are re-seeded from the point farthest from its current center.
    Returns the centers, the number of passes run (``max_iter`` when the
    cap stopped it) and whether they ended at an assignment fixed point."""
    pts = np.asarray(points, float)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((n_knots, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, n_knots):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)
        centers[i] = pts[idx]
        np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1), out=d2)

    assignment = np.full(n, -1)
    converged = False
    for passes in range(1, max_iter + 1):
        new_assignment = np.argmin(cdist(pts, centers), axis=1)
        counts = np.bincount(new_assignment, minlength=n_knots)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            d_own = np.sum((pts - centers[new_assignment]) ** 2, axis=1)
            for c in empty:
                far = int(np.argmax(d_own))
                centers[c] = pts[far]
                new_assignment[far] = c
                d_own[far] = 0.0
            counts = np.bincount(new_assignment, minlength=n_knots)
        sums = np.zeros((n_knots, 2))
        np.add.at(sums, new_assignment, pts)
        centers = sums / counts[:, None]
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
    return centers, passes, converged


# -- eigenbasis --------------------------------------------------------------

def naive_moran(y, C):
    y = np.asarray(y, float)
    n = len(y)
    yc = y - y.mean()
    num = 0.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            num += yc[i] * C[i, j] * yc[j]
            total += C[i, j]
    return n / total * num / float(yc @ yc)


# -- compression -------------------------------------------------------------

def naive_moments(X, E, y, varying):
    """Triple-loop inner products for every compressed block."""
    n, k = X.shape
    L = E.shape[1]
    tildes = [X[:, j][:, None] * E for j in varying]
    m00 = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            m00[a, b] = sum(X[i, a] * X[i, b] for i in range(n))
    m0k = [np.array([[sum(X[i, a] * T[i, l] for i in range(n)) for l in range(L)]
                     for a in range(k)]) for T in tildes]
    mkk = [[np.array([[sum(Ta[i, l] * Tb[i, q] for i in range(n)) for q in range(L)]
                      for l in range(L)]) for Tb in tildes] for Ta in tildes]
    m0 = np.array([sum(X[i, a] * y[i] for i in range(n)) for a in range(k)])
    mk = [np.array([sum(T[i, l] * y[i] for i in range(n)) for l in range(L)])
          for T in tildes]
    myy = sum(v * v for v in y)
    return m00, m0k, mkk, m0, mk, myy


# -- likelihood --------------------------------------------------------------

def ols_reml(X, y):
    """Closed-form restricted log-likelihood of the no-random-effect model."""
    n, k = X.shape
    b, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ b
    rss = float(resid @ resid)
    logdet = np.linalg.slogdet(X.T @ X)[1]
    nmk = n - k
    ll = -0.5 * logdet - 0.5 * nmk * (1.0 + np.log(2.0 * np.pi * rss / nmk))
    return b, rss, ll


def sigma_form_reml(design, params):
    """Restricted log-likelihood via the N x N marginal covariance.

    Integrates the fixed effects out of the Gaussian marginal
    ``y ~ N(Xb, sigma^2 (I + ZZ'))`` and profiles sigma^2; an entirely
    different algebraic route from the penalized normal equations.
    """
    X, y, E = design.X, design.y, design.vectors
    n, k = X.shape
    blocks = []
    for a, j in enumerate(design.varying):
        vk = v_diag(params.rho[a], params.alpha[a], design.values)
        blocks.append(X[:, j][:, None] * E * vk[None, :])
    Z = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    Sigma = np.eye(n) + Z @ Z.T
    Si = np.linalg.inv(Sigma)
    XtSiX = X.T @ Si @ X
    b = np.linalg.solve(XtSiX, X.T @ Si @ y)
    resid = y - X @ b
    rss = float(resid @ Si @ resid)
    logdet = np.linalg.slogdet(Sigma)[1] + np.linalg.slogdet(XtSiX)[1]
    nmk = n - k
    return b, rss, -0.5 * logdet - 0.5 * nmk * (1.0 + np.log(2.0 * np.pi * rss / nmk))


def dense_penalized_system(moments, params):
    """Penalized matrix and right-hand side assembled block by block from
    slices of the Gram (no scaled-Gram shortcut)."""
    k, L, kv = moments.n_cov, moments.n_basis, moments.k_varying
    vs = [v_diag(params.rho[a], params.alpha[a], moments.values) for a in range(kv)]
    m = k + kv * L

    def blk(a):
        return slice(k + a * L, k + (a + 1) * L)

    G, gy = moments.gram, moments.gy
    P = np.zeros((m, m))
    P[:k, :k] = G[:k, :k]
    rhs = np.zeros(m)
    rhs[:k] = gy[:k]
    for a in range(kv):
        P[:k, blk(a)] = G[:k, blk(a)] * vs[a][None, :]
        P[blk(a), :k] = P[:k, blk(a)].T
        for b in range(kv):
            P[blk(a), blk(b)] = vs[a][:, None] * G[blk(a), blk(b)] * vs[b][None, :]
        P[blk(a), blk(a)] += np.eye(L)
        rhs[blk(a)] = vs[a] * gy[blk(a)]
    return P, rhs


def bordered_q(moments, params, target):
    """Unscaled bordered matrix Q of the coordinate step ``target`` and the
    off-target scaling d, both in the Gram's column order.

    Q keeps the raw Gram blocks and puts each off-target shrinkage on its
    diagonal as an inverse-square penalty, so it needs every off-target rho
    positive; the target block is the raw Gram block with no penalty.
    Assembled literally from slices of the Gram.
    """
    k, L, kv = moments.n_cov, moments.n_basis, moments.k_varying
    m = k + kv * L

    def blk(a):
        return slice(k + a * L, k + (a + 1) * L)

    G = moments.gram
    Q = np.zeros((m, m))
    d = np.ones(m)
    Q[:k, :k] = G[:k, :k]
    for a in range(kv):
        Q[:k, blk(a)] = G[:k, blk(a)]
        Q[blk(a), :k] = G[:k, blk(a)].T
        for b in range(kv):
            Q[blk(a), blk(b)] = G[blk(a), blk(b)]
        if a != target:
            va = v_diag(params.rho[a], params.alpha[a], moments.values)
            Q[blk(a), blk(a)] += np.diag(va ** -2.0)
            d[blk(a)] = va
    return Q, d


def target_free_system(moments, params, target):
    """Dense target-free system ``R`` of the coordinate step ``target`` and
    its moments ``m``, in the Gram's column order: the penalized system with
    the target's scale 1 and no penalty on its block. Unlike ``bordered_q``
    it allows an off-target rho of 0."""
    k, L = moments.n_cov, moments.n_basis
    t = slice(k + target * L, k + (target + 1) * L)
    R, m = dense_penalized_system(moments, params.with_entry(target, 1.0, 0.0))
    R[t, t] -= np.eye(L)
    return R, m


def full_t_block(cache):
    """The symmetric ``T = R^{-1}[t, t]`` whose lower triangle a cache keeps."""
    return cache.t_lower + np.tril(cache.t_lower, -1).T


def woodbury_coefficients(moments, params, target, cache, rho, alpha):
    """Stacked coefficient solve ``z = (b, u)`` of the penalized system with
    coefficient ``target`` at (rho, alpha), from a coordinate step's cache.

    ``w = (V^2 + T)^{-1} r_t`` from the cache's ``T`` and ``r_t``,
    ``z_t = V w``, and off the target ``z = R^{-1}(m - E_t w)`` with the
    dense ``target_free_system``.
    """
    k, L = moments.n_cov, moments.n_basis
    t = slice(k + target * L, k + (target + 1) * L)
    R, m = target_free_system(moments, params, target)
    vt = v_diag(rho, alpha, moments.values)
    w = np.linalg.solve(np.diag(vt ** 2) + full_t_block(cache), cache.r_t)
    m[t] -= w
    z = np.linalg.solve(R, m)
    z[t] = vt * w
    return z


def fd_gradient(moments, params, target, rho, alpha, h=1e-5):
    """Central differences of the compressed restricted loglik in
    (log rho, alpha) of coefficient ``target``, the others held at ``params``."""
    def loglik(log_rho, a):
        trial = params.with_entry(target, float(np.exp(log_rho)), a)
        return compressed_restricted_loglik(moments, trial).loglik

    x = np.log(rho)
    return np.array([(loglik(x + h, alpha) - loglik(x - h, alpha)) / (2 * h),
                     (loglik(x, alpha + h) - loglik(x, alpha - h)) / (2 * h)])


def fd_hessian(cache, rho, alpha, h=1e-5):
    """Central differences of ``fast_loglik(...).grad`` in (log rho, alpha):
    row i is the derivative of the gradient along coordinate i."""
    def grad(log_rho, a):
        return fast_loglik(cache, float(np.exp(log_rho)), a).grad

    x = np.log(rho)
    return np.array([(grad(x + h, alpha) - grad(x - h, alpha)) / (2 * h),
                     (grad(x, alpha + h) - grad(x, alpha - h)) / (2 * h)])


def naive_gwr_site(X, y, w):
    """Plain weighted least squares with an explicit diagonal weight matrix."""
    G = np.diag(w)
    return np.linalg.solve(X.T @ G @ X, X.T @ G @ y)


# -- joint optimization oracle -----------------------------------------------

def joint_optimize(moments, init, rho_bounds=(1e-6, 1e6), alpha_bounds=(0.0, 4.0),
                   maxfev=4000):
    """Simultaneous maximization over every (rho, alpha) pair with a generic
    bounded direction-set search, multi-started. The slow oracle the
    coordinate-ascent estimator is checked against."""
    kv = moments.k_varying
    lo, hi = np.log(rho_bounds[0]), np.log(rho_bounds[1])

    def unpack(x):
        return ShrinkageParams(np.exp(x[:kv]), x[kv:])

    def objective(x):
        try:
            return -compressed_restricted_loglik(moments, unpack(x)).loglik
        except FastSvcError:
            return np.inf

    starts = [np.concatenate([np.log(np.maximum(init.rho, rho_bounds[0])), init.alpha])]
    for rho0, alpha0 in [(0.1, 0.5), (1.0, 2.0)]:
        starts.append(np.concatenate([np.full(kv, np.log(rho0)), np.full(kv, alpha0)]))
    bounds = [(lo, hi)] * kv + [alpha_bounds] * kv
    best = None
    for x0 in starts:
        res = minimize(objective, x0, method="Powell", bounds=bounds,
                       options={"maxfev": maxfev, "xtol": 1e-8, "ftol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    return unpack(best.x), -best.fun


def simplex_optimize_k(cache, params, target, budget=120):
    """The derivative-free coordinate search the gradient search replaced:
    three bounded Nelder-Mead starts from ``RESTARTS`` in (log rho, alpha),
    each capped at a third of the budget, never returning a point worse
    than the incoming one. Returns ``(rho, alpha, loglik, n_eval)``."""
    lo, hi = np.log(RHO_BOUNDS[0]), np.log(RHO_BOUNDS[1])
    n_eval = 0

    def objective(x):
        nonlocal n_eval
        n_eval += 1
        try:
            return -fast_loglik(cache, float(np.exp(x[0])), float(x[1])).loglik
        except FastSvcError:
            return np.inf

    rho_in, alpha_in = float(params.rho[target]), float(params.alpha[target])
    try:
        best_ll = fast_loglik(cache, rho_in, alpha_in).loglik
    except FastSvcError:
        best_ll = -np.inf
    n_eval += 1
    best = (rho_in, alpha_in)
    per_start = max(10, (budget - 1) // len(RESTARTS))
    for rho0, alpha0 in RESTARTS:
        x0 = np.array([np.clip(np.log(rho0), lo, hi), np.clip(alpha0, *ALPHA_BOUNDS)])
        res = minimize(objective, x0, method="Nelder-Mead",
                       bounds=[(lo, hi), ALPHA_BOUNDS],
                       options={"maxfev": per_start, "xatol": 1e-4, "fatol": 1e-7})
        if np.isfinite(res.fun) and -res.fun > best_ll:
            best_ll = -res.fun
            best = (float(np.exp(res.x[0])), float(res.x[1]))
    return best[0], best[1], best_ll, n_eval


def lbfgsb_optimize_k(cache, params, target, budget=120):
    """The later-sweep coordinate search the Newton search replaced: the
    incoming pair's evaluation, L-BFGS-B from that pair clipped into the box
    (minimizing ``-loglik / (N - K)`` to ``GRAD_GTOL`` nats, no ``ftol``
    stop), then the collapse test. Returns ``(rho, alpha, loglik, n_eval)``."""
    lo, hi = np.log(RHO_BOUNDS[0]), np.log(RHO_BOUNDS[1])
    per_dof = 1.0 / (cache.n_obs - cache.n_cov)
    n_eval = 0

    class Spent(Exception):
        pass

    def evaluate(rho, alpha):
        nonlocal n_eval
        if n_eval >= budget:
            raise Spent
        n_eval += 1
        try:
            return fast_loglik(cache, rho, alpha)
        except FastSvcError:
            return None

    rho_in, alpha_in = float(params.rho[target]), float(params.alpha[target])
    incoming = evaluate(rho_in, alpha_in)
    best = (-np.inf if incoming is None else incoming.loglik, rho_in, alpha_in)

    def objective(x):
        nonlocal best
        rho, alpha = float(np.exp(x[0])), float(x[1])
        res = evaluate(rho, alpha)
        if res is None:
            return np.inf, np.zeros(2)
        if res.loglik > best[0]:
            best = (res.loglik, rho, alpha)
        return -per_dof * res.loglik, -per_dof * res.grad

    x0 = np.array([np.clip(np.log(max(rho_in, RHO_BOUNDS[0])), lo, hi),
                   np.clip(alpha_in, *ALPHA_BOUNDS)])
    try:
        minimize(objective, x0, method="L-BFGS-B", jac=True,
                 bounds=[(lo, hi), ALPHA_BOUNDS],
                 options=dict(ftol=0.0, gtol=GRAD_GTOL * per_dof))
    except Spent:
        pass
    if n_eval < budget:
        collapsed = evaluate(0.0, best[2])
        if collapsed is not None and collapsed.loglik > best[0] - COLLAPSE_MARGIN:
            return 0.0, best[2], collapsed.loglik, n_eval
    return best[1], best[2], best[0], n_eval


# -- instance builders -------------------------------------------------------

def random_instance(seed, n=60, k=2, max_pairs=8, noise=1.0):
    """Small random design + exact basis + compressed moments for oracle tests."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    r = mst_max_edge(coords)
    basis = exact_basis(coords, r, max_pairs=max_pairs)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))]) if k > 1 \
        else np.ones((n, 1))
    y = X @ rng.standard_normal(k) + noise * rng.standard_normal(n)
    flags = np.ones(k, dtype=bool)
    design = SvcDesign(X=X, y=y, vectors=basis.vectors, values=basis.values,
                       svc_flags=flags)
    return coords, basis, design, compress(design)


def random_params(seed, k_varying, rho_range=(0.05, 3.0), alpha_range=(0.0, 3.0)):
    rng = np.random.default_rng(seed)
    rho = np.exp(rng.uniform(np.log(rho_range[0]), np.log(rho_range[1]), k_varying))
    alpha = rng.uniform(*alpha_range, k_varying)
    return ShrinkageParams(rho, alpha)
