"""Shared numerical predicates and the part metric on positive definite cones.

All tolerances live here so that every module agrees on what "positive
definite" or "full column rank" means. The conventions are deliberate and
fixed; no function takes a per-call tolerance override:

* matrices are symmetrized via (X + X.T) / 2 after checking the asymmetry
  is below 1e-12 (relative to the largest entry),
* psd means lambda_min >= -1e-9 * max(1, lambda_max),
* pd means lambda_min > 1e-9 * max(1, lambda_max),
* symmetrize, is_psd, is_pd and part_metric take one matrix or an
  (E, d, d) stack; on a stack they decide each matrix on its own,
* full column rank means smallest singular value > 1e-10 * largest,
* the spectral radius is always taken from dense eigenvalues
  (numpy eigvals), at O(D^2) memory for a D x D matrix.
"""

import numpy as np

SYM_TOL = 1e-12
PSD_TOL = 1e-9
RANK_TOL = 1e-10


def symmetrize(x):
    """Return (x + x.T) / 2 for a matrix or an (E, d, d) stack of them.

    Refuses any matrix that is not nearly symmetric.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    xt = np.swapaxes(x, -1, -2)
    if x.size:
        scale = np.maximum(1.0, np.max(np.abs(x), axis=(-2, -1)))
        asym = np.max(np.abs(x - xt), axis=(-2, -1))
        if np.any(asym > SYM_TOL * scale):
            raise ValueError(f"matrix is not symmetric: max asymmetry {np.max(asym):.3e}")
    return (x + xt) / 2.0


def _definite(x, strict):
    """pd (strict) or psd verdict: a bool for a matrix, a bool array for a stack."""
    x = symmetrize(x)
    # an empty matrix passes both checks, as if its spectrum were {1}
    w = np.linalg.eigvalsh(x) if x.shape[-1] else np.ones(x.shape[:-2] + (1,))
    bar = PSD_TOL * np.maximum(1.0, w[..., -1])
    ok = w[..., 0] > bar if strict else w[..., 0] >= -bar
    return bool(ok) if x.ndim == 2 else ok


def is_psd(x):
    """Positive semidefinite up to the shared relative tolerance, per matrix of a stack."""
    return _definite(x, strict=False)


def is_pd(x):
    """Positive definite up to the shared relative tolerance, per matrix of a stack."""
    return _definite(x, strict=True)


def psd_compare(x, y):
    """True when x >= y in the Loewner order (x - y psd)."""
    return is_psd(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))


def has_full_column_rank(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[1] == 0:
        return True
    if a.shape[0] < a.shape[1]:
        return False
    sv = np.linalg.svd(a, compute_uv=False)
    return bool(sv[-1] > RANK_TOL * sv[0])


def part_metric(x, y):
    """Distance between two positive definite matrices, or per pair of two stacks.

    The distance is inf{ log a : a*x >= y >= x/a, a >= 1 } in the Loewner
    order, which for pd arguments equals

        log max( lambda_max(x^-1 y), 1 / lambda_min(x^-1 y) ).

    The eigenvalues of x^-1 y are 1 + mu with mu the eigenvalues of
    L^-1 (y - x) L^-T, x = L L^T (Cholesky reduction), so no explicit
    inverse is formed and distances near zero keep their relative
    accuracy.

    For two matrices, raises ValueError if either fails the pd check. For
    two (E, d, d) stacks, returns an array of E distances, inf where a
    pair fails it.
    """
    x = symmetrize(x)
    y = symmetrize(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    ok = np.asarray(is_pd(x) & is_pd(y))
    dist = np.full(x.shape[:-2], np.inf)
    if np.any(ok):
        chol = np.linalg.cholesky(x[ok])
        half = np.linalg.solve(chol, y[ok] - x[ok])
        mu = np.linalg.eigvalsh(np.linalg.solve(chol, np.swapaxes(half, -1, -2)))
        lo, hi = mu[..., 0], mu[..., -1]
        # lo <= -1 is possible only for near-singular inputs that slipped
        # through the pd check; it is a domain error, not a distance.
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.maximum(np.maximum(np.log1p(hi), -np.log1p(lo)), 0.0)
        dist[ok] = np.where(lo > -1.0, d, np.inf)
    if x.ndim > 2:
        return dist
    if not ok:
        raise ValueError("part metric requires positive definite arguments")
    if not np.isfinite(dist):
        raise ValueError("generalized eigenvalues not positive; inputs too ill-conditioned")
    return float(dist)


def spectral_radius(q):
    """Largest eigenvalue magnitude of a square (not necessarily symmetric) matrix.

    Always dense numpy eigvals, at every size: O(D^2) memory and O(D^3)
    time for dimension D.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if q.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(q))))
