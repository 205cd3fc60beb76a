"""Shared numerical predicates and the part metric on positive definite cones.

All tolerances live here so that every module agrees on what "positive
definite" or "full column rank" means. The conventions are deliberate and
fixed:

* matrices are symmetrized via (X + X.T) / 2 after checking the asymmetry
  is below 1e-12 (relative to the largest entry),
* psd means lambda_min >= -1e-9 * max(1, lambda_max),
* pd means lambda_min > 1e-9 * max(1, lambda_max),
* full column rank means smallest singular value > 1e-10 * largest,
* the spectral radius is always taken from dense eigenvalues
  (numpy eigvals), at O(D^2) memory for a D x D matrix.
"""

import numpy as np
import scipy.linalg

SYM_TOL = 1e-12
PSD_TOL = 1e-9
RANK_TOL = 1e-10


def symmetrize(x, tol=SYM_TOL):
    """Return (x + x.T) / 2, refusing inputs that are not nearly symmetric."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    scale = max(1.0, np.max(np.abs(x))) if x.size else 1.0
    asym = np.max(np.abs(x - x.T)) if x.size else 0.0
    if asym > tol * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    return (x + x.T) / 2.0


def min_eig(x):
    """Smallest eigenvalue of a symmetric matrix."""
    x = symmetrize(x)
    if x.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(x)[0])


def is_psd(x, tol=PSD_TOL):
    """Positive semidefinite up to the shared relative tolerance."""
    x = symmetrize(x)
    if x.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(x)
    return bool(w[0] >= -tol * max(1.0, w[-1]))


def is_pd(x, tol=PSD_TOL):
    """Positive definite up to the shared relative tolerance."""
    x = symmetrize(x)
    if x.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(x)
    return bool(w[0] > tol * max(1.0, w[-1]))


def psd_compare(x, y, tol=PSD_TOL):
    """True when x >= y in the Loewner order (x - y psd)."""
    return is_psd(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), tol=tol)


def has_full_column_rank(a, tol=RANK_TOL):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[1] == 0:
        return True
    if a.shape[0] < a.shape[1]:
        return False
    sv = np.linalg.svd(a, compute_uv=False)
    return bool(sv[-1] > tol * sv[0])


def part_metric(x, y):
    """Distance between two positive definite matrices of equal shape.

    The distance is inf{ log a : a*x >= y >= x/a, a >= 1 } in the Loewner
    order, which for pd arguments equals

        log max( lambda_max(x^-1 y), lambda_max(y^-1 x) ).

    Computed through the symmetric-definite generalized eigenproblem
    y z = lambda x z, so no explicit inverse is formed.

    Raises ValueError if either argument fails the pd check.
    """
    x = symmetrize(x)
    y = symmetrize(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if not is_pd(x) or not is_pd(y):
        raise ValueError("part metric requires positive definite arguments")
    w = scipy.linalg.eigh(y, x, eigvals_only=True)
    lo, hi = w[0], w[-1]
    if lo <= 0:
        # Numerically possible only for near-singular inputs that slipped
        # through the pd check; treat as a domain error rather than returning
        # a bogus value.
        raise ValueError("generalized eigenvalues not positive; inputs too ill-conditioned")
    return max(float(np.log(max(hi, 1.0 / lo))), 0.0)


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


def frobenius(x):
    return float(np.linalg.norm(x, ord="fro"))
