"""Shared numerical predicates and the part metric on positive definite cones.

All tolerances live here so that every module agrees on what "positive
definite" or "full column rank" means. The conventions are deliberate and
fixed; no function takes a per-call tolerance override:

* matrices are symmetrized via (X + X.T) / 2 after checking the asymmetry
  is below 1e-12 (relative to the largest entry); an exactly symmetric
  stack (the engine's J are) is returned as it is, which is (X + X) / 2
  bit for bit, so callers of symmetrize only read what it returns,
* psd means lambda_min >= -1e-9 * max(1, lambda_max),
* pd means lambda_min > 1e-9 * max(1, lambda_max),
* full column rank means smallest singular value > 1e-10 * largest,
* is_symmetric, symmetrize, is_psd, is_pd and part_metric take one
  matrix or an (E, d, d) stack, and has_full_column_rank one matrix or an
  (E, m, d) stack; on a stack they decide each matrix on its own (the
  engine's stacks are padded, see gabp.bp); an empty matrix is pd and
  psd, and at part-metric distance 0 from another,
* the spectral radius is plain dense numpy eigvals; the analysis hands
  it only Q's loop core (graph.peel.core_edges).
"""

import numpy as np

SYM_TOL = 1e-12
PSD_TOL = 1e-9
RANK_TOL = 1e-10


def is_symmetric(x):
    """Asymmetry at most SYM_TOL * max(1, largest |entry|): a bool for a matrix, a bool array for a stack.

    NaN entries do not make a matrix asymmetric here; finiteness is a
    separate check.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    ok = (x == np.swapaxes(x, -1, -2)).all(axis=(-2, -1))
    if not ok.all():
        scale = np.maximum(1.0, np.max(np.abs(x), axis=(-2, -1)))
        ok = ~(np.max(np.abs(x - np.swapaxes(x, -1, -2)), axis=(-2, -1)) > SYM_TOL * scale)
    return bool(ok) if x.ndim == 2 else ok


def symmetrize(x):
    """Return (x + x.T) / 2 for a matrix or an (E, d, d) stack of them; x itself if exactly symmetric.

    Refuses any matrix that is not nearly symmetric (is_symmetric).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim >= 2 and np.array_equal(x, np.swapaxes(x, -1, -2)):
        return x
    ok = is_symmetric(x)
    xt = np.swapaxes(x, -1, -2)
    if not np.all(ok):
        raise ValueError(f"matrix is not symmetric: max asymmetry {np.max(np.abs(x - xt)):.3e}")
    return (x + xt) / 2.0


def _verdict(w, strict):
    """pd (strict) or psd verdict from each matrix's ascending eigenvalues w."""
    bar = PSD_TOL * np.maximum(1.0, w[..., -1])
    return w[..., 0] > bar if strict else w[..., 0] >= -bar


def _definite(x, strict):
    """pd (strict) or psd verdict: a bool for a matrix, a bool array for a stack."""
    x = symmetrize(x)
    # an empty matrix passes both checks, as if its spectrum were {1}
    ok = _verdict(np.linalg.eigvalsh(x) if x.shape[-1] else np.ones(x.shape[:-2] + (1,)), strict)
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
    """Full column rank: a bool for an (m, d) matrix, a bool array for an (E, m, d) stack.

    A matrix with no columns has it, and one with fewer rows than columns
    does not.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {a.shape}")
    m, d = a.shape[-2:]
    ok = np.full(a.shape[:-2], d == 0 or m >= d)
    if d and m >= d and a.size:
        sv = np.linalg.svd(a, compute_uv=False)
        ok = sv[..., -1] > RANK_TOL * sv[..., 0]
    return bool(ok) if a.ndim == 2 else ok


def part_metric(x, y):
    """Distance between two positive definite matrices, or per pair of two stacks.

    The distance is inf{ log a : a*x >= y >= x/a, a >= 1 } in the Loewner
    order, which for pd arguments equals

        log max( lambda_max(x^-1 y), 1 / lambda_min(x^-1 y) ).

    The eigenvalues of x^-1 y are 1 + mu with mu the eigenvalues of
    L^-1 (y - x) L^-T, x = L L^T (Cholesky reduction), so x^-1 y is
    never formed and distances near zero keep their relative accuracy.
    It is part_metric_to(x)(y), a pair of matrices a stack of one.

    For two matrices, raises ValueError if either fails the pd check. For
    two (E, d, d) stacks, returns an array of E distances, inf where a
    pair fails it.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2:
        return part_metric_to(x)(y)
    dist = float(part_metric_to(x[None])(y[None])[0])
    if not np.isfinite(dist):
        if not (is_pd(x) and is_pd(y)):
            raise ValueError("part metric requires positive definite arguments")
        raise ValueError("generalized eigenvalues not positive; inputs too ill-conditioned")
    return dist


def part_metric_to(ref):
    """part_metric(x, ref) for (E, d, d) stacks x, as a function of x, with ref factored once.

    ref is symmetrized, pd-checked, Cholesky-factored and the factor
    inverted here; an exactly symmetric ref is not copied, so it must not
    change while the metric is in use. Each call then makes one eigvalsh
    over x stacked on its reduction L^-1 (x - ref) L^-T, for the pd
    verdict on x and the mu of part_metric. The distance is symmetric in
    its arguments. A pair that fails the pd check gets inf. A call may
    pass rows, a selection of ref's rows that x holds; each row's
    distance is the one a call over every row gives it, bit for bit.
    """
    ref = symmetrize(ref)
    ref_ok = np.asarray(is_pd(ref))
    inv = np.linalg.inv(np.linalg.cholesky(np.where(ref_ok[:, None, None], ref, np.eye(ref.shape[-1]))))

    def metric(x, rows=slice(None)):
        x = symmetrize(x)
        if not x.shape[-1]:
            return np.zeros(len(x))
        w = np.linalg.eigvalsh(np.concatenate([x, inv[rows] @ (x - ref[rows]) @ inv[rows].swapaxes(1, 2)]))
        lo, hi = w[len(x):, 0], w[len(x):, -1]
        # lo <= -1 is possible only for near-singular inputs that slipped
        # through the pd check; it is a domain error, not a distance.
        with np.errstate(invalid="ignore", divide="ignore"):
            dist = np.maximum(np.maximum(np.log1p(hi), -np.log1p(lo)), 0.0)
        return np.where(ref_ok[rows] & _verdict(w[:len(x)], strict=True) & (lo > -1.0), dist, np.inf)

    return metric


def spectral_radius(q):
    """Largest eigenvalue magnitude of a square (not necessarily symmetric) matrix.

    Dense numpy eigvals, so it raises LinAlgError on a NaN or inf
    anywhere; an empty matrix (Q's loop core on a forest) has radius 0.0.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(q)))) if q.size else 0.0
