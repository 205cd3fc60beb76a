"""Bridge from scalar Gaussian Markov random fields to observation models.

A pairwise MRF is given in information form N(mu, Sigma) with J = Sigma^-1
and potential h = J mu. After normalizing J to unit diagonal, the field
is walk-summable iff I - |R| is positive definite, where R = I - J holds
the partial correlations. For walk-summable fields, J - omega*I (with
0 < omega < min(1, lambda_min(I - |R|))) is an H-matrix and therefore
splits as V V^T with at most two nonzeros per column of V; each pair
column becomes a scalar observation factor y = 0 with unit noise, and the
prior N(h_n / omega, 1 / omega) is encoded exactly by splitting its
precision between the model prior and a scalar mean-carrying row.

The split follows Boman, Chen, Parekh & Toledo (LAA 2005): scale
J - omega*I by the positive solution u of comparison(J - omega*I) u = 1,
which makes it strictly diagonally dominant, then give each coupling its
own column and each row's leftover diagonal a column of its own.
"""

import logging
from dataclasses import dataclass

import numpy as np

from gabp.errors import DomainError
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec
from gabp.numerics import _verdict, is_symmetric, symmetrize

log = logging.getLogger("gabp")

# Off-diagonal entries at or below this magnitude count as structural zeros.
COUPLING_TOL = 1e-15
# Diagonal surplus below this (in unscaled units) is dropped instead of
# emitting a column.
SURPLUS_TOL = 1e-14


def _require_finite(x, what):
    """x as floats, a matrix symmetrized; DomainError unless it is finite and, if a matrix, symmetric."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} is not finite")
    if x.ndim == 2 and not is_symmetric(x):
        raise DomainError(f"{what} is not symmetric: max asymmetry {np.max(np.abs(x - x.T)):.3e}")
    return symmetrize(x) if x.ndim == 2 else x


def is_normalized(j):
    """The unit-diagonal test: no diagonal entry of J is more than 1e-9 from 1 (NaN entries pass)."""
    return not np.max(np.abs(np.diag(j) - 1.0)) > 1e-9


def normalize_mrf(j, h=None):
    """Rescale to unit diagonal: J' = D J D, h' = D h, D = diag(J)^(-1/2).

    Returns (J', h', d) where d is the vector of diagonal scale factors.
    J'^-1 h' = D^-1 J^-1 h, so original means are d * normalized means.
    """
    j = _require_finite(j, "J")
    diag = np.diag(j)
    if np.any(diag <= 0):
        raise DomainError("normalization needs a strictly positive diagonal")
    d = 1.0 / np.sqrt(diag)
    j_norm = j * np.outer(d, d)
    np.fill_diagonal(j_norm, 1.0)
    h_norm = None if h is None else d * np.asarray(h, dtype=float)
    return j_norm, h_norm, d


def _require_normalized(j):
    j = _require_finite(j, "J")
    if not is_normalized(j):
        raise DomainError("expected a normalized (unit diagonal) matrix")
    return j


@dataclass
class WalkSummability:
    walk_summable: bool
    min_eig: float


def check_walk_summability(j_norm):
    """Spectral test on I - |R| for a normalized information matrix."""
    return _walk_summability(_require_normalized(j_norm))


def _walk_summability(j_norm):
    """check_walk_summability of a J that _require_normalized has returned."""
    # I - |R| in one array: 0 - |J_ij| off the diagonal, 1 - |1 - J_ii| on it
    test = np.abs(j_norm)
    np.subtract(0.0, test, out=test)
    np.fill_diagonal(test, 1.0 - np.abs(1.0 - np.diag(j_norm)))
    w = np.linalg.eigvalsh(test)
    # the verdict is_pd(test) would give, from the same eigenvalues
    return WalkSummability(walk_summable=bool(_verdict(w, strict=True)), min_eig=float(w[0]))


@dataclass
class FactorWidth2:
    """Width-two factorization J - omega*I = V V^T (up to dropped surplus), as index/value arrays.

    V has two flavors of column: pair columns with exactly two nonzeros,
    one per off-diagonal coupling, then surplus columns with a single
    nonzero absorbing what strict diagonal dominance left over. Pair
    column c holds pair_row_values[c] in row pair_rows[c] and
    pair_col_values[c] in row pair_cols[c] > pair_rows[c]; single column
    c holds single_values[c] in row single_rows[c]; each folds into its
    variable's prior precision on conversion. min_eig is the smallest
    eigenvalue of I - |R| from the walk-summability test, and scaling the
    vector u that made the comparison matrix diagonally dominant. v
    builds the dense n x columns V on each access.
    """

    omega: float
    min_eig: float
    scaling: np.ndarray
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    pair_row_values: np.ndarray
    pair_col_values: np.ndarray
    single_rows: np.ndarray
    single_values: np.ndarray

    @property
    def pair_columns(self):
        return len(self.pair_rows)

    @property
    def folded_columns(self):
        return len(self.single_rows)

    @property
    def columns(self):
        return self.pair_columns + self.folded_columns

    @property
    def v(self):
        v = np.zeros((len(self.scaling), self.columns))
        at = np.arange(self.pair_columns)
        v[self.pair_rows, at] = self.pair_row_values
        v[self.pair_cols, at] = self.pair_col_values
        v[self.single_rows, self.pair_columns + np.arange(self.folded_columns)] = self.single_values
        return v


def default_omega(lam_min):
    return 0.5 * min(1.0, lam_min)


def factor_width_two(j_norm, omega=None):
    """Split a walk-summable normalized J as omega*I + V V^T.

    Raises DomainError when the field is not walk-summable or omega sits
    outside (0, min(1, lambda_min(I - |R|))). On that range the comparison
    matrix C of m = J - omega*I is a nonsingular M-matrix, so the scaling
    u = C^-1 1 from one solve has u >= 1 / (1 - omega) > 0, and C u = 1
    says that row i of diag(u) m diag(u) exceeds its off-diagonal absolute
    sum by exactly u_i. Every coupling splits into a psd 2x2 block, each
    row's surplus into a single column, and the columns are unscaled.
    """
    return _factor_width_two(_require_normalized(j_norm), omega)


def _factor_width_two(j_norm, omega):
    """factor_width_two of a J that _require_normalized has returned."""
    ws = _walk_summability(j_norm)
    if not ws.walk_summable:
        raise DomainError(
            f"not walk-summable: min eigenvalue of I - |R| is {ws.min_eig:.6g}"
        )
    limit = min(1.0, ws.min_eig)
    if omega is None:
        omega = default_omega(ws.min_eig)
    if not (0.0 < omega < limit):
        raise DomainError(f"omega must lie in (0, {limit:.6g}), got {omega:g}")

    n = j_norm.shape[0]

    def shifted():
        m = j_norm.copy()
        m.flat[::n + 1] -= omega
        m[(m <= COUPLING_TOL) & (m >= -COUPLING_TOL)] = 0.0
        return m

    # m is built twice, and C in the first m's place, so that besides J at
    # most two n x n arrays are alive at a time, the solve's own copy included
    c = shifted()
    c_diag = np.abs(np.diag(c))
    np.abs(c, out=c)
    np.negative(c, out=c)
    np.fill_diagonal(c, c_diag)
    u = np.linalg.solve(c, np.ones(n))
    del c
    m_scaled = shifted()
    m_scaled *= np.outer(u, u)

    rows, cols = np.nonzero(np.triu(m_scaled != 0, 1))
    vals = m_scaled[rows, cols]
    root = np.sqrt(np.abs(vals))
    surplus = 2.0 * np.diag(m_scaled) - np.sum(np.abs(m_scaled), axis=1)
    if np.any(surplus < 0):
        i = int(np.argmin(surplus))
        raise AssertionError(
            f"scaled comparison matrix lost diagonal dominance in row {i}: {surplus[i]:.3e}"
        )
    # The surplus carries the scale u_i^2 (it is u_i up to rounding, 1/u_i
    # unscaled); the threshold is in unscaled units.
    kept = np.flatnonzero(surplus > SURPLUS_TOL * u ** 2)
    log.debug("factor width 2: %d pair + %d surplus columns, omega=%g",
              len(vals), len(kept), omega)
    return FactorWidth2(omega=float(omega), min_eig=ws.min_eig, scaling=u, pair_rows=rows, pair_cols=cols,
                        pair_row_values=root / u[rows], pair_col_values=np.sign(vals) * root / u[cols],
                        single_rows=kept, single_values=np.sqrt(surplus[kept]) / u[kept])


def mrf_to_linear_gaussian(j_norm, h=None, omega=None):
    """Convert a normalized walk-summable MRF into an observation model.

    Every pair column of the factorization becomes a scalar factor with
    observation 0 and unit noise. Single-nonzero columns fold into the
    prior precision. The converted prior N(h_n/omega, 1/omega) is encoded
    exactly: half its precision goes to the model prior (covariance
    2/omega, zero mean) and half to a scalar mean-carrying factor with
    noise 2/omega and observation 2 h_n / omega, which together
    contribute precision omega and information h_n. The joint density of
    the returned model therefore has precision exactly J and potential
    exactly h. Returns the model and the factorization it was read from.
    """
    j_norm = _require_normalized(j_norm)
    n = j_norm.shape[0]
    h = np.zeros(n) if h is None else _require_finite(h, "h")
    if h.shape != (n,):
        raise DomainError(f"potential vector has shape {h.shape}, expected ({n},)")
    fw = _factor_width_two(j_norm, omega)
    omega = fw.omega

    prior_prec = np.full(n, omega / 2.0)
    prior_prec[fw.single_rows] += fw.single_values ** 2
    variables = [VariableSpec(id=i + 1, dim=1, prior_cov=np.array([[1.0 / p]]))
                 for i, p in enumerate(prior_prec.tolist())]
    pairs = zip(*(x.tolist() for x in (fw.pair_rows, fw.pair_cols, fw.pair_row_values, fw.pair_col_values)))
    factors = [FactorSpec(id=fid, scope=(i + 1, k + 1), coeff={i + 1: np.array([[a]]), k + 1: np.array([[b]])},
                          noise_cov=np.array([[1.0]]), obs=np.array([0.0]))
               for fid, (i, k, a, b) in enumerate(pairs, start=1)]
    # one mean-carrying factor per variable, numbered after the pair factors
    factors += [FactorSpec(id=len(factors) + i + 1, scope=(i + 1,), coeff={i + 1: np.array([[1.0]])},
                           noise_cov=np.array([[2.0 / omega]]), obs=np.array([2.0 * h[i] / omega]))
                for i in range(n)]
    meta = {"source": "mrf", "omega": omega, "columns": fw.columns}
    return LinearGaussianModel(variables=variables, factors=factors, meta=meta), fw

