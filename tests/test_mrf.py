import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import QUARTET_ABS_SPECTRUM, QUARTET_J, mrf_marginals, stack_global
from corpus import grid_field, random_walk_summable
from gabp.errors import DomainError
from gabp.graph import build_factor_graph
from gabp.io import model_to_json
from gabp.model import (FactorSpec, LinearGaussianModel, VariableSpec, centralized_solve,
                        validate_model)
from gabp.mrf import (check_walk_summability, default_omega, factor_width_two,
                      mrf_to_linear_gaussian, normalize_mrf)
from gabp.numerics import is_pd


def test_normalize_mrf():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    j = g @ g.T + 4 * np.eye(4)
    h = rng.standard_normal(4)
    j_norm, h_norm, d = normalize_mrf(j, h)
    np.testing.assert_allclose(np.diag(j_norm), np.ones(4), atol=1e-14)
    np.testing.assert_allclose(j_norm, np.outer(d, d) * j, atol=1e-14)
    np.testing.assert_allclose(h_norm, d * h, atol=1e-14)
    # means transform by the scale vector
    np.testing.assert_allclose(d * np.linalg.solve(j_norm, h_norm),
                               np.linalg.solve(j, h), atol=1e-10)


def test_normalize_rejects_nonpositive_diagonal():
    with pytest.raises(DomainError):
        normalize_mrf(np.diag([1.0, -2.0]))


def test_quartet_field_fails_walk_summability():
    ws = check_walk_summability(QUARTET_J)
    assert not ws.walk_summable
    test = np.eye(4) - np.abs(np.eye(4) - QUARTET_J)  # I - |R|
    np.testing.assert_allclose(np.linalg.eigvalsh(test), QUARTET_ABS_SPECTRUM, atol=5e-4)
    assert ws.min_eig == pytest.approx(QUARTET_ABS_SPECTRUM[0], abs=5e-4)


def test_walk_summable_case():
    j, _ = random_walk_summable(1)
    ws = check_walk_summability(j)
    assert ws.walk_summable
    assert ws.min_eig == pytest.approx(0.3, abs=1e-10)


def test_check_requires_unit_diagonal():
    with pytest.raises(DomainError):
        check_walk_summability(np.diag([2.0, 2.0]))


def test_a_conversion_checks_j_once(monkeypatch):
    import gabp.mrf

    calls = []
    check = gabp.mrf._require_normalized

    def counted(j):
        calls.append(1)
        return check(j)

    monkeypatch.setattr(gabp.mrf, "_require_normalized", counted)
    mrf_to_linear_gaussian(grid_field(4), np.ones(16))
    assert len(calls) == 1
    calls.clear()
    factor_width_two(grid_field(4))
    check_walk_summability(grid_field(4))
    assert len(calls) == 2


def _bad_j(kind):
    j = grid_field(3)
    if kind == "non-finite":
        j[0, 1] = j[1, 0] = np.inf
    elif kind == "asymmetric":
        j[0, 1] += 0.1
    else:
        j[2, 2] = 1.5
    return j


@pytest.mark.parametrize("kind,message", [
    ("non-finite", "J is not finite"),
    ("asymmetric", "J is not symmetric: max asymmetry 1.000e-01"),
    ("non-unit-diagonal", "expected a normalized (unit diagonal) matrix"),
])
@pytest.mark.parametrize("entry", [mrf_to_linear_gaussian, factor_width_two, check_walk_summability])
def test_each_public_entry_rejects_a_bad_j_with_its_message(entry, kind, message):
    with pytest.raises(DomainError) as exc:
        entry(_bad_j(kind))
    assert str(exc.value) == message


def comparison_matrix(x):
    """Absolute diagonal, negated absolute off-diagonal."""
    c = -np.abs(x)
    np.fill_diagonal(c, np.abs(np.diag(x)))
    return c


def test_default_omega_is_half_the_margin():
    assert default_omega(0.4) == pytest.approx(0.2)
    assert default_omega(3.0) == pytest.approx(0.5)


def test_factor_width_two_reconstructs():
    for seed in range(5):
        j, _ = random_walk_summable(seed)
        fw = factor_width_two(j)
        rec = fw.omega * np.eye(j.shape[0]) + fw.v @ fw.v.T
        assert np.max(np.abs(rec - j)) < 1e-12
        for c in range(fw.v.shape[1]):
            assert np.count_nonzero(fw.v[:, c]) <= 2
        assert np.all(fw.scaling > 0)
        m = j - fw.omega * np.eye(j.shape[0])
        assert is_pd(comparison_matrix(m))  # an H-matrix
        # the defining property of the scaling: comparison(J - omega I) u = 1
        np.testing.assert_allclose(comparison_matrix(m) @ fw.scaling, 1.0, rtol=1e-10)


def test_factor_width_two_rejects_non_walk_summable():
    with pytest.raises(DomainError):
        factor_width_two(QUARTET_J)


def test_factor_width_two_validates_omega():
    j, _ = random_walk_summable(2)
    margin = check_walk_summability(j).min_eig
    factor_width_two(j, omega=margin * 0.9)
    with pytest.raises(DomainError):
        factor_width_two(j, omega=margin * 1.1)
    with pytest.raises(DomainError):
        factor_width_two(j, omega=0.0)


def test_factor_width_two_lone_variable():
    j = np.array([[1.0]])
    fw = factor_width_two(j, omega=0.25)
    rec = fw.omega * np.eye(1) + fw.v @ fw.v.T
    assert rec[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert fw.pair_columns == 0
    assert fw.folded_columns == 1


def test_conversion_joint_precision_is_exact():
    for seed in range(4):
        j, h = random_walk_summable(seed)
        model, info = mrf_to_linear_gaussian(j, h)
        assert validate_model(model) == []
        a, r, w, _ = stack_global(model)
        prec = np.linalg.inv(w) + a.T @ np.linalg.solve(r, a)
        assert np.max(np.abs(prec - j)) < 1e-12
        assert model.meta["omega"] == pytest.approx(info.omega)
        assert model.meta["columns"] == info.columns
        assert info.pair_columns + info.folded_columns == info.columns


def test_badly_scaled_grid_conversion_keeps_every_surplus_row():
    # the Perron vector of this grid spans ten orders of magnitude, while
    # the solve-based scaling stays at or above 1 / (1 - omega); every row
    # needs its surplus column for V V^T + omega I to equal J
    j = grid_field(20)
    model, info = mrf_to_linear_gaussian(j)
    assert np.min(info.scaling) >= (1.0 - 1e-12) / (1.0 - info.omega)
    assert info.folded_columns == j.shape[0]
    a, r, w, _ = stack_global(model)
    prec = np.linalg.inv(w) + a.T @ np.linalg.solve(r, a)
    assert np.max(np.abs(prec - j)) < 1e-12


def test_conversion_scope_structure():
    j, h = random_walk_summable(3)
    model, info = mrf_to_linear_gaussian(j, h)
    pair = [f for f in model.factors if len(f.scope) == 2]
    carrier = [f for f in model.factors if len(f.scope) == 1]
    assert len(pair) == info.pair_columns
    assert len(carrier) == j.shape[0]
    for f in carrier:
        assert f.noise_cov[0, 0] == pytest.approx(2.0 / info.omega)
        assert f.coeff[f.scope[0]][0, 0] == 1.0
    for f in pair:
        assert f.noise_cov[0, 0] == 1.0
        assert f.obs[0] == 0.0


def test_conversion_means_match_direct_solve():
    j, h = random_walk_summable(4)
    model, _ = mrf_to_linear_gaussian(j, h)
    sol = centralized_solve(model)
    means, variances = mrf_marginals(j, h)
    for i in range(j.shape[0]):
        assert sol.means[i + 1][0] == pytest.approx(means[i], abs=1e-10)
        # exact marginal variances too: the conversion is lossless
        assert sol.covs[i + 1][0, 0] == pytest.approx(variances[i], abs=1e-10)


def test_conversion_rejects_bad_potential_length():
    j, _ = random_walk_summable(5)
    with pytest.raises(DomainError):
        mrf_to_linear_gaussian(j, np.zeros(3))


def test_mrf_marginals_against_inverse():
    j, h = random_walk_summable(6)
    means, variances = mrf_marginals(j, h)
    inv = np.linalg.inv(j)
    np.testing.assert_allclose(means, inv @ h, atol=1e-10)
    np.testing.assert_allclose(variances, np.diag(inv), atol=1e-12)
    with pytest.raises(DomainError):
        mrf_marginals(np.diag([1.0, -1.0]), np.zeros(2))


def test_converted_model_graph_is_loopy_but_convergent():
    import gabp
    j, h = random_walk_summable(7)
    model, _ = mrf_to_linear_gaussian(j, h)
    g = build_factor_graph(model)
    fp = gabp.information_fixed_point(model, g)
    qs = gabp.assemble_q(model, g, fp)
    assert qs.rho < 1.0
    res = gabp.run_bp(model, g)
    assert res.status == "converged"
    means, _ = mrf_marginals(j, h)
    for i in range(j.shape[0]):
        assert res.beliefs[i + 1].mean[0] == pytest.approx(means[i], abs=1e-8)


def dense_width_two(j, omega):
    """V as one dense n x (pairs + singles) array: an independent transcription of the split."""
    n = j.shape[0]
    m = j - omega * np.eye(n)
    m[np.abs(m) <= 1e-15] = 0.0
    c = -np.abs(m)
    np.fill_diagonal(c, np.abs(np.diag(m)))
    u = np.linalg.solve(c, np.ones(n))
    m_scaled = m * np.outer(u, u)
    rows, cols = np.nonzero(np.triu(m_scaled, 1))
    vals = m_scaled[rows, cols]
    at = np.arange(len(vals))
    pairs = np.zeros((n, len(vals)))
    pairs[rows, at] = np.sqrt(np.abs(vals))
    pairs[cols, at] = np.sign(vals) * pairs[rows, at]
    surplus = 2.0 * np.diag(m_scaled) - np.sum(np.abs(m_scaled), axis=1)
    kept = np.flatnonzero(surplus > 1e-14 * u ** 2)
    singles = np.zeros((n, len(kept)))
    singles[kept, np.arange(len(kept))] = np.sqrt(surplus[kept])
    return np.hstack([pairs, singles]) / u[:, None], len(vals), len(kept)


def dense_route_model(j, h):
    """The converted model read column by column off the dense V."""
    n = j.shape[0]
    omega = float(default_omega(check_walk_summability(j).min_eig))
    v, _, _ = dense_width_two(j, omega)
    prior_prec = np.full(n, omega / 2.0)
    factors = []
    for c in range(v.shape[1]):
        support = np.nonzero(v[:, c])[0]
        if len(support) == 1:
            # x * x, not x ** 2: a numpy scalar's power goes through libm pow, which
            # can be one ulp off the product the converter's array square takes
            x = v[support[0], c]
            prior_prec[support[0]] += x * x
        else:
            i, k = support
            factors.append(FactorSpec(len(factors) + 1, (i + 1, k + 1),
                                      {i + 1: np.array([[v[i, c]]]), k + 1: np.array([[v[k, c]]])},
                                      np.array([[1.0]]), np.array([0.0])))
    for i in range(n):
        factors.append(FactorSpec(len(factors) + 1, (i + 1,), {i + 1: np.array([[1.0]])},
                                  np.array([[2.0 / omega]]), np.array([2.0 * h[i] / omega])))
    variables = [VariableSpec(i + 1, 1, np.array([[1.0 / prior_prec[i]]])) for i in range(n)]
    return LinearGaussianModel(variables, factors, {"source": "mrf", "omega": omega,
                                                    "columns": v.shape[1]})


def test_the_index_arrays_are_the_dense_split_column_for_column():
    fields = [(random_walk_summable(seed, n=n)[0], None) for seed in range(6) for n in (2, 5, 12)]
    fields += [(np.array([[1.0]]), 0.25), (np.eye(5), None), (grid_field(6), None), (grid_field(20), None)]
    j = np.eye(4)
    j[0, 1] = j[1, 0] = 0.3
    fields.append((j, None))  # couplings only between the first two
    for j, omega in fields:
        fw = factor_width_two(j, omega=omega)
        v, pairs, singles = dense_width_two(j, fw.omega)
        np.testing.assert_array_equal(fw.v, v)
        assert (fw.pair_columns, fw.folded_columns, fw.columns) == (pairs, singles, v.shape[1])
        assert np.all(fw.pair_rows < fw.pair_cols)
    assert factor_width_two(np.eye(5)).pair_columns == 0


def test_converted_model_json_is_the_dense_routes_bytes():
    for side in range(3, 21):
        j = grid_field(side, seed=side)
        h = np.random.default_rng(side).standard_normal(side * side)
        ours = json.dumps(model_to_json(mrf_to_linear_gaussian(j, h)[0]), indent=2)
        assert ours == json.dumps(model_to_json(dense_route_model(j, h)), indent=2), side


def test_the_byte_identity_holds_with_one_blas_thread():
    # BLAS reads its thread count once, when numpy loads; the count changes which
    # kernels run and so the last bits of the split, so the check reruns in a child
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = "import test_mrf; test_mrf.test_converted_model_json_is_the_dense_routes_bytes()"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
