import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_radius, part_metric_bisection, rand_spd
from gabp.numerics import (has_full_column_rank, is_pd, is_psd, is_symmetric, part_metric,
                           part_metric_to, psd_compare, spectral_radius, symmetrize)


def test_symmetrize_passthrough():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_array_equal(symmetrize(a), a)


def test_symmetrize_returns_an_exactly_symmetric_stack_as_it_is():
    # (x + x) / 2 == x bit for bit, so an exactly symmetric input is not copied
    g = np.random.default_rng(2).standard_normal((5, 3, 3))
    x = g + g.swapaxes(1, 2)
    assert symmetrize(x) is x
    near = x.copy()
    near[1, 0, 2] += 1e-15
    out = symmetrize(near)
    assert out is not near and np.array_equal(out, out.swapaxes(1, 2))
    bad = x.copy()
    bad[3, 2, 0] += 0.5
    for wrong in (bad, np.ones((2, 3)), np.ones((4, 2, 3)), np.ones(3)):
        with pytest.raises(ValueError):
            symmetrize(wrong)


def test_symmetrize_rejects_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetrize(a)


def test_symmetrize_tolerance_scales_with_magnitude():
    # an absolute gap of 1e-9 is fine at scale 1e6, fatal at scale 1
    big = np.array([[1e6, 1e6 + 1e-9], [1e6, 1e6]])
    symmetrize(big)
    small = np.array([[1.0, 1e-9], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetrize(small)


def test_definiteness_checks():
    assert is_pd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_pd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1.0]))
    # a tiny negative eigenvalue relative to the largest stays psd
    assert is_psd(np.diag([1.0, -1e-10]))
    assert not is_psd(np.diag([1.0, -1e-6]))


def test_psd_compare_is_loewner_order():
    assert psd_compare(2 * np.eye(2), np.eye(2))
    assert not psd_compare(np.eye(2), 2 * np.eye(2))
    # incomparable matrices fail in both directions
    x = np.diag([2.0, 1.0])
    y = np.diag([1.0, 2.0])
    assert not psd_compare(x, y)
    assert not psd_compare(y, x)


def test_full_column_rank():
    assert has_full_column_rank(np.array([[1.0], [0.0]]))
    assert not has_full_column_rank(np.zeros((3, 1)))
    assert not has_full_column_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))
    # wide blocks can never have full column rank
    assert not has_full_column_rank(np.ones((1, 2)))


def test_part_metric_scalar_closed_form():
    x = np.array([[2.0]])
    y = np.array([[5.0]])
    assert part_metric(x, y) == pytest.approx(np.log(5.0 / 2.0), abs=1e-14)
    assert part_metric(x, x) == pytest.approx(0.0, abs=1e-13)


def test_part_metric_rejects_indefinite():
    with pytest.raises(ValueError):
        part_metric(np.diag([1.0, -1.0]), np.eye(2))


def test_stacked_checks_match_per_matrix_calls():
    rng = np.random.default_rng(11)
    xs = np.stack([rand_spd(rng, 3) for _ in range(20)])
    ys = np.stack([rand_spd(rng, 3) for _ in range(20)])
    xs[4] = np.diag([1.0, -1.0, 2.0])
    xs[7] = np.diag([1.0, 0.0, 2.0])
    ys[9] = np.diag([1.0, -1e-6, 2.0])
    pd, psd, dist = is_pd(xs), is_psd(xs), part_metric(xs, ys)
    assert pd.shape == psd.shape == dist.shape == (20,)
    for k in range(20):
        assert pd[k] == is_pd(xs[k]) and psd[k] == is_psd(xs[k])
        if pd[k] and is_pd(ys[k]):
            assert dist[k] == pytest.approx(part_metric(xs[k], ys[k]), rel=1e-12, abs=1e-12)
        else:
            assert dist[k] == np.inf
            with pytest.raises(ValueError):
                part_metric(xs[k], ys[k])
    assert np.isinf(dist[[4, 7, 9]]).all() and not pd[7] and psd[7]


def test_stacked_symmetry_and_rank_match_per_matrix_calls():
    rng = np.random.default_rng(12)
    sym = np.stack([rand_spd(rng, 3, scale=10.0 ** k) for k in range(-2, 4)] * 4)
    # within the tolerance, just past it, and clearly asymmetric
    sym[[1, 7, 13, 19], 0, 2] += np.array([0.4e-12, 2e-12, 1e-6, 0.5]) * np.maximum(
        1.0, np.abs(sym[[1, 7, 13, 19]]).max(axis=(1, 2)))
    ok = is_symmetric(sym)
    assert ok.shape == (24,) and list(np.flatnonzero(~ok)) == [7, 13, 19]
    assert [is_symmetric(x) for x in sym] == ok.tolist()
    assert is_symmetric(np.zeros((0, 3, 3))).shape == (0,)
    assert is_symmetric(np.zeros((2, 0, 0))).tolist() == [True, True]

    for m, d in [(4, 2), (3, 3), (2, 3), (3, 0), (0, 0)]:
        a = rng.standard_normal((12, m, d))
        if m >= d > 1:
            a[2, :, 1] = 3.0 * a[2, :, 0]       # rank deficient
            a[5] = 0.0
            a[8, :, -1] *= 1e-11                # a singular value below the relative floor
        ranks = has_full_column_rank(a)
        assert ranks.shape == (12,)
        assert ranks.tolist() == [has_full_column_rank(x) for x in a]
        assert ranks.all() == (d == 0 or (m >= d and d <= 1))
        assert has_full_column_rank(np.zeros((0, m, d))).shape == (0,)


def test_part_metric_to_matches_the_bisection_oracle_and_the_pd_verdict():
    # one eigvalsh gives both the pd verdict on x and the distance to the reference
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        refs = np.stack([rand_spd(rng, d) for _ in range(10)])
        xs = np.stack([rand_spd(rng, d) for _ in range(10)])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))

        def rotated(*eigs):
            x = q @ np.diag(eigs[:d]) @ q.T
            return (x + x.T) / 2.0

        xs[1] = rotated(1e-14, 1.0, 2.0)          # near-singular: inf
        refs[2] = rotated(-1.0, 1.0, 2.0)         # reference not pd: inf
        xs[3] = rotated(3e10, 2e3, 5e9)           # lambda_max > 1e9, lambda_min far above its floor
        dist = part_metric_to(refs)(xs)
        pd = is_pd(refs) & is_pd(xs)
        assert pd.tolist() == [k not in (1, 2) for k in range(10)], d
        assert np.isfinite(dist).tolist() == pd.tolist(), d
        for k in np.flatnonzero(pd):
            assert dist[k] == pytest.approx(part_metric_bisection(refs[k], xs[k]), abs=1e-9), (d, k)
        assert dist[3] > np.log(1e9)
    # empty matrices, which is_pd accepts, are at distance 0
    for shape in [(0, 0, 0), (3, 0, 0)]:
        assert part_metric_to(np.zeros(shape))(np.zeros(shape)).tolist() == [0.0] * shape[0]


def test_part_metric_symmetry_and_scaling():
    rng = np.random.default_rng(1)
    x, y = rand_spd(rng, 3), rand_spd(rng, 3)
    assert part_metric(x, y) == pytest.approx(part_metric(y, x), abs=1e-12)
    # d(aX, aY) = d(X, Y)
    assert part_metric(3.0 * x, 3.0 * y) == pytest.approx(part_metric(x, y), abs=1e-12)
    # d(X, aX) = log a
    assert part_metric(x, 7.0 * x) == pytest.approx(np.log(7.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_part_metric_matches_bisection_oracle(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = rand_spd(rng, dim), rand_spd(rng, dim)
    assert part_metric(x, y) == pytest.approx(part_metric_bisection(x, y), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_part_metric_sum_and_inversion_properties(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = rand_spd(rng, dim), rand_spd(rng, dim)
    a, b = rand_spd(rng, dim), rand_spd(rng, dim)
    lhs = part_metric(x + a, y + b)
    assert lhs <= max(part_metric(x, y), part_metric(a, b)) + 1e-9
    inv = part_metric(np.linalg.inv(x), np.linalg.inv(y))
    assert inv == pytest.approx(part_metric(x, y), abs=1e-9)


def test_spectral_radius_matches_charpoly_roots():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, 8):
        q = rng.standard_normal((n, n))
        assert spectral_radius(q) == pytest.approx(charpoly_radius(q), rel=1e-8, abs=1e-10)


def test_spectral_radius_large_rotation_and_near_tie():
    # Block-diagonal Q of dimension 2003, radius known by construction: a
    # rotation block with eigenvalues 0.5 exp(+-i), a real eigenvalue
    # -0.4999 just below it, and 1000 smaller rotations. The dominant
    # complex pair has equal moduli, which power iteration cannot settle.
    def rotation(modulus, angle):
        c, s = np.cos(angle), np.sin(angle)
        return modulus * np.array([[c, -s], [s, c]])

    rng = np.random.default_rng(0)
    blocks = [rotation(0.5, 1.0), np.array([[-0.4999]])]
    blocks += [rotation(m, a) for m, a in zip(rng.uniform(0.0, 0.45, 1000),
                                              rng.uniform(0.0, np.pi, 1000))]
    q = scipy.linalg.block_diag(*blocks)
    assert q.shape[0] > 2000
    assert spectral_radius(q) == pytest.approx(0.5, rel=1e-10)


def dense_radius(q):
    return float(np.max(np.abs(np.linalg.eigvals(q)))) if q.size else 0.0


def hidden_permutation(q, seed):
    perm = np.random.default_rng(seed).permutation(q.shape[0])
    return q[np.ix_(perm, perm)]


def test_spectral_radius_finds_the_dominant_eigenvalue_in_a_peeled_entry():
    rng = np.random.default_rng(3)
    n = 12
    q = np.triu(rng.uniform(-0.3, 0.3, (n, n)), 1)
    q[5:8, 5:8] = rng.uniform(-0.2, 0.2, (3, 3))
    q[10, 10] = -1.7
    q = hidden_permutation(q, 4)
    assert spectral_radius(q) == pytest.approx(dense_radius(q), abs=1e-10)
    assert spectral_radius(q) == 1.7


def test_spectral_radius_of_a_permuted_strictly_triangular_matrix_is_exactly_zero():
    q = hidden_permutation(np.triu(np.random.default_rng(5).standard_normal((40, 40)), 1), 6)
    assert dense_radius(q) < 1e-10
    assert spectral_radius(q) == 0.0


def test_spectral_radius_of_a_zero_matrix():
    assert spectral_radius(np.zeros((7, 7))) == 0.0 == dense_radius(np.zeros((7, 7)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_spectral_radius_raises_on_a_non_finite_peeled_entry(bad, where):
    q = np.triu(np.random.default_rng(7).standard_normal((6, 6)), 1)
    q[np.ix_([2, 3], [2, 3])] = [[0.1, 0.5], [-0.5, 0.1]]
    row, col = (0, 0) if where == "diagonal" else (0, 5)
    q[row, col] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(q)
    with pytest.raises(np.linalg.LinAlgError):
        spectral_radius(q)
