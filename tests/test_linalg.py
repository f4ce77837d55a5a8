import numpy as np
import pytest

from muown.linalg import (
    nuclear_norm,
    row_norms,
    svd,
    vec_l1,
)

from conftest import frobenius_norm, orthonormal_rows, proj_radial


class TestRowNorms:
    def test_axis_aligned(self):
        a = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert np.array_equal(row_norms(a), [3.0, 4.0])

    def test_zero_matrix(self):
        assert np.array_equal(row_norms(np.zeros((2, 2))), [0.0, 0.0])

    def test_matches_diag_aat_loop_oracle(self, rng):
        a = rng.standard_normal((5, 7))
        # independent oracle: diag(A A^T) by explicit loops, then sqrt
        expected = np.empty(5)
        for i in range(5):
            s = 0.0
            for j in range(7):
                s += a[i, j] * a[i, j]
            expected[i] = np.sqrt(s)
        assert np.allclose(row_norms(a), expected, rtol=1e-14, atol=0)


class TestDiagScaleRows:
    """Diag(v) @ D, which the package writes as v[:, None] * D."""

    def test_row_norms_of_scaled_unit_rows(self, rng):
        d = rng.standard_normal((5, 7))
        d /= row_norms(d)[:, None]
        v = rng.standard_normal(5) * 3.0
        out = row_norms(v[:, None] * d)
        assert np.allclose(out, np.abs(v), rtol=1e-12, atol=0)


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        assert np.allclose(s, 1.0, rtol=0, atol=1e-14)

    def test_permuted_diagonal(self):
        _, s, _ = svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(s, [2.0, 1.0], rtol=0, atol=1e-14)

    def test_reconstruction_and_orthogonality(self, rng):
        for shape in [(5, 3), (3, 5), (8, 8), (64, 64)]:
            a = rng.standard_normal(shape)
            u, s, v = svd(a)
            fro = frobenius_norm(a)
            assert frobenius_norm(a - u @ np.diag(s) @ v.T) <= 1e-10 * fro
            k = min(shape)
            assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
            assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-10
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


class TestScalarNorms:
    def test_nuclear_diagonal(self):
        assert nuclear_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0, rel=1e-14)

    def test_vector_norms(self):
        v = np.array([1.0, -2.0])
        assert vec_l1(v) == 3.0

    def test_nuclear_dominates_frobenius(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            assert nuclear_norm(a) >= frobenius_norm(a) - 1e-12

    def test_nuclear_equals_frobenius_iff_rank_one(self, rng):
        rank1 = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        assert nuclear_norm(rank1) == pytest.approx(frobenius_norm(rank1), rel=1e-12)
        full = rng.standard_normal((4, 4))
        assert nuclear_norm(full) > frobenius_norm(full) * (1 + 1e-6)

    def test_norm_ordering_invariant(self, rng):
        # spectral <= frobenius <= nuclear over a seeded corpus
        for i in range(100):
            m, n = rng.integers(1, 12, size=2)
            a = rng.standard_normal((m, n))
            s = np.linalg.svd(a, compute_uv=False)
            spec, fro, nuc = s[0], frobenius_norm(a), float(np.sum(s))
            assert spec <= fro + 1e-12 * fro
            assert fro <= nuc + 1e-12 * nuc


class TestProjRadial:
    def test_full_radial_component(self, rng):
        x = orthonormal_rows(rng, 3, 5)
        assert np.max(np.abs(proj_radial(x, x))) <= 1e-12

    def test_orthogonal_rows_unchanged(self):
        x = np.array([[1.0, 0.0]])
        a = np.array([[0.0, 2.5]])
        assert np.array_equal(proj_radial(a, x), a)

    def test_rowwise_orthogonality_and_idempotence(self, rng):
        a = rng.standard_normal((4, 6))
        d = rng.standard_normal((4, 6))
        d /= row_norms(d)[:, None]
        out = proj_radial(a, d)
        assert np.max(np.abs(np.sum(out * d, axis=1))) <= 1e-12 * np.max(row_norms(a))
        again = proj_radial(out, d)
        assert np.allclose(again, out, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proj_radial(np.ones((2, 2)), np.ones((2, 3)))
