import numpy as np
import pytest

from muown.diagnostics import (
    dual_norm,
    effective_rank,
    noise_coefficients,
    spectral_decomposition,
    zeta_constants,
)
from muown.errors import ZeroRowError
from muown.linalg import nuclear_norm, row_norms, singular_values
from muown.reparam import grad_R, grad_g, init_view

from conftest import frobenius_norm, orthonormal_rows


class TestSpectralDecomposition:
    def test_orthonormal_rows_collapse_to_row_scale(self, rng):
        q = orthonormal_rows(rng, 3, 6)
        w = np.array([3.0, 4.0, 2.0])[:, None] * q
        rep = spectral_decomposition(w)
        assert rep.coherence == pytest.approx(1.0, abs=1e-9)
        assert np.sqrt(rep.rowscale_sq * rep.coherence) == pytest.approx(4.0, rel=1e-9)

    def test_all_ones_2x2(self):
        rep = spectral_decomposition(np.ones((2, 2)))
        # g = (sqrt2, sqrt2), C all-ones, p = (1,1), lambda_max = 2 => ||W|| = 2
        assert rep.rowscale_sq == pytest.approx(2.0, rel=1e-12)
        assert rep.coherence == pytest.approx(2.0, rel=1e-12)
        assert np.sqrt(rep.spectral_sq_direct) == pytest.approx(2.0, rel=1e-12)
        assert rep.residual <= 1e-12

    def test_residual_small_on_random(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(m, 12))
            rep = spectral_decomposition(rng.standard_normal((m, n)))
            assert rep.residual <= 1e-8
            assert rep.coherence >= 1.0 - 1e-9

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError):
            spectral_decomposition(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_uniform_rescale_leaves_coherence(self, rng):
        w = rng.standard_normal((5, 7))
        a = spectral_decomposition(w)
        b = spectral_decomposition(6.0 * w)
        assert b.coherence == pytest.approx(a.coherence, abs=1e-10)
        assert b.rowscale_sq == pytest.approx(36.0 * a.rowscale_sq, rel=1e-12)

    def test_signed_magnitudes_counted_not_distorting(self, rng):
        w = rng.standard_normal((4, 5))
        g = row_norms(w)
        g_signed = g * np.array([1.0, -1.0, 1.0, -1.0])
        w_signed = np.sign(g_signed)[:, None] * w  # rows flipped to match g's signs
        a = spectral_decomposition(w)
        b = spectral_decomposition(w_signed, g=g_signed)
        assert b.coherence == pytest.approx(a.coherence, rel=1e-10)
        assert b.rowscale_sq == pytest.approx(a.rowscale_sq, rel=1e-12)

    def test_given_singular_values_give_the_same_report(self, rng):
        for shape in ((4, 5), (7, 3), (1, 6)):
            w = rng.standard_normal(shape)
            assert (spectral_decomposition(w, sigma=singular_values(w))
                    == spectral_decomposition(w))


class TestEffectiveRank:
    def test_uniform_spectrum(self):
        erank, normalized = effective_rank(np.ones(4))
        assert erank == pytest.approx(4.0, abs=1e-12)
        assert normalized == pytest.approx(1.0, abs=1e-13)

    def test_rank_one(self):
        erank, _ = effective_rank(np.array([1.0, 0.0, 0.0, 0.0]))
        assert erank == 1.0

    def test_against_high_precision_entropy_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        sigma = [2.0, 1.0, 1.0]
        total = mpmath.mpf(4)
        expected = mpmath.e ** (
            -sum((mpmath.mpf(s) / total) * mpmath.log(mpmath.mpf(s) / total)
                 for s in sigma))
        erank, _ = effective_rank(np.array(sigma))
        assert erank == pytest.approx(float(expected), rel=1e-13)

    def test_scale_and_permutation_invariance(self, rng):
        sigma = np.abs(rng.standard_normal(6)) + 0.1
        base, _ = effective_rank(sigma)
        scaled, _ = effective_rank(37.0 * sigma)
        permuted, _ = effective_rank(sigma[rng.permutation(6)])
        assert scaled == pytest.approx(base, rel=1e-12)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_bounds(self, rng):
        sigma = np.abs(rng.standard_normal(8)) + 0.01
        erank, normalized = effective_rank(sigma)
        assert 1.0 - 1e-12 <= erank <= 8.0 + 1e-12
        assert normalized <= 1.0 + 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.zeros(3))


class TestDualNorm:
    def test_hand_example(self):
        assert dual_norm(np.array([1.0, -2.0]), np.diag([3.0, 4.0])) == pytest.approx(10.0)

    def test_zero(self):
        assert dual_norm(np.zeros(2), np.zeros((2, 2))) == 0.0

    def test_dominates_l2_frobenius(self, rng):
        for _ in range(20):
            g = rng.standard_normal(5)
            r = rng.standard_normal((5, 4))
            assert dual_norm(g, r) >= np.linalg.norm(g) + frobenius_norm(r) - 1e-12

    def test_is_a_norm(self, rng):
        for _ in range(20):
            g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
            r1, r2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
            lhs = dual_norm(g1 + g2, r1 + r2)
            assert lhs <= dual_norm(g1, r1) + dual_norm(g2, r2) + 1e-10
            c = -2.7
            assert dual_norm(c * g1, c * r1) == pytest.approx(abs(c) * dual_norm(g1, r1),
                                                              rel=1e-10)


class TestZetaConstants:
    def test_paper_values(self):
        assert zeta_constants(4, 9) == (2.0, 2.0, 2.0)
        assert zeta_constants(1, 1) == (1.0, 1.0, 1.0)

    def test_l1_l2_bound_sampled(self, rng):
        m = 7
        _, zeta_g, _ = zeta_constants(m, 3)
        ratios = []
        for _ in range(1000):
            v = rng.standard_normal(m)
            ratios.append(np.sum(np.abs(v)) / np.linalg.norm(v))
        assert max(ratios) <= zeta_g + 1e-12
        ones_ratio = np.sum(np.ones(m)) / np.linalg.norm(np.ones(m))
        assert ones_ratio == pytest.approx(zeta_g, rel=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            zeta_constants(0, 3)


class TestNoiseCoefficients:
    def test_zero_variance(self, rng):
        w = rng.standard_normal((3, 4))
        view = init_view(w)
        true = rng.standard_normal((3, 4))
        rep = noise_coefficients(true, [true.copy(), true.copy()], view)
        assert rep.sigma_W == rep.sigma_g == rep.sigma_R == 0.0
        assert rep.muon_coeff == rep.muown_coeff == 0.0

    def test_two_point_perturbation(self, rng):
        w = rng.standard_normal((3, 4))
        view = init_view(w)
        true = rng.standard_normal((3, 4))
        e = rng.standard_normal((3, 4))
        rep = noise_coefficients(true, [true + e, true - e], view)
        assert rep.sigma_W == pytest.approx(nuclear_norm(e), rel=1e-12)

    def test_matches_straight_line_oracle(self, rng):
        w = rng.standard_normal((4, 9))
        view = init_view(w)
        true = rng.standard_normal((4, 9))
        samples = [true + 0.3 * rng.standard_normal((4, 9)) for _ in range(8)]
        rep = noise_coefficients(true, samples, view)

        # independent straight-line recomputation with explicit loops
        acc_w = acc_g = acc_r = 0.0
        tg = grad_g(true, view.D)
        tr = grad_R(true, view.g, view.r, view.D)
        for s in samples:
            dev_w = true - s
            acc_w += float(np.sum(singular_values(dev_w))) ** 2
            dev_g = tg - grad_g(s, view.D)
            acc_g += float(np.sum(np.abs(dev_g))) ** 2
            dev_r = tr - grad_R(s, view.g, view.r, view.D)
            acc_r += float(np.sum(singular_values(dev_r))) ** 2
        sw = np.sqrt(acc_w / 8)
        sg = np.sqrt(acc_g / 8)
        sr = np.sqrt(acc_r / 8)
        assert rep.sigma_W == pytest.approx(sw, abs=1e-10)
        assert rep.sigma_g == pytest.approx(sg, abs=1e-10)
        assert rep.sigma_R == pytest.approx(sr, abs=1e-10)
        assert rep.muon_coeff == pytest.approx(2.0 * sw, rel=1e-12)  # zeta_W = sqrt(min(4, 9))
        assert rep.muown_coeff == pytest.approx(2.0 * sg + 2.0 * sr, rel=1e-12)

    def test_matches_oracle_on_real_minibatch_gradients(self):
        from muown.models import full_dataset_gradient, loss_and_grad, make_model
        spec, params, batches = make_model(
            "mlp2", {"d_in": 4, "hidden": 6, "d_out": 2}, seed=17,
            num_batches=8, batch_size=4)
        _, true_grads = full_dataset_gradient(spec, params, batches)
        w1_idx = list(params).index("W1")
        samples = [loss_and_grad(spec, params, b)[1][w1_idx] for b in batches]
        view = init_view(params["W1"])
        rep = noise_coefficients(true_grads[w1_idx], samples, view)

        tg = grad_g(true_grads[w1_idx], view.D)
        tr = grad_R(true_grads[w1_idx], view.g, view.r, view.D)
        acc_w = acc_g = acc_r = 0.0
        for s in samples:
            acc_w += float(np.sum(singular_values(true_grads[w1_idx] - s))) ** 2
            acc_g += float(np.sum(np.abs(tg - grad_g(s, view.D)))) ** 2
            dev = tr - grad_R(s, view.g, view.r, view.D)
            acc_r += float(np.sum(singular_values(dev))) ** 2
        assert rep.sigma_W == pytest.approx(np.sqrt(acc_w / 8), abs=1e-10)
        assert rep.sigma_g == pytest.approx(np.sqrt(acc_g / 8), abs=1e-10)
        assert rep.sigma_R == pytest.approx(np.sqrt(acc_r / 8), abs=1e-10)

    def test_too_few_samples(self, rng):
        w = rng.standard_normal((2, 2))
        with pytest.raises(ValueError):
            noise_coefficients(w, [w], init_view(w))

    def test_shape_mismatch(self, rng):
        w = rng.standard_normal((2, 2))
        with pytest.raises(ValueError):
            noise_coefficients(w, [w, rng.standard_normal((3, 2))], init_view(w))

