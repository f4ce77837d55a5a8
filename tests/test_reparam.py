import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muown.errors import NonFiniteError, ZeroRowError
from muown.linalg import row_norms
from muown.reparam import EPS_ROW, grad_R, grad_g, init_view, recompose, view_from_state

from conftest import bitwise_equal, orthonormal_rows, proj_radial


class TestInitView:
    def test_diagonal(self):
        view = init_view(np.array([[3.0, 0.0], [0.0, 4.0]]))
        assert np.array_equal(view.g, [3.0, 4.0])
        assert np.array_equal(view.D, np.eye(2))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError) as exc:
            init_view(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert exc.value.row == 1

    def test_round_trip_bitwise(self, rng):
        w = rng.standard_normal((4, 6))
        view = init_view(w)
        assert bitwise_equal(recompose(view.g, view.R)[0], w)

    def test_unit_rows(self, rng):
        view = init_view(rng.standard_normal((5, 3)))
        assert np.allclose(row_norms(view.D), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(view.r, row_norms(view.R), rtol=1e-12)


class TestRecompose:
    def test_identity_case(self, rng):
        r_mat = rng.standard_normal((3, 4))
        assert bitwise_equal(recompose(row_norms(r_mat), r_mat)[0], r_mat)

    def test_doubling(self, rng):
        r_mat = rng.standard_normal((3, 4))
        out = recompose(2.0 * row_norms(r_mat), r_mat)[0]
        assert np.allclose(out, 2.0 * r_mat, rtol=1e-15)

    def test_row_norms_match_magnitudes(self, rng):
        g = rng.standard_normal(5) * 3.0
        r_mat = rng.standard_normal((5, 7))
        out = recompose(g, r_mat)[0]
        assert np.allclose(row_norms(out), np.abs(g), rtol=1e-12)

    def test_negative_magnitude_flips_row(self):
        r_mat = np.array([[1.0, 0.0]])
        out = recompose(np.array([-2.0]), r_mat)[0]
        assert np.allclose(out, [[-2.0, 0.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError):
            recompose(np.ones(2), np.array([[1.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12), k=st.integers(-400, 400),
           kg=st.integers(-400, 400), seed=st.integers(0, 2**32 - 1),
           plant=st.sampled_from([None, "zero", "overflow"]), row=st.integers(0, 11))
    @example(m=4, n=3, k=0, kg=0, seed=0, plant="overflow", row=2)
    @example(m=4, n=3, k=0, kg=0, seed=0, plant="zero", row=3)
    def test_is_the_straight_line_formula(self, m, n, k, kg, seed, plant, row):
        """(W, r) bit for bit as written out below; a finite row whose squared norm
        overflows raises NonFiniteError, then a row at or below EPS_ROW ZeroRowError."""
        rng = np.random.default_rng(seed)
        big_r = np.ldexp(rng.standard_normal((m, n)), k)
        g = np.ldexp(rng.standard_normal(m), kg)
        row %= m
        if plant == "zero":
            big_r[row] = 0.0
        elif plant == "overflow":
            big_r[row] = 2.0 ** 600
        with np.errstate(all="ignore"):
            r0 = np.sqrt((big_r * big_r).sum(axis=1))
            if not np.isfinite(r0).all():
                with pytest.raises(NonFiniteError, match="carrier row norms"):
                    recompose(g, big_r)
            elif (r0 <= EPS_ROW).any():
                with pytest.raises(ZeroRowError) as err:
                    recompose(g, big_r)
                assert err.value.row == int(np.argmax(r0 <= EPS_ROW))
            else:
                w, r = recompose(g, big_r)
                assert bitwise_equal(r, r0)
                assert bitwise_equal(w, (g / r0)[:, None] * big_r)


class TestGradTransforms:
    def test_grad_g_unit_rows(self, rng):
        view = init_view(rng.standard_normal((4, 5)))
        assert np.allclose(grad_g(view.D, view.D), 1.0, rtol=0, atol=1e-12)

    def test_grad_g_orthogonal_row(self):
        d = np.array([[1.0, 0.0]])
        assert grad_g(np.array([[0.0, 7.0]]), d)[0] == 0.0

    def test_scalar_chain_rule(self):
        # 1x1 layer: W = w > 0 means D = 1 and grad_g = grad_W
        view = init_view(np.array([[2.0]]))
        assert grad_g(np.array([[0.37]]), view.D)[0] == pytest.approx(0.37)

    def test_grad_R_pure_radial_vanishes(self, rng):
        view = init_view(rng.standard_normal((3, 4)))
        out = grad_R(view.D, view.g, view.r, view.D)
        assert np.max(np.abs(out)) <= 1e-12

    def test_grad_R_rows_orthogonal_to_D(self, rng):
        view = init_view(rng.standard_normal((4, 6)))
        gw = rng.standard_normal((4, 6))
        out = grad_R(gw, view.g, view.r, view.D)
        assert np.max(np.abs(np.sum(out * view.D, axis=1))) <= 1e-12 * np.max(np.abs(gw))

    def test_grad_R_reduces_to_projection_when_g_equals_r(self, rng):
        view = init_view(rng.standard_normal((4, 6)))  # g = r at init
        gw = rng.standard_normal((4, 6))
        assert bitwise_equal(grad_R(gw, view.g, view.r, view.D),
                             proj_radial(gw, view.D))


def _layout(a, how):
    if how == "F":
        return np.asfortranarray(a)
    if how == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return np.ascontiguousarray(a)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 40),
       how=st.sampled_from(["C", "F", "strided"]), scale=st.integers(-60, 60))
def test_split_is_the_textbook_pair_bitwise(seed, m, n, how, scale):
    """split = (grad_g(dW, D), Diag(g/r) Proj_D(dW)) to the bit, at any layout and scale."""
    rng = np.random.default_rng(seed)
    w = 2.0 ** scale * rng.standard_normal((m, n))
    g = 2.0 ** scale * rng.standard_normal(m)  # signed
    view = view_from_state(w, g, 2.0 ** -scale * rng.uniform(0.5, 2.0, m))
    dw = _layout(2.0 ** scale * rng.standard_normal((m, n)), how)
    gg, gr = view.split(dw)
    assert bitwise_equal(gg, grad_g(dw, view.D))
    assert bitwise_equal(gr, (view.g / view.r)[:, None] * proj_radial(dw, view.D))


def _test_loss(a, w):
    """Smooth scalar loss <A, W> + 0.5||W||_F^2 with known gradient A + W."""
    return float(np.sum(a * w) + 0.5 * np.sum(w * w))


class TestChainRule:
    def test_directional_derivatives_match_fd(self, rng):
        """Composite check over 50 random (loss, point, direction) triples, then
        over 1 x n, m x 1 and tied-singular-value points."""
        h = 1e-5

        def check(w, trial):
            m, n = w.shape
            view = init_view(w)
            a = rng.standard_normal((m, n))
            gg, gr = view.split(a + recompose(view.g, view.R)[0])
            dg = rng.standard_normal(m)
            dr = rng.standard_normal((m, n))
            analytic = float(gg @ dg + np.sum(gr * dr))
            lp = _test_loss(a, recompose(view.g + h * dg, view.R + h * dr)[0])
            lm = _test_loss(a, recompose(view.g - h * dg, view.R - h * dr)[0])
            fd = (lp - lm) / (2.0 * h)
            assert fd == pytest.approx(analytic, rel=1e-5), trial

        for trial in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 6))
            check(rng.standard_normal((m, n)) + 0.1 * np.sign(rng.standard_normal((m, n))),
                  trial)
        edges = {"1x5": rng.standard_normal((1, 5)), "4x1": rng.standard_normal((4, 1)),
                 "2I": 2.0 * np.eye(3), "diag(2,2,1,1)": np.diag([2.0, 2.0, 1.0, 1.0]),
                 "scaled orthonormal rows": 1.7 * orthonormal_rows(rng, 3, 5)}
        for name, w in edges.items():
            check(w, name)

    def test_grad_R_matches_per_coordinate_fd(self, rng):
        """Central difference on every entry of R for a 3x2 layer."""
        h = 1e-5
        w = rng.standard_normal((3, 2)) + 0.2
        view = init_view(w)
        a = rng.standard_normal((3, 2))
        grad_w = a + recompose(view.g, view.R)[0]
        gr = grad_R(grad_w, view.g, view.r, view.D)
        for i in range(3):
            for j in range(2):
                e = np.zeros((3, 2))
                e[i, j] = 1.0
                lp = _test_loss(a, recompose(view.g, view.R + h * e)[0])
                lm = _test_loss(a, recompose(view.g, view.R - h * e)[0])
                fd = (lp - lm) / (2.0 * h)
                assert fd == pytest.approx(gr[i, j], rel=1e-6, abs=1e-9)


class TestScaleDisjointness:
    def test_uniform_rescale_moves_only_magnitudes(self, rng):
        w = rng.standard_normal((4, 5))
        view = init_view(w)
        scaled = recompose(3.0 * view.g, view.R)[0]
        assert np.allclose(scaled, 3.0 * w, rtol=1e-14)

    def test_view_from_state_uses_cached_row_norms(self, rng):
        w = rng.standard_normal((3, 4))
        base = init_view(w)
        # carrier rescaled state: same W, same g, different cached r
        r_alt = 2.0 * base.r
        view = view_from_state(w, base.g, r_alt)
        assert np.allclose(row_norms(view.R), r_alt, rtol=1e-12)
        assert np.allclose(view.D, base.D, rtol=1e-12)
