"""Acceptance suite: each test checks one exit criterion at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from muown.diagnostics import (
    effective_rank,
    noise_coefficients,
    spectral_decomposition,
    zeta_constants,
)
from muown.harness import ExperimentConfig, preset_rate_check, run_preset
from muown.linalg import (
    nuclear_norm,
    row_norms,
    singular_values,
)
from muown.models import (
    Param,
    ParamSet,
    loss_and_grad,
    make_model,
    quadratic_spec,
)
from muown.optimizers import (
    HyperParams,
    init_layers,
    init_muon,
    init_muown,
    init_muown_fixed,
    init_muown_signum,
    muown_fixed_step,
    muown_signum_step,
    step_all,
)
from muown.orthogonalize import NSConfig, newton_schulz, polar_exact
from muown.reparam import grad_R, grad_g, init_view, recompose
from muown.shardsim import make_plan, run_sharded

from conftest import (
    bitwise_equal,
    frobenius_norm,
    matrix_with_condition,
    orthonormal_rows,
    with_value,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_01_spectral_decomposition_identity():
    with criterion("01 spectral-norm decomposition identity"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1001)
        shapes = [(2, 2), (3, 5), (5, 3), (8, 8), (16, 24), (24, 16),
                  (32, 32), (64, 64), (48, 64), (7, 11)]
        for i in range(500):
            m, n = shapes[i % len(shapes)]
            w = rng.standard_normal((m, n))
            rep = spectral_decomposition(w)
            assert rep.residual <= 1e-8, (i, rep.residual)
            assert rep.coherence >= 1.0 - 1e-9, (i, rep.coherence)
        # orthonormal-row constructions: coherence collapses to 1
        for i in range(20):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(m, 12))
            q = orthonormal_rows(rng, m, n)
            g = 0.5 + rng.random(m) * 3.0
            rep = spectral_decomposition(g[:, None] * q)
            assert abs(rep.coherence - 1.0) <= 1e-9, i
            assert np.sqrt(rep.rowscale_sq * rep.coherence) == pytest.approx(
                g.max(), rel=1e-9)
        # one row, one column, and tied singular values
        edges = {"1x7": rng.standard_normal((1, 7)), "6x1": rng.standard_normal((6, 1)),
                 "2I": 2.0 * np.eye(4), "diag(2,2,1,1)": np.diag([2.0, 2.0, 1.0, 1.0]),
                 "scaled orthonormal rows": 1.7 * orthonormal_rows(rng, 3, 5)}
        for name, w in edges.items():
            rep = spectral_decomposition(w)
            assert rep.residual <= 1e-8, (name, rep.residual)
            assert rep.coherence >= 1.0 - 1e-9, (name, rep.coherence)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _probe_model(rng, spec, params, batch, param_name, probes):
    """Directional finite-difference probes of the reparameterized loss."""
    value = params[param_name].value
    view = init_view(value)

    def composite_loss(g_vec, r_mat):
        w = recompose(g_vec, r_mat)[0]
        loss, _ = loss_and_grad(spec, with_value(params, param_name, w), batch)
        return loss

    _, grads = loss_and_grad(spec, params, batch)
    grad_w = grads[[p.name for p in params].index(param_name)]
    gg = grad_g(grad_w, view.D)
    gr = grad_R(grad_w, view.g, view.r, view.D)
    checked = 0
    for _ in range(probes // 2):
        # magnitude direction
        dg = rng.standard_normal(view.g.shape[0])
        h = 1e-5 * (1.0 + float(np.max(np.abs(view.g))))
        fd = (composite_loss(view.g + h * dg, view.R)
              - composite_loss(view.g - h * dg, view.R)) / (2.0 * h)
        analytic = float(gg @ dg)
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1e-8), param_name
        # direction perturbation
        dr = rng.standard_normal(view.R.shape)
        h = 1e-5 * (1.0 + float(np.max(np.abs(view.R))))
        fd = (composite_loss(view.g, view.R + h * dr)
              - composite_loss(view.g, view.R - h * dr)) / (2.0 * h)
        analytic = float(np.sum(gr * dr))
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1e-8), param_name
        checked += 2
    return checked


def test_02_reparameterized_gradients_vs_finite_differences():
    with criterion("02 reparameterized gradients match finite differences"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2002)

        target = rng.standard_normal((4, 5))
        spec_q = quadratic_spec(target)
        params_q = ParamSet([Param("W", rng.standard_normal((4, 5)))])
        n = _probe_model(rng, spec_q, params_q, None, "W", probes=60)
        assert n >= 50

        spec_l, params_l, batches_l = make_model("logistic", {"features": 5},
                                                 seed=21, num_batches=2, batch_size=12)
        n = _probe_model(rng, spec_l, params_l, batches_l[0], "w", probes=60)
        assert n >= 50

        spec_m, params_m, batches_m = make_model(
            "mlp2", {"d_in": 5, "hidden": 7, "d_out": 3}, seed=22,
            num_batches=2, batch_size=10)
        n = _probe_model(rng, spec_m, params_m, batches_m[0], "W1", probes=30)
        n += _probe_model(rng, spec_m, params_m, batches_m[0], "W2", probes=30)
        assert n >= 50

        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_03_deterministic_rate_bound():
    with criterion("03 deterministic convergence bound and split descent"):
        t0 = time.monotonic()
        cfg = ExperimentConfig(preset="rate-check", rate_horizons=(100, 400, 1600))
        verdict = preset_rate_check(cfg, None)
        assert verdict["pass"], verdict["assertions"]
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_04_step_geometry_invariants():
    with criterion("04 step-geometry norms (sign and spectral steps)"):
        rng = np.random.default_rng(4004)
        eta, gamma = 0.04, 0.015
        hp = HyperParams(eta=eta, gamma=gamma, beta1=0.9, backend="polar")
        st = init_muown_signum(rng.standard_normal((5, 7)))
        for _ in range(100):
            prev_g = st.g
            prev_r = (st.r / st.g)[:, None] * st.param
            st = muown_signum_step(st, rng.standard_normal((5, 7)), hp)
            new_r = (st.r / st.g)[:, None] * st.param
            dg = np.max(np.abs(st.g - prev_g))
            assert dg <= gamma * (1.0 + 1e-12)
            if np.all(st.m != 0.0):
                assert dg == pytest.approx(gamma, rel=1e-12)
            step_norm = singular_values(new_r - prev_r)[0]
            assert step_norm == pytest.approx(eta, rel=1e-9)
        # Newton-Schulz defaults keep the direction step within eta * 1.16
        hp_ns = HyperParams(eta=eta, gamma=gamma, beta1=0.9, backend="ns")
        st = init_muown_signum(rng.standard_normal((5, 7)))
        for _ in range(100):
            prev_r = (st.r / st.g)[:, None] * st.param
            st = muown_signum_step(st, rng.standard_normal((5, 7)), hp_ns)
            new_r = (st.r / st.g)[:, None] * st.param
            assert singular_values(new_r - prev_r)[0] <= eta * 1.16


def test_05_start_point_equivalence_and_frozen_magnitudes():
    with criterion("05 start-point equivalence; frozen magnitudes hold 500 steps"):
        rng = np.random.default_rng(5005)
        for _ in range(10):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            w0 = rng.standard_normal((m, n))
            assert bitwise_equal(init_muown(w0).param, init_muon(w0).param)
            assert bitwise_equal(init_muown_fixed(w0).param, init_muon(w0).param)
        hp = HyperParams(eta=0.02, backend="polar")
        st = init_muown_fixed(rng.standard_normal((6, 9)))
        g1 = st.g.copy()
        worst = 0.0
        for _ in range(500):
            st = muown_fixed_step(st, rng.standard_normal((6, 9)), hp)
            worst = max(worst, float(np.max(np.abs(row_norms(st.param) - g1) / g1)))
        assert worst <= 1e-10, worst
        assert bitwise_equal(st.g, g1)


def test_06_orthogonalization_quality():
    with criterion("06 polar pairing and Newton-Schulz band/pairing"):
        rng = np.random.default_rng(6006)
        for _ in range(50):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            g = rng.standard_normal((m, n))
            nuc = nuclear_norm(g)
            assert abs(np.sum(g * polar_exact(g)) - nuc) <= 1e-9 * nuc
        shapes = [(4, 4), (8, 8), (16, 16), (5, 8), (8, 5), (16, 32),
                  (32, 16), (64, 16), (12, 12), (64, 64)]
        cfg = NSConfig()  # default config
        for i in range(200):
            m, n = shapes[i % len(shapes)]
            cond = 10.0 ** rng.uniform(0.0, 4.0)
            g = matrix_with_condition(rng, m, n, cond)
            o = newton_schulz(g, cfg)
            s = singular_values(o)
            assert s.min() >= 0.68 and s.max() <= 1.16, (i, cond, s.min(), s.max())
            gn = g / frobenius_norm(g)
            exact_pairing = float(np.sum(gn * polar_exact(g)))
            assert float(np.sum(gn * o)) >= 0.95 * exact_pairing, (i, cond)


def test_07_noise_estimator_matches_straight_line_oracle():
    with criterion("07 noise coefficients match the straight-line oracle"):
        rng = np.random.default_rng(7007)
        for m, n in [(4, 9), (6, 4), (3, 3)]:
            w = rng.standard_normal((m, n))
            view = init_view(w)
            true = rng.standard_normal((m, n))
            samples = [true + 0.25 * rng.standard_normal((m, n)) for _ in range(8)]
            rep = noise_coefficients(true, samples, view)

            tg = grad_g(true, view.D)
            tr = grad_R(true, view.g, view.r, view.D)
            acc_w = acc_g = acc_r = 0.0
            for s in samples:
                acc_w += float(np.sum(np.linalg.svd(true - s, compute_uv=False))) ** 2
                acc_g += float(np.sum(np.abs(tg - grad_g(s, view.D)))) ** 2
                dev_r = tr - grad_R(s, view.g, view.r, view.D)
                acc_r += float(np.sum(np.linalg.svd(dev_r, compute_uv=False))) ** 2
            assert abs(rep.sigma_W - np.sqrt(acc_w / 8)) <= 1e-10
            assert abs(rep.sigma_g - np.sqrt(acc_g / 8)) <= 1e-10
            assert abs(rep.sigma_R - np.sqrt(acc_r / 8)) <= 1e-10
            zw, zg, zr = zeta_constants(m, n)
            assert zw == np.sqrt(min(m, n)) and zr == np.sqrt(min(m, n))
            assert zg == np.sqrt(m)
            assert rep.muon_coeff == zw * rep.sigma_W
            assert rep.muown_coeff == zg * rep.sigma_g + zr * rep.sigma_R


def test_08_sharded_execution_bitwise_equivalent():
    with criterion("08 replicated vs sharded execution bitwise identical"):
        dims = {"d_in": 5, "hidden": 6, "d_out": 3}
        hp = HyperParams(eta=0.02, backend="polar")

        def grads_for(spec, layers, batch):
            pset = ParamSet(Param(l.name, l.state.param) for l in layers)
            return loss_and_grad(spec, pset, batch)[1]

        for kind in ("muown", "muown_fixed", "muown_signum", "muon", "adamw",
                     "signum"):
            spec, params, batches = make_model("mlp2", dims, seed=8,
                                               num_batches=4, batch_size=6)
            replicated = init_layers(params.named_values(), matrix_kind=kind)
            sharded = {r: init_layers(params.named_values(), matrix_kind=kind)
                       for r in (1, 2, 3, 8)}
            plans = {r: make_plan(len(replicated), r) for r in sharded}
            traffic_per_rank = {}
            for t in range(50):
                batch = batches[t % len(batches)]
                replicated = step_all(replicated,
                                      grads_for(spec, replicated, batch), hp)
                for r in sharded:
                    sharded[r], traffic = run_sharded(
                        sharded[r], grads_for(spec, sharded[r], batch), hp,
                        plans[r])
                    traffic_per_rank[r] = traffic
            param_bytes = sum(8 * l.state.param.size for l in replicated)
            for r, layers in sharded.items():
                for a, b in zip(replicated, layers):
                    assert bitwise_equal(a.state.param, b.state.param), (kind, r)
                assert traffic_per_rank[r] == param_bytes, (kind, r)


def test_09_effective_rank_exact_cases_and_invariances():
    with criterion("09 effective rank exact values and invariances"):
        erank, normalized = effective_rank(np.ones(4))
        assert erank == 4.0 and normalized == 1.0
        erank, _ = effective_rank(np.array([1.0, 0.0, 0.0, 0.0]))
        assert erank == 1.0
        rng = np.random.default_rng(9009)
        for _ in range(25):
            sigma = np.abs(rng.standard_normal(7)) + 0.05
            base, _ = effective_rank(sigma)
            scaled, _ = effective_rank(np.pi * sigma)
            permuted, _ = effective_rank(sigma[rng.permutation(7)])
            assert abs(scaled - base) <= 1e-12 * base
            assert abs(permuted - base) <= 1e-12 * base


def test_10_preset_reruns_are_byte_identical(tmp_path):
    with criterion("10 determinism: byte-identical preset reruns"):
        cfg = ExperimentConfig(preset="drift", steps=30, log_every=3, seed=77)
        run_preset(cfg, str(tmp_path / "a"))
        run_preset(cfg, str(tmp_path / "b"))
        for variant in ("muon", "muown_fixed", "muown"):
            pa = (tmp_path / "a" / variant / "log.csv").read_bytes()
            pb = (tmp_path / "b" / variant / "log.csv").read_bytes()
            assert pa == pb, variant
        cfg2 = ExperimentConfig(preset="rate-check", rate_horizons=(100,))
        run_preset(cfg2, str(tmp_path / "c"))
        run_preset(cfg2, str(tmp_path / "d"))
        assert ((tmp_path / "c" / "log.csv").read_bytes()
                == (tmp_path / "d" / "log.csv").read_bytes())
