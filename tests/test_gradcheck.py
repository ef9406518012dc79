"""Finite-difference verification of the analytic gradients."""

import time

import numpy as np
import pytest

from ttvae.errors import InvalidInputError
from ttvae.pianoroll import N_STEPS
from ttvae.vae import ModelConfig, forward_backward, gradient_check
from ttvae.vae.gradcheck import _sample_coordinates, synthetic_rolls
from ttvae.vae.network import init_params


def tiny_setup(seed=0, beta=0.004):
    cfg = ModelConfig(latent_dim=4, hidden=8, gru_layers=2, batch_size=3,
                      rng_seed=seed)
    rng = np.random.default_rng(seed)
    params = {k: v.astype(np.float64)
              for k, v in init_params(cfg, rng, dtype=np.float64).items()}
    rolls = synthetic_rolls(rng, 3)
    tensile = rng.uniform(0, 2, size=(3, N_STEPS))
    diameter = rng.uniform(0, 2, size=(3, N_STEPS))
    noise = rng.standard_normal((3, 4))
    return cfg, params, rolls, tensile, diameter, noise, beta


class TestGradientCheck:
    def test_max_relative_error_under_tolerance(self):
        result = gradient_check(n_weights=200, step=1e-4)
        assert result.n_checked >= 200
        assert result.max_rel_error < 1e-4

    def test_different_seed_still_passes(self):
        result = gradient_check(n_weights=200, step=1e-4, seed=12345)
        assert result.max_rel_error < 1e-4

    def test_non_finite_derivative_fails_naming_its_weight(self, monkeypatch):
        # a NaN never compares above the worst error, so it must count as
        # an infinite one
        from ttvae.vae import gradcheck

        def nan_gradient(*args, **kwargs):
            total, grads = forward_backward(*args, **kwargs)
            grads["dec.gru0.u"] = np.full_like(grads["dec.gru0.u"], np.nan)
            return total, grads

        monkeypatch.setattr(gradcheck, "forward_backward", nan_gradient)
        result = gradient_check(n_weights=200)
        assert result.max_rel_error == np.inf
        assert result.worst_tensor == "dec.gru0.u"
        assert np.isnan(result.worst_analytic)
        assert "dec.gru0.u" in result.summary()

    def test_more_weights_than_the_model_has_refused(self):
        _, params, *_ = tiny_setup()
        count = sum(p.size for p in params.values())
        began = time.perf_counter()
        with pytest.raises(InvalidInputError, match=f"model has {count}"):
            gradient_check(n_weights=count + 1)
        assert time.perf_counter() - began < 5

    def test_the_weight_count_samples_every_weight(self):
        _, params, *_ = tiny_setup()
        count = sum(p.size for p in params.values())
        coords = _sample_coordinates(params, count, np.random.default_rng(0))
        assert sorted(coords) == sorted(
            (name, index) for name in params
            for index in np.ndindex(params[name].shape))

    def test_synthetic_rolls_are_valid(self):
        from ttvae.pianoroll import validate_roll
        rolls = synthetic_rolls(np.random.default_rng(4), 5)
        for roll in rolls:
            validate_roll(roll.astype(np.uint8))


class TestGradientStructure:
    def test_matched_tension_targets_zero_head_gradients(self):
        # When the tension targets equal the model's own outputs, the MSE
        # terms sit at their minimum and their head gradients vanish.
        cfg, params, rolls, tensile, diameter, noise, beta = tiny_setup()
        from ttvae.vae.network import decoder_forward, encoder_forward, reparameterize
        posterior, _ = encoder_forward(params, cfg, rolls)
        z = reparameterize(posterior, noise)
        out, _ = decoder_forward(params, cfg, z)
        _, grads = forward_backward(params, cfg, rolls, out.tensile,
                                    out.diameter, noise, beta)
        np.testing.assert_allclose(
            grads["dec.head.tensile.l2.w"], 0.0, atol=1e-12)
        np.testing.assert_allclose(
            grads["dec.head.diameter.l1.w"], 0.0, atol=1e-12)

    def test_beta_difference_is_linear(self):
        # g(2b) - g(b) must equal g(b) - g(0): the KL enters linearly in beta.
        cfg, params, rolls, tensile, diameter, noise, _ = tiny_setup()

        def grads_at(beta):
            _, grads = forward_backward(params, cfg, rolls, tensile, diameter,
                                        noise, beta)
            return grads

        g0, g1, g2 = grads_at(0.0), grads_at(0.003), grads_at(0.006)
        for name in ("enc.mu.w", "enc.logvar.w", "enc.gru0.w"):
            np.testing.assert_allclose(g2[name] - g1[name], g1[name] - g0[name],
                                       atol=1e-12)

    def test_kl_gradient_absent_from_decoder(self):
        cfg, params, rolls, tensile, diameter, noise, _ = tiny_setup()
        _, g0 = forward_backward(params, cfg, rolls, tensile, diameter,
                                 noise, 0.0)
        _, g1 = forward_backward(params, cfg, rolls, tensile, diameter,
                                 noise, 0.006)
        np.testing.assert_allclose(g0["dec.gru0.w"], g1["dec.gru0.w"],
                                   atol=1e-15)
        assert np.abs(g0["enc.mu.w"] - g1["enc.mu.w"]).max() > 0
