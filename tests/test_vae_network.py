"""Encoder/decoder contracts, loss closed forms, and the KL schedule."""

import math

import numpy as np
import pytest

from helpers import random_roll, reference_gru_backward, reference_gru_forward
from ttvae.errors import InvalidInputError
from ttvae.vae import network
from ttvae.vae import (
    DecoderOutput,
    ModelConfig,
    Posterior,
    TensionVae,
    beta_schedule,
    init_params,
    kl_divergence,
    loss,
    reparameterize,
    sample_latent,
)

TINY = ModelConfig(latent_dim=4, hidden=8, gru_layers=2, batch_size=4, rng_seed=3)


def tiny_model(seed=3):
    return TensionVae.initialize(TINY, seed=seed)


def zeroed_model():
    model = tiny_model()
    for v in model.params.values():
        v[...] = 0.0
    return model


class TestEncode:
    def test_zero_weights_give_zero_posterior(self, rng):
        model = zeroed_model()
        post = model.encode(random_roll(rng))
        np.testing.assert_array_equal(post.mu, np.zeros(4))
        np.testing.assert_array_equal(post.logvar, np.zeros(4))

    def test_deterministic_across_runs(self, rng):
        roll = random_roll(rng)
        a = tiny_model().encode(roll)
        b = tiny_model().encode(roll)
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12, rtol=0)
        np.testing.assert_allclose(a.logvar, b.logvar, atol=1e-12, rtol=0)

    def test_sensitive_to_single_cell(self, rng):
        # Probe near the end of the sequence: a tiny 8-unit GRU can contract
        # a much earlier perturbation below float32 resolution.
        model = tiny_model()
        roll = random_roll(rng).astype(np.float32)
        changed = roll.copy()
        step = 60
        cols = np.flatnonzero(changed[step, :74])
        changed[step, cols[0]] = 0.0
        changed[step, (cols[0] + 1) % 74] = 1.0
        a = model.encode(roll)
        b = model.encode(changed)
        assert np.abs(a.mu - b.mu).max() > 0

    def test_batch_shape(self, rng):
        model = tiny_model()
        batch = np.stack([random_roll(rng) for _ in range(3)])
        post = model.encode(batch)
        assert post.mu.shape == (3, 4)
        single = model.encode(batch[1])
        np.testing.assert_allclose(single.mu, post.mu[1], atol=1e-6)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_model().encode(np.zeros((10, 89)))

    def test_logvar_clamped(self, rng):
        model = tiny_model()
        model.params["enc.logvar.b"][...] = 50.0
        post = model.encode(random_roll(rng))
        assert post.logvar.max() <= 10.0


def _gru_stack(rng, layers, in_dim=5, h_dim=6):
    params = []
    for i in range(layers):
        fan_in = in_dim if i == 0 else h_dim
        params.append((rng.normal(0, 0.6, (fan_in, 3 * h_dim)),
                       rng.normal(0, 0.6, (h_dim, 3 * h_dim)),
                       rng.normal(0, 0.3, 3 * h_dim)))
    return params


class TestGruLayer:
    """The GRU layer against a per-gate reference loop with batch-major caches."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_matches_reference(self, rng, layers, broadcast):
        batch, steps, in_dim = 3, 7, 5
        if broadcast:
            x = np.broadcast_to(rng.standard_normal((batch, 1, in_dim)),
                                (batch, steps, in_dim))
            assert x.strides[1] == 0
        else:
            x = rng.standard_normal((batch, steps, in_dim))
        stack = _gru_stack(rng, layers)
        ours, ref = [], []
        seq_ours, seq_ref = x, np.ascontiguousarray(x)
        for w, u, b in stack:
            seq_ours, cache = network.gru_layer_forward(seq_ours, w, u, b)
            seq_ref, ref_cache = reference_gru_forward(seq_ref, w, u, b)
            np.testing.assert_allclose(seq_ours, seq_ref, rtol=1e-5, atol=1e-12)
            ours.append(cache)
            ref.append(ref_cache)

        d_top = rng.standard_normal(seq_ref.shape)
        d_last = rng.standard_normal(seq_ref[:, -1].shape)
        d_ours, d_ref = d_top, d_top
        for i in range(layers - 1, -1, -1):
            last = d_last if i == layers - 1 else None
            got = network.gru_layer_backward(d_ours, last, ours[i])
            want = reference_gru_backward(d_ref, last, ref[i])
            d_ours, d_ref = got[0], want[0]
            if broadcast and i == 0:
                assert d_ours.shape == (batch, 1, in_dim)
                want = (want[0].sum(axis=1, keepdims=True),) + want[1:]
            for g, r in zip(got, want):
                assert g.shape == r.shape
                np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-12)

    def test_decoder_broadcast_equals_tiled_copy(self, rng, monkeypatch):
        cfg = ModelConfig(latent_dim=4, hidden=8, gru_layers=2, rng_seed=3)
        params = init_params(cfg, rng, dtype=np.float64)
        z = rng.standard_normal((3, 4))
        d_logits = {name: rng.standard_normal((3, 64, width) if width > 1
                                              else (3, 64))
                    for name, width, _ in network.HEAD_SPECS}

        def run():
            out, cache = network.decoder_forward(params, cfg, z)
            grads = {}
            dz = network.decoder_backward(params, cfg, cache, d_logits, grads)
            return out, dz, grads

        out_b, dz_b, grads_b = run()
        forward = network.gru_layer_forward
        monkeypatch.setattr(network, "gru_layer_forward", lambda x, w, u, b: forward(
            np.ascontiguousarray(x), w, u, b))
        out_t, dz_t, grads_t = run()
        for field in ("melody_pitch", "melody_onset", "bass_pitch", "bass_onset",
                      "tensile", "diameter"):
            np.testing.assert_allclose(getattr(out_b, field), getattr(out_t, field),
                                       rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dz_b, dz_t, rtol=1e-10, atol=1e-14)
        for name in grads_b:
            np.testing.assert_allclose(grads_b[name], grads_t[name],
                                       rtol=1e-10, atol=1e-14)

    def test_sigmoid_in_place_and_bounded(self):
        x = np.array([-800.0, -30.0, -1.0, 0.0, 2.5, 40.0, 800.0])
        expected = 1.0 / (1.0 + np.exp(-np.clip(x, -700, 700)))
        out = network._sigmoid(x)
        assert out is x
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        post = Posterior(mu=np.array([1.0, -2.0]), logvar=np.array([0.3, 0.7]))
        np.testing.assert_array_equal(reparameterize(post, np.zeros(2)), post.mu)

    def test_unit_sigma_shift(self):
        post = Posterior(mu=np.zeros(3), logvar=np.zeros(3))
        e1 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(reparameterize(post, e1), e1)

    def test_monte_carlo_mean(self, rng):
        mu = np.array([0.5, -1.5, 2.0])
        logvar = np.array([0.2, -0.4, 0.0])
        post = Posterior(mu=mu, logvar=logvar)
        draws = np.stack([reparameterize(post, rng.standard_normal(3))
                          for _ in range(10_000)])
        sigma = np.exp(logvar / 2)
        np.testing.assert_array_less(
            np.abs(draws.mean(axis=0) - mu), 3 * sigma / math.sqrt(10_000))


class TestDecode:
    def test_zero_weights_give_flat_heads(self):
        model = zeroed_model()
        out = model.decode(np.zeros(4))
        np.testing.assert_allclose(out.melody_pitch, np.full((64, 74), 1 / 74),
                                   atol=1e-7)
        np.testing.assert_allclose(out.bass_pitch, np.full((64, 13), 1 / 13),
                                   atol=1e-7)
        np.testing.assert_allclose(out.melody_onset, np.full(64, 0.5), atol=1e-7)
        np.testing.assert_array_equal(out.tensile, np.zeros(64))

    def test_rows_normalized_for_random_params(self, rng):
        model = tiny_model(seed=11)
        out = model.decode(rng.standard_normal(4))
        np.testing.assert_allclose(out.melody_pitch.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.bass_pitch.sum(axis=1), 1.0, atol=1e-6)
        assert ((out.melody_onset > 0) & (out.melody_onset < 1)).all()

    def test_deterministic(self, rng):
        z = rng.standard_normal(4)
        a = tiny_model().decode(z)
        b = tiny_model().decode(z)
        np.testing.assert_array_equal(a.melody_pitch, b.melody_pitch)
        np.testing.assert_array_equal(a.diameter, b.diameter)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            tiny_model().decode(np.zeros(7))


class TestKlDivergence:
    def test_standard_posterior_is_zero(self):
        post = Posterior(mu=np.zeros(5), logvar=np.zeros(5))
        assert kl_divergence(post) == 0.0

    def test_unit_mean_closed_form(self):
        post = Posterior(mu=np.array([1.0]), logvar=np.array([0.0]))
        assert kl_divergence(post) == pytest.approx(0.5)

    def test_nonnegative_over_random_posteriors(self, rng):
        for _ in range(300):
            post = Posterior(mu=rng.normal(0, 3, size=8),
                             logvar=rng.uniform(-6, 6, size=8))
            assert kl_divergence(post) >= 0.0

    def test_batch_is_mean_of_examples(self, rng):
        mu = rng.normal(size=(4, 6))
        logvar = rng.uniform(-2, 2, size=(4, 6))
        batched = kl_divergence(Posterior(mu=mu, logvar=logvar))
        singles = [kl_divergence(Posterior(mu=mu[i], logvar=logvar[i]))
                   for i in range(4)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)


def perfect_output(roll):
    return DecoderOutput(
        melody_pitch=roll[:, :74].astype(float),
        melody_onset=roll[:, 74].astype(float),
        bass_pitch=roll[:, 75:88].astype(float),
        bass_onset=roll[:, 88].astype(float),
        tensile=np.linspace(0.5, 1.5, 64),
        diameter=np.linspace(1.0, 2.0, 64),
    )


class TestLoss:
    def test_perfect_prediction_is_zero(self, rng):
        roll = random_roll(rng)
        out = perfect_output(roll)
        lb = loss(out, roll, out.tensile, out.diameter, beta=0.006)
        assert lb.melody_pitch == pytest.approx(0.0, abs=1e-9)
        assert lb.melody_rhythm == pytest.approx(0.0, abs=1e-9)
        assert lb.bass_pitch == pytest.approx(0.0, abs=1e-9)
        assert lb.bass_rhythm == pytest.approx(0.0, abs=1e-9)
        assert lb.tensile == 0.0 and lb.diameter == 0.0
        assert lb.total == pytest.approx(0.0, abs=1e-8)

    def test_uniform_melody_head_closed_form(self, rng):
        roll = random_roll(rng)
        out = perfect_output(roll)
        uniform = DecoderOutput(
            melody_pitch=np.full((64, 74), 1 / 74), melody_onset=out.melody_onset,
            bass_pitch=out.bass_pitch, bass_onset=out.bass_onset,
            tensile=out.tensile, diameter=out.diameter)
        lb = loss(uniform, roll, out.tensile, out.diameter, beta=0.0)
        assert lb.melody_pitch == pytest.approx(math.log(74), abs=1e-6)

    def test_constant_offset_mse(self, rng):
        roll = random_roll(rng)
        out = perfect_output(roll)
        shifted = DecoderOutput(
            melody_pitch=out.melody_pitch, melody_onset=out.melody_onset,
            bass_pitch=out.bass_pitch, bass_onset=out.bass_onset,
            tensile=out.tensile + 0.1, diameter=out.diameter)
        lb = loss(shifted, roll, out.tensile, out.diameter, beta=0.0)
        assert lb.tensile == pytest.approx(0.01, abs=1e-12)

    def test_total_matches_component_sum(self, rng):
        roll = random_roll(rng)
        model = tiny_model()
        out = model.decode(rng.standard_normal(4))
        post = model.encode(roll)
        lb = loss(out, roll, rng.uniform(0, 2, 64), rng.uniform(0, 2, 64),
                  beta=0.004, posterior=post)
        expected = (lb.melody_pitch + lb.melody_rhythm + lb.bass_pitch
                    + lb.bass_rhythm + lb.tensile + lb.diameter
                    + lb.beta * lb.kl)
        assert lb.total == expected

    def test_zero_probability_clamped(self, rng):
        roll = random_roll(rng)
        out = perfect_output(roll)
        hostile = np.full((64, 74), 1 / 73)
        target_cols = roll[:, :74].argmax(axis=1)
        hostile[np.arange(64), target_cols] = 0.0
        broken = DecoderOutput(
            melody_pitch=hostile, melody_onset=out.melody_onset,
            bass_pitch=out.bass_pitch, bass_onset=out.bass_onset,
            tensile=out.tensile, diameter=out.diameter)
        lb = loss(broken, roll, out.tensile, out.diameter, beta=0.0)
        assert lb.melody_pitch == pytest.approx(-math.log(1e-10))


class TestBetaSchedule:
    def test_starts_at_zero(self):
        assert beta_schedule(0) == 0.0

    def test_saturates_at_exact_batch(self):
        assert beta_schedule(12_000) == pytest.approx(0.006, abs=0)
        assert beta_schedule(11_999) < 0.006

    def test_clamped_beyond_saturation(self):
        assert beta_schedule(20_000) == 0.006

    def test_nondecreasing(self):
        values = [beta_schedule(i) for i in range(0, 20_000, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            beta_schedule(-1)


class TestSampleLatent:
    def test_shape_and_determinism(self):
        a = sample_latent(1, 96, rng_seed=5)
        assert a.shape == (1, 96)
        np.testing.assert_array_equal(a, sample_latent(1, 96, rng_seed=5))

    def test_clt_mean_bound(self):
        draws = sample_latent(10_000, 8, rng_seed=9)
        assert np.abs(draws.mean(axis=0)).max() < 0.05

    def test_n_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            sample_latent(0, 4, rng_seed=1)


class TestInitParams:
    def test_shapes_follow_config(self):
        params = init_params(TINY, np.random.default_rng(0))
        assert params["enc.gru0.w"].shape == (89, 24)
        assert params["enc.gru1.w"].shape == (8, 24)
        assert params["dec.gru0.w"].shape == (4, 24)
        assert params["enc.mu.w"].shape == (8, 4)
        assert params["dec.head.melody_pitch.l2.w"].shape == (8, 74)
        assert all(v.dtype == np.float32 for v in params.values())

    def test_recurrent_kernels_orthogonal(self):
        params = init_params(TINY, np.random.default_rng(0))
        u = params["enc.gru0.u"].astype(np.float64)
        for g in range(3):
            block = u[:, g * 8:(g + 1) * 8]
            np.testing.assert_allclose(block.T @ block, np.eye(8), atol=1e-5)
