"""Encoder/decoder contracts, loss closed forms, and the KL schedule."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    InlineHelper,
    allocating_decoder_heads,
    interleaved_gru_backward,
    interleaved_gru_forward,
    random_roll,
    reference_gru_backward,
    reference_gru_forward,
)
from ttvae import cores
from ttvae.errors import InvalidInputError
from ttvae.evaluation import decode_hardened
from ttvae.pianoroll import N_STEPS
from ttvae.vae import losses, network
from ttvae.vae import (
    DecoderOutput,
    ModelConfig,
    Posterior,
    TensionVae,
    beta_schedule,
    forward_backward,
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
        post = model.encode(random_roll(rng)[None])
        np.testing.assert_array_equal(post.mu, np.zeros((1, 4)))
        np.testing.assert_array_equal(post.logvar, np.zeros((1, 4)))

    def test_deterministic_across_runs(self, rng):
        roll = random_roll(rng)[None]
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
        a = model.encode(roll[None])
        b = model.encode(changed[None])
        assert np.abs(a.mu - b.mu).max() > 0

    def test_batch_shape(self, rng):
        model = tiny_model()
        batch = np.stack([random_roll(rng) for _ in range(3)])
        post = model.encode(batch)
        assert post.mu.shape == (3, 4)
        single = model.encode(batch[1:2])
        assert single.mu.shape == (1, 4)
        np.testing.assert_array_equal(single.mu[0], post.mu[1])

    def test_bad_shape_rejected(self):
        # a single roll is refused too: encode takes non-empty stacks only
        for shape in [(10, 89), (64, 89), (0, 64, 89)]:
            with pytest.raises(InvalidInputError):
                tiny_model().encode(np.zeros(shape))

    def test_logvar_clamped(self, rng):
        model = tiny_model()
        model.params["enc.logvar.b"][...] = 50.0
        post = model.encode(random_roll(rng)[None])
        assert post.logvar.max() <= 10.0


def _gru_stack(rng, layers, in_dim=5, h_dim=6):
    params = []
    for i in range(layers):
        fan_in = in_dim if i == 0 else h_dim
        params.append((rng.normal(0, 0.6, (fan_in, 3 * h_dim)),
                       rng.normal(0, 0.6, (h_dim, 3 * h_dim)),
                       rng.normal(0, 0.3, 3 * h_dim)))
    return params


def _cached_layer(x, w, u, b):
    """``gru_layer_forward`` writing its gates and states into buffers of
    its own, as into a training forward's cache views, and the same layer
    without them; asserts both give the same states."""
    batch, steps, _ = x.shape
    h_dim = u.shape[0]
    states, cache = network.gru_layer_forward(
        x, w, u, b, np.empty((steps, 3, batch, h_dim), dtype=x.dtype),
        np.empty((steps, batch, h_dim), dtype=x.dtype))
    free, no_cache = network.gru_layer_forward(x, w, u, b)
    assert no_cache is None
    np.testing.assert_array_equal(free, states)
    return states, cache


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
            seq_ours, cache = _cached_layer(seq_ours, w, u, b)
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

    @pytest.mark.parametrize("broadcast", [False, True])
    def test_skipped_input_gradient_leaves_weight_gradients(self, rng, broadcast):
        x = rng.standard_normal((3, 1 if broadcast else 7, 5))
        if broadcast:
            x = np.broadcast_to(x, (3, 7, 5))
        (w, u, b), = _gru_stack(rng, 1)
        states, cache = _cached_layer(x, w, u, b)
        d_states = rng.standard_normal(states.shape)
        full = network.gru_layer_backward(d_states, None, cache)
        lean = network.gru_layer_backward(d_states, None, cache, input_grad=False)
        assert full[0] is not None and lean[0] is None
        for g, r in zip(lean[1:], full[1:]):
            np.testing.assert_array_equal(g, r)

    def test_encoder_skips_the_roll_gradient(self, rng, monkeypatch):
        skipped = []
        real = network.gru_layer_backward

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            skipped.append(out[0] is None)
            return out

        monkeypatch.setattr(network, "gru_layer_backward", spy)
        model = tiny_model()
        x = np.stack([random_roll(rng) for _ in range(2)]).astype(np.float32)
        posterior, cache = network.encoder_forward(model.params, TINY, x)
        network.encoder_backward(model.params, TINY, cache, np.ones_like(posterior.mu),
                                 np.ones_like(posterior.logvar), {})
        assert skipped == [False, True]  # gru1, then gru0

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
        monkeypatch.setattr(network, "gru_layer_forward", lambda x, w, u, b, *out: forward(
            np.ascontiguousarray(x), w, u, b, *out))
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


def _float32_layer(rng, in_dim, h_dim):
    return ((rng.standard_normal((in_dim, 3 * h_dim)) * in_dim ** -0.5).astype(np.float32),
            (rng.standard_normal((h_dim, 3 * h_dim)) * h_dim ** -0.5).astype(np.float32),
            (rng.standard_normal(3 * h_dim) * 0.1).astype(np.float32))


def _assert_same_layer(x, w, u, b, rng):
    """States, with and without a cache, and all four gradients bitwise
    equal to the interleaved layer."""
    states, cache = _cached_layer(x, w, u, b)
    ref_states, ref_cache = interleaved_gru_forward(x, w, u, b)
    np.testing.assert_array_equal(states, ref_states)
    d_states = rng.standard_normal(states.shape).astype(np.float32)
    d_last = rng.standard_normal(states[:, -1].shape).astype(np.float32)
    got = network.gru_layer_backward(d_states, d_last, cache)
    want = interleaved_gru_backward(d_states, d_last, ref_cache)
    for g, r in zip(got, want):
        assert g.dtype == r.dtype
        np.testing.assert_array_equal(g, r)


class TestBitwiseReference:
    """The gate-outer GRU and the in-place heads round exactly as the
    interleaved, allocating versions kept in ``helpers`` do."""

    @pytest.mark.parametrize("in_dim", [16, 89, 96, 256])
    @pytest.mark.parametrize("h_dim", [8, 128, 256])
    @pytest.mark.parametrize("batch", [1, 4, 24, 64, 256])
    def test_gru_layer(self, rng, batch, h_dim, in_dim):
        x = rng.standard_normal((batch, N_STEPS, in_dim)).astype(np.float32)
        _assert_same_layer(x, *_float32_layer(rng, in_dim, h_dim), rng)

    @pytest.mark.parametrize("in_dim", [16, 96])
    @pytest.mark.parametrize("h_dim", [8, 128, 256])
    @pytest.mark.parametrize("batch", [1, 4, 24, 64, 256])
    def test_gru_layer_stride_zero_input(self, rng, batch, h_dim, in_dim):
        z = rng.standard_normal((batch, 1, in_dim)).astype(np.float32)
        x = np.broadcast_to(z, (batch, N_STEPS, in_dim))
        assert x.strides[1] == 0
        _assert_same_layer(x, *_float32_layer(rng, in_dim, h_dim), rng)

    @pytest.mark.parametrize("h_dim", [8, 128, 256])
    @pytest.mark.parametrize("batch", [1, 4, 24, 64, 256])
    def test_decoder_heads(self, rng, batch, h_dim):
        cfg = ModelConfig(latent_dim=16, hidden=h_dim, gru_layers=1, rng_seed=3)
        params = init_params(cfg, rng)
        for value in params.values():  # give the zero-initialized biases values
            value += rng.normal(0, 0.1, value.shape).astype(np.float32)
        z = rng.standard_normal((batch, 16)).astype(np.float32)
        out, cache = network.decoder_forward(params, cfg, z)
        ref_out, ref_hidden = allocating_decoder_heads(params, cache["flat_h"], batch)
        for name, _, _ in network.HEAD_SPECS:
            np.testing.assert_array_equal(getattr(out, name), ref_out[name])
            np.testing.assert_array_equal(cache["heads"][name], ref_hidden[name])


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
        out = model.decode(np.zeros((1, 4)))
        np.testing.assert_allclose(out.melody_pitch, np.full((1, 64, 74), 1 / 74),
                                   atol=1e-7)
        np.testing.assert_allclose(out.bass_pitch, np.full((1, 64, 13), 1 / 13),
                                   atol=1e-7)
        np.testing.assert_allclose(out.melody_onset, np.full((1, 64), 0.5),
                                   atol=1e-7)
        np.testing.assert_array_equal(out.tensile, np.zeros((1, 64)))

    def test_rows_normalized_for_random_params(self, rng):
        model = tiny_model(seed=11)
        out = model.decode(rng.standard_normal((1, 4)))
        np.testing.assert_allclose(out.melody_pitch.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.bass_pitch.sum(axis=-1), 1.0, atol=1e-6)
        assert ((out.melody_onset > 0) & (out.melody_onset < 1)).all()

    def test_deterministic(self, rng):
        z = rng.standard_normal((1, 4))
        a = tiny_model().decode(z)
        b = tiny_model().decode(z)
        np.testing.assert_array_equal(a.melody_pitch, b.melody_pitch)
        np.testing.assert_array_equal(a.diameter, b.diameter)

    def test_dimension_mismatch_rejected(self):
        # a single code is refused too: decode takes stacks only
        for shape in [(1, 7), (4,)]:
            with pytest.raises(InvalidInputError):
                tiny_model().decode(np.zeros(shape))


class TestRowRule:
    """A roll's code from ``TensionVae.encode`` and a latent's outputs from
    ``decode_hardened`` are the same bits in every call that holds them: of
    one row or many, in any order, whatever the other rows are.  A one-row
    matmul goes through gemv and rounds differently, which the model's
    64-row encoder blocks and two-copy decode of one latent keep out.  The
    test fails on a BLAS that computes a row of a fixed-shape block
    differently with the rows around it.  The rule holds only for hidden and
    latent sizes up to ``cores.ROW_EXACT_WIDTH`` (448): past it OpenBLAS
    rounds a row by its block, e.g. ``(M, 512) @ (512, 512)`` at M = 2, 3,
    so the models here stay within it."""

    @pytest.fixture(scope="class", params=[(128, 16), (256, 96), (24, 8)],
                    ids=str)
    def model(self, request):
        hidden, latent_dim = request.param
        return TensionVae.initialize(ModelConfig(
            latent_dim=latent_dim, hidden=hidden, gru_layers=2, rng_seed=9))

    @staticmethod
    def assert_rows(got, want, what):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (
                f"{what}: a row differs from the same row in another call")

    def test_encode(self, model):
        rng = np.random.default_rng(model.cfg.hidden)
        rolls = np.stack([random_roll(rng) for _ in range(200)])
        others = np.stack([random_roll(rng) for _ in range(200)])
        want = model.encode(rolls).mu
        for n in (1, 2, 64, 65, 200):
            self.assert_rows(model.encode(rolls[:n]).mu, want[:n],
                             f"{n}-row encode")
        for i in (5, 64, 199):
            self.assert_rows(model.encode(rolls[i:i + 1]).mu, want[i:i + 1],
                             f"1-row encode of row {i}")
        order = rng.permutation(200)
        self.assert_rows(model.encode(rolls[order]).mu, want[order],
                         "permuted encode")
        kept = rng.random(200) < 0.3
        mixed = np.where(kept[:, None, None], rolls, others)
        self.assert_rows(model.encode(mixed).mu[kept], want[kept],
                         "encode among replaced rows")

    def test_decode_hardened(self, model):
        z = sample_latent(257, model.cfg.latent_dim, 3).astype(model.dtype)
        want = decode_hardened(model, z)
        for n in (1, 2, 3, 256, 257):
            for got, column in zip(decode_hardened(model, z[:n]), want):
                self.assert_rows(got, column[:n], f"{n}-row decode")
        for i in (7, 256):
            for got, column in zip(decode_hardened(model, z[i:i + 1]), want):
                self.assert_rows(got, column[i:i + 1],
                                 f"1-row decode of row {i}")


HEAD_FIELDS = ("melody_pitch", "melody_onset", "bass_pitch", "bass_onset",
               "tensile", "diameter")


class TestCacheFreeInference:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("hidden", [8, 128])
    @pytest.mark.parametrize("batch", [1, 4, 256])
    def test_equals_the_caching_forward(self, rng, batch, hidden, layers):
        cfg = ModelConfig(latent_dim=16, hidden=hidden, gru_layers=layers,
                          rng_seed=5)
        params = TensionVae.initialize(cfg).params
        x = np.stack([random_roll(rng) for _ in range(batch)]).astype(np.float32)
        kept, cache = network.encoder_forward(params, cfg, x)
        free, no_cache = network.encoder_forward(params, cfg, x, keep_cache=False)
        assert cache is not None and no_cache is None
        np.testing.assert_array_equal(free.mu, kept.mu)
        np.testing.assert_array_equal(free.logvar, kept.logvar)
        z = rng.standard_normal((batch, 16)).astype(np.float32)
        kept, cache = network.decoder_forward(params, cfg, z)
        free, no_cache = network.decoder_forward(params, cfg, z, keep_cache=False)
        assert cache is not None and no_cache is None
        for field in HEAD_FIELDS:
            np.testing.assert_array_equal(getattr(free, field),
                                          getattr(kept, field))

    @staticmethod
    def traced_peak(call, stack):
        call(stack[:2])  # warm up: first-call allocations are not the layer's
        tracemalloc.start()
        try:
            call(stack)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_decode_of_256_stays_under_34_mib(self):
        model = TensionVae.initialize(
            ModelConfig(latent_dim=16, hidden=128, gru_layers=2, rng_seed=1))
        z = np.random.default_rng(0).standard_normal((256, 16))
        # about 126 MiB with a cache, 33.2 without
        assert self.traced_peak(model.decode, z) <= 34 * 2**20

    def test_encode_of_64_stays_under_10_mib(self, rng):
        model = TensionVae.initialize(
            ModelConfig(latent_dim=16, hidden=128, gru_layers=2, rng_seed=1))
        rolls = np.stack([random_roll(rng) for _ in range(64)])
        # 9.75 MiB: the float32 rolls, one layer's projection buffer and
        # the compact states of the layer below
        assert self.traced_peak(model.encode, rolls) <= 10 * 2**20


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
        out = model.decode(rng.standard_normal((1, 4)))
        post = model.encode(roll[None])
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


class TestMemoryBudget:
    def test_counts_parameters_and_one_batch_of_activations(self):
        params = init_params(TINY, np.random.default_rng(0))
        activations = TINY.batch_size * N_STEPS * TINY.hidden
        assert TINY.memory_bytes() == 4 * (
            sum(p.size for p in params.values()) + activations)
        assert ModelConfig().memory_bytes() < 12_000_000  # the paper default

    def test_refused_past_the_budget(self):
        from ttvae.vae.config import MEMORY_BUDGET_BYTES
        per_row = 4 * N_STEPS * 256
        fits = (MEMORY_BUDGET_BYTES - ModelConfig(batch_size=1).memory_bytes()
                ) // per_row + 1
        assert ModelConfig(batch_size=fits).memory_bytes() <= MEMORY_BUDGET_BYTES
        with pytest.raises(InvalidInputError, match="budget"):
            ModelConfig(batch_size=fits + 1)
        with pytest.raises(InvalidInputError, match="gru_layers"):
            ModelConfig(gru_layers=10**9)


def _step_inputs(cfg, seed=7):
    """Seeded parameters (biases nonzero) and one batch for ``forward_backward``."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for value in params.values():
        value += rng.normal(0, 0.05, value.shape).astype(np.float32)
    batch = cfg.batch_size
    rolls = np.stack([random_roll(rng) for _ in range(batch)]).astype(np.float32)
    tensile, diameter = rng.uniform(0, 2, (2, batch, N_STEPS))
    noise = rng.standard_normal((batch, cfg.latent_dim))
    return params, cfg, rolls, tensile, diameter, noise, 0.05


class RecordingHelper:
    """The real helper, each task slowed by ``delay`` seconds; records every
    future and how many tasks are running."""

    def __init__(self, delay=0.0):
        self.pool = cores.helper()
        self.delay = delay
        self.futures = []
        self.calls = []  # (fn, args) of every submit
        self.running = 0
        self.lock = threading.Lock()

    def submit(self, fn, *args):
        self.calls.append((fn, args))

        def run():
            with self.lock:
                self.running += 1
            try:
                time.sleep(self.delay)
                return fn(*args)
            finally:
                with self.lock:
                    self.running -= 1
        future = self.pool.submit(run)
        self.futures.append(future)
        return future


class TestSplitBackward:
    """``forward_backward`` runs its weight gradients on the helper thread."""

    @pytest.mark.parametrize("cfg", [
        ModelConfig(latent_dim=16, hidden=128, gru_layers=2, batch_size=4),   # acceptance
        ModelConfig(latent_dim=96, hidden=256, gru_layers=2, batch_size=64),  # paper default
        ModelConfig(latent_dim=4, hidden=8, gru_layers=2, batch_size=4),
        ModelConfig(latent_dim=8, hidden=24, gru_layers=1, batch_size=8),
        ModelConfig(latent_dim=6, hidden=24, gru_layers=3, batch_size=5),
    ], ids=["acceptance", "paper", "hidden8", "hidden24", "hidden24x3"])
    def test_gradients_equal_the_helper_inlined(self, cfg, monkeypatch):
        inputs = _step_inputs(cfg)
        threaded = [forward_backward(*inputs) for _ in range(2)]
        monkeypatch.setattr(cores, "helper", InlineHelper)
        breakdown, inline = forward_backward(*inputs)
        for got_breakdown, got in threaded:
            assert got_breakdown == breakdown
            assert list(got) == list(inline)
            assert sorted(got) == sorted(network.param_shapes(cfg))
            for name in inline:
                assert got[name].dtype == inline[name].dtype
                np.testing.assert_array_equal(got[name], inline[name])

    def test_gradients_equal_direct_backward_calls(self, monkeypatch):
        """The step, halved or not, equals a whole-batch forward and the
        backward passes called on one thread."""
        for cfg in (TINY,
                    ModelConfig(latent_dim=96, hidden=256, gru_layers=2, batch_size=64),
                    # the smallest batches the split rule halves at hidden 128 and 24
                    ModelConfig(latent_dim=16, hidden=128, gru_layers=2, batch_size=64),
                    ModelConfig(latent_dim=8, hidden=24, gru_layers=1, batch_size=1821)):
            assert cores.splits(cfg.batch_size, cfg.hidden, cfg.latent_dim) \
                == (cfg is not TINY)
            self.assert_step_equals_direct_calls(monkeypatch, *_step_inputs(cfg))

    @staticmethod
    def assert_step_equals_direct_calls(monkeypatch, params, cfg, rolls, tensile,
                                        diameter, noise, beta):
        _, got = forward_backward(params, cfg, rolls, tensile, diameter, noise, beta)
        x, noise = rolls.astype(np.float32), noise.astype(np.float32)
        # the reference forward runs the whole batch as one block, and on one
        # BLAS thread, as in the step: at some shapes BLAS's own threads
        # round a weight gradient differently
        with monkeypatch.context() as patch, cores.one_blas_thread():
            patch.setattr(cores, "splits", lambda *sizes: False)
            posterior, enc_cache = network.encoder_forward(params, cfg, x)
            out, dec_cache = network.decoder_forward(
                params, cfg, reparameterize(posterior, noise))
            d_logits = losses._head_logit_gradients(
                out, x, tensile.astype(np.float32), diameter.astype(np.float32))
            want = {}
            dz = network.decoder_backward(params, cfg, dec_cache, d_logits, want)
            d_mu = dz + (beta / len(x)) * posterior.mu
            d_logvar = (dz * noise * 0.5 * np.exp(0.5 * posterior.logvar)
                        + (beta / len(x)) * 0.5 * (np.exp(posterior.logvar) - 1.0))
            network.encoder_backward(params, cfg, enc_cache, d_mu, d_logvar, want)
        assert list(got) == list(want), cfg
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (cfg, name)

    def test_concurrent_callers_share_the_helper(self, monkeypatch):
        cfg = ModelConfig(latent_dim=6, hidden=16, gru_layers=2, batch_size=3)
        inputs = [_step_inputs(cfg, seed) for seed in range(6)]
        results = [None] * 6
        together = threading.Barrier(6)

        def call(i):
            together.wait(timeout=60)
            results[i] = forward_backward(*inputs[i])

        before = set(threading.enumerate())
        callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(set(threading.enumerate()) - before) <= 1
        monkeypatch.setattr(cores, "helper", InlineHelper)
        for got, step in zip(results, inputs):
            breakdown, want = forward_backward(*step)
            assert got[0] == breakdown
            for name in want:
                np.testing.assert_array_equal(got[1][name], want[name])

    @pytest.mark.parametrize("where", ["helper task", "calling thread"])
    def test_error_comes_out_after_every_task(self, where, monkeypatch):
        # batch 64 at hidden 128 is past the split rule, so tasks are handed over
        inputs = _step_inputs(ModelConfig(latent_dim=16, hidden=128, gru_layers=2,
                                          batch_size=64))
        recorder = RecordingHelper(delay=0.02)
        before = set(threading.enumerate())
        if where == "helper task":
            real, calls = network._dense_grads, []

            def failing(*pairs):
                calls.append(1)
                if len(calls) == 2:
                    raise FloatingPointError("in a task")
                return real(*pairs)
            monkeypatch.setattr(network, "_dense_grads", failing)
        else:
            real, calls = network.gru_layer_backward, []

            def failing(*args, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    raise FloatingPointError("in the chain")
                return real(*args, **kwargs)
            monkeypatch.setattr(network, "gru_layer_backward", failing)
        monkeypatch.setattr(cores, "helper", lambda: recorder)
        with pytest.raises(FloatingPointError, match="in a task|in the chain"):
            forward_backward(*inputs)
        assert len(recorder.futures) >= 7  # six heads' tasks and a layer's at least
        assert recorder.running == 0
        assert all(future.done() for future in recorder.futures)
        assert len(set(threading.enumerate()) - before) <= 1
        monkeypatch.undo()
        forward_backward(*inputs)  # the helper still works after an error
        assert len(set(threading.enumerate()) - before) <= 1


class TestSplitRule:
    """``cores.splits`` decides, per section, whether rows go to the helper."""

    def test_below_the_rule_nothing_is_submitted(self, monkeypatch):
        cfg = ModelConfig(latent_dim=16, hidden=128, gru_layers=2, batch_size=63)
        assert not cores.splits(cfg.batch_size, cfg.hidden, cfg.latent_dim)
        recorder = RecordingHelper()
        monkeypatch.setattr(cores, "helper", lambda: recorder)
        forward_backward(*_step_inputs(cfg))
        model = TensionVae.initialize(cfg)
        decode_hardened(model, sample_latent(63, 16, 1).astype(model.dtype))
        assert recorder.futures == []

    def test_above_the_rule_each_forward_section_hands_over_one_half(
            self, monkeypatch):
        cfg = ModelConfig(latent_dim=16, hidden=128, gru_layers=2, batch_size=64)
        assert cores.splits(cfg.batch_size, cfg.hidden, cfg.latent_dim)
        recorder = RecordingHelper()
        monkeypatch.setattr(cores, "helper", lambda: recorder)
        forward_backward(*_step_inputs(cfg))
        halves = [args for fn, args in recorder.calls if fn is not losses._run_once]
        assert halves == [(slice(32, 64),), (slice(32, 64),)]  # encoder, decoder
        # the weight tasks: six heads, the encoder heads and four GRU layers
        assert len(recorder.calls) - len(halves) == 11
        model = TensionVae.initialize(cfg)
        recorder.calls.clear()
        decode_hardened(model, sample_latent(65, 16, 1).astype(model.dtype))
        assert [args for _, args in recorder.calls] == [(slice(33, 65),)]

    def test_evaluate_batch_equals_the_whole_batch(self, monkeypatch):
        cfg = ModelConfig(latent_dim=16, hidden=128, gru_layers=2, batch_size=72)
        params, _, rolls, tensile, diameter, _, beta = _step_inputs(cfg)
        assert cores.splits(len(rolls), cfg.hidden, cfg.latent_dim)
        recorder = RecordingHelper()
        monkeypatch.setattr(cores, "helper", lambda: recorder)
        split = losses.evaluate_batch(params, cfg, rolls, tensile, diameter, beta)
        assert [args for _, args in recorder.calls] == [(slice(36, 72),)]
        monkeypatch.setattr(cores, "splits", lambda *sizes: False)
        whole = losses.evaluate_batch(params, cfg, rolls, tensile, diameter, beta)
        assert len(recorder.futures) == 1
        assert split[0] == whole[0]
        for field in HEAD_FIELDS:
            assert getattr(split[1], field).tobytes() == getattr(whole[1], field).tobytes()
