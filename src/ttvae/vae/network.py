"""Recurrent VAE forward and backward passes, written directly in NumPy.

Architecture: a stack of GRU layers reads the 64x89 roll; the top layer's
final hidden state feeds two affine heads (posterior mean and log-variance).
The latent code is repeated across 64 steps into a second GRU stack whose
per-step states drive six two-layer dense heads: softmax melody/bass pitch,
logistic melody/bass onsets, and linear tensile-strain/cloud-diameter
predictions.

GRU gates follow the classic formulation: update u, reset r, candidate
c = tanh(W x + U (r * h) + b), new state h' = u * h + (1 - u) * c.  Packed
weight matrices hold the three gates side by side in (update, reset,
candidate) order, so the update and reset gates take one recurrent matmul
``h @ U[:, :2h]`` per step (and one ``d @ U[:, :2h].T`` backward).  The
bias is folded into the input projection once per layer call.  Gate
buffers, caches and states are time-major ``(steps, batch, .)`` so every
step works on contiguous slices in place; a layer hands the next one a
``(batch, steps, .)`` view of its states, and the decoder heads read one
batch-major copy of the top layer's.  The decoder's repeated latent is a
stride-0 broadcast, which a GRU layer projects through ``W`` once, and whose
input gradient it returns summed over the steps, shape ``(batch, 1, .)``.
Every backward pass here is hand-derived and verified against central
finite differences (see ``gradcheck``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, NumericFailureError
from ..pianoroll import N_FEATURES, N_STEPS
from .config import ModelConfig

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
PROB_FLOOR = 1e-10

# (name, output width, activation); softmax heads emit per-step rows.
HEAD_SPECS = (
    ("melody_pitch", 74, "softmax"),
    ("melody_onset", 1, "sigmoid"),
    ("bass_pitch", 13, "softmax"),
    ("bass_onset", 1, "sigmoid"),
    ("tensile", 1, "linear"),
    ("diameter", 1, "linear"),
)


@dataclass
class Posterior:
    """Diagonal-Gaussian posterior; arrays are (latent,) or (batch, latent)."""

    mu: np.ndarray
    logvar: np.ndarray


@dataclass
class DecoderOutput:
    """The six head outputs; leading batch axis present iff the input had one."""

    melody_pitch: np.ndarray   # (..., 64, 74) rows sum to 1
    melody_onset: np.ndarray   # (..., 64) in (0, 1)
    bass_pitch: np.ndarray     # (..., 64, 13) rows sum to 1
    bass_onset: np.ndarray     # (..., 64) in (0, 1)
    tensile: np.ndarray        # (..., 64)
    diameter: np.ndarray       # (..., 64)


def _sigmoid(x):
    """Logistic function in place, as 0.5 * tanh(0.5 * x) + 0.5; returns x."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _orthogonal(rng, rows, cols, dtype):
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a if rows >= cols else a.T)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(dtype)


def _glorot(rng, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Fresh parameter tensors; recurrent kernels start orthogonal per gate."""
    h, latent = cfg.hidden, cfg.latent_dim
    params: dict[str, np.ndarray] = {}

    def gru(prefix: str, input_dim: int) -> None:
        params[f"{prefix}.w"] = _glorot(rng, input_dim, 3 * h, dtype)
        params[f"{prefix}.u"] = np.concatenate(
            [_orthogonal(rng, h, h, dtype) for _ in range(3)], axis=1)
        params[f"{prefix}.b"] = np.zeros(3 * h, dtype=dtype)

    def dense(prefix: str, fan_in: int, fan_out: int) -> None:
        params[f"{prefix}.w"] = _glorot(rng, fan_in, fan_out, dtype)
        params[f"{prefix}.b"] = np.zeros(fan_out, dtype=dtype)

    for i in range(cfg.gru_layers):
        gru(f"enc.gru{i}", N_FEATURES if i == 0 else h)
    dense("enc.mu", h, latent)
    dense("enc.logvar", h, latent)
    for i in range(cfg.gru_layers):
        gru(f"dec.gru{i}", latent if i == 0 else h)
    for name, width, _ in HEAD_SPECS:
        dense(f"dec.head.{name}.l1", h, h)
        dense(f"dec.head.{name}.l2", h, width)
    return params


def _check_finite(array: np.ndarray, context: str) -> None:
    if not np.isfinite(array).all():
        raise NumericFailureError("non-finite activations", context)


def _rows(seq: np.ndarray) -> np.ndarray:
    """(batch, steps, n) -> time-major rows (steps * batch, n).

    A view when ``seq`` is the batch-major view of a time-major array, as
    the GRU states and input gradients are; a copy otherwise.
    """
    batch, steps, width = seq.shape
    return seq.transpose(1, 0, 2).reshape(steps * batch, width)


def _seq(rows: np.ndarray, batch: int) -> np.ndarray:
    """Time-major rows (steps * batch, n) -> (batch, steps, n) view."""
    return rows.reshape(-1, batch, rows.shape[-1]).transpose(1, 0, 2)


def gru_layer_forward(x: np.ndarray, w: np.ndarray, u: np.ndarray,
                      b: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run one GRU layer over (batch, steps, input); returns states + cache.

    The states come back as a (batch, steps, hidden) view of a time-major
    buffer.  An input whose step stride is 0 (one vector repeated over the
    steps) is projected through ``w`` once.
    """
    batch, steps, _ = x.shape
    h_dim = u.shape[0]
    two = 2 * h_dim
    u_gates, u_cand = u[:, :two], u[:, two:]
    gates = np.empty((steps, batch, 3 * h_dim), dtype=x.dtype)
    if x.strides[1] == 0:
        proj = np.broadcast_to(x[:, 0] @ w + b, gates.shape)
    else:
        np.matmul(_rows(x), w, out=gates.reshape(steps * batch, -1))
        gates += b
        proj = gates
    reset_h = np.empty((steps, batch, h_dim), dtype=x.dtype)
    states = np.empty((steps, batch, h_dim), dtype=x.dtype)
    h = np.zeros((batch, h_dim), dtype=x.dtype)
    rec_gates = np.empty((batch, two), dtype=x.dtype)
    rec_cand = np.empty((batch, h_dim), dtype=x.dtype)
    for t in range(steps):
        g, p = gates[t], proj[t]
        np.add(p[:, :two], np.matmul(h, u_gates, out=rec_gates), out=g[:, :two])
        _sigmoid(g[:, :two])
        update, reset, cand = g[:, :h_dim], g[:, h_dim:two], g[:, two:]
        np.multiply(reset, h, out=reset_h[t])
        np.add(p[:, two:], np.matmul(reset_h[t], u_cand, out=rec_cand), out=cand)
        np.tanh(cand, out=cand)
        h_new = np.multiply(update, h, out=states[t])
        h_new += (1.0 - update) * cand
        h = h_new
    cache = {"x": x, "w": w, "u": u, "gates": gates, "reset_h": reset_h,
             "states": states}
    return _seq(states.reshape(steps * batch, h_dim), batch), cache


def gru_layer_backward(d_states: np.ndarray | None, d_last: np.ndarray | None,
                       cache: dict) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray]:
    """Backpropagate through one GRU layer.

    ``d_states`` carries gradients on every per-step output (None for
    none); ``d_last`` an optional extra gradient on the final state.
    Returns (d_input, dw, du, db); ``d_input`` has one step when the input
    had step stride 0, and is then the gradient summed over the steps.
    """
    x, w, u = cache["x"], cache["w"], cache["u"]
    gates, reset_h, states = cache["gates"], cache["reset_h"], cache["states"]
    steps, batch, h_dim = states.shape
    two = 2 * h_dim
    u_gates_t = np.ascontiguousarray(u[:, :two].T)
    u_cand_t = np.ascontiguousarray(u[:, two:].T)
    d_tm = None if d_states is None else d_states.transpose(1, 0, 2)
    d_gates = np.empty_like(gates)
    h_zero = np.zeros((batch, h_dim), dtype=x.dtype)
    dh = h_zero.copy() if d_last is None else d_last.copy()
    for t in range(steps - 1, -1, -1):
        if d_tm is not None:
            dh += d_tm[t]
        h_prev = states[t - 1] if t else h_zero
        g, d = gates[t], d_gates[t]
        update, reset, cand = g[:, :h_dim], g[:, h_dim:two], g[:, two:]
        d_update = dh * (h_prev - cand)
        d_pre_cand = np.multiply(dh * (1.0 - update), 1.0 - cand * cand,
                                 out=d[:, two:])
        dh_prev = dh * update
        d_reset_h = d_pre_cand @ u_cand_t
        d_reset = d_reset_h * h_prev
        dh_prev += d_reset_h * reset
        d_pre_update = np.multiply(d_update, update, out=d[:, :h_dim])
        d_pre_update *= 1.0 - update
        d_pre_reset = np.multiply(d_reset, reset, out=d[:, h_dim:two])
        d_pre_reset *= 1.0 - reset
        dh_prev += d[:, :two] @ u_gates_t
        dh = dh_prev

    rows = steps * batch
    flat_gates = d_gates.reshape(rows, 3 * h_dim)
    du = np.empty_like(u)
    # h_prev at step 0 is zero, so its term drops out of the update/reset sum
    du[:, :two] = (states[:-1].reshape(rows - batch, h_dim).T
                   @ flat_gates[batch:, :two])
    du[:, two:] = reset_h.reshape(rows, h_dim).T @ flat_gates[:, two:]
    if x.strides[1] == 0:
        d_proj = d_gates.sum(axis=0)
        dw = x[:, 0].T @ d_proj
        db = d_proj.sum(axis=0)
        d_input = (d_proj @ w.T)[:, None, :]
    else:
        dw = _rows(x).T @ flat_gates
        db = flat_gates.sum(axis=0)
        d_input = _seq(flat_gates @ w.T, batch)
    return d_input, dw, du, db


def encoder_forward(params: dict, cfg: ModelConfig,
                    x: np.ndarray) -> tuple[Posterior, dict]:
    """Roll batch (batch, 64, 89) -> posterior; cache for backward."""
    h_seq = x
    layer_caches = []
    for i in range(cfg.gru_layers):
        h_seq, cache = gru_layer_forward(
            h_seq, params[f"enc.gru{i}.w"], params[f"enc.gru{i}.u"],
            params[f"enc.gru{i}.b"])
        _check_finite(h_seq, f"encoder gru{i}")
        layer_caches.append(cache)
    h_last = h_seq[:, -1, :]
    mu = h_last @ params["enc.mu.w"] + params["enc.mu.b"]
    logvar_raw = h_last @ params["enc.logvar.w"] + params["enc.logvar.b"]
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    _check_finite(mu, "encoder mu head")
    cache = {
        "layers": layer_caches,
        "h_last": h_last,
        "clamp_mask": ((logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
                       ).astype(x.dtype),
    }
    return Posterior(mu=mu, logvar=logvar), cache


def encoder_backward(params: dict, cfg: ModelConfig, cache: dict,
                     d_mu: np.ndarray, d_logvar: np.ndarray,
                     grads: dict) -> None:
    d_logvar = d_logvar * cache["clamp_mask"]
    h_last = cache["h_last"]
    grads["enc.mu.w"] = h_last.T @ d_mu
    grads["enc.mu.b"] = d_mu.sum(axis=0)
    grads["enc.logvar.w"] = h_last.T @ d_logvar
    grads["enc.logvar.b"] = d_logvar.sum(axis=0)
    d_last = d_mu @ params["enc.mu.w"].T + d_logvar @ params["enc.logvar.w"].T
    d_seq = None
    for i in range(cfg.gru_layers - 1, -1, -1):
        d_seq, dw, du, db = gru_layer_backward(
            d_seq, d_last if i == cfg.gru_layers - 1 else None,
            cache["layers"][i])
        grads[f"enc.gru{i}.w"] = dw
        grads[f"enc.gru{i}.u"] = du
        grads[f"enc.gru{i}.b"] = db


def reparameterize(posterior: Posterior, noise: np.ndarray) -> np.ndarray:
    """Draw z = mu + exp(logvar / 2) * noise."""
    return posterior.mu + np.exp(0.5 * posterior.logvar) * noise


def decoder_forward(params: dict, cfg: ModelConfig,
                    z: np.ndarray) -> tuple[DecoderOutput, dict]:
    """Latent batch (batch, latent) -> six heads; cache for backward."""
    batch = z.shape[0]
    h_seq = np.broadcast_to(z[:, None, :], (batch, N_STEPS, z.shape[1]))
    layer_caches = []
    for i in range(cfg.gru_layers):
        h_seq, cache = gru_layer_forward(
            h_seq, params[f"dec.gru{i}.w"], params[f"dec.gru{i}.u"],
            params[f"dec.gru{i}.b"])
        _check_finite(h_seq, f"decoder gru{i}")
        layer_caches.append(cache)
    flat_h = h_seq.reshape(batch * N_STEPS, -1)

    outputs = {}
    head_caches = {}
    for name, width, activation in HEAD_SPECS:
        w1 = params[f"dec.head.{name}.l1.w"]
        b1 = params[f"dec.head.{name}.l1.b"]
        w2 = params[f"dec.head.{name}.l2.w"]
        b2 = params[f"dec.head.{name}.l2.b"]
        hidden = np.tanh(flat_h @ w1 + b1)
        logits = hidden @ w2 + b2
        if activation == "softmax":
            value = _softmax(logits).reshape(batch, N_STEPS, width)
        elif activation == "sigmoid":
            value = _sigmoid(logits).reshape(batch, N_STEPS)
        else:
            value = logits.reshape(batch, N_STEPS)
        _check_finite(value, f"decoder head {name}")
        outputs[name] = value
        head_caches[name] = hidden
    cache = {"layers": layer_caches, "flat_h": flat_h, "heads": head_caches,
             "latent_dim": z.shape[1]}
    return DecoderOutput(**outputs), cache


def decoder_backward(params: dict, cfg: ModelConfig, cache: dict,
                     d_logits: dict[str, np.ndarray],
                     grads: dict) -> np.ndarray:
    """Head logit gradients -> gradient on z (batch, latent)."""
    flat_h = cache["flat_h"]
    batch = d_logits["melody_pitch"].shape[0]
    d_flat_h = np.zeros_like(flat_h)
    for name, width, _ in HEAD_SPECS:
        dl = d_logits[name].reshape(flat_h.shape[0], width)
        hidden = cache["heads"][name]
        w1 = params[f"dec.head.{name}.l1.w"]
        w2 = params[f"dec.head.{name}.l2.w"]
        grads[f"dec.head.{name}.l2.w"] = hidden.T @ dl
        grads[f"dec.head.{name}.l2.b"] = dl.sum(axis=0)
        d_hidden = (dl @ w2.T) * (1.0 - hidden * hidden)
        grads[f"dec.head.{name}.l1.w"] = flat_h.T @ d_hidden
        grads[f"dec.head.{name}.l1.b"] = d_hidden.sum(axis=0)
        d_flat_h += d_hidden @ w1.T

    d_seq = d_flat_h.reshape(batch, N_STEPS, -1)
    for i in range(cfg.gru_layers - 1, -1, -1):
        d_seq, dw, du, db = gru_layer_backward(d_seq, None, cache["layers"][i])
        grads[f"dec.gru{i}.w"] = dw
        grads[f"dec.gru{i}.u"] = du
        grads[f"dec.gru{i}.b"] = db
    return d_seq.sum(axis=1)


def _as_batch(roll: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(roll)
    if arr.shape == (N_STEPS, N_FEATURES):
        return arr[None, ...], True
    if arr.ndim == 3 and arr.shape[1:] == (N_STEPS, N_FEATURES):
        return arr, False
    raise InvalidInputError(
        f"expected a ({N_STEPS}, {N_FEATURES}) roll or batch, got {arr.shape}")


class TensionVae:
    """Config + parameters with convenience entry points.

    ``encode``/``decode`` accept single examples or batches and mirror the
    shape on output.  All methods are pure with respect to the parameters.
    """

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int | None = None) -> "TensionVae":
        rng = np.random.default_rng(cfg.rng_seed if seed is None else seed)
        return cls(cfg, init_params(cfg, rng))

    @property
    def dtype(self):
        return self.params["enc.mu.w"].dtype

    def encode(self, roll: np.ndarray) -> Posterior:
        batch, squeeze = _as_batch(roll)
        posterior, _ = encoder_forward(self.params, self.cfg,
                                       batch.astype(self.dtype))
        if squeeze:
            return Posterior(mu=posterior.mu[0], logvar=posterior.logvar[0])
        return posterior

    def decode(self, z: np.ndarray) -> DecoderOutput:
        z = np.asarray(z, dtype=self.dtype)
        squeeze = z.ndim == 1
        if squeeze:
            z = z[None, :]
        if z.shape[1] != self.cfg.latent_dim:
            raise InvalidInputError(
                f"latent size {z.shape[1]} does not match model "
                f"latent_dim {self.cfg.latent_dim}")
        out, _ = decoder_forward(self.params, self.cfg, z)
        if squeeze:
            return DecoderOutput(*(getattr(out, f)[0] for f in (
                "melody_pitch", "melody_onset", "bass_pitch", "bass_onset",
                "tensile", "diameter")))
        return out


def sample_latent(n: int, latent_dim: int, rng_seed: int) -> np.ndarray:
    """Seeded i.i.d. standard-normal latent codes, shape (n, latent_dim)."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((n, latent_dim))
