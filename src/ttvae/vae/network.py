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
``h @ U[:, :2h]`` per step (and one ``d @ U[:, :2h].T`` backward).

Buffer layout of a layer call.  The input projection ``x W + b`` is one
matmul into an interleaved ``(steps, batch, 3h)`` buffer (a per-gate split
rounds differently at some widths, e.g. h = 8 or 24).  Step t adds the
recurrent products to its interleaved block, takes the tanh-form sigmoid,
the candidate tanh and h' = u * h + (1 - u) * c on contiguous ``(2, batch,
h)`` and ``(batch, h)`` scratch arrays allocated once per call.  A layer has
two buffer modes.  Handed views of a training forward's cache (below), it
copies (update, reset, candidate) to step t of the step-major ``(steps, 3,
batch, h)`` gate view, writes its states into the ``(steps, batch, h)``
state view, and projects into a temporary.  Without them it keeps one
buffer and no gates: step t writes its state over the first h columns of
its own projection block, which it has read, so the states are a view whose
rows lie 3h apart.  Only exact operations touch that view (a multiply, an
add, a matmul operand, whose row stride BLAS takes as its leading
dimension); ``tanh`` and ``exp`` keep contiguous operands, since NumPy's
SIMD and strided loops for them can round differently.  So both modes give
the same bits.  A repeated input projects into a ``(batch, 3h)`` buffer and
writes its states into a ``(steps, batch, h)`` buffer of their own.  The
cache keeps the gates and the states but not ``r * h``, which the backward
pass recomputes for ``dU`` from the same two factors.  The backward pass
reads ``gates[t]`` and keeps its gate gradients interleaved, ``(steps,
batch, 3h)``, so ``dW``, ``dU`` and the input gradient stay single matmuls
(a per-gate split of ``x.T @ d_gates`` also rounds differently).  States
are time-major ``(steps, batch, h)``; a layer hands the next one a
``(batch, steps, h)`` view of them (without a cache, of a compact copy),
and the decoder heads read one batch-major copy of the top layer's.  The
decoder's repeated latent is a stride-0 broadcast, which a GRU layer
projects through ``W`` once, and whose input gradient it returns summed
over the steps, shape ``(batch, 1, .)``.
Each head adds its biases and takes its tanh and its softmax in place on its
matmul outputs.  The tests hold the plain versions of the layer and the
heads, and require the results here to equal them bit for bit.

A forward with a cache allocates the whole-batch buffers first (each GRU
layer's gates and states, ``flat_h``, each head's hidden rows and the
outputs) and fills them from the row blocks of ``cores.by_rows``: the whole
batch on the calling thread, or two row halves on two threads where
``cores.splits`` says so.  A block runs its rows through the whole encoder
or decoder and writes into views of those buffers, so the cache and the
backward pass are the same whatever the blocks; where the rule halves a
batch, a row gets the same bits in either half as in the whole batch, so the
blocks move no output.  A forward without a cache runs its batch as one
block that allocates and frees its own buffers; a caller that splits
inference (``losses.evaluate_batch``, ``evaluation.decode_hardened``) does so
around it, one forward per half.

Each backward pass is split in two.  The input-gradient chain (the GRU
recurrence, a layer's input gradient, the heads' ``d_hidden`` and
``d_flat_h``) runs on the calling thread.  The weight gradients need nothing
more from it, so ``encoder_backward`` and ``decoder_backward`` hand each
layer's to ``put(names, fn, *args)``: at once into ``grads`` by default, on
the helper thread from ``losses.forward_backward``, overlapping the chain of
the next layer.  Either way each gradient is the same NumPy expression on
the same operands, so the same bits.  The backward passes consume their
cache's layers and heads, letting go of each once handed over.

Inference keeps no cache.  ``encoder_forward`` and ``decoder_forward`` take
``keep_cache=False`` from ``TensionVae`` and ``evaluate_batch``: the same
operations run in the same order, but each GRU layer keeps one buffer, a
layer below the top hands the next a compact copy of its states and lets
its projection buffer go before the next layer projects, the top layer's
buffer goes once the decoder heads' batch-major copy (or the encoder
heads' matmuls) have read it, and a head's hidden array once its second
matmul has.  So a decode holds at most one layer's ``3h``-wide buffer and
one ``h``-wide array of states at a time: 33.2 MiB traced for 256 rows at
hidden 128 (``scripts/inference_memory.py``), against about 126 with a
cache.  Every backward pass is hand-derived and verified against central
finite differences (see ``gradcheck``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, NumericFailureError
from ..pianoroll import N_FEATURES, N_STEPS
from .config import ModelConfig

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
PROB_FLOOR = 1e-10
ENCODE_BLOCK = 64  # rows of every encoder call of ``TensionVae.encode``

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
    """The six head outputs, of one example or with a leading batch axis."""

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
    """Softmax over the last axis in place; returns ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


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


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in initialization order."""
    h, latent = cfg.hidden, cfg.latent_dim
    shapes: dict[str, tuple[int, ...]] = {}

    def gru(prefix: str, input_dim: int) -> None:
        shapes.update({f"{prefix}.w": (input_dim, 3 * h),
                       f"{prefix}.u": (h, 3 * h), f"{prefix}.b": (3 * h,)})

    def dense(prefix: str, fan_in: int, fan_out: int) -> None:
        shapes.update({f"{prefix}.w": (fan_in, fan_out),
                       f"{prefix}.b": (fan_out,)})

    for i in range(cfg.gru_layers):
        gru(f"enc.gru{i}", N_FEATURES if i == 0 else h)
    dense("enc.mu", h, latent)
    dense("enc.logvar", h, latent)
    for i in range(cfg.gru_layers):
        gru(f"dec.gru{i}", latent if i == 0 else h)
    for name, width, _ in HEAD_SPECS:
        dense(f"dec.head.{name}.l1", h, h)
        dense(f"dec.head.{name}.l2", h, width)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Fresh parameter tensors; recurrent kernels start orthogonal per gate."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dtype)
        elif name.endswith(".u"):
            h = shape[0]
            params[name] = np.concatenate(
                [_orthogonal(rng, h, h, dtype) for _ in range(3)], axis=1)
        else:
            params[name] = _glorot(rng, *shape, dtype)
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
                      b: np.ndarray, gates: np.ndarray | None = None,
                      states: np.ndarray | None = None,
                      ) -> tuple[np.ndarray, dict | None]:
    """Run one GRU layer over (batch, steps, input); returns states + cache.

    The states come back as a (batch, steps, hidden) view of a time-major
    buffer.  An input whose step stride is 0 (one vector repeated over the
    steps) is projected through ``w`` once.  Given ``gates`` and ``states``,
    (steps, 3, batch, hidden) and (steps, batch, hidden) views into which
    the layer writes, its projection gets a temporary of its own.  Without
    them the layer keeps one buffer and no cache (None): the projection's
    first ``hidden`` columns become the states, whose rows are then ``3 *
    hidden`` apart, or, for a stride-0 input, a buffer of the states alone.
    """
    batch, steps, _ = x.shape
    h_dim = u.shape[0]
    two = 2 * h_dim
    u_gates, u_cand = u[:, :two], u[:, two:]
    if x.strides[1] == 0:
        proj = np.broadcast_to(x[:, 0] @ w + b, (steps, batch, 3 * h_dim))
    else:
        proj = (_rows(x) @ w).reshape(steps, batch, 3 * h_dim)
        proj += b
    cached = gates is not None
    if not cached:
        # step t writes its state over the update-gate columns of its own
        # projection block once it has read them; only exact operations
        # (multiply, add, a matmul operand) touch these strided states
        states = (np.empty((steps, batch, h_dim), dtype=x.dtype)
                  if x.strides[1] == 0 else proj[:, :, :h_dim])
    h = np.zeros((batch, h_dim), dtype=x.dtype)
    act = np.empty((3, batch, h_dim), dtype=x.dtype)
    update, reset, cand = act
    rh = np.empty((batch, h_dim), dtype=x.dtype)
    rec_gates = np.empty((batch, two), dtype=x.dtype)
    rec_view = rec_gates.reshape(batch, 2, h_dim).transpose(1, 0, 2)
    rec_cand = np.empty((batch, h_dim), dtype=x.dtype)
    keep = np.empty((batch, h_dim), dtype=x.dtype)
    for t, (p, s) in enumerate(zip(
            proj.reshape(steps, batch, 3, h_dim).transpose(0, 2, 1, 3), states)):
        np.matmul(h, u_gates, out=rec_gates)
        np.add(p[:2], rec_view, out=act[:2])
        _sigmoid(act[:2])
        np.multiply(reset, h, out=rh)
        np.add(p[2], np.matmul(rh, u_cand, out=rec_cand), out=cand)
        np.tanh(cand, out=cand)
        if cached:
            gates[t] = act
        np.subtract(1.0, update, out=keep)
        keep *= cand
        np.multiply(update, h, out=s)
        s += keep
        h = s
    cache = {"x": x, "w": w, "u": u, "gates": gates, "states": states
             } if cached else None
    return states.transpose(1, 0, 2), cache


def gru_layer_backward(d_states: np.ndarray | None, d_last: np.ndarray | None,
                       cache: dict, input_grad: bool = True, weights=None,
                       ) -> tuple[np.ndarray | None, np.ndarray | None,
                                  np.ndarray | None, np.ndarray | None]:
    """Backpropagate through one GRU layer.

    ``d_states`` carries gradients on every per-step output (None for
    none); ``d_last`` an optional extra gradient on the final state.
    Returns (d_input, dw, du, db); ``d_input`` has one step when the input
    had step stride 0, and is then the gradient summed over the steps.  It
    is None when ``input_grad`` is false, for a caller with no use for it.
    Given ``weights``, the weight gradients are not computed here: this
    calls ``weights(_gru_weight_grads, *operands)`` and returns dw, du and db
    as None.
    """
    x, w, u = cache["x"], cache["w"], cache["u"]
    gates, states = cache["gates"], cache["states"]
    steps, batch, h_dim = states.shape
    two = 2 * h_dim
    u_gates_t = np.ascontiguousarray(u[:, :two].T)
    u_cand_t = np.ascontiguousarray(u[:, two:].T)
    d_tm = None if d_states is None else d_states.transpose(1, 0, 2)
    d_gates = np.empty((steps, batch, 3 * h_dim), dtype=x.dtype)
    h_zero = np.zeros((batch, h_dim), dtype=x.dtype)
    dh = h_zero.copy() if d_last is None else d_last.copy()
    for t in range(steps - 1, -1, -1):
        if d_tm is not None:
            dh += d_tm[t]
        h_prev = states[t - 1] if t else h_zero
        update, reset, cand = gates[t]
        d = d_gates[t]
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

    d_proj = d_gates.sum(axis=0) if x.strides[1] == 0 else None
    operands = (x, u, gates, states, d_gates, d_proj)
    if input_grad and d_proj is not None:
        d_input = (d_proj @ w.T)[:, None, :]
    elif input_grad:
        d_input = _seq(d_gates.reshape(steps * batch, 3 * h_dim) @ w.T, batch)
    else:
        d_input = None
    if weights is None:
        return (d_input, *_gru_weight_grads(*operands))
    weights(_gru_weight_grads, *operands)
    return d_input, None, None, None


def _gru_weight_grads(x, u, gates, states, d_gates, d_proj):
    """(dw, du, db) of one GRU layer from its cache and gate gradients;
    ``d_proj`` is the gate gradient summed over the steps of a stride-0
    input, else None."""
    steps, batch, h_dim = states.shape
    two = 2 * h_dim
    rows = steps * batch
    flat_gates = d_gates.reshape(rows, 3 * h_dim)
    du = np.empty_like(u)
    # h_prev at step 0 is zero, so its term drops out of the update/reset sum
    du[:, :two] = (states[:-1].reshape(rows - batch, h_dim).T
                   @ flat_gates[batch:, :two])
    # r * h_prev as each forward step computed it (zero at step 0)
    reset_h = np.zeros_like(states)
    np.multiply(gates[1:, 1], states[:-1], out=reset_h[1:])
    du[:, two:] = reset_h.reshape(rows, h_dim).T @ flat_gates[:, two:]
    if d_proj is not None:
        return x[:, 0].T @ d_proj, du, d_proj.sum(axis=0)
    return _rows(x).T @ flat_gates, du, flat_gates.sum(axis=0)


def _dense_grads(*pairs):
    """(inputs.T @ d_out, d_out.sum(axis=0)) of each (inputs, d_out) pair of
    a dense layer, in one flat list."""
    return [g for inputs, d_out in pairs for g in (inputs.T @ d_out, d_out.sum(axis=0))]


def _put_now(grads: dict):
    """A ``put`` that stores each weight gradient in ``grads`` at once."""
    def put(names, fn, *args):
        grads.update(zip(names, fn(*args)))
    return put


def _layer_weights(put, prefix: str):
    return functools.partial(put, (f"{prefix}.w", f"{prefix}.u", f"{prefix}.b"))


def _layer_caches(params: dict, cfg: ModelConfig, part: str,
                  x: np.ndarray) -> list[dict]:
    """Each GRU layer's cache over the whole batch ``x``, its gate and
    state buffers empty for the row blocks to fill."""
    batch, steps, _ = x.shape
    caches = []
    for i in range(cfg.gru_layers):
        states = np.empty((steps, batch, cfg.hidden), dtype=x.dtype)
        caches.append({"x": x, "w": params[f"{part}.gru{i}.w"],
                       "u": params[f"{part}.gru{i}.u"], "states": states,
                       "gates": np.empty((steps, 3, batch, cfg.hidden),
                                         dtype=x.dtype)})
        x = states.transpose(1, 0, 2)
    return caches


def _gru_stack(params: dict, cfg: ModelConfig, part: str, x: np.ndarray,
               caches: list[dict] | None, rows: slice) -> np.ndarray:
    """Run the rows ``x`` of a batch through the GRU stack; returns the top
    layer's states, (rows, steps, hidden).  Given the whole-batch
    ``caches``, each layer writes its gates and states into their ``rows``;
    else each layer below the top hands the next a compact copy of its
    states, so that its projection buffer is freed before the next one is
    allocated."""
    where = "encoder" if part == "enc" else "decoder"
    h_seq = x
    for i in range(cfg.gru_layers):
        out = (caches[i]["gates"][:, :, rows], caches[i]["states"][:, rows]
               ) if caches else ()
        h_seq = gru_layer_forward(
            h_seq, params[f"{part}.gru{i}.w"], params[f"{part}.gru{i}.u"],
            params[f"{part}.gru{i}.b"], *out)[0]
        _check_finite(h_seq, f"{where} gru{i}")
        if not caches and i < cfg.gru_layers - 1:
            # time-major, as the layer's own states: a no-op where they are
            h_seq = np.ascontiguousarray(h_seq.transpose(1, 0, 2)).transpose(1, 0, 2)
    return h_seq


def encoder_forward(params: dict, cfg: ModelConfig, x: np.ndarray, *,
                    keep_cache: bool = True,
                    ) -> tuple[Posterior, dict | None]:
    """Roll batch (batch, 64, 89) -> posterior; cache for backward.

    With ``keep_cache`` the rows run through ``cores.by_rows`` into the
    whole-batch cache.  Without it the cache is None, the batch runs as one
    block, and each layer's one buffer is freed once the next layer has its
    states (or the heads have read the top layer's last ones).
    """
    batch = len(x)
    layers = _layer_caches(params, cfg, "enc", x) if keep_cache else None
    heads = [(np.empty((batch, cfg.latent_dim), dtype=x.dtype),
              params[f"enc.{name}.w"], params[f"enc.{name}.b"])
             for name in ("mu", "logvar")]

    def block(rows):
        h_last = _gru_stack(params, cfg, "enc", x[rows], layers, rows)[:, -1, :]
        for out, w, b in heads:
            np.matmul(h_last, w, out=out[rows])
            out[rows] += b

    if keep_cache:
        from .. import cores  # imported here: inference alone does not load it
        cores.by_rows(block, batch, cfg.hidden, cfg.latent_dim)
    else:
        block(slice(0, batch))
    mu, logvar_raw = (out for out, _, _ in heads)
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    _check_finite(mu, "encoder mu head")
    if not keep_cache:
        return Posterior(mu=mu, logvar=logvar), None
    cache = {
        "layers": layers,
        "h_last": layers[-1]["states"][-1],
        "clamp_mask": ((logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
                       ).astype(x.dtype),
    }
    return Posterior(mu=mu, logvar=logvar), cache


def encoder_backward(params: dict, cfg: ModelConfig, cache: dict,
                     d_mu: np.ndarray, d_logvar: np.ndarray,
                     grads: dict, put=None) -> None:
    """Posterior gradients -> every encoder gradient, in ``grads``.

    Given ``put``, each weight gradient goes to ``put(names, fn, *args)``
    instead, to be stored as ``fn(*args)`` under ``names``.  The pass
    consumes ``cache["layers"]``, letting go of each layer once handed over.
    """
    put = put or _put_now(grads)
    d_logvar = d_logvar * cache["clamp_mask"]
    h_last = cache["h_last"]
    put(("enc.mu.w", "enc.mu.b", "enc.logvar.w", "enc.logvar.b"), _dense_grads,
        (h_last, d_mu), (h_last, d_logvar))
    d_last = d_mu @ params["enc.mu.w"].T + d_logvar @ params["enc.logvar.w"].T
    d_seq = None
    layers = cache["layers"]
    for i in range(cfg.gru_layers - 1, -1, -1):
        # the roll input of layer 0 takes no gradient
        d_seq = gru_layer_backward(
            d_seq, d_last if i == cfg.gru_layers - 1 else None, layers.pop(),
            input_grad=i > 0, weights=_layer_weights(put, f"enc.gru{i}"))[0]


def reparameterize(posterior: Posterior, noise: np.ndarray) -> np.ndarray:
    """Draw z = mu + exp(logvar / 2) * noise."""
    return posterior.mu + np.exp(0.5 * posterior.logvar) * noise


def decoder_forward(params: dict, cfg: ModelConfig, z: np.ndarray, *,
                    keep_cache: bool = True,
                    ) -> tuple[DecoderOutput, dict | None]:
    """Latent batch (batch, latent) -> six heads; cache for backward.

    With ``keep_cache`` the rows run through ``cores.by_rows`` into the
    whole-batch cache and outputs.  Without it the cache is None and the
    batch runs as one block: each layer's one buffer is freed once the next
    layer (or the heads' batch-major copy) has its states, and each head's
    hidden array after its second matmul.
    """
    batch, hidden = z.shape[0], cfg.hidden
    z_seq = np.broadcast_to(z[:, None, :], (batch, N_STEPS, z.shape[1]))
    layers = _layer_caches(params, cfg, "dec", z_seq) if keep_cache else None
    # with a cache, the whole-batch arrays the blocks fill
    whole = {key: np.empty((batch * N_STEPS, width), dtype=z.dtype)
             for key, width in [("flat_h", hidden)]
             + [(f"{name}.hidden", hidden) for name, _, _ in HEAD_SPECS]
             + [(name, width) for name, width, _ in HEAD_SPECS]} if keep_cache else {}

    def block(rows):
        top = _gru_stack(params, cfg, "dec", z_seq[rows], layers, rows)
        steps = slice(rows.start * N_STEPS, rows.stop * N_STEPS)
        made = {key: array[steps] for key, array in whole.items()}
        if made:
            made["flat_h"].reshape(top.shape)[...] = top
        else:
            made["flat_h"] = top.reshape(-1, hidden)
        del top
        for name, _, activation in HEAD_SPECS:
            hidden_rows = np.matmul(made["flat_h"], params[f"dec.head.{name}.l1.w"],
                                    out=made.get(f"{name}.hidden"))
            hidden_rows += params[f"dec.head.{name}.l1.b"]
            np.tanh(hidden_rows, out=hidden_rows)
            out = made[name] = np.matmul(hidden_rows, params[f"dec.head.{name}.l2.w"],
                                         out=made.get(name))
            del hidden_rows
            out += params[f"dec.head.{name}.l2.b"]
            if activation == "softmax":
                _softmax(out)
            elif activation == "sigmoid":
                _sigmoid(out)
            _check_finite(out, f"decoder head {name}")
        return made

    if keep_cache:
        from .. import cores  # imported here: inference alone does not load it
        cores.by_rows(block, batch, cfg.hidden, cfg.latent_dim)
    arrays = whole if keep_cache else block(slice(0, batch))
    outputs = {name: arrays[name].reshape(
        (batch, N_STEPS, width) if activation == "softmax" else (batch, N_STEPS))
        for name, width, activation in HEAD_SPECS}
    if not keep_cache:
        return DecoderOutput(**outputs), None
    cache = {"layers": layers, "flat_h": whole["flat_h"],
             "heads": {name: whole[f"{name}.hidden"] for name, _, _ in HEAD_SPECS},
             "latent_dim": z.shape[1]}
    return DecoderOutput(**outputs), cache


def decoder_backward(params: dict, cfg: ModelConfig, cache: dict,
                     d_logits: dict[str, np.ndarray],
                     grads: dict, put=None) -> np.ndarray:
    """Head logit gradients -> gradient on z (batch, latent).

    The weight gradients go to ``grads``, or to ``put`` as in
    ``encoder_backward``.  The pass consumes ``cache["heads"]`` and
    ``cache["layers"]``; ``cache["flat_h"]`` stays.
    """
    put = put or _put_now(grads)
    flat_h = cache["flat_h"]
    heads = cache["heads"]
    batch = d_logits["melody_pitch"].shape[0]
    d_flat_h = np.zeros_like(flat_h)
    for name, width, _ in HEAD_SPECS:
        dl = d_logits[name].reshape(flat_h.shape[0], width)
        hidden = heads.pop(name)
        w1 = params[f"dec.head.{name}.l1.w"]
        w2 = params[f"dec.head.{name}.l2.w"]
        d_hidden = (dl @ w2.T) * (1.0 - hidden * hidden)
        put(tuple(f"dec.head.{name}.{part}" for part in ("l2.w", "l2.b", "l1.w", "l1.b")),
            _dense_grads, (hidden, dl), (flat_h, d_hidden))
        d_flat_h += d_hidden @ w1.T
    del hidden, d_hidden

    d_seq = d_flat_h.reshape(batch, N_STEPS, -1)
    del d_flat_h
    layers = cache["layers"]
    for i in range(cfg.gru_layers - 1, -1, -1):
        d_seq = gru_layer_backward(d_seq, None, layers.pop(),
                                   weights=_layer_weights(put, f"dec.gru{i}"))[0]
    return d_seq.sum(axis=1)


class TensionVae:
    """Config + parameters with the inference entry points.

    ``encode`` and ``decode`` take stacks only and give each row the bits it
    has in any other call: a one-row matmul goes through gemv and rounds
    differently, so neither makes one.  That holds while the hidden and
    latent sizes are at most ``cores.ROW_EXACT_WIDTH`` (448); past it
    OpenBLAS rounds a row by the rows of its call, e.g. ``(M, 512) @ (512,
    512)`` at M = 2 and 3.  These claims were measured on OpenBLAS's SkylakeX
    kernel; on its Haswell kernel (``OPENBLAS_CORETYPE=Haswell`` or ``Zen``)
    a row's bits depend on the other rows of the call at every width (see
    ``ttvae.cores``).  All methods are pure with respect to the parameters.
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

    def encode(self, rolls: np.ndarray) -> Posterior:
        """Posterior of each roll of a non-empty (n, 64, 89) stack, encoded
        in blocks of exactly ``ENCODE_BLOCK`` rows, the last padded by
        repeating rows: the BLAS gives a row of a fixed-shape block the same
        bits whatever rows surround it."""
        rolls = np.asarray(rolls)
        if rolls.ndim != 3 or rolls.shape[1:] != (N_STEPS, N_FEATURES) \
                or not len(rolls):
            raise InvalidInputError(
                f"expected a non-empty (n, {N_STEPS}, {N_FEATURES}) roll "
                f"stack, got {rolls.shape}")
        n = len(rolls)
        rows = np.resize(np.arange(n), -(-n // ENCODE_BLOCK) * ENCODE_BLOCK)
        parts = [encoder_forward(self.params, self.cfg,
                                 rolls[block].astype(self.dtype),
                                 keep_cache=False)[0]
                 for block in rows.reshape(-1, ENCODE_BLOCK)]
        return Posterior(mu=np.concatenate([p.mu for p in parts])[:n],
                         logvar=np.concatenate([p.logvar for p in parts])[:n])

    def decode(self, z: np.ndarray) -> DecoderOutput:
        """The six head outputs of each code of an (n, latent) stack; a
        single code decodes as two copies of itself."""
        z = np.asarray(z, dtype=self.dtype)
        if z.ndim != 2 or z.shape[1] != self.cfg.latent_dim:
            raise InvalidInputError(
                f"expected an (n, {self.cfg.latent_dim}) latent stack, got "
                f"{z.shape}")
        n = len(z)
        out, _ = decoder_forward(self.params, self.cfg,
                                 np.repeat(z, 2, axis=0) if n == 1 else z,
                                 keep_cache=False)
        return DecoderOutput(**{name: value[:n]
                                for name, value in vars(out).items()})


def sample_latent(n: int, latent_dim: int,
                  rng_seed: int | np.random.Generator) -> np.ndarray:
    """Seeded i.i.d. standard-normal latent codes, shape (n, latent_dim).

    Given a generator instead of a seed, the codes are its next draws.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((n, latent_dim))
