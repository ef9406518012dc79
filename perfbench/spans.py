"""Per-layer spans, installed from outside the program by wrapping functions.

:func:`install` replaces each traced public function with a timing wrapper
in every ``ttvae`` module namespace that holds it, so a name imported into
several modules (``tension_curves`` lives in ``tension``, ``corpus`` and
``evaluation``) is traced wherever it is called from.  The program itself is
not changed.

A span records its name, start, end, parent span and run id ("setup" or the
index of the operation).  Spans stay in memory until :meth:`Tracer.write`.
A span's self time is its duration minus the time its child spans cover.
Encoder and decoder GRU layers share one function; each call is named by
matching its weight array against the parameters its parent span received.

GRU and head spans also count work from array shapes: ``gflop`` counts the
multiply-adds of their matrix products (2 flops each) and ``mbytes`` the
bytes of every array they read or write, once per use, in 1e6 bytes.  Both
are computed, not measured.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

N_STEPS = 64

NETWORK_SPANS = tuple(
    [f"network.{part}.gru{i}.{way}" for way in ("fwd", "bwd")
     for part in ("enc", "dec") for i in (0, 1)]
    + ["network.enc.head", "network.dec.heads.fwd", "network.dec.heads.bwd"])
OTHER_SPANS = (
    "losses.loss", "losses.glue",
    "training.adam", "training.eval_split", "training.loop",
    "checkpoint.save", "checkpoint.load",
    "midi.parse", "corpus.build", "corpus.extract", "corpus.key",
    "corpus.segment", "corpus.save", "corpus.load",
    "pianoroll.encode", "tension.curves",
    "latent.select", "latent.class_means",
    "evaluation.harden", "evaluation.pair_metrics", "evaluation.ratio",
    "evaluation.sweep",
)
COUNTERS = ("training.nonfinite_aborts", "corpus.files_skipped")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in NETWORK_SPANS + OTHER_SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
        if span in NETWORK_SPANS:
            units[f"{span}.gflop"] = "GFLOP"
            units[f"{span}.mbytes"] = "MB"
    for counter in COUNTERS:
        units[counter] = "count"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """In-memory spans plus per-phase totals of self time, calls and work."""

    def __init__(self):
        self.run_id = "setup"
        self.spans: list[tuple] = []      # (id, name, start, end, parent, run)
        self._stack: list[list] = []      # [id, name, start, child_s, params]
        self._totals = defaultdict(lambda: [0.0, 0, 0.0, 0.0])
        self._counts = defaultdict(float)

    def _phase(self) -> str:
        return "setup" if self.run_id == "setup" else "body"

    def count(self, name: str, amount: float) -> None:
        self._counts[self._phase(), name] += amount

    def params_in_scope(self):
        for frame in reversed(self._stack):
            if frame[4] is not None:
                return frame[4]
        return None

    def wrap(self, fn, name, work=None, keeps_params=False, after=None):
        """Timing wrapper; ``name`` may be a function of (tracer, args)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(tracer, args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans) + len(stack), label, perf_counter(), 0.0,
                     args[0] if keeps_params else None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                totals = tracer._totals[tracer._phase(), label]
                totals[0] += duration - frame[3]
                totals[1] += 1
                if work is not None:
                    flop, nbytes = work(args)
                    totals[2] += flop / 1e9
                    totals[3] += nbytes / 1e6
                tracer.spans.append((frame[0], label, frame[2], end,
                                     None if parent is None else parent[0],
                                     tracer.run_id))
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def metrics(self, ops: int, overhead: float) -> dict[str, float]:
        """Per-layer values: the traced set-up plus the mean operation."""
        out = {}
        for span in NETWORK_SPANS + OTHER_SPANS:
            setup, body = self._totals[("setup", span)], self._totals[("body", span)]
            out[f"{span}.self_s"] = setup[0] + body[0] / ops
            out[f"{span}.calls"] = setup[1] + body[1] / ops
            if span in NETWORK_SPANS:
                out[f"{span}.gflop"] = setup[2] + body[2] / ops
                out[f"{span}.mbytes"] = setup[3] + body[3] / ops
        for counter in COUNTERS:
            out[counter] = (self._counts["setup", counter]
                            + self._counts["body", counter] / ops)
        out["trace.overhead"] = overhead
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}))
                fh.write("\n")


# ------------------------------------------------------------- work counts

def _gru_forward_work(args):
    x, _, u = args[0], args[1], args[2]
    b, t, i = x.shape
    h = u.shape[0]
    flop = 2 * b * t * 3 * h * (i + h)
    elems = b * t * i + i * 3 * h + h * 3 * h + 3 * h + 2 * b * t * 3 * h + 6 * b * t * h
    return flop, elems * x.itemsize


def _gru_backward_work(args):
    cache = args[2]
    x, u = cache["x"], cache["u"]
    b, t, i = x.shape
    h = u.shape[0]
    flop = 2 * b * t * 3 * h * (2 * i + 2 * h)
    elems = (6 * b * t * h + 2 * b * t * i + 6 * b * t * h
             + 2 * (i * 3 * h + h * 3 * h) + 3 * h)
    return flop, elems * x.itemsize


def _head_widths():
    from ttvae.vae.network import HEAD_SPECS
    return [width for _, width, _ in HEAD_SPECS]


def _decoder_heads_work(args, backward):
    widths = _head_widths()
    if backward:
        rows, h = args[2]["flat_h"].shape
        itemsize = args[2]["flat_h"].itemsize
    else:
        z, h = args[2], args[1].hidden
        rows, itemsize = z.shape[0] * N_STEPS, z.itemsize
    flop = sum(2 * rows * h * (h + w) for w in widths) * (2 if backward else 1)
    per_head = [3 * rows * h + h * h + h + h * w + w + 2 * rows * w for w in widths]
    elems = sum(per_head) * (2 if backward else 1)
    return flop, elems * itemsize


def _encoder_head_work(args, backward):
    cfg = args[1]
    h, latent = cfg.hidden, cfg.latent_dim
    array = args[3] if backward else args[2]
    batch = array.shape[0]
    flop = 2 * batch * h * 2 * latent * (2 if backward else 1)
    elems = (batch * h + 2 * h * latent + 2 * latent + 4 * batch * latent) \
        * (2 if backward else 1)
    return flop, elems * array.itemsize


def _gru_name(way):
    def name(tracer, args):
        w = args[1] if way == "fwd" else args[2]["w"]
        params = tracer.params_in_scope() or {}
        for key, value in params.items():
            if value is w:
                return f"network.{key[:-2]}.{way}"
        return f"network.gru.{way}"
    return name


def _count_skips(tracer, dataset):
    tracer.count("corpus.files_skipped", len(dataset.meta.get("skips", [])))


def _count_abort(fn, tracer):
    from ttvae.errors import NumericFailureError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericFailureError:
            tracer.count("training.nonfinite_aborts", 1)
            raise
    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions in every loaded ``ttvae`` module.

    Returns ``switch(traced)``, which puts the wrappers (``True``) or the
    original functions (``False``) back in every place it replaced, so traced
    and untraced operations can alternate in one process.
    """
    from ttvae import corpus, evaluation, latent, midi, pianoroll, tension
    from ttvae.vae import checkpoint, losses, network, training

    wrap = tracer.wrap
    plan = [
        (midi.parse_midi, wrap(midi.parse_midi, "midi.parse")),
        (corpus.build_dataset, wrap(corpus.build_dataset, "corpus.build",
                                    after=_count_skips)),
        (corpus.extract_tracks, wrap(corpus.extract_tracks, "corpus.extract")),
        (corpus.detect_key, wrap(corpus.detect_key, "corpus.key")),
        (corpus.segment, wrap(corpus.segment, "corpus.segment")),
        (corpus.save_dataset, wrap(corpus.save_dataset, "corpus.save")),
        (corpus.load_dataset, wrap(corpus.load_dataset, "corpus.load")),
        (pianoroll.encode_roll, wrap(pianoroll.encode_roll, "pianoroll.encode")),
        (tension.tension_curves, wrap(tension.tension_curves, "tension.curves")),
        (network.gru_layer_forward, wrap(network.gru_layer_forward, _gru_name("fwd"),
                                         work=_gru_forward_work)),
        (network.gru_layer_backward, wrap(network.gru_layer_backward, _gru_name("bwd"),
                                          work=_gru_backward_work)),
        (network.encoder_forward, wrap(
            network.encoder_forward, "network.enc.head", keeps_params=True,
            work=functools.partial(_encoder_head_work, backward=False))),
        (network.encoder_backward, wrap(
            network.encoder_backward, "network.enc.head", keeps_params=True,
            work=functools.partial(_encoder_head_work, backward=True))),
        (network.decoder_forward, wrap(
            network.decoder_forward, "network.dec.heads.fwd", keeps_params=True,
            work=functools.partial(_decoder_heads_work, backward=False))),
        (network.decoder_backward, wrap(
            network.decoder_backward, "network.dec.heads.bwd", keeps_params=True,
            work=functools.partial(_decoder_heads_work, backward=True))),
        (losses.loss, wrap(losses.loss, "losses.loss")),
        (losses.forward_backward, wrap(losses.forward_backward, "losses.glue")),
        (training.evaluate_split, wrap(training.evaluate_split, "training.eval_split")),
        (training.train, wrap(_count_abort(training.train, tracer), "training.loop")),
        (checkpoint.save_checkpoint, wrap(checkpoint.save_checkpoint, "checkpoint.save")),
        (checkpoint.load_checkpoint, wrap(checkpoint.load_checkpoint, "checkpoint.load")),
        (latent.select_classes, wrap(latent.select_classes, "latent.select")),
        (latent.attribute_vector, wrap(latent.attribute_vector, "latent.class_means")),
        (evaluation.roll_from_output, wrap(evaluation.roll_from_output,
                                           "evaluation.harden")),
        (evaluation.pitch_accuracy, wrap(evaluation.pitch_accuracy,
                                         "evaluation.pair_metrics")),
        (evaluation.rhythm_fscore, wrap(evaluation.rhythm_fscore,
                                        "evaluation.pair_metrics")),
        (evaluation.upward_ratio, wrap(evaluation.upward_ratio, "evaluation.ratio")),
        (evaluation.high_ratio, wrap(evaluation.high_ratio, "evaluation.ratio")),
        (evaluation.decode_hardened, wrap(evaluation.decode_hardened,
                                          "evaluation.sweep")),
        (evaluation.direction_sweep, wrap(evaluation.direction_sweep,
                                          "evaluation.sweep")),
        (evaluation.level_sweep, wrap(evaluation.level_sweep, "evaluation.sweep")),
    ]
    replacement = {id(original): (original, wrapper) for original, wrapper in plan}
    swaps = [(training.Adam, "step", training.Adam.step,
              wrap(training.Adam.step, "training.adam"))]
    for module_name, module in list(sys.modules.items()):
        if module_name != "ttvae" and not module_name.startswith("ttvae."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacement.get(id(value))
            if entry is not None and entry[0] is value:
                swaps.append((module, attr, *entry))

    def switch(traced: bool) -> None:
        for owner, attr, original, wrapper in swaps:
            setattr(owner, attr, wrapper if traced else original)

    switch(True)
    return switch
