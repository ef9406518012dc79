"""Shared generators and independent oracles used across the test suite."""

import concurrent.futures
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ttvae import evaluation
from ttvae.corpus import (
    KK_MAJOR,
    KK_MINOR,
    MAX_SONG_BARS,
    MAX_SONG_STEPS,
    MIN_TRACK_NOTES,
    FragmentDataset,
    SongSteps,
    Key,
    Mode,
    _profile_correlations,
    transposition_shift,
)
from ttvae.errors import (
    InvalidInputError,
    InvalidRollError,
    InvalidSongError,
    MidiParseError,
    MissingFragmentError,
    NoKeyError,
    TtvaeError,
    UnsupportedFormatError,
)
from ttvae.evaluation import (
    DEFAULT_DIRECTION_SCALES,
    InteractionReport,
    SweepReport,
    SweepRow,
    high_ratio,
    pitch_accuracy,
    rhythm_fscore,
    upward_ratio,
)
from ttvae.generate import OUTPUT_BPM, OUTPUT_VELOCITY
from ttvae.latent import (
    DEFAULT_TARGET_N,
    DIRECTION_KINDS,
    LEVEL_KINDS,
    RAMP_TEMPLATE,
    STANDARD_KINDS,
    AttributeVector,
    ClassSelection,
    ShapeTemplate,
    VectorsFile,
    apply_vector,
    level_scores,
    measured_curve,
    shape_scores,
)
from ttvae.midi import (
    _META_END_OF_TRACK,
    _META_MARKER,
    _META_TEMPO,
    _META_TIME_SIGNATURE,
    _META_TRACK_NAME,
    DRUM_CHANNEL,
    MidiTrack,
    Score,
    parse_midi,
)
from ttvae.pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_COLS,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_HIGH,
    MELODY_LOW,
    MELODY_ONSET_COL,
    MELODY_PITCH_COLS,
    MELODY_REST_COL,
    N_FEATURES,
    N_STEPS,
    BASS_DECODE_BASE,
    STEPS_PER_BAR,
    bass_pitch_classes,
    encode_roll,
    melody_pitch_classes,
)
from ttvae.spiral import (
    FIFTH_INDEX_TABLE,
    PITCH_CLASS_POSITIONS,
    Cloud,
    SpelledPitch,
    _member_points,
    _weighted_center,
    cloud_tension,
    key_center,
)
from ttvae.tension import moving_average, tension_curves
from ttvae.vae.network import HEAD_SPECS, sample_latent

RISE = math.sqrt(2.0 / 15.0)
FIFTHS = (0, -5, 2, -3, 4, -1, 6, 1, -4, 3, -2, 5)


class InlineHelper:
    """An executor whose ``submit`` runs the call at once; it stands in for
    ``ttvae.cores.helper`` where a test needs the helper's work inline."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        return future


class Note(namedtuple("Note", "pitch onset duration")):
    """A note on the 16th-note grid: MIDI pitch, onset step, duration in steps."""

    __slots__ = ()

    @property
    def end(self):
        return self.onset + self.duration


# A melody and a bass as lists of notes, as the per-note references hold them.
NotePair = namedtuple("NotePair", "melody bass")


def window(melody=(), bass=(), steps=N_STEPS):
    """``(pitch, onset)`` step grids, (2, steps), of melody and bass notes
    given as (pitch, onset, duration) triples: -1 where silent, onset set
    where a note starts.  Notes paint their steps in order, cropped to the
    grid."""
    pitch = np.full((2, steps), -1)
    onset = np.zeros((2, steps), dtype=bool)
    for row, notes in enumerate((melody, bass)):
        for note_pitch, start, duration in notes:
            if start < steps:
                pitch[row, start:start + duration] = note_pitch
                onset[row, start] = True
    return pitch, onset


def song_steps(melody=(), bass=()):
    """The :class:`ttvae.corpus.SongSteps` of melody and bass notes, as
    ``extract_tracks`` would hold them: the grid ends with the last note."""
    total = max((start + duration for _, start, duration in [*melody, *bass]),
                default=0)
    return SongSteps(*window(melody, bass, total), [])


def random_track(rng, low, high, rest_prob=0.25, max_len=8):
    """Random monophonic quantized track covering 64 steps."""
    notes = []
    step = 0
    while step < N_STEPS:
        length = int(rng.integers(1, max_len + 1))
        length = min(length, N_STEPS - step)
        if rng.random() > rest_prob:
            pitch = int(rng.integers(low, high + 1))
            notes.append(Note(pitch, step, length))
        step += length
    return notes


def random_notes(rng, bass_low=36, bass_high=47):
    """Random in-range 4-bar window (melody 24..96, bass decodable octave)."""
    return NotePair(random_track(rng, MELODY_LOW, 96),
                    random_track(rng, bass_low, bass_high, rest_prob=0.2))


def random_window(rng):
    """The step grids of :func:`random_notes`."""
    return window(*random_notes(rng))


def random_roll(rng):
    return encode_roll(*random_window(rng))


def check_notes(notes):
    """Assert that ``notes`` form one valid monophonic track: pitches in
    0..127, onsets from 0, durations of a step or more, sorted and not
    overlapping."""
    for note in notes:
        assert 0 <= note.pitch <= 127 and note.onset >= 0 and note.duration >= 1
    for a, b in zip(notes, notes[1:]):
        assert b.onset >= a.end


def reference_validate_roll(roll: np.ndarray) -> None:
    """``pianoroll.validate_roll`` as it was before it read 0/1 entries as
    uint8 and summed the pitch columns in one pass, kept verbatim."""
    if roll.ndim not in (2, 3) or roll.shape[-2:] != (N_STEPS, N_FEATURES):
        raise InvalidRollError(
            f"roll must be {N_STEPS}x{N_FEATURES}, got {roll.shape}")
    if not ((roll == 0) | (roll == 1)).all():
        raise InvalidRollError("roll entries must be 0 or 1")
    if not (roll[..., MELODY_PITCH_COLS].sum(axis=-1) == 1).all():
        raise InvalidRollError("each step needs exactly one melody pitch column")
    if not (roll[..., BASS_PITCH_COLS].sum(axis=-1) == 1).all():
        raise InvalidRollError("each step needs exactly one bass pitch column")
    melody_rest = roll[..., MELODY_REST_COL] == 1
    if (roll[..., MELODY_ONSET_COL].astype(bool) & melody_rest).any():
        raise InvalidRollError("melody onset flagged on a rest step")
    bass_rest = roll[..., BASS_REST_COL] == 1
    if (roll[..., BASS_ONSET_COL].astype(bool) & bass_rest).any():
        raise InvalidRollError("bass onset flagged on a rest step")


def make_dataset(rolls, tensile, diameter, source_ids=None, bar_offsets=None,
                 meta=None):
    """A FragmentDataset from stacks (or lists) of rolls and curves."""
    n = len(rolls)
    return FragmentDataset(
        rolls=np.asarray(rolls, np.uint8),
        tensile=np.asarray(tensile, np.float32),
        diameter=np.asarray(diameter, np.float32),
        source_ids=[""] * n if source_ids is None else list(source_ids),
        bar_offsets=[0] * n if bar_offsets is None else list(bar_offsets),
        meta={} if meta is None else meta)


# --------------------------------------------- test-only spiral and score views
# Kept here because nothing in ``src`` calls them: a pitch class's spelling,
# a cloud's center of effect, and one curve's level, shape and direction
# scores.

def spell(pitch_class: int) -> SpelledPitch:
    """Map a pitch class 0..11 to its fixed line-of-fifths spelling."""
    if not 0 <= pitch_class <= 11:
        raise InvalidInputError(f"pitch class must be in 0..11, got {pitch_class}")
    return SpelledPitch(FIFTH_INDEX_TABLE[pitch_class])


def center_of_effect(cloud: Cloud) -> np.ndarray:
    """Weight-normalized centroid of the cloud's helix points."""
    return _weighted_center(_member_points(cloud),
                            np.asarray(cloud.effective_weights(), dtype=float))


def level_score(curve: np.ndarray, threshold: float) -> tuple[int, float]:
    """(sign, magnitude) of one curve, through ``latent.level_scores``."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape != (N_STEPS,):
        raise InvalidInputError(f"curve must have {N_STEPS} values")
    signs, magnitudes = level_scores(curve[None], threshold)
    return int(signs[0]), float(magnitudes[0])


def shape_score(curve: np.ndarray, template: ShapeTemplate) -> float:
    """Correlation with a shape template, through ``latent.shape_scores``."""
    curve = np.asarray(curve, dtype=float)
    if curve.shape != (N_STEPS,):
        raise InvalidInputError(f"curve must have {N_STEPS} values")
    return float(shape_scores(curve[None], template)[0])


def direction_score(curve: np.ndarray) -> float:
    """Correlation with the unit ramp; constant curves score 0 by convention."""
    return shape_score(curve, RAMP_TEMPLATE)


def _point(pc):
    k = FIFTHS[pc]
    return (math.sin(k * math.pi / 2.0), math.cos(k * math.pi / 2.0), k * RISE)


def brute_force_tension(roll, key_point, window=4):
    """Reference tension curves: explicit loops, no shared code with ttvae.

    Per step, gathers the sounding melody/bass pitch classes straight from
    the roll columns, enumerates pairs for the diameter, averages points for
    the center of effect, then applies a truncated centered windowed mean.
    """
    raw_strain = [0.0] * N_STEPS
    raw_diam = [0.0] * N_STEPS
    for t in range(N_STEPS):
        pcs = []
        mcol = max(range(MELODY_REST_COL + 1), key=lambda c: roll[t, c])
        if roll[t, mcol] and mcol != MELODY_REST_COL:
            pcs.append((mcol + MELODY_LOW) % 12)
        bcol = max(range(BASS_PITCH_START, BASS_REST_COL + 1),
                   key=lambda c: roll[t, c])
        if roll[t, bcol] and bcol != BASS_REST_COL:
            pcs.append(bcol - BASS_PITCH_START)
        if not pcs:
            continue
        pts = [_point(pc) for pc in pcs]
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, math.dist(pts[i], pts[j]))
        raw_diam[t] = best
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        cz = sum(p[2] for p in pts) / len(pts)
        raw_strain[t] = math.dist((cx, cy, cz), tuple(key_point))

    def smooth(values):
        out = []
        for i in range(N_STEPS):
            lo = max(i - window // 2, 0)
            hi = min(i + (window + 1) // 2, N_STEPS)
            out.append(sum(values[lo:hi]) / (hi - lo))
        return out

    return np.array(smooth(raw_strain)), np.array(smooth(raw_diam))


def onset_steps(roll, track="melody"):
    col = MELODY_ONSET_COL if track == "melody" else BASS_ONSET_COL
    return {t for t in range(N_STEPS) if roll[t, col]}


def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_gru_forward(x, w, u, b):
    """Reference GRU layer: a two-branch sigmoid, one recurrent matmul per
    gate and batch-major (batch, steps, hidden) caches."""
    batch, steps, _ = x.shape
    h_dim = u.shape[0]
    gates_x = (x.reshape(batch * steps, -1) @ w).reshape(batch, steps, 3 * h_dim)
    h = np.zeros((batch, h_dim), dtype=x.dtype)
    cache = {"x": x, "w": w, "u": u}
    for key in ("h_prev", "update", "reset", "cand", "reset_h"):
        cache[key] = np.empty((batch, steps, h_dim), dtype=x.dtype)
    states = np.empty((batch, steps, h_dim), dtype=x.dtype)
    for t in range(steps):
        g = gates_x[:, t]
        update = _reference_sigmoid(g[:, :h_dim] + h @ u[:, :h_dim] + b[:h_dim])
        reset = _reference_sigmoid(g[:, h_dim:2 * h_dim] + h @ u[:, h_dim:2 * h_dim]
                                   + b[h_dim:2 * h_dim])
        reset_h = reset * h
        cand = np.tanh(g[:, 2 * h_dim:] + reset_h @ u[:, 2 * h_dim:] + b[2 * h_dim:])
        cache["h_prev"][:, t] = h
        cache["update"][:, t] = update
        cache["reset"][:, t] = reset
        cache["cand"][:, t] = cand
        cache["reset_h"][:, t] = reset_h
        h = update * h + (1.0 - update) * cand
        states[:, t] = h
    return states, cache


def reference_gru_backward(d_states, d_last, cache):
    """Backward pass of :func:`reference_gru_forward`: (d_input, dw, du, db)."""
    x, w, u = cache["x"], cache["w"], cache["u"]
    batch, steps, h_dim = cache["h_prev"].shape
    d_gates = np.empty((batch, steps, 3 * h_dim), dtype=x.dtype)
    dh = np.zeros((batch, h_dim), dtype=x.dtype) if d_last is None else d_last.copy()
    u_upd, u_rst, u_cand = u[:, :h_dim], u[:, h_dim:2 * h_dim], u[:, 2 * h_dim:]
    for t in range(steps - 1, -1, -1):
        dh = dh + d_states[:, t]
        h_prev = cache["h_prev"][:, t]
        update = cache["update"][:, t]
        reset = cache["reset"][:, t]
        cand = cache["cand"][:, t]
        d_update = dh * (h_prev - cand)
        d_pre_cand = dh * (1.0 - update) * (1.0 - cand * cand)
        d_reset_h = d_pre_cand @ u_cand.T
        d_pre_update = d_update * update * (1.0 - update)
        d_pre_reset = d_reset_h * h_prev * reset * (1.0 - reset)
        dh = (dh * update + d_reset_h * reset
              + d_pre_update @ u_upd.T + d_pre_reset @ u_rst.T)
        d_gates[:, t, :h_dim] = d_pre_update
        d_gates[:, t, h_dim:2 * h_dim] = d_pre_reset
        d_gates[:, t, 2 * h_dim:] = d_pre_cand
    flat_gates = d_gates.reshape(batch * steps, 3 * h_dim)
    flat_x = x.reshape(batch * steps, -1)
    flat_h_prev = cache["h_prev"].reshape(batch * steps, h_dim)
    flat_reset_h = cache["reset_h"].reshape(batch * steps, h_dim)
    du = np.empty_like(u)
    du[:, :2 * h_dim] = flat_h_prev.T @ flat_gates[:, :2 * h_dim]
    du[:, 2 * h_dim:] = flat_reset_h.T @ flat_gates[:, 2 * h_dim:]
    d_input = (flat_gates @ w.T).reshape(x.shape)
    return d_input, flat_x.T @ flat_gates, du, flat_gates.sum(axis=0)


# ------------------------------------------- reference GRU layer and decoder heads
# The GRU layer with one interleaved (steps, batch, 3 * hidden) gate buffer and
# the decoder heads with freshly allocated intermediates, kept verbatim as
# bitwise references for the gate-outer, in-place versions in ``network``.

def _tanh_sigmoid(x):
    """Logistic function in place, as 0.5 * tanh(0.5 * x) + 0.5; returns x."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _allocating_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _time_major_rows(seq: np.ndarray) -> np.ndarray:
    """(batch, steps, n) -> time-major rows (steps * batch, n).

    A view when ``seq`` is the batch-major view of a time-major array, as
    the GRU states and input gradients are; a copy otherwise.
    """
    batch, steps, width = seq.shape
    return seq.transpose(1, 0, 2).reshape(steps * batch, width)


def _batch_major_seq(rows: np.ndarray, batch: int) -> np.ndarray:
    """Time-major rows (steps * batch, n) -> (batch, steps, n) view."""
    return rows.reshape(-1, batch, rows.shape[-1]).transpose(1, 0, 2)


def interleaved_gru_forward(x: np.ndarray, w: np.ndarray, u: np.ndarray,
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
        np.matmul(_time_major_rows(x), w, out=gates.reshape(steps * batch, -1))
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
        _tanh_sigmoid(g[:, :two])
        update, reset, cand = g[:, :h_dim], g[:, h_dim:two], g[:, two:]
        np.multiply(reset, h, out=reset_h[t])
        np.add(p[:, two:], np.matmul(reset_h[t], u_cand, out=rec_cand), out=cand)
        np.tanh(cand, out=cand)
        h_new = np.multiply(update, h, out=states[t])
        h_new += (1.0 - update) * cand
        h = h_new
    cache = {"x": x, "w": w, "u": u, "gates": gates, "reset_h": reset_h,
             "states": states}
    return _batch_major_seq(states.reshape(steps * batch, h_dim), batch), cache


def interleaved_gru_backward(d_states: np.ndarray | None, d_last: np.ndarray | None,
                             cache: dict, input_grad: bool = True,
                             ) -> tuple[np.ndarray | None, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Backpropagate through one GRU layer.

    ``d_states`` carries gradients on every per-step output (None for
    none); ``d_last`` an optional extra gradient on the final state.
    Returns (d_input, dw, du, db); ``d_input`` has one step when the input
    had step stride 0, and is then the gradient summed over the steps.  It
    is None when ``input_grad`` is false, for a caller with no use for it.
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
        d_input = (d_proj @ w.T)[:, None, :] if input_grad else None
    else:
        dw = _time_major_rows(x).T @ flat_gates
        db = flat_gates.sum(axis=0)
        d_input = _batch_major_seq(flat_gates @ w.T, batch) if input_grad else None
    return d_input, dw, du, db


def allocating_decoder_heads(params, flat_h, batch):
    """The decoder's six heads as one loop that allocates every intermediate;
    returns (outputs, hidden caches) keyed by head name."""
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
            value = _allocating_softmax(logits).reshape(batch, N_STEPS, width)
        elif activation == "sigmoid":
            value = _tanh_sigmoid(logits).reshape(batch, N_STEPS)
        else:
            value = logits.reshape(batch, N_STEPS)
        outputs[name] = value
        head_caches[name] = hidden
    return outputs, head_caches


def direct_step_tension(roll):
    """Raw per-step (strain, diameter) in C major, with one kernel call per
    step of every roll."""
    pcs = np.stack((melody_pitch_classes(roll), bass_pitch_classes(roll)), axis=-1)
    return cloud_tension(PITCH_CLASS_POSITIONS[np.clip(pcs, 0, 11)],
                         (pcs >= 0).astype(float), key_center(0))


def direct_tension_curves(roll):
    """:func:`direct_step_tension`, smoothed."""
    return tuple(moving_average(curve) for curve in direct_step_tension(roll))


# --------------------------------------------------------- reference MIDI reader

class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def need(self, n: int, what: str) -> None:
        if self.pos + n > len(self.data):
            raise MidiParseError(f"unexpected end of file reading {what}", self.pos)

    def bytes(self, n: int, what: str) -> bytes:
        self.need(n, what)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.bytes(1, what)[0]

    def u16(self, what: str) -> int:
        return int.from_bytes(self.bytes(2, what), "big")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.bytes(4, what), "big")

    def varlen(self, what: str) -> int:
        value = 0
        for _ in range(4):
            b = self.u8(what)
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MidiParseError(f"variable-length {what} exceeds 4 bytes", self.pos)


# The oracle's own note and track: one object per note, drum tracks kept.
RefNote = namedtuple("RefNote", "pitch onset duration velocity")


@dataclass
class RefTrack:
    name: str = ""
    channel: int = 0
    notes: list = field(default_factory=list)


def reference_parse_midi(data: bytes) -> Score:
    """The byte-at-a-time reader that ``midi.parse_midi`` replaced, kept as
    its oracle: same errors, and a :class:`Score` of :class:`RefTrack` that
    :func:`reference_columns` turns into the columns ``parse_midi`` reads.
    One change since: a data byte at or above 0x80 is a parse error at its
    own offset."""
    r = _Reader(data)
    if r.bytes(4, "header chunk id") != b"MThd":
        raise MidiParseError("missing MThd header", 0)
    if r.u32("header length") != 6:
        raise MidiParseError("MThd length must be 6", 4)
    fmt = r.u16("format")
    if fmt not in (0, 1):
        raise UnsupportedFormatError(f"only SMF formats 0 and 1 are supported, got {fmt}")
    n_tracks = r.u16("track count")
    division = r.u16("division")
    if division & 0x8000:
        raise UnsupportedFormatError("SMPTE time division is not supported")
    if division == 0:
        raise MidiParseError("time division must be positive", 12)

    score = Score()
    for _ in range(n_tracks):
        chunk_start = r.pos
        if r.bytes(4, "track chunk id") != b"MTrk":
            raise MidiParseError("expected MTrk chunk", chunk_start)
        length = r.u32("track length")
        end = r.pos + length
        if end > len(data):
            raise MidiParseError("track chunk overruns file", chunk_start + 4)
        _reference_parse_track(r, end, division, score)
        r.pos = end

    score.tempos.sort(key=lambda t: t[0])
    score.meters.sort(key=lambda t: t[0])
    score.markers.sort(key=lambda t: t[0])
    return score


def _reference_data_byte(byte: int, offset: int) -> None:
    """A MIDI data byte has its top bit clear."""
    if byte & 0x80:
        raise MidiParseError(f"data byte 0x{byte:02X} is not below 0x80", offset)


def _reference_parse_track(r: _Reader, end: int, division: int, score: Score) -> None:
    track = RefTrack()
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    channels: list[int] = []
    tick = 0
    status = None
    last_tick = 0

    while r.pos < end:
        tick += r.varlen("delta time")
        last_tick = tick
        event_pos = r.pos
        byte = r.u8("event status")
        if byte == 0xFF:
            meta = r.u8("meta type")
            length = r.varlen("meta length")
            payload = r.bytes(length, "meta payload")
            if meta == _META_END_OF_TRACK:
                break
            if meta == _META_TEMPO:
                if length != 3:
                    raise MidiParseError("tempo meta must carry 3 bytes", event_pos)
                us_per_quarter = int.from_bytes(payload, "big")
                if us_per_quarter == 0:
                    raise MidiParseError("tempo of 0 microseconds", event_pos)
                score.tempos.append((tick / division, 60e6 / us_per_quarter))
            elif meta == _META_TIME_SIGNATURE:
                if length < 2:
                    raise MidiParseError("time signature meta too short", event_pos)
                score.meters.append((tick / division, payload[0], 1 << payload[1]))
            elif meta == _META_TRACK_NAME and not track.name:
                track.name = payload.decode("latin-1")
            elif meta == _META_MARKER:
                score.markers.append((tick / division, payload.decode("latin-1")))
            continue
        if byte in (0xF0, 0xF7):
            r.bytes(r.varlen("sysex length"), "sysex payload")
            status = None
            continue
        if byte & 0x80:
            status = byte
            data1 = r.u8("event data")
        else:
            if status is None:
                raise MidiParseError("data byte without running status", event_pos)
            data1 = byte
        kind = status & 0xF0
        channel = status & 0x0F
        if kind not in (0x80, 0x90, 0xA0, 0xB0, 0xC0, 0xD0, 0xE0):
            raise MidiParseError(f"unsupported status byte 0x{status:02X}", event_pos)
        _reference_data_byte(data1, r.pos - 1)
        if kind in (0xC0, 0xD0):
            continue
        data2 = r.u8("event data")
        _reference_data_byte(data2, r.pos - 1)
        if kind == 0x90 and data2 > 0:
            open_notes.setdefault((channel, data1), []).append((tick, data2))
            channels.append(channel)
        elif kind == 0x80 or (kind == 0x90 and data2 == 0):
            stack = open_notes.get((channel, data1))
            if stack:
                start, velocity = stack.pop(0)
                track.notes.append(RefNote(
                    pitch=data1,
                    onset=start / division,
                    duration=(tick - start) / division,
                    velocity=velocity,
                ))

    # Notes never switched off sound until the final event of the track.
    for (channel, pitch), stack in open_notes.items():
        for start, velocity in stack:
            track.notes.append(RefNote(
                pitch=pitch,
                onset=start / division,
                duration=(last_tick - start) / division,
                velocity=velocity,
            ))

    track.notes.sort(key=lambda n: (n.onset, n.pitch))
    if channels:
        track.channel = channels[0]
    if track.notes or track.name:
        score.tracks.append(track)


def score_content(score):
    """(tracks, tempos, meters, markers) of a parsed score as plain lists,
    each track (name, channel, pitch, onset, duration, velocity)."""
    for t in score.tracks:
        assert (t.pitch.dtype, t.onset.dtype, t.duration.dtype,
                t.velocity.dtype) == (np.int64, np.float64, np.float64, np.int64)
    return ([(t.name, t.channel, t.pitch.tolist(), t.onset.tolist(),
              t.duration.tolist(), t.velocity.tolist()) for t in score.tracks],
            score.tempos, score.meters, score.markers)


def reference_columns(score):
    """:func:`score_content` as ``parse_midi`` should give it for the score
    of :func:`reference_parse_midi`: drum tracks left out, each track's notes
    as columns sorted by (onset, pitch)."""
    tracks = []
    for t in score.tracks:
        if t.channel == DRUM_CHANNEL:
            continue
        notes = sorted(t.notes, key=lambda n: (n.onset, n.pitch))
        columns = [list(column) for column in zip(*notes)] or [[], [], [], []]
        tracks.append((t.name, t.channel, *columns))
    return tracks, score.tempos, score.meters, score.markers


# ------------------------------------------------------- reference corpus loops

def _ref_notes(track):
    """A :class:`ttvae.midi.MidiTrack`'s columns as one note per row."""
    return list(map(RefNote, track.pitch.tolist(), track.onset.tolist(),
                    track.duration.tolist(), track.velocity.tolist()))


def reference_skyline(quantized, keep_high):
    """Per-step skyline: compares note ranks at every step it covers."""
    if not quantized:
        return []
    total = max(onset + dur for _, onset, dur in quantized)
    best = [None] * total
    for idx, (pitch, onset, dur) in enumerate(quantized):
        rank = (pitch if keep_high else -pitch, onset, idx)
        for step in range(onset, onset + dur):
            if best[step] is None or rank > best[step][:3]:
                best[step] = (*rank, pitch)
    notes = []
    current = None  # (identity, pitch, start)
    for step, chosen in enumerate(best):
        identity = None if chosen is None else chosen[2]
        if current is not None and identity != current[0]:
            notes.append(Note(current[1], current[2], step - current[2]))
            current = None
        if chosen is not None and current is None:
            current = (identity, chosen[3], step)
    if current is not None:
        notes.append(Note(current[1], current[2], total - current[2]))
    return notes


def reference_key_scores(score):
    """(histogram, scores): the pitch-class histogram from a per-note loop and
    its Krumhansl-Schmuckler correlations with 24 freshly rolled profiles;
    scores is None when no note sounds."""
    histogram = np.zeros(12)
    for track in score.tracks:
        for note in _ref_notes(track):
            histogram[note.pitch % 12] += max(note.duration, 0.0)
    if histogram.sum() <= 0:
        return histogram, None
    scores = np.zeros(24)
    h = histogram - histogram.mean()
    h_norm = np.linalg.norm(h)
    if h_norm == 0:
        return histogram, scores
    for mode_idx, profile in enumerate((KK_MAJOR, KK_MINOR)):
        for tonic in range(12):
            p = np.roll(profile, tonic)
            p = p - p.mean()
            scores[mode_idx * 12 + tonic] = h @ p / (h_norm * np.linalg.norm(p))
    return histogram, scores


def reference_slice_track(notes, start, end):
    """Whole-song scan for the notes overlapping steps [start, end)."""
    out = []
    for n in notes:
        if n.onset < end and n.end > start:
            lo = max(n.onset, start)
            hi = min(n.end, end)
            out.append(Note(n.pitch, lo - start, hi - lo))
    return out


# ``corpus.song_fragments`` as it was before the columnar song pipeline: one
# object per note from quantization to encoding, and one tension call per
# song.  Kept verbatim (``_profile_correlations``, ``transposition_shift``,
# ``Key`` and ``tension_curves`` are imported) as the exact reference for the
# columnar pipeline and for ``reference_build_dataset``.

def _ref_empty():
    """The zero-row dataset (the former ``FragmentDataset.empty()``)."""
    return FragmentDataset(np.zeros((0, N_STEPS, N_FEATURES), np.uint8),
                           np.zeros((0, N_STEPS), np.float32),
                           np.zeros((0, N_STEPS), np.float32), [], [])


def _ref_quantize_notes(notes):
    out = []
    for n in notes:
        onset = round(n.onset * 4)
        end = round((n.onset + n.duration) * 4)
        out.append((n.pitch, onset, max(1, end - onset)))
    return out


def _ref_skyline(quantized, keep_high):
    if not quantized:
        return []
    total = max(onset + dur for _, onset, dur in quantized)
    sign = 1 if keep_high else -1
    ranked = sorted(range(len(quantized)), key=lambda i: (
        sign * quantized[i][0], quantized[i][1], i))
    owner = np.full(total, -1, dtype=np.intp)
    for idx in ranked:
        _, onset, dur = quantized[idx]
        owner[onset:onset + dur] = idx
    starts = np.flatnonzero(np.diff(owner, prepend=-2)).tolist()
    ends = starts[1:] + [total]
    return [Note(quantized[idx][0], start, end - start)
            for idx, start, end in zip(owner[starts].tolist(), starts, ends)
            if idx >= 0]


def _ref_pick_named(score, name):
    for track in score.tracks:
        if track.name.lower() == name.lower():
            return track
    raise InvalidSongError(f"no track named {name!r}")


def reference_extract_tracks(score, melody_name=None, bass_name=None):
    candidates = [t for t in score.tracks
                  if len(_ref_notes(t)) >= MIN_TRACK_NOTES]
    melody_track = _ref_pick_named(score, melody_name) if melody_name else None
    bass_track = _ref_pick_named(score, bass_name) if bass_name else None
    if melody_track is None or bass_track is None:
        if len(candidates) < 2:
            raise InvalidSongError(
                f"need two non-drum tracks with >= {MIN_TRACK_NOTES} notes, "
                f"found {len(candidates)}")
        ordered = sorted(range(len(candidates)), key=lambda i: (
            sum(n.pitch for n in _ref_notes(candidates[i]))
            / len(_ref_notes(candidates[i])), i))
        if melody_track is None:
            melody_track = candidates[ordered[-1]]
        if bass_track is None:
            bass_track = candidates[ordered[0]]
    if melody_track is bass_track:
        raise InvalidSongError("melody and bass resolved to the same track")
    melody = _ref_quantize_notes(_ref_notes(melody_track))
    bass = _ref_quantize_notes(_ref_notes(bass_track))
    extent = max((onset + dur for _, onset, dur in melody + bass), default=0)
    if extent > MAX_SONG_STEPS:
        raise InvalidSongError(
            f"melody and bass run {extent} 16th steps, past the cap of "
            f"{MAX_SONG_BARS} bars of 4/4")
    return NotePair(_ref_skyline(melody, keep_high=True),
                               _ref_skyline(bass, keep_high=False))


def reference_detect_key(score):
    notes = [n for track in score.tracks for n in _ref_notes(track)]
    pcs = np.fromiter((n.pitch % 12 for n in notes), np.intp, len(notes))
    durations = np.fromiter((max(n.duration, 0.0) for n in notes), np.float64,
                            len(notes))
    histogram = np.bincount(pcs, weights=durations, minlength=12)
    if histogram.sum() <= 0:
        raise NoKeyError("score has no sounding notes to detect a key from")
    scores = _profile_correlations(histogram)
    best = int(np.argmax(scores))
    return Key(tonic=best % 12, mode=Mode.MAJOR if best < 12 else Mode.MINOR)


def _ref_clamp_pitch(pitch):
    while pitch < 0:
        pitch += 12
    while pitch > 127:
        pitch -= 12
    return pitch


def reference_transpose_pair(pair, shift):
    if shift == 0:
        return pair
    return NotePair(
        [Note(_ref_clamp_pitch(n.pitch + shift), n.onset, n.duration)
         for n in pair.melody],
        [Note(_ref_clamp_pitch(n.pitch + shift), n.onset, n.duration)
         for n in pair.bass])


def reference_bar_grid(meters, total_steps, warnings):
    regions = sorted(meters) if meters else [(0.0, 4, 4)]
    bars = []
    for i, (beat, num, den) in enumerate(regions):
        start = round(beat * 4)
        end = round(regions[i + 1][0] * 4) if i + 1 < len(regions) else total_steps
        end = min(end, MAX_SONG_STEPS)
        if num < 1 or num * STEPS_PER_BAR % den:
            warnings.append(f"meter {num}/{den} not representable on the "
                            f"16th grid; region at step {start} skipped")
            continue
        bar_len = num * STEPS_PER_BAR // den
        while start + bar_len <= end:
            bars.append((start, bar_len, (num, den) == (4, 4)))
            start += bar_len
    return bars


def _ref_slice_track(notes, ends, start, end):
    out = []
    for i in range(bisect_right(ends, start), len(notes)):
        n = notes[i]
        if n.onset >= end:
            break
        lo = max(n.onset, start)
        hi = min(ends[i], end)
        out.append(Note(n.pitch, lo - start, hi - lo))
    return out


def reference_segment(pair, meters=None):
    warnings = []
    melody_ends = [n.end for n in pair.melody]
    bass_ends = [n.end for n in pair.bass]
    if not melody_ends and not bass_ends:
        return [], warnings
    bars = reference_bar_grid(meters or [], max(melody_ends + bass_ends), warnings)
    fragments = []
    for first in range(0, len(bars) - 3, 4):
        window = bars[first:first + 4]
        if not all(b[2] for b in window):
            warnings.append(f"bars {first}..{first + 3} are not in 4/4; skipped")
            continue
        contiguous = all(window[i][0] + window[i][1] == window[i + 1][0]
                         for i in range(3))
        if not contiguous:
            warnings.append(f"bars {first}..{first + 3} are not contiguous; skipped")
            continue
        start = window[0][0]
        melody = _ref_slice_track(pair.melody, melody_ends, start, start + N_STEPS)
        bass = _ref_slice_track(pair.bass, bass_ends, start, start + N_STEPS)
        if not melody or not bass:
            continue
        fragments.append((first, NotePair(melody, bass)))
    return fragments, warnings


def reference_encode_roll(pair):
    """``pianoroll.encode_roll`` as a per-note loop, before it became an
    adapter over the step encoder."""
    roll = np.zeros((N_STEPS, N_FEATURES), dtype=np.uint8)
    roll[:, MELODY_REST_COL] = 1
    roll[:, BASS_REST_COL] = 1

    for note in pair.melody:
        if not MELODY_LOW <= note.pitch <= MELODY_HIGH:
            continue
        start, end = note.onset, min(note.end, N_STEPS)
        if start >= N_STEPS:
            continue
        col = note.pitch - MELODY_LOW
        roll[start:end, MELODY_REST_COL] = 0
        roll[start:end, :MELODY_REST_COL] = 0
        roll[start:end, col] = 1
        roll[start, MELODY_ONSET_COL] = 1

    for note in pair.bass:
        start, end = note.onset, min(note.end, N_STEPS)
        if start >= N_STEPS:
            continue
        col = BASS_PITCH_START + note.pitch % 12
        roll[start:end, BASS_REST_COL] = 0
        roll[start:end, BASS_PITCH_COLS] = 0
        roll[start:end, col] = 1
        roll[start, BASS_ONSET_COL] = 1
    return roll


def reference_decode_track(pitches, onsets, rest_value=-1, to_pitch=int):
    """Segment per-step pitch/onset columns, of any length, into notes: the
    per-step loop that decoded rolls before they decoded to step grids.

    A note starts where the onset flag is set, or where the pitch value
    changes without one (legato split); it sustains while the pitch column
    stays put and no new onset occurs.
    """
    notes = []
    current_pitch = None
    current_start = 0
    for step in range(len(pitches)):
        value = int(pitches[step])
        sounding = value != rest_value
        starts_new = sounding and (
            bool(onsets[step]) or current_pitch is None or value != current_pitch)
        if (not sounding or starts_new) and current_pitch is not None:
            notes.append(Note(to_pitch(current_pitch), current_start,
                              step - current_start))
            current_pitch = None
        if starts_new:
            current_pitch = value
            current_start = step
    if current_pitch is not None:
        notes.append(Note(to_pitch(current_pitch), current_start,
                          len(pitches) - current_start))
    return notes


def song_notes(pitch, onset):
    """The :class:`NotePair` of (2, steps) step grids."""
    return NotePair(*map(reference_decode_track, pitch, onset))


def reference_decode_roll(roll):
    """The notes of one roll, read from its columns by
    :func:`reference_decode_track`; the bass in the C2-rooted octave."""
    melody_cols = roll[:, MELODY_PITCH_COLS].argmax(axis=1)
    bass_cols = roll[:, BASS_PITCH_COLS].argmax(axis=1)
    return NotePair(
        reference_decode_track(melody_cols, roll[:, MELODY_ONSET_COL],
                               MELODY_REST_COL, lambda c: c + MELODY_LOW),
        reference_decode_track(bass_cols, roll[:, BASS_ONSET_COL],
                               BASS_REST_COL - BASS_PITCH_START,
                               lambda c: BASS_DECODE_BASE + c))


def reference_chain_score(blocks):
    """The score of a chain of ``blocks``, (roll, repeats) pairs, built one
    note at a time: each roll's notes are decoded, copied to every repeat
    shifted by its 64-step offset, and packed one row per note at 120 BPM in
    4/4, with a ``section N`` marker at the start of block N."""
    melody, bass, markers = [], [], []
    offset = 0
    for number, (roll, repeats) in enumerate(blocks, start=1):
        pair = reference_decode_roll(roll)
        markers.append((offset / 4.0, f"section {number}"))
        for _ in range(repeats):
            melody.extend(Note(n.pitch, n.onset + offset, n.duration)
                          for n in pair.melody)
            bass.extend(Note(n.pitch, n.onset + offset, n.duration)
                        for n in pair.bass)
            offset += N_STEPS

    def track(name, channel, notes):
        n = np.array([(e.pitch, e.onset, e.duration, OUTPUT_VELOCITY)
                      for e in notes], np.int64).reshape(-1, 4)
        return MidiTrack(name, channel, n[:, 0], n[:, 1] / 4.0,
                         n[:, 2] / 4.0, n[:, 3])

    return Score(tracks=[track("melody", 0, melody), track("bass", 1, bass)],
                 tempos=[(0.0, OUTPUT_BPM)], meters=[(0.0, 4, 4)],
                 markers=markers)


def reference_song_fragments(score, melody_name=None, bass_name=None):
    """(dataset, key, warnings) of one song through the per-note pipeline."""
    pair = reference_extract_tracks(score, melody_name, bass_name)
    key = reference_detect_key(score)
    pair = reference_transpose_pair(pair, transposition_shift(key))
    windows, warnings = reference_segment(pair, score.meters)
    if not windows:
        return _ref_empty(), key, warnings
    rolls = np.stack([reference_encode_roll(window) for _, window in windows])
    strain, diameter = tension_curves(rolls)
    return FragmentDataset(
        rolls=rolls, tensile=strain.astype(np.float32),
        diameter=diameter.astype(np.float32),
        source_ids=[""] * len(windows),
        bar_offsets=[bar_offset for bar_offset, _ in windows]), key, warnings


def reference_build_dataset(midi_dir, melody_name=None, bass_name=None):
    """``corpus.build_dataset`` as it was before it split the files between
    two processes: one sequential loop, each file read whole, each song
    through :func:`reference_song_fragments`."""
    midi_dir = Path(midi_dir)
    if not midi_dir.is_dir():
        raise InvalidInputError(f"not a directory: {midi_dir}")
    files = sorted(p for p in midi_dir.iterdir()
                   if p.suffix.lower() in (".mid", ".midi"))
    meta = {"original_keys": {}, "skips": [], "warnings": []}
    # The empty part keeps the concatenation defined when no song is usable.
    songs = [_ref_empty()]
    source_ids, bar_offsets = [], []
    for path in files:
        try:
            score = parse_midi(path.read_bytes())
            song, key, warnings = reference_song_fragments(
                score, melody_name, bass_name)
        except (TtvaeError, OSError) as err:
            meta["skips"].append({"file": path.name, "reason": str(err)})
            continue
        meta["original_keys"][path.name] = str(key)
        meta["warnings"].extend(f"{path.name}: {w}" for w in warnings)
        songs.append(song)
        source_ids += [path.name] * len(song)
        bar_offsets += song.bar_offsets
    return FragmentDataset(
        rolls=np.concatenate([song.rolls for song in songs]),
        tensile=np.concatenate([song.tensile for song in songs]),
        diameter=np.concatenate([song.diameter for song in songs]),
        source_ids=source_ids, bar_offsets=bar_offsets, meta=meta)


# ------------------------------------------------ reference per-curve scores
# ``latent._pearson``, ``shape_score``, ``level_score``, ``_top_ids`` and
# ``select_classes`` as they were before ``latent.shape_scores`` and
# ``latent.level_scores`` scored every curve at once, kept verbatim.

def reference_pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(a @ b / denom)


def reference_shape_score(curve, template):
    curve = np.asarray(curve, dtype=float)
    if curve.shape != (N_STEPS,):
        raise InvalidInputError(f"curve must have {N_STEPS} values")
    return reference_pearson(curve, template.values)


def reference_level_score(curve, threshold):
    curve = np.asarray(curve, dtype=float)
    if curve.shape != (N_STEPS,):
        raise InvalidInputError(f"curve must have {N_STEPS} values")
    sign = 1 if curve.mean() > threshold else -1
    return sign, float(np.linalg.norm(curve - threshold))


def reference_top_ids(scored, n):
    # Sort by score descending, fragment id ascending for ties.
    ranked = sorted(scored, key=lambda item: (-item[0], item[1]))
    return [idx for _, idx in ranked[:n]]


def reference_select_classes(curves, kind, target_n=DEFAULT_TARGET_N,
                             threshold=None, template=None):
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[1] != N_STEPS:
        raise InvalidInputError("curves must be (n_fragments, 64)")
    n = len(curves)
    warnings = []
    if kind in DIRECTION_KINDS:
        template = RAMP_TEMPLATE
    if kind in LEVEL_KINDS:
        c = float(curves.mean()) if threshold is None else float(threshold)
        magnitude = {}
        high, low = [], []
        for i, curve in enumerate(curves):
            sign, mag = reference_level_score(curve, c)
            magnitude[i] = mag
            (high if sign > 0 else low).append((mag, i))
        per_class = min(target_n, len(high), len(low))
        if per_class < target_n:
            warnings.append(
                f"sides hold {len(high)} high / {len(low)} low fragments; "
                f"using {per_class} per class")
        if per_class == 0:
            raise InvalidInputError(
                f"cannot form {kind} classes: one side is empty")
        class_a = reference_top_ids(high, per_class)
        class_b = reference_top_ids(low, per_class)
        thresholds = {
            "threshold": c,
            "class_a_min_magnitude": min(magnitude[i] for i in class_a),
            "class_b_min_magnitude": min(magnitude[i] for i in class_b),
        }
    elif template is not None:
        scores = [reference_shape_score(c, template) for c in curves]
        per_class = min(target_n, n // 2)
        if target_n > n // 2:
            warnings.append(
                f"population {n} cannot fill two classes of {target_n}; "
                f"using {per_class} per class")
        if per_class == 0:
            raise InvalidInputError(f"cannot form {kind} classes from {n} fragment(s)")
        ranked = reference_top_ids([(score, i) for i, score in enumerate(scores)], n)
        class_a, class_b = ranked[:per_class], ranked[n - per_class:]
        thresholds = {
            "class_a_min_score": min(scores[i] for i in class_a),
            "class_b_max_score": max(scores[i] for i in class_b),
        }
    elif kind.startswith("shape:"):
        raise InvalidInputError("shape selection needs a template")
    else:
        raise InvalidInputError(f"unknown labeling kind {kind!r}")
    return ClassSelection(kind=kind, class_a=sorted(class_a),
                          class_b=sorted(class_b),
                          effective_thresholds=thresholds, warnings=warnings)


def reference_upward_ratio(curves, tau):
    return float(np.mean([reference_shape_score(c, RAMP_TEMPLATE) > tau
                          for c in np.atleast_2d(np.asarray(curves, dtype=float))]))


# -------------------------------------------------- reference class means
# ``latent.attribute_vector`` and ``build_vectors`` with every class encoded
# on its own: a fragment's code is its row in an encode of exactly 64 rows,
# so each class is encoded in 64-row blocks, the last padded with its last id.

def reference_attribute_vector(model, dataset, class_a, class_b, name):
    if not class_a or not class_b:
        raise InvalidInputError("both classes must be non-empty")
    for idx in list(class_a) + list(class_b):
        if not 0 <= idx < len(dataset):
            raise MissingFragmentError(
                f"fragment id {idx} is not in the dataset (size {len(dataset)})")

    def class_mean(ids, block=64):
        padded = list(ids) + [ids[-1]] * (-len(ids) % block)
        codes = np.concatenate([
            model.encode(dataset.rolls[padded[start:start + block]]).mu
            for start in range(0, len(padded), block)])
        return codes[:len(ids)].sum(axis=0, dtype=np.float64) / len(ids)

    values = class_mean(class_a) - class_mean(class_b)
    return AttributeVector(name=name, values=values.astype(np.float64),
                           class_sizes=(len(class_a), len(class_b)))


def reference_build_vectors(model, dataset, kinds=None,
                            target_n=DEFAULT_TARGET_N, restrict_ids=None,
                            templates=None, checkpoint_id=""):
    kinds = list(kinds) if kinds else list(STANDARD_KINDS)
    templates = templates or {}
    ids = list(restrict_ids) if restrict_ids is not None \
        else list(range(len(dataset)))
    vectors = {}
    for kind in kinds:
        template = templates.get(kind)
        curves = getattr(dataset, measured_curve(kind))[ids]
        selection = reference_select_classes(curves, kind, target_n,
                                             template=template)
        class_a = [ids[i] for i in selection.class_a]
        class_b = [ids[i] for i in selection.class_b]
        vector = reference_attribute_vector(model, dataset, class_a, class_b,
                                            kind)
        vector.effective_thresholds = selection.effective_thresholds
        vectors[kind] = vector
    return VectorsFile(latent_dim=model.cfg.latent_dim,
                       checkpoint_id=checkpoint_id, vectors=vectors)


# ---------------------------------------------------- reference sweep loops
# The sweeps as they were before the streamed loop: each decodes the whole
# sample at every scale and keeps every roll stack.  ``reference_sweep`` and
# ``reference_interaction_grid`` are the former ``evaluation._sweep`` and
# ``evaluation.interaction_grid``, and ``reference_pitch_distribution`` the
# former loop of ``ttv eval --experiment pitch-dist``, kept verbatim as exact
# references for the streamed versions; they decode through
# ``reference_decode_hardened``, not the function under test, and read
# thresholds through the former ``evaluation`` helpers below, not ``latent``.

def _measured_curve(vector_name: str) -> str:
    return "diameter" if vector_name.startswith("cloud_diameter") else "tensile"


def _direction_tau(vector: AttributeVector) -> float:
    """The vector's effective up-class labeling threshold (0 if unrecorded)."""
    return float(vector.effective_thresholds.get("class_a_min_score", 0.0))


def _level_params(vector: AttributeVector) -> tuple[float, float]:
    """(threshold, tau) of the vector's effective level labeling."""
    thresholds = vector.effective_thresholds
    return (float(thresholds.get("threshold", 0.0)),
            float(thresholds.get("class_a_min_magnitude", 0.0)))


def reference_decode_hardened(model, z):
    """``evaluation.decode_hardened`` as it was before each chunk's halves ran
    on two threads: every chunk decoded whole on the calling thread."""
    parts = []
    for start in range(0, len(z), evaluation.DECODE_CHUNK):
        out = model.decode(z[start:start + evaluation.DECODE_CHUNK])
        rolls = evaluation.roll_from_output(out)
        parts.append((rolls, out.tensile, out.diameter, *tension_curves(rolls)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def reference_pair_metrics(original_rolls: np.ndarray, modified_rolls: np.ndarray):
    per_example = (pitch_accuracy(original_rolls, modified_rolls)
                   + rhythm_fscore(original_rolls, modified_rolls))
    return tuple(float(values.mean()) for values in per_example)


def reference_sweep(model, vector, scales, n: int,
                    rng_seed: int, ratio_fn, ratio_kind: str, thresholds: dict,
                    untrained: bool) -> SweepReport:
    _pair_metrics = reference_pair_metrics
    if n < 1:
        raise InvalidInputError("sweep needs n >= 1 samples")
    z = sample_latent(n, model.cfg.latent_dim, rng_seed).astype(model.dtype)
    original = reference_decode_hardened(model, z)
    measured = _measured_curve(vector.name)
    rows = []
    for scale in scales:
        if scale == 0.0:
            rolls, pred_t, pred_d, rec_t, rec_d = original
        else:
            rolls, pred_t, pred_d, rec_t, rec_d = reference_decode_hardened(
                model, apply_vector(z, vector, scale))
        recomputed = rec_t if measured == "tensile" else rec_d
        predicted = pred_t if measured == "tensile" else pred_d
        metrics = _pair_metrics(original[0], rolls)
        rows.append(SweepRow(
            scale=float(scale), n=n,
            ratio_recomputed=ratio_fn(recomputed),
            ratio_predicted=ratio_fn(predicted),
            melody_pitch_accuracy=metrics[0], bass_pitch_accuracy=metrics[1],
            melody_rhythm_fscore=metrics[2], bass_rhythm_fscore=metrics[3]))
    return SweepReport(vector_name=vector.name, ratio_kind=ratio_kind,
                       measured_curve=measured, scales=[float(s) for s in scales],
                       rows=rows, thresholds=thresholds, n=n, rng_seed=rng_seed,
                       untrained_model=untrained)


def reference_interaction_grid(model, vector_a,
                               vector_b,
                               scales=DEFAULT_DIRECTION_SCALES, n: int = 10_000,
                               rng_seed: int = 0,
                               taus: dict[str, float] | None = None,
                               mode: str = "upward",
                               level_params: dict[str, dict[str, float]] | None = None,
                               trained_batches: int | None = None) -> InteractionReport:
    if mode not in ("upward", "high"):
        raise InvalidInputError(f"unknown interaction mode {mode!r}")
    vectors = (vector_a, vector_b)
    if taus is None:
        taus = {_measured_curve(v.name): _direction_tau(v) for v in vectors}
    if level_params is None:
        level_params = {_measured_curve(v.name):
                        dict(zip(("threshold", "tau"), _level_params(v)))
                        for v in vectors}
    z = sample_latent(n, model.cfg.latent_dim, rng_seed).astype(model.dtype)
    rows: dict[str, dict[float, dict[str, float]]] = {}
    baselines: dict[str, dict[str, float]] = {}

    def one_ratio(kind, curves):
        if mode == "upward":
            return upward_ratio(curves, taus.get(kind, 0.0))
        params = level_params.get(kind, {})
        return high_ratio(curves, params.get("threshold", 0.0),
                          params.get("tau", 0.0))

    def both_ratios(rec_t, rec_d):
        return {
            "tensile": one_ratio("tensile", rec_t),
            "diameter": one_ratio("diameter", rec_d),
        }

    base = reference_decode_hardened(model, z)
    base_ratios = both_ratios(base[3], base[4])
    for vector in vectors:
        rows[vector.name] = {}
        for scale in scales:
            if scale == 0.0:
                rows[vector.name][float(scale)] = dict(base_ratios)
                continue
            _, _, _, rec_t, rec_d = reference_decode_hardened(
                model, apply_vector(z, vector, scale))
            rows[vector.name][float(scale)] = both_ratios(rec_t, rec_d)
        baselines[vector.name] = base_ratios

    cross_effect = {}
    for vector in vectors:
        own = _measured_curve(vector.name)
        other = "diameter" if own == "tensile" else "tensile"
        deviations = [abs(rows[vector.name][float(s)][other]
                          - baselines[vector.name][other])
                      for s in scales if s != 0.0]
        cross_effect[f"{vector.name}_on_{other}"] = float(np.mean(deviations))
    return InteractionReport(
        vector_names=(vector_a.name, vector_b.name), ratio_kind=mode,
        scales=[float(s) for s in scales], rows=rows,
        cross_effect=cross_effect, n=n, rng_seed=rng_seed,
        untrained_model=not trained_batches)


def reference_pitch_distribution(model, vector, scale, n, seed):
    """(hist_orig, hist_mod) as ``ttv eval --experiment pitch-dist`` made them."""
    z = sample_latent(n, model.cfg.latent_dim, seed).astype(model.dtype)
    original = reference_decode_hardened(model, z)[0]
    modified = reference_decode_hardened(
        model, apply_vector(z, vector, scale))[0]
    bars = (2, 4)
    hist_orig = evaluation.pitch_class_histogram(original, bars)
    hist_mod = evaluation.pitch_class_histogram(modified, bars)
    return hist_orig, hist_mod
