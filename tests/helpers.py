"""Shared generators and independent oracles used across the test suite."""

import math

import numpy as np

from ttvae.pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_LOW,
    MELODY_ONSET_COL,
    MELODY_REST_COL,
    N_STEPS,
    NoteEvent,
    TrackPair,
    encode_roll,
)

RISE = math.sqrt(2.0 / 15.0)
FIFTHS = (0, -5, 2, -3, 4, -1, 6, 1, -4, 3, -2, 5)


def random_track(rng, low, high, rest_prob=0.25, max_len=8):
    """Random monophonic quantized track covering 64 steps."""
    notes = []
    step = 0
    while step < N_STEPS:
        length = int(rng.integers(1, max_len + 1))
        length = min(length, N_STEPS - step)
        if rng.random() > rest_prob:
            pitch = int(rng.integers(low, high + 1))
            notes.append(NoteEvent(pitch, step, length))
        step += length
    return notes


def random_window(rng, bass_low=36, bass_high=47):
    """Random in-range 4-bar window (melody 24..96, bass decodable octave)."""
    return TrackPair(
        melody=random_track(rng, MELODY_LOW, 96),
        bass=random_track(rng, bass_low, bass_high, rest_prob=0.2),
    )


def random_roll(rng):
    return encode_roll(random_window(rng))


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
