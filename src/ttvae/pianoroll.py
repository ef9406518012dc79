"""The 64x89 binary piano-roll fragment representation.

One row per 16th-note step, 64 steps = four 4/4 bars.  Feature layout:

====================  =======================================================
columns 0..73         melody pitch one-hot, MIDI 24..96; column 73 is rest
column 74             melody onset flag (1 = a note starts at this step)
columns 75..87        bass pitch-class one-hot, C..B; column 87 is rest
column 88             bass onset flag
====================  =======================================================

Exactly one melody-pitch column and one bass-pitch column are set per step,
and an onset flag implies a non-rest pitch at the same step.  Melody notes
outside MIDI 24..96 are encoded as rests.  Bass keeps pitch class only; on
decode it is realized in the octave rooted at C2 (MIDI 36).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRollError

N_STEPS = 64
N_FEATURES = 89
STEPS_PER_BAR = 16
BARS_PER_FRAGMENT = 4

MELODY_LOW = 24
MELODY_HIGH = 96
MELODY_REST_COL = 73          # columns 0..72 are pitches 24..96
MELODY_ONSET_COL = 74
BASS_PITCH_START = 75         # columns 75..86 are pitch classes C..B
BASS_REST_COL = 87
BASS_ONSET_COL = 88
BASS_DECODE_BASE = 36         # C2; the roll stores no bass octave

MELODY_PITCH_COLS = slice(0, MELODY_REST_COL + 1)
BASS_PITCH_COLS = slice(BASS_PITCH_START, BASS_REST_COL + 1)


# reduceat starts of the column runs that ``validate_roll`` sums per step:
# melody pitch, melody onset, bass pitch, bass onset
_SUMMED_RUNS = (0, MELODY_ONSET_COL, BASS_PITCH_START, BASS_ONSET_COL)


def validate_roll(roll: np.ndarray) -> None:
    """Raise :class:`InvalidRollError` unless ``roll`` satisfies all invariants.

    ``roll`` is one (64, 89) roll or a stack (n, 64, 89); every roll of a
    stack is checked, one invariant at a time over the whole stack.  Once
    the entries are known to be 0 or 1 the other checks read them as uint8:
    one ``reduceat`` pass sums each step's pitch columns, and the onset
    checks read four columns.
    """
    if roll.ndim not in (2, 3) or roll.shape[-2:] != (N_STEPS, N_FEATURES):
        raise InvalidRollError(
            f"roll must be {N_STEPS}x{N_FEATURES}, got {roll.shape}")
    if roll.dtype == np.bool_:
        flags = roll.view(np.uint8)
    elif roll.dtype == np.uint8:
        if roll.size and roll.max() > 1:
            raise InvalidRollError("roll entries must be 0 or 1")
        flags = roll
    else:
        ones = roll == 1
        if not (ones | (roll == 0)).all():
            raise InvalidRollError("roll entries must be 0 or 1")
        flags = ones.view(np.uint8)
    sums = np.add.reduceat(flags, _SUMMED_RUNS, axis=-1, dtype=np.uint8)
    if not (sums[..., 0] == 1).all():
        raise InvalidRollError("each step needs exactly one melody pitch column")
    if not (sums[..., 2] == 1).all():
        raise InvalidRollError("each step needs exactly one bass pitch column")
    if (flags[..., MELODY_ONSET_COL] & flags[..., MELODY_REST_COL]).any():
        raise InvalidRollError("melody onset flagged on a rest step")
    if (flags[..., BASS_ONSET_COL] & flags[..., BASS_REST_COL]).any():
        raise InvalidRollError("bass onset flagged on a rest step")


def encode_roll(pitch: np.ndarray, onset: np.ndarray) -> np.ndarray:
    """Encode per-step tracks into rolls (..., 64, 89) in one pass.

    ``pitch`` and ``onset`` are (2, ..., 64), melody then bass: the MIDI
    pitch sounding at each step (-1 where silent) and whether a note starts
    there.  A note sounding at step 0 starts there, and melody pitches
    outside MIDI 24..96 are rests.
    """
    melody, bass = pitch
    in_range = (melody >= MELODY_LOW) & (melody <= MELODY_HIGH)
    sounding = bass >= 0
    cols = np.stack([np.where(in_range, melody - MELODY_LOW, MELODY_REST_COL),
                     np.where(sounding, BASS_PITCH_START + bass % 12,
                              BASS_REST_COL)], axis=-1)
    rolls = np.zeros(melody.shape + (N_FEATURES,), dtype=np.uint8)
    np.put_along_axis(rolls, cols, 1, axis=-1)
    starts = onset | (np.arange(N_STEPS) == 0)
    rolls[..., MELODY_ONSET_COL] = in_range & starts[0]
    rolls[..., BASS_ONSET_COL] = sounding & starts[1]
    return rolls


def decode_roll(rolls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_roll`: ``(pitch, onset)``, each (2, ..., 64).

    ``rolls`` is one (64, 89) roll or a stack (n, 64, 89).  Rests read as
    pitch -1, the bass is realized in the C2-rooted octave, and a pitch
    sounding at step 0 starts there.
    """
    validate_roll(rolls)
    melody = rolls[..., MELODY_PITCH_COLS].argmax(axis=-1)
    bass = rolls[..., BASS_PITCH_COLS].argmax(axis=-1)
    pitch = np.stack([
        np.where(melody == MELODY_REST_COL, -1, melody + MELODY_LOW),
        np.where(bass == BASS_REST_COL - BASS_PITCH_START, -1,
                 bass + BASS_DECODE_BASE)])
    onset = np.stack([rolls[..., MELODY_ONSET_COL],
                      rolls[..., BASS_ONSET_COL]]) == 1
    onset[..., 0] |= pitch[..., 0] >= 0
    return pitch, onset


def melody_pitch_classes(roll: np.ndarray) -> np.ndarray:
    """Per-step melody pitch class, -1 where the melody rests; shape (..., 64)."""
    cols = roll[..., MELODY_PITCH_COLS].argmax(axis=-1)
    return np.where(cols == MELODY_REST_COL, -1, (cols + MELODY_LOW) % 12)


def bass_pitch_classes(roll: np.ndarray) -> np.ndarray:
    """Per-step bass pitch class, -1 where the bass rests; shape (..., 64)."""
    cols = roll[..., BASS_PITCH_COLS].argmax(axis=-1)
    return np.where(cols == BASS_REST_COL - BASS_PITCH_START, -1, cols)
