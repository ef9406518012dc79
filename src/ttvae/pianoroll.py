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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidRollError

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


@dataclass(frozen=True)
class NoteEvent:
    """A note on the 16th-note grid: MIDI pitch, onset step, duration in steps."""

    pitch: int
    onset: int
    duration: int

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise InvalidInputError(f"pitch must be in 0..127, got {self.pitch}")
        if self.onset < 0:
            raise InvalidInputError(f"onset must be >= 0, got {self.onset}")
        if self.duration < 1:
            raise InvalidInputError(f"duration must be >= 1, got {self.duration}")

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass
class TrackPair:
    """Monophonic melody and bass tracks, sorted and non-overlapping."""

    melody: list[NoteEvent] = field(default_factory=list)
    bass: list[NoteEvent] = field(default_factory=list)

    def __post_init__(self):
        for name, notes in (("melody", self.melody), ("bass", self.bass)):
            for a, b in zip(notes, notes[1:]):
                if b.onset < a.end:
                    raise InvalidInputError(
                        f"{name} notes overlap or are unsorted at step {b.onset}")


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


def encode_steps(pitch: np.ndarray, onset: np.ndarray) -> np.ndarray:
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


def encode_roll(pair: TrackPair) -> np.ndarray:
    """Encode a quantized 4-bar window into the 64x89 binary matrix.

    Total over its inputs: melody notes outside MIDI 24..96 become rests, and
    notes are cropped to the 64-step window (see :func:`encode_steps`).
    """
    pitch = np.full((2, N_STEPS), -1)
    onset = np.zeros((2, N_STEPS), dtype=bool)
    for row, notes in enumerate((pair.melody, pair.bass)):
        for note in notes:
            if note.onset < N_STEPS:
                pitch[row, note.onset:note.end] = note.pitch
                onset[row, note.onset] = True
    return encode_steps(pitch, onset)


def decode_track(pitches: np.ndarray, onsets: np.ndarray, rest_value: int,
                 to_pitch) -> list[NoteEvent]:
    """Segment per-step pitch/onset columns, of any length, into note events.

    A note starts where the onset flag is set, or where the pitch value
    changes without one (legato split); it sustains while the pitch column
    stays put and no new onset occurs.
    """
    notes: list[NoteEvent] = []
    current_pitch = None
    current_start = 0
    for step in range(len(pitches)):
        value = int(pitches[step])
        sounding = value != rest_value
        starts_new = sounding and (
            bool(onsets[step]) or current_pitch is None or value != current_pitch)
        if (not sounding or starts_new) and current_pitch is not None:
            notes.append(NoteEvent(to_pitch(current_pitch), current_start,
                                   step - current_start))
            current_pitch = None
        if starts_new:
            current_pitch = value
            current_start = step
    if current_pitch is not None:
        notes.append(NoteEvent(to_pitch(current_pitch), current_start,
                               len(pitches) - current_start))
    return notes


def decode_roll(roll: np.ndarray) -> TrackPair:
    """Invert :func:`encode_roll`; bass realized in the C2-rooted octave."""
    validate_roll(roll)
    if roll.ndim != 2:
        raise InvalidRollError("decode_roll takes one roll, not a stack")
    melody_cols = roll[:, MELODY_PITCH_COLS].argmax(axis=1)
    bass_cols = roll[:, BASS_PITCH_COLS].argmax(axis=1)
    melody = decode_track(melody_cols, roll[:, MELODY_ONSET_COL],
                          MELODY_REST_COL, lambda c: c + MELODY_LOW)
    bass = decode_track(bass_cols, roll[:, BASS_ONSET_COL],
                        BASS_REST_COL - BASS_PITCH_START,
                        lambda c: BASS_DECODE_BASE + c)
    return TrackPair(melody=melody, bass=bass)


def melody_pitch_classes(roll: np.ndarray) -> np.ndarray:
    """Per-step melody pitch class, -1 where the melody rests; shape (..., 64)."""
    cols = roll[..., MELODY_PITCH_COLS].argmax(axis=-1)
    return np.where(cols == MELODY_REST_COL, -1, (cols + MELODY_LOW) % 12)


def bass_pitch_classes(roll: np.ndarray) -> np.ndarray:
    """Per-step bass pitch class, -1 where the bass rests; shape (..., 64)."""
    cols = roll[..., BASS_PITCH_COLS].argmax(axis=-1)
    return np.where(cols == BASS_REST_COL - BASS_PITCH_START, -1, cols)
