"""Deterministic toy corpus: 8 songs, 32 fragments with engineered tension.

Each 16-bar song holds two "rising" and two "falling" fragments.  Rising
fragments climb one of two strain ladders against the C-major key center --
a sharp-side ladder ending on F#/B over a B bass and a flat-side ladder
ending on Ab/Eb over an Eb bass -- and falling fragments reverse the bar
order.  Using both ladders in every song balances the pitch-class budget so
every song key-detects as C major (verified: correlation 0.76 vs 0.64 for
the runner-up), which keeps transposition from disturbing the engineered
shapes.  Variants differ in rhythm, octave, and note order so the corpus is
memorizable but not degenerate.
"""

import numpy as np

from ttvae.midi import MidiTrack, Score, write_midi


def midi_track(notes, name="", channel=0):
    """A :class:`MidiTrack` of ``(pitch, onset, duration[, velocity])``
    notes, in the order given; the velocity defaults to 80."""
    rows = np.array([(*note, 80)[:4] for note in notes], np.float64).reshape(-1, 4)
    return MidiTrack(name, channel, rows[:, 0].astype(np.int64), rows[:, 1],
                     rows[:, 2], rows[:, 3].astype(np.int64))


# Two ladders of (melody pitch pair, bass pitch), ordered low -> high
# tensile strain (bar averages ~0.6 / 0.9 / 1.3 / 1.7).
LADDERS = {
    "sharp": [
        ((72, 67), 36),   # C5/G4 over C2
        ((65, 69), 36),   # F4/A4 over C2
        ((71, 76), 40),   # B4/E5 over E2
        ((66, 71), 47),   # F#4/B4 over B2
    ],
    "flat": [
        ((72, 67), 36),   # C5/G4 over C2
        ((76, 65), 36),   # E5/F4 over C2
        ((74, 69), 38),   # D5/A4 over D2
        ((68, 75), 39),   # Ab4/Eb5 over Eb2
    ],
}

MELODY_RHYTHMS = [
    (16,),
    (8, 8),
    (8, 4, 4),
    (4, 4, 8),
]


def _fragment_notes(ladder: str, direction: str, variant: int, start_step: int):
    """Melody and bass (pitch, onset_step, dur_steps) lists for 4 bars.

    The melody holds one pitch per bar (the rhythm only re-strikes it), so a
    decoder must reproduce four 16-step pitch plateaus per fragment rather
    than intra-bar alternations.
    """
    order = range(4) if direction == "up" else range(3, -1, -1)
    rhythm = MELODY_RHYTHMS[variant % 4]
    octave = 12 if variant >= 8 else 0
    bass_halves = (variant // 4) % 2 == 1
    melody, bass = [], []
    for slot, bar in enumerate(order):
        pitches, bass_pitch = LADDERS[ladder][bar]
        pitch = pitches[(variant + slot) % 2] + octave
        bar_start = start_step + 16 * slot
        step = bar_start
        for dur in rhythm:
            melody.append((pitch, step, dur))
            step += dur
        if bass_halves:
            bass.append((bass_pitch, bar_start, 8))
            bass.append((bass_pitch, bar_start + 8, 8))
        else:
            bass.append((bass_pitch, bar_start, 16))
    return melody, bass


SONG_PLAN = [("sharp", "up"), ("sharp", "down"), ("flat", "up"), ("flat", "down")]


def toy_song(index: int) -> Score:
    """16-bar song: sharp up, sharp down, flat up, flat down."""
    melody_notes, bass_notes = [], []
    for block, (ladder, direction) in enumerate(SONG_PLAN):
        variant = 2 * index + (block // 2)
        melody, bass = _fragment_notes(ladder, direction, variant, 64 * block)
        melody_notes.extend(melody)
        bass_notes.extend(bass)
    to_beats = lambda items: [(p, s / 4.0, d / 4.0) for p, s, d in items]
    return Score(
        tracks=[midi_track(to_beats(melody_notes), "melody", 0),
                midi_track(to_beats(bass_notes), "bass", 1)],
        tempos=[(0.0, 120.0)],
        meters=[(0.0, 4, 4)],
    )


def expected_direction(fragment_index: int) -> str:
    """Direction of the i-th fragment in build order (song-major order)."""
    return SONG_PLAN[fragment_index % 4][1]


def write_toy_corpus(directory) -> list:
    """Write song00.mid .. song07.mid; returns the paths."""
    paths = []
    for i in range(8):
        path = directory / f"song{i:02d}.mid"
        path.write_bytes(write_midi(toy_song(i)))
        paths.append(path)
    return paths
