"""MIDI corpus pipeline: track extraction, key normalization, fragmenting.

A song flows through parse -> extract melody/bass -> detect key -> transpose
to C major / A minor -> segment into 4-bar windows -> encode piano rolls ->
attach tension curves (key center fixed at C major).  Songs that cannot
supply both a melody and a bass track are skipped and counted rather than
aborting a batch.

Melody/bass selection replaces an external track-mining tool with a
documented heuristic: among non-drum tracks holding at least eight notes,
the highest mean pitch is the melody and the lowest is the bass, with
optional track-name overrides.  Each chosen track is quantized to the
16th-note grid and made monophonic by keeping the highest (melody) or
lowest (bass) sounding note at every step, truncating whatever it covers.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, InvalidSongError, NoKeyError, TtvaeError
from .midi import MidiNote, MidiTrack, Score, parse_midi
from .pianoroll import (
    N_FEATURES,
    N_STEPS,
    STEPS_PER_BAR,
    NoteEvent,
    TrackPair,
    encode_roll,
)
from .spiral import SpiralConfig, key_center
from .tension import tension_curves

MIN_TRACK_NOTES = 8
DATASET_MAGIC = b"TVAE"
DATASET_VERSION = 1
_ROLL_BYTES = N_STEPS * N_FEATURES
_CURVE_BYTES = N_STEPS * 4

# Krumhansl-Kessler tonal-hierarchy profiles, tonic first.
KK_MAJOR = np.array([6.35, 2.23, 3.48, 2.33, 4.38, 4.09,
                     2.52, 5.19, 2.39, 3.66, 2.29, 2.88])
KK_MINOR = np.array([6.33, 2.68, 3.52, 5.38, 2.60, 3.53,
                     2.54, 4.75, 3.98, 2.69, 3.34, 3.17])

PITCH_CLASS_NAMES = ("C", "Db", "D", "Eb", "E", "F",
                     "F#", "G", "Ab", "A", "Bb", "B")


class Mode(Enum):
    MAJOR = "major"
    MINOR = "minor"


@dataclass(frozen=True)
class Key:
    tonic: int
    mode: Mode

    def __post_init__(self):
        if not 0 <= self.tonic <= 11:
            raise InvalidInputError(f"tonic must be in 0..11, got {self.tonic}")

    def __str__(self) -> str:
        return f"{PITCH_CLASS_NAMES[self.tonic]} {self.mode.value}"


@dataclass
class Fragment:
    """One 4-bar training example: roll plus its two ground-truth curves."""

    roll: np.ndarray          # (64, 89) uint8
    tensile: np.ndarray       # (64,) float32
    diameter: np.ndarray      # (64,) float32
    source_id: str = ""
    bar_offset: int = 0


@dataclass
class FragmentDataset:
    fragments: list[Fragment] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.fragments)

    def rolls(self) -> np.ndarray:
        return np.stack([f.roll for f in self.fragments])

    def curves(self, kind: str) -> np.ndarray:
        if kind not in ("tensile", "diameter"):
            raise InvalidInputError(f"unknown curve kind {kind!r}")
        return np.stack([getattr(f, kind) for f in self.fragments])


def quantize_notes(notes: list[MidiNote]) -> list[tuple[int, int, int]]:
    """Snap (pitch, onset, duration) to the 16th grid; minimum duration 1."""
    out = []
    for n in notes:
        onset = round(n.onset * 4)
        end = round((n.onset + n.duration) * 4)
        out.append((n.pitch, onset, max(1, end - onset)))
    return out


def _skyline(quantized: list[tuple[int, int, int]], keep_high: bool) -> list[NoteEvent]:
    """Monophonize on the step grid, keeping the extreme sounding pitch.

    Simultaneous candidates resolve to the highest (or lowest) pitch; among
    equal pitches the later onset wins, so a re-struck note truncates the
    one it overlaps.
    """
    if not quantized:
        return []
    total = max(onset + dur for _, onset, dur in quantized)
    best: list[tuple | None] = [None] * total
    for idx, (pitch, onset, dur) in enumerate(quantized):
        rank = (pitch if keep_high else -pitch, onset, idx)
        for step in range(onset, onset + dur):
            if best[step] is None or rank > best[step][:3]:
                best[step] = (*rank, pitch)
    notes: list[NoteEvent] = []
    current = None  # (identity, pitch, start)
    for step, chosen in enumerate(best):
        identity = None if chosen is None else chosen[2]
        if current is not None and identity != current[0]:
            notes.append(NoteEvent(current[1], current[2], step - current[2]))
            current = None
        if chosen is not None and current is None:
            current = (identity, chosen[3], step)
    if current is not None:
        notes.append(NoteEvent(current[1], current[2], total - current[2]))
    return notes


def _pick_named(score: Score, name: str) -> MidiTrack:
    for track in score.non_drum_tracks():
        if track.name.lower() == name.lower():
            return track
    raise InvalidSongError(f"no track named {name!r}")


def extract_tracks(score: Score, melody_name: str | None = None,
                   bass_name: str | None = None) -> TrackPair:
    """Choose melody and bass tracks and return them quantized + monophonic."""
    candidates = [t for t in score.non_drum_tracks()
                  if len(t.notes) >= MIN_TRACK_NOTES]
    melody_track = _pick_named(score, melody_name) if melody_name else None
    bass_track = _pick_named(score, bass_name) if bass_name else None
    if melody_track is None or bass_track is None:
        if len(candidates) < 2:
            raise InvalidSongError(
                f"need two non-drum tracks with >= {MIN_TRACK_NOTES} notes, "
                f"found {len(candidates)}")
        ordered = sorted(range(len(candidates)),
                         key=lambda i: (candidates[i].mean_pitch(), i))
        if melody_track is None:
            melody_track = candidates[ordered[-1]]
        if bass_track is None:
            bass_track = candidates[ordered[0]]
    if melody_track is bass_track:
        raise InvalidSongError("melody and bass resolved to the same track")
    return TrackPair(
        melody=_skyline(quantize_notes(melody_track.notes), keep_high=True),
        bass=_skyline(quantize_notes(bass_track.notes), keep_high=False),
    )


def _profile_correlations(histogram: np.ndarray) -> np.ndarray:
    """Pearson correlation of the pc histogram with all 24 key profiles."""
    scores = np.zeros(24)
    h = histogram - histogram.mean()
    h_norm = np.linalg.norm(h)
    if h_norm == 0:
        return scores
    for mode_idx, profile in enumerate((KK_MAJOR, KK_MINOR)):
        for tonic in range(12):
            p = np.roll(profile, tonic)
            p = p - p.mean()
            scores[mode_idx * 12 + tonic] = h @ p / (h_norm * np.linalg.norm(p))
    return scores


def detect_key(score: Score) -> Key:
    """Krumhansl-Schmuckler detection on a duration-weighted pc histogram.

    Ties break toward major, then toward the lower tonic pitch class.
    """
    histogram = np.zeros(12)
    for track in score.non_drum_tracks():
        for note in track.notes:
            histogram[note.pitch % 12] += max(note.duration, 0.0)
    if histogram.sum() <= 0:
        raise NoKeyError("score has no sounding notes to detect a key from")
    scores = _profile_correlations(histogram)
    best = int(np.argmax(scores))  # majors occupy 0..11, so ties favor major
    return Key(tonic=best % 12, mode=Mode.MAJOR if best < 12 else Mode.MINOR)


def transposition_shift(key: Key) -> int:
    """Signed semitone shift of minimal magnitude mapping the key to C/A.

    The +/-6 tie resolves upward (+6).
    """
    target = 0 if key.mode is Mode.MAJOR else 9
    up = (target - key.tonic) % 12
    return up if up <= 6 else up - 12


def _clamp_pitch(pitch: int) -> int:
    while pitch < 0:
        pitch += 12
    while pitch > 127:
        pitch -= 12
    return pitch


def transpose_to_c(score: Score, key: Key) -> Score:
    """Shift all non-drum notes so the detected key becomes C major / A minor."""
    shift = transposition_shift(key)
    tracks = []
    for track in score.tracks:
        if track.is_drum or shift == 0:
            notes = [MidiNote(n.pitch, n.onset, n.duration, n.velocity)
                     for n in track.notes]
        else:
            notes = [MidiNote(_clamp_pitch(n.pitch + shift), n.onset,
                              n.duration, n.velocity) for n in track.notes]
        tracks.append(MidiTrack(track.name, track.channel, notes))
    return Score(tracks=tracks, tempos=list(score.tempos),
                 meters=list(score.meters), markers=list(score.markers))


def transpose_pair(pair: TrackPair, shift: int) -> TrackPair:
    if shift == 0:
        return pair
    return TrackPair(
        melody=[NoteEvent(_clamp_pitch(n.pitch + shift), n.onset, n.duration)
                for n in pair.melody],
        bass=[NoteEvent(_clamp_pitch(n.pitch + shift), n.onset, n.duration)
              for n in pair.bass],
    )


def _bar_grid(meters: list[tuple[float, int, int]], total_steps: int,
              warnings: list[str]) -> list[tuple[int, int, bool]]:
    """(start_step, length, is_4_4) for every full bar up to total_steps."""
    regions = sorted(meters) if meters else [(0.0, 4, 4)]
    bars: list[tuple[int, int, bool]] = []
    for i, (beat, num, den) in enumerate(regions):
        start = round(beat * 4)
        end = round(regions[i + 1][0] * 4) if i + 1 < len(regions) else total_steps
        if num < 1 or num * STEPS_PER_BAR % den:
            warnings.append(f"meter {num}/{den} not representable on the "
                            f"16th grid; region at step {start} skipped")
            continue
        bar_len = num * STEPS_PER_BAR // den
        while start + bar_len <= end:
            bars.append((start, bar_len, (num, den) == (4, 4)))
            start += bar_len
    return bars


def _slice_track(notes: list[NoteEvent], start: int, end: int) -> list[NoteEvent]:
    out = []
    for n in notes:
        if n.onset < end and n.end > start:
            lo = max(n.onset, start)
            hi = min(n.end, end)
            out.append(NoteEvent(n.pitch, lo - start, hi - lo))
    return out


def segment(pair: TrackPair, meters: list[tuple[float, int, int]] | None = None,
            ) -> tuple[list[tuple[int, TrackPair]], list[str]]:
    """Split into non-overlapping 4-bar windows counted from bar 0.

    Windows containing non-4/4 or non-contiguous bars are skipped with a
    warning; windows where either track is entirely silent are discarded.
    """
    warnings: list[str] = []
    ends = [n.end for n in pair.melody] + [n.end for n in pair.bass]
    if not ends:
        return [], warnings
    bars = _bar_grid(meters or [], max(ends), warnings)
    fragments: list[tuple[int, TrackPair]] = []
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
        melody = _slice_track(pair.melody, start, start + N_STEPS)
        bass = _slice_track(pair.bass, start, start + N_STEPS)
        if not melody or not bass:
            continue
        fragments.append((first, TrackPair(melody=melody, bass=bass)))
    return fragments, warnings


def song_fragments(score: Score, melody_name: str | None = None,
                   bass_name: str | None = None,
                   cfg: SpiralConfig = SpiralConfig(),
                   ) -> tuple[list[Fragment], Key, list[str]]:
    """Full single-song pipeline; the tension key is always C major."""
    pair = extract_tracks(score, melody_name, bass_name)
    key = detect_key(score)
    pair = transpose_pair(pair, transposition_shift(key))
    windows, warnings = segment(pair, score.meters)
    if not windows:
        return [], key, warnings
    rolls = np.stack([encode_roll(window) for _, window in windows])
    strain, diameter = tension_curves(rolls, key_center(0, cfg), cfg)
    fragments = [
        Fragment(roll=roll, tensile=tensile, diameter=diam, bar_offset=bar_offset)
        for (bar_offset, _), roll, tensile, diam in zip(
            windows, rolls, strain.values.astype(np.float32),
            diameter.values.astype(np.float32))
    ]
    return fragments, key, warnings


def build_dataset(midi_dir, melody_name: str | None = None,
                  bass_name: str | None = None,
                  cfg: SpiralConfig = SpiralConfig()) -> FragmentDataset:
    """Process every .mid/.midi under ``midi_dir`` in filename order.

    Unreadable or unusable files are recorded in the skip report; the batch
    never aborts on a single bad file.
    """
    midi_dir = Path(midi_dir)
    if not midi_dir.is_dir():
        raise InvalidInputError(f"not a directory: {midi_dir}")
    files = sorted(p for p in midi_dir.iterdir()
                   if p.suffix.lower() in (".mid", ".midi"))
    dataset = FragmentDataset(meta={"original_keys": {}, "skips": [],
                                    "warnings": []})
    for path in files:
        try:
            score = parse_midi(path.read_bytes())
            fragments, key, warnings = song_fragments(
                score, melody_name, bass_name, cfg)
        except (TtvaeError, OSError) as err:
            dataset.meta["skips"].append(
                {"file": path.name, "reason": str(err)})
            continue
        dataset.meta["original_keys"][path.name] = str(key)
        dataset.meta["warnings"].extend(
            f"{path.name}: {w}" for w in warnings)
        for fragment in fragments:
            fragment.source_id = path.name
            dataset.fragments.append(fragment)
    return dataset


def save_dataset(dataset: FragmentDataset, path) -> None:
    """Binary fragment file plus a JSON sidecar at ``<path>.json``."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HI", DATASET_VERSION, len(dataset.fragments)))
        for f in dataset.fragments:
            fh.write(f.roll.astype(np.uint8).tobytes())
            fh.write(f.tensile.astype("<f4").tobytes())
            fh.write(f.diameter.astype("<f4").tobytes())
    sidecar = {
        "source_ids": [f.source_id for f in dataset.fragments],
        "bar_offsets": [f.bar_offset for f in dataset.fragments],
        "original_keys": dataset.meta.get("original_keys", {}),
        "skips": dataset.meta.get("skips", []),
        "warnings": dataset.meta.get("warnings", []),
    }
    path.with_name(path.name + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_dataset(path) -> FragmentDataset:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise InvalidInputError(f"{path} is not a fragment dataset")
    offset = 4 + 6
    if len(raw) < offset:
        raise InvalidInputError(
            f"dataset truncated: the header needs {offset} bytes, have {len(raw)}")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != DATASET_VERSION:
        raise InvalidInputError(f"unsupported dataset version {version}")
    record = _ROLL_BYTES + 2 * _CURVE_BYTES
    if len(raw) != offset + count * record:
        raise InvalidInputError(
            f"dataset truncated: expected {offset + count * record} bytes, "
            f"have {len(raw)}")
    sidecar_path = path.with_name(path.name + ".json")
    sidecar = {}
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except (OSError, ValueError) as err:
            raise InvalidInputError(
                f"cannot read dataset sidecar {sidecar_path}: {err}") from err
        if not isinstance(sidecar, dict):
            raise InvalidInputError(f"dataset sidecar {sidecar_path} is not an object")
    source_ids = sidecar.get("source_ids") or [""] * count
    bar_offsets = sidecar.get("bar_offsets") or [0] * count
    for name, values in (("source_ids", source_ids), ("bar_offsets", bar_offsets)):
        if not isinstance(values, list) or len(values) < count:
            raise InvalidInputError(
                f"dataset sidecar {name} must list {count} entries")

    dataset = FragmentDataset(meta={k: v for k, v in sidecar.items()
                                    if k not in ("source_ids", "bar_offsets")})
    for i in range(count):
        roll = np.frombuffer(raw, np.uint8, _ROLL_BYTES, offset)
        roll = roll.reshape(N_STEPS, N_FEATURES).copy()
        offset += _ROLL_BYTES
        tensile = np.frombuffer(raw, "<f4", N_STEPS, offset).copy()
        offset += _CURVE_BYTES
        diameter = np.frombuffer(raw, "<f4", N_STEPS, offset).copy()
        offset += _CURVE_BYTES
        dataset.fragments.append(Fragment(
            roll=roll, tensile=tensile, diameter=diameter,
            source_id=source_ids[i], bar_offset=bar_offsets[i]))
    return dataset
