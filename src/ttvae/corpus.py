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
A song whose melody or bass runs past ``MAX_SONG_BARS`` is skipped.

A :class:`FragmentDataset` holds columns: ``rolls`` (n, 64, 89) uint8,
``tensile`` and ``diameter`` (n, 64) float32, ``source_ids`` and
``bar_offsets``; row ``i`` of each is fragment ``i``.  The dataset file holds
one :data:`RECORD_DTYPE` record per fragment, read and written in one piece.
"""

from __future__ import annotations

import json
import os
import pickle
import stat
import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from pathlib import Path

import numpy as np

from .atomic import atomic_write, write_atomic
from .errors import InvalidInputError, InvalidRollError, InvalidSongError, NoKeyError, TtvaeError
from .midi import MidiNote, MidiTrack, Score, parse_midi
from .pianoroll import (
    N_FEATURES,
    N_STEPS,
    STEPS_PER_BAR,
    NoteEvent,
    TrackPair,
    encode_roll,
    unchecked_note,
    unchecked_pair,
    validate_roll,
)
from .tension import tension_curves

MIN_TRACK_NOTES = 8
# Songs whose melody or bass runs past this many 4/4 bars are skipped: no real
# song comes near it, and a corrupt note length must not size the step grid.
MAX_SONG_BARS = 2048
MAX_SONG_STEPS = MAX_SONG_BARS * STEPS_PER_BAR
# Corpus files larger than this are skipped unread, and no more than this is
# read.  It allows 2 KiB per bar of a song at MAX_SONG_BARS: sixteen tracks,
# one per MIDI channel, each striking a note on every 16th step, at 8 bytes a
# note (a note-on and a note-off of a 1-byte delta and 3 bytes).  A file past
# it is longer or denser than any song ingest keeps, and parsing costs about
# 35 bytes of memory per file byte.  Real songs are tens of kilobytes.
MAX_MIDI_BYTES = MAX_SONG_BARS * 2048
_OVERSIZE = f"larger than the cap of {MAX_MIDI_BYTES} bytes for a MIDI file"
DATASET_MAGIC = b"TVAE"
DATASET_VERSION = 1
# One fragment of the dataset file, 6,208 bytes.
RECORD_DTYPE = np.dtype([("roll", "u1", (N_STEPS, N_FEATURES)),
                         ("tensile", "<f4", (N_STEPS,)),
                         ("diameter", "<f4", (N_STEPS,))])
# Rolls per validate_roll call on load: keeps its temporaries small and in
# cache (64 was the fastest of 32-1024 on a 20,000-fragment file).
VALIDATE_CHUNK = 64

# Krumhansl-Kessler tonal-hierarchy profiles, tonic first.
KK_MAJOR = np.array([6.35, 2.23, 3.48, 2.33, 4.38, 4.09,
                     2.52, 5.19, 2.39, 3.66, 2.29, 2.88])
KK_MINOR = np.array([6.33, 2.68, 3.52, 5.38, 2.60, 3.53,
                     2.54, 4.75, 3.98, 2.69, 3.34, 3.17])

# The 24 key profiles (12 major tonics, then 12 minor), each rotated to its
# tonic and centred, with their norms, for the Pearson correlations.
_KEY_PROFILES = [p - p.mean() for p in (np.roll(profile, tonic)
                                         for profile in (KK_MAJOR, KK_MINOR)
                                         for tonic in range(12))]
_KEY_PROFILE_NORMS = np.array([np.linalg.norm(p) for p in _KEY_PROFILES])

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


@dataclass(frozen=True)
class Fragment:
    """One 4-bar training example: a row of a :class:`FragmentDataset`."""

    roll: np.ndarray          # (64, 89) uint8
    tensile: np.ndarray       # (64,) float32
    diameter: np.ndarray      # (64,) float32
    source_id: str = ""
    bar_offset: int = 0


@dataclass
class FragmentDataset:
    """Fragments as columns; row ``i`` of each column is fragment ``i``."""

    rolls: np.ndarray         # (n, 64, 89) uint8
    tensile: np.ndarray       # (n, 64) float32
    diameter: np.ndarray      # (n, 64) float32
    source_ids: list[str]
    bar_offsets: list[int]
    meta: dict = field(default_factory=dict)

    @classmethod
    def empty(cls) -> FragmentDataset:
        return cls(np.zeros((0, N_STEPS, N_FEATURES), np.uint8),
                   np.zeros((0, N_STEPS), np.float32),
                   np.zeros((0, N_STEPS), np.float32), [], [])

    def __len__(self) -> int:
        return len(self.rolls)

    @property
    def fragments(self) -> tuple[Fragment, ...]:
        """One :class:`Fragment` per row, viewing the columns without a copy."""
        return tuple(map(Fragment, self.rolls, self.tensile, self.diameter,
                         self.source_ids, self.bar_offsets))


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
    sign = 1 if keep_high else -1
    ranked = sorted(range(len(quantized)), key=lambda i: (
        sign * quantized[i][0], quantized[i][1], i))
    # Paint in rank order, so each step ends up owned by its top-ranked note.
    owner = np.full(total, -1, dtype=np.intp)
    for idx in ranked:
        _, onset, dur = quantized[idx]
        owner[onset:onset + dur] = idx
    starts = np.flatnonzero(np.diff(owner, prepend=-2)).tolist()
    ends = starts[1:] + [total]
    return [NoteEvent(quantized[idx][0], start, end - start)
            for idx, start, end in zip(owner[starts].tolist(), starts, ends)
            if idx >= 0]


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
    melody = quantize_notes(melody_track.notes)
    bass = quantize_notes(bass_track.notes)
    extent = max((onset + dur for _, onset, dur in melody + bass), default=0)
    if extent > MAX_SONG_STEPS:
        raise InvalidSongError(
            f"melody and bass run {extent} 16th steps, past the cap of "
            f"{MAX_SONG_BARS} bars of 4/4")
    return unchecked_pair(_skyline(melody, keep_high=True),
                          _skyline(bass, keep_high=False))


def _profile_correlations(histogram: np.ndarray) -> np.ndarray:
    """Pearson correlation of the pc histogram with all 24 key profiles."""
    h = histogram - histogram.mean()
    h_norm = np.linalg.norm(h)
    if h_norm == 0:
        return np.zeros(24)
    # one dot product per profile: a matrix-vector product rounds differently
    dots = np.array([h @ p for p in _KEY_PROFILES])
    return dots / (h_norm * _KEY_PROFILE_NORMS)


def detect_key(score: Score) -> Key:
    """Krumhansl-Schmuckler detection on a duration-weighted pc histogram.

    Ties break toward major, then toward the lower tonic pitch class.
    """
    notes = [n for track in score.non_drum_tracks() for n in track.notes]
    pcs = np.fromiter((n.pitch % 12 for n in notes), np.intp, len(notes))
    durations = np.fromiter((max(n.duration, 0.0) for n in notes), np.float64,
                            len(notes))
    histogram = np.bincount(pcs, weights=durations, minlength=12)
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
    return unchecked_pair(
        [unchecked_note(_clamp_pitch(n.pitch + shift), n.onset, n.duration)
         for n in pair.melody],
        [unchecked_note(_clamp_pitch(n.pitch + shift), n.onset, n.duration)
         for n in pair.bass])


def _bar_grid(meters: list[tuple[float, int, int]], total_steps: int,
              warnings: list[str]) -> list[tuple[int, int, bool]]:
    """(start_step, length, is_4_4) for every full bar up to total_steps."""
    regions = sorted(meters) if meters else [(0.0, 4, 4)]
    bars: list[tuple[int, int, bool]] = []
    for i, (beat, num, den) in enumerate(regions):
        start = round(beat * 4)
        end = round(regions[i + 1][0] * 4) if i + 1 < len(regions) else total_steps
        # songs never run past the cap, so neither need their bars
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


def _slice_track(notes: list[NoteEvent], ends: list[int], start: int,
                 end: int) -> list[NoteEvent]:
    """The notes that overlap steps [start, end), clipped and made relative.

    ``notes`` are sorted and do not overlap, so their ``ends`` are sorted too
    and the first overlapping note is found by bisection.
    """
    out = []
    for i in range(bisect_right(ends, start), len(notes)):
        n = notes[i]
        if n.onset >= end:
            break
        lo = max(n.onset, start)
        hi = min(ends[i], end)
        out.append(unchecked_note(n.pitch, lo - start, hi - lo))
    return out


def segment(pair: TrackPair, meters: list[tuple[float, int, int]] | None = None,
            ) -> tuple[list[tuple[int, TrackPair]], list[str]]:
    """Split into non-overlapping 4-bar windows counted from bar 0.

    Windows containing non-4/4 or non-contiguous bars are skipped with a
    warning; windows where either track is entirely silent are discarded.
    """
    warnings: list[str] = []
    melody_ends = [n.end for n in pair.melody]
    bass_ends = [n.end for n in pair.bass]
    if not melody_ends and not bass_ends:
        return [], warnings
    bars = _bar_grid(meters or [], max(melody_ends + bass_ends), warnings)
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
        melody = _slice_track(pair.melody, melody_ends, start, start + N_STEPS)
        bass = _slice_track(pair.bass, bass_ends, start, start + N_STEPS)
        if not melody or not bass:
            continue
        fragments.append((first, unchecked_pair(melody, bass)))
    return fragments, warnings


def song_fragments(score: Score, melody_name: str | None = None,
                   bass_name: str | None = None,
                   ) -> tuple[FragmentDataset, Key, list[str]]:
    """Full single-song pipeline; the tension key is always C major."""
    pair = extract_tracks(score, melody_name, bass_name)
    key = detect_key(score)
    pair = transpose_pair(pair, transposition_shift(key))
    windows, warnings = segment(pair, score.meters)
    if not windows:
        return FragmentDataset.empty(), key, warnings
    rolls = np.stack([encode_roll(window) for _, window in windows])
    strain, diameter = tension_curves(rolls)
    return FragmentDataset(
        rolls=rolls, tensile=strain.values.astype(np.float32),
        diameter=diameter.values.astype(np.float32),
        source_ids=[""] * len(windows),
        bar_offsets=[bar_offset for bar_offset, _ in windows]), key, warnings


def _corpus_entry(path: Path) -> tuple[Path, int, str | None]:
    """(path, bytes to read, skip reason) from one ``stat``, before any read.

    Only a regular file within :data:`MAX_MIDI_BYTES` is read: opening a
    FIFO would block, and the bytes read size the parse's memory.
    """
    try:
        st = path.stat()
    except OSError as err:
        return path, 0, str(err)
    if not stat.S_ISREG(st.st_mode):
        return path, 0, "not a regular file"
    if st.st_size > MAX_MIDI_BYTES:
        return path, 0, _OVERSIZE
    return path, st.st_size, None


def _read_entry(entry: tuple[Path, int, str | None]) -> bytes:
    """A corpus entry's bytes, or its skip reason raised.  At most the cap
    plus one byte is read: the file may have grown since its ``stat``."""
    path, _, reason = entry
    if reason is not None:
        raise InvalidInputError(reason)
    with open(path, "rb") as fh:
        data = fh.read(MAX_MIDI_BYTES + 1)
    if len(data) > MAX_MIDI_BYTES:
        raise InvalidInputError(_OVERSIZE)
    return data


def read_midi_file(path) -> bytes:
    """One MIDI file's bytes, read as a corpus entry is: a FIFO, directory
    or file over :data:`MAX_MIDI_BYTES` raises InvalidInputError unread."""
    try:
        return _read_entry(_corpus_entry(Path(path)))
    except (InvalidInputError, OSError) as err:
        raise InvalidInputError(f"cannot read MIDI file {path}: {err}") from err


def _ingest_file(entry: tuple[Path, int, str | None], melody_name: str | None,
                 bass_name: str | None):
    """One corpus entry's (song, key, warnings), or (None, skip reason, [])."""
    try:
        song, key, warnings = song_fragments(
            parse_midi(_read_entry(entry)), melody_name, bass_name)
        return song, str(key), warnings
    except (TtvaeError, OSError) as err:
        return None, str(err), []


def build_dataset(midi_dir, melody_name: str | None = None,
                  bass_name: str | None = None) -> FragmentDataset:
    """Process every .mid/.midi under ``midi_dir`` in filename order.

    Unreadable or unusable files are recorded in the skip report; the batch
    never aborts on a single bad file.  Entries that are not regular files,
    and files over :data:`MAX_MIDI_BYTES`, are skipped without being read.

    The files are split into two runs of about equal bytes: the caller
    builds the first and a forked helper process the second (see
    :func:`_map_in_two_processes`), and the results are merged in file
    order, so the dataset is the one a single process would build.
    """
    midi_dir = Path(midi_dir)
    if not midi_dir.is_dir():
        raise InvalidInputError(f"not a directory: {midi_dir}")
    entries = [_corpus_entry(p) for p in sorted(
        p for p in midi_dir.iterdir() if p.suffix.lower() in (".mid", ".midi"))]
    results = _map_in_two_processes(
        lambda entry: _ingest_file(entry, melody_name, bass_name),
        entries, [size for _, size, _ in entries])
    meta = {"original_keys": {}, "skips": [], "warnings": []}
    # The empty part keeps the concatenation defined when no song is usable.
    songs = [FragmentDataset.empty()]
    source_ids, bar_offsets = [], []
    for (path, _, _), (song, detail, warnings) in zip(entries, results):
        if song is None:
            meta["skips"].append({"file": path.name, "reason": detail})
            continue
        meta["original_keys"][path.name] = detail
        meta["warnings"].extend(f"{path.name}: {w}" for w in warnings)
        songs.append(song)
        source_ids += [path.name] * len(song)
        bar_offsets += song.bar_offsets
    return FragmentDataset(
        rolls=np.concatenate([song.rolls for song in songs]),
        tensile=np.concatenate([song.tensile for song in songs]),
        diameter=np.concatenate([song.diameter for song in songs]),
        source_ids=source_ids, bar_offsets=bar_offsets, meta=meta)


def _split_point(weights: list[int]) -> int:
    """``k`` in 1..n-1 that splits ``weights`` into two contiguous runs whose
    sums are as close as they can be."""
    total = sum(weights)
    heads = list(accumulate(weights[:-1]))
    return 1 + min(range(len(heads)), key=lambda k: abs(2 * heads[k] - total))


def _map_in_two_processes(fn, items: list, weights: list[int]) -> list:
    """``[fn(item) for item in items]``, computed in two processes.

    The caller maps the first run of items and one helper, forked here, the
    rest (:func:`_split_point` balances their weights).  The helper pickles
    each result to a pipe as soon as it has it, and a thread of the caller
    unpickles them as they come, so the helper does not stall on a full
    pipe while the caller works.  The
    helper's first exception is raised here with its message; a helper that
    dies raises :class:`RuntimeError` naming how.  The helper is killed if
    still running and reaped before this returns or raises.  With fewer than
    two items, or without ``os.fork``, the caller maps every item itself.
    """
    if len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    split = _split_point(weights)
    tail = items[split:]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _serve(fn, tail, read_fd, write_fd)
    os.close(write_fd)
    stream = os.fdopen(read_fd, "rb")
    received: list[tuple[bool, object]] = []
    reader = threading.Thread(target=_receive, args=(stream, received),
                              daemon=True)
    try:
        reader.start()
        head = [fn(item) for item in items[:split]]
        reader.join()
        status, pid = os.waitpid(pid, 0)[1], None
    finally:
        if pid is not None:  # the caller's half raised: stop the helper
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if reader.is_alive():
            reader.join()
        stream.close()
    for ok, value in received:
        if not ok:
            raise value
    if status != 0 or len(received) != len(tail):
        raise RuntimeError(
            f"corpus helper process {_exit_cause(status)} after "
            f"{len(received)} of {len(tail)} files")
    return head + [value for _, value in received]


def _serve(fn, items: list, read_fd: int, write_fd: int) -> None:
    """The helper's whole life: pickle ``(True, fn(item))`` per item to the
    pipe, or ``(False, exception)`` and stop; then ``os._exit``."""
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as stream:
            for item in items:
                try:
                    message = (True, fn(item))
                except Exception as err:
                    message = (False, _portable(err))
                pickle.dump(message, stream, pickle.HIGHEST_PROTOCOL)
                stream.flush()
                if not message[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(stream, received: list) -> None:
    """Unpickle the helper's messages into ``received`` until the pipe ends."""
    try:
        while True:
            received.append(pickle.load(stream))
    except (EOFError, pickle.UnpicklingError):
        # The end of the pipe, or a message cut short by the helper's
        # death; the caller checks the count and the exit status.
        pass


def _portable(err: Exception) -> Exception:
    """``err`` if it survives a pickle round trip, else a RuntimeError
    carrying its type and message."""
    try:
        pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def _exit_cause(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal
        return f"was killed by {signal.Signals(-code).name}"
    return f"exited with status {code}"


def save_dataset(dataset: FragmentDataset, path) -> None:
    """Binary fragment file plus a JSON sidecar at ``<path>.json``."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HI", DATASET_VERSION, len(dataset)))
        fh.write(np.rec.fromarrays(
            [dataset.rolls, dataset.tensile, dataset.diameter],
            dtype=RECORD_DTYPE).data)
    sidecar = {
        "source_ids": dataset.source_ids,
        "bar_offsets": dataset.bar_offsets,
        "original_keys": dataset.meta.get("original_keys", {}),
        "skips": dataset.meta.get("skips", []),
        "warnings": dataset.meta.get("warnings", []),
    }
    write_atomic(path.with_name(path.name + ".json"),
                 json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _validate_rolls(rolls: np.ndarray, first: int = 0,
                    chunk: int = VALIDATE_CHUNK) -> None:
    """:func:`validate_roll` over a stack, naming the first bad fragment."""
    for start in range(0, len(rolls), chunk):
        try:
            validate_roll(rolls[start:start + chunk])
        except InvalidRollError as err:
            if chunk == 1:
                raise InvalidInputError(
                    f"dataset fragment {first + start}: {err}") from err
            # one roll at a time, to name the bad one
            _validate_rolls(rolls[start:start + chunk], first + start, 1)


def _sidecar_list(sidecar: dict, name: str, count: int, what: str,
                  valid, default) -> list:
    """The sidecar's ``name`` list, checked; ``count`` defaults if absent."""
    if name not in sidecar:
        return [default] * count
    values = sidecar[name]
    if not (isinstance(values, list) and len(values) == count
            and all(map(valid, values))):
        raise InvalidInputError(
            f"dataset sidecar {name} must list {count} {what}")
    return values


def load_dataset(path) -> FragmentDataset:
    """Read a dataset and its sidecar, checking every roll, curve and list.

    The columns are read-only views of the file's bytes.
    """
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
    expected = offset + count * RECORD_DTYPE.itemsize
    if len(raw) != expected:
        raise InvalidInputError(
            f"dataset truncated: expected {expected} bytes, have {len(raw)}")
    records = np.frombuffer(raw, RECORD_DTYPE, count, offset)
    _validate_rolls(records["roll"])
    finite = (np.isfinite(records["tensile"]).all(axis=1)
              & np.isfinite(records["diameter"]).all(axis=1))
    if not finite.all():
        raise InvalidInputError(
            f"dataset fragment {int(np.argmin(finite))}: tension curve "
            f"values must be finite")

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
    return FragmentDataset(
        rolls=records["roll"], tensile=records["tensile"],
        diameter=records["diameter"],
        source_ids=_sidecar_list(sidecar, "source_ids", count, "strings",
                                 lambda v: isinstance(v, str), ""),
        bar_offsets=_sidecar_list(
            sidecar, "bar_offsets", count, "non-negative integers",
            lambda v: type(v) is int and v >= 0, 0),
        meta={k: v for k, v in sidecar.items()
              if k not in ("source_ids", "bar_offsets")})
