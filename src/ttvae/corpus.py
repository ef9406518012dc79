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
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import accumulate, compress
from pathlib import Path

import numpy as np

from .atomic import atomic_write, write_atomic
from .errors import InvalidInputError, InvalidRollError, InvalidSongError, NoKeyError, TtvaeError
from .midi import MidiTrack, Score, parse_midi
from .pianoroll import (
    N_FEATURES,
    N_STEPS,
    STEPS_PER_BAR,
    encode_roll,
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
    """One 4-bar training example: a row of a :class:`FragmentDataset`, read
    only by the benchmark's ingest check (``perfbench/worker.py``)."""

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

    def __len__(self) -> int:
        return len(self.rolls)

    @property
    def fragments(self) -> tuple[Fragment, ...]:
        """One :class:`Fragment` per row, viewing the columns without a copy."""
        return tuple(map(Fragment, self.rolls, self.tensile, self.diameter,
                         self.source_ids, self.bar_offsets))


@dataclass(frozen=True, eq=False)
class SongSteps:
    """A song's melody and bass on the 16th grid: ``pitch`` and ``onset`` are
    (2, steps), melody then bass, as :func:`ttvae.pianoroll.encode_roll`
    reads them.  ``tracks`` are the song's tracks, drum tracks left out."""

    pitch: np.ndarray
    onset: np.ndarray
    tracks: list[MidiTrack]


def _skyline(pitch: np.ndarray, onset: np.ndarray, end: np.ndarray,
             steps: int, keep_high: bool) -> tuple[np.ndarray, np.ndarray]:
    """Monophonize quantized notes on a grid of ``steps``: per-step pitch
    (-1 where silent) and whether a note starts at each step.

    Each step is owned by the extreme sounding pitch; among equal pitches
    the later onset wins, so a re-struck note truncates the one it overlaps.
    A new owner starts a note.
    """
    owner = np.full(steps, -1, dtype=np.intp)
    ranked = np.lexsort((onset, pitch if keep_high else -pitch))
    # Paint in rank order, so each step ends up owned by its top-ranked note.
    for idx, lo, hi in zip(ranked.tolist(), onset[ranked].tolist(),
                           end[ranked].tolist()):
        owner[lo:hi] = idx
    starts = owner != np.concatenate(([-1], owner[:-1]))
    return np.append(pitch, -1)[owner], starts & (owner >= 0)


def _pick_named(tracks: list[MidiTrack], name: str) -> MidiTrack:
    for track in tracks:
        if track.name.lower() == name.lower():
            return track
    raise InvalidSongError(f"no track named {name!r}")


def extract_tracks(score: Score, melody_name: str | None = None,
                   bass_name: str | None = None) -> SongSteps:
    """Choose melody and bass tracks and return them quantized + monophonic.

    Notes snap to the 16th grid (half to even), lasting at least one step.
    The song's extent is checked against :data:`MAX_SONG_STEPS` before any
    per-step array is made.
    """
    candidates = [t for t in score.tracks if len(t.pitch) >= MIN_TRACK_NOTES]
    melody = _pick_named(score.tracks, melody_name) if melody_name else None
    bass = _pick_named(score.tracks, bass_name) if bass_name else None
    if melody is None or bass is None:
        if len(candidates) < 2:
            raise InvalidSongError(
                f"need two non-drum tracks with >= {MIN_TRACK_NOTES} notes, "
                f"found {len(candidates)}")
        # mean pitch from the integer sum
        ordered = sorted(range(len(candidates)), key=lambda i: (
            int(candidates[i].pitch.sum()) / len(candidates[i].pitch), i))
        if melody is None:
            melody = candidates[ordered[-1]]
        if bass is None:
            bass = candidates[ordered[0]]
    if melody is bass:
        raise InvalidSongError("melody and bass resolved to the same track")
    onsets = [np.rint(t.onset * 4) for t in (melody, bass)]
    ends = [np.maximum(np.rint((t.onset + t.duration) * 4), onset + 1)
            for t, onset in zip((melody, bass), onsets)]
    extent = int(max(np.max(end, initial=0) for end in ends))
    if extent > MAX_SONG_STEPS:
        raise InvalidSongError(
            f"melody and bass run {extent} 16th steps, past the cap of "
            f"{MAX_SONG_BARS} bars of 4/4")
    lines = [_skyline(t.pitch, onset.astype(np.intp), end.astype(np.intp),
                      extent, keep_high)
             for t, onset, end, keep_high in zip((melody, bass), onsets, ends,
                                                 (True, False))]
    return SongSteps(*map(np.stack, zip(*lines)), score.tracks)


def _profile_correlations(histogram: np.ndarray) -> np.ndarray:
    """Pearson correlation of the pc histogram with all 24 key profiles."""
    h = histogram - histogram.mean()
    h_norm = np.linalg.norm(h)
    if h_norm == 0:
        return np.zeros(24)
    # one dot product per profile: a matrix-vector product rounds differently
    dots = np.array([h @ p for p in _KEY_PROFILES])
    return dots / (h_norm * _KEY_PROFILE_NORMS)


def detect_key(tracks: list[MidiTrack]) -> Key:
    """Krumhansl-Schmuckler detection on the duration-weighted pc histogram
    of ``tracks``, a song's tracks (:attr:`Score.tracks`).

    Ties break toward major, then toward the lower tonic pitch class.
    """
    pitch = np.concatenate([t.pitch for t in tracks] + [np.zeros(0, np.int64)])
    duration = np.concatenate([t.duration for t in tracks] + [np.zeros(0)])
    histogram = np.bincount(pitch % 12, weights=np.maximum(duration, 0.0),
                            minlength=12)
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


def _clamp_pitches(pitch: np.ndarray) -> np.ndarray:
    """Move each pitch by octaves into 0..127."""
    return np.where(pitch < 0, pitch % 12,
                    np.where(pitch > 127, 127 - (127 - pitch) % 12, pitch))


def transpose_pair(song: SongSteps, shift: int) -> SongSteps:
    """The song moved by ``shift`` semitones, each pitch moved by octaves
    back into 0..127 if it leaves that range; silent steps stay silent."""
    if shift == 0:
        return song
    moved = np.where(song.pitch < 0, -1, _clamp_pitches(song.pitch + shift))
    return replace(song, pitch=moved)


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


def segment(song: SongSteps, meters: list[tuple[float, int, int]] | None = None,
            ) -> tuple[list[int], np.ndarray, list[str]]:
    """Split into non-overlapping 4-bar windows counted from bar 0 and
    encode them: (first bar of each window, rolls, warnings).

    Windows containing non-4/4 or non-contiguous bars are skipped with a
    warning; windows where either track is entirely silent are discarded.
    A note that carries over into a window starts at its step 0.
    """
    warnings: list[str] = []
    pitch, onset = song.pitch, song.onset
    total = pitch.shape[1]
    bars = _bar_grid(meters or [], total, warnings) if total else []
    offsets, starts = [], []
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
        offsets.append(first)
        starts.append(window[0][0])
    steps = np.array(starts, dtype=np.intp).reshape(-1, 1) + np.arange(N_STEPS)
    past = int(steps.max(initial=total - 1)) + 1 - total
    if past > 0:  # bars may run past the last note: those steps are silent
        pitch = np.pad(pitch, ((0, 0), (0, past)), constant_values=-1)
        onset = np.pad(onset, ((0, 0), (0, past)))
    pitch, onset = pitch[:, steps], onset[:, steps]
    kept = (pitch >= 0).any(axis=2).all(axis=0)
    return (list(compress(offsets, kept)),
            encode_roll(pitch[:, kept], onset[:, kept]), warnings)


def _song_rolls(score: Score, melody_name: str | None, bass_name: str | None,
                ) -> tuple[np.ndarray, list[int], Key, list[str]]:
    """One song's (rolls, bar offsets, original key, warnings)."""
    song = extract_tracks(score, melody_name, bass_name)
    key = detect_key(song.tracks)
    offsets, rolls, warnings = segment(
        transpose_pair(song, transposition_shift(key)), score.meters)
    return rolls, offsets, key, warnings


def _with_tension(rolls: np.ndarray, source_ids: list[str],
                  bar_offsets: list[int], meta: dict) -> FragmentDataset:
    """The fragments of ``rolls``, with curves from one tension call (the
    key is always C major; rows are independent, so batching moves no bit)."""
    strain, diameter = tension_curves(rolls)
    return FragmentDataset(rolls, strain.astype(np.float32),
                           diameter.astype(np.float32), source_ids,
                           bar_offsets, meta)


def song_fragments(score: Score, melody_name: str | None = None,
                   bass_name: str | None = None,
                   ) -> tuple[FragmentDataset, Key, list[str]]:
    """Full single-song pipeline; the tension key is always C major."""
    rolls, offsets, key, warnings = _song_rolls(score, melody_name, bass_name)
    return _with_tension(rolls, [""] * len(rolls), offsets, {}), key, warnings


def _input_entry(path: Path, cap: int | None, what: str,
                 ) -> tuple[Path, int, str | None]:
    """(path, bytes to read, reason not to read) from one ``stat``, before
    any read.

    Only a regular file within ``cap`` bytes (if a cap is given) is read:
    opening a FIFO would block, and the bytes read size memory.
    """
    try:
        st = path.stat()
    except OSError as err:
        return path, 0, str(err)
    if not stat.S_ISREG(st.st_mode):
        return path, 0, "not a regular file"
    if cap is not None and st.st_size > cap:
        return path, 0, f"larger than the cap of {cap} bytes for a {what}"
    return path, st.st_size, None


def _read_entry(entry: tuple[Path, int, str | None], cap: int | None,
                what: str) -> bytes:
    """An entry's bytes, or its reason not to read raised.  At most ``cap``
    plus one byte is read: the file may have grown since its ``stat``."""
    path, _, reason = entry
    if reason is not None:
        raise InvalidInputError(reason)
    with open(path, "rb") as fh:
        data = fh.read(-1 if cap is None else cap + 1)
    if cap is not None and len(data) > cap:
        raise InvalidInputError(f"larger than the cap of {cap} bytes for a {what}")
    return data


def read_input(path, what: str, cap: int | None = None) -> bytes:
    """The bytes of the regular file ``path``, read as a corpus entry is.

    Every input file goes through here: MIDI file, dataset and sidecar,
    checkpoint, vectors file, config, chain plan and shape template.  A
    path that is missing or not a regular file, or a failed read, raises
    InvalidInputError naming ``what`` and the path.
    """
    try:
        return _read_entry(_input_entry(Path(path), cap, what), cap, what)
    except (InvalidInputError, OSError) as err:
        raise InvalidInputError(f"cannot read {what} {path}: {err}") from err


def read_json(path, what: str):
    """The JSON value in the regular file ``path``, read by :func:`read_input`;
    text that is not JSON raises InvalidInputError too."""
    raw = read_input(path, what)
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as err:
        raise InvalidInputError(f"cannot read {what} {path}: {err}") from err


def _corpus_entry(path: Path) -> tuple[Path, int, str | None]:
    """A corpus file's entry: the MIDI cap is :data:`MAX_MIDI_BYTES`."""
    return _input_entry(path, MAX_MIDI_BYTES, "MIDI file")


def read_midi_file(path) -> bytes:
    """One MIDI file's bytes, read as a corpus entry is: a FIFO, directory
    or file over :data:`MAX_MIDI_BYTES` raises InvalidInputError unread."""
    return read_input(path, "MIDI file", MAX_MIDI_BYTES)


def _ingest_file(entry: tuple[Path, int, str | None], melody_name: str | None,
                 bass_name: str | None):
    """One corpus entry's ((rolls, bar offsets), key, warnings), or
    (None, skip reason, [])."""
    try:
        data = _read_entry(entry, MAX_MIDI_BYTES, "MIDI file")
        rolls, offsets, key, warnings = _song_rolls(
            parse_midi(data), melody_name, bass_name)
        return (rolls, offsets), str(key), warnings
    except (TtvaeError, OSError) as err:
        return None, str(err), []


def build_dataset(midi_dir, melody_name: str | None = None,
                  bass_name: str | None = None) -> FragmentDataset:
    """Process every .mid/.midi under ``midi_dir`` in filename order.

    Unreadable or unusable files are recorded in the skip report; the batch
    never aborts on a single bad file.  Entries that are not regular files,
    and files over :data:`MAX_MIDI_BYTES`, are skipped without being read.

    The files are split into two runs of about equal bytes: the caller
    builds the rolls of the first and a forked helper process those of the
    second (see :func:`_map_in_two_processes`), and the results are merged
    in file order, so the dataset is the one a single process would build.
    One tension call then scores every roll.
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
    rolls = [np.zeros((0, N_STEPS, N_FEATURES), np.uint8)]
    source_ids, bar_offsets = [], []
    for (path, _, _), (song, detail, warnings) in zip(entries, results):
        if song is None:
            meta["skips"].append({"file": path.name, "reason": detail})
            continue
        meta["original_keys"][path.name] = detail
        meta["warnings"].extend(f"{path.name}: {w}" for w in warnings)
        rolls.append(song[0])
        source_ids += [path.name] * len(song[0])
        bar_offsets += song[1]
    return _with_tension(np.concatenate(rolls), source_ids, bar_offsets, meta)


def _split_point(weights: list[int]) -> int:
    """``k`` in 1..n-1 that splits ``weights`` into two contiguous runs whose
    sums are as close as they can be."""
    total = sum(weights)
    heads = list(accumulate(weights[:-1]))
    return 1 + min(range(len(heads)), key=lambda k: abs(2 * heads[k] - total))


def _map_in_two_processes(fn, items: list, weights: list[int]) -> list:
    """``[fn(item) for item in items]``, computed in two processes.

    The caller maps the first run of items and one helper, forked here, the
    rest (:func:`_split_point` balances their weights).  The helper maps its
    whole run, up to its first exception, and sends it back as one pickled
    message, which the caller reads once its own run is done.  The helper's
    exception is raised here with its message; a helper that dies raises
    :class:`RuntimeError` naming how.  The helper is killed if still running
    and reaped before this returns or raises.  With fewer than two items, or
    without ``os.fork``, the caller maps every item itself.
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
    with os.fdopen(read_fd, "rb") as stream:
        try:
            head = [fn(item) for item in items[:split]]
            try:
                received, error = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):
                # a message cut short, or none: the helper died
                received, error = [], None
            status, pid = os.waitpid(pid, 0)[1], None
        finally:
            if pid is not None:  # the caller's half raised: stop the helper
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if error is not None:
        raise error
    if status != 0 or len(received) != len(tail):
        raise RuntimeError(
            f"corpus helper process {_exit_cause(status)} after "
            f"{len(received)} of {len(tail)} files")
    return head + received


def _serve(fn, items: list, read_fd: int, write_fd: int) -> None:
    """The helper's whole life: map ``items`` up to the first exception,
    pickle ``(results, exception or None)`` to the pipe once, then
    ``os._exit``."""
    code = 1
    try:
        os.close(read_fd)
        results, error = [], None
        try:
            for item in items:
                results.append(fn(item))
        except Exception as err:
            error = _portable(err)
        with os.fdopen(write_fd, "wb") as stream:
            pickle.dump((results, error), stream, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


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
    raw = read_input(path, "dataset")
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
        sidecar = read_json(sidecar_path, "dataset sidecar")
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
