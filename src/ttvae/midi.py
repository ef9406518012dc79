"""Minimal standard-MIDI-file codec for formats 0 and 1 with PPQN timing.

Reads note on/off pairs, tempo, time-signature, track-name and marker events
into a :class:`Score` whose times are expressed in quarter-note beats; all
other events are skipped.  SMPTE divisions and format 2 files are rejected.
The reader is one pass over the bytes: each chunk is read by one loop over
an index into the file, every read checked against the file length, and a
malformed file raises :class:`MidiParseError` with the offset of the fault.
Each track is read into note columns in (onset, pitch) order, with no object
per note; a drum track (first note-on on channel 9) is checked to its end
but not paired, and left out.  The writer refuses a note it could not read
back, and is deterministic: identical scores serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, MidiParseError, UnsupportedFormatError

WRITE_PPQN = 480
DEFAULT_TEMPO_BPM = 120.0
DRUM_CHANNEL = 9

_DENOMINATORS = (1, 2, 4, 8, 16, 32, 64, 128)   # meter denominators by the log2 byte written
_META_TRACK_NAME = 0x03
_META_MARKER = 0x06
_META_END_OF_TRACK = 0x2F
_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58


@dataclass(eq=False)
class MidiTrack:
    """Note columns: int64 pitch and velocity, float64 onset and duration in beats."""

    name: str
    channel: int
    pitch: np.ndarray
    onset: np.ndarray
    duration: np.ndarray
    velocity: np.ndarray


@dataclass
class Score:
    tracks: list[MidiTrack] = field(default_factory=list)
    tempos: list[tuple[float, float]] = field(default_factory=list)   # (beat, bpm)
    meters: list[tuple[float, int, int]] = field(default_factory=list)  # (beat, num, den)
    markers: list[tuple[float, str]] = field(default_factory=list)


def _end_of_file(what: str, pos: int) -> MidiParseError:
    return MidiParseError(f"unexpected end of file reading {what}", pos)


def _bad_data_byte(byte: int, pos: int) -> MidiParseError:
    return MidiParseError(f"data byte 0x{byte:02X} is not below 0x80", pos)


def _varlen(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Read a variable-length quantity at ``pos``; returns (value, next pos)."""
    value = 0
    for at in range(pos, pos + 4):
        if at >= len(data):
            raise _end_of_file(what, at)
        byte = data[at]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, at + 1
    raise MidiParseError(f"variable-length {what} exceeds 4 bytes", pos + 4)


def _fixed(data: bytes, pos: int, n: int, what: str) -> int:
    """Read an ``n``-byte big-endian unsigned integer at ``pos``."""
    if pos + n > len(data):
        raise _end_of_file(what, pos)
    return int.from_bytes(data[pos:pos + n], "big")


def parse_midi(data: bytes) -> Score:
    """Parse SMF bytes into a :class:`Score` (times in quarter-note beats)."""
    if len(data) < 4:
        raise _end_of_file("header chunk id", 0)
    if data[:4] != b"MThd":
        raise MidiParseError("missing MThd header", 0)
    if _fixed(data, 4, 4, "header length") != 6:
        raise MidiParseError("MThd length must be 6", 4)
    fmt = _fixed(data, 8, 2, "format")
    if fmt not in (0, 1):
        raise UnsupportedFormatError(f"only SMF formats 0 and 1 are supported, got {fmt}")
    n_tracks = _fixed(data, 10, 2, "track count")
    division = _fixed(data, 12, 2, "division")
    if division & 0x8000:
        raise UnsupportedFormatError("SMPTE time division is not supported")
    if division == 0:
        raise MidiParseError("time division must be positive", 12)

    score = Score()
    pos = 14
    for _ in range(n_tracks):
        if pos + 4 > len(data):
            raise _end_of_file("track chunk id", pos)
        if data[pos:pos + 4] != b"MTrk":
            raise MidiParseError("expected MTrk chunk", pos)
        end = pos + 8 + _fixed(data, pos + 4, 4, "track length")
        if end > len(data):
            raise MidiParseError("track chunk overruns file", pos + 4)
        _parse_track(data, pos + 8, end, division, score)
        pos = end

    for events in (score.tempos, score.meters, score.markers):
        events.sort(key=lambda event: event[0])
    return score


def _parse_track(data: bytes, pos: int, end: int, division: int,
                 score: Score) -> None:
    """Read the events of one MTrk chunk, from ``pos`` up to ``end``.

    Like every read of :func:`parse_midi`, each read here is checked against
    the length of the file: an event that starts before ``end`` may run past it.
    Open notes queue per ``channel << 7 | pitch`` as flat (tick, velocity) runs.
    """
    size = len(data)
    name = ""
    pitches, starts, lengths, velocities = [], [], [], []
    open_notes: dict[int, list[int]] = {}
    first_channel = -1
    tick = 0
    status = None

    while pos < end:
        if pos < size and data[pos] < 0x80:
            tick += data[pos]
            pos += 1
        elif pos + 1 < size and data[pos + 1] < 0x80:
            tick += (data[pos] & 0x7F) << 7 | data[pos + 1]
            pos += 2
        else:
            delta, pos = _varlen(data, pos, "delta time")
            tick += delta
        event_pos = pos
        if pos >= size:
            raise _end_of_file("event status", pos)
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            if status is None:
                raise MidiParseError("data byte without running status", event_pos)
            data1 = byte
        elif byte == 0xFF:
            if pos >= size:
                raise _end_of_file("meta type", pos)
            meta = data[pos]
            length, pos = _varlen(data, pos + 1, "meta length")
            if pos + length > size:
                raise _end_of_file("meta payload", pos)
            payload = data[pos:pos + length]
            pos += length
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
            elif meta == _META_TRACK_NAME and not name:
                name = payload.decode("latin-1")
            elif meta == _META_MARKER:
                score.markers.append((tick / division, payload.decode("latin-1")))
            continue
        elif byte == 0xF0 or byte == 0xF7:
            length, pos = _varlen(data, pos, "sysex length")
            if pos + length > size:
                raise _end_of_file("sysex payload", pos)
            pos += length
            status = None
            continue
        else:
            status = byte
            if pos >= size:
                raise _end_of_file("event data", pos)
            data1 = data[pos]
            pos += 1
            if status >= 0xF0:
                raise MidiParseError(f"unsupported status byte 0x{status:02X}", event_pos)
            if data1 >= 0x80:
                raise _bad_data_byte(data1, pos - 1)
        kind = status & 0xF0
        if kind == 0xC0 or kind == 0xD0:  # program change, channel pressure
            continue
        if pos >= size:
            raise _end_of_file("event data", pos)
        data2 = data[pos]
        if data2 >= 0x80:
            raise _bad_data_byte(data2, pos)
        pos += 1
        if kind > 0x90 or first_channel == DRUM_CHANNEL:  # not a note, or a drum's
            continue
        key = (status & 0x0F) << 7 | data1
        stack = open_notes.get(key)
        if kind == 0x90 and data2:
            if stack is None:
                if first_channel < 0:
                    first_channel = status & 0x0F
                open_notes[key] = [tick, data2]
            else:
                stack += (tick, data2)
        elif stack:
            pitches.append(data1)
            starts.append(stack[0])
            lengths.append(tick - stack[0])
            velocities.append(stack[1])
            del stack[:2]

    # Notes never switched off sound until the final event of the track.
    for key, stack in open_notes.items():
        pitches += [key & 0x7F] * (len(stack) // 2)
        starts += stack[::2]
        lengths += [tick - start for start in stack[::2]]
        velocities += stack[1::2]
    if first_channel == DRUM_CHANNEL or not (pitches or name):
        return
    pitch = np.array(pitches, np.int64)
    onset = np.array(starts, np.float64) / division
    order = np.lexsort((pitch, onset))
    score.tracks.append(MidiTrack(
        name, max(first_channel, 0), pitch[order], onset[order],
        (np.array(lengths, np.float64) / division)[order],
        np.array(velocities, np.int64)[order]))


def _encode_varlen(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def _encode_events(events: list[tuple[int, int, bytes]]) -> bytes:
    """Delta-encode (tick, order, payload) triples into one MTrk chunk."""
    events.sort(key=lambda e: (e[0], e[1]))
    out = bytearray()
    previous = 0
    for tick, _, payload in events:
        out += _encode_varlen(tick - previous)
        out += payload
        previous = tick
    out += _encode_varlen(0) + bytes((0xFF, _META_END_OF_TRACK, 0x00))
    return b"MTrk" + len(out).to_bytes(4, "big") + bytes(out)


def _check_notes(index: int, t: MidiTrack) -> None:
    """Refuse a note that would not read back: the pitch must be in 0..127,
    the velocity in 1..127 (0 reads as a note-off), onset and duration >= 0,
    and the end tick within the largest 4-byte delta time, 2**28 - 1."""
    bad = ~((t.pitch >= 0) & (t.pitch <= 127) & (t.velocity >= 1) & (t.velocity <= 127)
            & (t.onset >= 0) & (t.duration >= 0)
            & ((t.onset + t.duration) * WRITE_PPQN < (1 << 28) - 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(
            f"track {index} ({t.name!r}) note {i} cannot be written: pitch "
            f"{t.pitch[i]}, velocity {t.velocity[i]}, onset {t.onset[i]}, "
            f"duration {t.duration[i]}")


def _event_tick(beat: float, what: str) -> int:
    """The tick of a tempo, meter or marker event; refuses one that would
    not read back, as ``_check_notes`` does a note."""
    if not 0 <= beat * WRITE_PPQN < (1 << 28) - 1:
        raise InvalidInputError(f"{what} at beat {beat} cannot be written: its "
                                f"tick must be in 0..{(1 << 28) - 2}")
    return round(beat * WRITE_PPQN)


def _latin1(text: str, what: str) -> bytes:
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as err:
        raise InvalidInputError(f"{what} {text!r} cannot be written: "
                                f"it is not latin-1") from err


def write_midi(score: Score) -> bytes:
    """Serialize a score as a format-1 SMF at 480 PPQN, deterministically.

    Raises :class:`InvalidInputError` for what would not read back: a note
    (see ``_check_notes``), an event at a negative or too late beat, a tempo
    whose microseconds per quarter do not round to 1..2**24 - 1, a meter whose
    numerator is not a byte or whose denominator is not a power of two up to
    128, and a marker or track name outside latin-1.
    """
    def to_tick(beat: float) -> int:
        return round(beat * WRITE_PPQN)

    meta_events: list[tuple[int, int, bytes]] = []
    meters = score.meters or [(0.0, 4, 4)]
    for beat, num, den in meters:
        if not (isinstance(num, (int, np.integer)) and 0 <= num <= 255
                and isinstance(den, (int, np.integer)) and den in _DENOMINATORS):
            raise InvalidInputError(f"meter {num}/{den} cannot be written: the "
                                    "numerator must be a byte and the denominator "
                                    "a power of two up to 128")
        meta_events.append((_event_tick(beat, "meter"), 0, bytes(
            (0xFF, _META_TIME_SIGNATURE, 4, num, _DENOMINATORS.index(den), 24, 8))))
    tempos = score.tempos or [(0.0, DEFAULT_TEMPO_BPM)]
    for beat, bpm in tempos:
        us = 60e6 / bpm if bpm > 0 else 0.0
        if not 0.5 < us < 0xFFFFFF + 0.5:
            raise InvalidInputError(f"tempo {bpm} BPM cannot be written: its "
                                    "microseconds per quarter must round to 1..2**24 - 1")
        meta_events.append((_event_tick(beat, "tempo"), 1,
                            bytes((0xFF, _META_TEMPO, 3)) + round(us).to_bytes(3, "big")))
    for beat, label in score.markers:
        payload = _latin1(label, "marker")
        meta_events.append((_event_tick(beat, "marker"), 2,
                            bytes((0xFF, _META_MARKER)) + _encode_varlen(len(payload))
                            + payload))

    chunks = [_encode_events(meta_events)]
    for index, track in enumerate(score.tracks):
        _check_notes(index, track)
        events: list[tuple[int, int, bytes]] = []
        if track.name:
            payload = _latin1(track.name, f"track {index} name")
            events.append((0, 0, bytes((0xFF, _META_TRACK_NAME))
                           + _encode_varlen(len(payload)) + payload))
        channel = track.channel & 0x0F
        for pitch, onset, duration, velocity in zip(
                track.pitch.tolist(), track.onset.tolist(),
                track.duration.tolist(), track.velocity.tolist()):
            events.append((to_tick(onset), 2,
                           bytes((0x90 | channel, pitch, velocity))))
            # note-off sorts ahead of same-tick note-ons so abutting repeats
            # of one pitch stay separate notes
            events.append((to_tick(onset + duration), 1,
                           bytes((0x80 | channel, pitch, 0))))
        chunks.append(_encode_events(events))

    header = b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big") \
        + len(chunks).to_bytes(2, "big") + WRITE_PPQN.to_bytes(2, "big")
    return header + b"".join(chunks)
