"""Minimal standard-MIDI-file codec for formats 0 and 1 with PPQN timing.

Reads note on/off pairs, tempo, time-signature, track-name and marker events
into a :class:`Score` whose times are expressed in quarter-note beats; all
other events are skipped.  SMPTE divisions and format 2 files are rejected.
The reader is one pass over the bytes: each chunk is read by one loop over
an index into the file, every read checked against the file length, and a
malformed file raises :class:`MidiParseError` with the offset of the fault.
The writer is deterministic: identical scores serialize to identical bytes,
which the generation pipeline relies on for reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MidiParseError, UnsupportedFormatError

WRITE_PPQN = 480
DEFAULT_TEMPO_BPM = 120.0
DRUM_CHANNEL = 9

_META_TRACK_NAME = 0x03
_META_MARKER = 0x06
_META_END_OF_TRACK = 0x2F
_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58


@dataclass
class MidiNote:
    pitch: int
    onset: float       # quarter-note beats from track start
    duration: float    # quarter-note beats
    velocity: int = 80


@dataclass
class MidiTrack:
    name: str = ""
    channel: int = 0
    notes: list[MidiNote] = field(default_factory=list)

    @property
    def is_drum(self) -> bool:
        return self.channel == DRUM_CHANNEL


@dataclass
class Score:
    tracks: list[MidiTrack] = field(default_factory=list)
    tempos: list[tuple[float, float]] = field(default_factory=list)   # (beat, bpm)
    meters: list[tuple[float, int, int]] = field(default_factory=list)  # (beat, num, den)
    markers: list[tuple[float, str]] = field(default_factory=list)

    def non_drum_tracks(self) -> list[MidiTrack]:
        return [t for t in self.tracks if not t.is_drum]


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

    score.tempos.sort(key=lambda t: t[0])
    score.meters.sort(key=lambda t: t[0])
    score.markers.sort(key=lambda t: t[0])
    return score


def _parse_track(data: bytes, pos: int, end: int, division: int,
                 score: Score) -> None:
    """Read the events of one MTrk chunk, from ``pos`` up to ``end``.

    Like every read of :func:`parse_midi`, each read here is checked against
    the length of the file: an event that starts before ``end`` may run past it.
    """
    size = len(data)
    track = MidiTrack()
    notes = track.notes
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    first_channel = None
    tick = 0
    status = None

    while pos < end:
        if pos < size and data[pos] < 0x80:
            tick += data[pos]
            pos += 1
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
            elif meta == _META_TRACK_NAME and not track.name:
                track.name = payload.decode("latin-1")
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
        if kind > 0x90:  # key pressure, controller, pitch bend
            continue
        key = (status & 0x0F, data1)
        stack = open_notes.get(key)
        if kind == 0x90 and data2:
            if stack is None:
                open_notes[key] = [(tick, data2)]
            else:
                stack.append((tick, data2))
            if first_channel is None:
                first_channel = key[0]
        elif stack:
            start, velocity = stack.pop(0)
            notes.append(MidiNote(data1, start / division,
                                  (tick - start) / division, velocity))

    # Notes never switched off sound until the final event of the track.
    for (_, pitch), stack in open_notes.items():
        for start, velocity in stack:
            notes.append(MidiNote(pitch, start / division,
                                  (tick - start) / division, velocity))

    track.notes.sort(key=lambda n: (n.onset, n.pitch))
    if first_channel is not None:
        track.channel = first_channel
    if track.notes or track.name:
        score.tracks.append(track)


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


def write_midi(score: Score) -> bytes:
    """Serialize a score as a format-1 SMF at 480 PPQN, deterministically."""
    def to_tick(beat: float) -> int:
        return round(beat * WRITE_PPQN)

    meta_events: list[tuple[int, int, bytes]] = []
    meters = score.meters or [(0.0, 4, 4)]
    for beat, num, den in meters:
        dd = max(0, den.bit_length() - 1)
        meta_events.append((to_tick(beat), 0,
                            bytes((0xFF, _META_TIME_SIGNATURE, 4, num, dd, 24, 8))))
    tempos = score.tempos or [(0.0, DEFAULT_TEMPO_BPM)]
    for beat, bpm in tempos:
        us = round(60e6 / bpm)
        meta_events.append((to_tick(beat), 1,
                            bytes((0xFF, _META_TEMPO, 3)) + us.to_bytes(3, "big")))
    for beat, label in score.markers:
        payload = label.encode("latin-1")
        meta_events.append((to_tick(beat), 2,
                            bytes((0xFF, _META_MARKER)) + _encode_varlen(len(payload))
                            + payload))

    chunks = [_encode_events(meta_events)]
    for track in score.tracks:
        events: list[tuple[int, int, bytes]] = []
        if track.name:
            payload = track.name.encode("latin-1")
            events.append((0, 0, bytes((0xFF, _META_TRACK_NAME))
                           + _encode_varlen(len(payload)) + payload))
        channel = track.channel & 0x0F
        for note in track.notes:
            on = to_tick(note.onset)
            off = to_tick(note.onset + note.duration)
            events.append((on, 2, bytes((0x90 | channel, note.pitch,
                                         note.velocity & 0x7F))))
            # note-off sorts ahead of same-tick note-ons so abutting repeats
            # of one pitch stay separate notes
            events.append((off, 1, bytes((0x80 | channel, note.pitch, 0))))
        chunks.append(_encode_events(events))

    header = b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big") \
        + len(chunks).to_bytes(2, "big") + WRITE_PPQN.to_bytes(2, "big")
    return header + b"".join(chunks)
