"""Minimal standard-MIDI-file codec for formats 0 and 1 with PPQN timing.

Reads note on/off pairs, tempo, time-signature, track-name and marker events
into a :class:`Score` whose times are expressed in quarter-note beats; all
other events are skipped.  SMPTE divisions and format 2 files are rejected.
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

    def mean_pitch(self) -> float:
        return sum(n.pitch for n in self.notes) / len(self.notes)


@dataclass
class Score:
    tracks: list[MidiTrack] = field(default_factory=list)
    tempos: list[tuple[float, float]] = field(default_factory=list)   # (beat, bpm)
    meters: list[tuple[float, int, int]] = field(default_factory=list)  # (beat, num, den)
    markers: list[tuple[float, str]] = field(default_factory=list)

    def non_drum_tracks(self) -> list[MidiTrack]:
        return [t for t in self.tracks if not t.is_drum]


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


def parse_midi(data: bytes) -> Score:
    """Parse SMF bytes into a :class:`Score` (times in quarter-note beats)."""
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
        _parse_track(r, end, division, score)
        r.pos = end

    score.tempos.sort(key=lambda t: t[0])
    score.meters.sort(key=lambda t: t[0])
    score.markers.sort(key=lambda t: t[0])
    return score


def _parse_track(r: _Reader, end: int, division: int, score: Score) -> None:
    track = MidiTrack()
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
        if kind in (0xC0, 0xD0):
            continue
        if kind not in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            raise MidiParseError(f"unsupported status byte 0x{status:02X}", event_pos)
        data2 = r.u8("event data")
        if kind == 0x90 and data2 > 0:
            open_notes.setdefault((channel, data1), []).append((tick, data2))
            channels.append(channel)
        elif kind == 0x80 or (kind == 0x90 and data2 == 0):
            stack = open_notes.get((channel, data1))
            if stack:
                start, velocity = stack.pop(0)
                track.notes.append(MidiNote(
                    pitch=data1,
                    onset=start / division,
                    duration=(tick - start) / division,
                    velocity=velocity,
                ))

    # Notes never switched off sound until the final event of the track.
    for (channel, pitch), stack in open_notes.items():
        for start, velocity in stack:
            track.notes.append(MidiNote(
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
