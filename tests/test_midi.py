"""SMF codec: parsing, rejection paths, and write/parse round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_columns, reference_parse_midi, score_content
from toy import midi_track, toy_song
from ttvae.errors import InvalidInputError, MidiParseError, UnsupportedFormatError
from ttvae.midi import Score, parse_midi, write_midi


def single_note_score():
    return Score(
        tracks=[midi_track([(60, 0.0, 1.0, 90)], "lead", 0)],
        tempos=[(0.0, 120.0)],
        meters=[(0.0, 4, 4)],
    )


def note_content(score):
    """Each track's (name, channel, pitch, onset, duration, velocity)."""
    return score_content(score)[0]


def notes(track):
    """A track's (pitch, onset, duration) rows."""
    return list(zip(track.pitch.tolist(), track.onset.tolist(),
                    track.duration.tolist()))


class TestParse:
    def test_single_quarter_note(self):
        data = write_midi(single_note_score())
        score = parse_midi(data)
        assert len(score.tracks) == 1
        assert notes(score.tracks[0]) == [(60, 0.0, 1.0)]
        assert score.tracks[0].name == "lead"
        assert score.tempos == [(0.0, 120.0)]
        assert score.meters == [(0.0, 4, 4)]

    def test_empty_track_list(self):
        score = parse_midi(write_midi(Score()))
        assert score.tracks == []

    def test_running_status(self):
        # Two note on/off pairs where the second event reuses the status byte.
        track = bytes.fromhex("00903c50" "10 3c00" "00 3e50" "10 3e00") \
            + bytes((0x00, 0xFF, 0x2F, 0x00))
        data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
            + (1).to_bytes(2, "big") + (16).to_bytes(2, "big") \
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        score = parse_midi(data)
        assert notes(score.tracks[0]) == [(60, 0.0, 1.0), (62, 1.0, 1.0)]

    def test_note_left_open_ends_at_track_end(self):
        track = bytes.fromhex("00903c50" "00 4050" "10 4000") \
            + bytes((0x00, 0xFF, 0x2F, 0x00))
        data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
            + (1).to_bytes(2, "big") + (16).to_bytes(2, "big") \
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        score = parse_midi(data)
        assert notes(score.tracks[0]) == [(60, 0.0, 1.0), (64, 0.0, 1.0)]


class TestRejection:
    def test_missing_header(self):
        with pytest.raises(MidiParseError) as err:
            parse_midi(b"RIFFxxxx")
        assert err.value.offset == 0

    def test_truncated_header(self):
        with pytest.raises(MidiParseError):
            parse_midi(b"MThd\x00\x00")

    def test_bad_header_length(self):
        data = b"MThd" + (7).to_bytes(4, "big") + bytes(7)
        with pytest.raises(MidiParseError) as err:
            parse_midi(data)
        assert err.value.offset == 4

    def test_smpte_division(self):
        data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
            + (0).to_bytes(2, "big") + (0xE250).to_bytes(2, "big")
        with pytest.raises(UnsupportedFormatError):
            parse_midi(data)

    def test_format_two(self):
        data = b"MThd" + (6).to_bytes(4, "big") + (2).to_bytes(2, "big") \
            + (0).to_bytes(2, "big") + (480).to_bytes(2, "big")
        with pytest.raises(UnsupportedFormatError):
            parse_midi(data)

    def test_bad_track_chunk(self):
        data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
            + (1).to_bytes(2, "big") + (480).to_bytes(2, "big") + b"XTrk\x00\x00\x00\x00"
        with pytest.raises(MidiParseError) as err:
            parse_midi(data)
        assert err.value.offset == 14

    def test_track_overrun(self):
        data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
            + (1).to_bytes(2, "big") + (480).to_bytes(2, "big") \
            + b"MTrk" + (100).to_bytes(4, "big") + b"\x00"
        with pytest.raises(MidiParseError):
            parse_midi(data)


    # Each stream starts with a delta byte at offset 22 (header and MTrk
    # header); the expected offset is that of the byte with its top bit set.
    @pytest.mark.parametrize("events, offset", [
        ("00 90 C8 40 00 FF2F00", 24),           # note number 200
        ("00 90 3C C0 00 FF2F00", 25),           # velocity 192
        ("00 90 3C 40 00 3D C0 00 FF2F00", 28),  # running status, velocity
        ("00 80 BC 00 00 FF2F00", 24),           # note-off number
        ("00 B0 07 FF 00 FF2F00", 25),           # controller value
        ("00 C0 80 00 FF2F00", 24),              # program change
        ("00 E0 00 90 00 FF2F00", 25),           # pitch bend
    ])
    def test_data_byte_with_top_bit_set(self, events, offset):
        blob = smf(bytes.fromhex(events))
        with pytest.raises(MidiParseError, match="data byte") as err:
            parse_midi(blob)
        assert err.value.offset == offset
        assert outcome(read, blob) == outcome(oracle, blob)


class TestRoundTrip:
    def test_single_note(self):
        score = single_note_score()
        assert note_content(parse_midi(write_midi(score))) == note_content(score)

    def test_multi_track_with_markers(self):
        score = Score(
            tracks=[
                midi_track([(72, 0.0, 0.25), (74, 0.25, 0.5), (72, 0.75, 0.25),
                            (76, 1.0, 2.0)], "melody", 0),
                midi_track([(36, 0.0, 2.0), (43, 2.0, 2.0)], "bass", 1),
            ],
            tempos=[(0.0, 120.0)],
            meters=[(0.0, 4, 4)],
            markers=[(0.0, "section 1"), (4.0, "section 2")],
        )
        parsed = parse_midi(write_midi(score))
        assert note_content(parsed) == note_content(score)
        assert parsed.markers == score.markers
        assert parsed.tracks[1].channel == 1

    def test_back_to_back_same_pitch(self):
        score = Score(tracks=[midi_track([(60, 0.0, 1.0), (60, 1.0, 1.0)])])
        parsed = parse_midi(write_midi(score))
        assert notes(parsed.tracks[0]) == [(60, 0.0, 1.0), (60, 1.0, 1.0)]

    def test_write_is_deterministic(self):
        score = single_note_score()
        assert write_midi(score) == write_midi(score)

    def test_double_round_trip_identical_bytes(self, rng):
        score = Score(tracks=[midi_track(
            [(int(rng.integers(24, 97)), i * 0.25, float(rng.integers(1, 9)) * 0.25)
             for i in range(32)], "m")])
        once = write_midi(parse_midi(write_midi(score)))
        twice = write_midi(parse_midi(once))
        assert once == twice

    def test_last_writable_tick_reads_back(self):
        end = ((1 << 28) - 2) / 480  # the note ends one tick short of the cap
        score = Score(tracks=[midi_track([(60, end - 1.0, 1.0)])])
        assert note_content(parse_midi(write_midi(score))) == note_content(score)

    def test_velocities_one_and_127_read_back(self):
        score = Score(tracks=[midi_track([(60, 0.0, 1.0, 1), (62, 1.0, 1.0, 127)])])
        assert note_content(parse_midi(write_midi(score))) == note_content(score)


class TestWriteChecks:
    """``write_midi`` refuses a note that would not read back as written."""

    @pytest.mark.parametrize("note", [
        (60, 0.0, 1.0, 0),      # read back as a note-off
        (60, 0.0, 1.0, 128),    # & 0x7F made it 0
        (60, 0.0, 1.0, 200),    # & 0x7F made it 72
        (128, 0.0, 1.0, 80),    # a data byte the reader refuses
        (-1, 0.0, 1.0, 80),
        (300, 0.0, 1.0, 80),
        (60, -0.25, 1.0, 80),
        (60, 0.0, -1.0, 80),
        (60, 559240.0, 1.0, 80),  # ends past 2**28 - 1 ticks: a 5-byte delta
        (60, float("inf"), 1.0, 80),
        (60, 0.0, float("nan"), 80),
    ])
    def test_bad_note_names_its_track(self, note):
        score = Score(tracks=[midi_track([(60, 0.0, 1.0)], "ok"),
                              midi_track([(62, 0.0, 1.0), note], "lead")])
        with pytest.raises(InvalidInputError, match=r"track 1 \('lead'\) note 1"):
            write_midi(score)


    @pytest.mark.parametrize("score, message", [
        (Score(tempos=[(-1.0, 120.0)]), r"tempo at beat -1\.0"),
        (Score(meters=[(-0.5, 4, 4)]), r"meter at beat -0\.5"),
        (Score(markers=[(-2.0, "A")]), r"marker at beat -2\.0"),
        (Score(markers=[(float("nan"), "A")]), r"marker at beat nan"),
        (Score(markers=[(559241.0, "A")]), r"marker at beat 559241"),
        (Score(tempos=[(0.0, 0.0)]), r"tempo 0\.0 BPM"),
        (Score(tempos=[(0.0, -90.0)]), r"tempo -90\.0 BPM"),
        (Score(tempos=[(0.0, 1.0)]), r"tempo 1\.0 BPM"),      # 6e7 us: 4 bytes
        (Score(tempos=[(0.0, float("inf"))]), r"tempo inf BPM"),  # 0 us
        (Score(tempos=[(0.0, 5e-324)]), r"tempo 5e-324 BPM"),
        (Score(meters=[(0.0, 300, 4)]), r"meter 300/4"),
        (Score(meters=[(0.0, -1, 4)]), r"meter -1/4"),
        (Score(meters=[(0.0, 4, 300)]), r"meter 4/300"),
        (Score(meters=[(0.0, 4, 3)]), r"meter 4/3"),          # reads back as 4/2
        (Score(meters=[(0.0, 4, 0)]), r"meter 4/0"),
        (Score(markers=[(0.0, "\u0394")]), r"marker '\u0394'"),
        (Score(tracks=[midi_track([(60, 0.0, 1.0)], "\u266b")]), r"track 0 name"),
    ])
    def test_bad_score_event_is_refused(self, score, message):
        with pytest.raises(InvalidInputError, match=message):
            write_midi(score)

    def test_numpy_integer_meter_reads_back(self):
        score = Score(meters=[(0.0, np.int64(3), np.int64(8))])
        assert parse_midi(write_midi(score)).meters == [(0.0, 3, 8)]

    def test_slowest_and_fastest_tempos_read_back(self):
        for us in (1, 0xFFFFFF):
            score = Score(tempos=[(0.0, 60e6 / us)])
            assert parse_midi(write_midi(score)).tempos == score.tempos


def _by_tick(events):
    return sorted(events, key=lambda event: round(event[0] * 480))


def written_content(score):
    """:func:`score_content` of what ``parse_midi`` should read back from
    ``write_midi(score)``, for a score on the 480-PPQN grid with no two
    notes of one pitch in one track overlapping: the events of each kind in
    tick order, the default tempo and meter where the score has none, each
    track's notes by (onset, pitch), and no track for a drum track or an
    unnamed one without notes (an empty track reads as channel 0)."""
    tracks = []
    for t in score.tracks:
        if (len(t.pitch) and t.channel == 9) or not (len(t.pitch) or t.name):
            continue
        order = np.lexsort((t.pitch, t.onset))
        tracks.append((t.name, t.channel if len(t.pitch) else 0,
                       *(column[order].tolist()
                         for column in (t.pitch, t.onset, t.duration, t.velocity))))
    return (tracks, _by_tick(score.tempos or [(0.0, 120.0)]),
            _by_tick(score.meters or [(0.0, 4, 4)]), _by_tick(score.markers))


beats = st.integers(0, 20_000).map(lambda tick: tick / 480)
latin1 = st.text(st.characters(max_codepoint=255), max_size=6)


@st.composite
def grid_tracks(draw):
    """A track of notes on the 480-PPQN grid; a note that would overlap an
    earlier one of its pitch is dropped."""
    kept, ends = [], {}
    for pitch, onset, length, velocity in draw(st.lists(st.tuples(
            st.integers(0, 127), st.integers(0, 4000), st.integers(1, 2000),
            st.integers(1, 127)), max_size=12)):
        if all(onset >= end or onset + length <= start
               for start, end in ends.get(pitch, [])):
            ends.setdefault(pitch, []).append((onset, onset + length))
            kept.append((pitch, onset / 480, length / 480, velocity))
    return midi_track(kept, draw(latin1), draw(st.integers(0, 15)))


class TestRoundTripProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.builds(
        Score,
        tracks=st.lists(grid_tracks(), max_size=3),
        tempos=st.lists(st.tuples(beats, st.integers(1, 0xFFFFFF).map(lambda us: 60e6 / us)),
                        max_size=3),
        meters=st.lists(st.tuples(beats, st.integers(0, 255),
                                  st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])), max_size=3),
        markers=st.lists(st.tuples(beats, latin1), max_size=3)))
    def test_parse_gives_back_what_write_accepts(self, score):
        assert score_content(parse_midi(write_midi(score))) == written_content(score)


def smf(*tracks, fmt=1, division=96):
    """Format ``fmt`` SMF bytes holding the given raw MTrk event streams."""
    head = b"MThd" + (6).to_bytes(4, "big") + fmt.to_bytes(2, "big") \
        + len(tracks).to_bytes(2, "big") + division.to_bytes(2, "big")
    return head + b"".join(b"MTrk" + len(t).to_bytes(4, "big") + t for t in tracks)


# Every event kind the reader handles: running status, sysex, every channel
# message, zero-velocity note-offs, re-struck and never-ended notes, all the
# meta events it keeps or skips, and delta times of one to four bytes.
KITCHEN_SINK = smf(
    bytes.fromhex(
        "00 FF03 04 6C656164"        # track name
        "00 FF03 03 616C74"          # a second name, ignored
        "00 FF51 03 07A120"          # tempo
        "00 FF58 04 03020C08"        # 3/4
        "00 FF06 02 4131"            # marker
        "00 FF01 03 616263"          # text, skipped
        "00 F0 03 7E0102"            # sysex
        "00 C2 05"                   # program change
        "00 92 3C 50"                # note on, channel 2
        "10 3E 50"                   # running status
        "8100 3C 00"                 # zero-velocity off, two-byte delta
        "00 D2 40"                   # channel pressure
        "00 B2 07 64"                # controller
        "00 E2 00 40"                # pitch bend
        "00 A2 3E 20"                # key pressure
        "00 92 3E 60"                # re-struck while sounding
        "818000 82 3E 00"            # three-byte delta
        "00 F7 01 00"                # sysex continuation
        "00 92 40 70"                # left open
        "81808000 92 43 30"          # four-byte delta
        "10 82 43 00"
        "00 FF2F 00"),
    bytes.fromhex("00 99 24 40" "20 89 24 00" "00 C9 01" "00 FF2F 00"),
)


def round_trip_files():
    return [write_midi(toy_song(i)) for i in range(8)] + [
        write_midi(single_note_score()), KITCHEN_SINK]


def outcome(parse, data):
    """What ``parse`` makes of ``data``, or the error's type, message and
    offset."""
    try:
        return parse(data)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None)


def read(data):
    """``parse_midi``'s score as plain lists."""
    return score_content(parse_midi(data))


def oracle(data):
    """What ``parse_midi`` should read: the reference reader's score as
    columns, drum tracks left out."""
    return reference_columns(reference_parse_midi(data))


class TestOnePassReader:
    """``parse_midi`` against the byte-at-a-time reader it replaced."""

    def test_kitchen_sink_reads_every_event_kind(self):
        score = parse_midi(KITCHEN_SINK)
        assert score_content(score) == oracle(KITCHEN_SINK)
        (lead,) = score.tracks  # the drum track is left out
        assert lead.name == "lead" and lead.channel == 2
        assert lead.pitch.tolist() == [60, 62, 62, 64, 67]
        # deltas of 16, 128, 16384 and 2**21 ticks at 96 per beat
        assert list(zip(lead.onset.tolist(), lead.duration.tolist(),
                        lead.velocity.tolist()))[:3] == [
            (0.0, 1.5, 0x50), (16 / 96, 16512 / 96, 0x50), (1.5, 2113552 / 96, 0x60)]
        assert lead.duration[-1] == 16 / 96
        assert [t.channel for t in reference_parse_midi(KITCHEN_SINK).tracks] == [2, 9]
        assert score.meters == [(0.0, 3, 4)]
        assert score.markers == [(0.0, "A1")]

    def test_equal_scores_on_round_trips(self, rng):
        files = round_trip_files()
        for _ in range(20):
            notes = [(int(rng.integers(0, 128)), float(rng.integers(0, 64)) / 8,
                      float(rng.integers(0, 32)) / 8, int(rng.integers(1, 128)))
                     for _ in range(int(rng.integers(1, 40)))]
            files.append(write_midi(Score(
                tracks=[midi_track(notes, "t", int(rng.integers(0, 16)))],
                tempos=[(0.0, 90.0), (2.0, 140.0)], markers=[(1.0, "m")])))
        for data in files:
            assert read(data) == oracle(data)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def test_mutations_and_truncations_agree(self, data):
        files = round_trip_files()
        blob = bytearray(files[data.draw(st.integers(0, len(files) - 1))])
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob))):]
        blob = bytes(blob)
        assert outcome(read, blob) == outcome(oracle, blob)

    def test_every_truncation_agrees(self):
        for length in range(len(KITCHEN_SINK) + 1):
            blob = KITCHEN_SINK[:length]
            assert outcome(read, blob) == outcome(oracle, blob)

    def test_every_cut_event_stream_agrees(self):
        # a chunk whose length matches its cut events ends the file mid-event
        events = KITCHEN_SINK[22:22 + int.from_bytes(KITCHEN_SINK[18:22], "big")]
        for length in range(len(events) + 1):
            blob = smf(events[:length])
            assert outcome(read, blob) == outcome(oracle, blob)

    @pytest.mark.parametrize("events", [
        "80808080 00", "00 FF01 80808080 00", "00 F0 80808080 01"])
    def test_overlong_variable_length_quantity(self, events):
        blob = smf(bytes.fromhex(events))
        assert outcome(read, blob) == outcome(oracle, blob)
        with pytest.raises(MidiParseError, match="exceeds 4 bytes"):
            parse_midi(blob)

    def test_reads_past_the_chunk_end_are_checked_against_the_file(self):
        # the note-on starts inside the first chunk and takes its velocity
        # from the next chunk's id, which is then read again as a chunk
        first = bytes.fromhex("00 90 3C")
        data = smf(first, bytes.fromhex("00 FF2F 00"))
        score = parse_midi(data)
        assert score_content(score) == oracle(data)
        assert note_content(score) == [("", 0, [60], [0.0], [0.0], [ord("M")])]
        with pytest.raises(MidiParseError) as err:
            parse_midi(smf(first))
        assert err.value.offset == 14 + 8 + 3
        assert "event data" in str(err.value)


END = "00 FF2F 00"


class TestColumnsAgainstOracle:
    """The cases the column reader handles on its own paths: drum tracks,
    the stable (onset, pitch) order, open and unmatched notes, running
    status and the inline two-byte delta."""

    @pytest.mark.parametrize("tracks", [
        # first note-on on channel 9, later notes on channel 0: all dropped,
        # but the tempo it carries is kept
        ["00 99 24 40 10 89 24 00 00 90 3C 50 10 80 3C 00 00 FF51 03 07A120 " + END,
         "00 90 40 50 10 80 40 00 " + END],
        # a named drum track, and a named one whose events hold no note-on
        ["00 FF03 03 6B6974 00 99 24 40 20 89 24 00 " + END,
         "00 FF03 05 6472756D73 00 C9 01 00 B9 07 64 " + END],
        # a drum track's bytes are still checked after its notes stop pairing
        ["00 99 24 40 00 B9 07 FF " + END],
        ["00 99 24 40 00 FF51 02 0000 " + END],
        # equal tick and pitch on two channels, closed out of order and some
        # left open: the sort keeps the order the notes closed in
        ["00 90 3C 50 00 91 3C 60 00 90 3C 70 00 91 3C 10 00 92 3C 20"
         " 10 81 3C 00 00 80 3C 00 00 90 3B 01 " + END],
        # a note-off before any note-on, and notes open at the track's end
        ["00 80 3C 00 00 90 3C 50 00 90 40 50 10 80 40 00 00 90 43 50 " + END],
        # running status across note-on and note-off, both directions
        ["00 90 3C 50 00 3E 50 10 80 3C 00 00 3E 00 00 90 3C 40 10 3C 00 " + END],
        # two-byte and four-byte deltas
        ["8100 90 3C 50 81808000 80 3C 00 FF00 90 3E 50 7F 80 3E 00 " + END],
        # a two-byte delta cut at the end of the file, and one that ends it
        ["00 90 3C 50 81"],
        ["00 90 3C 50 81 00"],
    ])
    def test_columns_and_errors_equal_the_oracle(self, tracks):
        blob = smf(*(bytes.fromhex(t) for t in tracks))
        assert outcome(read, blob) == outcome(oracle, blob)
