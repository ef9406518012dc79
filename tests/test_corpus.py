"""Corpus pipeline: extraction, key handling, segmentation, dataset I/O."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Note,
    NotePair,
    check_notes,
    make_dataset,
    random_notes,
    random_window,
    reference_decode_track,
    reference_encode_roll,
    reference_extract_tracks,
    reference_key_scores,
    reference_skyline,
    reference_slice_track,
    reference_song_fragments,
    reference_transpose_pair,
    reference_validate_roll,
    song_notes,
    song_steps,
    window,
)
from toy import midi_track
from ttvae.corpus import (
    KK_MAJOR,
    MAX_SONG_BARS,
    MAX_SONG_STEPS,
    _bar_grid,
    _profile_correlations,
    _skyline,
    _validate_rolls,
    KK_MINOR,
    Key,
    Mode,
    build_dataset,
    detect_key,
    extract_tracks,
    load_dataset,
    save_dataset,
    segment,
    song_fragments,
    _clamp_pitches,
    transpose_pair,
    transposition_shift,
)
from ttvae.errors import (
    InvalidInputError,
    InvalidRollError,
    InvalidSongError,
    NoKeyError,
    TtvaeError,
)
from ttvae.midi import Score, parse_midi, write_midi
from ttvae.pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_ONSET_COL,
    MELODY_REST_COL,
    decode_roll,
    encode_roll,
    validate_roll,
)


def two_track_score(melody_pitches, bass_pitches, beat_len=1.0):
    return Score(tracks=[
        midi_track([(p, i * beat_len, beat_len) for i, p in enumerate(melody_pitches)],
                   "flute", 0),
        midi_track([(p, i * beat_len, beat_len) for i, p in enumerate(bass_pitches)],
                   "bass", 1),
    ])


def extracted_notes(score, *names):
    """The melody and bass notes ``extract_tracks`` holds for ``score``."""
    song = extract_tracks(score, *names)
    return song_notes(song.pitch, song.onset)


SCALE_UP = [60, 62, 64, 65, 67, 69, 71, 72]
LOW_LINE = [36, 43, 38, 45, 40, 47, 41, 36]


class TestExtractTracks:
    def test_mean_pitch_ordering(self):
        pair = extracted_notes(two_track_score(SCALE_UP, LOW_LINE))
        assert {n.pitch for n in pair.melody} == set(SCALE_UP)
        assert {n.pitch for n in pair.bass} == set(LOW_LINE)

    def test_chordal_track_keeps_highest(self):
        chord = [(p, i, 1.0) for i in range(8) for p in (60, 64, 67)]
        score = Score(tracks=[
            midi_track(chord, "keys"),
            midi_track([(36, i, 1.0) for i in range(8)], "bass"),
        ])
        pair = extracted_notes(score)
        assert all(n.pitch == 67 for n in pair.melody)

    def test_one_track_rejected(self):
        score = Score(tracks=[midi_track([(60, i, 1.0) for i in range(8)])])
        with pytest.raises(InvalidSongError):
            extract_tracks(score)

    def test_short_tracks_do_not_qualify(self):
        score = Score(tracks=[
            midi_track([(60, i, 1.0) for i in range(8)]),
            midi_track([(40, i, 1.0) for i in range(3)]),
        ])
        with pytest.raises(InvalidSongError):
            extract_tracks(score)

    def test_drum_tracks_ignored(self):
        # the reader leaves the drum track out of the score
        score = two_track_score(SCALE_UP, LOW_LINE)
        score.tracks.append(midi_track([(99, i, 0.5) for i in range(32)], "drums", 9))
        score = parse_midi(write_midi(score))
        assert [t.name for t in score.tracks] == ["flute", "bass"]
        pair = extracted_notes(score)
        assert max(n.pitch for n in pair.melody) <= 72

    def test_name_override(self):
        score = two_track_score(SCALE_UP, LOW_LINE)
        pair = extracted_notes(score, "bass", "flute")
        assert {n.pitch for n in pair.melody} == set(LOW_LINE)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidSongError):
            extract_tracks(two_track_score(SCALE_UP, LOW_LINE),
                           melody_name="nope")

    def test_overlap_truncation_with_resume(self):
        # A held C4 under a short G4: the skyline resumes the C afterwards.
        score = Score(tracks=[
            midi_track([(60, 0, 4.0), (67, 1.0, 1.0)]
                       + [(62, 4 + i, 1.0) for i in range(6)], "m"),
            midi_track([(36, i, 1.0) for i in range(10)], "b"),
        ])
        pair = extracted_notes(score)
        assert [(n.pitch, n.onset, n.duration) for n in pair.melody[:3]] == [
            (60, 0, 4), (67, 4, 4), (60, 8, 8)]


def pearson_oracle(histogram):
    """Independent correlation scores over the 24 profiles."""
    scores = []
    for profile in (KK_MAJOR, KK_MINOR):
        for tonic in range(12):
            rotated = [profile[(pc - tonic) % 12] for pc in range(12)]
            hm = sum(histogram) / 12
            pm = sum(rotated) / 12
            num = sum((h - hm) * (p - pm) for h, p in zip(histogram, rotated))
            dh = sum((h - hm) ** 2 for h in histogram) ** 0.5
            dp = sum((p - pm) ** 2 for p in rotated) ** 0.5
            scores.append(num / (dh * dp) if dh > 0 else 0.0)
    return scores


class TestDetectKey:
    def test_c_major_scale(self):
        score = two_track_score(SCALE_UP, [p - 24 for p in SCALE_UP])
        key = detect_key(score.tracks)
        assert key == Key(0, Mode.MAJOR)
        histogram = [0.0] * 12
        for p in SCALE_UP + [p - 24 for p in SCALE_UP]:
            histogram[p % 12] += 1.0
        oracle = pearson_oracle(histogram)
        assert oracle.index(max(oracle)) == 0

    def test_transposition_covariance(self):
        for shift in (2, 5, 9):
            shifted = [p + shift for p in SCALE_UP]
            score = two_track_score(shifted, [p - 24 for p in shifted])
            assert detect_key(score.tracks) == Key(shift % 12, Mode.MAJOR)

    def test_natural_minor_scale(self):
        minor = [57, 59, 60, 62, 64, 65, 67, 69]  # A natural minor
        score = two_track_score(minor, [p - 24 for p in minor])
        key = detect_key(score.tracks)
        histogram = [0.0] * 12
        for p in minor + [p - 24 for p in minor]:
            histogram[p % 12] += 1.0
        oracle = pearson_oracle(histogram)
        best = oracle.index(max(oracle))
        assert (key.tonic, key.mode) == (best % 12,
                                         Mode.MAJOR if best < 12 else Mode.MINOR)

    def test_single_repeated_note(self):
        score = Score(tracks=[midi_track([(60, i, 1.0) for i in range(8)])])
        key = detect_key(score.tracks)
        assert key.tonic == 0
        oracle = pearson_oracle([8.0] + [0.0] * 11)
        best = oracle.index(max(oracle))
        assert key.mode == (Mode.MAJOR if best < 12 else Mode.MINOR)

    def test_all_rest_rejected(self):
        with pytest.raises(NoKeyError):
            detect_key([midi_track([])])


class TestTranspose:
    def test_c_major_is_identity(self):
        assert transposition_shift(Key(0, Mode.MAJOR)) == 0

    def test_d_major_shifts_down_two(self):
        assert transposition_shift(Key(2, Mode.MAJOR)) == -2

    def test_b_minor_shifts_down_two(self):
        assert transposition_shift(Key(11, Mode.MINOR)) == -2

    def test_minimal_shift_rule(self):
        assert transposition_shift(Key(7, Mode.MAJOR)) == 5
        assert transposition_shift(Key(5, Mode.MAJOR)) == -5
        assert transposition_shift(Key(6, Mode.MAJOR)) == 6  # tie resolves up

    def test_score_transposition(self):
        song = extract_tracks(two_track_score(SCALE_UP, LOW_LINE))
        moved = transpose_pair(song, transposition_shift(Key(2, Mode.MAJOR)))
        out = song_notes(moved.pitch, moved.onset)
        assert [n.pitch for n in out.melody] == [p - 2 for p in SCALE_UP]
        assert [n.pitch for n in out.bass] == [p - 2 for p in LOW_LINE]

    def test_octave_clamp(self):
        pitch = midi_track([(1, 0, 1.0)]).pitch
        shift = transposition_shift(Key(7, Mode.MAJOR))  # +5 would be fine
        assert _clamp_pitches(pitch + shift).tolist() == [6]
        shift = transposition_shift(Key(5, Mode.MAJOR))  # -5 underflows
        assert _clamp_pitches(pitch + shift).tolist() == [8]  # -4, up an octave

    def test_redetection_after_transposition(self):
        # Detect, transpose, re-detect: must land on C major or A minor.
        for shift in range(12):
            melody = [p + shift for p in SCALE_UP]
            tracks = two_track_score(melody, [p - 24 for p in melody]).tracks
            up = transposition_shift(detect_key(tracks))
            moved = [replace(t, pitch=_clamp_pitches(t.pitch + up)) for t in tracks]
            assert detect_key(moved) in (Key(0, Mode.MAJOR), Key(9, Mode.MINOR))


def steady_pair(bars, melody_pitch=60, bass_pitch=36):
    steps = bars * 16
    melody = [(melody_pitch, s, 4) for s in range(0, steps, 4)]
    bass = [(bass_pitch, s, 8) for s in range(0, steps, 8)]
    return NotePair(melody, bass)


class TestSegment:
    def test_eight_bars_two_fragments(self):
        offsets, rolls, warnings = segment(song_steps(*steady_pair(8)))
        assert offsets == [0, 4] and len(rolls) == 2
        assert warnings == []

    def test_ten_bars_drops_tail(self):
        offsets, _, _ = segment(song_steps(*steady_pair(10)))
        assert len(offsets) == 2

    def test_silent_bass_discards_window(self):
        offsets, rolls, _ = segment(song_steps(steady_pair(4).melody))
        assert offsets == [] and rolls.shape == (0, 64, 89)

    def test_non_44_region_skipped(self):
        offsets, _, warnings = segment(song_steps(*steady_pair(12)), meters=[
            (0.0, 4, 4), (16.0, 3, 4), (28.0, 4, 4)])
        assert len(warnings) >= 1
        # Bars 4..7 sit in the 3/4 region, so only the windows at bar 0 and
        # bar 8 survive.
        assert offsets == [0, 8]

    def test_zero_numerator_meter_skipped(self):
        warnings = []
        assert _bar_grid([(0.0, 0, 4)], 64, warnings) == []
        assert warnings == [
            "meter 0/4 not representable on the 16th grid; region at step 0 skipped"]

    def test_notes_crossing_window_boundary_split(self):
        offsets, rolls, _ = segment(song_steps([(60, 0, 128)], [(36, 0, 128)]))
        assert len(offsets) == 2
        for roll in rolls:
            pitch, onset = decode_roll(roll)
            assert (pitch == [[60], [36]]).all()
            assert onset[:, 0].all() and not onset[:, 1:].any()


class TestEncodeRoll:
    def test_c4_layout(self):
        roll = encode_roll(*window([(60, 0, 4)], [(36, 0, 4)]))
        assert roll[0:4, 36].all()
        assert roll[0, MELODY_ONSET_COL] == 1
        assert roll[1:4, MELODY_ONSET_COL].sum() == 0
        assert roll[4:, MELODY_REST_COL].all()
        validate_roll(roll)

    def test_out_of_range_melody_becomes_rest(self):
        roll = encode_roll(*window([(20, 0, 4)], [(36, 0, 4)]))
        assert roll[0:4, MELODY_REST_COL].all()
        assert roll[0, MELODY_ONSET_COL] == 0
        validate_roll(roll)

    def test_invariants_on_random_windows(self, rng):
        for _ in range(200):
            validate_roll(encode_roll(*random_window(rng)))


class TestDecodeRoll:
    def test_inverse_of_simple_encoding(self):
        pitch, onset = window([(60, 0, 4)], [(36, 0, 4)])
        decoded = decode_roll(encode_roll(pitch, onset))
        assert np.array_equal(decoded[0], pitch)
        assert np.array_equal(decoded[1], onset)
        assert song_notes(*decoded) == ([(60, 0, 4)], [(36, 0, 4)])

    def test_all_rest(self):
        pitch, onset = decode_roll(encode_roll(*window()))
        assert (pitch == -1).all() and not onset.any()

    def test_stack_decodes_row_by_row(self, rng):
        rolls = np.stack([encode_roll(*random_window(rng)) for _ in range(5)])
        rolls[1, 0, MELODY_ONSET_COL] = 0  # step 0 starts a note anyway
        pitch, onset = decode_roll(rolls)
        assert pitch.shape == onset.shape == (2, 5, 64)
        assert onset.dtype == np.bool_
        for i, roll in enumerate(rolls):
            row_pitch, row_onset = decode_roll(roll)
            assert np.array_equal(pitch[:, i], row_pitch)
            assert np.array_equal(onset[:, i], row_onset)
        assert onset[0, 1, 0] == (pitch[0, 1, 0] >= 0)

    def test_legato_split_without_onset(self):
        roll = encode_roll(*window([(60, 0, 16)], [(36, 0, 16)]))
        # Flip the melody pitch at step 8 without an onset flag.
        roll[8:16, 36] = 0
        roll[8:16, 38] = 1
        pitch, onset = decode_roll(roll)
        assert pitch[0, :16].tolist() == [60] * 8 + [62] * 8
        assert np.flatnonzero(onset[0]).tolist() == [0]
        assert song_notes(pitch, onset).melody == [(60, 0, 8), (62, 8, 8)]

    def test_round_trip_on_random_windows(self, rng):
        for _ in range(1000):
            pitch, onset = random_window(rng)
            decoded = decode_roll(encode_roll(pitch, onset))
            assert np.array_equal(decoded[0], pitch)
            assert np.array_equal(decoded[1], onset)

    def test_invalid_roll_rejected(self):
        roll = encode_roll(*window())
        roll[0, MELODY_ONSET_COL] = 1  # onset on a rest step
        from ttvae.errors import InvalidRollError
        with pytest.raises(InvalidRollError):
            decode_roll(roll)



ROLL_DTYPES = [np.uint8, np.bool_, np.float32, np.float64]
# values no 0/1 roll holds, per dtype; a bool array cannot hold any
BAD_ENTRIES = {np.uint8: [2, 255], np.bool_: [],
               np.float32: [2, -1, 0.5, np.nan, np.inf],
               np.float64: [2, -1, 0.5, np.nan, -np.inf]}


def _break(roll, kind, step):
    """Break one invariant of a valid uint8 ``roll`` at ``step``, in place."""
    melody = slice(0, MELODY_REST_COL + 1)
    bass = slice(BASS_PITCH_START, BASS_REST_COL + 1)
    if kind == "no melody pitch":
        roll[step, melody] = 0
    elif kind == "two melody pitches":
        roll[step, melody] = 0
        roll[step, [3, 40]] = 1
    elif kind == "no bass pitch":
        roll[step, bass] = 0
    elif kind == "two bass pitches":
        roll[step, bass] = 0
        roll[step, [BASS_PITCH_START, BASS_REST_COL]] = 1
    elif kind == "melody onset on rest":
        roll[step, melody] = 0
        roll[step, [MELODY_REST_COL, MELODY_ONSET_COL]] = 1
    elif kind == "bass onset on rest":
        roll[step, bass] = 0
        roll[step, [BASS_REST_COL, BASS_ONSET_COL]] = 1
    else:
        raise ValueError(kind)


BREAKS = ["no melody pitch", "two melody pitches", "no bass pitch",
          "two bass pitches", "melody onset on rest", "bass onset on rest"]


def _outcome(validate, roll):
    try:
        validate(roll)
    except InvalidRollError as err:
        return str(err)
    return None


def _same_outcome(roll):
    """validate_roll and the reference copy accept ``roll`` or raise the same."""
    got = _outcome(validate_roll, roll)
    assert got == _outcome(reference_validate_roll, roll)
    return got


class TestValidateRollEqualsReference:
    """``validate_roll`` raises what the reference copy raises, first error too."""

    @pytest.fixture
    def stack(self, rng):
        return np.stack([encode_roll(*random_window(rng)) for _ in range(5)])

    @pytest.mark.parametrize("dtype", ROLL_DTYPES)
    @pytest.mark.parametrize("kind", BREAKS)
    def test_each_broken_invariant(self, stack, kind, dtype):
        one = stack[0].copy()
        _break(one, kind, 17)
        _break(stack[3], kind, 63)
        for roll in (one, stack):
            assert _same_outcome(roll.astype(dtype)) is not None

    @pytest.mark.parametrize("dtype", ROLL_DTYPES)
    def test_bad_entries(self, stack, dtype):
        for value in BAD_ENTRIES[dtype]:
            bad = stack.astype(dtype)
            bad[2, 9, 80] = value
            assert _same_outcome(bad) == "roll entries must be 0 or 1"
            assert _same_outcome(bad[2]) == "roll entries must be 0 or 1"

    @pytest.mark.parametrize("dtype", ROLL_DTYPES)
    def test_first_of_several_errors(self, stack, dtype):
        # each ordered pair of broken invariants, in different rolls and at
        # the same step of one roll, plus a bad entry in a later roll
        for first in BREAKS:
            for second in BREAKS:
                apart, together = stack.copy(), stack.copy()
                _break(apart[4], first, 5)
                _break(apart[1], second, 60)
                _break(together[2], first, 8)
                _break(together[2], second, 8)
                for roll in (apart, together):
                    assert _same_outcome(roll.astype(dtype)) is not None
                    for value in BAD_ENTRIES[dtype]:
                        bad = roll.astype(dtype)
                        bad[4, 63, 88] = value
                        assert _same_outcome(bad) == "roll entries must be 0 or 1"

    @pytest.mark.parametrize("dtype", ROLL_DTYPES)
    def test_random_flips(self, rng, dtype):
        for _ in range(150):
            rolls = np.stack([encode_roll(*random_window(rng)) for _ in range(3)])
            for _ in range(int(rng.integers(0, 3))):
                index = tuple(int(rng.integers(0, size)) for size in rolls.shape)
                rolls[index] = 1 - rolls[index]
            _same_outcome(rolls.astype(dtype))

    @pytest.mark.parametrize("dtype", ROLL_DTYPES)
    def test_valid_layouts_and_shapes(self, stack, dtype):
        rolls = stack.astype(dtype)
        for roll in (rolls, rolls[0], rolls[::2], np.asfortranarray(rolls),
                     rolls[:0]):
            assert _same_outcome(roll) is None
        for roll in (rolls[..., :88], rolls[:, :63], rolls[None], rolls[0, 0]):
            assert _same_outcome(roll).startswith("roll must be 64x89")

def write_song(path, bars=8, shift=0):
    melody = [(60 + shift + (i % 5), i, 1.0) for i in range(bars * 4)]
    bass = [(36 + shift + (i % 3), i * 2, 2.0) for i in range(bars * 2)]
    score = Score(tracks=[midi_track(melody, "melody", 0),
                          midi_track(bass, "bass", 1)])
    path.write_bytes(write_midi(score))


class TestBuildDataset:
    def test_two_songs_four_fragments(self, tmp_path):
        write_song(tmp_path / "a.mid", bars=8)
        write_song(tmp_path / "b.mid", bars=8, shift=2)
        dataset = build_dataset(tmp_path)
        assert len(dataset) == 4
        assert dataset.source_ids == ["a.mid", "a.mid", "b.mid", "b.mid"]
        assert dataset.bar_offsets == [0, 4, 0, 4]

    def test_corrupt_file_skipped(self, tmp_path):
        write_song(tmp_path / "good.mid", bars=8)
        (tmp_path / "bad.mid").write_bytes(b"not midi at all")
        dataset = build_dataset(tmp_path)
        assert len(dataset) == 2
        assert len(dataset.meta["skips"]) == 1
        assert dataset.meta["skips"][0]["file"] == "bad.mid"

    def test_rebuild_is_byte_identical(self, tmp_path):
        write_song(tmp_path / "a.mid", bars=8)
        write_song(tmp_path / "b.mid", bars=12, shift=3)
        out1 = tmp_path / "one.ds"
        out2 = tmp_path / "two.ds"
        save_dataset(build_dataset(tmp_path), out1)
        save_dataset(build_dataset(tmp_path), out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "one.ds.json").read_text() \
            == (tmp_path / "two.ds.json").read_text()

    def test_transposition_applied(self, tmp_path):
        write_song(tmp_path / "a.mid", bars=8, shift=2)
        dataset = build_dataset(tmp_path)
        assert dataset.meta["original_keys"]["a.mid"].startswith("D")

    def test_no_usable_song_round_trips_empty(self, tmp_path):
        (tmp_path / "bad.mid").write_bytes(b"not midi at all")
        dataset = build_dataset(tmp_path)
        assert len(dataset) == 0
        path = tmp_path / "empty.ds"
        save_dataset(dataset, path)
        assert path.stat().st_size == 10
        loaded = load_dataset(path)
        assert len(loaded) == 0
        assert loaded.rolls.shape == (0, 64, 89)
        assert loaded.meta["skips"] == dataset.meta["skips"]

    def test_fragments_are_row_views_of_the_columns(self, tmp_path):
        write_song(tmp_path / "a.mid", bars=8)
        write_song(tmp_path / "b.mid", bars=12, shift=2)
        built = build_dataset(tmp_path)
        save_dataset(built, tmp_path / "out.ds")
        for dataset in (built, load_dataset(tmp_path / "out.ds")):
            rows = dataset.fragments
            assert len(rows) == len(dataset) == 5
            for i, row in enumerate(rows):
                for name, column in (("roll", dataset.rolls),
                                     ("tensile", dataset.tensile),
                                     ("diameter", dataset.diameter)):
                    value = getattr(row, name)
                    np.testing.assert_array_equal(value, column[i])
                    assert np.shares_memory(value, column)
                assert row.source_id == dataset.source_ids[i]
                assert row.bar_offset == dataset.bar_offsets[i]

    def test_curves_match_pipeline(self, tmp_path, rng):
        write_song(tmp_path / "a.mid", bars=4)
        dataset = build_dataset(tmp_path)
        from ttvae.tension import tension_curves
        strain, diam = tension_curves(dataset.rolls)
        np.testing.assert_allclose(dataset.tensile, strain, atol=1e-6)
        np.testing.assert_allclose(dataset.diameter, diam, atol=1e-6)


class TestDatasetFile:
    def test_round_trip(self, tmp_path, rng):
        rolls, tensile, diameter = [], [], []
        for _ in range(5):
            rolls.append(encode_roll(*random_window(rng)))
            tensile.append(rng.uniform(0, 2, 64))
            diameter.append(rng.uniform(0, 2, 64))
        ds = make_dataset(rolls, tensile, diameter,
                          source_ids=[f"song{i}.mid" for i in range(5)],
                          bar_offsets=[4 * i for i in range(5)],
                          meta={"original_keys": {}, "skips": [], "warnings": []})
        path = tmp_path / "mini.ds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == 5
        for column in ("rolls", "tensile", "diameter"):
            np.testing.assert_array_equal(getattr(ds, column),
                                          getattr(loaded, column))
        assert (ds.source_ids, ds.bar_offsets) \
            == (loaded.source_ids, loaded.bar_offsets)

    def test_truncated_rejected(self, tmp_path, rng):
        ds = make_dataset([encode_roll(*random_window(rng))],
                          np.zeros((1, 64)), np.zeros((1, 64)))
        path = tmp_path / "mini.ds"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InvalidInputError):
            load_dataset(path)

    def test_first_bad_roll_is_named_across_chunks(self, rng):
        rolls = np.stack([encode_roll(*random_window(rng)) for _ in range(10)])
        _validate_rolls(rolls, chunk=4)
        rolls[6, 3, 80] = 7
        rolls[9, 0, 0] = 7
        with pytest.raises(InvalidInputError, match="^dataset fragment 6: "):
            _validate_rolls(rolls, chunk=4)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_bytes(b"JUNKxxxxxxxxxxxx")
        with pytest.raises(InvalidInputError):
            load_dataset(path)


class TestSongFragments:
    def test_end_to_end_counts(self):
        melody = [(62 + (i % 7), i, 1.0) for i in range(32)]
        bass = [(38 + (i % 3), 2 * i, 2.0) for i in range(16)]
        score = Score(tracks=[midi_track(melody, "m"), midi_track(bass, "b")])
        fragments, key, warnings = song_fragments(score)
        assert len(fragments) == 2
        validate_roll(fragments.rolls)
        assert np.isfinite(fragments.tensile).all()


def random_quantized(rng, n):
    """(pitch, onset, duration) triples crowded onto a few pitches and
    onsets, so that equal pitches, equal onsets and re-struck notes abound."""
    return [(int(rng.integers(60, 64)), int(rng.integers(0, 24)),
             int(rng.integers(1, 12))) for _ in range(n)]


def random_score(rng):
    tracks = []
    for channel in (0, 1, 9):
        notes = [(int(rng.integers(0, 128)), float(rng.integers(0, 64)) / 4,
                  float(rng.integers(-2, 16)) / 4)
                 for _ in range(int(rng.integers(0, 30)))]
        tracks.append(midi_track(notes, "", channel))
    return Score(tracks=tracks)


def skyline_notes(quantized, keep_high):
    """``_skyline`` of (pitch, onset, duration) triples, read back as notes."""
    pitch, onset, duration = np.array(quantized, np.int64).reshape(-1, 3).T
    end = onset + duration
    steps = int(end.max(initial=0))
    return reference_decode_track(*_skyline(pitch, onset, end, steps, keep_high))


class TestLoopReferences:
    """The columnar corpus steps against the per-step and per-note loops
    they replaced."""

    @pytest.mark.parametrize("keep_high", [True, False])
    def test_skyline_equals_per_step_loop(self, rng, keep_high):
        for n in [0, 1, 2, 3] + [int(k) for k in rng.integers(4, 40, 300)]:
            quantized = random_quantized(rng, n)
            assert skyline_notes(quantized, keep_high) \
                == reference_skyline(quantized, keep_high)

    def test_skyline_restrike_truncates_and_resumes(self):
        quantized = [(60, 0, 8), (60, 2, 2), (67, 3, 1), (55, 0, 12)]
        assert skyline_notes(quantized, keep_high=True) == [
            (60, 0, 2), (60, 2, 1), (67, 3, 1), (60, 4, 4), (55, 8, 4)]
        assert skyline_notes(quantized, keep_high=True) \
            == reference_skyline(quantized, keep_high=True)

    def test_key_scores_equal_per_note_loop(self, rng):
        for _ in range(300):
            score = random_score(rng)
            histogram, scores = reference_key_scores(score)
            if histogram.sum() <= 0:
                with pytest.raises(NoKeyError):
                    detect_key(score.tracks)
                continue
            assert np.array_equal(_profile_correlations(histogram), scores)
            best = int(np.argmax(scores))
            assert detect_key(score.tracks) == Key(
                best % 12, Mode.MAJOR if best < 12 else Mode.MINOR)

    def test_unchecked_notes_and_windows_pass_the_public_checks(self, rng):
        # extract_tracks, transpose_pair and segment make their steps and
        # rolls without per-note checks; the notes they hold must form valid
        # monophonic tracks, and every roll must pass validate_roll.
        checked = 0
        for _ in range(300):
            score = random_score(rng)
            try:
                song = extract_tracks(score)
            except InvalidSongError:
                continue
            for shift in (-6, -1, 0, 5, 6):
                moved = transpose_pair(song, shift)
                _, rolls, _ = segment(moved)
                validate_roll(rolls)
                for s in (song, moved):
                    for notes in song_notes(s.pitch, s.onset):
                        check_notes(notes)
                    checked += 1
        assert checked > 500

    def test_slice_track_equals_whole_song_scan(self, rng):
        # A window cut by segment at any start step encodes the notes the
        # whole-song scan finds there, also past the last note.
        for _ in range(100):
            notes, step = [], int(rng.integers(0, 10))
            for _ in range(int(rng.integers(0, 40))):
                notes.append(Note(int(rng.integers(30, 90)), step,
                                  int(rng.integers(1, 40))))
                step = notes[-1].end + int(rng.integers(0, 3))
            song = song_steps(notes, notes)
            for start in range(0, step + 80, 16):
                offsets, rolls, _ = segment(
                    song, meters=[(start / 4, 4, 4), (1e6, 4, 4)])
                cut = reference_slice_track(notes, start, start + 64)
                if not cut:
                    assert offsets[:1] != [0]
                    continue
                assert offsets[0] == 0
                assert np.array_equal(rolls[0], reference_encode_roll(
                    NotePair(cut, cut)))

    def test_encode_roll_equals_per_note_loop(self, rng):
        for _ in range(300):
            notes = random_notes(rng)
            assert np.array_equal(encode_roll(*window(*notes)),
                                  reference_encode_roll(notes))
        edge = NotePair([Note(23, 0, 4), Note(24, 4, 4), Note(96, 8, 60),
                         Note(97, 70, 4)],
                        [Note(0, 2, 3), Note(127, 60, 30)])
        assert np.array_equal(encode_roll(*window(*edge)),
                              reference_encode_roll(edge))

    @pytest.mark.parametrize("shift", range(-6, 7))
    def test_transpose_pair_equals_per_note_clamp(self, shift):
        # Pitches at both ends of 0..127, so that every shift clamps some.
        pitches = [0, 1, 5, 6, 11, 12, 60, 115, 116, 121, 122, 126, 127]
        score = Score(tracks=[
            midi_track([(p, i, 1.0) for i, p in enumerate(pitches)]),
            midi_track([(p, i, 0.5) for i, p in enumerate(pitches)])])
        moved = transpose_pair(extract_tracks(score), shift)
        expected = reference_transpose_pair(reference_extract_tracks(score), shift)
        assert song_notes(moved.pitch, moved.onset) == expected


# Beats on a 1/8 grid put onsets and ends half-way between 16th steps, where
# rounding goes to the even step.
beats = st.integers(0, 8 * 64).map(lambda k: k / 8)
midi_notes = st.tuples(st.integers(0, 127), beats,
                       st.integers(0, 8 * 12).map(lambda k: k / 8))
# Regions start on any 16th step, so 4/4 bars often stop short of the next
# region, and a window across the gap is not contiguous.
meters = st.lists(st.builds(
    lambda step, meter: (step / 4, *meter), st.integers(0, 4 * 64),
    st.sampled_from([(4, 4)] * 6 + [(3, 4), (2, 4), (0, 4), (5, 8), (7, 32),
                                    (4, 3)])), max_size=4)


@st.composite
def songs(draw):
    """Scores of 2-4 tracks, maybe one on channel 9 (the reader leaves drum
    tracks out; a score's tracks are all used, whatever their channel), with
    3/4, unrepresentable and non-contiguous meters, overlapping and re-struck
    notes, melody pitches outside 24..96, notes crossing window starts and
    windows where one track is silent."""
    tracks = []
    for i in range(draw(st.integers(2, 4))):
        channel = draw(st.sampled_from([0, 1, 2, 3, 9]))
        notes = draw(st.lists(midi_notes, min_size=7, max_size=60))
        tracks.append(midi_track(notes, f"t{i}", channel))
    return Score(tracks=tracks, meters=sorted(draw(meters)))


def outcome(pipeline, score, *names):
    """(rolls, tensile, diameter, offsets, key, warnings), or the error."""
    try:
        dataset, key, warnings = pipeline(score, *names)
    except TtvaeError as err:
        return type(err), str(err)
    return (dataset.rolls.tobytes(), dataset.tensile.tobytes(),
            dataset.diameter.tobytes(), dataset.bar_offsets, key, warnings)


class TestColumnarPipeline:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(songs(), st.sampled_from([(), (), (), ("t1", "t0"), ("t0", None)]))
    def test_song_fragments_equal_per_note_pipeline(self, score, names):
        assert outcome(song_fragments, score, *names) \
            == outcome(reference_song_fragments, score, *names)


def long_note_song():
    """A usable song whose melody holds one note for 200,000 beats."""
    melody = [(60 + (i % 5), i, 1.0) for i in range(31)]
    melody.append((67, 31.0, 200_000.0))
    bass = [(36 + (i % 3), i * 2, 2.0) for i in range(16)]
    return Score(tracks=[midi_track(melody, "melody", 0),
                         midi_track(bass, "bass", 1)])


class TestSongLengthCap:
    def test_cap_is_far_above_real_songs(self):
        assert MAX_SONG_BARS == 2048
        assert MAX_SONG_STEPS == 2048 * 16

    def test_long_note_song_skipped_fast(self, tmp_path):
        write_song(tmp_path / "a.mid", bars=8)
        (tmp_path / "b.mid").write_bytes(write_midi(long_note_song()))
        write_song(tmp_path / "c.mid", bars=8, shift=2)
        began = time.perf_counter()
        dataset = build_dataset(tmp_path)
        assert time.perf_counter() - began < 0.5
        assert dataset.source_ids == ["a.mid", "a.mid", "c.mid", "c.mid"]
        (skip,) = dataset.meta["skips"]
        assert skip["file"] == "b.mid"
        assert f"cap of {MAX_SONG_BARS} bars" in skip["reason"]

    def test_song_at_the_cap_is_kept(self):
        melody = [(60 + (i % 5), 4.0 * i, 4.0) for i in range(MAX_SONG_BARS)]
        bass = [(36, 4.0 * i, 4.0) for i in range(MAX_SONG_BARS)]
        pair = extracted_notes(Score(tracks=[midi_track(melody), midi_track(bass)]))
        assert pair.melody[-1].end == MAX_SONG_STEPS
        with pytest.raises(InvalidSongError):
            extract_tracks(Score(tracks=[
                midi_track(melody), midi_track(bass + [(36, 0.0, 8192.25)])]))

    def test_far_meter_change_builds_bars_only_up_to_the_cap(self):
        warnings = []
        began = time.perf_counter()
        bars = _bar_grid([(0.0, 4, 4), (1e8, 3, 4)], 64, warnings)
        assert time.perf_counter() - began < 0.5
        assert len(bars) == MAX_SONG_BARS
        assert bars[-1] == (MAX_SONG_STEPS - 16, 16, True)
