"""Seeded generation, edit algebra, and chained composition."""

import numpy as np
import pytest

from helpers import random_track, reference_chain_score, window
from toy import toy_song
from ttvae.corpus import MAX_SONG_BARS, song_fragments
from ttvae import generate as generate_module
from ttvae.errors import InvalidInputError
from ttvae.generate import (
    ChainPlan,
    ChainSection,
    GenerationRequest,
    check_compatibility,
    compose_chain,
    generate,
    seed_latent,
    steps_to_score,
)
from ttvae.evaluation import decode_hardened
from ttvae.latent import AttributeVector, VectorsFile, class_means
from ttvae.midi import parse_midi, write_midi
from ttvae.pianoroll import (
    BASS_ONSET_COL,
    MELODY_ONSET_COL,
    encode_roll,
)
from ttvae.vae import ModelConfig, TensionVae, sample_latent


def parsed_notes(midi_bytes):
    """Every (pitch, onset, duration) of a MIDI file, track by track."""
    return [note for t in parse_midi(midi_bytes).tracks for note in zip(
        t.pitch.tolist(), t.onset.tolist(), t.duration.tolist())]

CFG = ModelConfig(latent_dim=6, hidden=16, gru_layers=1, rng_seed=2)


def model():
    return TensionVae.initialize(CFG)


def vectors_file(checkpoint_id=""):
    up = np.zeros(6)
    up[1] = 1.0
    return VectorsFile(latent_dim=6, checkpoint_id=checkpoint_id, vectors={
        "tensile_strain_direction": AttributeVector(
            "tensile_strain_direction", up, (4, 4)),
        "cloud_diameter_level": AttributeVector(
            "cloud_diameter_level", -2 * up, (4, 4)),
    })


class TestRequestValidation:
    def test_needs_exactly_one_seed(self):
        with pytest.raises(InvalidInputError):
            GenerationRequest()
        with pytest.raises(InvalidInputError):
            GenerationRequest(sample_seed=1, seed_midi="x.mid")

    def test_section_must_be_multiple_of_four(self):
        with pytest.raises(InvalidInputError):
            ChainSection(bars=6)

    def test_plan_needs_sections(self):
        with pytest.raises(InvalidInputError):
            ChainPlan(sections=[])

    @pytest.mark.parametrize("bars", ["4", 4.9, 8.0, True], ids=repr)
    def test_plan_bars_must_be_integers(self, bars):
        with pytest.raises(InvalidInputError):
            ChainPlan.from_dict({"sections": [{"bars": bars}]})

    def test_plan_length_is_capped(self):
        plan = ChainPlan.from_dict({"sections": [{"bars": MAX_SONG_BARS}]})
        assert plan.total_bars() == MAX_SONG_BARS
        for sections in ([{"bars": 1_000_000_000}],
                         [{"bars": MAX_SONG_BARS}, {"bars": 4}]):
            with pytest.raises(InvalidInputError, match="cap"):
                ChainPlan.from_dict({"sections": sections})


class TestSeedLatent:
    def test_sampled_seed_is_deterministic(self):
        m = model()
        z1, info1 = seed_latent(m, GenerationRequest(sample_seed=5))
        z2, _ = seed_latent(m, GenerationRequest(sample_seed=5))
        np.testing.assert_array_equal(z1, z2)
        assert info1["kind"] == "sampled"

    def test_seed_midi_uses_posterior_mean(self, tmp_path):
        path = tmp_path / "seed.mid"
        path.write_bytes(write_midi(toy_song(0)))
        m = model()
        z, info = seed_latent(m, GenerationRequest(seed_midi=path))
        assert z.shape == (6,)
        assert info["kind"] == "seed_midi"
        z2, _ = seed_latent(m, GenerationRequest(seed_midi=path,
                                                 fragment_index=1))
        assert np.abs(z - z2).max() > 0

    def test_fragment_index_out_of_range(self, tmp_path):
        path = tmp_path / "seed.mid"
        path.write_bytes(write_midi(toy_song(0)))
        with pytest.raises(InvalidInputError):
            seed_latent(model(), GenerationRequest(seed_midi=path,
                                                   fragment_index=99))


class TestCompatibility:
    def test_latent_dim_mismatch(self):
        bad = VectorsFile(latent_dim=12, checkpoint_id="", vectors={})
        with pytest.raises(InvalidInputError, match="latent_dim"):
            check_compatibility(model(), bad)

    def test_checkpoint_id_mismatch(self):
        vf = vectors_file(checkpoint_id="aaaa")
        with pytest.raises(InvalidInputError, match="checkpoint id"):
            check_compatibility(model(), vf, checkpoint_id="bbbb")

    def test_blank_ids_accepted(self):
        check_compatibility(model(), vectors_file(), checkpoint_id="anything")


class TestGenerate:
    def test_empty_edits_reconstruct_seed(self):
        m = model()
        result = generate(m, vectors_file(), GenerationRequest(sample_seed=3))
        assert result.report["edits"] == []
        assert result.midi_bytes[:4] == b"MThd"
        parsed = parse_midi(result.midi_bytes)
        assert [t.name for t in parsed.tracks] == ["melody", "bass"]

    def test_cancelling_edits_match_empty(self):
        m = model()
        vf = vectors_file()
        plain = generate(m, vf, GenerationRequest(sample_seed=3))
        cancelled = generate(m, vf, GenerationRequest(
            sample_seed=3,
            edits=[("tensile_strain_direction", 3.0),
                   ("tensile_strain_direction", -3.0)]))
        assert plain.midi_bytes == cancelled.midi_bytes
        for part in ("original", "modified"):
            for curve in ("recomputed_tensile", "recomputed_diameter"):
                assert plain.report[part][curve] == cancelled.report[part][curve]

    def test_unknown_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            generate(model(), vectors_file(),
                     GenerationRequest(sample_seed=1, edits=[("nope", 1.0)]))

    def test_report_has_both_curve_families(self):
        result = generate(model(), vectors_file(),
                          GenerationRequest(sample_seed=1,
                                            edits=[("cloud_diameter_level", 3.0)]))
        for side in ("original", "modified"):
            block = result.report[side]
            assert len(block["predicted_tensile"]) == 64
            assert len(block["recomputed_diameter"]) == 64

    def test_deterministic_bytes(self):
        m = model()
        r1 = generate(m, vectors_file(), GenerationRequest(sample_seed=9))
        r2 = generate(m, vectors_file(), GenerationRequest(sample_seed=9))
        assert r1.midi_bytes == r2.midi_bytes


class TestComposeChain:
    def plan(self):
        return ChainPlan(sections=[
            ChainSection(bars=8, edits=[("tensile_strain_direction", 6.0)]),
            ChainSection(bars=8, edits=[("cloud_diameter_level", 3.0)]),
        ])

    def test_total_bars_and_markers(self):
        result = compose_chain(model(), vectors_file(), self.plan(),
                               GenerationRequest(sample_seed=4))
        assert result.report["total_bars"] == 16
        parsed = parse_midi(result.midi_bytes)
        assert [m[1] for m in parsed.markers] == ["section 1", "section 2"]
        assert parsed.markers[1][0] == 32.0  # second section starts at bar 8
        assert max(o + d for _, o, d in parsed_notes(result.midi_bytes)) <= 16 * 4.0

    def test_single_section_no_edits_equals_generate(self):
        m = model()
        vf = vectors_file()
        chain = compose_chain(m, vf, ChainPlan(sections=[ChainSection(bars=4)]),
                              GenerationRequest(sample_seed=4))
        plain = generate(m, vf, GenerationRequest(sample_seed=4))
        assert parsed_notes(chain.midi_bytes) == parsed_notes(plain.midi_bytes)

    def test_deterministic(self):
        m = model()
        b1 = compose_chain(m, vectors_file(), self.plan(),
                           GenerationRequest(sample_seed=4)).midi_bytes
        b2 = compose_chain(m, vectors_file(), self.plan(),
                           GenerationRequest(sample_seed=4)).midi_bytes
        assert b1 == b2

    def test_edits_accumulate_across_sections(self):
        m = model()
        vf = vectors_file()
        # Section 2 with an edit that cancels section 1's must reproduce the
        # seed's own block in its second half.
        plan = ChainPlan(sections=[
            ChainSection(bars=4, edits=[("tensile_strain_direction", 2.0)]),
            ChainSection(bars=4, edits=[("tensile_strain_direction", -2.0)]),
        ])
        chain = compose_chain(m, vf, plan, GenerationRequest(sample_seed=4))
        plain = generate(m, vf, GenerationRequest(sample_seed=4))
        second_half = [(p, o - 16.0, d) for p, o, d in parsed_notes(chain.midi_bytes)
                       if o >= 16.0]
        assert sorted(second_half) == sorted(parsed_notes(plain.midi_bytes))


class TestRequestEdits:
    def test_apply_to_the_seed_before_section_one(self):
        m, vf = model(), vectors_file()
        edit = [("tensile_strain_direction", 8.0)]
        plan = ChainPlan(sections=[
            ChainSection(bars=4),
            ChainSection(bars=4, edits=[("cloud_diameter_level", 1.0)])])
        plain = compose_chain(m, vf, plan, GenerationRequest(sample_seed=4))
        edited = compose_chain(m, vf, plan, GenerationRequest(
            sample_seed=4, edits=edit))
        in_plan = compose_chain(m, vf, ChainPlan(sections=[
            ChainSection(bars=4, edits=edit), plan.sections[1]]),
            GenerationRequest(sample_seed=4))
        assert edited.midi_bytes == in_plan.midi_bytes
        for a, b in zip(edited.report["sections"], in_plan.report["sections"]):
            assert {**a, "edits": []} == {**b, "edits": []}
        assert edited.report["sections"][0]["recomputed_tensile"] \
            != plain.report["sections"][0]["recomputed_tensile"]
        assert edited.report["edits"] == [["tensile_strain_direction", 8.0]]
        assert plain.report["edits"] == []

    def test_unknown_vector_rejected(self):
        with pytest.raises(InvalidInputError, match="no vector named"):
            compose_chain(model(), vectors_file(),
                          ChainPlan(sections=[ChainSection(bars=4)]),
                          GenerationRequest(sample_seed=4, edits=[("x", 8.0)]))


class TestSameBitsAsEvalAndVectors:
    """At hidden 128 a one-row encode or decode rounds differently from the
    same row in a block; generation gets the bits of ``ttv eval``'s decode
    and of ``ttv vectors``' class means."""

    CFG = ModelConfig(latent_dim=16, hidden=128, gru_layers=2, rng_seed=3)

    @staticmethod
    def vectors():
        return VectorsFile(latent_dim=16, checkpoint_id="", vectors={})

    def test_sampled_seed_decodes_as_its_eval_row(self, monkeypatch):
        m = TensionVae.initialize(self.CFG)
        seen = []

        def spy(model, z):
            seen.append(decode_hardened(model, z))
            return seen[-1]

        monkeypatch.setattr(generate_module, "decode_hardened", spy)
        result = generate(m, self.vectors(), GenerationRequest(sample_seed=6))
        want = decode_hardened(m, sample_latent(256, 16, 6).astype(m.dtype))
        for got, column in zip(seen[0], want):
            assert got[0].tobytes() == column[0].tobytes()
        assert result.report["original"]["predicted_tensile"] == [
            round(float(v), 6) for v in want[1][0]]
        assert result.report["original"]["recomputed_diameter"] == [
            round(float(v), 6) for v in want[4][0]]

    def test_seed_midi_code_is_its_class_means_row(self, tmp_path):
        path = tmp_path / "seed.mid"
        path.write_bytes(write_midi(toy_song(0)))
        fragments, _, _ = song_fragments(parse_midi(path.read_bytes()))
        m = TensionVae.initialize(self.CFG)
        means = class_means(m, fragments, [[i] for i in range(len(fragments))])
        for index in range(len(fragments)):
            z, _ = seed_latent(m, GenerationRequest(seed_midi=path,
                                                    fragment_index=index))
            assert z.astype(np.float64).tobytes() == means[index].tobytes()


class TestStepsToScore:
    def test_render_settings(self):
        score = steps_to_score(*window([(60, 0, 4)], [(36, 0, 8)]))
        assert score.tempos == [(0.0, 120.0)]
        assert score.meters == [(0.0, 4, 4)]
        melody, bass = score.tracks
        assert melody.velocity.tolist() == [80]
        assert melody.duration.tolist() == [1.0]  # 4 steps = 1 beat
        assert (melody.pitch.dtype, melody.onset.dtype) == (np.int64, np.float64)
        assert (bass.name, bass.channel, bass.duration.tolist()) == ("bass", 1, [2.0])

    def test_notes_from_step_lines(self):
        # a legato pitch change and a re-struck pitch split notes; a held
        # pitch without an onset and a rest do not start one
        pitch = np.array([[60, 60, 62, 62, 62, -1, 62, 64],
                          [-1, 36, 36, 36, 43, 43, -1, -1]])
        onset = np.zeros_like(pitch, dtype=bool)
        onset[0, 3] = True
        melody, bass = steps_to_score(pitch, onset).tracks
        assert list(zip(melody.pitch.tolist(), (melody.onset * 4).tolist(),
                        (melody.duration * 4).tolist())) == [
            (60, 0, 2), (62, 2, 1), (62, 3, 2), (62, 6, 1), (64, 7, 1)]
        assert list(zip(bass.pitch.tolist(), (bass.onset * 4).tolist(),
                        (bass.duration * 4).tolist())) == [(36, 1, 3), (43, 4, 2)]

    def test_silent_lines_have_no_notes(self):
        melody, bass = steps_to_score(*window()).tracks
        assert len(melody.pitch) == len(bass.pitch) == 0
        assert (melody.pitch.dtype, melody.duration.dtype) == (np.int64, np.float64)


def random_block(rng):
    """A valid roll that often holds one pitch across steps, blocks and
    sections: two melody and two bass pitches and rests, about half the
    onsets dropped, and step 0's onset flags cleared at random."""
    pitch, onset = window(random_track(rng, 60, 61), random_track(rng, 36, 37))
    roll = encode_roll(pitch, onset & (rng.random(onset.shape) < 0.5))
    for col in (MELODY_ONSET_COL, BASS_ONSET_COL):
        if rng.random() < 0.5:
            roll[0, col] = 0
    return roll


class TestMidiEqualsPerNoteReference:
    """``generate`` and ``compose_chain`` write the bytes of the per-note
    reference: notes decoded from each roll, copied and shifted to each
    repeat of a block, and packed one row per note."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        """Make ``decode_hardened`` return the rolls put in the list it
        yields, one per latent of a call, with zero curves."""
        queue = []

        def decode(model, z):
            curve = np.zeros((len(z), 64))
            return np.stack([queue.pop(0) for _ in z]), curve, curve, curve, curve

        monkeypatch.setattr(generate_module, "decode_hardened", decode)
        return queue

    def test_compose_chain(self, rng, decoded):
        m, vf = model(), vectors_file()
        repeated = 0
        for _ in range(1000):
            repeats = rng.integers(1, 4, size=int(rng.integers(1, 5))).tolist()
            blocks = [(random_block(rng), r) for r in repeats]
            decoded.extend(roll for roll, _ in blocks)
            plan = ChainPlan(sections=[ChainSection(bars=4 * r) for r in repeats])
            result = compose_chain(m, vf, plan, GenerationRequest(sample_seed=0))
            assert result.midi_bytes == write_midi(reference_chain_score(blocks))
            repeated += max(repeats) > 1
        assert not decoded and repeated > 500

    def test_generate(self, rng, decoded):
        m, vf = model(), vectors_file()
        for _ in range(1000):
            roll = random_block(rng)
            decoded.extend([roll, roll])
            result = generate(m, vf, GenerationRequest(sample_seed=0))
            expected = reference_chain_score([(roll, 1)])
            expected.markers = []
            assert result.midi_bytes == write_midi(expected)

    def test_block_boundaries_split_held_pitches(self, decoded):
        # one pitch held through the whole block and no onset at step 0:
        # each repeat and each section is its own note
        roll = encode_roll(*window([(60, 0, 64)], [(36, 0, 64)]))
        roll[0, [MELODY_ONSET_COL, BASS_ONSET_COL]] = 0
        decoded.extend([roll, roll])
        plan = ChainPlan(sections=[ChainSection(bars=8), ChainSection(bars=4)])
        result = compose_chain(model(), vectors_file(), plan,
                               GenerationRequest(sample_seed=0))
        assert parsed_notes(result.midi_bytes) == [
            (60, 16.0 * k, 16.0) for k in range(3)] + [
            (36, 16.0 * k, 16.0) for k in range(3)]
