"""Smoothing and fragment tension curves against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_force_tension,
    center_of_effect,
    direct_step_tension,
    direct_tension_curves,
    random_roll,
    spell,
    window,
)
from ttvae.errors import InvalidInputError, InvalidRollError
from ttvae.pianoroll import (
    MELODY_REST_COL,
    encode_roll,
    validate_roll,
)
from ttvae.spiral import (
    Cloud,
    SpelledPitch,
    cloud_diameter,
    cloud_tension,
    key_center,
    pitch_position,
    tensile_strain,
)
from ttvae.tension import DIAMETER_TABLE, STRAIN_TABLE, moving_average, tension_curves

C_MAJOR = key_center(0)


class TestMovingAverage:
    def test_constant_preserved(self):
        v = np.full(64, 3.25)
        np.testing.assert_array_equal(moving_average(v, 4), v)

    def test_impulse_window_four(self):
        v = np.zeros(64)
        v[10] = 1.0
        out = moving_average(v, 4)
        expected = np.zeros(64)
        expected[[9, 10, 11, 12]] = 0.25
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_window_one_is_identity(self):
        v = np.arange(64, dtype=float)
        np.testing.assert_array_equal(moving_average(v, 1), v)

    def test_window_one_is_identity_up_to_rounding(self):
        # every step-table strain held for 64 steps: the cumulative sums
        # round, so the values come back close, not bit for bit
        held = np.repeat(STRAIN_TABLE.reshape(-1, 1), 64, axis=1)
        assert np.abs(moving_average(held, 1) - held).max() <= 1e-12

    def test_edge_truncation(self):
        v = np.zeros(64)
        v[0] = 1.0
        out = moving_average(v, 4)
        # Step 0 averages steps 0..1, step 1 steps 0..2, step 2 steps 0..3.
        np.testing.assert_allclose(out[:4], [1 / 2, 1 / 3, 1 / 4, 0.0], atol=1e-15)

    def test_window_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            moving_average(np.zeros(64), 0)

    @given(st.floats(-100, 100), st.integers(1, 9))
    def test_constant_mean_exact(self, c, w):
        v = np.full(64, c)
        out = moving_average(v, w)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_stack_matches_rows(self, rng):
        v = rng.uniform(0, 5, size=(3, 5, 64))
        out = moving_average(v, 4)
        assert out.shape == v.shape
        for index in np.ndindex(3, 5):
            np.testing.assert_array_equal(out[index], moving_average(v[index], 4))

    def test_hand_computed_oracle(self, rng):
        v = rng.uniform(0, 5, size=64)
        for w in (1, 2, 3, 4, 5, 8):
            out = moving_average(v, w)
            for i in range(64):
                lo = max(i - w // 2, 0)
                hi = min(i + (w + 1) // 2, 64)
                assert abs(out[i] - v[lo:hi].mean()) < 1e-12


class TestTensionCurves:
    def test_all_rest_fragment(self):
        roll = encode_roll(*window())
        strain, diam = tension_curves(roll)
        assert strain.dtype == diam.dtype == np.float64
        np.testing.assert_array_equal(strain, np.zeros(64))
        np.testing.assert_array_equal(diam, np.zeros(64))

    def test_constant_melody_only(self):
        strain, diam = tension_curves(encode_roll(*window([(60, 0, 64)])))
        expected = tensile_strain(Cloud((spell(0),)), C_MAJOR)
        np.testing.assert_allclose(strain, np.full(64, expected), atol=1e-12)
        np.testing.assert_array_equal(diam, np.zeros(64))

    def test_malformed_roll_rejected(self):
        roll = encode_roll(*window())
        roll[3, MELODY_REST_COL] = 0  # no melody column set at step 3
        with pytest.raises(InvalidInputError):
            tension_curves(roll)

    def test_matches_brute_force_on_random_fragments(self, rng):
        for _ in range(120):
            roll = random_roll(rng)
            strain, diam = tension_curves(roll)
            ref_strain, ref_diam = brute_force_tension(roll, C_MAJOR)
            np.testing.assert_allclose(strain, ref_strain, atol=1e-12, rtol=0)
            np.testing.assert_allclose(diam, ref_diam, atol=1e-12, rtol=0)

    def test_sustained_notes_count_every_step(self):
        # A whole-note C against a sustained G: every step has the same cloud.
        strain, diam = tension_curves(
            encode_roll(*window([(60, 0, 64)], [(43, 0, 64)])))
        d = np.linalg.norm(pitch_position(0) - pitch_position(1))
        np.testing.assert_allclose(diam, np.full(64, d), atol=1e-12)

    def test_smoothing_covers_rests(self):
        # One quarter note then silence: smoothing spreads mass across edges.
        strain, _ = tension_curves(encode_roll(*window([(60, 8, 4)])))
        raw = tensile_strain(Cloud((spell(0),)), C_MAJOR)
        assert strain[8] == pytest.approx(raw / 2)   # window covers 6..9
        assert strain[9] == pytest.approx(raw * 3 / 4)  # window covers 7..10
        assert strain[20] == 0.0

    def test_stack_equals_per_roll(self, rng):
        rolls = np.stack([random_roll(rng) for _ in range(40)])
        strain, diam = tension_curves(rolls)
        assert strain.shape == diam.shape == (40, 64)
        for roll, s_row, d_row in zip(rolls, strain, diam):
            one_strain, one_diam = tension_curves(roll)
            assert np.array_equal(s_row, one_strain)
            assert np.array_equal(d_row, one_diam)

    def test_stack_with_one_malformed_roll_rejected(self, rng):
        rolls = np.stack([random_roll(rng) for _ in range(3)])
        rolls[2, 5, MELODY_REST_COL] = 1 - rolls[2, 5, MELODY_REST_COL]
        with pytest.raises(InvalidInputError):
            tension_curves(rolls)


    def test_step_table_equals_direct_kernel(self, rng):
        # random rolls have melody and bass rests, and one roll rests throughout
        rolls = np.stack([random_roll(rng) for _ in range(60)]
                         + [encode_roll(*window())])
        strain, diam = tension_curves(rolls)
        ref_strain, ref_diam = direct_tension_curves(rolls)
        assert np.array_equal(strain, ref_strain)
        assert np.array_equal(diam, ref_diam)

    def test_step_table_covers_every_pair(self):
        # 169 fragments, each holding one (melody, bass) pair of the 13 x 13
        # grid of pitch classes and rests for all 64 steps
        pairs = [(m, b) for m in range(-1, 12) for b in range(-1, 12)]
        rolls = np.stack([encode_roll(*window(
            [] if m < 0 else [(60 + m, 0, 64)],
            [] if b < 0 else [(36 + b, 0, 64)])) for m, b in pairs])
        # raw per-step values: each table entry held for all 64 steps
        cells = tuple(np.array(column) + 1 for column in zip(*pairs))
        for table, ref in zip((STRAIN_TABLE, DIAMETER_TABLE),
                              direct_step_tension(rolls)):
            assert np.array_equal(np.repeat(table[cells][:, None], 64, axis=1), ref)
        for curve, ref in zip(tension_curves(rolls), direct_tension_curves(rolls)):
            assert np.array_equal(curve, ref)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_entries_other_than_zero_and_one_rejected(self, bad):
        roll = encode_roll(*window()).astype(float)
        roll[7, 80] = bad
        with pytest.raises(InvalidRollError, match="0 or 1"):
            validate_roll(roll)

class TestCloudTensionKernel:
    def test_cloud_wrappers_equal_kernel(self, rng):
        for _ in range(200):
            fifths = rng.integers(-12, 13, size=int(rng.integers(1, 7)))
            weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, len(fifths)))
            cloud = Cloud(tuple(SpelledPitch(int(k)) for k in fifths), weights)
            key = key_center(int(rng.integers(-6, 7)))
            points = np.array([pitch_position(int(k)) for k in fifths])
            strain, diameter = cloud_tension(points, np.array(weights), key)
            assert tensile_strain(cloud, key) == strain
            assert cloud_diameter(cloud) == diameter
            center = center_of_effect(cloud)
            assert np.linalg.norm(center - key, axis=-1) == strain

    def test_absent_members_are_ignored(self):
        points = np.array([pitch_position(k) for k in (0, 6, 1)])
        key = C_MAJOR
        strain, diameter = cloud_tension(points, np.array([1.0, 0.0, 1.0]), key)
        alone, pair = cloud_tension(points[[0, 2]], np.ones(2), key)
        assert (strain, diameter) == (alone, pair)

    def test_weightless_cloud_is_zero(self):
        points = np.array([pitch_position(k) for k in (0, 6)])
        strain, diameter = cloud_tension(points, np.zeros(2), C_MAJOR)
        assert (strain, diameter) == (0.0, 0.0)

    def test_stacked_clouds_match_one_at_a_time(self, rng):
        points = rng.normal(size=(4, 5, 3, 3))
        weights = rng.integers(0, 3, size=(4, 5, 3)).astype(float)
        key = C_MAJOR
        strain, diameter = cloud_tension(points, weights, key)
        assert strain.shape == diameter.shape == (4, 5)
        for index in np.ndindex(4, 5):
            one = cloud_tension(points[index], weights[index], key)
            assert (strain[index], diameter[index]) == one
