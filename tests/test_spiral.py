"""Geometry of the pitch helix and the per-cloud tension measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import center_of_effect, spell
from ttvae.errors import InvalidInputError
from ttvae.spiral import (
    CHORD_WEIGHTS,
    KEY_WEIGHTS,
    PITCH_CLASS_POSITIONS,
    RISE,
    Cloud,
    SpelledPitch,
    cloud_diameter,
    key_center,
    pitch_position,
    tensile_strain,
)

H = math.sqrt(2.0 / 15.0)


def cloud_of(*fifths, weights=None):
    return Cloud(tuple(SpelledPitch(k) for k in fifths), weights)


def brute_diameter(fifths):
    """Pairwise enumeration with the raw formula, independent of the module."""
    pts = [(math.sin(k * math.pi / 2), math.cos(k * math.pi / 2), k * H)
           for k in fifths]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.dist(pts[i], pts[j])
            best = max(best, d)
    return best


def test_calibration_constants():
    assert RISE == H
    for weights in (CHORD_WEIGHTS, KEY_WEIGHTS):
        assert len(weights) == 3 and all(w > 0 for w in weights)
        assert abs(sum(weights) - 1.0) < 1e-9


class TestPitchPosition:
    def test_origin_pitch(self):
        assert pitch_position(0).tolist() == [0.0, 1.0, 0.0]

    def test_one_fifth_up(self):
        np.testing.assert_allclose(pitch_position(1), [1.0, 0.0, H], atol=1e-12)

    def test_four_fifths_up(self):
        np.testing.assert_allclose(pitch_position(4), [0.0, 1.0, 4 * H], atol=1e-12)

    @given(st.integers(min_value=-50, max_value=50))
    def test_matches_formula(self, k):
        np.testing.assert_allclose(
            pitch_position(k),
            [math.sin(k * math.pi / 2), math.cos(k * math.pi / 2), k * H],
            atol=1e-12)


class TestSpelling:
    def test_anchor_pitches(self):
        assert spell(0).fifth_index == 0    # C
        assert spell(7).fifth_index == 1    # G
        assert spell(6).fifth_index == 6    # F#

    def test_full_table(self):
        expected = {0: 0, 1: -5, 2: 2, 3: -3, 4: 4, 5: -1,
                    6: 6, 7: 1, 8: -4, 9: 3, 10: -2, 11: 5}
        for pc, k in expected.items():
            assert spell(pc).fifth_index == k

    @pytest.mark.parametrize("bad", [-1, 12, 100])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            spell(bad)


class TestCloudDiameter:
    def test_singleton_is_zero(self):
        assert cloud_diameter(cloud_of(0)) == 0.0

    def test_fifth_apart(self):
        d = cloud_diameter(cloud_of(0, 1))
        np.testing.assert_allclose(d, math.sqrt(2 + 2 / 15), rtol=0, atol=1e-12)

    def test_major_triad_brute_force(self):
        fifths = (0, 4, 1)  # C, E, G
        d = cloud_diameter(cloud_of(*fifths))
        np.testing.assert_allclose(d, brute_diameter(fifths), atol=1e-12)
        np.testing.assert_allclose(d, math.sqrt(2 + 9 * H * H), atol=1e-12)

    def test_empty_cloud_rejected(self):
        with pytest.raises(InvalidInputError):
            cloud_diameter(Cloud(()))

    def test_calibration_identities(self):
        d_cg = cloud_diameter(cloud_of(0, 1))
        d_ce = cloud_diameter(cloud_of(0, 4))
        d_cfs = cloud_diameter(cloud_of(0, 6))
        assert abs(d_cg - math.sqrt(32 / 15)) < 1e-9
        assert abs(d_ce - math.sqrt(32 / 15)) < 1e-9
        assert abs(d_cfs - math.sqrt(8.8)) < 1e-9

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8),
           st.integers(-30, 30))
    @settings(max_examples=200)
    def test_shift_isometry(self, fifths, shift):
        base = cloud_diameter(cloud_of(*fifths))
        shifted = cloud_diameter(cloud_of(*(k + shift for k in fifths)))
        assert abs(base - shifted) < 1e-9

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
    def test_reorder_invariance(self, fifths):
        d1 = cloud_diameter(cloud_of(*fifths))
        d2 = cloud_diameter(cloud_of(*reversed(fifths)))
        assert d1 == d2

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
           st.integers(-20, 20))
    def test_monotone_containment(self, fifths, extra):
        d1 = cloud_diameter(cloud_of(*fifths))
        d2 = cloud_diameter(cloud_of(*fifths, extra))
        assert d2 >= d1 - 1e-12


class TestCenterOfEffect:
    def test_singleton_identity(self):
        assert center_of_effect(cloud_of(0)).tolist() == [0.0, 1.0, 0.0]

    def test_equal_weight_midpoint(self):
        np.testing.assert_allclose(center_of_effect(cloud_of(0, 1)),
                                   [0.5, 0.5, H / 2], atol=1e-12)

    def test_weighted_mean(self):
        c = center_of_effect(cloud_of(0, 1, weights=(3.0, 1.0)))
        np.testing.assert_allclose(c, [0.25, 0.75, H / 4], atol=1e-12)

    def test_weighted_mean_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 6)
            fifths = rng.integers(-10, 11, size=n)
            w = rng.uniform(0.1, 5.0, size=n)
            c = center_of_effect(cloud_of(*fifths, weights=tuple(w)))
            pts = np.array([pitch_position(int(k)) for k in fifths])
            expected = (pts * w[:, None]).sum(axis=0) / w.sum()
            np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            cloud_of(0, 1, weights=(1.0, 0.0))


class TestKeyCenter:
    def test_default_formula_oracle(self):
        w1, w2, w3 = CHORD_WEIGHTS
        o1, o2, o3 = KEY_WEIGHTS

        def chord(k):
            return (w1 * pitch_position(k)
                    + w2 * pitch_position(k + 1)
                    + w3 * pitch_position(k + 4))

        np.testing.assert_allclose(chord(0), [0.274, 0.726, 1.034 * H], atol=1e-12)
        expected = o1 * chord(0) + o2 * chord(1) + o3 * chord(-1)
        np.testing.assert_allclose(key_center(0), expected, atol=1e-12)

    def test_screw_motion_isometry(self):
        for k in (1, -3, 7):
            d0 = np.linalg.norm(key_center(0) - pitch_position(0))
            dk = np.linalg.norm(key_center(k) - pitch_position(k))
            assert abs(d0 - dk) < 1e-9


class TestTensileStrain:
    def test_zero_at_key_center(self):
        # Strain against the cloud's own center of effect is zero.
        assert tensile_strain(cloud_of(0), center_of_effect(cloud_of(0))) == 0.0
        assert tensile_strain(cloud_of(0), key_center(0)) > 0

    def test_tonic_strain_formula(self):
        kc = key_center(0)
        expected = np.linalg.norm(pitch_position(0) - kc)
        np.testing.assert_allclose(
            tensile_strain(cloud_of(0), kc), expected, atol=1e-12)

    def test_tritone_exceeds_fifth(self):
        kc = key_center(0)
        assert tensile_strain(cloud_of(6), kc) > tensile_strain(cloud_of(1), kc)

    @given(st.lists(st.integers(-15, 15), min_size=1, max_size=8),
           st.integers(-10, 10))
    @settings(max_examples=200)
    def test_shift_covariance(self, fifths, shift):
        base = tensile_strain(cloud_of(*fifths), key_center(0))
        moved = tensile_strain(cloud_of(*(k + shift for k in fifths)),
                               key_center(shift))
        assert abs(base - moved) < 1e-9


class TestPitchClassTable:
    def test_matches_spelling(self):
        for pc in range(12):
            np.testing.assert_allclose(PITCH_CLASS_POSITIONS[pc],
                                       pitch_position(spell(pc).fifth_index),
                                       atol=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            PITCH_CLASS_POSITIONS[0, 0] = 5.0
