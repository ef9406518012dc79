"""Tension labeling scores, class selection, and attribute-vector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    make_dataset,
    random_roll,
    reference_select_classes,
    reference_shape_score,
    reference_upward_ratio,
)
from ttvae.evaluation import upward_ratio
from ttvae.errors import InvalidInputError, MissingFragmentError
from ttvae.latent import (
    RAMP_TEMPLATE,
    AttributeVector,
    ShapeTemplate,
    apply_vector,
    attribute_vector,
    build_vectors,
    direction_score,
    level_score,
    load_vectors,
    save_vectors,
    select_classes,
    shape_score,
    shape_scores,
    triangle_template,
)
from ttvae.vae import ModelConfig, TensionVae

RAMP = np.arange(64) / 63


class TestDirectionScore:
    def test_ramp_scores_one(self):
        assert direction_score(RAMP) == pytest.approx(1.0)

    def test_reversed_ramp_scores_minus_one(self):
        assert direction_score(RAMP[::-1]) == pytest.approx(-1.0)

    def test_constant_scores_zero(self):
        assert direction_score(np.full(64, 2.5)) == 0.0

    @given(st.floats(0.01, 50), st.floats(-10, 10))
    @settings(max_examples=100)
    def test_positive_affine_invariance(self, a, b):
        curve = np.sin(np.arange(64) / 5.0) + RAMP
        assert direction_score(a * curve + b) == pytest.approx(
            direction_score(curve), abs=1e-9)

    @given(st.floats(0.01, 50))
    def test_negation_flips_sign(self, a):
        curve = np.sin(np.arange(64) / 5.0) + RAMP
        assert direction_score(-a * curve) == pytest.approx(
            -direction_score(curve), abs=1e-9)


def curve_sets(rng):
    """Named (n, 64) curve sets: normal and float32 values, quantized and
    constant rows, and small cumulative sums."""
    return {
        "normal": rng.normal(size=(5000, 64)),
        "float32": rng.uniform(0, 3, size=(5000, 64)).astype(np.float32),
        "quantized": np.round(rng.uniform(0, 2, size=(2000, 64)) * 8) / 8,
        "constant": np.repeat(rng.uniform(-2, 2, size=(50, 1)), 64, axis=1),
        "cumulative": np.cumsum(rng.normal(0, 1e-3, size=(2000, 64)), axis=1),
    }


class TestBatchedScoresEqualPerCurve:
    """``shape_scores`` against the per-curve scores it replaced, bit for bit."""

    @pytest.mark.parametrize("template", [RAMP_TEMPLATE, triangle_template(20),
                                          ShapeTemplate("wave", np.sin(np.arange(64)))])
    def test_curve_sets(self, rng, template):
        for name, curves in curve_sets(rng).items():
            expected = [reference_shape_score(c, template) for c in curves]
            assert shape_scores(curves, template).tolist() == expected, name
            assert [shape_score(c, template) for c in curves[:50]] \
                == expected[:50], name

    def test_direction_score_is_the_ramp_score(self, rng):
        for curves in curve_sets(rng).values():
            assert [direction_score(c) for c in curves[:200]] == [
                reference_shape_score(c, RAMP_TEMPLATE) for c in curves[:200]]

    def test_upward_ratio(self, rng):
        for curves in curve_sets(rng).values():
            for tau in (-0.5, 0.0, 0.3):
                assert upward_ratio(curves, tau) \
                    == reference_upward_ratio(curves, tau)

    @pytest.mark.parametrize("kind", ["tensile_strain_direction",
                                      "cloud_diameter_direction", "shape:wave"])
    def test_select_classes(self, rng, kind):
        template = ShapeTemplate("wave", np.sin(np.arange(64) / 3))
        for curves in curve_sets(rng).values():
            for target_n in (1, 7, 10_000):
                assert select_classes(curves, kind, target_n, template=template) \
                    == reference_select_classes(curves, kind, target_n,
                                                template=template)

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            shape_scores(np.zeros((3, 63)), RAMP_TEMPLATE)
        with pytest.raises(InvalidInputError):
            shape_scores(np.zeros(64), RAMP_TEMPLATE)


class TestLevelScore:
    def test_exact_threshold_ties_low(self):
        sign, mag = level_score(np.full(64, 1.5), 1.5)
        assert (sign, mag) == (-1, 0.0)

    def test_one_above(self):
        sign, mag = level_score(np.full(64, 2.5), 1.5)
        assert sign == 1
        assert mag == pytest.approx(8.0)

    def test_two_below(self):
        sign, mag = level_score(np.full(64, -0.5), 1.5)
        assert sign == -1
        assert mag == pytest.approx(16.0)

    def test_translation_covariance(self, rng):
        curve = rng.uniform(0, 2, 64)
        c = 1.0
        for d in (-3.0, 0.5, 2.0):
            sign, _ = level_score(curve + d, c)
            assert sign == (1 if curve.mean() + d > c else -1)


class TestShapeScore:
    def test_template_matches_itself(self):
        template = triangle_template()
        assert shape_score(template.values, template) == pytest.approx(1.0)

    def test_negated_about_mean_scores_minus_one(self):
        template = triangle_template()
        flipped = 2 * template.values.mean() - template.values
        assert shape_score(flipped, template) == pytest.approx(-1.0)

    def test_ramp_template_equals_direction_score(self, rng):
        ramp_template = ShapeTemplate("ramp", RAMP.copy())
        for _ in range(20):
            curve = rng.uniform(0, 3, 64)
            assert shape_score(curve, ramp_template) == pytest.approx(
                direction_score(curve), abs=1e-12)

    def test_constant_template_rejected(self):
        with pytest.raises(InvalidInputError):
            ShapeTemplate("flat", np.ones(64))

    def test_triangle_peaks_at_requested_step(self):
        template = triangle_template(32)
        assert template.values.argmax() == 32
        assert template.values[32] == 1.0


def ramp_curves(n_up, n_down, noise=0.0, rng=None):
    curves = []
    for i in range(n_up):
        curves.append(RAMP * (1 + 0.1 * i))
    for i in range(n_down):
        curves.append(RAMP[::-1] * (1 + 0.1 * i))
    curves = np.array(curves)
    if noise and rng is not None:
        curves = curves + rng.normal(0, noise, curves.shape)
    return curves


class TestSelectClasses:
    def test_separates_pure_ramps(self):
        curves = ramp_curves(6, 6)
        sel = select_classes(curves, "tensile_strain_direction", target_n=6)
        assert sel.class_a == list(range(6))
        assert sel.class_b == list(range(6, 12))

    def test_small_population_warns(self):
        curves = ramp_curves(3, 3)
        sel = select_classes(curves, "tensile_strain_direction", target_n=10)
        assert sel.warnings
        assert len(sel.class_a) == len(sel.class_b) == 3

    def test_matches_sort_oracle(self, rng):
        curves = rng.uniform(0, 2, size=(40, 64))
        sel = select_classes(curves, "cloud_diameter_direction", target_n=10)
        scores = [direction_score(c) for c in curves]
        order = sorted(range(40), key=lambda i: (-scores[i], i))
        assert sel.class_a == sorted(order[:10])
        order_low = sorted(range(40), key=lambda i: (scores[i], i))
        assert sel.class_b == sorted(order_low[:10])

    def test_level_classes_split_by_sign(self):
        curves = np.concatenate([np.full((5, 64), 3.0), np.full((5, 64), 1.0)])
        sel = select_classes(curves, "tensile_strain_level", target_n=5)
        assert sel.class_a == list(range(5))
        assert sel.class_b == list(range(5, 10))
        assert sel.effective_thresholds["threshold"] == pytest.approx(2.0)

    def test_input_order_invariance(self, rng):
        curves = rng.uniform(0, 2, size=(30, 64))
        sel1 = select_classes(curves, "tensile_strain_direction", target_n=8)
        perm = rng.permutation(30)
        sel2 = select_classes(curves[perm], "tensile_strain_direction", target_n=8)
        assert {int(perm[i]) for i in sel2.class_a} == set(sel1.class_a)

    def test_direction_is_ramp_shape(self, rng):
        curves = rng.uniform(0, 2, size=(20, 64))
        direction = select_classes(curves, "tensile_strain_direction", target_n=5)
        shape = select_classes(curves, "shape:ramp", target_n=5,
                               template=RAMP_TEMPLATE)
        assert (direction.class_a, direction.class_b,
                direction.effective_thresholds, direction.warnings) \
            == (shape.class_a, shape.class_b, shape.effective_thresholds,
                shape.warnings)

    def test_single_fragment_cannot_form_classes(self):
        with pytest.raises(InvalidInputError):
            select_classes(ramp_curves(1, 0), "tensile_strain_direction",
                           target_n=1)

    def test_shape_kind_needs_template(self):
        with pytest.raises(InvalidInputError):
            select_classes(ramp_curves(4, 4), "shape:triangle", target_n=2)

    def test_shape_selection(self):
        template = triangle_template()
        tri = template.values
        anti = 2 * tri.mean() - tri
        curves = np.array([tri, tri * 2, anti, anti * 3])
        sel = select_classes(curves, "shape:triangle", target_n=2,
                             template=template)
        assert sel.class_a == [0, 1]
        assert sel.class_b == [2, 3]


def tiny_dataset(rng, n=12):
    rolls, tensile, diameter = [], [], []
    for i in range(n):
        shape = RAMP if i % 2 == 0 else RAMP[::-1]
        rolls.append(random_roll(rng))
        tensile.append(shape + 0.05 * i)  # vary the level too
        diameter.append(rng.uniform(0, 2, 64))
    return make_dataset(rolls, tensile, diameter,
                        source_ids=[f"f{i}" for i in range(n)])


def tiny_model():
    return TensionVae.initialize(
        ModelConfig(latent_dim=6, hidden=8, gru_layers=1, rng_seed=5))


class TestAttributeVector:
    def test_identical_classes_give_zero(self, rng):
        ds = tiny_dataset(rng)
        model = tiny_model()
        v = attribute_vector(model, ds, [0, 1, 2], [0, 1, 2], "x")
        np.testing.assert_allclose(v.values, 0.0, atol=1e-7)

    def test_singleton_difference(self, rng):
        ds = tiny_dataset(rng)
        model = tiny_model()
        v = attribute_vector(model, ds, [3], [7], "x")
        mu_a = model.encode(ds.fragments[3].roll).mu
        mu_b = model.encode(ds.fragments[7].roll).mu
        np.testing.assert_allclose(v.values, mu_a - mu_b, atol=1e-7)

    def test_antisymmetry(self, rng):
        ds = tiny_dataset(rng)
        model = tiny_model()
        v_ab = attribute_vector(model, ds, [0, 2, 4], [1, 3, 5], "x")
        v_ba = attribute_vector(model, ds, [1, 3, 5], [0, 2, 4], "x")
        np.testing.assert_allclose(v_ab.values, -v_ba.values, atol=0)

    def test_missing_id_rejected(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(MissingFragmentError):
            attribute_vector(tiny_model(), ds, [0], [99], "x")

    def test_empty_class_rejected(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(InvalidInputError):
            attribute_vector(tiny_model(), ds, [], [1], "x")


class TestApplyVector:
    def vector(self):
        return AttributeVector("v", np.arange(6, dtype=float), (1, 1))

    def test_zero_scale_identity(self, rng):
        z = rng.standard_normal(6)
        np.testing.assert_array_equal(apply_vector(z, self.vector(), 0.0), z)

    def test_additive_composition(self, rng):
        z = rng.standard_normal(6)
        v = self.vector()
        once = apply_vector(apply_vector(z, v, 2.0), v, 3.0)
        np.testing.assert_allclose(once, apply_vector(z, v, 5.0), atol=1e-12)

    def test_inverse_cancels(self, rng):
        z = rng.standard_normal(6)
        v = self.vector()
        np.testing.assert_allclose(
            apply_vector(apply_vector(z, v, 6.0), v, -6.0), z, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            apply_vector(rng.standard_normal(4), self.vector(), 1.0)


class TestBuildAndSaveVectors:
    def test_round_trip(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        model = tiny_model()
        vf = build_vectors(model, ds, kinds=["tensile_strain_direction"],
                           target_n=4, checkpoint_id="abc123")
        v = vf.vectors["tensile_strain_direction"]
        assert v.class_sizes == (4, 4)
        path = tmp_path / "vectors.json"
        save_vectors(path, vf)
        loaded = load_vectors(path)
        assert loaded.checkpoint_id == "abc123"
        assert loaded.latent_dim == 6
        np.testing.assert_allclose(
            loaded.vectors["tensile_strain_direction"].values, v.values,
            atol=1e-12)

    def test_direction_vector_points_up(self, rng):
        # Class A holds the rising fragments by construction.
        ds = tiny_dataset(rng)
        model = tiny_model()
        vf = build_vectors(model, ds, kinds=["tensile_strain_direction"],
                           target_n=4)
        sel = select_classes(ds.tensile, "tensile_strain_direction",
                             target_n=4)
        assert all(i % 2 == 0 for i in sel.class_a)
        assert all(i % 2 == 1 for i in sel.class_b)

    def test_save_is_deterministic(self, rng, tmp_path):
        ds = tiny_dataset(rng)
        model = tiny_model()
        vf = build_vectors(model, ds, target_n=3)
        save_vectors(tmp_path / "a.json", vf)
        save_vectors(tmp_path / "b.json", vf)
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_unknown_vector_lookup(self, rng):
        ds = tiny_dataset(rng)
        vf = build_vectors(tiny_model(), ds, kinds=["tensile_strain_level"],
                           target_n=3)
        with pytest.raises(InvalidInputError):
            vf.get("nope")
