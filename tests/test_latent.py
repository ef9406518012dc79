"""Tension labeling scores, class selection, and attribute-vector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    direction_score,
    level_score,
    make_dataset,
    random_roll,
    reference_attribute_vector,
    reference_build_vectors,
    reference_level_score,
    reference_select_classes,
    reference_shape_score,
    reference_top_ids,
    reference_upward_ratio,
    shape_score,
)
from ttvae.evaluation import upward_ratio
from ttvae.errors import InvalidInputError, MissingFragmentError
from ttvae.latent import (
    RAMP_TEMPLATE,
    STANDARD_KINDS,
    AttributeVector,
    ShapeTemplate,
    apply_vector,
    _top_ids,
    attribute_vector,
    build_vectors,
    class_means,
    level_scores,
    load_vectors,
    measured_curve,
    save_vectors,
    select_classes,
    shape_scores,
    triangle_template,
)
from ttvae.vae import ModelConfig, TensionVae, network
from ttvae.vae.network import ENCODE_BLOCK

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
                                      "cloud_diameter_direction", "shape:wave",
                                      "tensile_strain_level",
                                      "cloud_diameter_level"])
    def test_select_classes(self, rng, kind):
        template = ShapeTemplate("wave", np.sin(np.arange(64) / 3))
        for curves in curve_sets(rng).values():
            for target_n in (1, 7, 10_000):
                assert select_classes(curves, kind, target_n, template=template) \
                    == reference_select_classes(curves, kind, target_n,
                                                template=template)

    def test_level_scores(self, rng):
        sets = list(curve_sets(rng).values()) + [
            rng.normal(rng.uniform(-3, 3), rng.uniform(0.01, 5),
                       size=(int(rng.integers(1, 3000)), 64))
            for _ in range(20)]
        for curves in sets:
            for threshold in (float(curves.mean()), 0.0, 1.25):
                signs, magnitudes = level_scores(curves, threshold)
                expected = [reference_level_score(c, threshold) for c in curves]
                assert list(zip(signs.tolist(), magnitudes.tolist())) == expected
                assert [level_score(c, threshold) for c in curves[:50]] \
                    == expected[:50]

    def test_level_classes_at_a_given_threshold(self, rng):
        for curves in curve_sets(rng).values():
            for threshold in (0.0, 1.0):
                try:
                    expected = reference_select_classes(
                        curves, "tensile_strain_level", 40, threshold=threshold)
                except InvalidInputError:
                    with pytest.raises(InvalidInputError):
                        select_classes(curves, "tensile_strain_level", 40,
                                       threshold=threshold)
                    continue
                assert select_classes(curves, "tensile_strain_level", 40,
                                      threshold=threshold) == expected

    def test_top_ids_breaks_ties_by_id(self):
        scores = np.array([0.5, 0.9, 0.5, -0.1, 0.9, 0.5, 0.0, 0.5])
        ids = np.array([7, 3, 1, 0, 9, 4, 2, 5])
        for n in range(len(ids) + 1):
            expected = reference_top_ids(list(zip(scores.tolist(), ids.tolist())), n)
            assert _top_ids(scores, ids, n).tolist() == expected
        assert _top_ids(scores, ids, 6).tolist() == [3, 9, 1, 4, 5, 7]
        assert _top_ids(np.zeros(5), np.arange(5)[::-1], 3).tolist() == [0, 1, 2]

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

    @pytest.mark.parametrize("peak", [0, 63])
    def test_triangle_peaks_at_either_end(self, peak):
        assert triangle_template(peak).values[peak] == 1.0

    @pytest.mark.parametrize("peak", [-5, -1, 64, 1000, 10**400])
    def test_triangle_peak_outside_the_window_rejected(self, peak):
        with pytest.raises(InvalidInputError, match="peak step must be in 0..63"):
            triangle_template(peak)


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
        mu_a, mu_b = model.encode(ds.rolls[[3, 7]]).mu
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


def vector_bytes(vectors_file):
    """Everything a vectors file records, values as raw bytes."""
    return [(name, v.name, v.values.dtype, v.values.tobytes(), v.class_sizes,
             v.effective_thresholds)
            for name, v in sorted(vectors_file.vectors.items())]


@pytest.fixture(scope="module")
def wide_dataset():
    """600 fragments of random rolls and curves: enough for two classes of
    258 on each labeling kind."""
    rng = np.random.default_rng(12)
    n = 600
    return make_dataset(rng.integers(0, 2, size=(n, 64, 89)),
                        rng.normal(1.0, 0.5, size=(n, 64)),
                        rng.normal(2.0, 0.5, size=(n, 64)))


# The latent width of each hidden size: that of ``tiny_model``, of the toy
# chain in ``scripts/artifact_digests.py`` and of the acceptance config.
LATENT_OF_HIDDEN = {8: 6, 24: 8, 128: 16}


def encoder(hidden, gru_layers=1):
    return TensionVae.initialize(ModelConfig(
        latent_dim=LATENT_OF_HIDDEN[hidden], hidden=hidden,
        gru_layers=gru_layers, rng_seed=hidden))


class TestClassMeansEqualPerClass:
    """``build_vectors`` and ``attribute_vector`` against the per-class
    encodes they replaced, bit for bit: values, class sizes, thresholds."""

    @pytest.mark.parametrize("hidden", [8, 24])
    @pytest.mark.parametrize("size", [1, 2, 255, 256, 257, 258])
    def test_class_sizes(self, wide_dataset, hidden, size):
        model = encoder(hidden)
        built = build_vectors(model, wide_dataset, target_n=size)
        assert {v.class_sizes for v in built.vectors.values()} == {(size, size)}
        assert vector_bytes(built) == vector_bytes(
            reference_build_vectors(model, wide_dataset, target_n=size))

    @pytest.mark.parametrize("size", [2, 257])
    def test_hidden_128(self, wide_dataset, size):
        model = encoder(128)
        assert vector_bytes(build_vectors(model, wide_dataset, target_n=size)) \
            == vector_bytes(reference_build_vectors(model, wide_dataset,
                                                    target_n=size))

    def test_two_layers(self, wide_dataset):
        model = encoder(24, gru_layers=2)
        assert vector_bytes(build_vectors(model, wide_dataset, target_n=100)) \
            == vector_bytes(reference_build_vectors(model, wide_dataset,
                                                    target_n=100))

    @pytest.mark.parametrize("classes", [
        "disjoint", "overlapping", "identical", "nested", "lone and 257",
        "repeated id", "repeated lone id", "repeated id filling a block"])
    @pytest.mark.parametrize("hidden", [8, 24, 128])
    def test_attribute_vector(self, wide_dataset, classes, hidden):
        class_a, class_b = {
            "disjoint": (list(range(0, 258)), list(range(300, 555))),
            "overlapping": (list(range(0, 300)), list(range(150, 450))),
            "identical": (list(range(40, 297)), list(range(40, 297))),
            "nested": (list(range(100, 613 - 100, 2)), list(range(150, 200))),
            "lone and 257": ([599], list(range(599, 342, -1))),
            "repeated id": ([5, 5], [5, 6, 6, 6]),
            "repeated lone id": ([5, 5], [5]),
            "repeated id filling a block": ([5] * 9, [6] * 8 + [7]),
        }[classes]
        model = encoder(hidden)
        got = attribute_vector(model, wide_dataset, class_a, class_b, "v")
        want = reference_attribute_vector(model, wide_dataset, class_a,
                                          class_b, "v")
        assert (got.values.tobytes(), got.class_sizes) \
            == (want.values.tobytes(), want.class_sizes)

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_restricted_ids(self, wide_dataset, order):
        rng = np.random.default_rng(3)
        ids = np.sort(rng.choice(600, size=530, replace=False))
        if order == "shuffled":
            ids = rng.permutation(ids)
        model = encoder(24)
        for target_n in (1, 257, 1000):
            assert vector_bytes(build_vectors(
                model, wide_dataset, target_n=target_n,
                restrict_ids=ids.tolist())) == vector_bytes(
                reference_build_vectors(model, wide_dataset, target_n=target_n,
                                        restrict_ids=ids.tolist()))

    def test_shape_templates(self, wide_dataset):
        templates = {"shape:triangle": triangle_template(20),
                     "shape:wave": ShapeTemplate("wave", np.sin(np.arange(64) / 4))}
        kinds = list(templates) + ["tensile_strain_level"]
        model = encoder(8)
        for target_n in (2, 257):
            assert vector_bytes(build_vectors(
                model, wide_dataset, kinds=kinds, target_n=target_n,
                restrict_ids=list(range(550)), templates=templates,
                checkpoint_id="c")) == vector_bytes(reference_build_vectors(
                    model, wide_dataset, kinds=kinds, target_n=target_n,
                    restrict_ids=list(range(550)), templates=templates,
                    checkpoint_id="c"))


class TestEncodeOnce:
    """Every encoder call of the class means has exactly ``ENCODE_BLOCK`` =
    64 rows; the sorted union of the class ids fills them once, and the last
    block is padded with ids of the union."""

    def encoded_rows(self, monkeypatch, model, dataset):
        row_id = {roll.tobytes(): i for i, roll in enumerate(dataset.rolls)}
        calls = []
        encoder_forward = network.encoder_forward

        def counting(params, cfg, x, **kwargs):
            calls.append([row_id[roll.astype(np.uint8).tobytes()] for roll in x])
            return encoder_forward(params, cfg, x, **kwargs)

        monkeypatch.setattr(network, "encoder_forward", counting)
        return calls

    @staticmethod
    def assert_blocks(calls, union):
        rows = [i for ids in calls for i in ids]
        assert ENCODE_BLOCK == 64
        assert all(len(ids) == ENCODE_BLOCK for ids in calls)
        assert len(calls) == -(-len(union) // ENCODE_BLOCK)
        assert rows[:len(union)] == union
        assert set(rows[len(union):]) <= set(union)

    @pytest.mark.parametrize("target_n", [5, 32, 256, 257, 263])
    def test_each_fragment_once(self, monkeypatch, wide_dataset, target_n):
        model = encoder(8)
        calls = self.encoded_rows(monkeypatch, model, wide_dataset)
        build_vectors(model, wide_dataset, target_n=target_n)
        union = set()
        for kind in STANDARD_KINDS:
            curves = getattr(wide_dataset, measured_curve(kind))
            selection = select_classes(curves, kind, target_n)
            union.update(selection.class_a + selection.class_b)
        self.assert_blocks(calls, sorted(union))

    def test_one_call_for_a_small_training_split(self, monkeypatch, wide_dataset):
        model = encoder(8)
        calls = self.encoded_rows(monkeypatch, model, wide_dataset)
        build_vectors(model, wide_dataset, target_n=1000,
                      restrict_ids=list(range(64)))
        self.assert_blocks(calls, list(range(64)))


@pytest.fixture(scope="module")
def fragments_300():
    rng = np.random.default_rng(31)
    n = 300
    return make_dataset(rng.integers(0, 2, size=(n, 64, 89)),
                        rng.normal(1.0, 0.5, size=(n, 64)),
                        rng.normal(2.0, 0.5, size=(n, 64)))


class TestClassMeansInvariant:
    """A class's mean is a function of the class alone: the same bytes
    whatever other classes are requested with it and in whatever order.
    The (hidden, latent) widths include 6, 20 and 24, where this BLAS rounds
    a row of the head matmul by the block that holds it; at target 40 and
    100 one kind's union and all four kinds' unions differ in size."""

    @pytest.fixture(scope="class", params=[(128, 6), (256, 20), (256, 24),
                                           (24, 8)], ids=str)
    def model(self, request):
        hidden, latent_dim = request.param
        return TensionVae.initialize(ModelConfig(
            latent_dim=latent_dim, hidden=hidden, gru_layers=1, rng_seed=7))

    @pytest.mark.parametrize("target_n", [40, 100])
    def test_other_classes_move_no_mean(self, model, fragments_300, target_n):
        classes = []
        for kind in STANDARD_KINDS:
            curves = getattr(fragments_300, measured_curve(kind))
            selection = select_classes(curves, kind, target_n)
            classes += [selection.class_a, selection.class_b]
        together = class_means(model, fragments_300, classes)
        order = np.random.default_rng(target_n).permutation(len(classes))
        shuffled = class_means(model, fragments_300,
                               [classes[i] for i in order])
        for i, ids in enumerate(classes):
            (alone,) = class_means(model, fragments_300, [ids])
            assert alone.tobytes() == together[i].tobytes()
        assert [shuffled[np.flatnonzero(order == i)[0]].tobytes()
                for i in range(len(classes))] == [m.tobytes() for m in together]

    @pytest.mark.parametrize("target_n", [40, 100])
    def test_one_kind_as_with_all(self, model, fragments_300, target_n):
        every = build_vectors(model, fragments_300, target_n=target_n)
        for kind in STANDARD_KINDS:
            one = build_vectors(model, fragments_300, kinds=[kind],
                                target_n=target_n)
            assert vector_bytes(one) == [
                entry for entry in vector_bytes(every) if entry[0] == kind]
