"""Metric unit cases, roll hardening, and sweep/interaction report shapes."""

import concurrent.futures
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import (
    InlineHelper,
    _direction_tau,
    _level_params,
    random_roll,
    reference_decode_hardened,
    reference_interaction_grid,
    reference_pitch_distribution,
    reference_sweep,
    window,
)
from ttvae import cores, evaluation
from ttvae.errors import InvalidInputError, NumericFailureError
from ttvae.evaluation import (
    decode_hardened,
    high_ratio,
    interaction_grid,
    interaction_summary,
    pitch_accuracy,
    pitch_distribution,
    pitch_class_histogram,
    rhythm_fscore,
    roll_from_output,
    direction_sweep,
    level_sweep,
    sweep_summary,
    sweeps,
    upward_ratio,
    write_interaction_csv,
    write_ratio_chart_svg,
    write_sweep_csv,
)
from ttvae.latent import AttributeVector, level_scores
from ttvae.pianoroll import (
    BASS_ONSET_COL,
    MELODY_ONSET_COL,
    N_STEPS,
    encode_roll,
    validate_roll,
)
from ttvae.vae import DecoderOutput, ModelConfig, TensionVae
from ttvae.vae.config import MEMORY_BUDGET_BYTES
from ttvae.vae.network import sample_latent

RAMP = np.arange(64) / 63


def soft_output_from_roll(roll, onset_conf=0.9):
    melody = roll[:, :74] * 0.8 + 0.1 / 74
    bass = roll[:, 75:88] * 0.8 + 0.1 / 13
    return DecoderOutput(
        melody_pitch=melody / melody.sum(axis=1, keepdims=True),
        melody_onset=np.where(roll[:, 74] > 0, onset_conf, 1 - onset_conf),
        bass_pitch=bass / bass.sum(axis=1, keepdims=True),
        bass_onset=np.where(roll[:, 88] > 0, onset_conf, 1 - onset_conf),
        tensile=np.zeros(64),
        diameter=np.zeros(64),
    )


class TestRollFromOutput:
    def test_recovers_roll_from_soft_output(self, rng):
        roll = random_roll(rng)
        hardened = roll_from_output(soft_output_from_roll(roll))
        np.testing.assert_array_equal(hardened, roll)

    def test_exact_half_onset_is_off(self, rng):
        roll = random_roll(rng)
        out = soft_output_from_roll(roll)
        out.melody_onset[...] = 0.5
        hardened = roll_from_output(out)
        assert hardened[:, MELODY_ONSET_COL].sum() == 0

    def test_onset_on_rest_step_cleared(self):
        roll = encode_roll(*window())  # all rest
        out = soft_output_from_roll(roll)
        out.melody_onset[...] = 0.9
        out.bass_onset[...] = 0.9
        hardened = roll_from_output(out)
        validate_roll(hardened)
        assert hardened[:, MELODY_ONSET_COL].sum() == 0
        assert hardened[:, BASS_ONSET_COL].sum() == 0

    def test_batch_matches_each_example(self, rng):
        rolls = np.stack([random_roll(rng) for _ in range(4)])
        outs = [soft_output_from_roll(roll) for roll in rolls]
        out = DecoderOutput(*(np.stack([getattr(o, f) for o in outs]) for f in (
            "melody_pitch", "melody_onset", "bass_pitch", "bass_onset",
            "tensile", "diameter")))
        np.testing.assert_array_equal(roll_from_output(out), rolls)

    def test_argmax_tie_takes_lowest_index(self):
        roll = encode_roll(*window())
        out = soft_output_from_roll(roll)
        out.melody_pitch[...] = 1.0 / 74  # all ties
        hardened = roll_from_output(out)
        assert (hardened[:, 0] == 1).all()


class TestPitchAccuracy:
    def test_identical_rolls(self, rng):
        roll = random_roll(rng)
        assert pitch_accuracy(roll, roll) == (1.0, 1.0)

    def test_counting_case(self):
        a = encode_roll(*window([(60, 0, 64)], [(36, 0, 64)]))
        b = a.copy()
        # Change melody pitch on 16 of the 64 steps.
        b[0:16, 36] = 0
        b[0:16, 38] = 1
        assert pitch_accuracy(a, b) == (0.75, 1.0)

    def test_all_rest_matches(self):
        a = encode_roll(*window())
        assert pitch_accuracy(a, a.copy()) == (1.0, 1.0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            pitch_accuracy(random_roll(rng), np.zeros((2, 2)))


def roll_with_onsets(melody_steps, bass_steps=()):
    roll = encode_roll(*window([(60, 0, 64)], [(36, 0, 64)]))
    roll[:, MELODY_ONSET_COL] = 0
    roll[:, BASS_ONSET_COL] = 0
    for s in melody_steps:
        roll[s, MELODY_ONSET_COL] = 1
    for s in bass_steps:
        roll[s, BASS_ONSET_COL] = 1
    return roll


class TestRhythmFscore:
    def test_identical_onsets(self):
        a = roll_with_onsets({0, 8, 16}, {0, 32})
        assert rhythm_fscore(a, a.copy()) == (1.0, 1.0)

    def test_disjoint_onsets(self):
        a = roll_with_onsets({0, 8})
        b = roll_with_onsets({4, 12})
        assert rhythm_fscore(a, b)[0] == 0.0

    def test_hand_computed_case(self):
        a = roll_with_onsets({0, 8, 16, 24})
        b = roll_with_onsets({0, 8})
        melody_f, _ = rhythm_fscore(a, b)
        assert melody_f == pytest.approx(2 / 3)

    def test_both_empty_score_one(self):
        a = roll_with_onsets(set())
        assert rhythm_fscore(a, a.copy()) == (1.0, 1.0)

    def test_one_empty_scores_zero(self):
        a = roll_with_onsets({0})
        b = roll_with_onsets(set())
        assert rhythm_fscore(a, b)[0] == 0.0


def _set_fscore(a, b):
    ref, est = set(np.flatnonzero(a)), set(np.flatnonzero(b))
    if not ref and not est:
        return 1.0
    if not ref or not est:
        return 0.0
    hits = len(ref & est)
    precision, recall = hits / len(est), hits / len(ref)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _pair_metrics_one_by_one(original_rolls, modified_rolls):
    accuracy = np.array([pitch_accuracy(o, m)
                         for o, m in zip(original_rolls, modified_rolls)])
    fscore = np.array([rhythm_fscore(o, m)
                       for o, m in zip(original_rolls, modified_rolls)])
    return (accuracy[:, 0], accuracy[:, 1], fscore[:, 0], fscore[:, 1])


class TestBatchedPairMetrics:
    def test_stack_equals_per_pair(self, rng):
        original = np.stack([random_roll(rng) for _ in range(30)]
                            + [encode_roll(*window())] * 2)
        modified = original.copy()
        modified[:10] = np.stack([random_roll(rng) for _ in range(10)])
        modified[10:20, ::3, MELODY_ONSET_COL] ^= 1
        modified[20:25, :, BASS_ONSET_COL] = 0
        modified[-1] = random_roll(rng)
        accuracy = pitch_accuracy(original, modified)
        fscore = rhythm_fscore(original, modified)
        singles = [pitch_accuracy(o, m) + rhythm_fscore(o, m)
                   for o, m in zip(original, modified)]
        assert all(isinstance(v, float) for v in singles[0])
        for column, batched in enumerate(accuracy + fscore):
            assert batched.shape == (32,)
            assert np.array_equal(batched, [row[column] for row in singles])
        for batched, col in zip(fscore, (MELODY_ONSET_COL, BASS_ONSET_COL)):
            assert np.array_equal(batched, [_set_fscore(o[:, col], m[:, col])
                                            for o, m in zip(original, modified)])

    def test_sweep_summary_identical_to_per_pair_path(self, monkeypatch):
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=16, gru_layers=1, rng_seed=8))
        kwargs = dict(scales=(-4.0, 0.0, 4.0), n=40, rng_seed=5)
        vector = unit_vector("tensile_strain_direction")
        batched = json.dumps(sweep_summary(direction_sweep(model, vector, **kwargs)))
        monkeypatch.setattr(evaluation, "_pair_metrics", _pair_metrics_one_by_one)
        one_by_one = json.dumps(sweep_summary(direction_sweep(model, vector, **kwargs)))
        assert batched == one_by_one


class TestRatios:
    def test_pure_up_ramps(self):
        curves = np.stack([RAMP, RAMP * 2, RAMP + 1])
        assert upward_ratio(curves, 0.5) == 1.0

    def test_constant_curves_never_upward(self):
        curves = np.ones((5, 64))
        assert upward_ratio(curves, 0.0) == 0.0

    def test_half_and_half(self):
        curves = np.stack([RAMP, RAMP, RAMP[::-1], RAMP[::-1]])
        assert upward_ratio(curves, 0.5) == 0.5

    def test_counting_oracle(self, rng):
        curves = rng.uniform(0, 2, size=(50, 64))
        tau = 0.2
        from helpers import direction_score
        expected = np.mean([direction_score(c) > tau for c in curves])
        assert upward_ratio(curves, tau) == pytest.approx(expected)

    def test_high_ratio_all_high(self):
        curves = np.full((4, 64), 3.0)
        assert high_ratio(curves, 2.0, tau=7.9) == 1.0  # magnitude is 8

    def test_high_ratio_at_threshold_is_zero(self):
        curves = np.full((4, 64), 2.0)
        assert high_ratio(curves, 2.0, tau=0.0) == 0.0

    def test_high_ratio_scores_as_labeling(self, rng):
        # tau at each curve's own labeling magnitude: no curve is over it,
        # though np.linalg.norm rounds some of those distances higher
        curves = rng.uniform(0, 3, size=(400, 64))
        signs, magnitudes = level_scores(curves, 1.0)
        flags = [high_ratio(curve[None], 1.0, tau, per_example=True)[0]
                 for curve, tau in zip(curves, magnitudes)]
        assert not any(flags)
        assert (high_ratio(curves, 1.0, 0.0, per_example=True)
                == (signs > 0)).all()

    def test_high_ratio_count_oracle(self, rng):
        curves = rng.uniform(0, 3, size=(40, 64))
        c, tau = 1.4, 3.0
        expected = np.mean([(m > c) and (np.linalg.norm(cu - c) > tau)
                            for cu, m in ((cu, cu.mean()) for cu in curves)])
        assert high_ratio(curves, c, tau) == pytest.approx(expected)


class TestPitchClassHistogram:
    def test_all_c_fragment(self):
        roll = encode_roll(*window([(60, 0, 64)], [(36, 0, 64)]))
        counts = pitch_class_histogram(roll, (0, 4))
        assert counts[0] == 128  # 64 melody + 64 bass steps, all C
        assert counts[1:].sum() == 0

    def test_default_bar_range_is_back_half(self):
        roll = encode_roll(*window([(60, 0, 32), (62, 32, 32)], [(36, 0, 64)]))
        counts = pitch_class_histogram(roll)
        assert counts[2] == 32 and counts[0] == 32  # D melody + C bass only

    def test_rotation_equivariance(self, rng):
        melody = [(60 + (i % 5), 4 * i, 4) for i in range(16)]
        roll = encode_roll(*window(melody, [(38, 0, 64)]))
        shifted = window([(p + 7, onset, duration) for p, onset, duration in melody],
                         [(45, 0, 64)])
        counts = pitch_class_histogram(roll, (0, 4))
        counts_shifted = pitch_class_histogram(encode_roll(*shifted), (0, 4))
        np.testing.assert_array_equal(np.roll(counts, 7), counts_shifted)

    def test_bad_bar_range(self, rng):
        with pytest.raises(InvalidInputError):
            pitch_class_histogram(random_roll(rng), (3, 2))


def untrained_model():
    return TensionVae.initialize(
        ModelConfig(latent_dim=6, hidden=16, gru_layers=1, rng_seed=8))


def unit_vector(name, dim=6):
    values = np.zeros(dim)
    values[0] = 1.0
    return AttributeVector(name, values, (2, 2),
                           {"class_a_min_score": 0.4, "threshold": 0.5,
                            "class_a_min_magnitude": 1.0})


class TestSweep:
    def test_zero_scale_identity_metrics(self):
        model = untrained_model()
        report = direction_sweep(model, unit_vector("tensile_strain_direction"),
                                 scales=(-2.0, 0.0, 2.0), n=8, rng_seed=3)
        middle = report.rows[1]
        assert middle.scale == 0.0
        assert middle.melody_pitch_accuracy == 1.0
        assert middle.bass_pitch_accuracy == 1.0
        assert middle.melody_rhythm_fscore == 1.0
        assert middle.bass_rhythm_fscore == 1.0
        assert report.untrained_model is True

    def test_ratios_in_unit_interval(self):
        model = untrained_model()
        report = direction_sweep(model, unit_vector("cloud_diameter_direction"),
                                 scales=(-1.0, 0.0, 1.0), n=6, rng_seed=1)
        for row in report.rows:
            assert 0.0 <= row.ratio_recomputed <= 1.0
            assert 0.0 <= row.ratio_predicted <= 1.0

    def test_deterministic_given_seed(self):
        model = untrained_model()
        kwargs = dict(scales=(-1.0, 1.0), n=5, rng_seed=11)
        r1 = direction_sweep(model, unit_vector("tensile_strain_direction"), **kwargs)
        r2 = direction_sweep(model, unit_vector("tensile_strain_direction"), **kwargs)
        assert r1.ratios() == r2.ratios()
        assert [row.melody_pitch_accuracy for row in r1.rows] \
            == [row.melody_pitch_accuracy for row in r2.rows]

    def test_report_files(self, tmp_path):
        model = untrained_model()
        report = direction_sweep(model, unit_vector("tensile_strain_direction"),
                                 scales=(-1.0, 0.0, 1.0), n=4, rng_seed=2)
        csv_path = tmp_path / "sweep.csv"
        write_sweep_csv(csv_path, report)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("scale,n,ratio_recomputed")
        assert len(lines) == 4
        svg_path = tmp_path / "sweep.svg"
        write_ratio_chart_svg(svg_path, report)
        body = svg_path.read_text()
        assert body.startswith("<svg") and "polyline" in body
        write_ratio_chart_svg(tmp_path / "sweep2.svg", report)
        assert (tmp_path / "sweep2.svg").read_text() == body


class TestInteraction:
    def test_grid_shape_and_zero_row(self):
        model = untrained_model()
        va = unit_vector("tensile_strain_direction")
        vb = unit_vector("cloud_diameter_direction")
        report = interaction_grid(model, va, vb, scales=(-1.0, 0.0, 1.0),
                                  n=5, rng_seed=4)
        assert set(report.rows) == {va.name, vb.name}
        assert len(report.rows[va.name]) == 3
        # The zero-scale rows of both orderings describe the same samples.
        assert report.rows[va.name][0.0] == report.rows[vb.name][0.0]
        assert set(report.cross_effect) == {
            "tensile_strain_direction_on_diameter",
            "cloud_diameter_direction_on_tensile"}
        for cell in report.rows[va.name].values():
            assert 0.0 <= cell["tensile"] <= 1.0
            assert 0.0 <= cell["diameter"] <= 1.0

    @pytest.mark.parametrize("mode, low, high", [
        ("upward", {"class_a_min_score": -2.0}, {"class_a_min_score": 2.0}),
        ("high", {"threshold": -1e6, "class_a_min_magnitude": 0.0},
         {"threshold": 1e6, "class_a_min_magnitude": 0.0}),
    ])
    def test_thresholds_default_to_vectors(self, mode, low, high):
        # Thresholds no curve can miss (tensile) or reach (diameter) show
        # that each kind is rated with its own vector's thresholds.
        va = AttributeVector("tensile_strain_x", np.eye(6)[0], (2, 2), low)
        vb = AttributeVector("cloud_diameter_x", np.eye(6)[1], (2, 2), high)
        report = interaction_grid(untrained_model(), va, vb,
                                  scales=(-1.0, 0.0, 1.0), n=5, mode=mode)
        for name in (va.name, vb.name):
            for cell in report.rows[name].values():
                assert cell == {"tensile": 1.0, "diameter": 0.0}

    @pytest.mark.parametrize("mode", ["upward", "high"])
    def test_csv_header_names_ratio_kind(self, mode, tmp_path):
        report = interaction_grid(untrained_model(),
                                  unit_vector("tensile_strain_level"),
                                  unit_vector("cloud_diameter_level"),
                                  scales=(0.0, 1.0), n=3, mode=mode)
        assert report.ratio_kind == mode
        path = tmp_path / "grid.csv"
        write_interaction_csv(path, report)
        assert path.read_text().splitlines()[0] == (
            f"vector,scale,tensile_{mode}_ratio,diameter_{mode}_ratio")


class TestKeptNumbersBounded:
    """A sweep or an interaction grid whose per-example numbers would pass
    ``MEMORY_BUDGET_BYTES`` is refused before its first decode; one sample
    fewer starts decoding."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []

        def fail(*args):
            calls.append(1)
            raise RuntimeError("decoded")
        monkeypatch.setattr(evaluation, "decode_hardened", fail)
        return calls

    def assert_bound(self, run, per_sample, decodes):
        most = MEMORY_BUDGET_BYTES // per_sample
        with pytest.raises(InvalidInputError, match="past the budget"):
            run(most + 1)
        assert decodes == []
        with pytest.raises(RuntimeError, match="decoded"):
            run(most)
        assert decodes == [1]

    def test_sweeps(self, decodes):
        vectors = [unit_vector("tensile_strain_direction"),
                   unit_vector("cloud_diameter_direction")]
        scales = evaluation.DEFAULT_DIRECTION_SCALES
        # the default direction experiment: two vectors, nine scales, two
        # flags and four float64 metrics each, so about 1.75 M samples
        self.assert_bound(lambda n: evaluation.sweeps(
            untrained_model(), vectors, "upward", scales, n), 2 * 9 * 34, decodes)

    def test_interaction_grid(self, decodes):
        va = unit_vector("tensile_strain_direction")
        vb = unit_vector("cloud_diameter_direction")
        scales = evaluation.DEFAULT_DIRECTION_SCALES
        # two flags for the baseline and for each vector's eight edits
        self.assert_bound(lambda n: interaction_grid(
            untrained_model(), va, vb, scales, n), (1 + 2 * 8) * 2, decodes)


class TestDecodeHardened:
    def test_recomputed_curves_come_from_rolls(self, rng):
        from ttvae.tension import tension_curves
        model = untrained_model()
        rolls, pred_t, pred_d, rec_t, rec_d = decode_hardened(
            model, rng.standard_normal((3, 6)))
        validate_roll(rolls)
        assert rolls.shape == (3, N_STEPS, 89)
        # Recomputed curves come from the spiral geometry, not the heads.
        for roll, tensile, diameter in zip(rolls, rec_t, rec_d):
            strain, diam = tension_curves(roll)
            np.testing.assert_array_equal(tensile, strain)
            np.testing.assert_array_equal(diameter, diam)
        assert not np.allclose(pred_t, rec_t)

    def test_chunks_match_one_call(self, rng, monkeypatch):
        from ttvae import evaluation
        model = untrained_model()
        z = rng.standard_normal((7, 6))
        whole = decode_hardened(model, z)
        monkeypatch.setattr(evaluation, "DECODE_CHUNK", 3)
        for a, b in zip(whole, decode_hardened(model, z)):
            np.testing.assert_array_equal(a, b)


class TestTwoThreadDecode:
    """Each chunk's row halves decode on two threads, bit for bit."""

    @pytest.fixture(scope="class")
    def wide_model(self):
        # hidden 128 is where a one-row block rounds differently from the
        # same row inside a batch; the hidden-16 models cannot show it
        return TensionVae.initialize(
            ModelConfig(latent_dim=16, hidden=128, gru_layers=2, rng_seed=5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 129, 255, 256, 257, 513, 520])
    def test_equals_sequential_reference(self, wide_model, n):
        z = sample_latent(n, 16, n).astype(wide_model.dtype) * 2
        got = decode_hardened(wide_model, z)
        want = reference_decode_hardened(wide_model, z)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad_rows", ["param", "caller half", "helper half"])
    def test_numeric_failure_raised_like_reference(self, bad_rows):
        # 256 rows at hidden 64 are past the split rule, so the chunk is halved
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=64, gru_layers=2, rng_seed=2))
        z = sample_latent(300, 6, 1).astype(model.dtype)
        if bad_rows == "param":
            model.params["dec.gru0.w"][0, 0] = np.nan
        else:
            # rows 0-127 and 128-255 of the first chunk are its two halves
            z[3 if bad_rows == "caller half" else 200] = np.nan
        before = set(threading.enumerate())
        with pytest.raises(NumericFailureError) as want:
            reference_decode_hardened(model, z)
        with pytest.raises(NumericFailureError) as got:
            decode_hardened(model, z)
        assert str(got.value) == str(want.value)
        assert len(set(threading.enumerate()) - before) <= 1
        # the helper is still usable after an error
        clean = sample_latent(8, 6, 1).astype(model.dtype)
        model.params["dec.gru0.w"][0, 0] = 0.0
        for a, b in zip(decode_hardened(model, clean),
                        reference_decode_hardened(model, clean)):
            np.testing.assert_array_equal(a, b)
        assert len(set(threading.enumerate()) - before) <= 1

    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # 80 rows at hidden 128 are past the split rule, so each call halves
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=128, gru_layers=2, rng_seed=4))
        z = sample_latent(80, 6, 9).astype(model.dtype)
        want = reference_decode_hardened(model, z)
        started = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        # start with no helper, so that the callers race to start it
        if cores._pool is not None:
            cores._pool.shutdown()
            cores._pool = None
        before = set(threading.enumerate())
        results = [None] * 6
        together = threading.Barrier(6)

        def call(i):
            together.wait(timeout=60)
            results[i] = decode_hardened(model, z)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(started) == 1
        for got in results:
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert len(set(threading.enumerate()) - before) <= 1


def reference_model():
    return TensionVae.initialize(
        ModelConfig(latent_dim=6, hidden=16, gru_layers=2, rng_seed=8))


def skewed_vector(name, axis):
    values = np.zeros(6)
    values[axis], values[(axis + 1) % 6] = 1.0, -0.5
    return AttributeVector(name, values, (2, 2),
                           {"class_a_min_score": 0.1, "threshold": 0.8,
                            "class_a_min_magnitude": 1.0})


# 256 is DECODE_CHUNK: one sample, a partial chunk, one full chunk, one full
# chunk and a one-sample chunk, and the eval-sweep size
SIZES = [1, 255, 256, 257, 520]
SCALE_LISTS = {"zero and negative": (-4.0, 0.0, 4.0), "no zero": (2.0, 5.0),
               "repeated": (3.0, 0.0, 3.0, 0.0), "negative": (-6.0, -1.0)}


def reference_sweep_summary(model, vector, ratio_kind, scales, n, seed):
    if ratio_kind == "upward":
        tau = _direction_tau(vector)
        ratio_fn, thresholds = (lambda curves: upward_ratio(curves, tau),
                                {"tau_direction": tau})
    else:
        threshold, tau = _level_params(vector)
        ratio_fn, thresholds = (lambda curves: high_ratio(curves, threshold, tau),
                                {"threshold": threshold, "tau_level": tau})
    return sweep_summary(reference_sweep(model, vector, scales, n, seed, ratio_fn,
                                         ratio_kind, thresholds,
                                         untrained=True))


class TestStreamedEqualsReference:
    """The streamed loop reports exactly what the whole-sample loops did."""

    @pytest.mark.parametrize("scales", SCALE_LISTS.values(), ids=SCALE_LISTS.keys())
    @pytest.mark.parametrize("n", SIZES)
    def test_direction_sweeps(self, n, scales):
        model = reference_model()
        vectors = [skewed_vector("tensile_strain_direction", 0),
                   skewed_vector("cloud_diameter_direction", 2)]
        reports = sweeps(model, vectors, "upward", scales, n, rng_seed=3)
        for vector, report in zip(vectors, reports):
            expected = reference_sweep_summary(model, vector, "upward", scales,
                                               n, 3)
            assert sweep_summary(report) == expected
        assert sweep_summary(direction_sweep(model, vectors[1], scales, n, 3)) \
            == sweep_summary(reports[1])

    @pytest.mark.parametrize("n", SIZES)
    def test_level_sweeps(self, n):
        model = reference_model()
        scales = SCALE_LISTS["zero and negative"]
        vectors = [skewed_vector("tensile_strain_level", 1),
                   skewed_vector("cloud_diameter_level", 3)]
        reports = sweeps(model, vectors, "high", scales, n, rng_seed=4)
        for vector, report in zip(vectors, reports):
            expected = reference_sweep_summary(model, vector, "high", scales, n, 4)
            assert sweep_summary(report) == expected
            assert sweep_summary(level_sweep(model, vector, scales, n, 4)) == expected

    @pytest.mark.parametrize("mode", ["upward", "high"])
    @pytest.mark.parametrize("n, scales, curves", [
        pytest.param(n, scales, "both", id=f"{n}-scales{i}")
        for i, (n, scales) in enumerate(
            [(n, SCALE_LISTS["zero and negative"]) for n in SIZES]
            + [(257, scales) for name, scales in SCALE_LISTS.items()
               if name != "zero and negative"])]
        + [pytest.param(257, SCALE_LISTS["zero and negative"], "tensile only",
                        id="257-same-curve")])
    def test_interaction_grid(self, n, scales, curves, mode):
        model = reference_model()
        if curves == "both":
            vectors = (skewed_vector("tensile_strain_direction", 0),
                       skewed_vector("cloud_diameter_direction", 2))
        else:
            # Neither vector measures diameter, which is rated at zero
            # thresholds; tensile is rated at the second vector's.
            vectors = (skewed_vector("tensile_strain_direction", 0),
                       skewed_vector("tensile_strain_level", 2))
            vectors[1].effective_thresholds = {
                "class_a_min_score": -0.2, "threshold": 0.6,
                "class_a_min_magnitude": 0.5}
        streamed = interaction_grid(model, *vectors, scales, n, 5, mode=mode)
        expected = reference_interaction_grid(model, *vectors, scales, n, 5,
                                              mode=mode)
        assert interaction_summary(streamed) == interaction_summary(expected)

    @pytest.mark.parametrize("n, scale", [(n, 4.0) for n in SIZES]
                             + [(257, 0.0), (257, -6.0)])
    def test_pitch_distribution(self, n, scale):
        model = reference_model()
        vector = skewed_vector("tensile_strain_direction", 0)
        streamed = pitch_distribution(model, vector, scale, n, 6)
        expected = reference_pitch_distribution(model, vector, scale, n, 6)
        for got, want in zip(streamed, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_unknown_ratio_kind(self):
        with pytest.raises(InvalidInputError):
            sweeps(reference_model(), [], "sideways", (1.0,), 4)


class TestStreamedMemory:
    def test_sweep_peak_does_not_grow_with_n(self, monkeypatch):
        # The helper's half runs inline: whether the two halves' peaks
        # overlap would otherwise depend on thread timing, with more chances
        # to at larger n.
        monkeypatch.setattr(cores, "helper", InlineHelper)
        model = TensionVae.initialize(
            ModelConfig(latent_dim=6, hidden=16, gru_layers=1, rng_seed=2))
        vector = skewed_vector("tensile_strain_direction", 0)
        direction_sweep(model, vector, (0.0, 4.0), n=4, rng_seed=1)
        peaks = []
        for n in (256, 2048):
            tracemalloc.start()
            try:
                direction_sweep(model, vector, (0.0, 4.0), n=n, rng_seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # keeping every scale's roll stack grows by about 23 MiB here
        assert peaks[1] - peaks[0] < 2**20

    def test_latents_are_drawn_a_chunk_at_a_time(self, monkeypatch):
        # A wide latent and a tiny decoder: drawing all n latents at once
        # (float64, then a float32 copy) holds 2048 * 512 * 12 bytes, 12 MiB,
        # about twice the peak of the whole run at n = 256.
        monkeypatch.setattr(cores, "helper", InlineHelper)
        model = TensionVae.initialize(
            ModelConfig(latent_dim=512, hidden=4, gru_layers=1, rng_seed=2))
        vector = AttributeVector("tensile_strain_direction", np.zeros(512), (2, 2))
        pitch_distribution(model, vector, 0.0, 4, 1)
        peaks = []
        for n in (256, 2048):
            tracemalloc.start()
            try:
                pitch_distribution(model, vector, 0.0, n, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20
