"""Acceptance criteria, one test per criterion, one PASS line each.

Criteria 7, 8, 9, and 12 share two complete pipeline runs (preprocess ->
train -> vectors -> generate -> eval) executed through the CLI on the
bundled synthetic corpus; run with ``-s`` to see the per-criterion lines.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from helpers import brute_force_tension, make_dataset, random_roll, random_window
from toy import write_toy_corpus
from ttvae.cli import main
from ttvae.corpus import load_dataset
from ttvae.evaluation import (
    direction_sweep,
    pitch_accuracy,
    rhythm_fscore,
    upward_ratio,
)
from ttvae.latent import attribute_vector, load_vectors, select_classes
from ttvae.pianoroll import decode_roll, encode_roll
from ttvae.spiral import (
    Cloud,
    SpelledPitch,
    cloud_diameter,
    key_center,
    pitch_position,
    tensile_strain,
)
from ttvae.tension import tension_curves
from ttvae.vae import (
    DecoderOutput,
    ModelConfig,
    TensionVae,
    beta_schedule,
    evaluate_batch,
    gradient_check,
    load_checkpoint,
    loss,
)
from ttvae.vae.training import LEDGER_COLUMNS

# Slow KL ramp to a strong ceiling: the model memorizes the corpus early
# (criterion 7) and then compresses the latent space enough that scaled
# vector edits stay in well-behaved territory (criterion 9).
TOY_TRAIN_CONFIG = {
    "latent_dim": 16, "hidden": 128, "gru_layers": 2, "batch_size": 4,
    "learning_rate": 0.001, "beta_max": 0.1, "beta_step": 2e-4,
    "split": [0.8, 0.1, 0.1], "early_stop_patience": 200, "max_epochs": 200,
    "rng_seed": 19,
}
SWEEP_SCALES = (-8.0, -4.0, 0.0, 4.0, 8.0)
SWEEP_N = 500
SWEEP_SEED = 7
SWEEP_TAU = 0.25   # curves correlating >0.25 with the unit ramp count as upward
GENERATE_SEED = 3


def report(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] PASS  {detail}")


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """Two identical end-to-end pipeline runs driven through the CLI."""
    corpus = tmp_path_factory.mktemp("acceptance_corpus")
    write_toy_corpus(corpus)
    runs = []
    for label in ("first", "second"):
        root = tmp_path_factory.mktemp(f"acceptance_{label}")
        config = root / "config.json"
        config.write_text(json.dumps(TOY_TRAIN_CONFIG))
        dataset = root / "toy.ds"
        assert main(["preprocess", "--in", str(corpus),
                     "--out", str(dataset)]) == 0
        model_dir = root / "model"
        assert main(["train", "--dataset", str(dataset),
                     "--out", str(model_dir), "--config", str(config)]) == 0
        vectors = root / "vectors.json"
        assert main(["vectors", "--model", str(model_dir / "checkpoint.ttv"),
                     "--dataset", str(dataset), "--target-n", "8",
                     "--out", str(vectors)]) == 0
        midi = root / "generated.mid"
        assert main(["generate", "--model", str(model_dir / "checkpoint.ttv"),
                     "--vectors", str(vectors),
                     "--edit", "tensile_strain_direction=6",
                     "--rng-seed", str(GENERATE_SEED), "--out", str(midi)]) == 0
        reports = root / "reports"
        assert main(["eval", "--model", str(model_dir / "checkpoint.ttv"),
                     "--vectors", str(vectors), "--experiment", "direction",
                     "--n", str(SWEEP_N), "--scales=-8,-4,0,4,8",
                     "--rng-seed", str(SWEEP_SEED), "--out", str(reports)]) == 0
        runs.append({
            "root": root,
            "dataset": dataset,
            "sidecar": dataset.with_name(dataset.name + ".json"),
            "checkpoint": model_dir / "checkpoint.ttv",
            "ledger": model_dir / "ledger.csv",
            "vectors": vectors,
            "midi": midi,
            "midi_report": midi.with_name(midi.name + ".tension.json"),
            "reports": reports,
        })
    return runs


def test_criterion_01_spiral_geometry_exactness():
    def dist(a, b):
        return float(np.linalg.norm(pitch_position(a) - pitch_position(b)))

    d_cg = dist(0, 1)       # C to G
    d_ce = dist(0, 4)       # C to E
    d_cfs = dist(0, 6)      # C to F#
    assert abs(d_cg - math.sqrt(32 / 15)) < 1e-9
    assert abs(d_ce - math.sqrt(32 / 15)) < 1e-9
    assert abs(d_cfs - math.sqrt(8.8)) < 1e-9
    report(1, f"d(C,G)=d(C,E)={d_cg:.9f}, d(C,F#)={d_cfs:.9f} within 1e-9")


def test_criterion_02_tension_oracle_equivalence(rng):
    key_point = key_center(0)
    checked = 0
    for _ in range(120):
        roll = random_roll(rng)
        strain, diameter = tension_curves(roll)
        ref_strain, ref_diameter = brute_force_tension(roll, key_point)
        np.testing.assert_allclose(strain, ref_strain, rtol=0, atol=1e-12)
        np.testing.assert_allclose(diameter, ref_diameter, rtol=0,
                                   atol=1e-12)
        checked += 1
    report(2, f"{checked} random fragments match the brute-force oracle at 1e-12")


def test_criterion_03_isometry_property_suite(rng):
    worst_diameter = 0.0
    worst_strain = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 7))
        fifths = rng.integers(-12, 13, size=size)
        shift = int(rng.integers(-12, 13))
        cloud = Cloud(tuple(SpelledPitch(int(k)) for k in fifths))
        moved = Cloud(tuple(SpelledPitch(int(k) + shift) for k in fifths))
        worst_diameter = max(worst_diameter, abs(
            cloud_diameter(cloud) - cloud_diameter(moved)))
        worst_strain = max(worst_strain, abs(
            tensile_strain(cloud, key_center(0))
            - tensile_strain(moved, key_center(shift))))
    assert worst_diameter < 1e-9
    assert worst_strain < 1e-9
    report(3, f"1000 clouds: max diameter drift {worst_diameter:.2e}, "
              f"max strain drift {worst_strain:.2e}")


def test_criterion_04_encoding_round_trip(rng):
    for _ in range(1000):
        pitch, onset = random_window(rng)
        decoded = decode_roll(encode_roll(pitch, onset))
        assert np.array_equal(decoded[0], pitch)
        assert np.array_equal(decoded[1], onset)
    report(4, "decode(encode(window)) exact on 1000 random windows "
              "(per-step pitch and onset grids)")


def test_criterion_05_gradient_check():
    result = gradient_check(hidden=8, latent=4, n_weights=200, step=1e-4)
    assert result.n_checked >= 200
    assert result.max_rel_error < 1e-4
    report(5, f"max relative error {result.max_rel_error:.2e} over "
              f"{result.n_checked} weights (< 1e-4)")


def test_criterion_06_loss_closed_forms(rng):
    roll = random_roll(rng)
    targets = DecoderOutput(
        melody_pitch=roll[:, :74].astype(float),
        melody_onset=roll[:, 74].astype(float),
        bass_pitch=roll[:, 75:88].astype(float),
        bass_onset=roll[:, 88].astype(float),
        tensile=rng.uniform(0, 2, 64), diameter=rng.uniform(0, 2, 64))
    uniform = DecoderOutput(
        melody_pitch=np.full((64, 74), 1 / 74), melody_onset=targets.melody_onset,
        bass_pitch=targets.bass_pitch, bass_onset=targets.bass_onset,
        tensile=targets.tensile, diameter=targets.diameter)
    lb = loss(uniform, roll, targets.tensile, targets.diameter, beta=0.0)
    assert abs(lb.melody_pitch - math.log(74)) < 1e-6

    shifted = DecoderOutput(
        melody_pitch=targets.melody_pitch, melody_onset=targets.melody_onset,
        bass_pitch=targets.bass_pitch, bass_onset=targets.bass_onset,
        tensile=targets.tensile + 0.1, diameter=targets.diameter)
    lb2 = loss(shifted, roll, targets.tensile, targets.diameter, beta=0.0)
    assert abs(lb2.tensile - 0.01) < 1e-12

    assert beta_schedule(12_000) == 0.006
    assert beta_schedule(11_999) < 0.006
    report(6, f"uniform melody CE {lb.melody_pitch:.6f} = ln 74, "
              f"offset MSE {lb2.tensile:.12f}, beta(12000) = 0.006")


def _train_split_metrics(run):
    ckpt = load_checkpoint(run["checkpoint"])
    model = TensionVae(ckpt.config, ckpt.params)
    dataset = load_dataset(run["dataset"])
    from ttvae.vae.training import training_split
    idx = training_split(ckpt.config, len(dataset))["train"]
    rolls = dataset.rolls.astype(np.float32)[idx]
    tensile = dataset.tensile[idx]
    diameter = dataset.diameter[idx]
    breakdown, out = evaluate_batch(model.params, model.cfg, rolls, tensile,
                                    diameter, ckpt.config.beta_max)
    accuracy = float((out.melody_pitch.argmax(axis=2)
                      == rolls[:, :, :74].argmax(axis=2)).mean())
    return accuracy, breakdown.tensile, ckpt


def test_criterion_07_overfit_capability(chain):
    accuracy, tensile_mse, ckpt = _train_split_metrics(chain[0])
    assert ckpt.config.max_epochs <= 200
    assert accuracy >= 0.95
    assert tensile_mse <= 0.05
    assert chain[0]["ledger"].read_bytes() == chain[1]["ledger"].read_bytes()
    report(7, f"32-fragment corpus: melody-pitch accuracy {accuracy:.3f} "
              f">= 0.95, tensile MSE {tensile_mse:.4f} <= 0.05, ledger "
              f"bitwise reproducible")


def test_criterion_08_ledger_format_and_early_tension_descent(chain):
    text = chain[0]["ledger"].read_text().splitlines()
    assert text[0] == ",".join(LEDGER_COLUMNS)
    rows = [line.split(",") for line in text[1:]]
    train_rows = [r for r in rows if r[1] == "train"]
    tensile = [float(r[LEDGER_COLUMNS.index("tensile")]) for r in train_rows[:5]]
    diameter = [float(r[LEDGER_COLUMNS.index("diameter")]) for r in train_rows[:5]]
    assert all(b < a for a, b in zip(tensile, tensile[1:])), tensile
    assert all(b < a for a, b in zip(diameter, diameter[1:])), diameter
    report(8, f"ledger mirrors the per-head loss table; first-5-epoch tensile "
              f"{[round(v, 3) for v in tensile]} and diameter "
              f"{[round(v, 3) for v in diameter]} strictly decrease "
              f"(absolute full-corpus losses are out of scope by design)")


def test_criterion_09_behavioral_trend(chain):
    run = chain[0]
    ckpt = load_checkpoint(run["checkpoint"])
    model = TensionVae(ckpt.config, ckpt.params)
    vectors = load_vectors(run["vectors"])
    vector = vectors.get("tensile_strain_direction")
    sweep = direction_sweep(model, vector, scales=SWEEP_SCALES, n=SWEEP_N,
                            rng_seed=SWEEP_SEED, tau=SWEEP_TAU,
                            trained_batches=ckpt.schedule.get("global_batches"))
    ratios = sweep.ratios()
    rho = float(spearmanr(SWEEP_SCALES, ratios).statistic)
    assert rho >= 0.9 - 1e-12, (ratios, rho)
    zero_row = sweep.rows[SWEEP_SCALES.index(0.0)]
    assert zero_row.melody_pitch_accuracy == 1.0
    assert zero_row.bass_pitch_accuracy == 1.0
    assert zero_row.melody_rhythm_fscore == 1.0
    assert zero_row.bass_rhythm_fscore == 1.0
    report(9, f"upward ratios {ratios} over scales {list(SWEEP_SCALES)}: "
              f"Spearman {rho:.3f} >= 0.9; identity metrics at scale 0 "
              f"(paper-scale ratio values are out of scope by design)")


def test_criterion_10_metric_unit_tests(rng):
    base = random_roll(rng)
    a = base.copy()
    b = base.copy()
    a[:, 74] = 0
    b[:, 74] = 0
    for s in (0, 8, 16, 24):
        a[s, 74] = 1 if a[s, 73] == 0 else 0
    # Force non-rest pitch on those steps so onsets are valid.
    for s in (0, 8, 16, 24):
        a[s, :74] = 0
        a[s, 36] = 1
        a[s, 74] = 1
        b[s, :74] = 0
        b[s, 36] = 1
    for s in (0, 8):
        b[s, 74] = 1
    melody_f, _ = rhythm_fscore(a, b)
    assert melody_f == pytest.approx(2 / 3)

    c = base.copy()
    changed = 0
    for s in range(16):
        col = int(c[s, :74].argmax())
        c[s, :74] = 0
        c[s, (col + 1) % 74] = 1
        c[s, 74] = 0
        changed += 1
    melody_acc, _ = pitch_accuracy(base, c)
    assert melody_acc == pytest.approx((64 - changed) / 64)

    ramp = np.arange(64) / 63
    curves = np.stack([ramp] * 3 + [ramp[::-1]] * 1)
    assert upward_ratio(curves, 0.5) == 0.75
    report(10, "rhythm F 2/3 hand case, 48/64 pitch accuracy, "
               "constructed ramp ratios all exact")


def test_criterion_11_labeling_separability(rng):
    ramp = np.arange(64) / 63
    ups = np.stack([(1 + 0.05 * i) * ramp for i in range(10)])
    downs = np.stack([(1 + 0.05 * i) * ramp[::-1] for i in range(10)])
    curves = np.concatenate([ups, downs])
    selection = select_classes(curves, "tensile_strain_direction", target_n=10)
    assert selection.class_a == list(range(10))
    assert selection.class_b == list(range(10, 20))

    dataset = make_dataset([random_roll(rng) for _ in range(20)],
                           curves, curves)
    model = TensionVae.initialize(
        ModelConfig(latent_dim=8, hidden=12, gru_layers=1, rng_seed=1))
    v_ab = attribute_vector(model, dataset, selection.class_a,
                            selection.class_b, "x")
    v_ba = attribute_vector(model, dataset, selection.class_b,
                            selection.class_a, "x")
    np.testing.assert_array_equal(v_ab.values, -v_ba.values)
    report(11, "noiseless ramps partition exactly; v(A,B) == -v(B,A) bitwise")


def test_criterion_12_end_to_end_determinism(chain):
    first, second = chain
    compared = []
    for key in ("dataset", "sidecar", "checkpoint", "ledger", "vectors",
                "midi", "midi_report"):
        assert first[key].read_bytes() == second[key].read_bytes(), key
        compared.append(first[key].name)
    report_names = sorted(p.name for p in first["reports"].iterdir())
    assert report_names == sorted(p.name for p in second["reports"].iterdir())
    for name in report_names:
        assert (first["reports"] / name).read_bytes() \
            == (second["reports"] / name).read_bytes(), name
        compared.append(name)
    report(12, f"byte-identical across two runs: {', '.join(compared)}")
