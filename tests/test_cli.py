"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import json

import pytest

from helpers import brute_force_tension
from toy import toy_song, write_toy_corpus
from ttvae.cli import main
from ttvae.corpus import load_dataset
from ttvae.midi import MidiNote, MidiTrack, Score, parse_midi, write_midi
from ttvae.spiral import SpiralConfig, key_center
from ttvae.vae import load_checkpoint

TOY_CONFIG = dict(latent_dim=8, hidden=24, gru_layers=1, batch_size=8,
                  learning_rate=0.002, beta_step=1e-4, beta_max=0.006,
                  early_stop_patience=50, max_epochs=3, rng_seed=5)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("midis")
    write_toy_corpus(directory)
    return directory


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus_dir):
    """dataset + quick (3-epoch) checkpoint + vectors, shared by CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    dataset = root / "toy.ds"
    assert main(["preprocess", "--in", str(corpus_dir),
                 "--out", str(dataset)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    model_dir = root / "model"
    assert main(["train", "--dataset", str(dataset), "--out", str(model_dir),
                 "--config", str(config)]) == 0
    vectors = root / "vectors.json"
    assert main(["vectors", "--model", str(model_dir / "checkpoint.ttv"),
                 "--dataset", str(dataset), "--target-n", "8",
                 "--out", str(vectors)]) == 0
    return {"dataset": dataset, "checkpoint": model_dir / "checkpoint.ttv",
            "ledger": model_dir / "ledger.csv", "vectors": vectors,
            "root": root}


def fixture_song(bars):
    """Quarter-note melody over half-note bass, C-major material."""
    cycle = [60, 64, 67, 72, 67, 64]
    melody = [MidiNote(cycle[i % 6], float(i), 1.0) for i in range(bars * 4)]
    bass = [MidiNote(36 + 7 * (i % 2), 2.0 * i, 2.0) for i in range(bars * 2)]
    return Score(tracks=[MidiTrack(name="melody", channel=0, notes=melody),
                         MidiTrack(name="bass", channel=1, notes=bass)])


class TestAnalyze:
    def test_four_bar_fixture_matches_oracle(self, tmp_path):
        path = tmp_path / "four.mid"
        path.write_bytes(write_midi(fixture_song(4)))
        out = tmp_path / "out.csv"
        assert main(["analyze", "--in", str(path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith(("step", "#"))]
        assert len(rows) == 64
        # Oracle comparison on the same fragment.
        from ttvae.corpus import song_fragments
        fragments, _, _ = song_fragments(parse_midi(path.read_bytes()))
        ref_strain, ref_diam = brute_force_tension(
            fragments[0].roll, key_center(0, SpiralConfig()).point.to_array())
        for i, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(ref_strain[i], abs=1e-6)
            assert float(row[2]) == pytest.approx(ref_diam[i], abs=1e-6)

    def test_eight_bars_two_blocks(self, tmp_path):
        path = tmp_path / "eight.mid"
        path.write_bytes(write_midi(fixture_song(8)))
        out = tmp_path / "out.csv"
        assert main(["analyze", "--in", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        assert "# fragment 0" in text and "# fragment 1" in text
        assert len([l for l in text.splitlines()
                    if l and not l.startswith(("step", "#"))]) == 128

    def test_silent_bass_exits_two(self, tmp_path):
        score = Score(tracks=[MidiTrack(name="melody", notes=[
            MidiNote(60 + i % 4, i, 1.0) for i in range(16)])])
        path = tmp_path / "nobass.mid"
        path.write_bytes(write_midi(score))
        assert main(["analyze", "--in", str(path)]) == 2

    def test_json_variant(self, tmp_path, capsys):
        song = toy_song(0)
        path = tmp_path / "song.mid"
        path.write_bytes(write_midi(song))
        assert main(["analyze", "--in", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detected_key"] == "C major"
        assert len(payload["fragments"]) == 4
        assert len(payload["fragments"][0]["tensile_strain"]) == 64


class TestPreprocess:
    def test_dataset_written(self, pipeline):
        ds = load_dataset(pipeline["dataset"])
        assert len(ds) == 32
        assert (pipeline["dataset"].parent / "toy.ds.json").exists()

    def test_missing_dir_exits_two(self, tmp_path):
        assert main(["preprocess", "--in", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.ds")]) == 2


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        assert pipeline["checkpoint"].exists()
        header = pipeline["ledger"].read_text().splitlines()[0]
        assert header.startswith("epoch,split,melody_pitch")
        ckpt = load_checkpoint(pipeline["checkpoint"])
        assert ckpt.schedule["global_batches"] > 0

    def test_rng_seed_flag_overrides(self, pipeline, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TOY_CONFIG, max_epochs=1)))
        out = tmp_path / "m"
        assert main(["train", "--dataset", str(pipeline["dataset"]),
                     "--out", str(out), "--config", str(config),
                     "--rng-seed", "77"]) == 0
        ckpt = load_checkpoint(out / "checkpoint.ttv")
        assert ckpt.config.rng_seed == 77


def _train_exit(dataset, out, config=None):
    args = ["train", "--dataset", str(dataset), "--out", str(out)]
    if config is not None:
        args += ["--config", str(config)]
    return main(args)


class TestMalformedDataset:
    def test_short_header_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "short.ds"
        bad.write_bytes(b"TVAE\x01")
        assert _train_exit(bad, tmp_path / "m") == 2
        assert "dataset truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        "not json", "not an object", "short source_ids", "short bar_offsets"])
    def test_bad_sidecar_exits_two(self, pipeline, tmp_path, damage, capsys):
        dataset = tmp_path / "copy.ds"
        dataset.write_bytes(pipeline["dataset"].read_bytes())
        sidecar = json.loads(pipeline["dataset"].with_name(
            pipeline["dataset"].name + ".json").read_text())
        if damage == "not json":
            text = "{\"source_ids\": ["
        elif damage == "not an object":
            text = json.dumps([sidecar])
        else:
            key = damage.split()[1]
            sidecar[key] = sidecar[key][:-1]
            text = json.dumps(sidecar)
        dataset.with_name(dataset.name + ".json").write_text(text)
        assert _train_exit(dataset, tmp_path / "m") == 2
        assert "sidecar" in capsys.readouterr().err


class TestMalformedConfig:
    @pytest.mark.parametrize("fields", [
        {"hidden": "8"}, {"split": 5}, {"hidden": 8.5}, {"batch_size": True},
        {"learning_rate": "x"}, {"beta_max": float("nan")},
        {"split": [0.8, "0.1", 0.1]}, {"split": [0.8, 0.2]}, {"rng_seed": -1}],
        ids=repr)
    def test_exits_two(self, pipeline, tmp_path, fields):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TOY_CONFIG, **fields)))
        assert _train_exit(pipeline["dataset"], tmp_path / "m", config) == 2

    def test_non_object_exits_two(self, pipeline, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]")
        assert _train_exit(pipeline["dataset"], tmp_path / "m", config) == 2


class TestVectors:
    def test_vectors_file_contents(self, pipeline):
        payload = json.loads(pipeline["vectors"].read_text())
        names = {v["name"] for v in payload["vectors"]}
        assert names == {"tensile_strain_direction", "tensile_strain_level",
                         "cloud_diameter_direction", "cloud_diameter_level"}
        assert payload["latent_dim"] == TOY_CONFIG["latent_dim"]
        assert payload["checkpoint_id"]
        for vector in payload["vectors"]:
            assert len(vector["values"]) == TOY_CONFIG["latent_dim"]

    def test_unknown_kind_exits_two(self, pipeline, tmp_path):
        assert main(["vectors", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--kinds", "bogus", "--out", str(tmp_path / "v.json")]) == 2


class TestShapeVector:
    def test_triangle_template(self, pipeline, tmp_path):
        out = tmp_path / "shape.json"
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "triangle", "--target-n", "6",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["vectors"][0]["name"] == "shape_triangle"

    def test_merges_into_existing_file(self, pipeline):
        before = json.loads(pipeline["vectors"].read_text())
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "triangle", "--target-n", "6",
                     "--out", str(pipeline["vectors"])]) == 0
        after = json.loads(pipeline["vectors"].read_text())
        assert len(after["vectors"]) == len(before["vectors"]) + 1

    def test_json_file_template(self, pipeline, tmp_path):
        template = tmp_path / "dip.json"
        template.write_text(json.dumps(
            [abs(i - 32) / 32 for i in range(64)]))  # fall-then-rise
        out = tmp_path / "shape.json"
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", str(template), "--target-n", "6",
                     "--name", "valley", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["vectors"][0]["name"] == "valley"

    def test_bad_template_exits_two(self, pipeline, tmp_path):
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "circle",
                     "--out", str(tmp_path / "s.json")]) == 2


class TestGenerate:
    def test_sampled_seed_writes_midi_and_report(self, pipeline, tmp_path):
        out = tmp_path / "gen.mid"
        assert main(["generate", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--edit", "tensile_strain_direction=6",
                     "--rng-seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        report = json.loads((tmp_path / "gen.mid.tension.json").read_text())
        assert report["edits"] == [["tensile_strain_direction", 6.0]]
        parsed = parse_midi(out.read_bytes())
        assert [t.name for t in parsed.tracks] == ["melody", "bass"]

    def test_seed_midi_path(self, pipeline, corpus_dir, tmp_path):
        out = tmp_path / "gen.mid"
        assert main(["generate", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--seed-midi", str(corpus_dir / "song00.mid"),
                     "--fragment-index", "1", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "gen.mid.tension.json").read_text())
        assert report["seed"]["kind"] == "seed_midi"
        assert report["seed"]["fragment_index"] == 1

    def test_bad_edit_syntax_exits_two(self, pipeline, tmp_path):
        assert main(["generate", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--edit", "justaname", "--out", str(tmp_path / "g.mid")]) == 2

    def test_deterministic_outputs(self, pipeline, tmp_path):
        outs = []
        for name in ("a.mid", "b.mid"):
            out = tmp_path / name
            assert main(["generate", "--model", str(pipeline["checkpoint"]),
                         "--vectors", str(pipeline["vectors"]),
                         "--edit", "cloud_diameter_level=3",
                         "--rng-seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestMalformedVectors:
    @pytest.mark.parametrize("damage", [
        "drop latent_dim", "drop name", "drop class_sizes", "nan value",
        "short values"])
    def test_exits_two(self, pipeline, tmp_path, damage, capsys):
        payload = json.loads(pipeline["vectors"].read_text())
        item = payload["vectors"][0]
        if damage.startswith("drop "):
            key = damage.split()[1]
            del (payload if key == "latent_dim" else item)[key]
        elif damage == "nan value":
            item["values"][0] = float("nan")
        else:
            item["values"] = item["values"][:-1]
        bad = tmp_path / "bad_vectors.json"
        bad.write_text(json.dumps(payload))
        assert main(["generate", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(bad), "--rng-seed", "1",
                     "--out", str(tmp_path / "g.mid")]) == 2
        assert "malformed vectors file" in capsys.readouterr().err


class TestComposeChain:
    def test_two_section_plan(self, pipeline, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [
            {"bars": 8, "edits": [["tensile_strain_direction", 6.0]]},
            {"bars": 8, "edits": [["cloud_diameter_level", 3.0]]},
        ]}))
        out = tmp_path / "chain.mid"
        assert main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--plan", str(plan), "--rng-seed", "4",
                     "--out", str(out)]) == 0
        parsed = parse_midi(out.read_bytes())
        assert [m[1] for m in parsed.markers] == ["section 1", "section 2"]
        end = max(n.onset + n.duration for t in parsed.tracks for n in t.notes)
        assert end <= 64.0  # 16 bars at 4 beats

    def test_malformed_plan_exits_two(self, pipeline, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [{"bars": 5}]}))
        assert main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--plan", str(plan),
                     "--out", str(tmp_path / "c.mid")]) == 2


class TestEval:
    def test_direction_experiment(self, pipeline, tmp_path):
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "direction", "--n", "6",
                     "--scales=-2,0,2", "--rng-seed", "5",
                     "--out", str(out), "--charts"]) == 0
        csv_path = out / "direction_tensile_strain_direction.csv"
        assert csv_path.exists()
        assert (out / "direction_tensile_strain_direction.svg").exists()
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4

    def test_interaction_experiment(self, pipeline, tmp_path):
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "interaction", "--n", "5",
                     "--scales=-2,0,2", "--rng-seed", "5",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "interaction_direction.json").read_text())
        assert set(payload["cross_effect"]) == {
            "tensile_strain_direction_on_diameter",
            "cloud_diameter_direction_on_tensile"}

    def test_pitch_dist_experiment(self, pipeline, tmp_path):
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "pitch-dist", "--n", "4",
                     "--rng-seed", "5", "--out", str(out)]) == 0
        lines = (out / "pitch_distribution.csv").read_text().splitlines()
        assert lines[0] == "pitch_class,original,modified,difference"
        assert len(lines) == 13

    def test_reports_reproducible(self, pipeline, tmp_path):
        texts = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["eval", "--model", str(pipeline["checkpoint"]),
                         "--vectors", str(pipeline["vectors"]),
                         "--experiment", "direction", "--n", "5",
                         "--scales=-2,0,2", "--rng-seed", "6",
                         "--out", str(out)]) == 0
            texts.append((out / "direction_tensile_strain_direction.csv")
                         .read_bytes())
        assert texts[0] == texts[1]


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--samples", "40", "--rng-seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestVectorModelMismatch:
    def test_vectors_from_other_model_rejected(self, pipeline, tmp_path):
        other_dir = tmp_path / "other"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TOY_CONFIG, rng_seed=123,
                                          max_epochs=1)))
        assert main(["train", "--dataset", str(pipeline["dataset"]),
                     "--out", str(other_dir), "--config", str(config)]) == 0
        assert main(["generate", "--model", str(other_dir / "checkpoint.ttv"),
                     "--vectors", str(pipeline["vectors"]),
                     "--out", str(tmp_path / "g.mid")]) == 2
