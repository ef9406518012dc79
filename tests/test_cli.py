"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import contextlib
import json
import os
import resource
import signal
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import brute_force_tension
from toy import midi_track, toy_song, write_toy_corpus
import ttvae
from ttvae.cli import main
from ttvae.corpus import RECORD_DTYPE, load_dataset, save_dataset, song_fragments
from ttvae.latent import AttributeVector, VectorsFile, load_vectors, save_vectors
from ttvae.midi import Score, parse_midi, write_midi
from ttvae.spiral import key_center
from ttvae.vae import ModelConfig, TensionVae, load_checkpoint, save_checkpoint

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
    melody = [(cycle[i % 6], float(i), 1.0) for i in range(bars * 4)]
    bass = [(36 + 7 * (i % 2), 2.0 * i, 2.0) for i in range(bars * 2)]
    return Score(tracks=[midi_track(melody, "melody", 0),
                         midi_track(bass, "bass", 1)])


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
            fragments.rolls[0], key_center(0))
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
        score = Score(tracks=[midi_track([(60 + i % 4, i, 1.0) for i in range(16)],
                                         "melody")])
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
        "not json", "not an object", "short source_ids", "short bar_offsets",
        "long source_ids", "empty source_ids", "text bar_offsets",
        "int source_ids"])
    def test_bad_sidecar_exits_two(self, pipeline, tmp_path, damage, capsys):
        dataset = tmp_path / "copy.ds"
        dataset.write_bytes(pipeline["dataset"].read_bytes())
        sidecar = json.loads(pipeline["dataset"].with_name(
            pipeline["dataset"].name + ".json").read_text())
        count = len(sidecar["source_ids"])
        if damage == "not json":
            text = "{\"source_ids\": ["
        elif damage == "not an object":
            text = json.dumps([sidecar])
        else:
            how, key = damage.split()
            sidecar[key] = {"short": sidecar[key][:-1],
                            "long": sidecar[key] + sidecar[key][:1],
                            "empty": [],
                            "text": ["x"] * count,
                            "int": list(range(count))}[how]
            text = json.dumps(sidecar)
        dataset.with_name(dataset.name + ".json").write_text(text)
        assert _train_exit(dataset, tmp_path / "m") == 2
        assert "sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "vectors"])
    @pytest.mark.parametrize("damage", ["roll byte 7", "nan tensile"])
    def test_bad_record_exits_two(self, pipeline, tmp_path, command, damage,
                                  capsys):
        data = bytearray(pipeline["dataset"].read_bytes())
        record = 10 + 5 * RECORD_DTYPE.itemsize  # fragment 5
        if damage == "roll byte 7":
            data[record + 100] = 7
        else:
            data[record + 64 * 89:record + 64 * 89 + 4] = struct.pack(
                "<f", float("nan"))
        dataset = tmp_path / "bad.ds"
        dataset.write_bytes(bytes(data))
        if command == "train":
            code = _train_exit(dataset, tmp_path / "m")
        else:
            code = main(["vectors", "--model", str(pipeline["checkpoint"]),
                         "--dataset", str(dataset), "--target-n", "8",
                         "--out", str(tmp_path / "v.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: dataset fragment 5:")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("fields", [
        {"hidden": 10**9}, {"batch_size": 10**12}, {"gru_layers": 10**9}],
        ids=repr)
    def test_past_memory_budget_exits_two(self, pipeline, tmp_path, fields):
        # in a child whose address space is capped at 1 GiB, so that a
        # config the budget let through fails there (exit 1, MemoryError)
        # instead of taking the host's memory
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TOY_CONFIG, **fields)))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = str(Path(ttvae.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ttvae.cli", "train", "--dataset",
             str(pipeline["dataset"]), "--out", str(tmp_path / "m"),
             "--config", str(config)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_address_space, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "budget" in proc.stderr or "gru_layers" in proc.stderr
        assert not (tmp_path / "m").exists()


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

    def test_merges_into_existing_file(self, pipeline, tmp_path):
        out = tmp_path / "vectors.json"
        out.write_bytes(pipeline["vectors"].read_bytes())
        before = load_vectors(out)
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "triangle", "--target-n", "6",
                     "--out", str(out)]) == 0
        after = load_vectors(out)
        assert after.checkpoint_id == before.checkpoint_id
        assert sorted(after.vectors) == sorted([*before.vectors, "shape_triangle"])
        for name, vector in before.vectors.items():
            assert after.vectors[name].values.tobytes() == vector.values.tobytes()
            assert after.vectors[name].class_sizes == vector.class_sizes

    def test_merges_into_file_without_checkpoint_id(self, pipeline, tmp_path):
        # The old vectors' model is unknown, so the merged file names none.
        payload = json.loads(pipeline["vectors"].read_text())
        payload["checkpoint_id"] = ""
        out = tmp_path / "vectors.json"
        out.write_text(json.dumps(payload))
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "triangle", "--target-n", "6",
                     "--out", str(out)]) == 0
        after = json.loads(out.read_text())
        assert after["checkpoint_id"] == ""
        assert [v for v in after["vectors"] if v["name"] != "shape_triangle"] \
            == payload["vectors"]
        assert len(after["vectors"]) == len(payload["vectors"]) + 1

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

    @pytest.mark.parametrize("peak", ["-5", "64", "1000", "1" + "0" * 400])
    def test_peak_step_outside_the_window_exits_two(self, pipeline, tmp_path,
                                                    peak, capsys):
        out = tmp_path / "s.json"
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "triangle", f"--peak-step={peak}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: peak step must be in 0..63")
        assert not out.exists()

    def test_bad_template_exits_two(self, pipeline, tmp_path):
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", "circle",
                     "--out", str(tmp_path / "s.json")]) == 2


class TestMalformedTemplate:
    @pytest.mark.parametrize("text", [
        json.dumps(["up"] * 64), json.dumps([{"v": 1}] * 64),
        json.dumps([None] * 64), json.dumps([[0.5]] * 64),
        "[" + ", ".join(["NaN"] + ["0.5"] * 63) + "]",
        "[" + ", ".join(["Infinity"] + ["0.5"] * 63) + "]",
        "[" + ", ".join(["1" + "0" * 400] + ["0.5"] * 63) + "]",
        "[" * 100000 + "]" * 100000], ids=lambda t: t[:24])
    def test_exits_two(self, pipeline, tmp_path, text, capsys):
        template = tmp_path / "bad.json"
        template.write_text(text)
        assert main(["shape-vector", "--model", str(pipeline["checkpoint"]),
                     "--dataset", str(pipeline["dataset"]),
                     "--template", str(template), "--target-n", "6",
                     "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _first_matrix(manifest):
    return next(t for t in manifest["tensors"] if len(t["shape"]) == 2)


def _drop(key):
    def damage(manifest):
        del manifest[key]
    return damage


def _set(key, value):
    def damage(manifest):
        manifest["tensors"][0][key] = value
    return damage


def _set_schedule(value):
    def damage(manifest):
        manifest["schedule"] = value
    return damage


def _set_config(key, value):
    def damage(manifest):
        manifest["config"][key] = value
    return damage


CHECKPOINT_DAMAGE = {
    "manifest is a list": lambda m: [],
    "no tensors": _drop("tensors"),
    "no blob_sha256": _drop("blob_sha256"),
    "no config": _drop("config"),
    "tensors not a list": lambda m: m.update(tensors={"a": 1}),
    "tensor not an object": lambda m: m["tensors"].__setitem__(0, 7),
    "nbytes a string": lambda m: m["tensors"][0].update(
        nbytes=str(m["tensors"][0]["nbytes"])),
    "shape larger than its bytes": lambda m: m["tensors"][0].update(
        shape=[m["tensors"][0]["shape"][0] * 2]),
    "negative shape": lambda m: m["tensors"][0].update(shape=[-1]),
    "negative offset": _set("offset", -4),
    "overlapping offset": lambda m: m["tensors"][1].update(offset=0),
    "offset past the blob": lambda m: m["tensors"][-1].update(
        offset=m["tensors"][-1]["offset"] + 4),
    "wrong dtype": _set("dtype", "<f8"),
    "renamed tensor": _set("name", "enc.gru9.w"),
    "transposed shape": lambda m: _first_matrix(m).update(
        shape=_first_matrix(m)["shape"][::-1]),
    "duplicate name": lambda m: m["tensors"][1].update(
        name=m["tensors"][0]["name"]),
    "list schedule": _set_schedule([1, 2]),
    "string global_batches": _set_schedule({"global_batches": "7"}),
    "config not an object": lambda m: m.update(config=5),
    "config field a string": _set_config("hidden", "24"),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_eval_exits_two(self, pipeline, tmp_path, damage, capsys):
        raw = pipeline["checkpoint"].read_bytes()
        end = 8 + int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8:end])
        replaced = CHECKPOINT_DAMAGE[damage](manifest)
        encoded = json.dumps(manifest if replaced is None else replaced).encode()
        bad = tmp_path / "bad.ttv"
        bad.write_bytes(raw[:4] + len(encoded).to_bytes(4, "little")
                        + encoded + raw[end:])
        assert main(["eval", "--model", str(bad),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "direction", "--n", "4",
                     "--out", str(tmp_path / "reports")]) == 2
        assert capsys.readouterr().err.startswith("error:")


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

    def damaged(self, pipeline, tmp_path, key, value):
        """The pipeline's vectors file with ``key`` of every vector set to
        ``value`` (each threshold, for ``effective_thresholds``)."""
        payload = json.loads(pipeline["vectors"].read_text())
        for item in payload["vectors"]:
            if key == "effective_thresholds":
                item[key] = dict.fromkeys(item[key], value)
            else:
                item[key] = value
        bad = tmp_path / "bad_vectors.json"
        bad.write_text(json.dumps(payload))
        return bad

    def assert_exits_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed vectors file"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["direction", "interaction"])
    def test_text_threshold_in_eval(self, pipeline, tmp_path, capsys, experiment):
        bad = self.damaged(pipeline, tmp_path, "effective_thresholds", "abc")
        self.assert_exits_two(
            ["eval", "--model", str(pipeline["checkpoint"]), "--vectors", str(bad),
             "--experiment", experiment, "--n", "4", "--scales=0,2",
             "--out", str(tmp_path / "reports")], capsys)

    def test_number_name_in_generate(self, pipeline, tmp_path, capsys):
        bad = self.damaged(pipeline, tmp_path, "name", 5)
        self.assert_exits_two(
            ["generate", "--model", str(pipeline["checkpoint"]), "--vectors", str(bad),
             "--edit", "tensile_strain_direction=2", "--out", str(tmp_path / "g.mid")],
            capsys)

    def test_number_name_in_shape_vector_merge(self, pipeline, tmp_path, capsys):
        bad = self.damaged(pipeline, tmp_path, "name", 5)
        before = bad.read_bytes()
        self.assert_exits_two(
            ["shape-vector", "--model", str(pipeline["checkpoint"]),
             "--dataset", str(pipeline["dataset"]), "--template", "triangle",
             "--target-n", "6", "--out", str(bad)], capsys)
        assert bad.read_bytes() == before

    @pytest.mark.parametrize("sizes", [[3], [3, -1], [3, 2.5], [3, True], "33",
                                       [3, 3, 3]], ids=repr)
    def test_bad_class_sizes(self, pipeline, tmp_path, capsys, sizes):
        bad = self.damaged(pipeline, tmp_path, "class_sizes", sizes)
        self.assert_exits_two(
            ["generate", "--model", str(pipeline["checkpoint"]), "--vectors", str(bad),
             "--out", str(tmp_path / "g.mid")], capsys)

    @pytest.mark.parametrize("value", [None, True, [1.0], 1e400, 10 ** 400],
                             ids=["null", "true", "list", "infinity", "huge-int"])
    def test_bad_threshold_values(self, pipeline, tmp_path, capsys, value):
        bad = self.damaged(pipeline, tmp_path, "effective_thresholds", value)
        self.assert_exits_two(
            ["generate", "--model", str(pipeline["checkpoint"]), "--vectors", str(bad),
             "--out", str(tmp_path / "g.mid")], capsys)


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
        end = max((t.onset + t.duration).max() for t in parsed.tracks)
        assert end <= 64.0  # 16 bars at 4 beats

    def test_malformed_plan_exits_two(self, pipeline, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [{"bars": 5}]}))
        assert main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--plan", str(plan),
                     "--out", str(tmp_path / "c.mid")]) == 2

    def test_text_bars_exit_two(self, pipeline, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [{"bars": "4"}]}))
        assert main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--plan", str(plan),
                     "--out", str(tmp_path / "c.mid")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    def chain(self, pipeline, tmp_path, name, *edits):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [{"bars": 4}, {"bars": 4}]}))
        out = tmp_path / name
        code = main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]), "--plan", str(plan),
                     "--rng-seed", "2", *(f"--edit={e}" for e in edits),
                     "--out", str(out)])
        return code, out

    def test_edit_applies_before_section_one(self, pipeline, tmp_path):
        _, plain = self.chain(pipeline, tmp_path, "plain.mid")
        code, edited = self.chain(pipeline, tmp_path, "edited.mid",
                                  "tensile_strain_direction=8")
        assert code == 0
        assert edited.read_bytes() != plain.read_bytes()
        report = json.loads(Path(f"{edited}.tension.json").read_text())
        assert report["edits"] == [["tensile_strain_direction", 8.0]]
        plain_report = json.loads(Path(f"{plain}.tension.json").read_text())
        assert plain_report["edits"] == []
        assert report["sections"][0]["recomputed_tensile"] \
            != plain_report["sections"][0]["recomputed_tensile"]

    def test_unknown_edit_name_exits_two(self, pipeline, tmp_path, capsys):
        code, out = self.chain(pipeline, tmp_path, "c.mid", "x=8")
        assert code == 2 and not out.exists()
        assert "no vector named 'x'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("scales", ["0", "0,-0,0"])
    def test_interaction_needs_a_nonzero_scale(self, pipeline, tmp_path,
                                               scales, capsys):
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "interaction", "--n", "5",
                     f"--scales={scales}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "other than 0" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("experiment", ["direction", "level", "interaction"])
    def test_n_past_the_memory_budget_exits_two_before_decoding(
            self, pipeline, tmp_path, experiment, capsys, monkeypatch):
        from ttvae import evaluation

        def fail(*args):
            raise AssertionError("decoded")
        monkeypatch.setattr(evaluation, "decode_hardened", fail)
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", experiment, "--n", str(10**12),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "past the budget" in err
        assert not any(out.iterdir())

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


class TestNonFiniteScales:
    """Scales that are not finite, or overflow the latent, are bad input."""

    @staticmethod
    def _assert_input_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("scales", ["0,nan", "0,inf", "0,1e300"])
    def test_eval_scales(self, pipeline, tmp_path, scales, capsys):
        code = main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "direction", "--n", "4",
                     f"--scales={scales}", "--out", str(tmp_path / "reports")])
        self._assert_input_error(code, capsys)

    def test_pitch_dist_scale(self, pipeline, tmp_path, capsys):
        code = main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--experiment", "pitch-dist", "--n", "4",
                     "--scale", "nan", "--out", str(tmp_path / "reports")])
        self._assert_input_error(code, capsys)

    @pytest.mark.parametrize("scale", ["nan", "-inf", "1e300"])
    def test_generate_edit(self, pipeline, tmp_path, scale, capsys):
        code = main(["generate", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--edit", f"tensile_strain_direction={scale}",
                     "--rng-seed", "3", "--out", str(tmp_path / "g.mid")])
        self._assert_input_error(code, capsys)
        assert not (tmp_path / "g.mid").exists()

    @pytest.mark.parametrize("scale", ["nan", "1e300"])
    def test_chain_plan_edit(self, pipeline, tmp_path, scale, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [
            {"bars": 4, "edits": [["tensile_strain_direction", scale]]}]}))
        code = main(["compose-chain", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(pipeline["vectors"]),
                     "--plan", str(plan), "--rng-seed", "4",
                     "--out", str(tmp_path / "c.mid")])
        self._assert_input_error(code, capsys)
        assert not (tmp_path / "c.mid").exists()


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--samples", "40", "--rng-seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_more_samples_than_weights_exits_two(self, capsys):
        # hidden 8 and latent 4 make 4,803 weights
        assert main(["gradcheck", "--samples", "4804"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot sample 4804 weights: the model "
                              "has 4803")


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

    def test_shape_vector_refuses_another_models_file(self, pipeline, tmp_path,
                                                       monkeypatch, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TOY_CONFIG, rng_seed=321,
                                          max_epochs=1)))
        other = tmp_path / "other"
        assert main(["train", "--dataset", str(pipeline["dataset"]),
                     "--out", str(other), "--config", str(config)]) == 0
        out = tmp_path / "vectors.json"
        out.write_bytes(pipeline["vectors"].read_bytes())
        before = out.read_bytes()
        capsys.readouterr()

        def build_vectors(*args, **kwargs):
            raise AssertionError("encoded before checking --out")

        monkeypatch.setattr("ttvae.latent.build_vectors", build_vectors)
        other_ckpt = other / "checkpoint.ttv"
        assert main(["shape-vector", "--model", str(other_ckpt),
                     "--dataset", str(pipeline["dataset"]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vectors file is incompatible")
        assert load_vectors(out).checkpoint_id in err
        assert load_checkpoint(other_ckpt).ident in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("mismatch", ["checkpoint id", "latent size"])
    def test_eval_refuses_vectors_of_another_model(self, pipeline, tmp_path,
                                                   mismatch, capsys):
        vectors = load_vectors(pipeline["vectors"])
        if mismatch == "checkpoint id":
            vectors.checkpoint_id = "0" * 64
        else:
            vectors = VectorsFile(4, vectors.checkpoint_id, {
                name: AttributeVector(name, v.values[:4], v.class_sizes,
                                      v.effective_thresholds)
                for name, v in vectors.vectors.items()})
        path = tmp_path / "vectors.json"
        save_vectors(path, vectors)
        out = tmp_path / "reports"
        assert main(["eval", "--model", str(pipeline["checkpoint"]),
                     "--vectors", str(path), "--experiment", "direction",
                     "--n", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vectors file is incompatible")
        assert not out.exists()


class TestUnwritableOut:
    """Every subcommand's ``--out`` that cannot be written exits 2 with an
    ``error:`` line naming it, and leaves no temporary file behind."""

    FILE_OUTS = ["analyze", "preprocess", "vectors", "shape-vector",
                 "generate", "compose-chain"]
    DIR_OUTS = ["train", "eval"]

    @staticmethod
    def argv(command, pipeline, corpus_dir, tmp_path):
        model = ["--model", str(pipeline["checkpoint"])]
        with_vectors = model + ["--vectors", str(pipeline["vectors"])]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": [{"bars": 4}]}))
        return {
            "analyze": ["analyze", "--in", str(corpus_dir / "song00.mid")],
            "preprocess": ["preprocess", "--in", str(corpus_dir)],
            "train": ["train", "--dataset", str(pipeline["dataset"]),
                      "--config", str(pipeline["root"] / "config.json")],
            "vectors": ["vectors", *model, "--dataset",
                        str(pipeline["dataset"]), "--target-n", "8"],
            "shape-vector": ["shape-vector", *model, "--dataset",
                             str(pipeline["dataset"]), "--target-n", "8"],
            "generate": ["generate", *with_vectors, "--rng-seed", "3"],
            "compose-chain": ["compose-chain", *with_vectors,
                              "--plan", str(plan)],
            "eval": ["eval", *with_vectors, "--experiment", "direction",
                     "--n", "4"],
        }[command]

    @pytest.mark.parametrize("command, where", [
        *[(c, w) for c in FILE_OUTS
          for w in ("missing directory", "directory", "under a file")],
        *[(c, w) for c in DIR_OUTS for w in ("file", "under a file")]])
    def test_exits_two(self, pipeline, corpus_dir, tmp_path, command, where,
                       capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "afile").write_bytes(b"kept")
        (work / "adir").mkdir()
        out = {"missing directory": work / "nodir" / "x",
               "directory": work / "adir",
               "file": work / "afile",
               "under a file": work / "afile" / "x"}[where]
        argv = self.argv(command, pipeline, corpus_dir, tmp_path)
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert sorted(p.name for p in work.rglob("*")) == ["adir", "afile"]
        assert (work / "afile").read_bytes() == b"kept"

    @pytest.mark.parametrize("command, companion", [
        ("preprocess", ".json"), ("generate", ".tension.json"),
        ("compose-chain", ".tension.json")])
    def test_companion_in_the_way_leaves_out_unchanged(
            self, pipeline, corpus_dir, tmp_path, command, companion, capsys):
        work = tmp_path / "work"
        work.mkdir()
        out = work / "old.out"
        out.write_bytes(b"old")
        blocked = work / f"old.out{companion}"
        blocked.mkdir()
        argv = self.argv(command, pipeline, corpus_dir, tmp_path)
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ")
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in work.iterdir()) == [
            "old.out", blocked.name]

    @pytest.mark.parametrize("where", [
        "missing directory", "directory", "under a file", "sidecar directory"])
    def test_preprocess_checks_out_before_building(
            self, corpus_dir, tmp_path, monkeypatch, where, capsys):
        def build_dataset(*args):
            raise AssertionError("build_dataset ran")

        monkeypatch.setattr(ttvae.cli, "build_dataset", build_dataset)
        (tmp_path / "afile").write_bytes(b"kept")
        (tmp_path / "a.ds.json").mkdir()
        out = {"missing directory": tmp_path / "nodir" / "a.ds",
               "directory": tmp_path / "a.ds.json",
               "under a file": tmp_path / "afile" / "a.ds",
               "sidecar directory": tmp_path / "a.ds"}[where]
        assert main(["preprocess", "--in", str(corpus_dir),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")


# Runs ``ttv`` in a child process and prints its peak RSS in KiB, so a read
# that sizes memory shows.  ``ru_maxrss`` would count the forking test
# process's peak too, since it survives ``exec``; ``VmHWM`` does not.
CLI_PROBE = """
import sys
from ttvae.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_cli_probe(argv):
    """(exit code, stdout, stderr) of ``ttv argv`` in a child process in its
    own session; its process group is killed afterwards, so a child blocked
    on a FIFO cannot outlive the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    proc = subprocess.Popen([sys.executable, "-c", CLI_PROBE, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return proc.returncode, out, err


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """An untrained checkpoint, a vectors file without vectors, a plan and a
    one-fragment dataset."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = ModelConfig(latent_dim=4, hidden=8, gru_layers=1, rng_seed=1)
    save_checkpoint(root / "model.ttv", TensionVae.initialize(cfg).params, cfg)
    save_vectors(root / "vectors.json", VectorsFile(4, "", {}))
    (root / "plan.json").write_text(json.dumps({"sections": [{"bars": 4}]}))
    fragments, _, _ = song_fragments(parse_midi(write_midi(fixture_song(4))))
    save_dataset(fragments, root / "data.ttd")
    return root


# A sparse file this large costs a whole read 128 MiB of memory.
BIG_MIDI_BYTES = 128 * 2**20


@pytest.mark.skipif(not hasattr(os, "mkfifo")
                    or not os.path.exists("/proc/self/status"),
                    reason="needs FIFOs and /proc")
class TestMidiInputsReadCapped:
    """``analyze --in`` and ``--seed-midi`` read a MIDI file as ingest does:
    a FIFO, directory or file over the cap exits 2 unread."""

    REASONS = {"fifo": "not a regular file", "directory": "not a regular file",
               "oversize": "larger than the cap of"}

    @pytest.mark.parametrize("kind", REASONS)
    @pytest.mark.parametrize("command", ["analyze", "generate", "compose-chain"])
    def test_exits_two_unread(self, command, kind, tiny_model, tmp_path):
        path = tmp_path / "in.mid"
        if kind == "fifo":
            os.mkfifo(path)
        elif kind == "directory":
            path.mkdir()
        else:
            with open(path, "wb") as fh:
                fh.truncate(BIG_MIDI_BYTES)  # sparse: no bytes written
        argv = {
            "analyze": ["analyze", "--in", str(path)],
            "generate": ["generate", "--model", str(tiny_model / "model.ttv"),
                         "--vectors", str(tiny_model / "vectors.json"),
                         "--seed-midi", str(path),
                         "--out", str(tmp_path / "g.mid")],
            "compose-chain": [
                "compose-chain", "--model", str(tiny_model / "model.ttv"),
                "--vectors", str(tiny_model / "vectors.json"),
                "--plan", str(tiny_model / "plan.json"),
                "--seed-midi", str(path), "--out", str(tmp_path / "c.mid")],
        }[command]
        code, out, err = run_cli_probe(argv)
        assert code == 2, err
        assert err.startswith("error: ") and self.REASONS[kind] in err, err
        assert str(path) in err
        # the peak of a read of the whole file would pass 128 MiB
        assert int(out.splitlines()[-1]) * 1024 < BIG_MIDI_BYTES * 3 // 4
        assert not (tmp_path / "g.mid").exists()
        assert not (tmp_path / "c.mid").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
class TestInputFilesReadAsRegular:
    """Every other input file is read as a MIDI file is: a missing path, a
    directory or a FIFO exits 2 with an ``error:`` line naming it, unread
    and without blocking."""

    @staticmethod
    def argv(flag, path, tiny, out):
        model, vectors = str(tiny / "model.ttv"), str(tiny / "vectors.json")
        dataset = str(tiny / "data.ttd")
        return {
            "--dataset": ["train", "--dataset", path, "--out", out],
            "--config": ["train", "--dataset", dataset, "--config", path,
                         "--out", out],
            "--model": ["vectors", "--model", path, "--dataset", dataset,
                        "--out", out],
            "--vectors": ["generate", "--model", model, "--vectors", path,
                          "--out", out],
            "--plan": ["compose-chain", "--model", model, "--vectors", vectors,
                       "--plan", path, "--out", out],
            "--template": ["shape-vector", "--model", model, "--dataset",
                           dataset, "--template", path, "--out", out],
        }[flag]

    @staticmethod
    def make(kind, path):
        if kind == "fifo":
            os.mkfifo(path)
        elif kind == "directory":
            path.mkdir()

    def check(self, argv, path, kind, out):
        code, _, err = run_cli_probe(argv)
        assert code == 2, err
        assert err.startswith("error: ") and str(path) in err, err
        assert "internal error" not in err and "Traceback" not in err
        if kind != "missing":
            assert "not a regular file" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "fifo"])
    @pytest.mark.parametrize("flag", ["--dataset", "--config", "--model",
                                      "--vectors", "--plan", "--template"])
    def test_exits_two_unread(self, flag, kind, tiny_model, tmp_path):
        path = tmp_path / "input"
        self.make(kind, path)
        out = tmp_path / "out"
        self.check(self.argv(flag, str(path), tiny_model, str(out)), path, kind, out)

    @pytest.mark.parametrize("text", [b"\xff\xfe\xfa", b"[" * 100_000],
                             ids=["not-utf8", "deep"])
    @pytest.mark.parametrize("flag", ["--config", "--vectors", "--plan",
                                      "--template"])
    def test_json_that_does_not_decode_exits_two(self, flag, text, tiny_model,
                                                 tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main(self.argv(flag, str(path), tiny_model, str(out))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(path) in err, err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_dataset_sidecar(self, kind, tiny_model, tmp_path):
        dataset = tmp_path / "data.ttd"
        dataset.write_bytes((tiny_model / "data.ttd").read_bytes())
        path = tmp_path / "data.ttd.json"
        self.make(kind, path)
        out = tmp_path / "out"
        self.check(self.argv("--dataset", str(dataset), tiny_model, str(out)),
                   path, kind, out)


SUBCOMMANDS = ("analyze", "preprocess", "train", "vectors", "shape-vector",
               "generate", "compose-chain", "eval", "gradcheck")
SEEDED = ("train", "generate", "compose-chain", "eval", "gradcheck")


class TestFlagsOnlyWhereRead:
    """``--rng-seed`` goes only to the subcommands that read it and
    ``--config`` only to ``train``; anywhere else argparse refuses it."""

    REQUIRED = {
        "analyze": ["--in", "i"], "preprocess": ["--in", "i", "--out", "o"],
        "train": ["--dataset", "d", "--out", "o"],
        "vectors": ["--model", "m", "--dataset", "d", "--out", "o"],
        "shape-vector": ["--model", "m", "--dataset", "d", "--out", "o"],
        "generate": ["--model", "m", "--vectors", "v", "--out", "o"],
        "compose-chain": ["--model", "m", "--vectors", "v", "--out", "o",
                          "--plan", "p"],
        "eval": ["--model", "m", "--vectors", "v", "--out", "o",
                 "--experiment", "direction"],
        "gradcheck": []}

    @pytest.mark.parametrize("flag", ["--rng-seed", "--config"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_flag_parses_only_where_read(self, flag, command, capsys):
        argv = [command, *self.REQUIRED[command], "--verbose", "--json",
                flag, "5"]
        if command in (SEEDED if flag == "--rng-seed" else ("train",)):
            args = ttvae.cli.build_parser().parse_args(argv)
            assert getattr(args, flag[2:].replace("-", "_")) in (5, "5")
            return
        with pytest.raises(SystemExit) as exit_info:
            ttvae.cli.build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_analyze_refuses_them_before_any_work(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--in", str(corpus_dir / "song00.mid"),
                  "--config", "/nonexistent.json", "--rng-seed", "5"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestIntegerFlagsCheckedOnParse:
    """A negative ``--rng-seed``, a ``--target-n`` below 1, a gradcheck
    ``--samples`` below 1 and a ``--step`` that is not a finite positive
    number are refused by argparse, on every subcommand that takes the flag,
    before any work."""

    def _refused(self, argv, capsys, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " + message in err
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("command", SEEDED)
    def test_negative_rng_seed(self, command, capsys):
        self._refused([command, "--rng-seed", "-1"], capsys,
                      "--rng-seed: must be >= 0, got -1")

    @pytest.mark.parametrize("command", ["vectors", "shape-vector"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_target_n_below_one(self, command, value, capsys):
        self._refused([command, "--target-n", value], capsys,
                      f"--target-n: must be >= 1, got {value}")

    def test_non_integer_rng_seed(self, capsys):
        self._refused(["generate", "--rng-seed", "x"], capsys,
                      "--rng-seed: invalid integer value: 'x'")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_gradcheck_samples_below_one(self, value, capsys):
        self._refused(["gradcheck", "--samples", value], capsys,
                      f"--samples: must be >= 1, got {value}")

    @pytest.mark.parametrize("value", ["0", "-1e-4", "nan", "inf", "-inf", "x"])
    def test_gradcheck_step_not_finite_and_positive(self, value, capsys):
        self._refused(["gradcheck", f"--step={value}"], capsys,
                      f"--step: must be finite and > 0, got {value}")

    def test_zero_seed_and_one_per_class_still_parse(self):
        parser = ttvae.cli.build_parser()
        args = parser.parse_args(
            ["vectors", "--model", "m", "--dataset", "d", "--out", "o",
             "--target-n", "1"])
        assert args.target_n == 1
        args = parser.parse_args(
            ["eval", "--model", "m", "--vectors", "v", "--out", "o",
             "--experiment", "direction", "--rng-seed", "0"])
        assert args.rng_seed == 0
