"""Artifact writes are atomic: a failed write leaves the old file as it was."""

import builtins
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import make_dataset, random_window
from toy import midi_track
from ttvae import atomic, evaluation
from ttvae.atomic import atomic_write
from ttvae.cli import main
from ttvae.corpus import save_dataset
from ttvae.errors import InvalidInputError
from ttvae.latent import AttributeVector, VectorsFile, save_vectors
from ttvae.midi import Score, write_midi
from ttvae.pianoroll import encode_roll
from ttvae.vae import (
    LedgerRow,
    LossBreakdown,
    ModelConfig,
    TensionVae,
    save_checkpoint,
    write_ledger,
)

CFG = ModelConfig(latent_dim=4, hidden=8, gru_layers=1, rng_seed=1)


def dataset(rng, n=3):
    return make_dataset([encode_roll(*random_window(rng)) for _ in range(n)],
                        np.zeros((n, 64)), np.ones((n, 64)),
                        source_ids=[f"s{i}.mid" for i in range(n)],
                        bar_offsets=[4 * i for i in range(n)])


def vectors():
    return VectorsFile(latent_dim=2, checkpoint_id="abc", vectors={
        "v": AttributeVector(name="v", values=np.array([1.0, -1.0]),
                             class_sizes=(3, 3))})


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class _HalfWrite:
    """A file that writes half of its first chunk and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


@pytest.fixture
def failing_writes(monkeypatch):
    monkeypatch.setattr(atomic, "open",
                        lambda path, mode: _HalfWrite(builtins.open(path, mode)),
                        raising=False)


SAVERS = {
    "dataset": lambda path, rng: save_dataset(dataset(rng), path),
    "checkpoint": lambda path, rng: save_checkpoint(
        path, TensionVae.initialize(CFG).params, CFG),
    "vectors": lambda path, rng: save_vectors(path, vectors()),
}


class TestAtomicWrite:
    def test_exception_mid_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old contents")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write(b"new")
                raise RuntimeError("writer failed")
        assert snapshot(tmp_path) == {"artifact.bin": b"old contents"}

    def test_success_replaces_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old contents")
        with atomic_write(target) as fh:
            fh.write(b"new")
        assert snapshot(tmp_path) == {"artifact.bin": b"new"}

    def test_mode_is_what_open_gives(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"x")
        with atomic_write(tmp_path / "atomic") as fh:
            fh.write(b"x")
        assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_failed_save_keeps_every_old_file(self, tmp_path, rng, kind,
                                              failing_writes):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"previous artifact")
        if kind == "dataset":
            path.with_name(path.name + ".json").write_bytes(b"previous sidecar")
        before = snapshot(tmp_path)
        with pytest.raises(OSError):
            SAVERS[kind](path, rng)
        assert snapshot(tmp_path) == before

    def test_dataset_failing_midway_keeps_old_file(self, tmp_path, rng):
        path = tmp_path / "out.ds"
        save_dataset(dataset(rng), path)
        before = snapshot(tmp_path)
        broken = dataset(rng)
        broken.tensile = np.zeros((3, 63), np.float32)  # fails after the header
        with pytest.raises(ValueError):
            save_dataset(broken, path)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("where", ["missing directory", "directory",
                                       "under a file"])
    def test_unwritable_path_is_invalid_input(self, tmp_path, where):
        (tmp_path / "afile").write_bytes(b"kept")
        (tmp_path / "adir").mkdir()
        target = {"missing directory": tmp_path / "nodir" / "x",
                  "directory": tmp_path / "adir",
                  "under a file": tmp_path / "afile" / "x"}[where]
        with pytest.raises(InvalidInputError, match=str(target)):
            with atomic_write(target) as fh:
                fh.write(b"new")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]
        assert (tmp_path / "afile").read_bytes() == b"kept"

    def test_full_disk_while_writing_stays_an_os_error(self, tmp_path):
        target = tmp_path / "artifact.bin"
        with pytest.raises(OSError) as raised:
            with atomic_write(target) as fh:
                fh.write(b"new")
                raise OSError(errno.ENOSPC, "No space left on device")
        assert not isinstance(raised.value, InvalidInputError)
        assert snapshot(tmp_path) == {}

    @pytest.mark.parametrize("where", ["file", "under a file"])
    def test_output_dir_that_cannot_be_a_directory(self, tmp_path, where):
        (tmp_path / "afile").write_bytes(b"kept")
        target = tmp_path / "afile" / ("sub" if where == "under a file" else "")
        with pytest.raises(InvalidInputError, match=str(target)):
            atomic.output_dir(target)
        assert snapshot(tmp_path) == {"afile": b"kept"}

    def test_output_dir_makes_parents(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert atomic.output_dir(target) == target and target.is_dir()
        assert atomic.output_dir(target) == target

    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_save_leaves_only_the_artifact(self, tmp_path, rng, kind):
        SAVERS[kind](tmp_path / f"out.{kind}", rng)
        expected = {f"out.{kind}"} | ({"out.dataset.json"} if kind == "dataset" else set())
        assert set(snapshot(tmp_path)) == expected


def sweep_report():
    row = evaluation.SweepRow(scale=2.0, n=4, ratio_recomputed=0.5, ratio_predicted=0.25,
                              melody_pitch_accuracy=1.0, bass_pitch_accuracy=0.75,
                              melody_rhythm_fscore=0.5, bass_rhythm_fscore=1.0)
    return evaluation.SweepReport(vector_name="v", ratio_kind="upward",
                                  measured_curve="tensile", scales=[2.0], rows=[row],
                                  thresholds={}, n=4, rng_seed=0)


def interaction_report():
    cell = {"tensile": 0.5, "diameter": 0.25}
    return evaluation.InteractionReport(
        vector_names=("a", "b"), ratio_kind="high", scales=[0.0, 1.0],
        rows={"a": {0.0: cell, 1.0: cell}, "b": {0.0: cell, 1.0: cell}},
        cross_effect={}, n=4, rng_seed=0)


def song_file(directory):
    melody = [(60 + i % 5, float(i), 1.0) for i in range(16)]
    bass = [(36, 2.0 * i, 2.0) for i in range(8)]
    path = directory / "song.mid"
    path.write_bytes(write_midi(Score(tracks=[
        midi_track(melody, "melody", 0), midi_track(bass, "bass", 1)])))
    return path


def model_files(directory):
    """An untrained checkpoint and a vectors file that fits it."""
    cfg = ModelConfig(latent_dim=2, hidden=8, gru_layers=1, rng_seed=1)
    model = directory / "model.ttv"
    ident = save_checkpoint(model, TensionVae.initialize(cfg).params, cfg)
    fitting = vectors()
    fitting.checkpoint_id = ident
    save_vectors(directory / "vectors.json", fitting)
    return ["--model", str(model), "--vectors", str(directory / "vectors.json")]


def run_cli(command):
    def run(directory, out):
        if command == "analyze":
            argv = ["analyze", "--in", str(song_file(directory))]
        else:
            argv = [command] + model_files(directory)
        if command == "compose-chain":
            plan = directory / "plan.json"
            plan.write_text(json.dumps({"sections": [{"bars": 4, "edits": [["v", 1.0]]}]}))
            argv += ["--plan", str(plan)]
        return lambda: main(argv + ["--out", str(directory / out)])
    return run


LOSSES = LossBreakdown(*(0.125 * i for i in range(8)))

# name -> (artifact file names, setup(directory, out) -> a call that writes them)
WRITERS = {
    "ledger": (["ledger.csv"], lambda d, out: lambda: write_ledger(
        d / out, [LedgerRow(1, "train", LOSSES), LedgerRow(1, "val", LOSSES)])),
    "sweep csv": (["sweep.csv"], lambda d, out: lambda: evaluation.write_sweep_csv(
        d / out, sweep_report())),
    "json": (["summary.json"], lambda d, out: lambda: atomic.write_json(
        d / out, evaluation.sweep_summary(sweep_report()))),
    "interaction csv": (["grid.csv"], lambda d, out: lambda: evaluation.write_interaction_csv(
        d / out, interaction_report())),
    "histogram csv": (["hist.csv"], lambda d, out: lambda: evaluation.write_histogram_csv(
        d / out, np.arange(12), np.arange(12)[::-1])),
    "svg": (["chart.svg"], lambda d, out: lambda: evaluation.write_ratio_chart_svg(
        d / out, sweep_report())),
    "analyze": (["curves.csv"], run_cli("analyze")),
    "generate": (["gen.mid", "gen.mid.tension.json"], run_cli("generate")),
    "compose-chain": (["chain.mid", "chain.mid.tension.json"], run_cli("compose-chain")),
}


def fail_writes_to(monkeypatch, name):
    """Make the atomic write of the file ``name`` fail halfway; others succeed."""
    def fake_open(path, mode):
        fh = builtins.open(path, mode)
        return _HalfWrite(fh) if Path(path).name.startswith(f".{name}.") else fh
    monkeypatch.setattr(atomic, "open", fake_open, raising=False)


class TestAtomicWriters:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_writes_the_artifacts(self, tmp_path, kind):
        names, setup = WRITERS[kind]
        write = setup(tmp_path, names[0])
        before = set(snapshot(tmp_path))
        assert write() in (None, 0)
        assert set(snapshot(tmp_path)) - before == set(names)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, kind):
        names, setup = WRITERS[kind]
        for failing in names:
            directory = tmp_path / failing
            directory.mkdir()
            write = setup(directory, names[0])
            for name in names:
                (directory / name).write_bytes(b"previous " + name.encode())
            before = snapshot(directory)
            with monkeypatch.context() as patch:
                fail_writes_to(patch, failing)
                try:
                    assert write() == 1  # a command reports an internal error
                except OSError:
                    pass  # a library writer raises
            after = snapshot(directory)
            assert after[failing] == before[failing]
            assert set(after) == set(before)


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_raises_before_writing(self, tmp_path, value):
        path = tmp_path / "report.json"
        path.write_bytes(b"previous")
        with pytest.raises(ValueError):
            atomic.write_json(path, {"ratio": [0.5, value]})
        assert snapshot(tmp_path) == {"report.json": b"previous"}
