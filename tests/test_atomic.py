"""Artifact writes are atomic: a failed write leaves the old file as it was."""

import builtins

import numpy as np
import pytest

from helpers import random_window
from ttvae import atomic
from ttvae.atomic import atomic_write
from ttvae.corpus import Fragment, FragmentDataset, save_dataset
from ttvae.latent import AttributeVector, VectorsFile, save_vectors
from ttvae.pianoroll import encode_roll
from ttvae.vae import ModelConfig, TensionVae, save_checkpoint

CFG = ModelConfig(latent_dim=4, hidden=8, gru_layers=1, rng_seed=1)


def dataset(rng, n=3):
    return FragmentDataset(fragments=[
        Fragment(roll=encode_roll(random_window(rng)),
                 tensile=np.zeros(64, np.float32), diameter=np.ones(64, np.float32),
                 source_id=f"s{i}.mid", bar_offset=4 * i)
        for i in range(n)])


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
        broken.fragments[1].tensile = None  # fails after the first record
        with pytest.raises(AttributeError):
            save_dataset(broken, path)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_save_leaves_only_the_artifact(self, tmp_path, rng, kind):
        SAVERS[kind](tmp_path / f"out.{kind}", rng)
        expected = {f"out.{kind}"} | ({"out.dataset.json"} if kind == "dataset" else set())
        assert set(snapshot(tmp_path)) == expected
