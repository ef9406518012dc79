"""Training mechanics: splits, determinism, early stopping, abort path."""

import numpy as np
import pytest

from helpers import make_dataset, random_roll
from ttvae.errors import InvalidInputError, NumericFailureError
from ttvae.vae import ModelConfig, load_checkpoint, train
from ttvae.vae.training import Adam, split_dataset, training_split, write_ledger

TINY_CFG = ModelConfig(latent_dim=4, hidden=12, gru_layers=1, batch_size=4,
                       learning_rate=0.002, beta_step=1e-4, max_epochs=3,
                       early_stop_patience=50, rng_seed=11)


def small_dataset(rng, n=12):
    rolls, tensile, diameter = [], [], []
    for _ in range(n):
        rolls.append(random_roll(rng))
        tensile.append(rng.uniform(0, 2, 64))
        diameter.append(rng.uniform(0, 2, 64))
    return make_dataset(rolls, tensile, diameter,
                        source_ids=[f"s{i}" for i in range(n)])


class TestSplit:
    def test_sizes_for_32(self):
        rng = np.random.default_rng(0)
        splits = split_dataset(32, (0.8, 0.1, 0.1), rng)
        assert len(splits["train"]) == 25
        assert len(splits["val"]) == 3
        assert len(splits["test"]) == 4

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        splits = split_dataset(50, (0.8, 0.1, 0.1), rng)
        merged = np.concatenate([splits["train"], splits["val"], splits["test"]])
        assert sorted(merged.tolist()) == list(range(50))

    def test_minimum_ten(self):
        with pytest.raises(InvalidInputError):
            split_dataset(9, (0.8, 0.1, 0.1), np.random.default_rng(0))

    def test_ten_keeps_every_split_nonempty(self):
        splits = split_dataset(10, (0.8, 0.1, 0.1), np.random.default_rng(0))
        assert all(len(v) >= 1 for v in splits.values())

    def test_training_split_matches_train(self, rng):
        ds = small_dataset(rng)
        result = train(ds, TINY_CFG)
        rederived = training_split(TINY_CFG, len(ds))
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(result.split_indices[name],
                                          rederived[name])


class TestAdam:
    def test_single_step_matches_closed_form(self):
        params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        grads = {"w": np.array([0.5, -0.5], dtype=np.float32)}
        opt = Adam(params, learning_rate=0.1)
        opt.step(params, grads)
        # After one step the bias-corrected update is lr * sign-ish move.
        expected = np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -0.5]) / (
            np.abs(np.array([0.5, -0.5])) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-6)

    def test_update_shrinks_simple_quadratic(self):
        params = {"w": np.array([5.0], dtype=np.float32)}
        opt = Adam(params, learning_rate=0.1)
        for _ in range(200):
            opt.step(params, {"w": 2 * params["w"]})
        assert abs(params["w"][0]) < 0.5


class TestTrain:
    def test_ledger_structure(self, rng):
        ds = small_dataset(rng)
        result = train(ds, TINY_CFG)
        splits_seen = [(row.epoch, row.split) for row in result.ledger]
        assert (1, "train") in splits_seen and (1, "val") in splits_seen
        assert splits_seen[-1][1] == "test"
        for row in result.ledger:
            assert np.isfinite(row.losses.total)

    def test_total_invariant_per_row(self, rng):
        ds = small_dataset(rng)
        result = train(ds, TINY_CFG)
        for row in result.ledger:
            lb = row.losses
            expected = (lb.melody_pitch + lb.melody_rhythm + lb.bass_pitch
                        + lb.bass_rhythm + lb.tensile + lb.diameter
                        + lb.beta * lb.kl)
            assert lb.total == pytest.approx(expected, rel=1e-12)

    def test_same_seed_reproduces_everything(self, rng, tmp_path):
        ds = small_dataset(rng)
        r1 = train(ds, TINY_CFG, out_dir=tmp_path / "a")
        r2 = train(ds, TINY_CFG, out_dir=tmp_path / "b")
        assert (tmp_path / "a/ledger.csv").read_bytes() \
            == (tmp_path / "b/ledger.csv").read_bytes()
        assert (tmp_path / "a/checkpoint.ttv").read_bytes() \
            == (tmp_path / "b/checkpoint.ttv").read_bytes()

    def test_different_seed_differs(self, rng):
        ds = small_dataset(rng)
        other = ModelConfig.from_dict(dict(TINY_CFG.to_dict(), rng_seed=99))
        r1 = train(ds, TINY_CFG)
        r2 = train(ds, other)
        assert r1.ledger[0].losses.total != r2.ledger[0].losses.total

    def test_checkpoint_loads_back(self, rng, tmp_path):
        ds = small_dataset(rng)
        result = train(ds, TINY_CFG, out_dir=tmp_path)
        ckpt = load_checkpoint(result.checkpoint_path)
        assert ckpt.config == TINY_CFG
        assert ckpt.schedule["global_batches"] == result.global_batches
        for name, tensor in result.params.items():
            np.testing.assert_array_equal(ckpt.params[name], tensor)

    def test_early_stopping_stops(self, rng):
        ds = small_dataset(rng)
        cfg = ModelConfig.from_dict(dict(
            TINY_CFG.to_dict(), max_epochs=60, early_stop_patience=2,
            learning_rate=0.3))  # large lr so validation degrades quickly
        result = train(ds, cfg)
        assert result.epochs_run < 60

    def test_too_small_dataset_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            train(small_dataset(rng, n=5), TINY_CFG)

    def test_nan_abort_saves_last_good(self, rng, tmp_path, monkeypatch):
        ds = small_dataset(rng)
        import ttvae.vae.training as train_module
        real = train_module.forward_backward
        calls = {"n": 0}

        def sabotaged(*args, **kwargs):
            breakdown, grads = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] >= 4:
                fields = {k: getattr(breakdown, k) for k in (
                    "melody_pitch", "melody_rhythm", "bass_pitch",
                    "bass_rhythm", "tensile", "diameter", "kl", "beta")}
                fields["melody_pitch"] = float("nan")
                return type(breakdown)(**fields), grads
            return breakdown, grads

        monkeypatch.setattr(train_module, "forward_backward", sabotaged)
        with pytest.raises(NumericFailureError) as err:
            train(ds, TINY_CFG, out_dir=tmp_path)
        assert err.value.checkpoint_path is not None
        assert (tmp_path / "last_good.ttv").exists()
        ckpt = load_checkpoint(tmp_path / "last_good.ttv")
        assert "aborted_at_epoch" in ckpt.schedule


class TestLedgerCsv:
    def test_columns_match_contract(self, rng, tmp_path):
        ds = small_dataset(rng)
        result = train(ds, TINY_CFG)
        path = tmp_path / "ledger.csv"
        write_ledger(path, result.ledger)
        header = path.read_text().splitlines()[0]
        assert header == ("epoch,split,melody_pitch,melody_rhythm,bass_pitch,"
                          "bass_rhythm,tensile,diameter,kl,beta,total")
