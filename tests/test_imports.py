"""Start-up loads only what the work calls: the lazy exports of ``ttvae``
and ``ttvae.vae``, and the modules each ``ttv`` subcommand loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toy import write_toy_corpus
import ttvae
import ttvae.vae
from ttvae import corpus
from ttvae.vae import training

SRC = str(Path(ttvae.__file__).resolve().parents[1])

# Modules that running the model, its vectors or its experiments needs.
HEAVY = ("ttvae.vae", "ttvae.latent", "ttvae.evaluation", "ttvae.generate",
         "ttvae.cores", "ttvae.cli")


def loaded_after(code: str) -> list[str]:
    """The ``ttvae`` modules a fresh interpreter holds after ``code``."""
    probe = (f"{code}\nimport sys\n"
             "print(__import__('json').dumps(sorted(m for m in sys.modules "
             "if m == 'ttvae' or m.startswith('ttvae.'))))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def heavy(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == h or m.startswith(h + ".") for h in HEAVY)]


class TestStartUp:
    def test_import_ttvae_loads_no_submodule(self):
        assert loaded_after("import ttvae") == ["ttvae"]

    def test_import_vae_loads_no_submodule(self):
        assert loaded_after("import ttvae.vae") == ["ttvae", "ttvae.vae"]

    def test_cli_loads_only_the_corpus_tree(self):
        assert heavy(loaded_after("import ttvae.cli")) == ["ttvae.cli"]

    def test_ingest_names_load_no_model(self):
        loaded = loaded_after(
            "from ttvae import build_dataset, load_dataset, save_dataset")
        assert heavy(loaded) == []

    def test_checkpoint_functions_load_no_network(self):
        loaded = loaded_after("from ttvae import load_checkpoint, save_checkpoint")
        assert heavy(loaded) == ["ttvae.vae", "ttvae.vae.checkpoint",
                                 "ttvae.vae.config"]

    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("midis")
        write_toy_corpus(directory)
        return directory

    def run_cli(self, argv) -> list[str]:
        return loaded_after(
            f"from ttvae.cli import main\nassert main({argv!r}) == 0")

    def test_preprocess_and_analyze_load_only_the_corpus_tree(
            self, corpus_dir, tmp_path):
        dataset = tmp_path / "toy.ds"
        assert heavy(self.run_cli(["preprocess", "--in", str(corpus_dir),
                                   "--out", str(dataset)])) == ["ttvae.cli"]
        assert heavy(self.run_cli(["analyze", "--in",
                                   str(corpus_dir / "song00.mid")])) \
            == ["ttvae.cli"]

    def test_train_loads_no_inference_or_gradcheck(self, corpus_dir, tmp_path):
        dataset = tmp_path / "toy.ds"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(latent_dim=4, hidden=8, gru_layers=1,
                                          batch_size=8, max_epochs=1)))
        assert heavy(self.run_cli(["preprocess", "--in", str(corpus_dir),
                                   "--out", str(dataset)])) == ["ttvae.cli"]
        loaded = self.run_cli(["train", "--dataset", str(dataset), "--config",
                               str(config), "--out", str(tmp_path / "m")])
        assert "ttvae.vae.training" in loaded
        assert [m for m in loaded if m in (
            "ttvae.latent", "ttvae.evaluation", "ttvae.generate",
            "ttvae.vae.gradcheck")] == []


    def test_vectors_and_shape_vector_load_no_training(self, corpus_dir, tmp_path):
        from ttvae.cli import main
        dataset, model = tmp_path / "toy.ds", tmp_path / "m"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(latent_dim=4, hidden=8, gru_layers=1,
                                          batch_size=8, max_epochs=1)))
        assert main(["preprocess", "--in", str(corpus_dir), "--out", str(dataset)]) == 0
        assert main(["train", "--dataset", str(dataset), "--config", str(config),
                     "--out", str(model)]) == 0
        common = ["--model", str(model / "checkpoint.ttv"), "--dataset", str(dataset)]
        for argv in (["vectors", *common, "--target-n", "2",
                      "--out", str(tmp_path / "v.json")],
                     ["shape-vector", *common, "--target-n", "2",
                      "--out", str(tmp_path / "s.json")]):
            loaded = loaded_after(
                f"from ttvae.cli import main\nassert main({argv!r}) == 0\n"
                "import sys\nassert 'csv' not in sys.modules")
            assert "ttvae.latent" in loaded
            assert [m for m in loaded if m in (
                "ttvae.vae.training", "ttvae.vae.losses", "ttvae.cores")] == []


@pytest.mark.parametrize("package", [ttvae, ttvae.vae], ids=lambda p: p.__name__)
class TestLazyExports:
    def test_names_are_the_defining_modules_objects(self, package):
        for name in package.__all__:
            module = importlib.import_module(
                f"{package.__name__}.{package._EXPORTS[name]}")
            value = getattr(package, name)
            assert value is getattr(module, name)
            if hasattr(value, "__module__"):
                assert value.__module__ == module.__name__, name

    def test_star_import(self, package):
        names = {}
        exec(f"from {package.__name__} import *", names)
        assert sorted(set(names) - {"__builtins__"}) == sorted(package.__all__)

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "_no_such_name")

    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_names_are_not_cached_in_the_package(self, package):
        for name in package.__all__:
            getattr(package, name)
        assert not set(package.__all__) & set(vars(package))


class TestExportsReadTheCurrentAttribute:
    def test_patched_corpus_function(self, monkeypatch):
        def build_dataset(*args):
            raise AssertionError("not called")

        monkeypatch.setattr(corpus, "build_dataset", build_dataset)
        assert ttvae.build_dataset is build_dataset
        from ttvae import build_dataset as imported
        assert imported is build_dataset

    def test_patched_training_function(self, monkeypatch):
        def train(*args):
            raise AssertionError("not called")

        monkeypatch.setattr(training, "train", train)
        assert ttvae.train is train
        assert ttvae.vae.train is train

    def test_submodules_still_import_by_name(self):
        from ttvae import evaluation
        from ttvae.vae import gradcheck
        assert evaluation is sys.modules["ttvae.evaluation"]
        assert gradcheck is sys.modules["ttvae.vae.gradcheck"]
