"""The traced benchmark's span targets: ``perfbench/spans.py`` wraps program
functions by name, so deleting or renaming one breaks the traced run.

Some of them (``latent.attribute_vector``, ``evaluation.direction_sweep``
and ``level_sweep``) have no caller in ``src/`` and must stay.
``pianoroll.encode_roll``, which ``corpus.segment`` calls under the name
``corpus.encode_roll``, and ``training.evaluate_split``, which ``train``
calls, are checked with them.
"""

import importlib.util
from pathlib import Path

import numpy as np

from helpers import window
from ttvae import corpus, evaluation, latent, pianoroll, tension
from ttvae.pianoroll import encode_roll
from ttvae.vae import training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

UNCALLED = [(latent, "attribute_vector"), (evaluation, "direction_sweep"),
            (evaluation, "level_sweep")]
CALLED = [(pianoroll, "encode_roll"), (training, "evaluate_split")]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_switches_back():
    spans = load_spans()
    imported = [(corpus, "encode_roll"), (corpus, "tension_curves"),
                (evaluation, "tension_curves")]
    targets = UNCALLED + CALLED + [(tension, "tension_curves")] + imported
    originals = [getattr(module, name) for module, name in targets]
    tracer = spans.Tracer()
    switch = spans.install(tracer)
    try:
        for (module, name), original in zip(targets, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
        strain, diameter = corpus.tension_curves(encode_roll(*window()))
        assert np.array_equal(strain, np.zeros(64))
        assert [span[1] for span in tracer.spans] == ["tension.curves"]
    finally:
        switch(False)
    for (module, name), original in zip(targets, originals):
        assert getattr(module, name) is original
