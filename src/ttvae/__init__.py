"""Tonal-tension toolkit: spiral-array tension curves, a tension-predicting
recurrent VAE over melody+bass piano rolls, and latent-space tension editing.

The pieces compose in pipeline order: :mod:`ttvae.midi` and
:mod:`ttvae.corpus` turn MIDI files into 64x89 piano-roll fragments with
ground-truth tension curves (:mod:`ttvae.spiral`, :mod:`ttvae.tension`);
:mod:`ttvae.vae` trains the model; :mod:`ttvae.latent` extracts attribute
vectors from the latent space; :mod:`ttvae.evaluation` measures what scaled
vector edits do; :mod:`ttvae.generate` renders edited latents back to MIDI.
The ``ttv`` command line (:mod:`ttvae.cli`) drives all of it.
"""

import importlib

# Each exported name -> the submodule that defines it.  A name is looked up
# in its module on every access (PEP 562), so ``import ttvae`` loads no
# submodule, and an exported name always reads its module's current value.
_EXPORTS = {name: module for module, names in {
    "corpus": ("FragmentDataset", "Key", "Mode", "build_dataset",
               "load_dataset", "save_dataset"),
    "errors": ("TtvaeError",),
    "latent": ("AttributeVector", "ShapeTemplate", "VectorsFile",
               "apply_vector", "build_vectors"),
    "pianoroll": ("decode_roll", "encode_roll"),
    "spiral": ("Cloud", "SpelledPitch"),
    "tension": ("moving_average", "tension_curves"),
    "vae.checkpoint": ("load_checkpoint", "save_checkpoint"),
    "vae.config": ("ModelConfig",),
    "vae.network": ("TensionVae",),
    "vae.training": ("train",),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
