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

from .corpus import FragmentDataset, Key, Mode, build_dataset, load_dataset, save_dataset
from .errors import TtvaeError
from .latent import AttributeVector, ShapeTemplate, VectorsFile, apply_vector, build_vectors
from .pianoroll import decode_roll, encode_roll
from .spiral import Cloud, SpelledPitch
from .tension import moving_average, tension_curves
from .vae import ModelConfig, TensionVae, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AttributeVector", "Cloud", "FragmentDataset", "Key", "Mode",
    "ModelConfig", "ShapeTemplate", "SpelledPitch", "TensionVae",
    "TtvaeError", "VectorsFile",
    "apply_vector", "build_dataset", "build_vectors", "decode_roll",
    "encode_roll", "load_checkpoint", "load_dataset", "moving_average",
    "save_checkpoint", "save_dataset", "tension_curves", "train",
]
