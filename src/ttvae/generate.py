"""Seeded generation: decode a latent code, apply edits, render MIDI.

A seed latent comes either from sampling the prior or from encoding one
4-bar fragment of a seed MIDI file (posterior mean).  Edits are named
attribute vectors with scales, applied additively in order.  ``generate``
and ``compose_chain`` decode all their latents in one call, and the model
gives each row the bits it has in any call (for hidden and latent sizes up
to ``cores.ROW_EXACT_WIDTH``, on OpenBLAS's SkylakeX kernel, see
``TensionVae``): a sampled seed decodes as its row of ``ttv eval``, a MIDI
seed's code is its ``ttv vectors`` code.  On the Haswell kernel they may
differ in the last bits.  Every MIDI comes with a report of the predicted
and recomputed tension curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import MAX_SONG_BARS, read_midi_file, song_fragments
from .errors import InvalidInputError
from .evaluation import decode_hardened
from .latent import VectorsFile, apply_vector, check_compatibility
from .midi import MidiTrack, Score, parse_midi, write_midi
from .pianoroll import BARS_PER_FRAGMENT, decode_roll
from .vae.network import TensionVae, sample_latent

OUTPUT_BPM = 120.0
OUTPUT_VELOCITY = 80


@dataclass
class GenerationRequest:
    """Seed selection plus an ordered list of (vector name, scale) edits."""

    sample_seed: int | None = None
    seed_midi: Path | None = None
    fragment_index: int = 0
    edits: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self):
        if (self.sample_seed is None) == (self.seed_midi is None):
            raise InvalidInputError(
                "exactly one of sample_seed or seed_midi must be given")


@dataclass
class ChainSection:
    bars: int
    edits: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self):
        # bool passes isinstance(int) but is below 4
        if not isinstance(self.bars, int) or self.bars < 4 or self.bars % 4:
            raise InvalidInputError(
                f"section length must be a positive integer multiple of 4 "
                f"bars, got {self.bars!r}")
        for name, scale in self.edits:
            if not math.isfinite(scale):
                raise InvalidInputError(
                    f"section edit {name!r} has non-finite scale {scale!r}")


@dataclass
class ChainPlan:
    sections: list[ChainSection]

    def __post_init__(self):
        if not self.sections:
            raise InvalidInputError("chain plan needs at least one section")
        if self.total_bars() > MAX_SONG_BARS:
            raise InvalidInputError(
                f"chain plan runs {self.total_bars()} bars, past the cap of "
                f"{MAX_SONG_BARS}")

    @classmethod
    def from_dict(cls, data: dict) -> "ChainPlan":
        try:
            sections = [ChainSection(bars=s["bars"],
                                     edits=[(str(n), float(a))
                                            for n, a in s.get("edits", [])])
                        for s in data["sections"]]
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidInputError(f"malformed chain plan: {err}") from err
        return cls(sections=sections)

    def total_bars(self) -> int:
        return sum(s.bars for s in self.sections)


def seed_latent(model: TensionVae, request: GenerationRequest) -> tuple[np.ndarray, dict]:
    """Resolve the request's seed to a latent code plus provenance info."""
    if request.sample_seed is not None:
        z = sample_latent(1, model.cfg.latent_dim,
                          request.sample_seed)[0].astype(model.dtype)
        return z, {"kind": "sampled", "rng_seed": request.sample_seed}
    score = parse_midi(read_midi_file(request.seed_midi))
    fragments, _, _ = song_fragments(score)
    if not fragments:
        raise InvalidInputError(
            f"{request.seed_midi} yields no valid 4-bar fragment")
    if not 0 <= request.fragment_index < len(fragments):
        raise InvalidInputError(
            f"fragment index {request.fragment_index} out of range "
            f"(file has {len(fragments)} fragments)")
    z = model.encode(fragments.rolls[[request.fragment_index]]).mu[0]
    return z, {"kind": "seed_midi", "path": str(request.seed_midi),
               "fragment_index": request.fragment_index,
               "bar_offset": fragments.bar_offsets[request.fragment_index]}


def apply_edits(z: np.ndarray, vectors: VectorsFile,
                edits: list[tuple[str, float]]) -> np.ndarray:
    for name, scale in edits:
        z = apply_vector(z, vectors.get(name), scale)
    return z


def _line_track(name: str, channel: int, pitch: np.ndarray,
                onset: np.ndarray) -> MidiTrack:
    """One per-step line, pitch (-1 where silent) and onset flags, as note
    columns.  A note starts where a pitch sounds after silence or after
    another pitch, or on an onset flag; it ends at the next start or rest."""
    sounding = pitch >= 0
    starts = sounding & (onset | (pitch != np.append(-1, pitch[:-1])))
    edges = np.append(np.flatnonzero(starts | ~sounding), len(pitch))
    notes = starts[edges[:-1]]
    begin, end = edges[:-1][notes], edges[1:][notes]
    return MidiTrack(name, channel, pitch[begin].astype(np.int64), begin / 4.0,
                     (end - begin) / 4.0,
                     np.full(len(begin), OUTPUT_VELOCITY, np.int64))


def steps_to_score(pitch: np.ndarray, onset: np.ndarray,
                   markers: list[tuple[float, str]] = ()) -> Score:
    """Render the melody and bass lines of :func:`ttvae.pianoroll.decode_roll`,
    (2, ..., 64) each and read in order as one run of steps, at 120 BPM in
    4/4."""
    pitch, onset = pitch.reshape(2, -1), onset.reshape(2, -1)
    return Score(
        tracks=[_line_track("melody", 0, pitch[0], onset[0]),
                _line_track("bass", 1, pitch[1], onset[1])],
        tempos=[(0.0, OUTPUT_BPM)],
        meters=[(0.0, 4, 4)],
        markers=list(markers),
    )


def _listed(edits: list[tuple[str, float]]) -> list:
    return [[name, float(scale)] for name, scale in edits]


@dataclass
class GenerationResult:
    midi_bytes: bytes
    report: dict


def _decode_edits(model: TensionVae, vectors: VectorsFile,
                  request: GenerationRequest, edit_lists: list,
                  checkpoint_id: str):
    """Resolve the request's seed, apply each edit list on top of the
    previous latent and decode every latent in one ``decode_hardened`` call:
    (report header, hardened rolls, each latent's curve report)."""
    check_compatibility(model, vectors, checkpoint_id)
    z, seed_info = seed_latent(model, request)
    latents = []
    for edits in edit_lists:
        z = apply_edits(z, vectors, edits)
        latents.append(z)
    rolls, *curves = decode_hardened(model, np.stack(latents))
    names = ("predicted_tensile", "predicted_diameter", "recomputed_tensile",
             "recomputed_diameter")
    reports = [{name: [round(float(v), 6) for v in column[row]]
                for name, column in zip(names, curves)}
               for row in range(len(latents))]
    header = {"seed": seed_info, "edits": _listed(request.edits),
              "checkpoint_id": checkpoint_id}
    return header, rolls, reports


def generate(model: TensionVae, vectors: VectorsFile,
             request: GenerationRequest, checkpoint_id: str = "") -> GenerationResult:
    """Decode the seed and its edit into a 4-bar MIDI of the edit, with the
    curves of both in the report."""
    report, rolls, (original, modified) = _decode_edits(
        model, vectors, request, [[], request.edits], checkpoint_id)
    report.update(original=original, modified=modified)
    return GenerationResult(
        midi_bytes=write_midi(steps_to_score(*decode_roll(rolls[1]))),
        report=report)


def compose_chain(model: TensionVae, vectors: VectorsFile, plan: ChainPlan,
                  request: GenerationRequest, checkpoint_id: str = "") -> GenerationResult:
    """Concatenate 4-bar blocks decoded from cumulatively edited seeds.

    The request's edits apply to the seed before section 1, and every
    section re-edits the previous section's latent (edits accumulate).  Each
    section's decoded block repeats for the section's length, and the blocks
    are read block after block; each block's step 0 starts the notes
    sounding there, so no note runs across a block boundary.  Section starts
    carry MIDI markers.
    """
    sections = plan.sections
    report, rolls, curves = _decode_edits(
        model, vectors, request,
        [request.edits + sections[0].edits] + [s.edits for s in sections[1:]],
        checkpoint_id)
    starts = np.cumsum([0] + [s.bars for s in sections]).tolist()
    markers = [(4.0 * bar, f"section {i}") for i, bar in enumerate(starts[:-1], 1)]
    rolls = np.repeat(rolls, [s.bars // BARS_PER_FRAGMENT for s in sections],
                      axis=0)
    report.update(total_bars=plan.total_bars(), sections=[
        {"section": number, "bars": section.bars,
         "edits": _listed(section.edits), **section_curves}
        for number, (section, section_curves)
        in enumerate(zip(sections, curves), start=1)])
    score = steps_to_score(*decode_roll(rolls), markers)
    return GenerationResult(midi_bytes=write_midi(score), report=report)
