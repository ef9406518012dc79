"""``ttv``: one entry point for the full pipeline.

Subcommands: analyze, preprocess, train, vectors, shape-vector, generate,
compose-chain, eval, gradcheck.  Exit codes: 0 on success (the requested
artifact was fully written), 1 for internal errors, 2 for invalid input.
All randomized subcommands are deterministic under a fixed ``--rng-seed``.
Each handler imports only the modules it runs, so a subcommand's start-up
loads only what that subcommand calls.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .atomic import check_output, json_text, output_dir, write_atomic, write_json
from .corpus import (
    build_dataset,
    load_dataset,
    read_json,
    read_midi_file,
    save_dataset,
    song_fragments,
)
from .errors import InvalidInputError, TtvaeError
from .midi import parse_midi

GRADCHECK_TOLERANCE = 1e-4


def _emit(args, payload: dict, lines: list[str]) -> None:
    """Print ``payload`` as one JSON object under ``--json``, else ``lines``."""
    sys.stdout.write(json_text(payload) if args.json
                     else "".join(f"{line}\n" for line in lines))


def _load_model(path, expected_config=None):
    from .vae import TensionVae, load_checkpoint
    ckpt = load_checkpoint(path, expected_config)
    return TensionVae(ckpt.config, ckpt.params), ckpt


def _fragment_csv(fragments, keys_line: str) -> str:
    lines = ["step,tensile_strain,cloud_diameter"]
    for i, bar_offset in enumerate(fragments.bar_offsets):
        lines.append(f"# fragment {i} (bars {bar_offset}-"
                     f"{bar_offset + 3}){keys_line}")
        for step in range(64):
            lines.append(f"{step},{fragments.tensile[i, step]:.6f},"
                         f"{fragments.diameter[i, step]:.6f}")
    return "\n".join(lines) + "\n"


def _outputs(path, suffix: str) -> tuple[Path, Path]:
    """``--out`` and the file written beside it, ``<out><suffix>``, both
    checked by :func:`check_output` before the command's work."""
    out = check_output(path)
    return out, check_output(out.with_name(out.name + suffix))


def cmd_analyze(args) -> int:
    if args.out:
        check_output(args.out)
    score = parse_midi(read_midi_file(args.infile))
    fragments, key, warnings = song_fragments(
        score, args.melody_track, args.bass_track)
    if not fragments:
        raise InvalidInputError(f"{args.infile} yields no 4-bar fragments")
    if args.json:
        text = json_text({
            "source": str(args.infile),
            "detected_key": str(key),
            "warnings": warnings,
            "fragments": [
                {
                    "bar_offset": bar_offset,
                    "tensile_strain": [round(float(v), 6) for v in tensile],
                    "cloud_diameter": [round(float(v), 6) for v in diameter],
                }
                for bar_offset, tensile, diameter in zip(
                    fragments.bar_offsets, fragments.tensile, fragments.diameter)
            ],
        })
    else:
        text = _fragment_csv(fragments, f" [detected key: {key}]")
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {len(fragments)} fragment(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_preprocess(args) -> int:
    _outputs(args.out, ".json")
    dataset = build_dataset(args.indir, args.melody_track, args.bass_track)
    save_dataset(dataset, args.out)
    songs = len(dataset.meta.get("original_keys", {}))
    skips = dataset.meta.get("skips", [])
    _emit(args, {"fragments": len(dataset), "songs": songs,
                 "skipped": len(skips), "dataset": str(args.out)},
          [f"{len(dataset)} fragments from {songs} songs ({len(skips)} "
           f"skipped) -> {args.out}"]
          + [f"  skipped {skip['file']}: {skip['reason']}" for skip in skips])
    return 0


def _config_from_args(args):
    from .vae import ModelConfig
    cfg = ModelConfig.from_json_file(args.config) if args.config \
        else ModelConfig()
    if args.rng_seed is not None:
        cfg = ModelConfig.from_dict(dict(cfg.to_dict(), rng_seed=args.rng_seed))
    return cfg


def cmd_train(args) -> int:
    from .vae import train
    cfg = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    progress = None
    if args.verbose:
        progress = lambda epoch, tr, val: print(
            f"epoch {epoch}: train total {tr.total:.4f}, "
            f"val total {val.total:.4f}", flush=True)
    result = train(dataset, cfg, out_dir=args.out, progress=progress)
    test_rows = [r for r in result.ledger if r.split == "test"]
    _emit(args, {"checkpoint": str(result.checkpoint_path),
                 "checkpoint_id": result.checkpoint_id,
                 "ledger": str(result.ledger_path),
                 "epochs_run": result.epochs_run,
                 "best_epoch": result.best_epoch,
                 "global_batches": result.global_batches},
          [f"trained {result.epochs_run} epochs (best {result.best_epoch}) "
           f"-> {result.checkpoint_path}"]
          + [f"test total loss: {r.losses.total:.4f}" for r in test_rows[-1:]])
    return 0


def _vectors_from_split(args, model, ckpt, kinds: list[str], templates=None):
    """``build_vectors`` on the ``--dataset`` fragments of the checkpoint's
    training split: the steps ``vectors`` and ``shape-vector`` share."""
    from .latent import build_vectors
    from .vae.config import training_split
    dataset = load_dataset(args.dataset)
    restrict = training_split(ckpt.config, len(dataset))["train"].tolist()
    return build_vectors(model, dataset, kinds=kinds, target_n=args.target_n,
                         restrict_ids=restrict, templates=templates,
                         checkpoint_id=ckpt.ident)


def cmd_vectors(args) -> int:
    from .latent import STANDARD_KINDS, save_vectors
    check_output(args.out)
    kinds = list(STANDARD_KINDS) if args.kinds == "all" \
        else [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise InvalidInputError(
            f"--kinds names no vector kind; give 'all' or some of "
            f"{list(STANDARD_KINDS)}")
    unknown = [k for k in kinds if k not in STANDARD_KINDS]
    if unknown:
        raise InvalidInputError(
            f"unknown vector kinds {unknown}; choose from {list(STANDARD_KINDS)}")
    model, ckpt = _load_model(args.model)
    vectors_file = _vectors_from_split(args, model, ckpt, kinds)
    save_vectors(args.out, vectors_file)
    _emit(args, {"vectors": sorted(vectors_file.vectors), "out": str(args.out),
                 "checkpoint_id": ckpt.ident},
          [f"{name}: classes {vector.class_sizes}, "
           f"thresholds {vector.effective_thresholds}"
           for name, vector in sorted(vectors_file.vectors.items())]
          + [f"wrote {args.out}"])
    return 0


def _load_template(args):
    from .latent import ShapeTemplate, triangle_template
    if args.template == "triangle":
        return triangle_template(args.peak_step)
    path = Path(args.template)
    if not path.exists():
        raise InvalidInputError(
            f"template must be 'triangle' or a JSON file of 64 values, "
            f"got {args.template!r}")
    values = read_json(path, "template")
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise InvalidInputError(f"template {path} must be a JSON list of numbers")
    return ShapeTemplate(path.stem, values)


def cmd_shape_vector(args) -> int:
    from .latent import check_compatibility, load_vectors, save_vectors
    out = check_output(args.out)
    model, ckpt = _load_model(args.model)
    # An existing --out gains the vector, and only if it is this model's.
    existing = load_vectors(out) if out.exists() else None
    if existing is not None:
        check_compatibility(model, existing, ckpt.ident)
    template = _load_template(args)
    name = args.name or f"shape_{template.name}"
    kind = f"shape:{name}"
    built = _vectors_from_split(args, model, ckpt, [kind], {kind: template})
    vector = built.vectors.pop(kind)
    vector.name = name
    kept = built if existing is None else existing
    kept.vectors[name] = vector
    save_vectors(out, kept)
    _emit(args, {"vector": name, "out": str(out),
                 "class_sizes": list(vector.class_sizes)},
          [f"wrote shape vector {name!r} (classes {vector.class_sizes}) to {out}"])
    return 0


def _finite(text: str) -> float:
    """``float(text)``; a non-finite value raises ValueError too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_edits(pairs: list[str]) -> list[tuple[str, float]]:
    edits = []
    for item in pairs or []:
        if "=" not in item:
            raise InvalidInputError(
                f"--edit expects NAME=SCALE, got {item!r}")
        name, _, scale = item.partition("=")
        try:
            edits.append((name.strip(), _finite(scale)))
        except ValueError as err:
            raise InvalidInputError(f"bad edit scale in {item!r}") from err
    return edits


def _request_from_args(args):
    from .generate import GenerationRequest
    if args.seed_midi:
        return GenerationRequest(seed_midi=Path(args.seed_midi),
                                 fragment_index=args.fragment_index,
                                 edits=_parse_edits(args.edit))
    return GenerationRequest(sample_seed=args.rng_seed or 0,
                             edits=_parse_edits(args.edit))


def cmd_generate(args) -> int:
    """``generate``, and ``compose-chain``, which also takes a ``--plan``."""
    from .generate import ChainPlan, compose_chain, generate
    from .latent import load_vectors
    out, report_path = _outputs(args.out, ".tension.json")
    model, ckpt = _load_model(args.model)
    vectors = load_vectors(args.vectors)
    request = _request_from_args(args)
    if args.command == "compose-chain":
        plan = ChainPlan.from_dict(read_json(args.plan, "plan"))
        result = compose_chain(model, vectors, plan, request,
                               checkpoint_id=ckpt.ident)
        summary = {"total_bars": result.report["total_bars"]}
        message = f"wrote {summary['total_bars']}-bar chain to {out}"
    else:
        result = generate(model, vectors, request, checkpoint_id=ckpt.ident)
        summary = {"edits": result.report["edits"]}
        message = f"wrote {out} and {report_path}"
    write_atomic(out, result.midi_bytes)
    write_json(report_path, result.report)
    _emit(args, {"midi": str(out), "report": str(report_path), **summary},
          [message])
    return 0


def _parse_scales(text: str | None, default) -> tuple[float, ...]:
    if not text:
        return tuple(default)
    try:
        return tuple(_finite(s) for s in text.split(","))
    except ValueError as err:
        raise InvalidInputError(f"bad --scales value {text!r}") from err


# The sweep experiments, each also a pair of the interaction experiment:
# experiment -> (vector kinds in ``latent``, ratio kind, default scales in
# ``evaluation``), by name, so that building the parser imports neither.
_SWEEPS = {
    "direction": ("DIRECTION_KINDS", "upward", "DEFAULT_DIRECTION_SCALES"),
    "level": ("LEVEL_KINDS", "high", "DEFAULT_LEVEL_SCALES"),
}


def cmd_eval(args) -> int:
    from . import evaluation, latent
    sweeps = {experiment: (getattr(latent, kinds), ratio_kind,
                           getattr(evaluation, scales))
              for experiment, (kinds, ratio_kind, scales) in _SWEEPS.items()}
    model, ckpt = _load_model(args.model)
    vectors = latent.load_vectors(args.vectors)
    latent.check_compatibility(model, vectors, ckpt.ident)
    out_dir = output_dir(args.out)
    seed = args.rng_seed or 0
    trained = ckpt.schedule.get("global_batches")
    outputs: dict[str, str] = {}

    def emit_sweep(report, stem):
        evaluation.write_sweep_csv(out_dir / f"{stem}.csv", report)
        write_json(out_dir / f"{stem}.json", evaluation.sweep_summary(report))
        outputs[stem] = str(out_dir / f"{stem}.csv")
        if args.charts:
            evaluation.write_ratio_chart_svg(out_dir / f"{stem}.svg", report)

    if args.experiment in sweeps:
        kinds, ratio_kind, default = sweeps[args.experiment]
        scales = _parse_scales(args.scales, default)
        kinds = [kind for kind in kinds if kind in vectors.vectors]
        if kinds:
            reports = evaluation.sweeps(
                model, [vectors.get(kind) for kind in kinds], ratio_kind,
                scales, args.n, seed, trained_batches=trained)
            for kind, report in zip(kinds, reports):
                emit_sweep(report, f"{args.experiment}_{kind}")
    elif args.experiment == "interaction":
        scales = _parse_scales(args.scales, evaluation.DEFAULT_DIRECTION_SCALES)
        for label, (kinds, mode, _) in sweeps.items():
            if not all(k in vectors.vectors for k in kinds):
                continue
            report = evaluation.interaction_grid(
                model, *(vectors.get(k) for k in kinds), scales, args.n, seed,
                mode=mode, trained_batches=trained)
            evaluation.write_interaction_csv(
                out_dir / f"interaction_{label}.csv", report)
            write_json(out_dir / f"interaction_{label}.json",
                       evaluation.interaction_summary(report))
            outputs[f"interaction_{label}"] = str(
                out_dir / f"interaction_{label}.csv")
    elif args.experiment == "pitch-dist":
        vector = vectors.get(args.vector)
        bars = (2, 4)
        hist_orig, hist_mod = evaluation.pitch_distribution(
            model, vector, args.scale, args.n, seed, bars)
        evaluation.write_histogram_csv(out_dir / "pitch_distribution.csv",
                                       hist_orig, hist_mod)
        write_json(out_dir / "pitch_distribution.json", {
            "vector": vector.name, "scale": args.scale, "bars": list(bars),
            "n": args.n, "rng_seed": seed,
            "original": hist_orig.tolist(), "modified": hist_mod.tolist(),
        })
        outputs["pitch_distribution"] = str(out_dir / "pitch_distribution.csv")
    if not outputs:
        raise InvalidInputError(
            f"experiment {args.experiment!r} found no matching vectors in "
            f"{args.vectors}")
    _emit(args, {"experiment": args.experiment, "outputs": outputs},
          [f"wrote {path}" for _, path in sorted(outputs.items())])
    return 0


def cmd_gradcheck(args) -> int:
    from .vae import gradient_check
    result = gradient_check(hidden=args.hidden, latent=args.latent,
                            n_weights=args.samples, step=args.step,
                            seed=args.rng_seed or 0)
    error = result.max_rel_error
    passed = error < GRADCHECK_TOLERANCE
    # strict JSON: the infinite error of a non-finite derivative reads null
    _emit(args, {"max_rel_error": error if math.isfinite(error) else None,
                 "n_checked": result.n_checked,
                 "tolerance": GRADCHECK_TOLERANCE,
                 "passed": passed},
          [result.summary(), "PASS" if passed else "FAIL"])
    return 0 if passed else 1


def _int_from(low: int):
    """An argparse type for integers of at least ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def _positive_float(text: str) -> float:
    """An argparse type for finite numbers above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttv",
        description="Tonal-tension curves, tension-predicting VAE, and "
                    "tension-controlled music generation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--rng-seed", type=_int_from(0), default=None,
                        help="seed for all randomized behavior")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="tension curves of a MIDI file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--melody-track", default=None)
    p.add_argument("--bass-track", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("preprocess", parents=[common],
                       help="build a fragment dataset from a MIDI directory")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--melody-track", default=None)
    p.add_argument("--bass-track", default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[seeded], help="train the model")
    p.add_argument("--config", default=None,
                   help="JSON file of model/training settings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("vectors", parents=[common],
                       help="extract tension attribute vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kinds", default="all")
    p.add_argument("--target-n", type=_int_from(1), default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("shape-vector", parents=[common],
                       help="extract a custom tension-shape vector")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--template", default="triangle",
                   help="'triangle' or a JSON file of 64 values")
    p.add_argument("--peak-step", type=int, default=32)
    p.add_argument("--name", default=None)
    p.add_argument("--target-n", type=_int_from(1), default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shape_vector)

    # the flags of generate and compose-chain
    rendered = argparse.ArgumentParser(add_help=False, parents=[seeded])
    rendered.add_argument("--model", required=True)
    rendered.add_argument("--vectors", required=True)
    rendered.add_argument("--seed-midi", default=None)
    rendered.add_argument("--fragment-index", type=int, default=0)
    rendered.add_argument("--edit", action="append", metavar="NAME=SCALE",
                          help="edit applied to the seed (before section 1 "
                               "of a chain)")
    rendered.add_argument("--out", required=True)

    p = sub.add_parser("generate", parents=[rendered],
                       help="decode an edited seed into MIDI")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compose-chain", parents=[rendered],
                       help="chain 4-bar blocks with cumulative edits")
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", parents=[seeded],
                       help="run a latent-edit experiment suite")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--experiment", required=True,
                   choices=(*_SWEEPS, "interaction", "pitch-dist"))
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--scales", default=None, help="comma-separated scales")
    p.add_argument("--vector", default="tensile_strain_direction",
                   help="vector for pitch-dist")
    p.add_argument("--scale", type=float, default=6.0,
                   help="scale for pitch-dist")
    p.add_argument("--charts", action="store_true",
                   help="also write SVG ratio charts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[seeded],
                       help="verify analytic gradients on a tiny model")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--latent", type=int, default=4)
    p.add_argument("--samples", type=_int_from(1), default=200)
    p.add_argument("--step", type=_positive_float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TtvaeError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # internal failure
        if getattr(args, "verbose", False):
            raise
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
