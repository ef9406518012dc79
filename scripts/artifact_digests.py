"""SHA-256 of every artifact of a tiny seeded ``ttv`` chain on the toy corpus.

    python3 scripts/artifact_digests.py OUT_DIR

Runs analyze (one song, as CSV and as JSON) -> preprocess -> train ->
vectors (at ``--target-n`` 8, and at 1, where every class is one fragment)
-> shape-vector (the default triangle, in its own ``shape_vectors.json``) ->
generate -> compose-chain (without and with an ``--edit``) -> eval (the direction, level, interaction and
pitch-dist experiments) under fixed seeds, writing everything under
``OUT_DIR``, then prints one ``<sha256>  <path>`` line per file, sorted by
path relative to ``OUT_DIR``.  The toy corpus is all C major in 4/4, so the
script also preprocesses the benchmark's seed-1 ``ingest`` corpus
(transposed songs, 3/4 regions and three files to skip), written by
``perfbench/gen.py`` outside ``OUT_DIR``, into ``ingest.ds``.  The toy chain
trains at hidden 24, where no batch is split into row halves
(``ttvae.cores.splits``), so a second chain under ``paper/`` trains the
paper default (latent 96, hidden 256, batch 64) for one epoch on
``ingest.ds``: 313 training fragments in batches of 64 and 57, and
validation and test splits of 39 and 40, all of which split.  Its vectors
(``--target-n`` 8) and its direction eval (``--n`` 520 at scales 0 and 4:
two 256-row chunks, which split, and an 8-row tail, which does not) follow.
The chains run in ``OUT_DIR`` on relative paths, so reports that record an
input path do not depend on where ``OUT_DIR`` is.  It takes about 9 s on two
shared vCPUs, 5 s of it the paper chain.

Every artifact is byte-identical under a fixed seed, so two checkouts that
print the same lines make the same artifacts.  The script imports ``ttvae``
from this checkout's ``src`` and runs in the caller's environment.  Parts
of the chain, the class means of ``ttv vectors`` among them, run outside
``cores.one_blas_thread`` on as many BLAS threads as the environment gives.
So compare a change with its parent twice, running the script from both
checkouts and ``diff``-ing the outputs each time:

    OPENBLAS_NUM_THREADS=1 python3 scripts/artifact_digests.py OUT_DIR
    env -u OPENBLAS_NUM_THREADS python3 scripts/artifact_digests.py OUT_DIR
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

CONFIG = dict(latent_dim=8, hidden=24, gru_layers=1, batch_size=8,
              learning_rate=0.002, beta_step=1e-4, beta_max=0.006,
              early_stop_patience=50, max_epochs=3, rng_seed=5)
PAPER_CONFIG = dict(latent_dim=96, hidden=256, gru_layers=2, batch_size=64,
                    max_epochs=1, rng_seed=5)
SAMPLES = "520"


def run(*argv: str) -> None:
    from ttvae.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"ttv {argv[0]} exited {code}")


def main() -> None:
    from toy import write_toy_corpus

    out = Path(sys.argv[1])
    (out / "midi").mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    write_toy_corpus(Path("midi"))
    Path("config.json").write_text(json.dumps(CONFIG))
    Path("plan.json").write_text(json.dumps({"sections": [
        {"bars": 4},
        {"bars": 8, "edits": [["tensile_strain_direction", 4.0]]},
        {"bars": 4, "edits": [["cloud_diameter_level", -3.0]]}]}))
    model = ("--model", "model/checkpoint.ttv", "--vectors", "vectors.json")

    run("analyze", "--in", "midi/song00.mid", "--out", "analyze.csv")
    run("analyze", "--in", "midi/song00.mid", "--json", "--out", "analyze.json")
    run("preprocess", "--in", "midi", "--out", "toy.ds")
    with tempfile.TemporaryDirectory() as bench:
        import gen
        import workloads

        gen.write_corpus(Path(bench), 1, workloads.SPECS["ingest"])
        run("preprocess", "--in", str(Path(bench) / "midi"), "--out", "ingest.ds")
    run("train", "--dataset", "toy.ds", "--out", "model",
        "--config", "config.json")
    run("vectors", *model[:2], "--dataset", "toy.ds", "--target-n", "8",
        "--out", "vectors.json")
    # classes of one fragment: each mean is one row of a 64-row encode
    run("vectors", *model[:2], "--dataset", "toy.ds", "--target-n", "1",
        "--out", "vectors_n1.json")
    run("shape-vector", *model[:2], "--dataset", "toy.ds", "--target-n", "8",
        "--out", "shape_vectors.json")
    run("generate", *model, "--edit", "tensile_strain_direction=6",
        "--rng-seed", "3", "--out", "generated.mid")
    run("generate", *model, "--seed-midi", "midi/song00.mid",
        "--fragment-index", "1", "--edit", "cloud_diameter_direction=-4",
        "--out", "seeded.mid")
    run("compose-chain", *model, "--plan", "plan.json", "--rng-seed", "2",
        "--out", "chain.mid")
    # the request's edit applies to the seed before section 1
    run("compose-chain", *model, "--plan", "plan.json", "--rng-seed", "2",
        "--edit", "cloud_diameter_direction=4", "--out", "chain_edit.mid")
    for experiment in ("direction", "level", "interaction", "pitch-dist"):
        run("eval", *model, "--experiment", experiment, "--n", SAMPLES,
            "--rng-seed", "4", "--charts", "--out", f"eval/{experiment}")

    Path("paper").mkdir()
    Path("paper/config.json").write_text(json.dumps(PAPER_CONFIG))
    paper = ("--model", "paper/model/checkpoint.ttv")
    run("train", "--dataset", "ingest.ds", "--out", "paper/model",
        "--config", "paper/config.json")
    run("vectors", *paper, "--dataset", "ingest.ds", "--target-n", "8",
        "--out", "paper/vectors.json")
    run("eval", *paper, "--vectors", "paper/vectors.json", "--experiment",
        "direction", "--n", SAMPLES, "--scales", "0,4", "--rng-seed", "4",
        "--out", "paper/eval/direction")

    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")


if __name__ == "__main__":
    main()
