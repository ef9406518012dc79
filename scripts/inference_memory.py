"""Traced peak memory of one cache-free encode and one decode, for a config.

    python3 scripts/inference_memory.py [--config FILE] [--rows N]

Builds a seeded model from ``FILE``, a JSON config as ``ttv train --config``
reads it (the acceptance config, hidden 128 and latent 16 with two GRU
layers, without one).  It then encodes ``N`` seeded random rolls with
``TensionVae.encode`` and decodes ``N`` seeded standard-normal codes with
``TensionVae.decode`` (``N`` = 256 by default), and prints the peak of each
call in MiB as ``tracemalloc`` traces it.

A traced peak counts what the call allocates through NumPy, above what was
held when tracing started: not the parameters or the inputs, made before,
and not BLAS's own buffers.  So it measures the GRU layers' and the heads'
buffers, which a process's peak RSS mixes with the interpreter, the loaded
modules and freed pages that the allocator keeps.  Each call is made once
on two rows before it is traced, so that first-call allocations are not
counted.  ``encode`` runs its rows in blocks of ``network.ENCODE_BLOCK``
(64), so its peak stops growing with ``N`` past one block but for its
outputs; ``decode`` runs all ``N`` rows at once.

The peaks depend on the source tree alone, not on the host.  Like the
benchmark, it imports ``ttvae`` from this checkout's ``src`` and runs BLAS
on one thread.  For the figures of the tests' memory bounds:

    python3 scripts/inference_memory.py --rows 256
"""

import argparse
import json
import os
import sys
import tracemalloc
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

ACCEPTANCE = dict(latent_dim=16, hidden=128, gru_layers=2)


def traced_peak_mib(call, stack) -> float:
    """Peak traced MiB of ``call(stack)``, after an untraced two-row call."""
    call(stack[:2])
    tracemalloc.start()
    try:
        call(stack)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def main() -> None:
    import numpy as np

    from ttvae.pianoroll import N_FEATURES, N_STEPS
    from ttvae.vae import ModelConfig, TensionVae

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None,
                        help="JSON model config (default: the acceptance config)")
    parser.add_argument("--rows", type=int, default=256,
                        help="rolls encoded and codes decoded (default 256)")
    args = parser.parse_args()
    if args.rows < 2:
        parser.error("--rows must be at least 2")
    cfg = (ModelConfig.from_json_file(args.config) if args.config
           else ModelConfig(**ACCEPTANCE))
    model = TensionVae.initialize(cfg, seed=1)
    rng = np.random.default_rng(0)
    rolls = (rng.random((args.rows, N_STEPS, N_FEATURES)) < 0.05).astype(np.float32)
    codes = rng.standard_normal((args.rows, cfg.latent_dim)).astype(np.float32)
    print(json.dumps({"hidden": cfg.hidden, "latent_dim": cfg.latent_dim,
                      "gru_layers": cfg.gru_layers, "rows": args.rows,
                      "encode_peak_mib": traced_peak_mib(model.encode, rolls),
                      "decode_peak_mib": traced_peak_mib(model.decode, codes)}))


if __name__ == "__main__":
    main()
