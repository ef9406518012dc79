"""Time one training step, ``forward_backward``, for one or more ``ttvae``
source trees, with BLAS on one thread and on its default thread count.

    python3 scripts/step_timing.py [--rounds R] [--calls C] [--config NAME] SRC [SRC ...]

Each ``SRC`` is a directory holding the ``ttvae`` package, such as the
``src`` of this checkout and of a parent commit exported next to it.  Two
configs are timed: the acceptance config (hidden 128, latent 16, batch 4)
and the paper default (hidden 256, latent 96, batch 64), both with two GRU
layers, on seeded random rolls, targets and noise; ``--config`` picks one.  The script runs ``R``
rounds; a round starts one fresh process per config, ``SRC`` and
environment, the ``SRC`` in alternating order, once with
``OPENBLAS_NUM_THREADS=1`` and once with it and ``OMP_NUM_THREADS`` unset.
Each process makes one untimed call and then ``C`` timed ones, and counts
the minor page faults of the timed calls (``getrusage``'s ``ru_minflt``).
It prints, per config, environment and ``SRC``, the fastest and the median
over the rounds of each process's fastest call, in ms, the median over the
rounds of each process's minor faults per timed call, and the SHA-256 of the
gradients, which every row of a config should share.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

CONFIGS = {
    "acceptance": dict(latent_dim=16, hidden=128, gru_layers=2, batch_size=4),
    "paper": dict(latent_dim=96, hidden=256, gru_layers=2, batch_size=64),
}
ENVS = ("OPENBLAS_NUM_THREADS=1", "default")


def time_steps(src: str, config: str, calls: int) -> dict:
    """Fastest ``forward_backward`` in seconds and the gradients' digest."""
    sys.path.insert(0, src)
    import numpy as np
    from ttvae.vae import ModelConfig, forward_backward, init_params

    cfg = ModelConfig(**CONFIGS[config], rng_seed=7)
    rng = np.random.default_rng(7)
    params = init_params(cfg, rng)
    batch = cfg.batch_size
    rolls = rng.integers(0, 2, (batch, 64, 89)).astype(np.float32)
    tensile, diameter = rng.random((2, batch, 64)).astype(np.float32)
    noise = rng.standard_normal((batch, cfg.latent_dim)).astype(np.float32)
    best = float("inf")
    for call in range(calls + 1):
        if call == 1:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        began = time.perf_counter()
        _, grads = forward_backward(params, cfg, rolls, tensile, diameter, noise, 0.01)
        if call:
            best = min(best, time.perf_counter() - began)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    digest = hashlib.sha256()
    for name in sorted(grads):
        digest.update(name.encode() + grads[name].tobytes())
    return {"seconds": best, "faults": faults / calls, "digest": digest.hexdigest()}


def environment(label: str) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if label != "default":
        name, value = label.split("=")
        env[name] = value
    return env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="directory holding the ttvae package")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--config", choices=sorted(CONFIGS), action="append")
    parser.add_argument("--worker", choices=sorted(CONFIGS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(time_steps(args.src[0], args.worker, args.calls)))
        return

    configs = args.config or list(CONFIGS)
    runs = {(config, env, src): [] for config in configs for env in ENVS
            for src in args.src}
    faults = {key: [] for key in runs}
    digests = {}
    for round_ in range(args.rounds):
        order = args.src if round_ % 2 == 0 else args.src[::-1]
        for config in configs:
            for env in ENVS:
                for src in order:
                    command = [sys.executable, __file__, "--worker", config,
                               "--calls", str(args.calls), src]
                    out = json.loads(subprocess.run(
                        command, env=environment(env), check=True, text=True,
                        capture_output=True).stdout)
                    runs[config, env, src].append(out["seconds"] * 1e3)
                    faults[config, env, src].append(out["faults"])
                    digests[config, env, src] = out["digest"][:16]
    print(f"{'config':<11} {'environment':<23} {'fastest ms':>10} {'median ms':>10}"
          f" {'faults/call':>11}  {'gradients':<16}  src")
    for key, ms in runs.items():
        config, env, src = key
        print(f"{config:<11} {env:<23} {min(ms):>10.1f} {statistics.median(ms):>10.1f}"
              f" {statistics.median(faults[key]):>11.0f}  {digests[key]}  {src}")


if __name__ == "__main__":
    main()
