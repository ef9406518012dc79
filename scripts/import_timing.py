"""Time the start-up imports of one or more ``ttvae`` source trees.

    python3 scripts/import_timing.py [--rounds R] SRC [SRC ...]

Each ``SRC`` is a directory holding the ``ttvae`` package, such as the
``src`` of this checkout and of a parent commit exported next to it.  Three
entry points are timed: ``import ttvae``, ``import ttvae.vae`` and
``import ttvae.cli``.  Every timing is one fresh
process, which imports NumPy first, untimed, and then times the one import.
The script runs ``R`` rounds; a round runs every entry point, ``SRC`` and
mode, the ``SRC`` in alternating order.  Two modes:

- ``cold``: with ``PYTHONDONTWRITEBYTECODE=1``, so ``ttvae`` compiles from
  source on every import, as in ``perfbench``'s worker processes;
- ``warm``: with ``PYTHONPYCACHEPREFIX`` set to a temporary directory,
  which one untimed process per entry point and ``SRC`` fills first.

Each ``SRC``'s ``ttvae`` package is timed from a copy without its
``__pycache__`` directories, so bytecode left in ``SRC`` is never read.  The
script prints, per mode, entry point and ``SRC``, the fastest and the median
time in ms.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ENTRIES = ("ttvae", "ttvae.vae", "ttvae.cli")
MODES = ("cold", "warm")


# The timed process: ``python -c WORKER ENTRY TREE`` prints the seconds
# ``import ENTRY`` takes from ``TREE`` after an untimed ``import numpy``.
WORKER = ("import sys, time, numpy\n"
          "sys.path.insert(0, sys.argv[2])\n"
          "began = time.perf_counter()\n"
          "__import__(sys.argv[1])\n"
          "print(time.perf_counter() - began)\n")


def run(tree: str, entry: str, cache: str | None) -> float:
    """ms of one fresh process; cold without ``cache``, else warm in it."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    out = subprocess.run([sys.executable, "-c", WORKER, entry, tree], env=env,
                         check=True, text=True, capture_output=True).stdout
    return float(out) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="directory holding the ttvae package")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        cache = os.path.join(scratch, "pycache")
        trees = {}
        for i, src in enumerate(args.src):
            trees[src] = os.path.join(scratch, f"src{i}")
            shutil.copytree(os.path.join(src, "ttvae"),
                            os.path.join(trees[src], "ttvae"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            for entry in ENTRIES:
                run(trees[src], entry, cache)
        runs = {(mode, entry, src): [] for mode in MODES for entry in ENTRIES
                for src in args.src}
        for round_ in range(args.rounds):
            order = args.src if round_ % 2 == 0 else args.src[::-1]
            for mode in MODES:
                for entry in ENTRIES:
                    for src in order:
                        runs[mode, entry, src].append(run(
                            trees[src], entry, None if mode == "cold" else cache))
    print(f"{'mode':<5} {'import':<10} {'fastest ms':>10} {'median ms':>10}  src")
    for (mode, entry, src), ms in runs.items():
        print(f"{mode:<5} {entry:<10} {min(ms):>10.1f} "
              f"{statistics.median(ms):>10.1f}  {src}")


if __name__ == "__main__":
    main()
