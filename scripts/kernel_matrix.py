"""Artifact digests of one or more checkouts under each BLAS kernel setting.

    python3 scripts/kernel_matrix.py CHECKOUT [CHECKOUT ...]

numpy's bundled OpenBLAS picks its kernel when it loads, and the variable
``OPENBLAS_CORETYPE`` makes it load another one in that process only.  For
six settings -- the default kernel, ``OPENBLAS_CORETYPE=Haswell`` and
``OPENBLAS_CORETYPE=Sandybridge``, each with ``OPENBLAS_NUM_THREADS=1`` and
with the variable unset (the library's default thread count) -- this runs
each checkout's ``scripts/artifact_digests.py`` in a child process, with
the variables set in the child's environment only.  Per setting it prints
one line:

- the kernel the library loaded, as ``scipy_openblas_get_corename64_``
  names it in a child with the same environment;
- whether the checkouts printed the same digest lines: ``agree``, or, for
  each other checkout, ``-a +b`` for the a lines of the first checkout it
  did not print and the b lines it printed that the first did not; ``-``
  for one checkout;
- how many of the first checkout's lines equal the ones it printed on the
  default kernel with the same thread setting.

A checkout whose digest script fails is reported with its exit status.  A
run takes about 10 s per checkout and setting on two shared vCPUs, one
child at a time.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORETYPES = (None, "Haswell", "Sandybridge")
THREADS = ("1", None)  # None: OPENBLAS_NUM_THREADS unset

CORENAME = """
import ctypes, os, numpy
with open("/proc/self/maps") as fh:
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                    if "libscipy_openblas" in line})
for path in paths:
    try:
        get = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        continue
    get.restype = ctypes.c_char_p
    print(get().decode())
    break
else:
    print("unknown")
"""


def environment(coretype: str | None, threads: str | None) -> dict:
    env = dict(os.environ)
    for name, value in (("OPENBLAS_CORETYPE", coretype),
                        ("OPENBLAS_NUM_THREADS", threads)):
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def kernel(env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", CORENAME], env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() or f"unknown (exit {proc.returncode})"


def digests(checkout: Path, env: dict) -> list[str] | str:
    """The digest script's lines, or a message naming its exit status."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, str(checkout / "scripts" / "artifact_digests.py"),
             out], env=env, capture_output=True, text=True)
    if proc.returncode:
        return f"failed (exit {proc.returncode})"
    return proc.stdout.splitlines()


def main() -> None:
    checkouts = [Path(arg).resolve() for arg in sys.argv[1:]]
    if not checkouts:
        sys.exit(__doc__)
    print(f"{'threads':8} {'coretype':12} {'kernel':12} {'checkouts':12} "
          f"lines equal to the default kernel's")
    for threads in THREADS:
        default = None
        for coretype in CORETYPES:
            env = environment(coretype, threads)
            runs = [digests(checkout, env) for checkout in checkouts]
            first = runs[0]
            if len(runs) == 1:
                agree = "-"
            elif any(isinstance(run, str) for run in runs):
                agree = "; ".join(run for run in runs if isinstance(run, str))
            elif all(run == first for run in runs):
                agree = "agree"
            else:
                agree = " ".join(f"-{len(set(first) - set(run))}"
                                 f"+{len(set(run) - set(first))}"
                                 for run in runs[1:])
            if coretype is None:
                default = first
            if isinstance(first, str) or isinstance(default, str):
                equal = first if isinstance(first, str) else "no default run"
            else:
                equal = f"{len(set(first) & set(default))} of {len(default)}"
            print(f"{threads or 'default':8} {coretype or '(default)':12} "
                  f"{kernel(env):12} {agree:12} {equal}", flush=True)


if __name__ == "__main__":
    main()
