"""Time the MIDI layer of ingest: ``parse_midi`` then ``extract_tracks`` on
every file of two corpora, for one or more ``ttvae`` source trees.

    python3 scripts/midi_timing.py [--seed N] [--rounds R] SRC [SRC ...]

Each ``SRC`` is a directory holding the ``ttvae`` package, such as the
``src`` of this checkout and of a parent commit exported next to it.  The
script writes two corpora into a temporary directory, with this checkout's
generators: the benchmark's ``ingest`` corpus at seed ``N`` (64 songs of four
tracks, one of them on the drum channel, and three files that ingest skips,
as ``perfbench/gen.py --workload ingest`` writes it), and the toy corpus of
``tests/toy.py`` (8 songs of melody and bass, no drum track).  Then it runs
``R`` rounds; a round starts one fresh process per ``SRC``, in alternating
order, and each process reads the files once and times 5 passes over
every file of each corpus: ``extract_tracks(parse_midi(data))``, where a file
that either refuses counts up to its error.  It prints, per corpus and
``SRC``, the fastest and the median over the rounds of each process's
fastest pass, in ms.  BLAS runs on one thread, as in the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PASSES = 5


def time_corpora(src: str, corpora: list[str]) -> dict:
    """Fastest pass in seconds per corpus, with ``ttvae`` from ``src``."""
    sys.path.insert(0, src)
    from ttvae.corpus import extract_tracks
    from ttvae.errors import TtvaeError
    from ttvae.midi import parse_midi

    fastest = {}
    for corpus in corpora:
        files = [p.read_bytes() for p in sorted(Path(corpus).glob("*.mid"))]
        best = float("inf")
        for _ in range(PASSES):
            began = time.perf_counter()
            for data in files:
                try:
                    extract_tracks(parse_midi(data))
                except TtvaeError:
                    pass
            best = min(best, time.perf_counter() - began)
        fastest[corpus] = best
    return fastest


def write_corpora(out: Path, seed: int) -> dict[str, str]:
    """Corpus label -> MIDI directory, for the ingest and the toy corpus."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import gen
    import workloads
    from toy import write_toy_corpus

    gen.write_corpus(out / "ingest", seed, workloads.SPECS["ingest"])
    (out / "toy").mkdir()
    write_toy_corpus(out / "toy")
    return {f"ingest seed {seed}": str(out / "ingest" / "midi"), "toy": str(out / "toy")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="directory holding the ttvae package")
    parser.add_argument("--seed", type=int, default=1, help="ingest corpus seed")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", action="append", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(time_corpora(args.src[0], args.corpus)))
        return

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        corpora = write_corpora(Path(work), args.seed)
        runs = {(label, src): [] for label in corpora for src in args.src}
        for round_ in range(args.rounds):
            order = args.src if round_ % 2 == 0 else args.src[::-1]
            for src in order:
                command = [sys.executable, __file__, "--worker", src]
                for path in corpora.values():
                    command += ["--corpus", path]
                out = subprocess.run(command, env=env, check=True, text=True,
                                     capture_output=True).stdout
                for label, seconds in zip(corpora, json.loads(out).values()):
                    runs[label, src].append(seconds * 1e3)
    print(f"{'corpus':<16} {'fastest ms':>10} {'median ms':>10}  src")
    for (label, src), ms in runs.items():
        print(f"{label:<16} {min(ms):>10.1f} {statistics.median(ms):>10.1f}  {src}")


if __name__ == "__main__":
    main()
