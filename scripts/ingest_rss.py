"""Peak resident memory of one ingest, for the caller and its helper process.

    python3 scripts/ingest_rss.py MIDI_DIR

``build_dataset`` forks one helper that builds the second half of the files,
so the caller's own peak (``RUSAGE_SELF``, what the benchmark's
``peak_rss_mb`` reads) does not show the helper's.  This builds, saves and
loads the dataset of ``MIDI_DIR`` once, as one benchmark ``ingest`` operation
does, then prints both peaks in MiB: the caller's, and the largest of its
reaped children (``RUSAGE_CHILDREN``), which is the helper's.  That maximum
also covers children reaped before the script ran (the usage of children
survives ``exec``), so it is printed from before the build too.  The
helper's peak counts the pages it shares copy-on-write with the caller, so
the two peaks overlap and their sum overstates the memory in use.

Run it in a fresh process, since both are process-lifetime peaks.  Like the
benchmark, it imports ``ttvae`` from this checkout's ``src`` and runs BLAS on
one thread.  To make the benchmark's ingest corpus:

    python3 perfbench/gen.py --workload ingest --seed 1 --out ingest1
    python3 scripts/ingest_rss.py ingest1/midi
"""

import json
import os
import resource
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    from ttvae import build_dataset, load_dataset, save_dataset

    peak = lambda who: round(resource.getrusage(who).ru_maxrss / 1024, 2)
    before = peak(resource.RUSAGE_CHILDREN)
    midi_dir = Path(sys.argv[1])
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "ingest.ttd"
        built = build_dataset(midi_dir)
        save_dataset(built, path)
        loaded = load_dataset(path)
    print(json.dumps({"fragments": len(loaded),
                      "caller_peak_rss_mb": peak(resource.RUSAGE_SELF),
                      "helper_peak_rss_mb": peak(resource.RUSAGE_CHILDREN),
                      "children_peak_before_mb": before}))


if __name__ == "__main__":
    main()
