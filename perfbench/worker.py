"""The timed process of one benchmark run.

``run.py`` starts it after the inputs exist, with the program's ``src`` on
``PYTHONPATH`` and the BLAS thread count fixed in the environment.  It sets
up (imports ``ttvae`` and loads the inputs), then runs operations one after
another (a closed loop with one client) until the next one would end after
``--seconds``, checks every output, and writes a JSON result.  An operation is
one ``train`` call, one sweep (the four vectors take turns) or one
build-save-load round trip of the ingest corpus.

With ``--trace 1`` the tracer is installed after the first set-up, set-up
runs again traced, and then every operation runs twice in a row, once untraced
and once traced, in an order that flips from turn to turn.  The tracing
overhead is the median, over these pairs, of the traced time over the
untraced time; the two halves of a pair run back to back, so a slow stretch
of the host mostly falls on both.
With ``--setup-only`` it only sets up and reports the set-up time; adding
``--one-op`` then runs the first operation once and reports its output
digests, which ``run.py`` compares with those of the timed process.

Nothing from the program is imported at module level, so the set-up time
includes importing it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _in_unit_interval(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


class Run:
    """State shared by the set-up, the operations and the checks."""

    def __init__(self, spec: dict, inputs: Path, work: Path, seed: int):
        self.spec = spec
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.props = json.loads((inputs / "inputs.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []     # one line per failed check
        self.digests: dict[str, str] = {}  # first output digest per op label
        self.peak_rss_mb = None
        self.rates: list[float] = []       # items per second, one per op

    def fail(self, count: int, message: str) -> None:
        """Record a failed check; ``count`` operations failed with it."""
        self.failed += count
        self.problems.append(message)

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        start = perf_counter()
        import ttvae
        if not hasattr(self, "load_checkpoint"):
            # Checks use the untraced function, so they add no spans.
            self.load_checkpoint = ttvae.load_checkpoint
        kind = self.spec["kind"]
        if kind in ("train", "eval"):
            from ttvae.vae import ModelConfig
            self.dataset = ttvae.load_dataset(self.inputs / "dataset.ttd")
            self.cfg = ModelConfig(**workloads.model_config(self.spec, self.seed))
        if kind == "train":
            from ttvae.vae.training import training_split
            self.n_train = len(training_split(self.cfg, len(self.dataset))["train"])
        if kind == "eval":
            from ttvae.latent import DIRECTION_KINDS, LEVEL_KINDS
            from ttvae.vae.training import training_split
            checkpoint = ttvae.load_checkpoint(self.inputs / "model.ttv", self.cfg)
            self.model = ttvae.TensionVae(checkpoint.config, checkpoint.params)
            ids = training_split(self.cfg, len(self.dataset))["train"]
            self.vectors = ttvae.build_vectors(self.model, self.dataset,
                                               restrict_ids=[int(i) for i in ids])
            self.sweeps = ([("direction", k) for k in DIRECTION_KINDS]
                           + [("level", k) for k in LEVEL_KINDS])
        return perf_counter() - start

    # ------------------------------------------------------------ bodies

    def op(self, turn: int) -> None:
        """Run the operation of ``turn``; in eval-sweep the sweeps take turns."""
        getattr(self, f"_{self.spec['kind']}_op")(turn)
        # The heap creeps a little with every repeat, so the peak is read once
        # every distinct operation has run; a faster program, which repeats
        # more often, would otherwise show a higher peak.
        distinct = len(self.sweeps) if self.spec["kind"] == "eval" else 1
        if self.peak_rss_mb is None and turn == distinct - 1:
            self.peak_rss_mb = _peak_rss_mb()

    def _train_op(self, turn: int) -> None:
        from ttvae.errors import TtvaeError
        from ttvae.vae import train
        epochs = self.cfg.max_epochs
        done = 0

        def progress(epoch, *_):
            nonlocal done
            done = epoch

        out_dir = self.work / "train"
        start = perf_counter()
        try:
            train(self.dataset, self.cfg, out_dir=out_dir, progress=progress)
            error = None
        except TtvaeError as err:
            error = err
        elapsed = perf_counter() - start
        self.attempted += epochs
        self.rates.append(done * self.n_train / elapsed)
        if error is not None:
            self.fail(epochs - done, f"train aborted after {done} epochs: {error}")
            return
        self._check_train(out_dir, epochs)

    def _check_train(self, out_dir: Path, epochs: int) -> None:
        from ttvae.errors import CheckpointError
        with open(out_dir / "ledger.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad_epochs = set()
        for row in rows:
            values = [float(v) for k, v in row.items() if k not in ("epoch", "split")]
            if not all(math.isfinite(v) for v in values):
                bad_epochs.add(int(row["epoch"]))
        if len(rows) != 2 * epochs + 1:
            self.fail(epochs, f"ledger has {len(rows)} rows, expected {2 * epochs + 1}")
            return
        if bad_epochs:
            self.fail(len(bad_epochs), f"non-finite ledger values at epochs {sorted(bad_epochs)}")
        try:
            self.load_checkpoint(out_dir / "checkpoint.ttv", self.cfg)
        except CheckpointError as err:
            self.fail(epochs - len(bad_epochs), f"checkpoint does not reload: {err}")
            return
        self._same("train", _digest(out_dir / "checkpoint.ttv", out_dir / "ledger.csv"),
                   epochs - len(bad_epochs))

    def _same(self, label: str, digest: str, ops: int) -> None:
        """Determinism: each repeat of an operation gives identical outputs."""
        first = self.digests.setdefault(label, digest)
        if digest != first:
            self.fail(ops, f"{label}: output digest differs from its first run")

    def _eval_op(self, turn: int) -> None:
        from ttvae import evaluation
        from ttvae.errors import TtvaeError

        mode, kind = self.sweeps[turn % len(self.sweeps)]
        scales = self.spec[f"{mode}_scales"]
        n = self.spec["n"]
        sweep = evaluation.direction_sweep if mode == "direction" else evaluation.level_sweep
        decode = evaluation.decode_hardened
        decoded = []

        def keep_rolls(*args, **kwargs):
            result = decode(*args, **kwargs)
            decoded.append(result[0])
            return result

        self.attempted += len(scales)
        evaluation.decode_hardened = keep_rolls
        try:
            start = perf_counter()
            report = sweep(self.model, self.vectors.get(kind), scales=scales,
                           n=n, rng_seed=self.seed)
            elapsed = perf_counter() - start
        except TtvaeError as err:
            self.fail(len(scales), f"{mode} sweep of {kind} raised: {err}")
            return
        finally:
            evaluation.decode_hardened = decode
        self.rates.append(n * len(report.rows) / elapsed)
        if self._check_rows(report, scales, kind, decoded):
            summary = json.dumps(evaluation.sweep_summary(report), sort_keys=True)
            self._same(kind, hashlib.sha256(summary.encode()).hexdigest(), len(scales))

    def _check_rows(self, report, scales, kind, decoded) -> bool:
        from ttvae.errors import InvalidRollError
        from ttvae.pianoroll import validate_roll
        bad_rolls = 0
        for rolls in decoded:
            for roll in rolls:
                try:
                    validate_roll(roll)
                except InvalidRollError:
                    bad_rolls += 1
        if bad_rolls:
            self.fail(len(scales), f"{kind}: {bad_rolls} decoded rolls fail validate_roll")
            return False
        if [row.scale for row in report.rows] != [float(s) for s in scales]:
            self.fail(len(scales), f"{kind}: rows {[r.scale for r in report.rows]} "
                                   f"do not match scales {list(scales)}")
            return False
        ok = True
        for row in report.rows:
            values = (row.ratio_recomputed, row.ratio_predicted,
                      row.melody_pitch_accuracy, row.bass_pitch_accuracy,
                      row.melody_rhythm_fscore, row.bass_rhythm_fscore)
            if row.n != self.spec["n"] or not all(map(_in_unit_interval, values)):
                self.fail(1, f"{kind} scale {row.scale}: value outside [0, 1]")
                ok = False
        return ok

    def _ingest_op(self, turn: int) -> None:
        from ttvae import build_dataset, load_dataset, save_dataset
        from ttvae.errors import TtvaeError
        path = self.work / "ingest.ttd"
        songs = self.props["songs"]
        self.attempted += songs
        start = perf_counter()
        try:
            built = build_dataset(self.inputs / "midi")
            save_dataset(built, path)
            loaded = load_dataset(path)
        except TtvaeError as err:
            self.fail(songs, f"ingest raised: {err}")
            return
        elapsed = perf_counter() - start
        self.rates.append(len(built) / elapsed)
        self._check_ingest(built, loaded)
        self._same("ingest", _digest(path, path.with_name(path.name + ".json")), songs)

    def _check_ingest(self, built, loaded) -> None:
        import numpy as np
        from ttvae.pianoroll import validate_roll
        from ttvae.errors import InvalidRollError

        files = self.props["files"]
        skipped = {s["file"] for s in built.meta["skips"]}
        expected_skips = {name for name, f in files.items() if f["skip"]}
        if skipped != expected_skips:
            # Files wrongly skipped also fail the fragment-count check below.
            self.fail(0, f"skipped {sorted(skipped)}, expected {sorted(expected_skips)}")
        if len(loaded) != len(built):
            self.fail(self.props["songs"], "loaded dataset size differs from built")
            return
        counts: dict[str, int] = {}
        bad_files = set()
        for a, b in zip(built.fragments, loaded.fragments):
            counts[a.source_id] = counts.get(a.source_id, 0) + 1
            try:
                validate_roll(a.roll)
            except InvalidRollError:
                bad_files.add(a.source_id)
            same = (a.source_id == b.source_id and a.bar_offset == b.bar_offset
                    and np.array_equal(a.roll, b.roll)
                    and np.array_equal(a.tensile, b.tensile)
                    and np.array_equal(a.diameter, b.diameter))
            if not same:
                bad_files.add(a.source_id)
        for name, f in files.items():
            if not f["skip"] and counts.get(name, 0) != f["fragments"]:
                bad_files.add(name)
        if bad_files:
            self.fail(len(bad_files), f"fragment count, roll or round trip wrong "
                                      f"for {sorted(bad_files)[:5]}")


def environment(seed: int) -> dict:
    """Machine, interpreter and BLAS facts recorded with every result."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "seed": seed}


def _timed_ops(run: Run, seconds: float) -> list[float]:
    """Run operations until the next one would end after ``seconds``."""
    durations: list[float] = []
    start = perf_counter()
    while True:
        op_start = perf_counter()
        run.op(len(durations))
        durations.append(perf_counter() - op_start)
        if perf_counter() - start + durations[-1] > seconds:
            return durations


def _paired_ops(run: Run, seconds: float, tracer, switch) -> tuple[list, list]:
    """Run each turn's operation untraced and traced, back to back.

    The order within a pair flips every turn, because the second run of an
    operation can be a little faster than the first.  Stops when the next pair
    would end after ``seconds``; returns both lists of durations, pair by pair.
    """
    durations: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    turn = 0
    while True:
        for traced in ((True, False) if turn % 2 else (False, True)):
            switch(traced)
            tracer.run_id = len(durations[True])
            op_start = perf_counter()
            run.op(turn)
            durations[traced].append(perf_counter() - op_start)
        turn += 1
        pair = durations[False][-1] + durations[True][-1]
        if perf_counter() - start + pair > seconds:
            switch(False)
            return durations[False], durations[True]


def main() -> None:
    parser = argparse.ArgumentParser(description="one timed benchmark process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--one-op", action="store_true")
    args = parser.parse_args()

    run = Run(workloads.SPECS[args.workload], args.inputs, args.work, args.seed)
    result = {"setup_s": run.setup()}
    if args.setup_only:
        if args.one_op:
            run.op(0)
            result.update(digests=run.digests, problems=run.problems,
                          attempted=run.attempted, failed=run.failed)
    else:
        if args.trace:
            tracer = spans.Tracer()
            switch = spans.install(tracer)
            run.setup()
            untraced, traced = _paired_ops(run, args.seconds, tracer, switch)
            overhead = statistics.median(t / u for u, t in zip(untraced, traced))
            result["per_layer"] = tracer.metrics(len(traced), overhead)
            tracer.write(args.work / "trace.jsonl")
        else:
            _timed_ops(run, args.seconds)
        result.update(
            rates=run.rates, attempted=run.attempted,
            failed=run.failed, problems=run.problems,
            digests=run.digests, env=environment(args.seed),
            peak_rss_mb=run.peak_rss_mb or _peak_rss_mb())
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
