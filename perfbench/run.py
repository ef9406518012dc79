"""Run one benchmark workload on the program in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steps, each in its own process so that none sets another's memory peak:
``gen.py`` writes the seeded inputs, ``worker.py --setup-only`` measures the
set-up in several fresh processes, ``worker.py`` runs the timed closed loop
and checks its outputs, and more set-up probes follow.  The last probe also
runs the first operation once, and its output digests must equal the timed
process's: two same-seed processes give identical outputs.  Children import
``ttvae`` from this checkout's ``src`` only, with the BLAS thread count fixed,
and everything they write stays under ``.perfbench/`` in the checkout.

The last line printed is the result as JSON: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``)
or its per-layer metrics (``--trace 1``).  The lines before it name each
metric with its unit, the environment, the inputs and the verdict; the full
record, with per-op rates and digests, goes to ``.perfbench/results/``.
Exit status 2, with no result line, means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_PROBES = 10

# The end-to-end throughput under the name and unit it has in each kind of
# workload; BENCHMARK.json calls it "throughput" in all of them.
THROUGHPUT_NAMES = {
    "train": ("train_fragments_per_s", "fragments/s"),
    "eval": ("eval_samples_per_s", "samples/s"),
    "ingest": ("ingest_fragments_per_s", "fragments/s"),
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def call(script: str, args: list[str], timeout: float) -> None:
    command = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as err:
        raise RunError(f"{script} did not finish within {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise RunError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")


def declared_metrics() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise RunError(f"cannot read BENCHMARK.json: {err}") from err


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "ttvae" / "__init__.py").is_file():
        raise RunError(f"no program source at {ROOT / 'src' / 'ttvae'}")
    run_dir = STATE / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, work = run_dir / "inputs", run_dir / "work"
    work.mkdir(parents=True)
    try:
        call("gen.py", ["--workload", workload, "--seed", str(seed),
                        "--out", str(inputs)], timeout=120)
        common = ["--workload", workload, "--seed", str(seed), "--inputs", str(inputs),
                  "--work", str(work), "--result", str(work / "result.json")]
        def probe(*extra: str) -> dict:
            call("worker.py", common + ["--setup-only", *extra], timeout=60)
            return json.loads((work / "result.json").read_text())

        # Half the set-up probes run before the timed process and half after,
        # so that one slow stretch of the host does not cover all of them.
        setups = [probe()["setup_s"] for _ in range(SETUP_PROBES // 2)]
        call("worker.py", common + ["--seconds", str(seconds), "--trace", str(trace)],
             timeout=seconds + 120)
        result = json.loads((work / "result.json").read_text())
        setups += [probe()["setup_s"] for _ in range(SETUP_PROBES // 2 - 1)]
        last = probe("--one-op")
        setups.append(last["setup_s"])
        result["setup_probes"] = setups
        # The second process's operation counts as one more operation.
        result["attempted"] += last["attempted"]
        result["failed"] += last["failed"]
        result["problems"] += [f"second process: {p}" for p in last["problems"]]
        for label, digest in last["digests"].items():
            if result["digests"].get(label, digest) != digest:
                result["failed"] += last["attempted"] - last["failed"]
                result["problems"].append(f"{label}: output digest differs between "
                                          f"two same-seed processes")
        result["inputs"] = json.loads((inputs / "inputs.json").read_text())
        if trace:
            STATE.joinpath("results").mkdir(exist_ok=True)
            shutil.copy(work / "trace.jsonl",
                        STATE / "results" / f"{run_dir.name}.trace.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def summarize(workload: str, seed: int, trace: int, raw: dict) -> tuple[dict, list[str]]:
    spec = workloads.SPECS[workload]
    declared = declared_metrics()
    rates = raw["rates"] or [0.0]      # empty only when every operation raised
    # Other tenants of the host slow stretches of seconds to minutes, so the
    # fastest operation and the fastest set-up of a run, not the medians, are
    # the steady figures.
    setup_s = min(raw["setup_probes"] + [raw["setup_s"]])
    values = {
        "throughput": (max(rates), "items/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    if trace:
        units = spans.per_layer_units()
        values = {name: (value, units[name]) for name, value in raw["per_layer"].items()}
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise RunError(f"metric {entry['name']} was not measured")
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RunError(f"metric {entry['name']} is in {unit}, "
                           f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    correct = raw["attempted"] >= 1 and raw["failed"] == 0 and not raw["problems"]
    props = raw["inputs"]
    name, unit = THROUGHPUT_NAMES[spec["kind"]]
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}",
        "env " + json.dumps(raw["env"], sort_keys=True),
        (f"inputs songs={props['songs']} fragments={props['fragments']} "
         f"tracks/file={props['tracks_per_file']} notes/bar={props['notes_per_bar']} "
         f"bars_3_4={props['bars_3_4']} expected_skips={props['expected_skips']}"),
        (f"{name} = {max(rates):.6g} {unit}  (fastest of {len(raw['rates'])} "
         f"ops; median {statistics.median(rates):.6g})"),
        (f"setup_s = {setup_s:.6g} s  (fastest of {len(raw['setup_probes']) + 1} "
         f"set-ups; median {statistics.median(raw['setup_probes']):.6g})"),
        f"peak_rss_mb = {raw['peak_rss_mb']:.6g} MiB",
        (f"failed_ratio = {raw['failed']}/{raw['attempted']} = "
         f"{raw['failed'] / max(raw['attempted'], 1):.6g} failed/attempted"),
    ]
    if trace:
        lines.append(f"trace.overhead = {raw['per_layer']['trace.overhead']:.6g} "
                     f"(median of traced / untraced op time over back-to-back pairs)")
    lines.append(f"verdict {'correct' if correct else 'NOT correct'}: "
                 f"{len(raw['problems'])} failed checks (output checks, same "
                 f"digests for every repeat of an op and in a second process)")
    lines.extend(f"  failed check: {p}" for p in raw["problems"][:10])
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        raw = measure(args.workload, args.seed, args.seconds, args.trace)
        result, lines = summarize(args.workload, args.seed, args.trace, raw)
    except RunError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    record = dict(raw, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, result=result)
    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
