"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--traced] [--out FILE]

For every workload it runs ``run.py`` once per seed with tracing off and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.  With
``--traced`` it adds one traced run per workload on the first seed and prints
the layers with the most self time, the computed work and the tracing
overhead, and checks that the traced run's output digests equal those of the
untraced run of the same seed for every operation both made, so tracing
changes no output.  ``--out``
writes every value to a JSON file.  The exit status is 1 when any run is not
correct or a traced run's digests differ, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "lines": lines[:-1]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    all_correct = True

    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"runs": [r["result"] for r in runs], "summary": {},
                 "env": json.loads(runs[0]["lines"][1].split(" ", 1)[1])}
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"correct {correct}, failed_ratio {failed}/{attempted}")
        print(f"   {runs[0]['lines'][3]}")
        for name, meta in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            entry["summary"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": values}
            print(f"   {name:12s} median {median:12.6g} {meta['unit']:8s} "
                  f"q1 {q1:10.6g}  q3 {q3:10.6g}  spread {spread:7.4f}  "
                  f"bound {meta['bound']}  spread<bound/3 {spread < meta['bound'] / 3}")
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            metrics = traced["result"]["metrics"]
            entry["traced"] = {k: v["value"] for k, v in metrics.items()}
            top = sorted((v["value"], k) for k, v in metrics.items()
                         if k.endswith(".self_s") and v["value"] > 0)[::-1]
            records = [json.loads((ROOT / ".perfbench" / "results" /
                                   f"{workload}-s{seeds[0]}-t{t}.json").read_text())
                       for t in (0, 1)]
            # A traced run makes fewer operations, so it may miss a sweep.
            untraced, traced_digests = records[0]["digests"], records[1]["digests"]
            entry["same_seed_digests_match"] = bool(traced_digests) and all(
                untraced.get(label, digest) == digest
                for label, digest in traced_digests.items())
            correct = (correct and traced["result"]["correct"]
                       and entry["same_seed_digests_match"])
            print(f"   traced run, seed {seeds[0]}: "
                  f"tracing overhead {metrics['trace.overhead']['value']:.4f}; "
                  f"output digests equal those of the untraced run of that seed: "
                  f"{entry['same_seed_digests_match']}")
            for value, key in top[:12]:
                span = key[:-len(".self_s")]
                work = ""
                if f"{span}.gflop" in metrics:
                    work = (f"  {metrics[span + '.gflop']['value']:.4g} GFLOP"
                            f"  {metrics[span + '.mbytes']['value']:.4g} MB (computed)")
                print(f"     {span:28s} self {value:9.5f} s/op  "
                      f"calls {metrics[span + '.calls']['value']:g}{work}")
        entry["correct"] = correct
        all_correct = all_correct and correct
        print(f"   verdict {'correct' if correct else 'NOT correct'}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
