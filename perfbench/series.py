"""Run the benchmark over several seeds and record, or compare, the results.

    python3 perfbench/series.py record LABEL [--seeds 10] [--workload NAME ...] [--trace 0|1]
    python3 perfbench/series.py compare BEFORE.json AFTER.json

`record` runs `run.py` once per seed and workload, from the checkout root,
with the `run_seconds` of BENCHMARK.json, and writes `BENCH_<label>.json`
beside this script: every value, plus the median, the quartiles and
the spread (quartile distance over median) of each metric, and the run
record of each run.  `compare` prints the medians side by side against each
metric's bound and flags any pair of records made with a different kernel,
Python version or core count, since their timings are not comparable.
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
MACHINE_KEYS = ("kernel", "python", "nproc")


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    record = next(json.loads(line[11:]) for line in lines if line.startswith("run-record "))
    return record, json.loads(lines[-1])


def record(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [entry["name"] for entry in bench["workloads"]]
    output = {"label": args.label, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs, values = [], {}
        for seed in range(1, args.seeds + 1):
            run_record, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            runs.append({**run_record, "correct": result["correct"], "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            summary = " ".join(f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: {summary}", file=sys.stderr)
        metrics = {name: spread(series) for name, series in values.items()}
        output["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, entry in metrics.items():
            print(f"{workload:15s} {name:40s} median {entry['median']:12.6g}  spread {entry['spread']:.3f}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(output, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def compare(args) -> int:
    bounds = {
        entry["name"]: entry
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    for workload, entry in after["workloads"].items():
        base = before["workloads"].get(workload)
        if base is None:
            print(f"{workload}: not in {args.before}")
            continue
        for key in MACHINE_KEYS:
            seen = {run[key] for run in base["runs"] + entry["runs"]}
            if len(seen) > 1:
                print(f"WARNING {workload}: runs made with different {key}: {sorted(map(str, seen))}")
        for name, metric in entry["metrics"].items():
            if name not in base["metrics"]:
                continue
            old, new = base["metrics"][name]["median"], metric["median"]
            change = (new - old) / old if old else 0.0
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > bounds[name]["bound"] else "ok"
            print(f"{workload:15s} {name:40s} {old:12.6g} -> {new:12.6g}  {change:+.3f}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_record = sub.add_parser("record")
    p_record.add_argument("label")
    p_record.add_argument("--seeds", type=int, default=10)
    p_record.add_argument("--workload", action="append")
    p_record.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("before")
    p_compare.add_argument("after")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
