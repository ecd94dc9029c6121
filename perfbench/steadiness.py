"""Repeat-run spread of the end-to-end metrics, normalised and raw.

    python3 perfbench/steadiness.py --workloads des-paper,live-wide \\
        --seeds 1-10 [--seconds 30] [--json out.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the interquartile range of its
values as a share of their median (``statistics.quantiles(n=4)``),
for the reported value and for the raw one beside it.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_from(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="des-paper,live-wide,routed-tenants")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", default=None, help="write every run's values here")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        values, raws = {}, {}
        for seed in seeds_from(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            raw = json.loads(next(l for l in lines if l.startswith("raw "))[4:])
            runs.append({"workload": workload, "seed": seed, "result": result, "raw": raw})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                raws.setdefault(name, []).append(raw[name])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"\n{workload} ({len(values.get('setup_s', []))} runs, {shlex.join(spec['command'])})")
        print(f"  {'metric':<18} {'median':>10} {'spread':>8} {'raw spread':>10} {'bound':>6}")
        for name in values:
            print(f"  {name:<18} {statistics.median(values[name]):>10.5g} "
                  f"{spread(values[name]):>8.4f} {spread(raws[name]):>10.4f} "
                  f"{bounds.get(name, float('nan')):>6}")
        print()
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
