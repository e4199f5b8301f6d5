"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads infer.generate,verify.check --seeds 1-10 --seconds 8

Each run is a separate process, one at a time, workloads interleaved seed by
seed. For every metric the summary gives the median, the quartiles from
``statistics.quantiles(n=4)`` and their distance as a share of the median,
next to the metric's bound. ``--out`` writes the summary and every run's
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def summarise(runs: list[dict], trace: int) -> dict:
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    summary = {}
    for name in catalogue:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=metrics.quartile_spread(values) if entry["median"] else None)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            r = run_once(w, seed, args.seconds, args.trace)
            runs[w].append(r)
            print(
                f"{w} seed {seed}: wall {r['wall_s']:.1f}s correct={r['result']['correct']} "
                f"failed={r['result']['failed']}/{r['result']['attempted']}",
                flush=True,
            )
    report = {}
    for w in workloads:
        summary = summarise(runs[w], args.trace)
        walls = [r["wall_s"] for r in runs[w]]
        report[w] = {"summary": summary, "wall_s": walls, "runs": runs[w]}
        print(f"\n{w}  (wall median {statistics.median(walls):.1f}s, max {max(walls):.1f}s)")
        if args.trace:
            continue
        for name, entry in summary.items():
            bound = metrics.END_TO_END[name][2]
            spread = entry.get("spread")
            flag = "" if spread is None or spread < bound / 3 else "  <-- spread >= bound/3"
            spread_text = "n/a" if spread is None else f"{spread:.3f}"
            print(f"  {name:<14} median {entry['median']:<12.5g} spread {spread_text:<7} bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
