"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

Run from the root of a source checkout.  Runs are made one after another,
each in its own process, with the run length of BENCHMARK.json.  For every
metric it prints the median of the runs and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound; spreads above a third of the bound are
flagged.  The runs' result lines go to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: seconds a single run may take before it is stopped
RUN_TIMEOUT = 180


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def spread(values):
    """(median, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"attempted={results[-1]['attempted']} "
                  f"failed={results[-1]['failed']}", flush=True)
        (out_dir / f"spread-{workload}.json").write_text(json.dumps(results))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if rel < bound / 3 else ("WIDE" if rel <= bound else "OVER")
                if name != "setup_s":
                    worst = max(worst, rel / bound)
            print(f"  {name:32s} median {med:.6g}  spread {rel:.4f}"
                  + (f"  bound {bound}  {flag}" if bound is not None else ""))
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
