#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median, the
quartiles (statistics.quantiles, n=4), the inter-quartile distance as a
share of the median, and that share against the metric's bound in
BENCHMARK.json (setup_s is reported but its spread is not gated).

    python3 benchmark/spread.py --seeds 1-10 [--workloads join_skew,serve_read]
        [--seconds N] [--trace 0|1]

Run it from the repository root. Exits 1 if a run fails or a gated
spread exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    metrics = manifest["end_to_end"] if args.trace == "0" else manifest["per_layer"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            gated = bound is not None and m["name"] != "setup_s"
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f} ({'ok' if share <= bound else 'OVER'}" \
                          f"{', within a third' if share <= bound / 3 else ''})"
                ok &= share <= bound or not gated
            print(f"  {workload:<11} {m['name']:<40} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {share:.3f} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
