#!/usr/bin/env python3
"""Runs the range benchmark on several seeds and records the baseline.

    python3 rangebench/baseline.py [--runs 10] [--first-seed 1000] [--trace 0] \
        [--out rangebench/BASELINE.json] [workload ...]

Run from the repository root. Each run gets its own seed. For every
end-to-end metric the script prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median next to the metric's bound from BENCHMARK.json, and writes the
same, with the host and each run's sample count and tail percentile, to --out.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

TAIL = re.compile(r"latency_ms_tail\s+\S+\s+ms\s+.*? p([\d.]+), n=(\d+), (\d+) beyond")
HOST = re.compile(r"nproc=(\d+) GOMAXPROCS=(\d+) (\S+)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {"host": {}, "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for wl in names:
        runs, values = [], {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stdout[-3000:]}{p.stderr[-3000:]}")
                ok = False
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            run = {"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                   "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            h = HOST.search(p.stdout)
            if h:
                record["host"] = {"nproc": int(h.group(1)), "GOMAXPROCS": int(h.group(2)), "go": h.group(3)}
            m = TAIL.search(p.stdout)
            if m:
                run.update(tail_percentile=float(m.group(1)), samples=int(m.group(2)), beyond_tail=int(m.group(3)))
            runs.append(run)
            for k, v in run["metrics"].items():
                values.setdefault(k, []).append(v)
            print(wl, json.dumps(run), flush=True)
        summary = {}
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            b = bounds.get(k)
            verdict = ""
            if b is not None:
                verdict = f" bound {b}: {'below a third' if spread < b / 3 else 'WITHIN' if spread <= b else 'OVER'}"
                if spread > b and k != "setup_s":
                    ok = False
            print(f"  {wl:15s} {k:28s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f}{verdict}")
        record["workloads"][wl] = {"why": whys.get(wl, ""), "seeds": [r["seed"] for r in runs],
                                   "runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
