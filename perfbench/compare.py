"""Repeat benchmark runs over seeds and summarise each metric.

    python3 perfbench/compare.py --workload stream_vqa --seeds 1-10
    python3 perfbench/compare.py --workload stream_mid --seeds 1-10 --base ../parent

Each run is ``python3 perfbench/run.py`` in a checkout, with its own seed.
The summary gives, per metric, the median, the quartiles (as Python's
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. With ``--base``,
runs alternate between the base checkout and this one, base first on odd
seeds, and the summary adds the ratio of medians and how many seeds this
checkout won, taking each metric's direction from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", type=Path, help="checkout to compare against")
    args = p.parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        head, base = [], []
        for seed in args.seeds:
            order = [(HERE, head)] if args.base is None else (
                [(args.base, base), (HERE, head)] if seed % 2 else [(HERE, head), (args.base, base)])
            for checkout, runs in order:
                runs.append(run_once(checkout, workload, seed, seconds, args.trace))
        print(f"{workload}: {len(head)} runs of {seconds} s, seeds {args.seeds[0]}-{args.seeds[-1]}")
        for name in head[0]:
            med, q1, q3, spread = summary([r[name] for r in head])
            line = f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
            if name in bound:
                line += f" (bound {bound[name]})"
            if base:
                bmed = summary([r[name] for r in base])[0]
                sign = 1 if better.get(name) == "higher" else -1
                wins = sum(sign * (h[name] - b[name]) > 0 for h, b in zip(head, base))
                line += f" | base {bmed:.6g}, ratio {med / bmed if bmed else float('nan'):.3f}, won {wins}/{len(head)}"
            print(line)


if __name__ == "__main__":
    main()
