#!/usr/bin/env python3
"""Measure how steady perfbench is: N runs per workload, in S sets.

    python3 perfbench/steadiness.py --runs 10 --sets 2 \\
        --json perfbench/steadiness.json --markdown table.md

Each run is `perfbench/run.py --trace 0` for the contract's run_seconds,
on every workload of the contract, with its own seed.  For every
workload, set and end-to-end metric it records the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median; and
for every metric the drift of each later set's median from the first set's,
counted in the worse direction.  Bounds in BENCHMARK.json are checked
against both.  Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_BASE = 1000  # run i of set s uses seed SEED_BASE + 100 * s + i


def load_contract():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"(exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--json", default=None)
    parser.add_argument("--markdown", default=None)
    args = parser.parse_args()

    contract = load_contract()
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    metrics = {m["name"]: m for m in contract["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:  # interleaved, so drift hits all alike
                seed = SEED_BASE + 100 * s + i
                runs[w][s].append(one_run(w, seed, seconds))
                print(f"set {s} run {i} {w} done", file=sys.stderr)

    report = {"seconds": seconds, "runs": args.runs, "sets": args.sets,
              "workloads": {}}
    ok = True
    md = ["| workload | metric | bound | " +
          " | ".join(f"set {s} median [q1, q3] spread" for s in range(args.sets))
          + " | worst drift | verdict |",
          "|---|---|---|" + "---|" * args.sets + "---|---|"]
    for w in workloads:
        report["workloads"][w] = {}
        for name, spec in metrics.items():
            sets = [summarize([r[name] for r in runs[w][s]])
                    for s in range(args.sets)]
            base = sets[0]["median"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            drifts = [sign * (st["median"] - base) / base for st in sets[1:]]
            worst_drift = max(drifts, default=0.0)
            worst_spread = max(st["spread"] for st in sets)
            bound = spec["bound"]
            spread_ok = name == "setup_s" or worst_spread <= bound / 3
            verdict = ("ok" if spread_ok and worst_drift <= bound else
                       "NOISY" if worst_drift <= bound and
                       (name == "setup_s" or worst_spread <= bound) else
                       "FAIL")
            ok = ok and verdict != "FAIL"
            report["workloads"][w][name] = {"sets": sets,
                                            "worst_drift": worst_drift,
                                            "verdict": verdict}
            cells = [f"{st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] "
                     f"{st['spread']:.3f}" for st in sets]
            md.append(f"| {w} | {name} | {bound} | " + " | ".join(cells) +
                      f" | {worst_drift:+.3f} | {verdict} |")
    text = "\n".join(md)
    print(text)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    if args.markdown:
        Path(args.markdown).write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
