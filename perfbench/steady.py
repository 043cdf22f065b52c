#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs one workload repeatedly, each run with another seed, and prints each
metric's median, quartiles and spread (the distance between the first and
third quartile as a share of the median) next to its bound from
BENCHMARK.json. Given a second set of runs (``--compare``), it also checks
that no median got worse than the first set's by more than the bound, and
that the share of failed operations is the same in both sets.

    python3 perfbench/steady.py --workload pbft-mem-burst --runs 10 --save a.json
    python3 perfbench/steady.py --workload pbft-mem-burst --runs 10 --first-seed 101 \\
        --save b.json --compare a.json

Run from the repository root. Exits non-zero when a spread exceeds its
bound (setup_s is exempt, as its spread is not bounded) or a comparison
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    # A traced run also prints its end-to-end figures on a `# e2e` line.
    for line in lines:
        if line.startswith("# e2e "):
            result["e2e"] = json.loads(line[len("# e2e "):])
    return result


def summarize(runs, metrics, key="metrics"):
    """Per metric: (median, q1, q3, spread)."""
    out = {}
    for m in metrics:
        values = [r[key][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the runs' results to this JSON file")
    ap.add_argument("--compare", help="a --save file of an earlier set to compare against")
    args = ap.parse_args()

    bench = spec()
    saved = {"workload": args.workload, "trace": args.trace, "runs": []}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(bench, args.workload, seed, bench["run_seconds"], args.trace)
        saved["runs"].append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))

    metrics = bench["per_layer"] if saved["trace"] else bench["end_to_end"]
    summary = summarize(saved["runs"], metrics)
    ok = True
    print(f"\n{saved['workload']}: {len(saved['runs'])} runs, failed share {failed_share(saved['runs'])}")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        med, q1, q3, spread = summary[m["name"]]
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of bound"
        print(f"{m['name']:<34} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>6}{flag}")

    if saved["trace"] and all("e2e" in r for r in saved["runs"]):
        print("\nend-to-end figures of the traced runs (tracing overhead against untraced runs):")
        for name, (med, q1, q3, spread) in summarize(saved["runs"], bench["end_to_end"], "e2e").items():
            print(f"{name:<34} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%}")

    if args.compare:
        before = json.loads(Path(args.compare).read_text())
        base = summarize(before["runs"], metrics)
        print(f"\nagainst {args.compare} ({len(before['runs'])} runs):")
        for m in metrics:
            if "bound" not in m:
                continue
            old, new = base[m["name"]][0], summary[m["name"]][0]
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print(f"{m['name']:<34} {old:>12.4f} -> {new:>12.4f}  worse by {worse:>7.2%}  {verdict}")
        same = failed_share(before["runs"]) == failed_share(saved["runs"])
        ok &= same
        print(f"failed share equal: {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
