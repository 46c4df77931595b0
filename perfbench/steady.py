"""Steadiness of the benchmark: two sets of runs of one commit, compared.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --drift 60

Makes two sets of 10 runs of perfbench/run.py on every workload of
BENCHMARK.json, each run ``run_seconds`` long with a fresh seed (set s, run
r uses seed 1000*s + r + 1); the second set starts when the first has
finished on every workload. For every end-to-end metric it prints each
set's median and quartiles, the spread (distance between the quartiles over
the median), and whether every spread and the change of the median stay
within the metric's bound; the failed share must be identical across sets.
The report is also written to perfbench/results/.

``--drift SECONDS`` instead times a fixed loop that does not use the
program (the checker's own band tracker on one trimer) for that long and
reports how far the machine's speed moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def quart(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def drift(seconds: float) -> dict:
    sys.path.insert(0, str(HERE))
    import oracle
    params = {"alpha": 1.0, "beta": 1.2, "delta": 0.3, "gamma": 0.7, "v": 0.7, "m": 1}
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(20):
            oracle.track("trimer", params, 0.785)
        times.append(time.perf_counter() - t0)
    q1, med, q3 = quart(times)
    return {"loops": len(times), "min": min(times), "q1": q1, "median": med, "q3": q3,
            "max": max(times), "spread": (q3 - q1) / med, "range": (max(times) - min(times)) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drift", type=float, default=None, metavar="SECONDS")
    args = parser.parse_args(argv)
    if args.drift:
        d = drift(args.drift)
        print(json.dumps(d, indent=1))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": RUNS, "sets": SETS, "seconds": seconds, "workloads": {}}
    # sets outermost, so the two sets of one workload lie far apart in time
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for w in names:
            for r in range(RUNS):
                res = run_once(w, 1000 * s + r + 1, seconds)
                results[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"{w} set {s} run {r}: {vals} attempted={res['attempted']} "
                      f"failed={res['failed']} correct={res['correct']}", flush=True)
    ok = True
    for w, sets in results.items():
        rows = {}
        for metric, bound in bounds.items():
            stats = []
            for runs in sets:
                q1, med, q3 = quart([r["metrics"][metric]["value"] for r in runs])
                stats.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            change = stats[1]["median"] / stats[0]["median"] - 1.0
            agree = abs(change) <= bound
            steady = all(st["spread"] <= bound for st in stats)
            ok &= agree and steady
            rows[metric] = {"bound": bound, "sets": stats, "change": change,
                            "agree": agree, "steady": steady}
            print(f"{w} {metric}: " + "; ".join(
                f"median {st['median']:.4f} (q1 {st['q1']:.4f}, q3 {st['q3']:.4f}, "
                f"spread {st['spread']:.3f})" for st in stats)
                + f"; change {change:+.3f}, bound {bound}, "
                  f"{'agree' if agree else 'DISAGREE'}{'' if steady else ', SPREAD ABOVE BOUND'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(set(shares)) == 1
        report["workloads"][w] = {"metrics": rows, "failed_share": shares, "correct": correct}
        print(f"{w}: failed share {shares}, all correct {correct}")
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'steady' if ok else 'NOT steady'}; report in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
