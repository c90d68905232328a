#!/usr/bin/env python3
"""Collect and compare cwgl_bench runs. Standard library only.

A *set* is a directory of run outputs, one file per run:
SET/<workload>/seed-<n>.out, holding the benchmark's stdout (the
`workload metric value unit` lines, then the result JSON as the last line).

  compare.py collect OUT [--checkout LABEL=DIR ...] [--workloads W,..]
                         [--seeds 1-10] [--trace 0|1] [--seconds N]
      Runs `python3 cwgl_bench/run.py` in each checkout for every workload and
      seed, writing OUT/<label>/<workload>/seed-<n>.out. With two checkouts
      the order alternates from seed to seed, so drift in the host's speed
      falls on both sides alike. The default is one checkout, `set=.`.

  compare.py spread SET
      Per workload and end-to-end metric: median, quartiles, and the spread
      (Q3 - Q1) / median against the metric's bound. Exits 1 when a spread
      other than setup_s reaches a third of its bound.

  compare.py agree A B
      Two sets of the same code must agree: every end-to-end metric's median
      in B is no worse than in A by more than its bound, and neither set's
      spread exceeds the bound. Exits 0 when they agree, 1 otherwise.

  compare.py claim PARENT CHANGE --metric M --workload W
      Judges a claimed gain on (M, W): the change must win at least 9 of 10
      runs paired by seed (ties count for neither) and the medians must
      differ by more than the parent's own spread (Q3 - Q1). Every other
      (metric, workload) pair must not regress beyond its bound; a pair
      whose spread exceeds its bound is reported as unresolved, unless every
      change run beats every parent run. Exits 0 only when the claim holds
      and nothing regressed.

Runs whose host.steal_pct exceeds 5 are flagged invalid and left out. Bounds,
directions and the metric list come from BENCHMARK.json (--benchmark).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

STEAL_LIMIT_PCT = 5.0


def load_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def parse_run(path):
    """Returns (result dict, {metric: value} from the text lines)."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4:
            try:
                values[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return result, values


def load_set(directory):
    """{workload: {seed: (result, line values)}} with invalid runs dropped."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if not (name.startswith("seed-") and name.endswith(".out")):
                continue
            seed = int(name[len("seed-"):-len(".out")])
            path = os.path.join(wdir, name)
            try:
                result, values = parse_run(path)
            except (ValueError, json.JSONDecodeError) as e:
                print(f"invalid run {path}: {e}", file=sys.stderr)
                continue
            steal = values.get("host.steal_pct", 0.0)
            if steal > STEAL_LIMIT_PCT:
                print(f"invalid run {path}: host.steal_pct {steal:.1f} > "
                      f"{STEAL_LIMIT_PCT}", file=sys.stderr)
                continue
            if not result.get("correct") or result.get("failed", 1) != 0:
                print(f"incorrect run {path}: {result.get('failed')} failed",
                      file=sys.stderr)
            runs.setdefault(workload, {})[seed] = (result, values)
    return runs


def series(runs, metric):
    """Metric values of a workload's runs, ordered by seed."""
    return [r["metrics"][metric]["value"]
            for _, (r, _) in sorted(runs.items()) if metric in r["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def better(metric, a, b):
    """True when value b is better than value a."""
    return b < a if metric["better"] == "lower" else b > a


def cmd_collect(args):
    checkouts = []
    for spec in args.checkout or ["set=."]:
        label, _, path = spec.partition("=")
        checkouts.append((label, os.path.abspath(path or ".")))
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    for workload in args.workloads.split(","):
        for i, seed in enumerate(seeds):
            order = checkouts if i % 2 == 0 else list(reversed(checkouts))
            for label, root in order:
                out_dir = os.path.join(args.out, label, workload)
                os.makedirs(out_dir, exist_ok=True)
                cmd = [sys.executable, "cwgl_bench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
                with open(os.path.join(out_dir, f"seed-{seed}.out"), "w") as f:
                    rc = subprocess.run(cmd, cwd=root, stdout=f).returncode
                print(f"{label} {workload} seed {seed}: exit {rc}",
                      file=sys.stderr)
    return 0


def cmd_spread(args):
    metrics, _ = load_benchmark(args.benchmark)
    runs = load_set(args.set)
    ok = True
    print(f"{'workload':16} {'metric':22} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, wruns in runs.items():
        for name, m in metrics.items():
            values = series(wruns, name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if name != "setup_s" and s >= m["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            print(f"{workload:16} {name:22} {len(values):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:8.4f} {m['bound']:6.3f}{flag}")
    return 0 if ok else 1


def cmd_agree(args):
    metrics, _ = load_benchmark(args.benchmark)
    a, b = load_set(args.a), load_set(args.b)
    ok = True
    for workload in sorted(set(a) | set(b)):
        for name, m in metrics.items():
            va, vb = series(a.get(workload, {}), name), series(
                b.get(workload, {}), name)
            if not va or not vb:
                print(f"{workload} {name}: missing in one set")
                ok = False
                continue
            w = worse_by(m, statistics.median(va), statistics.median(vb))
            sa, sb = spread(va), spread(vb)
            verdict = "ok"
            if w > m["bound"]:
                verdict = "WORSE"
            elif name != "setup_s" and max(sa, sb) > m["bound"]:
                verdict = "SPREAD"
            ok = ok and verdict == "ok"
            print(f"{workload:16} {name:22} worse_by {w:+.4f} spread "
                  f"{sa:.4f}/{sb:.4f} bound {m['bound']:.3f} {verdict}")
    return 0 if ok else 1


def cmd_claim(args):
    metrics, _ = load_benchmark(args.benchmark)
    if args.metric not in metrics:
        print(f"unknown end-to-end metric {args.metric}", file=sys.stderr)
        return 2
    parent, change = load_set(args.parent), load_set(args.change)
    m = metrics[args.metric]
    p_runs = parent.get(args.workload, {})
    c_runs = change.get(args.workload, {})
    seeds = sorted(set(p_runs) & set(c_runs))
    pairs = [(p_runs[s][0]["metrics"][args.metric]["value"],
              c_runs[s][0]["metrics"][args.metric]["value"]) for s in seeds]
    if not pairs:
        print("no paired runs", file=sys.stderr)
        return 2
    wins = sum(1 for p, c in pairs if better(m, p, c))
    pv = [p for p, _ in pairs]
    cv = [c for _, c in pairs]
    q1, pmed, q3 = quartiles(pv)
    cmed = statistics.median(cv)
    gap_ok = abs(cmed - pmed) > (q3 - q1) and better(m, pmed, cmed)
    won_ok = wins >= 0.9 * len(pairs)
    claim_ok = gap_ok and won_ok
    print(f"claim {args.metric} on {args.workload}: {wins}/{len(pairs)} pairs "
          f"won, median {pmed:.6g} -> {cmed:.6g}, parent IQR {q3 - q1:.6g}: "
          f"{'MET' if claim_ok else 'NOT MET'}")

    regressed = False
    for workload in sorted(set(parent) | set(change)):
        for name, mm in metrics.items():
            if (name, workload) == (args.metric, args.workload):
                continue
            pv = series(parent.get(workload, {}), name)
            cv = series(change.get(workload, {}), name)
            if not pv or not cv:
                continue
            w = worse_by(mm, statistics.median(pv), statistics.median(cv))
            if name != "setup_s" and max(spread(pv), spread(cv)) > mm["bound"]:
                all_better = all(better(mm, p, c) for p in pv for c in cv)
                verdict = "better (every run)" if all_better else "UNRESOLVED"
            elif w > mm["bound"]:
                verdict = "REGRESSED"
                regressed = True
            else:
                verdict = "ok"
            print(f"  {workload:16} {name:22} worse_by {w:+.4f} "
                  f"bound {mm['bound']:.3f} {verdict}")
    return 0 if claim_ok and not regressed else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--checkout", action="append")
    c.add_argument("--workloads",
                   default="paper,diverse")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--seconds", type=int, default=None)
    s = sub.add_parser("spread")
    s.add_argument("set")
    a = sub.add_parser("agree")
    a.add_argument("a")
    a.add_argument("b")
    cl = sub.add_parser("claim")
    cl.add_argument("parent")
    cl.add_argument("change")
    cl.add_argument("--metric", required=True)
    cl.add_argument("--workload", required=True)
    args = ap.parse_args()
    if args.command == "collect" and args.seconds is None:
        _, spec = load_benchmark(args.benchmark)
        args.seconds = spec["run_seconds"]
    return {"collect": cmd_collect, "spread": cmd_spread, "agree": cmd_agree,
            "claim": cmd_claim}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
