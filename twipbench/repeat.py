#!/usr/bin/env python3
"""Repeat the benchmark and compare result sets against BENCHMARK.json.

Run from the root of a checkout:

    # N runs per workload, seeds 1..N, run_seconds from BENCHMARK.json,
    # trace 0; saved to a JSON file
    python3 twipbench/repeat.py run --runs 10 --out a.json
    python3 twipbench/repeat.py run --runs 5 --workloads twip-cold --out c.json

    # median, quartiles and spread (IQR / median) of every metric
    python3 twipbench/repeat.py summary a.json

    # does set B regress set A? Every run of both sets must be correct and
    # report every end-to-end metric; each metric's median may be worse by
    # at most its bound, each spread must stay within it, and the failed
    # shares of the two sets must be equal.
    python3 twipbench/repeat.py compare a.json b.json

The spread is the distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    t0 = time.time()
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, p.returncode))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    reference = {}
    for line in p.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0].endswith("_p99_us"):
            reference[parts[0]] = float(parts[1])
    return {"workload": workload, "seed": seed,
            "wall_s": wall, "result": result, "reference": reference}


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def metric_values(runs, name):
    vals = []
    for r in runs:
        m = r["result"]["metrics"].get(name)
        if m is None:
            m = r.get("reference", {}).get(name)
            if m is None:
                continue
            vals.append(m)
        else:
            vals.append(m["value"])
    return vals


def summarize(runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w, rs in sorted(by_workload(runs).items()):
        att = sum(r["result"]["attempted"] for r in rs)
        fail = sum(r["result"]["failed"] for r in rs)
        correct = all(r["result"]["correct"] for r in rs)
        print("%s: %d runs, wall %.1f s median, correct=%s, failed %d of %d"
              % (w, len(rs), statistics.median(r["wall_s"] for r in rs),
                 correct, fail, att))
        ok = ok and correct
        names = list(rs[0]["result"]["metrics"])
        names += sorted({n for r in rs for n in r.get("reference", {})})
        for name in names:
            vals = metric_values(rs, name)
            if not vals:
                continue
            med, q1, q3, spread = stats(vals)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                ok = ok and spread <= bound
            elif name not in rs[0]["result"]["metrics"]:
                note = "(reference)"
            print("  %-36s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%"
                  "%s %s" % (name, med, q1, q3, 100 * spread,
                             "" if bound is None else
                             "  bound %4.0f%%" % (100 * bound), note))
    return ok


def compare(base, new, spec):
    ok = True
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bw, nw = by_workload(base), by_workload(new)
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in bw or w not in nw:
            print("%s: missing from a set" % w)
            ok = False
            continue
        a, b = bw[w], nw[w]
        share = [sum(r["result"]["failed"] for r in rs)
                 / max(1, sum(r["result"]["attempted"] for r in rs))
                 for rs in (a, b)]
        if share[0] != share[1]:
            print("%s: failed share differs: %g vs %g" % (w, share[0],
                                                          share[1]))
            ok = False
        for label, rs in (("base", a), ("new", b)):
            if not all(r["result"]["correct"] for r in rs):
                print("%s: a run of the %s set is not correct" % (w, label))
                ok = False
        for name, m in metrics.items():
            va, vb = metric_values(a, name), metric_values(b, name)
            if len(va) != len(a) or len(vb) != len(b):
                print("%-11s %-18s missing from a run" % (w, name))
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            verdict = "ok" if worse <= m["bound"] else "REGRESSION"
            spread_b = stats(vb)[3]
            if spread_b > m["bound"]:
                verdict += ", spread %.1f%% > bound" % (100 * spread_b)
                ok = False
            ok = ok and worse <= m["bound"]
            print("%-11s %-18s %14.6g -> %14.6g  worse by %+6.2f%% "
                  "(bound %2.0f%%)  %s" % (w, name, ma, mb, 100 * worse,
                                          100 * m["bound"], verdict))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", default=None,
                   help="comma-separated (default: all in BENCHMARK.json)")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()

    spec = load_spec()
    if args.cmd == "run":
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        runs = []
        for w in workloads:
            for seed in range(1, args.runs + 1):
                runs.append(one_run(w, seed, spec["run_seconds"]))
                print("%s seed %d: %.1f s" % (w, seed, runs[-1]["wall_s"]),
                      file=sys.stderr)
                with open(args.out, "w") as f:
                    json.dump({"runs": runs}, f, indent=1)
        return 0 if summarize(runs, spec) else 1
    if args.cmd == "summary":
        with open(args.file) as f:
            return 0 if summarize(json.load(f)["runs"], spec) else 1
    with open(args.base) as f:
        base = json.load(f)["runs"]
    with open(args.new) as f:
        new = json.load(f)["runs"]
    return 0 if compare(base, new, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
