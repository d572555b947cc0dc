#!/usr/bin/env python3
"""Fabric-simulator benchmark: build, run one workload, check its outputs.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record FILE]
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Run from anywhere inside a checkout of the repository. The first call builds
the simulator libraries and perfbench/fabric_bench.cpp with CMake into
.bench_build/ at the checkout root. Each workload runs in its own process on
one simulation thread.

--trace 0 measures the end-to-end metrics; --trace 1 runs one untraced
iteration and one traced iteration and reports the per-layer metrics. The
report lines name every metric with its unit and end with the output
verdict; the last line is the JSON result. --record appends the run (result,
samples and provenance) to FILE, and `compare` sets two such files side by
side.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
TIME_LIMIT_S = 170

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import checks  # noqa: E402


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configures and builds fabric_bench; returns its path."""
    if not (ROOT / "src" / "harness" / "experiment.hpp").is_file():
        raise SystemExit("run.py: simulator sources not found under %s/src; "
                         "run from a full checkout" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "fabric_bench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                raise SystemExit("run.py: build failed: %s" % " ".join(cmd))
    return BUILD / "fabric_bench"


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def outcomes(workload, sim):
    """The simulated outcomes a user of the modelled fabric sees."""
    out = dict.fromkeys(
        ("harness.convergence_ms", "harness.ctrl_bytes",
         "harness.blast_routers", "harness.packets_lost",
         "traffic.fct_p50_ms", "traffic.fct_p99_ms",
         "traffic.stranded_flows"), 0.0)
    if workload.startswith("clos64_"):
        out["harness.convergence_ms"] = sim["convergence_ms"]
        out["harness.ctrl_bytes"] = sim["ctrl_bytes_raw"]
        out["harness.blast_routers"] = sim["blast_any"]
        out["harness.packets_lost"] = sim["packets_lost"]
    else:
        runs = [r for r in sim.values() if "flows" in r]
        if not runs:
            return out
        out["traffic.fct_p50_ms"] = statistics.mean(
            r["flows"]["fct_p50_ms"] for r in runs)
        out["traffic.fct_p99_ms"] = statistics.mean(
            r["flows"]["fct_p99_ms"] for r in runs)
        out["traffic.stranded_flows"] = sum(
            r["flows"]["flows_incomplete"] for r in runs)
        out["harness.packets_lost"] = sum(
            r["flows"]["packets_sent"] - r["flows"]["unique_delivered"]
            for r in runs)
    return out


def iteration_wall(rec):
    """Host seconds of one untraced iteration. For websearch, the seconds of
    one campaign, averaged over the iteration's campaigns that finished: a
    campaign stopped at its CPU budget is a failed operation, and the budget
    is not a time to report. If none finished, the whole iteration."""
    if "campaign_wall_s" not in rec:
        return rec["wall_s"]
    done = [t for seed, t in rec["campaign_wall_s"].items()
            if "flows" in rec["sim"][seed]]
    return statistics.mean(done) if done else rec["wall_s"]


def span_table(spans):
    """Per span name: count, total seconds, self seconds, durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    table = {}
    for i, s in enumerate(spans):
        d = s["end"] - s["start"]
        row = table.setdefault(s["name"], {"count": 0, "total": 0.0,
                                           "self": 0.0, "durations": []})
        row["count"] += 1
        row["total"] += d
        row["self"] += d - child[i]
        row["durations"].append(d)
    return table


def layer_metrics(workload, names, reference, traced):
    """Per-layer metrics `names` of a traced run: counters as fabric_bench
    read them (0 where a layer did no work), plus the ones derived from
    spans and counter ratios below."""
    t = span_table(traced["spans"])
    m = dict.fromkeys(names, 0)
    m.update((n, v) for n, v in traced["layers_sum"].items() if n in m)
    m.update((n, v) for n, v in traced["layers_max"].items() if n in m)
    raw = dict(traced["layers_sum"])

    def total(name):
        return t.get(name, {}).get("total", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self", 0.0)

    def med_ms(name):
        return 1e3 * median(t.get(name, {}).get("durations", []))

    def count(name):
        return t.get(name, {}).get("count", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_rate(layer, hits, misses):
        h, n = raw.get(layer + hits, 0), raw.get(layer + misses, 0)
        return ratio(h, h + n)

    wall = traced["wall_s"]
    engine_s = sum(self_s(n) for n in ("harness.converge", "harness.steady",
                                       "harness.reconverge",
                                       "harness.campaign"))
    m.update({
        "sim.ns_per_event": ratio(1e9 * engine_s, m["sim.events"]),
        "harness.converge_s": self_s("harness.converge"),
        "harness.converge_share": ratio(self_s("harness.converge"), wall),
        "harness.steady_s": self_s("harness.steady"),
        "harness.reconverge_s": self_s("harness.reconverge"),
        "harness.campaign_s": self_s("harness.campaign"),
        "harness.audit_sweep_ms": med_ms("harness.audit_sweep"),
        "harness.audit_sweeps": count("harness.audit_sweep"),
        "harness.audit_share": ratio(total("harness.audit_sweep"), wall),
        "harness.deploy_ms": 1e3 * total("harness.deploy"),
        "harness.fabric_ms": 1e3 * total("harness.fabric"),
        "harness.start_ms": 1e3 * total("harness.start"),
        "harness.converged_check_ms": med_ms("harness.converged_check"),
        "harness.run_ms_p50": med_ms("harness.run"),
        "harness.runs": count("harness.run"),
        "harness.collect_ms": 1e3 * self_s("harness.collect"),
        "harness.teardown_ms": 1e3 * total("harness.teardown"),
        "topo.blueprint_ms": 1e3 * total("topo.blueprint"),
        "mtp.up_cache_hit_rate": hit_rate("mtp.", "up_cache_hits",
                                          "up_cache_misses"),
        "ip.select_hit_rate": hit_rate("ip.", "select_hits",
                                       "select_misses"),
        "net.ns_per_frame": ratio(1e9 * engine_s,
                                  m["net.frames_delivered"]),
        "traffic.goodput_mbps": ratio(8 * raw.get("traffic.bytes_delivered",
                                                  0),
                                      1e6 * raw.get("traffic.campaign_sim_s",
                                                    0)),
        "traffic.launch_ms": 1e3 * total("traffic.launch"),
        "traffic.collect_ms": 1e3 * total("traffic.collect"),
        "trace.overhead_s": wall - reference["wall_s"],
        "trace.identity_mismatches": len(checks.differences(
            reference["sim"], traced["sim"], shared_only=True)),
    })
    m.update(outcomes(workload, traced["sim"]))
    return m, t


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, bench, workload, seed, seconds, trace, deadline):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: %s did not finish within %d s"
                         % (workload, TIME_LIMIT_S))
    recs = [json.loads(line) for line in done.stdout.splitlines() if line]
    by = {}
    for r in recs:
        by.setdefault(r["rec"], []).append(r)
    iterations = by.get("iteration", [])
    reference = (by.get("reference") or [None])[0]
    traced = (by.get("traced") or [None])[0]
    if done.returncode != 0 or not (iterations or traced):
        raise SystemExit("run.py: fabric_bench exited with %d for %s"
                         % (done.returncode, workload))
    measured = ([r for r in iterations if "sim" in r] if trace == 0
                else [r for r in (reference, traced) if "sim" in r])
    if len(measured) < (1 if trace == 0 else 2):
        raise SystemExit("run.py: %s produced no result: %s" % (
            workload, [r.get("error") for r in recs if "error" in r]))

    verdict = checks.check(workload, iterations, reference, traced)
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload]
    prov = dict(by["provenance"][0])
    prov.pop("rec")
    prov.update({"nproc": os.cpu_count(), "git_commit": git_commit(),
                 "workload": workload,
                 "seed": seed, "seconds": seconds, "trace": trace,
                 "why": why})
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    samples = {}
    if trace == 0:
        walls = [iteration_wall(r) for r in measured]
        setup = by["setup"][0]["seconds"] if "setup" in by else []
        prov["iterations"] = len(iterations)
        prov["setup_repetitions"] = len(setup)
        values = {"wall_s": median(walls), "setup_s": median(setup),
                  "peak_rss_mb": by["rss"][0]["peak_rss_mb"]}
        samples = {"wall_s": walls, "setup_s": setup}
        names = [m["name"] for m in bench["end_to_end"]]
        shown = dict(values, **outcomes(workload, measured[0]["sim"]))
    else:
        prov["iterations"] = 1
        names = [m["name"] for m in bench["per_layer"]]
        values, table = layer_metrics(workload, names, reference, traced)
        shown = values
        TRACES.mkdir(parents=True, exist_ok=True)
        dump = TRACES / ("%s-seed%s.json" % (workload, seed))
        with open(dump, "w") as f:
            json.dump({"provenance": prov, "spans": traced["spans"]}, f)
        print("spans (%d) written to %s" % (len(traced["spans"]), dump))
        print("%-26s %6s %10s %10s" % ("span", "count", "total_s", "self_s"))
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total"]):
            print("%-26s %6d %10.4f %10.4f"
                  % (name, row["count"], row["total"], row["self"]))

    print("== %s seed %s trace %s: %s" % (workload, seed, trace, why))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, v in shown.items():
        print("  %-28s %16.6g %s" % (name, v, units.get(name, "")))
    if trace == 0:
        for name in ("wall_s", "setup_s"):
            q1, q3 = quartiles(samples[name])
            print("  %s: median of %d, quartiles %.6g .. %.6g"
                  % (name, len(samples[name]), q1, q3))
    status = "PASS" if not verdict["problems"] else "FAIL"
    print("output check %s: %d runs attempted, %d failed"
          % (status, verdict["attempted"], verdict["failed"]))
    for p in verdict["problems"][:20]:
        print("  wrong output: " + p)
    for p in verdict["failures"][:20]:
        print("  failed run: " + p)

    return {
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "samples": samples,
        "provenance": prov,
    }


def main_run(args):
    bench = spec()
    binary = build()
    deadline = time.monotonic() + TIME_LIMIT_S
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        raise SystemExit("run.py: unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(names)))
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    for w in todo:
        if args.workload == "all":
            deadline = time.monotonic() + TIME_LIMIT_S
        results[w] = run_workload(binary, bench, w, args.seed, args.seconds,
                                  args.trace, deadline)
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps(dict(results[w], workload=w,
                                        seed=args.seed, trace=args.trace))
                        + "\n")
    if len(todo) == 1:
        r = results[todo[0]]
        line = {k: r[k] for k in ("correct", "attempted", "failed",
                                  "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, n): v for w, r in results.items()
                        for n, v in r["metrics"].items()},
        }
    print(json.dumps(line))


# --------------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------------

def load(path):
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if r["trace"] == 0]


def pair_runs(base, new):
    """Pairs of (base run, new run): runs of one seed pair up in the order
    they were recorded, so repeated seeds give several pairs. Without any
    common seed, runs pair up in order. Also returns the runs left unpaired."""
    b_seed, n_seed = {}, {}
    for r in base:
        b_seed.setdefault(r["seed"], []).append(r)
    for r in new:
        n_seed.setdefault(r["seed"], []).append(r)
    common = sorted(b_seed.keys() & n_seed.keys())
    if not common:
        pairs = list(zip(base, new))
    else:
        pairs = [p for s in common for p in zip(b_seed[s], n_seed[s])]
    return pairs, len(base) + len(new) - 2 * len(pairs)


def compare(base_path, new_path):
    """Per workload and end-to-end metric: both medians and quartiles, the
    new/base ratio with its base, pair wins and losses, the bound check and a
    verdict. A side is better only if there are at least ten pairs, it wins
    at least nine tenths of them (ties count for neither) and the medians
    differ by more than the base's quartile spread; otherwise unresolved.
    The bound column says whether the new median is worse than the base's
    by more than the metric's bound; it is unresolved when the base's own
    quartile spread is wider than the bound, unless every new run beats
    every base run."""
    bench = spec()
    base, new = load(base_path), load(new_path)
    print("%-18s %-12s %-32s %-32s %-22s %-10s %-14s %s" % (
        "workload", "metric", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "new/base (base)", "won/lost",
        "bound", "verdict"))
    for w in [w["name"] for w in bench["workloads"]]:
        b = [r for r in base if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        if not b or not n:
            continue
        pairs, unpaired = pair_runs(b, n)
        if unpaired:
            print("%-18s %d runs have no partner of the same seed and are "
                  "left out of the pairs" % (w, unpaired))
        for m in bench["end_to_end"]:
            name, unit = m["name"], m["unit"]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            bm, nm = median(bv), median(nv)
            bq, nq = quartiles(bv), quartiles(nv)
            sign = -1 if m["better"] == "lower" else 1
            wins = losses = 0
            for pb, pn in pairs:
                d = sign * (pn["metrics"][name]["value"]
                            - pb["metrics"][name]["value"])
                wins += d > 0
                losses += d < 0
            spread = bq[1] - bq[0]
            verdict = "unresolved"
            if len(pairs) >= 10 and abs(nm - bm) > spread:
                if wins >= 0.9 * len(pairs):
                    verdict = "better"
                elif losses >= 0.9 * len(pairs):
                    verdict = "worse"
            worse_by = sign * (bm - nm) / bm if bm else 0.0
            all_beat = min(sign * v for v in nv) > max(sign * v for v in bv)
            if bm and spread / bm > m["bound"] and not all_beat:
                bound = "unresolved"
            else:
                bound = "over" if worse_by > m["bound"] else "within"
            print("%-18s %-12s %-32s %-32s %-22s %-10s %-14s %s" % (
                w, name,
                "%.4g [%.4g, %.4g] (%d)" % (bm, bq[0], bq[1], len(bv)),
                "%.4g [%.4g, %.4g] (%d)" % (nm, nq[0], nq[1], len(nv)),
                "%.3f (%.4g %s)" % (nm / bm if bm else float("nan"), bm,
                                    unit),
                "%d/%d of %d" % (wins, losses, len(pairs)),
                "%s %.0f%%" % (bound, 100 * m["bound"]),
                verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            raise SystemExit("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", help="append the run to this JSON-lines file")
    main_run(p.parse_args())


if __name__ == "__main__":
    main()
