#!/usr/bin/env python3
"""Tests of the benchmark's output checks against stored results.

  python3 perfbench/test_checks.py              # run the tests
  python3 perfbench/test_checks.py --regenerate SEED...

The stored results in perfbench/testdata/ are fabric_bench records (two
untraced iterations, one untraced reference and one traced run, per
workload and seed) with the spans left out. --regenerate builds
fabric_bench the way run.py does and rewrites them.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "testdata"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

WORKLOADS = ("clos64_bgpbfd_tc1", "websearch_asym8")


def regenerate(seeds):
    import run
    binary = run.build()
    DATA.mkdir(exist_ok=True)
    for w in WORKLOADS:
        for seed in seeds:
            stored = {"workload": w, "seed": int(seed)}
            for trace in ("0", "1"):
                out = subprocess.run(
                    [str(binary), "--workload", w, "--seed", seed,
                     "--seconds", "0.001", "--trace", trace],
                    check=True, capture_output=True, text=True).stdout
                for line in out.splitlines():
                    rec = json.loads(line)
                    keep = {k: rec[k] for k in ("runs", "sim", "error")
                            if k in rec}
                    if rec["rec"] == "iteration":
                        stored.setdefault("iterations", []).append(keep)
                    elif rec["rec"] in ("reference", "traced"):
                        stored[rec["rec"]] = keep
            path = DATA / ("%s-seed%s.json" % (w, seed))
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
            print("wrote", path)


def stored_results():
    return [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]


def verdict(stored):
    return checks.check(stored["workload"], stored["iterations"],
                        stored["reference"], stored["traced"])


def records(stored):
    """(kind, index) of every stored record that carries a "sim"."""
    out = [("iterations", i) for i in range(len(stored["iterations"]))]
    return out + [(k, None) for k in ("reference", "traced")]


def record(stored, kind, index):
    return stored[kind] if index is None else stored[kind][index]


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, path + (k,))
    else:
        yield path


def get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def put(obj, path, value):
    get(obj, path[:-1])[path[-1]] = value


def corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.5 + 1.0
    return str(value) + "?"


def everywhere(stored, edit):
    """Applies edit(sim) to the sim record of every stored run."""
    out = copy.deepcopy(stored)
    for kind, index in records(out):
        edit(record(out, kind, index)["sim"])
    return out


class StoredResults(unittest.TestCase):
    def setUp(self):
        self.stored = stored_results()
        seeds = {s["seed"] for s in self.stored}
        self.assertGreaterEqual(len(seeds), 3, "need three stored seeds")
        self.assertEqual({s["workload"] for s in self.stored}, set(WORKLOADS))

    def test_stored_results_pass(self):
        for s in self.stored:
            with self.subTest(workload=s["workload"], seed=s["seed"]):
                v = verdict(s)
                self.assertEqual(v["problems"], [])
                self.assertGreater(v["attempted"], 0)
                for f in v["failures"]:
                    self.assertIn("livelocked", f)

    def test_any_corrupted_field_fails(self):
        # Every record repeats the same seeds, so one corrupted field in any
        # one of them breaks repeat identity even where no invariant reads it.
        for s in self.stored:
            for kind, index in records(s):
                for path in leaves(record(s, kind, index)["sim"]):
                    bad = copy.deepcopy(s)
                    target = record(bad, kind, index)["sim"]
                    put(target, path, corrupt(get(target, path)))
                    with self.subTest(workload=s["workload"], seed=s["seed"],
                                      record=kind, index=index,
                                      field=".".join(path)):
                        v = verdict(bad)
                        self.assertTrue(v["problems"])
                        self.assertGreater(v["failed"], 0)

    def test_invariants_fail_when_every_copy_is_corrupted(self):
        for s in self.stored:
            for name, edit in invariant_breakers(s["workload"]):
                with self.subTest(workload=s["workload"], seed=s["seed"],
                                  invariant=name):
                    v = verdict(everywhere(s, edit))
                    self.assertTrue(v["problems"])
                    self.assertGreater(v["failed"], 0)

    def test_unfinished_runs_count_as_failed(self):
        s = copy.deepcopy(self.stored[0])
        s["iterations"][1] = {"runs": 1, "error": "boom"}
        v = verdict(s)
        self.assertEqual(v["problems"], [])
        self.assertEqual(v["failed"], 1)
        self.assertTrue(v["failures"])

        web = next(x for x in self.stored if x["workload"] == "websearch_asym8")
        for stuck in ({"livelock": {"events": 30000001, "sim_ms": 4400.0}},
                      {"livelock": {"cpu_budget_s": 15}},
                      {"error": "std::bad_alloc"}):
            with self.subTest(campaign=stuck):
                s = everywhere(web, lambda sim: sim.__setitem__(
                    next(iter(sim)), stuck))
                v = verdict(s)
                self.assertEqual(v["problems"], [])
                self.assertEqual(v["failed"], len(records(s)))


def invariant_breakers(workload):
    """(name, edit) pairs that each break one invariant of the workload."""
    if workload.startswith("clos64_"):
        def lose_too_many(sim):
            sim["packets_lost"] = sim["packets_sent"] + 1

        def dirty_final_sweep(sim):
            sim["final_sweep_violations"] = 1
            sim["audit_sweeps"] = max(sim["audit_sweeps"], 1)

        return [
            ("initial_converged",
             lambda sim: sim.__setitem__("initial_converged", False)),
            ("packets_lost <= packets_sent", lose_too_many),
            ("final sweep clean", dirty_final_sweep),
        ]
    if workload == "websearch_asym8":
        def each(fn):
            return lambda sim: [fn(r) for r in sim.values() if "flows" in r]

        def flows(field, fn):
            return each(lambda r: r["flows"].__setitem__(field,
                                                         fn(r["flows"])))

        return [
            ("initial_converged",
             each(lambda r: r.__setitem__("initial_converged", False))),
            ("started == completed + incomplete",
             flows("flows_incomplete", lambda f: f["flows_incomplete"] + 1)),
            ("pfc_deadlocks == 0",
             each(lambda r: r.__setitem__("pfc_deadlocks", 1))),
            ("unique_delivered <= packets_sent",
             flows("unique_delivered", lambda f: f["packets_sent"] + 1)),
        ]
    raise ValueError(workload)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--regenerate":
        regenerate(sys.argv[2:])
    else:
        unittest.main()
