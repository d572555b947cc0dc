"""Output checks for the fabric-simulator benchmark.

Every check is an invariant that holds at any seed. Golden values are not
used: the simulated numbers depend on the seed, and the committed figure
artifacts came from another engine and other seeds.

A run record is the "sim" object fabric_bench prints for one iteration:
  - clos64_*: one ExperimentResult;
  - websearch_asym8: {simulator seed: WorkloadRunResult} for each campaign.
"""


def _failure_run(rec):
    bad = []
    if rec.get("initial_converged") is not True:
        bad.append("not initial_converged")
    if not rec["packets_lost"] <= rec["packets_sent"]:
        bad.append("packets_lost %s > packets_sent %s"
                   % (rec["packets_lost"], rec["packets_sent"]))
    if rec["audit_sweeps"] > 0 and rec["final_sweep_violations"] != 0:
        bad.append("final audit sweep found %s violations"
                   % rec["final_sweep_violations"])
    return bad


def _websearch_run(rec):
    bad = []
    f = rec["flows"]
    if rec.get("initial_converged") is not True:
        bad.append("not initial_converged")
    if f["flows_started"] != f["flows_completed"] + f["flows_incomplete"]:
        bad.append("flows_started %s != completed %s + incomplete %s"
                   % (f["flows_started"], f["flows_completed"],
                      f["flows_incomplete"]))
    if rec["pfc_deadlocks"] != 0:
        bad.append("pfc_deadlocks %s" % rec["pfc_deadlocks"])
    if not f["unique_delivered"] <= f["packets_sent"]:
        bad.append("unique_delivered %s > packets_sent %s"
                   % (f["unique_delivered"], f["packets_sent"]))
    return bad


def run_problems(workload, sim):
    """Checks one iteration's record.

    Returns (runs, failed_runs, problems, failures). Problems are wrong
    outputs; failures are runs that did not finish (a websearch campaign
    stopped at the livelock CPU budget or event cap, or one that raised).
    """
    if workload.startswith("clos64_"):
        bad = _failure_run(sim)
        return 1, 1 if bad else 0, bad, []
    if workload == "websearch_asym8":
        problems, failures, failed = [], [], 0
        for seed, rec in sim.items():
            if "livelock" in rec:
                failed += 1
                failures.append("campaign %s livelocked: stopped at %s"
                                % (seed, ", ".join(
                                    "%s %s" % kv
                                    for kv in rec["livelock"].items())))
                continue
            if "error" in rec:
                failed += 1
                failures.append("campaign %s raised: %s"
                                % (seed, rec["error"]))
                continue
            bad = _websearch_run(rec)
            failed += 1 if bad else 0
            problems += ["campaign %s: %s" % (seed, b) for b in bad]
        return len(sim), failed, problems, failures
    raise ValueError("unknown workload %r" % workload)


def differences(a, b, path="", shared_only=False):
    """Leaf paths where two records differ (bit for bit, as printed).

    With shared_only, keys present in only one record are ignored: the
    traced driver reproduces a subset of the untraced result's fields.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        keys = (a.keys() & b.keys()) if shared_only else (a.keys() | b.keys())
        for k in sorted(keys):
            if k not in a or k not in b:
                out.append(path + k)
            else:
                out += differences(a[k], b[k], path + k + ".", shared_only)
        return out
    if type(a) is not type(b) or a != b:
        return [path.rstrip(".")]
    return []


def check(workload, iterations, reference=None, traced=None):
    """All output checks of one benchmark run.

    `iterations` are the untraced iteration records of one invocation; every
    one repeats the same seeds, so each must equal the first. A traced run
    passes its untraced `reference` and the `traced` record, which must
    reproduce the reference's simulated counters.

    Returns {"attempted", "failed", "problems", "failures"}: the run is
    correct when there are no problems; failures (a run that raised or
    livelocked) count as failed operations.
    """
    attempted = failed = 0
    problems, failures = [], []
    records = [("iteration %d" % i, r) for i, r in enumerate(iterations)]
    records += [(name, r) for name, r in (("reference", reference),
                                          ("traced", traced))
                if r is not None]
    first_sim = None
    for name, rec in records:
        runs = rec.get("runs", 1)
        attempted += runs
        if "sim" not in rec:
            failed += runs
            failures.append("%s raised: %s"
                            % (name, rec.get("error", "no result")))
            continue
        _, failed_here, bad, stuck = run_problems(workload, rec["sim"])
        problems += ["%s: %s" % (name, b) for b in bad]
        failures += ["%s: %s" % (name, f) for f in stuck]
        if rec is not traced:
            if first_sim is None:
                first_sim = rec["sim"]
            else:
                diff = differences(first_sim, rec["sim"])
                if diff:
                    failed_here = runs
                    problems.append(
                        "%s differs from the first iteration at the same "
                        "seed: %s" % (name, ", ".join(diff[:8])))
        elif reference is not None and "sim" in reference:
            diff = differences(reference["sim"], rec["sim"], shared_only=True)
            if diff:
                failed_here = runs
                problems.append("%s run differs from the reference: %s"
                                % (name, ", ".join(diff[:8])))
        failed += failed_here
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "failures": failures}
