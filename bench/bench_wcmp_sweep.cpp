// WCMP + flowlet A/B sweep: the same websearch campaign (50% load, TC1
// failure mid-run) is scored three ways per protocol — plain HRW/ECMP,
// capacity-weighted WCMP, and WCMP with flowlet-granularity rerouting — on
// the symmetric 8-PoD fabric and on the 2:1 oversubscribed asymmetric one.
//
// The claim under test: on the asymmetric fabric, hashing 1/N of the flows
// onto half-rate uplinks is exactly what drags the FCT tail, so weighting
// the rendezvous hash by link capacity must pull p99/p999 down, and flowlet
// rerouting may trim further under transient congestion — while max_gap and
// out_of_order stay bounded (a reroute inside an open flowlet would show up
// there first) and events/sec stays within noise of baseline (the weighted
// pick is O(n) like the unweighted one). On the symmetric fabric all three
// modes must be statistical ties. scripts/check.sh gates on all of this.
#include <fstream>

#include "bench_common.hpp"
#include "harness/workload.hpp"
#include "util/json.hpp"

namespace {

using namespace mrmtp;

struct Row {
  std::string topology;
  harness::WorkloadRunSpec spec;
};

util::Json run_point(const Row& row, harness::Table& table) {
  harness::WorkloadRunResult r = harness::run_workload(row.spec);
  const traffic::FlowStats& f = r.flows;
  const auto proto = std::string(to_string(row.spec.proto));
  const auto mode = std::string(to_string(row.spec.options.path_select));
  const double eps =
      r.wall_seconds > 0 ? static_cast<double>(r.events_fired) / r.wall_seconds
                         : 0;

  table.add_row({row.topology, proto, mode, std::to_string(f.flows_started),
                 std::to_string(f.flows_incomplete),
                 harness::fmt(f.fct_p50_ms, 2), harness::fmt(f.fct_p99_ms, 2),
                 harness::fmt(f.fct_p999_ms, 2),
                 std::to_string(f.out_of_order),
                 harness::fmt(f.max_gap_ms, 1),
                 std::to_string(f.flowlet_reroutes),
                 std::to_string(f.wcmp_weight_updates),
                 harness::fmt(eps / 1e6, 2)});

  util::Json point;
  point["topology"] = row.topology;
  point["protocol"] = proto;
  point["path_select"] = mode;
  point["load"] = row.spec.workload.load;
  point["failure"] = row.spec.inject_failure;
  point["initial_converged"] = r.initial_converged;
  point["flows_started"] = static_cast<std::int64_t>(f.flows_started);
  point["flows_completed"] = static_cast<std::int64_t>(f.flows_completed);
  point["flows_incomplete"] = static_cast<std::int64_t>(f.flows_incomplete);
  point["out_of_order"] = static_cast<std::int64_t>(f.out_of_order);
  point["duplicates"] = static_cast<std::int64_t>(f.duplicates);
  point["max_gap_ms"] = f.max_gap_ms;
  point["fct_p50_ms"] = f.fct_p50_ms;
  point["fct_p99_ms"] = f.fct_p99_ms;
  point["fct_p999_ms"] = f.fct_p999_ms;
  point["fct_mean_ms"] = f.fct_mean_ms;
  point["fct_max_ms"] = f.fct_max_ms;
  point["fct_samples"] = static_cast<std::int64_t>(f.fct_samples);
  point["flowlet_reroutes"] = static_cast<std::int64_t>(f.flowlet_reroutes);
  point["wcmp_weight_updates"] =
      static_cast<std::int64_t>(f.wcmp_weight_updates);
  point["data_queue_drops"] = static_cast<std::int64_t>(r.data_queue_drops);
  point["events_fired"] = static_cast<std::int64_t>(r.events_fired);
  point["wall_seconds"] = r.wall_seconds;
  point["events_per_sec"] = eps;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  BenchFlags flags = BenchFlags::parse(argc, argv, "BENCH_wcmp.json");

  print_header("WCMP + flowlet sweep — tail FCT under asymmetry",
               "weighted-multipath extension; paper Section III.C load "
               "balancing");

  // Same edge provisioning rationale as the workload sweep: 100 Mb/s server
  // edges with deep queues so the only losses are the ones routing causes,
  // and flow sizes scaled to match the smaller edges.
  harness::WorkloadRunSpec base;
  base.seed = 11;
  base.options.host_link.bandwidth_bps = 100'000'000ull;
  base.options.host_link.max_queue = sim::Duration::seconds(1);
  // 250 Mb/s fabric links (vs the deploy default 10G): each rack offers up
  // to 400 Mb/s into 375 Mb/s of striped uplink capacity on the asymmetric
  // fabric, so hashing half the flows onto the 125 Mb/s stripe genuinely
  // queues — at 10G the 2:1 stripe would be invisible (50x headroom) and
  // the A/B would measure nothing.
  base.options.link.bandwidth_bps = 250'000'000ull;
  base.options.link.max_queue = sim::Duration::seconds(1);
  base.workload.cdf = traffic::FlowSizeCdf::websearch();
  base.workload.load = 0.5;
  base.workload.size_scale = 0.02;
  base.workload.payload_size = 1000;
  base.inject_failure = true;

  // The asymmetric fabric carries the claim: stripe_rate {1.0, 0.5} halves
  // every second uplink, so every candidate set mixes full- and half-rate
  // members — the regime where equal-share hashing pays and WCMP collects.
  const std::pair<std::string, topo::ClosParams> fabrics[] = {
      {"8-PoD", {8, 2, 2, 4, 1}},
      {"8-PoD-asym-2:1", topo::ClosParams::asymmetric_8pod_oversub()},
  };
  const util::PathSelect modes[] = {util::PathSelect::kHrw,
                                    util::PathSelect::kWcmp,
                                    util::PathSelect::kWcmpFlowlet};

  harness::Table table({"topology", "protocol", "mode", "flows", "stranded",
                        "p50 ms", "p99 ms", "p999 ms", "ooo", "max_gap ms",
                        "reroutes", "w_updates", "Mev/s"});
  util::Json doc;
  doc["bench"] = "wcmp_sweep";
  stamp_campaign(doc, {11});
  util::JsonArray points;

  for (const auto& [name, params] : fabrics) {
    for (harness::Proto proto : {harness::Proto::kMtp, harness::Proto::kBgp}) {
      for (util::PathSelect mode : modes) {
        Row row{name, base};
        row.spec.topo = params;
        row.spec.proto = proto;
        row.spec.options.path_select = mode;
        points.push_back(run_point(row, table));
      }
    }
  }

  doc["points"] = std::move(points);
  table.print(/*with_csv=*/true);

  std::ofstream out(flags.json_out);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s (%zu points).\n", flags.json_out.c_str(),
              doc["points"].as_array().size());

  std::printf(
      "\nShape check: on the 8-PoD-asym-2:1 rows, wcmp and wcmp+flowlet\n"
      "p99/p999 should sit at or below the hrw row for the same protocol —\n"
      "capacity-weighted hashing stops parking 1/N of the flows on half-rate\n"
      "uplinks. On the symmetric 8-PoD rows all three modes should tie.\n"
      "max_gap and out_of_order must stay bounded: flowlet reroutes only\n"
      "fire across idle gaps, never inside a burst.\n");
  return 0;
}
