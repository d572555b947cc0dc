// Buffers-scarce incast sweep: finite shared switch pools (buffer size x
// incast fan-in x congestion mode) on the 8-PoD fabric, MR-MTP vs BGP/ECMP.
// "taildrop" is the commodity configuration congestion collapse lives in —
// fully shared pool (alpha 0), no ECN, no PFC, open-loop senders — so one
// 64:1 incast fills some pool to ~100% and every refused admission kills a
// probe flow for good. "ecn_pfc" turns on the designed relief valves:
// dynamic-threshold sharing, CE marking with closed-loop sender backoff, and
// hop-by-hop PFC PAUSE that blocks senders instead of dropping their
// packets. The artifact (BENCH_buffer_occupancy.json) records FCT quantiles,
// stranded-flow counts, occupancy high-water, the ECN/PFC counters, and the
// auditor's PFC-deadlock verdicts; scripts/check.sh gates on it.
#include <fstream>

#include "bench_common.hpp"
#include "harness/workload.hpp"
#include "util/json.hpp"

namespace {

using namespace mrmtp;

struct Row {
  std::string mode;  // "taildrop" | "ecn_pfc"
  bool chaos = false;
  harness::WorkloadRunSpec spec;
};

util::Json run_point(const Row& row, harness::Table& table) {
  harness::WorkloadRunResult r = harness::run_workload(row.spec);
  const traffic::FlowStats& f = r.flows;
  const auto proto = std::string(to_string(row.spec.proto));
  const auto pool_kib = static_cast<std::int64_t>(
      row.spec.options.switch_buffer->pool_bytes >> 10);

  table.add_row(
      {proto, row.mode, std::to_string(row.spec.workload.incast_fanin),
       std::to_string(pool_kib), row.chaos ? "yes" : "no",
       std::to_string(f.flows_started), std::to_string(f.flows_completed),
       std::to_string(f.flows_incomplete), harness::fmt(f.fct_p50_ms, 1),
       harness::fmt(f.fct_p99_ms, 1), harness::fmt(r.occupancy_hw_ratio, 3),
       std::to_string(r.buffer_drops), std::to_string(r.ecn_marked),
       std::to_string(r.pause_tx), std::to_string(r.pfc_deadlocks)});

  util::Json point;
  point["protocol"] = proto;
  point["mode"] = row.mode;
  point["fanin"] = static_cast<std::int64_t>(row.spec.workload.incast_fanin);
  point["pool_kib"] = pool_kib;
  point["chaos"] = row.chaos;
  point["initial_converged"] = r.initial_converged;
  point["flows_started"] = static_cast<std::int64_t>(f.flows_started);
  point["flows_completed"] = static_cast<std::int64_t>(f.flows_completed);
  point["flows_incomplete"] = static_cast<std::int64_t>(f.flows_incomplete);
  point["fct_p50_ms"] = f.fct_p50_ms;
  point["fct_p99_ms"] = f.fct_p99_ms;
  point["fct_p999_ms"] = f.fct_p999_ms;
  point["fct_mean_ms"] = f.fct_mean_ms;
  point["fct_max_ms"] = f.fct_max_ms;
  point["ecn_marked"] = static_cast<std::int64_t>(r.ecn_marked);
  point["ecn_echoes"] = static_cast<std::int64_t>(f.ecn_echoes);
  point["pause_tx"] = static_cast<std::int64_t>(r.pause_tx);
  point["pause_rx"] = static_cast<std::int64_t>(r.pause_rx);
  point["pause_blocked_ms"] =
      static_cast<double>(f.pause_blocked_ns) / 1e6;
  point["buffer_drops"] = static_cast<std::int64_t>(r.buffer_drops);
  point["data_queue_drops"] = static_cast<std::int64_t>(r.data_queue_drops);
  point["ctrl_queue_drops"] = static_cast<std::int64_t>(r.ctrl_queue_drops);
  point["occupancy_hw_ratio"] = r.occupancy_hw_ratio;
  point["pfc_deadlocks"] = static_cast<std::int64_t>(r.pfc_deadlocks);
  point["audit_violations"] = static_cast<std::int64_t>(r.audit_violations);
  point["events_fired"] = static_cast<std::int64_t>(r.events_fired);
  point["wall_seconds"] = r.wall_seconds;
  // Host-dependent throughput telemetry (ignored by bench_diff.py).
  point["events_per_wall_sec"] =
      r.wall_seconds > 0 ? static_cast<double>(r.events_fired) / r.wall_seconds
                         : 0.0;
  return point;
}

/// Shallow merchant-silicon switches under a synchronized incast. The whole
/// fan-in fires at once, so the victim ToR's shared pool — not any route —
/// is the bottleneck the modes separate on.
harness::WorkloadRunSpec base_spec() {
  harness::WorkloadRunSpec spec;
  spec.topo = {8, 2, 2, 4, 5};  // 80 hosts: room for a true 64:1 fan-in
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::millis(50);
  spec.workload.cdf = traffic::FlowSizeCdf::websearch();
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.workload.scenario = traffic::Scenario::kIncast;
  spec.workload.load = 0.8;
  spec.launch_window = sim::Duration::millis(400);
  spec.drain = sim::Duration::seconds(3);
  spec.audit = true;  // PFC-deadlock scan on every point
  spec.audit_period = sim::Duration::millis(500);
  return spec;
}

net::SwitchBufferParams buffered_mode(std::uint64_t pool_bytes) {
  net::SwitchBufferParams p;
  p.pool_bytes = pool_bytes;
  p.port_reserve_bytes = 4u << 10;
  p.dt_alpha = 1.0;
  p.ecn_data_threshold = 8u << 10;
  p.pfc_xoff_bytes = 8u << 10;
  p.pfc_xon_bytes = 4u << 10;
  return p;
}

net::SwitchBufferParams taildrop_mode(std::uint64_t pool_bytes) {
  net::SwitchBufferParams p;
  p.pool_bytes = pool_bytes;
  p.dt_alpha = 0.0;  // fully shared: one incast may take the entire pool
  p.ecn_data_threshold = 0;
  p.pfc_xoff_bytes = 0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrmtp;
  using namespace mrmtp::bench;

  BenchFlags flags =
      BenchFlags::parse(argc, argv, "BENCH_buffer_occupancy.json");

  print_header("Buffer-occupancy sweep — incast with finite switch pools",
               "robustness extension; FatPaths-style ECN fabric assumptions");

  constexpr std::uint64_t kBasePool = 256u << 10;

  harness::Table table({"protocol", "mode", "fanin", "pool KiB", "chaos",
                        "flows", "complete", "stranded", "p50 ms", "p99 ms",
                        "occ_hw", "buf_drops", "ecn", "pause_tx",
                        "deadlocks"});
  util::Json doc;
  doc["bench"] = "buffer_occupancy";
  stamp_campaign(doc, {11});
  util::JsonArray points;

  // --- the headline grid: fan-in x mode x protocol at the base pool ---
  for (harness::Proto proto : {harness::Proto::kMtp, harness::Proto::kBgp}) {
    for (std::uint32_t fanin : {16u, 64u}) {
      for (const char* mode : {"taildrop", "ecn_pfc"}) {
        Row row{mode, /*chaos=*/false, base_spec()};
        row.spec.proto = proto;
        row.spec.workload.incast_fanin = fanin;
        const bool ecn = std::string(mode) == "ecn_pfc";
        row.spec.options.switch_buffer =
            ecn ? buffered_mode(kBasePool) : taildrop_mode(kBasePool);
        row.spec.workload.ecn_response = ecn;
        points.push_back(run_point(row, table));
      }
    }
  }

  // --- buffer-size sweep at the worst point (64:1, ECN+PFC, MR-MTP) ---
  for (std::uint64_t pool : {64u << 10, 1u << 20}) {
    Row row{"ecn_pfc", /*chaos=*/false, base_spec()};
    row.spec.workload.incast_fanin = 64;
    row.spec.options.switch_buffer = buffered_mode(pool);
    row.spec.workload.ecn_response = true;
    points.push_back(run_point(row, table));
  }

  // --- seeded buffer-squeeze chaos on the protected mode: pools shrink to
  // a quarter mid-campaign and heal; the deadlock verdict must stay zero ---
  {
    Row row{"ecn_pfc", /*chaos=*/true, base_spec()};
    row.spec.workload.incast_fanin = 64;
    row.spec.options.switch_buffer = buffered_mode(kBasePool);
    row.spec.workload.ecn_response = true;
    row.spec.chaos_squeezes = 8;
    row.spec.squeeze_frac = 0.1;
    points.push_back(run_point(row, table));
  }

  doc["points"] = std::move(points);
  table.print(/*with_csv=*/true);

  std::ofstream out(flags.json_out);
  out << doc.dump(/*pretty=*/true) << "\n";
  std::printf("\nWrote %s (%zu points).\n", flags.json_out.c_str(),
              doc["points"].as_array().size());

  std::printf(
      "\nShape check: taildrop at 64:1 should fill some pool to ~100%%\n"
      "(occ_hw ~ 1.0) and strand most of the fan-in — refused admissions\n"
      "kill open-loop probe flows for good — while ecn_pfc completes more\n"
      "flows at a lower p99 by pausing and marking instead of dropping.\n"
      "ctrl drops must be zero everywhere (the control band is never\n"
      "pool-charged) and the auditor must report zero PFC deadlocks, chaos\n"
      "row included.\n");
  return 0;
}
