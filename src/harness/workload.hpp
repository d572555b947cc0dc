// The workload-experiment runner: deploy a fabric under one protocol stack,
// converge, drive a traffic::WorkloadEngine campaign (empirical flow sizes,
// Poisson arrivals at a load fraction, incast / all-to-all scripts),
// optionally fail a link mid-campaign, and collect the per-flow completion
// time table — the user-visible metric every routing-scheme claim is now
// scored in.
#pragma once

#include "harness/deploy.hpp"
#include "topo/failure.hpp"
#include "traffic/workload.hpp"

namespace mrmtp::harness {

struct WorkloadRunSpec {
  topo::ClosParams topo{8, 2, 2, 4, 1};
  Proto proto = Proto::kMtp;
  std::uint64_t seed = 1;
  DeployOptions options;
  traffic::WorkloadSpec workload;

  /// No effect; kept only because perfbench/fabric_bench.cpp spells them.
  std::uint32_t threads = 0;
  bool force_parallel_engine = false;

  /// Initial convergence allowance before flows launch.
  sim::Duration settle = sim::Duration::seconds(3);
  /// Flow arrivals span [settle, settle + launch_window).
  sim::Duration launch_window = sim::Duration::millis(1500);
  /// Post-launch observation so in-flight flows can finish; incomplete
  /// flows are censored at settle + launch_window + drain.
  sim::Duration drain = sim::Duration::seconds(2);

  /// Fail one of the paper's TC links mid-campaign (the scenario where
  /// routing schemes separate: reroute fast or strand every flow on the
  /// dead path until the hold timer fires).
  bool inject_failure = false;
  topo::TestCase tc = topo::TestCase::kTC1;
  sim::Duration failure_after = sim::Duration::millis(300);  // after launch

  /// Run a FabricAuditor over the campaign: one final sweep after the run,
  /// plus a pause-and-sweep every `audit_period` from time zero when that
  /// is non-zero.
  bool audit = false;
  sim::Duration audit_period{};
  /// Seeded kBufferSqueeze chaos events spread across the launch window,
  /// each shrinking a random switch's pool to `squeeze_frac` until it heals
  /// half a spacing later. No-ops without options.switch_buffer.
  std::uint32_t chaos_squeezes = 0;
  double squeeze_frac = 0.25;
};

struct WorkloadRunResult {
  bool initial_converged = false;
  traffic::FlowStats flows;

  std::uint64_t events_fired = 0;
  double wall_seconds = 0;
  /// Data-class egress tail drops over every link direction — the
  /// congestion context behind an FCT tail.
  std::uint64_t data_queue_drops = 0;

  // --- finite-buffer counters (all zero without options.switch_buffer) ---
  std::uint64_t ecn_marked = 0;    // CE marks applied fabric-wide
  std::uint64_t pause_tx = 0;      // PFC PAUSE/RESUME frames sent
  std::uint64_t pause_rx = 0;      // ...and received/applied
  std::uint64_t buffer_drops = 0;  // admissions refused by a full pool/port
  /// Control-band tail drops fabric-wide. The graceful-degradation gate
  /// asserts this stays zero even when data pools run at 100%.
  std::uint64_t ctrl_queue_drops = 0;
  /// Max over switches of (pool occupancy high-water / pool size); ~1.0
  /// means some pool genuinely filled. 0 when no switch buffers deployed.
  double occupancy_hw_ratio = 0;
  /// From the auditor (0 when spec.audit is off).
  std::uint64_t pfc_deadlocks = 0;
  std::uint64_t audit_violations = 0;
};

[[nodiscard]] WorkloadRunResult run_workload(const WorkloadRunSpec& spec);

}  // namespace mrmtp::harness
