// Production workload engine: empirical flow-size distributions, Poisson
// flow arrivals at a target fraction of edge bandwidth, and scripted
// incast / all-to-all scenarios — the traffic a production fabric actually
// serves (millions of short RPCs mixed with elephant transfers), replacing
// single synthetic probes as the basis for every routing-scheme comparison.
//
// The whole flow schedule (arrival instants, src/dst pairing, sampled sizes)
// is drawn up-front from one seeded RNG and then armed on the scheduler, so
// a run is bit-deterministic: the schedule never depends on execution
// order.
// After the run, collect() joins the schedule against the sinks' per-flow
// records into a FlowStats table with p50/p99/p999 flow completion times.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"
#include "traffic/host.hpp"

namespace mrmtp::traffic {

/// Empirical flow-size CDF with linear interpolation between table points —
/// the SWARM-SIM / HPCC traffic-generator technique. Tables are normalized
/// approximations of the published websearch (DCTCP) and hadoop
/// (Facebook) distributions.
class FlowSizeCdf {
 public:
  struct Point {
    double bytes = 0;
    double cum = 0;  // cumulative probability in [0, 1], monotone
  };

  FlowSizeCdf(std::string name, std::vector<Point> points);

  /// Websearch-style: median tens of KB, 3% of flows are 10 MB+ elephants
  /// carrying most of the bytes.
  static FlowSizeCdf websearch();
  /// Hadoop-style: dominated by sub-2 KB RPCs with a thin heavy tail.
  static FlowSizeCdf hadoop();
  /// Degenerate single-size distribution (calibration runs).
  static FlowSizeCdf fixed(double bytes);

  /// Inverse-CDF sample by linear interpolation; always >= 1 byte.
  [[nodiscard]] double sample(sim::Rng& rng) const;
  /// Analytic mean of the interpolated distribution (trapezoid rule) —
  /// the arrival-rate computation uses this, and tests check sampled means
  /// against it.
  [[nodiscard]] double mean_bytes() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::string name_;
  std::vector<Point> points_;
};

enum class Scenario : std::uint8_t {
  kRandomPairs,  // Poisson arrivals, uniform random src/dst pairing
  kIncast,       // synchronized N->1 bursts into one victim host
  kAllToAll,     // one flow per ordered host pair, staggered (shuffle phase)
};

[[nodiscard]] std::string_view to_string(Scenario s);

struct WorkloadSpec {
  FlowSizeCdf cdf = FlowSizeCdf::websearch();
  /// Offered load as a fraction of per-host edge bandwidth (random pairs /
  /// incast); the knob the FCT sweep turns.
  double load = 0.5;
  /// Multiplier on sampled flow sizes — scales a distribution measured on
  /// 10G edges down to the bench's smaller simulated edges.
  double size_scale = 1.0;
  Scenario scenario = Scenario::kRandomPairs;
  /// Senders per synchronized incast round (clamped to host count - 1).
  std::uint32_t incast_fanin = 8;
  /// UDP payload bytes per probe packet.
  std::size_t payload_size = 1000;
  /// Destination port every sink listens on.
  std::uint16_t sink_port = 7001;
  /// Per-host edge bandwidth used for the load -> arrival-rate conversion
  /// and sender pacing. 0 = the harness fills it from the deployed
  /// host-link bandwidth.
  std::uint64_t edge_bw_bps = 0;
  /// Close the congestion loop: flows request CE echoes from their sinks and
  /// back off multiplicatively on each echo (see FlowConfig::ecn_response).
  /// Off = open-loop probes, the tail-drop baseline.
  bool ecn_response = false;
};

/// One planned flow: drawn before the run, joined with sink records after.
struct ScheduledFlow {
  std::uint64_t id = 0;
  std::uint32_t src = 0;  // host indices
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  sim::Time start{};
};

/// Aggregated per-flow accounting with FCT quantiles. Every field derives
/// from simulated time and deterministic counters, so two runs of the same
/// seed must produce identical values (operator== is the determinism
/// contract the tests assert).
struct FlowStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_delivered = 0;   // sink saw at least one packet
  std::uint64_t flows_completed = 0;   // every packet arrived
  std::uint64_t flows_incomplete = 0;  // censored at observation end
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;  // includes duplicates
  std::uint64_t unique_delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t ancient = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_delivered = 0;
  /// Congestion-loop telemetry: CE-marked deliveries, CNP echoes the sinks
  /// sent, and the summed per-flow sender time blocked behind PFC PAUSEs.
  std::uint64_t ecn_marked = 0;
  std::uint64_t ecn_echoes = 0;
  std::uint64_t pause_blocked_ns = 0;
  /// FCT = flow start (sender schedule) -> last packet arrival (sink) for
  /// completed flows; incomplete flows are censored at the observation end —
  /// the user-visible "still waiting" time, identical policy per protocol.
  std::uint64_t fct_samples = 0;
  double fct_p50_ms = 0;
  double fct_p99_ms = 0;
  double fct_p999_ms = 0;
  double fct_mean_ms = 0;
  double fct_min_ms = 0;
  double fct_max_ms = 0;
  /// Reordering guard: the worst per-flow inter-arrival gap seen by any
  /// sink. Flowlet switching must keep this bounded — a reroute inside an
  /// open flowlet would show up here (and in out_of_order) first.
  double max_gap_ms = 0;
  /// Fabric-wide WCMP telemetry, summed from the link direction counters by
  /// harness::run_workload. Router-local and sim-time driven, so they ride
  /// the same determinism contract as everything above.
  std::uint64_t flowlet_reroutes = 0;
  std::uint64_t wcmp_weight_updates = 0;

  bool operator==(const FlowStats&) const = default;
};

/// Nearest-rank quantile of a sorted sample (q in [0,1]); 0 when empty.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

class WorkloadEngine {
 public:
  /// `hosts` are the fabric's servers in deployment order; flows reference
  /// them by index. Throws std::invalid_argument for fewer than two hosts
  /// or a spec without edge bandwidth.
  WorkloadEngine(std::vector<Host*> hosts, WorkloadSpec spec,
                 std::uint64_t seed);

  /// Draws the flow schedule for [start, start + window). Idempotent-free:
  /// call once. Exposed separately from launch() so tests can check
  /// arrival-process statistics without running a simulation.
  void build_schedule(sim::Time start, sim::Duration window);

  /// build_schedule() if not yet built, then arms every sink listener and
  /// schedules each flow's start on its sender's scheduler.
  void launch(sim::Time start, sim::Duration window);

  [[nodiscard]] const std::vector<ScheduledFlow>& schedule() const {
    return schedule_;
  }
  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Joins the schedule with the sinks' flow records; `end` is the
  /// observation horizon used to censor incomplete flows.
  [[nodiscard]] FlowStats collect(sim::Time end) const;

 private:
  std::vector<Host*> hosts_;
  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::vector<ScheduledFlow> schedule_;
  std::vector<std::uint64_t> sent_baseline_;
  bool launched_ = false;
};

}  // namespace mrmtp::traffic
