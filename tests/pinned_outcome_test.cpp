// Pinned simulated outcomes: chaotic failure scenarios and small workload
// campaigns whose whole observable state is reduced to FNV-1a digests and
// compared with values recorded before the multi-shard engine was removed.
// A change to the keyed delivery order, a per-entity RNG stream, or any
// protocol decision moves a digest here.
//
//   * Scenarios (8-PoD MR-MTP, asymmetric 8-PoD MR-MTP, 8-PoD BGP+BFD; a
//     40% one-way gray loss toward the TC1 device plus a clean TC3
//     interface-down): every link's per-direction counters, every MR-MTP
//     VID table, and the probe sink's counters.
//   * Campaigns (websearch random pairs, WCMP+flowlet on the 2:1
//     oversubscribed fabric, ECN+PFC incast): every FlowStats field.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/deploy.hpp"
#include "harness/workload.hpp"
#include "net/switch_buffer.hpp"
#include "topo/chaos.hpp"
#include "topo/failure.hpp"
#include "traffic/host.hpp"

namespace mrmtp {
namespace {

using harness::Proto;
using sim::Duration;
using sim::Time;

/// FNV-1a over 64-bit words, little-endian byte order.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct ScenarioDigest {
  std::uint64_t links = 0;
  std::uint64_t vid_tables = 0;
  std::uint64_t sink = 0;
  std::uint64_t packets_sent = 0;
  std::size_t final_violations = 0;
  bool converged_before_fail = false;
};

ScenarioDigest run_chaotic_scenario(Proto proto, topo::ClosParams params) {
  net::SimContext ctx(/*run_seed=*/11);
  topo::ClosBlueprint blueprint(params);
  harness::Deployment dep(ctx, blueprint, proto);

  const Time t_traffic = Time::zero() + Duration::seconds(3);
  const Time t_fail = t_traffic + Duration::millis(500);
  const Time t_end = t_fail + Duration::seconds(3);

  dep.start();

  traffic::Host& sender = dep.host(0);
  traffic::Host& receiver =
      dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
  receiver.listen();
  ctx.sched.schedule_at(t_traffic, [&] {
    traffic::FlowConfig flow;
    flow.dst = receiver.addr();
    flow.gap = Duration::millis(3);
    sender.start_flow(flow);
  });
  ctx.sched.schedule_at(t_end, [&] { sender.stop_flow(); });

  topo::ChaosEngine chaos(dep.network(), blueprint, /*seed=*/11);
  chaos.loss_one_way(blueprint.failure_point(topo::TestCase::kTC1),
                     /*toward_device=*/true, 0.4, t_fail);
  topo::FailureInjector injector(dep.network(), blueprint);
  injector.schedule_failure(topo::TestCase::kTC3, t_fail);

  ScenarioDigest out;
  ctx.sched.run_until(t_fail - Duration::nanos(1));
  out.converged_before_fail = dep.converged();
  ctx.sched.run_until(t_end + Duration::millis(200));

  Fnv links;
  for (const auto& link : dep.network().links()) {
    for (const net::Link::DirStats* d : {&link->stats().ab, &link->stats().ba}) {
      for (std::uint64_t v :
           {d->delivered, d->dropped_link_down, d->dropped_dst_down,
            d->dropped_impairment, d->dropped_blackhole,
            d->dropped_queue_full, d->duplicated, d->dropped_queue_control}) {
        links.add(v);
      }
    }
  }
  out.links = links.value();

  Fnv vids;
  if (proto == Proto::kMtp) {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      auto entries = dep.mtp(d).vid_table().entries();
      std::sort(entries.begin(), entries.end());
      vids.add(static_cast<std::uint64_t>(entries.size()));
      for (const auto& e : entries) {
        vids.add(e.vid.str());
        vids.add(static_cast<std::uint64_t>(e.port));
      }
    }
  }
  out.vid_tables = vids.value();

  const traffic::SinkStats& sink = receiver.sink_stats();
  Fnv sink_fnv;
  for (std::uint64_t v : {sender.packets_sent(), sink.received,
                          sink.unique_received, sink.duplicates,
                          sink.out_of_order, sink.ancient}) {
    sink_fnv.add(v);
  }
  sink_fnv.add(static_cast<std::uint64_t>(sink.max_gap.ns()));
  out.sink = sink_fnv.value();
  out.packets_sent = sender.packets_sent();

  harness::FabricAuditor auditor(dep);
  out.final_violations = auditor.sweep();
  return out;
}

std::uint64_t digest(const traffic::FlowStats& f) {
  Fnv h;
  for (std::uint64_t v :
       {f.flows_started, f.flows_delivered, f.flows_completed,
        f.flows_incomplete, f.packets_sent, f.packets_delivered,
        f.unique_delivered, f.duplicates, f.out_of_order, f.ancient,
        f.bytes_offered, f.bytes_delivered, f.ecn_marked, f.ecn_echoes,
        f.pause_blocked_ns, f.fct_samples, f.flowlet_reroutes,
        f.wcmp_weight_updates}) {
    h.add(v);
  }
  for (double v : {f.fct_p50_ms, f.fct_p99_ms, f.fct_p999_ms, f.fct_mean_ms,
                   f.fct_min_ms, f.fct_max_ms, f.max_gap_ms}) {
    h.add(v);
  }
  return h.value();
}

harness::WorkloadRunSpec base_campaign(topo::ClosParams params) {
  harness::WorkloadRunSpec spec;
  spec.topo = params;
  spec.proto = Proto::kMtp;
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = Duration::millis(50);
  spec.workload.load = 0.3;
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.launch_window = Duration::millis(400);
  spec.drain = Duration::seconds(1);
  return spec;
}

const topo::ClosParams kEightPod{8, 2, 2, 4, 1};

TEST(PinnedScenario, MtpChaos) {
  ScenarioDigest s = run_chaotic_scenario(Proto::kMtp, kEightPod);
  EXPECT_TRUE(s.converged_before_fail);
  EXPECT_EQ(s.packets_sent, 1167u);
  EXPECT_EQ(s.final_violations, 0u);
  EXPECT_EQ(s.links, 0x5b414172732e68d3ULL);
  EXPECT_EQ(s.vid_tables, 0x8e459180d29640deULL);
  EXPECT_EQ(s.sink, 0x3f399b64e3f927a9ULL);
}

TEST(PinnedScenario, AsymmetricMtpChaos) {
  ScenarioDigest s = run_chaotic_scenario(
      Proto::kMtp, topo::ClosParams::asymmetric_8pod());
  EXPECT_TRUE(s.converged_before_fail);
  EXPECT_EQ(s.packets_sent, 1167u);
  EXPECT_EQ(s.final_violations, 0u);
  EXPECT_EQ(s.links, 0x570e740d446870d3ULL);
  EXPECT_EQ(s.vid_tables, 0xbecab917a3f4af92ULL);
  EXPECT_EQ(s.sink, 0x3f399b64e3f927a9ULL);
}

TEST(PinnedScenario, BgpBfdChaos) {
  ScenarioDigest s = run_chaotic_scenario(Proto::kBgpBfd, kEightPod);
  EXPECT_TRUE(s.converged_before_fail);
  EXPECT_EQ(s.packets_sent, 1167u);
  EXPECT_EQ(s.final_violations, 0u);
  EXPECT_EQ(s.links, 0x8fa070a9807dfb0fULL);
  EXPECT_EQ(s.sink, 0x3f399b64e3f927a9ULL);
}

TEST(PinnedCampaign, WebsearchRandomPairs) {
  harness::WorkloadRunResult r = harness::run_workload(base_campaign(kEightPod));
  ASSERT_TRUE(r.initial_converged);
  EXPECT_EQ(r.flows.flows_started, 323u);
  EXPECT_EQ(digest(r.flows), 0x733af1d536b8b807ULL);
}

TEST(PinnedCampaign, WcmpFlowletOversubscribed) {
  harness::WorkloadRunSpec spec =
      base_campaign(topo::ClosParams::asymmetric_8pod_oversub());
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  harness::WorkloadRunResult r = harness::run_workload(spec);
  ASSERT_TRUE(r.initial_converged);
  EXPECT_EQ(r.flows.flows_started, 323u);
  EXPECT_EQ(digest(r.flows), 0x3ee14b623e662e73ULL);
}

TEST(PinnedCampaign, EcnPfcIncast) {
  harness::WorkloadRunSpec spec = base_campaign(kEightPod);
  net::SwitchBufferParams buf;
  buf.pool_bytes = 64u << 10;
  buf.port_reserve_bytes = 4u << 10;
  buf.dt_alpha = 1.0;
  buf.ecn_data_threshold = 8u << 10;
  buf.pfc_xoff_bytes = 8u << 10;
  buf.pfc_xon_bytes = 4u << 10;
  spec.options.switch_buffer = buf;
  spec.workload.scenario = traffic::Scenario::kIncast;
  spec.workload.incast_fanin = 8;
  spec.workload.load = 1.0;
  spec.workload.ecn_response = true;
  spec.drain = Duration::seconds(2);
  harness::WorkloadRunResult r = harness::run_workload(spec);
  ASSERT_TRUE(r.initial_converged);
  EXPECT_EQ(r.flows.flows_started, 64u);
  EXPECT_EQ(r.ecn_marked, 1156u);
  EXPECT_EQ(r.pause_tx, 546u);
  EXPECT_EQ(r.buffer_drops, 35u);
  EXPECT_EQ(digest(r.flows), 0x4bcf1c4409739b43ULL);
}

}  // namespace
}  // namespace mrmtp
