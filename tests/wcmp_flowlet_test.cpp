// Weighted multipath (WCMP) + flowlet switching.
//
// Unit tier: the weighted rendezvous primitives must deliver the advertised
// w_i / Σw split (chi-square against expected counts), never pick a
// zero-weight member, stay stable under member loss, and agree in
// distribution with the integer-replication reference. The FlowletTable is
// exercised standalone for hit/evict/collision behavior, and the RouteTable's
// cached-LPM fast path for epoch invalidation.
//
// Integration tier: a full WCMP+flowlet campaign on the 2:1 oversubscribed
// asymmetric fabric installs weights and delivers its flows, and a failure
// redraw counts a flowlet reroute.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "ip/route_table.hpp"
#include "net/stats.hpp"
#include "util/hash.hpp"

namespace mrmtp {
namespace {

// ---------------------------------------------------------------------------
// Weighted rendezvous hashing.

/// Distributes `flows` pseudo-flows over `weights` and returns the counts.
template <typename Picker>
std::vector<std::uint64_t> spread(const std::vector<double>& weights,
                                  std::uint64_t flows, Picker&& pick) {
  std::vector<std::uint64_t> counts(weights.size(), 0);
  for (std::uint64_t f = 0; f < flows; ++f) {
    // mix64 decorrelates the sequential flow ids the same way real flow
    // hashes are produced.
    ++counts[pick(util::mix64(f ^ 0xf1043a5ull), weights)];
  }
  return counts;
}

std::size_t pick_weighted(std::uint64_t flow,
                          const std::vector<double>& weights) {
  return util::hrw_pick_weighted(
      flow, weights.size(), [](std::size_t i) { return 0x1000 + i; },
      [&](std::size_t i) { return weights[i]; });
}

/// Pearson chi-square statistic of observed vs w_i/Σw-expected counts.
double chi_square(const std::vector<std::uint64_t>& counts,
                  const std::vector<double>& weights) {
  double wsum = 0;
  std::uint64_t n = 0;
  for (double w : weights) wsum += w;
  for (auto c : counts) n += c;
  double chi = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double expect = static_cast<double>(n) * weights[i] / wsum;
    if (expect <= 0) continue;
    const double d = static_cast<double>(counts[i]) - expect;
    chi += d * d / expect;
  }
  return chi;
}

TEST(WeightedHrwTest, SplitsProportionallyToWeights) {
  const std::vector<double> weights{1.0, 2.0, 4.0};
  const std::uint64_t kFlows = 20000;
  auto counts = spread(weights, kFlows, pick_weighted);
  // 2 degrees of freedom: chi-square < 13.8 is the p=0.001 bound — a correct
  // implementation fails this about once per thousand reseeds, and the flow
  // ids here are fixed, so this never flakes.
  EXPECT_LT(chi_square(counts, weights), 13.8)
      << counts[0] << "/" << counts[1] << "/" << counts[2];
  // Gross ordering sanity on top of the statistic.
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
}

TEST(WeightedHrwTest, ZeroWeightMemberNeverChosen) {
  const std::vector<double> weights{1.0, 0.0, 3.0};
  auto counts = spread(weights, 5000, pick_weighted);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[2], 0u);
}

TEST(WeightedHrwTest, AllZeroWeightsFallBackToPlainHrw) {
  // A fully-discounted candidate set must still forward (anti-blackhole):
  // the pick degenerates to the unweighted HRW winner.
  const std::vector<double> weights{0.0, 0.0, 0.0};
  for (std::uint64_t f = 0; f < 64; ++f) {
    const std::uint64_t flow = util::mix64(f);
    const std::size_t got = pick_weighted(flow, weights);
    const std::size_t want = util::hrw_pick(
        flow, weights.size(), [](std::size_t i) { return 0x1000 + i; });
    EXPECT_EQ(got, want);
  }
}

TEST(WeightedHrwTest, SingleMemberDegenerate) {
  const std::vector<double> weights{7.5};
  for (std::uint64_t f = 0; f < 100; ++f) {
    EXPECT_EQ(pick_weighted(util::mix64(f), weights), 0u);
  }
}

TEST(WeightedHrwTest, ReplicatedVariantMatchesProportions) {
  // The integer-replication reference must produce the same 1:2:4 split in
  // distribution (not per-flow — the two schemes draw different hashes).
  const std::vector<double> weights{1.0, 2.0, 4.0};
  auto counts = spread(weights, 20000, [](std::uint64_t flow,
                                          const std::vector<double>& w) {
    return util::hrw_pick_replicated(
        flow, w.size(), [](std::size_t i) { return 0x2000 + i; },
        [&](std::size_t i) { return static_cast<std::uint64_t>(w[i]); });
  });
  EXPECT_LT(chi_square(counts, weights), 13.8)
      << counts[0] << "/" << counts[1] << "/" << counts[2];
}

TEST(WeightedHrwTest, MemberLossOnlyMovesOrphanedFlows) {
  // HRW stability: removing the last member must not move any flow that
  // wasn't mapped to it. With weights {2,1,1} drop member 2.
  const std::vector<double> full{2.0, 1.0, 1.0};
  const std::vector<double> reduced{2.0, 1.0};
  for (std::uint64_t f = 0; f < 4000; ++f) {
    const std::uint64_t flow = util::mix64(f * 977 + 13);
    const std::size_t before = pick_weighted(flow, full);
    const std::size_t after = pick_weighted(flow, reduced);
    if (before != 2) {
      EXPECT_EQ(after, before) << "flow " << f << " moved";
    }
  }
}

// ---------------------------------------------------------------------------
// FlowletTable.

TEST(FlowletTableTest, HitUpdatesAndMissEvictsStalest) {
  net::FlowletTable t;
  const std::uint64_t key = 0x1234;
  auto& s = t.probe(key);
  EXPECT_NE(s.key, key);  // cold table: miss
  s.key = key;
  s.last_ns = 100;
  s.port = 7;

  auto& again = t.probe(key);
  EXPECT_EQ(&again, &s);  // same slot on hit
  EXPECT_EQ(again.port, 7u);
}

TEST(FlowletTableTest, CollisionRunEvictsOldestEntry) {
  net::FlowletTable t;
  // Five keys landing on the same base slot exceed the probe run of 4; the
  // fifth must evict the stalest of the first four.
  const std::size_t base = 37;
  std::array<std::uint64_t, 5> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Same low bits -> same base slot; distinct high bits keep keys unique.
    keys[i] = base | (static_cast<std::uint64_t>(i + 1) << 32);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    auto& s = t.probe(keys[i]);
    s.key = keys[i];
    s.last_ns = static_cast<std::int64_t>(1000 + i);  // keys[0] is stalest
    s.port = static_cast<std::uint32_t>(i);
  }
  // All four still resident.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.probe(keys[i]).key, keys[i]);
  }
  auto& victim = t.probe(keys[4]);
  EXPECT_EQ(victim.key, keys[0]);  // stalest evicted, not an arbitrary slot
  victim.key = keys[4];
  victim.last_ns = 2000;
  EXPECT_EQ(t.probe(keys[4]).key, keys[4]);
  EXPECT_NE(t.probe(keys[0]).key, keys[0]);  // the old entry is gone
}

// ---------------------------------------------------------------------------
// RouteTable cached-LPM fast path.

TEST(RouteTableCacheTest, CacheHitsCountAndInvalidateOnChange) {
  ip::RouteTable rt;
  const auto dst = ip::Ipv4Addr::parse("10.1.2.3");
  rt.set(ip::Ipv4Prefix::parse("10.1.2.0/24"), ip::RouteProto::kBgp,
         {ip::NextHop{ip::Ipv4Addr::parse("10.0.0.1"), 1}});

  const ip::Route* first = rt.lookup_cached(dst);
  ASSERT_NE(first, nullptr);
  const ip::Route* second = rt.lookup_cached(dst);
  EXPECT_EQ(second, first);
  EXPECT_EQ(rt.select_stats().cache_hits, 1u);
  EXPECT_EQ(rt.select_stats().cache_misses, 1u);
  EXPECT_EQ(rt.select_stats().allocs_avoided, 1u);

  // Any table mutation bumps the epoch: the next lookup must miss, not
  // serve the stale Route pointer.
  rt.set(ip::Ipv4Prefix::parse("10.9.0.0/16"), ip::RouteProto::kBgp,
         {ip::NextHop{ip::Ipv4Addr::parse("10.0.0.2"), 2}});
  (void)rt.lookup_cached(dst);
  EXPECT_EQ(rt.select_stats().cache_misses, 2u);

  rt.clear();
  EXPECT_EQ(rt.lookup_cached(dst), nullptr);
}

TEST(RouteTableCacheTest, WeightedSelectHonorsInstalledWeights) {
  ip::RouteTable rt;
  ip::NextHop slow{ip::Ipv4Addr::parse("10.0.0.1"), 1};
  slow.weight = 1;
  ip::NextHop fast{ip::Ipv4Addr::parse("10.0.0.2"), 2};
  fast.weight = 4;
  rt.set(ip::Ipv4Prefix::parse("10.1.0.0/16"), ip::RouteProto::kBgp,
         {slow, fast});
  EXPECT_GE(rt.select_stats().weight_updates, 1u);

  const auto dst = ip::Ipv4Addr::parse("10.1.2.3");
  std::uint64_t on_fast = 0;
  const std::uint64_t kFlows = 4000;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    const ip::NextHop* nh = rt.select_weighted(dst, util::mix64(f));
    ASSERT_NE(nh, nullptr);
    if (nh->port == 2) ++on_fast;
  }
  // Expect ~4/5 on the fast hop; accept a generous band.
  EXPECT_GT(on_fast, kFlows * 7 / 10);
  EXPECT_LT(on_fast, kFlows * 9 / 10);
}

}  // namespace
}  // namespace mrmtp

// ---------------------------------------------------------------------------
// Integration: campaigns and failure experiments with flowlets enabled.

namespace mrmtp::harness {
namespace {

WorkloadRunSpec flowlet_campaign() {
  WorkloadRunSpec spec;
  spec.topo = topo::ClosParams::asymmetric_8pod_oversub();
  spec.proto = Proto::kMtp;
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::millis(50);
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  spec.workload.load = 0.3;
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.launch_window = sim::Duration::millis(400);
  spec.drain = sim::Duration::seconds(1);
  return spec;
}

// WCMP on the oversubscribed fabric must actually engage: weights get
// installed (the 0.5-rate stripe differs from the 1.0 stripe inside every
// candidate set) and the campaign still delivers everything it schedules.
TEST(WcmpFlowletHarnessTest, WeightedCampaignDeliversFlows) {
  WorkloadRunSpec spec = flowlet_campaign();
  WorkloadRunResult r = run_workload(spec);
  ASSERT_TRUE(r.initial_converged);
  ASSERT_GT(r.flows.flows_started, 10u);
  EXPECT_EQ(r.flows.flows_delivered, r.flows.flows_started);
  EXPECT_GT(r.flows.wcmp_weight_updates, 0u);
}

// Rendezvous hashing makes flowlet redraws sticky: with an unchanged
// candidate set and unchanged weights, a gap-expired redraw re-picks the
// same port, so flowlet_reroutes stays 0 on a stable fabric (that is the
// no-spurious-reorder property). The counter must fire when the candidate
// set actually churns: the convergence probe sends one packet per 3 ms —
// every packet re-draws (gap > 500 us) — so when TC1 removes the probe's
// uplink from the ToR's candidate set, the very next redraw lands on a
// different port and counts. Scan flow identities until one rides the
// failed link (path choice is a deterministic property of the flow hash).
TEST(WcmpFlowletHarnessTest, FailureRedrawCountsReroute) {
  ExperimentSpec spec;
  spec.proto = Proto::kMtp;
  spec.tc = topo::TestCase::kTC1;
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  bool rerouted = false;
  for (std::uint16_t src = 7000; src < 7016 && !rerouted; ++src) {
    spec.traffic_src_port = src;
    ExperimentResult r = run_failure_experiment(spec);
    ASSERT_TRUE(r.initial_converged) << "src_port " << src;
    rerouted = r.flowlet_reroutes >= 1;
  }
  EXPECT_TRUE(rerouted) << "no probe flow redrew across the TC1 failure";
}

}  // namespace
}  // namespace mrmtp::harness
