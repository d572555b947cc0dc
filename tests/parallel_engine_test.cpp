// Parallel fabric engine: ShardBus/ShardedEngine unit behavior, and the
// determinism contract — an N-shard run must reproduce the 1-shard sharded
// run counter-for-counter (per-link Link::Stats, per-router VID tables,
// traffic outcomes, FabricAuditor verdicts) on a chaotic 8-PoD fabric under
// both MR-MTP and BGP/ECMP/BFD.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/deploy.hpp"
#include "harness/experiment.hpp"
#include "net/pcap.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "topo/chaos.hpp"
#include "topo/failure.hpp"
#include "traffic/host.hpp"

namespace mrmtp {
namespace {

using sim::Duration;
using sim::Time;

TEST(ShardBus, DrainsInTimeOrderKeyOrder) {
  sim::ShardBus bus(3);
  std::vector<int> order;
  const Time t1 = Time::from_ns(100);
  const Time t2 = Time::from_ns(200);
  // Same timestamp from two sources, posted in "wrong" wall-clock order: the
  // drain must honor (at, order key), never post order or source shard. Note
  // the key that contradicts source order — src 2 carries a LOWER key than
  // src 1 at the same instant.
  bus.post(1, 0, t2, /*order=*/10, [&] { order.push_back(4); });
  bus.post(1, 0, t1, /*order=*/30, [&] { order.push_back(2); });
  bus.post(2, 0, t1, /*order=*/20, [&] { order.push_back(1); });
  bus.post(2, 0, t1, /*order=*/40, [&] { order.push_back(3); });

  sim::Scheduler sched;
  EXPECT_EQ(bus.drain(0, sched), 4u);
  sched.run_until(t2);
  // (t1, key 20) before (t1, key 30) before (t1, key 40), then t2.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(bus.posted(), 4u);
  EXPECT_EQ(bus.cross_posted(), 4u);
}

TEST(ShardBus, PostBelowSafeFloorThrows) {
  sim::ShardBus bus(2);
  bus.set_safe_floor(Time::from_ns(1000));
  EXPECT_THROW(bus.post(0, 1, Time::from_ns(999), 0, [] {}),
               std::logic_error);
  EXPECT_NO_THROW(bus.post(0, 1, Time::from_ns(1000), 0, [] {}));
}

TEST(ShardedEngine, SingleShardRunsInline) {
  sim::Scheduler sched;
  int fired = 0;
  sched.schedule_at(Time::from_ns(50), [&] { ++fired; });
  sim::ShardedEngine engine({&sched}, {});
  engine.run_until(Time::from_ns(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), Time::from_ns(100));
}

TEST(ShardedEngine, CrossShardPingPongRespectsLookahead) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ShardedEngine engine({&a, &b},
                            {.lookahead = Duration::micros(5)});
  std::vector<std::pair<int, std::int64_t>> log;  // (shard, fired at ns)

  // a -> b -> a -> ... each hop one lookahead later, like frames bouncing
  // across a cross-shard link.
  std::function<void(int, Time)> hop = [&](int on, Time at) {
    log.emplace_back(on, at.ns());
    if (log.size() >= 6) return;
    int next = 1 - on;
    Time when = at + Duration::micros(5);
    engine.bus().post(static_cast<std::uint32_t>(on),
                      static_cast<std::uint32_t>(next), when,
                      /*order=*/log.size(),
                      [&, next, when] { hop(next, when); });
  };
  a.schedule_at(Time::from_ns(0), [&] { hop(0, Time::from_ns(0)); });

  engine.run_until(Time::zero() + Duration::micros(100));
  ASSERT_EQ(log.size(), 6u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].first, static_cast<int>(i % 2));
    EXPECT_EQ(log[i].second, static_cast<std::int64_t>(i) * 5000);
  }
  EXPECT_GT(engine.stats().windows, 0u);
  EXPECT_EQ(engine.stats().cross_events, 5u);
  EXPECT_EQ(a.now(), Time::zero() + Duration::micros(100));
  EXPECT_EQ(b.now(), Time::zero() + Duration::micros(100));
}

TEST(ShardedEngine, RepeatedRunUntilResumes) {
  sim::Scheduler a;
  sim::Scheduler b;
  sim::ShardedEngine engine({&a, &b}, {});
  int fired = 0;
  a.schedule_at(Time::from_ns(10), [&] { ++fired; });
  b.schedule_at(Time::from_ns(2000), [&] { ++fired; });
  engine.run_until(Time::from_ns(1000));
  EXPECT_EQ(fired, 1);
  engine.run_until(Time::from_ns(3000));
  EXPECT_EQ(fired, 2);
}

TEST(ShardPlan, PodAffineAndClamped) {
  topo::ClosBlueprint bp(topo::ClosParams{8, 2, 2, 4, 1});
  topo::ShardPlan plan = topo::make_shard_plan(bp, 64);
  EXPECT_EQ(plan.shards, 8u);  // clamped to the PoD count
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.pod == 0) continue;  // top spines round-robin
    // Every device of one PoD shares a shard.
    EXPECT_EQ(plan.shard_of(d),
              plan.shard_of(bp.leaf(spec.pod, 1)))
        << spec.name;
  }
}

// On an asymmetric fabric the planner must balance by device weight, not
// PoD count: pods with 3 ToRs weigh more than pods with 1. Pod affinity
// still holds, and the heaviest shard can exceed the lightest by at most
// one pod's weight (the greedy bound).
TEST(ShardPlan, WeightBalancedOnAsymmetricFabric) {
  topo::ClosBlueprint bp(topo::ClosParams::asymmetric_8pod());
  topo::ShardPlan plan = topo::make_shard_plan(bp, 4);
  ASSERT_EQ(plan.shards, 4u);

  std::vector<std::uint32_t> load(plan.shards, 0);
  std::uint32_t heaviest_pod = 0;
  std::vector<std::uint32_t> pod_weight(9, 0);  // 1-based global pods
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    ++load[plan.shard_of(d)];
    if (spec.pod != 0) {
      ++pod_weight[spec.pod];
      EXPECT_EQ(plan.shard_of(d), plan.shard_of(bp.leaf(spec.pod, 1)))
          << spec.name;
    }
  }
  for (std::uint32_t w : pod_weight) heaviest_pod = std::max(heaviest_pod, w);
  auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_GT(*lo, 0u) << "no shard may sit idle";
  EXPECT_LE(*hi - *lo, heaviest_pod)
      << "greedy balance bound violated: " << *hi << " vs " << *lo;
}

// Identical inputs must yield an identical plan (the engine relies on this
// for resumable runs), and 1 shard degenerates to everything-on-shard-0.
TEST(ShardPlan, DeterministicAndSingleShardDegenerate) {
  topo::ClosBlueprint bp(topo::ClosParams::asymmetric_8pod());
  topo::ShardPlan a = topo::make_shard_plan(bp, 4);
  topo::ShardPlan b = topo::make_shard_plan(bp, 4);
  ASSERT_EQ(a.shards, b.shards);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    EXPECT_EQ(a.shard_of(d), b.shard_of(d)) << bp.device(d).name;
  }
  topo::ShardPlan one = topo::make_shard_plan(bp, 1);
  EXPECT_EQ(one.shards, 1u);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    EXPECT_EQ(one.shard_of(d), 0u);
  }
}

// ---------------------------------------------------------------------------
// The determinism contract. One scenario, run at different shard counts,
// snapshotting every counter the fabric exposes.

struct FabricSnapshot {
  std::vector<std::vector<std::uint64_t>> link_stats;  // per link, flattened
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> vid_tables;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t duplicates = 0;
  std::size_t final_violations = 0;
  bool converged_before_fail = false;

  bool operator==(const FabricSnapshot&) const = default;
};

std::vector<std::uint64_t> flatten(const net::Link::Stats& s) {
  std::vector<std::uint64_t> out;
  for (const net::Link::DirStats* d : {&s.ab, &s.ba}) {
    out.insert(out.end(),
               {d->delivered, d->dropped_link_down, d->dropped_dst_down,
                d->dropped_impairment, d->dropped_blackhole,
                d->dropped_queue_full, d->duplicated,
                d->dropped_queue_control});
  }
  return out;
}

FabricSnapshot run_chaotic_scenario(
    harness::Proto proto, std::uint32_t threads,
    topo::ClosParams params = topo::ClosParams{8, 2, 2, 4, 1}) {
  topo::ClosBlueprint blueprint(params);
  harness::ShardedFabric fabric(blueprint, threads, /*seed=*/11);
  harness::Deployment dep(fabric, proto);
  sim::ShardedEngine& engine = fabric.engine();

  const Time t_traffic = Time::zero() + Duration::seconds(3);
  const Time t_fail = t_traffic + Duration::millis(500);
  const Time t_end = t_fail + Duration::seconds(3);

  dep.start();

  traffic::Host& sender = dep.host(0);
  traffic::Host& receiver =
      dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
  receiver.listen();
  sender.ctx().sched.schedule_at(t_traffic, [&] {
    traffic::FlowConfig flow;
    flow.dst = receiver.addr();
    flow.gap = Duration::millis(3);
    sender.start_flow(flow);
  });
  sender.ctx().sched.schedule_at(t_end, [&] { sender.stop_flow(); });

  // Chaos: a 40% gray loss toward the TC1 device plus a clean TC3
  // interface-down — cross-shard state churn under impaired links.
  topo::ChaosEngine chaos(dep.network(), blueprint, /*seed=*/11);
  chaos.loss_one_way(blueprint.failure_point(topo::TestCase::kTC1),
                     /*toward_device=*/true, 0.4, t_fail);
  topo::FailureInjector injector(dep.network(), blueprint);
  injector.schedule_failure(topo::TestCase::kTC3, t_fail);

  FabricSnapshot snap;
  engine.run_until(t_fail - Duration::nanos(1));
  snap.converged_before_fail = dep.converged();
  engine.run_until(t_end + Duration::millis(200));

  for (const auto& link : dep.network().links()) {
    snap.link_stats.push_back(flatten(link->stats()));
  }
  if (proto == harness::Proto::kMtp) {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      auto entries = dep.mtp(d).vid_table().entries();
      std::sort(entries.begin(), entries.end());
      std::vector<std::pair<std::string, std::uint32_t>> table;
      for (const auto& e : entries) table.emplace_back(e.vid.str(), e.port);
      snap.vid_tables.push_back(std::move(table));
    }
  }
  snap.packets_sent = sender.packets_sent();
  snap.packets_received = receiver.sink_stats().received;
  snap.duplicates = receiver.sink_stats().duplicates;

  harness::FabricAuditor auditor(dep);
  snap.final_violations = auditor.sweep();
  return snap;
}

void expect_snapshots_equal(const FabricSnapshot& one,
                            const FabricSnapshot& four) {
  ASSERT_EQ(one.link_stats.size(), four.link_stats.size());
  for (std::size_t li = 0; li < one.link_stats.size(); ++li) {
    EXPECT_EQ(one.link_stats[li], four.link_stats[li]) << "link " << li;
  }
  ASSERT_EQ(one.vid_tables.size(), four.vid_tables.size());
  for (std::size_t d = 0; d < one.vid_tables.size(); ++d) {
    EXPECT_EQ(one.vid_tables[d], four.vid_tables[d]) << "router " << d;
  }
  EXPECT_EQ(one.packets_sent, four.packets_sent);
  EXPECT_EQ(one.packets_received, four.packets_received);
  EXPECT_EQ(one.duplicates, four.duplicates);
  EXPECT_EQ(one.final_violations, four.final_violations);
  EXPECT_EQ(one.converged_before_fail, four.converged_before_fail);
}

TEST(ParallelDeterminism, MtpFourShardsMatchOneShard) {
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kMtp, 1);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kMtp, 4);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

TEST(ParallelDeterminism, MtpFourShardsAreRepeatable) {
  FabricSnapshot a = run_chaotic_scenario(harness::Proto::kMtp, 4);
  FabricSnapshot b = run_chaotic_scenario(harness::Proto::kMtp, 4);
  expect_snapshots_equal(a, b);
}

// Non-uniform shards (asymmetric PoD sizes and mixed uplink speeds) must
// not break the determinism contract: the weight-balanced plan gives
// shards different event loads, which stresses the barrier/lookahead logic
// far harder than the uniform fabric.
TEST(ParallelDeterminism, AsymmetricFourShardsMatchOneShard) {
  topo::ClosParams params = topo::ClosParams::asymmetric_8pod();
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kMtp, 1, params);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kMtp, 4, params);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

TEST(ParallelDeterminism, BgpBfdFourShardsMatchOneShard) {
  FabricSnapshot one = run_chaotic_scenario(harness::Proto::kBgpBfd, 1);
  FabricSnapshot four = run_chaotic_scenario(harness::Proto::kBgpBfd, 4);
  EXPECT_TRUE(one.converged_before_fail);
  EXPECT_GT(one.packets_sent, 0u);
  expect_snapshots_equal(one, four);
}

// The experiment runner must agree with itself across shard counts on every
// merged metric (the per-shard instrumentation slots). threads = 0 is the
// default spec and must mean the same one-shard engine as threads = 1.
void expect_runner_matches_across_shards(harness::ExperimentSpec spec,
                                         std::uint32_t base_threads) {
  spec.threads = base_threads;
  harness::ExperimentResult one = harness::run_failure_experiment(spec);
  spec.threads = 4;
  harness::ExperimentResult four = harness::run_failure_experiment(spec);

  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(four.threads_used, 4u);
  EXPECT_TRUE(one.initial_converged);
  EXPECT_EQ(one.convergence.ns(), four.convergence.ns());
  EXPECT_EQ(one.update_events, four.update_events);
  EXPECT_EQ(one.blast_any, four.blast_any);
  EXPECT_EQ(one.blast_remote, four.blast_remote);
  EXPECT_EQ(one.ctrl_bytes_raw, four.ctrl_bytes_raw);
  EXPECT_EQ(one.packets_sent, four.packets_sent);
  EXPECT_EQ(one.packets_lost, four.packets_lost);
  EXPECT_EQ(one.failure_detected, four.failure_detected);
  EXPECT_EQ(one.detection_latency.ns(), four.detection_latency.ns());
  EXPECT_EQ(one.audit_sweeps, four.audit_sweeps);
  EXPECT_EQ(one.audit_violations, four.audit_violations);
  EXPECT_EQ(one.final_sweep_violations, four.final_sweep_violations);
  EXPECT_EQ(one.events_fired, four.events_fired);
}

TEST(ParallelDeterminism, ExperimentRunnerMergesIdentically) {
  harness::ExperimentSpec spec;
  spec.topo = topo::ClosParams{8, 2, 2, 4, 1};
  spec.proto = harness::Proto::kMtp;
  spec.tc = topo::TestCase::kTC2;
  spec.seed = 23;
  spec.gray.kind = harness::ExperimentSpec::GraySpec::Kind::kUnidirLoss;
  spec.gray.loss = 0.5;
  spec.audit = true;
  {
    SCOPED_TRACE("MR-MTP, 1 vs 4 threads");
    expect_runner_matches_across_shards(spec, 1);
  }

  // BGP+BFD draws keepalive, retry and BFD jitter: its result must not
  // depend on --threads either, including the default threads = 0.
  spec.proto = harness::Proto::kBgpBfd;
  spec.tc = topo::TestCase::kTC1;
  spec.seed = 11;
  spec.gray = {};
  {
    SCOPED_TRACE("BGP+BFD, 0 vs 4 threads");
    expect_runner_matches_across_shards(spec, 0);
  }
}

// ---------------------------------------------------------------------------
// One engine: a Deployment on a single SimContext, driven through
// ctx.sched, is the one-shard engine. Same seed and blueprint give the same
// captured bytes and the same per-router counters — for MR-MTP, whose only
// randomness is link impairment, this pins the keyed delivery order; for
// BGP+BFD it also pins the per-peer and per-session jitter streams.

struct RunTrace {
  std::uint64_t pcap_hash = 0;
  std::size_t pcap_records = 0;
  std::vector<std::vector<std::uint64_t>> router_counters;
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

RunTrace trace_run(harness::Proto proto, bool single_context) {
  constexpr std::uint64_t kSeed = 29;
  topo::ClosBlueprint blueprint(topo::ClosParams::paper_2pod());
  net::SimContext ctx(kSeed);
  std::optional<harness::ShardedFabric> fabric;
  std::optional<harness::Deployment> dep;
  if (single_context) {
    dep.emplace(ctx, blueprint, proto);
  } else {
    fabric.emplace(blueprint, 1, kSeed);
    dep.emplace(*fabric, proto);
  }
  auto run_until = [&](Time t) {
    if (fabric) {
      fabric->engine().run_until(t);
    } else {
      ctx.sched.run_until(t);
    }
  };

  net::PcapWriter writer;
  const topo::FailurePoint fp = blueprint.failure_point(topo::TestCase::kTC1);
  // The first wired link: a leaf uplink next to the failure point.
  dep->network().links().front()->set_tap(
      [&writer](Time at, const net::Frame& f) { writer.capture(at, f); });

  const Time t_traffic = Time::zero() + Duration::seconds(3);
  const Time t_fail = t_traffic + Duration::millis(300);
  dep->start();
  traffic::Host& sender = dep->host(0);
  traffic::Host& receiver =
      dep->host(static_cast<std::uint32_t>(dep->host_count() - 1));
  receiver.listen();
  sender.ctx().sched.schedule_at(t_traffic, [&] {
    traffic::FlowConfig flow;
    flow.dst = receiver.addr();
    flow.gap = Duration::millis(2);
    sender.start_flow(flow);
  });
  // Gray loss draws from the link streams; the clean TC3 failure drives a
  // reconvergence.
  topo::ChaosEngine chaos(dep->network(), blueprint, kSeed);
  chaos.loss_one_way(fp, /*toward_device=*/true, 0.3, t_fail);
  topo::FailureInjector injector(dep->network(), blueprint);
  injector.schedule_failure(topo::TestCase::kTC3, t_fail);
  run_until(t_fail + Duration::seconds(4));

  RunTrace trace;
  trace.pcap_hash = fnv1a(writer.to_pcap());
  trace.pcap_records = writer.size();
  for (std::uint32_t d = 0; d < dep->router_count(); ++d) {
    const net::Node& node = dep->router(d);
    std::vector<std::uint64_t> c;
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      for (const net::TrafficStats* ts :
           {&node.port(p).tx_stats(), &node.port(p).rx_stats()}) {
        for (const auto& k : ts->by_class) c.insert(c.end(), {k.frames, k.bytes});
      }
    }
    if (proto == harness::Proto::kMtp) {
      const auto& ms = dep->mtp(d).mtp_stats();
      c.insert(c.end(), {ms.hellos_sent, ms.updates_sent, ms.updates_received,
                         ms.data_forwarded, ms.table_changes_local,
                         ms.table_changes_remote, ms.neighbors_lost});
    } else {
      const auto& bs = dep->bgp(d).bgp_stats();
      c.insert(c.end(), {bs.updates_sent, bs.updates_received,
                         bs.keepalives_sent, bs.rib_changes,
                         bs.sessions_flapped});
    }
    trace.router_counters.push_back(std::move(c));
  }
  return trace;
}

void expect_single_context_is_one_shard(harness::Proto proto) {
  RunTrace ctx_run = trace_run(proto, /*single_context=*/true);
  RunTrace shard_run = trace_run(proto, /*single_context=*/false);
  EXPECT_GT(ctx_run.pcap_records, 0u);
  EXPECT_EQ(ctx_run.pcap_hash, shard_run.pcap_hash);
  EXPECT_EQ(ctx_run.pcap_records, shard_run.pcap_records);
  ASSERT_EQ(ctx_run.router_counters.size(), shard_run.router_counters.size());
  for (std::size_t d = 0; d < ctx_run.router_counters.size(); ++d) {
    EXPECT_EQ(ctx_run.router_counters[d], shard_run.router_counters[d])
        << "router " << d;
  }
}

TEST(OneEngine, MtpSingleContextMatchesOneShard) {
  expect_single_context_is_one_shard(harness::Proto::kMtp);
}

TEST(OneEngine, BgpBfdSingleContextMatchesOneShard) {
  expect_single_context_is_one_shard(harness::Proto::kBgpBfd);
}

}  // namespace
}  // namespace mrmtp
