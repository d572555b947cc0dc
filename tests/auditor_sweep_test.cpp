// FabricAuditor sweep contracts: the violation log of whole failure
// campaigns is pinned byte for byte (count plus an ordered digest of every
// Violation::str()), and a sweep's probe-walk work stays within
// 2 x routers x destinations on converged fabrics — a deterministic bound,
// so a regression to per-branch walking fails here without any timing.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "harness/auditor.hpp"
#include "topo/chaos.hpp"
#include "topo/failure.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::FabricAuditor;
using harness::Proto;

const sim::Time kFailAt = sim::Time::zero() + sim::Duration::seconds(3);

/// FNV-1a over every violation's rendering, in log order.
std::uint64_t digest(const std::vector<harness::Violation>& log) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const harness::Violation& v : log) {
    for (char c : v.str() + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// `a`'s port on the first blueprint link joining devices a and b.
std::uint32_t port_toward(const topo::ClosBlueprint& bp, std::uint32_t a,
                          std::uint32_t b) {
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const topo::LinkSpec& l = bp.links()[li];
    if ((l.upper == a && l.lower == b) || (l.upper == b && l.lower == a)) {
      return bp.port_on(a, li);
    }
  }
  ADD_FAILURE() << "no link between devices " << a << " and " << b;
  return 0;
}

struct Campaign {
  topo::ClosParams params;
  Proto proto;
  std::function<void(net::SimContext&, const topo::ClosBlueprint&,
                     Deployment&, topo::FailureInjector&, topo::ChaosEngine&)>
      inject;
  int end_s = 7;
};

struct LogSummary {
  std::size_t count;
  std::uint64_t digest;
  std::size_t loops;
};

/// Seed-1 deployment audited every 50 ms from t = 50 ms; the injection is
/// scheduled for t = 3 s.
LogSummary run(const Campaign& c) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(c.params);
  Deployment dep(ctx, bp, c.proto);
  topo::FailureInjector injector(dep.network(), bp);
  topo::ChaosEngine chaos(dep.network(), bp, 7);
  FabricAuditor auditor(dep);
  dep.start();
  auditor.start(sim::Duration::millis(50));
  c.inject(ctx, bp, dep, injector, chaos);
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(c.end_s));
  auditor.stop();
  LogSummary s{auditor.violations().size(), digest(auditor.violations()), 0};
  for (const harness::Violation& v : auditor.violations()) {
    if (v.kind == harness::InvariantKind::kForwardingLoop) ++s.loops;
  }
  return s;
}

const topo::ClosParams kEightPod{8, 2, 2, 4, 1};

auto fail(topo::TestCase tc) {
  return [tc](net::SimContext&, const topo::ClosBlueprint&, Deployment&,
              topo::FailureInjector& injector, topo::ChaosEngine&) {
    injector.schedule_failure(tc, kFailAt);
  };
}

void one_way_blackhole(net::SimContext&, const topo::ClosBlueprint& bp,
                       Deployment&, topo::FailureInjector&,
                       topo::ChaosEngine& chaos) {
  chaos.blackhole_one_way(bp.failure_point(topo::TestCase::kTC1),
                          /*toward_device=*/true, kFailAt);
}

void correlated_blackhole(net::SimContext&, const topo::ClosBlueprint&,
                          Deployment&, topo::FailureInjector&,
                          topo::ChaosEngine& chaos) {
  chaos.correlated_blackhole("S-1-1", 2, kFailAt);
}

// The logs these digests pin were recorded with the per-branch probe walk
// that preceded the memoized one; any change to a kind, detail, device,
// timestamp or the order of a single violation changes the digest.
TEST(AuditorLogIdentity, MtpTc1) {
  LogSummary s = run({kEightPod, Proto::kMtp, fail(topo::TestCase::kTC1)});
  EXPECT_EQ(s.count, 482u);
  EXPECT_EQ(s.digest, 0xafae0ed554377c60ULL);
}

TEST(AuditorLogIdentity, MtpOneWayBlackhole) {
  LogSummary s = run({kEightPod, Proto::kMtp, one_way_blackhole});
  EXPECT_EQ(s.count, 561u);
  EXPECT_EQ(s.digest, 0x416dc828c0f0facaULL);
}

TEST(AuditorLogIdentity, MtpCorrelatedBlackhole) {
  LogSummary s = run({kEightPod, Proto::kMtp, correlated_blackhole});
  EXPECT_EQ(s.count, 2910u);
  EXPECT_EQ(s.digest, 0xb9835edf20979183ULL);
}

TEST(AuditorLogIdentity, BgpOneWayBlackhole) {
  LogSummary s = run({kEightPod, Proto::kBgp, one_way_blackhole});
  EXPECT_EQ(s.count, 51u);
  EXPECT_EQ(s.digest, 0x3d6170f7fce3fbdcULL);
}

TEST(AuditorLogIdentity, AsymmetricBgpTc2) {
  LogSummary s = run({topo::ClosParams::asymmetric_8pod(), Proto::kBgp,
                      fail(topo::TestCase::kTC2)});
  EXPECT_EQ(s.count, 766u);
  EXPECT_EQ(s.digest, 0xd3666b3c167a725dULL);
}

// Loops entered at several depths from many sources: S-1-1 routes the last
// rack down to L-1-1, and T-1 routes it down to S-1-1 on two ports.
TEST(AuditorLogIdentity, BgpTwoLevelStaticLoop) {
  auto loop = [](net::SimContext& ctx, const topo::ClosBlueprint& bp,
                 Deployment& dep, topo::FailureInjector&,
                 topo::ChaosEngine&) {
    ctx.sched.schedule_at(kFailAt, [&bp, &dep] {
      const std::uint32_t s11 = bp.device_index("S-1-1");
      const std::uint32_t l11 = bp.device_index("L-1-1");
      const std::uint32_t t1 = bp.device_index("T-1");
      const ip::Ipv4Prefix subnet =
          *bp.device(bp.hosts().back().leaf).server_subnet;
      const ip::Ipv4Addr via = ip::Ipv4Addr::parse("10.0.0.1");
      dep.bgp(s11).routes().set(subnet, ip::RouteProto::kStatic,
                                {ip::NextHop{via, port_toward(bp, s11, l11)}});
      const std::uint32_t down = port_toward(bp, t1, s11);
      dep.bgp(t1).routes().set(
          subnet, ip::RouteProto::kStatic,
          {ip::NextHop{via, down}, ip::NextHop{via, down + 1}});
    });
  };
  LogSummary s = run({kEightPod, Proto::kBgp, loop, 4});
  EXPECT_EQ(s.count, 84u);
  EXPECT_EQ(s.loops, 84u);
  EXPECT_EQ(s.digest, 0xb02f1a5f82038c00ULL);
}

// An MR-MTP loop: S-1-1 and T-1 each hold a planted VID entry for the last
// rack's tree pointing at the other, so downward probes bounce between them.
TEST(AuditorLogIdentity, MtpPlantedVidLoop) {
  auto loop = [](net::SimContext& ctx, const topo::ClosBlueprint& bp,
                 Deployment& dep, topo::FailureInjector&,
                 topo::ChaosEngine&) {
    ctx.sched.schedule_at(kFailAt, [&bp, &dep] {
      const std::uint32_t s11 = bp.device_index("S-1-1");
      const std::uint32_t s12 = bp.device_index("S-1-2");
      const std::uint32_t t1 = bp.device_index("T-1");
      const std::uint32_t t2 = bp.device_index("T-2");
      const mtp::Vid vid = mtp::Vid::parse(
          std::to_string(bp.device(bp.hosts().back().leaf).vid) + ".9");
      dep.mtp(s11).debug_add_vid_entry(vid, port_toward(bp, s11, t1));
      dep.mtp(t1).debug_add_vid_entry(vid, port_toward(bp, t1, s11));
      dep.mtp(s12).debug_add_vid_entry(vid, port_toward(bp, s12, t2));
    });
  };
  LogSummary s = run({kEightPod, Proto::kMtp, loop, 4});
  EXPECT_EQ(s.count, 522u);
  EXPECT_EQ(s.loops, 42u);
  EXPECT_EQ(s.digest, 0x704bfaefb783fa6eULL);
}

// The memo's depth rule: L-1-1's probe toward L-1-2's host walks S-1-1 at
// depth 1 and finishes clean, but a 15-hop static-route chain from L-2-1
// reaches the same S-1-1 at depth 15, so that probe hits L-1-2 at depth 16
// and must still exhaust its TTL.
TEST(AuditorMemo, DeeperArrivalStillExhaustsTtl) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(kEightPod);
  Deployment dep(ctx, bp, Proto::kBgp);
  dep.start();
  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  ASSERT_TRUE(dep.converged());

  const std::uint32_t dst_leaf = bp.device_index("L-1-2");
  const topo::HostSpec* dst = nullptr;
  for (const topo::HostSpec& hs : bp.hosts()) {
    if (hs.leaf == dst_leaf) dst = &hs;
  }
  ASSERT_NE(dst, nullptr);
  const std::vector<std::string> chain = {
      "L-2-1", "S-2-2", "T-4", "S-3-2", "L-3-1", "S-3-1", "T-3", "S-4-1",
      "L-4-1", "S-4-2", "T-2", "S-5-2", "L-5-1", "S-5-1", "T-1", "S-1-1"};
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const std::uint32_t from = bp.device_index(chain[i]);
    const std::uint32_t to = bp.device_index(chain[i + 1]);
    dep.bgp(from).routes().set(
        *bp.device(dst_leaf).server_subnet, ip::RouteProto::kStatic,
        {ip::NextHop{ip::Ipv4Addr::parse("10.0.0.1"),
                     port_toward(bp, from, to)}});
  }

  FabricAuditor auditor(dep);
  ASSERT_EQ(auditor.sweep(), 1u);
  const harness::Violation& v = auditor.violations().back();
  EXPECT_EQ(v.device, "L-1-2");
  EXPECT_EQ(v.kind, harness::InvariantKind::kForwardingLoop);
  EXPECT_EQ(v.detail,
            "probe toward " + dst->addr.str() + " exhausted TTL (likely loop)");
}

// A converged fabric's sweep expands each (router, direction) walk state at
// most once per destination.
TEST(AuditorWork, VisitsBoundedOnConvergedSixteenPod) {
  for (Proto proto : {Proto::kMtp, Proto::kBgpBfd}) {
    net::SimContext ctx(1);
    topo::ClosBlueprint bp(topo::ClosParams{16, 2, 2, 4, 1});
    Deployment dep(ctx, bp, proto);
    dep.start();
    ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
    ASSERT_TRUE(dep.converged()) << to_string(proto);

    FabricAuditor auditor(dep);
    ASSERT_EQ(auditor.sweep(), 0u) << to_string(proto);
    const std::uint64_t first = auditor.probe_visits();
    ASSERT_EQ(auditor.sweep(), 0u) << to_string(proto);
    const std::uint64_t visits = auditor.probe_visits() - first;

    // MR-MTP probes every ToR tree, BGP every host address.
    const std::uint64_t destinations =
        proto == Proto::kMtp ? dep.all_vids().size() : bp.hosts().size();
    EXPECT_EQ(first, visits) << to_string(proto);
    EXPECT_GT(visits, 0u) << to_string(proto);
    EXPECT_LE(visits, 2 * dep.router_count() * destinations)
        << to_string(proto);
  }
}

}  // namespace
}  // namespace mrmtp
