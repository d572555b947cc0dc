// ChaosEngine + FabricAuditor: gray failures are injected per direction,
// the auditor stays silent on healthy fabrics, flags hand-crafted stale
// state, and the detection-latency metric orders the three stacks the way
// their timer designs predict.
#include <gtest/gtest.h>

#include "harness/auditor.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "topo/chaos.hpp"

namespace mrmtp {
namespace {

using harness::Deployment;
using harness::FabricAuditor;
using harness::InvariantKind;
using harness::Proto;

constexpr auto kSettle = sim::Duration::seconds(3);

struct Converged {
  net::SimContext ctx;
  topo::ClosBlueprint bp;
  Deployment dep;

  explicit Converged(Proto proto, std::uint64_t seed = 1)
      : ctx(seed), bp(topo::ClosParams::paper_2pod()), dep(ctx, bp, proto) {
    dep.start();
    ctx.sched.run_until(sim::Time::zero() + kSettle);
  }
};

TEST(FabricAuditor, CleanOnConvergedMtp) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());
  FabricAuditor auditor(f.dep);
  EXPECT_EQ(auditor.sweep(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.sweeps(), 1u);
}

TEST(FabricAuditor, CleanOnConvergedBgp) {
  for (Proto proto : {Proto::kBgp, Proto::kBgpBfd}) {
    Converged f(proto);
    ASSERT_TRUE(f.dep.converged());
    FabricAuditor auditor(f.dep);
    EXPECT_EQ(auditor.sweep(), 0u) << to_string(proto);
  }
}

TEST(FabricAuditor, FlagsHandCraftedStaleVidEntry) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());

  // Admin-down the spine side of L-1-1 <-> S-1-1 (TC2), let the withdraws
  // settle, then plant an entry pointing at the dead port — exactly the
  // stale state a lost withdraw would leave behind.
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC2);
  std::uint32_t spine = f.bp.device_index(fp.device);
  f.dep.router(spine).set_interface_down(fp.port);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));

  FabricAuditor auditor(f.dep);
  ASSERT_EQ(auditor.sweep(), 0u) << "clean failure must fully converge";

  f.dep.mtp(spine).debug_add_vid_entry(mtp::Vid::parse("77.9"), fp.port);
  ASSERT_EQ(auditor.sweep(), 1u);
  const harness::Violation& v = auditor.violations().back();
  EXPECT_EQ(v.kind, InvariantKind::kStaleVidEntry);
  EXPECT_EQ(v.device, fp.device);
  EXPECT_NE(v.detail.find("77.9"), std::string::npos) << v.str();
}

TEST(FabricAuditor, FlagsStaleBgpNextHop) {
  Converged f(Proto::kBgp);
  ASSERT_TRUE(f.dep.converged());

  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC2);
  std::uint32_t spine = f.bp.device_index(fp.device);
  f.dep.router(spine).set_interface_down(fp.port);

  FabricAuditor auditor(f.dep);
  // Mid-convergence the auditor rightly sees blackholes: the leaf keeps
  // ECMP-ing into the dead link until its 3 s hold timer fires.
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));
  EXPECT_GT(auditor.sweep(), 0u);
  // Past the hold timer the fabric must be clean again.
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(3));
  ASSERT_EQ(auditor.sweep(), 0u);

  // A BGP route whose only next-hop egresses the dead interface.
  f.dep.bgp(spine).routes().set(
      ip::Ipv4Prefix::parse("10.99.0.0/24"), ip::RouteProto::kBgp,
      {ip::NextHop{ip::Ipv4Addr::parse("10.99.0.1"), fp.port}});
  ASSERT_EQ(auditor.sweep(), 1u);
  EXPECT_EQ(auditor.violations().back().kind, InvariantKind::kStaleNextHop);
}

// A static route on S-1-1 sends the last rack's subnet back down to L-1-1,
// whose ECMP default sends half of it straight back up. L-1-1's own probe
// re-enters the loop at L-1-1; L-1-2's enters through S-1-1 and is caught
// there, one hop later. Both flags must survive the memoized walk, every
// sweep.
TEST(FabricAuditor, FlagsStaticRouteLoop) {
  Converged f(Proto::kBgp);
  ASSERT_TRUE(f.dep.converged());
  const std::uint32_t s11 = f.bp.device_index("S-1-1");
  const std::uint32_t l11 = f.bp.device_index("L-1-1");
  std::uint32_t li = 0;
  while (f.bp.links()[li].upper != s11 || f.bp.links()[li].lower != l11) ++li;
  const topo::HostSpec& dst = f.bp.hosts().back();
  f.dep.bgp(s11).routes().set(
      *f.bp.device(dst.leaf).server_subnet, ip::RouteProto::kStatic,
      {ip::NextHop{f.bp.links()[li].lower_addr, f.bp.port_on(s11, li)}});

  FabricAuditor auditor(f.dep);
  const std::string detail =
      "probe toward " + dst.addr.str() + " revisited this hop";
  for (int sweep = 0; sweep < 2; ++sweep) {
    ASSERT_EQ(auditor.sweep(), 2u) << "sweep " << sweep;
    const auto& log = auditor.violations();
    const harness::Violation& first = log[log.size() - 2];
    const harness::Violation& second = log.back();
    EXPECT_EQ(first.device, "L-1-1");
    EXPECT_EQ(first.kind, InvariantKind::kForwardingLoop);
    EXPECT_EQ(first.detail, detail);
    EXPECT_EQ(second.device, "S-1-1");
    EXPECT_EQ(second.kind, InvariantKind::kForwardingLoop);
    EXPECT_EQ(second.detail, detail);
  }
}

TEST(ChaosEngine, BlackholeIsUnidirectional) {
  Converged f(Proto::kMtp);
  ASSERT_TRUE(f.dep.converged());

  topo::ChaosEngine chaos(f.dep.network(), f.bp, /*seed=*/7);
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC1);
  chaos.blackhole_one_way(fp, /*toward_device=*/true, f.ctx.now());
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::seconds(1));

  net::Link& link = chaos.link_of(fp);
  net::Link::Dir in = chaos.dir_of(fp, /*toward_device=*/true);
  net::Link::Dir out = net::Link::reverse(in);
  EXPECT_GT(link.stats().dir(in).dropped_blackhole, 0u);
  EXPECT_EQ(link.stats().dir(out).dropped_blackhole, 0u);
  // The healthy direction keeps delivering (that is what makes it gray).
  std::uint64_t out_delivered = link.stats().dir(out).delivered;
  EXPECT_GT(out_delivered, 0u);

  // The per-direction report surfaces the asymmetry.
  harness::Table table = harness::link_direction_table(f.dep.network());
  EXPECT_NE(table.csv().find(fp.device), std::string::npos);

  // heal() restores both directions.
  chaos.heal(fp, f.ctx.now());
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(1));
  EXPECT_TRUE(link.deliverable(in));
  EXPECT_TRUE(link.deliverable(out));
}

TEST(ChaosEngine, CampaignIsDeterministicPerSeed) {
  Converged f(Proto::kMtp);
  topo::ChaosEngine a(f.dep.network(), f.bp, 42);
  topo::ChaosEngine b(f.dep.network(), f.bp, 42);
  topo::ChaosEngine c(f.dep.network(), f.bp, 43);

  topo::ChaosEngine::CampaignSpec spec;
  spec.events = 12;
  spec.start = f.ctx.now();
  a.run_campaign(spec);
  b.run_campaign(spec);
  c.run_campaign(spec);

  ASSERT_EQ(a.log().size(), b.log().size());
  bool all_same_as_c = a.log().size() == c.log().size();
  for (std::size_t i = 0; i < a.log().size(); ++i) {
    EXPECT_EQ(a.log()[i].at, b.log()[i].at);
    EXPECT_EQ(a.log()[i].kind, b.log()[i].kind);
    EXPECT_EQ(a.log()[i].description, b.log()[i].description);
    if (all_same_as_c && (a.log()[i].kind != c.log()[i].kind ||
                          a.log()[i].description != c.log()[i].description)) {
      all_same_as_c = false;
    }
  }
  EXPECT_FALSE(all_same_as_c) << "different seeds should differ";
  EXPECT_TRUE(a.first_onset().has_value());
}

TEST(ChaosEngine, RampReachesTargetLoss) {
  Converged f(Proto::kMtp);
  topo::ChaosEngine chaos(f.dep.network(), f.bp, 7);
  topo::FailurePoint fp = f.bp.failure_point(topo::TestCase::kTC3);
  net::Link& link = chaos.link_of(fp);
  net::Link::Dir dir = chaos.dir_of(fp, /*toward_device=*/true);

  chaos.degradation_ramp(fp, /*toward_device=*/true, 1.0, f.ctx.now(),
                         sim::Duration::millis(500));
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(250));
  double halfway = link.effective_loss(dir);
  EXPECT_GT(halfway, 0.2);
  EXPECT_LT(halfway, 0.8);
  f.ctx.sched.run_until(f.ctx.now() + sim::Duration::millis(300));
  EXPECT_DOUBLE_EQ(link.effective_loss(dir), 1.0);
  EXPECT_FALSE(link.deliverable(dir));
  EXPECT_TRUE(link.deliverable(net::Link::reverse(dir)));
}

// The headline acceptance metric: MR-MTP must notice a unidirectional
// blackhole within its dead interval (2 x 50 ms hello); BFD within ~300 ms;
// plain BGP only at its 3 s hold timer.
TEST(GrayDetection, MtpWithinDeadInterval) {
  harness::ExperimentSpec spec;
  spec.proto = Proto::kMtp;
  spec.gray.kind = harness::ExperimentSpec::GraySpec::Kind::kUnidirBlackhole;
  spec.with_traffic = false;
  spec.post_failure = sim::Duration::seconds(1);
  harness::ExperimentResult r = harness::run_failure_experiment(spec);
  ASSERT_TRUE(r.initial_converged);
  ASSERT_TRUE(r.failure_detected);
  EXPECT_LE(r.detection_latency.ns(), sim::Duration::millis(100).ns());
}

TEST(GrayDetection, StackOrderingUnderBlackhole) {
  auto detect = [](Proto proto) {
    harness::ExperimentSpec spec;
    spec.proto = proto;
    spec.gray.kind =
        harness::ExperimentSpec::GraySpec::Kind::kUnidirBlackhole;
    spec.with_traffic = false;
    spec.post_failure = sim::Duration::seconds(5);
    harness::ExperimentResult r = harness::run_failure_experiment(spec);
    EXPECT_TRUE(r.failure_detected) << to_string(proto);
    return r.detection_latency;
  };
  sim::Duration mtp = detect(Proto::kMtp);
  sim::Duration bfd = detect(Proto::kBgpBfd);
  sim::Duration bgp = detect(Proto::kBgp);
  EXPECT_LT(mtp.ns(), bfd.ns());
  EXPECT_LT(bfd.ns(), bgp.ns());
  EXPECT_LE(bfd.ns(), sim::Duration::millis(500).ns());
  EXPECT_GE(bgp.ns(), sim::Duration::seconds(1).ns());
}

// Regression for the FailureInjector lifetime bugs: recovery before failure
// must throw instead of dereferencing an empty optional, and a second
// scheduled failure must not clobber the first one's capture.
TEST(FailureInjector, RecoveryBeforeFailureThrows) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp);
  topo::FailureInjector injector(dep.network(), bp);
  EXPECT_THROW(injector.schedule_recovery(sim::Time::zero()),
               std::logic_error);
}

TEST(FailureInjector, SecondFailureDoesNotClobberFirst) {
  net::SimContext ctx(1);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  Deployment dep(ctx, bp, Proto::kMtp);
  dep.start();

  topo::FailureInjector injector(dep.network(), bp);
  injector.schedule_failure(topo::TestCase::kTC1,
                            sim::Time::zero() + sim::Duration::seconds(1));
  topo::FailurePoint first = *injector.point();
  injector.schedule_failure(topo::TestCase::kTC3,
                            sim::Time::zero() + sim::Duration::seconds(2));
  topo::FailurePoint second = *injector.point();
  ASSERT_NE(first.device, second.device);

  ctx.sched.run_until(sim::Time::zero() + sim::Duration::seconds(3));
  // Both interfaces must be down — before the fix the first callback
  // captured `point_` by pointer and failed the *second* point twice.
  EXPECT_FALSE(dep.network()
                   .find(first.device)
                   .port(first.port)
                   .admin_up());
  EXPECT_FALSE(dep.network()
                   .find(second.device)
                   .port(second.port)
                   .admin_up());
}

}  // namespace
}  // namespace mrmtp
