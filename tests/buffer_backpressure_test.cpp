// Finite switch buffers end to end: the mark_ce wire transform, shared-pool
// admission under dynamic-threshold vs pure tail-drop sharing, PFC
// xoff/xon hysteresis, the clamped+jittered RTO backoff, and then the full
// incast story on a deployed fabric — pool occupancy bounded, control band
// lossless at data exhaustion, zero PFC deadlocks under the auditor (with
// and without seeded buffer-squeeze chaos).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "harness/workload.hpp"
#include "ip/packet.hpp"
#include "net/network.hpp"
#include "net/switch_buffer.hpp"
#include "transport/tcp_lite.hpp"

namespace mrmtp {
namespace {

// ---------------------------------------------------------------------------
// mark_ce: the raw-byte CE transform must round-trip through the real IPv4
// codec — parse() validates the patched checksum, so a bad recompute throws.

std::vector<std::uint8_t> sample_packet(std::uint8_t tos) {
  ip::Ipv4Header hdr;
  hdr.tos = tos;
  hdr.src = ip::Ipv4Addr::parse("10.0.0.1");
  hdr.dst = ip::Ipv4Addr::parse("10.0.1.1");
  std::vector<std::uint8_t> payload(40, 0x5a);
  return hdr.serialize(payload);
}

TEST(MarkCeTest, MarksPlainIpv4AndPatchesChecksum) {
  net::Frame f;
  f.ethertype = net::EtherType::kIpv4;
  f.payload = sample_packet(/*tos=*/0x02);  // ECT(0)

  ASSERT_TRUE(net::mark_ce(f));

  std::span<const std::uint8_t> rest;
  ip::Ipv4Header out = ip::Ipv4Header::parse(
      {f.payload.data(), f.payload.size()}, rest);  // throws on bad checksum
  EXPECT_EQ(out.tos & 0x03, 0x03);
  EXPECT_EQ(rest.size(), 40u);

  // Already CE: no second mark.
  EXPECT_FALSE(net::mark_ce(f));
}

TEST(MarkCeTest, FollowsInnerIpOffsetThroughEncapsulation) {
  std::vector<std::uint8_t> pkt = sample_packet(0x00);
  std::vector<std::uint8_t> encap(pkt.size() + 6, 0xee);  // 6B tunnel header
  std::copy(pkt.begin(), pkt.end(), encap.begin() + 6);

  net::Frame f;
  f.ethertype = net::EtherType::kMtp;
  f.payload = encap;
  EXPECT_FALSE(net::mark_ce(f));  // inner offset not declared yet

  f.inner_ip_offset = 6;
  ASSERT_TRUE(net::mark_ce(f));
  std::span<const std::uint8_t> rest;
  ip::Ipv4Header out = ip::Ipv4Header::parse(
      {f.payload.data() + 6, f.payload.size() - 6}, rest);
  EXPECT_EQ(out.tos & 0x03, 0x03);
}

TEST(MarkCeTest, RefusesMalformedBytes) {
  net::Frame f;
  f.ethertype = net::EtherType::kIpv4;
  f.payload = std::vector<std::uint8_t>(10, 0x45);  // truncated header
  EXPECT_FALSE(net::mark_ce(f));

  std::vector<std::uint8_t> pkt = sample_packet(0x00);
  pkt[0] = 0x65;  // version 6
  f.payload = pkt;
  EXPECT_FALSE(net::mark_ce(f));
}

// ---------------------------------------------------------------------------
// SwitchBuffer admission: dynamic-threshold sharing self-limits one port to
// roughly half the pool (cap = reserve + alpha * free converges there), while
// alpha <= 0 is the commodity tail-drop that fills to 100%.

class NullNode : public net::Node {
 public:
  using Node::Node;
  void handle_frame(net::Port&, net::Frame) override {}
};

TEST(SwitchBufferTest, DynamicThresholdCapsOnePortNearHalfPool) {
  net::SimContext ctx(1);
  net::Network network(ctx);
  auto& node = network.add_node<NullNode>("sw", 4);

  net::SwitchBufferParams p;
  p.pool_bytes = 100'000;
  p.port_reserve_bytes = 1'000;
  p.dt_alpha = 1.0;
  p.pfc_xoff_bytes = 0;  // admission only
  net::SwitchBuffer sb(node, p);

  while (sb.admit_egress(1, 1'000)) {
  }
  // cap = reserve + free and a single hog owns every used byte, so it
  // stalls where used ~= (pool + reserve) / 2.
  EXPECT_NEAR(static_cast<double>(sb.pool_used()), 50'500.0, 2'000.0);
  EXPECT_GT(sb.stats().dropped, 0u);
  EXPECT_FALSE(sb.exhausted());

  // A second port still gets its share from the remaining free bytes.
  EXPECT_TRUE(sb.admit_egress(2, 1'000));
}

TEST(SwitchBufferTest, TailDropAlphaFillsPoolCompletely) {
  net::SimContext ctx(1);
  net::Network network(ctx);
  auto& node = network.add_node<NullNode>("sw", 4);

  net::SwitchBufferParams p;
  p.pool_bytes = 100'000;
  p.dt_alpha = 0.0;  // pure shared tail-drop
  p.pfc_xoff_bytes = 0;
  net::SwitchBuffer sb(node, p);

  while (sb.admit_egress(1, 1'000)) {
  }
  EXPECT_EQ(sb.pool_used(), 100'000u);
  EXPECT_TRUE(sb.exhausted());
  EXPECT_EQ(sb.stats().occupancy_hw, 100'000u);

  // Releases free the pool again, byte for byte.
  sb.release_egress(1, 40'000);
  EXPECT_FALSE(sb.exhausted());
  EXPECT_TRUE(sb.admit_egress(2, 1'000));
}

TEST(SwitchBufferTest, SqueezeShrinksEffectivePoolAndRestoreUndoes) {
  net::SimContext ctx(1);
  net::Network network(ctx);
  auto& node = network.add_node<NullNode>("sw", 2);

  net::SwitchBufferParams p;
  p.pool_bytes = 80'000;
  p.dt_alpha = 0.0;
  p.pfc_xoff_bytes = 0;
  net::SwitchBuffer sb(node, p);

  ASSERT_TRUE(sb.admit_egress(1, 30'000));
  sb.squeeze(0.25);
  EXPECT_EQ(sb.effective_pool(), 20'000u);
  EXPECT_TRUE(sb.exhausted());  // already over the squeezed cap
  EXPECT_FALSE(sb.admit_egress(1, 1'000));
  sb.restore();
  EXPECT_EQ(sb.effective_pool(), 80'000u);
  EXPECT_TRUE(sb.admit_egress(1, 1'000));
}

TEST(SwitchBufferTest, PfcHysteresisPausesAtXoffResumesAtXon) {
  net::SimContext ctx(1);
  net::Network network(ctx);
  auto& node = network.add_node<NullNode>("sw", 2);
  auto& peer = network.add_node<NullNode>("peer", 2);
  network.connect(node, peer);  // port 1 exists once wired

  net::SwitchBufferParams p;
  p.pfc_xoff_bytes = 10'000;
  p.pfc_xon_bytes = 4'000;
  net::SwitchBuffer sb(node, p);

  for (int i = 0; i < 9; ++i) sb.charge_ingress(1, 1'000);
  EXPECT_FALSE(sb.ingress_paused(1));
  sb.charge_ingress(1, 1'000);  // crosses xoff
  EXPECT_TRUE(sb.ingress_paused(1));
  EXPECT_EQ(sb.stats().pause_onsets, 1u);

  // Hysteresis: draining below xoff but above xon keeps the pause.
  sb.release_ingress(1, 5'000);
  EXPECT_TRUE(sb.ingress_paused(1));
  sb.charge_ingress(1, 2'000);  // re-crossing xoff is NOT a second onset
  EXPECT_EQ(sb.stats().pause_onsets, 1u);

  sb.release_ingress(1, 3'100);  // 3'900 <= xon -> resume
  EXPECT_FALSE(sb.ingress_paused(1));
  EXPECT_EQ(sb.stats().resume_onsets, 1u);
}

// ---------------------------------------------------------------------------
// RTO backoff: doubling, hard clamp at rto_max, and the seeded jitter
// envelope that de-correlates an incast's synchronized retransmit storm.

TEST(BackoffRtoTest, DoublesThenClampsWithJitterEnvelope) {
  transport::TcpTuning t;
  t.rto = sim::Duration::millis(200);
  t.rto_max = sim::Duration::seconds(5);
  t.rto_jitter = 0.1;
  sim::Rng rng(7);

  for (int n = 0; n <= 12; ++n) {
    const double base_ms = std::min(200.0 * std::pow(2.0, n), 5'000.0);
    const double got_ms =
        transport::TcpConnection::backoff_rto(t, n, rng).to_millis();
    EXPECT_GE(got_ms, base_ms * 0.9 - 1e-6) << "retransmit " << n;
    EXPECT_LE(got_ms, base_ms * 1.1 + 1e-6) << "retransmit " << n;
  }
}

TEST(BackoffRtoTest, ZeroJitterIsExactAndDeterministic) {
  transport::TcpTuning t;
  t.rto = sim::Duration::millis(100);
  t.rto_max = sim::Duration::seconds(2);
  t.rto_jitter = 0.0;
  sim::Rng rng(1);

  EXPECT_EQ(transport::TcpConnection::backoff_rto(t, 0, rng).ns(),
            sim::Duration::millis(100).ns());
  EXPECT_EQ(transport::TcpConnection::backoff_rto(t, 3, rng).ns(),
            sim::Duration::millis(800).ns());
  EXPECT_EQ(transport::TcpConnection::backoff_rto(t, 9, rng).ns(),
            sim::Duration::seconds(2).ns());  // clamped
}

TEST(BackoffRtoTest, JitterStreamIsSeedDeterministic) {
  transport::TcpTuning t;
  sim::Rng a(99), b(99);
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(transport::TcpConnection::backoff_rto(t, n, a).ns(),
              transport::TcpConnection::backoff_rto(t, n, b).ns());
  }
}

}  // namespace
}  // namespace mrmtp

// ---------------------------------------------------------------------------
// Fabric-level incast under finite buffers.

namespace mrmtp::harness {
namespace {

/// Shallow-buffered switches on a 16-host fabric with 100 Mb/s edges: an
/// 8:1 incast reliably drives the victim ToR's pool into ECN marking and
/// PFC backpressure within the launch window.
WorkloadRunSpec incast_campaign() {
  WorkloadRunSpec spec;
  spec.topo = {8, 2, 2, 4, 1};
  spec.proto = Proto::kMtp;
  spec.seed = 11;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::millis(50);

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
  spec.workload.size_scale = 0.05;
  spec.workload.payload_size = 1000;
  spec.workload.ecn_response = true;
  spec.launch_window = sim::Duration::millis(400);
  spec.drain = sim::Duration::seconds(2);
  return spec;
}

// The tentpole invariants in one run: the pool is byte-bounded (occupancy
// high-water never exceeds the configured bytes), congestion engages the
// designed relief valves (CE marks, PAUSE frames, sender pause-blocking)
// instead of unbounded queueing, the control band loses nothing, and the
// auditor's pause-wait-cycle scan over the valley-free fabric finds no PFC
// deadlock.
TEST(BufferedIncastTest, BoundedOccupancyBackpressureNoDeadlock) {
  WorkloadRunSpec spec = incast_campaign();
  spec.audit = true;
  spec.audit_period = sim::Duration::millis(500);  // sweep mid-campaign too
  WorkloadRunResult r = run_workload(spec);

  ASSERT_TRUE(r.initial_converged);
  ASSERT_GT(r.flows.flows_started, 0u);
  EXPECT_EQ(r.flows.flows_delivered, r.flows.flows_started);

  // Byte-accurate bound: high-water occupancy within the configured pool.
  EXPECT_GT(r.occupancy_hw_ratio, 0.0);
  EXPECT_LE(r.occupancy_hw_ratio, 1.0);

  // The relief valves engaged: CE marks on data, PAUSE frames on the wire,
  // senders actually blocked behind them, and sinks echoed marks back.
  EXPECT_GT(r.ecn_marked, 0u);
  EXPECT_GT(r.pause_tx, 0u);
  EXPECT_EQ(r.pause_tx, r.pause_rx);  // every PFC frame reached its peer
  EXPECT_GT(r.flows.ecn_marked, 0u);
  EXPECT_GT(r.flows.ecn_echoes, 0u);
  EXPECT_GT(r.flows.pause_blocked_ns, 0u);

  // Graceful degradation: the control band is never charged to the pool,
  // so adjacencies survive data congestion without a single drop.
  EXPECT_EQ(r.ctrl_queue_drops, 0u);

  // Valley-free routing keeps the pause-wait graph acyclic.
  EXPECT_EQ(r.pfc_deadlocks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
}

// Commodity tail-drop configuration (alpha <= 0, PFC off, open-loop
// senders): congestion collapse is allowed to fill some pool to ~100% and
// drop, yet the control band still loses nothing — the containment claim.
TEST(BufferedIncastTest, TailDropFillsPoolButControlBandIsLossless) {
  WorkloadRunSpec spec = incast_campaign();
  spec.options.switch_buffer->dt_alpha = 0.0;
  spec.options.switch_buffer->ecn_data_threshold = 0;
  spec.options.switch_buffer->pfc_xoff_bytes = 0;
  spec.workload.ecn_response = false;
  WorkloadRunResult r = run_workload(spec);

  ASSERT_TRUE(r.initial_converged);
  // Filled to within one max-size frame of the 64 KiB pool.
  EXPECT_GT(r.occupancy_hw_ratio, 0.95);
  EXPECT_GT(r.buffer_drops, 0u);          // and refused admissions
  EXPECT_EQ(r.ecn_marked, 0u);
  EXPECT_EQ(r.pause_tx, 0u);
  EXPECT_EQ(r.ctrl_queue_drops, 0u);  // fabric control plane unharmed
}

// Seeded kBufferSqueeze chaos on top of the incast: pools shrink to a
// quarter mid-campaign and heal, and the fabric still delivers every flow
// start without a PFC deadlock or auditor violation.
TEST(BufferedIncastTest, SurvivesSeededBufferSqueezeCampaign) {
  WorkloadRunSpec spec = incast_campaign();
  spec.audit = true;
  spec.audit_period = sim::Duration::millis(500);  // sweep mid-campaign too
  spec.chaos_squeezes = 3;
  spec.squeeze_frac = 0.25;
  WorkloadRunResult r = run_workload(spec);

  ASSERT_TRUE(r.initial_converged);
  ASSERT_GT(r.flows.flows_started, 0u);
  EXPECT_EQ(r.flows.flows_delivered, r.flows.flows_started);
  EXPECT_EQ(r.pfc_deadlocks, 0u);
  EXPECT_EQ(r.ctrl_queue_drops, 0u);
}

}  // namespace
}  // namespace mrmtp::harness
