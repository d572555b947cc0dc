// Golden-bytes regression suite for the buffer-pipeline refactor: the exact
// bytes this simulator emits — serialized frames, pcap tap output, and the
// per-class L2 TrafficStats that feed the paper's overhead figures (6/9/10)
// — are frozen here as FNV-1a digests captured from the pre-refactor tree.
// Any payload-representation change that shifts a single wire byte or a
// single padded-byte count fails this suite.
#include <gtest/gtest.h>

#include <cstdio>

#include "harness/deploy.hpp"
#include "ip/packet.hpp"
#include "mtp/message.hpp"
#include "net/pcap.hpp"
#include "traffic/host.hpp"
#include "transport/tcp_lite.hpp"
#include "transport/udp.hpp"

namespace mrmtp {
namespace {

/// FNV-1a over any indexable byte container (std::vector, net::Buffer, ...).
template <typename C>
std::uint64_t fnv1a(const C& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < c.size(); ++i) {
    h ^= static_cast<std::uint8_t>(c[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Codec-level goldens: byte-exact digests of each layer's serializer.
// ---------------------------------------------------------------------------

TEST(GoldenBytes, MtpCodec) {
  mtp::DataMsg d;
  d.src_root = 0x0102;
  d.dst_root = 0x0304;
  d.ttl = 9;
  d.ip_packet = {0x45, 0x00, 0x00, 0x1c, 0xde, 0xad, 0xbe, 0xef};
  auto data = mtp::encode(mtp::MtpMessage{d});
  EXPECT_EQ(data.size(), 14u);  // 6-byte MTP header + 8 payload bytes
  EXPECT_EQ(fnv1a(data), 0x8d53830bac6ef1a2ull);

  auto hello = mtp::encode(mtp::MtpMessage{mtp::HelloMsg{}});
  ASSERT_EQ(hello.size(), 1u);  // the paper's Fig.-10 one-byte keep-alive
  EXPECT_EQ(hello[0], 0x06);

  mtp::JoinOfferMsg offer;
  offer.msg_id = 0x0a0b;
  offer.vids = {mtp::Vid{121}, mtp::Vid{1214}};
  auto ctrl = mtp::encode(mtp::MtpMessage{offer});
  EXPECT_EQ(fnv1a(ctrl), 0x24879edbe3db04faull);
}

TEST(GoldenBytes, IpUdpTcpCodecs) {
  std::vector<std::uint8_t> probe(48, 0x5a);
  transport::UdpHeader udp;
  udp.src_port = 7000;
  udp.dst_port = 7001;
  auto udp_bytes = udp.serialize(probe);
  EXPECT_EQ(udp_bytes.size(), 8u + 48u);
  EXPECT_EQ(fnv1a(udp_bytes), 0x0e9e71b74a0620b0ull);

  ip::Ipv4Header h;
  h.src = ip::Ipv4Addr::parse("10.1.1.2");
  h.dst = ip::Ipv4Addr::parse("10.2.4.2");
  h.protocol = ip::IpProto::kUdp;
  h.ttl = 63;
  h.identification = 0x77;
  auto ip_bytes = h.serialize(udp_bytes);
  EXPECT_EQ(ip_bytes.size(), 20u + 56u);
  EXPECT_EQ(fnv1a(ip_bytes), 0xf7e018f0fc366f22ull);

  transport::TcpSegment seg;
  seg.src_port = 179;
  seg.dst_port = 30000;
  seg.seq = 1000;
  seg.ack = 2000;
  seg.flags.ack = true;
  seg.payload = {1, 2, 3, 4, 5};
  auto tcp_bytes = seg.serialize();
  EXPECT_EQ(tcp_bytes.size(), transport::TcpSegment::kHeaderSize + 5u);
  EXPECT_EQ(fnv1a(tcp_bytes), 0x79eeaa544b141da8ull);
}

TEST(GoldenBytes, FrameSerialize) {
  net::Frame f;
  f.dst = net::MacAddr::broadcast();
  f.src = net::MacAddr{{0x02, 0x00, 0x00, 0x00, 0x01, 0x07}};
  f.ethertype = net::EtherType::kMtp;
  f.payload = {0x06};
  auto bytes = f.serialize();
  ASSERT_EQ(bytes.size(), 15u);
  EXPECT_EQ(fnv1a(bytes), 0x40e49f49af30d4d3ull);
  EXPECT_EQ(f.wire_size(), 15u);
  EXPECT_EQ(f.padded_wire_size(), 60u);
}

// ---------------------------------------------------------------------------
// Fabric-level golden: a deterministic 2-pod run per protocol. Pcap bytes on
// the S-1-1<->L-1-1 link and the fabric-wide per-class rx totals must be
// bit-identical across the refactor.
// ---------------------------------------------------------------------------

struct GoldenRun {
  std::uint64_t pcap_hash = 0;
  std::size_t pcap_records = 0;
  std::uint64_t frames[net::kTrafficClassCount] = {};
  std::uint64_t bytes[net::kTrafficClassCount] = {};
  std::uint64_t padded[net::kTrafficClassCount] = {};
  std::uint64_t sent = 0;
  std::uint64_t unique_received = 0;
};

GoldenRun run_scenario(harness::Proto proto) {
  net::SimContext ctx(7);
  topo::ClosBlueprint bp(topo::ClosParams::paper_2pod());
  harness::Deployment dep(ctx, bp, proto, {});

  net::PcapWriter writer;
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const auto& l = bp.links()[li];
    if (bp.device(l.upper).name == "S-1-1" &&
        bp.device(l.lower).name == "L-1-1") {
      attach_tap(*dep.network().links()[li], writer);
    }
  }

  dep.start();
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(3).ns()));
  EXPECT_TRUE(dep.converged());

  auto& src = dep.host(0);
  auto& dst = dep.host(static_cast<std::uint32_t>(dep.host_count() - 1));
  dst.listen();
  traffic::FlowConfig flow;
  flow.dst = dst.addr();
  flow.count = 200;
  flow.gap = sim::Duration::millis(1);
  flow.payload_size = 80;
  src.start_flow(flow);
  ctx.sched.run_until(sim::Time::from_ns(sim::Duration::seconds(4).ns()));

  GoldenRun g;
  g.pcap_hash = fnv1a(writer.to_pcap());
  g.pcap_records = writer.size();
  for (const auto& node : dep.network().nodes()) {
    for (std::uint32_t p = 1; p <= node->port_count(); ++p) {
      const auto& rx = node->port(p).rx_stats();
      for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
        g.frames[c] += rx.by_class[c].frames;
        g.bytes[c] += rx.by_class[c].bytes;
        g.padded[c] += rx.by_class[c].padded_bytes;
      }
    }
  }
  g.sent = src.packets_sent();
  g.unique_received = dst.sink_stats().unique_received;
  return g;
}

void print_actuals(const char* tag, const GoldenRun& g) {
  std::printf("[golden:%s] pcap_hash=0x%016llxull records=%zu sent=%llu "
              "unique=%llu\n",
              tag, static_cast<unsigned long long>(g.pcap_hash),
              g.pcap_records, static_cast<unsigned long long>(g.sent),
              static_cast<unsigned long long>(g.unique_received));
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    if (g.frames[c] == 0) continue;
    std::printf("[golden:%s]   class=%zu frames=%llu bytes=%llu padded=%llu\n",
                tag, c, static_cast<unsigned long long>(g.frames[c]),
                static_cast<unsigned long long>(g.bytes[c]),
                static_cast<unsigned long long>(g.padded[c]));
  }
}

TEST(GoldenFabric, MtpTwoPodRun) {
  GoldenRun g = run_scenario(harness::Proto::kMtp);
  print_actuals("mtp", g);

  EXPECT_EQ(g.sent, 200u);
  EXPECT_EQ(g.unique_received, 200u);
  // Hashes re-captured for the multi-flow traffic model: the probe header
  // gained flow_id and flow_packets fields (a deliberate wire-format
  // change). Probe payloads pad to the same size, so every frame/byte/record
  // count below is unchanged — only the payload bits moved.
  // Re-captured once more when the single-context path adopted the engine's
  // keyed (node, port, seq) delivery order: the hash is the one a one-shard
  // ShardedFabric already produced for seed 7. Same frames, reordered ties.
  EXPECT_EQ(g.pcap_hash, 0xfe233f077553f837ull);
  EXPECT_EQ(g.pcap_records, 363u);

  using TC = net::TrafficClass;
  auto idx = [](TC tc) { return static_cast<std::size_t>(tc); };
  EXPECT_EQ(g.frames[idx(TC::kMtpControl)], 232u);
  EXPECT_EQ(g.bytes[idx(TC::kMtpControl)], 5808u);
  EXPECT_EQ(g.padded[idx(TC::kMtpControl)], 13920u);
  EXPECT_EQ(g.frames[idx(TC::kMtpHello)], 2480u);
  EXPECT_EQ(g.bytes[idx(TC::kMtpHello)], 37200u);
  EXPECT_EQ(g.padded[idx(TC::kMtpHello)], 148800u);
  EXPECT_EQ(g.frames[idx(TC::kMtpData)], 800u);
  EXPECT_EQ(g.bytes[idx(TC::kMtpData)], 102400u);
  EXPECT_EQ(g.padded[idx(TC::kMtpData)], 102400u);
  EXPECT_EQ(g.frames[idx(TC::kIpData)], 400u);
  EXPECT_EQ(g.bytes[idx(TC::kIpData)], 48800u);
  EXPECT_EQ(g.padded[idx(TC::kIpData)], 48800u);
}

TEST(GoldenFabric, BgpTwoPodRun) {
  GoldenRun g = run_scenario(harness::Proto::kBgp);
  print_actuals("bgp", g);

  EXPECT_EQ(g.sent, 200u);
  EXPECT_EQ(g.unique_received, 200u);
  // Re-captured when the single-context path adopted the engine's
  // per-entity RNG streams and keyed delivery order: every value is the one
  // a one-shard ShardedFabric already produced for seed 7. Keepalive jitter
  // now draws per peer, so two fewer keepalives (and their ACKs) fit in the
  // window: keepalive 194/16810 -> 192/16640, TCP ACK 195/12870 ->
  // 192/12672 frames/bytes.
  EXPECT_EQ(g.pcap_hash, 0x6266ecabf8c090ecull);
  EXPECT_EQ(g.pcap_records, 228u);

  using TC = net::TrafficClass;
  auto idx = [](TC tc) { return static_cast<std::size_t>(tc); };
  EXPECT_EQ(g.frames[idx(TC::kBgpUpdate)], 64u);
  EXPECT_EQ(g.bytes[idx(TC::kBgpUpdate)], 7648u);
  EXPECT_EQ(g.padded[idx(TC::kBgpUpdate)], 7648u);
  EXPECT_EQ(g.frames[idx(TC::kBgpKeepalive)], 192u);
  EXPECT_EQ(g.bytes[idx(TC::kBgpKeepalive)], 16640u);
  EXPECT_EQ(g.padded[idx(TC::kBgpKeepalive)], 16640u);
  EXPECT_EQ(g.frames[idx(TC::kTcpAck)], 192u);
  EXPECT_EQ(g.bytes[idx(TC::kTcpAck)], 12672u);
  EXPECT_EQ(g.padded[idx(TC::kTcpAck)], 12672u);
  EXPECT_EQ(g.frames[idx(TC::kIpData)], 1200u);
  EXPECT_EQ(g.bytes[idx(TC::kIpData)], 146400u);
  EXPECT_EQ(g.padded[idx(TC::kIpData)], 146400u);
}

}  // namespace
}  // namespace mrmtp
