// Unit tests: UDP codec and TCP-lite — handshake, segmentation, delayed
// ACKs, retransmission under loss/reorder (property-tested), reset handling,
// and the 85-byte BGP-keepalive frame arithmetic the paper reports.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::transport {
namespace {

/// Two endpoints joined by an in-memory channel with configurable loss,
/// duplication, and jitter; packets travel as scheduled events.
struct ChannelParams {
  sim::Duration delay = sim::Duration::micros(50);
  double loss = 0.0;
  sim::Duration jitter{};
};

class Channel {
 public:
  class Endpoint : public IpSender {
   public:
    Endpoint(Channel& channel, int side, std::string name)
        : channel_(channel), side_(side), name_(std::move(name)), tcp_(*this) {}

    void send_ip(ip::Ipv4Addr src, ip::Ipv4Addr dst, ip::IpProto proto,
                 net::Buffer payload,
                 net::TrafficClass traffic_class) override {
      (void)proto;
      channel_.deliver(side_, src, dst, std::move(payload), traffic_class);
    }
    net::SimContext& sim() override { return channel_.ctx_; }
    [[nodiscard]] std::string endpoint_name() const override { return name_; }

    TcpStack& tcp() { return tcp_; }
    std::uint64_t frames_sent = 0;
    std::uint64_t ack_frames_sent = 0;

   private:
    Channel& channel_;
    int side_;
    std::string name_;
    TcpStack tcp_;
  };

  explicit Channel(std::uint64_t seed, ChannelParams params = {})
      : ctx_(seed),
        rng_(seed),
        params_(params),
        a_(*this, 0, "a"),
        b_(*this, 1, "b") {}

  void deliver(int from_side, ip::Ipv4Addr src, ip::Ipv4Addr dst,
               net::Buffer payload, net::TrafficClass tc) {
    Endpoint& sender = from_side == 0 ? a_ : b_;
    ++sender.frames_sent;
    if (tc == net::TrafficClass::kTcpAck) ++sender.ack_frames_sent;
    if (from_side == 0 && drop_next_from_a && !payload.empty() &&
        tc != net::TrafficClass::kTcpAck) {
      drop_next_from_a = false;
      return;
    }
    if (params_.loss > 0 && rng_.chance(params_.loss)) return;
    sim::Duration d = params_.delay;
    if (params_.jitter > sim::Duration{}) {
      d = d + sim::Duration::nanos(static_cast<std::int64_t>(
                  rng_.below(static_cast<std::uint64_t>(params_.jitter.ns()))));
    }
    Endpoint& to = from_side == 0 ? b_ : a_;
    ctx_.sched.schedule_after(d, [&to, src, dst, payload = std::move(payload)] {
      to.tcp().handle_packet(src, dst, payload);
    });
  }

  net::SimContext ctx_;
  sim::Rng rng_;  // the channel's loss and jitter draws
  ChannelParams params_;
  bool drop_next_from_a = false;
  Endpoint a_;
  Endpoint b_;
};

const auto kAddrA = ip::Ipv4Addr::parse("172.16.0.0");
const auto kAddrB = ip::Ipv4Addr::parse("172.16.0.1");

TEST(UdpTest, HeaderRoundTrip) {
  UdpHeader h{1234, 3784};
  std::vector<std::uint8_t> payload{9, 8, 7};
  auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), 11u);
  std::span<const std::uint8_t> out;
  UdpHeader parsed = UdpHeader::parse(bytes, out);
  EXPECT_EQ(parsed.src_port, 1234);
  EXPECT_EQ(parsed.dst_port, 3784);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 9);
}

TEST(TcpSegmentTest, HeaderIs32Bytes) {
  TcpSegment seg;
  seg.src_port = 20000;
  seg.dst_port = 179;
  seg.flags.ack = true;
  auto bytes = seg.serialize();
  EXPECT_EQ(bytes.size(), TcpSegment::kHeaderSize);
  // A 19-byte BGP KEEPALIVE under Ethernet+IP+TCP: 14+20+32+19 = 85 bytes,
  // the exact frame size the paper reports (Section VII.F).
  EXPECT_EQ(14 + 20 + TcpSegment::kHeaderSize + 19, 85u);
}

TEST(TcpSegmentTest, RoundTripFlagsAndPayload) {
  TcpSegment seg;
  seg.src_port = 7;
  seg.dst_port = 8;
  seg.seq = 111;
  seg.ack = 222;
  seg.flags.syn = true;
  seg.flags.ack = true;
  seg.payload = {1, 2, 3};
  TcpSegment parsed = TcpSegment::parse(seg.serialize());
  EXPECT_EQ(parsed.seq, 111u);
  EXPECT_EQ(parsed.ack, 222u);
  EXPECT_TRUE(parsed.flags.syn);
  EXPECT_TRUE(parsed.flags.ack);
  EXPECT_FALSE(parsed.flags.rst);
  EXPECT_EQ(parsed.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

struct Collected {
  std::vector<std::uint8_t> data;
  bool established = false;
  bool closed = false;
};

TcpConnection::Callbacks collect(Collected& c) {
  return {
      .on_established = [&c] { c.established = true; },
      .on_data =
          [&c](std::span<const std::uint8_t> d) {
            c.data.insert(c.data.end(), d.begin(), d.end());
          },
      .on_closed = [&c] { c.closed = true; },
  };
}

TEST(TcpLiteTest, HandshakeAndBidirectionalData) {
  Channel ch(1);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);
  ASSERT_TRUE(cb.established);

  conn.send({'h', 'i'}, net::TrafficClass::kBgpUpdate);
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, (std::vector<std::uint8_t>{'h', 'i'}));
  EXPECT_EQ(ch.b_.tcp().connection_count(), 1u);
}

TEST(TcpLiteTest, LargeTransferSegmentsAtMss) {
  Channel ch(2);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();

  std::vector<std::uint8_t> blob(10000);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
  }
  conn.send(blob, net::TrafficClass::kBgpUpdate);
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, blob);
}

TEST(TcpLiteTest, SendBeforeEstablishedIsQueued) {
  Channel ch(3);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  conn.send({'x'}, net::TrafficClass::kBgpUpdate);  // still in handshake
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, (std::vector<std::uint8_t>{'x'}));
}

TEST(TcpLiteTest, PureAcksAreClassifiedSeparately) {
  Channel ch(4);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  std::uint64_t acks_before = ch.b_.ack_frames_sent;
  conn.send({'d'}, net::TrafficClass::kBgpKeepalive);
  ch.ctx_.sched.run();
  // The receiver produced a delayed pure ACK for the data.
  EXPECT_GT(ch.b_.ack_frames_sent, acks_before);
}

TEST(TcpLiteTest, ResetClosesPeer) {
  Channel ch(5);
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  ch.ctx_.sched.run();
  conn.reset();
  ch.ctx_.sched.run();
  EXPECT_TRUE(cb.closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

TEST(TcpLiteTest, RetransmissionExhaustionFailsConnection) {
  // No listener and 100% loss: the SYN can never complete.
  Channel ch(6, {.loss = 1.0});
  Collected ca;
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::millis(10), .max_retransmits = 3});
  ch.ctx_.sched.run();
  EXPECT_TRUE(ca.closed);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
}

TEST(TcpLiteTest, FastRetransmitRecoversBeforeRto) {
  // One lost data segment followed by later segments: the receiver's
  // duplicate ACKs must trigger retransmission well before the (huge) RTO.
  Channel ch(8, {.delay = sim::Duration::micros(100)});
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::seconds(30), .mss = 100});
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);

  // Drop exactly the next a->b data segment.
  ch.drop_next_from_a = true;
  std::vector<std::uint8_t> blob(500);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i);
  }
  conn.send(blob, net::TrafficClass::kBgpUpdate);
  // Run only 1 simulated second — far below the 30 s RTO.
  ch.ctx_.sched.run_until(ch.ctx_.sched.now() + sim::Duration::seconds(1));
  EXPECT_EQ(cb.data, blob);
}

TEST(TcpLiteTest, DestroyRemovesConnection) {
  Channel ch(7);
  Collected ca;
  TcpConnection& conn =
      ch.a_.tcp().connect(kAddrA, 20000, kAddrB, 179, collect(ca));
  EXPECT_EQ(ch.a_.tcp().connection_count(), 1u);
  ch.a_.tcp().destroy(conn);
  ch.ctx_.sched.run();
  EXPECT_EQ(ch.a_.tcp().connection_count(), 0u);
}

// Property: the byte stream is delivered completely and in order across
// random loss and reordering jitter.
class TcpLossProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(TcpLossProperty, ReliableInOrderDelivery) {
  auto [seed, loss] = GetParam();
  Channel ch(seed, {.delay = sim::Duration::micros(100),
                    .loss = loss,
                    .jitter = sim::Duration::micros(30)});
  Collected ca, cb;
  ch.b_.tcp().listen(179, [&cb](TcpConnection& conn) {
    conn.set_callbacks(collect(cb));
  });
  TcpConnection& conn = ch.a_.tcp().connect(
      kAddrA, 20000, kAddrB, 179, collect(ca),
      TcpTuning{.rto = sim::Duration::millis(20), .max_retransmits = 30});
  ch.ctx_.sched.run();
  ASSERT_TRUE(ca.established);

  std::vector<std::uint8_t> blob(5000);
  sim::Rng payload_rng(seed * 97);
  for (auto& b : blob) b = static_cast<std::uint8_t>(payload_rng.next());
  // Several sends interleaved in time.
  for (int chunk = 0; chunk < 5; ++chunk) {
    std::vector<std::uint8_t> piece(blob.begin() + chunk * 1000,
                                    blob.begin() + (chunk + 1) * 1000);
    ch.ctx_.sched.schedule_after(
        sim::Duration::millis(chunk * 3),
        [&conn, piece = std::move(piece)]() mutable {
          conn.send(std::move(piece), net::TrafficClass::kBgpUpdate);
        });
  }
  ch.ctx_.sched.run();
  EXPECT_EQ(cb.data, blob) << "seed=" << seed << " loss=" << loss;
  EXPECT_FALSE(cb.closed);
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, TcpLossProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.05, 0.2)));

TEST(L3NodeTest, ForwardsAcrossRouterWithEcmp) {
  net::SimContext ctx(9);
  net::Network network(ctx);

  // h1 -- r -- h2 with a second parallel path r->h2 to exercise ECMP install.
  auto& h1 = network.add_node<L3Node>("h1", 0);
  auto& r = network.add_node<L3Node>("r", 1);
  auto& h2 = network.add_node<L3Node>("h2", 0);
  network.connect(h1, r);
  network.connect(r, h2);

  h1.configure_port(1, ip::Ipv4Addr::parse("10.0.1.1"), 24);
  r.configure_port(1, ip::Ipv4Addr::parse("10.0.1.254"), 24);
  r.configure_port(2, ip::Ipv4Addr::parse("10.0.2.254"), 24);
  h2.configure_port(1, ip::Ipv4Addr::parse("10.0.2.1"), 24);
  h1.routes().set(ip::Ipv4Prefix::parse("0.0.0.0/0"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.1.254"), 1}});
  h2.routes().set(ip::Ipv4Prefix::parse("0.0.0.0/0"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.2.254"), 1}});

  int got = 0;
  h2.bind_udp(5000, [&](ip::Ipv4Addr src, ip::Ipv4Addr, const UdpHeader&,
                        std::span<const std::uint8_t> payload) {
    EXPECT_EQ(src, ip::Ipv4Addr::parse("10.0.1.1"));
    EXPECT_EQ(payload.size(), 4u);
    ++got;
  });
  h1.send_udp(ip::Ipv4Addr::parse("10.0.1.1"), ip::Ipv4Addr::parse("10.0.2.1"),
              4000, 5000, {1, 2, 3, 4}, net::TrafficClass::kIpData);
  ctx.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(r.forwarding_stats().forwarded, 1u);
}

TEST(L3NodeTest, TtlExpiryDropsTransit) {
  net::SimContext ctx(10);
  net::Network network(ctx);
  // Two routers forwarding to each other creates a loop; TTL must kill it.
  auto& r1 = network.add_node<L3Node>("r1", 1);
  auto& r2 = network.add_node<L3Node>("r2", 1);
  network.connect(r1, r2);
  r1.configure_port(1, ip::Ipv4Addr::parse("10.0.0.0"), 31);
  r2.configure_port(1, ip::Ipv4Addr::parse("10.0.0.1"), 31);
  r1.routes().set(ip::Ipv4Prefix::parse("99.0.0.0/8"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.0.1"), 1}});
  r2.routes().set(ip::Ipv4Prefix::parse("99.0.0.0/8"), ip::RouteProto::kStatic,
                  {{ip::Ipv4Addr::parse("10.0.0.0"), 1}});

  r1.send_ip(ip::Ipv4Addr::parse("10.0.0.0"), ip::Ipv4Addr::parse("99.1.1.1"),
             ip::IpProto::kUdp, {0, 0, 0, 0}, net::TrafficClass::kIpData);
  ctx.sched.run();  // must terminate
  EXPECT_EQ(r1.forwarding_stats().dropped_ttl +
                r2.forwarding_stats().dropped_ttl,
            1u);
}

TEST(L3NodeTest, NoRouteDropIsCounted) {
  net::SimContext ctx(11);
  net::Network network(ctx);
  auto& r = network.add_node<L3Node>("r", 1);
  r.add_port();
  r.send_ip(ip::Ipv4Addr::parse("1.1.1.1"), ip::Ipv4Addr::parse("2.2.2.2"),
            ip::IpProto::kUdp, {}, net::TrafficClass::kIpData);
  EXPECT_EQ(r.forwarding_stats().dropped_no_route, 1u);
}

}  // namespace
}  // namespace mrmtp::transport
