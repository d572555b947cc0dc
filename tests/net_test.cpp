// Unit tests: frames, links (delay/serialization/impairments), nodes, and
// the one-sided interface-failure semantics the paper's TC analysis needs.
#include <gtest/gtest.h>

#include "net/network.hpp"

namespace mrmtp::net {
namespace {

/// Test node that records every received frame with its arrival time.
class SinkNode : public Node {
 public:
  using Node::Node;

  void handle_frame(Port& in, Frame frame) override {
    arrivals.push_back({ctx_.now(), in.number(), std::move(frame)});
  }
  void on_port_down(Port& port) override { downs.push_back(port.number()); }
  void on_port_up(Port& port) override { ups.push_back(port.number()); }

  struct Arrival {
    sim::Time at;
    std::uint32_t port;
    Frame frame;
  };
  std::vector<Arrival> arrivals;
  std::vector<std::uint32_t> downs;
  std::vector<std::uint32_t> ups;
};

Frame make_frame(std::size_t payload_size,
                 TrafficClass tc = TrafficClass::kOther) {
  Frame f;
  f.dst = MacAddr::broadcast();
  f.ethertype = EtherType::kIpv4;
  f.payload.assign(payload_size, 0xab);
  f.traffic_class = tc;
  return f;
}

class LinkTest : public ::testing::Test {
 protected:
  void wire(Link::Params params = {}) {
    a_ = &network_.add_node<SinkNode>("a", 1);
    b_ = &network_.add_node<SinkNode>("b", 2);
    link_ = &network_.connect(*a_, *b_, params);
  }

  SimContext ctx_{123};
  Network network_{ctx_};
  SinkNode* a_ = nullptr;
  SinkNode* b_ = nullptr;
  Link* link_ = nullptr;
};

TEST_F(LinkTest, DeliversWithPropagationAndSerialization) {
  wire({.delay = sim::Duration::micros(10), .bandwidth_bps = 1'000'000'000});
  a_->transmit(a_->port(1), make_frame(100));
  ctx_.sched.run();

  ASSERT_EQ(b_->arrivals.size(), 1u);
  // 100B payload + 14 header -> 114, padded irrelevant (>60), +20 preamble/IFG
  // = 134 B = 1072 bits at 1 Gb/s = 1.072 us, plus 10 us propagation.
  EXPECT_EQ(b_->arrivals[0].at.ns(), 11072);
  EXPECT_EQ(b_->arrivals[0].frame.payload.size(), 100u);
}

TEST_F(LinkTest, BackToBackFramesQueueBehindSerialization) {
  wire({.delay = sim::Duration::micros(1), .bandwidth_bps = 1'000'000'000});
  a_->transmit(a_->port(1), make_frame(1000));
  a_->transmit(a_->port(1), make_frame(1000));
  ctx_.sched.run();
  ASSERT_EQ(b_->arrivals.size(), 2u);
  // Second frame waits for the first one's serialization slot.
  sim::Duration ser = b_->arrivals[1].at - b_->arrivals[0].at;
  EXPECT_EQ(ser.ns(), (1000 + 14 + 20) * 8);  // @ 1 Gb/s: 1 ns per bit
}

TEST_F(LinkTest, MinimumFramePadding) {
  Frame f = make_frame(1);
  EXPECT_EQ(f.wire_size(), 15u);
  EXPECT_EQ(f.padded_wire_size(), 60u);
  Frame big = make_frame(100);
  EXPECT_EQ(big.padded_wire_size(), big.wire_size());
}

TEST_F(LinkTest, OneSidedFailureNotifiesOwnerOnly) {
  wire();
  a_->set_interface_down(1);
  EXPECT_EQ(a_->downs, std::vector<std::uint32_t>{1});
  EXPECT_TRUE(b_->downs.empty());  // the peer learns nothing (paper §IV)
}

TEST_F(LinkTest, FramesTowardDownedInterfaceAreDropped) {
  wire();
  a_->set_interface_down(1);
  // b's interface is still up; its transmission is dropped at arrival.
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_TRUE(a_->arrivals.empty());
  EXPECT_EQ(link_->stats().dropped_dst_down(), 1u);
  // The drop is attributed to the direction that carried the frame.
  EXPECT_EQ(link_->stats().ba.dropped_dst_down, 1u);
  EXPECT_EQ(link_->stats().ab.dropped_dst_down, 0u);
}

TEST_F(LinkTest, FramesFromDownedInterfaceAreNotSent) {
  wire();
  a_->set_interface_down(1);
  a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_TRUE(b_->arrivals.empty());
  EXPECT_EQ(link_->stats().delivered(), 0u);
}

TEST_F(LinkTest, InterfaceUpRestoresDelivery) {
  wire();
  a_->set_interface_down(1);
  a_->set_interface_up(1);
  EXPECT_EQ(a_->ups, std::vector<std::uint32_t>{1});
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_EQ(a_->arrivals.size(), 1u);
}

TEST_F(LinkTest, FramesInFlightWhenInterfaceGoesDownAreLost) {
  wire({.delay = sim::Duration::millis(1), .bandwidth_bps = 10'000'000'000});
  b_->transmit(b_->port(1), make_frame(50));
  ctx_.sched.schedule_after(sim::Duration::micros(100),
                            [this] { a_->set_interface_down(1); });
  ctx_.sched.run();
  EXPECT_TRUE(a_->arrivals.empty());
}

TEST_F(LinkTest, RandomLossDropsApproximatelyTheConfiguredFraction) {
  wire({.loss_probability = 0.3});
  const int n = 2000;
  for (int i = 0; i < n; ++i) a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  double rate = 1.0 - static_cast<double>(b_->arrivals.size()) / n;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST_F(LinkTest, DuplicationDeliversTwice) {
  wire({.duplicate_probability = 1.0});
  a_->transmit(a_->port(1), make_frame(50));
  ctx_.sched.run();
  EXPECT_EQ(b_->arrivals.size(), 2u);
  EXPECT_EQ(link_->stats().duplicated(), 1u);
}

TEST_F(LinkTest, ReorderJitterCanSwapFrames) {
  wire({.delay = sim::Duration::micros(1),
        .bandwidth_bps = 100'000'000'000ull,
        .reorder_jitter = sim::Duration::millis(1)});
  bool reordered = false;
  for (int attempt = 0; attempt < 20 && !reordered; ++attempt) {
    b_->arrivals.clear();
    Frame f1 = make_frame(50);
    f1.payload.mutable_data()[0] = 1;
    Frame f2 = make_frame(50);
    f2.payload.mutable_data()[0] = 2;
    a_->transmit(a_->port(1), std::move(f1));
    a_->transmit(a_->port(1), std::move(f2));
    ctx_.sched.run();
    ASSERT_EQ(b_->arrivals.size(), 2u);
    reordered = b_->arrivals[0].frame.payload[0] == 2;
  }
  EXPECT_TRUE(reordered);
}

TEST_F(LinkTest, TrafficStatsAccumulatePerClass) {
  wire();
  a_->transmit(a_->port(1), make_frame(1, TrafficClass::kMtpHello));
  a_->transmit(a_->port(1), make_frame(100, TrafficClass::kMtpData));
  ctx_.sched.run();

  const auto& tx = a_->port(1).tx_stats();
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).frames, 1u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).bytes, 15u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpHello).padded_bytes, 60u);
  EXPECT_EQ(tx.of(TrafficClass::kMtpData).frames, 1u);
  EXPECT_EQ(tx.total().frames, 2u);
  EXPECT_EQ(b_->port(1).rx_stats().total().frames, 2u);
}

TEST(NodeTest, PortNumbersAreOneBasedInCreationOrder) {
  SimContext ctx(1);
  Network network(ctx);
  auto& n = network.add_node<SinkNode>("n", 1);
  EXPECT_EQ(n.add_port().number(), 1u);
  EXPECT_EQ(n.add_port().number(), 2u);
  EXPECT_THROW((void)n.port(0), std::out_of_range);
  EXPECT_THROW((void)n.port(3), std::out_of_range);
}

TEST(NodeTest, TransmitOnUnwiredPortIsSilentlyDropped) {
  SimContext ctx(1);
  Network network(ctx);
  auto& n = network.add_node<SinkNode>("n", 1);
  n.add_port();
  n.transmit(n.port(1), make_frame(10));  // no link: no crash
  ctx.sched.run();
}

TEST(NodeTest, MacAddressesAreUniquePerPort) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  network.connect(x, y);
  network.connect(x, y);
  EXPECT_NE(x.port(1).mac(), x.port(2).mac());
  EXPECT_NE(x.port(1).mac(), y.port(1).mac());
  EXPECT_FALSE(x.port(1).mac().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
}

TEST(NodeTest, PeerNavigation) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  network.connect(x, y);
  ASSERT_NE(x.port(1).peer(), nullptr);
  EXPECT_EQ(&x.port(1).peer()->owner(), &y);
}

TEST(NetworkTest, FindByName) {
  SimContext ctx(1);
  Network network(ctx);
  network.add_node<SinkNode>("alpha", 1);
  EXPECT_EQ(network.find("alpha").name(), "alpha");
  EXPECT_THROW((void)network.find("missing"), std::out_of_range);
  EXPECT_EQ(network.find_or_null("missing"), nullptr);
}

TEST(NetworkTest, DoubleWiringAPortThrows) {
  SimContext ctx(1);
  Network network(ctx);
  auto& x = network.add_node<SinkNode>("x", 1);
  auto& y = network.add_node<SinkNode>("y", 1);
  auto& z = network.add_node<SinkNode>("z", 1);
  network.connect(x, y);
  Port& used = x.port(1);
  Port& fresh = z.add_port();
  EXPECT_THROW(Link(ctx, used, fresh, {}, /*rng_seed=*/0), std::logic_error);
}

TEST(FrameTest, SerializeLayout) {
  Frame f = make_frame(2);
  f.ethertype = EtherType::kMtp;
  auto bytes = f.serialize();
  ASSERT_EQ(bytes.size(), 16u);
  // Broadcast destination MAC.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(bytes[static_cast<size_t>(i)], 0xff);
  // EtherType 0x8850 (the paper's MTP type).
  EXPECT_EQ(bytes[12], 0x88);
  EXPECT_EQ(bytes[13], 0x50);
}

}  // namespace
}  // namespace mrmtp::net
