// Node and Port: the device model.
//
// A Node owns numbered ports (1-based, matching the paper's VID derivation,
// which appends the arrival port number). Protocol stacks subclass Node and
// receive frames via handle_frame(). Interface failure is one-sided: the
// owning node gets on_port_down() immediately (the paper's failure script
// records this instant as convergence start); the peer learns nothing until
// its keep-alive dead timer fires, exactly as observed on FABRIC's virtual
// links.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/stats.hpp"
#include "sim/log.hpp"
#include "sim/scheduler.hpp"

namespace mrmtp::net {

class Node;
class Link;
class SwitchBuffer;
struct SwitchBufferParams;

/// Shared simulation services handed to every node: one scheduler and
/// clock per run.
///
/// There is no shared random stream: `seed` is the run seed, from which
/// every Link direction, BGP peer and BFD session derives its own stream at
/// construction, so each draw depends only on that entity's own event order.
struct SimContext {
  explicit SimContext(std::uint64_t run_seed = 1) : seed(run_seed) {}

  sim::Scheduler sched;
  sim::Logger log;
  std::uint64_t seed;
  /// Slab-backed per-frame counters (SoA hot state): every port and link
  /// wired on this context allocates its counter block here, so the run's
  /// counters are contiguous and whole-fabric stat sweeps are linear scans.
  StatsArena stats;

  [[nodiscard]] sim::Time now() const { return sched.now(); }
};

class Port {
 public:
  /// Allocates the port's traffic counters from the owner context's arena
  /// (defined in node.cpp, after Node).
  Port(Node& owner, std::uint32_t number);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] Node& owner() const { return *owner_; }
  /// 1-based port number; MR-MTP appends this to VIDs.
  [[nodiscard]] std::uint32_t number() const { return number_; }
  [[nodiscard]] bool admin_up() const { return admin_up_; }
  [[nodiscard]] bool connected() const { return link_ != nullptr; }
  [[nodiscard]] Link* link() const { return link_; }
  [[nodiscard]] MacAddr mac() const;

  /// The port on the far side of this port's link (nullptr if unwired).
  /// Topology/harness helper only — protocol logic must discover peers via
  /// messages, not by peeking.
  [[nodiscard]] Port* peer() const;

  [[nodiscard]] TrafficStats& tx_stats() { return *tx_; }
  [[nodiscard]] TrafficStats& rx_stats() { return *rx_; }
  [[nodiscard]] const TrafficStats& tx_stats() const { return *tx_; }
  [[nodiscard]] const TrafficStats& rx_stats() const { return *rx_; }

  [[nodiscard]] std::string str() const;  // "S-1-1:2"

 private:
  friend class Node;
  friend class Link;

  Node* owner_;
  std::uint32_t number_;
  Link* link_ = nullptr;
  bool admin_up_ = true;
  /// Stable pointers into the owning SimContext's StatsArena slab.
  TrafficStats* tx_;
  TrafficStats* rx_;
};

class Node {
 public:
  // Ctor/dtor out of line: SwitchBuffer is incomplete here.
  Node(SimContext& ctx, std::string name, std::uint32_t tier);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] SimContext& ctx() { return ctx_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// Tier in the folded-Clos: 0 = server, 1 = ToR/leaf, 2 = pod spine,
  /// 3 = top spine (and so on for deeper fabrics).
  [[nodiscard]] std::uint32_t tier() const { return tier_; }

  Port& add_port();
  [[nodiscard]] Port& port(std::uint32_t number);
  [[nodiscard]] const Port& port(std::uint32_t number) const;
  [[nodiscard]] std::uint32_t port_count() const {
    return static_cast<std::uint32_t>(ports_.size());
  }

  /// Sends a frame out `out`; silently dropped if the port is down/unwired.
  void transmit(Port& out, Frame frame);

  /// Gives this node a finite shared egress buffer (see switch_buffer.hpp);
  /// every Link admission from this node then charges it. Enabling twice
  /// replaces the buffer with a fresh one (fresh accounting).
  SwitchBuffer& enable_switch_buffer(const SwitchBufferParams& params);
  [[nodiscard]] SwitchBuffer* switch_buffer() { return switch_buffer_.get(); }
  [[nodiscard]] const SwitchBuffer* switch_buffer() const {
    return switch_buffer_.get();
  }

  /// Delivery entry point used by Link: records which port the frame arrived
  /// on (ingress attribution for PFC charging — forwarding is synchronous in
  /// every protocol stack here) and dispatches to handle_frame().
  void receive_frame(Port& in, Frame frame);
  /// 1-based port number of the frame currently being received; 0 outside
  /// receive_frame (self-originated traffic charges no ingress account).
  [[nodiscard]] std::uint32_t current_rx_port() const { return rx_port_no_; }

  /// Administratively fails/restores an interface. Down notifies this node
  /// (on_port_down) at the current instant; the peer is NOT notified.
  void set_interface_down(std::uint32_t port_number);
  void set_interface_up(std::uint32_t port_number);

  /// Invoked once after the topology is fully wired; protocols begin their
  /// state machines (advertisements, session establishment) here.
  virtual void start() {}

  /// Powers the node off: protocols must tear down sessions and wipe all
  /// control-plane state so a later start() is a cold rejoin, not a resume.
  /// The lifecycle engine's reboot primitive; default is stateless no-op.
  virtual void stop() {}

  /// A frame arrived on `in`.
  virtual void handle_frame(Port& in, Frame frame) = 0;

  virtual void on_port_down(Port& port) { (void)port; }
  virtual void on_port_up(Port& port) { (void)port; }

 protected:
  void log(sim::LogLevel level, std::string msg) const;

  SimContext& ctx_;

 private:
  friend class Network;

  std::string name_;
  std::uint32_t id_ = 0;
  std::uint32_t tier_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unique_ptr<SwitchBuffer> switch_buffer_;
  std::uint32_t rx_port_no_ = 0;
};

}  // namespace mrmtp::net
