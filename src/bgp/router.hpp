// BgpRouter: an RFC 7938-style datacenter eBGP speaker with ECMP and
// optional BFD, the paper's baseline protocol suite.
//
// Implements the pieces the paper's measurements exercise:
//   * session FSM over TCP-lite (Idle/Connect/OpenSent/OpenConfirm/
//     Established), keepalive + hold timers ("timers bgp 1 3"),
//     connect-retry with jitter;
//   * fast external fallover: a local interface going down immediately tears
//     the sessions riding on it (how TC2/TC4 converge quickly);
//   * Adj-RIB-In per peer, decision process by shortest AS_PATH with
//     multipath-relax ECMP, installation into the kernel-style RouteTable;
//   * per-peer Adj-RIB-Out with MinRouteAdvertisementInterval (MRAI)
//     batching and sender-side AS-loop suppression (the RFC 7938 ASN plan
//     makes this equivalent to valley-free route propagation);
//   * optional BFD (RFC 5880) driving the session down on detect timeout.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "bfd/bfd.hpp"
#include "bgp/message.hpp"
#include "transport/l3_node.hpp"

namespace mrmtp::bgp {

struct BgpTimers {
  sim::Duration keepalive = sim::Duration::seconds(1);
  sim::Duration hold = sim::Duration::seconds(3);
  /// MinRouteAdvertisementIntervalTimer. FRR's datacenter profile uses 0;
  /// the ablation bench sweeps it.
  sim::Duration mrai = sim::Duration::seconds(0);
  sim::Duration connect_retry = sim::Duration::seconds(1);

  // --- flap damping (RFC 2439-flavoured, disabled when penalty == 0) ---
  /// Figure-of-merit added per Established->down flap, halving every
  /// `damping_half_life`. While the decayed penalty is at or above
  /// `damping_suppress`, reconnect attempts are deferred until the penalty
  /// would decay to `damping_reuse` — a flapping session backs off instead
  /// of re-amplifying the withdrawal storm that killed it.
  double damping_penalty = 0;
  double damping_suppress = 2500;
  double damping_reuse = 750;
  sim::Duration damping_half_life = sim::Duration::seconds(2);
};

struct NeighborConfig {
  ip::Ipv4Addr local_addr;
  ip::Ipv4Addr peer_addr;
  std::uint32_t peer_asn = 0;
};

struct BgpConfig {
  std::uint32_t asn = 0;
  std::uint32_t router_id = 0;
  BgpTimers timers;
  bool ecmp = true;  // multipath relax
  bool enable_bfd = false;
  bfd::BfdSession::Config bfd;
  std::vector<NeighborConfig> neighbors;
  /// Locally originated prefixes (a ToR's server subnet).
  std::vector<ip::Ipv4Prefix> originate;
  /// Seed of the private timer-jitter streams: peer i draws its keepalive
  /// and retry jitter from rng_seed + i and its BFD session from
  /// ~rng_seed + i, so each session's draws depend only on its own event
  /// order. harness::Deployment derives it from the run seed and the device
  /// index.
  std::uint64_t rng_seed = 0;
};

class BgpRouter : public transport::L3Node {
 public:
  enum class SessionState {
    kIdle,
    kConnect,
    kOpenSent,
    kOpenConfirm,
    kEstablished,
  };

  BgpRouter(net::SimContext& ctx, std::string name, std::uint32_t tier,
            BgpConfig config);

  void start() override;
  /// Reboot step: RSTs every TCP session (established peers learn at once;
  /// half-open peers exhaust their own SYN retransmits instead of wedging),
  /// stops BFD, and wipes peers, RIBs, and learned routes. A later start()
  /// is a cold rejoin with fresh sessions.
  void stop() override;
  void on_port_down(net::Port& port) override;
  void on_port_up(net::Port& port) override;

  /// Graceful cost-out before a planned reboot: withdraws every advertised
  /// prefix from every established peer and suppresses re-advertisement, so
  /// neighbors shift traffic to their remaining ECMP members while this
  /// router keeps forwarding in-flight packets through the grace period.
  void drain();
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] const BgpConfig& config() const { return config_; }
  [[nodiscard]] SessionState session_state(ip::Ipv4Addr peer) const;
  [[nodiscard]] std::size_t established_sessions() const;

  /// FRR-style "show running-config" text (paper Listing 1).
  [[nodiscard]] std::string config_text() const;

  /// FRR-style "show bgp summary": one line per neighbor with state and
  /// message counters.
  [[nodiscard]] std::string summary_text() const;

  struct BgpStats {
    std::uint64_t updates_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t keepalives_sent = 0;
    std::uint64_t rib_changes = 0;  // RouteTable mutations
    std::uint64_t sessions_flapped = 0;  // Established -> down transitions
    /// Reconnects deferred past connect_retry by flap damping.
    std::uint64_t retries_damped = 0;
  };
  [[nodiscard]] const BgpStats& bgp_stats() const { return stats_; }

  /// Decayed flap-damping penalty for the session with `peer` (tests/bench).
  [[nodiscard]] double peer_damping_penalty(ip::Ipv4Addr peer) const;

  /// Fired whenever this router's RouteTable actually changes.
  std::function<void(sim::Time)> on_rib_change;
  /// Fired when an UPDATE is sent or received (convergence end detection —
  /// the paper records the time the update messages stop).
  std::function<void(sim::Time)> on_update_activity;
  /// Fired when an Established session goes down (hold timer, BFD, interface
  /// or transport event) — the detection instant of the gray-failure
  /// latency metric.
  std::function<void(sim::Time, ip::Ipv4Addr peer, std::string_view reason)>
      on_session_down;

 private:
  struct PathInfo {
    std::vector<std::uint32_t> as_path;
    ip::Ipv4Addr next_hop;
    std::size_t peer_index = 0;
  };

  struct Peer {
    NeighborConfig cfg;
    std::size_t index = 0;
    SessionState state = SessionState::kIdle;
    transport::TcpConnection* conn = nullptr;
    MessageReader reader;
    std::unique_ptr<sim::Timer> hold_timer;
    std::unique_ptr<sim::Timer> keepalive_timer;
    std::unique_ptr<sim::Timer> retry_timer;
    std::unique_ptr<sim::Timer> mrai_timer;
    /// Adj-RIB-Out: what we last advertised, per prefix (AS path sent).
    std::map<ip::Ipv4Prefix, std::vector<std::uint32_t>> advertised;
    /// Prefixes whose advertisement must be re-evaluated at next flush.
    std::set<ip::Ipv4Prefix> pending;
    /// Flap-damping figure of merit (lazy exponential decay).
    double damp_penalty = 0;
    sim::Time damp_updated{};
    /// Private jitter stream (BgpConfig::rng_seed + index).
    sim::Rng rng{0};
  };

  // --- session management ---
  void start_peer(Peer& peer);
  void attach_connection(Peer& peer, transport::TcpConnection& conn);
  void session_established(Peer& peer);
  void drop_session(Peer& peer, std::string_view reason);
  void schedule_retry(Peer& peer);
  /// Peer's damping penalty decayed to the current instant (no mutation).
  [[nodiscard]] double decayed_penalty(const Peer& peer) const;
  void handle_stream(Peer& peer, std::span<const std::uint8_t> data);
  void handle_message(Peer& peer, const BgpMessage& msg);
  void send_message(Peer& peer, const BgpMessage& msg);
  /// RFC 4271-style timer jitter: uniform in [0.75, 1.0) x base, drawn from
  /// the peer's private stream.
  [[nodiscard]] sim::Duration jittered(Peer& peer, sim::Duration base);

  // --- routing ---
  void process_update(Peer& peer, const UpdateMessage& update);
  /// Re-runs the decision process for `prefix`; returns true if the
  /// Loc-RIB / RouteTable changed.
  bool run_decision(ip::Ipv4Prefix prefix);
  void schedule_advertisements(ip::Ipv4Prefix prefix);
  void flush_peer(Peer& peer);
  /// What should currently be advertised to `peer` (AS path with own ASN
  /// prepended and next hop), or nullopt for none/suppressed.
  [[nodiscard]] std::optional<PathInfo> advertisement_for(
      const Peer& peer, ip::Ipv4Prefix prefix) const;
  [[nodiscard]] const PathInfo* best_path(ip::Ipv4Prefix prefix) const;
  void install(ip::Ipv4Prefix prefix, const std::vector<PathInfo*>& paths);
  void note_rib_change();

  [[nodiscard]] bool originates(ip::Ipv4Prefix prefix) const;
  [[nodiscard]] std::uint32_t egress_port_for(ip::Ipv4Addr next_hop) const;

  BgpConfig config_;
  bool draining_ = false;
  std::vector<std::unique_ptr<Peer>> peers_;
  /// Adj-RIB-In: prefix -> (peer index -> path).
  std::map<ip::Ipv4Prefix, std::map<std::size_t, PathInfo>> adj_rib_in_;
  /// Loc-RIB: chosen (possibly ECMP) paths per prefix, for advertisement.
  std::map<ip::Ipv4Prefix, std::vector<PathInfo>> loc_rib_;
  std::unique_ptr<bfd::BfdManager> bfd_;
  BgpStats stats_;
};

}  // namespace mrmtp::bgp
