// MtpRouter: the Multi-Root Meshed Tree Protocol engine (paper §III–IV).
//
// One object serves every tier; the role differences fall out of the tier
// number and the presence of a server subnet:
//   * Leaves (ToRs) derive their root VID from the rack subnet's third
//     octet, advertise it upward, and encapsulate/decapsulate server IP
//     packets in MTP DATA frames.
//   * Spines join the trees advertised from below (request -> offer -> ack,
//     all retransmitted until acknowledged — MR-MTP's built-in reliability
//     in place of TCP) and acquire one VID per tree per downstream branch.
//   * Forwarding is VID-table down, hash-load-balanced default-route up,
//     with per-destination port exclusions maintained by failure updates.
//
// Failure handling implements the paper's Quick-to-Detect / Slow-to-Accept:
// a neighbor is declared down after a single missed hello window (dead
// interval = 2 x hello), and re-accepted only after `accept_streak`
// consecutive messages. Every MTP frame counts as a keep-alive; the 1-byte
// HELLO is sent only on links idle for a hello interval.
//
// Failure updates never recompute routes (paper §IV.B): VID_WITHDRAW prunes
// exact table entries upward; DEST_UNREACH/DEST_CLEAR maintain load-balancer
// exclusions downward.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "ip/packet.hpp"
#include "mtp/message.hpp"
#include "mtp/vid_table.hpp"
#include "net/network.hpp"
#include "util/hash.hpp"

namespace mrmtp::mtp {

struct MtpTimers {
  sim::Duration hello = sim::Duration::millis(50);
  sim::Duration dead = sim::Duration::millis(100);
  /// Consecutive keep-alives required to re-accept a neighbor (paper: 3).
  int accept_streak = 3;
  /// Ablation switch: false accepts a neighbor on the first keep-alive.
  bool slow_to_accept = true;
  /// Reliable-control retransmission interval and cap.
  sim::Duration retransmit = sim::Duration::millis(100);
  int max_retransmits = 10;

  // --- flap damping (overload containment, disabled when penalty == 0) ---
  /// Figure-of-merit added per alive->dead flap. The penalty halves every
  /// `damping_half_life`; while it sits at or above `damping_suppress` the
  /// port is suppressed and Slow-to-Accept streaks no longer promote the
  /// neighbor, until decay brings it down to `damping_reuse`. With the
  /// defaults below (once enabled) a single clean failure/recovery never
  /// suppresses; three flaps inside a couple of seconds do.
  double damping_penalty = 0;
  double damping_suppress = 2500;
  double damping_reuse = 750;
  sim::Duration damping_half_life = sim::Duration::seconds(2);

  // --- withdrawal-storm containment (disabled when zero) ---
  /// Minimum spacing between failure-update originations per port. The
  /// first update in an idle interval still leaves immediately (single
  /// failures keep today's latency); bursts inside the interval are batched
  /// into one VID_WITHDRAW / DEST_UNREACH / DEST_CLEAR each, with duplicate
  /// and self-cancelling entries absorbed.
  sim::Duration update_min_interval{};
};

struct MtpConfig {
  /// Tier in the folded-Clos (1 = ToR). This is the only per-device value
  /// the paper's Listing 2 configuration carries besides the rack port.
  std::uint32_t tier = 1;
  MtpTimers timers;
  std::uint8_t data_ttl = 16;

  // --- leaf-only ---
  /// Rack subnet; the VID is its third octet (192.168.11.0/24 -> 11).
  std::optional<ip::Ipv4Prefix> server_subnet;
  /// Host-facing ports (plain IP, no MTP), keyed by the host address.
  std::map<ip::Ipv4Addr, std::uint32_t> rack_hosts;

  // --- weighted multipath / flowlet switching ---
  /// Path-selection policy for DATA forwarding. kHrw (default) keeps the
  /// PR 2 equal-share behavior bit-for-bit; kWcmp weights candidates by
  /// advertised downstream capacity; kWcmpFlowlet adds flowlet-granularity
  /// rerouting with congestion feedback.
  util::PathSelect path_select = util::PathSelect::kHrw;
  /// Idle gap that closes a flowlet (kWcmpFlowlet only). Zero means "use
  /// the deploy-derived default" (a multiple of the fabric RTT).
  sim::Duration flowlet_gap{};
};

class MtpRouter : public net::Node {
 public:
  MtpRouter(net::SimContext& ctx, std::string name, MtpConfig config);

  void start() override;
  /// Reboot step: cancels every timer and wipes the VID table, exclusions,
  /// reliable-delivery bookkeeping, and advertised failure state. A later
  /// start() is a cold rejoin indistinguishable from first power-on.
  void stop() override;
  void handle_frame(net::Port& in, net::Frame frame) override;
  void on_port_down(net::Port& port) override;
  void on_port_up(net::Port& port) override;

  /// Graceful cost-out before a planned reboot: withdraws every child VID
  /// assigned upstream and declares every known root (plus the wildcard
  /// default route) unreachable downstream, then suppresses re-advertisement
  /// and join offers so neighbors do not pull this router back into trees
  /// during the grace period. The VID table is kept so in-flight downstream
  /// traffic still delivers while neighbors shift load away.
  void drain();
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] bool is_leaf() const { return config_.server_subnet.has_value(); }
  /// Leaf root VID (0 on spines).
  [[nodiscard]] std::uint16_t own_vid() const { return own_vid_; }
  [[nodiscard]] const MtpConfig& config() const { return config_; }
  [[nodiscard]] const VidTable& vid_table() const { return vid_table_; }
  [[nodiscard]] const ExclusionTable& exclusions() const { return exclusions_; }

  /// True once this router has joined every expected tree: a spine holds a
  /// VID for each of `roots`; a leaf counts its own root as joined.
  [[nodiscard]] bool joined_all(const std::vector<std::uint16_t>& roots) const;

  /// Neighbor liveness as seen by this router (tests/harness).
  [[nodiscard]] bool neighbor_alive(std::uint32_t port) const;

  /// Decayed flap-damping penalty on `port` at the current instant, and
  /// whether re-accept is currently suppressed by it (tests/bench).
  [[nodiscard]] double port_damping_penalty(std::uint32_t port) const;
  [[nodiscard]] bool port_damping_suppressed(std::uint32_t port) const;

  /// Operator view: one line per MTP port with tier, liveness, and the
  /// VIDs held/assigned across it.
  [[nodiscard]] std::string neighbor_summary() const;

  struct MtpStats {
    std::uint64_t hellos_sent = 0;
    std::uint64_t updates_sent = 0;        // withdraw/unreach/clear frames
    std::uint64_t update_bytes_raw = 0;    // L2 bytes, unpadded
    std::uint64_t update_bytes_padded = 0; // L2 bytes with 60B minimum
    std::uint64_t updates_received = 0;
    std::uint64_t data_forwarded = 0;
    std::uint64_t data_delivered = 0;
    std::uint64_t data_dropped_no_path = 0;
    std::uint64_t data_dropped_ttl = 0;
    std::uint64_t table_changes_local = 0;   // from own interface/dead-timer
    std::uint64_t table_changes_remote = 0;  // from received update messages
    std::uint64_t exclusion_changes = 0;
    std::uint64_t neighbors_lost = 0;
    std::uint64_t neighbors_accepted = 0;
    /// Slow-to-Accept streaks that completed while the port's flap-damping
    /// penalty was still above the reuse threshold (re-accept suppressed).
    std::uint64_t accepts_suppressed = 0;
    /// Failure-update originations deferred into a pending batch by the
    /// per-port min-interval rate limit.
    std::uint64_t updates_batched = 0;
    /// Duplicate or self-cancelling entries absorbed while pending (e.g. an
    /// UNREACH and its CLEAR meeting in the queue before either was sent).
    std::uint64_t updates_deduped = 0;
    /// Joins refused because another port already roots the same ToR VID
    /// (duplicate rack subnet misconfiguration).
    std::uint64_t duplicate_roots_rejected = 0;
    // --- hot-path counters (harness::report hot-path table) ---
    /// Forwards served without building a candidate vector: downward picks
    /// through the VID table's per-root index plus uplink-cache hits.
    std::uint64_t allocs_avoided = 0;
    /// Uplink candidate-set cache hits / (re)builds.
    std::uint64_t up_cache_hits = 0;
    std::uint64_t up_cache_misses = 0;
    // --- weighted multipath / flowlet switching ---
    /// Existing flows that re-drew their weighted choice after an idle gap
    /// (or candidate loss) and landed on a different egress.
    std::uint64_t flowlet_reroutes = 0;
    /// Per-port weight recomputations (up-cache weight rebuilds).
    std::uint64_t wcmp_weight_updates = 0;

    bool operator==(const MtpStats&) const = default;
  };
  [[nodiscard]] const MtpStats& mtp_stats() const { return stats_; }

  /// Fired when an update message (withdraw/unreach/clear) is sent or
  /// received — the convergence-quiescence signal.
  std::function<void(sim::Time)> on_update_activity;
  /// Fired on forwarding-state changes; `from_update` distinguishes remote
  /// (blast-radius) updates from local detection.
  std::function<void(sim::Time, bool from_update)> on_table_change;
  /// Fired when a neighbor is declared down — the detection instant of the
  /// gray-failure latency metric. `local_detect` is true for this router's
  /// own dead timer / interface event (vs a received update).
  std::function<void(sim::Time, std::uint32_t port, bool local_detect)>
      on_neighbor_down;
  /// Fired when a neighbor passes Slow-to-Accept and is (re-)accepted.
  std::function<void(sim::Time, std::uint32_t port)> on_neighbor_up;

  /// Writes the uplinks currently eligible to carry traffic toward
  /// `dst_root` (alive, admin-up, not excluded) — the load-balancer
  /// candidate set — into `out`, in port order, and their WCMP weights into
  /// `weights` when given. Computed from live state: no counter moves and
  /// the data path's per-root cache is neither read nor refreshed, so the
  /// FabricAuditor can walk virtual probes through the same decision
  /// without changing what the data path later counts.
  void eligible_up_ports(std::uint16_t dst_root,
                         std::vector<std::uint32_t>& out,
                         std::vector<double>* weights = nullptr) const;

  /// Test-only hook (auditor unit tests): plants a VID-table entry without
  /// the join handshake — e.g. a stale entry pointing at a dead port.
  void debug_add_vid_entry(const Vid& vid, std::uint32_t port) {
    vid_table_.add(vid, port);
  }

 private:
  struct PortState {
    bool mtp = true;  // rack ports carry plain IP
    std::optional<std::uint8_t> neighbor_tier;
    bool alive = false;
    int streak = 0;
    sim::Time last_rx{};
    sim::Time last_tx{};
    std::unique_ptr<sim::Timer> hello_timer;
    std::unique_ptr<sim::Timer> dead_timer;
    std::unique_ptr<sim::Timer> join_retry_timer;
    /// Tree bases requested on this port, awaiting offers (we are upstream).
    std::set<Vid> join_pending;
    /// Child VIDs we assigned to the neighbor on this port -> their base.
    std::map<Vid, Vid> assigned;
    /// Roots an *upstream* neighbor listed in its last ADVERTISE — a full
    /// statement of the trees it holds. The uplink load balancer prefers
    /// uplinks that advertised the destination root, so a cold-rejoining
    /// neighbor draws no tree traffic until it has actually re-joined.
    std::set<std::uint16_t> advertised_roots;
    /// Highest ADVERTISE seq seen from this neighbor; older statements are
    /// duplicates the link re-delivered late and must not prune anything.
    /// Reset when the neighbor dies so a rebooted sender restarts cleanly.
    std::uint32_t last_adv_seq = 0;

    // --- flap damping (lazy exponential decay) ---
    double damp_penalty = 0;
    sim::Time damp_updated{};
    bool damp_suppressed = false;

    // --- withdrawal-storm containment ---
    sim::Time last_update_tx{};
    std::unique_ptr<sim::Timer> update_flush_timer;
    std::set<Vid> pending_withdraw;
    std::set<std::uint16_t> pending_unreach;
    std::set<std::uint16_t> pending_clear;
  };

  struct Outstanding {
    std::uint32_t port;
    MtpMessage msg;
    int retries = 0;
    std::unique_ptr<sim::Timer> timer;
  };

  // --- frame I/O ---
  /// Takes the message by value: move a DataMsg in to keep its payload slab
  /// unique so encapsulation prepends in place (see mtp::encode).
  void send_msg(std::uint32_t port, MtpMessage msg);
  void send_reliable(std::uint32_t port, MtpMessage msg);
  void handle_msg(net::Port& in, MtpMessage& msg);

  // --- liveness ---
  void note_rx(net::Port& in);
  void neighbor_up(std::uint32_t port);
  void neighbor_down(std::uint32_t port, bool local_detect);
  void send_hello_if_idle(std::uint32_t port);
  /// Applies the half-life decay to the port's damping penalty in place.
  void decay_damping(PortState& s);
  /// True when the upstream neighbor on `port` holds a child of every tree
  /// we can offer (steady state: plain hellos only).
  [[nodiscard]] bool fully_assigned(std::uint32_t port) const;

  // --- tree establishment ---
  void send_advertise(std::uint32_t port);
  void handle_advertise(std::uint32_t port, const AdvertiseMsg& msg);
  void handle_join_request(std::uint32_t port, const JoinRequestMsg& msg);
  void handle_join_offer(std::uint32_t port, const JoinOfferMsg& msg);
  void retry_joins(std::uint32_t port);
  [[nodiscard]] std::vector<Vid> advertisable_vids() const;

  // --- failure updates ---
  /// Origination points route through these instead of send_reliable so a
  /// burst of failures inside `update_min_interval` collapses into one
  /// message per port per type (withdrawal-storm containment).
  void queue_withdraw(std::uint32_t port, const std::vector<Vid>& vids);
  void queue_reach_update(std::uint32_t port,
                          const std::vector<std::uint16_t>& roots,
                          bool unreach);
  void schedule_flush(std::uint32_t port);
  void flush_updates(std::uint32_t port);
  void handle_withdraw(std::uint32_t port, const VidWithdrawMsg& msg);
  void handle_dest_unreach(std::uint32_t port, const DestUnreachMsg& msg);
  void handle_dest_clear(std::uint32_t port, const DestClearMsg& msg);
  /// Withdraws children derived from `lost` upward, then refreshes
  /// reachability advertisements for the affected roots.
  void process_vid_loss(const std::vector<VidEntry>& lost, bool from_update);
  [[nodiscard]] bool reachable(std::uint16_t root) const;
  void update_reachability(const std::set<std::uint16_t>& roots);

  // --- data plane ---
  void handle_rack_frame(net::Port& in, net::Frame frame);
  void forward_data(DataMsg msg, std::optional<std::uint32_t> in_port);
  void deliver_to_rack(DataMsg msg);
  [[nodiscard]] static std::uint64_t data_flow_hash(const DataMsg& msg);

  // --- helpers ---
  [[nodiscard]] bool is_upstream(std::uint32_t port) const;
  [[nodiscard]] bool is_downstream(std::uint32_t port) const;
  [[nodiscard]] std::vector<std::uint32_t> alive_ports(bool upstream) const;
  /// Configured egress capacity of `p` in Mb/s (1.0 when unwired).
  [[nodiscard]] double port_mbps(std::uint32_t p) const;
  /// Congestion feedback multiplier for WCMP+flowlet picks: 0.05 while the
  /// egress data band is PFC-paused, 0.25 while its backlog exceeds the ECN
  /// threshold, 1.0 otherwise.
  [[nodiscard]] double congestion_discount(std::uint32_t p) const;
  [[nodiscard]] std::int64_t flowlet_gap_ns() const;
  struct UpCacheSlot;
  /// The data path's view of eligible_up_ports: the validated (rebuilt if
  /// stale) cache slot for `dst_root`, ports and WCMP weights together.
  /// Counts a hit or a miss.
  [[nodiscard]] const UpCacheSlot& up_slot(std::uint16_t dst_root) const;
  /// Flowlet-aware egress choice: keeps the flow's current port while the
  /// idle gap stays open and `still_valid(port)` holds; otherwise re-draws
  /// via `redraw()` and counts a reroute when an existing flow moved.
  template <typename Contains, typename Redraw>
  std::uint32_t flowlet_select(std::uint64_t flow_hash, Contains&& still_valid,
                               Redraw&& redraw);
  PortState& pstate(std::uint32_t port) { return ports_state_[port - 1]; }
  [[nodiscard]] const PortState& pstate(std::uint32_t port) const {
    return ports_state_[port - 1];
  }
  void note_update_stats(const net::Frame& frame);

  /// Invalidates every cached uplink candidate set; called whenever anything
  /// that feeds eligibility (liveness, admin state, neighbor tier,
  /// exclusions) changes. O(1): slots validate themselves lazily against the
  /// bumped epoch, and their vectors keep their capacity across rebuilds —
  /// convergence churn no longer frees and reallocates every candidate set.
  void invalidate_up_cache() { ++up_cache_epoch_; }

  MtpConfig config_;
  std::uint16_t own_vid_ = 0;
  /// False until start() and after stop(): interface events and frames that
  /// arrive while powered off (e.g. a deferred PoD being wired dark) must
  /// not touch per-port state that does not exist yet.
  bool started_ = false;
  bool draining_ = false;
  VidTable vid_table_;
  ExclusionTable exclusions_;
  /// Roots we have told downstream neighbors we cannot reach.
  std::set<std::uint16_t> advertised_unreach_;
  std::vector<PortState> ports_state_;
  std::unordered_map<std::uint16_t, Outstanding> outstanding_;
  std::uint16_t next_msg_id_ = 1;
  /// Statement counter stamped into every ADVERTISE (shared across ports;
  /// still strictly increasing per port, which is all receivers need).
  std::uint32_t adv_seq_ = 0;
  /// Eligible-uplink sets as a dense epoch-validated slab indexed by
  /// destination root (lazy, see eligible_up_ports); mutable because
  /// lookups are logically const. A slot is valid iff its epoch matches
  /// up_cache_epoch_, so invalidation is one counter bump and a lookup is
  /// one indexed load — no hash, no rehash churn, no allocation on the
  /// steady-state path (roots are ToR VIDs: small, dense integers).
  struct UpCacheSlot {
    std::uint64_t epoch = 0;  // valid iff == up_cache_epoch_ (0 = never)
    std::vector<std::uint32_t> ports;
    /// WCMP weights parallel to `ports` (advertised downstream capacity:
    /// link Mb/s x trees the neighbor advertises). Rebuilt with the ports on
    /// every epoch miss; left empty under kHrw so the default mode pays
    /// nothing.
    std::vector<double> weights;
  };
  mutable std::vector<UpCacheSlot> up_cache_;
  mutable std::uint64_t up_cache_epoch_ = 1;
  mutable MtpStats stats_;
  /// Flowlet table in the context's StatsArena; non-null only under
  /// kWcmpFlowlet.
  net::FlowletTable* flowlets_ = nullptr;
};

}  // namespace mrmtp::mtp
