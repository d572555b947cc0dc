// FabricAuditor: an always-on invariant checker for deployed fabrics.
//
// Periodically sweeps every router and verifies that the forwarding state is
// internally consistent and that packets could actually get where routing
// claims they can — without injecting any traffic. Invariants:
//
//   * Every MTP VID-table entry points at a connected, admin-up port whose
//     neighbor is currently accepted (no stale entries).
//   * Every BGP best-path next-hop egresses a connected, admin-up port.
//   * Virtual probes walked from every leaf toward every destination
//     (following the exact VID-table / exclusion / ECMP decisions the data
//     plane would make, branching over every load-balancer candidate) never
//     loop and never die while the destination is still physically reachable
//     from the stuck hop. A probe that dies because gray impairments or
//     admin-downs genuinely severed every path is NOT a violation — routing
//     cannot beat physics — but exclusion tables that blackhole a
//     destination with a live path are.
//
// Violations are timestamped and accumulated; the chaos tests assert the log
// stays empty across campaigns once each re-convergence window has passed.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/deploy.hpp"

namespace mrmtp::harness {

enum class InvariantKind : std::uint8_t {
  kStaleVidEntry,        // VID entry points at a down/dead/unwired port
  kStaleNextHop,         // BGP next-hop egresses a down/unwired port
  kForwardingLoop,       // probe revisited a (device, direction) state
  kForwardingBlackhole,  // probe died though a live path still exists
  kExclusionBlackhole,   // ...because exclusions ruled out live uplinks
  kFalseDeadNeighbor,    // neighbor declared dead on an unimpaired up link
  kPfcDeadlock,          // cycle in the PFC pause-wait graph
  kPauseStorm,           // a link direction spent >90% of the sweep paused
  kControlStarved,       // control-band drops on a finite-buffer switch
};

[[nodiscard]] std::string_view to_string(InvariantKind kind);

struct Violation {
  sim::Time at;
  std::string device;  // where the invariant broke (probe: the stuck hop)
  InvariantKind kind;
  std::string detail;

  [[nodiscard]] std::string str() const;
};

class FabricAuditor {
 public:
  explicit FabricAuditor(Deployment& dep);

  /// Runs one full sweep now; returns the number of violations found (also
  /// appended to the persistent log).
  std::size_t sweep();

  /// Arms a periodic sweep every `period` until stop().
  void start(sim::Duration period);
  void stop();

  /// Opt-in: chains onto every router's neighbor-down / session-down
  /// callback (preserving whatever was installed before) and scores each
  /// locally detected dead declaration against the physical link at that
  /// instant. A declaration while the link is wired, both ends are admin-up,
  /// and neither direction is impaired is a *false dead* — the smoking gun
  /// of a congestion-induced control-plane cascade — and is logged as
  /// kFalseDeadNeighbor. Also tracks cascade depth: consecutive dead
  /// declarations on adjacent routers within `cascade_window` chain into a
  /// cascade, and the longest chain is reported.
  void watch_liveness(sim::Duration cascade_window = sim::Duration::millis(500));

  /// Dead declarations scored since watch_liveness() (local detections).
  [[nodiscard]] std::uint64_t down_declarations() const { return downs_; }
  /// ...of which the link was demonstrably unimpaired at that instant.
  [[nodiscard]] std::uint64_t false_dead_count() const { return false_dead_; }
  /// Longest chain of adjacent-router dead declarations (0 = none at all,
  /// 1 = isolated declarations only, >1 = a spreading cascade).
  [[nodiscard]] int max_cascade_depth() const { return max_cascade_depth_; }

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return log_;
  }

  /// Declares [from, until] a reconvergence window: a lifecycle phase
  /// (drain/reboot/rejoin, pod power-on) is allowed to trip invariants while
  /// the fabric re-converges. violations_outside_windows() is the hard
  /// assertion — planned maintenance must never leak violations past its
  /// declared window.
  void declare_window(sim::Time from, sim::Time until) {
    windows_.emplace_back(from, until);
  }
  [[nodiscard]] const std::vector<std::pair<sim::Time, sim::Time>>& windows()
      const {
    return windows_;
  }
  [[nodiscard]] std::vector<Violation> violations_outside_windows() const;
  /// PFC pause-wait cycles detected across all sweeps (each sweep counts a
  /// cycle once). The bench gate asserts this stays zero.
  [[nodiscard]] std::uint64_t pfc_deadlocks() const { return pfc_deadlocks_; }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  [[nodiscard]] std::size_t last_sweep_violations() const { return last_; }
  [[nodiscard]] std::uint64_t sweeps_with_violations() const {
    return dirty_sweeps_;
  }
  void clear_log() { log_.clear(); }

 private:
  struct ProbeBranch {
    std::uint32_t device;
    bool came_down;  // MTP: arrived via a downward hop (no re-ascent)
  };

  void audit_mtp(std::vector<Violation>& out);
  void audit_bgp(std::vector<Violation>& out);
  /// Finite-buffer invariants, proto-independent: PFC pause-wait deadlock
  /// cycles, pause storms (a direction paused >90% of the sweep interval),
  /// and control-band starvation (control drops on a buffered switch — the
  /// graceful-degradation guarantee says the control band stays live even at
  /// 100% data occupancy). No-op on fabrics without switch buffers.
  void audit_buffers(std::vector<Violation>& out);

  /// A leaf worth probing from/to: powered, and not deliberately costed out
  /// (a draining ToR has withdrawn its own prefix/root — probes toward it
  /// dying is policy, not a fabric fault).
  [[nodiscard]] bool leaf_probeable(std::uint32_t leaf) const;

  void walk_mtp(std::uint32_t device, std::uint16_t dst_root,
                std::uint32_t dst_leaf, bool came_down,
                std::set<std::pair<std::uint32_t, bool>>& on_path, int depth,
                std::vector<Violation>& out);
  void walk_bgp(std::uint32_t device, ip::Ipv4Addr dst,
                std::uint32_t dst_leaf, std::set<std::uint32_t>& on_path,
                int depth, std::vector<Violation>& out);

  /// Directed physical reachability between routers over admin-up ports and
  /// per-direction-deliverable links (the "live path" oracle).
  [[nodiscard]] bool physically_reachable(std::uint32_t from,
                                          std::uint32_t to) const;

  /// Router index on the far side of `device`'s port `p`, or nullopt for
  /// hosts / unwired ports.
  [[nodiscard]] std::optional<std::uint32_t> peer_router(std::uint32_t device,
                                                         std::uint32_t p) const;
  /// True if a frame leaving `device` via `p` reaches the peer port (both
  /// ends admin-up, link deliverable in that direction).
  [[nodiscard]] bool hop_usable(std::uint32_t device, std::uint32_t p) const;

  void flag(std::vector<Violation>& out, std::uint32_t device,
            InvariantKind kind, std::string detail);
  void flag_dead_end(std::vector<Violation>& out, std::uint32_t device,
                     std::uint32_t dst_leaf, InvariantKind kind,
                     std::string detail);

  /// True if `device`'s port `p` is wired, both ends admin-up, and the link
  /// is loss- and blackhole-free in both directions right now.
  [[nodiscard]] bool link_unimpaired(std::uint32_t device,
                                     std::uint32_t p) const;
  /// Scores one locally detected dead declaration (port 0 = unresolvable).
  void note_down_declaration(std::uint32_t device, std::uint32_t port,
                             sim::Time at);

  Deployment& dep_;
  /// node pointer -> router (device) index, built once at construction.
  std::map<const net::Node*, std::uint32_t> router_index_;
  /// ToR root VID -> leaf device index.
  std::map<std::uint16_t, std::uint32_t> leaf_of_root_;
  std::vector<Violation> log_;
  /// Declared reconvergence windows (lifecycle phases).
  std::vector<std::pair<sim::Time, sim::Time>> windows_;
  /// Dedup within the current sweep (many probes hit the same bad hop).
  std::set<std::string> seen_this_sweep_;
  std::unique_ptr<sim::Timer> timer_;
  std::uint64_t sweeps_ = 0;
  std::uint64_t dirty_sweeps_ = 0;
  std::size_t last_ = 0;
  std::uint64_t pfc_deadlocks_ = 0;

  // --- buffer-audit snapshots (deltas scored sweep-over-sweep; the first
  // sweep scores against time zero and all-zero counters) ---
  sim::Time last_buffer_sweep_{};
  /// Per link, per direction: pause_ns_total and dropped_queue_control at
  /// the previous sweep.
  std::map<const net::Link*, std::array<std::uint64_t, 2>> pause_snap_;
  std::map<const net::Link*, std::array<std::uint64_t, 2>> ctrl_drop_snap_;

  // --- liveness watcher state (watch_liveness) ---
  struct DownEvent {
    sim::Time at;
    std::uint32_t device;
    int depth;  // 1 + deepest adjacent declaration inside the window
  };
  bool watching_ = false;
  sim::Duration cascade_window_{};
  /// Unordered adjacent router pairs (lo, hi) from the blueprint wiring.
  std::set<std::pair<std::uint32_t, std::uint32_t>> adjacent_;
  std::vector<DownEvent> down_events_;
  std::uint64_t downs_ = 0;
  std::uint64_t false_dead_ = 0;
  int max_cascade_depth_ = 0;
};

/// Pause-and-sweep auditing of an engine run: run_until() stops the engine
/// at every tick start + k * period (k >= 1, tick <= end) on the way to its
/// target and sweeps the fabric there. A sweep reads cross-shard state,
/// which is legal only while the engine is stopped, so this is how a run is
/// audited at every shard count. A null auditor or a zero period never
/// pauses.
class AuditedEngine {
 public:
  AuditedEngine(sim::ShardedEngine& engine, FabricAuditor* auditor,
                sim::Time start, sim::Duration period, sim::Time end)
      : engine_(engine),
        auditor_(period > sim::Duration{} ? auditor : nullptr),
        period_(period),
        next_(start + period),
        end_(end) {}

  /// Runs the engine through `target` inclusive, sweeping at every tick due
  /// on the way.
  void run_until(sim::Time target) {
    while (auditor_ != nullptr && next_ <= end_ && next_ <= target) {
      engine_.run_until(next_);
      auditor_->sweep();
      next_ = next_ + period_;
    }
    engine_.run_until(target);
  }

 private:
  sim::ShardedEngine& engine_;
  FabricAuditor* auditor_;
  sim::Duration period_;
  sim::Time next_;
  sim::Time end_;
};

}  // namespace mrmtp::harness
