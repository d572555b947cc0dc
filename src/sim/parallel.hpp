// Sharded conservative parallel discrete-event engine (PDES).
//
// The folded-Clos fabric partitions naturally by PoD: every frame that
// crosses a shard boundary rides a link with a known minimum propagation
// delay, so a shard can safely execute every event strictly earlier than the
// earliest possible future arrival. The engine runs one sim::Scheduler per
// shard on its own thread, and unlike a classic YAWNS barrier-window loop it
// synchronizes *asynchronously*:
//
//   * Each shard publishes its earliest pending event time m_i in an atomic
//     slot, and the bus tracks a per-destination inbox minimum for events
//     posted but not yet drained. Together (under one sync mutex) they cover
//     every pending event in the system at every instant: an event is in
//     some scheduler (>= that shard's published minimum) or in some mailbox
//     (>= that destination's inbox minimum). Without the inbox term a poster
//     could publish a new, higher minimum while its post still sits
//     undrained — invisible to every horizon — and a downstream shard would
//     raise its floor above an arrival that still chains through it.
//   * The per-directed-pair lookahead matrix la(i,j) — minimum delay over
//     the actual inter-shard links, not the global minimum over all links —
//     is closed transitively (Floyd-Warshall, diagonal included) at engine
//     construction. The closure makes m_i + la*(i,j) a true lower bound on
//     any arrival into j caused by shard i's pending work, even through
//     multi-hop chains i -> k -> j and round trips j -> k -> j.
//   * A shard's execution horizon is W_j = min_i (m_i + la*(i,j)). It
//     executes events strictly below W_j without any rendezvous, re-reading
//     the published minima and extending the horizon as neighbors advance.
//     Barriers exist ONLY for termination detection: when a shard believes
//     every published minimum has cleared the deadline, it parks; once all
//     shards park, one collective drain confirms no sub-deadline arrival is
//     still in flight (or loops back if one is), then everyone finishes
//     inclusively. A chaos run that took ~21k barrier windows under the
//     global-lookahead engine needs a handful of detection rounds here.
//
// Frame deliveries that truly cross shards travel through bounded SPSC
// mailboxes, one per directed shard pair; same-shard deliveries go straight
// into the destination scheduler (see net::Link::schedule_delivery). A post
// below the destination's published horizon would be a causality violation;
// the bus throws instead of corrupting the run.
//
// Determinism. Same-instant arrivals at one router are a real tie: whichever
// runs first can change an ECMP choice or a dead declaration. A sharded run
// therefore makes the tie-break a pure function of the blueprint, never of
// thread timing, sharding, or drain boundaries:
//
//   * Every link delivery is scheduled with Scheduler::schedule_at_ordered
//     under a key derived from stable identity + send order
//     ((node id << 48) | (port << 32) | tx sequence). The scheduler pops
//     (time, key, local insertion) — so the execution order at one router is
//     a pure function of arrival times and keys. WHEN a mailbox is drained
//     stops mattering: drains only affect local insertion order, which only
//     breaks ties between events with equal (time, key), and distinct
//     senders/ports/frames always carry distinct keys. This is what frees
//     the engine from lock-step windows entirely.
//   * Every random decision draws from a per-entity stream seeded at
//     construction (each net::Link direction, BGP peer and BFD session), so
//     each draw depends only on that entity's own event order.
//   * A single-shard engine is plain Scheduler::run_until — by the argument
//     above it produces the same per-router event sequences as any N-shard
//     partitioning of the same blueprint. A SimContext driven directly,
//     with no ShardBus wired, keys its deliveries the same way and is
//     therefore bit-identical to a one-shard engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mrmtp::sim {

/// One event in flight between shards.
struct CrossEvent {
  Time at;
  /// Sharding-invariant tie-break for same-instant arrivals: posters derive
  /// it from stable identity + send order (links use
  /// (node id << 48) | (port << 32) | tx sequence).
  std::uint64_t order = 0;
  std::uint64_t seq = 0;  // per-channel arrival order, the final fallback
  std::function<void()> fn;
};

/// Mailboxes for every directed shard pair. post() is called by the source
/// shard's thread mid-execution; drain() by the destination's thread. Each
/// channel is single-producer / single-consumer with a mutex guarding the
/// post/drain edge.
class ShardBus {
 public:
  /// Hard per-channel bound; a fabric horizon can never legitimately buffer
  /// this many frames, so hitting it means a runaway loop, not load.
  static constexpr std::size_t kChannelCap = 1u << 20;

  explicit ShardBus(std::uint32_t shards);

  /// Queues `fn` to run on shard `dst` at simulated time `at`. Throws if
  /// `at` precedes `dst`'s published safe horizon (lookahead violation) or
  /// the channel overflows. `order` breaks same-instant ties and must be
  /// derived from sharding-invariant identity (see CrossEvent).
  void post(std::uint32_t src, std::uint32_t dst, Time at,
            std::uint64_t order, std::function<void()> fn);

  /// Moves every pending event bound for `dst` into its scheduler via
  /// schedule_at_ordered. Returns the number of events delivered.
  std::size_t drain(std::uint32_t dst, Scheduler& into);

  /// Serializes posts, drains, and horizon reads: every transfer of an
  /// event's "cover" (inbox minimum <-> published scheduler minimum) must be
  /// atomic with the event's movement, or a concurrently computed horizon
  /// can miss the event entirely.
  [[nodiscard]] std::mutex& sync_mu() { return sync_mu_; }
  /// drain() body; caller holds sync_mu() (the engine pairs it with the
  /// destination's published-minimum update in one critical section).
  std::size_t drain_locked(std::uint32_t dst, Scheduler& into);
  /// Earliest posted-but-undrained arrival for `dst` in ns (kNoneNs when
  /// empty); caller holds sync_mu().
  [[nodiscard]] std::int64_t inbox_min_ns(std::uint32_t dst) const {
    return inbox_min_ns_[dst];
  }
  static constexpr std::int64_t kNoneNs = INT64_MAX;

  /// Earliest pending arrival bound for `dst`.
  [[nodiscard]] std::optional<Time> pending_min(std::uint32_t dst);

  [[nodiscard]] std::uint64_t posted() const {
    return posted_.load(std::memory_order_relaxed);
  }
  /// Posts whose source and destination shard differ. Since same-shard
  /// deliveries bypass the bus entirely, this equals posted() in sharded
  /// runs; both are kept so the bench can verify that.
  [[nodiscard]] std::uint64_t cross_posted() const {
    return cross_posted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t channel_high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t shards() const { return shards_; }

  /// The lower bound below which a post into `dst` is a causality
  /// violation; the engine advances it to each shard's horizon before that
  /// shard executes.
  void set_safe_floor(std::uint32_t dst, Time at) {
    floors_[dst].store(at.ns(), std::memory_order_release);
  }
  /// Sets every destination's floor at once (run boundaries, tests).
  void set_safe_floor(Time at) {
    for (std::uint32_t d = 0; d < shards_; ++d) set_safe_floor(d, at);
  }

 private:
  struct Channel {
    std::mutex mu;
    std::uint64_t next_seq = 0;
    std::vector<CrossEvent> q;
  };

  Channel& channel(std::uint32_t src, std::uint32_t dst) {
    return channels_[src * shards_ + dst];
  }

  std::uint32_t shards_;
  std::vector<Channel> channels_;
  std::mutex sync_mu_;
  /// Per destination: min arrival time over all posted-but-undrained events
  /// (kNoneNs when every inbound channel is empty). Guarded by sync_mu_.
  std::vector<std::int64_t> inbox_min_ns_;
  std::unique_ptr<std::atomic<std::int64_t>[]> floors_;  // per destination
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> cross_posted_{0};
  std::atomic<std::size_t> high_water_{0};
};

/// Orchestrates N shard schedulers. Construct once per simulation; callers
/// may invoke run_until repeatedly with increasing deadlines (the harness
/// pauses at the failure instant to snapshot fabric-wide state without
/// racing the shard threads).
class ShardedEngine {
 public:
  struct Options {
    /// Uniform fallback: minimum propagation delay over every inter-shard
    /// link, used for every directed pair when `pair_lookahead` is empty.
    Duration lookahead = Duration::micros(5);
    /// Per-directed-pair minimum link delay, row-major [src * n + dst].
    /// Entries <= 0 mean "no direct links src -> dst" (no constraint; the
    /// engine closes the matrix transitively so multi-hop paths still
    /// bound arrivals). The sharded Deployment computes this from the wired
    /// topology instead of trusting a default.
    std::vector<Duration> pair_lookahead;
  };

  /// Merged synchronization counters (stable after run_until returns).
  struct Stats {
    /// Termination-detection barrier rounds — the only collective
    /// rendezvous the engine performs (the old engine's sync_windows).
    std::uint64_t windows = 0;
    /// Horizon segments executed without any rendezvous: each one would
    /// have cost at least one global barrier window under the old engine.
    std::uint64_t coalesced_windows = 0;
    std::uint64_t horizon_stalls = 0;  // waits for a neighbor to advance
    std::uint64_t cross_events = 0;    // posts that crossed shard threads
    std::uint64_t mailbox_high_water = 0;
  };

  ShardedEngine(std::vector<Scheduler*> shards, Options options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] ShardBus& bus() { return bus_; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Transitively-closed lookahead for a directed pair; nullopt when no
  /// path of links connects src to dst. Exposed for the bench artifacts.
  [[nodiscard]] std::optional<Duration> pair_lookahead(
      std::uint32_t src, std::uint32_t dst) const;

  /// Runs every shard until `deadline` (inclusive, like Scheduler::run_until)
  /// and advances all shard clocks to it. Spawns one thread per shard for
  /// the duration of the call; a single-shard engine runs inline on the
  /// calling thread.
  void run_until(Time deadline);

 private:
  struct DetectStep;  // barrier completion; defined in parallel.cpp
  struct SyncState;   // per-run barrier pair; defined in parallel.cpp

  static constexpr std::int64_t kNoneNs = INT64_MAX;

  /// min_i (published m_i + la*(i, dst)); kNoneNs when unconstrained.
  [[nodiscard]] std::int64_t horizon_ns(std::uint32_t dst) const;
  void publish_min(std::uint32_t s);
  void shard_loop(std::uint32_t s, Time deadline, SyncState& sync);
  void run_single(Time deadline);

  std::vector<Scheduler*> shards_;
  Options options_;
  ShardBus bus_;
  Stats stats_;

  /// Closed lookahead matrix in ns, row-major [src * n + dst]; kNoneNs for
  /// unreachable pairs. The diagonal holds the minimum round-trip through
  /// other shards — the binding constraint for a shard running alone.
  std::vector<std::int64_t> closure_ns_;

  /// Published per-shard earliest pending event time (kNoneNs = none).
  /// Written only by the owning shard's thread. Horizons computed from
  /// these are true lower bounds on future arrivals via the closure's
  /// triangle inequality (see horizon_ns in parallel.cpp).
  std::unique_ptr<std::atomic<std::int64_t>[]> min_ns_;
  /// Bumped whenever any shard publishes or posts; blocked shards wait on
  /// it instead of spinning on all N minima.
  std::atomic<std::uint64_t> epoch_{0};
  /// Set during termination detection when a shard still holds (or just
  /// drained) sub-deadline work.
  std::atomic<bool> dirty_{false};
  std::atomic<bool> finished_{false};

  // Per-shard counter slots, single writer each, merged after join.
  std::vector<std::uint64_t> shard_stalls_;
  std::vector<std::uint64_t> shard_segments_;
};

}  // namespace mrmtp::sim
