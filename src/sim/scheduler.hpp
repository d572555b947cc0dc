// Discrete-event scheduler.
//
// A calendar queue (bucket-rotating day array with an overflow ladder) orders
// events by (time, order key, insertion sequence); plain events carry the
// maximal order key, so same-instant plain events fire in insertion order and
// every run stays bit-reproducible. Keyed events (schedule_at_ordered) break
// same-instant ties by a key the caller derives from stable identity (links
// use sender node, port and send sequence) instead of by insertion order.
//
// Layout. Callback state lives in a slab of Slots (freelist-recycled, with a
// generation counter so EventIds stay O(1) to validate); the day array and
// overflow hold lightweight Entry hints:
//   * schedule/pop are O(1) amortized: an event lands in the day bucket
//     `(at >> width_shift) & (buckets - 1)`; pop scans forward from the
//     current virtual day, and bucket width tracks the mean event spacing so
//     a bucket holds O(1) live entries.
//   * Events beyond the day horizon wait in the unsorted overflow ladder;
//     when a forward scan laps the whole day array without a hit the queue
//     re-seeds (one O(pending) rebuild) around the new earliest deadline.
//   * The slab is authoritative for deadlines; entries are hints:
//     cancellation is O(1) (free the slot, the entry dies lazily) and moving
//     a deadline *later* — the keep-alive/dead-timer reset that fires on
//     every data frame — touches only the slot. Moving a deadline *earlier*
//     plants one new entry.
//   * Bounded memory: stale entries are compacted away whenever they
//     outgrow the live events 4:1, so queue_size() stays within
//     max(64, 4 x pending()) no matter how hot the cancel/reschedule churn,
//     and the day array is resized to O(pending) buckets at every rebuild.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace mrmtp::sim {

/// Handle for a scheduled event; valid until the event fires or is cancelled.
/// Encodes (slot generation << 32 | slot index + 1) into the slab.
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Order key given to plain schedule_at events: keyed events at the same
  /// instant always fire first, then plain events in insertion order.
  static constexpr std::uint64_t kUnordered = UINT64_MAX;

  Scheduler();

  /// Current simulation time (time of the most recently fired event).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at`. `at` must be >= now().
  EventId schedule_at(Time at, Callback fn) {
    return schedule_at_ordered(at, kUnordered, std::move(fn));
  }

  /// Schedules `fn` at `at` with an explicit same-instant tie-break key.
  /// Pop order is (time, order, insertion sequence); net::Link derives
  /// `order` from blueprint identity (sender node, port, send sequence).
  EventId schedule_at_ordered(Time at, std::uint64_t order, Callback fn);

  /// Schedules `fn` after `delay` from now. Negative delays clamp to zero.
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Moves a pending event's deadline to `at` (clamped to now()); returns
  /// false if the event already fired or was cancelled. O(1) when the
  /// deadline moves later — the per-frame keep-alive reset path.
  bool reschedule(EventId id, Time at);

  /// Fires the next event; returns false when the queue is empty.
  bool step();

  /// Runs events with time <= deadline, then advances the clock to deadline.
  void run_until(Time deadline);

  /// Runs until the event queue drains (or `max_events` fires, as a runaway
  /// guard; returns false if the guard tripped).
  bool run(std::uint64_t max_events = UINT64_MAX);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Live (uncancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Queue entries across the day array and overflow ladder, including stale
  /// hints awaiting lazy discard/compaction; bounded by max(64, 4 x
  /// pending()) after every public call.
  [[nodiscard]] std::size_t queue_size() const { return entries_; }
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  [[nodiscard]] std::uint64_t reschedules() const { return reschedules_; }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  /// Slab cell: authoritative deadline + callback for one scheduled event.
  /// `gen` advances on every free, invalidating outstanding EventIds and
  /// entry hints in O(1).
  struct Slot {
    Time at;
    std::uint64_t order = kUnordered;
    std::uint64_t fifo = 0;  // insertion sequence, preserved across reschedule
    Callback fn;
    std::uint32_t gen = 1;
    bool live = false;
  };

  /// Queue hint: a (deadline, tie-break) snapshot pointing into the slab.
  /// Stale once the slot was freed or its deadline moved.
  struct Entry {
    std::int64_t at_ns;
    std::uint64_t order;
    std::uint64_t fifo;
    std::uint32_t slot;
    std::uint32_t gen;
    /// Min-queue ordering: (time, order key, insertion sequence).
    [[nodiscard]] bool after(const Entry& o) const {
      if (at_ns != o.at_ns) return at_ns > o.at_ns;
      if (order != o.order) return order > o.order;
      return fifo > o.fifo;
    }
  };

  [[nodiscard]] std::int64_t vday(std::int64_t at_ns) const {
    return at_ns >> width_shift_;
  }
  [[nodiscard]] Slot* slot_of(EventId id);
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  /// Places a hint, winding the scan cursor back for in-day early inserts.
  void insert_entry(Entry e);
  /// Earliest valid entry: (bucket index, position is always the bucket
  /// top). Chases stale hints; returns false when nothing is pending.
  bool peek(Entry& out);
  /// Pops the current bucket top (must be the entry peek returned).
  void pop_top(const Entry& e);
  /// Rebuilds day array + overflow from the live slots, re-sizing the bucket
  /// count and width to the current load (one entry per live event).
  void compact();
  /// Compacts when stale entries dominate (entries > max(64, 4 x pending)).
  void maybe_compact();

  Time now_ = Time::zero();
  std::uint64_t next_fifo_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t reschedules_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_high_water_ = 0;

  // Slab.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;

  // Calendar: buckets_[v & mask] holds entries of virtual day v as a small
  // binary min-heap; entries at or beyond day_end_vday_ wait in overflow_.
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;
  std::size_t entries_ = 0;  // day + overflow, stale included
  int width_shift_ = 12;     // bucket width = 2^shift ns (4.096 us default)
  std::uint64_t mask_ = 0;   // bucket count - 1 (power of two)
  std::int64_t cur_vday_ = 0;      // forward-scan cursor
  std::int64_t day_end_vday_ = 0;  // first vday routed to overflow
};

/// Restartable timer built on Scheduler; the workhorse behind every
/// keep-alive, dead, hold, MRAI, and retransmission timer in the protocols.
/// Re-arming an already-running timer reuses the scheduled event via
/// Scheduler::reschedule, so per-frame resets do not churn the queue.
class Timer {
 public:
  Timer(Scheduler& sched, Scheduler::Callback on_fire)
      : sched_(sched), on_fire_(std::move(on_fire)) {}
  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms (or re-arms) as a one-shot firing after `d`.
  void start(Duration d) {
    periodic_ = false;
    interval_ = d;
    rearm();
  }

  /// Arms as a periodic timer with period `d`; fires repeatedly until stop().
  void start_periodic(Duration d) {
    periodic_ = true;
    interval_ = d;
    rearm();
  }

  /// Re-arms with the last interval (e.g. dead timer reset on keep-alive).
  void restart() { rearm(); }

  void stop() {
    if (id_.valid()) {
      sched_.cancel(id_);
      id_ = {};
    }
  }

  [[nodiscard]] bool running() const { return id_.valid(); }
  [[nodiscard]] Duration interval() const { return interval_; }

 private:
  void rearm() {
    Duration d = interval_ < Duration{} ? Duration{} : interval_;
    if (id_.valid() && sched_.reschedule(id_, sched_.now() + d)) return;
    id_ = {};
    arm();
  }

  void arm() {
    id_ = sched_.schedule_after(interval_, [this] {
      id_ = {};
      if (periodic_) arm();
      on_fire_();
    });
  }

  Scheduler& sched_;
  Scheduler::Callback on_fire_;
  EventId id_{};
  Duration interval_{};
  bool periodic_ = false;
};

}  // namespace mrmtp::sim
