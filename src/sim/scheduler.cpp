#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace mrmtp::sim {

namespace {
/// Below this entry count compaction is never worth the rebuild.
constexpr std::size_t kCompactFloor = 64;
/// Compact once stale entries outnumber live events this many times over.
constexpr std::size_t kCompactRatio = 4;
/// Day-array size limits (powers of two). The lower bound keeps tiny queues
/// cheap to rebuild; the upper bound caps the array at ~1 MiB of headers.
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 17;
/// Grow the day array once live events pack this many per bucket on average.
constexpr std::size_t kGrowPerBucket = 8;
/// Bucket width = 2^shift ns, clamped to [1 ns, ~1 s].
constexpr int kMaxWidthShift = 30;

struct EntryAfter {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.after(b);
  }
};
}  // namespace

Scheduler::Scheduler() {
  buckets_.assign(kMinBuckets, {});
  mask_ = kMinBuckets - 1;
  cur_vday_ = 0;
  day_end_vday_ = static_cast<std::int64_t>(kMinBuckets);
}

Scheduler::Slot* Scheduler::slot_of(EventId id) {
  if (!id.valid()) return nullptr;
  std::uint32_t idx = static_cast<std::uint32_t>(id.seq & 0xffffffffu) - 1;
  if (idx >= slots_.size()) return nullptr;
  Slot& s = slots_[idx];
  if (!s.live || s.gen != static_cast<std::uint32_t>(id.seq >> 32)) {
    return nullptr;
  }
  return &s;
}

std::uint32_t Scheduler::alloc_slot() {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  return idx;
}

void Scheduler::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.live = false;
  s.fn = nullptr;
  ++s.gen;  // invalidates outstanding EventIds and entry hints
  free_.push_back(idx);
  --live_;
}

void Scheduler::insert_entry(Entry e) {
  std::int64_t v = vday(e.at_ns);
  if (v >= day_end_vday_) {
    overflow_.push_back(e);
  } else {
    if (v < cur_vday_) cur_vday_ = v;  // wind the scan cursor back
    auto& bucket = buckets_[static_cast<std::size_t>(v) & mask_];
    bucket.push_back(e);
    std::push_heap(bucket.begin(), bucket.end(), EntryAfter{});
  }
  ++entries_;
  queue_high_water_ = std::max(queue_high_water_, entries_);
}

void Scheduler::compact() {
  ++compactions_;
  for (auto& b : buckets_) b.clear();
  overflow_.clear();
  entries_ = 0;

  if (live_ == 0) {
    if (buckets_.size() != kMinBuckets) buckets_.assign(kMinBuckets, {});
    mask_ = buckets_.size() - 1;
    width_shift_ = 12;
    cur_vday_ = vday(now_.ns());
    day_end_vday_ = cur_vday_ + static_cast<std::int64_t>(buckets_.size());
    return;
  }

  std::int64_t min_ns = INT64_MAX;
  std::int64_t max_ns = INT64_MIN;
  std::size_t live_seen = 0;
  for (const Slot& s : slots_) {
    if (!s.live) continue;
    ++live_seen;
    min_ns = std::min(min_ns, s.at.ns());
    max_ns = std::max(max_ns, s.at.ns());
  }
  (void)live_seen;

  // One live event per bucket on average, within the size limits; bucket
  // width tracks the mean spacing so the day window covers the whole spread
  // when it fits, and the overflow ladder takes the far tail when not.
  std::size_t nb = kMinBuckets;
  while (nb < live_ && nb < kMaxBuckets) nb <<= 1;
  std::int64_t spacing =
      (max_ns - min_ns) / static_cast<std::int64_t>(live_) + 1;
  width_shift_ = 0;
  while ((std::int64_t{1} << width_shift_) < spacing &&
         width_shift_ < kMaxWidthShift) {
    ++width_shift_;
  }
  if (buckets_.size() != nb) buckets_.assign(nb, {});
  mask_ = nb - 1;
  cur_vday_ = vday(min_ns);
  day_end_vday_ = cur_vday_ + static_cast<std::int64_t>(nb);

  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    const Slot& s = slots_[idx];
    if (!s.live) continue;
    insert_entry(Entry{s.at.ns(), s.order, s.fifo, idx, s.gen});
  }
}

void Scheduler::maybe_compact() {
  if (entries_ < kCompactFloor || entries_ <= kCompactRatio * live_) return;
  compact();
}

EventId Scheduler::schedule_at_ordered(Time at, std::uint64_t order,
                                       Callback fn) {
  if (at < now_) {
    throw std::logic_error("Scheduler: schedule_at in the past (at=" +
                           at.str() + " now=" + now_.str() + ")");
  }
  std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.at = at;
  s.order = order;
  s.fifo = next_fifo_++;
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  insert_entry(Entry{at.ns(), s.order, s.fifo, idx, s.gen});
  // Keep buckets at O(1) occupancy as the queue grows; the rebuild re-sizes
  // the day array (amortized O(1) per insert across each doubling).
  if (live_ > buckets_.size() * kGrowPerBucket && buckets_.size() < kMaxBuckets) {
    compact();
  }
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | (idx + 1)};
}

EventId Scheduler::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration{}) delay = Duration{};
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::cancel(EventId id) {
  Slot* s = slot_of(id);
  if (s == nullptr) return;
  free_slot(static_cast<std::uint32_t>((id.seq & 0xffffffffu) - 1));
  maybe_compact();
}

bool Scheduler::reschedule(EventId id, Time at) {
  Slot* s = slot_of(id);
  if (s == nullptr) return false;
  if (at < now_) at = now_;
  ++reschedules_;
  bool earlier = at < s->at;
  s->at = at;
  if (earlier) {
    // Moving earlier: the existing entry would pop too late, so plant a new
    // hint at the new deadline (the old one dies lazily). If that extra
    // entry would breach the compaction bound, rebuild instead — the rebuild
    // already plants every live deadline, this one included.
    if (entries_ + 1 >= kCompactFloor &&
        entries_ + 1 > kCompactRatio * live_) {
      compact();
    } else {
      std::uint32_t idx = static_cast<std::uint32_t>((id.seq & 0xffffffffu) - 1);
      insert_entry(Entry{at.ns(), s->order, s->fifo, idx, s->gen});
    }
  }
  // Moving later is free: the stale earlier entry chases the slot on pop.
  return true;
}

bool Scheduler::peek(Entry& out) {
  for (;;) {
    if (live_ == 0) return false;
    // Forward scan: at most one full lap over the day array.
    for (std::size_t steps = 0; steps <= mask_; ++steps) {
      auto& bucket = buckets_[static_cast<std::size_t>(cur_vday_) & mask_];
      bool chased = false;
      while (!bucket.empty()) {
        const Entry& top = bucket.front();
        if (vday(top.at_ns) > cur_vday_) break;  // future wrap; not yet due
        const Slot& s = slots_[top.slot];
        if (!s.live || s.gen != top.gen) {
          // Cancelled (or recycled); discard lazily.
          std::pop_heap(bucket.begin(), bucket.end(), EntryAfter{});
          bucket.pop_back();
          --entries_;
          continue;
        }
        if (s.at.ns() != top.at_ns) {
          // Deadline was bumped after this hint was planted; chase it. The
          // re-insert may wind the cursor or land in overflow, so restart.
          Entry fresh{s.at.ns(), s.order, s.fifo, top.slot, top.gen};
          std::pop_heap(bucket.begin(), bucket.end(), EntryAfter{});
          bucket.pop_back();
          --entries_;
          insert_entry(fresh);
          chased = true;
          break;
        }
        out = top;
        return true;
      }
      if (chased) break;  // restart the scan from the (possibly moved) cursor
      ++cur_vday_;
    }
    if (live_ > 0 && entries_ == 0) {
      throw std::logic_error("Scheduler: live events but no queue entries");
    }
    // A dry lap: every due entry was stale or everything pending sits beyond
    // the day horizon. Re-seed the calendar around the new earliest deadline.
    if (entries_ > 0) compact();
  }
}

void Scheduler::pop_top(const Entry& e) {
  auto& bucket = buckets_[static_cast<std::size_t>(vday(e.at_ns)) & mask_];
  std::pop_heap(bucket.begin(), bucket.end(), EntryAfter{});
  bucket.pop_back();
  --entries_;
}

bool Scheduler::step() {
  Entry e;
  if (!peek(e)) return false;
  pop_top(e);
  Slot& s = slots_[e.slot];
  Callback fn = std::move(s.fn);
  free_slot(e.slot);
  now_ = Time::from_ns(e.at_ns);
  ++fired_;
  fn();
  return true;
}

void Scheduler::run_until(Time deadline) {
  Entry e;
  while (peek(e)) {
    if (e.at_ns > deadline.ns()) break;
    pop_top(e);
    Slot& s = slots_[e.slot];
    Callback fn = std::move(s.fn);
    free_slot(e.slot);
    now_ = Time::from_ns(e.at_ns);
    ++fired_;
    fn();
  }
  if (deadline > now_) now_ = deadline;
}

bool Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n >= max_events) return false;
  }
  return true;
}

}  // namespace mrmtp::sim
