// Randomized differential test: the calendar-queue Scheduler vs a tiny
// obviously-correct reference model, driven with identical schedule /
// schedule_at_ordered / reschedule / cancel / step / run_until sequences.
// The sequences deliberately include same-deadline bursts (exercising the
// (time, order, fifo) tie-break), far-future deadlines (exercising the
// overflow ladder and re-seeding), reschedule churn in both directions, and
// operations on already-fired ids. Pop order must match event for event.
//
// Runs plain, under ASan, and under TSan (see tests/CMakeLists.txt and
// scripts/check.sh).

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace mrmtp {
namespace {

using sim::Duration;
using sim::EventId;
using sim::Rng;
using sim::Scheduler;
using sim::Time;

/// Reference model: a flat map scanned for the minimum on every pop. O(n)
/// per operation and transparently correct — the property the calendar is
/// checked against.
class ReferenceScheduler {
 public:
  void schedule(Time at, std::uint64_t order, std::uint64_t token) {
    pending_[token] = Ev{at.ns(), order, next_fifo_++};
  }

  bool reschedule(std::uint64_t token, Time at) {
    auto it = pending_.find(token);
    if (it == pending_.end()) return false;
    if (at < now_) at = now_;
    it->second.at_ns = at.ns();  // fifo survives, matching the calendar
    return true;
  }

  void cancel(std::uint64_t token) { pending_.erase(token); }

  /// Pops the (time, order, fifo) minimum; returns false when empty.
  bool pop(std::uint64_t& token_out, std::int64_t& at_out) {
    return pop_until(Time::from_ns(INT64_MAX), token_out, at_out);
  }

  bool pop_until(Time deadline, std::uint64_t& token_out,
                 std::int64_t& at_out) {
    if (pending_.empty()) return false;
    auto best = pending_.begin();
    for (auto it = std::next(best); it != pending_.end(); ++it) {
      if (before(it->second, best->second)) best = it;
    }
    if (best->second.at_ns > deadline.ns()) return false;
    token_out = best->first;
    at_out = best->second.at_ns;
    now_ = Time::from_ns(best->second.at_ns);
    pending_.erase(best);
    return true;
  }

  void advance_to(Time deadline) {
    if (deadline > now_) now_ = deadline;
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  struct Ev {
    std::int64_t at_ns;
    std::uint64_t order;
    std::uint64_t fifo;
  };
  static bool before(const Ev& a, const Ev& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    if (a.order != b.order) return a.order < b.order;
    return a.fifo < b.fifo;
  }

  std::map<std::uint64_t, Ev> pending_;
  std::uint64_t next_fifo_ = 1;
  Time now_ = Time::zero();
};

/// Drives both schedulers through one random fuzz run and asserts identical
/// pop order, identical reschedule return values, and identical clocks.
void fuzz_run(std::uint64_t seed, int ops) {
  Scheduler cal;
  ReferenceScheduler ref;
  Rng rng(seed);

  std::uint64_t next_token = 1;
  // token -> calendar EventId for every schedule that ever happened; stale
  // entries stay so cancel/reschedule also hit already-fired events.
  std::vector<std::pair<std::uint64_t, EventId>> ids;
  std::vector<std::uint64_t> cal_fired;
  std::vector<std::uint64_t> ref_fired;

  auto schedule_one = [&](Time at, std::uint64_t order) {
    std::uint64_t token = next_token++;
    EventId id = cal.schedule_at_ordered(
        at, order, [&cal_fired, token] { cal_fired.push_back(token); });
    ref.schedule(at, order, token);
    ids.emplace_back(token, id);
  };

  auto random_delay = [&]() -> Duration {
    switch (rng.below(6)) {
      case 0:
        return Duration{};  // same instant as now
      case 1:
        return Duration::nanos(rng.range(1, 50));
      case 2:
        return Duration::micros(rng.range(1, 500));
      case 3:
        return Duration::millis(rng.range(1, 50));
      case 4:  // far future: guaranteed past any day window -> overflow ladder
        return Duration::seconds(rng.range(10, 1000));
      default:
        return Duration::micros(rng.range(1, 20));
    }
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.below(10)) {
      case 0:
      case 1: {  // plain schedule (kUnordered key)
        schedule_one(cal.now() + random_delay(), Scheduler::kUnordered);
        break;
      }
      case 2: {  // keyed schedule, small key space so keys collide too
        schedule_one(cal.now() + random_delay(),
                     static_cast<std::uint64_t>(rng.below(8)));
        break;
      }
      case 3: {  // same-deadline burst, mixed keyed/plain
        Time at = cal.now() + random_delay();
        int n = static_cast<int>(rng.range(2, 12));
        for (int i = 0; i < n; ++i) {
          std::uint64_t order = rng.chance(0.5)
                                    ? Scheduler::kUnordered
                                    : static_cast<std::uint64_t>(rng.below(4));
          schedule_one(at, order);
        }
        break;
      }
      case 4: {  // reschedule a random (possibly fired) event
        if (ids.empty()) break;
        auto& [token, id] = ids[rng.below(ids.size())];
        Time at = cal.now() + random_delay();
        if (rng.chance(0.25)) {  // sometimes aim at the past (clamps to now)
          at = Time::from_ns(cal.now().ns() / 2);
        }
        ASSERT_EQ(cal.reschedule(id, at), ref.reschedule(token, at))
            << "seed " << seed << " op " << op;
        break;
      }
      case 5: {  // cancel a random (possibly fired) event
        if (ids.empty()) break;
        auto& [token, id] = ids[rng.below(ids.size())];
        cal.cancel(id);
        ref.cancel(token);
        break;
      }
      case 6:
      case 7: {  // step a few events
        int n = static_cast<int>(rng.range(1, 8));
        for (int i = 0; i < n; ++i) {
          std::uint64_t token = 0;
          std::int64_t at_ns = 0;
          bool ref_had = ref.pop(token, at_ns);
          ASSERT_EQ(cal.step(), ref_had) << "seed " << seed << " op " << op;
          if (!ref_had) break;
          ref_fired.push_back(token);
          ASSERT_EQ(cal.now().ns(), at_ns) << "seed " << seed << " op " << op;
        }
        break;
      }
      case 8: {  // run_until a random horizon
        Time deadline = cal.now() + random_delay();
        cal.run_until(deadline);
        std::uint64_t token = 0;
        std::int64_t at_ns = 0;
        while (ref.pop_until(deadline, token, at_ns)) {
          ref_fired.push_back(token);
        }
        ref.advance_to(deadline);
        ASSERT_EQ(cal.now().ns(), ref.now().ns())
            << "seed " << seed << " op " << op;
        break;
      }
      default: {  // consistency checkpoint
        ASSERT_EQ(cal.pending(), ref.size()) << "seed " << seed << " op " << op;
        ASSERT_LE(cal.queue_size(),
                  std::max<std::size_t>(64, 4 * cal.pending()))
            << "seed " << seed << " op " << op;
        break;
      }
    }
    ASSERT_EQ(cal_fired.size(), ref_fired.size())
        << "seed " << seed << " op " << op;
    if (!cal_fired.empty() && cal_fired.back() != ref_fired.back()) {
      FAIL() << "pop order diverged at seed " << seed << " op " << op
             << ": calendar fired " << cal_fired.back() << ", reference fired "
             << ref_fired.back();
    }
  }

  // Drain both completely and compare the full tail.
  for (;;) {
    std::uint64_t token = 0;
    std::int64_t at_ns = 0;
    bool ref_had = ref.pop(token, at_ns);
    bool cal_had = cal.step();
    ASSERT_EQ(cal_had, ref_had) << "seed " << seed << " at drain";
    if (!ref_had) break;
    ref_fired.push_back(token);
    ASSERT_EQ(cal.now().ns(), at_ns) << "seed " << seed << " at drain";
  }
  ASSERT_EQ(cal_fired, ref_fired) << "seed " << seed;
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.queue_size(), 0u);
}

TEST(CalendarQueueProperty, MatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz_run(0x9e3779b97f4a7c15ull * seed + seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(CalendarQueueProperty, LongChurnSingleSeed) { fuzz_run(42, 20000); }

TEST(CalendarQueueProperty, SameDeadlineBurstKeyedBeforePlain) {
  // A keyed event scheduled *after* a plain one at the same instant must
  // still pop first: keyed link deliveries rely on keyed-before-plain being
  // invariant under insert order.
  Scheduler cal;
  std::vector<int> fired;
  Time at = Time::from_ns(1000);
  cal.schedule_at(at, [&] { fired.push_back(100); });
  cal.schedule_at_ordered(at, 7, [&] { fired.push_back(7); });
  cal.schedule_at_ordered(at, 3, [&] { fired.push_back(3); });
  cal.schedule_at(at, [&] { fired.push_back(101); });
  cal.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 7, 100, 101}));
}

TEST(CalendarQueueProperty, FarFutureOverflowReseeds) {
  // Everything beyond the day window lands in the overflow ladder; popping
  // across the horizon forces a re-seed that must preserve order exactly.
  Scheduler cal;
  Rng rng(7);
  ReferenceScheduler ref;
  std::vector<std::uint64_t> cal_fired;
  std::vector<std::uint64_t> ref_fired;
  for (std::uint64_t token = 1; token <= 2000; ++token) {
    Time at =
        Time::from_ns(rng.range(0, 1ll << 30) +
                      rng.range(0, 3) * 3'600'000'000'000ll);
    cal.schedule_at(at, [&cal_fired, token] { cal_fired.push_back(token); });
    ref.schedule(at, Scheduler::kUnordered, token);
  }
  while (cal.step()) {
  }
  std::uint64_t token = 0;
  std::int64_t at_ns = 0;
  while (ref.pop(token, at_ns)) ref_fired.push_back(token);
  EXPECT_EQ(cal_fired, ref_fired);
  EXPECT_GT(cal.compactions(), 0u);  // the horizon was actually crossed
}

}  // namespace
}  // namespace mrmtp
