// EventQueue: ordering, stability, cancellation, heap integrity, stale
// handles, and a differential check against an eager-deletion oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace han::sim {
namespace {

TimePoint at(Ticks us) { return TimePoint{us}; }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at(30), [&] { fired.push_back(3); });
  q.schedule(at(10), [&] { fired.push_back(1); });
  q.schedule(at(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.schedule(at(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(at(10), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(at(10), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.schedule(at(10), [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{12345}));
}

TEST(EventQueue, CancelMiddlePreservesOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at(10), [&] { fired.push_back(1); });
  const EventId mid = q.schedule(at(20), [&] { fired.push_back(2); });
  q.schedule(at(30), [&] { fired.push_back(3); });
  q.schedule(at(40), [&] { fired.push_back(4); });
  EXPECT_TRUE(q.cancel(mid));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.schedule(at(50), [] {});
  EXPECT_EQ(q.next_time(), at(50));
  const EventId early = q.schedule(at(5), [] {});
  EXPECT_EQ(q.next_time(), at(5));
  q.cancel(early);
  EXPECT_EQ(q.next_time(), at(50));
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule(at(i), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// Randomized heap-integrity check: interleaved schedule/cancel/pop must
// always yield a non-decreasing fire-time sequence.
class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, RandomOpsKeepHeapOrdered) {
  Rng rng(GetParam());
  EventQueue q;
  std::vector<EventId> live;
  Ticks last_popped = -1;
  Ticks clock = 0;
  for (int op = 0; op < 4000; ++op) {
    const double r = rng.uniform();
    if (r < 0.55) {
      const Ticks t = clock + rng.uniform_int(0, 1000);
      live.push_back(q.schedule(at(t), [] {}));
    } else if (r < 0.75 && !live.empty()) {
      const std::size_t i = rng.index(live.size());
      q.cancel(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!q.empty()) {
      const auto fired = q.pop();
      EXPECT_GE(fired.time.us(), last_popped);
      last_popped = fired.time.us();
      clock = fired.time.us();
    }
  }
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time.us(), last_popped);
    last_popped = fired.time.us();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1, 2, 3, 7, 11, 13, 42, 99));

TEST(Timer, ArmReplacesPendingSchedule) {
  EventQueue q;
  Timer timer(q);
  int fired = 0;
  timer.arm(at(100), [&] { fired += 1; });
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.at(), at(100));
  // Re-arming earlier discards the first schedule entirely.
  timer.arm(at(50), [&] { fired += 10; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(timer.at(), at(50));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, CancelIsIdempotentAndFiringDisarms) {
  EventQueue q;
  Timer timer(q);
  timer.cancel();  // never armed: no-op
  EXPECT_FALSE(timer.armed());
  timer.arm(at(10), [] {});
  timer.cancel();
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(q.empty());

  timer.arm(at(20), [] {});
  q.pop().fn();
  EXPECT_FALSE(timer.armed());  // fired, not pending
  // Re-arming after a fire works.
  timer.arm(at(30), [] {});
  EXPECT_TRUE(timer.armed());
}

TEST(Timer, CoincidingTimersFireInArmOrder) {
  EventQueue q;
  Timer a(q);
  Timer b(q);
  std::vector<int> order;
  a.arm(at(40), [&] { order.push_back(1); });
  b.arm(at(40), [&] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), at(40));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.schedule(at(5), [] {});
  EXPECT_TRUE(q.pending(id));
  q.pop();
  EXPECT_FALSE(q.pending(id));
  const EventId id2 = q.schedule(at(6), [] {});
  q.cancel(id2);
  EXPECT_FALSE(q.pending(id2));
  EXPECT_FALSE(q.pending(EventId{}));
}


// ---------------------------------------------------------------------------
// Differential check against an eager-deletion oracle: a binary heap of
// (time, seq, callback) nodes with a seq -> heap-index hash map, where
// cancel() removes the node at once. The lazy queue must agree with it
// on every observable after every operation.
// ---------------------------------------------------------------------------

class ReferenceQueue {
 public:
  std::uint64_t schedule(TimePoint at, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Node{at, seq, std::move(fn)});
    slot_of_[seq] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
    return seq;
  }
  bool cancel(std::uint64_t id) {
    auto it = slot_of_.find(id);
    if (it == slot_of_.end()) return false;
    remove_at(it->second);
    return true;
  }
  [[nodiscard]] bool pending(std::uint64_t id) const {
    return slot_of_.find(id) != slot_of_.end();
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] TimePoint next_time() const { return heap_.front().time; }
  std::pair<TimePoint, EventFn> pop() {
    std::pair<TimePoint, EventFn> out{heap_.front().time,
                                      std::move(heap_.front().fn)};
    remove_at(0);
    return out;
  }

 private:
  struct Node {
    TimePoint time;
    std::uint64_t seq = 0;
    EventFn fn;
  };
  static bool less(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void move_to(std::size_t dst, Node&& n) {
    slot_of_[n.seq] = dst;
    heap_[dst] = std::move(n);
  }
  void sift_up(std::size_t i) {
    Node moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(moving, heap_[parent])) break;
      move_to(i, std::move(heap_[parent]));
      i = parent;
    }
    move_to(i, std::move(moving));
  }
  void sift_down(std::size_t i) {
    Node moving = std::move(heap_[i]);
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], moving)) break;
      move_to(i, std::move(heap_[child]));
      i = child;
    }
    move_to(i, std::move(moving));
  }
  void remove_at(std::size_t i) {
    slot_of_.erase(heap_[i].seq);
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      Node tail = std::move(heap_[last]);
      heap_.pop_back();
      move_to(i, std::move(tail));
      if (i > 0 && less(heap_[i], heap_[(i - 1) / 2])) {
        sift_up(i);
      } else {
        sift_down(i);
      }
    } else {
      heap_.pop_back();
    }
  }

  std::vector<Node> heap_;
  // Test oracle only; never iterated.
  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::uint64_t next_seq_ = 1;
};

class EventQueueDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, MatchesReferenceStepByStep) {
  Rng rng(GetParam());
  EventQueue q;
  ReferenceQueue ref;
  // Event k (k-th scheduled) has handle ids[k] in `q` and ref_ids[k] in
  // `ref`; when it fires it logs k and, if victim[k] >= 0, cancels event
  // victim[k] from inside the callback.
  std::vector<EventId> ids;
  std::vector<std::uint64_t> ref_ids;
  std::vector<std::ptrdiff_t> victim;
  std::vector<std::size_t> fired;
  std::vector<std::size_t> ref_fired;
  std::vector<bool> inner_cancel;
  std::vector<bool> ref_inner_cancel;
  Ticks clock = 0;

  auto compare_state = [&](int op) {
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
    if (!ref.empty()) {
      ASSERT_EQ(q.next_time(), ref.next_time()) << "op " << op;
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(q.pending(ids[k]), ref.pending(ref_ids[k]))
          << "op " << op << " event " << k;
    }
    ASSERT_EQ(fired, ref_fired) << "op " << op;
    ASSERT_EQ(inner_cancel, ref_inner_cancel) << "op " << op;
  };

  for (int op = 0; op < 1500; ++op) {
    // Phases alternate between cancel-heavy (dead keys pile up and force
    // heap rebuilds) and pop-heavy stretches.
    const bool cancel_heavy = (op / 250) % 2 == 1;
    const double r = rng.uniform();
    if (r < 0.45) {
      const std::size_t k = ids.size();
      const Ticks t = clock + rng.uniform_int(0, 200);
      victim.push_back(rng.uniform() < 0.2 && k > 0
                           ? static_cast<std::ptrdiff_t>(rng.index(k))
                           : -1);
      ids.push_back(q.schedule(at(t), [&, k] {
        fired.push_back(k);
        if (victim[k] >= 0) {
          inner_cancel.push_back(
              q.cancel(ids[static_cast<std::size_t>(victim[k])]));
        }
      }));
      ref_ids.push_back(ref.schedule(at(t), [&, k] {
        ref_fired.push_back(k);
        if (victim[k] >= 0) {
          ref_inner_cancel.push_back(
              ref.cancel(ref_ids[static_cast<std::size_t>(victim[k])]));
        }
      }));
    } else if (r < (cancel_heavy ? 0.9 : 0.6) && !ids.empty()) {
      // Any event ever scheduled: pending, fired or already cancelled.
      const std::size_t k = rng.index(ids.size());
      ASSERT_EQ(q.cancel(ids[k]), ref.cancel(ref_ids[k])) << "op " << op;
    } else if (!ref.empty()) {
      auto mine = q.pop();
      auto theirs = ref.pop();
      ASSERT_EQ(mine.time, theirs.first) << "op " << op;
      clock = mine.time.us();
      mine.fn();
      theirs.second();
    }
    compare_state(op);
  }
  while (!ref.empty()) {
    auto mine = q.pop();
    auto theirs = ref.pop();
    ASSERT_EQ(mine.time, theirs.first);
    mine.fn();
    theirs.second();
    compare_state(-1);
  }
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(EventQueue, StaleHandleCannotCancelSlotReuser) {
  EventQueue q;
  const EventId old_id = q.schedule(at(1), [] {});
  q.pop();
  // The pool holds a single, now free, slot: the next event reuses it.
  const EventId new_id = q.schedule(at(2), [] {});
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.pending(old_id));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_TRUE(q.pending(new_id));
  EXPECT_EQ(q.size(), 1u);

  // Same after a cancellation instead of a fire.
  EXPECT_TRUE(q.cancel(new_id));
  const EventId third = q.schedule(at(3), [] {});
  EXPECT_FALSE(q.cancel(new_id));
  EXPECT_TRUE(q.pending(third));
  EXPECT_EQ(q.pop().time, at(3));
}

TEST(EventQueue, CancelReleasesCapturesImmediately) {
  EventQueue q;
  q.schedule(at(1), [] {});  // keeps the cancelled key off the heap top
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  const EventId buried = q.schedule(at(5), [token] { (void)token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(buried));
  EXPECT_TRUE(watch.expired());

  // At the top of the heap too.
  auto top_token = std::make_shared<int>(8);
  const std::weak_ptr<int> top_watch = top_token;
  const EventId top = q.schedule(at(0), [top_token] { (void)top_token; });
  top_token.reset();
  EXPECT_TRUE(q.cancel(top));
  EXPECT_TRUE(top_watch.expired());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), at(1));
}

}  // namespace
}  // namespace han::sim
