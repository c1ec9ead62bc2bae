// han::sim — cancellable priority queue of timed events.
//
// A binary min-heap of small POD keys ordered on (time, sequence-number).
// The sequence number makes ordering of same-time events deterministic
// (FIFO), which in turn makes whole simulations bit-reproducible.
//
// Callbacks live outside the heap, in a pool of slots recycled through a
// free list; a key names its slot. Cancellation is lazy: cancel() frees
// the slot (destroying the callback at once) and leaves the key in the
// heap as a dead entry, recognisable because its sequence number no
// longer matches the slot's. Dead keys are dropped when they reach the
// top, and the heap is rebuilt from its live keys once dead keys
// outnumber them. Because (time, seq) is a total order, neither changes
// which event fires next.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace han::sim {

/// Opaque handle identifying a scheduled event: the event's pool slot
/// plus that slot's generation. A slot's generation advances every time
/// its event fires or is cancelled, so a handle to a finished event can
/// never cancel (or report as pending) a later event that reuses the
/// slot — until the slot has been recycled 2^32 times.
struct EventId {
  std::uint64_t value = 0;

  [[nodiscard]] constexpr bool valid() const noexcept { return value != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;
};

/// Callback type executed when an event fires.
using EventFn = std::function<void()>;

/// Min-heap of (TimePoint, callback) with stable same-time ordering and
/// lazy cancellation (amortized O(log n)). Not thread-safe: the kernel is
/// single-threaded by design.
class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `fn` to fire at absolute time `at`. Returns a handle that
  /// can be used with cancel().
  EventId schedule(TimePoint at, EventFn fn);

  /// Cancels a pending event and destroys its callback before
  /// returning. Returns true if the event existed and was removed; false
  /// if it already fired, was already cancelled, or the handle is
  /// invalid. Safe to call from inside event callbacks.
  bool cancel(EventId id);

  /// True if `id` is still scheduled (not yet fired or cancelled).
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// True if no events are pending.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of pending events (cancelled ones not counted).
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Fire time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Removes and returns the earliest event. Precondition: !empty().
  struct Fired {
    TimePoint time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

  /// Removes all pending events.
  void clear();

  /// Total number of events ever scheduled (diagnostics).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept {
    return next_seq_ - 1;
  }

 private:
  /// Heap entry. Live while `seq` equals its slot's `seq`.
  struct Key {
    TimePoint time;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Callback storage. `seq` is 0 while the slot is free.
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
  };

  [[nodiscard]] static bool less(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool live(const Key& k) const noexcept {
    return slots_[k.slot].seq == k.seq;
  }

  [[nodiscard]] static EventId make_id(std::uint32_t slot,
                                       std::uint32_t generation) noexcept {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }

  /// Slot named by `id` if it holds a pending event, else nullptr.
  [[nodiscard]] const Slot* find(EventId id) const noexcept;

  void release(std::uint32_t slot) noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_key() noexcept;
  void drop_dead_top() noexcept;
  void rebuild() noexcept;

  std::vector<Key> heap_;  // live and dead keys; the top is always live
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO free list of slot indices
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

/// Re-armable one-shot deadline over an EventQueue — the registration
/// plumbing an event-driven controller uses to declare "look at me
/// again at T". Arming replaces any still-pending schedule (a
/// controller has one next deadline, not a backlog), cancelling is
/// idempotent, and a fired event leaves the timer disarmed. The timer
/// does not own the queue; it must not outlive it.
class Timer {
 public:
  explicit Timer(EventQueue& queue) : queue_(&queue) {}

  /// Schedules `fn` at `at`, replacing any pending schedule.
  void arm(TimePoint at, EventFn fn) {
    cancel();
    id_ = queue_->schedule(at, std::move(fn));
    at_ = at;
  }

  /// Cancels the pending schedule, if any.
  void cancel() {
    if (id_.valid()) queue_->cancel(id_);
    id_ = EventId{};
  }

  /// True while the scheduled event has neither fired nor been
  /// cancelled.
  [[nodiscard]] bool armed() const { return id_.valid() && queue_->pending(id_); }

  /// Fire time of the pending schedule (meaningful only while armed()).
  [[nodiscard]] TimePoint at() const noexcept { return at_; }

 private:
  EventQueue* queue_;
  EventId id_{};
  TimePoint at_{};
};

}  // namespace han::sim
