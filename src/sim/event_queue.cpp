#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace han::sim {

EventId EventQueue::schedule(TimePoint at, EventFn fn) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  ++live_;
  heap_.push_back(Key{at, s.seq, slot});
  sift_up(heap_.size() - 1);
  return make_id(slot, s.generation);
}

const EventQueue::Slot* EventQueue::find(EventId id) const noexcept {
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) return nullptr;
  const Slot& s = slots_[slot];
  if (s.seq == 0 || s.generation != generation) return nullptr;
  return &s;
}

bool EventQueue::pending(EventId id) const noexcept {
  return find(id) != nullptr;
}

bool EventQueue::cancel(EventId id) {
  if (find(id) == nullptr) return false;
  const auto slot = static_cast<std::uint32_t>(id.value);
  // Take the callback out first: its captures are destroyed when
  // `doomed` goes out of scope, after the queue is consistent again, so
  // a destructor that re-enters the queue sees no half-removed event.
  EventFn doomed = std::move(slots_[slot].fn);
  release(slot);
  drop_dead_top();
  if (heap_.size() > 2 * live_) rebuild();
  return true;
}

TimePoint EventQueue::next_time() const {
  assert(live_ > 0);
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_ > 0);
  const Key top = heap_.front();
  Slot& s = slots_[top.slot];
  Fired out{top.time, make_id(top.slot, s.generation), std::move(s.fn)};
  release(top.slot);
  pop_key();
  drop_dead_top();
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].seq == 0) continue;
    const EventFn doomed = std::move(slots_[i].fn);
    release(static_cast<std::uint32_t>(i));
  }
}

void EventQueue::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.seq = 0;
  if (++s.generation == 0) s.generation = 1;  // 0 would alias EventId{}
  free_.push_back(slot);
  --live_;
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const Key moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const Key moving = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
    if (!less(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

void EventQueue::pop_key() noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_top() noexcept {
  while (!heap_.empty() && !live(heap_.front())) pop_key();
}

void EventQueue::rebuild() noexcept {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Key& k) { return !live(k); }),
              heap_.end());
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

}  // namespace han::sim
