#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace han::telemetry {

namespace {

constexpr std::string_view kPhaseNames[] = {
    "boot",
    "barrier_advance",
    "barrier_account",
    "barrier_apply",
    "barrier_commit",
    "barrier_observe",
    "barrier_plan",
    "barrier_join_wait",
    "collect",
    "aggregate",
    "report",
    "boot_spec",
    "boot_backend",
    "executor_dispatch",
    "tier_full_advance",
    "tier_device_advance",
    "tier_stat_advance",
    "transfer_planning",
    "run_total",
};
static_assert(sizeof(kPhaseNames) / sizeof(kPhaseNames[0]) ==
              static_cast<std::size_t>(Phase::kCount));

}  // namespace

std::string_view phase_name(Phase p) noexcept {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

bool phase_is_exclusive(Phase p) noexcept {
  return p <= Phase::kReport;
}

std::uint64_t Collector::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Collector::record_span(Phase p, std::uint64_t ns) noexcept {
  AtomicPhase& ph = phases_[static_cast<std::size_t>(p)];
  ph.calls.fetch_add(1, std::memory_order_relaxed);
  ph.total_ns.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = ph.max_ns.load(std::memory_order_relaxed);
  while (prev < ns && !ph.max_ns.compare_exchange_weak(
                          prev, ns, std::memory_order_relaxed)) {
  }
}

PhaseStats Collector::phase(Phase p) const noexcept {
  const AtomicPhase& ph = phases_[static_cast<std::size_t>(p)];
  PhaseStats out;
  out.calls = ph.calls.load(std::memory_order_relaxed);
  out.total_ns = ph.total_ns.load(std::memory_order_relaxed);
  out.max_ns = ph.max_ns.load(std::memory_order_relaxed);
  return out;
}

void Collector::count(std::string_view name, std::uint64_t delta) {
  for (auto& [key, value] : counters_) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  counters_.emplace_back(std::string(name), delta);
}

void Collector::set_counter(std::string_view name, std::uint64_t value) {
  for (auto& [key, existing] : counters_) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  counters_.emplace_back(std::string(name), value);
}

std::uint64_t Collector::counter(std::string_view name) const noexcept {
  for (const auto& [key, value] : counters_) {
    if (key == name) return value;
  }
  return 0;
}

void Collector::set_meta(std::string_view key, std::string_view value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  meta_.emplace_back(std::string(key), std::string(value));
}

void Collector::set_meta_num(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  set_meta(key, buf);
  if (std::find(numeric_meta_keys_.begin(), numeric_meta_keys_.end(), key) ==
      numeric_meta_keys_.end()) {
    numeric_meta_keys_.emplace_back(key);
  }
}

bool Collector::meta_is_numeric(std::string_view key) const noexcept {
  return std::find(numeric_meta_keys_.begin(), numeric_meta_keys_.end(),
                   key) != numeric_meta_keys_.end();
}

ExecutorActivity Collector::executor_activity() const noexcept {
  ExecutorActivity out;
  out.parallel_for_calls = activity_calls_.load(std::memory_order_relaxed);
  out.tasks = activity_tasks_.load(std::memory_order_relaxed);
  out.steals = activity_steals_.load(std::memory_order_relaxed);
  return out;
}

void Collector::enable_tracing() {
  tracing_ = true;
  if (trace_epoch_ns_ == 0) trace_epoch_ns_ = now_ns();
}

void Collector::trace_phase(Phase p, std::uint64_t start_ns,
                            std::uint64_t dur_ns) {
  if (!tracing_) return;
  const std::uint64_t offset_ns =
      start_ns >= trace_epoch_ns_ ? start_ns - trace_epoch_ns_ : 0;
  std::string series("phase/");
  series += phase_name(p);
  trace_.record(series,
                sim::TimePoint{static_cast<sim::Ticks>(offset_ns / 1000)},
                static_cast<double>(dur_ns) / 1000.0);
}

void Collector::trace_instant(std::string_view name, sim::TimePoint at,
                              double value) {
  if (!tracing_) return;
  trace_.record(name, at, value);
}

std::string_view git_describe() noexcept {
#ifdef HAN_GIT_DESCRIBE
  return HAN_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

}  // namespace han::telemetry
