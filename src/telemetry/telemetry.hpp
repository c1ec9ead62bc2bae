// han::telemetry — run-level observability for the fleet engine.
//
// Three pillars, all opt-in and all off by default:
//
//   * Phase profiling — RAII Spans around the engine's wall-clock
//     phases (boot, each barrier sub-phase, collect/aggregate, executor
//     dispatch, per-fidelity-tier advance), aggregated into per-phase
//     totals/call counts/max latency. The disabled path is a null
//     Collector pointer: constructing a Span then costs one branch and
//     never reads a clock (measured in bench_micro).
//   * Structured counters + run metadata — an insertion-ordered
//     Registry of named monotonic counters (barriers, wakes, signals,
//     transfers, …) plus run metadata, serialized to a versioned JSON
//     manifest (see export.hpp). Counters are DETERMINISTIC: they are
//     only ever written from the engine's control plane (the submitter
//     thread) and count simulation facts, so the counters section is
//     byte-identical across executor widths. Wall-clock numbers live
//     in separate sections that the CI perf gate treats as advisory.
//   * Trace export — spans and simulation events recorded into the
//     existing sim::TraceRecorder plumbing and rendered as a Chrome
//     trace-event file (chrome://tracing / Perfetto) by export.hpp.
//
// Threading contract: record_span() and the executor-activity hooks
// are thread-safe (relaxed atomics; profiling data is inherently
// non-deterministic anyway). Counters, metadata and trace recording
// must only be touched from one thread at a time — the engine calls
// them from the control plane between parallel sections.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace han::telemetry {

/// Manifest schema version (bumped on any breaking field change).
inline constexpr int kManifestVersion = 1;

/// The engine's instrumented wall-clock phases. "Exclusive" phases
/// partition the run's wall clock (they never nest in each other), so
/// their totals should sum to ~the end-to-end runtime; "nested" phases
/// overlap an exclusive one (per-tier advance time runs inside
/// barrier_advance, executor dispatch inside whatever submitted it)
/// and are reported separately so the partition stays meaningful.
enum class Phase : std::uint8_t {
  // --- exclusive (disjoint slices of the run) -------------------------
  kBoot,            // spec/trace construction + backend creation
  kBarrierAdvance,  // premises advancing to the barrier
  kBarrierAccount,  // transfer energy accounting
  kBarrierApply,    // tie-switch actuations + re-homing
  kBarrierCommit,   // staging + committing the feeder aggregates
  kBarrierObserve,  // controller observation + signal fan-out
  kBarrierPlan,     // transfer planning from the committed aggregates
  kBarrierJoinWait,  // control plane blocked on a shard's join node
  kCollect,         // premise result collection (finish())
  kAggregate,       // sequential feeder aggregation
  kReport,          // per-feeder outcomes + signal-log rendering
  // --- nested (overlap the exclusive phases) --------------------------
  kBootSpec,        // per-premise spec/trace construction (inside kBoot)
  kBootBackend,     // per-premise backend creation (inside kBoot)
  kExecutorDispatch,  // parallel_for submit-to-retire (inside callers)
  kTierFullAdvance,   // per-tier advance_to time (inside kBarrierAdvance)
  kTierDeviceAdvance,
  kTierStatAdvance,
  kTransferPlanning,  // Substation::plan_transfers (inside kBarrierPlan)
  // --- the whole run (reference for the partition check) --------------
  kRunTotal,
  kCount,
};

[[nodiscard]] std::string_view phase_name(Phase p) noexcept;

/// True for phases that partition the run wall clock (see Phase).
[[nodiscard]] bool phase_is_exclusive(Phase p) noexcept;

/// Aggregated profile of one phase.
struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Executor activity counters (non-deterministic: scheduling facts).
struct ExecutorActivity {
  std::uint64_t parallel_for_calls = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
};

/// One run's telemetry sink. Create one per instrumented run, thread a
/// pointer to it through the engine, and serialize it afterwards with
/// export.hpp. A null Collector pointer everywhere is the disabled
/// mode and costs one branch per would-be span.
class Collector {
 public:
  Collector() = default;
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  // --- phase profiling (thread-safe) ----------------------------------
  void record_span(Phase p, std::uint64_t ns) noexcept;
  [[nodiscard]] PhaseStats phase(Phase p) const noexcept;

  // --- counters (control-plane thread only; deterministic) ------------
  /// Adds `delta` to counter `name`, creating it at 0 first. Counters
  /// iterate in first-touch order, so serialization is deterministic.
  void count(std::string_view name, std::uint64_t delta = 1);
  /// Sets counter `name` (last write wins; creates in order as count).
  void set_counter(std::string_view name, std::uint64_t value);
  /// Current value (0 when the counter was never touched).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
  counters() const noexcept {
    return counters_;
  }

  // --- run metadata (control-plane thread only) -----------------------
  /// String metadata (JSON-quoted in the manifest), insertion order.
  void set_meta(std::string_view key, std::string_view value);
  /// Numeric metadata (unquoted in the manifest), insertion order.
  void set_meta_num(std::string_view key, double value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  meta() const noexcept {
    return meta_;
  }
  /// True when `key`'s stored value should be written unquoted.
  [[nodiscard]] bool meta_is_numeric(std::string_view key) const noexcept;

  // --- executor activity (thread-safe; non-deterministic) -------------
  void count_parallel_for() noexcept {
    activity_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_executor_activity(std::uint64_t tasks,
                             std::uint64_t steals) noexcept {
    activity_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    activity_steals_.fetch_add(steals, std::memory_order_relaxed);
  }
  [[nodiscard]] ExecutorActivity executor_activity() const noexcept;

  // --- trace recording (control-plane thread only; opt-in) ------------
  /// Arms trace-event recording; spans and instants are dropped until
  /// this is called (aggregate profiling always runs).
  void enable_tracing();
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  /// Marks "now" as the wall origin of the trace timeline (call at run
  /// start; enable_tracing() also sets it if unset).
  void set_trace_epoch_ns(std::uint64_t ns) noexcept { trace_epoch_ns_ = ns; }
  [[nodiscard]] std::uint64_t trace_epoch_ns() const noexcept {
    return trace_epoch_ns_;
  }
  /// Records a completed span on the wall-clock lane (no-op unless
  /// tracing). Series name "phase/<name>"; sample time = start offset
  /// in us since the trace epoch; value = duration in us.
  void trace_phase(Phase p, std::uint64_t start_ns, std::uint64_t dur_ns);
  /// Records an instant event on the simulated-time lane (no-op unless
  /// tracing), e.g. "sim/crossing/f0" at the crossing's sim time.
  void trace_instant(std::string_view name, sim::TimePoint at, double value);
  /// The raw recorded samples (export.hpp renders these).
  [[nodiscard]] const sim::TraceRecorder& trace() const noexcept {
    return trace_;
  }

 private:
  struct AtomicPhase {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
  };

  AtomicPhase phases_[static_cast<std::size_t>(Phase::kCount)];
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> numeric_meta_keys_;
  std::atomic<std::uint64_t> activity_calls_{0};
  std::atomic<std::uint64_t> activity_tasks_{0};
  std::atomic<std::uint64_t> activity_steals_{0};
  bool tracing_ = false;
  std::uint64_t trace_epoch_ns_ = 0;
  sim::TraceRecorder trace_;
};

/// RAII span: times the enclosing scope into collector->phase(p). With
/// a null collector the constructor stores two words and never touches
/// a clock — the disabled fast path the engine leaves in place
/// permanently. kTrace additionally records the span as a trace event
/// (caller must be the control-plane thread; aggregate-only spans may
/// run on any thread).
class Span {
 public:
  enum class Emit : std::uint8_t { kAggregate, kTrace };

  explicit Span(Collector* collector, Phase p,
                Emit emit = Emit::kAggregate) noexcept
      : collector_(collector), phase_(p), emit_(emit) {
    if (collector_ != nullptr) start_ns_ = Collector::now_ns();
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent; the destructor then no-ops).
  void finish() noexcept {
    if (collector_ == nullptr) return;
    const std::uint64_t dur = Collector::now_ns() - start_ns_;
    collector_->record_span(phase_, dur);
    if (emit_ == Emit::kTrace && collector_->tracing()) {
      collector_->trace_phase(phase_, start_ns_, dur);
    }
    collector_ = nullptr;
  }

 private:
  Collector* collector_;
  Phase phase_;
  Emit emit_;
  std::uint64_t start_ns_ = 0;
};

/// `git describe` of the built tree (CMake configure-time capture;
/// "unknown" when built outside a git checkout).
[[nodiscard]] std::string_view git_describe() noexcept;

}  // namespace han::telemetry
