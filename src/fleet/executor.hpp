// han::fleet — fork-join executor for premise-parallel simulation.
//
// Premise simulations are embarrassingly parallel but wildly uneven in
// cost (device counts, workload intensity and horizon all vary per
// home), and the closed-loop engine synchronizes them at control
// barriers. A fleet-wide join would make every feeder's control
// decision wait for the slowest premise anywhere; instead the engine
// submits one graph per barrier of exactly one shape — leaf tasks
// (premise chunks carrying a feeder affinity) plus one bodiless join
// per feeder shard — and each feeder's control plane waits only on ITS
// shard's join.
//
// That shape is the whole contract: a join gathers leaves only, and a
// leaf belongs to at most one join. Retiring a leaf counts down its
// join's latch; the join retires when the latch reaches zero. There
// are no continuations and no join-of-join chains.
//
// Scheduling machinery: one bounded lockless MPMC ring per worker
// (per-cell sequence numbers, CAS enqueue/dequeue). A worker pops its
// own ring first and steals from the other rings when dry; a blocked
// submitter helps by executing pending tasks itself, which also makes
// arbitrarily large graphs safe against ring overflow (a push that
// finds every ring full runs the task inline). Mutex/condvar are used
// only to park idle workers and waiting submitters — never on the
// task hot path.
//
// Determinism contract: the executor guarantees every leaf runs
// exactly once, and every join retires after all its leaves, but in an
// unspecified order on unspecified threads. Callers that need
// deterministic output must make tasks independent (per-task RNG
// streams), write results into per-index slots, and keep every ordered
// decision on the submitting thread (the engine's sequential control
// plane).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace han::telemetry {
class Collector;
}  // namespace han::telemetry

namespace han::fleet {

namespace detail {
struct GraphState;
}  // namespace detail

/// Fixed-size worker pool scheduling leaves-plus-joins task graphs over
/// lockless per-worker rings. Thread-safe for concurrent submissions
/// from any number of threads; each submission is tracked by its own
/// GraphRun handle.
class Executor {
 public:
  /// Node id inside one TaskGraph (dense, starting at 0).
  using TaskId = std::size_t;

  /// Affinity wildcard: the task may start on any worker (round-robin
  /// placement; work stealing rebalances either way).
  static constexpr std::size_t kAnyWorker = static_cast<std::size_t>(-1);

  /// A graph under construction: leaves from add(), bodiless joins
  /// over them from add_join(). Hand it to Executor::submit_graph.
  class TaskGraph {
   public:
    /// Adds a leaf task (`fn` must be callable). `affinity` hints the
    /// worker ring the task is first queued on (feeder shard id in the
    /// engine); kAnyWorker deals round-robin. Returns the leaf's id.
    TaskId add(std::function<void()> fn, std::size_t affinity = kAnyWorker);

    /// Adds a join that retires the instant the last leaf in `deps`
    /// does (at once when `deps` is empty); it runs nothing and counts
    /// as no executed task. Throws std::invalid_argument when an entry
    /// of `deps` is not an existing leaf of this graph or is already
    /// gathered by a join.
    TaskId add_join(std::vector<TaskId> deps);

    /// Number of nodes added so far.
    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

    /// Pre-sizes the node table (parallel_for knows its n up front).
    void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

   private:
    friend class Executor;
    friend struct detail::GraphState;
    static constexpr TaskId kNoJoin = static_cast<TaskId>(-1);
    struct Node {
      std::function<void()> fn;  // empty for a join
      std::size_t affinity = kAnyWorker;
      TaskId join = kNoJoin;  // leaf: the join its retirement counts down
      std::size_t leaves = 0;  // join: leaves it waits for
    };
    std::vector<Node> nodes_;
  };

  /// Handle to one submitted graph. wait()/wait_all() block until the
  /// named node (or the whole graph) retires, executing pending tasks
  /// from the pool while they wait, so a submitter can never deadlock
  /// the pool it is waiting on. The destructor waits for the whole
  /// graph (tasks reference caller-owned state), swallowing errors;
  /// call wait_all() first to observe task exceptions.
  class GraphRun {
   public:
    GraphRun() noexcept = default;
    ~GraphRun();

    GraphRun(GraphRun&& other) noexcept = default;
    GraphRun& operator=(GraphRun&& other) noexcept;
    GraphRun(const GraphRun&) = delete;
    GraphRun& operator=(const GraphRun&) = delete;

    /// True once `node` has retired (a leaf's body ran; every leaf of
    /// a join retired).
    [[nodiscard]] bool done(TaskId node) const noexcept;

    /// Blocks until `node` retires, helping execute pending tasks.
    /// Does not rethrow task exceptions (wait_all does).
    void wait(TaskId node);

    /// Blocks until every node retired, then rethrows the first task
    /// exception (in completion order), if any.
    void wait_all();

   private:
    friend class Executor;
    explicit GraphRun(std::shared_ptr<detail::GraphState> state) noexcept
        : state_(std::move(state)) {}
    std::shared_ptr<detail::GraphState> state_;
  };

  /// Spawns `threads` workers (0 = std::thread::hardware_concurrency,
  /// at least 1). Workers live until destruction. Every GraphRun must
  /// be destroyed before its Executor.
  explicit Executor(std::size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Submits `graph` for execution and returns its run handle. Every
  /// leaf is queued immediately; joins retire as their leaves do. Safe
  /// to call from multiple threads at once (the rings are MPMC),
  /// including from inside another graph's task.
  [[nodiscard]] GraphRun submit_graph(TaskGraph&& graph);

  /// Runs fn(0) .. fn(n-1) across the workers and blocks until all
  /// complete. If any task throws, the first exception (in completion
  /// order) is rethrown after the remaining tasks finish. Thin adapter
  /// over submit_graph: one leaf per index, one wait_all.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// A chunk size for cutting n indices into leaves, balancing dispatch
  /// overhead against steal granularity: ~8 chunks per worker, capped
  /// at 1024 indices.
  [[nodiscard]] std::size_t suggested_grain(std::size_t n) const noexcept;

  /// Attaches (or, with nullptr, detaches) a telemetry sink. While
  /// attached, every parallel_for records a kExecutorDispatch span,
  /// and every graph flushes its task/steal activity when its
  /// submitter finishes waiting. Call only between submissions —
  /// typically via ExecutorTelemetryScope for one engine run.
  void set_telemetry(telemetry::Collector* collector) noexcept;

 private:
  friend struct detail::GraphState;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII attach/detach of a telemetry sink to an Executor for the
/// duration of one engine run (detaches even on exception so a dead
/// Collector is never left wired into a long-lived executor).
class ExecutorTelemetryScope {
 public:
  ExecutorTelemetryScope(Executor& executor,
                         telemetry::Collector* collector) noexcept
      : executor_(executor) {
    executor_.set_telemetry(collector);
  }
  ~ExecutorTelemetryScope() { executor_.set_telemetry(nullptr); }

  ExecutorTelemetryScope(const ExecutorTelemetryScope&) = delete;
  ExecutorTelemetryScope& operator=(const ExecutorTelemetryScope&) = delete;

 private:
  Executor& executor_;
};

}  // namespace han::fleet
