#include "fleet/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace han::fleet {

namespace detail {

// A scheduled unit: leaf `node` of graph `graph`, held by value in the
// ring cells. The raw pointer is safe because GraphState::self (dropped
// only when the last node retires) and the submitter's GraphRun both
// hold shared ownership, so a graph outlives every queued task.
struct QueuedTask {
  GraphState* graph = nullptr;
  std::uint32_t node = 0;
};

// Bounded lockless MPMC ring (per-cell sequence numbers): each cell's
// sequence encodes whether it is ready for the next push or the next
// pop, so producers and consumers synchronize on one CAS over their
// position counter plus one release store per cell — no locks, no
// per-operation allocation. A full ring rejects the push (the caller
// falls back to another ring or runs the task inline), so the queue
// never blocks and never grows.
class TaskRing {
 public:
  // 4096 slots/worker: deep enough that chunked premise graphs at
  // engine grain sizes never spill, small enough that a pool of rings
  // stays cache-resident. Must be a power of two for the mask.
  static constexpr std::size_t kCapacity = 4096;

  TaskRing() {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  TaskRing(const TaskRing&) = delete;
  TaskRing& operator=(const TaskRing&) = delete;

  // False when the ring is full (caller must place the task elsewhere).
  bool push(QueuedTask task) noexcept {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & kMask];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.task = task;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: a whole lap of consumers is outstanding
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  // False when the ring is empty.
  bool pop(QueuedTask& out) noexcept {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & kMask];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = cell.task;
          cell.seq.store(pos + kMask + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  static constexpr std::size_t kMask = kCapacity - 1;
  static_assert((kCapacity & kMask) == 0, "capacity must be a power of two");

  struct Cell {
    std::atomic<std::size_t> seq{0};
    QueuedTask task;
  };

  Cell cells_[kCapacity];
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

// Runtime state of one submitted graph. The node/state vectors are
// sized once at submit and never move afterwards, so workers index
// them freely while only the atomics mutate.
struct GraphState {
  struct NodeState {
    std::atomic<std::size_t> pending{0};  // join: unretired leaves
    std::atomic<bool> done{false};
  };

  explicit GraphState(std::vector<Executor::TaskGraph::Node>&& graph_nodes)
      : nodes(std::move(graph_nodes)), states(nodes.size()) {}

  std::vector<Executor::TaskGraph::Node> nodes;
  std::vector<NodeState> states;
  std::atomic<std::size_t> unfinished{0};

  // First task exception wins (completion order); rethrown by the
  // submitter in wait_all().
  std::mutex error_mutex;
  std::exception_ptr error;

  // Sleep channel for threads blocked in wait()/wait_all() once they
  // run out of tasks to help with. `waiters` gates the notify so the
  // uncontended retire path never touches the mutex.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::atomic<int> waiters{0};

  // Scheduling-activity tallies, flushed into `tel` exactly once by
  // the submitter thread (wait_all or GraphRun destruction).
  telemetry::Collector* tel = nullptr;
  std::atomic<std::uint64_t> tasks_run{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> flushed{false};

  // Keeps the graph alive until its last node retires even if the
  // GraphRun handle is destroyed mid-flight; the thread that retires
  // the final node drops it after the last notify.
  std::shared_ptr<GraphState> self;

  Executor::Impl* impl = nullptr;
};

}  // namespace detail

namespace {

std::size_t resolve_thread_count(std::size_t threads) {
  // A wildly large request is a caller bug (e.g. a negative count pushed
  // through size_t); fail loudly instead of dying inside std::vector.
  constexpr std::size_t kMaxThreads = 4096;
  if (threads > kMaxThreads) {
    throw std::invalid_argument("Executor: thread count too large");
  }
  if (threads > 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// One-shot flush of a graph's scheduling tallies into its collector.
// Runs on the submitter thread; idempotent via the exchange so the
// GraphRun destructor after a wait_all() doesn't double-count.
void flush_activity(detail::GraphState& g) {
  if (g.tel == nullptr) return;
  if (g.flushed.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t tasks = g.tasks_run.load(std::memory_order_relaxed);
  if (tasks != 0) {
    g.tel->add_executor_activity(tasks,
                                 g.steals.load(std::memory_order_relaxed));
  }
}

}  // namespace

struct Executor::Impl {
  explicit Impl(std::size_t threads)
      : width(resolve_thread_count(threads)),
        rings(std::make_unique<detail::TaskRing[]>(width)) {
    workers.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      workers.emplace_back([this, w]() { worker_loop(w); });
    }
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(sleep_mutex);
      shutdown.store(true, std::memory_order_seq_cst);
    }
    sleep_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  // --- task intake ----------------------------------------------------

  // Queues `task`, preferring ring `hint` (affinity or round-robin
  // deal). When every ring is full the task runs on the calling thread
  // instead: progress stays guaranteed and memory bounded, and since a
  // queued task never depends on an unqueued one, inline execution
  // cannot deadlock.
  void dispatch(detail::QueuedTask task, std::size_t hint) {
    const std::size_t start = hint % width;
    for (std::size_t off = 0; off < width; ++off) {
      if (rings[(start + off) % width].push(task)) {
        wake_workers();
        return;
      }
    }
    execute(task, /*stolen=*/false);
  }

  // --- execution ------------------------------------------------------

  // Runs one leaf's body and retires it. `stolen` is true when the
  // task was popped from a ring other than the executing worker's own.
  void execute(const detail::QueuedTask& task, bool stolen) {
    detail::GraphState& g = *task.graph;
    try {
      g.nodes[task.node].fn();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(g.error_mutex);
      if (!g.error) g.error = std::current_exception();
    }
    if (g.tel != nullptr) {
      g.tasks_run.fetch_add(1, std::memory_order_relaxed);
      if (stolen) g.steals.fetch_add(1, std::memory_order_relaxed);
    }
    retire(g, task.node);
  }

  // Marks `node` done and wakes any thread waiting on it.
  static void mark_done(detail::GraphState& g, std::size_t node) {
    g.states[node].done.store(true, std::memory_order_seq_cst);
    if (g.waiters.load(std::memory_order_seq_cst) > 0) {
      { const std::lock_guard<std::mutex> lock(g.done_mutex); }
      g.done_cv.notify_all();
    }
  }

  // Retires `node` — a leaf whose body ran, or a join with no leaves —
  // counts down the latch of the leaf's join (retiring the join when it
  // reaches zero), and releases the graph when this was the last node.
  // `g` may be destroyed by the time this returns.
  static void retire(detail::GraphState& g, std::size_t node) {
    mark_done(g, node);
    std::size_t retired = 1;
    const std::size_t join = g.nodes[node].join;
    if (join != TaskGraph::kNoJoin &&
        g.states[join].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      mark_done(g, join);
      ++retired;
    }
    if (g.unfinished.fetch_sub(retired, std::memory_order_acq_rel) ==
        retired) {
      // Last node: wake waiters unconditionally (wait_all predicates
      // watch `unfinished`), then drop the graph's self-reference.
      { const std::lock_guard<std::mutex> lock(g.done_mutex); }
      g.done_cv.notify_all();
      const std::shared_ptr<detail::GraphState> release = std::move(g.self);
    }
  }

  // Pops and runs one task on behalf of worker `wid` (own ring first,
  // then steal). Returns false when every ring came up empty.
  bool run_one(std::size_t wid) {
    detail::QueuedTask task;
    if (rings[wid].pop(task)) {
      execute(task, /*stolen=*/false);
      return true;
    }
    for (std::size_t off = 1; off < width; ++off) {
      if (rings[(wid + off) % width].pop(task)) {
        execute(task, /*stolen=*/true);
        return true;
      }
    }
    return false;
  }

  // Same, for non-worker threads helping while they wait. No home
  // ring, so scan from a rotating start; helped tasks count as plain
  // tasks, not steals (the submitter is doing its own graph's work).
  bool help_one() {
    const std::size_t start =
        help_rr.fetch_add(1, std::memory_order_relaxed) % width;
    detail::QueuedTask task;
    for (std::size_t off = 0; off < width; ++off) {
      if (rings[(start + off) % width].pop(task)) {
        execute(task, /*stolen=*/false);
        return true;
      }
    }
    return false;
  }

  // Blocks until `pred()` holds, helping execute queued tasks while
  // any are available and parking on the graph's condvar otherwise.
  // The pre-wait recheck under the mutex plus the seq_cst done-store /
  // waiters-load pairing in retire() closes the missed-wakeup window.
  template <typename Pred>
  void wait_helping(detail::GraphState& g, Pred pred) {
    for (;;) {
      if (pred()) return;
      if (help_one()) continue;
      std::unique_lock<std::mutex> lock(g.done_mutex);
      if (pred()) return;
      g.waiters.fetch_add(1, std::memory_order_seq_cst);
      g.done_cv.wait(lock, pred);
      g.waiters.fetch_sub(1, std::memory_order_seq_cst);
      return;
    }
  }

  // --- worker parking -------------------------------------------------

  void wake_workers() {
    work_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      { const std::lock_guard<std::mutex> lock(sleep_mutex); }
      sleep_cv.notify_all();
    }
  }

  void worker_loop(std::size_t wid) {
    for (;;) {
      // Snapshot the epoch BEFORE scanning: a push landing after the
      // scan bumps the epoch, so the wait predicate sees a changed
      // epoch and skips the sleep (no missed wakeup).
      const std::uint64_t epoch = work_epoch.load(std::memory_order_seq_cst);
      if (run_one(wid)) continue;
      if (shutdown.load(std::memory_order_seq_cst)) return;
      std::unique_lock<std::mutex> lock(sleep_mutex);
      sleepers.fetch_add(1, std::memory_order_seq_cst);
      sleep_cv.wait(lock, [this, epoch]() {
        return shutdown.load(std::memory_order_seq_cst) ||
               work_epoch.load(std::memory_order_seq_cst) != epoch;
      });
      sleepers.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  const std::size_t width;
  std::unique_ptr<detail::TaskRing[]> rings;
  std::vector<std::thread> workers;

  std::atomic<std::size_t> deal_rr{0};  // round-robin placement of leaves
  std::atomic<std::size_t> help_rr{0};  // rotating start for helpers

  std::atomic<std::uint64_t> work_epoch{0};
  std::atomic<int> sleepers{0};
  std::atomic<bool> shutdown{false};
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;

  /// Atomic so submit_graph may read it while another thread swaps
  /// sinks between runs; set_telemetry's contract (call between
  /// submissions) keeps the value stable for any one graph.
  std::atomic<telemetry::Collector*> telemetry{nullptr};
};

// --- TaskGraph --------------------------------------------------------

Executor::TaskId Executor::TaskGraph::add(std::function<void()> fn,
                                          std::size_t affinity) {
  if (!fn) throw std::invalid_argument("TaskGraph: a leaf needs a body");
  nodes_.push_back(Node{std::move(fn), affinity, kNoJoin, 0});
  return nodes_.size() - 1;
}

Executor::TaskId Executor::TaskGraph::add_join(std::vector<TaskId> deps) {
  const TaskId id = nodes_.size();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const TaskId dep = deps[i];
    const char* why =
        dep >= id                     ? " gathers nonexistent node "
        : !nodes_[dep].fn             ? " gathers join "
        : nodes_[dep].join != kNoJoin ? " gathers already-joined leaf "
                                      : nullptr;
    if (why != nullptr) {
      // Release the leaves claimed so far: a rejected join leaves the
      // graph as it was.
      for (std::size_t j = 0; j < i; ++j) nodes_[deps[j]].join = kNoJoin;
      throw std::invalid_argument("TaskGraph: join " + std::to_string(id) +
                                  why + std::to_string(dep));
    }
    nodes_[dep].join = id;  // a repeat within `deps` now reads as joined
  }
  nodes_.push_back(Node{nullptr, kAnyWorker, kNoJoin, deps.size()});
  return id;
}

// --- GraphRun ---------------------------------------------------------

namespace {

// Blocks until every node of `g` retired, helping meanwhile, then
// flushes its scheduling tallies.
void drain(detail::GraphState& g) {
  g.impl->wait_helping(g, [&g]() {
    return g.unfinished.load(std::memory_order_seq_cst) == 0;
  });
  flush_activity(g);
}

}  // namespace

Executor::GraphRun::~GraphRun() {
  if (state_) drain(*state_);
}

Executor::GraphRun& Executor::GraphRun::operator=(GraphRun&& other) noexcept {
  if (this != &other) {
    if (state_) drain(*state_);
    state_ = std::move(other.state_);
  }
  return *this;
}

bool Executor::GraphRun::done(TaskId node) const noexcept {
  return state_ != nullptr &&
         state_->states[node].done.load(std::memory_order_seq_cst);
}

void Executor::GraphRun::wait(TaskId node) {
  if (!state_) return;
  state_->impl->wait_helping(*state_, [g = state_.get(), node]() {
    return g->states[node].done.load(std::memory_order_seq_cst);
  });
}

void Executor::GraphRun::wait_all() {
  if (!state_) return;
  drain(*state_);
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(state_->error_mutex);
    error = state_->error;
  }
  if (error) std::rethrow_exception(error);
}

// --- Executor ---------------------------------------------------------

Executor::Executor(std::size_t threads)
    : impl_(std::make_unique<Impl>(threads)) {}

Executor::~Executor() = default;

std::size_t Executor::thread_count() const noexcept { return impl_->width; }

void Executor::set_telemetry(telemetry::Collector* collector) noexcept {
  impl_->telemetry.store(collector, std::memory_order_release);
}

Executor::GraphRun Executor::submit_graph(TaskGraph&& graph) {
  auto state = std::make_shared<detail::GraphState>(std::move(graph.nodes_));
  detail::GraphState& g = *state;
  g.impl = impl_.get();
  g.tel = impl_->telemetry.load(std::memory_order_acquire);
  const std::size_t n = g.nodes.size();
  if (n == 0) return GraphRun(std::move(state));

  g.unfinished.store(n, std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    g.states[i].pending.store(g.nodes[i].leaves, std::memory_order_relaxed);
  }
  g.self = state;

  // Queue every leaf; a join with no leaves has nothing to wait for and
  // retires in place. Retirements may start concurrently with this
  // loop — safe, because everything workers touch was initialized above
  // and the GraphRun's shared_ptr keeps the graph alive even if the
  // last node retires (and releases `self`) before we return.
  for (std::size_t i = 0; i < n; ++i) {
    const TaskGraph::Node& node = g.nodes[i];
    if (node.fn) {
      const std::size_t hint =
          node.affinity == kAnyWorker
              ? impl_->deal_rr.fetch_add(1, std::memory_order_relaxed)
              : node.affinity;
      impl_->dispatch({&g, static_cast<std::uint32_t>(i)}, hint);
    } else if (node.leaves == 0) {
      Impl::retire(g, i);
    }
  }
  return GraphRun(std::move(state));
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  telemetry::Collector* const tel =
      impl_->telemetry.load(std::memory_order_acquire);
  if (tel != nullptr) tel->count_parallel_for();
  telemetry::Span dispatch(tel, telemetry::Phase::kExecutorDispatch);

  TaskGraph graph;
  graph.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    graph.add([&fn, i]() { fn(i); });
  }
  GraphRun run = submit_graph(std::move(graph));
  run.wait_all();
}

std::size_t Executor::suggested_grain(std::size_t n) const noexcept {
  return std::clamp<std::size_t>(n / (impl_->width * 8), 1, 1024);
}

}  // namespace han::fleet
