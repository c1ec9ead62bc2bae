// Executor stress suite — the ThreadSanitizer workload.
//
// The plain executor tests prove functional properties at friendly
// sizes; this suite drives the concurrency machinery hard enough that
// TSan can observe the interesting interleavings: steal storms (tasks
// far cheaper than the dispatch path, so workers spend their time in
// the victim-scan), nested fan-out (outer parallel_for workers
// submitting chunk graphs to an inner pool, exercising concurrent
// submissions into the MPMC rings), exception propagation
// racing normal completion, telemetry attach/flush from many workers,
// and the task-graph machinery itself: per-shard join independence (a
// stalled shard must not hold up another shard's join), graph
// submission races from raw threads, and exceptions crossing join
// nodes.
//
// Run it under -fsanitize=thread (the tsan CI job does); it also runs
// in the ordinary suites as a plain correctness test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fleet/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace han::fleet {
namespace {

/// The engine's barrier shape on one shard: fn(begin, end) over
/// `grain`-sized chunks of [0, n) as leaves under one join. Waits on
/// the join, then surfaces the first chunk exception via wait_all.
void run_chunks(Executor& ex, std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  Executor::TaskGraph graph;
  std::vector<Executor::TaskId> chunks;
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const std::size_t end = std::min(n, begin + grain);
    chunks.push_back(graph.add([&fn, begin, end]() { fn(begin, end); }));
  }
  const Executor::TaskId join = graph.add_join(std::move(chunks));
  Executor::GraphRun run = ex.submit_graph(std::move(graph));
  run.wait(join);
  run.wait_all();
}

TEST(ExecutorStress, StealStormTinyTasks) {
  // 20k near-empty tasks on 4 workers: the deal is round-robin, so
  // every worker constantly exhausts its own deque and scans victims.
  Executor ex(4);
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<std::uint8_t>> hits(kN);
  for (int round = 0; round < 5; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ex.parallel_for(kN, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " index " << i;
    }
  }
}

TEST(ExecutorStress, StealStormSkewedCosts) {
  // The first shard gets all the expensive tasks (indices are dealt
  // round-robin, and cost here is keyed on index % workers), so the
  // other workers must steal nearly everything they run.
  Executor ex(4);
  constexpr std::size_t kN = 4000;
  std::atomic<std::uint64_t> sum{0};
  ex.parallel_for(kN, [&sum](std::size_t i) {
    if (i % 4 == 0) {
      volatile std::uint64_t burn = 0;
      for (int k = 0; k < 2000; ++k) burn += static_cast<std::uint64_t>(k);
    }
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ExecutorStress, NestedRangesThroughInnerPool) {
  // Outer workers concurrently submit chunk graphs to a shared inner
  // executor. The MPMC rings must absorb the concurrent
  // submissions and every (outer, inner) cell must be visited exactly
  // once.
  Executor outer(4);
  Executor inner(3);
  static constexpr std::size_t kOuter = 12;
  static constexpr std::size_t kInner = 512;
  std::vector<std::atomic<std::uint8_t>> cells(kOuter * kInner);
  outer.parallel_for(kOuter, [&](std::size_t o) {
    run_chunks(
        inner, kInner, inner.suggested_grain(kInner),
        [&cells, o](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            cells[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
          }
        });
  });
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ASSERT_EQ(cells[c].load(), 1u) << "cell " << c;
  }
}

TEST(ExecutorStress, ConcurrentSubmittersOneExecutor) {
  // Raw std::threads racing to submit to one executor. The documented
  // contract is that concurrent submissions are safe (the rings are
  // MPMC); under TSan this is the test that would expose a
  // submit-path race.
  Executor ex(4);
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kPerSubmit = 1000;
  std::vector<std::atomic<std::uint32_t>> counts(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&ex, &counts, s]() {
      for (int round = 0; round < 3; ++round) {
        run_chunks(
            ex, kPerSubmit, 64, [&counts, s](std::size_t begin, std::size_t end) {
              counts[s].fetch_add(static_cast<std::uint32_t>(end - begin),
                                  std::memory_order_relaxed);
            });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(counts[s].load(), 3u * kPerSubmit) << "submitter " << s;
  }
}

TEST(ExecutorStress, ExceptionStormFirstWinsRestComplete) {
  // Many tasks throw concurrently; exactly one exception propagates,
  // every task still runs, and the pool survives for the next job.
  Executor ex(4);
  constexpr std::size_t kN = 2000;
  std::atomic<std::uint32_t> ran{0};
  for (int round = 0; round < 3; ++round) {
    ran.store(0);
    EXPECT_THROW(
        ex.parallel_for(kN,
                        [&ran](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i % 7 == 0) {
                            throw std::runtime_error("deliberate");
                          }
                        }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), kN) << "round " << round;
  }
  ran.store(0);
  ex.parallel_for(64, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ExecutorStress, ExceptionInsideRangesBlock) {
  Executor ex(3);
  std::atomic<std::uint32_t> visited{0};
  EXPECT_THROW(run_chunks(
                   ex, 1000, 32,
                   [&visited](std::size_t begin, std::size_t end) {
                     visited.fetch_add(
                         static_cast<std::uint32_t>(end - begin),
                         std::memory_order_relaxed);
                     if (begin == 0) throw std::logic_error("block 0");
                   }),
               std::logic_error);
  EXPECT_EQ(visited.load(), 1000u);
}

TEST(ExecutorStress, TelemetryFlushFromAllWorkers) {
  // Every worker flushes its per-job activity into the shared Collector
  // (relaxed atomics); totals must still be exact, and TSan must see no
  // race between worker flushes and the submitter reading afterwards.
  Executor ex(4);
  telemetry::Collector collector;
  constexpr std::size_t kN = 5000;
  {
    ExecutorTelemetryScope scope(ex, &collector);
    for (int round = 0; round < 4; ++round) {
      ex.parallel_for(kN, [](std::size_t) {});
    }
  }
  const telemetry::ExecutorActivity activity = collector.executor_activity();
  EXPECT_EQ(activity.parallel_for_calls, 4u);
  EXPECT_EQ(activity.tasks, 4u * kN);
}

TEST(ExecutorStress, RapidJobTurnover) {
  // Many minimal jobs back to back: exercises the retire/wake handshake
  // (graph retirement, done_cv/sleep_cv) more than any single job does.
  Executor ex(4);
  std::atomic<std::uint32_t> ran{0};
  for (int round = 0; round < 500; ++round) {
    ex.parallel_for(4, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), 2000u);
}

// --- task-graph stress -------------------------------------------------

TEST(ExecutorStress, GraphPerShardJoinIndependence) {
  // The engine-shaped graph: per-shard leaf tasks gated by one join
  // per shard. Shard B contains a task that blocks until released;
  // shard A's join must retire anyway — the whole point of per-shard
  // joins is that feeder A's control decision does not stall behind
  // feeder B's biggest home.
  Executor ex(2);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<int> a_ran{0};
  std::atomic<int> b_ran{0};

  Executor::TaskGraph graph;
  std::vector<Executor::TaskId> shard_a;
  std::vector<Executor::TaskId> shard_b;
  for (int i = 0; i < 8; ++i) {
    shard_a.push_back(graph.add([&a_ran]() { ++a_ran; }, /*affinity=*/0));
  }
  shard_b.push_back(graph.add(
      [&entered, &release, &b_ran]() {
        entered.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        ++b_ran;
      },
      /*affinity=*/1));
  for (int i = 0; i < 4; ++i) {
    shard_b.push_back(graph.add([&b_ran]() { ++b_ran; }, /*affinity=*/1));
  }
  const auto join_a = graph.add_join(shard_a);
  const auto join_b = graph.add_join(shard_b);
  auto run = ex.submit_graph(std::move(graph));

  // Wait until a WORKER owns the blocking task before this thread
  // starts helping: wait(join_a) executes pending tasks itself, and
  // picking up the blocker here would deadlock the release below.
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  run.wait(join_a);
  EXPECT_EQ(a_ran.load(), 8);
  EXPECT_TRUE(run.done(join_a));
  EXPECT_FALSE(run.done(join_b)) << "join B retired while its task blocked";

  release.store(true, std::memory_order_release);
  run.wait(join_b);
  EXPECT_EQ(b_ran.load(), 5);
  run.wait_all();
}

TEST(ExecutorStress, ConcurrentGraphSubmissions) {
  // Raw threads racing whole graphs (leaves + join) into one executor.
  // Once a graph's join retires, its submitter must observe all of its
  // own leaves and nothing else; totals must be exact.
  Executor ex(4);
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kLeaves = 64;
  constexpr int kRounds = 20;
  std::vector<std::atomic<std::uint32_t>> joined(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&ex, &joined, s]() {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<std::uint32_t> leaves_run{0};
        Executor::TaskGraph graph;
        std::vector<Executor::TaskId> leaves;
        leaves.reserve(kLeaves);
        for (std::size_t i = 0; i < kLeaves; ++i) {
          leaves.push_back(graph.add(
              [&leaves_run]() {
                leaves_run.fetch_add(1, std::memory_order_relaxed);
              },
              /*affinity=*/i % 4));
        }
        const auto join = graph.add_join(leaves);
        auto run = ex.submit_graph(std::move(graph));
        run.wait(join);
        // The join retired after every leaf did, so the leaf count must
        // already be complete here.
        joined[s].fetch_add(leaves_run.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        run.wait_all();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(joined[s].load(), kRounds * kLeaves) << "submitter " << s;
  }
}

TEST(ExecutorStress, ExceptionThroughJoinNodes) {
  // A leaf throws. Errors do not cancel the graph: the remaining
  // leaves still run and the join still retires (the engine's control
  // plane depends on joins always retiring), and wait_all() rethrows
  // the first error afterwards. The pool survives for the next graph.
  Executor ex(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::uint32_t> ran{0};
    Executor::TaskGraph graph;
    std::vector<Executor::TaskId> leaves;
    for (std::size_t i = 0; i < 256; ++i) {
      leaves.push_back(graph.add([&ran, i]() {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 31 == 0) throw std::runtime_error("leaf failed");
      }));
    }
    const auto join = graph.add_join(leaves);
    auto run = ex.submit_graph(std::move(graph));
    run.wait(join);  // wait() observes completion, not errors
    EXPECT_TRUE(run.done(join));
    EXPECT_EQ(ran.load(), 256u) << "round " << round;
    EXPECT_THROW(run.wait_all(), std::runtime_error);
  }
  std::atomic<std::uint32_t> ran{0};
  ex.parallel_for(64, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 64u);
}

}  // namespace
}  // namespace han::fleet
