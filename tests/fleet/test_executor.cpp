// Executor: completeness, reuse, imbalance (stealing), exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fleet/executor.hpp"

namespace han::fleet {
namespace {

TEST(Executor, RunsEveryIndexExactlyOnce) {
  Executor ex(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ex.parallel_for(kN, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Executor, ZeroTasksIsANoOp) {
  Executor ex(2);
  ex.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(Executor, FewerTasksThanThreads) {
  Executor ex(8);
  std::atomic<int> ran{0};
  ex.parallel_for(3, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(Executor, SingleThreadExecutesAll) {
  Executor ex(1);
  EXPECT_EQ(ex.thread_count(), 1u);
  std::atomic<int> ran{0};
  ex.parallel_for(64, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(Executor, PoolIsReusableAcrossCalls) {
  Executor ex(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    ex.parallel_for(17, [&ran](std::size_t) { ++ran; });
    ASSERT_EQ(ran.load(), 17) << "round " << round;
  }
}

TEST(Executor, UnbalancedTasksAllComplete) {
  // One task is 100x the others; stealing must drain the rest anyway.
  Executor ex(4);
  std::atomic<int> ran{0};
  ex.parallel_for(40, [&ran](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 50 : 1));
    ++ran;
  });
  EXPECT_EQ(ran.load(), 40);
}

TEST(Executor, FirstExceptionPropagates) {
  Executor ex(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ex.parallel_for(32,
                      [&ran](std::size_t i) {
                        ++ran;
                        if (i == 7) throw std::runtime_error("task 7 failed");
                      }),
      std::runtime_error);
  // Remaining tasks still execute (the pool is not poisoned).
  EXPECT_EQ(ran.load(), 32);
  ran = 0;
  ex.parallel_for(8, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(Executor, DefaultThreadCountIsPositive) {
  Executor ex;
  EXPECT_GE(ex.thread_count(), 1u);
}

// --- task-graph API basics (the per-shard join machinery the engine's
// barrier schedulers are built on; stress lives in test_executor_stress).

TEST(Executor, GraphRunsNodesInDependencyOrder) {
  // A join retires only after its leaf ran: the leaf's write is
  // visible to the thread that waited on the join.
  Executor ex(4);
  std::atomic<int> stage{0};
  Executor::TaskGraph graph;
  const auto a = graph.add([&stage]() {
    int expected = 0;
    EXPECT_TRUE(stage.compare_exchange_strong(expected, 1));
  });
  const auto b = graph.add_join({a});
  auto run = ex.submit_graph(std::move(graph));
  run.wait(b);
  EXPECT_TRUE(run.done(a));
  EXPECT_TRUE(run.done(b));
  EXPECT_EQ(stage.load(), 1);
  run.wait_all();
}

TEST(Executor, PureJoinRetiresWhenDependenciesDo) {
  Executor ex(2);
  std::atomic<int> ran{0};
  Executor::TaskGraph graph;
  std::vector<Executor::TaskId> deps;
  for (std::size_t i = 0; i < 8; ++i) {
    deps.push_back(graph.add([&ran]() { ++ran; }, /*affinity=*/i));
  }
  const auto join = graph.add_join(deps);  // bodiless
  auto run = ex.submit_graph(std::move(graph));
  run.wait(join);
  EXPECT_EQ(ran.load(), 8);
  run.wait_all();
}

TEST(Executor, EmptyGraphCompletesImmediately) {
  Executor ex(2);
  auto run = ex.submit_graph(Executor::TaskGraph{});
  run.wait_all();  // must not hang
}

TEST(Executor, EmptyJoinRetiresAtSubmit) {
  // A feeder shard with no premises still gets a join; it has nothing
  // to wait for.
  Executor ex(2);
  Executor::TaskGraph graph;
  const auto join = graph.add_join({});
  auto run = ex.submit_graph(std::move(graph));
  EXPECT_TRUE(run.done(join));
  run.wait_all();
}

TEST(Executor, JoinOfJoinAndDoubleJoinAreRejected) {
  // A join gathers existing leaves only, and each leaf at most once.
  Executor::TaskGraph graph;
  const auto a = graph.add([]() {});
  const auto b = graph.add([]() {});
  EXPECT_THROW(graph.add_join({a + 2}), std::invalid_argument);  // no node
  EXPECT_THROW(graph.add_join({a, a}), std::invalid_argument);   // repeat
  const auto j = graph.add_join({a});
  EXPECT_THROW(graph.add_join({j}), std::invalid_argument);     // join of join
  EXPECT_THROW(graph.add_join({b, a}), std::invalid_argument);  // a joined
  EXPECT_THROW(graph.add(nullptr), std::invalid_argument);      // no body
  // Rejected joins claimed nothing: b is still free to join.
  const auto k = graph.add_join({b});
  EXPECT_EQ(graph.size(), 4u);

  Executor ex(2);
  auto run = ex.submit_graph(std::move(graph));
  run.wait_all();
  EXPECT_TRUE(run.done(j));
  EXPECT_TRUE(run.done(k));
}

}  // namespace
}  // namespace han::fleet
