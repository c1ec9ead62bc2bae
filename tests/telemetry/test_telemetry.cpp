// han::telemetry — collector semantics, manifest/trace export, and the
// engine-facing guarantees the ISSUE pins: deterministic counters are
// byte-identical across executor widths and mirror GridFleetResult
// exactly, instrumented runs leave every simulation output unchanged,
// and the exclusive phases partition the run's wall clock.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/scenario.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace han::telemetry {
namespace {

// --------------------------------------------------------------------
// Collector unit tests
// --------------------------------------------------------------------

TEST(Collector, RecordSpanAggregatesExactly) {
  Collector c;
  c.record_span(Phase::kBarrierCommit, 100);
  c.record_span(Phase::kBarrierCommit, 250);
  c.record_span(Phase::kBarrierCommit, 50);
  const PhaseStats s = c.phase(Phase::kBarrierCommit);
  EXPECT_EQ(s.calls, 3u);
  EXPECT_EQ(s.total_ns, 400u);
  EXPECT_EQ(s.max_ns, 250u);
  // Untouched phases stay zero.
  EXPECT_EQ(c.phase(Phase::kBoot).calls, 0u);
}

TEST(Collector, NullSpanRecordsNothing) {
  {
    Span span(nullptr, Phase::kBarrierCommit);
    span.finish();  // idempotent on the null path too
  }
  // Enabled span records exactly once even with finish() + destructor.
  Collector c;
  {
    Span span(&c, Phase::kAggregate);
    span.finish();
  }
  EXPECT_EQ(c.phase(Phase::kAggregate).calls, 1u);
}

TEST(Collector, DisabledSpanIsCheap) {
  // The engine leaves spans on the barrier hot path unconditionally,
  // so the null-collector constructor must never read a clock. Bound:
  // 1e6 disabled spans in well under the time 1e6 clock reads take.
  // The limit is deliberately generous (debug builds, CI noise) —
  // bench_micro carries the precise numbers.
  constexpr int kIters = 1000000;
  const std::uint64_t t0 = Collector::now_ns();
  for (int i = 0; i < kIters; ++i) {
    Span span(nullptr, Phase::kBarrierCommit);
    // The span is dead here; the optimizer may drop it entirely, which
    // is exactly the production behavior being pinned.
  }
  const std::uint64_t disabled_ns = Collector::now_ns() - t0;
  EXPECT_LT(disabled_ns / kIters, 200u) << "null span too slow";
}

TEST(Collector, CountersAreInsertionOrderedAndLastWriteWins) {
  Collector c;
  c.count("beta");
  c.count("alpha", 5);
  c.count("beta", 2);
  c.set_counter("gamma", 7);
  c.set_counter("alpha", 9);
  ASSERT_EQ(c.counters().size(), 3u);
  EXPECT_EQ(c.counters()[0].first, "beta");
  EXPECT_EQ(c.counters()[1].first, "alpha");
  EXPECT_EQ(c.counters()[2].first, "gamma");
  EXPECT_EQ(c.counter("beta"), 3u);
  EXPECT_EQ(c.counter("alpha"), 9u);
  EXPECT_EQ(c.counter("gamma"), 7u);
  EXPECT_EQ(c.counter("never_touched"), 0u);
}

TEST(Collector, MetaTracksNumericKeys) {
  Collector c;
  c.set_meta("binary", "test");
  c.set_meta_num("seed", 42);
  EXPECT_FALSE(c.meta_is_numeric("binary"));
  EXPECT_TRUE(c.meta_is_numeric("seed"));
  ASSERT_EQ(c.meta().size(), 2u);
  EXPECT_EQ(c.meta()[0].first, "binary");
}

TEST(Collector, PhasePartitionIsComplete) {
  // Every phase before kRunTotal is classified, kRunTotal is neither
  // exclusive nor nested-only, and every phase has a distinct name.
  std::vector<std::string_view> names;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    names.push_back(phase_name(p));
    EXPECT_FALSE(phase_name(p).empty());
  }
  EXPECT_FALSE(phase_is_exclusive(Phase::kRunTotal));
  EXPECT_FALSE(phase_is_exclusive(Phase::kExecutorDispatch));
  EXPECT_TRUE(phase_is_exclusive(Phase::kBarrierAdvance));
  EXPECT_TRUE(phase_is_exclusive(Phase::kAggregate));
  EXPECT_TRUE(phase_is_exclusive(Phase::kReport));
  EXPECT_EQ(phase_name(Phase::kReport), "report");
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(Export, JsonValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_is_valid("{}"));
  EXPECT_TRUE(json_is_valid(R"({"a": [1, 2.5, -3e4], "b": {"c": null}})"));
  EXPECT_TRUE(json_is_valid(R"(["x", true, false])"));
  EXPECT_FALSE(json_is_valid(""));
  EXPECT_FALSE(json_is_valid("{"));
  EXPECT_FALSE(json_is_valid("{} trailing"));
  EXPECT_FALSE(json_is_valid(R"({"a": })"));
  EXPECT_FALSE(json_is_valid(R"({"a": 1,})"));
}

// --------------------------------------------------------------------
// Engine-facing guarantees
// --------------------------------------------------------------------

/// dr_heat_wave shrunk to test size (mirrors test_fleet_grid.cpp).
fleet::FleetConfig tiny_dr_heat_wave(fleet::ControlMode mode,
                                     std::uint64_t seed = 1) {
  fleet::FleetConfig cfg =
      fleet::make_scenario(fleet::ScenarioKind::kDrHeatWave, 6, seed);
  cfg.horizon = sim::hours(8);
  cfg.round_period = sim::seconds(30);
  cfg.grid.control_mode = mode;
  return cfg;
}

std::string run_counters(const fleet::FleetConfig& cfg, std::size_t threads,
                         std::string* signal_log = nullptr) {
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(threads);
  Collector collector;
  const fleet::GridFleetResult result =
      engine.run_grid(executor, &collector);
  if (signal_log != nullptr) *signal_log = result.signal_log_csv;
  return counters_json(collector);
}

TEST(EngineTelemetry, GridCountersByteIdenticalAcrossWidths) {
  for (const auto mode :
       {fleet::ControlMode::kPolled, fleet::ControlMode::kEventDriven}) {
    const fleet::FleetConfig cfg = tiny_dr_heat_wave(mode);
    std::string log1, log4;
    const std::string one = run_counters(cfg, 1, &log1);
    const std::string four = run_counters(cfg, 4, &log4);
    EXPECT_EQ(one, four) << "counter drift across executor widths";
    EXPECT_EQ(log1, log4);
    EXPECT_FALSE(one.empty());
  }
}

TEST(EngineTelemetry, GridCountersMirrorResultExactly) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kEventDriven);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  Collector c;
  const fleet::GridFleetResult r = engine.run_grid(executor, &c);

  EXPECT_EQ(c.counter("premises"), cfg.premise_count);
  EXPECT_EQ(c.counter("feeders"), cfg.feeder_count);
  EXPECT_EQ(c.counter("control_barriers"), r.control_barriers);
  EXPECT_EQ(c.counter("controller_wakes"), r.controller_wakes);
  EXPECT_EQ(c.counter("signals_emitted"), r.signals.size());
  EXPECT_EQ(c.counter("shed_signals"), r.dr.shed_signals);
  EXPECT_EQ(c.counter("all_clear_signals"), r.dr.all_clear_signals);
  EXPECT_EQ(c.counter("tariff_signals"), r.dr.tariff_signals);
  EXPECT_EQ(c.counter("signals_delivered"), r.deliveries.size());
  EXPECT_EQ(c.counter("opted_in_premises"), r.opted_in_premises);
  EXPECT_EQ(c.counter("complying_premises"), r.complying_premises);
  EXPECT_EQ(c.counter("total_requests"), r.fleet.total_requests);
  EXPECT_EQ(c.counter("comfort_gap_violations"), r.comfort_gap_violations);
  // Event mode decomposes wakes into crossings + timers (+1 prime per
  // feeder, charged to the timer side).
  EXPECT_EQ(c.counter("wakes_crossing") + c.counter("wakes_timer"),
            r.controller_wakes);
  // A DR heat wave must actually shed, or this test pins nothing.
  EXPECT_GT(r.dr.shed_signals, 0u);
}

TEST(EngineTelemetry, OpenLoopCountersMirrorResult) {
  fleet::FleetConfig cfg =
      fleet::make_scenario(fleet::ScenarioKind::kScaleSweep, 8, 1);
  cfg.horizon = sim::hours(6);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  Collector c;
  const fleet::FleetResult r = engine.run(executor, &c);
  EXPECT_EQ(c.counter("premises"), cfg.premise_count);
  EXPECT_EQ(c.counter("coordinated_premises"), r.coordinated_premises);
  EXPECT_EQ(c.counter("total_requests"), r.total_requests);
  EXPECT_EQ(c.counter("premises_full"), cfg.premise_count);
  // All-full default policy: the tier split is degenerate.
  EXPECT_EQ(c.counter("premises_device"), 0u);
  EXPECT_EQ(c.counter("premises_stat"), 0u);
}

TEST(EngineTelemetry, InstrumentedRunLeavesOutputsUnchanged) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kPolled);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  const fleet::GridFleetResult plain = engine.run_grid(executor);
  Collector c;
  c.enable_tracing();  // the most invasive configuration
  const fleet::GridFleetResult instrumented = engine.run_grid(executor, &c);
  EXPECT_EQ(plain.signal_log_csv, instrumented.signal_log_csv);
  EXPECT_EQ(plain.control_barriers, instrumented.control_barriers);
  EXPECT_EQ(plain.fleet.feeder_load.values(),
            instrumented.fleet.feeder_load.values());
}

TEST(EngineTelemetry, ManifestIsValidVersionedJson) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kPolled);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  Collector c;
  c.set_meta("binary", "test_telemetry");
  c.set_meta_num("seed", 1);
  (void)engine.run_grid(executor, &c);

  std::ostringstream out;
  write_manifest(c, out);
  const std::string manifest = out.str();
  EXPECT_TRUE(json_is_valid(manifest)) << manifest;
  EXPECT_NE(manifest.find("\"telemetry_version\": 1"), std::string::npos);
  EXPECT_NE(manifest.find("\"counters\""), std::string::npos);
  EXPECT_NE(manifest.find("\"phases\""), std::string::npos);
  EXPECT_NE(manifest.find("\"nested_phases\""), std::string::npos);
  EXPECT_NE(manifest.find("\"executor\""), std::string::npos);
  EXPECT_NE(manifest.find("\"run_total\""), std::string::npos);
  // The counters section embeds verbatim.
  EXPECT_NE(manifest.find(counters_json(c)), std::string::npos);
}

TEST(EngineTelemetry, ExclusivePhasesPartitionTheRun) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kPolled);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(1);
  Collector c;
  (void)engine.run_grid(executor, &c);

  const std::uint64_t run_total = c.phase(Phase::kRunTotal).total_ns;
  ASSERT_GT(run_total, 0u);
  std::uint64_t exclusive = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (phase_is_exclusive(p)) exclusive += c.phase(p).total_ns;
  }
  // The exclusive slices must cover the run without exceeding it (5%
  // slack for clock granularity at the span edges; the uncovered
  // remainder is loop bookkeeping between spans).
  EXPECT_LE(exclusive, run_total + run_total / 20);
  EXPECT_GE(exclusive, run_total / 2)
      << "exclusive phases cover too little of the run";
}

TEST(EngineTelemetry, GridRunWithSignalsRecordsReportPhase) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kPolled);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(1);
  Collector c;
  const fleet::GridFleetResult result = engine.run_grid(executor, &c);
  ASSERT_FALSE(result.signals.empty());
  // One span around outcome assembly and log rendering, inside the run.
  EXPECT_EQ(c.phase(Phase::kReport).calls, 1u);
  EXPECT_GT(c.phase(Phase::kReport).total_ns, 0u);
  EXPECT_LE(c.phase(Phase::kReport).total_ns,
            c.phase(Phase::kRunTotal).total_ns);
}

TEST(EngineTelemetry, ExecutorActivityIsRecorded) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kPolled);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  Collector c;
  (void)engine.run_grid(executor, &c);
  const ExecutorActivity activity = c.executor_activity();
  EXPECT_GT(activity.parallel_for_calls, 0u);
  EXPECT_GT(activity.tasks, 0u);
  EXPECT_GT(c.phase(Phase::kExecutorDispatch).calls, 0u);
}

TEST(EngineTelemetry, ChromeTraceIsValidAndTimeOrdered) {
  const fleet::FleetConfig cfg =
      tiny_dr_heat_wave(fleet::ControlMode::kEventDriven);
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(2);
  Collector c;
  c.enable_tracing();
  (void)engine.run_grid(executor, &c);

  std::ostringstream out;
  write_chrome_trace(c, out);
  const std::string trace = out.str();
  EXPECT_TRUE(json_is_valid(trace));
  // Expected lanes: wall-clock phase spans ("X" on pid 0) + sim-time
  // wake instants ("i" on pid 1; event mode records controller wakes).
  EXPECT_NE(trace.find("\"name\": \"boot\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"barrier_advance\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"wake\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"phase\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"sim\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"M\""), std::string::npos);

  // The exporter emits all data events globally sorted by timestamp
  // (metadata events carry no "ts" key, so this scan skips them).
  double last_ts = -1.0;
  std::size_t events = 0;
  std::size_t pos = 0;
  while ((pos = trace.find("\"ts\": ", pos)) != std::string::npos) {
    const double ts = std::stod(trace.substr(pos + 6));
    EXPECT_GE(ts, last_ts) << "trace events not time-ordered";
    last_ts = ts;
    ++events;
    pos += 6;
  }
  EXPECT_GT(events, 2u) << "trace has no data events";
}

}  // namespace
}  // namespace han::telemetry
