// bench_grid — cost and effect of closing the grid control loop.
//
// Prints a DR efficacy table (dr_heat_wave open vs closed loop: overload
// minutes, sheds, unserved kW, wall clock — the lockstep-barrier
// overhead is the price of the closed loop), the multi_feeder shard
// sweep, and a polled-vs-event-driven control-plane sweep (barrier
// count, controller wakes, wall clock) across premise counts and K
// feeders, then runs google-benchmark timings over a small fleet:
// plain run() vs run_grid() disabled (pure lockstep overhead) vs
// run_grid() enabled (overhead + control).
//
// Also prints a fidelity-tier throughput sweep (open-loop premises/sec
// at full / device / statistical fidelity plus each cheap tier's feeder
// energy divergence from full — the numbers EXPERIMENTS.md records).
//
// Pass `--json out.json` to also write the headline metrics as JSON
// (CI archives BENCH_grid.json and diffs fresh runs against it with
// ci/check_bench.py). Pass `--telemetry out.json` to write the closed
// dr_heat_wave run's telemetry manifest (phase profile + counters).
//
// Environment knobs (CI smoke runs use tiny values):
//   HAN_GRID_PREMISES   fleet size for the efficacy table (default 100)
//   HAN_GRID_THREADS    executor width for the table (default 0 = hw)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace han;
using bench::env_size;

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_efficacy_table(bench::JsonReport& report,
                          telemetry::Collector* tel) {
  const std::size_t premises = env_size("HAN_GRID_PREMISES", 100);
  const std::size_t threads = env_size("HAN_GRID_THREADS", 0);

  std::printf(
      "\n================================================================\n"
      "grid layer — dr_heat_wave open vs closed loop\n"
      "(paper: Debadarshini & Saha, ICDCS'22; see EXPERIMENTS.md)\n"
      "CP fidelity: abstract (fleet runs always use the calibrated "
      "abstract CP)\n"
      "================================================================\n");
  std::printf("premises: %zu, horizon: 24 h, seed 1\n\n", premises);

  fleet::FleetConfig closed =
      fleet::make_scenario(fleet::ScenarioKind::kDrHeatWave, premises, 1);
  fleet::FleetConfig open = closed;
  open.grid.enabled = false;
  fleet::Executor executor(threads);

  if (tel != nullptr) {
    tel->set_meta("binary", "bench_grid");
    tel->set_meta("scenario", "dr_heat_wave");
    tel->set_meta_num("premises", static_cast<double>(premises));
    tel->set_meta_num("seed", 1);
    tel->set_meta_num("threads",
                      static_cast<double>(executor.thread_count()));
    tel->set_meta("control_mode", "polled");
    tel->set_meta("git", telemetry::git_describe());
  }

  const auto t0 = std::chrono::steady_clock::now();
  const fleet::GridFleetResult off =
      fleet::FleetEngine(open).run_grid(executor);
  const double off_s = wall_seconds(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const fleet::GridFleetResult on =
      fleet::FleetEngine(closed).run_grid(executor, tel);
  const double on_s = wall_seconds(t1);

  metrics::TextTable table({"metric", "open loop", "closed loop"});
  table.add_row({"overload minutes",
                 metrics::fmt(off.fleet.feeder.overload_minutes, 1),
                 metrics::fmt(on.fleet.feeder.overload_minutes, 1)});
  table.add_row({"hot minutes", metrics::fmt(off.hot_minutes, 1),
                 metrics::fmt(on.hot_minutes, 1)});
  table.add_row({"coincident peak (kW)",
                 metrics::fmt(off.fleet.feeder.coincident_peak_kw),
                 metrics::fmt(on.fleet.feeder.coincident_peak_kw)});
  table.add_row({"shed signals", "0",
                 std::to_string(on.dr.shed_signals)});
  table.add_row({"mean unserved shed (kW)", "-",
                 metrics::fmt(on.dr.mean_unserved_shed_kw())});
  table.add_row({"mean shed latency (min)", "-",
                 metrics::fmt(on.dr.mean_shed_latency_minutes())});
  table.add_row({"wall (s)", metrics::fmt(off_s, 3),
                 metrics::fmt(on_s, 3)});
  table.print(std::cout);
  std::printf("\noverload minutes avoided: %.1f (%.0f%% reduction)\n",
              off.fleet.feeder.overload_minutes -
                  on.fleet.feeder.overload_minutes,
              bench::reduction_pct(off.fleet.feeder.overload_minutes,
                                   on.fleet.feeder.overload_minutes));

  report.set("dr_heat_wave", "premises", static_cast<double>(premises));
  report.set("dr_heat_wave", "open_overload_minutes",
             off.fleet.feeder.overload_minutes);
  report.set("dr_heat_wave", "closed_overload_minutes",
             on.fleet.feeder.overload_minutes);
  report.set("dr_heat_wave", "shed_signals",
             static_cast<double>(on.dr.shed_signals));
  report.set("dr_heat_wave", "control_barriers",
             static_cast<double>(on.control_barriers));
  report.set("dr_heat_wave", "controller_wakes",
             static_cast<double>(on.controller_wakes));
  report.set("dr_heat_wave", "signals_delivered",
             static_cast<double>(on.deliveries.size()));
  report.set("dr_heat_wave", "open_wall_s", off_s);
  report.set("dr_heat_wave", "closed_wall_s", on_s);
}

void print_fidelity_sweep(bench::JsonReport& report) {
  const std::size_t premises = env_size("HAN_GRID_PREMISES", 100);
  const std::size_t threads = env_size("HAN_GRID_THREADS", 0);

  std::printf(
      "\n================================================================\n"
      "fidelity tiers — open-loop throughput per tier (scale_sweep)\n"
      "full = HAN simulation, device = duty-cycle state machines,\n"
      "stat = calibrated surrogate; divergence is feeder aggregate\n"
      "energy vs the full run (see README 'Fidelity tiers')\n"
      "================================================================\n");
  std::printf("premises: %zu, horizon: 6 h, seed 1\n\n", premises);

  fleet::Executor executor(threads);
  const fleet::FleetConfig base =
      fleet::make_scenario(fleet::ScenarioKind::kScaleSweep, premises, 1);

  metrics::TextTable table({"tier", "wall (s)", "premises/s",
                            "energy rel err vs full"});
  metrics::TimeSeries full_load;
  for (const char* flag : {"full", "device", "stat"}) {
    fleet::FleetConfig cfg = base;
    cfg.fidelity = *fidelity::policy_from_flag(flag);
    const fleet::FleetEngine engine(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetResult r = engine.run(executor);
    const double secs = wall_seconds(t0);
    double rel_err = 0.0;
    if (std::string(flag) == "full") {
      full_load = r.feeder_load;
    } else {
      rel_err = metrics::divergence(full_load, r.feeder_load).energy_rel_err;
    }
    const double rate =
        secs > 0.0 ? static_cast<double>(premises) / secs : 0.0;
    table.add_row({flag, metrics::fmt(secs, 3), metrics::fmt(rate, 1),
                   std::string(flag) == "full" ? "-"
                                               : metrics::fmt(rel_err, 4)});
    const std::string section = std::string("fidelity_") + flag;
    report.set(section, "premises", static_cast<double>(premises));
    report.set(section, "wall_s", secs);
    report.set(section, "premises_per_sec", rate);
    report.set(section, "energy_rel_err_vs_full", rel_err);
  }
  table.print(std::cout);
  std::printf(
      "\ncheap tiers trade per-premise exactness for scale; the feeder\n"
      "aggregate stays pinned by tests/fidelity/test_calibration.cpp.\n");
}

void print_shard_sweep(bench::JsonReport& report) {
  const std::size_t premises = env_size("HAN_GRID_PREMISES", 100);
  const std::size_t threads = env_size("HAN_GRID_THREADS", 0);

  std::printf(
      "\n================================================================\n"
      "substation layer — multi_feeder shard sweep (K feeders)\n"
      "same premises/seed, resharded; capacity shares follow the planned\n"
      "skew weights; each K runs twice: tie switches open (multi_feeder)\n"
      "and closed (tie_switch transfers); see EXPERIMENTS.md\n"
      "================================================================\n");
  std::printf("premises: %zu, horizon: 24 h, seed 1, skew 0.35\n\n",
              premises);

  // Peak/diversity columns report the UNTIED run (comparable with the
  // PR 3/PR 4 sweeps); the (tie) columns are the tied counterpart.
  metrics::TextTable table({"K", "peak kW (no tie)", "div (no tie)",
                            "feeder ovl min", "feeder ovl (tie)",
                            "xfer ops", "xfer kWh", "sheds", "sheds (tie)",
                            "wall s", "wall s (tie)"});
  fleet::Executor executor(threads);
  // Parse the presets once; each row only reshards them (the per-row
  // re-parse used to hide in this loop).
  const fleet::FleetConfig base =
      fleet::make_scenario(fleet::ScenarioKind::kMultiFeeder, premises, 1);
  const fleet::FleetConfig tied =
      fleet::make_scenario(fleet::ScenarioKind::kTieSwitch, premises, 1);
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    fleet::FleetConfig cfg = base;
    cfg.feeder_count = k;
    fleet::FleetConfig tie_cfg = tied;
    tie_cfg.feeder_count = k;
    // A local collector per untied run exposes the per-shard join-wait
    // cost of the task-graph barrier (feeder k's control decision waits
    // only on k's own join node) plus the deterministic graph counters.
    telemetry::Collector join_tel;
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::GridFleetResult r =
        fleet::FleetEngine(cfg).run_grid(executor, &join_tel);
    const double secs = wall_seconds(t0);
    const auto t1 = std::chrono::steady_clock::now();
    const fleet::GridFleetResult rt =
        fleet::FleetEngine(tie_cfg).run_grid(executor);
    const double tie_secs = wall_seconds(t1);
    const auto shard_totals = [](const fleet::GridFleetResult& res) {
      std::pair<double, std::uint64_t> out{0.0, 0};
      for (const fleet::FeederOutcome& fo : res.feeders) {
        out.first += fo.overload_minutes;
        out.second += fo.dr.shed_signals;
      }
      return out;
    };
    const auto [feeder_overload, sheds] = shard_totals(r);
    const auto [tie_overload, tie_sheds] = shard_totals(rt);
    const std::string section = "shard_sweep_k" + std::to_string(k);
    report.set(section, "peak_kw", r.fleet.substation.coincident_peak_kw);
    report.set(section, "feeder_overload_min", feeder_overload);
    report.set(section, "tie_overload_min", tie_overload);
    report.set(section, "tie_switch_operations",
               static_cast<double>(
                   rt.fleet.substation.tie_switch_operations));
    report.set(section, "sheds", static_cast<double>(sheds));
    report.set(section, "tie_sheds", static_cast<double>(tie_sheds));
    report.set(section, "wall_s", secs);
    report.set(section, "tie_wall_s", tie_secs);
    // Counters are deterministic (control-plane facts); the span total
    // is a timing key ("wall") so check_bench only warns on its drift.
    const std::string join_section = "join_wait_k" + std::to_string(k);
    report.set(join_section, "join_waits",
               static_cast<double>(join_tel.counter("join_waits")));
    report.set(join_section, "graph_submissions",
               static_cast<double>(join_tel.counter("graph_submissions")));
    report.set(join_section, "join_wait_wall_ms",
               static_cast<double>(
                   join_tel.phase(telemetry::Phase::kBarrierJoinWait)
                       .total_ns) /
                   1e6);
    table.add_row({std::to_string(k),
                   metrics::fmt(r.fleet.substation.coincident_peak_kw, 1),
                   metrics::fmt(r.fleet.substation.inter_feeder_diversity, 4),
                   metrics::fmt(feeder_overload, 1),
                   metrics::fmt(tie_overload, 1),
                   std::to_string(
                       rt.fleet.substation.tie_switch_operations),
                   metrics::fmt(rt.fleet.substation.transferred_energy_kwh, 1),
                   std::to_string(sheds), std::to_string(tie_sheds),
                   metrics::fmt(secs, 3), metrics::fmt(tie_secs, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\ninter-feeder diversity = sum of per-feeder peaks / substation "
      "peak:\nfeeders do not crest together, so the bank rides below the "
      "sum of its\nshards' worst minutes (1.0 by construction at K=1). "
      "The (tie) columns\nare the same run with the substation tie "
      "switches closed: overloaded\nshards lend premises to neighbors "
      "with headroom.\n");
}

void print_event_sweep(bench::JsonReport& report) {
  const std::size_t premises = env_size("HAN_GRID_PREMISES", 100);
  const std::size_t threads = env_size("HAN_GRID_THREADS", 0);

  std::printf(
      "\n================================================================\n"
      "control plane — polled vs event-driven (multi_feeder preset)\n"
      "barriers: lockstep synchronization points; wakes: controller\n"
      "observations. Same seed; see EXPERIMENTS.md\n"
      "================================================================\n");

  metrics::TextTable table({"premises", "K", "barriers p", "barriers e",
                            "reduction", "wakes p", "wakes e", "sheds p/e",
                            "wall p (s)", "wall e (s)"});
  fleet::Executor executor(threads);
  std::vector<std::size_t> premise_counts{premises};
  if (premises / 2 > 0 && premises / 2 != premises) {
    premise_counts.insert(premise_counts.begin(), premises / 2);
  }
  for (const std::size_t p : premise_counts) {
    // One parse per premise count (capacity scales with the fleet);
    // rows only reshard and flip the control mode.
    const fleet::FleetConfig base =
        fleet::make_scenario(fleet::ScenarioKind::kMultiFeeder, p, 1);
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      fleet::FleetConfig polled = base;
      polled.feeder_count = k;
      fleet::FleetConfig event = polled;
      event.grid.control_mode = fleet::ControlMode::kEventDriven;

      const auto t0 = std::chrono::steady_clock::now();
      const fleet::GridFleetResult rp =
          fleet::FleetEngine(polled).run_grid(executor);
      const double polled_s = wall_seconds(t0);
      const auto t1 = std::chrono::steady_clock::now();
      const fleet::GridFleetResult re =
          fleet::FleetEngine(event).run_grid(executor);
      const double event_s = wall_seconds(t1);

      const double reduction =
          re.control_barriers > 0
              ? static_cast<double>(rp.control_barriers) /
                    static_cast<double>(re.control_barriers)
              : 0.0;
      const std::string section =
          "event_sweep_p" + std::to_string(p) + "_k" + std::to_string(k);
      report.set(section, "barriers_polled",
                 static_cast<double>(rp.control_barriers));
      report.set(section, "barriers_event",
                 static_cast<double>(re.control_barriers));
      report.set(section, "wakes_polled",
                 static_cast<double>(rp.controller_wakes));
      report.set(section, "wakes_event",
                 static_cast<double>(re.controller_wakes));
      report.set(section, "sheds_polled",
                 static_cast<double>(rp.dr.shed_signals));
      report.set(section, "sheds_event",
                 static_cast<double>(re.dr.shed_signals));
      report.set(section, "wall_polled_s", polled_s);
      report.set(section, "wall_event_s", event_s);
      table.add_row({std::to_string(p), std::to_string(k),
                     std::to_string(rp.control_barriers),
                     std::to_string(re.control_barriers),
                     metrics::fmt(reduction, 1) + "x",
                     std::to_string(rp.controller_wakes),
                     std::to_string(re.controller_wakes),
                     std::to_string(rp.dr.shed_signals) + "/" +
                         std::to_string(re.dr.shed_signals),
                     metrics::fmt(polled_s, 3), metrics::fmt(event_s, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\npolled wakes every controller at every barrier; event-driven\n"
      "wakes only on threshold crossings and declared deadlines, and\n"
      "premises free-run between them (observation-cap safety net).\n");
}

/// Small fleet shared by the google-benchmark timings.
fleet::FleetConfig bench_fleet_config(bool grid_enabled) {
  fleet::FleetConfig cfg =
      fleet::make_scenario(fleet::ScenarioKind::kDrHeatWave,
                           /*premise_count=*/12, /*seed=*/1);
  cfg.horizon = sim::hours(4);
  cfg.round_period = sim::seconds(30);
  cfg.grid.enabled = grid_enabled;
  return cfg;
}

void BM_FleetPlainRun(benchmark::State& state) {
  const fleet::FleetEngine engine(bench_fleet_config(false));
  fleet::Executor executor(2);
  for (auto _ : state) {
    const fleet::FleetResult r = engine.run(executor);
    benchmark::DoNotOptimize(r.feeder.coincident_peak_kw);
  }
}
BENCHMARK(BM_FleetPlainRun)->Unit(benchmark::kMillisecond);

void BM_FleetLockstepOpenLoop(benchmark::State& state) {
  const fleet::FleetEngine engine(bench_fleet_config(false));
  fleet::Executor executor(2);
  for (auto _ : state) {
    const fleet::GridFleetResult r = engine.run_grid(executor);
    benchmark::DoNotOptimize(r.fleet.feeder.coincident_peak_kw);
  }
}
BENCHMARK(BM_FleetLockstepOpenLoop)->Unit(benchmark::kMillisecond);

void BM_FleetClosedLoop(benchmark::State& state) {
  const fleet::FleetEngine engine(bench_fleet_config(true));
  fleet::Executor executor(2);
  for (auto _ : state) {
    const fleet::GridFleetResult r = engine.run_grid(executor);
    benchmark::DoNotOptimize(r.dr.shed_signals);
  }
}
BENCHMARK(BM_FleetClosedLoop)->Unit(benchmark::kMillisecond);

void BM_ControllerObserve(benchmark::State& state) {
  grid::FeederConfig feeder;
  feeder.capacity_kw = 100.0;
  grid::DrConfig dr;
  for (auto _ : state) {
    grid::DemandResponseController c(feeder, dr);
    sim::TimePoint t = sim::TimePoint::epoch();
    for (int i = 0; i < 1440; ++i) {
      t = t + sim::minutes(1);
      const auto signals = c.observe(t, i % 7 == 0 ? 110.0 : 80.0);
      benchmark::DoNotOptimize(signals.size());
    }
  }
}
BENCHMARK(BM_ControllerObserve)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = han::bench::take_json_flag(argc, argv);
  const std::string telemetry_path =
      han::bench::take_path_flag(argc, argv, "--telemetry");
  han::telemetry::Collector collector;
  han::telemetry::Collector* const tel =
      telemetry_path.empty() ? nullptr : &collector;
  han::bench::JsonReport report;
  print_efficacy_table(report, tel);
  print_shard_sweep(report);
  print_event_sweep(report);
  print_fidelity_sweep(report);
  if (!json_path.empty() && !report.write(json_path)) return 1;
  if (tel != nullptr) {
    std::ofstream manifest(telemetry_path);
    if (!manifest) {
      std::fprintf(stderr, "cannot write %s\n", telemetry_path.c_str());
      return 1;
    }
    han::telemetry::write_manifest(collector, manifest);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
