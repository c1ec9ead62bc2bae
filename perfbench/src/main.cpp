// cosim_bench — one workload of the co-simulation benchmark per process.
//
//   cosim_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--smoke] [--spans PATH]
//
// Untraced (--trace 0): repeats the workload's operation (set up, run,
// check) until S seconds are used and reports the end-to-end metrics as
// medians over operations, the first (warm-up) operation excluded.
// Traced (--trace 1): one traced pass that reports the per-layer ledger.
// Either way the last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

/// Set-up repetitions per operation: setup_s is a median over all of
/// them, so one slow thread spawn cannot move it.
constexpr int kFleetSetupReps = 10;
/// paper_config() takes well under a microsecond, below the clock's
/// useful resolution: each han_packet set-up sample times a batch of
/// calls and reports the per-call mean.
constexpr int kPacketSetupSamples = 21;
constexpr int kPacketSetupBatch = 1000;

/// Highest of p50/p75/p90/p95/p99 that leaves at least ten samples
/// beyond it (nearest-rank); {0, 0} when no such percentile exists.
/// `high_is_bad` picks which tail counts as "beyond".
[[nodiscard]] std::pair<int, double> tail(std::vector<double> v,
                                          bool high_is_bad) {
  std::sort(v.begin(), v.end());
  if (!high_is_bad) std::reverse(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::pair<int, double> best{0, 0.0};
  for (const int p : {50, 75, 90, 95, 99}) {
    const double beyond = n * (1.0 - p / 100.0);
    if (beyond < 10.0) break;
    const auto rank = static_cast<std::size_t>(std::ceil(n * p / 100.0));
    best = {p, v[std::max<std::size_t>(rank, 1) - 1]};
  }
  return best;
}

/// Input seed of operation `op` of a run. Each operation simulates a
/// different instance drawn from the run's --seed, so a run's medians
/// cover several inputs rather than one; the same --seed still gives the
/// same sequence of inputs.
[[nodiscard]] std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op) {
  sim::Rng rng = sim::Rng(seed).stream("perfbench-op", op);
  return rng.next_u64();
}

struct OpSample {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  /// DR activity of the run (zero for han_packet).
  std::uint64_t sheds = 0;
  std::uint64_t deliveries = 0;
};

/// One fleet operation: set up (repeated), run, check.
void fleet_op(const Options& o, std::vector<double>& setup, OpSample& s,
              std::vector<std::string>& failures) {
  fleet::FleetConfig cfg;
  std::unique_ptr<fleet::FleetEngine> engine;
  std::unique_ptr<fleet::Executor> executor;
  for (int r = 0; r < kFleetSetupReps; ++r) {
    engine.reset();
    executor.reset();
    const std::uint64_t t0 = now_ns();
    cfg = fleet_config(*o.workload, s.seed, o.smoke);
    engine = std::make_unique<fleet::FleetEngine>(cfg);
    executor = std::make_unique<fleet::Executor>(worker_count());
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const double c0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const fleet::GridFleetResult result = engine->run_grid(*executor);
  s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  s.cpu_s = cpu_seconds() - c0;
  failures = check_fleet(cfg, result);
  s.rss_mb = peak_rss_bytes() / 1e6;
  s.sheds = result.dr.shed_signals;
  s.deliveries = result.deliveries.size();
}

/// One han_packet operation: paper_config (repeated), run, check.
void packet_op(const Options& o, std::vector<double>& setup, OpSample& s,
               std::vector<std::string>& failures) {
  han::core::ExperimentConfig cfg;
  for (int r = 0; r < kPacketSetupSamples; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int b = 0; b < kPacketSetupBatch; ++b) {
      cfg = packet_config(*o.workload, s.seed, o.smoke);
    }
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9 /
                    kPacketSetupBatch);
  }
  const double c0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const han::core::ExperimentResult result = han::core::run_experiment(cfg);
  s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  s.cpu_s = cpu_seconds() - c0;
  failures = check_packet(result);
  s.rss_mb = peak_rss_bytes() / 1e6;
}

Metrics end_to_end(const Options& o, Outcome& outcome) {
  const Workload& w = *o.workload;
  const double premise_minutes =
      static_cast<double>(premise_count(w, o.smoke)) *
      horizon_minutes(w, o.smoke);
  std::vector<double> setup;
  std::vector<double> warm_up_setup;
  std::vector<OpSample> samples;
  OpSample warm_up;
  bool rss_isolated = true;
  const std::uint64_t start = now_ns();
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double mean_op =
        outcome.attempted > 0
            ? elapsed / static_cast<double>(outcome.attempted)
            : 0.0;
    // Operation 0 is the warm-up; stop only once a timed one has run.
    if (outcome.attempted > 1 && elapsed + mean_op > o.seconds) break;
    const bool is_warm_up = outcome.attempted == 0;
    ++outcome.attempted;
    rss_isolated = reset_peak_rss() && rss_isolated;
    OpSample s;
    s.seed = op_seed(o.seed, outcome.attempted - 1);
    std::vector<std::string> failures;
    std::vector<double>& op_setup = is_warm_up ? warm_up_setup : setup;
    try {
      if (w.kind == WorkloadKind::kFleet) {
        fleet_op(o, op_setup, s, failures);
      } else {
        packet_op(o, op_setup, s, failures);
      }
    } catch (const std::exception& e) {
      failures.push_back(std::string("exception: ") + e.what());
    }
    if (!failures.empty()) {
      ++outcome.failed;
      for (std::string& f : failures) outcome.failures.push_back(std::move(f));
      continue;
    }
    // The warm-up is checked like any operation but not timed: it pays
    // the process's first-touch and lazy-initialisation costs.
    if (is_warm_up) {
      warm_up = s;
      continue;
    }
    samples.push_back(s);
  }

  std::vector<double> throughput;
  std::vector<double> cpu;
  std::vector<double> rss;
  for (const OpSample& s : samples) {
    throughput.push_back(premise_minutes / s.wall_s);
    cpu.push_back(s.cpu_s);
    rss.push_back(s.rss_mb);
  }
  std::printf("workload %.*s: %zu premises x %.0f min, ",
              static_cast<int>(w.name.size()), w.name.data(),
              premise_count(w, o.smoke), horizon_minutes(w, o.smoke));
  if (w.kind == WorkloadKind::kFleet) {
    std::printf("executor width %zu (%zu threads incl. the helping "
                "submitter)\n",
                worker_count(), worker_count() + 1);
  } else {
    std::printf("one thread\n");
  }
  std::printf("  warm-up (seed %llu, not timed): wall %.4f s, cpu %.4f s\n",
              static_cast<unsigned long long>(warm_up.seed), warm_up.wall_s,
              warm_up.cpu_s);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::printf("  op %zu (seed %llu): wall %.4f s, cpu %.4f s, peak rss "
                "%.1f MB, %llu sheds, %llu deliveries\n",
                i, static_cast<unsigned long long>(samples[i].seed),
                samples[i].wall_s, samples[i].cpu_s, samples[i].rss_mb,
                static_cast<unsigned long long>(samples[i].sheds),
                static_cast<unsigned long long>(samples[i].deliveries));
  }
  const auto print_tail = [](const char* name, const std::vector<double>& v,
                             bool high_is_bad) {
    const auto [p, value] = tail(v, high_is_bad);
    if (p == 0) {
      std::printf("  %s: n=%zu, no percentile has >=10 samples beyond it\n",
                  name, v.size());
    } else {
      std::printf("  %s: n=%zu, %s p%d = %.6g\n", name, v.size(),
                  high_is_bad ? "upper" : "lower", p, value);
    }
  };
  print_tail("premise_min_per_s", throughput, false);
  print_tail("setup_s", setup, true);
  print_tail("cpu_s", cpu, true);
  print_tail("peak_rss_mb", rss, true);
  if (!rss_isolated) {
    std::printf("  note: high-water-mark reset refused; peak_rss_mb is the "
                "process lifetime peak of this one-workload process\n");
  }
  if (!rss.empty()) {
    std::printf("  peak rss per premise: %.0f bytes\n",
                median(rss) * 1e6 /
                    static_cast<double>(premise_count(w, o.smoke)));
  }
  return {{"premise_min_per_s", median(throughput), "premise_min/s"},
          {"setup_s", median(setup), "s"},
          {"peak_rss_mb", median(rss), "MB"},
          {"cpu_s", median(cpu), "s"}};
}

void print_result(const Outcome& outcome, const Metrics& metrics) {
  for (const std::string& f : outcome.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  const bool correct = outcome.attempted > 0 && outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "cosim_bench: %s\nusage: cosim_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans PATH]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("bad --trace");
      }
      o.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!have_trace) usage("--trace is required");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Outcome outcome;
  Metrics metrics;
  try {
    metrics = options.trace ? traced_pass(options, outcome)
                            : end_to_end(options, outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosim_bench: %s\n", e.what());
    return 1;
  }
  print_result(outcome, metrics);
  return 0;
}
