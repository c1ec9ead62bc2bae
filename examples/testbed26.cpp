// testbed26 — the paper's full testbed run at packet level.
//
//   $ ./testbed26 [high|moderate|low] [coordinated|uncoordinated] [seed]
//
// Simulates the 26-node office-floor deployment end to end: every
// MiniCast flood slot, every relay transmission, SINR/capture reception,
// clock drift — then the Execution Plane on top. Prints per-minute load
// as CSV plus CP/radio diagnostics a testbed operator would look at.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/han.hpp"

namespace {

using namespace han;

appliance::ArrivalScenario parse_scenario(const char* s) {
  if (std::strcmp(s, "low") == 0) return appliance::ArrivalScenario::kLow;
  if (std::strcmp(s, "moderate") == 0) {
    return appliance::ArrivalScenario::kModerate;
  }
  return appliance::ArrivalScenario::kHigh;
}

core::SchedulerKind parse_scheduler(const char* s) {
  return std::strcmp(s, "uncoordinated") == 0
             ? core::SchedulerKind::kUncoordinated
             : core::SchedulerKind::kCoordinated;
}

}  // namespace

int main(int argc, char** argv) {
  const appliance::ArrivalScenario scenario =
      argc > 1 ? parse_scenario(argv[1]) : appliance::ArrivalScenario::kHigh;
  const core::SchedulerKind kind = argc > 2
                                       ? parse_scheduler(argv[2])
                                       : core::SchedulerKind::kCoordinated;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  std::fprintf(stderr,
               "testbed26: scenario=%s scheduler=%s seed=%llu "
               "(packet-level, 350 simulated minutes)\n",
               to_string(scenario).data(), core::to_string(kind).data(),
               static_cast<unsigned long long>(seed));

  const core::ExperimentConfig cfg = core::paper_config(scenario, kind, seed);
  const core::ExperimentResult r = core::run_experiment(cfg);

  // Figure-ready CSV on stdout.
  metrics::write_csv(std::cout, {"load_kw"}, {&r.load});

  // Operator diagnostics on stderr.
  std::fprintf(stderr, "\n--- load ---\n");
  std::fprintf(stderr, "peak %.1f kW, mean %.2f kW, stddev %.2f kW, "
                       "largest step %.1f kW\n",
               r.peak_kw, r.mean_kw, r.std_kw, r.max_step_kw);
  std::fprintf(stderr, "--- workload ---\n");
  std::fprintf(stderr, "%llu requests injected\n",
               static_cast<unsigned long long>(r.requests));
  std::fprintf(stderr, "--- communication plane ---\n");
  std::fprintf(stderr,
               "mean all-to-all coverage %.4f, stale-view rounds %llu\n",
               r.network.cp_mean_coverage,
               static_cast<unsigned long long>(r.network.stale_view_rounds));
  std::fprintf(stderr, "--- radio cost ---\n");
  std::fprintf(stderr, "mean duty cycle %.2f%%, total charge %.1f mAh\n",
               100.0 * r.network.mean_radio_duty,
               r.network.total_radio_mah);
  std::fprintf(stderr, "--- constraint audit ---\n");
  std::fprintf(stderr, "minDCD violations %llu, service gaps %llu\n",
               static_cast<unsigned long long>(r.network.min_dcd_violations),
               static_cast<unsigned long long>(
                   r.network.service_gap_violations));
  return 0;
}
