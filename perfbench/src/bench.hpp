// perfbench — shared declarations of the co-simulation benchmark program.
//
// cosim_bench runs one named workload per process (so peak RSS is that
// workload's alone) through the library's public API only, checks every
// run's outputs, and reports either the end-to-end metrics (untraced) or
// the per-layer ledger (traced pass). See perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fleet/scenario.hpp"

namespace perfbench {

namespace fleet = han::fleet;
namespace sim = han::sim;

enum class WorkloadKind : std::uint8_t {
  /// A closed-loop fleet run (FleetEngine::run_grid).
  kFleet,
  /// The paper's single packet-level premise (core::run_experiment).
  kHanPacket,
};

/// One named benchmark workload. Sizes are fixed here, never by the
/// command line: only the seed varies between runs.
struct Workload {
  std::string_view name;
  WorkloadKind kind = WorkloadKind::kFleet;
  fleet::ScenarioKind scenario = fleet::ScenarioKind::kMultiFeeder;
  std::size_t premises = 0;
  std::size_t feeders = 1;
  fleet::ControlMode mode = fleet::ControlMode::kPolled;
  bool transfers = false;
  /// fidelity::policy_from_flag value every premise runs at.
  std::string_view fidelity = "full";
  /// Simulated horizon; zero keeps the scenario's own.
  sim::Duration horizon = sim::Duration::zero();
  /// Tiny sizes of the smoke mode (the benchmark's own tests).
  std::size_t smoke_premises = 0;
  sim::Duration smoke_horizon = sim::Duration::zero();
  /// Horizon prefix the traced pass advances sample premises over
  /// (zero = the whole horizon).
  sim::Duration layer_horizon = sim::Duration::zero();
};

/// The workload table entry named `name`; nullptr when there is none.
[[nodiscard]] const Workload* find_workload(std::string_view name);

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Where the traced pass writes its spans (empty = do not write).
  std::string spans_path;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Outcome counts of a benchmark invocation.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every failed check, for the report.
  std::vector<std::string> failures;
};

// --- workloads.cpp -------------------------------------------------------

[[nodiscard]] fleet::FleetConfig fleet_config(const Workload& w,
                                              std::uint64_t seed, bool smoke);
[[nodiscard]] han::core::ExperimentConfig packet_config(const Workload& w,
                                                        std::uint64_t seed,
                                                        bool smoke);
/// Simulated horizon of the workload's premises, in minutes.
[[nodiscard]] double horizon_minutes(const Workload& w, bool smoke);
/// Premises the workload simulates (1 for han_packet).
[[nodiscard]] std::size_t premise_count(const Workload& w, bool smoke);

/// Output checks; each returned string names one violated invariant.
[[nodiscard]] std::vector<std::string> check_fleet(
    const fleet::FleetConfig& config, const fleet::GridFleetResult& result);
[[nodiscard]] std::vector<std::string> check_packet(
    const han::core::ExperimentResult& result);

/// Digest of everything a run must reproduce at any executor width:
/// the signal log bytes, the result counters and the load series bits.
[[nodiscard]] std::uint64_t digest(const fleet::GridFleetResult& result);
[[nodiscard]] std::uint64_t digest(const han::core::ExperimentResult& result);

// --- proc.cpp -------------------------------------------------------------

/// Executor width every fleet workload uses: nproc - 1 (at least 1).
/// The submitter helps run tasks while it waits, so Executor(w) keeps
/// w + 1 threads busy.
[[nodiscard]] std::size_t worker_count();

/// Monotonic wall clock, nanoseconds.
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double cpu_seconds() noexcept;
/// Median of `v` (the mean of the middle two for an even count; 0 when
/// empty).
[[nodiscard]] double median(std::vector<double> v);
/// Returns freed heap to the OS and resets the kernel's resident-set
/// high-water mark, so the next peak_rss_bytes() covers only what runs
/// after this call. False when the kernel refused the reset (the peak
/// then is the process-lifetime one).
bool reset_peak_rss() noexcept;
/// Resident-set high-water mark, bytes.
[[nodiscard]] double peak_rss_bytes() noexcept;

// --- layers.cpp -----------------------------------------------------------

/// The traced pass: one plain run, the width-determinism run, the
/// telemetry run and the per-layer measurements. Fills `outcome` with
/// the runs it made.
[[nodiscard]] Metrics traced_pass(const Options& options, Outcome& outcome);

}  // namespace perfbench
