// The four benchmark workloads, their configurations, output checks and
// determinism digests. Why each workload exists is recorded in
// perfbench/NOTES.md; keep the two in step.
#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "fidelity/fidelity.hpp"

namespace perfbench {
namespace {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      {.name = "full_k4_polled",
       .kind = WorkloadKind::kFleet,
       .scenario = fleet::ScenarioKind::kMultiFeeder,
       .premises = 64,
       .feeders = 4,
       .mode = fleet::ControlMode::kPolled,
       .transfers = false,
       .fidelity = "full",
       .smoke_premises = 8,
       .smoke_horizon = sim::hours(2)},
      {.name = "stat_rolling_shed",
       .kind = WorkloadKind::kFleet,
       .scenario = fleet::ScenarioKind::kRollingShed,
       .premises = 2000,
       .feeders = 1,
       .mode = fleet::ControlMode::kPolled,
       .transfers = false,
       .fidelity = "stat",
       .smoke_premises = 64,
       .smoke_horizon = sim::hours(2)},
      {.name = "device_tie_event",
       .kind = WorkloadKind::kFleet,
       .scenario = fleet::ScenarioKind::kTieSwitch,
       .premises = 4000,
       .feeders = 8,
       .mode = fleet::ControlMode::kEventDriven,
       .transfers = true,
       .fidelity = "device",
       .smoke_premises = 64,
       .smoke_horizon = sim::hours(2)},
      {.name = "han_packet",
       .kind = WorkloadKind::kHanPacket,
       .premises = 1,
       .horizon = sim::minutes(12),
       .smoke_premises = 1,
       .smoke_horizon = sim::minutes(5),
       .layer_horizon = sim::minutes(12)},
  };
  return kWorkloads;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

fleet::FleetConfig fleet_config(const Workload& w, std::uint64_t seed,
                                bool smoke) {
  const std::size_t premises = smoke ? w.smoke_premises : w.premises;
  fleet::FleetConfig cfg = fleet::make_scenario(w.scenario, premises, seed);
  cfg.grid.enabled = true;
  cfg.feeder_count = w.feeders;
  cfg.grid.control_mode = w.mode;
  cfg.grid.tie.enabled = w.transfers;
  const auto policy = han::fidelity::policy_from_flag(w.fidelity);
  if (!policy) throw std::logic_error("bad fidelity in workload table");
  cfg.fidelity = *policy;
  if (smoke) {
    cfg.horizon = w.smoke_horizon;
  } else if (w.horizon > sim::Duration::zero()) {
    cfg.horizon = w.horizon;
  }
  return cfg;
}

han::core::ExperimentConfig packet_config(const Workload& w,
                                          std::uint64_t seed, bool smoke) {
  han::core::ExperimentConfig cfg = han::core::paper_config(
      han::appliance::ArrivalScenario::kHigh,
      han::core::SchedulerKind::kCoordinated, seed);
  cfg.workload.horizon = smoke ? w.smoke_horizon : w.horizon;
  return cfg;
}

double horizon_minutes(const Workload& w, bool smoke) {
  if (w.kind == WorkloadKind::kHanPacket) {
    return (smoke ? w.smoke_horizon : w.horizon).minutes_f();
  }
  return fleet_config(w, 1, smoke).horizon.minutes_f();
}

std::size_t premise_count(const Workload& w, bool smoke) {
  return smoke ? w.smoke_premises : w.premises;
}

std::vector<std::string> check_fleet(const fleet::FleetConfig& config,
                                     const fleet::GridFleetResult& result) {
  std::vector<std::string> failures;
  std::uint64_t misrouted = 0;
  double premise_kwh = 0.0;
  for (const fleet::PremiseResult& p : result.fleet.premises) {
    misrouted += p.network.grid_signals_misrouted;
    double sum_kw = 0.0;
    for (const double kw : p.load.values()) sum_kw += kw;
    premise_kwh += sum_kw * p.load.interval().hours_f();
  }
  if (misrouted != 0) {
    failures.push_back("signals_misrouted=" + std::to_string(misrouted));
  }
  if (result.fleet.min_dcd_violations != 0) {
    failures.push_back("min_dcd_violations=" +
                       std::to_string(result.fleet.min_dcd_violations));
  }
  if (config.grid.control_mode == fleet::ControlMode::kPolled) {
    const std::uint64_t expected = static_cast<std::uint64_t>(
        config.horizon / config.grid.control_interval + 1);
    if (result.control_barriers != expected) {
      failures.push_back("control_barriers=" +
                         std::to_string(result.control_barriers) +
                         " expected " + std::to_string(expected));
    }
  }
  const double feeder_kwh = result.fleet.feeder.energy_mwh * 1000.0;
  const double scale = std::max(std::abs(feeder_kwh), 1e-300);
  if (!(std::abs(premise_kwh - feeder_kwh) / scale <= 1e-9)) {
    failures.push_back("energy premises=" + std::to_string(premise_kwh) +
                       " kWh vs feeder=" + std::to_string(feeder_kwh) +
                       " kWh");
  }
  if (result.fleet.premises.size() != config.premise_count) {
    failures.push_back("premise results=" +
                       std::to_string(result.fleet.premises.size()));
  }
  return failures;
}

std::vector<std::string> check_packet(
    const han::core::ExperimentResult& result) {
  std::vector<std::string> failures;
  if (result.network.min_dcd_violations != 0) {
    failures.push_back("min_dcd_violations=" +
                       std::to_string(result.network.min_dcd_violations));
  }
  if (result.network.service_gap_violations != 0) {
    failures.push_back("service_gap_violations=" +
                       std::to_string(result.network.service_gap_violations));
  }
  if (!(result.network.cp_mean_coverage >= 0.999)) {
    failures.push_back("cp_mean_coverage=" +
                       std::to_string(result.network.cp_mean_coverage));
  }
  if (result.load.empty()) failures.push_back("empty load series");
  return failures;
}

namespace {

/// 64-bit FNV-1a.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void series(const han::metrics::TimeSeries& s) {
    u64(s.size());
    for (const double v : s.values()) f64(v);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t digest(const fleet::GridFleetResult& result) {
  Fnv h;
  h.bytes(result.signal_log_csv.data(), result.signal_log_csv.size());
  h.u64(result.control_barriers);
  h.u64(result.controller_wakes);
  h.u64(result.dr.shed_signals);
  h.u64(result.dr.all_clear_signals);
  h.u64(result.dr.tariff_signals);
  h.u64(result.deliveries.size());
  h.u64(result.transfers.size());
  h.u64(result.fleet.total_requests);
  h.u64(result.fleet.min_dcd_violations);
  h.u64(result.fleet.service_gap_violations);
  h.f64(result.dr.unserved_shed_kw_minutes);
  h.f64(result.overload_minutes);
  h.series(result.fleet.feeder_load);
  return h.value();
}

std::uint64_t digest(const han::core::ExperimentResult& result) {
  Fnv h;
  h.series(result.load);
  h.u64(result.requests);
  h.u64(result.events_executed);
  h.u64(result.network.min_dcd_violations);
  h.u64(result.network.service_gap_violations);
  h.u64(result.network.stale_view_rounds);
  h.f64(result.network.cp_mean_coverage);
  return h.value();
}

}  // namespace perfbench
