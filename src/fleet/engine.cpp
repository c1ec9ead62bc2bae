#include "fleet/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fidelity/backend.hpp"
#include "telemetry/telemetry.hpp"

namespace han::fleet {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Diurnal Type-1 base-load factor at simulated time `t`: peaks at
/// 19:00, troughs at 07:00, unit daily mean.
double diurnal_factor(sim::TimePoint t, double swing) {
  const double h = t.since_epoch().hours_f();
  return 1.0 + swing * std::cos(2.0 * kPi * (h - 19.0) / 24.0);
}

}  // namespace

telemetry::Phase FleetEngine::tier_phase(
    fidelity::FidelityTier tier) noexcept {
  switch (tier) {
    case fidelity::FidelityTier::kFull:
      return telemetry::Phase::kTierFullAdvance;
    case fidelity::FidelityTier::kDevice:
      return telemetry::Phase::kTierDeviceAdvance;
    case fidelity::FidelityTier::kStatistical:
      break;
  }
  return telemetry::Phase::kTierStatAdvance;
}

void FleetEngine::count_fleet_shape(telemetry::Collector& tel) const {
  std::size_t full = 0;
  std::size_t device = 0;
  std::size_t stat = 0;
  for (std::size_t i = 0; i < config_.premise_count; ++i) {
    switch (tier_of(i)) {
      case fidelity::FidelityTier::kFull: ++full; break;
      case fidelity::FidelityTier::kDevice: ++device; break;
      case fidelity::FidelityTier::kStatistical: ++stat; break;
    }
  }
  tel.set_counter("premises", config_.premise_count);
  tel.set_counter("feeders", config_.feeder_count);
  tel.set_counter("premises_full", full);
  tel.set_counter("premises_device", device);
  tel.set_counter("premises_stat", stat);
}

double FleetEngine::diurnal_base_kw(const PremiseSpec& spec,
                                    sim::TimePoint t) {
  return spec.base_kw * diurnal_factor(t, spec.base_swing);
}

std::vector<core::TopologyKind> default_fleet_topologies() {
  return {core::TopologyKind::kLine, core::TopologyKind::kRing,
          core::TopologyKind::kGrid, core::TopologyKind::kRandom};
}

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  if (config_.premise_count == 0) {
    throw std::invalid_argument("FleetEngine: premise_count must be > 0");
  }
  const PremiseProfile& p = config_.profile;
  if (p.min_devices == 0 || p.max_devices < p.min_devices) {
    throw std::invalid_argument("FleetEngine: bad device-count range");
  }
  if (p.topologies.empty()) {
    throw std::invalid_argument("FleetEngine: profile.topologies empty");
  }
  if (p.min_rated_kw < 0.0 || p.max_rated_kw < p.min_rated_kw) {
    throw std::invalid_argument("FleetEngine: bad rated-kW range");
  }
  if (p.min_base_kw < 0.0 || p.max_base_kw < p.min_base_kw) {
    throw std::invalid_argument("FleetEngine: bad base-load range");
  }
  if (config_.grid.control_interval <= sim::Duration::zero()) {
    throw std::invalid_argument(
        "FleetEngine: grid.control_interval must be > 0");
  }
  if (config_.feeder_count == 0) {
    throw std::invalid_argument("FleetEngine: feeder_count must be >= 1");
  }
  if (!(config_.feeder_skew >= 0.0) ||
      !std::isfinite(config_.feeder_skew)) {
    throw std::invalid_argument(
        "FleetEngine: feeder_skew must be finite and >= 0");
  }
  feeder_weights_.reserve(config_.feeder_count);
  for (std::size_t k = 0; k < config_.feeder_count; ++k) {
    feeder_weights_.push_back(
        std::pow(1.0 + config_.feeder_skew, static_cast<double>(k)));
    feeder_weight_total_ += feeder_weights_.back();
  }
  if (!config_.fidelity.all_full()) {
    std::vector<std::size_t> feeder_of_premise(config_.premise_count);
    for (std::size_t i = 0; i < config_.premise_count; ++i) {
      feeder_of_premise[i] = feeder_of(i);
    }
    tiers_ = fidelity::assign_tiers(config_.fidelity, config_.seed,
                                    feeder_of_premise,
                                    config_.feeder_count);
  }
}

fidelity::FidelityTier FleetEngine::tier_of(std::size_t index) const {
  return tiers_.empty() ? fidelity::FidelityTier::kFull : tiers_.at(index);
}

std::size_t FleetEngine::feeder_of(std::size_t index) const {
  if (config_.feeder_count <= 1) return 0;
  // A fresh named sub-stream of the premise stream: drawing it cannot
  // perturb the draws make_spec already consumes.
  sim::Rng draw =
      sim::Rng(config_.seed).stream("premise", index).stream("feeder");
  const double u = draw.uniform();
  double cum = 0.0;
  for (std::size_t k = 0; k < feeder_weights_.size(); ++k) {
    cum += feeder_weights_[k];
    if (u * feeder_weight_total_ < cum) return k;
  }
  return feeder_weights_.size() - 1;
}

double FleetEngine::feeder_capacity_share(std::size_t k) const {
  if (config_.feeder_count <= 1) return 1.0;
  return feeder_weights_.at(k) / feeder_weight_total_;
}

PremiseSpec FleetEngine::make_spec(std::size_t index) const {
  const PremiseProfile& p = config_.profile;
  const sim::Rng rng = sim::Rng(config_.seed).stream("premise", index);
  sim::Rng draw = rng.stream("draw");

  PremiseSpec spec;
  spec.index = index;
  spec.feeder = feeder_of(index);

  const auto devices = static_cast<std::size_t>(draw.uniform_int(
      static_cast<std::int64_t>(p.min_devices),
      static_cast<std::int64_t>(p.max_devices)));
  const core::TopologyKind topology = p.topologies[draw.index(p.topologies.size())];
  const double rated_kw = draw.uniform(p.min_rated_kw, p.max_rated_kw);
  spec.base_kw = draw.uniform(p.min_base_kw, p.max_base_kw);
  spec.base_swing = p.base_swing;
  // Last draw on this stream: bernoulli(0)/bernoulli(1) consume nothing,
  // so changing the adoption fraction never perturbs the other draws.
  const bool coordinated = draw.bernoulli(p.coordination_adoption);

  core::ExperimentConfig& cfg = spec.experiment;
  cfg.han.device_count = devices;
  cfg.han.topology_kind = topology;
  cfg.han.scheduler = coordinated ? core::SchedulerKind::kCoordinated
                                  : core::SchedulerKind::kUncoordinated;
  cfg.han.fidelity = core::CpFidelity::kAbstract;
  cfg.han.abstract_reliability = config_.abstract_reliability;
  cfg.han.minicast.round_period = config_.round_period;
  cfg.han.rated_kw = rated_kw;
  cfg.han.constraints = p.constraints;
  cfg.han.seed = rng.stream("han").next_u64();
  cfg.han.feeder = static_cast<std::uint32_t>(spec.feeder);
  cfg.sample_interval = config_.sample_interval;

  appliance::WorkloadParams wp;
  wp.rate_per_hour = p.base_rate_per_device_hour * static_cast<double>(devices);
  wp.device_count = devices;
  wp.horizon = config_.horizon;
  wp.mean_service = p.mean_service;
  wp.service_model = p.service_model;
  wp.warmup = cfg.cp_boot;
  cfg.workload = wp;

  spec.trace = appliance::WorkloadGenerator::generate(wp, rng.stream("workload"));

  if (p.surge && p.surge_end > p.surge_start) {
    appliance::WorkloadParams sw = wp;
    sw.warmup = sim::Duration::zero();
    sw.horizon = p.surge_end - p.surge_start;
    appliance::ClusterParams cl;
    cl.clusters_per_hour = p.surge_clusters_per_hour;
    cl.cluster_size = std::min(p.surge_cluster_size, devices);
    cl.spread = p.surge_spread;
    std::vector<appliance::Request> surge =
        appliance::WorkloadGenerator::generate_clustered(sw, cl,
                                                         rng.stream("surge"));
    for (appliance::Request& r : surge) {
      r.at = r.at + p.surge_start;  // shift into the surge window
      // Drop requests past the horizon (a surge window may outlast a
      // short run); they would never execute but would still be counted.
      if (r.at.since_epoch() > config_.horizon) continue;
      spec.trace.push_back(r);
    }
    std::sort(spec.trace.begin(), spec.trace.end(),
              [](const appliance::Request& a, const appliance::Request& b) {
                return a.at < b.at;
              });
  }
  return spec;
}

PremiseResult FleetEngine::assemble_premise_result(
    const PremiseSpec& spec, const metrics::TimeSeries& type2_load,
    const core::NetworkStats& network) {
  PremiseResult out;
  out.index = spec.index;
  out.feeder = spec.feeder;
  out.device_count = spec.experiment.han.device_count;
  out.scheduler = spec.experiment.han.scheduler;
  out.requests = spec.trace.size();
  out.network = network;

  // Overlay the deterministic diurnal Type-1 base load on the sampled
  // Type-2 series.
  out.load = metrics::TimeSeries(type2_load.start(), type2_load.interval());
  for (std::size_t i = 0; i < type2_load.size(); ++i) {
    out.load.append(type2_load.at(i) +
                    diurnal_base_kw(spec, type2_load.time_of(i)));
  }
  const metrics::RunningStats s = out.load.stats();
  out.peak_kw = s.max();
  out.mean_kw = s.mean();
  return out;
}

PremiseResult FleetEngine::run_premise(const PremiseSpec& spec) {
  const core::ExperimentResult r =
      core::run_experiment(spec.experiment, spec.trace);
  return assemble_premise_result(spec, r.load, r.network);
}

PremiseResult FleetEngine::run_premise_at_tier(std::size_t index) const {
  const fidelity::FidelityTier tier = tier_of(index);
  if (tier == fidelity::FidelityTier::kFull) {
    return run_premise(make_spec(index));
  }
  // Open-loop surrogate: no signals ever arrive, so one advance to the
  // horizon samples the whole series.
  std::unique_ptr<fidelity::PremiseBackend> backend = fidelity::make_backend(
      tier, make_spec(index), config_.fidelity.calibration);
  backend->advance_to(sim::TimePoint::epoch() + config_.horizon);
  return backend->finish();
}

double FleetEngine::resolved_capacity_kw() const {
  return config_.transformer_capacity_kw > 0.0
             ? config_.transformer_capacity_kw
             : 2.0 * static_cast<double>(config_.premise_count);
}

void FleetEngine::finish_aggregate(FleetResult& out) const {
  // Aggregation is sequential over index order, so the result is
  // independent of which thread ran which premise.
  std::vector<const metrics::TimeSeries*> series;
  series.reserve(out.premises.size());
  double sum_peaks = 0.0;
  for (const PremiseResult& p : out.premises) {
    series.push_back(&p.load);
    sum_peaks += p.peak_kw;
    if (p.scheduler == core::SchedulerKind::kCoordinated) {
      ++out.coordinated_premises;
    }
    out.total_requests += p.requests;
    out.min_dcd_violations += p.network.min_dcd_violations;
    out.service_gap_violations += p.network.service_gap_violations;
  }
  out.feeder_load = sum_series(series);
  const double capacity = resolved_capacity_kw();
  out.feeder = feeder_metrics(out.feeder_load, capacity, sum_peaks,
                              config_.premise_count);

  // Per-feeder shards + the substation roll-up (still index order
  // within each shard, so shard series are executor-independent too).
  const std::size_t feeders = config_.feeder_count;
  out.shards.resize(feeders);
  std::vector<std::vector<const metrics::TimeSeries*>> shard_series(feeders);
  std::vector<double> shard_peaks(feeders, 0.0);
  for (const PremiseResult& p : out.premises) {
    shard_series[p.feeder].push_back(&p.load);
    shard_peaks[p.feeder] += p.peak_kw;
  }
  for (std::size_t k = 0; k < feeders; ++k) {
    FeederShard& shard = out.shards[k];
    shard.feeder = k;
    shard.premises = shard_series[k].size();
    shard.load = sum_series(shard_series[k]);
    shard.metrics =
        feeder_metrics(shard.load, capacity * feeder_capacity_share(k),
                       shard_peaks[k], shard.premises);
  }
  out.substation = substation_metrics(out.feeder_load, out.shards, capacity);
}

FleetResult FleetEngine::run(Executor& executor) const {
  return run(executor, nullptr);
}

FleetResult FleetEngine::run(Executor& executor,
                             telemetry::Collector* tel) const {
  telemetry::Span total(tel, telemetry::Phase::kRunTotal);
  if (tel != nullptr) {
    tel->set_trace_epoch_ns(telemetry::Collector::now_ns());
  }
  const ExecutorTelemetryScope executor_scope(executor, tel);

  FleetResult out;
  out.premises.resize(config_.premise_count);
  {
    // Open loop has a single "advance to the horizon" barrier; each
    // premise's run is charged to its tier's nested phase.
    telemetry::Span advance(tel, telemetry::Phase::kBarrierAdvance,
                            telemetry::Span::Emit::kTrace);
    executor.parallel_for(
        config_.premise_count, [this, &out, tel](std::size_t i) {
          const telemetry::Span premise(tel, tier_phase(tier_of(i)));
          out.premises[i] = run_premise_at_tier(i);
        });
  }
  {
    telemetry::Span aggregate(tel, telemetry::Phase::kAggregate,
                              telemetry::Span::Emit::kTrace);
    finish_aggregate(out);
  }

  if (tel != nullptr) {
    count_fleet_shape(*tel);
    tel->set_counter("coordinated_premises", out.coordinated_premises);
    tel->set_counter("total_requests", out.total_requests);
    tel->set_counter("min_dcd_violations", out.min_dcd_violations);
    tel->set_counter("service_gap_violations", out.service_gap_violations);
  }
  return out;
}

FleetResult FleetEngine::run(std::size_t threads) const {
  Executor executor(threads);
  return run(executor);
}

}  // namespace han::fleet
