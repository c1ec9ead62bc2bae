// han::fleet — neighborhood fleet engine.
//
// The paper coordinates duty cycles inside ONE customer premise; the
// fleet engine simulates MANY independent premises at once and measures
// what the shared distribution feeder sees. Each premise is a complete
// HanNetwork (own Simulator, own topology, own scheduler, own workload)
// drawn deterministically from the fleet seed, so a fleet run is
// reproducible bit-for-bit regardless of how many threads execute it:
//
//   FleetConfig (seed) --make_spec(i)--> PremiseSpec (pure function)
//   PremiseSpec --run_premise--> PremiseResult (thread-confined sim)
//   PremiseResult[] --sum/aggregate--> feeder series + FeederMetrics
//
// Premise heterogeneity: device count, topology, appliance rating,
// scheduler kind (coordination adoption fraction) and workload are all
// drawn from per-premise RNG streams. Type-1 (non-deferrable) base load
// is modeled as a deterministic diurnal profile added to the sampled
// Type-2 series — it is not controllable, so simulating it adds nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "appliance/workload.hpp"
#include "core/experiment.hpp"
#include "fidelity/fidelity.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/executor.hpp"
#include "grid/bus.hpp"
#include "grid/controller.hpp"
#include "grid/substation.hpp"

namespace han::telemetry {
class Collector;
enum class Phase : std::uint8_t;
}  // namespace han::telemetry

namespace han::fleet {

/// Default premise topology pool: every generator-backed kind except
/// flocklab26 (which pins the device count to 26). Out-of-line so the
/// defaulted profile copy does not trip GCC's initializer-list
/// -Wmaybe-uninitialized false positive.
[[nodiscard]] std::vector<core::TopologyKind> default_fleet_topologies();

/// Distributions each premise is drawn from.
struct PremiseProfile {
  /// Device count, uniform on [min_devices, max_devices].
  std::size_t min_devices = 4;
  std::size_t max_devices = 12;
  /// Topology drawn uniformly from this set (flocklab26 is excluded by
  /// default: it pins the device count to 26).
  std::vector<core::TopologyKind> topologies = default_fleet_topologies();
  /// Per-device rating, uniform on [min_rated_kw, max_rated_kw].
  double min_rated_kw = 0.8;
  double max_rated_kw = 1.5;
  /// Probability a premise runs the coordinated scheduler; the rest run
  /// the uncoordinated baseline (partial deployment adoption).
  double coordination_adoption = 1.0;
  appliance::DutyCycleConstraints constraints{};

  // --- Workload shape ---------------------------------------------------
  /// Background Poisson request rate, per device per hour (the premise
  /// rate scales with its size).
  double base_rate_per_device_hour = 0.15;
  sim::Duration mean_service = sim::minutes(30);
  appliance::ServiceModel service_model = appliance::ServiceModel::kFixed;
  /// Optional demand surge: clustered near-simultaneous requests inside
  /// [surge_start, surge_end) (a family coming home; a heat spike).
  bool surge = false;
  sim::Duration surge_start = sim::hours(17);
  sim::Duration surge_end = sim::hours(21);
  double surge_clusters_per_hour = 2.0;
  std::size_t surge_cluster_size = 6;
  sim::Duration surge_spread = sim::minutes(5);

  // --- Type-1 (non-deferrable) base load --------------------------------
  /// Daily-mean base load, uniform on [min_base_kw, max_base_kw].
  double min_base_kw = 0.2;
  double max_base_kw = 0.5;
  /// Relative diurnal swing in [0, 1]: the profile is
  /// base * (1 + swing * cos(2*pi*(h - 19)/24)), peaking at 19:00.
  double base_swing = 0.5;
};

/// How run_grid drives the control plane.
enum class ControlMode : std::uint8_t {
  /// Fixed-interval lockstep: every premise advances in
  /// control_interval barriers and every controller observes at each
  /// one. The PR 2/3 behavior — outputs are byte-identical to it.
  kPolled,
  /// Threshold-triggered observation: barriers land only at controller
  /// deadlines (shed expiry, hold ends, cooldown end, tariff
  /// boundaries), predicted thermal crossings, and an observation-cap
  /// safety net (15 min, tightened to 3 min while any feeder sits
  /// within 90% of a shed trigger) — and a controller is woken only
  /// when one of its threshold bands crossed or a deadline it declared
  /// came due. Barrier count drops from horizon/control_interval to roughly the
  /// number of control decisions; the trade is that load transients
  /// fully contained between barriers go unobserved.
  kEventDriven,
};

/// Grid-layer (closed-loop) options for a fleet run — see run_grid().
struct GridOptions {
  /// Master switch: with false, run_grid() still runs the lockstep loop
  /// and tracks feeder thermal metrics, but the controller never emits
  /// a signal — the open-loop counterfactual the DR metrics compare
  /// against (and it reproduces run() exactly).
  bool enabled = false;
  /// Demand-response controller tuning.
  grid::DrConfig dr;
  /// Signal delivery model (per-premise latency, opt-in).
  grid::BusConfig bus;
  /// Transformer thermal model; capacity_kw <= 0 inherits the resolved
  /// FleetConfig::transformer_capacity_kw. Either way the capacity is
  /// the FLEET total: with several feeders each shard receives its
  /// planned share (see FleetConfig::feeder_skew).
  grid::FeederConfig feeder;
  /// Substation bank above the feeders; unset fields inherit (capacity:
  /// the fleet total; thermal shape: the feeder config's).
  grid::SubstationConfig substation;
  /// How often each feeder's controller observes its aggregate (the
  /// closed-loop barrier period of run_grid). Under event_driven this
  /// is the observation *grid*: adaptive barriers still land on
  /// multiples of it, so any crossing the event mode sees is one the
  /// polled mode would have seen at the same instant.
  sim::Duration control_interval = sim::minutes(1);
  /// Control-plane driving mode (see ControlMode).
  ControlMode control_mode = ControlMode::kPolled;
  /// Per-feeder DrConfig overrides keyed by feeder id: feeder k runs
  /// feeder_dr[k] when engaged, the shared `dr` otherwise (and when k
  /// is past the vector's end). Small volatile shards typically want
  /// longer holds than big surgical ones. Ignored, like `dr`, when the
  /// grid layer is disabled.
  std::vector<std::optional<grid::DrConfig>> feeder_dr;
  /// Substation tie switches (inter-feeder load transfer). Takes
  /// effect only with the grid layer enabled and feeder_count > 1;
  /// disabled ties leave every output byte-identical to the
  /// transfer-free engine.
  grid::TieConfig tie;
  /// Premise-side tariff response: premises defer discretionary
  /// requests out of peak-tariff windows (full and device tiers; the
  /// statistical tier's elasticity hook responds regardless). Off by
  /// default — the tariff signal stays informational, preserving the
  /// pre-fidelity outputs byte-for-byte.
  bool premise_tariff_defer = false;
};

/// One neighborhood run.
struct FleetConfig {
  std::size_t premise_count = 100;
  std::uint64_t seed = 1;
  sim::Duration horizon = sim::hours(24);
  sim::Duration sample_interval = sim::minutes(1);
  /// CP round period per premise. Fleet runs use the calibrated abstract
  /// CP; 10 s rounds are ample for 15-minute duty-cycle granularity.
  sim::Duration round_period = sim::seconds(10);
  double abstract_reliability = 0.999;
  /// Feeder transformer rating for the WHOLE fleet; <= 0 derives 2 kW
  /// per premise. Sharded fleets split it across feeders by planned
  /// weight (see feeder_skew).
  double transformer_capacity_kw = 0.0;
  /// Number of feeders the premises are sharded across (>= 1). Each
  /// feeder gets its own transformer model and — under run_grid — its
  /// own DR controller and signal bus beneath one substation.
  std::size_t feeder_count = 1;
  /// Shard-size skew in [0, inf): feeder k's planned weight is
  /// (1 + feeder_skew)^k, so 0 plans equal shards and larger values
  /// deliberately unbalance them toward the later feeders. Premise
  /// assignment draws against these weights from a per-premise RNG
  /// stream — a pure function of (seed, index, feeder_count, skew)
  /// that never perturbs the other premise draws. Capacity shares
  /// follow the planned weights (feeders are sized for expected
  /// demand), so an unlucky empty shard still has a rated transformer.
  double feeder_skew = 0.0;
  PremiseProfile profile;
  /// Closed-loop grid layer (run_grid only; run() ignores it).
  GridOptions grid;
  /// Per-premise fidelity tiers (see fidelity/fidelity.hpp). The
  /// default policy keeps every premise at full fidelity — the
  /// pre-fidelity engine byte-for-byte.
  fidelity::FidelityPolicy fidelity;
};

/// Fully resolved inputs of one premise: pure function of (seed, index).
struct PremiseSpec {
  std::size_t index = 0;
  /// Feeder shard this premise hangs off (always 0 when
  /// FleetConfig::feeder_count == 1).
  std::size_t feeder = 0;
  core::ExperimentConfig experiment;
  std::vector<appliance::Request> trace;
  double base_kw = 0.0;
  double base_swing = 0.0;
};

/// Output of one premise simulation.
struct PremiseResult {
  std::size_t index = 0;
  std::size_t feeder = 0;
  std::size_t device_count = 0;
  core::SchedulerKind scheduler = core::SchedulerKind::kCoordinated;
  double peak_kw = 0.0;
  double mean_kw = 0.0;
  std::uint64_t requests = 0;
  core::NetworkStats network;
  metrics::TimeSeries load;  // Type-2 + diurnal base, fleet sample grid
};

/// Output of one fleet run. `premises` is ordered by index, so equality
/// of two FleetResults is independent of executor thread count.
struct FleetResult {
  std::vector<PremiseResult> premises;
  metrics::TimeSeries feeder_load;
  FeederMetrics feeder;
  /// Per-feeder slices (one entry per feeder, feeder order; a single
  /// shard covering everything when feeder_count == 1).
  std::vector<FeederShard> shards;
  /// Inter-feeder roll-up over `shards` against the fleet capacity.
  SubstationMetrics substation;
  std::size_t coordinated_premises = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t min_dcd_violations = 0;
  std::uint64_t service_gap_violations = 0;
};

/// Closed-loop outcome of one feeder shard under run_grid.
struct FeederOutcome {
  std::size_t feeder = 0;
  /// Premises on this feeder at the end of the run — with transfers
  /// active at the horizon this differs from the planned shard size.
  std::size_t premises = 0;
  /// This shard's capacity share of the fleet transformer rating.
  double capacity_kw = 0.0;
  /// This feeder's controller counters.
  grid::DrStats dr;
  /// Thermal outcome of this feeder's control-loop transformer model.
  double overload_minutes = 0.0;
  double hot_minutes = 0.0;
  double peak_temperature_pu = 0.0;
  double peak_load_kw = 0.0;
  std::size_t opted_in_premises = 0;
  std::size_t complying_premises = 0;
  /// Observations this feeder's controller processed. Polled: one per
  /// barrier. Event-driven: only crossing/deadline wakes + the prime —
  /// the gap to the barrier count is work the controller skipped.
  std::uint64_t controller_wakes = 0;
  /// This feeder's signals in emission order (ids are per feeder).
  std::vector<grid::GridSignal> signals;
  /// This feeder's (signal x premise) delivery log; premise fields are
  /// global indices.
  std::vector<grid::Delivery> deliveries;
  /// This feeder's log as CSV (single-feeder format) — byte-identical
  /// at any executor width.
  std::string signal_log_csv;

  // --- Tie-switch traffic (all zero with transfers disabled) ----------
  /// Transfer operations that lent this feeder's premises out / that
  /// borrowed foreign premises onto it (give-backs are the return leg
  /// and are not counted again).
  std::uint64_t transfers_out = 0;
  std::uint64_t transfers_in = 0;
  /// Premises lent out / borrowed in across those operations.
  std::uint64_t premises_lent = 0;
  std::uint64_t premises_borrowed = 0;
  /// Energy of this feeder's home premises served by neighbors, and of
  /// foreign premises this bank served, over borrowed time (kWh).
  double energy_lent_kwh = 0.0;
  double energy_borrowed_kwh = 0.0;
};

/// Output of one closed-loop (grid-layer) fleet run.
struct GridFleetResult {
  /// Same shape as a plain run — premise series, feeder aggregation.
  FleetResult fleet;
  /// Per-feeder closed-loop outcomes (one entry per feeder).
  std::vector<FeederOutcome> feeders;
  /// Controller-side counters summed across feeders: sheds, all-clears,
  /// tariff changes, unserved-shed kW, shed latency.
  grid::DrStats dr;
  /// Thermal outcome of the substation bank model watching the summed
  /// load (identical to feeders[0]'s with a single feeder).
  double overload_minutes = 0.0;
  double hot_minutes = 0.0;
  double peak_temperature_pu = 0.0;
  double substation_capacity_kw = 0.0;
  /// Control barriers the run used (global lockstep synchronization
  /// points, including the priming barrier at the epoch). Polled:
  /// horizon / control_interval + 1; event_driven: O(control
  /// decisions) plus the observation-cap safety net.
  std::uint64_t control_barriers = 0;
  /// Controller observations summed across feeders (see
  /// FeederOutcome::controller_wakes).
  std::uint64_t controller_wakes = 0;
  /// Premises enrolled in the DR program (drawn by the SignalBus).
  std::size_t opted_in_premises = 0;
  /// Enrolled premises that can actually act (coordinated scheduler).
  std::size_t complying_premises = 0;
  /// Every signal emitted, concatenated in feeder order (emission order
  /// within a feeder; ids are per feeder).
  std::vector<grid::GridSignal> signals;
  /// Flat (signal x premise) delivery/compliance log, feeder order.
  std::vector<grid::Delivery> deliveries;
  /// Every actuated tie-switch operation in actuation order (empty
  /// with transfers disabled). Replaying it from the planned shard
  /// assignment reconstructs the serving-feeder timeline of every
  /// premise — the invariant harness leans on that.
  std::vector<grid::TieEvent> transfers;
  /// The substation log rendered as CSV — the byte-comparable
  /// determinism artifact (identical for any executor width; verbatim
  /// the single bus log when feeder_count == 1).
  std::string signal_log_csv;
  /// The run's total service-gap violations, surfaced as the comfort
  /// cost of DR: gaps are audited against the *base* maxDCP even while
  /// a shed stretches the envelope, so sheds legitimately raise this
  /// (the coordinated policy keeps it at zero without DR).
  std::uint64_t comfort_gap_violations = 0;
};

/// Runs N independent premises concurrently and aggregates the feeder
/// view. Deterministic in config.seed for any executor width.
class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

  /// Deterministically draws premise `index`'s full configuration and
  /// request trace from the fleet seed (exposed for tests).
  [[nodiscard]] PremiseSpec make_spec(std::size_t index) const;

  /// Feeder shard premise `index` is assigned to: a pure function of
  /// (seed, index, feeder_count, feeder_skew) drawn from the premise's
  /// own "feeder" stream, so the assignment never perturbs any other
  /// premise draw and is stable at any executor width.
  [[nodiscard]] std::size_t feeder_of(std::size_t index) const;

  /// Planned capacity share of feeder `k` as a fraction of the fleet
  /// rating: (1 + skew)^k normalized. Exactly 1.0 when feeder_count
  /// == 1 (the K=1 equivalence guarantee depends on it).
  [[nodiscard]] double feeder_capacity_share(std::size_t k) const;

  /// Fidelity tier premise `index` runs at under config().fidelity —
  /// kFull for every premise under the default (all-full) policy. The
  /// tier table is stratified per feeder and deterministic in the
  /// fleet seed (see fidelity::assign_tiers).
  [[nodiscard]] fidelity::FidelityTier tier_of(std::size_t index) const;

  /// Simulates one premise. Creates the Simulator/HanNetwork in the
  /// calling thread; specs are value types, so this is thread-confined.
  [[nodiscard]] static PremiseResult run_premise(const PremiseSpec& spec);

  /// Builds a PremiseResult from a sampled Type-2 series: overlays the
  /// diurnal base and fills the summary fields (shared by run_premise,
  /// the grid loop and every fidelity backend).
  [[nodiscard]] static PremiseResult assemble_premise_result(
      const PremiseSpec& spec, const metrics::TimeSeries& type2_load,
      const core::NetworkStats& network);

  /// Runs the whole fleet on `executor`. With a non-null `telemetry`
  /// sink the run is profiled into it (phase spans, deterministic
  /// counters, optional trace events — see telemetry/telemetry.hpp);
  /// the simulation outputs are byte-identical either way.
  [[nodiscard]] FleetResult run(Executor& executor,
                                telemetry::Collector* telemetry) const;
  [[nodiscard]] FleetResult run(Executor& executor) const;
  /// Convenience: runs on a temporary executor with `threads` workers
  /// (0 = hardware concurrency).
  [[nodiscard]] FleetResult run(std::size_t threads = 0) const;

  /// Closed-loop run: premises advance between control barriers; at a
  /// barrier each feeder's aggregate (summed in index order) reaches
  /// its DemandResponseController and the emitted signals fan out
  /// through the SignalBus to complying premises, landing as
  /// simulation events at each premise's delivery time. Under
  /// ControlMode::kPolled barriers sit at every control_interval
  /// (byte-identical to the pre-event-plane engine); under
  /// kEventDriven they adapt to controller deadlines and threshold
  /// crossings (see ControlMode). Parallelism is premise-granular and
  /// thread-confined between barriers either way, so the result —
  /// including the signal/compliance log — is byte-identical for any
  /// executor width. With config.grid.enabled == false this reproduces
  /// run() exactly (plus thermal metrics). A non-null `telemetry` sink
  /// profiles the run (boot/barrier-sub-phase spans, per-tier advance
  /// time, deterministic counters mirroring this result, optional
  /// trace) without perturbing any output byte.
  [[nodiscard]] GridFleetResult run_grid(Executor& executor,
                                         telemetry::Collector* telemetry)
      const;
  [[nodiscard]] GridFleetResult run_grid(Executor& executor) const;
  [[nodiscard]] GridFleetResult run_grid(std::size_t threads = 0) const;

  /// Diurnal Type-1 base load of `spec` at time `t` (exposed for the
  /// grid loop and tests).
  [[nodiscard]] static double diurnal_base_kw(const PremiseSpec& spec,
                                              sim::TimePoint t);

 private:
  /// Runs premise `index` open-loop at its assigned tier (run() path).
  [[nodiscard]] PremiseResult run_premise_at_tier(std::size_t index) const;
  /// Sequential, index-ordered feeder aggregation over out.premises.
  void finish_aggregate(FleetResult& out) const;
  [[nodiscard]] double resolved_capacity_kw() const;
  /// Telemetry phase charged for a premise advancing at `tier`.
  [[nodiscard]] static telemetry::Phase tier_phase(
      fidelity::FidelityTier tier) noexcept;
  /// Sets the fleet-shape counters shared by run() and run_grid():
  /// premises, feeders and the premise count at each tier.
  void count_fleet_shape(telemetry::Collector& tel) const;

  FleetConfig config_;
  /// Planned feeder weights (1 + skew)^k and their sum — a pure
  /// function of the config, cached so per-premise assignment does not
  /// recompute the geometric series.
  std::vector<double> feeder_weights_;
  double feeder_weight_total_ = 0.0;
  /// Per-premise tier table; empty under the default all-full policy
  /// (no fidelity RNG is drawn at all on that path).
  std::vector<fidelity::FidelityTier> tiers_;
};

}  // namespace han::fleet
