// han::grid — the substation above a sharded fleet of feeders.
//
// One feeder caps how many premises a single control loop can serve; a
// real distribution network hangs K feeders off a substation bank and
// controls each independently. The Substation owns K shards — each a
// (FeederModel, DemandResponseController, SignalBus) triple serving a
// disjoint premise list — plus its own transformer-bank model watching
// the summed load, which is where inter-feeder effects (coincident
// substation peak vs the sum of per-feeder peaks) become observable.
//
// Control stays feeder-local: each controller sees only its shard's
// aggregate, and its signals reach only its shard's premises (stamped
// with the feeder id so a premise can drop misrouted traffic). With one
// shard holding every premise the Substation is byte-identical to the
// plain single-feeder control loop — the K=1 equivalence guarantee the
// fleet tests pin.
//
// With a TieConfig the substation stops being a passive accountant:
// normally-open tie switches join adjacent feeders, and when one
// feeder runs persistently over its transfer-trigger band while a tied
// neighbor has headroom, the substation closes the tie and re-homes a
// bounded slice of the overloaded feeder's premises onto the
// neighbor's bank (bus membership migrates by global premise id, so
// every subscription draw survives the move). Actuation is delayed by
// the mechanical switch latency, the transfer is held for a minimum
// time, and give-back is hysteretic — the donor must be able to carry
// the returned load strictly below the trigger — so the switch cannot
// ping-pong premises between two busy feeders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/bus.hpp"
#include "grid/controller.hpp"
#include "grid/feeder.hpp"
#include "sim/random.hpp"

namespace han::telemetry {
class Collector;
}  // namespace han::telemetry

namespace han::grid {

/// Substation-bank parameters. Unset fields inherit from the feeders:
/// capacity defaults to the sum of feeder capacities, and the thermal
/// shape to feeder 0's (so a one-feeder substation measures exactly
/// what its feeder measures).
struct SubstationConfig {
  /// Bank rating (kW); <= 0 derives the sum of feeder capacities.
  double capacity_kw = 0.0;
  /// Hotspot time constant; <= 0 inherits feeder 0's.
  sim::Duration thermal_tau = sim::Duration::zero();
  /// Per-unit hot-minute threshold; <= 0 inherits feeder 0's.
  double overload_temp_pu = 0.0;
};

/// Tie-switch topology and inter-feeder transfer tuning. Disabled by
/// default: every guarantee of the passive substation (byte-identical
/// logs, K=1 collapse) is preserved until `enabled` flips.
struct TieConfig {
  bool enabled = false;
  /// Tie switches as unordered feeder pairs. Empty derives a ring over
  /// the K feeders (k — k+1 mod K; a single tie for K == 2, none for
  /// K == 1).
  std::vector<std::pair<std::size_t, std::size_t>> ties;
  /// Donor utilization at/above which a transfer is considered (the
  /// transfer-trigger band).
  double trigger_utilization = 1.0;
  /// A transfer aims the donor back down to this utilization.
  double donor_target_utilization = 0.9;
  /// The receiver must stay at/below this utilization with the moved
  /// load added — the headroom test.
  double receiver_cap_utilization = 0.9;
  /// Hard ceiling on the load moved per operation, as a fraction of
  /// the donor's current load (a premise that does not fit whole
  /// under the ceiling is skipped in favor of smaller ones).
  double max_transfer_fraction = 0.3;
  /// Decision-to-actuation delay of the mechanical tie switch.
  sim::Duration switch_latency = sim::minutes(1);
  /// Minimum time a transfer stays in place before give-back is
  /// considered.
  sim::Duration hold_time = sim::minutes(30);
  /// Give-back requires the donor to carry the returned load at/below
  /// this utilization. Must sit strictly below trigger_utilization
  /// (enforced at construction) — the gap is the hysteresis that
  /// stops the switch ping-ponging.
  double give_back_utilization = 0.8;
};

/// Tie-switch operation counters.
struct TieStats {
  /// Actuations of any tie switch (transfers + give-backs).
  std::uint64_t switch_operations = 0;
  std::uint64_t transfers = 0;
  std::uint64_t give_backs = 0;
  /// Premises moved across a tie, both directions summed.
  std::uint64_t premise_moves = 0;
};

/// One actuated tie-switch operation: `premises` moved from feeder
/// `from` to feeder `to` at `at`. For a give-back, `to` is the
/// premises' home feeder and `from` the neighbor that had borrowed
/// them.
struct TieEvent {
  sim::TimePoint at;
  std::size_t from = 0;
  std::size_t to = 0;
  bool give_back = false;
  /// Global premise ids moved, ascending.
  std::vector<std::size_t> premises;
  /// Instantaneous load the operation moved, at decision time (kW).
  double moved_kw = 0.0;

  bool operator==(const TieEvent&) const = default;
};

/// One lent premise set currently living on a neighbor's bank.
struct ActiveTransfer {
  std::size_t from = 0;  ///< Home (donor) feeder.
  std::size_t to = 0;    ///< Feeder currently serving the premises.
  std::vector<std::size_t> premises;
  sim::TimePoint since;
  sim::TimePoint hold_until;
  /// A give-back has been decided and awaits its switch latency.
  bool give_back_pending = false;
};

/// Construction inputs of one feeder shard.
struct FeederPlan {
  FeederConfig feeder;
  DrConfig dr;
  BusConfig bus;
  /// Global premise ids served by this feeder, ascending. May be empty
  /// (an unpopulated feeder still exists on the pole).
  std::vector<std::size_t> premises;
};

class Substation {
 public:
  /// Builds the K shards. `bus_rng` is the shared root every shard's
  /// SignalBus draws per-global-premise subscriptions from — a premise
  /// keeps its latency/opt-in draws however the fleet is sharded.
  /// `tie` closes the loop between feeders; the default keeps every
  /// tie switch absent (the pre-transfer behavior, bit-for-bit).
  Substation(SubstationConfig config, std::vector<FeederPlan> plans,
             const sim::Rng& bus_rng, TieConfig tie = {});

  [[nodiscard]] std::size_t feeder_count() const noexcept {
    return shards_.size();
  }
  /// Total premises across all shards.
  [[nodiscard]] std::size_t premise_count() const noexcept;

  [[nodiscard]] const std::vector<std::size_t>& premises(
      std::size_t feeder) const {
    return shards_.at(feeder).premises;
  }
  [[nodiscard]] DemandResponseController& controller(std::size_t feeder) {
    return shards_.at(feeder).controller;
  }
  [[nodiscard]] const DemandResponseController& controller(
      std::size_t feeder) const {
    return shards_.at(feeder).controller;
  }
  [[nodiscard]] SignalBus& bus(std::size_t feeder) {
    return shards_.at(feeder).bus;
  }
  [[nodiscard]] const SignalBus& bus(std::size_t feeder) const {
    return shards_.at(feeder).bus;
  }
  /// Substation-level transformer bank (observes the summed load).
  [[nodiscard]] const FeederModel& transformer() const noexcept {
    return transformer_;
  }

  /// Feeds feeder `feeder`'s aggregate at `t` to its controller and
  /// returns the emitted signals, each stamped with the feeder id.
  /// Publish them through bus(feeder) to reach that shard's premises.
  [[nodiscard]] std::vector<GridSignal> observe_feeder(std::size_t feeder,
                                                       sim::TimePoint t,
                                                       double load_kw);

  /// Event-driven routing: hands a crossing-triggered observation of
  /// feeder `feeder`'s aggregate to that shard's controller, stamping
  /// the emitted signals with the feeder id (publish through
  /// bus(feeder), exactly as with observe_feeder).
  [[nodiscard]] std::vector<GridSignal> on_crossing(std::size_t feeder,
                                                    const Observation& obs);
  /// Event-driven routing: same for a deadline-triggered observation.
  [[nodiscard]] std::vector<GridSignal> on_timer(std::size_t feeder,
                                                 const Observation& obs);
  /// Feeds the substation total (the sum of the per-feeder aggregates)
  /// to the bank model; call once per control barrier, after the
  /// feeders.
  void observe_total(sim::TimePoint t, double load_kw);

  /// Substation-wide signal/compliance log. One feeder: the shard's
  /// bus log verbatim (the single-feeder byte-compatibility artifact).
  /// Several: one header with a leading `feeder` column, rows grouped
  /// by feeder in publish order. Deterministic either way.
  void write_log_csv(std::ostream& os) const;

  // --- Tie switches / inter-feeder load transfer ----------------------
  [[nodiscard]] const TieConfig& tie_config() const noexcept { return tie_; }
  [[nodiscard]] const TieStats& tie_stats() const noexcept {
    return tie_stats_;
  }
  /// Every actuated operation, in actuation order.
  [[nodiscard]] const std::vector<TieEvent>& tie_log() const noexcept {
    return tie_log_;
  }
  /// Lent premise sets currently living away from home.
  [[nodiscard]] const std::vector<ActiveTransfer>& active_transfers()
      const noexcept {
    return active_;
  }
  /// Feeder the premise was constructed on.
  [[nodiscard]] std::size_t home_feeder(std::size_t premise) const;
  /// Feeder currently serving the premise (== home when not lent).
  [[nodiscard]] std::size_t serving_feeder(std::size_t premise) const;

  /// Decides new transfers and give-backs from this barrier's committed
  /// per-feeder aggregates. `premise_load_kw` maps a global premise id
  /// to its instantaneous contribution (used to bound the moved load
  /// and to pick which premises travel: biggest contributors first, so
  /// the fewest switches move the most relief). Decisions actuate after
  /// the switch latency — apply_due_transfers() lands them. Pure
  /// bookkeeping when ties are disabled or K == 1.
  void plan_transfers(
      sim::TimePoint t, const std::vector<double>& feeder_load_kw,
      const std::function<double(std::size_t)>& premise_load_kw);

  /// Actuates every planned operation whose switch latency has elapsed
  /// by `t`: migrates the premises between shard member lists and
  /// buses (subscriptions move wholesale, so every per-premise draw
  /// survives), updates the serving map and counters, and returns the
  /// applied events so the engine can mirror the move (monitor
  /// membership, premise-side feeder stamp).
  std::vector<TieEvent> apply_due_transfers(sim::TimePoint t);

  /// Earliest instant the tie state machine needs a barrier
  /// regardless of load: a planned operation's actuation time (even
  /// when already due — the caller's barrier clamp turns it into "the
  /// next barrier", matching where polled actuates it) or an active
  /// transfer's hold expiry strictly after `after` (give-back becomes
  /// legal there). A hold that already expired is NOT a deadline —
  /// once give-back is merely waiting on the donor's load to recover,
  /// the observation cap bounds the re-check cadence exactly as it does
  /// for DR load triggers. TimePoint::max() when nothing is pending.
  [[nodiscard]] sim::TimePoint next_tie_deadline(
      sim::TimePoint after) const noexcept;

  /// Attaches (nullptr detaches) a telemetry sink: plan_transfers then
  /// charges its decision time to Phase::kTransferPlanning. The sink is
  /// only touched from the control-plane thread, like everything else
  /// in this class.
  void set_telemetry(telemetry::Collector* collector) noexcept {
    telemetry_ = collector;
  }

 private:
  struct Shard {
    DemandResponseController controller;
    SignalBus bus;
    std::vector<std::size_t> premises;
  };

  [[nodiscard]] double capacity_of(std::size_t feeder) const {
    return shards_[feeder].controller.feeder().config().capacity_kw;
  }
  /// Feeders tied to `feeder` (ascending), from the configured pairs or
  /// the derived ring.
  [[nodiscard]] std::vector<std::size_t> tied_neighbors(
      std::size_t feeder) const;

  std::vector<Shard> shards_;
  FeederModel transformer_;

  TieConfig tie_;
  TieStats tie_stats_;
  std::vector<TieEvent> tie_log_;
  /// Planned operations awaiting their switch latency, decision order.
  std::vector<TieEvent> pending_;
  std::vector<ActiveTransfer> active_;
  /// Global premise id -> home / current feeder (lookup only — never
  /// iterated, so the unordered container cannot perturb determinism;
  /// transfer planning walks the deterministic shard member lists).
  // lint:allow(unordered-container): lookup-only id->feeder index, never iterated
  std::unordered_map<std::size_t, std::size_t> home_;
  // lint:allow(unordered-container): lookup-only id->feeder index, never iterated
  std::unordered_map<std::size_t, std::size_t> serving_;
  telemetry::Collector* telemetry_ = nullptr;
};

/// The substation log of write_log_csv, joined from already rendered
/// per-feeder logs (SignalBus::log_csv() of feeders 0..K-1, in order)
/// without rendering a row again: one log is returned as is, several
/// have their rows spliced under one header behind a "k," prefix.
/// Throws std::invalid_argument if a log lacks kSignalLogHeader.
[[nodiscard]] std::string join_feeder_logs(
    const std::vector<std::string_view>& feeder_logs);

}  // namespace han::grid
