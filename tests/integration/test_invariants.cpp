// Cross-mode invariant harness for the closed-loop grid engine.
//
// The configuration matrix grew three independent axes on top of the
// premise/seed space: shard count K, control mode (polled vs
// event-driven), and tie-switch transfers (on vs off). Every cell must
// uphold the same conservation properties, so this harness sweeps
// seeds x K in {1,2,4,8} x both modes x transfers on/off and asserts,
// for every run:
//
//   * energy conservation — the summed premise series IS the
//     substation series (no premise's energy is lost or double-counted
//     by sharding or migration);
//   * exclusive service — replaying the transfer log from the planned
//     shard assignment, every premise is served by exactly one feeder
//     at any instant, transfers lend only home premises, give-backs
//     return them to their home feeder, and the end-of-run membership
//     matches the per-feeder outcomes;
//   * routing integrity — grid_signals_misrouted == 0 at every
//     premise, transfers included;
//   * DR accounting sanity — every time integral is non-negative and
//     bounded by the horizon.
//
// A second group pins event-mode accounting fidelity against polled
// (the PR 4 follow-up): the shed-active and unserved-shed integrals
// are coarser under event barriers, and the pinned tolerance is the
// contract that transfer work cannot silently widen the gap.
// A third group sweeps the fidelity-policy axis (PR 6): every premise
// tier mix — all-full, all-device, all-statistical and a stratified
// 50/50 — must uphold the exact same conservation/routing/accounting
// invariants in every (K, mode) cell, and a mixed-fidelity fleet must
// stay byte-identical across executor widths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fidelity/fidelity.hpp"
#include "fleet/engine.hpp"
#include "fleet/scenario.hpp"

namespace han::fleet {
namespace {

/// tie_switch shrunk to harness size: 10 premises, 6 h. Small shards
/// against thin capacity shares, so sheds and transfers both fire
/// inside the window.
FleetConfig harness_config(std::uint64_t seed, std::size_t feeders,
                           ControlMode mode, bool transfers) {
  FleetConfig cfg = make_scenario(ScenarioKind::kTieSwitch, 10, seed);
  cfg.horizon = sim::hours(6);
  cfg.round_period = sim::seconds(30);
  cfg.feeder_count = feeders;
  cfg.grid.control_mode = mode;
  cfg.grid.tie.enabled = transfers;
  return cfg;
}

double series_sum(const metrics::TimeSeries& s) {
  double sum = 0.0;
  for (const double v : s.values()) sum += v;
  return sum;
}

void check_energy_conservation(const GridFleetResult& r) {
  // Same grid, so equal sums == equal energy. The feeder series is
  // the index-ordered premise sum; shards partition it.
  double premise_sum = 0.0;
  for (const PremiseResult& p : r.fleet.premises) {
    premise_sum += series_sum(p.load);
  }
  const double feeder_sum = series_sum(r.fleet.feeder_load);
  EXPECT_NEAR(premise_sum, feeder_sum,
              1e-9 * std::max(1.0, std::abs(feeder_sum)));

  double shard_sum = 0.0;
  for (const FeederShard& s : r.fleet.shards) shard_sum += series_sum(s.load);
  EXPECT_NEAR(shard_sum, feeder_sum,
              1e-9 * std::max(1.0, std::abs(feeder_sum)));
}

void check_exclusive_service(const FleetEngine& engine,
                             const GridFleetResult& r) {
  // Replay the transfer log over the planned assignment: one serving
  // feeder per premise at all times, moves always consistent.
  const std::size_t n = engine.config().premise_count;
  std::vector<std::size_t> home(n);
  std::vector<std::size_t> serving(n);
  for (std::size_t i = 0; i < n; ++i) {
    home[i] = engine.feeder_of(i);
    serving[i] = home[i];
  }
  for (const grid::TieEvent& ev : r.transfers) {
    for (const std::size_t p : ev.premises) {
      ASSERT_LT(p, n);
      // The move starts where the premise actually is...
      EXPECT_EQ(serving[p], ev.from) << "premise " << p;
      // ...and only home premises travel; give-backs go home.
      if (ev.give_back) {
        EXPECT_EQ(ev.to, home[p]) << "premise " << p;
      } else {
        EXPECT_EQ(ev.from, home[p]) << "premise " << p;
      }
      serving[p] = ev.to;
    }
  }
  // End-of-run membership matches the replay, feeder by feeder.
  std::vector<std::size_t> count(r.feeders.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(serving[i], count.size());
    ++count[serving[i]];
  }
  std::size_t total = 0;
  for (std::size_t k = 0; k < r.feeders.size(); ++k) {
    EXPECT_EQ(r.feeders[k].premises, count[k]) << "feeder " << k;
    total += r.feeders[k].premises;
  }
  EXPECT_EQ(total, n);
}

void check_routing_integrity(const GridFleetResult& r) {
  for (const PremiseResult& p : r.fleet.premises) {
    EXPECT_EQ(p.network.grid_signals_misrouted, 0u) << p.index;
  }
}

void check_dr_integrals(const GridFleetResult& r, sim::Duration horizon) {
  const double horizon_min = horizon.minutes_f();
  double active = 0.0;
  double unserved = 0.0;
  double latency = 0.0;
  for (const FeederOutcome& fo : r.feeders) {
    EXPECT_GE(fo.dr.shed_active_minutes, 0.0) << fo.feeder;
    EXPECT_LE(fo.dr.shed_active_minutes, horizon_min + 1e-9) << fo.feeder;
    EXPECT_GE(fo.dr.unserved_shed_kw_minutes, 0.0) << fo.feeder;
    EXPECT_GE(fo.dr.total_shed_latency_minutes, 0.0) << fo.feeder;
    EXPECT_GE(fo.overload_minutes, 0.0) << fo.feeder;
    EXPECT_GE(fo.hot_minutes, 0.0) << fo.feeder;
    active += fo.dr.shed_active_minutes;
    unserved += fo.dr.unserved_shed_kw_minutes;
    latency += fo.dr.total_shed_latency_minutes;
  }
  // The fleet roll-up is exactly the per-feeder sum.
  EXPECT_DOUBLE_EQ(r.dr.shed_active_minutes, active);
  EXPECT_DOUBLE_EQ(r.dr.unserved_shed_kw_minutes, unserved);
  EXPECT_DOUBLE_EQ(r.dr.total_shed_latency_minutes, latency);
}

TEST(Invariants, HoldAcrossSeedsShardsModesAndTransfers) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const std::size_t feeders : {1u, 2u, 4u, 8u}) {
      for (const ControlMode mode :
           {ControlMode::kPolled, ControlMode::kEventDriven}) {
        for (const bool transfers : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " K=" << feeders << " mode="
                       << (mode == ControlMode::kPolled ? "polled" : "event")
                       << " transfers=" << transfers);
          const FleetConfig cfg =
              harness_config(seed, feeders, mode, transfers);
          const FleetEngine engine(cfg);
          const GridFleetResult r = engine.run_grid(2);

          check_energy_conservation(r);
          check_exclusive_service(engine, r);
          check_routing_integrity(r);
          check_dr_integrals(r, cfg.horizon);

          if (!transfers || feeders == 1) {
            EXPECT_TRUE(r.transfers.empty());
            EXPECT_EQ(r.fleet.substation.tie_switch_operations, 0u);
            EXPECT_EQ(r.fleet.substation.transferred_energy_kwh, 0.0);
          }
        }
      }
    }
  }
}

TEST(Invariants, HoldAcrossFidelityTiers) {
  // Same invariants, fidelity axis: each tier mix through both control
  // modes and shard counts, transfers on (the harshest routing case).
  for (const char* flag : {"full", "device", "stat", "mixed:0.5"}) {
    for (const std::size_t feeders : {1u, 4u}) {
      for (const ControlMode mode :
           {ControlMode::kPolled, ControlMode::kEventDriven}) {
        SCOPED_TRACE(::testing::Message()
                     << "fidelity=" << flag << " K=" << feeders << " mode="
                     << (mode == ControlMode::kPolled ? "polled" : "event"));
        FleetConfig cfg = harness_config(1, feeders, mode, true);
        const auto policy = fidelity::policy_from_flag(flag);
        ASSERT_TRUE(policy.has_value());
        cfg.fidelity = *policy;
        const FleetEngine engine(cfg);
        const GridFleetResult r = engine.run_grid(2);

        check_energy_conservation(r);
        check_exclusive_service(engine, r);
        check_routing_integrity(r);
        check_dr_integrals(r, cfg.horizon);
      }
    }
  }
}

TEST(Invariants, MixedFidelityByteIdenticalAcrossThreads) {
  // A stratified full+statistical fleet must produce bit-equal output
  // for any executor width, exactly like the all-full engine does.
  for (const ControlMode mode :
       {ControlMode::kPolled, ControlMode::kEventDriven}) {
    SCOPED_TRACE(mode == ControlMode::kPolled ? "polled" : "event");
    FleetConfig cfg = harness_config(1, 4, mode, true);
    cfg.fidelity = *fidelity::policy_from_flag("mixed:0.5");
    const FleetEngine engine(cfg);
    const GridFleetResult a = engine.run_grid(1);
    const GridFleetResult b = engine.run_grid(4);

    EXPECT_EQ(a.signal_log_csv, b.signal_log_csv);
    ASSERT_EQ(a.fleet.feeder_load.size(), b.fleet.feeder_load.size());
    for (std::size_t i = 0; i < a.fleet.feeder_load.size(); ++i) {
      ASSERT_EQ(a.fleet.feeder_load.at(i), b.fleet.feeder_load.at(i)) << i;
    }
    ASSERT_EQ(a.fleet.premises.size(), b.fleet.premises.size());
    for (std::size_t p = 0; p < a.fleet.premises.size(); ++p) {
      ASSERT_EQ(a.fleet.premises[p].load.values(),
                b.fleet.premises[p].load.values())
          << "premise " << p;
    }
  }
}

TEST(Invariants, TransfersActuallyFireSomewhereInTheMatrix) {
  // The sweep above must not pass vacuously: at least one transferring
  // cell has to produce tie traffic in each control mode.
  for (const ControlMode mode :
       {ControlMode::kPolled, ControlMode::kEventDriven}) {
    std::uint64_t transfers = 0;
    for (const std::uint64_t seed : {1ull, 2ull}) {
      for (const std::size_t feeders : {4u, 8u}) {
        const GridFleetResult r =
            FleetEngine(harness_config(seed, feeders, mode, true))
                .run_grid(2);
        transfers += r.fleet.substation.tie_transfers;
      }
    }
    EXPECT_GT(transfers, 0u)
        << (mode == ControlMode::kPolled ? "polled" : "event");
  }
}

// --- Event-mode accounting fidelity (ROADMAP PR 4 follow-up) ----------
//
// Event barriers attribute held load across observation gaps, so the
// DR time integrals are coarser than polled's — in one direction:
// excursions the controller never observed cannot enter an integral,
// so event mode under-counts and must never over-count. The adaptive
// observation cap (kObserveCap shrinks to kObserveCapNear while a feeder
// idles inside the trigger band) bounds shed-onset detection latency,
// which is what lets these pins sit much tighter than the pre-adaptive
// ones (they were 0.6x / 1.35x+60 / 1.5x+60 / 6). The pinned contract
// on the harness preset:
//
//   * shed-active minutes stay within 30% of polled (+30 min floor).
//     Shed spans are deadline-anchored so a single shed tracks
//     closely, but WHICH sheds run can differ — sparse barriers see a
//     different load/transfer trajectory (observed up to ~1.21x
//     polled on this preset with transfers on);
//   * the unserved-shed integral never exceeds polled by more than
//     10% (+30 kW-min floor; observed at or below 1.0x with the
//     adaptive cap). No symmetric lower bound: between-barrier
//     excursions legitimately vanish (observed down to ~0.1x polled
//     on this preset), which is the documented PR 4 trade;
//   * turning transfers ON must not widen the |event - polled|
//     unserved gap beyond 1.0x the transfers-OFF gap (+30 kW-min) —
//     the regression guard this satellite exists for;
//   * shed counts stay within 3 (observed diff <= 2 per seed).
TEST(AccountingFidelity, EventIntegralsTrackPolledAcrossTransferModes) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    double unserved_gap[2] = {0.0, 0.0};
    for (const bool transfers : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "transfers=" << transfers);
      const GridFleetResult polled =
          FleetEngine(
              harness_config(seed, 4, ControlMode::kPolled, transfers))
              .run_grid(2);
      const GridFleetResult event =
          FleetEngine(
              harness_config(seed, 4, ControlMode::kEventDriven, transfers))
              .run_grid(2);

      EXPECT_NEAR(event.dr.shed_active_minutes,
                  polled.dr.shed_active_minutes,
                  std::max(0.3 * polled.dr.shed_active_minutes, 30.0))
          << "shed_active_minutes";
      EXPECT_LE(event.dr.unserved_shed_kw_minutes,
                1.1 * polled.dr.unserved_shed_kw_minutes + 30.0)
          << "unserved_shed_kw_minutes";
      EXPECT_GE(event.dr.unserved_shed_kw_minutes, 0.0);
      unserved_gap[transfers ? 1 : 0] =
          std::abs(event.dr.unserved_shed_kw_minutes -
                   polled.dr.unserved_shed_kw_minutes);

      const auto diff = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : b - a;
      };
      // Observed up to 2 on this preset with the adaptive cap (sparse
      // barriers see a different transfer trajectory); 3 is the
      // pinned ceiling.
      EXPECT_LE(diff(event.dr.shed_signals, polled.dr.shed_signals), 3u);
    }
    EXPECT_LE(unserved_gap[1], 1.0 * unserved_gap[0] + 30.0)
        << "transfers widened the event-vs-polled unserved gap";
  }
}

}  // namespace
}  // namespace han::fleet
