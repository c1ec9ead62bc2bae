// Event-driven control plane at the engine level: thread-count
// determinism, open-loop equivalence with run(), the barrier-count
// reduction the mode exists for, per-feeder DrConfig overrides, and
// full-window accounting under adaptive barriers.
#include <gtest/gtest.h>

#include "fleet/engine.hpp"
#include "fleet/scenario.hpp"

namespace han::fleet {
namespace {

FleetConfig tiny_dr_heat_wave(std::uint64_t seed = 1) {
  FleetConfig cfg = make_scenario(ScenarioKind::kDrHeatWave, 6, seed);
  cfg.horizon = sim::hours(8);
  cfg.round_period = sim::seconds(30);
  cfg.grid.control_mode = ControlMode::kEventDriven;
  return cfg;
}

FleetConfig tiny_multi_feeder(std::uint64_t seed = 1) {
  FleetConfig cfg = make_scenario(ScenarioKind::kMultiFeeder, 10, seed);
  cfg.horizon = sim::hours(8);
  cfg.round_period = sim::seconds(30);
  cfg.feeder_count = 3;
  cfg.grid.control_mode = ControlMode::kEventDriven;
  return cfg;
}

void expect_identical_fleet(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.premises.size(), b.premises.size());
  for (std::size_t i = 0; i < a.premises.size(); ++i) {
    EXPECT_EQ(a.premises[i].scheduler, b.premises[i].scheduler) << i;
    EXPECT_EQ(a.premises[i].requests, b.premises[i].requests) << i;
    EXPECT_EQ(a.premises[i].load.values(), b.premises[i].load.values()) << i;
  }
  EXPECT_EQ(a.feeder_load.values(), b.feeder_load.values());
  EXPECT_DOUBLE_EQ(a.feeder.overload_minutes, b.feeder.overload_minutes);
}

TEST(EventMode, ByteIdenticalAcrossThreadCounts) {
  const FleetEngine engine(tiny_dr_heat_wave());
  const GridFleetResult one = engine.run_grid(1);
  const GridFleetResult four = engine.run_grid(4);
  const GridFleetResult seven = engine.run_grid(7);

  ASSERT_FALSE(one.signal_log_csv.empty());
  EXPECT_EQ(one.signal_log_csv, four.signal_log_csv);
  EXPECT_EQ(one.signal_log_csv, seven.signal_log_csv);
  EXPECT_EQ(one.signals, four.signals);
  EXPECT_EQ(one.deliveries, four.deliveries);
  EXPECT_EQ(one.control_barriers, four.control_barriers);
  EXPECT_EQ(one.controller_wakes, four.controller_wakes);
  expect_identical_fleet(one.fleet, four.fleet);
  expect_identical_fleet(one.fleet, seven.fleet);
  EXPECT_DOUBLE_EQ(one.overload_minutes, four.overload_minutes);
  EXPECT_DOUBLE_EQ(one.peak_temperature_pu, four.peak_temperature_pu);
}

TEST(EventMode, MultiFeederByteIdenticalAcrossThreadCounts) {
  const FleetEngine engine(tiny_multi_feeder());
  const GridFleetResult one = engine.run_grid(1);
  const GridFleetResult four = engine.run_grid(4);
  expect_identical_fleet(one.fleet, four.fleet);
  EXPECT_EQ(one.signal_log_csv, four.signal_log_csv);
  ASSERT_EQ(one.feeders.size(), four.feeders.size());
  for (std::size_t k = 0; k < one.feeders.size(); ++k) {
    EXPECT_EQ(one.feeders[k].signals, four.feeders[k].signals) << k;
    EXPECT_EQ(one.feeders[k].controller_wakes,
              four.feeders[k].controller_wakes)
        << k;
    EXPECT_DOUBLE_EQ(one.feeders[k].overload_minutes,
                     four.feeders[k].overload_minutes)
        << k;
  }
}

TEST(EventMode, OpenLoopReproducesPlainRun) {
  // With the controllers muted the premises never hear the grid, so
  // adaptive barriers must not change any premise-side output: the
  // event-driven open loop reproduces run() byte-for-byte.
  FleetConfig cfg = tiny_dr_heat_wave();
  cfg.grid.enabled = false;
  const FleetEngine engine(cfg);
  const FleetResult plain = engine.run(2);
  const GridFleetResult looped = engine.run_grid(2);
  expect_identical_fleet(plain, looped.fleet);
  EXPECT_TRUE(looped.signals.empty());
  EXPECT_EQ(looped.dr.shed_signals, 0u);
  // The passive models still measured the transformer (coarsely).
  EXPECT_GT(looped.peak_temperature_pu, 0.0);
}

TEST(EventMode, CutsBarriersAndControllerWakes) {
  FleetConfig event = tiny_multi_feeder();
  FleetConfig polled = event;
  polled.grid.control_mode = ControlMode::kPolled;

  const GridFleetResult ev = FleetEngine(event).run_grid(2);
  const GridFleetResult po = FleetEngine(polled).run_grid(2);

  // Polled: one barrier per control interval plus the prime, and every
  // controller woken at each one.
  const auto intervals = static_cast<std::uint64_t>(
      polled.horizon / polled.grid.control_interval);
  EXPECT_EQ(po.control_barriers, intervals + 1);
  EXPECT_EQ(po.controller_wakes,
            po.control_barriers * polled.feeder_count);

  // Event-driven: the acceptance bar is >= 5x fewer barriers, and
  // controllers wake at most once per barrier.
  EXPECT_GE(po.control_barriers, 5 * ev.control_barriers)
      << "event mode barriers: " << ev.control_barriers;
  EXPECT_LE(ev.controller_wakes,
            ev.control_barriers * event.feeder_count);
  EXPECT_GT(ev.dr.shed_signals, 0u) << "the scenario must still shed";
}

TEST(EventMode, PerFeederDrOverridesApply) {
  // Run under polled mode so barrier times are fixed: an override on
  // feeder 0 must leave the other shards' signal streams untouched
  // (in event mode feeder 0's deadlines legitimately move the shared
  // barriers), and every shed feeder 0 emits must carry the
  // override's target.
  FleetConfig cfg = tiny_multi_feeder();
  cfg.grid.control_mode = ControlMode::kPolled;
  grid::DrConfig tuned = cfg.grid.dr;
  tuned.target_utilization = 0.8;
  tuned.trigger_hold = sim::minutes(9);
  cfg.grid.feeder_dr = {tuned};
  const GridFleetResult r = FleetEngine(cfg).run_grid(2);
  ASSERT_EQ(r.feeders.size(), 3u);

  FleetConfig plain = tiny_multi_feeder();
  plain.grid.control_mode = ControlMode::kPolled;
  const GridFleetResult base = FleetEngine(plain).run_grid(2);
  EXPECT_EQ(r.feeders[1].signals, base.feeders[1].signals);
  EXPECT_EQ(r.feeders[2].signals, base.feeders[2].signals);
  for (const grid::GridSignal& s : r.feeders[0].signals) {
    if (s.kind != grid::SignalKind::kDrShed) continue;
    EXPECT_DOUBLE_EQ(s.target_kw, 0.8 * r.feeders[0].capacity_kw);
  }
}

TEST(EventMode, PerFeederOverrideCanMuteOneShard) {
  FleetConfig cfg = tiny_multi_feeder();
  grid::DrConfig muted = cfg.grid.dr;
  muted.shed_enabled = false;
  // Feeder 1 disengaged (nullopt): shared config. Feeder 0 muted.
  cfg.grid.feeder_dr = {muted, std::nullopt};
  const GridFleetResult r = FleetEngine(cfg).run_grid(2);
  EXPECT_EQ(r.feeders[0].dr.shed_signals, 0u);
  std::uint64_t rest = 0;
  for (std::size_t k = 1; k < r.feeders.size(); ++k) {
    rest += r.feeders[k].dr.shed_signals;
  }
  EXPECT_GT(rest, 0u) << "other shards must still shed";
}

TEST(EventMode, AccountingCoversTheFullWindow) {
  // Adaptive barriers must not open accounting holes: with an
  // always-overloaded transformer the monitor-sourced overload minutes
  // still cover the whole (0, horizon] span.
  FleetConfig cfg = tiny_multi_feeder();
  cfg.grid.enabled = false;
  cfg.transformer_capacity_kw = 1e-3;
  const GridFleetResult r = FleetEngine(cfg).run_grid(2);
  EXPECT_DOUBLE_EQ(r.overload_minutes, cfg.horizon.minutes_f());
  for (const FeederOutcome& fo : r.feeders) {
    if (fo.premises == 0) continue;
    EXPECT_DOUBLE_EQ(fo.overload_minutes, cfg.horizon.minutes_f())
        << fo.feeder;
  }
}

TEST(EventMode, FinalBarrierWakesEveryController) {
  // A quiet grid-enabled run: no crossings, no deadlines — yet every
  // controller must still observe the horizon-end barrier (the polled
  // loop's final control step does), or the DR time integrals would
  // silently drop the tail between a controller's last wake and the
  // horizon.
  FleetConfig cfg = tiny_multi_feeder();
  cfg.transformer_capacity_kw = 1e9;  // nothing ever crosses a band
  const GridFleetResult r = FleetEngine(cfg).run_grid(2);
  EXPECT_EQ(r.dr.shed_signals, 0u);
  for (const FeederOutcome& fo : r.feeders) {
    EXPECT_EQ(fo.controller_wakes, 2u) << fo.feeder;  // prime + horizon end
  }
}

TEST(EventMode, BarriersStayOnTheControlIntervalGrid) {
  // Every delivery timestamp derives from a barrier; barriers snapped
  // to the grid mean every emitted signal's time is a whole multiple
  // of the control interval.
  FleetConfig cfg = tiny_multi_feeder();
  const GridFleetResult r = FleetEngine(cfg).run_grid(2);
  ASSERT_FALSE(r.signals.empty());
  for (const grid::GridSignal& s : r.signals) {
    EXPECT_EQ(s.at.us() % cfg.grid.control_interval.us(), 0)
        << "signal " << s.id << " off-grid at " << s.at.us();
  }
}

}  // namespace
}  // namespace han::fleet
