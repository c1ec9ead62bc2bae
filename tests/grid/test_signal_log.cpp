// The signal/compliance log a grid run returns, compared byte for byte
// against a reference renderer: the straightforward ostream + printf
// formatter that looks each row's signal up by id. The production
// renderer (SignalBus::append_log_rows, join_feeder_logs) must produce
// exactly what the reference prints, per feeder and substation-wide.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fidelity/fidelity.hpp"
#include "fleet/engine.hpp"
#include "fleet/executor.hpp"
#include "fleet/scenario.hpp"
#include "grid/bus.hpp"
#include "grid/substation.hpp"

namespace han::grid {
namespace {

std::string reference_fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void reference_rows(std::ostream& os, const std::vector<GridSignal>& signals,
                    const std::vector<Delivery>& log,
                    std::string_view row_prefix) {
  for (const Delivery& d : log) {
    const GridSignal* sp = nullptr;
    for (const GridSignal& cand : signals) {
      if (cand.id == d.signal_id) {
        sp = &cand;
        break;
      }
    }
    if (sp == nullptr) continue;
    const GridSignal& s = *sp;
    os << row_prefix << d.signal_id << ',' << to_string(s.kind) << ','
       << reference_fmt(s.at.since_epoch().minutes_f(), 3) << ','
       << reference_fmt(s.target_kw, 3) << ','
       << reference_fmt(s.shed_kw, 3) << ',' << s.period_stretch << ','
       << reference_fmt(s.duration.minutes_f(), 1) << ',' << to_string(s.tier)
       << ',' << d.premise << ','
       << reference_fmt(d.deliver_at.since_epoch().minutes_f(), 3) << ','
       << (d.complied ? 1 : 0) << '\n';
  }
}

std::string reference_feeder_log(const fleet::FeederOutcome& fo) {
  std::ostringstream os;
  os << "signal_id,kind,emit_min,target_kw,shed_kw,stretch,duration_min,"
        "tier,premise,deliver_min,complied\n";
  reference_rows(os, fo.signals, fo.deliveries, {});
  return os.str();
}

std::string reference_fleet_log(const fleet::GridFleetResult& r) {
  if (r.feeders.size() == 1) return reference_feeder_log(r.feeders.front());
  std::ostringstream os;
  os << "feeder,signal_id,kind,emit_min,target_kw,shed_kw,stretch,"
        "duration_min,tier,premise,deliver_min,complied\n";
  for (std::size_t k = 0; k < r.feeders.size(); ++k) {
    const std::string prefix = std::to_string(k) + ",";
    reference_rows(os, r.feeders[k].signals, r.feeders[k].deliveries, prefix);
  }
  return os.str();
}

fleet::GridFleetResult run(const fleet::FleetConfig& cfg,
                           std::size_t threads) {
  const fleet::FleetEngine engine(cfg);
  fleet::Executor executor(threads);
  return engine.run_grid(executor);
}

void expect_logs_match_reference(const fleet::GridFleetResult& r) {
  std::size_t rows = 0;
  for (const fleet::FeederOutcome& fo : r.feeders) {
    EXPECT_EQ(fo.signal_log_csv, reference_feeder_log(fo))
        << "feeder " << fo.feeder;
    rows += fo.deliveries.size();
  }
  EXPECT_EQ(r.signal_log_csv, reference_fleet_log(r));
  EXPECT_EQ(rows, r.deliveries.size());
}

TEST(SignalLog, StatRollingShedMatchesReference) {
  fleet::FleetConfig cfg =
      fleet::make_scenario(fleet::ScenarioKind::kRollingShed, 300, 9);
  cfg.fidelity = *fidelity::policy_from_flag("stat");
  cfg.grid.control_mode = fleet::ControlMode::kPolled;
  ASSERT_EQ(cfg.feeder_count, 1u);
  const fleet::GridFleetResult r = run(cfg, 2);
  ASSERT_GT(r.dr.shed_signals, 0u);
  ASSERT_GT(r.deliveries.size(), 1000u);
  expect_logs_match_reference(r);
  // K=1: the fleet log is feeder 0's log itself.
  EXPECT_EQ(r.signal_log_csv, r.feeders.front().signal_log_csv);
}

TEST(SignalLog, DeviceTieSwitchEventMatchesReference) {
  fleet::FleetConfig cfg =
      fleet::make_scenario(fleet::ScenarioKind::kTieSwitch, 240, 3);
  cfg.fidelity = *fidelity::policy_from_flag("device");
  cfg.grid.control_mode = fleet::ControlMode::kEventDriven;
  cfg.grid.tie.enabled = true;
  cfg.feeder_count = 4;
  const fleet::GridFleetResult r = run(cfg, 3);
  ASSERT_EQ(r.feeders.size(), 4u);
  ASSERT_GT(r.dr.shed_signals, 0u);
  ASSERT_FALSE(r.transfers.empty());
  expect_logs_match_reference(r);
  // Every feeder's rows are in the substation log, once, behind "k,".
  std::vector<std::string_view> feeder_logs;
  for (const fleet::FeederOutcome& fo : r.feeders) {
    feeder_logs.push_back(fo.signal_log_csv);
  }
  EXPECT_EQ(join_feeder_logs(feeder_logs), r.signal_log_csv);
}

/// A substation whose buses carry signals of their own: the spliced
/// per-feeder logs must equal Substation::write_log_csv, which renders
/// the rows itself behind the feeder prefix.
TEST(SignalLog, SpliceEqualsSubstationWriteLogCsv) {
  for (const std::size_t k_feeders : {1u, 3u}) {
    std::vector<FeederPlan> plans(k_feeders);
    for (std::size_t k = 0; k < k_feeders; ++k) {
      plans[k].feeder.capacity_kw = 50.0;
      for (std::size_t i = 0; i < 4 + k; ++i) {
        plans[k].premises.push_back(k * 10 + i);
      }
    }
    Substation sub(SubstationConfig{}, std::move(plans), sim::Rng(11));
    for (std::size_t k = 0; k < k_feeders; ++k) {
      for (std::uint32_t id = 0; id < 3; ++id) {
        GridSignal s;
        s.id = id;
        s.feeder = static_cast<std::uint32_t>(k);
        s.kind = id == 1 ? SignalKind::kAllClear : SignalKind::kDrShed;
        s.at = sim::TimePoint::epoch() + sim::minutes(7 * (id + 1));
        s.target_kw = 40.0 + static_cast<double>(k);
        s.shed_kw = 2.5;
        s.period_stretch = 2;
        s.duration = sim::minutes(30);
        (void)sub.bus(k).publish(s);
      }
    }
    std::vector<std::string> logs;
    for (std::size_t k = 0; k < k_feeders; ++k) {
      logs.push_back(sub.bus(k).log_csv());
    }
    const std::vector<std::string_view> views(logs.begin(), logs.end());
    std::ostringstream written;
    sub.write_log_csv(written);
    EXPECT_EQ(join_feeder_logs(views), written.str()) << k_feeders;
  }
}

TEST(SignalLog, JoinRejectsALogWithoutHeader) {
  const std::vector<std::string_view> logs = {"0,dr_shed\n"};
  EXPECT_THROW((void)join_feeder_logs(logs), std::invalid_argument);
}

}  // namespace
}  // namespace han::grid
