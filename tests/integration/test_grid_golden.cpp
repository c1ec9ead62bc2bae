// Closed-loop golden: pins the exact outputs of FleetEngine::run_grid
// in BOTH control modes, so that a refactor of the barrier scheduler
// or of the executor underneath it cannot move a barrier, a wake, a
// signal or a bit unnoticed. The ci/golden CSVs pin the polled logs of
// full-tier presets; this file adds the event-driven scheduler, the
// statistical tier and tie-switch transfers.
//
// Each case pins the barrier and wake counts, the DR signal counts,
// the tie-switch counters, an FNV-1a digest of the rendered signal
// log and, per feeder, the IEEE-754 bits of its overload minutes and
// peak load. Every case must shed, so no pin is trivially empty.
//
// The pinned values were recorded from the engine with separate polled
// and event-driven barrier loops; a refactor of run_grid must pass
// this file unmodified.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fidelity/fidelity.hpp"
#include "fleet/engine.hpp"
#include "fleet/scenario.hpp"

namespace han::fleet {
namespace {

struct Golden {
  const char* name;
  ScenarioKind kind;
  std::size_t premises;
  std::size_t feeders;  // 0 keeps the preset's feeder count
  bool stat;            // statistical tier for every premise
  ControlMode mode;
  std::uint64_t control_barriers;
  std::uint64_t controller_wakes;
  std::uint64_t shed_signals;
  std::uint64_t all_clear_signals;
  std::uint64_t tariff_signals;
  std::uint64_t tie_switch_operations;
  std::uint64_t tie_transfers;
  std::uint64_t tie_give_backs;
  std::uint64_t premises_transferred;
  std::uint64_t log_fnv;
  /// Per feeder: overload-minute bits, then peak-kW bits.
  std::vector<std::uint64_t> feeder_bits;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

/// FNV-1a (64-bit) over the bytes of `text`.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

FleetConfig golden_config(const Golden& g) {
  FleetConfig cfg = make_scenario(g.kind, g.premises, 1);
  cfg.grid.enabled = true;
  cfg.grid.control_mode = g.mode;
  if (g.feeders > 0) cfg.feeder_count = g.feeders;
  if (g.stat) cfg.fidelity = *fidelity::policy_from_flag("stat");
  return cfg;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

class GridGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(GridGolden, RunIsBitIdentical) {
  const Golden& g = GetParam();
  Executor executor(2);
  const GridFleetResult r = FleetEngine(golden_config(g)).run_grid(executor);
  const SubstationMetrics& sub = r.fleet.substation;
  std::vector<std::uint64_t> feeder_bits;
  for (const FeederOutcome& fo : r.feeders) {
    feeder_bits.push_back(std::bit_cast<std::uint64_t>(fo.overload_minutes));
    feeder_bits.push_back(std::bit_cast<std::uint64_t>(fo.peak_load_kw));
  }
  const std::uint64_t log_fnv = fnv1a(r.signal_log_csv);
  // On a mismatch, print the whole observed row so a deliberate model
  // change can re-record it in one step.
  std::string row = "observed: " + std::to_string(r.control_barriers) + ", " +
                    std::to_string(r.controller_wakes) + ", " +
                    std::to_string(r.dr.shed_signals) + ", " +
                    std::to_string(r.dr.all_clear_signals) + ", " +
                    std::to_string(r.dr.tariff_signals) + ", " +
                    std::to_string(sub.tie_switch_operations) + ", " +
                    std::to_string(sub.tie_transfers) + ", " +
                    std::to_string(sub.tie_give_backs) + ", " +
                    std::to_string(sub.premises_transferred) + ", " +
                    hex(log_fnv) + ", {";
  for (const std::uint64_t bits : feeder_bits) row += hex(bits) + ", ";
  row += "}";
  SCOPED_TRACE(row);

  EXPECT_GT(r.dr.shed_signals, 0u) << "a golden that never sheds pins nothing";
  EXPECT_EQ(r.control_barriers, g.control_barriers);
  EXPECT_EQ(r.controller_wakes, g.controller_wakes);
  EXPECT_EQ(r.dr.shed_signals, g.shed_signals);
  EXPECT_EQ(r.dr.all_clear_signals, g.all_clear_signals);
  EXPECT_EQ(r.dr.tariff_signals, g.tariff_signals);
  EXPECT_EQ(sub.tie_switch_operations, g.tie_switch_operations);
  EXPECT_EQ(sub.tie_transfers, g.tie_transfers);
  EXPECT_EQ(sub.tie_give_backs, g.tie_give_backs);
  EXPECT_EQ(sub.premises_transferred, g.premises_transferred);
  EXPECT_EQ(log_fnv, g.log_fnv);
  EXPECT_EQ(feeder_bits, g.feeder_bits);
}

constexpr ControlMode kPolled = ControlMode::kPolled;
constexpr ControlMode kEvent = ControlMode::kEventDriven;

// Seed 1, 24 h presets: rolling_shed on 40 statistical premises,
// multi_feeder resharded to K = 3 and tie_switch (K = 4, transfers on)
// on 8 full-tier premises each.
INSTANTIATE_TEST_SUITE_P(
    Presets, GridGolden,
    ::testing::Values(
        Golden{"RollingShedStatPolled", ScenarioKind::kRollingShed, 40, 0,
               true, kPolled, 1441, 1441, 46, 45, 0, 0, 0, 0, 0,
               0x5df2279f4803c70aULL,
               {0x4082500000000000ULL, 0x406ffef49f66aabcULL}},
        Golden{"RollingShedStatEvent", ScenarioKind::kRollingShed, 40, 0,
               true, kEvent, 194, 179, 41, 40, 0, 0, 0, 0, 0,
               0x865ce994a8815b92ULL,
               {0x4080400000000000ULL, 0x406f155c1fb390e3ULL}},
        Golden{"MultiFeederK3Polled", ScenarioKind::kMultiFeeder, 8, 3,
               false, kPolled, 1441, 4323, 31, 3, 0, 0, 0, 0, 0,
               0x5c5b57c1b4f56419ULL,
               {0x4093640000000000ULL, 0x4035f867a2c906d4ULL,
                0x0000000000000000ULL, 0x40283964dd1e00bbULL,
                0x0000000000000000ULL, 0x402d8977157e7f0eULL}},
        Golden{"MultiFeederK3Event", ScenarioKind::kMultiFeeder, 8, 3,
               false, kEvent, 152, 91, 30, 3, 0, 0, 0, 0, 0,
               0x02ec6cd2b96e6594ULL,
               {0x40930c0000000000ULL, 0x403394f9ce1642a0ULL,
                0x0000000000000000ULL, 0x402835e07ab3242cULL,
                0x0000000000000000ULL, 0x402d8365bea5125eULL}},
        Golden{"TieSwitchPolled", ScenarioKind::kTieSwitch, 8, 0, false,
               kPolled, 1441, 5764, 59, 51, 0, 14, 8, 6, 14,
               0xc5d943fef134334bULL,
               {0x408d080000000000ULL, 0x40327d9d3a62b9c2ULL,
                0x406fc00000000000ULL, 0x402a5414677539e6ULL,
                0x4070600000000000ULL, 0x402f4d1b6d65f360ULL,
                0x4065800000000000ULL, 0x403361107ac00ce8ULL}},
        Golden{"TieSwitchEvent", ScenarioKind::kTieSwitch, 8, 0, false,
               kEvent, 391, 412, 56, 44, 0, 15, 8, 7, 15,
               0xcf0e02004d7ffb5eULL,
               {0x4088f00000000000ULL, 0x40348829b7b874e2ULL,
                0x4069600000000000ULL, 0x402cb349d2407192ULL,
                0x4070200000000000ULL, 0x402f4ca9f8f91dbeULL,
                0x4074b00000000000ULL, 0x403384ad534f7742ULL}}),
    [](const ::testing::TestParamInfo<Golden>& p) {
      return std::string(p.param.name);
    });

}  // namespace
}  // namespace han::fleet
