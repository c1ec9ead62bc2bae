// Packet-level golden: pins the exact outputs of the paper's own run
// (MiniCast floods over the 26-device FlockLab HAN, packet-level CP)
// so that kernel work on the event queue, the medium or the channel
// cannot move a single event or bit unnoticed. The ci/golden CSVs only
// cover fleet runs; this is the packet path's counterpart.
//
// The pinned values were recorded from the implementation before the
// lazy-deletion queue and the indexed medium history; an optimisation
// of the packet kernel must pass this file unmodified.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace han::core {
namespace {

using appliance::ArrivalScenario;

struct Golden {
  SchedulerKind scheduler;
  std::uint64_t seed;
  std::uint64_t events_executed;
  std::uint64_t requests;
  std::uint64_t stale_view_rounds;
  std::uint64_t load_fnv;         // FNV-1a over the load samples' bits
  std::uint64_t cp_coverage_bits;
  std::uint64_t radio_mah_bits;
  std::uint64_t radio_duty_bits;
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << (g.scheduler == SchedulerKind::kCoordinated ? "coordinated"
                                                     : "uncoordinated")
      << " seed " << g.seed;
}

/// FNV-1a (64-bit) over the IEEE-754 bit patterns of `values`, byte by
/// byte, least significant first.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

ExperimentConfig golden_config(SchedulerKind scheduler, std::uint64_t seed) {
  ExperimentConfig cfg = paper_config(ArrivalScenario::kHigh, scheduler, seed);
  cfg.workload.horizon = sim::minutes(10);
  return cfg;
}

class PacketGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(PacketGolden, RunIsBitIdentical) {
  const Golden& g = GetParam();
  const ExperimentResult r = run_experiment(golden_config(g.scheduler, g.seed));
  const std::uint64_t load_fnv = fnv1a(r.load.values());
  const auto coverage = std::bit_cast<std::uint64_t>(r.network.cp_mean_coverage);
  const auto mah = std::bit_cast<std::uint64_t>(r.network.total_radio_mah);
  const auto duty = std::bit_cast<std::uint64_t>(r.network.mean_radio_duty);
  // On a mismatch, print the whole observed row so a deliberate model
  // change can re-record it in one step.
  const std::string row = [&] {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "observed: %llu, %llu, %llu, 0x%016llxULL, 0x%016llxULL, "
                  "0x%016llxULL, 0x%016llxULL",
                  static_cast<unsigned long long>(r.events_executed),
                  static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.network.stale_view_rounds),
                  static_cast<unsigned long long>(load_fnv),
                  static_cast<unsigned long long>(coverage),
                  static_cast<unsigned long long>(mah),
                  static_cast<unsigned long long>(duty));
    return std::string(buf);
  }();
  SCOPED_TRACE(row);
  EXPECT_EQ(r.events_executed, g.events_executed);
  EXPECT_EQ(r.requests, g.requests);
  EXPECT_EQ(r.network.stale_view_rounds, g.stale_view_rounds);
  EXPECT_EQ(load_fnv, g.load_fnv);
  EXPECT_EQ(coverage, g.cp_coverage_bits);
  EXPECT_EQ(mah, g.radio_mah_bits);
  EXPECT_EQ(duty, g.radio_duty_bits);
}

// paper_config(high), 10 simulated minutes per run.
INSTANTIATE_TEST_SUITE_P(
    HighRate, PacketGolden,
    ::testing::Values(
        Golden{SchedulerKind::kCoordinated, 1, 1630815, 5, 0,
               0xf14b84b8290b8965ULL, 0x3ff0000000000000ULL,
               0x404a9d7816690478ULL, 0x3fe54eb61fae2624ULL},
        Golden{SchedulerKind::kCoordinated, 2, 1630814, 4, 0,
               0xf14b84b8290b8965ULL, 0x3ff0000000000000ULL,
               0x404a9d78166904c6ULL, 0x3fe54eb61fa26787ULL},
        Golden{SchedulerKind::kUncoordinated, 1, 1630815, 5, 0,
               0x8e1e47ae60642950ULL, 0x3ff0000000000000ULL,
               0x404a9d7816690478ULL, 0x3fe54eb61fae2624ULL},
        Golden{SchedulerKind::kUncoordinated, 2, 1630814, 4, 0,
               0xd8cf911731fcc35dULL, 0x3ff0000000000000ULL,
               0x404a9d78166904c6ULL, 0x3fe54eb61fa26787ULL}),
    [](const ::testing::TestParamInfo<Golden>& p) {
      return std::string(p.param.scheduler == SchedulerKind::kCoordinated
                             ? "Coordinated"
                             : "Uncoordinated") +
             "Seed" + std::to_string(p.param.seed);
    });

}  // namespace
}  // namespace han::core
